#!/usr/bin/env bash
# The workspace's `unsafe` policy, held mechanically:
#
#   * the token `unsafe` occurs in exactly one first-party source file, the
#     AES-NI intrinsics module of psoram-crypto (comments count: a file that
#     needs the word is a file to look at);
#   * psoram-crypto denies `unsafe_code` crate-wide (the one module carries
#     the one `#[allow]`), and every other crate root — the facade included —
#     still forbids it outright.
#
# Vendored stand-ins (vendor/) and the benchmark package (benchmark/, its
# own workspace with a counting global allocator) are out of scope.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWED=crates/crypto/src/aesni.rs
fail=0

stray=$(grep -rlw --include='*.rs' unsafe src crates tests examples | grep -vx "$ALLOWED" || true)
if [ -n "$stray" ]; then
    echo "error: \`unsafe\` outside $ALLOWED:" >&2
    grep -nw unsafe $stray >&2
    fail=1
fi
grep -qw unsafe "$ALLOWED" || {
    echo "error: $ALLOWED no longer holds the intrinsics; update this check" >&2
    fail=1
}

for root in src/lib.rs crates/*/src/lib.rs; do
    if [ "$root" = crates/crypto/src/lib.rs ]; then
        want='#![deny(unsafe_code)]'
    else
        want='#![forbid(unsafe_code)]'
    fi
    grep -qxF "$want" "$root" || {
        echo "error: $root does not carry $want" >&2
        fail=1
    }
done
allows=$(grep -rn --include='*.rs' 'allow(unsafe_code)' src crates tests examples | wc -l)
if [ "$allows" -ne 1 ]; then
    echo "error: expected exactly one #[allow(unsafe_code)], found $allows" >&2
    fail=1
fi

[ "$fail" -eq 0 ] && echo "unsafe policy: ok ($ALLOWED only)"
exit "$fail"

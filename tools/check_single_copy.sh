#!/usr/bin/env bash
# One device side, one recovery ladder — held mechanically.
#
# The crash-damage draw, the adversary's ground-truth confirms, the
# recovery scans over every tagged unit and the snapshot store are named
# only where they are implemented: `engine/` (the persist engine, the
# device side, the ladder) and `auth.rs` (the records they are made of).
# A controller that names one of them has grown its own copy of the device
# side or of the ladder. That has happened once already: PR 2 extracted the
# engine and left the two controllers at 2,219 lines; PRs 5, 6 and 8 then
# wrote the device, freshness and wear code into both (3,972 lines by the
# PR 8 re-anchor).
set -euo pipefail
cd "$(dirname "$0")/.."

NAMES='draw_crash_damage|confirm_stale_replay|confirm_cross_splice|tagged_slots_sorted|tagged_posmap_sorted|UnitHistory'

stray=$(grep -rlE "$NAMES" --include='*.rs' crates/core/src \
    | grep -v -e '^crates/core/src/engine/' -e '^crates/core/src/auth\.rs$' || true)
if [ -n "$stray" ]; then
    echo "error: device-side / recovery-ladder internals named outside engine/ and auth.rs:" >&2
    grep -nE "$NAMES" $stray >&2
    exit 1
fi
echo "single copy: ok (device side and recovery ladder live in engine/ only)"

#!/usr/bin/env bash
# One device side, one recovery ladder with one audit, one per-slot
# freshness table, one way to move a path through a controller, one
# controller shell, one integrity mechanism, one fleet simulator, one
# crash-fate model over a queue that seals nothing, one crash harness,
# one micro-benchmark harness, one scale — held mechanically.
#
# The crash-damage draw, the adversary's ground-truth confirms, the
# recovery scans over every tagged unit (phase 1's walk down the counter
# rows, `verdict_tracked_slots`) and the snapshot store are named only
# where they are implemented: `engine/` (the persist engine, the
# device side, the ladder) and `auth.rs` (the records they are made of).
# A controller that names one of them has grown its own copy of the device
# side or of the ladder. That has happened once already: PR 2 extracted the
# engine and left the two controllers at 2,219 lines; PRs 5, 6 and 8 then
# wrote the device, freshness and wear code into both (3,972 lines by the
# PR 8 re-anchor).
set -euo pipefail
cd "$(dirname "$0")/.."

NAMES='draw_crash_damage|confirm_stale_replay|confirm_cross_splice|verdict_tracked_slots|tagged_posmap_sorted|UnitHistory'

stray=$(grep -rlE "$NAMES" --include='*.rs' crates/core/src \
    | grep -v -e '^crates/core/src/engine/' -e '^crates/core/src/auth\.rs$' || true)
if [ -n "$stray" ]; then
    echo "error: device-side / recovery-ladder internals named outside engine/ and auth.rs:" >&2
    grep -nE "$NAMES" $stray >&2
    exit 1
fi

# One audit, and the ladder runs it: the sweep that locates every committed
# address (`locate`), the collecting audit over it and the per-address walk
# debug builds hold it to are private to `engine/recover.rs`; what they
# are made of (`CommitLedger::violations`, `committed_sorted`) is named
# only under `engine/`. A controller reaches the audit one way — the
# one-shot `check_committed`, once, in its public `check_recoverability`
# (which is also an unhardened design's whole verdict). One that names it
# again, or the pieces, has grown the second audit back into its `recover`.
AUDIT='committed_sorted|walked_all|\.violations\('
stray=$(grep -rlE "$AUDIT" --include='*.rs' crates/core/src \
    | grep -v -e '^crates/core/src/engine/' || true)
if [ -n "$stray" ]; then
    echo "error: the recovery audit's internals named outside engine/:" >&2
    grep -nE "$AUDIT" $stray >&2
    exit 1
fi
for controller in controller ring; do
    calls=$(grep -c 'check_committed(' "crates/core/src/$controller.rs" || true)
    if [ "$calls" -ne 1 ]; then
        echo "error: $controller.rs calls check_committed $calls times (its check_recoverability: 1)" >&2
        grep -n 'check_committed(' "crates/core/src/$controller.rs" >&2
        exit 1
    fi
done

# One per-slot freshness table: the trusted counter and the off-chip
# record of a slot share a row (`SlotRow`), so `auth.rs` names the table
# type twice — those rows and the adversary's `UnitHistory` — and the
# staging helpers the streamed passes replaced stay gone.
tables=$(grep -c 'UnitTable<' crates/core/src/auth.rs || true)
if [ "$tables" -ne 2 ]; then
    echo "error: auth.rs names UnitTable< $tables times (the slot rows and UnitHistory: 2)" >&2
    grep -n 'UnitTable<' crates/core/src/auth.rs >&2
    exit 1
fi
if grep -rnwE 'in_lanes|slot_tags|classify_lanes' --include='*.rs' crates; then
    echo "error: a per-unit staging helper of the freshness layer is back" >&2
    exit 1
fi
# A dummy's record is its counter digest (`0xC7 ‖ 0x01 ‖ bucket ‖ slot ‖
# ctr`): a dummy write costs the one MAC its counter needs, and an intact
# dummy is judged by comparison. `slot_frame` frames real blocks only (an
# empty slot's claim goes through `claim_frame`), and the dummy frame of
# its own, with its `0xD5` marker, stays gone.
if grep -rnE 'MARK_DUMMY|0xD5' --include='*.rs' crates/core/src; then
    echo "error: a dummy record frame of its own is back (MARK_DUMMY / 0xD5)" >&2
    exit 1
fi
signature=$(awk '/fn slot_frame/ { on = 1 } on { print } on && /\{$/ { exit }' crates/core/src/auth.rs)
if [ -z "$signature" ]; then
    echo "error: no fn slot_frame in crates/core/src/auth.rs" >&2
    exit 1
fi
if echo "$signature" | grep -n 'Option'; then
    echo "error: slot_frame takes an Option: it frames real blocks only" >&2
    exit 1
fi
# Ring rewrites a path through the kept buffers Path does (the rewrite
# tables, the recycled images, the payload free list): outside its tests,
# `ring.rs` brings no hash map, no vector of vectors and no freshly
# allocated block copy back.
plumbing=$(sed '/^#\[cfg(test)\]/,$d' crates/core/src/ring.rs \
    | grep -nE 'HashMap|Vec<Vec<|\.to_block\(\)' || true)
if [ -n "$plumbing" ]; then
    echo "error: ring.rs names HashMap, Vec<Vec< or .to_block() outside #[cfg(test)]:" >&2
    echo "$plumbing" >&2
    exit 1
fi
# One controller shell. The surface both controllers expose over the state
# they share is `ProtocolPolicy`'s provided methods over `engine::Shell`:
# the two macros that stamped it into each controller and forwarded it into
# the trait stay gone.
if grep -rnE 'impl_crash_controls|forward_to_controller' --include='*.rs' crates; then
    echo "error: a surface-stamping macro is back" >&2
    exit 1
fi
# A round reaches the media one way — `DeviceSide::program` for its slot
# units, `DeviceSide::flush` for its PosMap entries (snapshot → list →
# record → write; snapshot → persist → record → list → retire → reseal →
# anchor) — and a power failure one way, `engine::power_fail`. A
# controller that names a step of either sequence outside its tests has
# grown its own copy of the order.
STEPS='persist_posmap\(|anchor_root\(|begin_slot_units\(|begin_posmap_units\(|open_round\(|record_slots\(|\.strike\('
# Recovery is one call, `Shell::recover`: a controller names no rung.
RUNGS='Ladder::enter|\.detect\(|\.repair\(|\.finish\('
for controller in controller ring; do
    stray=$(sed '/^#\[cfg(test)\]/,$d' "crates/core/src/$controller.rs" \
        | grep -nE "$STEPS|$RUNGS" || true)
    if [ -n "$stray" ]; then
        echo "error: $controller.rs hand-sequences a round, a power failure or the ladder:" >&2
        echo "$stray" >&2
        exit 1
    fi
done
# What is not typed by a protocol's queues is not generic: the device side
# and the ladder work on the shell's own state (the `DeviceSide`, the
# `EngineControl` latch and tap), whatever the persist units are.
if grep -nE '<D, P>' crates/core/src/engine/device.rs crates/core/src/engine/recover.rs; then
    echo "error: the device side or the ladder is generic over the persist units again" >&2
    exit 1
fi
# One integrity mechanism: the freshness layer (`auth.rs`, armed through
# `engine::DeviceSide`). The Merkle tree that `PathOram` once also carried
# is named only in its own file, which stays for the frozen benchmark
# kernel that times it; no controller, config, test or example turns one
# on, and the tamper hook it needed is gone with it (the fault plan is the
# one door an attacker has).
MERKLE='IntegrityTree|enable_integrity|integrity_enabled|pending_integrity_path|corrupt_path_for_testing|corrupt_first_real_block|IntegrityViolation \{'
if grep -rnE "$MERKLE" --include='*.rs' crates src tests examples \
    | grep -v '^crates/core/src/integrity\.rs:'; then
    echo "error: the Merkle tree or its tamper hook is named outside crates/core/src/integrity.rs" >&2
    exit 1
fi
# One fleet simulator: shards side by side, one crashed or worn, are
# `psoram-service`'s lanes (`run_service`). The faultsim copy that drove
# its own instances beside them stays gone.
if grep -rnE 'fleet_campaign|WearFleetConfig|WearShardEvidence|FleetLaneReport' crates; then
    echo "error: a second fleet simulator is named under crates/" >&2
    exit 1
fi
# The contents check observes. `verify_contents` compares what each touched
# address would read (`ProtocolPolicy::peek`) with the ledger and issues
# nothing: its body names no read, write or access (`testkit::read_back` is
# the check through reads, for the tests). Ring's `peek` takes the slot its
# read takes, by `held_slot`: one pick, whatever it serves.
check=$(sed -n '/fn verify_contents(&self/,/^    }$/p' crates/core/src/engine/policy.rs)
if [ -z "$check" ]; then
    echo "error: ProtocolPolicy::verify_contents(&self, ..) not found in engine/policy.rs" >&2
    exit 1
fi
if echo "$check" | grep -nE '\.read\(|\.write|\.access\('; then
    echo "error: verify_contents reads, writes or accesses instead of observing" >&2
    exit 1
fi
if ! sed -n '/fn peek(&self/,/^    }$/p' crates/core/src/ring.rs | grep -q 'held_slot('; then
    echo "error: Ring's peek no longer picks its slot by held_slot, the read's own pick" >&2
    exit 1
fi
# One copy rule. A stored copy is *held* when its header names the label
# the controller holds for its address (`Shell::held`) and *recoverable*
# when it names the persisted one (`engine::recoverable`), each on that
# label's path; both are written once, in `engine/shell.rs`. Reads take the
# newest held copy on the path (`SlotArena::newest_on_path`, Ring's
# `held_slot`), so Ring's first-valid-primary pick, which never checked
# the label and served dead copies after a recovery, stays gone; and no
# controller compares a copy's leaf with the persisted label by hand (the
# hand-written copies once gave three different answers).
if grep -rn 'fn find_valid' --include='*.rs' crates/core/src; then
    echo "error: fn find_valid is back; a Ring read takes the newest held copy (held_slot)" >&2
    exit 1
fi
for controller in controller ring; do
    compared=$(sed 's://.*$::' "crates/core/src/$controller.rs" | tr '\n;{}' ' \n\n\n' \
        | grep -E 'persisted_get\(' | grep -E '[=!]=' || true)
    if [ -n "$compared" ]; then
        echo "error: $controller.rs compares a label with persisted_get( by hand; ask engine::recoverable:" >&2
        echo "$compared" | sed 's/  */ /g' >&2
        exit 1
    fi
done
# One experiment registry: every tracked figure, table and study result is
# an entry of `psoram_bench::experiments::REGISTRY`, written by the
# `experiments` binary at the scale constants its entry names. The
# environment knobs that once rescaled them (seven readers, seven
# defaults) stay gone, and no binary writes a tracked result of its own.
if grep -rnE 'PSORAM_(RECORDS|LEVELS|WARMUP)' crates; then
    echo "error: a scale knob (PSORAM_RECORDS, PSORAM_LEVELS, PSORAM_WARMUP) is named under crates/" >&2
    exit 1
fi
if grep -rn 'write_results_json' crates/bench/src/bin; then
    echo "error: a binary calls write_results_json; make it an entry of experiments::REGISTRY" >&2
    exit 1
fi
# One scale: every campaign and tracked artifact runs at its tracked
# scale. A smoke mode beside it was a second code path that saved
# milliseconds and passed a PS-ORAM the full run fails; the binaries that
# wrote the tracked BENCH_06 / BENCH_07 are the registry's `service` and
# `lifetime` entries, and no reduced-scale copy of a result is tracked.
if grep -rn '"--smoke"' crates/bench/src; then
    echo "error: a --smoke flag under crates/bench/src; run the tracked scale" >&2
    exit 1
fi
for bin in lifetime_campaign service_bench; do
    if [ -e "crates/bench/src/bin/$bin.rs" ]; then
        echo "error: crates/bench/src/bin/$bin.rs is back; its report is an entry of experiments::REGISTRY" >&2
        exit 1
    fi
done
if git ls-files 'results/*_smoke.json' | grep .; then
    echo "error: a reduced-scale result is tracked" >&2
    exit 1
fi
# One design table: the suites in `crates/core/tests` loop over
# `psoram_core::testkit::Design::all()`, whose rows carry each design's
# factories, crash points, arms and claims. A test file that lists the
# designs itself — `ProtocolVariant::all()`, an `enum Design` of its own, or
# an array of two or more `RingVariant::` values — has grown a grid the
# table does not see (ten files once kept ten such lists, each a different
# subset). `store_regression.rs` is exempt: its lists index positional pins.
for f in crates/core/tests/*.rs; do
    [ "$f" = crates/core/tests/store_regression.rs ] && continue
    if grep -nE 'ProtocolVariant::all\(\)|enum Design\b' "$f" >&2 \
        || tr '\n' ' ' <"$f" | grep -qE '\[[^][]*RingVariant::[A-Za-z]+[^][]*,[^][]*RingVariant::'; then
        echo "error: $f lists the designs by hand; loop over psoram_core::testkit::Design::all()" >&2
        exit 1
    fi
done
# One crash harness: `psoram-faultsim` runs on `psoram_core::testkit`. Its
# campaigns iterate `testkit::Design` rows, whose claims
# (`is_crash_consistent`, `is_hardened`) are made once, in the table, and
# each campaign report passes its own verdict (`CampaignReport::verdict`,
# `DeviceCampaignReport::verdict`). A second design enum, a second claim,
# or a binary's own verdict has grown the second harness back (faultsim
# kept one, `DesignVariant`, beside the table until both were one).
if grep -rnE 'enum DesignVariant\b' --include='*.rs' crates src tests examples; then
    echo "error: a second design enum (DesignVariant); iterate psoram_core::testkit::Design" >&2
    exit 1
fi
claims=$(grep -rnE 'fn (expected_consistent|is_hardened)\b' --include='*.rs' crates src tests examples \
    | grep -v '^crates/core/src/testkit/' || true)
if [ -n "$claims" ]; then
    echo "error: a design's claim made outside crates/core/src/testkit:" >&2
    echo "$claims" >&2
    exit 1
fi
if grep -rnE 'fn (verdict|device_verdict)\b' crates/bench/src/bin; then
    echo "error: a binary judges a campaign itself; call the report's verdict()" >&2
    exit 1
fi
# One crash-fate model. A crash's damage to the round it interrupts is
# drawn once (`draw_crash_damage` in `engine/device.rs`, from
# `FaultPlan::round_fate`) and applied once (`DeviceSide::strike`) over
# the units that round listed. The WPQ is a queue: a second fate model
# beside it (`Wpq::crash_with_plan` once was one, which no controller
# called) names the fates outside `fault.rs` and `engine/`.
FATES='round_fate\(|RoundFate::'
stray=$(grep -rlE "$FATES" --include='*.rs' crates src examples \
    | grep -v -e '/tests/' -e '^crates/nvm/src/fault\.rs$' -e '^crates/core/src/engine/' || true)
for f in $stray; do
    if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -qE "$FATES"; then
        echo "error: the round fates are named outside crates/nvm/src/fault.rs and crates/core/src/engine/:" >&2
        grep -nE "$FATES" "$f" >&2
        exit 1
    fi
done
# One adversary, gathered: the device's state — the fault plan, the wear
# engine and the incidents a crash files — is `DeviceSide`'s, in
# `engine/device.rs`, beside the hands that apply it. `EngineControl` is
# the crash plan and its latches; when it also held the plan and the wear
# engine, every guard was two calls across that line and a second type
# (`WearReadOutcome`) carried one call's answer back over it.
held=$(grep -rnE '^\s*(pub(\([a-z]+\))?\s+)?[a-z_][a-z0-9_]*:\s*(Option<\s*)?(psoram_nvm::)?(FaultPlan|WearEngine)\b' \
    --include='*.rs' crates/core/src | grep -v '^crates/core/src/engine/device\.rs:' || true)
if [ -n "$held" ]; then
    echo "error: a FaultPlan or WearEngine field outside crates/core/src/engine/device.rs:" >&2
    echo "$held" >&2
    exit 1
fi
if git ls-files -z '*.rs' | xargs -0 grep -nw 'WearReadOutcome' >&2; then
    echo "error: WearReadOutcome is back; DeviceSide::wear_read_fault answers in one call" >&2
    exit 1
fi
DEVICE_METHODS='read_fault|read_replay|wear_read_fault|draw_crash_damage|device_entropy|install_fault_plan|persist_root|take_incidents'
methods=$(grep -rlE 'impl EngineControl\b' --include='*.rs' crates/core/src | xargs -r awk -v names="$DEVICE_METHODS" '
    /^impl EngineControl[ {]/ { on = 1; next }
    on && /^}/ { on = 0 }
    on && $0 ~ "fn (" names ")[(<]" { print FILENAME ":" FNR ":" $0 }')
if [ -n "$methods" ]; then
    echo "error: EngineControl draws from or keeps the device's state again; it is DeviceSide's:" >&2
    echo "$methods" >&2
    exit 1
fi
# The queue seals nothing, so `psoram-nvm` and `psoram-crypto` stay
# independent siblings: the frame seal was the only edge between them.
if grep -n 'psoram-crypto' crates/nvm/Cargo.toml >&2; then
    echo "error: crates/nvm/Cargo.toml depends on psoram-crypto again" >&2
    exit 1
fi
# One bus record: the obliviousness checks read the NVM requests the tap
# carries (`psoram_core::testkit::fold`). The controller's own report of
# what it touched (a second recorder, which only Path had and which
# recorded a constant transfer count) made every shape check true by
# construction.
if git ls-files -z '*.rs' | xargs -0 grep -nwE 'AccessRecorder|ObservedAccess|enable_recording' >&2; then
    echo "error: a self-reporting access recorder again; fold the tap's NvmAccess events (testkit::fold)" >&2
    exit 1
fi
# One history: CHANGES.md is the per-change log, git keeps the rest. A
# second log (CHANGELOG.md once told every change again, read by nothing)
# grows beside it unseen.
if git ls-files --error-unmatch CHANGELOG.md >/dev/null 2>&1; then
    echo "error: CHANGELOG.md is tracked again; CHANGES.md is the one per-change log" >&2
    exit 1
fi
# Counter-mode ORAM never decrypts a block: the keystream XOR is its own
# inverse. A block decryption (the FIPS-197 inverse cipher) is code no
# controller calls.
if git ls-files -z '*.rs' | xargs -0 grep -nwE 'decrypt_block|INV_SBOX' >&2; then
    echo "error: an AES inverse cipher again; CTR mode decrypts by encrypting the counter" >&2
    exit 1
fi
# One micro-benchmark harness: `benchmark/` and its `per_layer` rows.
if grep -rn --include='Cargo.toml' --exclude-dir=target 'criterion' .; then
    echo "error: a manifest names criterion again" >&2
    exit 1
fi
echo "single copy: ok (device side and its state, recovery ladder and its audit in engine/ only; one per-slot freshness table, a dummy's record its counter digest; no per-rewrite plumbing in ring.rs; one controller shell, one applier, one power-fail frame, one ladder entry; one integrity mechanism; one fleet simulator; a contents check that observes; one copy rule; one experiment registry; one design table; one crash harness; one crash-fate model, no psoram-crypto under psoram-nvm; one micro-benchmark harness; one scale, no smoke mode; one bus record; one history, no inverse cipher)"

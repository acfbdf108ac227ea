//! Small-scope exhaustive acceptance of the recovery ladder.
//!
//! `device_fault_tests.rs` asserts the ladder's contract on samples at
//! `L = 6`; this suite asserts the same contract on *every* case of a
//! scope small enough to enumerate: trees of height `L ≤ 3` with `Z = 2`,
//! every hardened row of the design table with that scope (the three WPQ
//! Path variants and PS-Ring) × every step-boundary crash point × every
//! fault arm on its own × plan seeds (eight for PS-ORAM and PS-Ring, two
//! for Naïve and Rcr PS-ORAM) × two working sets, several crash → recover
//! rounds each (5,400 cases). In a tree this small nearly every path
//! overlaps every other, so redundant copies, shadows and damaged units
//! collide constantly — the corners the sampled runs reach rarely. The
//! contract: corruption is never silent, every rolled-back address carries
//! a typed error, and `recover` twice is `recover` once.

use psoram_core::ring::RingVariant;
use psoram_core::testkit::{recovered, Arm, Design, Geometry};
use psoram_core::{CrashPoint, OramError, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::FaultConfig;

const ROUNDS: u64 = 4;

/// The plan seeds of a row: eight for PS-ORAM and PS-Ring, two for the
/// rest, which keeps the suite's debug run time near what the two rows
/// alone took.
fn seeds(d: Design) -> u64 {
    match d {
        Design::Path(ProtocolVariant::PsOram) | Design::Ring(RingVariant::PsRing) => 8,
        _ => 2,
    }
}

/// Every fault arm by itself, likely enough to fire within a few rounds.
fn single_kind_mixes() -> Vec<(&'static str, FaultConfig)> {
    let only = |kind, set: fn(&mut FaultConfig)| {
        let mut cfg = FaultConfig::disabled();
        set(&mut cfg);
        (kind, cfg)
    };
    vec![
        only("torn_flush", |c| c.torn_flush = 0.7),
        only("signal_loss", |c| c.signal_loss = 0.7),
        only("duplicate_signal", |c| c.duplicate_signal = 0.7),
        only("bit_flip", |c| c.bit_flip_per_unit = 0.3),
        only("transient_read", |c| c.transient_read = 0.2),
        only("stuck_read", |c| {
            (c.transient_read, c.stuck_read) = (0.1, 0.5)
        }),
        only("stale_replay", |c| c.stale_replay = 0.9),
        only("cross_splice", |c| c.cross_splice = 0.9),
        only("read_replay", |c| c.read_replay = 0.5),
    ]
}

/// Every hardened row at the small scope, at each of its seeds.
fn designs(levels: u32) -> impl Iterator<Item = (u64, Box<dyn ProtocolPolicy>)> {
    let hardened = Design::all().filter(|d| d.is_hardened());
    let seeded = hardened.flat_map(|d| (0..seeds(d)).map(move |seed| (d, seed)));
    seeded.filter_map(move |(d, seed)| Some((seed, d.build_at(Geometry::Scope(levels), seed)?)))
}

/// A quarter and a third of the capacity. Fuller trees at `Z = 2` leave
/// the ladder's business for the eviction planners': Path pins more blocks
/// to a path than it has slots and Ring reshuffles a bucket holding more
/// than `Z` reals (both `debug_assert`s, both on fault-free runs). At a
/// quarter, PS-Ring at `L = 3` under stale replays alone (seed 4, a crash
/// after step ②) once served a dead copy: a replay destroyed the newest
/// committed copy of `a0`, Ring's Case-2 compaction promoted an older
/// shadow under the still-current label, phase 3 re-pointed `a0` at a
/// newer survivor on another path, the verdict was consistent — and the
/// next read took the promoted shadow, because a Ring read took the first
/// valid primary of the address whatever leaf its header named.
fn working_set(oram: &dyn ProtocolPolicy, part: u64) -> u64 {
    (oram.capacity_blocks() / part).max(2)
}

/// A few mixed accesses; `false` once the fail-safe latch refuses service
/// (a typed refusal, not corruption).
fn drive(oram: &mut dyn ProtocolPolicy, working_set: u64, x: &mut u64, n: u64) -> bool {
    for i in 0..n {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = (*x >> 33) % working_set;
        let outcome = if i % 3 == 0 {
            oram.read(addr).map(drop)
        } else {
            oram.write(addr, vec![(*x >> 17) as u8; oram.payload_bytes()])
        };
        match outcome {
            Ok(()) => {}
            Err(OramError::Poisoned { .. }) => return false,
            Err(e) => panic!("unexpected access error: {e}"),
        }
    }
    true
}

/// Crashes at `point` during the next access, or — when the protocol has
/// no such step (Ring checks no stash before its PosMap) or the device
/// refuses the access first — right after it.
fn crash_at(
    oram: &mut dyn ProtocolPolicy,
    working_set: u64,
    point: CrashPoint,
    x: &mut u64,
) -> bool {
    oram.inject_crash(point);
    let addr = (*x >> 40) % working_set;
    match oram.write(addr, vec![*x as u8; oram.payload_bytes()]) {
        Err(OramError::Crashed) => return true,
        Err(OramError::Poisoned { .. }) => return false,
        Ok(()) => {}
        Err(e) => panic!("unexpected access error: {e}"),
    }
    oram.disarm_crash();
    oram.crash_now();
    true
}

#[test]
fn every_small_scope_crash_recovers_loudly_and_once() {
    let (mut cases, mut classified, mut convicted) = (0u64, 0u64, 0u64);
    for (levels, part) in (1..=3u32).flat_map(|l| [4, 3].map(|part| (l, part))) {
        for (kind, mix) in single_kind_mixes() {
            for point in CrashPoint::step_boundaries() {
                for (seed, mut oram) in designs(levels) {
                    let label = oram.label();
                    let case =
                        format!("{label} L={levels} {kind} {point} seed={seed} capacity/{part}");
                    let mut x = seed ^ 0xA076_1D64_78BD_642F;
                    let ws = working_set(oram.as_ref(), part);
                    assert!(drive(oram.as_mut(), ws, &mut x, 12), "{case}: clean warmup");
                    oram.enable_device_faults(seed.wrapping_mul(0x9E37) ^ 7, mix);
                    cases += 1;
                    for _ in 0..ROUNDS {
                        if !drive(oram.as_mut(), ws, &mut x, 5)
                            || !crash_at(oram.as_mut(), ws, point, &mut x)
                        {
                            break;
                        }
                        let report = oram.recover();
                        classified += report.errors.len() as u64 + report.repairs;
                        convicted += report.freshness_violations();
                        // Once: the verdict again, nothing moved.
                        let digest = oram.state_digest();
                        assert_eq!(oram.recover(), report, "{case}");
                        assert_eq!(oram.state_digest(), digest, "{case}");
                        // Never silent: a violation arrives classified,
                        // and a clean verdict reads back (under the
                        // plan: a fail-safe mid-read is typed).
                        recovered(Arm::Hardened, oram.as_mut(), &report)
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                    }
                    // Every stale serve on the wire was caught before admission.
                    let injected = oram.device_fault_stats().expect("armed");
                    let wire = oram.freshness_stats();
                    assert_eq!(wire.stale_serves, injected.read_replays, "{case}");
                    assert!(wire.all_detected(), "{case}: {wire:?}");
                }
            }
        }
    }
    println!("{cases} cases, {classified} classified, {convicted} convicted");
    assert_eq!(cases, 3 * 2 * 9 * 5 * designs(1).map(|_| 1).sum::<u64>());
    assert!(classified > 0, "no case ever classified a fault");
    assert!(convicted > 0, "no case ever convicted a replay or splice");
}

//! Device-level fault injection and integrity-verified recovery.
//!
//! These tests drive the hardened (WPQ) designs through crashes with a
//! seeded device fault plan installed — torn flushes, signal loss, media
//! bit rot, transient reads — and assert the tentpole contract: every
//! fault is either *repaired* (post-recovery contents match the committed
//! ledger) or *fail-safed* with a typed `RecoveryError`; corruption is
//! never silent. The double-recover suites pin the idempotency guarantee
//! both controllers document.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::testkit::{conform, payload, recovered, Arm, Contract, Design};
use psoram_core::{
    BlockAddr, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant, RecoveryReport,
};
use psoram_nvm::FaultConfig;

/// Every row the integrity layer hardens: the WPQ designs and the toy.
fn hardened_designs(seed: u64) -> impl Iterator<Item = Box<dyn ProtocolPolicy>> {
    let hardened = Design::all().filter(|d| d.is_hardened());
    hardened.map(move |d| d.build(seed))
}

/// Workload helper tolerant of fail-safe poisoning: returns `false` once
/// the controller refuses service.
fn drive<P: ProtocolPolicy + ?Sized>(oram: &mut P, base: u64, n: u64) -> bool {
    let span = oram.capacity_blocks().min(40);
    for i in 0..n {
        let addr = (base + i * 7) % span;
        let r = if i % 3 == 0 {
            oram.read(addr).map(|_| ())
        } else {
            oram.write(addr, payload(base + i))
        };
        match r {
            Ok(()) => {}
            Err(OramError::Poisoned { .. }) => return false,
            Err(e) => panic!("unexpected access error: {e}"),
        }
    }
    true
}

/// Warms `oram` up, arms `mix`, then runs `rounds` crash → recover cycles
/// a dozen accesses apart, handing each report over, until the fail-safe
/// latch refuses service (a typed refusal, not corruption).
fn crash_cycles<P: ProtocolPolicy + ?Sized>(
    oram: &mut P,
    seed: u64,
    (mix, rounds): (FaultConfig, u64),
    mut each: impl FnMut(&mut P, RecoveryReport),
) {
    assert!(drive(oram, seed, 30), "clean warmup poisoned");
    oram.enable_device_faults(seed.wrapping_mul(0x9E37), mix);
    for round in 0..rounds {
        if !drive(oram, seed + round * 101, 12) {
            break;
        }
        oram.crash_now();
        let report = oram.recover();
        each(oram, report);
    }
}

#[test]
fn hardened_designs_self_heal_or_fail_safe_under_device_faults() {
    for seed in [3u64, 17, 92] {
        for mut oram in hardened_designs(seed) {
            // A violation is never silent: it arrives classified, as typed
            // errors or poisoning. A clean verdict reads back the committed
            // ledger (rollbacks folded in); the reads run under the fault
            // plan, so a fail-safe among them is an acceptable (typed)
            // outcome — divergence is not.
            let mix = (FaultConfig::campaign_default(), 8);
            crash_cycles(oram.as_mut(), seed, mix, |oram, report| {
                recovered(Arm::Hardened, oram, &report).unwrap_or_else(|e| panic!("{e}"))
            });
        }
    }
}

#[test]
fn recover_without_crash_is_a_no_op() {
    conform(Contract::Idempotent, |d, arm| {
        d.is_hardened() && arm == Arm::Hardened
    });
}

/// The double-recover regression: recover, crash "during recovery" (a
/// power failure immediately after, before any new round), recover again —
/// state and verdict must be byte-identical and counters must not double.
#[test]
fn double_recover_is_idempotent_and_byte_identical() {
    // A disabled plan keeps the whole integrity pipeline armed (tags,
    // the temporary-PosMap seal, device draws) while injecting nothing,
    // so the byte-identity comparison is exact.
    for mut oram in hardened_designs(29) {
        crash_cycles(
            oram.as_mut(),
            29,
            (FaultConfig::disabled(), 1),
            |oram, first| {
                assert!(first.violation.is_none(), "{:?}", first.violation);
                let digest = oram.state_digest();
                // Second recover with no intervening crash: cached verdict.
                assert_eq!((oram.recover(), oram.state_digest()), (first, digest));
                // Crash during recovery's aftermath, then recover again.
                oram.crash_now();
                let second = oram.recover();
                assert!(
                    second.violation.is_none() && second.repairs == 0,
                    "{second:?}"
                );
                assert!(second.rolled_back.is_empty(), "{second:?}");
                assert_eq!(
                    oram.state_digest(),
                    digest,
                    "re-crash + re-recover diverged"
                );
                oram.verify_contents(true).expect("contents diverge");
            },
        );
    }
}

#[test]
fn rolled_back_addresses_carry_typed_errors() {
    // Aggressive plans tear nearly every round; over enough crashes at
    // least one run must classify damage, and whenever an address is
    // rolled back a typed UnrecoverableAddress (or Poisoned) error names
    // the loss.
    let mut classified = 0u64;
    for seed in 0..12u64 {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        crash_cycles(
            &mut oram,
            seed,
            (FaultConfig::aggressive(), 6),
            |oram, report| {
                classified +=
                    report.errors.len() as u64 + report.repairs + u64::from(report.poisoned);
                recovered(Arm::Hardened, oram, &report)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            },
        );
    }
    assert!(
        classified > 0,
        "aggressive campaign never classified a fault"
    );
}

#[test]
fn baselines_take_faults_without_defenses() {
    // The differential campaigns need the unhardened designs to keep
    // failing detectably: enabling device faults on one installs the plan
    // (stats exist) but arms no integrity layer.
    for d in Design::all().filter(|d| !d.is_hardened()) {
        let mut oram = d.build(7);
        oram.enable_device_faults(7, FaultConfig::campaign_default());
        assert!(oram.device_fault_stats().is_some(), "{d:?}");
        assert!(drive(oram.as_mut(), 7, 20), "{d:?}");
        oram.crash_now();
        let _ = oram.recover(); // may or may not be consistent; must not panic
    }
}

#[test]
fn transient_read_faults_surface_in_fault_stats() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 41);
    oram.enable_device_faults(41, FaultConfig::aggressive());
    let mut served = 0u64;
    for i in 0..200u64 {
        match oram.write(BlockAddr(i % 32), payload(i)) {
            Ok(()) => served += 1,
            Err(OramError::Poisoned { .. }) => break,
            Err(OramError::Crashed) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    let stats = oram.device_fault_stats().expect("plan installed");
    assert!(
        stats.read_faults > 0 || oram.poisoned().is_some(),
        "aggressive plan served {served} accesses without a read fault"
    );
}

#[test]
fn replay_and_splice_adversaries_still_land_and_are_always_detected() {
    // The adversary's snapshot store is kept only under plans that can
    // re-serve a previous version. That must cost the adversary nothing:
    // the replay mix still lands crash-time replays, wire replays and
    // splices, a splice-only plan (no snapshots at all) still lands its
    // splices, and the hardened designs — Path and Ring — convict every
    // one of them.
    let splice_only = FaultConfig {
        cross_splice: 1.0,
        ..FaultConfig::disabled()
    };
    for (mix, replays) in [(FaultConfig::replay_mix(), true), (splice_only, false)] {
        assert_eq!(mix.replays_stale_units(), replays);
        let mut landed = psoram_nvm::FaultStats::default();
        for seed in [3u64, 17, 92, 311] {
            for mut oram in hardened_designs(seed) {
                let mut convicted = 0;
                crash_cycles(oram.as_mut(), seed, (mix, 10), |_, report| {
                    convicted += report.replays_detected + report.splices_detected
                });
                let injected = oram.device_fault_stats().expect("plan installed");
                assert!(
                    convicted >= injected.stale_replays + injected.cross_splices,
                    "seed {seed}: {convicted} convictions for {injected:?}"
                );
                let wire = oram.freshness_stats();
                assert_eq!(wire.stale_serves, injected.read_replays);
                assert!(wire.all_detected(), "seed {seed}: {wire:?}");
                landed.stale_replays += injected.stale_replays;
                landed.cross_splices += injected.cross_splices;
                landed.read_replays += injected.read_replays;
            }
        }
        assert!(landed.cross_splices > 0, "no splice landed: {landed:?}");
        assert_eq!(landed.stale_replays > 0, replays, "{landed:?}");
        assert_eq!(landed.read_replays > 0, replays, "{landed:?}");
    }
}

/// Crash → recover cycles of `oram` under the replay mix, each recovery's
/// verdict — read off the addresses phase 3 touched — compared with the
/// whole audit (`full`) run over the recovered state. Returns the repairs
/// and rollbacks seen.
fn narrow_verdicts_against_full<T: ProtocolPolicy>(
    mut oram: T,
    seed: u64,
    full: fn(&T) -> Result<(), String>,
) -> (u64, usize) {
    let (mut repairs, mut rollbacks) = (0, 0);
    crash_cycles(
        &mut oram,
        seed,
        (FaultConfig::replay_mix(), 10),
        |oram, report| {
            assert_eq!(report.violation, full(oram).err(), "seed {seed}");
            repairs += report.repairs;
            rollbacks += report.rolled_back.len();
        },
    );
    (repairs, rollbacks)
}

/// The debug build asserts this inside every recovery; this is the form
/// that also holds the release build to it.
#[test]
fn the_verdict_after_repair_is_the_full_audit() {
    let mut seen = [(0, 0); 2];
    for seed in [3u64, 17, 92, 311] {
        let path = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        let ring = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, seed);
        let runs = [
            narrow_verdicts_against_full(path, seed, PathOram::check_recoverability),
            narrow_verdicts_against_full(ring, seed, RingOram::check_recoverability),
        ];
        for (total, (repairs, rollbacks)) in seen.iter_mut().zip(runs) {
            *total = (total.0 + repairs, total.1 + rollbacks);
        }
    }
    for (design, (repairs, rollbacks)) in ["Path", "Ring"].iter().zip(seen) {
        assert!(repairs > 0, "{design}: no recovery repaired anything");
        assert!(rollbacks > 0, "{design}: no recovery rolled anything back");
    }
}

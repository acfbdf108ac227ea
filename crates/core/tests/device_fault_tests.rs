//! Device-level fault injection and integrity-verified recovery.
//!
//! These tests drive the hardened (WPQ) designs through crashes with a
//! seeded device fault plan installed — torn flushes, signal loss, media
//! bit rot, transient reads — and assert the tentpole contract: every
//! fault is either *repaired* (post-recovery contents match the committed
//! ledger) or *fail-safed* with a typed [`RecoveryError`]; corruption is
//! never silent. The double-recover suites pin the idempotency guarantee
//! both controllers document.

use psoram_core::engine::read_back;
use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{
    BlockAddr, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant, RecoveryError,
};
use psoram_nvm::FaultConfig;

fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

/// Every design that claims crash consistency *and* runs its persists
/// through the WPQ — the designs the integrity layer hardens.
fn hardened_designs(seed: u64) -> Vec<Box<dyn ProtocolPolicy>> {
    let mut v: Vec<Box<dyn ProtocolPolicy>> = ProtocolVariant::all()
        .into_iter()
        .filter(|p| p.uses_wpq())
        .map(|p| Box::new(PathOram::new(OramConfig::small_test(), p, seed)) as _)
        .collect();
    v.push(Box::new(RingOram::new(
        RingConfig::small_test(),
        RingVariant::PsRing,
        seed,
    )));
    v
}

/// Workload helper tolerant of fail-safe poisoning: returns `false` once
/// the controller refuses service.
fn drive(oram: &mut dyn ProtocolPolicy, base: u64, n: u64) -> bool {
    for i in 0..n {
        let addr = (base + i * 7) % 40;
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

#[test]
fn hardened_designs_self_heal_or_fail_safe_under_device_faults() {
    for seed in [3u64, 17, 92] {
        for mut oram in hardened_designs(seed) {
            assert!(drive(oram.as_mut(), seed, 30), "clean warmup poisoned");
            oram.enable_device_faults(seed.wrapping_mul(0x9E37), FaultConfig::campaign_default());
            for round in 0..8u64 {
                if !drive(oram.as_mut(), seed + round * 101, 12) {
                    break; // fail-safe latched: typed refusal, not corruption
                }
                oram.crash_now();
                let report = oram.recover();
                if report.violation.is_some() {
                    // A consistency violation must never be silent: it has
                    // to arrive classified, as typed errors or poisoning.
                    assert!(
                        !report.errors.is_empty() || report.poisoned,
                        "silent violation: {:?}",
                        report.violation
                    );
                } else if !report.poisoned {
                    // Clean verdict: contents must actually match the
                    // committed ledger (rollbacks already folded in). The
                    // reads back that follow run under the fault plan, so
                    // a read-path fail-safe among them is an acceptable
                    // (typed) outcome — divergence is not.
                    oram.verify_contents(true)
                        .unwrap_or_else(|e| panic!("consistent verdict but contents diverge: {e}"));
                    if let Err(e) = read_back(oram.as_mut(), true) {
                        assert!(
                            oram.poisoned().is_some(),
                            "consistent verdict but contents diverge: {e}"
                        );
                        break;
                    }
                }
            }
        }
    }
}

#[test]
fn recover_without_crash_is_a_no_op() {
    for mut oram in hardened_designs(5) {
        oram.enable_device_faults(11, FaultConfig::campaign_default());
        assert!(drive(oram.as_mut(), 5, 20));
        let digest = oram.state_digest();
        let report = oram.recover(); // never crashed
        assert!(report.violation.is_none());
        assert_eq!(oram.state_digest(), digest, "no-op recover mutated state");
    }
}

/// The double-recover regression: recover, crash "during recovery" (a
/// power failure immediately after, before any new round), recover again —
/// state and verdict must be byte-identical and counters must not double.
#[test]
fn double_recover_is_idempotent_and_byte_identical() {
    for mut oram in hardened_designs(29) {
        // A disabled plan keeps the whole integrity pipeline armed (tags,
        // sealed frames, device draws) while injecting nothing, so the
        // byte-identity comparison is exact.
        oram.enable_device_faults(23, FaultConfig::disabled());
        assert!(drive(oram.as_mut(), 29, 36));
        oram.crash_now();

        let first = oram.recover();
        assert!(first.violation.is_none(), "{:?}", first.violation);
        let digest = oram.state_digest();

        // Second recover with no intervening crash: cached verdict.
        let again = oram.recover();
        assert_eq!(again, first);
        assert_eq!(oram.state_digest(), digest);

        // Crash during recovery's aftermath, then recover again.
        oram.crash_now();
        let second = oram.recover();
        assert!(second.violation.is_none(), "{:?}", second.violation);
        assert_eq!(
            oram.state_digest(),
            digest,
            "re-crash + re-recover diverged from the recovered state"
        );
        assert_eq!(second.repairs, 0, "idle re-recovery invented repairs");
        assert!(second.rolled_back.is_empty());
        oram.verify_contents(true).expect("contents diverge");
    }
}

#[test]
fn rolled_back_addresses_carry_typed_errors() {
    // Aggressive plans tear nearly every round; over enough crashes at
    // least one run must classify damage. The contract under test:
    // whenever an address is rolled back, a typed UnrecoverableAddress
    // (or Poisoned) error names the loss.
    let mut classified = 0u64;
    for seed in 0..12u64 {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        assert!(drive(&mut oram, seed, 24));
        oram.enable_device_faults(seed, FaultConfig::aggressive());
        for round in 0..6u64 {
            if !drive(&mut oram, seed + round * 13, 9) {
                classified += 1;
                break;
            }
            oram.crash_now();
            let report = oram.recover();
            classified += report.errors.len() as u64 + report.repairs;
            for a in &report.rolled_back {
                assert!(
                    report.errors.iter().any(|e| matches!(
                        e,
                        RecoveryError::UnrecoverableAddress { addr, .. } if addr == a
                    )),
                    "rollback of {a} not named by a typed error"
                );
            }
            if report.poisoned {
                break;
            }
        }
    }
    assert!(
        classified > 0,
        "aggressive campaign never classified a fault"
    );
}

#[test]
fn baselines_take_faults_without_defenses() {
    // The differential campaigns need the unhardened designs to keep
    // failing detectably: enabling device faults on a baseline must
    // install the plan (stats exist) but arm no integrity layer.
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::Baseline, 7);
    oram.enable_device_faults(7, FaultConfig::campaign_default());
    assert!(oram.device_fault_stats().is_some());
    let mut ring = RingOram::new(RingConfig::small_test(), RingVariant::Baseline, 7);
    ring.enable_device_faults(7, FaultConfig::campaign_default());
    assert!(ring.device_fault_stats().is_some());
    assert!(drive(&mut ring, 7, 20));
    ring.crash_now();
    let _ = ring.recover(); // may or may not be consistent; must not panic
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
                assert!(drive(oram.as_mut(), seed, 30), "clean warmup poisoned");
                oram.enable_device_faults(seed.wrapping_mul(0x9E37), mix);
                let mut convicted = 0;
                for round in 0..10u64 {
                    if !drive(oram.as_mut(), seed + round * 101, 12) {
                        break;
                    }
                    oram.crash_now();
                    let report = oram.recover();
                    convicted += report.replays_detected + report.splices_detected;
                }
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
    assert!(drive(&mut oram, seed, 30), "clean warmup poisoned");
    oram.enable_device_faults(seed.wrapping_mul(0x9E37), FaultConfig::replay_mix());
    for round in 0..10u64 {
        if !drive(&mut oram, seed + round * 101, 12) {
            break;
        }
        oram.crash_now();
        let report = oram.recover();
        assert_eq!(
            report.violation,
            full(&oram).err(),
            "seed {seed} round {round}"
        );
        repairs += report.repairs;
        rollbacks += report.rolled_back.len();
    }
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

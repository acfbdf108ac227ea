//! Functional integration tests for the Ring ORAM controller.
//!
//! Crash/recovery behavior is covered by the parameterized matrix in
//! `crash_matrix.rs`; this file keeps the Ring-specific functional and
//! statistics claims.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};

fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

#[test]
fn read_your_writes_both_variants() {
    for variant in [RingVariant::Baseline, RingVariant::PsRing] {
        let mut oram = RingOram::new(RingConfig::small_test(), variant, 42);
        for i in 0..40u64 {
            oram.write(BlockAddr(i), payload(i)).unwrap();
        }
        for i in (0..40u64).rev() {
            assert_eq!(
                oram.read(BlockAddr(i)).unwrap(),
                payload(i),
                "{variant} block {i}"
            );
        }
    }
}

#[test]
fn overwrites_visible() {
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 1);
    oram.write(BlockAddr(5), payload(1)).unwrap();
    oram.write(BlockAddr(5), payload(2)).unwrap();
    assert_eq!(oram.read(BlockAddr(5)).unwrap(), payload(2));
}

#[test]
fn fresh_reads_zero() {
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 1);
    assert_eq!(oram.read(BlockAddr(9)).unwrap(), vec![0u8; 8]);
}

#[test]
fn evictions_happen_at_configured_rate() {
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 1);
    for i in 0..30u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    assert_eq!(
        oram.stats().evictions,
        10,
        "A=3 means one eviction per 3 accesses"
    );
}

#[test]
fn ring_reads_fewer_blocks_per_access_than_path_oram() {
    // The bandwidth argument for Ring ORAM: ~1 block/bucket per access
    // plus amortized eviction, vs Z blocks/bucket for Path ORAM.
    let mut ring = RingOram::new(RingConfig::small_test(), RingVariant::Baseline, 3);
    for i in 0..120u64 {
        ring.write(BlockAddr(i % 40), payload(i)).unwrap();
    }
    let ring_reads_per_access = ring.nvm_stats().reads as f64 / 120.0;
    let mut path = PathOram::new(OramConfig::small_test(), ProtocolVariant::Baseline, 3);
    for i in 0..120u64 {
        path.write(BlockAddr(i % 40), payload(i)).unwrap();
    }
    let path_reads_per_access = path.nvm_stats().reads as f64 / 120.0;
    assert!(
        ring_reads_per_access < path_reads_per_access,
        "ring {ring_reads_per_access:.1} !< path {path_reads_per_access:.1}"
    );
}

#[test]
fn early_reshuffles_trigger_on_budget_exhaustion() {
    let mut cfg = RingConfig::small_test();
    cfg.dummy_slots = 2; // tiny budget, frequent reshuffles
    cfg.wpq_capacity = (cfg.real_slots + cfg.dummy_slots) * (cfg.levels as usize + 1);
    let mut oram = RingOram::new(cfg, RingVariant::PsRing, 5);
    for i in 0..60u64 {
        oram.write(BlockAddr(i % 10), payload(i)).unwrap();
    }
    assert!(oram.stats().early_reshuffles > 0);
    // Still functionally correct afterwards.
    for i in 0..10u64 {
        let got = oram.read(BlockAddr(i)).unwrap();
        let latest = (0..60u64).rev().find(|j| j % 10 == i).unwrap();
        assert_eq!(got, payload(latest));
    }
}

#[test]
fn stash_stays_bounded() {
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 11);
    for i in 0..600u64 {
        oram.write(BlockAddr(i % 50), payload(i)).unwrap();
    }
    assert!(
        oram.stats().stash_max < 120,
        "stash grew to {}",
        oram.stats().stash_max
    );
}

#[test]
fn invalid_marks_do_not_destroy_data() {
    // Read the same path many times (consuming slots), crash, recover:
    // the revalidation restores everything (paper Case 2).
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 13);
    for i in 0..20u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    for _ in 0..10 {
        oram.read(BlockAddr(1)).unwrap();
    }
    oram.crash_now();
    assert!(oram.recover().consistent);
    oram.verify_contents(true).unwrap();
}

#[test]
fn baseline_recovery_verdict_is_tracked_in_stats() {
    // The recoverability check measures *internal* self-consistency
    // (committed ledger vs physical copies), so the baseline — whose
    // PosMap updates are volatile and whose ledger is therefore sparse
    // — can pass it even while losing completed writes; convicting the
    // baseline is the job of the external differential oracle in
    // `psoram-faultsim`. What this test pins down is the accounting:
    // the failure counter and the retained report must track the
    // verdict exactly, and the data loss itself must be observable.
    use psoram_core::CrashPoint;
    let mut lost_somewhere = false;
    for seed in 0..10u64 {
        let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::Baseline, seed);
        for i in 0..30u64 {
            oram.write(BlockAddr(i), payload(i)).unwrap();
        }
        oram.inject_crash(CrashPoint::DuringEviction(0));
        for i in 0..6u64 {
            if oram.read(BlockAddr(i)).is_err() {
                break;
            }
        }
        if !oram.is_crashed() {
            continue;
        }
        let report = oram.recover();
        assert_eq!(oram.stats().recoveries, 1);
        assert_eq!(
            oram.stats().recovery_failures,
            u64::from(!report.consistent)
        );
        assert_eq!(oram.last_recovery(), Some(&report));
        for i in 0..30u64 {
            if oram.read(BlockAddr(i)).unwrap() != payload(i) {
                lost_somewhere = true;
            }
        }
    }
    assert!(
        lost_somewhere,
        "partial direct bucket rewrites should lose data"
    );
}

#[test]
fn config_validation_rejects_small_wpq() {
    let mut cfg = RingConfig::small_test();
    cfg.wpq_capacity = 8;
    let result = std::panic::catch_unwind(|| cfg.validate());
    assert!(result.is_err());
}

#[test]
fn deterministic_for_same_seed() {
    let run = || {
        let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 21);
        for i in 0..50u64 {
            oram.write(BlockAddr(i % 20), payload(i)).unwrap();
        }
        (oram.clock(), oram.nvm_stats())
    };
    assert_eq!(run(), run());
}

//! Integration tests for the ORAM controller across all protocol variants.

use psoram_core::testkit::{
    chi_square, conform, conform_clause, recovered, runs_repeat, serial_correlation, watch, Arm,
    BusAccess, Contract, Design, CHI_BOUND,
};
use psoram_core::{
    BlockAddr, CrashPoint, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
};
use psoram_nvm::NvmConfig;

fn payload(tag: u64) -> Vec<u8> {
    (0..8)
        .map(|i| (tag as u8).wrapping_mul(31).wrapping_add(i))
        .collect()
}

/// The Path rows of the design table, on their plain arm.
fn path_rows(d: Design, arm: Arm) -> bool {
    matches!(d, Design::Path(_)) && arm == Arm::Plain
}

#[test]
fn read_your_writes_all_variants() {
    conform(Contract::ReadYourWrites, path_rows);
}

#[test]
fn fresh_reads_return_zeros() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 1);
    assert_eq!(oram.read(BlockAddr(12)).unwrap(), vec![0u8; 8]);
}

#[test]
fn repeated_access_hits_stash_sometimes() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 5);
    oram.write(BlockAddr(1), payload(1)).unwrap();
    // Immediately re-access: the block may still be in the stash. Run a few
    // times; at least the counter must be consistent.
    for _ in 0..10 {
        oram.read(BlockAddr(1)).unwrap();
    }
    assert!(oram.stats().accesses == 11);
}

#[test]
fn address_out_of_range_rejected() {
    let cfg = OramConfig::small_test();
    let cap = cfg.capacity_blocks();
    let mut oram = PathOram::new(cfg, ProtocolVariant::Baseline, 1);
    let err = oram.read(BlockAddr(cap)).unwrap_err();
    assert!(matches!(err, OramError::AddressOutOfRange { .. }));
}

#[test]
fn wrong_payload_size_rejected() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::Baseline, 1);
    let err = oram.write(BlockAddr(1), vec![0u8; 5]).unwrap_err();
    assert_eq!(
        err,
        OramError::PayloadSize {
            expected: 8,
            got: 5
        }
    );
}

#[test]
fn deterministic_across_seeds() {
    conform_clause(Contract::Deterministic, runs_repeat, path_rows);
}

// ───────────────────────── crash consistency ─────────────────────────

#[test]
fn small_wpq_produces_multiple_batches() {
    let cfg = OramConfig::small_test().with_wpq_capacity(4, 4);
    let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 13);
    for i in 0..20u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    let s = oram.stats();
    assert!(
        s.eviction_batches > s.eviction_rounds,
        "4-entry WPQ must split rounds: {} batches over {} rounds",
        s.eviction_batches,
        s.eviction_rounds
    );
}

#[test]
fn full_nvm_inconsistent_in_posmap_window_but_durable_after_access() {
    // Crash between the durable PosMap update and the path load: the
    // target is unlocatable (paper Case 1b applied to FullNVM).
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::FullNvm, 31);
    for i in 0..20u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    // Make sure the victim block is out of the (durable) stash, so the
    // inconsistency window is actually exposed.
    let victim = (0..20u64)
        .map(BlockAddr)
        .find(|a| !oram.stash_contains(*a))
        .expect("some block has been evicted");
    oram.inject_crash(CrashPoint::AfterAccessPosMap);
    let _ = oram.read(victim);
    oram.recover();
    assert!(
        oram.verify_contents(true).is_err(),
        "FullNVM must be inconsistent when crashing inside the PosMap window"
    );

    // But a crash after a completed access is fine: stash and PosMap are
    // both durable.
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::FullNvm, 31);
    for i in 0..20u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    oram.crash_now();
    oram.recover();
    oram.verify_contents(true).unwrap();
}

// ───────────────────────── traffic & stats ─────────────────────────

#[test]
fn naive_writes_many_more_posmap_entries_than_ps_oram() {
    let run = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 5);
        for i in 0..50u64 {
            oram.write(BlockAddr(i % 20), payload(i)).unwrap();
        }
        oram.stats().posmap_entry_writes
    };
    let naive = run(ProtocolVariant::NaivePsOram);
    let ps = run(ProtocolVariant::PsOram);
    assert!(
        naive > ps * 5,
        "Naive should flush far more metadata: naive={naive}, ps={ps}"
    );
}

#[test]
fn ps_oram_write_traffic_close_to_baseline() {
    let run = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 5);
        for i in 0..100u64 {
            oram.write(BlockAddr(i % 30), payload(i)).unwrap();
        }
        oram.nvm_stats().writes as f64
    };
    let base = run(ProtocolVariant::Baseline);
    let ps = run(ProtocolVariant::PsOram);
    let overhead = (ps - base) / base;
    assert!(
        overhead < 0.25,
        "PS-ORAM write-traffic overhead should be small, got {:.1}%",
        overhead * 100.0
    );
}

#[test]
fn full_nvm_uses_onchip_nvm_buffers() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::FullNvm, 5);
    for i in 0..10u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    let s = oram.stats();
    assert!(
        s.onchip_nvm_writes >= 10 * 28,
        "per access the whole path fills the NVM stash"
    );
    assert!(s.onchip_nvm_reads > 0);
}

#[test]
fn recursive_variants_generate_extra_read_traffic() {
    // Needs a tree large enough to actually recurse.
    let cfg = OramConfig::paper_default().with_levels(16);
    let run = |variant| {
        let mut oram = PathOram::new(cfg.clone(), variant, 5);
        for i in 0..40u64 {
            oram.write(BlockAddr(i * 997), payload(i)).unwrap();
        }
        (oram.nvm_stats().reads, oram.stats().recursion_reads)
    };
    let (base_reads, base_rec) = run(ProtocolVariant::Baseline);
    let (rcr_reads, rcr_rec) = run(ProtocolVariant::RcrBaseline);
    assert_eq!(base_rec, 0);
    assert!(rcr_rec > 0, "recursive PosMap must touch posmap trees");
    assert!(rcr_reads > base_reads, "recursion adds read traffic");
}

#[test]
fn backups_created_only_by_wpq_variants() {
    let run = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 5);
        for i in 0..20u64 {
            oram.write(BlockAddr(i % 5), payload(i)).unwrap();
        }
        oram.stats().backups_created
    };
    assert_eq!(run(ProtocolVariant::Baseline), 0);
    assert_eq!(run(ProtocolVariant::FullNvm), 0);
    assert!(run(ProtocolVariant::PsOram) > 0);
    assert!(run(ProtocolVariant::NaivePsOram) > 0);
}

#[test]
fn stash_and_temp_posmap_stay_bounded() {
    conform(Contract::Bounded, path_rows);
}

// ───────────────────────── timing ─────────────────────────

#[test]
fn multi_channel_is_faster() {
    let run = |channels| {
        let mut oram = PathOram::with_nvm(
            OramConfig::small_test(),
            ProtocolVariant::PsOram,
            NvmConfig::paper_pcm(channels),
            5,
        );
        for i in 0..50u64 {
            oram.write(BlockAddr(i % 20), payload(i)).unwrap();
        }
        oram.clock()
    };
    let t1 = run(1);
    let t4 = run(4);
    assert!(t4 < t1, "4-channel ({t4}) should beat 1-channel ({t1})");
}

#[test]
fn sttram_buffers_faster_than_pcm_buffers() {
    let run = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 5);
        for i in 0..50u64 {
            oram.write(BlockAddr(i % 20), payload(i)).unwrap();
        }
        oram.clock()
    };
    let pcm = run(ProtocolVariant::FullNvm);
    let stt = run(ProtocolVariant::FullNvmStt);
    let base = run(ProtocolVariant::Baseline);
    assert!(stt < pcm, "STT buffers should be faster than PCM buffers");
    assert!(base < stt, "baseline (SRAM buffers) should be fastest");
}

#[test]
fn ps_oram_overhead_small_vs_naive_large() {
    let run = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 5);
        for i in 0..100u64 {
            oram.write(BlockAddr(i % 30), payload(i)).unwrap();
        }
        oram.clock() as f64
    };
    let base = run(ProtocolVariant::Baseline);
    let ps = run(ProtocolVariant::PsOram);
    let naive = run(ProtocolVariant::NaivePsOram);
    let ps_overhead = (ps - base) / base;
    let naive_overhead = (naive - base) / base;
    assert!(ps_overhead < naive_overhead, "PS-ORAM must beat Naive");
    assert!(
        ps_overhead < 0.30,
        "PS-ORAM overhead too large: {:.1}%",
        ps_overhead * 100.0
    );
}

// ─────────────────── hybrid-memory top-of-tree cache ───────────────────

#[test]
fn top_cache_reduces_read_traffic_not_write_traffic() {
    let run = |levels: u32| {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 5);
        oram.set_top_cache_levels(levels);
        for i in 0..60u64 {
            oram.write(BlockAddr(i % 20), vec![i as u8; 8]).unwrap();
        }
        (
            oram.nvm_stats().reads,
            oram.nvm_stats().writes,
            oram.clock(),
        )
    };
    let (r0, w0, t0) = run(0);
    let (r3, w3, t3) = run(3);
    assert!(
        r3 < r0,
        "cached top levels must cut NVM reads: {r3} vs {r0}"
    );
    assert_eq!(
        w3, w0,
        "write-through must keep NVM write traffic identical"
    );
    assert!(t3 < t0, "skipped reads should save time");
}

#[test]
fn top_cache_preserves_crash_consistency() {
    for point in CrashPoint::step_boundaries() {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 19);
        oram.set_top_cache_levels(4);
        for i in 0..25u64 {
            oram.write(BlockAddr(i), vec![i as u8; 8]).unwrap();
        }
        oram.inject_crash(point);
        let _ = oram.read(BlockAddr(5));
        let report = oram.recover();
        recovered(Arm::Plain, &mut oram, &report)
            .unwrap_or_else(|e| panic!("write-through cache broke recovery at {point}: {e}"));
    }
}

#[test]
fn top_cache_sizing() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 5);
    oram.set_top_cache_levels(3);
    // 7 buckets * 4 slots * 64 B.
    assert_eq!(oram.top_cache_bytes(), 7 * 4 * 64);
}

#[test]
#[should_panic(expected = "exceed the tree")]
fn top_cache_rejects_oversize() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 5);
    oram.set_top_cache_levels(20);
}

// ───────────────────────── security ─────────────────────────

#[test]
fn observed_pattern_has_constant_shape_and_uniform_leaves() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 99);
    // A maximally revealing logical pattern: hammer one address.
    let ((), bus) = watch(&mut oram, |oram| {
        for _ in 0..2000 {
            oram.read(BlockAddr(1)).unwrap();
        }
    });
    assert_eq!(bus.len(), 2000);
    assert!(
        bus.iter().all(|a| a.tree == (28, 28)),
        "every access reads and writes one whole path on the bus"
    );
    let leaves: Vec<u64> = bus.iter().filter_map(BusAccess::leaf).collect();
    assert_eq!(leaves.len(), 2000, "every access reads a path");
    let chi = chi_square(&leaves, 64, 16);
    assert!(
        chi < CHI_BOUND,
        "observed leaves not uniform: chi-square {chi}"
    );
    let corr = serial_correlation(&leaves);
    assert!(corr.abs() < 0.1, "leaf sequence auto-correlated: {corr}");
}

#[test]
fn variant_choice_does_not_change_observed_path_count_shape() {
    // PS-ORAM's extra persistence work must not change the tree traffic
    // the bus shows per logical access.
    let observe = |variant| {
        let mut oram = PathOram::new(OramConfig::small_test(), variant, 12);
        let ((), bus) = watch(&mut oram, |oram| {
            for i in 0..100u64 {
                oram.write(BlockAddr(i % 10), payload(i)).unwrap();
            }
        });
        bus.into_iter().map(|a| a.tree).collect::<Vec<_>>()
    };
    let baseline = observe(ProtocolVariant::Baseline);
    assert_eq!(baseline.len(), 100);
    assert_eq!(baseline, observe(ProtocolVariant::PsOram));
    assert_eq!(baseline, observe(ProtocolVariant::NaivePsOram));
}

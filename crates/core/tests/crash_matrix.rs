//! The crash/recovery matrix: the crash, refusal, idempotency and
//! determinism contracts (`psoram_core::testkit`) clause by clause on every
//! row's plain arm, then the corners the table's surface does not reach —
//! Path's top-of-tree cache, the WPQ stall counter, crashes mid-gap-move
//! and mid-retirement.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::testkit::{
    cleared_schedules_never_fire, conform, conform_clause, crash_at_step_boundaries,
    crash_in_a_small_wpq, crash_mid_eviction, crash_on_a_schedule, loses_a_completed_write,
    payload, plain, read_back, recovered, refused_while_crashed, wear_unarmed_until_armed, Arm,
    Contract, Design,
};
use psoram_core::{
    BlockAddr, CrashPoint, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
};
use psoram_nvm::{FaultConfig, NvmConfig};

#[test]
fn consistent_designs_recover_at_every_step_boundary() {
    conform_clause(Contract::CrashAnywhere, crash_at_step_boundaries, plain);
}

#[test]
fn consistent_designs_recover_mid_eviction() {
    conform_clause(Contract::CrashAnywhere, crash_mid_eviction, plain);
}

#[test]
fn consistent_designs_survive_small_wpq_evictions() {
    conform_clause(Contract::CrashAnywhere, crash_in_a_small_wpq, plain);
}

/// The designs without WPQ rounds exhibit the failure the paper motivates
/// with (Case 1a / Figure 3): somewhere across seeds and crash points, a
/// crash loses data — an inconsistent verdict, a lost completed write, or
/// contents the committed ledger does not hold — and, somewhere across
/// seeds and eviction depths, a completed write reads back wrong.
#[test]
fn non_consistent_designs_lose_data_somewhere() {
    let cells = conform(Contract::CrashAnywhere, |d, a| {
        !d.is_crash_consistent() && a == Arm::Plain
    });
    assert_eq!(cells, 5, "the five designs without atomic rounds");
    for d in Design::all().filter(|d| !d.is_crash_consistent()) {
        let mut depths = (0..6u64).flat_map(|seed| [0, 4, 8].map(|k| (seed, k)));
        assert!(
            depths.any(|(seed, k)| loses_a_completed_write(d, seed, k)),
            "{d:?}: partial evictions should lose data (paper §3.3)"
        );
    }
}

#[test]
fn operations_rejected_while_crashed() {
    conform_clause(Contract::Refusal, refused_while_crashed, plain);
}

#[test]
fn scheduled_crashes_drive_repeated_recovery_cycles() {
    conform_clause(Contract::CrashAnywhere, crash_on_a_schedule, plain);
}

#[test]
fn cleared_schedule_never_fires() {
    conform_clause(Contract::Refusal, cleared_schedules_never_fire, plain);
}

#[test]
fn last_recovery_report_is_retained() {
    conform(Contract::Idempotent, plain);
}

// ──────────────── Path-specific feature interactions ────────────────
// The top-of-tree cache is a Path ORAM feature configured past the
// `ProtocolPolicy` surface, so this corner of the matrix drives the
// concrete controller — with the freshness layer armed and nothing
// damaged as the other axis: a fetch that skips the cached levels is still
// judged slot by slot, and no crash point raises a false alarm.

#[test]
fn path_feature_matrix_stays_crash_consistent() {
    let mut points = CrashPoint::step_boundaries().to_vec();
    points.push(CrashPoint::DuringEviction(0));
    let consistent = Design::all().filter(|d| d.is_crash_consistent());
    for variant in consistent.filter_map(|d| match d {
        Design::Path(v) => Some(v),
        _ => None,
    }) {
        for hardened in [false, true] {
            for top_cache in [0u32, 3] {
                for &point in &points {
                    let tag = format!("{variant}/hard={hardened}/cache={top_cache}/{point}");
                    let cfg = OramConfig::small_test();
                    let mut oram = PathOram::with_nvm(cfg, variant, NvmConfig::paper_pcm(1), 97);
                    if hardened {
                        oram.enable_device_faults(97, FaultConfig::disabled());
                    }
                    oram.set_top_cache_levels(top_cache);
                    for i in 0..20u64 {
                        oram.write(BlockAddr(i), payload(i)).unwrap();
                    }
                    oram.inject_crash(point);
                    let _ = oram.read(BlockAddr(4));
                    assert!(oram.is_crashed(), "{tag}: crash did not fire");
                    let report = oram.recover();
                    recovered(Arm::Plain, &mut oram, &report)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                }
            }
        }
    }
}

#[test]
fn wpq_stall_counters_survive_recovery() {
    // 4-entry WPQs force round splits; the engine-owned stall counter must
    // accumulate across them and survive a crash/recover cycle intact.
    let cfg = OramConfig::small_test().with_wpq_capacity(4, 4);
    let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 13);
    for i in 0..20u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    let stalls_before = oram.stats().wpq_stalls;
    assert!(
        stalls_before > 0,
        "a 4-entry WPQ must stall at least once in 20 accesses"
    );
    oram.crash_now();
    let report = oram.recover();
    assert!(report.consistent);
    let s = oram.stats();
    assert_eq!(
        s.wpq_stalls, stalls_before,
        "stall count must survive recovery"
    );
    assert_eq!(s.crashes, 1);
    assert_eq!(s.recoveries, 1);
}

// ── endurance adversary: crash-consistent wear leveling ────────────────

/// A wear config that stages a gap move on every drained write, so any
/// mid-eviction crash lands mid-gap-move.
fn eager_start_gap() -> psoram_nvm::WearConfig {
    let mut cfg = psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::StartGap);
    cfg.gap_interval = 1;
    cfg
}

/// Crash-mid-gap-move on every consistent design at every crash point:
/// the line mapping recovered is the one the last commit round made
/// durable, never a half-applied move, and contents verify.
#[test]
fn wear_armed_designs_recover_at_every_crash_point() {
    conform(Contract::CrashAnywhere, |_, arm| arm == Arm::StartGap);
}

#[test]
fn crash_mid_gap_move_rolls_the_path_mapping_back() {
    let mut fired_somewhere = false;
    for k in [0usize, 1, 2] {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 23);
        oram.enable_wear(23, eager_start_gap());
        for i in 0..20u64 {
            oram.write(BlockAddr(i), payload(i)).unwrap();
        }
        let durable = oram.wear_engine().unwrap().mapping_digest();
        // Crash mid-drain: the gap moves staged by this round's drained
        // units must revert to the digest above, not half-apply.
        oram.inject_crash(CrashPoint::DuringEviction(k));
        for i in 0..8u64 {
            if oram.read(BlockAddr(i)).is_err() {
                break;
            }
        }
        if !oram.is_crashed() {
            continue;
        }
        fired_somewhere = true;
        assert!(oram.recover().consistent);
        let w = oram.wear_engine().unwrap();
        assert_eq!(
            w.mapping_digest(),
            durable,
            "k={k}: recovered mapping must equal the last durable mapping"
        );
        assert!(
            w.mapping_is_injective(),
            "no address may resolve to two lines"
        );
        assert!(oram.wear_stats().unwrap().map_reverts >= 1);
        oram.verify_contents(true).unwrap();
    }
    assert!(fired_somewhere, "no mid-eviction crash ever fired");
}

/// Remap with every line pre-aged past its budget and the wear arm at
/// full strength: reads convict and stage retirements. A crash before the
/// next commit round must roll them back; one after must keep them —
/// either way exactly one consistent, injective mapping survives, and
/// contents verify.
fn crash_mid_retirement(design: Design, seed: u64) {
    let mut cfg = psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::Remap);
    cfg.preage_writes = 4000;
    let mut oram = design.build(seed);
    oram.enable_device_faults(seed, FaultConfig::wear_only());
    oram.enable_wear(seed, cfg);
    for i in 0..10u64 {
        oram.write(i, payload(i)).unwrap();
    }
    let mut retired = 0;
    for i in 0..400u64 {
        match oram.read(i % 10) {
            Ok(_) => {}
            Err(OramError::Poisoned { .. }) => break,
            Err(e) => panic!("{design:?} seed {seed}: unexpected error {e:?}"),
        }
        retired = oram.wear_stats().unwrap().retirements;
        if retired >= 2 {
            break;
        }
    }
    assert!(
        retired >= 1,
        "{design:?} seed {seed}: pre-aged lines never retired"
    );
    oram.crash_now();
    assert!(
        oram.recover().consistent,
        "{design:?} seed {seed}: recovery failed"
    );
    let w = oram.wear_engine().unwrap();
    assert!(
        w.mapping_is_injective(),
        "{design:?} seed {seed}: two lines per address"
    );
    oram.verify_contents(true)
        .unwrap_or_else(|e| panic!("{design:?} seed {seed}: inconsistent: {e}"));
    read_back(oram.as_mut(), true).unwrap_or_else(|e| panic!("{design:?} seed {seed}: {e}"));
    let s = oram.wear_stats().unwrap();
    assert!(
        s.map_commits > 0 || s.map_reverts > 0,
        "{design:?} seed {seed}"
    );
}

#[test]
fn crash_mid_retirement_keeps_one_consistent_mapping() {
    for seed in [5u64, 11, 29] {
        crash_mid_retirement(Design::Path(ProtocolVariant::PsOram), seed);
    }
}

#[test]
fn crash_mid_retirement_keeps_one_consistent_ring_mapping() {
    crash_mid_retirement(Design::Ring(RingVariant::PsRing), 37);
}

/// The wear machinery is invisible until armed (twin runs agreeing is
/// the determinism contract's `runs_repeat`).
#[test]
fn wear_disabled_designs_match_pre_endurance_state_digests() {
    conform_clause(Contract::Deterministic, wear_unarmed_until_armed, plain);
}

#[test]
fn ring_at_wpq_floor_never_stalls() {
    // A Ring WPQ sized exactly to the validate() floor always fits a whole
    // eviction round, so the stall path must never trigger.
    let mut cfg = RingConfig::small_test();
    cfg.wpq_capacity = cfg.bucket_physical_slots() * (cfg.levels as usize + 1);
    let mut oram = RingOram::new(cfg, RingVariant::PsRing, 31);
    for i in 0..60u64 {
        oram.write(BlockAddr(i % 20), payload(i)).unwrap();
    }
    assert_eq!(oram.stats().wpq_stalls, 0);
}

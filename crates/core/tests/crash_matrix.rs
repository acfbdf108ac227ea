//! The parameterized crash/recovery matrix.
//!
//! One suite drives every design — all seven Path ORAM protocol variants
//! and both Ring ORAM flavours — through the same crash scenarios via the
//! shared [`ProtocolPolicy`] surface: step-boundary crashes, mid-eviction
//! crashes, crash scheduling, and the post-recovery consistency checks.
//! Adding a protocol variant to [`Design::all`] enrols it in the whole
//! matrix.

use psoram_core::engine::read_back;
use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{
    BlockAddr, CrashPoint, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
};
use psoram_nvm::{FaultConfig, NvmConfig};

fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

/// One cell of the design axis: a Path ORAM variant or a Ring ORAM variant.
#[derive(Debug, Clone, Copy)]
enum Design {
    Path(ProtocolVariant),
    Ring(RingVariant),
}

impl Design {
    /// Every design the matrix covers.
    fn all() -> Vec<Design> {
        ProtocolVariant::all()
            .into_iter()
            .map(Design::Path)
            .chain([RingVariant::Baseline, RingVariant::PsRing].map(Design::Ring))
            .collect()
    }

    /// The designs that claim crash consistency.
    fn consistent() -> Vec<Design> {
        Self::all()
            .into_iter()
            .filter(|d| d.build(0).crash_consistent())
            .collect()
    }

    fn build(self, seed: u64) -> Box<dyn ProtocolPolicy> {
        match self {
            Design::Path(v) => Box::new(PathOram::new(OramConfig::small_test(), v, seed)),
            Design::Ring(v) => Box::new(RingOram::new(RingConfig::small_test(), v, seed)),
        }
    }

    /// A build whose WPQ sits at (Path) or exactly on (Ring) the smallest
    /// legal capacity, forcing dependency-ordered sub-batches (paper
    /// §4.2.3).
    fn build_small_wpq(self, seed: u64) -> Box<dyn ProtocolPolicy> {
        match self {
            Design::Path(v) => {
                let cfg = OramConfig::small_test().with_wpq_capacity(4, 4);
                Box::new(PathOram::new(cfg, v, seed))
            }
            Design::Ring(v) => {
                let mut cfg = RingConfig::small_test();
                cfg.wpq_capacity = cfg.bucket_physical_slots() * (cfg.levels as usize + 1);
                Box::new(RingOram::new(cfg, v, seed))
            }
        }
    }

    /// The step-boundary crash points that fire for this design on every
    /// access (Ring ORAM has no separate check-stash step).
    fn step_points(self) -> Vec<CrashPoint> {
        match self {
            Design::Path(_) => CrashPoint::step_boundaries().to_vec(),
            Design::Ring(_) => vec![
                CrashPoint::AfterAccessPosMap,
                CrashPoint::AfterLoadPath,
                CrashPoint::AfterUpdateStash,
                CrashPoint::AfterEviction,
            ],
        }
    }
}

#[test]
fn consistent_designs_recover_at_every_step_boundary() {
    for d in Design::consistent() {
        for point in d.step_points() {
            let mut oram = d.build(3);
            let tag = format!("{}/{point}", oram.label());
            for i in 0..25u64 {
                oram.write(i, payload(i)).unwrap();
            }
            oram.inject_crash(point);
            let res = oram.read(5);
            assert!(
                res.is_err(),
                "{tag}: access with an armed crash must not return a value"
            );
            assert!(oram.is_crashed(), "{tag}: crash did not fire");
            assert!(
                oram.recover().consistent,
                "{tag}: recoverability check failed"
            );
            oram.verify_contents(true)
                .unwrap_or_else(|e| panic!("{tag}: inconsistent: {e}"));
        }
    }
}

#[test]
fn consistent_designs_recover_mid_eviction() {
    for d in Design::consistent() {
        let mut fired_somewhere = false;
        for k in [0usize, 1, 2] {
            let mut oram = d.build(9);
            let tag = format!("{}/k={k}", oram.label());
            for i in 0..25u64 {
                oram.write(i, payload(i)).unwrap();
            }
            oram.inject_crash(CrashPoint::DuringEviction(k));
            for i in 0..6u64 {
                if oram.read(i).is_err() {
                    break;
                }
            }
            if !oram.is_crashed() {
                // k exceeded this run's persist-unit count: nothing to test.
                continue;
            }
            fired_somewhere = true;
            assert!(
                oram.recover().consistent,
                "{tag}: crash after {k} units must be safe"
            );
            oram.verify_contents(true)
                .unwrap_or_else(|e| panic!("{tag}: inconsistent: {e}"));
        }
        assert!(fired_somewhere, "{d:?}: no mid-eviction crash ever fired");
    }
}

#[test]
fn consistent_designs_survive_small_wpq_evictions() {
    for d in Design::consistent() {
        for (i, k) in [0usize, 1, 2, 3, 5, 8].into_iter().enumerate() {
            let mut oram = d.build_small_wpq(11 + i as u64);
            let tag = format!("{}/k={k}", oram.label());
            for i in 0..25u64 {
                oram.write(i, payload(i)).unwrap();
            }
            oram.inject_crash(CrashPoint::DuringEviction(k));
            for i in 0..9u64 {
                if oram.write(i, payload(200 + i)).is_err() {
                    break;
                }
            }
            if !oram.is_crashed() {
                oram.disarm_crash();
                continue;
            }
            assert!(
                oram.recover().consistent,
                "{tag}: small-WPQ crash must be safe"
            );
            oram.verify_contents(true)
                .unwrap_or_else(|e| panic!("{tag}: inconsistent: {e}"));
        }
    }
}

#[test]
fn non_consistent_designs_lose_data_somewhere() {
    // The designs without WPQ rounds must actually exhibit the failure the
    // paper motivates with (Case 1a / Figure 3): somewhere across seeds and
    // crash depths, a completed write does not survive crash + recovery.
    for d in [
        Design::Path(ProtocolVariant::Baseline),
        Design::Ring(RingVariant::Baseline),
    ] {
        let mut lost_somewhere = false;
        for seed in 0..6u64 {
            for k in [0usize, 4, 8] {
                let mut oram = d.build(seed);
                for i in 0..30u64 {
                    oram.write(i, payload(i)).unwrap();
                }
                oram.inject_crash(CrashPoint::DuringEviction(k));
                for i in 0..6u64 {
                    if oram.read(i).is_err() {
                        break;
                    }
                }
                if !oram.is_crashed() {
                    continue;
                }
                oram.recover();
                for i in 0..30u64 {
                    if oram.read(i).unwrap() != payload(i) {
                        lost_somewhere = true;
                    }
                }
            }
        }
        assert!(
            lost_somewhere,
            "{d:?}: partial evictions should lose data (paper §3.3)"
        );
    }
}

#[test]
fn operations_rejected_while_crashed() {
    for d in Design::all() {
        let mut oram = d.build(17);
        let tag = oram.label();
        oram.write(0, payload(1)).unwrap();
        oram.crash_now();
        assert_eq!(oram.read(0).unwrap_err(), OramError::Crashed, "{tag}");
        assert_eq!(
            oram.write(0, payload(2)).unwrap_err(),
            OramError::Crashed,
            "{tag}"
        );
        oram.recover();
        assert!(
            oram.read(0).is_ok(),
            "{tag}: reads must work again after recovery"
        );
    }
}

#[test]
fn scheduled_crashes_drive_repeated_recovery_cycles() {
    // Campaign-style schedule: arm a crash a fixed number of accesses
    // ahead, run traffic until it fires, recover, verify, repeat.
    for d in Design::consistent() {
        let mut oram = d.build(19);
        let tag = oram.label();
        for i in 0..12u64 {
            oram.write(i, payload(i)).unwrap();
        }
        for (cycle, point) in [
            CrashPoint::AfterLoadPath,
            CrashPoint::AfterUpdateStash,
            CrashPoint::AfterAccessPosMap,
        ]
        .into_iter()
        .enumerate()
        {
            oram.schedule_crash(oram.access_attempts() + 2, point);
            let mut fired = false;
            for i in 0..6u64 {
                match oram.write(i, payload(100 * (cycle as u64 + 1) + i)) {
                    Ok(()) => {}
                    Err(OramError::Crashed) => {
                        fired = true;
                        assert!(
                            oram.recover().consistent,
                            "{tag}: cycle {cycle}: recovery at {point}"
                        );
                        oram.verify_contents(true).unwrap();
                        read_back(oram.as_mut(), true).unwrap();
                        break;
                    }
                    Err(e) => panic!("{tag}: cycle {cycle}: unexpected error {e}"),
                }
            }
            assert!(
                fired,
                "{tag}: cycle {cycle}: scheduled crash at {point} never fired"
            );
        }
    }
}

#[test]
fn cleared_schedule_never_fires() {
    for d in Design::all() {
        let mut oram = d.build(23);
        oram.schedule_crash(oram.access_attempts() + 1, CrashPoint::AfterLoadPath);
        oram.clear_crash_schedule();
        for i in 0..10u64 {
            oram.write(i, payload(i)).unwrap();
        }
        assert!(
            !oram.is_crashed(),
            "{}: cleared schedule fired anyway",
            oram.label()
        );
    }
}

#[test]
fn last_recovery_report_is_retained() {
    for d in Design::consistent() {
        let mut oram = d.build(29);
        let tag = oram.label();
        assert!(oram.last_recovery().is_none(), "{tag}");
        for i in 0..15u64 {
            oram.write(i, payload(i)).unwrap();
        }
        oram.crash_now();
        let report = oram.recover();
        assert!(report.consistent, "{tag}");
        assert!(
            report.addresses_checked > 0,
            "{tag}: committed addresses should be checked"
        );
        assert_eq!(oram.last_recovery(), Some(&report), "{tag}");
    }
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
    for variant in ProtocolVariant::all()
        .into_iter()
        .filter(|v| v.is_crash_consistent())
    {
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
                    assert!(
                        oram.recover().consistent,
                        "{tag}: recoverability check failed"
                    );
                    oram.verify_contents(true)
                        .unwrap_or_else(|e| panic!("{tag}: inconsistent: {e}"));
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

#[test]
fn wear_armed_designs_recover_at_every_crash_point() {
    // Crash-mid-gap-move, parameterized over every consistent design and
    // every crash point: after recovery the line mapping must be the one
    // the last commit round made durable (or the freshly committed one),
    // never a half-applied move — and contents must verify.
    for d in Design::consistent() {
        let mut points = d.step_points();
        points.extend([1usize, 2].map(CrashPoint::DuringEviction));
        for point in points {
            let mut oram = d.build(17);
            oram.enable_wear(17, eager_start_gap());
            let tag = format!("{}/{point}/wear", oram.label());
            for i in 0..25u64 {
                oram.write(i, payload(i)).unwrap();
            }
            oram.inject_crash(point);
            for i in 0..6u64 {
                if oram.read(i).is_err() {
                    break;
                }
            }
            if !oram.is_crashed() {
                continue;
            }
            assert!(oram.recover().consistent, "{tag}: recovery failed");
            oram.verify_contents(true)
                .unwrap_or_else(|e| panic!("{tag}: inconsistent: {e}"));
            read_back(oram.as_mut(), true).unwrap_or_else(|e| panic!("{tag}: read back: {e}"));
            let stats = oram.wear_stats().expect("wear is armed");
            assert!(stats.gap_moves > 0, "{tag}: eager gap config never moved");
            assert!(
                stats.map_commits > 0 || stats.map_reverts > 0,
                "{tag}: crash round neither committed nor reverted the mapping"
            );
            // Post-recovery accesses run on the recovered mapping.
            for i in 0..6u64 {
                oram.read(i)
                    .unwrap_or_else(|e| panic!("{tag}: post-recovery read: {e:?}"));
            }
        }
    }
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

#[test]
fn crash_mid_retirement_keeps_one_consistent_mapping() {
    // Remap scheme with every line pre-aged past its budget and the wear
    // arm at full strength: reads convict and stage retirements. A crash
    // before the next commit round must roll them back; one after must
    // keep them — either way exactly one consistent mapping survives.
    for seed in [5u64, 11, 29] {
        let mut cfg = psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::Remap);
        cfg.preage_writes = 4000;
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        oram.enable_device_faults(seed, psoram_nvm::FaultConfig::wear_only());
        oram.enable_wear(seed, cfg);
        for i in 0..10u64 {
            oram.write(BlockAddr(i), payload(i)).unwrap();
        }
        let mut retired = 0;
        for i in 0..400u64 {
            match oram.read(BlockAddr(i % 10)) {
                Ok(_) => {}
                Err(OramError::Poisoned { .. }) => break,
                Err(e) => panic!("seed {seed}: unexpected error {e:?}"),
            }
            retired = oram.wear_stats().unwrap().retirements;
            if retired >= 2 {
                break;
            }
        }
        assert!(retired >= 1, "seed {seed}: pre-aged lines never retired");
        oram.crash_now();
        assert!(oram.recover().consistent, "seed {seed}: recovery failed");
        let w = oram.wear_engine().unwrap();
        assert!(
            w.mapping_is_injective(),
            "seed {seed}: retirement chain broke injectivity"
        );
        oram.verify_contents(true)
            .unwrap_or_else(|e| panic!("seed {seed}: inconsistent: {e}"));
        read_back(&mut oram, true).unwrap_or_else(|e| panic!("seed {seed}: read back: {e}"));
        let s = oram.wear_stats().unwrap();
        assert!(
            s.map_commits > 0 || s.map_reverts > 0,
            "seed {seed}: retirement neither committed nor reverted"
        );
    }
}

#[test]
fn crash_mid_retirement_keeps_one_consistent_ring_mapping() {
    let mut cfg = psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::Remap);
    cfg.preage_writes = 4000;
    let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 37);
    oram.enable_device_faults(37, psoram_nvm::FaultConfig::wear_only());
    oram.enable_wear(37, cfg);
    for i in 0..10u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    let mut retired = 0;
    for i in 0..400u64 {
        match oram.read(BlockAddr(i % 10)) {
            Ok(_) => {}
            Err(OramError::Poisoned { .. }) => break,
            Err(e) => panic!("unexpected error {e:?}"),
        }
        retired = oram.wear_stats().unwrap().retirements;
        if retired >= 2 {
            break;
        }
    }
    assert!(retired >= 1, "pre-aged ring lines never retired");
    oram.crash_now();
    assert!(oram.recover().consistent);
    let w = oram.wear_engine().unwrap();
    assert!(
        w.mapping_is_injective(),
        "no address may resolve to two lines"
    );
    oram.verify_contents(true).unwrap();
}

#[test]
fn wear_disabled_designs_match_pre_endurance_state_digests() {
    // The wear machinery must be invisible until armed: a controller that
    // never calls enable_wear computes the same state digest as one whose
    // wear-disabled twin runs the identical access pattern.
    for d in Design::consistent() {
        let mut a = d.build(41);
        let mut b = d.build(41);
        for i in 0..15u64 {
            a.write(i, payload(i)).unwrap();
            b.write(i, payload(i)).unwrap();
        }
        assert_eq!(a.state_digest(), b.state_digest(), "{}", a.label());
        assert!(
            a.wear_stats().is_none(),
            "wear must stay un-armed by default"
        );
    }
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

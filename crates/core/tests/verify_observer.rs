//! `verify_contents` observes: it is held to a read-back through the ORAM
//! and to changing nothing.
//!
//! One grid — every design (seven Path variants, two Ring) × three arms
//! (unarmed; device faults under `crash_recover`'s mix, which hardens the
//! WPQ designs; the endurance adversary on near-end-of-life silicon) × no
//! crash or a power failure at each step boundary and at
//! `DuringEviction(0)`, then `recover` — and a few seeds. On every case
//! `verify_contents`, run first, and [`read_back`], run after it on the
//! same instance, must agree: the same `Ok`, or the same first failing
//! address with the same values. A read-back is a workload of its own, so
//! the two may differ in two ways, each counted and printed: it fails with
//! a typed fetch error (the design poisons itself mid-read under the
//! installed fault plan), or its own earlier reads moved the address the
//! two dispute — then a read of that address issued first, on a twin,
//! must return what the check saw, and the design must be one that does
//! not claim crash consistency, after a crash. And on every case the check
//! leaves every counter, clock and digest as it found them, and the design
//! goes on exactly as a twin that was never checked.

use psoram_core::engine::read_back;
use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{
    CrashPoint, FreshnessStats, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
};
use psoram_nvm::{FaultConfig, FaultStats, NvmStats, WearConfig, WearScheme, WpqStats};
use psoram_obsv::MetricsRegistry;

const SEEDS: u64 = 3;

#[derive(Debug, Clone, Copy)]
enum Design {
    Path(ProtocolVariant),
    Ring(RingVariant),
}

#[derive(Debug, Clone, Copy)]
enum Arm {
    Unarmed,
    /// `crash_recover`'s fault mix: crash-drain damage and the
    /// replay/splice adversary, no read-side faults.
    Hardened,
    /// A wear-only fault plan over pre-aged, tiny-budget lines.
    WearOnly,
}

/// One case of the grid: a design armed, driven and, unless `crash` is
/// `None`, power-failed at that point and recovered.
#[derive(Debug, Clone, Copy)]
struct Case {
    design: Design,
    arm: Arm,
    crash: Option<CrashPoint>,
    seed: u64,
}

impl Case {
    fn all() -> Vec<Case> {
        let designs = ProtocolVariant::all()
            .into_iter()
            .map(Design::Path)
            .chain([RingVariant::Baseline, RingVariant::PsRing].map(Design::Ring));
        let mut crashes = vec![None];
        crashes.extend(CrashPoint::step_boundaries().map(Some));
        crashes.push(Some(CrashPoint::DuringEviction(0)));
        let mut cases = Vec::new();
        for design in designs {
            for arm in [Arm::Unarmed, Arm::Hardened, Arm::WearOnly] {
                for &crash in &crashes {
                    for seed in 0..SEEDS {
                        cases.push(Case {
                            design,
                            arm,
                            crash,
                            seed,
                        });
                    }
                }
            }
        }
        cases
    }

    /// The design, armed, after the case's accesses, crash and recovery.
    /// Deterministic: two calls build byte-identical instances.
    fn build(&self) -> Box<dyn ProtocolPolicy> {
        let seed = self.seed;
        let mut oram: Box<dyn ProtocolPolicy> = match self.design {
            Design::Path(v) => Box::new(PathOram::new(OramConfig::small_test(), v, seed)),
            Design::Ring(v) => Box::new(RingOram::new(RingConfig::small_test(), v, seed)),
        };
        match self.arm {
            Arm::Unarmed => {}
            Arm::Hardened => oram.enable_device_faults(seed ^ 0xFA17, crash_recover_mix()),
            Arm::WearOnly => {
                oram.enable_device_faults(seed ^ 0x0EA4, FaultConfig::wear_only());
                oram.enable_wear(seed ^ 0x0EA5, near_eol());
            }
        }
        let bytes = oram.payload_bytes();
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        for i in 0..48u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 33) % 30;
            let outcome = if i % 3 == 2 {
                oram.read(addr).map(drop)
            } else {
                oram.write(addr, vec![(x >> 17) as u8; bytes])
            };
            match outcome {
                Ok(()) => {}
                Err(OramError::Poisoned { .. }) => return oram,
                Err(e) => panic!("{self:?}: access {i}: {e}"),
            }
        }
        if let Some(point) = self.crash {
            oram.inject_crash(point);
            let outcome = oram.write((x >> 40) % 30, vec![0xC5; bytes]);
            if !oram.is_crashed() {
                // Ring has no check-stash step, an eviction may write no
                // unit, and a poisoned design refuses the access first.
                assert!(outcome.is_ok() || oram.poisoned().is_some(), "{self:?}");
                oram.disarm_crash();
                oram.crash_now();
            }
            oram.recover();
        }
        oram
    }
}

/// `crash_recover`'s mix (the benchmark workload's).
fn crash_recover_mix() -> FaultConfig {
    FaultConfig {
        transient_read: 0.0,
        stuck_read: 0.0,
        read_replay: 0.0,
        ..FaultConfig::replay_mix()
    }
}

/// `WearShardPlan::near_eol`'s wear point: Remap, lines pre-aged to 384
/// writes of a ~512-write budget, 64 spares.
fn near_eol() -> WearConfig {
    WearConfig {
        spare_lines: 64,
        preage_writes: 384,
        ..WearConfig::stress(WearScheme::Remap)
    }
}

/// What the check must leave as it found it.
#[derive(Debug, PartialEq)]
struct Snapshot {
    digest: u128,
    clock: u64,
    attempts: u64,
    /// The protocol's own statistics, the NVM's, the WPQs' and, once
    /// armed, the wear engine's, as the design publishes them.
    published: String,
    nvm: NvmStats,
    wpq: (WpqStats, WpqStats),
    faults: Option<FaultStats>,
    freshness: FreshnessStats,
}

fn snapshot(oram: &dyn ProtocolPolicy) -> Snapshot {
    let mut published = MetricsRegistry::new();
    oram.publish_metrics("", &mut published);
    Snapshot {
        digest: oram.state_digest(),
        clock: oram.clock(),
        attempts: oram.access_attempts(),
        published: published.to_json_string(),
        nvm: oram.nvm_stats(),
        wpq: oram.wpq_stats(),
        faults: oram.device_fault_stats(),
        freshness: oram.freshness_stats(),
    }
}

/// A dozen more accesses, each one's outcome.
fn go_on(oram: &mut dyn ProtocolPolicy) -> Vec<Result<Option<Vec<u8>>, OramError>> {
    let bytes = oram.payload_bytes();
    (0..12u64)
        .map(|i| match i % 2 {
            0 => oram.read(i * 5 % 30).map(Some),
            _ => oram.write(i * 5 % 30, vec![i as u8; bytes]).map(|()| None),
        })
        .collect()
}

/// The address a failed check names first, if it names one.
fn failing_addr(outcome: &Result<(), String>) -> Option<u64> {
    let e = outcome.as_ref().err()?;
    e.strip_prefix('a')?.split_once(':')?.0.parse().ok()
}

#[test]
fn verify_contents_agrees_with_the_read_back_after_it() {
    let (mut cases, mut failing, mut fetch_errors, mut moved) = (0u64, 0u64, 0u64, 0u64);
    for case in Case::all() {
        let after_crash = case.crash.is_some();
        let mut oram = case.build();
        let checked = oram.verify_contents(after_crash);
        let was_poisoned = oram.poisoned().is_some();
        let read = read_back(oram.as_mut(), after_crash);
        cases += 1;
        failing += u64::from(read.is_err());
        if read.is_err() && !was_poisoned && oram.poisoned().is_some() {
            fetch_errors += 1;
            continue;
        }
        if checked == read {
            continue;
        }
        // The read-back's own earlier reads moved the address the two
        // dispute: a read of it issued first, now, returns what the check
        // saw. Only a design that does not claim crash consistency, left
        // inconsistent by its crash, leaves such an address behind.
        let disputed = (failing_addr(&checked).into_iter())
            .chain(failing_addr(&read))
            .min()
            .unwrap_or_else(|| panic!("{case:?}: {checked:?} vs {read:?}"));
        let mut first = case.build();
        let mut now = Vec::new();
        first.peek(disputed, &mut now);
        assert_eq!(first.read(disputed), Ok(now), "{case:?}: a{disputed}");
        assert!(!first.crash_consistent() && after_crash, "{case:?}");
        moved += 1;
    }
    println!(
        "{cases} cases, {failing} read-backs failed, {fetch_errors} on a typed fetch error, \
         {moved} on an address the read-back's own earlier reads moved"
    );
    assert_eq!(cases, 9 * 3 * 7 * SEEDS);
    assert!(failing > 0, "no case ever failed its check");
}

#[test]
fn verify_contents_changes_nothing() {
    let mut failed = 0u64;
    for case in Case::all() {
        let (mut checked, mut twin) = (case.build(), case.build());
        let before = snapshot(checked.as_ref());
        assert_eq!(snapshot(twin.as_ref()), before, "{case:?}: twins");
        failed += u64::from(checked.verify_contents(case.crash.is_some()).is_err());
        assert_eq!(snapshot(checked.as_ref()), before, "{case:?}");
        let went_on = go_on(checked.as_mut());
        assert_eq!(went_on, go_on(twin.as_mut()), "{case:?}");
        assert_eq!(
            snapshot(checked.as_ref()),
            snapshot(twin.as_ref()),
            "{case:?}"
        );
    }
    assert!(failed > 0, "no case ever failed its check");
}

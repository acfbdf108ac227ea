//! The bucket store under the trees changed from hash maps to the paged
//! table (PR 13) and from per-bucket heap cells to the flat slot arena
//! (PR 15, with the eviction planned over the stash in place); nothing a
//! controller can observe may have changed with either. These seed-42
//! runs pin `state_digest()` — which walks the materialized buckets in
//! index order, then the persisted PosMap, then the ledger — and the
//! materialized-bucket count to the values the hash-map build produced
//! (recorded at 65a1853), and the WPQ stall/round/batch counts of the
//! PosMap-queue corner to the PR 14 build's (85db84c).

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{
    BlockAddr, CrashPoint, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
    RecoveryReport,
};
use psoram_nvm::FaultConfig;

const SEED: u64 = 42;
const ACCESSES: u64 = 900;

/// A fixed mixed workload with a crash and recovery every 150 accesses,
/// cycling through the crash points (mid-eviction included).
fn drive(
    capacity: u64,
    payload_bytes: usize,
    mut access: impl FnMut(BlockAddr, Option<Vec<u8>>) -> Result<(), OramError>,
    mut arm: impl FnMut(CrashPoint),
    mut recover: impl FnMut(),
) {
    let points = [
        CrashPoint::AfterLoadPath,
        CrashPoint::DuringEviction(1),
        CrashPoint::AfterUpdateStash,
        CrashPoint::DuringEviction(0),
        CrashPoint::AfterEviction,
    ];
    let mut x = SEED;
    for i in 0..ACCESSES {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BlockAddr((x >> 33) % capacity);
        let data = (i % 3 != 0).then(|| vec![(x >> 17) as u8; payload_bytes]);
        if i % 150 == 149 {
            arm(points[(i / 150) as usize % points.len()]);
        }
        match access(addr, data) {
            Ok(()) => {}
            Err(OramError::Crashed) => recover(),
            Err(e) => panic!("access {i}: {e}"),
        }
    }
}

fn path_config(levels: u32, data_wpq: Option<usize>) -> OramConfig {
    let mut cfg = OramConfig::small_test().with_levels(levels);
    if let Some(capacity) = data_wpq {
        cfg.data_wpq_capacity = capacity;
        cfg.posmap_wpq_capacity = capacity;
    }
    cfg
}

fn path_run(variant: ProtocolVariant, levels: u32, data_wpq: Option<usize>) -> PathOram {
    let cfg = path_config(levels, data_wpq);
    let oram = std::cell::RefCell::new(PathOram::new(cfg.clone(), variant, SEED));
    drive(
        cfg.capacity_blocks(),
        cfg.payload_bytes,
        |addr, data| match data {
            Some(d) => oram.borrow_mut().write(addr, d),
            None => oram.borrow_mut().read(addr).map(drop),
        },
        |point| oram.borrow_mut().inject_crash(point),
        || {
            oram.borrow_mut().recover();
        },
    );
    oram.into_inner()
}

fn digest_and_buckets(oram: &PathOram) -> (u128, usize) {
    (oram.state_digest(), oram.tree().materialized_buckets())
}

fn ring_run(variant: RingVariant) -> u128 {
    let cfg = RingConfig::small_test();
    let oram = std::cell::RefCell::new(RingOram::new(cfg.clone(), variant, SEED));
    drive(
        cfg.capacity_blocks(),
        cfg.payload_bytes,
        |addr, data| match data {
            Some(d) => oram.borrow_mut().write(addr, d),
            None => oram.borrow_mut().read(addr).map(drop),
        },
        |point| oram.borrow_mut().inject_crash(point),
        || {
            oram.borrow_mut().recover();
        },
    );
    oram.into_inner().state_digest()
}

#[test]
fn path_state_digest_and_materialized_buckets_match_the_hash_map_build() {
    let runs = [
        (ProtocolVariant::PsOram, 10, None),
        (ProtocolVariant::Baseline, 10, None),
        (ProtocolVariant::NaivePsOram, 6, None),
        // A persistence domain smaller than the path: dependency-ordered
        // batches.
        (ProtocolVariant::PsOram, 8, Some(6)),
    ];
    let got: Vec<(u128, usize)> = runs
        .iter()
        .map(|&(variant, levels, wpq)| digest_and_buckets(&path_run(variant, levels, wpq)))
        .collect();
    assert_eq!(got, PATH_PINS);
}

/// A domain small enough (3 entries under a 28-slot path) that greedy
/// plans hit oversize dependency cycles and fall back to identity
/// placement. Up to PR 13 that fallback picked among several live slots of
/// one address in `HashMap` iteration order, so this configuration had no
/// stable digest to pin; the pin below was recorded once the pick went in
/// path order.
#[test]
fn path_in_place_fallback_configuration_is_pinned() {
    let oram = path_run(ProtocolVariant::PsOram, 6, Some(3));
    assert!(
        oram.stats().in_place_fallbacks > 0,
        "the run must take the in-place fallback to pin it"
    );
    assert_eq!(digest_and_buckets(&oram), IN_PLACE_PIN);
}

/// Two instances in one process (so two differently keyed `RandomState`s
/// behind every `HashMap`) fed the same stream stay in the same state
/// after every single access, in-place fallbacks included.
#[test]
fn in_place_fallback_runs_agree_access_by_access_within_one_process() {
    let cfg = path_config(6, Some(3));
    let new = || PathOram::new(cfg.clone(), ProtocolVariant::PsOram, SEED);
    let pair = std::cell::RefCell::new((new(), new(), 0u64));
    drive(
        cfg.capacity_blocks(),
        cfg.payload_bytes,
        |addr, data| {
            let (a, b, i) = &mut *pair.borrow_mut();
            let outcomes = match data {
                Some(d) => (a.write(addr, d.clone()), b.write(addr, d)),
                None => (a.read(addr).map(drop), b.read(addr).map(drop)),
            };
            assert_eq!(outcomes.0, outcomes.1, "access {i}");
            assert_eq!(a.state_digest(), b.state_digest(), "after access {i}");
            *i += 1;
            outcomes.0
        },
        |point| {
            let (a, b, _) = &mut *pair.borrow_mut();
            a.inject_crash(point);
            b.inject_crash(point);
        },
        || {
            let (a, b, _) = &mut *pair.borrow_mut();
            a.recover();
            b.recover();
            assert_eq!(a.state_digest(), b.state_digest(), "after a recovery");
        },
    );
    let (a, b, _) = pair.into_inner();
    assert!(a.stats().in_place_fallbacks > 0, "no fallback was taken");
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn ring_state_digest_matches_the_hash_map_build() {
    let got = [
        ring_run(RingVariant::PsRing),
        ring_run(RingVariant::Baseline),
    ];
    assert_eq!(got, RING_PINS);
}

/// The data WPQ holds a whole path but the PosMap WPQ is smaller than the
/// dirty entries of one round, so rounds split on the *PosMap* queue: in
/// the middle of the real blocks, and — when the last real block's entry
/// fills it — at the room check that runs ahead of the dummies. Stalls,
/// rounds and committed batches are pinned to what the build that pushed
/// `SlotWrite`s through two partitions counted (recorded at 85db84c).
#[test]
fn posmap_wpq_smaller_than_a_rounds_reals_stalls_where_it_always_did() {
    let got: Vec<(u64, u64, u64, u64, u128)> = [
        (ProtocolVariant::PsOram, 1),
        (ProtocolVariant::NaivePsOram, 3),
        (ProtocolVariant::NaivePsOram, 5),
    ]
    .into_iter()
    .map(|(variant, posmap_wpq)| {
        let mut cfg = OramConfig::small_test();
        assert!(cfg.data_wpq_capacity >= cfg.path_slots());
        cfg.posmap_wpq_capacity = posmap_wpq;
        let oram = std::cell::RefCell::new(PathOram::new(cfg.clone(), variant, SEED));
        drive(
            cfg.capacity_blocks(),
            cfg.payload_bytes,
            |addr, data| match data {
                Some(d) => oram.borrow_mut().write(addr, d),
                None => oram.borrow_mut().read(addr).map(drop),
            },
            |point| oram.borrow_mut().inject_crash(point),
            || {
                oram.borrow_mut().recover();
            },
        );
        let oram = oram.into_inner();
        let stats = oram.stats();
        let (data_wpq, _) = oram.wpq_stats();
        (
            stats.wpq_stalls,
            stats.eviction_rounds,
            stats.eviction_batches,
            data_wpq.batches_committed,
            oram.state_digest(),
        )
    })
    .collect();
    for (stalls, rounds, ..) in &got {
        assert!(
            stalls + 1 >= *rounds,
            "every full round must split at least once"
        );
    }
    assert_eq!(got, WPQ_CORNER_PINS);
}

/// Three arm → 200 accesses → `crash_now` → `recover` cycles under the
/// replay mix: every crash-time draw, bit flip, replay, splice and
/// `confirm_*`, then the whole detect → classify → repair → rollback
/// ladder, on a hardened design. One golden record: the final
/// `state_digest()`, the accesses the device failed (retries exhausted,
/// fail-safe poison) and the three serialized `RecoveryReport`s.
fn device_cycles(design: &mut dyn ProtocolPolicy) -> String {
    let (capacity, payload_bytes) = (design.capacity_blocks(), design.payload_bytes());
    let mut x = SEED;
    let mut failed = 0u64;
    let mut reports: Vec<RecoveryReport> = Vec::new();
    for cycle in 0..3u64 {
        design.enable_device_faults(SEED + 7 * cycle, FaultConfig::replay_mix());
        for i in 0..200u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 33) % capacity.min(48);
            let outcome = if i % 3 == 0 {
                design.read(addr).map(drop)
            } else {
                design.write(addr, vec![(x >> 17) as u8; payload_bytes])
            };
            failed += u64::from(outcome.is_err());
        }
        design.crash_now();
        reports.push(design.recover());
        // Idempotent: a second call repeats the verdict and moves nothing.
        let digest = design.state_digest();
        assert_eq!(design.recover(), reports[cycle as usize]);
        assert_eq!(design.state_digest(), digest);
    }
    format!(
        "{{\"design\":\"{}\",\"state_digest\":\"{:#034x}\",\"failed_accesses\":{failed},\"reports\":{}}}",
        design.label(),
        design.state_digest(),
        serde_json::to_string(&reports).expect("reports serialize"),
    )
}

const RECOVERY_GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/recovery_seed42.json"
);

/// The device side and the recovery ladder, pinned to what the build with
/// a copy of each in both controllers produced (recorded at b9b0e49): a
/// change that reorders one entropy draw, one `confirm_*` or one wipe
/// moves a digest or a report here. Re-bless an *intentional* change with
/// `PSORAM_BLESS=1 cargo test -p psoram-core --test store_regression`.
#[test]
fn device_fault_recovery_cycles_match_golden() {
    let mut path = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, SEED);
    let mut ring = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, SEED);
    let json = format!(
        "[\n{},\n{}\n]\n",
        device_cycles(&mut path),
        device_cycles(&mut ring)
    );

    if std::env::var_os("PSORAM_BLESS").is_some() {
        std::fs::write(RECOVERY_GOLDEN_PATH, &json).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(RECOVERY_GOLDEN_PATH)
        .expect("golden missing — run with PSORAM_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "seed-42 recovery cycles diverged from the checked-in golden; \
         if the change is intentional, re-bless with PSORAM_BLESS=1"
    );
}

const PATH_PINS: [(u128, usize); 4] = [
    (0x66b9cd1aebd4676a6c6b1dab93efb1c3, 1530),
    (0x80da399ac896f1c7799f6d7aec607b48, 1488),
    (0xff3743145309b856f89e3dea88e42509, 127),
    (0x3d04b50a60518599381489c2fdbbc0be, 497),
];
const IN_PLACE_PIN: (u128, usize) = (0xae76bb59de5d808c9987d61877582afe, 127);
const RING_PINS: [u128; 2] = [
    0x2cf77cb73c53c9363d9e2cccd57c543a,
    0x8f1825cc3145707ae2fc166e6858b5da,
];
const WPQ_CORNER_PINS: [(u64, u64, u64, u64, u128); 3] = [
    (896, 897, 896, 1792, 0xff3743145309b856f89e3dea88e42509),
    (2327, 897, 896, 3223, 0xff3743145309b856f89e3dea88e42509),
    (1219, 897, 896, 2115, 0xff3743145309b856f89e3dea88e42509),
];

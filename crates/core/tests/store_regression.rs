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

/// Ring-Baseline's pin re-recorded once its ledger committed the held
/// primaries it lands (the digest folds the ledger).
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

/// Accesses of a pinned Ring run, and of the prefix a debug build stops
/// at (thirty times slower, and `reshuffle_bucket`'s open `debug_assert` —
/// ROADMAP item 1(b) — trips in the PS-Ring L = 14 seed-17 run past it).
const RING_RUN: u64 = 30_000;
const RING_RUN_PREFIX: u64 = 3_000;

/// One Ring run folded into a digest, read after [`RING_RUN_PREFIX`] and
/// (release builds) [`RING_RUN`] mixed accesses: each access contributes
/// its outcome, the clock, the NVM read and write counts and the stash and
/// temporary-PosMap occupancies it left behind, every 1,000th the whole
/// `state_digest()`. With `faults`, the replay mix is armed and every
/// 500th access is followed by a `crash_now` and a `recover` whose
/// serialized `RecoveryReport` is folded too. Stuck reads are left out of
/// the mix: one poisons an instance for good every ~330 accesses, and no
/// tree under faults would ever grow older than that.
fn ring_fold(variant: RingVariant, levels: u32, seed: u64, faults: bool) -> (u128, u128) {
    let cfg = RingConfig {
        levels,
        ..RingConfig::small_test()
    };
    let mut oram = RingOram::new(cfg.clone(), variant, seed);
    if faults {
        let mix = FaultConfig {
            stuck_read: 0.0,
            ..FaultConfig::replay_mix()
        };
        oram.enable_device_faults(seed, mix);
    }
    let hash = psoram_crypto::Hash128::new();
    let (mut acc, mut window) = ([0u8; 16], Vec::new());
    let (mut prefix, mut x) = (0, seed);
    let accesses = if cfg!(debug_assertions) {
        RING_RUN_PREFIX
    } else {
        RING_RUN
    };
    for i in 1..=accesses {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BlockAddr((x >> 33) % cfg.capacity_blocks());
        let outcome = if i % 3 == 0 {
            oram.read(addr).map(|v| window.extend_from_slice(&v))
        } else {
            oram.write(addr, vec![(x >> 17) as u8; cfg.payload_bytes])
        };
        if let Err(e) = &outcome {
            window.extend_from_slice(e.to_string().as_bytes());
        }
        let nvm = oram.nvm_stats();
        for v in [
            oram.clock(),
            nvm.reads,
            nvm.writes,
            oram.stash_len() as u64,
            oram.temp_posmap_len() as u64,
        ] {
            window.extend_from_slice(&v.to_le_bytes());
        }
        if faults && i % 500 == 0 {
            oram.crash_now();
            let report = serde_json::to_string(&oram.recover()).expect("reports serialize");
            window.extend_from_slice(report.as_bytes());
        }
        if i % 1_000 == 0 {
            window.extend_from_slice(&oram.state_digest().to_le_bytes());
            acc = hash.digest_parts(&[&acc[..], &window[..]]);
            window.clear();
        }
        if i == RING_RUN_PREFIX {
            prefix = u128::from_le_bytes(acc);
        }
    }
    (prefix, u128::from_le_bytes(acc))
}

/// What `ring.rs` does, access by access, pinned to the build before its
/// hot bodies were rewritten over reused buffers (recorded at 644c9af plus
/// the `temp_posmap_len` accessor this folds; the twelve Ring-Baseline
/// pins re-recorded once its ledger committed the held primaries it lands,
/// which the digest folds): PS-Ring and Ring-Baseline,
/// L = 10 and L = 14, seeds 3 / 17 / 92, clean and under the replay mix
/// with a crash and a recovery every 500 accesses. Each pin is the digest
/// after the prefix and after the whole run.
#[test]
fn ring_runs_are_pinned_access_by_access() {
    let mut got = Vec::new();
    for faults in [false, true] {
        for variant in [RingVariant::PsRing, RingVariant::Baseline] {
            for levels in [10, 14] {
                for seed in [3, 17, 92] {
                    got.push(ring_fold(variant, levels, seed, faults));
                }
            }
        }
    }
    let pins = RING_RUN_PINS.map(|(prefix, whole)| {
        if cfg!(debug_assertions) {
            (prefix, prefix)
        } else {
            (prefix, whole)
        }
    });
    assert_eq!(got, pins, "{got:#034x?}");
}

/// One `state_digest()` per shape of image it walks: a plain Path tree
/// (buckets, PosMap, ledger), the same with integrity armed and nothing
/// damaged, the same with the wear engine armed (the durable line mapping
/// joins the image) and a PS-Ring (valid bits and read counts join it),
/// each after 300 mixed accesses. Recorded at 6836432, before `Hash128`
/// moved onto the AES unit and the image stopped being copied whole.
#[test]
fn state_digests_of_the_four_image_shapes_are_pinned() {
    let path = || PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, SEED);
    let mut plain = path();
    let mut armed = path();
    armed.enable_device_faults(SEED, FaultConfig::disabled());
    let mut worn = path();
    worn.enable_wear(
        SEED,
        psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::StartGap),
    );
    let mut ring = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, SEED);
    let designs: [&mut dyn ProtocolPolicy; 4] = [&mut plain, &mut armed, &mut worn, &mut ring];
    let got = designs.map(|design| {
        let (capacity, payload_bytes) = (design.capacity_blocks(), design.payload_bytes());
        let mut x = SEED;
        for i in 0..300u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (x >> 33) % capacity;
            let outcome = if i % 3 == 0 {
                design.read(addr).map(drop)
            } else {
                design.write(addr, vec![(x >> 17) as u8; payload_bytes])
            };
            outcome.expect("no fault is armed");
        }
        design.state_digest()
    });
    assert_eq!(got, IMAGE_SHAPE_PINS, "{got:#034x?}");
}

// Plain and armed agree: tags and counters are not recoverable state.
const IMAGE_SHAPE_PINS: [u128; 4] = [
    0x2013f78d5d32ade74c1e401cad2f95e2,
    0x2013f78d5d32ade74c1e401cad2f95e2,
    0x06fb4080c00827e0ee7cd95e1312b6d8,
    0xdbb1952a68629619142b2c18bb25c98e,
];
const PATH_PINS: [(u128, usize); 4] = [
    (0x66b9cd1aebd4676a6c6b1dab93efb1c3, 1530),
    (0x80da399ac896f1c7799f6d7aec607b48, 1488),
    (0xff3743145309b856f89e3dea88e42509, 127),
    (0x3d04b50a60518599381489c2fdbbc0be, 497),
];
const IN_PLACE_PIN: (u128, usize) = (0xae76bb59de5d808c9987d61877582afe, 127);
const RING_PINS: [u128; 2] = [
    0x2cf77cb73c53c9363d9e2cccd57c543a,
    0xa19c341db2398bc217349019ced8ba02,
];
const WPQ_CORNER_PINS: [(u64, u64, u64, u64, u128); 3] = [
    (896, 897, 896, 1792, 0xff3743145309b856f89e3dea88e42509),
    (2327, 897, 896, 3223, 0xff3743145309b856f89e3dea88e42509),
    (1219, 897, 896, 2115, 0xff3743145309b856f89e3dea88e42509),
];
const RING_RUN_PINS: [(u128, u128); 24] = [
    (
        0xe9027fa35e94ca614b7eddbebfe14d34,
        0x92b37c25f8a8cc07f3ad447e4e75cb16,
    ),
    (
        0x19a74fa149951c014b20a3b73b2d1a1a,
        0x7470d729bbc4ef4fe9a2e2c76c338dab,
    ),
    (
        0x31accb4cac4b05a432c06ab8588aad59,
        0x0660166950596f8883323414a4bf3483,
    ),
    (
        0x62baaa98dd96147de074fce257d178e7,
        0x9e3f5ce8400e96441cd21c7d3cdbd1b6,
    ),
    (
        0x9920a0cf1c7fbf8d197b86aab08186ec,
        0xfb8495d5e01e8cda580027e24e55d28b,
    ),
    (
        0xc4bb6ebc6988fd43c7ecd6f8abee5a9f,
        0x0ef379f889ed97af5839c52e65b64a82,
    ),
    (
        0x091f07a3b1c94ae04ff7f67908990fbf,
        0x2f31ea588ba272141823af9b56e1ef69,
    ),
    (
        0xd03a5abb7a8c9c67d4886d4abd13bd02,
        0xe684c10f99c0a2b3e6d55cee15937b7e,
    ),
    (
        0x8975b6f77bbf4e9316ce505c5fe43676,
        0xd387ec6561a322c0cc08e704999158f5,
    ),
    (
        0x9bf7ffa66d3b1533f095a924990ec85c,
        0xc775d8bd500a28f8499c7de5fbe9af86,
    ),
    (
        0x0506b9a973a5f8ab2cd71bb704456b98,
        0x14c33b4af08743eeb28c8e431c53aae5,
    ),
    (
        0xa9c7d77a30edec2da27790a96dbf0f04,
        0x86a528a7abbbd2039eabca004a914817,
    ),
    (
        0xf1d70d59e79c8fd3a8518b5d387b2b00,
        0xa0db2db05f12235a090047bd1e3698fe,
    ),
    (
        0xd957ffbea2758bc2cc31a22e433cb0f0,
        0x71c2a07220701c7a06b0a1af2c5fbf3b,
    ),
    (
        0xe3da8fae5b77007940363a7204759165,
        0xbfdf4bea5d99a26db7ed76186f87bd32,
    ),
    (
        0xf667c67a6bec61267360b39210648aa4,
        0x18d92a8b2045b83dead5d24246c51743,
    ),
    (
        0x6c7e065a95230f7d7d9305d9a971be67,
        0x2a99a678a6410d8d2200a13900db1327,
    ),
    (
        0x9ae9f7ee62fcce20ac5bcacdc02db398,
        0x2d35ecc80a02db1edf5d6d060c54efde,
    ),
    (
        0x9c75e1b520940c7c5823230bb74ae012,
        0x86fca0cd53ed3764d2d3fd2b6ac1bc30,
    ),
    (
        0x8ed9072be4fd61641620b8c5faa20535,
        0x3edd6741438ea7ba5faa4fdc1de0cb4b,
    ),
    (
        0x01527df43925ecd649ebbacaa458e051,
        0x1aa793a24cc11ee9faa4603d3c0caa34,
    ),
    (
        0x889778ecf4a987b70d56226e4aa2c9a5,
        0xd24d79d8180d3ce50cbb25fdc3b92e68,
    ),
    (
        0xaa3a64b738369ad3a292f4accaa4b01d,
        0x5b8c9b204d58e3153a47d8308b4c8d82,
    ),
    (
        0x162402cc7503de7956163969fa503247,
        0x59b88693dc6e8dc01105fb298e2fcf26,
    ),
];

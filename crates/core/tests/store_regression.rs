//! The bucket store under the trees changed from hash maps to the paged
//! table; nothing a controller can observe may have changed with it. These
//! seed-42 runs pin `state_digest()` — which walks the materialized
//! buckets in index order, then the persisted PosMap, then the ledger —
//! and the materialized-bucket count to the values the hash-map build
//! produced (recorded at the parent commit, 65a1853).

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{BlockAddr, CrashPoint, OramConfig, OramError, PathOram, ProtocolVariant};

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

fn path_run(variant: ProtocolVariant, levels: u32, data_wpq: Option<usize>) -> (u128, usize) {
    let mut cfg = OramConfig::small_test().with_levels(levels);
    if let Some(capacity) = data_wpq {
        cfg.data_wpq_capacity = capacity;
        cfg.posmap_wpq_capacity = capacity;
    }
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
        // batches. (Domains small enough to take the in-place fallback
        // cannot be pinned: `plan_eviction_in_place` picks among several
        // live slots of one address in hash order, at the parent too.)
        (ProtocolVariant::PsOram, 8, Some(6)),
    ];
    let got: Vec<(u128, usize)> = runs
        .iter()
        .map(|&(variant, levels, wpq)| path_run(variant, levels, wpq))
        .collect();
    assert_eq!(got, PATH_PINS);
}

#[test]
fn ring_state_digest_matches_the_hash_map_build() {
    let got = [
        ring_run(RingVariant::PsRing),
        ring_run(RingVariant::Baseline),
    ];
    assert_eq!(got, RING_PINS);
}

const PATH_PINS: [(u128, usize); 4] = [
    (0x66b9cd1aebd4676a6c6b1dab93efb1c3, 1530),
    (0x80da399ac896f1c7799f6d7aec607b48, 1488),
    (0xff3743145309b856f89e3dea88e42509, 127),
    (0x3d04b50a60518599381489c2fdbbc0be, 497),
];
const RING_PINS: [u128; 2] = [
    0x2cf77cb73c53c9363d9e2cccd57c543a,
    0x8f1825cc3145707ae2fc166e6858b5da,
];

//! Property-based tests: read-your-writes, crash-anywhere recoverability,
//! eviction-plan invariants.

use proptest::prelude::*;

use psoram_core::{
    plan_eviction, Block, BlockAddr, CrashPoint, Leaf, OramConfig, OramTree, PathOram,
    ProtocolPolicy, ProtocolVariant,
};
use psoram_nvm::FaultConfig;

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; 8]
}

/// A program: a sequence of (addr, write?, value) operations.
fn ops_strategy(max_addr: u64) -> impl Strategy<Value = Vec<(u64, bool, u8)>> {
    prop::collection::vec((0..max_addr, any::<bool>(), any::<u8>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Read-your-writes must hold for every variant under random programs.
    #[test]
    fn read_your_writes(ops in ops_strategy(40), seed in 0u64..1000) {
        for variant in [ProtocolVariant::Baseline, ProtocolVariant::PsOram, ProtocolVariant::FullNvm] {
            let mut oram = PathOram::new(OramConfig::small_test(), variant, seed);
            let mut model = std::collections::HashMap::new();
            for (addr, is_write, val) in &ops {
                let a = BlockAddr(*addr);
                if *is_write {
                    oram.write(a, payload(*val)).unwrap();
                    model.insert(*addr, payload(*val));
                } else {
                    let got = oram.read(a).unwrap();
                    let expected = model.get(addr).cloned().unwrap_or_else(|| vec![0u8; 8]);
                    prop_assert_eq!(&got, &expected, "variant {}", variant);
                }
            }
        }
    }

    /// PS-ORAM: a crash at any step boundary of any access, after any
    /// program prefix, recovers to a state where every committed value is
    /// readable.
    #[test]
    fn ps_oram_crash_anywhere_recovers(
        ops in ops_strategy(30),
        step in 0usize..5,
        seed in 0u64..1000,
    ) {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        for (addr, is_write, val) in &ops {
            let a = BlockAddr(*addr);
            if *is_write {
                oram.write(a, payload(*val)).unwrap();
            } else {
                oram.read(a).unwrap();
            }
        }
        oram.inject_crash(CrashPoint::step_boundaries()[step]);
        let _ = oram.read(BlockAddr(ops[0].0));
        prop_assert!(oram.is_crashed());
        prop_assert!(oram.recover().consistent, "recoverability check failed");
        prop_assert!(oram.verify_contents(true).is_ok());
    }

    /// Same with mid-eviction crashes and a 4-entry persistence domain
    /// (the paper's limited-WPQ configuration).
    #[test]
    fn ps_oram_small_wpq_crash_mid_eviction_recovers(
        ops in ops_strategy(30),
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        let cfg = OramConfig::small_test().with_wpq_capacity(4, 4);
        let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, seed);
        for (addr, is_write, val) in &ops {
            let a = BlockAddr(*addr);
            if *is_write {
                oram.write(a, payload(*val)).unwrap();
            } else {
                oram.read(a).unwrap();
            }
        }
        oram.inject_crash(CrashPoint::DuringEviction(k));
        let _ = oram.read(BlockAddr(ops[0].0));
        if oram.is_crashed() {
            prop_assert!(oram.recover().consistent, "ordered small-WPQ eviction must stay recoverable");
            prop_assert!(oram.verify_contents(true).is_ok());
        } else {
            oram.disarm_crash();
        }
    }

    /// The recoverability invariant holds continuously, not just at crash
    /// time: after any program, check_recoverability passes for PS-ORAM.
    #[test]
    fn ps_oram_invariant_holds_during_normal_operation(
        ops in ops_strategy(40),
        seed in 0u64..1000,
    ) {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        for (addr, is_write, val) in &ops {
            let a = BlockAddr(*addr);
            if *is_write {
                oram.write(a, payload(*val)).unwrap();
            } else {
                oram.read(a).unwrap();
            }
            prop_assert!(oram.check_recoverability().is_ok());
        }
    }

    /// Eviction planning: every path slot is covered exactly once, no block
    /// is duplicated or lost, and blocks land on prefix-compatible buckets.
    #[test]
    fn eviction_plan_is_a_partition(
        leaves in prop::collection::vec(0u64..64, 1..20),
        evict_leaf in 0u64..64,
    ) {
        let cfg = OramConfig::small_test();
        let tree = OramTree::new(&cfg);
        let blocks: Vec<Block> = leaves
            .iter()
            .enumerate()
            .map(|(i, &l)| Block::new(BlockAddr(i as u64), Leaf(l), vec![0; 8]))
            .collect();
        let n = blocks.len();
        let (plan, leftovers) = plan_eviction(vec![], blocks, &tree, Leaf(evict_leaf));

        // Full coverage of the path.
        prop_assert_eq!(plan.writes.len(), cfg.path_slots());
        // Conservation: placed + leftovers == input.
        prop_assert_eq!(plan.real_blocks() + leftovers.len(), n);
        // Placement legality: a block's leaf path must pass through its bucket.
        for w in &plan.writes {
            if let Some(b) = &w.block {
                let path = tree.path_indices(b.leaf());
                prop_assert!(
                    path.contains(&w.bucket),
                    "block with leaf {} placed off-path at bucket {}",
                    b.leaf(),
                    w.bucket
                );
            }
        }
        // No duplicate slots.
        let mut seen = std::collections::HashSet::new();
        for w in &plan.writes {
            prop_assert!(seen.insert((w.bucket, w.slot)));
        }
    }

    /// Ring ORAM: read-your-writes under random programs, both variants.
    #[test]
    fn ring_read_your_writes(ops in ops_strategy(40), seed in 0u64..500) {
        use psoram_core::ring::{RingConfig, RingOram, RingVariant};
        for variant in [RingVariant::Baseline, RingVariant::PsRing] {
            let mut oram = RingOram::new(RingConfig::small_test(), variant, seed);
            let mut model = std::collections::HashMap::new();
            for (addr, is_write, val) in &ops {
                let a = BlockAddr(*addr);
                if *is_write {
                    oram.write(a, payload(*val)).unwrap();
                    model.insert(*addr, payload(*val));
                } else {
                    let got = oram.read(a).unwrap();
                    let expected = model.get(addr).cloned().unwrap_or_else(|| vec![0u8; 8]);
                    prop_assert_eq!(&got, &expected, "{} addr {}", variant, addr);
                }
            }
        }
    }

    /// PS-Ring-ORAM: crash at any step boundary after a random program
    /// recovers to committed values.
    #[test]
    fn ps_ring_crash_anywhere_recovers(
        ops in ops_strategy(30),
        step in 0usize..4,
        seed in 0u64..500,
    ) {
        use psoram_core::ring::{RingConfig, RingOram, RingVariant};
        let points = [
            CrashPoint::AfterAccessPosMap,
            CrashPoint::AfterLoadPath,
            CrashPoint::AfterUpdateStash,
            CrashPoint::AfterEviction,
        ];
        let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, seed);
        for (addr, is_write, val) in &ops {
            let a = BlockAddr(*addr);
            if *is_write {
                oram.write(a, payload(*val)).unwrap();
            } else {
                oram.read(a).unwrap();
            }
        }
        oram.inject_crash(points[step]);
        let _ = oram.read(BlockAddr(ops[0].0));
        if oram.is_crashed() {
            prop_assert!(oram.recover().consistent, "PS-Ring recoverability failed");
            prop_assert!(oram.verify_contents(true).is_ok());
        }
    }

    /// PS-ORAM with the freshness layer armed and nothing damaged: random
    /// programs + crash never raise a false alarm, and verification stays
    /// green throughout.
    #[test]
    fn hardened_no_false_alarms(ops in ops_strategy(25), seed in 0u64..500) {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, seed);
        oram.enable_device_faults(seed, FaultConfig::disabled());
        for (addr, is_write, val) in &ops {
            let a = BlockAddr(*addr);
            let r = if *is_write {
                oram.write(a, payload(*val))
            } else {
                oram.read(a).map(|_| ())
            };
            prop_assert!(r.is_ok(), "false alarm: {:?}", r);
        }
        oram.crash_now();
        prop_assert!(oram.recover().consistent);
        prop_assert!(oram.verify_contents(true).is_ok());
    }

    /// Must-class blocks fetched from the eviction path are always placed.
    #[test]
    fn must_blocks_always_placed(
        depths in prop::collection::vec(0u32..7, 1..28),
        evict_leaf in 0u64..64,
    ) {
        let cfg = OramConfig::small_test();
        let tree = OramTree::new(&cfg);
        // Build blocks whose leaves agree with evict_leaf to exactly depth d,
        // at most Z per depth (as fetched blocks would).
        let mut per_depth = [0usize; 7];
        let mut blocks = Vec::new();
        for (i, &d) in depths.iter().enumerate() {
            if per_depth[d as usize] >= cfg.bucket_slots {
                continue;
            }
            per_depth[d as usize] += 1;
            let leaf = if d == 6 { evict_leaf } else { evict_leaf ^ (1 << (5 - d)) };
            blocks.push(Block::new(BlockAddr(i as u64), Leaf(leaf), vec![0; 8]));
        }
        let n = blocks.len();
        let (plan, leftovers) = plan_eviction(blocks, vec![], &tree, Leaf(evict_leaf));
        prop_assert!(leftovers.is_empty(), "{} must-blocks stranded", leftovers.len());
        prop_assert_eq!(plan.real_blocks(), n);
    }
}

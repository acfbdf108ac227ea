//! Property-based tests: read-your-writes, crash-anywhere recoverability,
//! eviction-plan invariants.

use proptest::prelude::*;

use psoram_core::testkit::{crash_at, reads_its_writes, Arm, Case, Design, Geometry, Op};
use psoram_core::{
    plan_eviction, Block, BlockAddr, CrashPoint, Leaf, OramConfig, OramTree, PathOram,
    ProtocolVariant,
};
use psoram_nvm::FaultConfig;

fn is_ring(design: Design) -> bool {
    matches!(design, Design::Ring(_))
}

/// `ops`, then a crash at the design's `step`-th step boundary (wrapped)
/// fires and recovers, where the design claims crash consistency.
fn crash_at_step(design: Design, ops: &[Op], step: usize, seed: u64) -> Result<(), TestCaseError> {
    if design.is_crash_consistent() {
        let points = design.step_points();
        let point = points[step % points.len()];
        let case = Case {
            design,
            arm: Arm::Plain,
            seed,
        };
        let outcome = crash_at(&case, Geometry::Small, point, ops);
        prop_assert_eq!(outcome, Ok(true), "{:?} {}", design, point);
    }
    Ok(())
}

/// Read-your-writes on every row `pick` selects, under the program `ops`.
fn reads_back(pick: fn(Design) -> bool, ops: &[Op], seed: u64) -> Result<(), TestCaseError> {
    for design in Design::all().filter(|&d| pick(d)) {
        let outcome = reads_its_writes(design.build(seed).as_mut(), ops, false);
        prop_assert!(outcome.is_ok(), "{:?}: {}", design, outcome.unwrap_err());
    }
    Ok(())
}

fn payload(tag: u8) -> Vec<u8> {
    vec![tag; 8]
}

/// A program: a sequence of (addr, write?, value) operations.
fn ops_strategy(max_addr: u64) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0..max_addr, any::<bool>(), any::<u8>()), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Read-your-writes holds for every Path variant under random programs.
    #[test]
    fn read_your_writes(ops in ops_strategy(40), seed in 0u64..1000) {
        reads_back(|d| matches!(d, Design::Path(_)), &ops, seed)?;
    }

    /// A crash at any step boundary of any access, after any program
    /// prefix, recovers every consistent Path row and the toy to a state
    /// where every committed value is readable.
    #[test]
    fn ps_oram_crash_anywhere_recovers(
        ops in ops_strategy(30),
        step in 0usize..5,
        seed in 0u64..1000,
    ) {
        for design in Design::all().filter(|d| !is_ring(*d)) {
            crash_at_step(design, &ops, step, seed)?;
        }
    }

    /// Mid-eviction crashes in the smallest legal persistence domains
    /// (the paper's limited-WPQ configuration), every consistent row.
    #[test]
    fn ps_oram_small_wpq_crash_mid_eviction_recovers(
        ops in ops_strategy(30),
        k in 0usize..12,
        seed in 0u64..1000,
    ) {
        for design in Design::all().filter(|d| d.is_crash_consistent()) {
            let case = Case { design, arm: Arm::Plain, seed };
            let outcome = crash_at(&case, Geometry::SmallWpq, CrashPoint::DuringEviction(k), &ops);
            prop_assert!(outcome.is_ok(), "{:?} k={}: {}", design, k, outcome.unwrap_err());
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

    /// Ring ORAM: read-your-writes under random programs, both rows.
    #[test]
    fn ring_read_your_writes(ops in ops_strategy(40), seed in 0u64..500) {
        reads_back(is_ring, &ops, seed)?;
    }

    /// PS-Ring-ORAM: a crash at any step boundary after a random program
    /// recovers to committed values.
    #[test]
    fn ps_ring_crash_anywhere_recovers(
        ops in ops_strategy(30),
        step in 0usize..4,
        seed in 0u64..500,
    ) {
        for design in Design::all().filter(|d| is_ring(*d)) {
            crash_at_step(design, &ops, step, seed)?;
        }
    }

    /// Every hardened row with the freshness layer armed and nothing
    /// damaged: random programs + crash never raise a false alarm, and
    /// verification stays green throughout.
    #[test]
    fn hardened_no_false_alarms(ops in ops_strategy(25), seed in 0u64..500) {
        for design in Design::all().filter(|d| d.is_hardened()) {
            let mut oram = design.build(seed);
            oram.enable_device_faults(seed, FaultConfig::disabled());
            let span = oram.capacity_blocks();
            for (addr, is_write, val) in &ops {
                let a = addr % span;
                let r = if *is_write {
                    oram.write(a, payload(*val))
                } else {
                    oram.read(a).map(|_| ())
                };
                prop_assert!(r.is_ok(), "{:?}: false alarm: {:?}", design, r);
            }
            oram.crash_now();
            prop_assert!(oram.recover().consistent, "{:?}", design);
            prop_assert!(oram.verify_contents(true).is_ok(), "{:?}", design);
        }
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

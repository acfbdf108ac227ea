//! Eviction planning: greedy path placement and dependency-ordered
//! write-back for small persistence domains.

use std::collections::HashMap;

use crate::block::Block;
use crate::tree::{BucketIndex, OramTree};
use crate::types::{BlockAddr, Leaf};

/// One slot write of an eviction round (`None` writes a dummy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotWrite {
    /// Destination bucket.
    pub bucket: BucketIndex,
    /// Destination slot within the bucket.
    pub slot: usize,
    /// The block to write, or `None` for an encrypted dummy.
    pub block: Option<Block>,
}

/// The outcome of planning one eviction on a path.
#[derive(Debug, Clone, Default)]
pub struct EvictionPlan {
    /// Every slot of the path, in root-to-leaf order — the full-path
    /// rewrite the memory system performs.
    pub writes: Vec<SlotWrite>,
    /// Addresses of *primary* (non-backup) blocks placed by this plan.
    pub evicted_primaries: Vec<BlockAddr>,
    /// Addresses of backup/live-shadow blocks placed by this plan.
    pub evicted_backups: Vec<BlockAddr>,
}

impl EvictionPlan {
    /// Number of real (non-dummy) blocks written.
    pub fn real_blocks(&self) -> usize {
        self.writes.iter().filter(|w| w.block.is_some()).count()
    }

    /// Appends the write of `block` (a dummy if `None`) to `(bucket, slot)`.
    fn push(&mut self, bucket: BucketIndex, slot: usize, block: Option<Block>) {
        if let Some(b) = &block {
            if b.is_backup {
                self.evicted_backups.push(b.addr());
            } else {
                self.evicted_primaries.push(b.addr());
            }
        }
        self.writes.push(SlotWrite {
            bucket,
            slot,
            block,
        });
    }
}

/// Where greedy placement puts each candidate, by `(class, index)` into
/// the caller's `[must, opportunistic]` vectors.
///
/// Planning on positions leaves the candidates where they are until the
/// plan is accepted: the small-persistence-domain path tests a placement's
/// write-back ordering first and only then moves the blocks — into this
/// plan, or into the in-place fallback.
#[derive(Debug)]
pub struct Placement {
    path: Vec<BucketIndex>,
    bucket_slots: usize,
    /// Per path slot, root bucket first: the candidate placed there.
    slots: Vec<Option<(usize, usize)>>,
    /// Candidates that found no room, in the order they were turned away.
    leftovers: Vec<(usize, usize)>,
}

/// Greedy placement onto the path to `leaf`: from the leaf toward the root,
/// deepest-eligible block first, every `must` block before any
/// opportunistic one (see [`plan_eviction`]).
pub fn place_greedy(
    must: &[Block],
    opportunistic: &[Block],
    tree: &OramTree,
    leaf: Leaf,
) -> Placement {
    let z = tree.bucket_slots();
    let path = tree.path_indices(leaf);
    let mut slots = vec![None; path.len() * z];
    // Slots already taken in each level's bucket.
    let mut filled = vec![0usize; path.len()];
    let mut leftovers = Vec::new();
    for (class, candidates) in [must, opportunistic].into_iter().enumerate() {
        // Deepest level each candidate may occupy.
        let mut items: Vec<(u32, usize)> = candidates
            .iter()
            .enumerate()
            .map(|(i, b)| (tree.common_depth(b.leaf(), leaf), i))
            .collect();
        items.sort_by_key(|(d, _)| *d);
        // Iterate from deepest-eligible to shallowest; place each in the
        // deepest level that still has room.
        for (max_depth, i) in items.into_iter().rev() {
            match (0..=max_depth as usize).rev().find(|&d| filled[d] < z) {
                Some(d) => {
                    slots[d * z + filled[d]] = Some((class, i));
                    filled[d] += 1;
                }
                None => {
                    debug_assert!(
                        class == 1,
                        "a must-place block could not be placed on its own path"
                    );
                    leftovers.push((class, i));
                }
            }
        }
    }
    Placement {
        path,
        bucket_slots: z,
        slots,
        leftovers,
    }
}

impl Placement {
    /// `(bucket, slot)` of the `n`-th path slot.
    fn slot_at(&self, n: usize) -> (BucketIndex, usize) {
        (self.path[n / self.bucket_slots], n % self.bucket_slots)
    }

    /// Every slot of the path in root-to-leaf order with the address this
    /// placement writes there — what [`order_for_small_wpq`] orders.
    pub fn targets(&self, must: &[Block], opportunistic: &[Block]) -> Vec<SlotTarget> {
        let pools = [must, opportunistic];
        self.slots
            .iter()
            .enumerate()
            .map(|(n, placed)| {
                let (bucket, slot) = self.slot_at(n);
                let addr = placed.map(|(class, i)| pools[class][i].addr());
                SlotTarget { bucket, slot, addr }
            })
            .collect()
    }

    /// Moves the candidates into the plan; the unplaced ones come back for
    /// the stash.
    pub fn into_plan(
        self,
        must: Vec<Block>,
        opportunistic: Vec<Block>,
    ) -> (EvictionPlan, Vec<Block>) {
        let mut pools = [must, opportunistic].map(|v| v.into_iter().map(Some).collect::<Vec<_>>());
        let mut take = |(class, i): (usize, usize)| {
            pools[class][i]
                .take()
                .expect("a candidate is placed or turned away exactly once")
        };
        let mut plan = EvictionPlan::default();
        plan.writes.reserve(self.slots.len());
        for (n, placed) in self.slots.iter().enumerate() {
            let (bucket, slot) = self.slot_at(n);
            plan.push(bucket, slot, placed.map(&mut take));
        }
        let leftovers = self.leftovers.iter().copied().map(take).collect();
        (plan, leftovers)
    }
}

/// Plans a Path ORAM eviction onto the path to `leaf`.
///
/// `must` contains blocks whose only live NVM copy resides on this path
/// (every block just fetched from it, including backup/shadow copies): the
/// full-path rewrite is about to destroy those copies, so crash consistency
/// requires all of them to be re-placed — and they always can be, because
/// each one occupied a distinct slot of this very path (its original
/// position is a witness placement). `opportunistic` blocks (longer-lived
/// stash residents, the freshly remapped target) fill the remaining slots
/// greedily; the ones that do not fit are returned for the stash.
///
/// Placement is greedy from the leaf toward the root, deepest-eligible
/// block first, with the `must` class placed before any opportunistic
/// block. Backups being in the `must` class is exactly the paper's
/// Claim 2: stash occupancy does not grow because of backups.
pub fn plan_eviction(
    must: Vec<Block>,
    opportunistic: Vec<Block>,
    tree: &OramTree,
    leaf: Leaf,
) -> (EvictionPlan, Vec<Block>) {
    place_greedy(&must, &opportunistic, tree, leaf).into_plan(must, opportunistic)
}

/// Plans an eviction for **small persistence domains** (paper §4.2.3):
/// every `must` block is written back *at the very slot its live copy
/// occupies* (identity placement), so no write ever destroys another
/// block's only live copy and the write-back needs no ordering constraints
/// at all — arbitrary `capacity`-sized atomic batches are safe.
///
/// The paper proposes ordering the writes (`e → c → b`, Claim 5); ordering
/// alone cannot handle dependency *cycles* longer than the WPQ, which do
/// arise under greedy placement (found by our property tests). Identity
/// placement is the sound generalization: live copies never move within a
/// round, opportunistic blocks only fill slots whose old content is dummy
/// or dead, and slots holding superseded duplicates are rewritten as
/// dummies strictly after all real batches.
///
/// `live_slots` maps `(bucket, slot)` to the address whose live copy sits
/// there (as computed during the path read).
pub fn plan_eviction_in_place(
    must: Vec<Block>,
    opportunistic: Vec<Block>,
    tree: &OramTree,
    leaf: Leaf,
    live_slots: &HashMap<(BucketIndex, usize), BlockAddr>,
) -> (EvictionPlan, Vec<Block>) {
    let z = tree.bucket_slots();
    let path = tree.path_indices(leaf);

    // Assign must blocks to their own live slots. An address can have
    // several (a primary and a shadow on one path): they are handed out in
    // path order — root-first bucket, then slot — never in the map's
    // iteration order, which differs from run to run.
    let mut assigned: HashMap<(BucketIndex, usize), Block> = HashMap::new();
    let mut homeless = Vec::new();
    for block in must {
        let slot = path
            .iter()
            .flat_map(|&bucket| (0..z).map(move |slot| (bucket, slot)))
            .find(|k| live_slots.get(k) == Some(&block.addr()) && !assigned.contains_key(k));
        match slot {
            Some(k) => {
                assigned.insert(k, block);
            }
            None => homeless.push(block),
        }
    }

    // Opportunistic blocks (plus any must block without a live slot, e.g. a
    // fresh write) fill non-live slots, deepest-eligible first.
    let mut leftovers = Vec::new();
    let mut items: Vec<(u32, Block)> = homeless
        .into_iter()
        .chain(opportunistic)
        .map(|b| (tree.common_depth(b.leaf(), leaf), b))
        .collect();
    items.sort_by_key(|(d, _)| *d);
    for (max_depth, block) in items.into_iter().rev() {
        let free = (0..=max_depth as usize).rev().find_map(|d| {
            (0..z)
                .map(|slot| (path[d], slot))
                .find(|key| !live_slots.contains_key(key) && !assigned.contains_key(key))
        });
        match free {
            Some(key) => {
                assigned.insert(key, block);
            }
            None => leftovers.push(block),
        }
    }

    let mut plan = EvictionPlan::default();
    for &bucket in &path {
        for slot in 0..z {
            plan.push(bucket, slot, assigned.remove(&(bucket, slot)));
        }
    }
    (plan, leftovers)
}

/// What the write-back ordering needs to know of one slot write: where it
/// lands and whose block it carries (`None` for a dummy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotTarget {
    /// Destination bucket.
    pub bucket: BucketIndex,
    /// Destination slot within the bucket.
    pub slot: usize,
    /// Address of the block written there, or `None` for a dummy.
    pub addr: Option<BlockAddr>,
}

impl From<&SlotWrite> for SlotTarget {
    fn from(w: &SlotWrite) -> Self {
        SlotTarget {
            bucket: w.bucket,
            slot: w.slot,
            addr: w.block.as_ref().map(Block::addr),
        }
    }
}

/// Splits an eviction's real-block writes into dependency-ordered atomic
/// batches of at most `capacity` entries, for small persistence domains
/// (paper §4.2.3, Claim 5). A batch lists positions in `writes`.
///
/// `live_old` maps `(bucket, slot)` to the address whose *live* (recoverable)
/// copy currently occupies that slot in NVM; `new_slot` maps each address
/// written this round to its destination. A write into a slot holding the
/// live copy of `x` may only be issued after `x`'s own new copy is durable,
/// or inside the same atomic batch. Dummy writes carry no payload and are
/// ordered last.
///
/// # Errors
///
/// Returns the cycle length when a dependency cycle exceeds `capacity` —
/// no safe ordering exists for that plan; the caller re-plans with
/// [`plan_eviction_in_place`], which has no ordering constraints.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn order_for_small_wpq(
    writes: &[SlotTarget],
    live_old: &HashMap<(BucketIndex, usize), BlockAddr>,
    capacity: usize,
) -> Result<Vec<Vec<usize>>, usize> {
    assert!(capacity > 0);
    // Destination of each address written this round.
    let new_slot: HashMap<BlockAddr, usize> = writes
        .iter()
        .enumerate()
        .filter_map(|(i, w)| w.addr.map(|a| (a, i)))
        .collect();
    // The write whose durability `v` must wait for, if any.
    let pred_of = |v: usize| {
        let w = &writes[v];
        live_old
            .get(&(w.bucket, w.slot))
            .and_then(|victim| new_slot.get(victim))
            .copied()
            .filter(|&u| u != v)
    };

    let real: Vec<usize> = (0..writes.len())
        .filter(|&i| writes[i].addr.is_some())
        .collect();
    // Edge u -> v means u must be durable no later than v's batch.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); writes.len()];
    let mut preds: Vec<usize> = vec![0; writes.len()];
    for &v in &real {
        if let Some(u) = pred_of(v) {
            succs[u].push(v);
            preds[v] += 1;
        }
    }

    // Kahn's algorithm, emitting capacity-sized batches; a stall means a
    // dependency cycle, which is emitted as one atomic batch.
    let mut remaining = real;
    let mut batches = Vec::new();
    while !remaining.is_empty() {
        let ready: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&i| preds[i] == 0)
            .take(capacity)
            .collect();
        let chosen = if ready.is_empty() {
            // Cycle: find one by walking dependencies; it must commit as a
            // single atomic batch, so it has to fit the WPQ.
            let cycle = find_cycle(remaining[0], pred_of);
            if cycle.len() > capacity {
                return Err(cycle.len());
            }
            cycle
        } else {
            ready
        };
        for &c in &chosen {
            for &s in &succs[c] {
                preds[s] = preds[s].saturating_sub(1);
            }
        }
        remaining.retain(|i| !chosen.contains(i));
        batches.push(chosen);
    }

    // Dummy writes last, in capacity-sized batches.
    let dummies: Vec<usize> = (0..writes.len())
        .filter(|&i| writes[i].addr.is_none())
        .collect();
    batches.extend(dummies.chunks(capacity).map(<[usize]>::to_vec));
    Ok(batches)
}

/// Walks predecessors from `start` (every stalled write has one) until a
/// write repeats; returns the cycle.
fn find_cycle(start: usize, pred_of: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
    let mut seen = vec![start];
    let mut cur = start;
    loop {
        let pred = pred_of(cur).expect("stalled node must have a predecessor");
        if let Some(pos) = seen.iter().position(|&s| s == pred) {
            return seen[pos..].to_vec();
        }
        seen.push(pred);
        cur = pred;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::OramConfig;

    fn tree() -> OramTree {
        OramTree::new(&OramConfig::small_test()) // L = 6, Z = 4
    }

    fn blk(a: u64, leaf: u64) -> Block {
        Block::new(BlockAddr(a), Leaf(leaf), vec![a as u8; 8])
    }

    /// The ordered batches of `plan`'s writes, as the writes themselves.
    fn ordered<'a>(
        plan: &'a EvictionPlan,
        live_old: &HashMap<(BucketIndex, usize), BlockAddr>,
        capacity: usize,
    ) -> Vec<Vec<&'a SlotWrite>> {
        let targets: Vec<SlotTarget> = plan.writes.iter().map(SlotTarget::from).collect();
        order_for_small_wpq(&targets, live_old, capacity)
            .unwrap()
            .into_iter()
            .map(|batch| batch.into_iter().map(|i| &plan.writes[i]).collect())
            .collect()
    }

    #[test]
    fn plan_covers_every_path_slot() {
        let t = tree();
        let (plan, left) = plan_eviction(vec![], vec![blk(1, 5)], &t, Leaf(5));
        assert_eq!(
            plan.writes.len(),
            t.bucket_slots() * (t.levels() as usize + 1)
        );
        assert!(left.is_empty());
        assert_eq!(plan.real_blocks(), 1);
    }

    #[test]
    fn exact_leaf_match_goes_deepest() {
        let t = tree();
        let (plan, _) = plan_eviction(vec![], vec![blk(1, 5)], &t, Leaf(5));
        let leaf_bucket = t.bucket_at(Leaf(5), t.levels());
        let placed = plan
            .writes
            .iter()
            .find(|w| w.block.is_some())
            .expect("block placed");
        assert_eq!(placed.bucket, leaf_bucket);
    }

    #[test]
    fn root_only_block_goes_to_root() {
        let t = tree();
        // Leaf 0 vs eviction leaf 63: first bit differs, only root shared.
        let (plan, _) = plan_eviction(vec![], vec![blk(1, 0)], &t, Leaf(63));
        let placed = plan.writes.iter().find(|w| w.block.is_some()).unwrap();
        assert_eq!(placed.bucket, 0);
    }

    #[test]
    fn fetched_path_always_replaceable() {
        // Blocks that all came from the eviction path must all be placed.
        let t = tree();
        let leaf = Leaf(21);
        // One block per level, with leaves agreeing to exactly that depth.
        let mut cands = Vec::new();
        for d in 0..=6u64 {
            // A leaf agreeing with 21 on the top `d` bits, differing next.
            let leaf_d = if d == 6 {
                21
            } else {
                (21 ^ (1 << (5 - d))) & 63
            };
            cands.push(blk(d, leaf_d));
        }
        let (plan, left) = plan_eviction(cands, vec![], &t, leaf);
        assert!(
            left.is_empty(),
            "all path-resident blocks must be re-placed"
        );
        assert_eq!(plan.real_blocks(), 7);
    }

    #[test]
    fn overflow_goes_back_to_stash() {
        let t = tree();
        // 5 blocks that can only live in the root (Z = 4).
        let cands: Vec<Block> = (0..5).map(|a| blk(a, 0)).collect();
        let (plan, left) = plan_eviction(vec![], cands, &t, Leaf(63));
        assert_eq!(plan.real_blocks(), 4);
        assert_eq!(left.len(), 1);
    }

    #[test]
    fn backups_counted_separately() {
        let t = tree();
        let primary = blk(9, 5);
        let backup = primary.to_backup(Leaf(5));
        let (plan, _) = plan_eviction(vec![backup], vec![primary], &t, Leaf(5));
        assert_eq!(plan.evicted_primaries, vec![BlockAddr(9)]);
        assert_eq!(plan.evicted_backups, vec![BlockAddr(9)]);
    }

    #[test]
    fn a_placement_describes_the_plan_it_becomes_and_moves_every_candidate_once() {
        let t = tree();
        let leaf = Leaf(21);
        let must = vec![blk(1, 21).to_backup(Leaf(21)), blk(2, 20)];
        // Thirty blocks over few leaves: some cannot fit and come back.
        let opportunistic: Vec<Block> = (10..40).map(|a| blk(a, (a * 5) % 8 + 16)).collect();
        let placement = place_greedy(&must, &opportunistic, &t, leaf);
        let targets = placement.targets(&must, &opportunistic);
        let (plan, leftovers) = placement.into_plan(must.clone(), opportunistic.clone());
        let described: Vec<SlotTarget> = plan.writes.iter().map(SlotTarget::from).collect();
        assert_eq!(targets, described);
        assert!(!leftovers.is_empty(), "the case must exercise leftovers");
        let by_identity = |b: &Block| (b.addr(), b.is_backup);
        let mut out: Vec<Block> = plan.writes.into_iter().filter_map(|w| w.block).collect();
        out.extend(leftovers);
        out.sort_by_key(by_identity);
        let mut candidates = [must, opportunistic].concat();
        candidates.sort_by_key(by_identity);
        assert_eq!(out, candidates);
    }

    #[test]
    fn ordering_respects_overwrite_dependencies() {
        let t = tree();
        let leaf = Leaf(5);
        let (plan, _) = plan_eviction(vec![], vec![blk(1, 5), blk(2, 5)], &t, leaf);
        // Pretend block 2's live copy sits where block 1 will be written.
        let w1 = plan
            .writes
            .iter()
            .find(|w| w.block.as_ref().is_some_and(|b| b.addr() == BlockAddr(1)))
            .unwrap();
        let mut live_old = HashMap::new();
        live_old.insert((w1.bucket, w1.slot), BlockAddr(2));
        let batches = ordered(&plan, &live_old, 1);
        // Block 2 must be written in an earlier batch than block 1.
        let pos = |a: u64| {
            batches
                .iter()
                .position(|b| {
                    b.iter()
                        .any(|w| w.block.as_ref().is_some_and(|bl| bl.addr() == BlockAddr(a)))
                })
                .unwrap()
        };
        assert!(pos(2) < pos(1), "dependency order violated");
    }

    #[test]
    fn swap_cycle_lands_in_one_atomic_batch() {
        let t = tree();
        let leaf = Leaf(5);
        let (plan, _) = plan_eviction(vec![], vec![blk(1, 5), blk(2, 5)], &t, leaf);
        let w1 = plan
            .writes
            .iter()
            .find(|w| w.block.as_ref().is_some_and(|b| b.addr() == BlockAddr(1)))
            .unwrap()
            .clone();
        let w2 = plan
            .writes
            .iter()
            .find(|w| w.block.as_ref().is_some_and(|b| b.addr() == BlockAddr(2)))
            .unwrap()
            .clone();
        let mut live_old = HashMap::new();
        live_old.insert((w1.bucket, w1.slot), BlockAddr(2));
        live_old.insert((w2.bucket, w2.slot), BlockAddr(1));
        let batches = ordered(&plan, &live_old, 4);
        let cycle_batch = batches
            .iter()
            .find(|b| b.iter().any(|w| w.block.is_some()))
            .unwrap();
        let reals: Vec<_> = cycle_batch.iter().filter(|w| w.block.is_some()).collect();
        assert_eq!(reals.len(), 2, "swap must commit atomically");
    }

    #[test]
    fn batches_respect_capacity_except_cycles() {
        let t = tree();
        let cands: Vec<Block> = (0..8).map(|a| blk(a, 5)).collect();
        let (plan, _) = plan_eviction(vec![], cands, &t, Leaf(5));
        let batches = ordered(&plan, &HashMap::new(), 3);
        for b in &batches {
            assert!(b.len() <= 3);
        }
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, plan.writes.len());
    }

    #[test]
    fn in_place_puts_must_blocks_back_on_their_own_slots() {
        let t = tree();
        let leaf = Leaf(5);
        let b1 = blk(1, 5);
        let b2 = blk(2, 5);
        let mut live = HashMap::new();
        let s1 = (t.bucket_at(leaf, 6), 0usize);
        let s2 = (t.bucket_at(leaf, 3), 2usize);
        live.insert(s1, BlockAddr(1));
        live.insert(s2, BlockAddr(2));
        let (plan, left) = plan_eviction_in_place(vec![b1, b2], vec![], &t, leaf, &live);
        assert!(left.is_empty());
        for w in &plan.writes {
            if let Some(b) = &w.block {
                let key = (w.bucket, w.slot);
                assert_eq!(
                    live.get(&key),
                    Some(&b.addr()),
                    "block moved off its live slot"
                );
            }
        }
    }

    #[test]
    fn in_place_opportunistic_avoids_live_slots() {
        let t = tree();
        let leaf = Leaf(5);
        let mut live = HashMap::new();
        // A live copy of an address NOT among the candidates (superseded
        // duplicate): its slot must be left for a trailing dummy write.
        let reserved = (t.bucket_at(leaf, 6), 1usize);
        live.insert(reserved, BlockAddr(99));
        let (plan, _) = plan_eviction_in_place(vec![], vec![blk(1, 5)], &t, leaf, &live);
        let at_reserved = plan
            .writes
            .iter()
            .find(|w| (w.bucket, w.slot) == reserved)
            .unwrap();
        assert!(
            at_reserved.block.is_none(),
            "reserved live slot must become a dummy"
        );
        assert_eq!(plan.real_blocks(), 1);
    }

    #[test]
    fn in_place_has_no_ordering_dependencies() {
        let t = tree();
        let leaf = Leaf(5);
        let b1 = blk(1, 5);
        let b2 = blk(2, 5);
        let mut live = HashMap::new();
        live.insert((t.bucket_at(leaf, 6), 0usize), BlockAddr(1));
        live.insert((t.bucket_at(leaf, 6), 1usize), BlockAddr(2));
        let (plan, _) = plan_eviction_in_place(vec![b1, b2], vec![blk(3, 5)], &t, leaf, &live);
        // With identity placement the small-WPQ scheduler finds everything
        // ready immediately: batches never stall on a cycle.
        let batches = ordered(&plan, &live, 1);
        let reals: usize = batches
            .iter()
            .map(|b| b.iter().filter(|w| w.block.is_some()).count())
            .sum();
        assert_eq!(reals, 3);
        for b in &batches {
            assert!(b.len() <= 1);
        }
    }

    #[test]
    fn dummies_ordered_after_real_blocks() {
        let t = tree();
        let (plan, _) = plan_eviction(vec![], vec![blk(1, 5)], &t, Leaf(5));
        let batches = ordered(&plan, &HashMap::new(), 4);
        let first_dummy_batch = batches
            .iter()
            .position(|b| b.iter().any(|w| w.block.is_none()));
        let last_real_batch = batches
            .iter()
            .rposition(|b| b.iter().any(|w| w.block.is_some()))
            .unwrap();
        assert!(first_dummy_batch.unwrap() > last_real_batch);
    }
}

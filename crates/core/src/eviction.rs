//! Eviction planning: greedy path placement and dependency-ordered
//! write-back for small persistence domains.
//!
//! Everything here speaks *path positions*: slot `s` of the bucket at depth
//! `d` on the eviction path is position `d·Z + s`, root first. The
//! controller's path frame maps positions to `(bucket, slot, NVM address)`;
//! the planner itself needs only the tree's geometry.

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

/// The outcome of planning one eviction on a path, as owned slot writes.
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

/// What the planner needs to know of an eviction candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The block's address.
    pub addr: BlockAddr,
    /// The path the block is mapped to.
    pub leaf: Leaf,
    /// The block's only live NVM copy is on the path being evicted: it
    /// has to be placed (see [`plan_eviction`]).
    pub must: bool,
}

impl Candidate {
    /// `block` as a candidate of class `must`.
    pub fn of(block: &Block, must: bool) -> Self {
        Candidate {
            addr: block.addr(),
            leaf: block.leaf(),
            must,
        }
    }
}

/// A candidate waiting for a slot: the deepest level it may occupy, its
/// rank among the candidates competing with it, and which candidate it is.
type Waiting = (u32, u32, u32);

/// Where an eviction puts each candidate, by index into the caller's
/// candidate slice (the stash, as it stands), and the planner's working
/// tables, reused from one access to the next.
///
/// Planning on indices leaves the candidates where they are: the stash is
/// planned over in place and only the placed blocks leave it, and the
/// small-persistence-domain path can test a placement's write-back
/// ordering, and re-plan, before any block moves.
#[derive(Debug, Default)]
pub struct Placement {
    /// Per path position: the candidate placed there.
    slots: Vec<Option<u32>>,
    /// Candidates that found no room, in the order they were turned away.
    leftovers: Vec<u32>,
    /// Candidates still to place, by class.
    waiting: [Vec<Waiting>; 2],
    /// Slots already taken in each level's bucket.
    filled: Vec<usize>,
}

impl Placement {
    /// Per path position (root bucket first, slots ascending): the
    /// candidate placed there, `None` for a dummy.
    pub fn slots(&self) -> &[Option<u32>] {
        &self.slots
    }

    /// Candidates that found no room, in the order they were turned away
    /// — the order they keep in the stash.
    pub fn leftovers(&self) -> &[u32] {
        &self.leftovers
    }

    fn reset(&mut self, tree: &OramTree) {
        let depths = tree.levels() as usize + 1;
        self.slots.clear();
        self.slots.resize(depths * tree.bucket_slots(), None);
        self.filled.clear();
        self.filled.resize(depths, 0);
        self.leftovers.clear();
        self.waiting.iter_mut().for_each(Vec::clear);
    }

    /// Greedy placement onto the path to `leaf`: from the leaf toward the
    /// root, deepest-eligible block first, every `must` candidate before
    /// any other (see [`plan_eviction`]). Candidates are known by their
    /// position in `candidates`.
    ///
    /// Among candidates of one class eligible to the same depth the later
    /// one goes first; with the leftover order this is what makes the
    /// stash's content a function of the access sequence alone.
    pub fn place_greedy(
        &mut self,
        candidates: impl IntoIterator<Item = Candidate>,
        tree: &OramTree,
        leaf: Leaf,
    ) {
        self.reset(tree);
        let z = tree.bucket_slots();
        let candidates = candidates.into_iter();
        // One allocation each for a fresh planner, none for a reused one.
        let expected = candidates.size_hint().0;
        self.waiting.iter_mut().for_each(|w| w.reserve(expected));
        for (i, c) in candidates.enumerate() {
            let depth = tree.common_depth(c.leaf, leaf);
            self.waiting[usize::from(!c.must)].push((depth, i as u32, i as u32));
        }
        let Placement {
            slots,
            leftovers,
            waiting,
            filled,
        } = self;
        for (class, waiting) in waiting.iter_mut().enumerate() {
            // Deepest-eligible first, the later candidate first on a tie;
            // each goes to the deepest level that still has room.
            waiting.sort_unstable_by(|a, b| b.cmp(a));
            for &(max_depth, _, i) in waiting.iter() {
                match (0..=max_depth as usize).rev().find(|&d| filled[d] < z) {
                    Some(d) => {
                        slots[d * z + filled[d]] = Some(i);
                        filled[d] += 1;
                    }
                    None => {
                        debug_assert!(
                            class == 1,
                            "a must-place block could not be placed on its own path"
                        );
                        leftovers.push(i);
                    }
                }
            }
        }
    }

    /// Placement for **small persistence domains** (paper §4.2.3): every
    /// `must` candidate is written back *at the very slot its live copy
    /// occupies* (identity placement), so no write ever destroys another
    /// block's only live copy and the write-back needs no ordering
    /// constraints at all — arbitrary `capacity`-sized atomic batches are
    /// safe.
    ///
    /// The paper proposes ordering the writes (`e → c → b`, Claim 5);
    /// ordering alone cannot handle dependency *cycles* longer than the
    /// WPQ, which do arise under greedy placement (found by our property
    /// tests). Identity placement is the sound generalization: live copies
    /// never move within a round, opportunistic blocks only fill slots
    /// whose old content is dummy or dead, and slots holding superseded
    /// duplicates are rewritten as dummies strictly after all real batches.
    ///
    /// `live[k]` is the address whose live copy sits at path position `k`
    /// (as found during the path read). An address can have several (a
    /// primary and a shadow on one path): they are handed out in path
    /// order.
    pub fn place_in_place(
        &mut self,
        candidates: impl IntoIterator<Item = Candidate>,
        tree: &OramTree,
        leaf: Leaf,
        live: &[Option<BlockAddr>],
    ) {
        self.reset(tree);
        debug_assert_eq!(live.len(), self.slots.len());
        let z = tree.bucket_slots();
        let Placement {
            slots,
            leftovers,
            waiting: [homeless, others],
            ..
        } = self;
        // Must blocks go back to their own live slots; one without a live
        // slot (a fresh write) competes with the opportunistic blocks,
        // ahead of them.
        for (i, c) in candidates.into_iter().enumerate() {
            let depth = tree.common_depth(c.leaf, leaf);
            if !c.must {
                others.push((depth, 0, i as u32));
                continue;
            }
            let own = (0..slots.len()).find(|&k| live[k] == Some(c.addr) && slots[k].is_none());
            match own {
                Some(k) => slots[k] = Some(i as u32),
                None => homeless.push((depth, 0, i as u32)),
            }
        }
        homeless.append(others);
        for (rank, w) in homeless.iter_mut().enumerate() {
            w.1 = rank as u32;
        }
        // They fill the slots that hold no live copy, deepest-eligible
        // first, the later one first on a tie.
        homeless.sort_unstable_by(|a, b| b.cmp(a));
        for &(max_depth, _, i) in homeless.iter() {
            let free = (0..=max_depth as usize).rev().find_map(|d| {
                (d * z..(d + 1) * z).find(|&k| live[k].is_none() && slots[k].is_none())
            });
            match free {
                Some(k) => slots[k] = Some(i),
                None => leftovers.push(i),
            }
        }
    }

    /// Per path position, the address this placement writes there
    /// (`None` for a dummy) — what [`order_for_small_wpq`] orders.
    pub fn targets_into(&self, candidates: &[Block], targets: &mut Vec<Option<BlockAddr>>) {
        targets.clear();
        targets.extend(
            self.slots
                .iter()
                .map(|placed| placed.map(|i| candidates[i as usize].addr())),
        );
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
///
/// This is [`Placement::place_greedy`] — the planner the controller runs
/// over its stash in place — carried out on owned vectors.
pub fn plan_eviction(
    must: Vec<Block>,
    opportunistic: Vec<Block>,
    tree: &OramTree,
    leaf: Leaf,
) -> (EvictionPlan, Vec<Block>) {
    let mut placement = Placement::default();
    placement.place_greedy(candidates_of(&must, &opportunistic), tree, leaf);
    placement.into_plan(must, opportunistic, tree, leaf)
}

/// `must` then `opportunistic` as one candidate sequence.
fn candidates_of<'a>(
    must: &'a [Block],
    opportunistic: &'a [Block],
) -> impl Iterator<Item = Candidate> + 'a {
    let class = |blocks: &'a [Block], must| blocks.iter().map(move |b| Candidate::of(b, must));
    class(must, true).chain(class(opportunistic, false))
}

impl Placement {
    /// Moves the candidates of a plan made over [`candidates_of`] into
    /// owned slot writes; the unplaced ones come back for the stash.
    fn into_plan(
        self,
        must: Vec<Block>,
        opportunistic: Vec<Block>,
        tree: &OramTree,
        leaf: Leaf,
    ) -> (EvictionPlan, Vec<Block>) {
        let musts = must.len();
        let mut pools = [must, opportunistic].map(|v| v.into_iter().map(Some).collect::<Vec<_>>());
        let mut take = |i: u32| {
            let i = i as usize;
            let cell = if i < musts {
                &mut pools[0][i]
            } else {
                &mut pools[1][i - musts]
            };
            cell.take()
                .expect("a candidate is placed or turned away exactly once")
        };
        let mut plan = EvictionPlan::default();
        plan.writes.reserve(self.slots.len());
        let mut placed = self.slots.iter();
        for bucket in tree.path(leaf) {
            for (slot, placed) in placed.by_ref().take(tree.bucket_slots()).enumerate() {
                plan.push(bucket, slot, placed.map(&mut take));
            }
        }
        let leftovers = self.leftovers.iter().copied().map(take).collect();
        (plan, leftovers)
    }
}

/// Splits an eviction's writes into dependency-ordered atomic batches of
/// at most `capacity` entries, for small persistence domains (paper
/// §4.2.3, Claim 5). A batch lists path positions.
///
/// `targets[k]` is the address written to position `k` this round (`None`
/// for a dummy) and `live[k]` the address whose *live* (recoverable) copy
/// currently occupies it in NVM. A write into a slot holding the live copy
/// of `x` may only be issued after `x`'s own new copy is durable, or
/// inside the same atomic batch. Dummy writes carry no payload and are
/// ordered last.
///
/// # Errors
///
/// Returns the cycle length when a dependency cycle exceeds `capacity` —
/// no safe ordering exists for that plan; the caller re-plans with
/// [`Placement::place_in_place`], which has no ordering constraints.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn order_for_small_wpq(
    targets: &[Option<BlockAddr>],
    live: &[Option<BlockAddr>],
    capacity: usize,
) -> Result<Vec<Vec<usize>>, usize> {
    assert!(capacity > 0);
    debug_assert_eq!(targets.len(), live.len());
    // The write whose durability `v` must wait for, if any: the one that
    // carries the new copy of the address whose live copy `v` overwrites
    // (the last such write, when a primary and its shadow both land).
    let pred_of = |v: usize| {
        live[v]
            .and_then(|victim| targets.iter().rposition(|&t| t == Some(victim)))
            .filter(|&u| u != v)
    };

    let real: Vec<usize> = (0..targets.len())
        .filter(|&i| targets[i].is_some())
        .collect();
    // Edge u -> v means u must be durable no later than v's batch.
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); targets.len()];
    let mut preds: Vec<usize> = vec![0; targets.len()];
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
    let dummies: Vec<usize> = (0..targets.len())
        .filter(|&i| targets[i].is_none())
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
    use std::collections::HashMap;

    use proptest::prelude::*;

    use super::*;
    use crate::stash::Stash;
    use crate::types::OramConfig;

    fn tree() -> OramTree {
        OramTree::new(&OramConfig::small_test()) // L = 6, Z = 4
    }

    fn blk(a: u64, leaf: u64) -> Block {
        Block::new(BlockAddr(a), Leaf(leaf), vec![a as u8; 8])
    }

    /// The live-copy column of a plan's path from `(bucket, slot)` keys.
    fn live_column(
        plan: &EvictionPlan,
        live_old: &HashMap<(BucketIndex, usize), BlockAddr>,
    ) -> Vec<Option<BlockAddr>> {
        plan.writes
            .iter()
            .map(|w| live_old.get(&(w.bucket, w.slot)).copied())
            .collect()
    }

    fn targets_of(plan: &EvictionPlan) -> Vec<Option<BlockAddr>> {
        plan.writes
            .iter()
            .map(|w| w.block.as_ref().map(Block::addr))
            .collect()
    }

    /// The ordered batches of `plan`'s writes, as the writes themselves.
    fn ordered<'a>(
        plan: &'a EvictionPlan,
        live_old: &HashMap<(BucketIndex, usize), BlockAddr>,
        capacity: usize,
    ) -> Vec<Vec<&'a SlotWrite>> {
        order_for_small_wpq(&targets_of(plan), &live_column(plan, live_old), capacity)
            .unwrap()
            .into_iter()
            .map(|batch| batch.into_iter().map(|i| &plan.writes[i]).collect())
            .collect()
    }

    /// Identity placement carried out on owned vectors.
    fn plan_eviction_in_place(
        must: Vec<Block>,
        opportunistic: Vec<Block>,
        tree: &OramTree,
        leaf: Leaf,
        live_slots: &HashMap<(BucketIndex, usize), BlockAddr>,
    ) -> (EvictionPlan, Vec<Block>) {
        let live: Vec<Option<BlockAddr>> = tree
            .path(leaf)
            .flat_map(|bucket| (0..tree.bucket_slots()).map(move |slot| (bucket, slot)))
            .map(|key| live_slots.get(&key).copied())
            .collect();
        let mut placement = Placement::default();
        placement.place_in_place(candidates_of(&must, &opportunistic), tree, leaf, &live);
        placement.into_plan(must, opportunistic, tree, leaf)
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
        let mut placement = Placement::default();
        placement.place_greedy(candidates_of(&must, &opportunistic), &t, leaf);
        let mut targets = Vec::new();
        placement.targets_into(
            &[must.clone(), opportunistic.clone()].concat(),
            &mut targets,
        );
        let (plan, leftovers) = placement.into_plan(must.clone(), opportunistic.clone(), &t, leaf);
        assert_eq!(targets, targets_of(&plan));
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

    /// The planner this module had before it planned on positions: owned
    /// `must`/`opportunistic` vectors, `(class, index)` ids, a stable sort
    /// read backwards. Kept as the oracle the in-place planner answers to.
    fn reference_plan(
        must: Vec<Block>,
        opportunistic: Vec<Block>,
        tree: &OramTree,
        leaf: Leaf,
    ) -> (Vec<SlotWrite>, Vec<Block>) {
        let z = tree.bucket_slots();
        let path = tree.path_indices(leaf);
        let mut slots: Vec<Option<(usize, usize)>> = vec![None; path.len() * z];
        let mut filled = vec![0usize; path.len()];
        let mut turned_away = Vec::new();
        for (class, candidates) in [&must, &opportunistic].into_iter().enumerate() {
            let mut items: Vec<(u32, usize)> = candidates
                .iter()
                .enumerate()
                .map(|(i, b)| (tree.common_depth(b.leaf(), leaf), i))
                .collect();
            items.sort_by_key(|(d, _)| *d);
            for (max_depth, i) in items.into_iter().rev() {
                match (0..=max_depth as usize).rev().find(|&d| filled[d] < z) {
                    Some(d) => {
                        slots[d * z + filled[d]] = Some((class, i));
                        filled[d] += 1;
                    }
                    None => turned_away.push((class, i)),
                }
            }
        }
        let mut pools = [must, opportunistic].map(|v| v.into_iter().map(Some).collect::<Vec<_>>());
        let mut take = |(class, i): (usize, usize)| pools[class][i].take().expect("taken once");
        let writes = slots
            .iter()
            .enumerate()
            .map(|(n, placed)| SlotWrite {
                bucket: path[n / z],
                slot: n % z,
                block: placed.map(&mut take),
            })
            .collect();
        (writes, turned_away.into_iter().map(take).collect())
    }

    proptest! {
        /// Planning over the stash where it stands and moving only the
        /// placed blocks ends exactly where draining the stash, splitting
        /// it by class, planning on the two vectors and re-inserting the
        /// leftovers did: every block in the same slot, the same
        /// leftovers in the same order — duplicate addresses, backups and
        /// crowded levels included.
        #[test]
        fn planning_in_place_matches_the_drain_and_partition_planner(
            blocks in prop::collection::vec((0u64..12, 0u64..64, any::<bool>(), any::<bool>()), 0..60),
            evict_leaf in 0u64..64,
        ) {
            let t = tree();
            let leaf = Leaf(evict_leaf);
            let mut stash = Stash::new(64);
            let mut classes = Vec::new();
            for (i, &(addr, block_leaf, is_backup, must)) in blocks.iter().enumerate() {
                let mut b = blk(addr, block_leaf);
                b.header.seq = i as u64; // tells duplicates apart
                b.is_backup = is_backup;
                // A must block came off this path: it fits somewhere on it.
                let must = must && t.common_depth(b.leaf(), leaf) >= 2;
                stash.insert(b).unwrap();
                classes.push(must);
            }
            // At most Z must-blocks a level, as fetched blocks would be.
            let mut per_depth = [0usize; 7];
            for (b, must) in stash.blocks().iter().zip(classes.iter_mut()) {
                let d = t.common_depth(b.leaf(), leaf) as usize;
                *must &= per_depth[d] < t.bucket_slots();
                per_depth[d] += usize::from(*must);
            }

            let (must, opportunistic): (Vec<_>, Vec<_>) = stash
                .blocks()
                .iter()
                .cloned()
                .zip(classes.iter().copied())
                .partition(|&(_, must)| must);
            let strip = |v: Vec<(Block, bool)>| v.into_iter().map(|(b, _)| b).collect::<Vec<_>>();
            let (want_writes, want_left) = reference_plan(strip(must), strip(opportunistic), &t, leaf);

            let mut placement = Placement::default();
            let candidates = stash.blocks().iter().zip(&classes);
            placement.place_greedy(candidates.map(|(b, &must)| Candidate::of(b, must)), &t, leaf);
            let mut out = vec![None; want_writes.len()];
            stash.evict(placement.slots(), placement.leftovers(), &mut out);
            let want_out: Vec<Option<Block>> = want_writes.into_iter().map(|w| w.block).collect();
            prop_assert_eq!(out, want_out);
            prop_assert_eq!(stash.blocks(), &want_left[..]);
            for b in stash.blocks() {
                prop_assert_eq!(stash.get(b.addr()).is_some(), stash.blocks().iter().any(|x| !x.is_backup && x.addr() == b.addr()));
            }
        }
    }
}

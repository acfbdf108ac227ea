//! The ORAM stash: a small on-chip buffer of in-flight blocks.

use serde::{Deserialize, Serialize};

use crate::block::Block;
use crate::types::{BlockAddr, Leaf, OramError};

/// The on-chip stash (`C = 200` entries in the paper's Table 3).
///
/// Holds blocks between a path read and their eviction. PS-ORAM backup
/// (shadow) blocks live here too but are invisible to lookups.
///
/// Lookups scan a packed column of the blocks' addresses (`keys`, one word
/// per block, backups masked out) instead of the blocks themselves: with
/// every access doing some twenty `get`/`contains` probes over a stash of a
/// few dozen entries, a contiguous scan beats both a walk over the 72-byte
/// blocks and any keyed index that would have to be rebuilt as the
/// eviction reorders the stash. The `blocks` vector stays the source of
/// truth — eviction plans over it in insertion order — and a lookup finds
/// the *first* primary copy of an address.
///
/// # Examples
///
/// ```
/// use psoram_core::{Stash, Block, BlockAddr, Leaf};
///
/// let mut s = Stash::new(10);
/// s.insert(Block::new(BlockAddr(1), Leaf(0), vec![9; 8])).unwrap();
/// assert!(s.get(BlockAddr(1)).is_some());
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stash {
    capacity: usize,
    blocks: Vec<Block>,
    max_occupancy: usize,
    /// `keys[i]` is the address of `blocks[i]`, or [`BACKUP_KEY`] for a
    /// backup (never matched by a lookup).
    keys: Vec<u64>,
    /// The block vector of the previous eviction, kept for its capacity.
    spare: Vec<Block>,
}

/// The lookup key of backups: no program address reaches it (addresses
/// are bounded by the tree's capacity).
const BACKUP_KEY: u64 = u64::MAX;

fn key_of(block: &Block) -> u64 {
    if block.is_backup {
        BACKUP_KEY
    } else {
        block.addr().0
    }
}

/// What a moved-out block leaves behind until the vector is compacted;
/// an empty payload allocates nothing.
pub(crate) fn hole() -> Block {
    Block::new(BlockAddr(0), Leaf(0), Vec::new())
}

impl Stash {
    /// Creates an empty stash bounded at `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stash capacity must be positive");
        Stash {
            capacity,
            blocks: Vec::new(),
            max_occupancy: 0,
            keys: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Position of the first primary copy of `addr`.
    fn position(&self, addr: BlockAddr) -> Option<usize> {
        self.keys.iter().position(|&k| k == addr.0)
    }

    /// Inserts a block.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::StashOverflow`] when at capacity — a correctly
    /// sized stash makes this statistically negligible, but the condition is
    /// surfaced rather than silently dropping data.
    pub fn insert(&mut self, block: Block) -> Result<(), OramError> {
        if self.blocks.len() >= self.capacity {
            return Err(OramError::StashOverflow {
                capacity: self.capacity,
            });
        }
        debug_assert!(block.addr().0 != BACKUP_KEY);
        self.keys.push(key_of(&block));
        self.blocks.push(block);
        self.max_occupancy = self.max_occupancy.max(self.blocks.len());
        Ok(())
    }

    /// Looks up the *primary* (non-backup) block at `addr`.
    pub fn get(&self, addr: BlockAddr) -> Option<&Block> {
        self.position(addr).map(|i| &self.blocks[i])
    }

    /// Mutable lookup of the primary block at `addr`. The caller may
    /// change the block's leaf, counters and payload; its address and
    /// backup mark are what lookups go by and must stay as they are.
    pub fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut Block> {
        self.position(addr).map(|i| &mut self.blocks[i])
    }

    /// `true` if a primary copy of `addr` is present.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.position(addr).is_some()
    }

    /// Removes and returns blocks matching `pred`; the rest keep their
    /// order.
    pub fn drain_matching(&mut self, mut pred: impl FnMut(&Block) -> bool) -> Vec<Block> {
        let mut taken = Vec::new();
        self.keys.clear();
        for b in self.blocks.drain(..) {
            if pred(&b) {
                taken.push(b);
            } else {
                self.keys.push(key_of(&b));
                self.spare.push(b);
            }
        }
        std::mem::swap(&mut self.blocks, &mut self.spare);
        taken
    }

    /// Carries out an eviction planned over [`Stash::blocks`], in place:
    /// the block at stash position `placed[n]` moves to `out[n]`, and the
    /// blocks at `leftovers` stay, in that order. The plan must name every
    /// position exactly once.
    pub(crate) fn evict(
        &mut self,
        placed: &[Option<u32>],
        leftovers: &[u32],
        out: &mut [Option<Block>],
    ) {
        debug_assert_eq!(
            placed.iter().flatten().count() + leftovers.len(),
            self.blocks.len(),
            "an eviction plan covers the whole stash"
        );
        let blocks = &mut self.blocks;
        let mut take = |i: u32| std::mem::replace(&mut blocks[i as usize], hole());
        for (cell, from) in out.iter_mut().zip(placed) {
            *cell = from.map(&mut take);
        }
        self.keys.clear();
        for &i in leftovers {
            let b = take(i);
            self.keys.push(key_of(&b));
            self.spare.push(b);
        }
        self.blocks.clear();
        std::mem::swap(&mut self.blocks, &mut self.spare);
    }

    /// All blocks, including backups.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Current occupancy including backups.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when the stash holds nothing.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of occupancy (the paper's stash-overflow metric).
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Drops every block — models the loss of volatile state at a crash.
    pub fn wipe(&mut self) {
        self.blocks.clear();
        self.keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(a: u64) -> Block {
        Block::new(BlockAddr(a), Leaf(0), vec![a as u8; 8])
    }

    #[test]
    fn overflow_is_an_error_not_a_drop() {
        let mut s = Stash::new(1);
        s.insert(blk(1)).unwrap();
        let err = s.insert(blk(2)).unwrap_err();
        assert_eq!(err, OramError::StashOverflow { capacity: 1 });
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn lookup_ignores_backups() {
        let mut s = Stash::new(4);
        let primary = blk(7);
        let backup = primary.to_backup(Leaf(3));
        s.insert(backup).unwrap();
        assert!(s.get(BlockAddr(7)).is_none());
        s.insert(primary).unwrap();
        assert!(s.get(BlockAddr(7)).is_some());
        assert!(!s.get(BlockAddr(7)).unwrap().is_backup);
    }

    #[test]
    fn get_mut_allows_update() {
        let mut s = Stash::new(4);
        s.insert(blk(1)).unwrap();
        s.get_mut(BlockAddr(1)).unwrap().payload = vec![0xFF; 8];
        assert_eq!(s.get(BlockAddr(1)).unwrap().payload, vec![0xFF; 8]);
    }

    #[test]
    fn drain_matching_partitions() {
        let mut s = Stash::new(8);
        for a in 0..6 {
            s.insert(blk(a)).unwrap();
        }
        let even = s.drain_matching(|b| b.addr().0 % 2 == 0);
        assert_eq!(even.len(), 3);
        assert_eq!(s.len(), 3);
        assert!(s.blocks().iter().all(|b| b.addr().0 % 2 == 1));
    }

    #[test]
    fn max_occupancy_is_a_high_water_mark() {
        let mut s = Stash::new(8);
        for a in 0..5 {
            s.insert(blk(a)).unwrap();
        }
        s.drain_matching(|_| true);
        assert_eq!(s.len(), 0);
        assert_eq!(s.max_occupancy(), 5);
    }

    #[test]
    fn wipe_models_crash() {
        let mut s = Stash::new(4);
        s.insert(blk(1)).unwrap();
        s.wipe();
        assert!(s.is_empty());
    }

    /// An unindexed reimplementation of the original linear-scan stash,
    /// used as the behavioral oracle for the indexed one.
    struct NaiveStash {
        capacity: usize,
        blocks: Vec<Block>,
    }

    impl NaiveStash {
        fn get(&self, addr: BlockAddr) -> Option<&Block> {
            self.blocks
                .iter()
                .find(|b| !b.is_backup && b.addr() == addr)
        }
    }

    /// The indexed stash must match the old linear-scan behavior on a long
    /// randomized insert/lookup/evict/drain sequence, including duplicate
    /// primaries and backups.
    #[test]
    fn index_matches_linear_scan_on_randomized_sequence() {
        let mut indexed = Stash::new(64);
        let mut naive = NaiveStash {
            capacity: 64,
            blocks: Vec::new(),
        };

        // Small deterministic PRNG so the test needs no dev-dependency.
        let mut state = 0x1234_5678_9ABC_DEFFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };

        for step in 0..4000u64 {
            match next() % 10 {
                // Insert a primary (duplicates allowed and expected).
                0..=3 => {
                    let a = next() % 24;
                    let b = Block::new(BlockAddr(a), Leaf(a % 8), vec![step as u8; 8]);
                    let want = naive.blocks.len() < naive.capacity;
                    if want {
                        naive.blocks.push(b.clone());
                    }
                    assert_eq!(indexed.insert(b).is_ok(), want, "step {step}");
                }
                // Insert a backup of a random address.
                4 => {
                    let a = next() % 24;
                    let b = Block::new(BlockAddr(a), Leaf(a % 8), vec![step as u8; 8])
                        .to_backup(Leaf((a + 1) % 8));
                    if naive.blocks.len() < naive.capacity {
                        naive.blocks.push(b.clone());
                        indexed.insert(b).unwrap();
                    }
                }
                // An eviction: a random subset leaves for random path
                // slots, the rest stay in a rotated order.
                5 => {
                    let n = naive.blocks.len();
                    let mut placed: Vec<Option<u32>> = vec![None; 12];
                    let mut leftovers = Vec::new();
                    for i in 0..n as u32 {
                        let cell = (next() % 16) as usize;
                        if cell < placed.len() && placed[cell].is_none() {
                            placed[cell] = Some(i);
                        } else {
                            leftovers.push(i);
                        }
                    }
                    let by = (next() as usize) % leftovers.len().max(1);
                    leftovers.rotate_left(by);
                    let mut out = vec![None; placed.len()];
                    indexed.evict(&placed, &leftovers, &mut out);
                    let want: Vec<Option<Block>> = placed
                        .iter()
                        .map(|p| p.map(|i| naive.blocks[i as usize].clone()))
                        .collect();
                    assert_eq!(out, want, "step {step}");
                    naive.blocks = leftovers
                        .iter()
                        .map(|&i| naive.blocks[i as usize].clone())
                        .collect();
                }
                // Drain by a random predicate.
                6 => {
                    let bit = next().is_multiple_of(2);
                    let pred = |b: &Block| b.addr().0.is_multiple_of(2) == bit;
                    let mut kept = Vec::new();
                    let mut taken = Vec::new();
                    for b in naive.blocks.drain(..) {
                        if pred(&b) {
                            taken.push(b);
                        } else {
                            kept.push(b);
                        }
                    }
                    naive.blocks = kept;
                    assert_eq!(indexed.drain_matching(pred), taken, "step {step}");
                }
                // Lookups: primary get + contains must agree exactly.
                _ => {
                    let a = BlockAddr(next() % 24);
                    assert_eq!(indexed.get(a), naive.get(a), "step {step} addr {a:?}");
                    assert_eq!(indexed.contains(a), naive.get(a).is_some(), "step {step}");
                }
            }
            // Eviction iterates `blocks()` directly: order must be identical.
            assert_eq!(indexed.blocks(), &naive.blocks[..], "step {step}");
        }
    }

    /// Mutating through `get_mut` must keep index and storage consistent.
    #[test]
    fn get_mut_after_churn_targets_first_primary() {
        let mut s = Stash::new(16);
        s.insert(blk(3)).unwrap();
        s.insert(blk(4)).unwrap();
        s.insert(blk(3)).unwrap(); // duplicate primary: first one wins
        s.get_mut(BlockAddr(3)).unwrap().payload = vec![0xAB; 8];
        assert_eq!(s.blocks()[0].payload, vec![0xAB; 8]);
        assert_eq!(s.blocks()[2].payload, vec![3; 8]);
        // Evict the first copy; the duplicate becomes visible again.
        let mut out = [None];
        s.evict(&[Some(0)], &[2, 1], &mut out);
        assert_eq!(out[0].as_ref().unwrap().payload, vec![0xAB; 8]);
        assert_eq!(s.get(BlockAddr(3)).unwrap().payload, vec![3; 8]);
        assert_eq!(
            s.blocks()[1].addr(),
            BlockAddr(4),
            "leftovers in plan order"
        );
    }
}

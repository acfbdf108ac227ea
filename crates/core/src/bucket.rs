//! Tree buckets: Path ORAM's `Z`-slot [`Bucket`] and Ring ORAM's
//! permuted `Z + S`-slot [`RingBucket`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::block::Block;
use crate::types::BlockAddr;

/// One node of the ORAM tree, holding up to `Z` blocks.
///
/// Empty slots model dummy blocks (address `⊥` in the paper). On the real
/// memory bus every slot — dummy or not — is transferred and re-encrypted,
/// which the timing layer accounts for; the functional layer only stores
/// real blocks.
///
/// # Examples
///
/// ```
/// use psoram_core::{Bucket, Block, BlockAddr, Leaf};
///
/// let mut b = Bucket::new(4);
/// assert_eq!(b.free_slots(), 4);
/// b.insert(Block::new(BlockAddr(1), Leaf(0), vec![0; 8])).unwrap();
/// assert_eq!(b.free_slots(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    slots: Vec<Option<Block>>,
}

impl Bucket {
    /// Creates an all-dummy bucket with `z` slots.
    pub fn new(z: usize) -> Self {
        Bucket {
            slots: vec![None; z],
        }
    }

    /// Number of slots (`Z`).
    pub fn num_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of empty (dummy) slots.
    pub fn free_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.is_none()).count()
    }

    /// Number of real blocks stored.
    pub fn occupancy(&self) -> usize {
        self.num_slots() - self.free_slots()
    }

    /// Inserts a block into the first free slot, returning its slot index.
    ///
    /// # Errors
    ///
    /// Returns the block back if the bucket is full.
    pub fn insert(&mut self, block: Block) -> Result<usize, Block> {
        match self.slots.iter_mut().enumerate().find(|(_, s)| s.is_none()) {
            Some((i, slot)) => {
                *slot = Some(block);
                Ok(i)
            }
            None => Err(block),
        }
    }

    /// Replaces the contents of slot `idx` (dummy if `None`), returning the
    /// previous occupant.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_slot(&mut self, idx: usize, block: Option<Block>) -> Option<Block> {
        std::mem::replace(&mut self.slots[idx], block)
    }

    /// Takes all real blocks out, leaving the bucket all-dummy.
    pub fn take_blocks(&mut self) -> Vec<Block> {
        self.slots.iter_mut().filter_map(Option::take).collect()
    }

    /// Immutable view of a slot.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn slot(&self, idx: usize) -> Option<&Block> {
        self.slots[idx].as_ref()
    }

    /// Iterates over the real blocks in the bucket.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// `true` if every slot is a dummy.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// One Ring ORAM bucket: `Z + S` physical slots behind a permutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct RingBucket {
    /// Physical slots; `None` is an (encrypted) dummy.
    pub(crate) slots: Vec<Option<Block>>,
    /// Slot not yet consumed by a read since the last rewrite.
    pub(crate) valid: Vec<bool>,
    /// Reads since the last rewrite.
    pub(crate) count: usize,
}

impl RingBucket {
    pub(crate) fn new(physical: usize) -> Self {
        RingBucket {
            slots: vec![None; physical],
            valid: vec![true; physical],
            count: 0,
        }
    }

    /// Builds a freshly permuted bucket from up to `Z` real blocks.
    pub(crate) fn from_blocks(blocks: Vec<Block>, physical: usize, rng: &mut StdRng) -> Self {
        let mut slots: Vec<Option<Block>> = blocks.into_iter().map(Some).collect();
        slots.resize(physical, None);
        slots.shuffle(rng);
        RingBucket {
            slots,
            valid: vec![true; physical],
            count: 0,
        }
    }

    pub(crate) fn find_valid(&self, addr: BlockAddr) -> Option<usize> {
        self.slots.iter().enumerate().find_map(|(i, s)| match s {
            Some(b) if self.valid[i] && b.addr() == addr && !b.is_backup => Some(i),
            _ => None,
        })
    }

    pub(crate) fn random_valid_dummy(&self, rng: &mut StdRng) -> Option<usize> {
        let dummies: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.valid[i] && self.slots[i].is_none())
            .collect();
        dummies.choose(rng).copied()
    }

    /// All real blocks physically present — valid *or* consumed; consumed
    /// slots still hold the bytes until the next rewrite, which is exactly
    /// what crash recovery exploits.
    pub(crate) fn real_blocks(&self) -> impl Iterator<Item = &Block> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockAddr, Leaf};

    fn blk(a: u64) -> Block {
        Block::new(BlockAddr(a), Leaf(0), vec![0; 8])
    }

    #[test]
    fn insert_until_full() {
        let mut b = Bucket::new(2);
        assert!(b.insert(blk(1)).is_ok());
        assert!(b.insert(blk(2)).is_ok());
        let rejected = b.insert(blk(3)).unwrap_err();
        assert_eq!(rejected.addr(), BlockAddr(3));
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn take_blocks_empties_bucket() {
        let mut b = Bucket::new(4);
        b.insert(blk(1)).unwrap();
        b.insert(blk(2)).unwrap();
        let taken = b.take_blocks();
        assert_eq!(taken.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.free_slots(), 4);
    }

    #[test]
    fn set_slot_replaces_and_returns_previous() {
        let mut b = Bucket::new(2);
        b.insert(blk(1)).unwrap();
        let prev = b.set_slot(0, Some(blk(9)));
        assert_eq!(prev.unwrap().addr(), BlockAddr(1));
        assert_eq!(b.slot(0).unwrap().addr(), BlockAddr(9));
        let prev = b.set_slot(0, None);
        assert_eq!(prev.unwrap().addr(), BlockAddr(9));
        assert!(b.is_empty());
    }

    #[test]
    fn blocks_iterates_only_real() {
        let mut b = Bucket::new(4);
        b.insert(blk(5)).unwrap();
        assert_eq!(b.blocks().count(), 1);
    }
}

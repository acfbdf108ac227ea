//! An owned bucket image: the slots of one tree node while they are on
//! chip or in flight through the WPQ. On media the slots live in the
//! tree's slot arena (`OramTree`), which hands buckets out borrowed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::block::Block;

/// One node of the ORAM tree, holding up to `Z` blocks (Ring ORAM: `Z + S`
/// physical slots behind a permutation).
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

    /// The slots in order, dummies as `None`, for whoever moves the blocks
    /// out of the image.
    pub(crate) fn slots_mut(&mut self) -> &mut [Option<Block>] {
        &mut self.slots
    }

    /// Refills an emptied image with `blocks` (no more than it has slots),
    /// freshly permuted — what a Ring ORAM bucket rewrite puts on the bus.
    /// The permutation is a Fisher–Yates over the slot indices in `perm`
    /// (scratch), drawing what a shuffle of the slots themselves would;
    /// then every block moves once, to the slot its index landed in.
    pub(crate) fn fill_permuted(
        &mut self,
        blocks: &mut [Option<Block>],
        perm: &mut Vec<usize>,
        rng: &mut StdRng,
    ) {
        debug_assert!(self.is_empty() && blocks.len() <= self.slots.len());
        perm.clear();
        perm.extend(0..self.slots.len());
        perm.shuffle(rng);
        for (slot, &from) in self.slots.iter_mut().zip(perm.iter()) {
            *slot = blocks.get_mut(from).and_then(Option::take);
        }
    }

    /// The reference [`Bucket::fill_permuted`] is held to: a fresh image
    /// whose slots themselves are shuffled.
    #[cfg(test)]
    pub(crate) fn permuted(blocks: Vec<Block>, physical: usize, rng: &mut StdRng) -> Self {
        let mut slots: Vec<Option<Block>> = blocks.into_iter().map(Some).collect();
        slots.resize(physical, None);
        slots.shuffle(rng);
        Bucket { slots }
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

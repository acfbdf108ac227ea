//! The NVM-resident ORAM tree, stored sparsely.

use crate::arena::{BucketRef, SlotArena};
use crate::block::{Block, BlockRef};
use crate::types::{Leaf, OramConfig};

/// Index of a bucket in heap order: the root is `0`, the node at depth `d`,
/// position `i` is `2^d - 1 + i`.
pub type BucketIndex = u64;

/// Bucket indices from the root to `leaf` of a heap-ordered tree of height
/// `levels`, ascending.
pub(crate) fn heap_path(
    levels: u32,
    leaf: Leaf,
) -> impl ExactSizeIterator<Item = BucketIndex> + Clone {
    (0..levels + 1).map(move |d| (1u64 << d) - 1 + (leaf.0 >> (levels - d)))
}

/// Whether `bucket` lies on the path of `leaf` in a heap-ordered tree of
/// `levels + 1` levels — [`heap_path`]'s membership test, by arithmetic on
/// the bucket's own level rather than a walk down the path.
pub(crate) fn heap_on_path(levels: u32, leaf: Leaf, bucket: BucketIndex) -> bool {
    let depth = (bucket + 1).ilog2();
    depth <= levels && bucket == (1u64 << depth) - 1 + (leaf.0 >> (levels - depth))
}

/// The external (NVM) ORAM tree.
///
/// The tree is stored **sparsely**: buckets that have never held a real
/// block are implicit all-dummy buckets. This is what makes the paper's
/// 4 GB, `L = 23` geometry simulable — only touched buckets are
/// materialized, while path/addressing arithmetic (the part that drives all
/// timing results) is exact. The slots live in the crate's flat slot arena
/// (headers, flags and payloads in per-page columns), so a slot is read as
/// a borrowed [`BlockRef`], not as a `&Block`.
///
/// # Examples
///
/// ```
/// use psoram_core::{OramTree, OramConfig, Leaf};
///
/// let cfg = OramConfig::small_test();
/// let tree = OramTree::new(&cfg);
/// let path = tree.path_indices(Leaf(5));
/// assert_eq!(path.len(), cfg.levels as usize + 1);
/// assert_eq!(path[0], 0); // root first
/// assert!(tree.path(Leaf(5)).eq(path));
/// ```
#[derive(Debug, Clone)]
pub struct OramTree {
    levels: u32,
    bucket_slots: usize,
    block_bytes: usize,
    /// Byte offset of this tree inside the simulated NVM address space
    /// (recursive PosMap trees live above the data tree).
    base_addr: u64,
    slots: SlotArena,
    /// Payload buffers of blocks handed to [`OramTree::write_slot`], for
    /// the blocks [`OramTree::take_path`] hands out: a take-and-rewrite
    /// cycle through the owned-`Block` calls frees and allocates nothing
    /// either. At most one path's worth is kept.
    spare_payloads: Vec<Vec<u8>>,
}

impl OramTree {
    /// Creates an empty (all-dummy) tree for `config` at NVM offset 0.
    pub fn new(config: &OramConfig) -> Self {
        Self::with_base(
            config.levels,
            config.bucket_slots,
            config.block_bytes,
            config.payload_bytes,
            0,
        )
    }

    /// Creates an empty tree with explicit geometry and NVM base address.
    pub fn with_base(
        levels: u32,
        bucket_slots: usize,
        block_bytes: usize,
        payload_bytes: usize,
        base_addr: u64,
    ) -> Self {
        OramTree {
            levels,
            bucket_slots,
            block_bytes,
            base_addr,
            slots: SlotArena::new(bucket_slots, payload_bytes),
            spare_payloads: Vec::new(),
        }
    }

    /// Tree height `L`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Slots per bucket `Z`.
    pub fn bucket_slots(&self) -> usize {
        self.bucket_slots
    }

    /// Functional payload bytes stored per slot.
    pub fn payload_bytes(&self) -> usize {
        self.slots.payload_bytes()
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total bucket count.
    pub fn num_buckets(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Total size of the tree region in simulated NVM bytes.
    pub fn region_bytes(&self) -> u64 {
        self.num_buckets() * self.bucket_slots as u64 * self.block_bytes as u64
    }

    /// NVM base address of this tree's region.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Bucket indices along the path from the root to `leaf`, root first,
    /// without allocating. Indices ascend, so path order is NVM address
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn path(&self, leaf: Leaf) -> impl ExactSizeIterator<Item = BucketIndex> + Clone {
        assert!(leaf.0 < self.num_leaves(), "leaf {leaf} out of range");
        heap_path(self.levels, leaf)
    }

    /// [`OramTree::path`], collected.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn path_indices(&self, leaf: Leaf) -> Vec<BucketIndex> {
        self.path(leaf).collect()
    }

    /// The bucket index at depth `depth` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` or `depth` is out of range.
    pub fn bucket_at(&self, leaf: Leaf, depth: u32) -> BucketIndex {
        assert!(depth <= self.levels);
        assert!(leaf.0 < self.num_leaves());
        (1u64 << depth) - 1 + (leaf.0 >> (self.levels - depth))
    }

    /// Depth of the deepest bucket shared by the paths to `a` and `b`.
    pub fn common_depth(&self, a: Leaf, b: Leaf) -> u32 {
        let diff = a.0 ^ b.0;
        if diff == 0 {
            self.levels
        } else {
            // Bit length of the XOR tells the first diverging level.
            self.levels - (64 - diff.leading_zeros())
        }
    }

    /// Simulated NVM byte address of `(bucket, slot)` — used by the timing
    /// layer to spread path blocks over channels and banks.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_nvm_addr(&self, bucket: BucketIndex, slot: usize) -> u64 {
        assert!(slot < self.bucket_slots);
        self.base_addr + (bucket * self.bucket_slots as u64 + slot as u64) * self.block_bytes as u64
    }

    /// The slot arena under the tree: what the device side damages and
    /// the recovery ladder scans.
    pub(crate) fn arena(&self) -> &SlotArena {
        &self.slots
    }

    /// [`OramTree::arena`], mutably.
    pub(crate) fn arena_mut(&mut self) -> &mut SlotArena {
        &mut self.slots
    }

    /// Borrowed view of a materialized bucket; `None` reads as all-dummy.
    pub fn bucket_ref(&self, idx: BucketIndex) -> Option<BucketRef<'_>> {
        debug_assert!(idx < self.num_buckets());
        self.slots.bucket(idx)
    }

    /// Borrowed view of one slot; dummy and unmaterialized slots are `None`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range on a materialized bucket.
    pub fn slot_ref(&self, idx: BucketIndex, slot: usize) -> Option<BlockRef<'_>> {
        self.bucket_ref(idx)?.slot(slot)
    }

    /// Removes (returns) every real block on the path to `leaf`, leaving the
    /// path all-dummy. This is the physical effect of a path read followed
    /// by the eventual full-path rewrite.
    pub fn take_path(&mut self, leaf: Leaf) -> Vec<Block> {
        let mut out = Vec::new();
        for idx in self.path(leaf) {
            let Some(mut bucket) = self.slots.bucket_mut_if_present(idx) else {
                continue;
            };
            for slot in 0..self.bucket_slots {
                if let Some(b) = bucket.slot(slot) {
                    out.push(b.to_block_in(self.spare_payloads.pop().unwrap_or_default()));
                    bucket.set(slot, None);
                }
            }
        }
        out
    }

    /// Overwrites slot `slot` of `bucket` with `block` (dummy if `None`).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the block's payload is not
    /// [`OramTree::payload_bytes`] long.
    pub fn write_slot(&mut self, bucket: BucketIndex, slot: usize, block: Option<Block>) {
        self.write_slot_from(bucket, slot, block.as_ref().map(Block::view));
        if let Some(block) = block {
            if self.spare_payloads.len() < self.bucket_slots * (self.levels as usize + 1) {
                self.spare_payloads.push(block.payload);
            }
        }
    }

    /// [`OramTree::write_slot`] from a borrowed block: the bytes are copied
    /// into the slot and the caller keeps its buffer.
    ///
    /// # Panics
    ///
    /// As [`OramTree::write_slot`].
    pub fn write_slot_from(
        &mut self,
        bucket: BucketIndex,
        slot: usize,
        block: Option<BlockRef<'_>>,
    ) {
        debug_assert!(bucket < self.num_buckets());
        self.slots.write(bucket, slot, block);
    }

    /// Number of materialized (touched) buckets — a memory-footprint probe.
    pub fn materialized_buckets(&self) -> usize {
        self.slots.materialized_buckets()
    }

    /// Total real blocks currently stored in the tree.
    pub fn real_blocks(&self) -> usize {
        self.slots.iter().map(|(_, b)| b.occupancy()).sum()
    }

    /// Number of store pages backing the materialized buckets — with
    /// [`OramTree::materialized_buckets`], the footprint of a sparse tree.
    pub fn materialized_pages(&self) -> usize {
        self.slots.pages()
    }

    /// Heap bytes of those pages: every header, flag and payload byte the
    /// tree holds.
    pub fn materialized_page_bytes(&self) -> usize {
        self.slots.page_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BlockAddr;

    #[test]
    fn heap_on_path_is_membership_of_heap_path() {
        for levels in 0..5 {
            let buckets = (2u64 << levels) + 3;
            for leaf in 0..1u64 << levels {
                let path: Vec<_> = heap_path(levels, Leaf(leaf)).collect();
                for bucket in 0..buckets {
                    let on = heap_on_path(levels, Leaf(leaf), bucket);
                    assert_eq!(
                        on,
                        path.contains(&bucket),
                        "L={levels} leaf {leaf} bucket {bucket}"
                    );
                }
            }
        }
    }

    fn tree() -> OramTree {
        OramTree::new(&OramConfig::small_test()) // L = 6
    }

    #[test]
    fn path_indices_follow_heap_layout() {
        let t = tree();
        // Leaf 0 is the leftmost: indices 0, 1, 3, 7, 15, 31, 63.
        assert_eq!(t.path_indices(Leaf(0)), vec![0, 1, 3, 7, 15, 31, 63]);
        // Leaf 63 is the rightmost.
        assert_eq!(t.path_indices(Leaf(63)), vec![0, 2, 6, 14, 30, 62, 126]);
    }

    #[test]
    fn paths_share_prefix_by_common_depth() {
        let t = tree();
        let a = Leaf(0b000000);
        let b = Leaf(0b000001);
        assert_eq!(t.common_depth(a, b), 5);
        let c = Leaf(0b100000);
        assert_eq!(t.common_depth(a, c), 0);
        assert_eq!(t.common_depth(a, a), 6);
    }

    #[test]
    fn bucket_at_matches_path_indices() {
        let t = tree();
        let leaf = Leaf(37);
        let path = t.path_indices(leaf);
        for (d, &idx) in path.iter().enumerate() {
            assert_eq!(t.bucket_at(leaf, d as u32), idx);
        }
        assert_eq!(t.path(leaf).len(), 7);
        assert!(path.windows(2).all(|w| w[0] < w[1]), "path order ascends");
    }

    #[test]
    fn unmaterialized_buckets_read_all_dummy() {
        let t = tree();
        assert!(t.bucket_ref(12).is_none());
        assert!(t.slot_ref(12, 3).is_none());
        assert_eq!(t.materialized_buckets(), 0);
        assert_eq!(t.materialized_pages(), 0);
    }

    #[test]
    fn write_then_borrowed_read_roundtrips() {
        let mut t = tree();
        let leaf = Leaf(9);
        let idx = t.bucket_at(leaf, 3);
        t.write_slot(idx, 0, Some(Block::new(BlockAddr(42), leaf, vec![7; 8])));
        assert_eq!(t.slot_ref(idx, 0).map(|b| b.addr()), Some(BlockAddr(42)));
        assert!(t.slot_ref(idx, 1).is_none());
        assert_eq!(t.real_blocks(), 1);
    }

    #[test]
    fn materialized_counts_written_buckets_only_and_lists_them_in_order() {
        let mut t = tree();
        // A dummy write materializes its bucket; its page neighbours stay
        // absent even though they now share an allocated page.
        for idx in [40, 3, 41, 126] {
            t.write_slot(idx, 1, None);
        }
        assert_eq!(t.materialized_buckets(), 4);
        assert!(t.bucket_ref(42).is_none());
        let listed: Vec<BucketIndex> = t.arena().iter().map(|(i, _)| i).collect();
        assert_eq!(listed, vec![3, 40, 41, 126]);
        // Emptying a path keeps its buckets materialized (all-dummy).
        t.take_path(Leaf(63));
        assert_eq!(t.materialized_buckets(), 4);
    }

    #[test]
    fn take_path_empties_the_path_only() {
        let mut t = tree();
        t.write_slot(
            t.bucket_at(Leaf(0), 6),
            0,
            Some(Block::new(BlockAddr(1), Leaf(0), vec![0; 8])),
        );
        t.write_slot(
            t.bucket_at(Leaf(63), 6),
            0,
            Some(Block::new(BlockAddr(2), Leaf(63), vec![0; 8])),
        );
        let taken = t.take_path(Leaf(0));
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].addr(), BlockAddr(1));
        assert_eq!(t.real_blocks(), 1); // leaf-63 block untouched
    }

    #[test]
    fn slot_nvm_addresses_are_disjoint_and_block_aligned() {
        let t = tree();
        let a = t.slot_nvm_addr(0, 0);
        let b = t.slot_nvm_addr(0, 1);
        let c = t.slot_nvm_addr(1, 0);
        assert_eq!(b - a, 64);
        assert_eq!(c - a, 4 * 64);
        assert_eq!(a % 64, 0);
    }

    #[test]
    fn region_bytes_matches_geometry() {
        let t = tree();
        assert_eq!(t.region_bytes(), 127 * 4 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn path_indices_rejects_bad_leaf() {
        let _ = tree().path_indices(Leaf(64));
    }

    #[test]
    fn base_addr_offsets_slot_addresses() {
        let t = OramTree::with_base(3, 4, 64, 8, 1 << 20);
        assert_eq!(t.slot_nvm_addr(0, 0), 1 << 20);
        assert_eq!(t.base_addr(), 1 << 20);
    }
}

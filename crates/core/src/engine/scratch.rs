//! Reusable per-access state for the controllers' hot paths: the path
//! frame, the planner's tables (Path ORAM's placement, Ring ORAM's bucket
//! rewrite), and the free list on-chip blocks draw their payload buffers
//! from.
//!
//! Every ORAM access reads and rewrites a full path — dozens of slots,
//! their NVM addresses and the blocks in them. Each controller owns one
//! [`AccessScratch`]; its vectors keep their high-water capacity and its
//! payload buffers circulate (tree slot → fetched block → stash → WPQ →
//! tree slot), so the steady-state access allocates none of it. A buffer
//! lost to an early crash return is simply allocated again.

use std::cmp::Reverse;

use rand::rngs::StdRng;

use crate::block::{Block, BlockRef};
use crate::bucket::Bucket;
use crate::eviction::Placement;
use crate::tree::{BucketIndex, OramTree};
use crate::types::{BlockAddr, Leaf};

/// Where one slot of the current path lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameCell {
    pub bucket: BucketIndex,
    pub slot: usize,
    pub nvm_addr: u64,
}

/// The path of the current access, resolved once: one entry per slot in
/// root-to-leaf, slot-ascending order — which is ascending NVM address
/// order, so the frame is also the sorted address list of the path's read
/// and of its write-back. Positions in the frame are what the eviction
/// planner, the small-WPQ ordering and the write-back speak.
#[derive(Debug, Default)]
pub(crate) struct PathFrame {
    /// Coordinates of every slot (Path ORAM: all `Z·(L+1)`; Ring ORAM: the
    /// one slot per bucket an access reads).
    pub cells: Vec<FrameCell>,
    /// Per position: the address whose *recoverable* copy (header leaf =
    /// persisted leaf) the slot held when the path was read.
    pub live: Vec<Option<BlockAddr>>,
    /// Per position: what the eviction writes there, `None` for a dummy.
    pub out: Vec<Option<Block>>,
    /// The addresses in `live`, packed: the eviction asks "is this stash
    /// block's recoverable copy on the path?" of every stash block.
    live_addrs: Vec<BlockAddr>,
}

impl PathFrame {
    /// Points the frame at every slot of the path to `leaf`.
    pub fn resolve(&mut self, tree: &OramTree, leaf: Leaf) {
        self.cells.clear();
        for bucket in tree.path(leaf) {
            for slot in 0..tree.bucket_slots() {
                self.cells.push(FrameCell {
                    bucket,
                    slot,
                    nvm_addr: tree.slot_nvm_addr(bucket, slot),
                });
            }
        }
        let n = self.cells.len();
        self.live.clear();
        self.live.resize(n, None);
        self.out.clear();
        self.out.resize_with(n, || None);
        self.live_addrs.clear();
    }

    /// Records that position `pos` held the recoverable copy of `addr`.
    pub fn mark_live(&mut self, pos: usize, addr: BlockAddr) {
        self.live[pos] = Some(addr);
        self.live_addrs.push(addr);
    }

    /// NVM addresses of the frame's slots from position `from` on, in
    /// ascending order.
    pub fn nvm_addrs(&self, from: usize) -> impl Iterator<Item = u64> + Clone + '_ {
        self.cells[from..].iter().map(|c| c.nvm_addr)
    }

    /// `true` if some slot held the recoverable copy of `addr`.
    pub fn holds_live(&self, addr: BlockAddr) -> bool {
        self.live_addrs.contains(&addr)
    }
}

/// The tables of a Ring ORAM bucket rewrite — an evict-path or an early
/// reshuffle — over the buckets being rewritten, root first: level `d` is
/// the `d`-th of them. [`crate::RingOram`] holds one beside its scratch
/// and, like the scratch's vectors, it keeps its capacity.
#[derive(Debug, Default)]
pub(crate) struct RewriteTables {
    /// Slots of a bucket (`Z + S`): the stride of `cells`.
    physical: usize,
    /// The new content of every level, level-major: level `d` holds
    /// `lens[d]` blocks from `cells[d * physical]` on.
    cells: Vec<Option<Block>>,
    lens: Vec<usize>,
    /// `(address, level)` of every primary the rewrite pulled off its
    /// persisted position.
    pub pulled: Vec<(BlockAddr, usize)>,
    /// The stash in placement order: deepest common level first, stash
    /// order within one — `(level, stash position)`.
    pub order: Vec<(Reverse<u32>, u32)>,
    /// The blocks placement turned away, in that order: the next stash.
    pub leftovers: Vec<Block>,
    /// The dirty PosMap entries travelling with the round.
    pub flushes: Vec<(BlockAddr, Leaf)>,
    /// The images the round writes, in ascending bucket order.
    pub images: Vec<(BucketIndex, Bucket)>,
    /// The slot permutation of the image being filled.
    perm: Vec<usize>,
}

impl RewriteTables {
    /// Empties the tables for a rewrite of `levels` buckets of `physical`
    /// slots.
    pub fn begin(&mut self, levels: usize, physical: usize) {
        self.physical = physical;
        self.cells.clear();
        self.cells.resize_with(levels * physical, || None);
        self.lens.clear();
        self.lens.resize(levels, 0);
        self.pulled.clear();
        self.leftovers.clear();
        self.flushes.clear();
        self.images.clear();
    }

    /// Blocks level `level` holds so far.
    pub fn len(&self, level: usize) -> usize {
        self.lens[level]
    }

    /// Adds `block` to the new content of level `level`.
    pub fn push(&mut self, level: usize, block: Block) {
        self.cells[level * self.physical + self.lens[level]] = Some(block);
        self.lens[level] += 1;
    }

    /// The deepest level no deeper than `from` that holds fewer than
    /// `limit` blocks.
    pub fn deepest_with_room(&self, from: usize, limit: usize) -> Option<usize> {
        (0..=from).rev().find(|&d| self.lens[d] < limit)
    }

    /// Lists in `flushes` the dirty PosMap entry (`dirty`) of every primary
    /// of level `level`, in the order they were added.
    pub fn flush_dirty(&mut self, level: usize, dirty: impl Fn(BlockAddr) -> Option<Leaf>) {
        let first = level * self.physical;
        let blocks = self.cells[first..first + self.lens[level]].iter().flatten();
        for b in blocks.filter(|b| !b.is_backup) {
            if let Some(leaf) = dirty(b.addr()) {
                self.flushes.push((b.addr(), leaf));
            }
        }
    }

    /// Moves the new content of level `level` into the emptied `image`,
    /// freshly permuted.
    pub fn fill_image(&mut self, level: usize, image: &mut Bucket, rng: &mut StdRng) {
        let first = level * self.physical;
        let taken = std::mem::take(&mut self.lens[level]);
        image.fill_permuted(&mut self.cells[first..first + taken], &mut self.perm, rng);
    }
}

/// Scratch state reused across accesses by [`crate::PathOram`] and
/// [`crate::RingOram`].
#[derive(Debug, Default)]
pub(crate) struct AccessScratch {
    /// The path being accessed.
    pub frame: PathFrame,
    /// NVM addresses of flushed PosMap entries.
    pub entry_addrs: Vec<u64>,
    /// Blocks gathered off the fetched path (Path ORAM step ③).
    pub fetched: Vec<Block>,
    /// The eviction planner's tables.
    pub placement: Placement,
    /// Per frame position: the address the plan writes there (small-WPQ
    /// ordering only).
    pub targets: Vec<Option<BlockAddr>>,
    /// The frame positions the open round rewrites as dummies once it
    /// commits (Path ORAM).
    pub dummies: Vec<usize>,
    /// Payload buffers of blocks that left the chip (written to the tree,
    /// or dropped as dead copies), for the next blocks that enter it.
    free_payloads: Vec<Vec<u8>>,
}

impl AccessScratch {
    /// An on-chip copy of `view`, its payload in a recycled buffer.
    pub fn block_from(&mut self, view: BlockRef<'_>) -> Block {
        view.to_block_in(self.free_payloads.pop().unwrap_or_default())
    }

    /// A never-written block: `payload_bytes` zeros in a recycled buffer.
    pub fn zeroed_block(&mut self, addr: BlockAddr, leaf: Leaf, payload_bytes: usize) -> Block {
        let mut payload = self.free_payloads.pop().unwrap_or_default();
        payload.clear();
        payload.resize(payload_bytes, 0);
        Block::new(addr, leaf, payload)
    }

    /// Takes back the buffer of a block that is leaving the chip.
    pub fn recycle(&mut self, block: Block) {
        self.free_payloads.push(block.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::OramConfig;

    #[test]
    fn a_resolved_frame_lists_the_path_in_address_order() {
        let tree = OramTree::new(&OramConfig::small_test());
        let mut frame = PathFrame::default();
        frame.resolve(&tree, Leaf(37));
        assert_eq!(frame.cells.len(), 28);
        assert_eq!((frame.live.len(), frame.out.len()), (28, 28));
        let buckets: Vec<u64> = frame.cells.iter().step_by(4).map(|c| c.bucket).collect();
        assert_eq!(buckets, tree.path_indices(Leaf(37)));
        assert!(frame
            .nvm_addrs(0)
            .zip(frame.nvm_addrs(1))
            .all(|(a, b)| a < b));
        assert_eq!(frame.nvm_addrs(8).count(), 20);
        // Re-resolving forgets the previous path's contents.
        frame.mark_live(3, BlockAddr(9));
        assert!(frame.holds_live(BlockAddr(9)) && !frame.holds_live(BlockAddr(3)));
        assert_eq!(frame.live[3], Some(BlockAddr(9)));
        frame.resolve(&tree, Leaf(0));
        assert!(!frame.holds_live(BlockAddr(9)));
    }

    #[test]
    fn rewrite_tables_fill_levels_in_order_and_hand_each_to_an_image() {
        use rand::SeedableRng;
        let blk = |a: u64, backup: bool| {
            let mut b = Block::new(BlockAddr(a), Leaf(a), vec![a as u8; 8]);
            b.is_backup = backup;
            b
        };
        let mut rw = RewriteTables::default();
        rw.begin(3, 4);
        rw.push(2, blk(1, false));
        rw.push(2, blk(2, true));
        rw.push(0, blk(3, false));
        assert_eq!((rw.len(0), rw.len(1), rw.len(2)), (1, 0, 2));
        // Deepest first, never deeper than asked, only where there is room.
        assert_eq!(rw.deepest_with_room(2, 2), Some(1));
        assert_eq!(rw.deepest_with_room(2, 3), Some(2));
        assert_eq!(rw.deepest_with_room(0, 1), None);
        // Primaries only, in the order they were added; shadows carry none.
        rw.flush_dirty(2, |a| Some(Leaf(a.0 + 10)));
        rw.flush_dirty(0, |a| (a.0 != 3).then_some(Leaf(0)));
        assert_eq!(rw.flushes, vec![(BlockAddr(1), Leaf(11))]);
        let mut image = Bucket::new(4);
        rw.fill_image(2, &mut image, &mut StdRng::seed_from_u64(5));
        let mut moved: Vec<u64> = image.blocks().map(|b| b.addr().0).collect();
        moved.sort_unstable();
        assert_eq!((moved, rw.len(2), rw.len(0)), (vec![1, 2], 0, 1));
        // A new rewrite starts from nothing, whatever the last one left.
        rw.begin(1, 4);
        assert_eq!(rw.len(0), 0);
        assert!(rw.flushes.is_empty());
    }

    #[test]
    fn recycled_buffers_come_back_clean() {
        let mut s = AccessScratch::default();
        let b = Block::new(BlockAddr(1), Leaf(2), vec![7; 8]).to_backup(Leaf(3));
        let copy = s.block_from(b.view());
        assert_eq!(copy, b);
        let ptr = copy.payload.as_ptr();
        s.recycle(copy);
        let fresh = s.zeroed_block(BlockAddr(4), Leaf(5), 8);
        assert_eq!(fresh, Block::new(BlockAddr(4), Leaf(5), vec![0; 8]));
        assert_eq!(fresh.payload.as_ptr(), ptr, "the buffer was reused");
    }
}

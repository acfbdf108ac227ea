//! Reusable per-access state for the controllers' hot paths: the path
//! frame, the planner's tables, and the free list on-chip blocks draw
//! their payload buffers from.
//!
//! Every ORAM access reads and rewrites a full path — dozens of slots,
//! their NVM addresses and the blocks in them. Each controller owns one
//! [`AccessScratch`]; its vectors keep their high-water capacity and its
//! payload buffers circulate (tree slot → fetched block → stash → WPQ →
//! tree slot), so the steady-state access allocates none of it. A buffer
//! lost to an early crash return is simply allocated again.

use crate::block::{Block, BlockRef};
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
    /// Dummy slots under consideration: Path ORAM — the frame positions
    /// the open round rewrites as dummies once it commits; Ring ORAM — the
    /// valid dummy slots of the bucket being read.
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

//! Reusable per-access buffers for the controllers' hot paths.
//!
//! Every ORAM access reads and rewrites a full path — dozens of NVM slot
//! addresses and fetched blocks. Allocating those vectors afresh each access
//! put the allocator on the hottest loop of the simulator; instead each
//! controller owns one [`AccessScratch`] and takes/returns the buffers with
//! `std::mem::take`, so the steady state allocates nothing (the vectors
//! keep their high-water capacity). A buffer left empty by an early crash
//! return simply re-grows on the next access.

use crate::block::Block;

/// Scratch buffers reused across accesses by [`crate::PathOram`] and
/// [`crate::RingOram`].
///
/// Holding them in a separate struct (rather than as individual controller
/// fields) keeps the take/put-back discipline greppable and lets both
/// controllers share the same shape.
#[derive(Debug, Default)]
pub(crate) struct AccessScratch {
    /// NVM slot addresses of the current path read.
    pub read_addrs: Vec<u64>,
    /// NVM slot addresses of the eviction write-back.
    pub write_addrs: Vec<u64>,
    /// NVM addresses of flushed PosMap entries.
    pub entry_addrs: Vec<u64>,
    /// Blocks gathered off the fetched path (Path ORAM step ③).
    pub fetched: Vec<Block>,
}

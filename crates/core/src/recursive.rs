//! Recursive PosMap: geometry, PLB, and NVM access generation.
//!
//! When no trusted memory region exists, the PosMap itself is stored in
//! untrusted NVM as a chain of smaller ORAM trees (paper §4.4, following
//! Freecursive ORAM [19]): `PosMap_1` holds the leaves of data blocks and
//! is stored in `ORAM_1`; `PosMap_2` holds the leaves of `PosMap_1` blocks
//! in `ORAM_2`; and so on, until the top map fits on chip. A PosMap
//! Lookaside Buffer (PLB) caches recently fetched PosMap blocks per level,
//! short-circuiting the recursion.
//!
//! This module models the recursion's *geometry, traffic and timing*
//! exactly (tree sizes, path addresses, PLB hit behaviour); the functional
//! mapping truth stays in [`crate::PosMap`] with per-variant durability
//! semantics, as documented in `DESIGN.md` — the decoupling keeps the
//! crash-recovery oracle exact while the recursion drives the memory
//! system with realistic address streams.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::types::{BlockAddr, OramConfig};

/// PosMap entries packed into one 64 B PosMap block (4 B leaf labels,
/// following the paper's sizing).
pub const ENTRIES_PER_BLOCK: u64 = 16;

/// Geometry of one recursion level's ORAM tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecLevel {
    /// Tree height of this level's ORAM.
    pub levels: u32,
    /// Blocks stored at this level.
    pub blocks: u64,
    /// NVM base address of this level's tree region.
    pub base_addr: u64,
}

impl RecLevel {
    /// Block slots on one path (`Z * (levels + 1)`).
    pub fn path_slots(&self, z: usize) -> usize {
        z * (self.levels as usize + 1)
    }

    /// NVM region size of this level's tree.
    pub fn region_bytes(&self, z: usize, block_bytes: usize) -> u64 {
        ((1u64 << (self.levels + 1)) - 1) * z as u64 * block_bytes as u64
    }
}

/// One recursive-PosMap access, resolved into NVM block addresses.
#[derive(Debug, Clone, Default)]
pub struct RecAccess {
    /// Path-read addresses, per accessed level, in access order (the
    /// innermost/smallest tree is chased first, ending at `PosMap_1`).
    pub reads: Vec<Vec<u64>>,
    /// Path-write addresses, per accessed level, in access order.
    pub writes: Vec<Vec<u64>>,
    /// Recursion levels actually accessed (0 = full PLB hit at level 1).
    pub levels_accessed: usize,
    /// `true` if the access was served by a PLB hit above the root map.
    pub plb_hit: bool,
}

impl RecAccess {
    /// Total blocks read across all accessed levels.
    pub fn total_reads(&self) -> usize {
        self.reads.iter().map(Vec::len).sum()
    }

    /// Total blocks written across all accessed levels.
    pub fn total_writes(&self) -> usize {
        self.writes.iter().map(Vec::len).sum()
    }
}

/// A per-level LRU cache of PosMap block indices (the PLB).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Plb {
    capacity: usize,
    /// Most-recent at the back.
    entries: Vec<u64>,
}

impl Plb {
    fn new(capacity: usize) -> Self {
        Plb {
            capacity,
            entries: Vec::new(),
        }
    }

    fn contains(&self, idx: u64) -> bool {
        self.entries.contains(&idx)
    }

    fn touch(&mut self, idx: u64) {
        if let Some(pos) = self.entries.iter().position(|&e| e == idx) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push(idx);
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The recursive PosMap model: tree chain geometry + PLB + address
/// generation.
///
/// # Examples
///
/// ```
/// use psoram_core::{RecursivePosMap, OramConfig, BlockAddr};
///
/// let cfg = OramConfig::paper_default();
/// let mut rec = RecursivePosMap::new(&cfg, 1 << 33, 128, 99);
/// assert!(rec.num_levels() >= 3);
/// let acc = rec.access(BlockAddr(1234));
/// assert!(acc.total_reads() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct RecursivePosMap {
    levels: Vec<RecLevel>,
    z: usize,
    block_bytes: usize,
    plbs: Vec<Plb>,
    rng: StdRng,
    /// Entries the on-chip root map can hold before recursion must stop.
    onchip_entries: u64,
}

impl RecursivePosMap {
    /// Builds the recursion chain for `cfg`'s data ORAM, placing the posmap
    /// trees at NVM offset `base_addr`, with `plb_capacity` cached PosMap
    /// blocks per level.
    ///
    /// # Panics
    ///
    /// Panics if `plb_capacity` is zero.
    pub fn new(cfg: &OramConfig, base_addr: u64, plb_capacity: usize, seed: u64) -> Self {
        assert!(plb_capacity > 0, "PLB capacity must be positive");
        let onchip_entries = 4096u64;
        let mut levels = Vec::new();
        let mut entries = cfg.capacity_blocks();
        let mut base = base_addr;
        while entries > onchip_entries {
            let blocks = entries.div_ceil(ENTRIES_PER_BLOCK);
            // 50% utilization: buckets >= blocks * 2 / Z.
            let buckets_needed = (blocks * 2).div_ceil(cfg.bucket_slots as u64);
            let mut l = 1u32;
            while ((1u64 << (l + 1)) - 1) < buckets_needed {
                l += 1;
            }
            let level = RecLevel {
                levels: l,
                blocks,
                base_addr: base,
            };
            base += level.region_bytes(cfg.bucket_slots, cfg.block_bytes);
            levels.push(level);
            entries = blocks;
        }
        let plbs = levels.iter().map(|_| Plb::new(plb_capacity)).collect();
        RecursivePosMap {
            levels,
            z: cfg.bucket_slots,
            block_bytes: cfg.block_bytes,
            plbs,
            rng: StdRng::seed_from_u64(seed),
            onchip_entries,
        }
    }

    /// Number of recursion levels (ORAM trees holding PosMap blocks).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Geometry of each level, outermost (largest) first.
    pub fn levels(&self) -> &[RecLevel] {
        &self.levels
    }

    /// Entries held by the on-chip root map.
    pub fn onchip_entries(&self) -> u64 {
        self.onchip_entries
    }

    /// Total NVM bytes occupied by all posmap trees.
    pub fn region_bytes(&self) -> u64 {
        self.levels
            .iter()
            .map(|l| l.region_bytes(self.z, self.block_bytes))
            .sum()
    }

    /// The PosMap-block index holding `addr`'s entry at recursion level `k`
    /// (0-based; level 0 is `PosMap_1`).
    pub fn block_index(&self, addr: BlockAddr, k: usize) -> u64 {
        addr.0 / ENTRIES_PER_BLOCK.pow(k as u32 + 1)
    }

    /// Performs one PosMap access for `addr`: consults the PLBs, decides
    /// how deep the recursion must go, and generates the path read/write
    /// NVM addresses for every accessed level.
    pub fn access(&mut self, addr: BlockAddr) -> RecAccess {
        // Find the shallowest level whose PosMap block is PLB-resident.
        // A hit at level k means levels 0..k must still be accessed.
        let mut hit_level = self.levels.len(); // miss everywhere -> root map
        for k in 0..self.levels.len() {
            if self.plbs[k].contains(self.block_index(addr, k)) {
                hit_level = k;
                break;
            }
        }
        let plb_hit = hit_level < self.levels.len();

        let mut acc = RecAccess {
            levels_accessed: hit_level,
            plb_hit,
            ..Default::default()
        };
        // Access levels deepest-needed first (hit_level-1 .. 0), mirroring
        // the pointer chase from the root map / PLB entry down to PosMap_1.
        for k in (0..hit_level).rev() {
            let level = self.levels[k];
            let leaf = self.rng.gen_range(0..(1u64 << level.levels));
            let path = self.path_addrs(&level, leaf);
            acc.reads.push(path.clone());
            acc.writes.push(path);
            let idx = self.block_index(addr, k);
            self.plbs[k].touch(idx);
        }
        if plb_hit {
            let idx = self.block_index(addr, hit_level);
            self.plbs[hit_level].touch(idx);
        }
        acc
    }

    fn path_addrs(&self, level: &RecLevel, leaf: u64) -> Vec<u64> {
        let mut addrs = Vec::with_capacity(level.path_slots(self.z));
        for d in 0..=level.levels {
            let bucket = (1u64 << d) - 1 + (leaf >> (level.levels - d));
            for slot in 0..self.z {
                addrs.push(
                    level.base_addr
                        + (bucket * self.z as u64 + slot as u64) * self.block_bytes as u64,
                );
            }
        }
        addrs
    }

    /// Clears the PLBs (volatile loss at a crash).
    pub fn wipe_plb(&mut self) {
        for plb in &mut self.plbs {
            plb.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cfg: &OramConfig) -> RecursivePosMap {
        RecursivePosMap::new(cfg, 1 << 40, 64, 7)
    }

    #[test]
    fn paper_config_recursion_depth() {
        let cfg = OramConfig::paper_default();
        let r = rec(&cfg);
        // 2^25 blocks -> 2^21 -> 2^17 -> 2^13 -> 2^9 entries (<= 4096 on chip).
        assert_eq!(r.num_levels(), 4);
        // Levels shrink monotonically.
        for w in r.levels().windows(2) {
            assert!(w[0].levels > w[1].levels);
        }
    }

    #[test]
    fn small_config_may_need_no_recursion() {
        let cfg = OramConfig::small_test();
        let r = rec(&cfg);
        assert_eq!(r.num_levels(), 0, "254-block ORAM fits the on-chip map");
    }

    #[test]
    fn cold_access_walks_all_levels() {
        let cfg = OramConfig::paper_default();
        let mut r = rec(&cfg);
        let acc = r.access(BlockAddr(77));
        assert!(!acc.plb_hit);
        assert_eq!(acc.levels_accessed, r.num_levels());
        assert_eq!(acc.reads.len(), r.num_levels());
        assert_eq!(acc.total_reads(), acc.total_writes());
    }

    #[test]
    fn repeat_access_hits_plb_and_shortens_recursion() {
        let cfg = OramConfig::paper_default();
        let mut r = rec(&cfg);
        let _ = r.access(BlockAddr(77));
        let again = r.access(BlockAddr(77));
        assert!(again.plb_hit);
        assert_eq!(again.levels_accessed, 0, "PosMap_1 block is now cached");
        assert_eq!(again.total_reads(), 0);
    }

    #[test]
    fn neighbouring_addresses_share_posmap_blocks() {
        let cfg = OramConfig::paper_default();
        let mut r = rec(&cfg);
        let _ = r.access(BlockAddr(160));
        // 160 and 161 share the same PosMap_1 block (16 entries per block).
        let neighbor = r.access(BlockAddr(161));
        assert!(neighbor.plb_hit);
    }

    #[test]
    fn wipe_plb_restores_cold_behaviour() {
        let cfg = OramConfig::paper_default();
        let mut r = rec(&cfg);
        let _ = r.access(BlockAddr(5));
        r.wipe_plb();
        let acc = r.access(BlockAddr(5));
        assert!(!acc.plb_hit);
    }

    #[test]
    fn path_addrs_fall_inside_level_region() {
        let cfg = OramConfig::paper_default();
        let mut r = rec(&cfg);
        let acc = r.access(BlockAddr(123456));
        for (lvl_reads, level) in acc.reads.iter().zip(r.levels().iter().rev()) {
            let lo = level.base_addr;
            let hi = level.base_addr + level.region_bytes(4, 64);
            for &a in lvl_reads {
                assert!(a >= lo && a < hi, "addr {a:#x} outside level region");
            }
        }
    }

    #[test]
    fn block_index_packs_16_entries() {
        let cfg = OramConfig::paper_default();
        let r = rec(&cfg);
        assert_eq!(r.block_index(BlockAddr(15), 0), 0);
        assert_eq!(r.block_index(BlockAddr(16), 0), 1);
        assert_eq!(r.block_index(BlockAddr(255), 1), 0);
        assert_eq!(r.block_index(BlockAddr(256), 1), 1);
    }

    #[test]
    fn region_bytes_sums_levels() {
        let cfg = OramConfig::paper_default();
        let r = rec(&cfg);
        let sum: u64 = r.levels().iter().map(|l| l.region_bytes(4, 64)).sum();
        assert_eq!(r.region_bytes(), sum);
    }
}

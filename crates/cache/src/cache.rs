//! A generic set-associative write-back, write-allocate cache with LRU.

use serde::{Deserialize, Serialize};

/// Geometry and latency of one cache level.
///
/// # Examples
///
/// ```
/// use psoram_cache::CacheConfig;
///
/// let l1 = CacheConfig::paper_l1d();
/// assert_eq!(l1.size_bytes, 32 * 1024);
/// assert_eq!(l1.ways, 2);
/// assert_eq!(l1.num_sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 B throughout the paper).
    pub line_bytes: usize,
    /// Access latency in core cycles (hit cost).
    pub access_cycles: u64,
}

impl CacheConfig {
    /// Table 3 L1 data cache: 32 KB, 2-way LRU, 2-cycle access.
    pub fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 2,
            line_bytes: 64,
            access_cycles: 2,
        }
    }

    /// Table 3 shared L2: 1 MB, 8-way LRU, 20-cycle access.
    pub fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 1024 * 1024,
            ways: 8,
            line_bytes: 64,
            access_cycles: 20,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        assert_eq!(
            lines % self.ways,
            0,
            "cache geometry does not divide evenly"
        );
        lines / self.ways
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines evicted (write-back traffic).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses were made.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

impl psoram_obsv::MetricsSource for CacheStats {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "hits"), self.hits);
        reg.set_counter(&R::key(prefix, "misses"), self.misses);
        reg.set_counter(&R::key(prefix, "writebacks"), self.writebacks);
        reg.set_gauge(&R::key(prefix, "miss_ratio"), self.miss_ratio());
    }
}

/// Result of inserting a line: the victim, if a dirty line was displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Base address of the displaced line.
    pub addr: u64,
    /// Whether the displaced line was dirty (needs writing back).
    pub dirty: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// LRU timestamp; larger = more recently used.
    lru: u64,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// A set-associative write-back, write-allocate cache with true LRU.
///
/// # Examples
///
/// ```
/// use psoram_cache::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::paper_l1d());
/// assert!(!c.access(0x40, false)); // cold miss
/// c.fill(0x40, false);
/// assert!(c.access(0x40, false)); // hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly (see
    /// [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let sets = vec![vec![INVALID_LINE; config.ways]; config.num_sets()];
        Cache {
            config,
            sets,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    /// Looks up `addr`; on a hit updates LRU (and the dirty bit for writes)
    /// and returns `true`. On a miss returns `false` without allocating —
    /// call [`Cache::fill`] once the lower level has supplied the line.
    pub fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let clock = self.clock;
        for line in &mut self.sets[set_idx] {
            if line.valid && line.tag == tag {
                line.lru = clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Allocates the line containing `addr`, marking it dirty for writes.
    /// Returns the eviction needed to make room, if any.
    pub fn fill(&mut self, addr: u64, is_write: bool) -> Option<Eviction> {
        self.clock += 1;
        let (set_idx, tag) = self.index_and_tag(addr);
        let sets_len = self.sets.len() as u64;
        let line_bytes = self.config.line_bytes as u64;
        let clock = self.clock;
        let set = &mut self.sets[set_idx];
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("cache set is never empty");
        let victim = set[victim_idx];
        set[victim_idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: clock,
        };
        if victim.valid {
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            let victim_addr = (victim.tag * sets_len + set_idx as u64) * line_bytes;
            Some(Eviction {
                addr: victim_addr,
                dirty: victim.dirty,
            })
        } else {
            None
        }
    }

    /// Invalidates the line containing `addr` if present, returning whether
    /// it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set_idx, tag) = self.index_and_tag(addr);
        for line in &mut self.sets[set_idx] {
            if line.valid && line.tag == tag {
                line.valid = false;
                return Some(line.dirty);
            }
        }
        None
    }

    /// `true` if the line containing `addr` is resident.
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// The hit/miss statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hit latency in core cycles.
    pub fn access_cycles(&self) -> u64 {
        self.config.access_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            access_cycles: 1,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false));
        assert!(c.fill(0, false).is_none());
        assert!(c.access(0, false));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 4*64 .. conflict at stride 4 lines.
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.fill(a, false);
        c.fill(b, false);
        c.access(a, false); // a is now MRU
        let ev = c.fill(d, false).expect("set is full, must evict");
        assert_eq!(ev.addr, b, "b was LRU");
        assert!(c.contains(a));
        assert!(!c.contains(b));
    }

    #[test]
    fn victim_address_reconstruction_roundtrips() {
        let mut c = tiny();
        let addr = 13 * 4 * 64; // arbitrary line mapping to set 0
        c.fill(addr, true);
        c.fill(4 * 64 * 99, false);
        let ev = c.fill(4 * 64 * 100, false).expect("evicts one of them");
        assert!(ev.addr == addr || ev.addr == 4 * 64 * 99);
        if ev.addr == addr {
            assert!(ev.dirty);
        }
    }

    #[test]
    fn dirty_eviction_flagged_and_counted() {
        let mut c = tiny();
        c.fill(0, true); // dirty
        c.fill(4 * 64, false);
        let ev = c.fill(8 * 64, false).unwrap();
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_sets_dirty_bit() {
        let mut c = tiny();
        c.fill(0, false);
        assert!(c.access(0, true)); // write hit dirties the line
        c.fill(4 * 64, false);
        let ev = c.fill(8 * 64, false).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.contains(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = tiny();
        c.fill(0x40, false);
        assert!(c.access(0x47, false));
        assert!(c.access(0x7F, false));
        assert!(!c.access(0x80, false));
    }

    #[test]
    fn miss_ratio_computed() {
        let mut c = tiny();
        c.access(0, false);
        c.fill(0, false);
        c.access(0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 500,
            ways: 3,
            line_bytes: 64,
            access_cycles: 1,
        });
    }
}

//! Fundamental ORAM types: addresses, leaves, configuration, errors.

use serde::{Deserialize, Serialize};

use crate::posmap::{LABEL_BOUND, MAX_LEVELS};

/// Logical address of a data block (a block index, not a byte address).
///
/// This is the address space the program sees; the ORAM controller
/// translates it into tree paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockAddr(pub u64);

impl std::fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A path identifier (leaf label) in the ORAM tree.
///
/// Leaves are numbered `0..num_leaves` left to right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Leaf(pub u64);

impl std::fmt::Display for Leaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Kind of a program-level ORAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Read the block's current value.
    Read,
    /// Overwrite the block's value.
    Write,
}

/// Outcome of one ORAM access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The block's value (pre-existing for reads, the new value for writes).
    pub value: Vec<u8>,
    /// Core cycle at which the value is available to the processor.
    pub complete_cycle: u64,
    /// Core cycle at which the eviction write-back fully reaches the NVM.
    pub eviction_complete_cycle: u64,
}

/// Geometry and sizing of an ORAM instance.
///
/// Follows the paper's Table 3 defaults: a 4 GB ORAM tree (`L = 23`),
/// `Z = 4` slots per bucket, 64 B blocks, a 200-entry stash, a 96-entry
/// temporary PosMap and 96-entry WPQs, at 50% utilization.
///
/// # Examples
///
/// ```
/// use psoram_core::OramConfig;
///
/// let cfg = OramConfig::paper_default();
/// assert_eq!(cfg.levels, 23);
/// assert_eq!(cfg.bucket_slots, 4);
/// assert_eq!(cfg.path_slots(), 96);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OramConfig {
    /// Tree height `L`: the tree has `L + 1` levels and `2^L` leaves.
    pub levels: u32,
    /// Block slots per bucket (`Z`).
    pub bucket_slots: usize,
    /// Modeled block size in bytes (64 B cacheline in the paper).
    pub block_bytes: usize,
    /// Functional payload bytes actually stored per block (kept small so
    /// large trees stay in host memory; timing always charges
    /// [`OramConfig::block_bytes`]).
    pub payload_bytes: usize,
    /// Stash capacity in blocks (`C`).
    pub stash_capacity: usize,
    /// Temporary PosMap capacity in entries (`C_tPos`).
    pub temp_posmap_capacity: usize,
    /// Data-block WPQ capacity in entries.
    pub data_wpq_capacity: usize,
    /// PosMap WPQ capacity in entries.
    pub posmap_wpq_capacity: usize,
    /// Fraction of block slots holding real blocks (0.5 in the paper).
    pub utilization: f64,
}

impl OramConfig {
    /// The paper's Table 3 configuration (4 GB tree, `L = 23`, `Z = 4`).
    pub fn paper_default() -> Self {
        OramConfig {
            levels: 23,
            bucket_slots: 4,
            block_bytes: 64,
            payload_bytes: 8,
            stash_capacity: 200,
            temp_posmap_capacity: 96,
            data_wpq_capacity: 96,
            posmap_wpq_capacity: 96,
            utilization: 0.5,
        }
    }

    /// A small configuration for unit tests: `L = 6`, `Z = 4`.
    pub fn small_test() -> Self {
        OramConfig {
            levels: 6,
            bucket_slots: 4,
            block_bytes: 64,
            payload_bytes: 8,
            stash_capacity: 120,
            temp_posmap_capacity: 96,
            data_wpq_capacity: 28, // Z * (L+1) = 28
            posmap_wpq_capacity: 28,
            utilization: 0.5,
        }
    }

    /// A mid-size configuration for integration runs and experiments that
    /// must complete quickly (`L = 15`).
    pub fn medium() -> Self {
        OramConfig {
            levels: 15,
            bucket_slots: 4,
            data_wpq_capacity: 64,
            posmap_wpq_capacity: 64,
            ..Self::paper_default()
        }
    }

    /// Returns a copy with a different tree height.
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = levels;
        self
    }

    /// Returns a copy with the given WPQ capacities (e.g. the paper's
    /// 4-entry limited-persistence-domain study).
    pub fn with_wpq_capacity(mut self, data: usize, posmap: usize) -> Self {
        self.data_wpq_capacity = data;
        self.posmap_wpq_capacity = posmap;
        self
    }

    /// Number of leaves (`2^L`).
    pub fn num_leaves(&self) -> u64 {
        1u64 << self.levels
    }

    /// Number of buckets (`2^(L+1) - 1`).
    pub fn num_buckets(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Block slots on one path: `Z * (L + 1)`.
    pub fn path_slots(&self) -> usize {
        self.bucket_slots * (self.levels as usize + 1)
    }

    /// Number of logical blocks the ORAM stores (total slots times
    /// utilization).
    pub fn capacity_blocks(&self) -> u64 {
        (self.num_buckets() as f64 * self.bucket_slots as f64 * self.utilization) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is degenerate (zero sizes, utilization
    /// outside `(0, 1]`, or `L` above what the PosMap's 4 B labels
    /// address).
    pub fn validate(&self) {
        assert!(self.levels >= 1, "levels out of range");
        assert!(self.levels <= MAX_LEVELS, "{LABEL_BOUND}");
        assert!(self.bucket_slots >= 1, "need at least one slot per bucket");
        assert!(self.payload_bytes > 0 && self.payload_bytes <= self.block_bytes);
        assert!(self.stash_capacity > 0, "stash must be non-empty");
        assert!(self.utilization > 0.0 && self.utilization <= 1.0);
        assert!(self.data_wpq_capacity > 0 && self.posmap_wpq_capacity > 0);
    }
}

impl Default for OramConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors returned by ORAM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OramError {
    /// The logical address exceeds the ORAM capacity.
    AddressOutOfRange {
        /// Offending address.
        addr: BlockAddr,
        /// Number of addressable blocks.
        capacity: u64,
    },
    /// The stash overflowed — statistically negligible for correctly sized
    /// stashes, but surfaced rather than silently dropped.
    StashOverflow {
        /// Configured capacity that was exceeded.
        capacity: usize,
    },
    /// The temporary PosMap is full; the controller cannot track another
    /// remapped block until an eviction drains it.
    TempPosMapOverflow {
        /// Configured capacity that was exceeded.
        capacity: usize,
    },
    /// Payload length differs from the configured payload size.
    PayloadSize {
        /// Expected length in bytes.
        expected: usize,
        /// Provided length in bytes.
        got: usize,
    },
    /// The controller is in a crashed state; call `recover` first.
    Crashed,
    /// The WPQ persistence domain rejected a drainer signal or push and
    /// the controller could not recover by stalling.
    Wpq(psoram_nvm::WpqError),
    /// The controller latched fail-safe poisoned state: device damage it
    /// could neither repair from a redundant copy nor retry past. Every
    /// access fails until the instance is rebuilt.
    Poisoned {
        /// The device fault class that forced the fail-safe.
        class: psoram_nvm::FaultClass,
    },
    /// An internal invariant did not hold at runtime. Replaces `panic!`
    /// aborts on the persist/recovery paths: the access fails, the
    /// controller survives.
    Invariant {
        /// The invariant that was violated.
        context: &'static str,
    },
}

impl std::fmt::Display for OramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OramError::AddressOutOfRange { addr, capacity } => {
                write!(
                    f,
                    "address {addr} out of range (capacity {capacity} blocks)"
                )
            }
            OramError::StashOverflow { capacity } => {
                write!(f, "stash overflow (capacity {capacity})")
            }
            OramError::TempPosMapOverflow { capacity } => {
                write!(f, "temporary PosMap overflow (capacity {capacity})")
            }
            OramError::PayloadSize { expected, got } => {
                write!(
                    f,
                    "payload size mismatch (expected {expected} bytes, got {got})"
                )
            }
            OramError::Crashed => write!(f, "controller crashed; recovery required"),
            OramError::Wpq(e) => write!(f, "WPQ persistence domain: {e}"),
            OramError::Poisoned { class } => {
                write!(f, "controller poisoned by unrepairable {class} fault")
            }
            OramError::Invariant { context } => {
                write!(f, "internal invariant violated: {context}")
            }
        }
    }
}

impl std::error::Error for OramError {}

impl From<psoram_nvm::WpqError> for OramError {
    fn from(e: psoram_nvm::WpqError) -> Self {
        OramError::Wpq(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_geometry() {
        let c = OramConfig::paper_default();
        assert_eq!(c.num_leaves(), 1 << 23);
        assert_eq!(c.num_buckets(), (1 << 24) - 1);
        assert_eq!(c.path_slots(), 96);
        // 50% of (2^24 - 1) * 4 slots — about 2^25 blocks (~2 GB of data).
        assert_eq!(c.capacity_blocks(), ((1u64 << 24) - 1) * 2);
        c.validate();
    }

    #[test]
    fn small_test_geometry() {
        let c = OramConfig::small_test();
        assert_eq!(c.num_leaves(), 64);
        assert_eq!(c.num_buckets(), 127);
        assert_eq!(c.path_slots(), 28);
        c.validate();
    }

    #[test]
    fn with_wpq_capacity_overrides() {
        let c = OramConfig::small_test().with_wpq_capacity(4, 4);
        assert_eq!(c.data_wpq_capacity, 4);
        assert_eq!(c.posmap_wpq_capacity, 4);
    }

    #[test]
    fn with_levels_overrides() {
        assert_eq!(
            OramConfig::paper_default().with_levels(10).num_leaves(),
            1024
        );
    }

    #[test]
    #[should_panic(expected = "levels out of range")]
    fn validate_rejects_zero_levels() {
        OramConfig {
            levels: 0,
            ..OramConfig::small_test()
        }
        .validate();
    }

    /// One tree-height bound, the labels': L=31 validates on both
    /// protocols and L=32 is refused by `validate` with the label message,
    /// as `PosMap::new` would refuse its leaves.
    #[test]
    fn tree_height_bound_is_the_posmap_label_range() {
        use crate::ring::RingConfig;
        use crate::PosMap;
        let label_message = |refused: std::thread::Result<()>| {
            let message = refused.expect_err("refused");
            message.downcast_ref::<String>().cloned()
        };
        let path = |levels| OramConfig {
            levels,
            ..OramConfig::small_test()
        };
        // A WPQ for one whole L=32 path, (Z + S) · (L + 1) = 9 · 33 slots,
        // so the height is what L=32 is refused for.
        let ring = |levels| RingConfig {
            levels,
            wpq_capacity: 9 * 33,
            ..RingConfig::small_test()
        };
        assert_eq!(MAX_LEVELS, 31);
        path(31).validate();
        ring(31).validate();
        PosMap::new(path(31).num_leaves(), 1);
        let bound = Some(LABEL_BOUND.to_string());
        assert_eq!(
            label_message(std::panic::catch_unwind(|| path(32).validate())),
            bound
        );
        assert_eq!(
            label_message(std::panic::catch_unwind(|| ring(32).validate())),
            bound
        );
        let leaves = path(32).num_leaves();
        let refused = std::panic::catch_unwind(|| drop(PosMap::new(leaves, 1)));
        assert_eq!(label_message(refused), bound);
    }

    #[test]
    fn errors_display() {
        let e = OramError::AddressOutOfRange {
            addr: BlockAddr(9),
            capacity: 4,
        };
        assert!(e.to_string().contains("a9"));
        assert!(OramError::StashOverflow { capacity: 3 }
            .to_string()
            .contains('3'));
        assert!(OramError::Crashed.to_string().contains("recovery"));
    }

    #[test]
    fn display_of_addr_and_leaf() {
        assert_eq!(BlockAddr(5).to_string(), "a5");
        assert_eq!(Leaf(7).to_string(), "l7");
    }
}

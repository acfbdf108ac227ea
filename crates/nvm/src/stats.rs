//! Traffic statistics for the simulated memory system.

use psoram_obsv::{MetricsRegistry, MetricsSource};
use serde::{Deserialize, Serialize};

use crate::request::AccessKind;

/// Read/write traffic counters for an [`crate::NvmController`].
///
/// These are the quantities behind the paper's Figure 6 (NVM read/write
/// traffic) and the NVM-lifetime discussion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmStats {
    /// Number of block reads serviced.
    pub reads: u64,
    /// Number of block writes serviced.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl NvmStats {
    /// Records one access of `bytes` bytes.
    pub fn record(&mut self, kind: AccessKind, bytes: u64) {
        self.record_burst(kind, 1, bytes);
    }

    /// Records `requests` accesses of `bytes` bytes each.
    pub fn record_burst(&mut self, kind: AccessKind, requests: u64, bytes: u64) {
        match kind {
            AccessKind::Read => {
                self.reads += requests;
                self.read_bytes += requests * bytes;
            }
            AccessKind::Write => {
                self.writes += requests;
                self.write_bytes += requests * bytes;
            }
        }
    }

    /// Component-wise difference (`self - earlier`), for interval stats.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters.
    pub fn since(&self, earlier: &NvmStats) -> NvmStats {
        NvmStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
        }
    }
}

impl MetricsSource for NvmStats {
    fn publish(&self, prefix: &str, reg: &mut MetricsRegistry) {
        reg.set_counter(&MetricsRegistry::key(prefix, "reads"), self.reads);
        reg.set_counter(&MetricsRegistry::key(prefix, "writes"), self.writes);
        reg.set_counter(&MetricsRegistry::key(prefix, "read_bytes"), self.read_bytes);
        reg.set_counter(
            &MetricsRegistry::key(prefix, "write_bytes"),
            self.write_bytes,
        );
    }
}

impl std::ops::Add for NvmStats {
    type Output = NvmStats;

    fn add(self, rhs: NvmStats) -> NvmStats {
        NvmStats {
            reads: self.reads + rhs.reads,
            writes: self.writes + rhs.writes,
            read_bytes: self.read_bytes + rhs.read_bytes,
            write_bytes: self.write_bytes + rhs.write_bytes,
        }
    }
}

impl std::fmt::Display for NvmStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} read_bytes={} write_bytes={}",
            self.reads, self.writes, self.read_bytes, self.write_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = NvmStats::default();
        s.record(AccessKind::Read, 64);
        s.record(AccessKind::Write, 64);
        s.record(AccessKind::Write, 64);
        assert_eq!(s.reads, 1);
        assert_eq!(s.writes, 2);
        assert_eq!(s.write_bytes, 128);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let mut a = NvmStats::default();
        a.record(AccessKind::Read, 64);
        let snapshot = a;
        a.record(AccessKind::Write, 64);
        let d = a.since(&snapshot);
        assert_eq!(d.reads, 0);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn add_is_componentwise() {
        let mut a = NvmStats::default();
        a.record(AccessKind::Read, 64);
        let mut b = NvmStats::default();
        b.record(AccessKind::Write, 32);
        let c = a + b;
        assert_eq!(c.reads, 1);
        assert_eq!(c.writes, 1);
        assert_eq!(c.read_bytes, 64);
        assert_eq!(c.write_bytes, 32);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!NvmStats::default().to_string().is_empty());
    }
}

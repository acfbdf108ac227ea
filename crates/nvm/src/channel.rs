//! Per-channel scheduling: bank selection plus data-bus serialization.

use crate::bank::{Bank, BankSchedule};
use crate::request::AccessKind;
use crate::timing::TimingParams;

/// One memory channel: a set of banks sharing a data bus.
///
/// Requests are serviced in arrival order (FCFS). Bank-level constraints
/// (`tRCD`, `tWP`, `tWTR`, `tCCD`, `tRP`) are enforced by [`Bank`]; the
/// channel additionally serializes data bursts on the shared bus.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Bank>,
    /// One past the last cycle of the most recent data burst on the bus.
    bus_free_at: u64,
    busy_cycles: u64,
    last_activity: u64,
}

impl Channel {
    /// Creates a channel with `num_banks` idle banks.
    pub fn new(num_banks: usize) -> Self {
        assert!(num_banks > 0, "a channel needs at least one bank");
        Channel {
            banks: vec![Bank::new(); num_banks],
            bus_free_at: 0,
            busy_cycles: 0,
            last_activity: 0,
        }
    }

    /// Number of banks on this channel.
    #[allow(dead_code)] // introspection accessor
    pub fn num_banks(&self) -> usize {
        self.banks.len()
    }

    /// Schedules one access on bank `bank_idx` arriving at cycle `arrival`.
    ///
    /// Returns the completion cycle (data delivered for reads, data accepted
    /// for writes).
    ///
    /// # Panics
    ///
    /// Panics if `bank_idx` is out of range.
    #[inline]
    pub fn access(
        &mut self,
        bank_idx: usize,
        kind: AccessKind,
        arrival: u64,
        timing: &TimingParams,
        burst_cycles: u64,
    ) -> BankSchedule {
        // Command-issue offset after which the data burst begins; used to
        // translate the bus-free constraint into an issue-time constraint.
        let burst_offset = match kind {
            AccessKind::Read => timing.t_rcd,
            AccessKind::Write => timing.t_cwd,
        };
        let earliest = arrival.max(self.bus_free_at.saturating_sub(burst_offset));
        let sched = self.banks[bank_idx].schedule(kind, earliest, timing, burst_cycles);
        debug_assert!(sched.burst_start >= self.bus_free_at || self.bus_free_at == 0);
        self.bus_free_at = sched.burst_end;
        self.busy_cycles += sched.burst_end - sched.burst_start;
        self.last_activity = self.last_activity.max(sched.burst_end);
        sched
    }

    /// One past the last cycle the data bus is occupied.
    #[allow(dead_code)] // introspection accessor
    pub fn bus_free_at(&self) -> u64 {
        self.bus_free_at
    }

    /// Total cycles the data bus has been occupied (utilization numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Last cycle at which this channel had any activity.
    pub fn last_activity(&self) -> u64 {
        self.last_activity
    }

    /// Per-bank lifetime write counts (wear proxy).
    pub fn bank_writes(&self) -> Vec<u64> {
        self.banks.iter().map(Bank::writes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{MemTech, TimingParams};

    const BURST: u64 = 8;

    fn pcm() -> TimingParams {
        TimingParams::for_tech(MemTech::Pcm)
    }

    #[test]
    fn bursts_never_overlap_on_the_bus() {
        let mut ch = Channel::new(8);
        let t = pcm();
        let mut prev_end = 0;
        for i in 0..32 {
            let s = ch.access(i % 8, AccessKind::Read, 0, &t, BURST);
            assert!(s.burst_start >= prev_end, "burst {i} overlaps previous");
            prev_end = s.burst_end;
        }
    }

    #[test]
    fn different_banks_overlap_latency_but_not_bus() {
        let mut ch = Channel::new(2);
        let t = pcm();
        let a = ch.access(0, AccessKind::Read, 0, &t, BURST);
        let b = ch.access(1, AccessKind::Read, 0, &t, BURST);
        // Second read hides most of its tRCD under the first one's.
        assert!(b.complete - a.complete < t.read_latency(BURST));
        assert!(b.burst_start >= a.burst_end);
    }

    #[test]
    fn same_bank_serializes_fully() {
        let mut ch = Channel::new(2);
        let t = pcm();
        let a = ch.access(0, AccessKind::Read, 0, &t, BURST);
        let b = ch.access(0, AccessKind::Read, 0, &t, BURST);
        assert!(b.issue >= a.issue + t.read_bank_occupancy(BURST));
    }

    #[test]
    fn busy_cycles_accumulate_per_burst() {
        let mut ch = Channel::new(4);
        let t = pcm();
        for i in 0..4 {
            ch.access(i, AccessKind::Write, 0, &t, BURST);
        }
        assert_eq!(ch.busy_cycles(), 4 * BURST);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Channel::new(0);
    }
}

//! Per-channel scheduling: bank selection plus data-bus serialization.

use crate::bank::{Bank, BankSchedule, Step};

/// A channel's data bus: where its last burst ended and how long it has
/// been occupied. `Copy`, so a burst steps a local copy and writes it back
/// when it leaves the channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bus {
    /// One past the last cycle of the most recent data burst on the bus —
    /// which is the channel's last activity: a burst never starts before
    /// the one ahead of it has ended, so the ends only grow.
    free_at: u64,
    busy_cycles: u64,
}

impl Bus {
    /// Schedules one request of `step`'s burst, arriving at cycle
    /// `arrival`, on `bank` behind this bus, and takes the bus for its
    /// data burst.
    ///
    /// Returns the completion cycle (data delivered for reads, data accepted
    /// for writes) with the rest of the bank's schedule.
    #[inline]
    pub fn access(&mut self, bank: &mut Bank, step: &Step, arrival: u64) -> BankSchedule {
        // The data burst begins `burst_offset` after the command issues,
        // which turns the bus-free constraint into an issue-time one.
        let earliest = arrival.max(self.free_at.saturating_sub(step.burst_offset));
        let sched = bank.schedule(step, earliest);
        debug_assert!(sched.burst_start >= self.free_at);
        self.free_at = sched.burst_end;
        self.busy_cycles += step.bus_cycles;
        sched
    }
}

/// One memory channel: a set of banks sharing a data bus.
///
/// Requests are serviced in arrival order (FCFS). Bank-level constraints
/// (`tRCD`, `tWP`, `tWTR`, `tCCD`, `tRP`) are enforced by [`Bank`]; the
/// channel's [`Bus`] additionally serializes data bursts.
#[derive(Debug, Clone)]
pub struct Channel {
    /// The banks behind the bus, and the bus: lent apart to the burst
    /// loop, which holds the bus by value while it steps the banks.
    pub banks: Vec<Bank>,
    pub bus: Bus,
}

impl Channel {
    /// Creates a channel with `num_banks` idle banks.
    pub fn new(num_banks: usize) -> Self {
        assert!(num_banks > 0, "a channel needs at least one bank");
        Channel {
            banks: vec![Bank::new(); num_banks],
            bus: Bus::default(),
        }
    }

    /// Total cycles the data bus has been occupied (utilization numerator).
    pub fn busy_cycles(&self) -> u64 {
        self.bus.busy_cycles
    }

    /// Last cycle at which this channel had any activity.
    pub fn last_activity(&self) -> u64 {
        self.bus.free_at
    }

    /// Per-bank lifetime write counts (wear proxy).
    pub fn bank_writes(&self) -> Vec<u64> {
        self.banks.iter().map(Bank::writes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::AccessKind;
    use crate::timing::{MemTech, TimingParams};

    const BURST: u64 = 8;

    fn pcm() -> TimingParams {
        TimingParams::for_tech(MemTech::Pcm)
    }

    /// One request arriving at cycle 0, as the burst loop steps it.
    fn access(ch: &mut Channel, bank: usize, kind: AccessKind) -> BankSchedule {
        let step = Step::new(kind, &pcm(), BURST);
        ch.bus.access(&mut ch.banks[bank], &step, 0)
    }

    #[test]
    fn bursts_never_overlap_on_the_bus() {
        let mut ch = Channel::new(8);
        let mut prev_end = 0;
        for i in 0..32 {
            let s = access(&mut ch, i % 8, AccessKind::Read);
            assert!(s.burst_start >= prev_end, "burst {i} overlaps previous");
            prev_end = s.burst_end;
        }
    }

    #[test]
    fn different_banks_overlap_latency_but_not_bus() {
        let mut ch = Channel::new(2);
        let t = pcm();
        let a = access(&mut ch, 0, AccessKind::Read);
        let b = access(&mut ch, 1, AccessKind::Read);
        // Second read hides most of its tRCD under the first one's.
        assert!(b.complete - a.complete < t.read_latency(BURST));
        assert!(b.burst_start >= a.burst_end);
    }

    #[test]
    fn same_bank_serializes_fully() {
        let mut ch = Channel::new(2);
        let t = pcm();
        let a = access(&mut ch, 0, AccessKind::Read);
        let b = access(&mut ch, 0, AccessKind::Read);
        assert!(b.issue >= a.issue + t.read_bank_occupancy(BURST));
    }

    #[test]
    fn busy_cycles_accumulate_per_burst() {
        let mut ch = Channel::new(4);
        for i in 0..4 {
            access(&mut ch, i, AccessKind::Write);
        }
        assert_eq!(ch.busy_cycles(), 4 * BURST);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Channel::new(0);
    }
}

//! Per-bank service state.

use crate::request::AccessKind;
use crate::timing::TimingParams;

/// Service state of a single NVM bank.
///
/// The bank tracks when it can accept its next command and enforces the
/// write-to-read turnaround (`tWTR`) and command-to-command (`tCCD`)
/// constraints. The data-bus constraint lives at the channel level.
#[derive(Debug, Clone, Default)]
pub struct Bank {
    /// Earliest memory cycle at which a new command may start at this
    /// bank: the last one's issue plus the longer of its occupancy and
    /// `tCCD`.
    ready_at: u64,
    /// Earliest cycle a *read* may issue (enforces `tWTR` after a write).
    read_ok_at: u64,
    /// Lifetime write count for wear accounting.
    writes: u64,
}

/// Outcome of scheduling one access on a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankSchedule {
    /// Cycle the command is issued.
    pub issue: u64,
    /// Cycle the requester observes completion (data delivered for reads,
    /// data accepted for writes).
    pub complete: u64,
    /// First cycle of the data burst on the channel bus.
    pub burst_start: u64,
    /// One past the last cycle of the data burst on the channel bus.
    pub burst_end: u64,
}

/// What the requests of one burst have in common — their kind, their time
/// on the data bus and what the device timing makes of the two — worked out
/// once, before the first of them is stepped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Read or write.
    pub kind: AccessKind,
    /// Command issue → first cycle of the data burst: `tRCD` for a read,
    /// `tCWD` for a write. The burst's last cycle is the completion either
    /// way (data delivered, data accepted).
    pub burst_offset: u64,
    /// Cycles one request occupies the data bus.
    pub bus_cycles: u64,
    /// Command issue → next command at the same bank: the bank's
    /// occupancy (through precharge for a read, through the programming
    /// pulse and precharge for a write) or `tCCD`, whichever is longer.
    command_gap: u64,
    t_wtr: u64,
}

impl Step {
    /// The step of a `kind` request `bus_cycles` long under `timing`.
    pub fn new(kind: AccessKind, timing: &TimingParams, bus_cycles: u64) -> Self {
        let (burst_offset, occupancy) = match kind {
            AccessKind::Read => (timing.t_rcd, timing.read_bank_occupancy(bus_cycles)),
            AccessKind::Write => (timing.t_cwd, timing.write_bank_occupancy(bus_cycles)),
        };
        Step {
            kind,
            burst_offset,
            bus_cycles,
            command_gap: occupancy.max(timing.t_ccd),
            t_wtr: timing.t_wtr,
        }
    }
}

impl Bank {
    /// Creates an idle bank.
    pub fn new() -> Self {
        Bank::default()
    }

    /// Schedules one request of `step`'s burst at this bank.
    ///
    /// `earliest` is the earliest cycle the command may issue (request
    /// arrival, possibly pushed later by channel bus availability handled
    /// by the caller). Returns the schedule and updates the bank state.
    #[inline]
    pub fn schedule(&mut self, step: &Step, earliest: u64) -> BankSchedule {
        // The bank's own windows first: `earliest` carries the bus, the one
        // value every request of a burst waits on, and joins last.
        let mut own = self.ready_at;
        if step.kind.is_read() {
            // Write-to-read turnaround on the same bank.
            own = own.max(self.read_ok_at);
        }
        let issue = earliest.max(own);
        let burst_start = issue + step.burst_offset;
        let burst_end = burst_start + step.bus_cycles;
        self.ready_at = issue + step.command_gap;
        if step.kind.is_write() {
            self.read_ok_at = burst_end + step.t_wtr;
            self.writes += 1;
        }
        BankSchedule {
            issue,
            complete: burst_end,
            burst_start,
            burst_end,
        }
    }

    /// Earliest cycle at which this bank can accept another command.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn ready_at(&self) -> u64 {
        self.ready_at
    }

    /// Lifetime number of writes serviced by this bank (wear proxy).
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::MemTech;

    const BURST: u64 = 8;

    fn pcm() -> TimingParams {
        TimingParams::for_tech(MemTech::Pcm)
    }

    fn step(kind: AccessKind) -> Step {
        Step::new(kind, &pcm(), BURST)
    }

    #[test]
    fn idle_read_latency_is_trcd_plus_burst() {
        let mut b = Bank::new();
        let s = b.schedule(&step(AccessKind::Read), 0);
        assert_eq!(s.issue, 0);
        assert_eq!(s.complete, 48 + BURST);
        assert_eq!(s.burst_end - s.burst_start, BURST);
    }

    #[test]
    fn write_keeps_bank_busy_through_programming() {
        let mut b = Bank::new();
        let t = pcm();
        let s = b.schedule(&step(AccessKind::Write), 0);
        // Data accepted after tCWD + burst.
        assert_eq!(s.complete, t.t_cwd + BURST);
        // Bank not ready again until the write pulse and precharge are done.
        assert_eq!(b.ready_at(), t.write_bank_occupancy(BURST));
    }

    #[test]
    fn back_to_back_reads_serialize_on_bank_occupancy() {
        let mut b = Bank::new();
        let t = pcm();
        let s1 = b.schedule(&step(AccessKind::Read), 0);
        let s2 = b.schedule(&step(AccessKind::Read), 0);
        assert!(s2.issue >= s1.issue + t.read_bank_occupancy(BURST));
    }

    #[test]
    fn read_after_write_waits_for_turnaround() {
        let mut b = Bank::new();
        let t = pcm();
        let w = b.schedule(&step(AccessKind::Write), 0);
        let r = b.schedule(&step(AccessKind::Read), 0);
        assert!(r.issue >= w.burst_end + t.t_wtr);
    }

    #[test]
    fn wear_counts_only_writes() {
        let mut b = Bank::new();
        b.schedule(&step(AccessKind::Read), 0);
        b.schedule(&step(AccessKind::Write), 0);
        b.schedule(&step(AccessKind::Write), 0);
        assert_eq!(b.writes(), 2);
    }

    #[test]
    fn later_arrival_delays_issue() {
        let mut b = Bank::new();
        let s = b.schedule(&step(AccessKind::Read), 1000);
        assert_eq!(s.issue, 1000);
    }
}

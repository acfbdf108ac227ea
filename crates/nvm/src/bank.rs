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
    /// Earliest memory cycle at which a new command may start at this bank.
    ready_at: u64,
    /// Earliest cycle a *read* may issue (enforces `tWTR` after a write).
    read_ok_at: u64,
    /// Earliest cycle any command may issue (enforces `tCCD`).
    cmd_ok_at: u64,
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

impl Bank {
    /// Creates an idle bank.
    pub fn new() -> Self {
        Bank::default()
    }

    /// Schedules an access at this bank.
    ///
    /// `earliest` is the earliest cycle the command may issue (request
    /// arrival, possibly pushed later by channel bus availability handled by
    /// the caller via a second pass). Returns the schedule and updates the
    /// bank state.
    #[inline]
    pub fn schedule(
        &mut self,
        kind: AccessKind,
        earliest: u64,
        timing: &TimingParams,
        burst_cycles: u64,
    ) -> BankSchedule {
        let mut issue = earliest.max(self.ready_at).max(self.cmd_ok_at);
        if kind.is_read() {
            // Write-to-read turnaround on the same bank.
            issue = issue.max(self.read_ok_at);
        }
        let (complete, burst_start, occupancy) = match kind {
            AccessKind::Read => {
                let complete = issue + timing.read_latency(burst_cycles);
                (
                    complete,
                    complete - burst_cycles,
                    timing.read_bank_occupancy(burst_cycles),
                )
            }
            AccessKind::Write => {
                let complete = issue + timing.write_accept_latency(burst_cycles);
                (
                    complete,
                    issue + timing.t_cwd,
                    timing.write_bank_occupancy(burst_cycles),
                )
            }
        };
        let burst_end = burst_start + burst_cycles;
        self.ready_at = issue + occupancy;
        self.cmd_ok_at = issue + timing.t_ccd;
        if kind.is_write() {
            self.read_ok_at = burst_end + timing.t_wtr;
            self.writes += 1;
        }
        BankSchedule {
            issue,
            complete,
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

    #[test]
    fn idle_read_latency_is_trcd_plus_burst() {
        let mut b = Bank::new();
        let s = b.schedule(AccessKind::Read, 0, &pcm(), BURST);
        assert_eq!(s.issue, 0);
        assert_eq!(s.complete, 48 + BURST);
        assert_eq!(s.burst_end - s.burst_start, BURST);
    }

    #[test]
    fn write_keeps_bank_busy_through_programming() {
        let mut b = Bank::new();
        let t = pcm();
        let s = b.schedule(AccessKind::Write, 0, &t, BURST);
        // Data accepted after tCWD + burst.
        assert_eq!(s.complete, t.t_cwd + BURST);
        // Bank not ready again until the write pulse and precharge are done.
        assert_eq!(b.ready_at(), t.write_bank_occupancy(BURST));
    }

    #[test]
    fn back_to_back_reads_serialize_on_bank_occupancy() {
        let mut b = Bank::new();
        let t = pcm();
        let s1 = b.schedule(AccessKind::Read, 0, &t, BURST);
        let s2 = b.schedule(AccessKind::Read, 0, &t, BURST);
        assert!(s2.issue >= s1.issue + t.read_bank_occupancy(BURST));
    }

    #[test]
    fn read_after_write_waits_for_turnaround() {
        let mut b = Bank::new();
        let t = pcm();
        let w = b.schedule(AccessKind::Write, 0, &t, BURST);
        let r = b.schedule(AccessKind::Read, 0, &t, BURST);
        assert!(r.issue >= w.burst_end + t.t_wtr);
    }

    #[test]
    fn wear_counts_only_writes() {
        let mut b = Bank::new();
        let t = pcm();
        b.schedule(AccessKind::Read, 0, &t, BURST);
        b.schedule(AccessKind::Write, 0, &t, BURST);
        b.schedule(AccessKind::Write, 0, &t, BURST);
        assert_eq!(b.writes(), 2);
    }

    #[test]
    fn later_arrival_delays_issue() {
        let mut b = Bank::new();
        let s = b.schedule(AccessKind::Read, 1000, &pcm(), BURST);
        assert_eq!(s.issue, 1000);
    }
}

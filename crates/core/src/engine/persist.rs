//! The WPQ persist-round protocol and crash/recovery state machine.

use std::collections::VecDeque;

use psoram_nvm::{FaultClass, PersistenceDomain, WpqEntry, WpqError, WpqStats};
use psoram_obsv::{DeviceFaultKind, Event, Tap};
use serde::{Deserialize, Serialize};

use crate::crash::{CrashPoint, RecoveryReport};
use crate::types::OramError;

/// Maps the NVM-layer fault class onto the dependency-free observability
/// vocabulary.
pub(crate) fn fault_kind(class: FaultClass) -> DeviceFaultKind {
    match class {
        FaultClass::TornFlush => DeviceFaultKind::TornFlush,
        FaultClass::SignalLoss => DeviceFaultKind::SignalLoss,
        FaultClass::DuplicatedSignal => DeviceFaultKind::DuplicatedSignal,
        FaultClass::MediaCorruption => DeviceFaultKind::MediaCorruption,
        FaultClass::TransientRead => DeviceFaultKind::TransientRead,
        FaultClass::StaleReplay => DeviceFaultKind::StaleReplay,
        FaultClass::CrossSplice => DeviceFaultKind::CrossSplice,
        FaultClass::WearOut => DeviceFaultKind::WearOut,
    }
}

/// Counters the engine accumulates across the life of a controller.
///
/// These survive crashes and recoveries by construction: the engine is
/// part of the controller model, not of the simulated volatile state, so
/// a crash (`PersistEngine::crash`) discards the open WPQ round but never
/// the accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Crashes executed.
    pub crashes: u64,
    /// Recoveries completed.
    pub recoveries: u64,
    /// Recoveries whose consistency check failed.
    pub recovery_failures: u64,
    /// Persist rounds split early because a WPQ ran out of room.
    pub wpq_stalls: u64,
}

impl psoram_obsv::MetricsSource for EngineStats {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "crashes"), self.crashes);
        reg.set_counter(&R::key(prefix, "recoveries"), self.recoveries);
        reg.set_counter(&R::key(prefix, "recovery_failures"), self.recovery_failures);
        reg.set_counter(&R::key(prefix, "wpq_stalls"), self.wpq_stalls);
    }
}

/// The (data, PosMap) entries of one drained round, in commit order.
pub(crate) type DrainedRound<D, P> = (Vec<WpqEntry<D>>, Vec<WpqEntry<P>>);

/// The WPQ persist-round protocol — *start signal → persist units → end
/// signal* — over the paired data/PosMap queues, generic over the
/// persist-unit types (`D` data units, `P` PosMap units). It holds what is
/// typed by the queues and nothing else: the crash latch, the counters and
/// the tap a round also touches are [`EngineControl`]'s, lent to the calls
/// that need them, and the wear engine a round programs is the device
/// side's (`engine::commit_and_apply`, `engine::power_fail`).
///
/// Controllers keep only protocol policy: what units to stage, when to
/// open a round, and how to apply a drained round to their stores.
#[derive(Debug)]
pub(crate) struct PersistEngine<D, P> {
    domain: PersistenceDomain<D, P>,
    /// The buffers rounds drain into, kept for their capacity.
    drained: DrainedRound<D, P>,
}

impl<D, P> PersistEngine<D, P> {
    /// Creates fresh WPQs of the given capacities.
    pub fn new(data_capacity: usize, posmap_capacity: usize) -> Self {
        PersistEngine {
            domain: PersistenceDomain::new(data_capacity, posmap_capacity),
            drained: (Vec::new(), Vec::new()),
        }
    }

    /// Wires an observability tap into both WPQs: per-queue
    /// push/reject/drain events are stamped with its published clock.
    pub fn set_tap(&mut self, tap: Tap) {
        self.domain.set_tap(tap);
    }

    /// Accumulated statistics of the (data, PosMap) WPQs. Like
    /// [`EngineStats`], these survive crashes and recoveries.
    pub fn wpq_stats(&self) -> (WpqStats, WpqStats) {
        (
            self.domain.data_wpq().stats(),
            self.domain.posmap_wpq().stats(),
        )
    }

    /// Drainer *start* signal: opens an atomic round on both WPQs.
    ///
    /// # Errors
    ///
    /// [`WpqError::BatchAlreadyOpen`] if a round is already open.
    pub fn begin_round(&mut self, ctl: &EngineControl) -> Result<(), WpqError> {
        self.domain.begin_round()?;
        ctl.tap.emit(|| Event::RoundBegin {
            cycle: ctl.tap.now(),
        });
        Ok(())
    }

    /// Stages one data persist unit into the open round.
    ///
    /// # Errors
    ///
    /// [`WpqError::NoBatchOpen`] / [`WpqError::Full`] from the data WPQ.
    pub fn push_data(&mut self, entry: WpqEntry<D>) -> Result<(), WpqError> {
        self.domain.push_data(entry)
    }

    /// Stages one PosMap persist unit into the open round.
    ///
    /// # Errors
    ///
    /// [`WpqError::NoBatchOpen`] / [`WpqError::Full`] from the PosMap WPQ.
    pub fn push_posmap(&mut self, entry: WpqEntry<P>) -> Result<(), WpqError> {
        self.domain.push_posmap(entry)
    }

    /// Drainer *end* signal: the atomic commit point of the open round.
    ///
    /// # Errors
    ///
    /// [`WpqError::NoBatchOpen`] if no round is open on either queue.
    pub fn commit_round(&mut self, ctl: &EngineControl) -> Result<(), WpqError> {
        let (data_units, posmap_units) = (
            self.domain.data_wpq().open_len() as u64,
            self.domain.posmap_wpq().open_len() as u64,
        );
        self.domain.commit_round()?;
        ctl.tap.emit(|| Event::RoundCommit {
            cycle: ctl.tap.now(),
            data_units,
            posmap_units,
        });
        Ok(())
    }

    /// Drains every committed entry from both queues, in commit order,
    /// into the buffers kept from round to round (hand them back with
    /// [`PersistEngine::keep`]).
    pub fn drain(&mut self) -> DrainedRound<D, P> {
        let (mut data, mut posmap) = std::mem::take(&mut self.drained);
        debug_assert!(data.is_empty() && posmap.is_empty());
        self.domain.drain_into(&mut data, &mut posmap);
        (data, posmap)
    }

    /// Takes back the buffers of an applied round, for their capacity.
    pub fn keep(&mut self, (mut data, mut posmap): DrainedRound<D, P>) {
        data.clear();
        posmap.clear();
        self.drained = (data, posmap);
    }

    /// `true` when the data WPQ has no room for another unit.
    pub fn data_is_full(&self) -> bool {
        self.domain.data_wpq().remaining() == 0
    }

    /// `true` when the PosMap WPQ has no room for another unit.
    pub fn posmap_is_full(&self) -> bool {
        self.domain.posmap_wpq().remaining() == 0
    }

    /// Models a power failure while a round is being assembled: opens a
    /// round and stages `entries`, deliberately without the end signal,
    /// so the subsequent [`PersistEngine::crash`] discards them. Push
    /// errors are irrelevant — whatever made it into the open batch is
    /// lost to the crash anyway.
    pub fn stage_abandoned_round(&mut self, entries: Vec<WpqEntry<D>>) {
        let _ = self.domain.begin_round();
        for e in entries {
            let _ = self.domain.push_data(e);
        }
    }

    /// Executes the power failure: latches the crashed state, counts it,
    /// and returns what the ADR flush preserves — every *committed* round,
    /// with any open round discarded.
    pub fn crash(&mut self, ctl: &mut EngineControl) -> DrainedRound<D, P> {
        ctl.stats.crashes += 1;
        ctl.crashed = true;
        ctl.tap.emit(|| Event::Crash {
            cycle: ctl.tap.now(),
        });
        self.domain.crash()
    }
}

/// The engine's control state, the part no queue types: crash arming
/// ([`EngineControl::inject_crash`]) and scheduling
/// ([`EngineControl::schedule_crash`]) against the access-attempt counter,
/// the crashed-state latch and the recovery bookkeeping
/// ([`EngineControl::finish_recovery`], [`EngineControl::last_recovery`]),
/// the crash/recovery/stall counters ([`EngineStats`]), the fail-safe latch
/// and the tap. The device's own state — its fault plan, wear engine and
/// the incidents a crash files — is `DeviceSide`'s, and the anchored root
/// sits beside the counter tree it anchors (`AuthTags`).
#[derive(Debug, Default)]
pub(crate) struct EngineControl {
    crash_plan: Option<CrashPoint>,
    /// Pending scheduled crashes as `(access_attempt_index, point)`,
    /// sorted ascending; consumed as access attempts reach each index.
    crash_schedule: VecDeque<(u64, CrashPoint)>,
    /// Total access attempts begun, including attempts that crashed.
    access_attempts: u64,
    crashed: bool,
    last_recovery: Option<RecoveryReport>,
    stats: EngineStats,
    /// The controller's tap: its access and phase events, the round
    /// markers, the device guards and the recovery events share its clock.
    pub(crate) tap: Tap,
    /// Fail-safe latch: damage that could neither be repaired nor retried
    /// past. Latched until the instance is rebuilt.
    poisoned: Option<FaultClass>,
}

impl EngineControl {
    /// Engine-accumulated counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    // ── access-attempt prologue & crash arming ──────────────────────────

    /// Whether an access would be admitted now.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`] once the fail-safe latched, else
    /// [`OramError::Crashed`] while the controller is crashed.
    pub fn in_service(&self) -> Result<(), OramError> {
        if let Some(class) = self.poisoned {
            return Err(OramError::Poisoned { class });
        }
        if self.crashed {
            return Err(OramError::Crashed);
        }
        Ok(())
    }

    /// Starts one access attempt: rejects while out of service
    /// ([`EngineControl::in_service`]), arms the next scheduled crash plan
    /// if its index has arrived, and counts the attempt.
    ///
    /// # Errors
    ///
    /// As [`EngineControl::in_service`].
    pub fn begin_attempt(&mut self) -> Result<(), OramError> {
        self.in_service()?;
        // Scheduled crash plans arm when their access attempt begins.
        if let Some(&(idx, point)) = self.crash_schedule.front() {
            if idx == self.access_attempts {
                self.crash_schedule.pop_front();
                self.crash_plan = Some(point);
            }
        }
        self.access_attempts += 1;
        Ok(())
    }

    /// Consumes a matching armed crash plan: returns `true` (and disarms)
    /// if `point` is exactly the armed plan, in which case the caller must
    /// run its crash procedure.
    pub fn take_crash(&mut self, point: CrashPoint) -> bool {
        if self.crash_plan == Some(point) {
            self.crash_plan = None;
            true
        } else {
            false
        }
    }

    /// The armed [`CrashPoint::DuringEviction`] persist-unit index, if any
    /// (peeked, not consumed — pair with [`EngineControl::disarm_crash`]).
    pub fn armed_eviction_crash(&self) -> Option<usize> {
        match self.crash_plan {
            Some(CrashPoint::DuringEviction(k)) => Some(k),
            _ => None,
        }
    }

    /// Arms a crash to fire at `point` during the next access.
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.crash_plan = Some(point);
    }

    /// Disarms a pending crash plan that has not fired.
    pub fn disarm_crash(&mut self) {
        self.crash_plan = None;
    }

    /// Schedules a crash to arm when access attempt `access_index` begins
    /// (0-based over every [`EngineControl::begin_attempt`], including
    /// attempts that themselves crashed). Entries must be appended in
    /// non-decreasing index order; an index already in the past is
    /// silently never reached.
    pub fn schedule_crash(&mut self, access_index: u64, point: CrashPoint) {
        debug_assert!(
            self.crash_schedule
                .back()
                .is_none_or(|&(i, _)| i <= access_index),
            "crash schedule must be in non-decreasing access order"
        );
        self.crash_schedule.push_back((access_index, point));
    }

    /// Drops all scheduled crashes that have not fired.
    pub fn clear_crash_schedule(&mut self) {
        self.crash_schedule.clear();
    }

    /// Total access attempts so far (the index the next attempt carries
    /// for [`EngineControl::schedule_crash`]).
    pub fn access_attempts(&self) -> u64 {
        self.access_attempts
    }

    /// `true` between a crash and the matching recovery.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Counts one stall: a round split early because a WPQ ran out of
    /// room (the caller commits, drains, applies, and reopens).
    pub fn note_stall(&mut self) {
        self.stats.wpq_stalls += 1;
        self.tap.emit(|| Event::WpqStall {
            cycle: self.tap.now(),
        });
    }

    // ── recovery ────────────────────────────────────────────────────────

    /// Completes a recovery: clears the crashed state, counts the
    /// recovery (and the failure, if the verdict is inconsistent), and
    /// retains the report for [`EngineControl::last_recovery`].
    pub fn finish_recovery(&mut self, report: RecoveryReport) -> RecoveryReport {
        self.stats.recoveries += 1;
        self.crashed = false;
        if !report.consistent {
            self.stats.recovery_failures += 1;
        }
        for inc in &report.incidents {
            let (kind, units) = (fault_kind(inc.class), inc.units);
            self.tap.emit(|| Event::FaultDetected {
                kind,
                units,
                cycle: self.tap.now(),
            });
        }
        if report.repairs > 0 || !report.rolled_back.is_empty() {
            let (repaired, rolled_back) = (report.repairs, report.rolled_back.len() as u64);
            self.tap.emit(|| Event::FaultRepaired {
                repaired,
                rolled_back,
                cycle: self.tap.now(),
            });
        }
        self.tap.emit(|| Event::Recovery {
            consistent: report.consistent,
            cycle: self.tap.now(),
        });
        self.last_recovery = Some(report.clone());
        report
    }

    /// The report of the most recent recovery, if any.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Latches the fail-safe poisoned state: every subsequent access
    /// fails with [`OramError::Poisoned`] until the instance is rebuilt.
    pub fn poison(&mut self, class: FaultClass) {
        self.poisoned = Some(class);
        let kind = fault_kind(class);
        self.tap.emit(|| Event::Poisoned {
            kind,
            cycle: self.tap.now(),
        });
    }

    /// The latched fail-safe class, if the controller is poisoned.
    pub fn poisoned(&self) -> Option<FaultClass> {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(addr: u64) -> WpqEntry<u32> {
        WpqEntry {
            addr,
            value: addr as u32,
        }
    }

    #[test]
    fn round_trip_commit_and_drain() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(4, 4);
        let c = EngineControl::default();
        e.begin_round(&c).unwrap();
        e.push_data(entry(1)).unwrap();
        e.push_posmap(entry(2)).unwrap();
        e.commit_round(&c).unwrap();
        let (d, p) = e.drain();
        assert_eq!(d.len(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn crash_discards_open_round_but_keeps_committed() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(4, 4);
        let mut c = EngineControl::default();
        e.begin_round(&c).unwrap();
        e.push_data(entry(1)).unwrap();
        e.commit_round(&c).unwrap();
        e.stage_abandoned_round(vec![entry(2), entry(3)]);
        let (d, _) = e.crash(&mut c);
        assert_eq!(d.len(), 1, "only the committed round survives");
        assert!(c.is_crashed());
    }

    #[test]
    fn scheduled_crash_arms_at_its_attempt_index() {
        let mut e = EngineControl::default();
        e.schedule_crash(1, CrashPoint::AfterLoadPath);
        e.begin_attempt().unwrap();
        assert!(!e.take_crash(CrashPoint::AfterLoadPath), "not yet armed");
        e.begin_attempt().unwrap();
        assert!(e.take_crash(CrashPoint::AfterLoadPath));
        assert!(!e.take_crash(CrashPoint::AfterLoadPath), "consumed");
    }

    #[test]
    fn counters_survive_crash_and_recovery() {
        // Satellite invariant: the engine-accumulated stall/full counters
        // are controller-model state, not simulated volatile state — a
        // crash plus recovery must not reset them.
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(1, 1);
        let mut c = EngineControl::default();
        e.begin_round(&c).unwrap();
        e.push_data(entry(1)).unwrap();
        assert!(e.data_is_full());
        c.note_stall();
        assert!(e.push_data(entry(2)).is_err(), "full WPQ rejects the push");
        e.commit_round(&c).unwrap();
        let before_engine = c.stats();
        let (before_data, before_posmap) = e.wpq_stats();
        assert_eq!(before_engine.wpq_stalls, 1);
        assert_eq!(before_data.full_rejections, 1);

        let _ = e.crash(&mut c);
        let report = c.finish_recovery(RecoveryReport::from_check(Ok(()), 0));
        assert!(report.consistent);
        assert!(!c.is_crashed());

        let after_engine = c.stats();
        let (after_data, after_posmap) = e.wpq_stats();
        assert_eq!(after_engine.wpq_stalls, before_engine.wpq_stalls);
        assert_eq!(after_data.full_rejections, before_data.full_rejections);
        assert_eq!(after_data.entries_pushed, before_data.entries_pushed);
        assert_eq!(after_posmap, before_posmap);
        assert_eq!(after_engine.crashes, 1);
        assert_eq!(after_engine.recoveries, 1);
        assert_eq!(after_engine.recovery_failures, 0);
    }

    #[test]
    fn poisoned_engine_rejects_every_attempt() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(4, 4);
        let mut c = EngineControl::default();
        c.begin_attempt().unwrap();
        c.poison(FaultClass::TransientRead);
        assert_eq!(c.poisoned(), Some(FaultClass::TransientRead));
        assert_eq!(
            c.begin_attempt(),
            Err(OramError::Poisoned {
                class: FaultClass::TransientRead
            })
        );
        // Poison dominates even the crashed state.
        let _ = e.crash(&mut c);
        assert!(matches!(c.begin_attempt(), Err(OramError::Poisoned { .. })));
    }

    #[test]
    fn failed_recovery_is_counted() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(2, 2);
        let mut c = EngineControl::default();
        let _ = e.crash(&mut c);
        let report = c.finish_recovery(RecoveryReport::from_check(Err("lost a3".into()), 1));
        assert!(!report.consistent);
        assert_eq!(c.stats().recovery_failures, 1);
        assert_eq!(c.last_recovery(), Some(&report));
    }
}

//! The WPQ persist-round protocol and crash/recovery state machine.

use std::collections::VecDeque;

use psoram_nvm::{
    Conviction, FaultClass, FaultConfig, FaultPlan, FaultStats, PersistenceDomain, ReadFault,
    RoundFate, WearConfig, WearEngine, WearStats, WpqEntry, WpqError, WpqStats,
};
use psoram_obsv::{DeviceFaultKind, Event, Tap};
use serde::{Deserialize, Serialize};

use crate::crash::{CrashPoint, RecoveryIncident, RecoveryReport};
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

/// Outcome of the wear-coupled draw over one media path load, after the
/// retirement layer has had its say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WearReadOutcome {
    /// No wear fault on this load.
    None,
    /// Transient drift failure: the load succeeds after `attempts`
    /// retries with backoff.
    Transient {
        /// Failed attempts before the read goes through.
        attempts: u32,
    },
    /// The hottest line was convicted and retired onto a spare; its
    /// content was repaired from the redundant copy. The remap is staged
    /// and becomes durable at the next commit round.
    Retired {
        /// The convicted physical line.
        line: u64,
        /// The spare now serving its address.
        spare: u64,
    },
    /// The hottest line is stuck past its budget and no spare capacity
    /// is left (or the scheme has no retirement layer): the controller
    /// must fail safe.
    Exhausted {
        /// The dead physical line.
        line: u64,
    },
}

/// What a crash's device faults destroyed in the round whose media
/// programming the power failure interrupted. Indexes refer to the
/// controller's record of the last applied round's persist units.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct RoundDamage {
    /// Damaged data units (tree-slot writes), by last-round index.
    pub data_units: Vec<usize>,
    /// Damaged PosMap units (persisted map entries), by last-round index.
    pub posmap_units: Vec<usize>,
    /// Data unit rolled back to its authentic prior version (replay).
    pub replayed_data: Option<usize>,
    /// PosMap unit rolled back to its authentic prior version (replay).
    pub replayed_posmap: Option<usize>,
    /// Pair of data units whose records and contents were swapped.
    pub spliced_data: Option<(usize, usize)>,
    /// Pair of PosMap units whose records and contents were swapped.
    pub spliced_posmap: Option<(usize, usize)>,
}

impl RoundDamage {
    /// `true` when no unit was damaged, replayed, or spliced.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.data_units.is_empty()
            && self.posmap_units.is_empty()
            && self.replayed_data.is_none()
            && self.replayed_posmap.is_none()
            && self.spliced_data.is_none()
            && self.spliced_posmap.is_none()
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
/// typed by the queues and nothing else; the crash plan, the counters and
/// the device adversaries a round also touches are [`EngineControl`]'s,
/// lent to the calls that need them.
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
    pub fn commit_round(&mut self, ctl: &mut EngineControl) -> Result<(), WpqError> {
        let (data_units, posmap_units) = (
            self.domain.data_wpq().open_len() as u64,
            self.domain.posmap_wpq().open_len() as u64,
        );
        self.domain.commit_round()?;
        // The wear-leveling mapping (staged gap moves / retirements)
        // rides the same atomic commit point as the round itself: one
        // failure-atomic register update in the persistence domain.
        if let Some(w) = ctl.wear.as_mut() {
            w.commit();
        }
        ctl.tap.emit(|| Event::RoundCommit {
            cycle: ctl.tap.now(),
            data_units,
            posmap_units,
        });
        Ok(())
    }

    /// Drains every committed entry from both queues, in commit order,
    /// into the buffers kept from round to round (hand them back with
    /// [`PersistEngine::keep`]). With wear enabled, each drained data unit
    /// programs its media line through the current (staged) leveling
    /// mapping.
    pub fn drain(&mut self, ctl: &mut EngineControl) -> DrainedRound<D, P> {
        let (mut data, mut posmap) = std::mem::take(&mut self.drained);
        debug_assert!(data.is_empty() && posmap.is_empty());
        self.domain.drain_into(&mut data, &mut posmap);
        if let Some(w) = ctl.wear.as_mut() {
            for e in data.iter() {
                w.record_write(e.addr);
            }
        }
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
        let (d, p) = self.domain.crash();
        if let Some(w) = ctl.wear.as_mut() {
            // A staged gap move or retirement that missed its commit
            // round never happened: recovery sees one consistent mapping.
            w.revert();
            // The ADR flush still programs the committed rounds' cells —
            // wear is device truth and is never rolled back.
            for e in &d {
                w.record_crash_write(e.addr);
            }
        }
        (d, p)
    }
}

/// The engine's control state, the part no queue types: crash arming
/// ([`EngineControl::inject_crash`]) and scheduling
/// ([`EngineControl::schedule_crash`]) against the access-attempt counter,
/// the crashed-state latch and the recovery bookkeeping
/// ([`EngineControl::finish_recovery`], [`EngineControl::last_recovery`]),
/// the crash/recovery/stall counters ([`EngineStats`]), the installed
/// device adversaries (fault plan, wear engine), the persisted counter-tree
/// root and the fail-safe latch.
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
    /// Seeded device-fault adversary, when the backend is made injectable.
    device: Option<FaultPlan>,
    /// Endurance bookkeeping under the persistence domain, when the
    /// device is made to wear.
    wear: Option<WearEngine>,
    /// Fail-safe latch: damage that could neither be repaired nor retried
    /// past. Latched until the instance is rebuilt.
    poisoned: Option<FaultClass>,
    /// Incidents drawn at the last crash, consumed by the next recovery.
    pending_incidents: Vec<RecoveryIncident>,
    /// The counter-tree root persisted by the last committed round.
    persisted_root: Option<[u8; 16]>,
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

    // ── device-fault injection (tentpole) ───────────────────────────────

    /// Installs a seeded [`FaultPlan`] over the WPQ/NVM backend, making
    /// the persistence domain adversarial. The plan owns its own RNG
    /// stream: installing a fully disabled plan leaves the controller
    /// bit-identical to an uninstrumented one.
    pub fn install_fault_plan(&mut self, seed: u64, cfg: FaultConfig) {
        self.device = Some(FaultPlan::new(seed, cfg));
    }

    /// Ground-truth injection counters of the installed plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.device.as_ref().map(FaultPlan::stats)
    }

    /// Entropy from the plan's stream, for choosing which byte of a
    /// damaged unit to flip. Returns 0 with no plan installed.
    pub fn device_entropy(&mut self) -> u64 {
        self.device.as_mut().map_or(0, FaultPlan::entropy)
    }

    /// Draws the outcome of one media path load. Always
    /// [`ReadFault::None`] with no plan installed.
    pub fn read_fault(&mut self) -> ReadFault {
        self.device
            .as_mut()
            .map_or(ReadFault::None, |p| p.read_fault())
    }

    /// Draws what the crash's device faults destroy in the round whose
    /// media programming was interrupted (`data_len`/`posmap_len` persist
    /// units), records the classified incidents for the next recovery,
    /// and returns the damaged unit indexes for the controller to apply.
    ///
    /// Draw order is fixed (data fate, posmap fate, then per-unit flips)
    /// so the schedule is deterministic in the plan's seed alone.
    pub fn draw_crash_damage(&mut self, data_len: usize, posmap_len: usize) -> RoundDamage {
        let Some(plan) = self.device.as_mut() else {
            return RoundDamage::default();
        };
        let mut damage = RoundDamage::default();
        let data_fate = plan.round_fate(data_len);
        let posmap_fate = plan.round_fate(posmap_len);
        for (fate, len, units) in [
            (data_fate, data_len, &mut damage.data_units),
            (posmap_fate, posmap_len, &mut damage.posmap_units),
        ] {
            match fate {
                RoundFate::Intact => {}
                RoundFate::Lost => units.extend(0..len),
                RoundFate::Torn { kept } => units.extend(kept..len),
                // A duplicated end signal replays idempotent slot writes:
                // no media damage, but the incident is accounted.
                RoundFate::Duplicated => {}
            }
        }
        // Bit rot strikes units that survived the fate draw.
        let mut flips = 0u64;
        for (len, units) in [
            (data_len, &mut damage.data_units),
            (posmap_len, &mut damage.posmap_units),
        ] {
            for i in 0..len {
                if plan.unit_corrupted() && !units.contains(&i) {
                    units.push(i);
                    flips += 1;
                }
            }
            units.sort_unstable();
        }
        for (fate, len) in [(data_fate, data_len), (posmap_fate, posmap_len)] {
            let class = match fate {
                RoundFate::Intact => None,
                RoundFate::Lost => Some(FaultClass::SignalLoss),
                RoundFate::Torn { .. } => Some(FaultClass::TornFlush),
                RoundFate::Duplicated => Some(FaultClass::DuplicatedSignal),
            };
            if let Some(class) = class {
                self.pending_incidents.push(RecoveryIncident {
                    class,
                    units: len as u64,
                });
            }
        }
        if flips > 0 {
            self.pending_incidents.push(RecoveryIncident {
                class: FaultClass::MediaCorruption,
                units: flips,
            });
        }
        // Freshness adversary: replay a stale version of one last-round
        // unit, and/or splice two units' records across addresses. The
        // draws always consume entropy (schedule invariance); each domain
        // draws in a fixed order: data replay, posmap replay, data
        // splice, posmap splice.
        damage.replayed_data = plan.replay_fate(data_len);
        damage.replayed_posmap = plan.replay_fate(posmap_len);
        damage.spliced_data = plan.splice_fate(data_len);
        damage.spliced_posmap = plan.splice_fate(posmap_len);
        // Replay/splice draws are *attempts*: the controller confirms the
        // ones that actually land on media (via `confirm_stale_replay` /
        // `confirm_cross_splice`), which is when the ground-truth counter
        // and the incident record are written.
        damage
    }

    /// Records that the controller applied a drawn crash-time replay:
    /// one persist unit now carries an authentic-but-stale snapshot.
    /// Counts the ground truth and files the incident for recovery.
    pub fn confirm_stale_replay(&mut self) {
        if let Some(p) = self.device.as_mut() {
            p.confirm_stale_replay();
        }
        self.pending_incidents.push(RecoveryIncident {
            class: FaultClass::StaleReplay,
            units: 1,
        });
    }

    /// Records that the controller applied a drawn cross-address splice:
    /// two persist units swapped their authentic records. Counts the
    /// ground truth and files the two-unit incident for recovery.
    pub fn confirm_cross_splice(&mut self) {
        if let Some(p) = self.device.as_mut() {
            p.confirm_cross_splice();
        }
        self.pending_incidents.push(RecoveryIncident {
            class: FaultClass::CrossSplice,
            units: 2,
        });
    }

    /// Draws a fetch-path replay attempt from the installed plan: the
    /// adversary's pick of which loaded unit to serve stale, if any.
    /// Always `None` with no plan installed, and the draw is consumed
    /// unconditionally when a plan exists (schedule invariance).
    pub fn read_replay(&mut self) -> Option<u64> {
        self.device.as_mut().and_then(FaultPlan::read_replay)
    }

    /// Confirms a drawn fetch-path replay actually served a stale unit
    /// (the pick landed on a unit with recorded history), keeping the
    /// plan's counters exact ground truth.
    pub fn confirm_read_replay(&mut self) {
        if let Some(p) = self.device.as_mut() {
            p.confirm_read_replay();
        }
    }

    // ── endurance adversary (wear) ──────────────────────────────────────

    /// Enables the endurance model over a device of `lines` media lines:
    /// per-line write counts, seeded cell budgets, and the configured
    /// leveling/retirement scheme, all under the persistence domain.
    /// Without an installed fault plan the wear engine only *accounts*
    /// (lifetime campaigns); with one, hot lines progressively fault.
    pub fn enable_wear(&mut self, seed: u64, lines: u64, cfg: WearConfig) {
        self.wear = Some(WearEngine::new(seed, lines, cfg));
    }

    /// The wear engine's accumulated counters, if enabled.
    pub fn wear_stats(&self) -> Option<WearStats> {
        self.wear.as_ref().map(WearEngine::stats)
    }

    /// The wear engine itself (metrics publication, campaign queries).
    pub fn wear_engine(&self) -> Option<&WearEngine> {
        self.wear.as_ref()
    }

    /// Digest of the durable leveling/retirement mapping, if wear is
    /// enabled — `None` otherwise, so wear-free state digests are
    /// byte-identical to pre-endurance builds.
    pub fn wear_digest(&self) -> Option<u64> {
        self.wear.as_ref().map(WearEngine::mapping_digest)
    }

    /// Draws the wear-coupled outcome of one media path load over the
    /// `addrs` the load touches. Inert (no entropy) unless both the wear
    /// engine and a fault plan are installed; the plan's own gate then
    /// keeps a wear-free fault mix schedule-identical to before.
    ///
    /// A stuck draw convicts the hottest line: under the Remap scheme
    /// with spares left it is retired (staged; durable at the next
    /// commit round) and the content repaired from the redundant copy;
    /// otherwise the device is exhausted and the caller must fail safe.
    pub fn wear_read_fault(&mut self, addrs: impl IntoIterator<Item = u64>) -> WearReadOutcome {
        let (Some(wear), Some(plan)) = (self.wear.as_mut(), self.device.as_mut()) else {
            return WearReadOutcome::None;
        };
        let (line, frac) = wear.hottest(addrs);
        match plan.wear_fault(frac) {
            ReadFault::None => WearReadOutcome::None,
            ReadFault::Transient { attempts } => WearReadOutcome::Transient { attempts },
            ReadFault::Stuck => match wear.convict(line) {
                Conviction::Retired { spare } => {
                    self.pending_incidents.push(RecoveryIncident {
                        class: FaultClass::WearOut,
                        units: 1,
                    });
                    WearReadOutcome::Retired { line, spare }
                }
                Conviction::Exhausted => WearReadOutcome::Exhausted { line },
            },
        }
    }

    /// Atomically persists the counter-tree root digest inside the
    /// current round's commit ceremony. In the model this is a single
    /// 16-byte failure-atomic register write in the persistence domain.
    pub fn persist_root(&mut self, root: [u8; 16]) {
        self.persisted_root = Some(root);
    }

    /// The most recently persisted counter-tree root, if any.
    pub fn persisted_root(&self) -> Option<[u8; 16]> {
        self.persisted_root
    }

    /// Takes the incidents drawn since the last recovery (ground truth of
    /// what the crash damaged, for the recovery report).
    pub fn take_incidents(&mut self) -> Vec<RecoveryIncident> {
        std::mem::take(&mut self.pending_incidents)
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
        let mut c = EngineControl::default();
        e.begin_round(&c).unwrap();
        e.push_data(entry(1)).unwrap();
        e.push_posmap(entry(2)).unwrap();
        e.commit_round(&mut c).unwrap();
        let (d, p) = e.drain(&mut c);
        assert_eq!(d.len(), 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn crash_discards_open_round_but_keeps_committed() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(4, 4);
        let mut c = EngineControl::default();
        e.begin_round(&c).unwrap();
        e.push_data(entry(1)).unwrap();
        e.commit_round(&mut c).unwrap();
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
        e.commit_round(&mut c).unwrap();
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
    fn no_plan_means_no_damage_and_no_read_faults() {
        let mut e = EngineControl::default();
        assert!(e.draw_crash_damage(8, 8).is_empty());
        assert_eq!(e.read_fault(), ReadFault::None);
        assert!(e.take_incidents().is_empty());
        assert!(e.fault_stats().is_none());
    }

    #[test]
    fn device_damage_is_deterministic_in_the_seed() {
        let mk = || {
            let mut e = EngineControl::default();
            e.install_fault_plan(99, FaultConfig::aggressive());
            let mut all = Vec::new();
            for _ in 0..50 {
                all.push(e.draw_crash_damage(6, 3));
            }
            (all, e.take_incidents(), e.fault_stats())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn aggressive_plan_damages_something_and_classifies_it() {
        let mut e = EngineControl::default();
        e.install_fault_plan(7, FaultConfig::aggressive());
        let mut damaged = 0usize;
        for _ in 0..100 {
            let d = e.draw_crash_damage(6, 3);
            for u in d.data_units.iter().chain(&d.posmap_units) {
                assert!(*u < 6);
                damaged += 1;
            }
        }
        assert!(damaged > 0, "aggressive mix never damaged a unit");
        let incidents = e.take_incidents();
        assert!(!incidents.is_empty());
        assert!(e.take_incidents().is_empty(), "incidents are consumed");
        assert!(e.fault_stats().unwrap().total_injected() > 0);
    }

    #[test]
    fn replay_mix_draws_replays_and_splices_in_range() {
        let mut e = EngineControl::default();
        e.install_fault_plan(11, FaultConfig::replay_mix());
        let (mut replays, mut splices) = (0u64, 0u64);
        for _ in 0..200 {
            let d = e.draw_crash_damage(6, 3);
            // Draws are attempts; the controller confirms the applied
            // ones — modeled here by confirming every draw.
            if let Some(i) = d.replayed_data {
                assert!(i < 6);
                replays += 1;
                e.confirm_stale_replay();
            }
            if let Some(i) = d.replayed_posmap {
                assert!(i < 3);
                replays += 1;
                e.confirm_stale_replay();
            }
            if let Some((i, j)) = d.spliced_data {
                assert!(i < 6 && j < 6 && i != j);
                splices += 1;
                e.confirm_cross_splice();
            }
            if let Some((i, j)) = d.spliced_posmap {
                assert!(i < 3 && j < 3 && i != j);
                splices += 1;
                e.confirm_cross_splice();
            }
        }
        assert!(replays > 0, "replay mix never replayed a unit");
        assert!(splices > 0, "replay mix never spliced a pair");
        let incidents = e.take_incidents();
        assert!(incidents.iter().any(|i| i.class == FaultClass::StaleReplay));
        assert!(incidents.iter().any(|i| i.class == FaultClass::CrossSplice));
        let stats = e.fault_stats().unwrap();
        assert_eq!(stats.stale_replays, replays);
        assert_eq!(stats.cross_splices, splices);
    }

    #[test]
    fn wear_is_inert_until_enabled_and_without_a_plan() {
        let mut e = EngineControl::default();
        assert_eq!(e.wear_digest(), None);
        assert_eq!(e.wear_read_fault([0, 64]), WearReadOutcome::None);
        e.enable_wear(
            3,
            64,
            psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::Remap),
        );
        // Wear engine alone (no fault plan): accounting only, no faults.
        assert_eq!(e.wear_read_fault([0, 64]), WearReadOutcome::None);
        assert!(e.wear_digest().is_some());
    }

    #[test]
    fn drained_writes_wear_lines_and_commit_rounds_seal_the_mapping() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(8, 8);
        let mut c = EngineControl::default();
        let mut cfg = psoram_nvm::WearConfig::paper_default(psoram_nvm::WearScheme::StartGap);
        cfg.gap_interval = 1; // every write stages a gap move
        c.enable_wear(7, 16, cfg);
        let d0 = c.wear_digest().unwrap();

        e.begin_round(&c).unwrap();
        e.push_data(entry(0)).unwrap();
        e.push_data(entry(64)).unwrap();
        e.commit_round(&mut c).unwrap();
        let round = e.drain(&mut c);
        e.keep(round);
        let stats = c.wear_stats().unwrap();
        assert_eq!(stats.gap_moves, 2);
        assert!(stats.writes_recorded >= 4, "2 drains + 2 gap copies");
        // The gap moves staged during the drain are not durable yet...
        assert_eq!(c.wear_digest().unwrap(), d0);
        // ...until the next round commits.
        e.begin_round(&c).unwrap();
        e.push_data(entry(128)).unwrap();
        e.commit_round(&mut c).unwrap();
        assert_ne!(c.wear_digest().unwrap(), d0, "commit seals the mapping");
        let round = e.drain(&mut c);
        e.keep(round);
    }

    #[test]
    fn crash_reverts_staged_mapping_but_keeps_wear_truth() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(8, 8);
        let mut c = EngineControl::default();
        let mut cfg = psoram_nvm::WearConfig::paper_default(psoram_nvm::WearScheme::StartGap);
        cfg.gap_interval = 1;
        c.enable_wear(7, 16, cfg);
        let d0 = c.wear_digest().unwrap();
        e.begin_round(&c).unwrap();
        e.push_data(entry(0)).unwrap();
        e.commit_round(&mut c).unwrap();
        let round = e.drain(&mut c);
        e.keep(round); // stages one gap move
        let writes_before = c.wear_stats().unwrap().writes_recorded;
        let _ = e.crash(&mut c);
        assert_eq!(c.wear_digest().unwrap(), d0, "crash rolls the mapping back");
        let s = c.wear_stats().unwrap();
        assert_eq!(s.map_reverts, 1);
        assert_eq!(s.writes_recorded, writes_before, "wear truth never reverts");
    }

    #[test]
    fn wear_read_fault_convicts_and_retires_under_remap() {
        let mut e = EngineControl::default();
        e.install_fault_plan(5, FaultConfig::wear_only());
        let mut cfg = psoram_nvm::WearConfig::stress(psoram_nvm::WearScheme::Remap);
        cfg.preage_writes = 2000; // every line far past its budget
        e.enable_wear(5, 16, cfg);
        let mut retired = 0;
        let mut transients = 0;
        for _ in 0..400 {
            match e.wear_read_fault([0]) {
                WearReadOutcome::Retired { .. } => retired += 1,
                WearReadOutcome::Transient { .. } => transients += 1,
                WearReadOutcome::Exhausted { .. } => break,
                WearReadOutcome::None => {}
            }
        }
        assert!(retired > 0, "past-budget line must retire");
        assert!(transients > 0, "drift failures must also fire");
        assert_eq!(e.wear_stats().unwrap().retirements, retired);
        let incidents = e.take_incidents();
        assert!(incidents.iter().any(|i| i.class == FaultClass::WearOut));
    }

    #[test]
    fn root_register_holds_the_last_persisted_root() {
        let mut e: PersistEngine<u32, u32> = PersistEngine::new(4, 4);
        let mut c = EngineControl::default();
        assert_eq!(c.persisted_root(), None);
        c.persist_root([1u8; 16]);
        c.persist_root([2u8; 16]);
        assert_eq!(c.persisted_root(), Some([2u8; 16]));
        // The register is in the persistence domain: a crash keeps it.
        let _ = e.crash(&mut c);
        assert_eq!(c.persisted_root(), Some([2u8; 16]));
    }

    #[test]
    fn read_replay_is_inert_without_a_plan() {
        let mut e = EngineControl::default();
        assert_eq!(e.read_replay(), None);
        e.confirm_read_replay(); // no plan: a no-op
        assert!(e.fault_stats().is_none());
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

//! The device side of a controller: the adversary that attacks its media
//! and the defence that convicts the damage. Neither is protocol, so both
//! live here, once, over the [`SlotArena`] and [`PosMap`] every tree ORAM
//! in this crate sits on.
//!
//! The *adversary* is the installed [`FaultPlan`], which every device draw
//! comes from, the [`WearEngine`] beneath the persistence domain, and their
//! hands: the snapshot store of previous unit versions ([`UnitHistory`]),
//! the record of which units the last applied round programmed, the
//! crash-time damage ([`DeviceSide::strike`]: bit flips, replays, splices,
//! each filed as an incident for the next recovery) and the stale serve on
//! the read wire. The *defence* is [`AuthTags`] — the per-unit records, the
//! trusted counter tree and the root anchored over it — with the guards a
//! fetch runs before it admits what the device delivered. A controller's
//! shell holds one `DeviceSide`; every slot unit a round programs reaches
//! the arena through [`DeviceSide::program`] and every PosMap entry through
//! [`DeviceSide::flush`], which keep the snapshots, the unit lists and the
//! records in step with the media, and a fetch calls the guards. Of the
//! controller's [`EngineControl`] the device side borrows only the tap and
//! the fail-safe latch. A controller carries no fault-handling code of its
//! own.

use psoram_nvm::{
    Conviction, FaultClass, FaultConfig, FaultPlan, FaultStats, ReadFault, RoundFate, WearEngine,
};
use psoram_obsv::{DeviceFaultKind, Event};

use super::{fault_kind, EngineControl, FrameCell};
use crate::arena::SlotArena;
use crate::auth::{AuthTags, FreshnessStats, SlotUnit, StaleServe, UnitHistory};
use crate::block::{Block, BlockRef};
use crate::crash::RecoveryIncident;
use crate::posmap::{PosMap, TempPosMap};
use crate::types::{BlockAddr, Leaf, OramError};

/// Cycles one re-issued media read costs; retry `k` backs off `<< k`.
const REISSUE_CYCLES: u64 = 400;

/// Whether the units of a call join the list of the round a power
/// failure can land on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Listing {
    /// They join the open list: that of the round the last drain opened,
    /// or of the direct write-back a [`Listing::Start`] began.
    Join,
    /// A write-back that bypasses the queues (the designs without a
    /// persistence domain) is a round of its own: they start its list.
    Start,
    /// Dummy slots rewritten behind a committed round: snapshotted and
    /// recorded like any overwrite, but no unit of the round — they carry
    /// nothing a torn flush could lose.
    Apart,
}

/// A PosMap entry on its way to the persisted map: `addr → leaf`.
pub(crate) type PosMapFlush = (BlockAddr, Leaf);

/// The adversary — its fault plan, its wear engine and their hands on a
/// controller's media — and the integrity layer that answers it.
#[derive(Debug, Default)]
pub(crate) struct DeviceSide {
    /// On-chip CMAC records, trusted counters and the root anchored over
    /// them: the defence. Present only once [`DeviceSide::arm`] hardened
    /// the design.
    pub auth: Option<AuthTags>,
    /// The seeded fault plan every device draw comes from, once
    /// [`DeviceSide::arm`] made the backend adversarial: rounds are then
    /// recorded.
    plan: Option<FaultPlan>,
    /// Endurance bookkeeping beneath the persistence domain, once the
    /// device is made to wear. The shell's round frames program, commit and
    /// revert its mapping (`engine::commit_and_apply`, `engine::power_fail`).
    pub wear: Option<WearEngine>,
    /// Incidents the adversary filed since the last recovery: the ground
    /// truth of what it damaged, for the recovery report.
    incidents: Vec<RecoveryIncident>,
    /// The adversary's snapshot store: the previous version of every
    /// persist unit, recorded on overwrite. Present on *every* armed
    /// design whose plan can replay (baselines are replayed too, they
    /// just cannot tell).
    history: Option<UnitHistory>,
    /// Fetch-path freshness counters: stale serves injected on the read
    /// wire and how many the hardened verifier caught.
    freshness: FreshnessStats,
    /// Tree slots of the most recently applied round — the units whose
    /// media programming an untimely power failure interrupts.
    round_slots: Vec<(u64, usize)>,
    /// Persisted PosMap entries of that round (same role).
    round_posmap: Vec<BlockAddr>,
}

impl DeviceSide {
    /// Makes the backend adversarial: installs the seeded fault plan and,
    /// if the plan can replay, the snapshot store. A `hardened` design
    /// additionally gets the integrity layer — CMAC records over every
    /// slot already on media and every persisted PosMap entry (written
    /// before hardening, trusted as-is, covered from here on), a seal over
    /// the temporary PosMap, and the counter-tree root anchored in the
    /// persistence domain before the first adversarial round. Records
    /// cover slot *content* only: Ring's valid bits and counts mutate
    /// outside persist rounds. Arming touches no queue: the WPQs hold
    /// entries only, and the units a crash can damage are listed by
    /// [`DeviceSide::program`] and [`DeviceSide::flush`] and struck by one
    /// model, [`DeviceSide::strike`].
    pub fn arm(
        &mut self,
        seed: u64,
        cfg: FaultConfig,
        hardened: bool,
        (arena, posmap, temp): (&SlotArena, &PosMap, &TempPosMap),
    ) {
        self.plan = Some(FaultPlan::new(seed, cfg));
        self.history = cfg.replays_stale_units().then(UnitHistory::default);
        if !hardened {
            return;
        }
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..].copy_from_slice(&seed.rotate_left(17).to_le_bytes());
        key[0] ^= 0xA7;
        let mut auth = AuthTags::new(&key);
        for (idx, bucket) in arena.iter() {
            auth.record_slots(bucket.slots().enumerate().map(|(s, slot)| (idx, s, slot)));
        }
        for (a, l) in posmap.persisted_sorted() {
            auth.record_posmap(a, l);
        }
        auth.seal_temp(temp.entries());
        auth.anchor();
        self.auth = Some(auth);
    }

    /// Ground-truth injection counters of the installed plan, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.plan.as_ref().map(FaultPlan::stats)
    }

    /// Fetch-path freshness counters: stale units the adversary served on
    /// the read wire, and how many the hardened verifier detected.
    pub fn freshness_stats(&self) -> FreshnessStats {
        self.freshness
    }

    /// `true` when the snapshot store exists: only under a plan that can
    /// ever re-serve what it snapshots.
    #[cfg(test)]
    pub fn replays(&self) -> bool {
        self.history.is_some()
    }

    /// Takes the incidents filed since the last recovery.
    pub fn take_incidents(&mut self) -> Vec<RecoveryIncident> {
        std::mem::take(&mut self.incidents)
    }

    // ── what a round tells it ───────────────────────────────────────────

    /// Programs slot units into the arena — `buckets` names each bucket
    /// the call writes with its `(slot, content)` pairs, a dummy where the
    /// content is `None` — in the order the adversary and the defence
    /// depend on: every unit is snapshotted *before* it is overwritten (the
    /// coherent stale `(content, record)` pair a replay re-serves; only
    /// under a plan that can replay) and listed as `listing` says, then the
    /// records are made side by side (hardened designs; the units of a call
    /// are distinct, so every snapshot saw what a unit-by-unit pass would
    /// have shown it), then the arena is written, a bucket's page found
    /// once for its slots.
    pub fn program<'a, S>(
        &mut self,
        arena: &mut SlotArena,
        buckets: impl Iterator<Item = (u64, S)> + Clone,
        listing: Listing,
    ) where
        S: Iterator<Item = (usize, Option<BlockRef<'a>>)> + Clone,
    {
        if listing == Listing::Start {
            self.round_slots.clear();
        }
        if self.plan.is_some() {
            for (bucket, slot, _) in units(buckets.clone()) {
                if let Some(history) = self.history.as_mut() {
                    let content = arena.slot(bucket, slot).map(|b| b.to_block());
                    let record = self.auth.as_ref().and_then(|a| a.slot_record(bucket, slot));
                    history.note_slot(bucket, slot, (content, record));
                }
                if listing != Listing::Apart {
                    self.round_slots.push((bucket, slot));
                }
            }
        }
        if let Some(auth) = &mut self.auth {
            auth.record_slots(units(buckets.clone()));
        }
        for (bucket, slots) in buckets {
            let mut open = arena.bucket_mut(bucket);
            for (slot, content) in slots {
                open.set(slot, content);
            }
        }
    }

    /// A drained round that carries anything becomes the one whose media
    /// programming a crash would interrupt: both unit lists start over.
    pub fn open_round(&mut self, units: usize) {
        if units > 0 {
            self.round_slots.clear();
            self.round_posmap.clear();
        }
    }

    /// Lists `(bucket, slot)` as a unit of the round being applied.
    #[cfg(test)]
    pub fn push_slot(&mut self, bucket: u64, slot: usize) {
        if self.plan.is_some() {
            self.round_slots.push((bucket, slot));
        }
    }

    /// Flushes `entries` — `addr → leaf` — into the persisted PosMap, in
    /// the order the adversary and the defence depend on: the entry each
    /// replaces is snapshotted first, the new one persisted, recorded
    /// (hardened designs) and listed (a [`Listing::Start`] begins the list
    /// of a direct write-back with them), and its temporary entry retired;
    /// then, if anything was flushed, the temporary PosMap is resealed, and
    /// the counter-tree root is anchored over the records as they now
    /// stand. Returns the number of entries flushed.
    pub fn flush(
        &mut self,
        (posmap, temp): (&mut PosMap, &mut TempPosMap),
        entries: impl Iterator<Item = PosMapFlush>,
        listing: Listing,
    ) -> u64 {
        if listing == Listing::Start {
            self.round_posmap.clear();
        }
        let mut flushed = 0;
        for (addr, leaf) in entries {
            if let Some(history) = self.history.as_mut() {
                let record = self.auth.as_ref().and_then(|a| a.posmap_record(addr.0));
                history.note_posmap(addr.0, posmap.persisted_get(addr), record);
            }
            posmap.persist(addr, leaf);
            if let Some(auth) = &mut self.auth {
                auth.record_posmap(addr.0, leaf.0);
            }
            if self.plan.is_some() {
                self.round_posmap.push(addr);
            }
            temp.remove(addr);
            flushed += 1;
        }
        if flushed > 0 {
            self.seal_temp(temp);
        }
        self.anchor_root();
        flushed
    }

    /// Reseals the temporary PosMap (hardened designs) after it changed.
    #[inline]
    pub fn seal_temp(&mut self, temp: &TempPosMap) {
        if let Some(auth) = &mut self.auth {
            auth.seal_temp(temp.entries());
        }
    }

    /// Authenticates the temporary PosMap before a round trusts it for
    /// its dirty entries: a seal mismatch means the metadata the round is
    /// about to persist is corrupt, and persisting it would silently
    /// poison the recovery path.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`], latched, on a mismatch.
    #[inline]
    pub fn check_temp(&self, ctl: &mut EngineControl, temp: &TempPosMap) -> Result<(), OramError> {
        match &self.auth {
            Some(auth) if !auth.verify_temp(temp.entries()) => {
                Err(poison(ctl, FaultClass::MediaCorruption))
            }
            _ => Ok(()),
        }
    }

    /// Anchors the counter-tree root in the persistence domain: it rides
    /// the same failure-atomic commit as the round's data, so replaying
    /// any unit of an earlier round leaves its counter behind the root.
    #[inline]
    pub fn anchor_root(&mut self) {
        if let Some(auth) = &mut self.auth {
            auth.anchor();
        }
    }

    // ── the crash ───────────────────────────────────────────────────────

    /// The power failure interrupts the media programming of the last
    /// applied round (including anything the ADR flush just applied): the
    /// plan draws the round's damage ([`draw_crash_damage`]), then torn
    /// flushes, lost signals and bit rot land on those units, then the
    /// freshness adversary's replays and splices, each filed as it lands.
    /// Records are deliberately *not* refreshed — this is the adversary
    /// writing behind the controller's back. Nothing here materialises a
    /// bucket.
    pub fn strike(&mut self, arena: &mut SlotArena, posmap: &mut PosMap) {
        let Some(plan) = self.plan.as_mut() else {
            return;
        };
        let units = (self.round_slots.len(), self.round_posmap.len());
        let damage = draw_crash_damage(plan, units, &mut self.incidents);
        for &i in &damage.data_units {
            let (bucket, slot) = self.round_slots[i];
            // Torn programming of a dummy slot has no observable content
            // to corrupt (and draws no entropy).
            let Some(mut bucket) = arena.bucket_mut_if_present(bucket) else {
                continue;
            };
            let Some((header, payload)) = bucket.cell_mut(slot) else {
                continue;
            };
            let e = plan.entropy();
            if payload.is_empty() {
                header.iv1 ^= 1 | e;
            } else {
                payload[e as usize % payload.len()] ^= 1 << ((e >> 32) & 7);
            }
        }
        for &i in &damage.posmap_units {
            posmap.corrupt_persisted(self.round_posmap[i], plan.entropy());
        }

        // Replays restore a unit's recorded previous `(content, record)`
        // pair wholesale (coherent but stale — only the trusted counter
        // can tell). Applied after the bit flips, so a replay also
        // overwrites any flip that landed on the same unit.
        let restored_slot = damage.replayed_data.and_then(|i| {
            let (bucket, slot) = self.round_slots[i];
            let (content, record) = self.history.as_ref()?.slot(bucket, slot)?.clone();
            set_slot(arena, (bucket, slot), content.as_ref());
            if let Some(auth) = self.auth.as_mut() {
                auth.set_slot_record(bucket, slot, record);
            }
            plan.confirm_stale_replay();
            self.incidents.push(REPLAYED);
            Some((bucket, slot))
        });
        let restored_addr = damage.replayed_posmap.and_then(|i| {
            let addr = self.round_posmap[i];
            let (leaf, record) = *self.history.as_ref()?.posmap(addr.0)?;
            posmap.overwrite_persisted(addr, leaf);
            if let Some(auth) = self.auth.as_mut() {
                auth.set_posmap_record(addr.0, record);
            }
            plan.confirm_stale_replay();
            self.incidents.push(REPLAYED);
            Some(addr)
        });

        // Splices swap two authentic units across addresses. A splice is
        // only coherent when both ends are distinct units that still
        // carry authentic records: a drawn pair that collapses onto one
        // media unit, or an end that was bit-rotted (unless the replay
        // above just overwrote the rot wholesale), is a no-op the plan
        // never counts — what lands is the ground truth.
        if let Some((i, j)) = damage.spliced_data {
            let (u1, u2) = (self.round_slots[i], self.round_slots[j]);
            let rotted = |u: (u64, usize)| {
                restored_slot != Some(u)
                    && (damage.data_units.iter()).any(|&k| self.round_slots[k] == u)
            };
            if u1 != u2 && !rotted(u1) && !rotted(u2) {
                let c1 = arena.slot(u1.0, u1.1).map(|b| b.to_block());
                let c2 = arena.slot(u2.0, u2.1).map(|b| b.to_block());
                set_slot(arena, u1, c2.as_ref());
                set_slot(arena, u2, c1.as_ref());
                if let Some(auth) = self.auth.as_mut() {
                    let (r1, r2) = (auth.slot_record(u1.0, u1.1), auth.slot_record(u2.0, u2.1));
                    auth.set_slot_record(u1.0, u1.1, r2);
                    auth.set_slot_record(u2.0, u2.1, r1);
                }
                plan.confirm_cross_splice();
                self.incidents.push(SPLICED);
            }
        }
        if let Some((i, j)) = damage.spliced_posmap {
            let (a1, a2) = (self.round_posmap[i], self.round_posmap[j]);
            let rotted = |a: BlockAddr| {
                restored_addr != Some(a)
                    && (damage.posmap_units.iter()).any(|&k| self.round_posmap[k] == a)
            };
            if a1 != a2 && !rotted(a1) && !rotted(a2) {
                let (l1, l2) = (posmap.persisted_get(a1), posmap.persisted_get(a2));
                posmap.overwrite_persisted(a1, l2);
                posmap.overwrite_persisted(a2, l1);
                if let Some(auth) = self.auth.as_mut() {
                    let (r1, r2) = (auth.posmap_record(a1.0), auth.posmap_record(a2.0));
                    auth.set_posmap_record(a1.0, r2);
                    auth.set_posmap_record(a2.0, r1);
                }
                plan.confirm_cross_splice();
                self.incidents.push(SPLICED);
            }
        }
    }

    // ── the four guards of a fetch ──────────────────────────────────────

    /// Transient media read errors: bounded retry with exponential
    /// backoff re-issues the load; a stuck line exhausts the retries and
    /// latches the fail-safe poisoned state. Returns the advanced clock.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`] on a stuck line.
    #[inline]
    pub fn read_fault(&mut self, ctl: &mut EngineControl, t: u64) -> Result<u64, OramError> {
        let fault = self
            .plan
            .as_mut()
            .map_or(ReadFault::None, FaultPlan::read_fault);
        match fault {
            ReadFault::None => Ok(t),
            ReadFault::Transient { attempts } => {
                Ok(retried(ctl, DeviceFaultKind::TransientRead, attempts, t))
            }
            ReadFault::Stuck => Err(poison(ctl, FaultClass::TransientRead)),
        }
    }

    /// The freshness adversary's draw for one fetch: its pick of a slot
    /// to serve stale, if any, which [`DeviceSide::serve_stale`] lands once
    /// the slots being read are known. `None` without a plan; with one,
    /// the draw is consumed whether or not it lands (schedule invariance).
    #[inline]
    pub fn read_replay(&mut self) -> Option<u64> {
        self.plan.as_mut().and_then(FaultPlan::read_replay)
    }

    /// The freshness adversary on the read wire: the device may serve one
    /// of the slots being read (`cells`, in read order) from an
    /// authentic-but-stale snapshot it recorded before the last
    /// overwrite. `pick` is [`DeviceSide::read_replay`]'s draw; it only
    /// lands, and is counted, when a slot being read has recorded history.
    #[inline]
    pub fn serve_stale(&mut self, pick: Option<u64>, cells: &[FrameCell]) -> Option<StaleServe> {
        let read = cells.iter().map(|c| (c.bucket, c.slot));
        let served = self.history.as_ref()?.stale_serve(read, pick?)?;
        if let Some(plan) = self.plan.as_mut() {
            plan.confirm_read_replay();
        }
        self.freshness.stale_serves += 1;
        Some(served)
    }

    /// The endurance adversary: the hottest line among `addrs` may fail
    /// with probability scaling in its consumed write budget — inert (no
    /// entropy) unless both the wear engine and a plan are installed, and
    /// the plan's own gate keeps a wear-free mix schedule-identical. Drift
    /// failures retry like transient glitches; a stuck conviction retires
    /// the line onto a spare (staged; durable at the next commit round),
    /// files the incident and repairs the line from the redundant copy (one
    /// read and one write round trip on top of the detection), or — spare
    /// pool dry — latches the fail-safe poisoned state rather than serve
    /// stuck bits. Returns the advanced clock.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`] when no spare is left.
    #[inline]
    pub fn wear_read_fault(
        &mut self,
        ctl: &mut EngineControl,
        addrs: impl IntoIterator<Item = u64>,
        t: u64,
    ) -> Result<u64, OramError> {
        let (Some(wear), Some(plan)) = (self.wear.as_mut(), self.plan.as_mut()) else {
            return Ok(t);
        };
        let (line, frac) = wear.hottest(addrs);
        match plan.wear_fault(frac) {
            ReadFault::None => Ok(t),
            ReadFault::Transient { attempts } => {
                Ok(retried(ctl, DeviceFaultKind::WearOut, attempts, t))
            }
            ReadFault::Stuck => match wear.convict(line) {
                Conviction::Retired { spare } => {
                    self.incidents.push(RecoveryIncident {
                        class: FaultClass::WearOut,
                        units: 1,
                    });
                    let t = detected(ctl, DeviceFaultKind::WearOut, 1, t + 2 * REISSUE_CYCLES);
                    ctl.tap.emit(|| Event::LineRetired {
                        line,
                        spare,
                        cycle: t,
                    });
                    Ok(t)
                }
                Conviction::Exhausted => Err(poison(ctl, FaultClass::WearOut)),
            },
        }
    }

    /// Hardened freshness verification of a fetch: every slot read — and
    /// whatever the wire `served` in place of one — must classify Clean
    /// against the on-chip counters before its block is admitted. The
    /// CMAC checks overlap the read pipeline, so only *detections* cost
    /// cycles: a stale serve caught on the wire is cleared (the true copy
    /// is read instead) for one re-issue round trip. Returns the advanced
    /// clock; a no-op on an unhardened design, which consumes what the
    /// wire delivered.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`] when *stored* state fails freshness outside
    /// a recovery pass: nothing read can be trusted — fail safe rather
    /// than serve it.
    #[inline]
    pub fn verify_fetched(
        &mut self,
        ctl: &mut EngineControl,
        arena: &SlotArena,
        cells: &[FrameCell],
        served: &mut Option<StaleServe>,
        t: u64,
    ) -> Result<u64, OramError> {
        let Some(auth) = &self.auth else {
            return Ok(t);
        };
        // The frame lists a bucket's slots together: its view is taken
        // once per run.
        let stored = cells.chunk_by(|a, b| a.bucket == b.bucket).flat_map(|run| {
            let on_media = arena.bucket(run[0].bucket);
            run.iter()
                .map(move |c| (c.bucket, c.slot, on_media.and_then(|b| b.slot(c.slot))))
        });
        let (convicted, wire) = auth.verdict_fetched(stored, served.as_ref());
        if let Some(class) = convicted {
            self.freshness.fetch_poisons += 1;
            return Err(poison(ctl, class));
        }
        let Some(class) = wire.fault_class() else {
            return Ok(t);
        };
        self.freshness.stale_serves_detected += 1;
        *served = None;
        Ok(detected(ctl, fault_kind(class), 1, t + REISSUE_CYCLES))
    }
}

/// What a crash's device faults destroyed in the round whose media
/// programming the power failure interrupted. Indexes refer to the device
/// side's lists of the last applied round's persist units.
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

/// A replay that landed on one unit, as the next recovery is told of it.
const REPLAYED: RecoveryIncident = RecoveryIncident {
    class: FaultClass::StaleReplay,
    units: 1,
};

/// A splice that landed on a pair of units.
const SPLICED: RecoveryIncident = RecoveryIncident {
    class: FaultClass::CrossSplice,
    units: 2,
};

/// Draws from `plan` what a crash destroys in the round whose media
/// programming it interrupted — `data_len` slots and `posmap_len` PosMap
/// entries — and files the classified round fates and bit rot in
/// `incidents`. The whole damage is drawn before [`DeviceSide::strike`]
/// applies any of it, in a fixed order (data fate, PosMap fate, per-unit
/// flips, then the replay and splice attempts), so it is deterministic in
/// the plan's seed alone. A replay or splice drawn here is an attempt: it
/// is counted and filed only where the strike lands it.
pub(crate) fn draw_crash_damage(
    plan: &mut FaultPlan,
    (data_len, posmap_len): (usize, usize),
    incidents: &mut Vec<RecoveryIncident>,
) -> RoundDamage {
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
            // A duplicated end signal replays idempotent slot writes: no
            // media damage, but the incident is accounted.
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
            incidents.push(RecoveryIncident {
                class,
                units: len as u64,
            });
        }
    }
    if flips > 0 {
        incidents.push(RecoveryIncident {
            class: FaultClass::MediaCorruption,
            units: flips,
        });
    }
    // The freshness adversary: replay a stale version of one last-round
    // unit, and/or splice two units' records across addresses. The draws
    // always consume entropy (schedule invariance), in a fixed order: data
    // replay, PosMap replay, data splice, PosMap splice.
    damage.replayed_data = plan.replay_fate(data_len);
    damage.replayed_posmap = plan.replay_fate(posmap_len);
    damage.spliced_data = plan.splice_fate(data_len);
    damage.spliced_posmap = plan.splice_fate(posmap_len);
    damage
}

/// Overwrites a slot of a materialised bucket behind the controller's
/// back; an absent bucket stays absent.
fn set_slot(arena: &mut SlotArena, (bucket, slot): (u64, usize), content: Option<&Block>) {
    if let Some(mut bucket) = arena.bucket_mut_if_present(bucket) {
        bucket.set(slot, content.map(Block::view));
    }
}

/// A bucket of which a [`DeviceSide::program`] call writes the one slot.
pub(crate) fn lone<'a>(
    (bucket, slot, content): SlotUnit<'a>,
) -> (u64, std::iter::Once<(usize, Option<BlockRef<'a>>)>) {
    (bucket, std::iter::once((slot, content)))
}

/// The units of a [`DeviceSide::program`] call, bucket by bucket.
fn units<'a, S>(buckets: impl Iterator<Item = (u64, S)>) -> impl Iterator<Item = SlotUnit<'a>>
where
    S: Iterator<Item = (usize, Option<BlockRef<'a>>)>,
{
    buckets.flat_map(|(bucket, slots)| slots.map(move |(slot, content)| (bucket, slot, content)))
}

/// Latches the fail-safe state and names it to the caller.
fn poison(ctl: &mut EngineControl, class: FaultClass) -> OramError {
    ctl.poison(class);
    OramError::Poisoned { class }
}

/// Stamps a detection at cycle `t` and returns `t`.
fn detected(ctl: &EngineControl, kind: DeviceFaultKind, units: u64, t: u64) -> u64 {
    ctl.tap.set_now(t);
    ctl.tap.emit(|| Event::FaultDetected {
        kind,
        units,
        cycle: t,
    });
    t
}

/// A load that went through after `attempts` backed-off re-issues.
fn retried(ctl: &EngineControl, kind: DeviceFaultKind, attempts: u32, t: u64) -> u64 {
    let backoff: u64 = (0..attempts).map(|k| REISSUE_CYCLES << k).sum();
    detected(ctl, kind, u64::from(attempts), t + backoff)
}

#[cfg(test)]
mod tests {
    use psoram_nvm::{WearConfig, WearScheme};

    use super::super::recover::tests::seed_where;
    use super::*;
    use crate::engine::ProtocolPolicy;
    use crate::testkit::Toy;

    /// Every round is lost; nothing is replayed or spliced.
    fn all_lost() -> FaultConfig {
        FaultConfig {
            signal_loss: 1.0,
            ..FaultConfig::disabled()
        }
    }

    /// A device side armed with the plan `(seed, cfg)`, over no media.
    fn armed(seed: u64, cfg: FaultConfig) -> DeviceSide {
        DeviceSide {
            plan: Some(FaultPlan::new(seed, cfg)),
            ..DeviceSide::default()
        }
    }

    /// The damage `device`'s plan draws for a crash over a round of
    /// `units` (slots, PosMap entries), filed as a strike files it.
    fn draw(device: &mut DeviceSide, units: (usize, usize)) -> RoundDamage {
        let plan = device.plan.as_mut().expect("armed");
        draw_crash_damage(plan, units, &mut device.incidents)
    }

    /// The durable leveling mapping of a toy that wears.
    fn mapping(toy: &Toy) -> u64 {
        toy.shell
            .device
            .wear
            .as_ref()
            .expect("wears")
            .mapping_digest()
    }

    /// A Start-Gap engine that stages a gap move on every write.
    fn gap_every_write() -> WearConfig {
        let mut cfg = WearConfig::paper_default(WearScheme::StartGap);
        cfg.gap_interval = 1;
        cfg
    }

    #[test]
    fn the_applier_snapshots_before_it_overwrites_lists_what_it_programs_and_anchors_last() {
        let mut device = DeviceSide::default();
        let mut arena = SlotArena::new(2, 8);
        let (mut posmap, mut temp) = (PosMap::new(8, 1), TempPosMap::new(4));
        let media = (&arena, &posmap, &temp);
        device.arm(7, FaultConfig::replay_mix(), true, media);
        let block = |a, leaf, seq, fill| {
            let mut b = Block::new(BlockAddr(a), Leaf(leaf), vec![fill; 8]);
            b.header.seq = seq;
            b
        };
        let (a0, a1, a3) = (BlockAddr(0), BlockAddr(1), BlockAddr(3));

        // Round 1 puts a first version of two addresses on media.
        let (old0, old1) = (block(0, 2, 1, 0x11), block(1, 3, 2, 0x22));
        device.open_round(4);
        let units = [(2, 0, Some(old0.view())), (3, 1, Some(old1.view()))];
        device.program(&mut arena, units.into_iter().map(lone), Listing::Join);
        let entries = [(a0, Leaf(2)), (a1, Leaf(3))];
        let maps = (&mut posmap, &mut temp);
        assert_eq!(device.flush(maps, entries.into_iter(), Listing::Join), 2);
        let auth = device.auth.as_ref().expect("hardened");
        let before = (
            auth.slot_record(2, 0),
            auth.slot_record(3, 1),
            auth.posmap_record(0),
        );
        let root_before = auth.root();
        assert_eq!(auth.anchored(), root_before);

        // Round 2 overwrites one of those slots, re-points its address and
        // rewrites the other slot as a dummy behind the commit; a third
        // address stays dirty.
        temp.insert(a0, Leaf(5)).unwrap();
        temp.insert(a3, Leaf(1)).unwrap();
        let new0 = block(0, 5, 3, 0x33);
        device.open_round(2);
        let units = [(2, 0, Some(new0.view()))];
        device.program(&mut arena, units.into_iter().map(lone), Listing::Join);
        device.program(&mut arena, [lone((3, 1, None))].into_iter(), Listing::Apart);
        let maps = (&mut posmap, &mut temp);
        device.flush(maps, [(a0, Leaf(5))].into_iter(), Listing::Join);

        // The snapshot store holds what each unit was *before* the write.
        let history = device.history.as_ref().expect("a plan that replays");
        assert_eq!(history.slot(2, 0), Some(&(Some(old0), before.0)));
        assert_eq!(history.slot(3, 1), Some(&(Some(old1), before.1)));
        assert_eq!(history.posmap(0), Some(&(Leaf(2), before.2)));
        assert_eq!(
            history.posmap(1).map(|h| h.1),
            Some(None),
            "never overwritten"
        );
        // The lists name exactly the round's units: not the trailing dummy.
        assert_eq!(device.round_slots, [(2, 0)]);
        assert_eq!(device.round_posmap, [a0]);
        // The media, the records, the seal and the root are those of the
        // state after the flush.
        let auth = device.auth.as_ref().expect("hardened");
        assert_eq!(arena.slot(2, 0).map(|b| b.to_block()), Some(new0.clone()));
        assert!(arena.slot(3, 1).is_none());
        assert!(auth.verify_slot(2, 0, Some(new0.view())) && auth.verify_slot(3, 1, None));
        assert_eq!(posmap.persisted_get(a0), Leaf(5));
        assert!(auth.verify_posmap(0, 5));
        assert_eq!(
            (temp.get(a0), temp.get(a3)),
            (None, Some(Leaf(1))),
            "retired"
        );
        assert!(
            auth.verify_temp(temp.entries()),
            "resealed after the retirement"
        );
        assert_ne!(auth.root(), root_before);
        assert_eq!(auth.anchored(), auth.root());

        // A direct write-back is a round of its own: its list starts over.
        device.program(
            &mut arena,
            [lone((4, 0, Some(new0.view())))].into_iter(),
            Listing::Start,
        );
        assert_eq!(
            (&device.round_slots[..], &device.round_posmap[..]),
            (&[(4, 0)][..], &[a0][..])
        );
    }

    #[test]
    fn a_crash_damages_only_the_round_it_interrupts() {
        let mut toy = Toy::default();
        toy.enable_device_faults(3, all_lost());
        let view = |toy: &Toy, (bucket, slot): (u64, usize), addr: u64| {
            let auth = toy.shell.device.auth.as_ref().expect("hardened");
            (
                toy.arena.slot(bucket, slot).map(|b| b.to_block()),
                auth.slot_record(bucket, slot),
                toy.shell.posmap.persisted_get(BlockAddr(addr)),
                auth.posmap_record(addr),
            )
        };
        let first = toy.write(&[0], 3)[0];
        let second = toy.write(&[1], 4)[0];
        assert_ne!(first.0, second.0, "the two rounds share no bucket");
        let (first_before, second_before) = (view(&toy, first, 0), view(&toy, second, 1));
        toy.crash_now();
        assert_eq!(view(&toy, first, 0), first_before, "round 1 is untouched");
        let second_after = view(&toy, second, 1);
        assert_ne!(second_after.0, second_before.0, "round 2's slot is lost");
        assert_ne!(second_after.2, second_before.2, "and its PosMap entry");
    }

    #[test]
    fn a_torn_dummy_slot_draws_no_entropy_and_a_strike_materialises_nothing() {
        let mut toy = Toy::default();
        toy.write(&[1], 3);
        toy.enable_device_faults(5, all_lost());
        let written = toy.write(&[0], 4);
        // The same round also programmed a dummy slot of that bucket and
        // (as a direct rewrite of an untouched path would) one of a bucket
        // nothing ever materialised.
        let (bucket, slot) = written[0];
        assert!(toy.arena.slot(bucket, 1 - slot).is_none());
        toy.shell.device.push_slot(bucket, 1 - slot);
        toy.shell.device.push_slot(77, 0);
        let before = toy.arena.materialized_buckets();
        toy.crash_now();
        assert_eq!(toy.arena.materialized_buckets(), before);
        assert!(toy.arena.bucket(77).is_none());
        // Entropy pins the call count: a twin plan that draws the same
        // round's damage and then exactly two flips — the one real slot,
        // the one PosMap entry — is in step with the struck one.
        let mut twin = FaultPlan::new(5, all_lost());
        let damage = draw_crash_damage(&mut twin, (3, 1), &mut Vec::new());
        assert_eq!((damage.data_units.len(), damage.posmap_units.len()), (3, 1));
        twin.entropy();
        twin.entropy();
        let struck = toy.shell.device.plan.as_mut().expect("armed");
        assert_eq!(struck.entropy(), twin.entropy());
    }

    #[test]
    fn a_splice_lands_only_between_two_distinct_units_with_authentic_records() {
        let spliced = |toy: &Toy| toy.shell.device.fault_stats().expect("armed").cross_splices;
        let splice_only = FaultConfig {
            cross_splice: 1.0,
            ..FaultConfig::disabled()
        };
        // Two distinct intact units: the splice lands and the contents
        // swap (as do the two addresses' PosMap entries).
        let mut toy = Toy::default();
        toy.enable_device_faults(1, splice_only);
        let w = toy.write(&[0, 1], 3);
        toy.crash_now();
        assert_eq!(spliced(&toy), 2, "the slot pair and the PosMap pair");
        let holder = |(b, s): (u64, usize)| toy.arena.slot(b, s).map(|b| b.addr().0);
        assert_eq!((holder(w[0]), holder(w[1])), (Some(1), Some(0)));
        assert_eq!(toy.recover().splices_detected, 4, "every end is convicted");

        // Both ends of the drawn pair are one media unit: a no-op.
        let mut toy = Toy::default();
        toy.enable_device_faults(1, splice_only);
        let w = toy.write(&[0], 3);
        toy.shell.device.push_slot(w[0].0, w[0].1);
        let before = toy.state_digest();
        toy.crash_now();
        assert_eq!((spliced(&toy), toy.state_digest()), (0, before));

        // A bit-rotted end carries no authentic record any more: a no-op,
        // unless a replay restored that end wholesale first. (Two versions
        // of one address in the round: its PosMap pair always collapses.)
        let rot_replay_splice = FaultConfig {
            bit_flip_per_unit: 0.5,
            stale_replay: 1.0,
            ..splice_only
        };
        for restored in [false, true] {
            let seed = seed_where(rot_replay_splice, (2, 2), |d| {
                d.data_units.len() == 1
                    && d.spliced_data.is_some()
                    && d.replayed_data
                        .is_some_and(|i| (i == d.data_units[0]) == restored)
            });
            let mut toy = Toy::default();
            toy.write(&[0, 0], 3);
            toy.enable_device_faults(seed, rot_replay_splice);
            toy.write(&[0, 0], 4);
            toy.crash_now();
            assert_eq!(spliced(&toy), u64::from(restored), "restored={restored}");
        }
    }

    #[test]
    fn no_plan_means_no_damage_and_no_read_faults() {
        let mut toy = Toy::default();
        toy.write(&[0, 1], 3);
        let before = toy.state_digest();
        toy.crash_now();
        assert_eq!(
            toy.state_digest(),
            before,
            "a crash without a plan damages nothing"
        );
        let (device, ctl) = (&mut toy.shell.device, &mut toy.shell.ctl);
        assert_eq!(device.read_fault(ctl, 5), Ok(5));
        assert!(device.take_incidents().is_empty());
        assert!(device.fault_stats().is_none());
    }

    #[test]
    fn device_damage_is_deterministic_in_the_seed() {
        let mk = || {
            let mut device = armed(99, FaultConfig::aggressive());
            let all: Vec<RoundDamage> = (0..50).map(|_| draw(&mut device, (6, 3))).collect();
            (all, device.take_incidents(), device.fault_stats())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn aggressive_plan_damages_something_and_classifies_it() {
        let mut device = armed(7, FaultConfig::aggressive());
        let mut damaged = 0usize;
        for _ in 0..100 {
            let d = draw(&mut device, (6, 3));
            for u in d.data_units.iter().chain(&d.posmap_units) {
                assert!(*u < 6);
                damaged += 1;
            }
        }
        assert!(damaged > 0, "aggressive mix never damaged a unit");
        let incidents = device.take_incidents();
        assert!(!incidents.is_empty());
        assert!(device.take_incidents().is_empty(), "incidents are consumed");
        assert!(device.fault_stats().unwrap().total_injected() > 0);
    }

    #[test]
    fn replay_mix_draws_replays_and_splices_in_range() {
        let mut device = armed(11, FaultConfig::replay_mix());
        let (mut replays, mut splices) = (0u64, 0u64);
        for _ in 0..200 {
            let d = draw(&mut device, (6, 3));
            if let Some(i) = d.replayed_data {
                assert!(i < 6);
                replays += 1;
            }
            if let Some(i) = d.replayed_posmap {
                assert!(i < 3);
                replays += 1;
            }
            if let Some((i, j)) = d.spliced_data {
                assert!(i < 6 && j < 6 && i != j);
                splices += 1;
            }
            if let Some((i, j)) = d.spliced_posmap {
                assert!(i < 3 && j < 3 && i != j);
                splices += 1;
            }
        }
        assert!(replays > 0, "replay mix never replayed a unit");
        assert!(splices > 0, "replay mix never spliced a pair");
        // Draws are attempts: a strike counts and files the ones that land.
        let mut toy = Toy::default();
        toy.enable_device_faults(11, FaultConfig::replay_mix());
        let mut incidents = Vec::new();
        for value in 0..200u8 {
            toy.write(&[0, 1, 2], value);
            toy.crash_now();
            incidents.extend(toy.shell.device.take_incidents());
        }
        let filed = |class| incidents.iter().filter(|i| i.class == class).count() as u64;
        let stats = toy.shell.device.fault_stats().unwrap();
        assert!(
            stats.stale_replays > 0 && stats.cross_splices > 0,
            "{stats:?}"
        );
        assert_eq!(filed(FaultClass::StaleReplay), stats.stale_replays);
        assert_eq!(filed(FaultClass::CrossSplice), stats.cross_splices);
    }

    #[test]
    fn wear_is_inert_until_enabled_and_without_a_plan() {
        let mut toy = Toy::default();
        toy.write(&[0], 3);
        let wear_free = toy.state_digest();
        let (device, ctl) = (&mut toy.shell.device, &mut toy.shell.ctl);
        assert!(device.wear.is_none());
        assert_eq!(device.wear_read_fault(ctl, [0, 64], 5), Ok(5));
        toy.enable_wear(3, WearConfig::stress(WearScheme::Remap));
        // Wear engine alone (no fault plan): accounting only, no faults.
        let (device, ctl) = (&mut toy.shell.device, &mut toy.shell.ctl);
        assert_eq!(device.wear_read_fault(ctl, [0, 64], 5), Ok(5));
        assert!(device.take_incidents().is_empty() && ctl.poisoned().is_none());
        assert_ne!(
            toy.state_digest(),
            wear_free,
            "the mapping joins the digest"
        );
    }

    #[test]
    fn drained_writes_wear_lines_and_commit_rounds_seal_the_mapping() {
        let mut toy = Toy::default();
        toy.enable_wear(7, gap_every_write());
        let d0 = mapping(&toy);
        toy.write(&[0, 1], 3);
        let stats = toy.wear_stats().unwrap();
        assert_eq!(stats.gap_moves, 2);
        assert!(stats.writes_recorded >= 4, "2 drains + 2 gap copies");
        // The gap moves staged during the drain are not durable yet...
        assert_eq!(mapping(&toy), d0);
        // ...until the next round commits.
        toy.write(&[2], 3);
        assert_ne!(mapping(&toy), d0, "commit seals the mapping");
    }

    #[test]
    fn crash_reverts_staged_mapping_but_keeps_wear_truth() {
        let mut toy = Toy::default();
        toy.enable_wear(7, gap_every_write());
        let d0 = mapping(&toy);
        toy.write(&[0], 3); // stages one gap move
        let writes_before = toy.wear_stats().unwrap().writes_recorded;
        toy.crash_now();
        assert_eq!(mapping(&toy), d0, "crash rolls the mapping back");
        let s = toy.wear_stats().unwrap();
        assert_eq!(s.map_reverts, 1);
        assert_eq!(s.writes_recorded, writes_before, "wear truth never reverts");
    }

    #[test]
    fn wear_read_fault_convicts_and_retires_under_remap() {
        let mut device = armed(5, FaultConfig::wear_only());
        let mut cfg = WearConfig::stress(WearScheme::Remap);
        cfg.preage_writes = 2000; // every line far past its budget
        device.wear = Some(WearEngine::new(5, 16, cfg));
        let mut ctl = EngineControl::default();
        let (mut retired, mut transients) = (0, 0);
        for _ in 0..400 {
            // A retirement costs two re-issues; a drift retry backs off
            // `REISSUE_CYCLES << k` per attempt, never summing to two.
            match device.wear_read_fault(&mut ctl, [0], 0) {
                Ok(0) => {}
                Ok(t) if t == 2 * REISSUE_CYCLES => retired += 1,
                Ok(_) => transients += 1,
                Err(_) => break,
            }
        }
        assert!(retired > 0, "past-budget line must retire");
        assert!(transients > 0, "drift failures must also fire");
        let wear = device.wear.as_ref().unwrap();
        assert_eq!(wear.stats().retirements, retired);
        let incidents = device.take_incidents();
        assert!(incidents.iter().any(|i| i.class == FaultClass::WearOut));
    }

    #[test]
    fn root_register_holds_the_last_persisted_root() {
        let mut toy = Toy::default();
        toy.enable_device_faults(3, all_lost());
        let auth = |toy: &Toy| -> (_, _) {
            let auth = toy.shell.device.auth.as_ref().expect("hardened");
            (auth.anchored(), auth.root())
        };
        let (at_arming, _) = auth(&toy);
        toy.write(&[0], 1);
        let (first, _) = auth(&toy);
        toy.write(&[1], 2);
        let (second, root) = auth(&toy);
        assert!(at_arming != first && first != second);
        assert_eq!(second, root);
        // The register is in the persistence domain: a crash keeps it.
        toy.crash_now();
        assert_eq!(auth(&toy).0, second);
    }

    #[test]
    fn read_replay_is_inert_without_a_plan() {
        let mut device = DeviceSide::default();
        assert_eq!(device.read_replay(), None);
        // No plan: nothing is served and nothing counted.
        let cells = [FrameCell {
            bucket: 0,
            slot: 0,
            nvm_addr: 0,
        }];
        assert!(device.serve_stale(Some(0), &cells).is_none());
        assert!(device.fault_stats().is_none());
        assert_eq!(device.freshness_stats().stale_serves, 0);
    }
}

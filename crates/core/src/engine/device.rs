//! The device side of a controller: the adversary that attacks its media
//! and the defence that convicts the damage. Neither is protocol, so both
//! live here, once, over the [`SlotArena`] and [`PosMap`] every tree ORAM
//! in this crate sits on.
//!
//! The *adversary* half is the installed fault plan's hands: the snapshot
//! store of previous unit versions ([`UnitHistory`]), the record of which
//! units the last applied round programmed, the crash-time damage
//! ([`DeviceSide::strike`]: bit flips, replays, splices) and the stale
//! serve on the read wire. The *defence* half is [`AuthTags`] — the
//! per-unit records and the trusted counter tree — with the guards a fetch
//! runs before it admits what the device delivered. A controller's shell
//! holds one `DeviceSide`; every slot unit a round programs reaches the
//! arena through [`DeviceSide::program`] and every PosMap entry through
//! [`DeviceSide::flush`], which keep the snapshots, the unit lists and the
//! records in step with the media, and a fetch calls the guards. A
//! controller carries no fault-handling code of its own.

use psoram_nvm::{FaultClass, FaultConfig, ReadFault};
use psoram_obsv::{DeviceFaultKind, Event};

use super::{fault_kind, EngineControl, FrameCell, WearReadOutcome};
use crate::arena::SlotArena;
use crate::auth::{AuthTags, FreshnessStats, SlotUnit, StaleServe, UnitHistory};
use crate::block::{Block, BlockRef};
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

/// The fault plan's hands on a controller's media, and the integrity
/// layer that answers them.
#[derive(Debug, Default)]
pub(crate) struct DeviceSide {
    /// On-chip CMAC records and trusted counters over the NVM-resident
    /// state: the defence. Present only once [`DeviceSide::arm`] hardened
    /// the design.
    pub auth: Option<AuthTags>,
    /// The adversary's snapshot store: the previous version of every
    /// persist unit, recorded on overwrite. Present on *every* armed
    /// design whose plan can replay (baselines are replayed too, they
    /// just cannot tell).
    history: Option<UnitHistory>,
    /// Fetch-path freshness counters: stale serves injected on the read
    /// wire and how many the hardened verifier caught.
    freshness: FreshnessStats,
    /// `true` once a fault plan is installed: rounds are then recorded.
    armed: bool,
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
        ctl: &mut EngineControl,
        seed: u64,
        cfg: FaultConfig,
        hardened: bool,
        (arena, posmap, temp): (&SlotArena, &PosMap, &TempPosMap),
    ) {
        ctl.install_fault_plan(seed, cfg);
        self.armed = true;
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
        ctl.persist_root(auth.root());
        self.auth = Some(auth);
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
        if self.armed {
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
        if self.armed {
            self.round_slots.push((bucket, slot));
        }
    }

    /// Flushes `entries` — `addr → leaf` — into the persisted PosMap, in
    /// the order the adversary and the defence depend on: the entry each
    /// replaces is snapshotted first, the new one persisted, recorded
    /// (hardened designs) and listed (a [`Listing::Start`] begins the list
    /// of a direct write-back with them), and its temporary entry retired; then, if anything was flushed, the temporary PosMap
    /// is resealed, and the counter-tree root is anchored over the records
    /// as they now stand. Returns the number of entries flushed.
    pub fn flush(
        &mut self,
        ctl: &mut EngineControl,
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
            if self.armed {
                self.round_posmap.push(addr);
            }
            temp.remove(addr);
            flushed += 1;
        }
        if flushed > 0 {
            self.seal_temp(temp);
        }
        self.anchor_root(ctl);
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
    pub fn anchor_root(&self, ctl: &mut EngineControl) {
        if let Some(auth) = &self.auth {
            ctl.persist_root(auth.root());
        }
    }

    // ── the crash ───────────────────────────────────────────────────────

    /// The power failure interrupts the media programming of the last
    /// applied round (including anything the ADR flush just applied):
    /// torn flushes, lost signals and bit rot land on those units now,
    /// then the freshness adversary's replays and splices. Records are
    /// deliberately *not* refreshed — this is the adversary writing
    /// behind the controller's back. Nothing here materialises a bucket.
    pub fn strike(&mut self, ctl: &mut EngineControl, arena: &mut SlotArena, posmap: &mut PosMap) {
        if !self.armed {
            return;
        }
        let damage = ctl.draw_crash_damage(self.round_slots.len(), self.round_posmap.len());
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
            let e = ctl.device_entropy();
            if payload.is_empty() {
                header.iv1 ^= 1 | e;
            } else {
                payload[e as usize % payload.len()] ^= 1 << ((e >> 32) & 7);
            }
        }
        for &i in &damage.posmap_units {
            let e = ctl.device_entropy();
            posmap.corrupt_persisted(self.round_posmap[i], e);
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
            ctl.confirm_stale_replay();
            Some((bucket, slot))
        });
        let restored_addr = damage.replayed_posmap.and_then(|i| {
            let addr = self.round_posmap[i];
            let (leaf, record) = *self.history.as_ref()?.posmap(addr.0)?;
            posmap.overwrite_persisted(addr, leaf);
            if let Some(auth) = self.auth.as_mut() {
                auth.set_posmap_record(addr.0, record);
            }
            ctl.confirm_stale_replay();
            Some(addr)
        });

        // Splices swap two authentic units across addresses. A splice is
        // only coherent when both ends are distinct units that still
        // carry authentic records: a drawn pair that collapses onto one
        // media unit, or an end that was bit-rotted (unless the replay
        // above just overwrote the rot wholesale), is a no-op the engine
        // never counts — the confirm calls are the ground truth.
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
                ctl.confirm_cross_splice();
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
                ctl.confirm_cross_splice();
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
    pub fn read_fault(ctl: &mut EngineControl, t: u64) -> Result<u64, OramError> {
        match ctl.read_fault() {
            ReadFault::None => Ok(t),
            ReadFault::Transient { attempts } => {
                Ok(retried(ctl, DeviceFaultKind::TransientRead, attempts, t))
            }
            ReadFault::Stuck => Err(poison(ctl, FaultClass::TransientRead)),
        }
    }

    /// The freshness adversary on the read wire: the device may serve one
    /// of the slots being read (`cells`, in read order) from an
    /// authentic-but-stale snapshot it recorded before the last
    /// overwrite. `pick` is the plan's draw ([`EngineControl::
    /// read_replay`], consumed whether or not it lands); it only lands
    /// when a slot being read has recorded history.
    #[inline]
    pub fn serve_stale(
        &mut self,
        ctl: &mut EngineControl,
        pick: Option<u64>,
        cells: &[FrameCell],
    ) -> Option<StaleServe> {
        let read = cells.iter().map(|c| (c.bucket, c.slot));
        let served = self.history.as_ref()?.stale_serve(read, pick?)?;
        ctl.confirm_read_replay();
        self.freshness.stale_serves += 1;
        Some(served)
    }

    /// The endurance adversary: the hottest line among `addrs` may fail
    /// with probability scaling in its consumed write budget. Drift
    /// failures retry like transient glitches; a stuck conviction retires
    /// the line onto a spare and repairs it from the redundant copy (one
    /// read and one write round trip on top of the detection), or — spare
    /// pool dry — latches the fail-safe poisoned state rather than serve
    /// stuck bits. Returns the advanced clock.
    ///
    /// # Errors
    ///
    /// [`OramError::Poisoned`] when no spare is left.
    #[inline]
    pub fn wear_read_fault(
        ctl: &mut EngineControl,
        addrs: impl IntoIterator<Item = u64>,
        t: u64,
    ) -> Result<u64, OramError> {
        match ctl.wear_read_fault(addrs) {
            WearReadOutcome::None => Ok(t),
            WearReadOutcome::Transient { attempts } => {
                Ok(retried(ctl, DeviceFaultKind::WearOut, attempts, t))
            }
            WearReadOutcome::Retired { line, spare } => {
                let t = detected(ctl, DeviceFaultKind::WearOut, 1, t + 2 * REISSUE_CYCLES);
                ctl.tap.emit(|| Event::LineRetired {
                    line,
                    spare,
                    cycle: t,
                });
                Ok(t)
            }
            WearReadOutcome::Exhausted { .. } => Err(poison(ctl, FaultClass::WearOut)),
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

    #[test]
    fn the_applier_snapshots_before_it_overwrites_lists_what_it_programs_and_anchors_last() {
        let (mut device, mut ctl) = (DeviceSide::default(), EngineControl::default());
        let mut arena = SlotArena::new(2, 8);
        let (mut posmap, mut temp) = (PosMap::new(8, 1), TempPosMap::new(4));
        let media = (&arena, &posmap, &temp);
        device.arm(&mut ctl, 7, FaultConfig::replay_mix(), true, media);
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
        assert_eq!(
            device.flush(&mut ctl, maps, entries.into_iter(), Listing::Join),
            2
        );
        let auth = device.auth.as_ref().expect("hardened");
        let before = (
            auth.slot_record(2, 0),
            auth.slot_record(3, 1),
            auth.posmap_record(0),
        );
        let root_before = auth.root();
        assert_eq!(ctl.persisted_root(), Some(root_before));

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
        device.flush(&mut ctl, maps, [(a0, Leaf(5))].into_iter(), Listing::Join);

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
        assert_eq!(ctl.persisted_root(), Some(auth.root()));

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
        let mut twin = EngineControl::default();
        twin.install_fault_plan(5, all_lost());
        let damage = twin.draw_crash_damage(3, 1);
        assert_eq!((damage.data_units.len(), damage.posmap_units.len()), (3, 1));
        twin.device_entropy();
        twin.device_entropy();
        assert_eq!(toy.shell.ctl.device_entropy(), twin.device_entropy());
    }

    #[test]
    fn a_splice_lands_only_between_two_distinct_units_with_authentic_records() {
        let spliced = |toy: &Toy| toy.shell.ctl.fault_stats().expect("armed").cross_splices;
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
}

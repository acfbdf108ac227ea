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
//! runs before it admits what the device delivered. A controller holds one
//! `DeviceSide`, tells it what it is about to overwrite and what each
//! round wrote, and calls the guards; it carries no fault-handling code of
//! its own.

use psoram_nvm::{FaultClass, FaultConfig, ReadFault};
use psoram_obsv::{DeviceFaultKind, Event};

use super::{fault_kind, FrameCell, PersistEngine, WearReadOutcome};
use crate::arena::SlotArena;
use crate::auth::{AuthTags, FreshnessStats, StaleServe, UnitHistory};
use crate::block::Block;
use crate::posmap::{PosMap, TempPosMap};
use crate::types::{BlockAddr, Leaf, OramError};

/// Cycles one re-issued media read costs; retry `k` backs off `<< k`.
const REISSUE_CYCLES: u64 = 400;

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
    /// before hardening, trusted as-is, covered from here on), sealed WPQ
    /// batch frames, a seal over the temporary PosMap, and the
    /// counter-tree root anchored in the persistence domain before the
    /// first adversarial round. Records cover slot *content* only: Ring's
    /// valid bits and counts mutate outside persist rounds.
    pub fn arm<D, P>(
        &mut self,
        engine: &mut PersistEngine<D, P>,
        seed: u64,
        cfg: FaultConfig,
        hardened: bool,
        (arena, posmap, temp): (&SlotArena, &PosMap, &TempPosMap),
    ) {
        engine.install_fault_plan(seed, cfg);
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
        engine.seal_frames(&key);
        engine.persist_root(auth.root());
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

    // ── what the controller tells it ────────────────────────────────────

    /// Snapshots the `(content, record)` pairs a write to `slots` of
    /// `bucket` is about to replace: the coherent stale units a replay
    /// adversary re-serves (direct-write designs carry no records). A
    /// no-op unless the installed plan can replay.
    #[inline]
    pub fn note_slots(&mut self, arena: &SlotArena, bucket: u64, slots: std::ops::Range<usize>) {
        let Some(history) = self.history.as_mut() else {
            return;
        };
        let old = arena.bucket(bucket);
        for slot in slots {
            let content = old.and_then(|old| old.slot(slot)).map(|b| b.to_block());
            let record = self.auth.as_ref().and_then(|a| a.slot_record(bucket, slot));
            history.note_slot(bucket, slot, (content, record));
        }
    }

    /// Starts the slot list of the round about to be applied: a crash
    /// lands on the units of the last one.
    pub fn begin_slot_units(&mut self) {
        self.round_slots.clear();
    }

    /// Starts the PosMap-entry list of the round about to be applied.
    pub fn begin_posmap_units(&mut self) {
        self.round_posmap.clear();
    }

    /// Records that the round being applied programs `(bucket, slot)`.
    #[inline]
    pub fn push_slot(&mut self, bucket: u64, slot: usize) {
        if self.armed {
            self.round_slots.push((bucket, slot));
        }
    }

    /// Persists the PosMap entry `addr → leaf` as a unit of the round
    /// being applied: the entry it replaces is snapshotted first, the new
    /// one recorded (hardened designs) and listed for the next crash.
    pub fn persist_posmap(&mut self, posmap: &mut PosMap, addr: BlockAddr, leaf: Leaf) {
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
    pub fn check_temp<D, P>(
        &self,
        engine: &mut PersistEngine<D, P>,
        temp: &TempPosMap,
    ) -> Result<(), OramError> {
        match &self.auth {
            Some(auth) if !auth.verify_temp(temp.entries()) => {
                Err(poison(engine, FaultClass::MediaCorruption))
            }
            _ => Ok(()),
        }
    }

    /// Anchors the counter-tree root in the persistence domain: it rides
    /// the same failure-atomic commit as the round's data, so replaying
    /// any unit of an earlier round leaves its counter behind the root.
    #[inline]
    pub fn anchor_root<D, P>(&self, engine: &mut PersistEngine<D, P>) {
        if let Some(auth) = &self.auth {
            engine.persist_root(auth.root());
        }
    }

    // ── the crash ───────────────────────────────────────────────────────

    /// The power failure interrupts the media programming of the last
    /// applied round (including anything the ADR flush just applied):
    /// torn flushes, lost signals and bit rot land on those units now,
    /// then the freshness adversary's replays and splices. Records are
    /// deliberately *not* refreshed — this is the adversary writing
    /// behind the controller's back. Nothing here materialises a bucket.
    pub fn strike<D, P>(
        &mut self,
        engine: &mut PersistEngine<D, P>,
        arena: &mut SlotArena,
        posmap: &mut PosMap,
    ) {
        if !self.armed {
            return;
        }
        let damage = engine.draw_crash_damage(self.round_slots.len(), self.round_posmap.len());
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
            let e = engine.device_entropy();
            if payload.is_empty() {
                header.iv1 ^= 1 | e;
            } else {
                payload[e as usize % payload.len()] ^= 1 << ((e >> 32) & 7);
            }
        }
        for &i in &damage.posmap_units {
            let e = engine.device_entropy();
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
            engine.confirm_stale_replay();
            Some((bucket, slot))
        });
        let restored_addr = damage.replayed_posmap.and_then(|i| {
            let addr = self.round_posmap[i];
            let (leaf, record) = *self.history.as_ref()?.posmap(addr.0)?;
            posmap.overwrite_persisted(addr, leaf);
            if let Some(auth) = self.auth.as_mut() {
                auth.set_posmap_record(addr.0, record);
            }
            engine.confirm_stale_replay();
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
                engine.confirm_cross_splice();
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
                engine.confirm_cross_splice();
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
    pub fn read_fault<D, P>(engine: &mut PersistEngine<D, P>, t: u64) -> Result<u64, OramError> {
        match engine.read_fault() {
            ReadFault::None => Ok(t),
            ReadFault::Transient { attempts } => {
                Ok(retried(engine, DeviceFaultKind::TransientRead, attempts, t))
            }
            ReadFault::Stuck => Err(poison(engine, FaultClass::TransientRead)),
        }
    }

    /// The freshness adversary on the read wire: the device may serve one
    /// of the slots being read (`cells`, in read order) from an
    /// authentic-but-stale snapshot it recorded before the last
    /// overwrite. `pick` is the plan's draw ([`PersistEngine::
    /// read_replay`], consumed whether or not it lands); it only lands
    /// when a slot being read has recorded history.
    #[inline]
    pub fn serve_stale<D, P>(
        &mut self,
        engine: &mut PersistEngine<D, P>,
        pick: Option<u64>,
        cells: &[FrameCell],
    ) -> Option<StaleServe> {
        let read = cells.iter().map(|c| (c.bucket, c.slot));
        let served = self.history.as_ref()?.stale_serve(read, pick?)?;
        engine.confirm_read_replay();
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
    pub fn wear_read_fault<D, P>(
        engine: &mut PersistEngine<D, P>,
        addrs: impl IntoIterator<Item = u64>,
        t: u64,
    ) -> Result<u64, OramError> {
        match engine.wear_read_fault(addrs) {
            WearReadOutcome::None => Ok(t),
            WearReadOutcome::Transient { attempts } => {
                Ok(retried(engine, DeviceFaultKind::WearOut, attempts, t))
            }
            WearReadOutcome::Retired { line, spare } => {
                let t = detected(engine, DeviceFaultKind::WearOut, 1, t + 2 * REISSUE_CYCLES);
                engine.tap().emit(|| Event::LineRetired {
                    line,
                    spare,
                    cycle: t,
                });
                Ok(t)
            }
            WearReadOutcome::Exhausted { .. } => Err(poison(engine, FaultClass::WearOut)),
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
    pub fn verify_fetched<D, P>(
        &mut self,
        engine: &mut PersistEngine<D, P>,
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
            return Err(poison(engine, class));
        }
        let Some(class) = wire.fault_class() else {
            return Ok(t);
        };
        self.freshness.stale_serves_detected += 1;
        *served = None;
        Ok(detected(engine, fault_kind(class), 1, t + REISSUE_CYCLES))
    }
}

/// Overwrites a slot of a materialised bucket behind the controller's
/// back; an absent bucket stays absent.
fn set_slot(arena: &mut SlotArena, (bucket, slot): (u64, usize), content: Option<&Block>) {
    if let Some(mut bucket) = arena.bucket_mut_if_present(bucket) {
        bucket.set(slot, content.map(Block::view));
    }
}

/// Latches the fail-safe state and names it to the caller.
fn poison<D, P>(engine: &mut PersistEngine<D, P>, class: FaultClass) -> OramError {
    engine.poison(class);
    OramError::Poisoned { class }
}

/// Stamps a detection at cycle `t` and returns `t`.
fn detected<D, P>(engine: &PersistEngine<D, P>, kind: DeviceFaultKind, units: u64, t: u64) -> u64 {
    engine.tap().set_now(t);
    engine.tap().emit(|| Event::FaultDetected {
        kind,
        units,
        cycle: t,
    });
    t
}

/// A load that went through after `attempts` backed-off re-issues.
fn retried<D, P>(
    engine: &PersistEngine<D, P>,
    kind: DeviceFaultKind,
    attempts: u32,
    t: u64,
) -> u64 {
    let backoff: u64 = (0..attempts).map(|k| REISSUE_CYCLES << k).sum();
    detected(engine, kind, u64::from(attempts), t + backoff)
}

#[cfg(test)]
mod tests {
    use super::super::recover::tests::{seed_where, Toy};
    use super::*;

    /// Every round is lost; nothing is replayed or spliced.
    fn all_lost() -> FaultConfig {
        FaultConfig {
            signal_loss: 1.0,
            ..FaultConfig::disabled()
        }
    }

    #[test]
    fn a_torn_dummy_slot_draws_no_entropy_and_a_strike_materialises_nothing() {
        let mut toy = Toy::new();
        toy.write(&[1], 3);
        toy.arm(5, all_lost());
        let written = toy.write(&[0], 4);
        // The same round also programmed a dummy slot of that bucket and
        // (as a direct rewrite of an untouched path would) one of a bucket
        // nothing ever materialised.
        let (bucket, slot) = written[0];
        assert!(toy.arena.slot(bucket, 1 - slot).is_none());
        toy.device.push_slot(bucket, 1 - slot);
        toy.device.push_slot(77, 0);
        let before = toy.arena.materialized_buckets();
        toy.crash();
        assert_eq!(toy.arena.materialized_buckets(), before);
        assert!(toy.arena.bucket(77).is_none());
        // Entropy pins the call count: a twin plan that draws the same
        // round's damage and then exactly two flips — the one real slot,
        // the one PosMap entry — is in step with the struck one.
        let mut twin: PersistEngine<(), ()> = PersistEngine::new(1, 1);
        twin.install_fault_plan(5, all_lost());
        let damage = twin.draw_crash_damage(3, 1);
        assert_eq!((damage.data_units.len(), damage.posmap_units.len()), (3, 1));
        twin.device_entropy();
        twin.device_entropy();
        assert_eq!(toy.engine.device_entropy(), twin.device_entropy());
    }

    #[test]
    fn a_splice_lands_only_between_two_distinct_units_with_authentic_records() {
        let spliced = |toy: &Toy| toy.engine.fault_stats().expect("armed").cross_splices;
        let splice_only = FaultConfig {
            cross_splice: 1.0,
            ..FaultConfig::disabled()
        };
        // Two distinct intact units: the splice lands and the contents
        // swap (as do the two addresses' PosMap entries).
        let mut toy = Toy::new();
        toy.arm(1, splice_only);
        let w = toy.write(&[0, 1], 3);
        toy.crash();
        assert_eq!(spliced(&toy), 2, "the slot pair and the PosMap pair");
        let holder = |(b, s): (u64, usize)| toy.arena.slot(b, s).map(|b| b.addr().0);
        assert_eq!((holder(w[0]), holder(w[1])), (Some(1), Some(0)));
        assert_eq!(toy.recover().splices_detected, 4, "every end is convicted");

        // Both ends of the drawn pair are one media unit: a no-op.
        let mut toy = Toy::new();
        toy.arm(1, splice_only);
        let w = toy.write(&[0], 3);
        toy.device.push_slot(w[0].0, w[0].1);
        let before = toy.digest();
        toy.crash();
        assert_eq!((spliced(&toy), toy.digest()), (0, before));

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
            let mut toy = Toy::new();
            toy.write(&[0, 0], 3);
            toy.arm(seed, rot_replay_splice);
            toy.write(&[0, 0], 4);
            toy.crash();
            assert_eq!(spliced(&toy), u64::from(restored), "restored={restored}");
        }
    }
}

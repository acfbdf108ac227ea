//! The recovery ladder — detect → classify → repair → rollback → fail
//! safe — written once, over the shared [`SlotArena`], the persisted
//! [`PosMap`] and the [`CommitLedger`].
//!
//! A controller's `recover` walks the rungs in order:
//!
//! 1. [`Ladder::enter`] — idempotent entry: a controller that is not
//!    crashed repeats its last verdict; a crashed one collects the
//!    incidents the crash filed.
//! 2. [`Ladder::detect`] (hardened designs) — root sanity, then phase 1:
//!    every tagged slot is classified against the trusted counters and
//!    every convicted one wiped; then phase 2: every damaged persisted
//!    PosMap entry is repaired from the newest authenticated copy of its
//!    address, or re-tagged and rolled back under a typed error.
//! 3. whatever the protocol itself restores after a power failure (Ring's
//!    Case-2 compaction; Path has nothing to do).
//! 4. [`Ladder::repair`] (hardened designs) — phase 3: every committed
//!    address the protocol's audit can no longer find is re-pointed at
//!    its newest surviving authenticated copy, or rolled back; then the
//!    freshness epoch is closed.
//! 5. [`Ladder::finish`] — the poison latch, the protocol's consistency
//!    check and the assembled [`RecoveryReport`].
//!
//! What a protocol supplies is what differs between protocols: its audit
//! (how a committed address is found on media, and the words it complains
//! in), how a surviving copy is *admitted* back (Path decrypts it; Ring
//! clears its backup mark and re-records the slot), and step 3.

use psoram_nvm::FaultClass;

use super::{CommitLedger, PersistEngine};
use crate::arena::SlotArena;
use crate::auth::{AuthTags, FreshnessVerdict};
use crate::block::{Block, BlockRef};
use crate::crash::{RecoveryError, RecoveryIncident, RecoveryReport};
use crate::posmap::PosMap;
use crate::types::{BlockAddr, Leaf};

/// The parts of a controller the ladder works on, borrowed together: its
/// engine, slot arena, PosMap and ledger (its other fields stay free for
/// the protocol's hooks).
pub(crate) type Media<'a, D, P> = (
    &'a mut PersistEngine<D, P>,
    &'a mut SlotArena,
    &'a mut PosMap,
    &'a mut CommitLedger,
);

/// A `(bucket, slot)` unit of the arena.
type Unit = (u64, usize);

/// One recovery in progress: what it detected, repaired and gave up on.
#[derive(Debug, Default)]
pub(crate) struct Ladder {
    incidents: Vec<RecoveryIncident>,
    errors: Vec<RecoveryError>,
    repairs: u64,
    rolled_back: Vec<u64>,
    replays_detected: u64,
    splices_detected: u64,
}

impl Ladder {
    /// Idempotent entry: on a controller that is not crashed, the last
    /// verdict again (state and counters untouched); on a crashed one, a
    /// ladder holding the incidents the crash filed.
    pub fn enter<D, P>(
        engine: &mut PersistEngine<D, P>,
        ledger: &CommitLedger,
    ) -> Result<Ladder, Box<RecoveryReport>> {
        if !engine.is_crashed() {
            let last = engine.last_recovery().cloned();
            let clean = || RecoveryReport::from_check(Ok(()), ledger.committed_len());
            return Err(Box::new(last.unwrap_or_else(clean)));
        }
        Ok(Ladder {
            incidents: engine.take_incidents(),
            ..Ladder::default()
        })
    }

    /// Counts a conviction: a replayed or spliced unit is coherent (its
    /// CMAC verifies) — only the counter comparison convicts it.
    fn convict(&mut self, verdict: FreshnessVerdict) {
        match verdict {
            FreshnessVerdict::Stale | FreshnessVerdict::Missing => self.replays_detected += 1,
            FreshnessVerdict::Spliced => self.splices_detected += 1,
            FreshnessVerdict::Tampered | FreshnessVerdict::Clean => {}
        }
    }

    /// Detected, typed data loss — never silent corruption.
    fn lose(&mut self, addr: u64, detail: String) {
        self.rolled_back.push(addr);
        self.errors
            .push(RecoveryError::UnrecoverableAddress { addr, detail });
    }

    /// Root sanity, phase 1 and phase 2.
    pub fn detect<D, P>(
        &mut self,
        (engine, arena, posmap, ledger): Media<'_, D, P>,
        auth: &mut AuthTags,
    ) {
        // The on-chip counter tree must agree with the root anchored in
        // the persistence domain. A mismatch means the trusted anchor
        // itself cannot be believed — fail safe.
        if engine.persisted_root().is_some_and(|r| r != auth.root()) {
            engine.poison(FaultClass::StaleReplay);
        }
        // Phase 1 — detect & classify: every convicted slot is wiped; any
        // committed value it held is restored from an authenticated
        // redundant copy in phase 3.
        for (bucket, slot, verdict) in convicted_slots(auth, arena) {
            self.convict(verdict);
            if let Some(mut b) = arena.bucket_mut_if_present(bucket) {
                b.set(slot, None);
            }
            auth.record_slot(bucket, slot, None);
        }
        // Phase 2 — persisted PosMap entries: a corrupt, replayed or
        // spliced leaf label is repaired from the newest authenticated
        // block copy of the address (the redundant copy names the true
        // leaf, and its counter proves it fresher). The survivors of all
        // of them are found in one pass: nothing the loop changes (PosMap
        // entries, their records, the ledger) is read by that pass.
        let mut damaged: Vec<(u64, Leaf)> = Vec::new();
        for a in auth.tagged_posmap_sorted() {
            let leaf = posmap.persisted_get(BlockAddr(a));
            let verdict = auth.verdict_posmap(a, leaf.0);
            if verdict != FreshnessVerdict::Clean {
                self.convict(verdict);
                damaged.push((a, leaf));
            }
        }
        let addrs: Vec<u64> = damaged.iter().map(|&(a, _)| a).collect();
        let survivors = newest_valid_copies(arena, auth, &addrs);
        for ((a, leaf), survivor) in damaged.into_iter().zip(survivors) {
            match survivor {
                Some((_, copy)) => {
                    posmap.persist(BlockAddr(a), copy.leaf());
                    auth.record_posmap(a, copy.leaf().0);
                    self.repairs += 1;
                }
                None => {
                    // Accept the damaged label (re-tag it so the scan
                    // converges) and forget the committed value.
                    auth.record_posmap(a, leaf.0);
                    ledger.rollback(a, None);
                    let detail = "posmap entry corrupt; no surviving authenticated copy";
                    self.lose(a, detail.to_string());
                }
            }
        }
    }

    /// Phase 3 — repair-from-redundant-copy — and the epoch close.
    ///
    /// `failures` is the protocol's audit: the committed addresses it can
    /// no longer locate, ascending, each with its verbatim complaint.
    /// `admit` is handed every survivor (the arena, the records, where the
    /// copy sits, the copy) before it is compared with the committed
    /// value: the protocol's chance to open it and to promote it.
    pub fn repair<D, P>(
        &mut self,
        (engine, arena, posmap, ledger): Media<'_, D, P>,
        auth: &mut AuthTags,
        failures: Vec<(u64, String)>,
        mut admit: impl FnMut(&mut SlotArena, &mut AuthTags, Unit, &mut Block),
    ) {
        let failed: Vec<u64> = failures.iter().map(|&(a, _)| a).collect();
        let survivors = newest_valid_copies(arena, auth, &failed);
        for ((a, detail), survivor) in failures.into_iter().zip(survivors) {
            let Some((at, mut copy)) = survivor else {
                ledger.rollback(a, None);
                self.lose(a, detail);
                continue;
            };
            admit(arena, auth, at, &mut copy);
            let intact = ledger.committed_value(a) == Some(&copy.payload);
            posmap.persist(BlockAddr(a), copy.leaf());
            auth.record_posmap(a, copy.leaf().0);
            ledger.rollback(a, Some((copy.header.seq, copy.payload)));
            if intact {
                self.repairs += 1;
            } else {
                // The survivor is an older version: detected rollback.
                self.lose(a, detail);
            }
        }
        // The temporary PosMap did not survive the power failure; repairs
        // bumped counters, so close the freshness epoch and re-anchor the
        // persisted root for the rounds that follow.
        auth.clear_temp_seal();
        auth.advance_epoch();
        engine.persist_root(auth.root());
    }

    /// The last rung: `check` is the protocol's consistency verdict over
    /// the recovered state. The report is retained by the engine, which
    /// leaves the crashed state and counts the recovery.
    pub fn finish<D, P>(
        mut self,
        engine: &mut PersistEngine<D, P>,
        check: Result<(), String>,
        committed: usize,
    ) -> RecoveryReport {
        if let Some(class) = engine.poisoned() {
            self.errors.push(RecoveryError::Poisoned { class });
        }
        self.rolled_back.sort_unstable();
        self.rolled_back.dedup();
        engine.finish_recovery(RecoveryReport {
            repairs: self.repairs,
            rolled_back: self.rolled_back,
            incidents: self.incidents,
            errors: self.errors,
            replays_detected: self.replays_detected,
            splices_detected: self.splices_detected,
            poisoned: engine.poisoned().is_some(),
            ..RecoveryReport::from_check(check, committed)
        })
    }
}

/// Phase 1's verdicts: every tagged slot that does not classify Clean, in
/// ascending unit order. A verdict reads only its own unit's content,
/// record and trusted counter, so the units classify side by side —
/// [`AuthTags::verdict_slots`] MACs them a lane-full at a time.
fn convicted_slots(auth: &AuthTags, arena: &SlotArena) -> Vec<(u64, usize, FreshnessVerdict)> {
    let tagged = auth.tagged_slots_sorted();
    let stored = tagged.iter().map(|&(b, s)| (b, s, arena.slot(b, s)));
    let mut convicted = Vec::new();
    auth.verdict_slots(stored, |bucket, slot, verdict| {
        if verdict != FreshnessVerdict::Clean {
            convicted.push((bucket, slot, verdict));
        }
    });
    convicted
}

/// For each of `addrs` (ascending), the newest (highest freshness
/// counter) block copy anywhere on media that passes slot authentication,
/// with where it sits — found in one pass over the arena. Deterministic:
/// buckets are scanned in index order and the first of equally new copies
/// wins (the replay adversary can restore byte-exact stale duplicates
/// whose counters tie).
fn newest_valid_copies(
    arena: &SlotArena,
    auth: &AuthTags,
    addrs: &[u64],
) -> Vec<Option<(Unit, Block)>> {
    debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    let mut best: Vec<Option<(Unit, BlockRef<'_>)>> = vec![None; addrs.len()];
    if !addrs.is_empty() {
        for (idx, bucket) in arena.iter() {
            for (s, b) in bucket.slots().enumerate() {
                let Some(b) = b else { continue };
                let Ok(i) = addrs.binary_search(&b.addr().0) else {
                    continue;
                };
                if best[i].is_none_or(|(_, x)| b.header.seq > x.header.seq)
                    && auth.verify_slot(idx, s, Some(b))
                {
                    best[i] = Some(((idx, s), b));
                }
            }
        }
    }
    best.into_iter()
        .map(|found| found.map(|(at, b)| (at, b.to_block())))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use psoram_nvm::FaultConfig;

    use super::*;
    use crate::engine::{state_digest, DeviceSide, RoundDamage};
    use crate::posmap::TempPosMap;

    const ADDRS: u64 = 4;

    /// A third protocol, as ARCHITECTURE.md's recipe has it, with no
    /// device or recovery code of its own: one row of two-slot buckets,
    /// address `a` owning buckets `2a` and `2a + 1`, its leaf label the
    /// bucket its newest version sits in. Successive versions rotate
    /// through the address's four slots, so older ones survive as the
    /// redundant copies. A round writes its blocks and their PosMap
    /// entries directly.
    pub(crate) struct Toy {
        pub engine: PersistEngine<(), ()>,
        pub device: DeviceSide,
        pub arena: SlotArena,
        pub posmap: PosMap,
        temp: TempPosMap,
        pub ledger: CommitLedger,
        version: u64,
    }

    impl Toy {
        pub fn new() -> Self {
            Toy {
                engine: PersistEngine::new(1, 1),
                device: DeviceSide::default(),
                arena: SlotArena::new(2, 8),
                posmap: PosMap::new(2 * ADDRS, 1),
                temp: TempPosMap::new(1),
                ledger: CommitLedger::new(),
                version: 0,
            }
        }

        pub fn arm(&mut self, seed: u64, cfg: FaultConfig) {
            let media = (&self.arena, &self.posmap, &self.temp);
            self.device.arm(&mut self.engine, seed, cfg, true, media);
        }

        /// One persist round writing `value` to each of `addrs`; returns
        /// the slots it programmed.
        pub fn write(&mut self, addrs: &[u64], value: u8) -> Vec<Unit> {
            self.device.begin_slot_units();
            self.device.begin_posmap_units();
            let mut written = Vec::new();
            for &a in addrs {
                self.version += 1;
                let v = self.version;
                let (bucket, slot) = (2 * a + (v & 1), (v >> 1) as usize & 1);
                let mut block = Block::new(BlockAddr(a), Leaf(bucket), vec![value; 8]);
                block.header.seq = v;
                self.device.note_slots(&self.arena, bucket, slot..slot + 1);
                self.device.push_slot(bucket, slot);
                if let Some(auth) = &mut self.device.auth {
                    auth.record_slot(bucket, slot, Some(block.view()));
                }
                self.arena.write(bucket, slot, Some(block.view()));
                let leaf = Leaf(bucket);
                self.device
                    .persist_posmap(&mut self.posmap, BlockAddr(a), leaf);
                self.ledger.commit_if_fresh(a, v, &block.payload);
                written.push((bucket, slot));
            }
            self.device.anchor_root(&mut self.engine);
            written
        }

        pub fn crash(&mut self) {
            let _ = self.engine.crash();
            self.posmap.crash();
            self.device
                .strike(&mut self.engine, &mut self.arena, &mut self.posmap);
        }

        fn copy_at(&self, a: u64, found: &mut Vec<u8>) -> (Leaf, bool) {
            let leaf = self.posmap.persisted_get(BlockAddr(a));
            let row = std::iter::once(leaf.0);
            let best = self.arena.newest_on_path(row, BlockAddr(a), leaf);
            found.extend(best.iter().flat_map(|b| b.payload));
            (leaf, best.is_some())
        }

        pub fn recover(&mut self) -> RecoveryReport {
            let mut ladder = match Ladder::enter(&mut self.engine, &self.ledger) {
                Ok(ladder) => ladder,
                Err(last) => return *last,
            };
            if let Some(mut auth) = self.device.auth.take() {
                let (engine, arena) = (&mut self.engine, &mut self.arena);
                ladder.detect(
                    (engine, arena, &mut self.posmap, &mut self.ledger),
                    &mut auth,
                );
                let failures = self.ledger.audit_committed_collect(
                    "toy copy",
                    |a, found| self.copy_at(a, found),
                    |_, _| false,
                );
                let media = (
                    &mut self.engine,
                    &mut self.arena,
                    &mut self.posmap,
                    &mut self.ledger,
                );
                ladder.repair(media, &mut auth, failures, |_, _, _, _| {});
                self.device.auth = Some(auth);
            }
            let check =
                (self.ledger).audit_committed("toy copy", |a, f| self.copy_at(a, f), |_, _| false);
            ladder.finish(&mut self.engine, check, self.ledger.committed_len())
        }

        pub fn digest(&self) -> u128 {
            state_digest(&self.arena, false, &self.posmap, &self.ledger, None)
        }
    }

    /// The first seed whose plan draws, as its first crash damage over a
    /// round of `units` (slots, PosMap entries), damage that `wanted`
    /// accepts — what [`DeviceSide::strike`] will draw on a toy armed with
    /// that seed, which consumes no plan entropy before its crash.
    pub(crate) fn seed_where(
        cfg: FaultConfig,
        units: (usize, usize),
        wanted: impl Fn(&RoundDamage) -> bool,
    ) -> u64 {
        let draws = |seed| {
            let mut twin: PersistEngine<(), ()> = PersistEngine::new(1, 1);
            twin.install_fault_plan(seed, cfg);
            twin.draw_crash_damage(units.0, units.1)
        };
        (0..10_000)
            .find(|&seed| wanted(&draws(seed)))
            .expect("no seed in 10,000 draws the wanted damage")
    }

    fn half_torn() -> FaultConfig {
        FaultConfig {
            torn_flush: 0.5,
            signal_loss: 0.5,
            ..FaultConfig::disabled()
        }
    }

    #[test]
    fn a_third_protocol_repairs_a_rotted_posmap_entry_from_the_block_it_names() {
        let seed = seed_where(half_torn(), (1, 1), |d| {
            d.data_units.is_empty() && d.posmap_units == [0]
        });
        let mut toy = Toy::new();
        toy.write(&[0, 1, 2], 7);
        toy.arm(seed, half_torn());
        toy.write(&[1], 9);
        let (buckets, before) = (toy.arena.materialized_buckets(), toy.digest());
        toy.crash();
        assert_ne!(toy.digest(), before, "the entry was not damaged");
        let report = toy.recover();
        assert!(report.consistent, "{:?}", report.violation);
        assert_eq!((report.repairs, report.rolled_back.len()), (1, 0));
        assert!(report.errors.is_empty() && !report.poisoned);
        assert_eq!(toy.digest(), before, "the repair restores the state");
        assert_eq!(toy.ledger.committed_value(1), Some(&vec![9; 8]));
        assert_eq!(toy.arena.materialized_buckets(), buckets);
    }

    #[test]
    fn a_third_protocol_rolls_a_torn_block_back_under_a_typed_error_and_recovers_once() {
        let seed = seed_where(half_torn(), (1, 1), |d| d.data_units == [0]);
        let mut toy = Toy::new();
        toy.write(&[0, 1, 2], 7);
        toy.arm(seed, half_torn());
        toy.write(&[2], 9);
        let buckets = toy.arena.materialized_buckets();
        toy.crash();
        let report = toy.recover();
        // The torn copy is convicted and wiped; the previous version is the
        // newest authenticated survivor, so the address regresses to it —
        // detected, typed, and consistent with the rolled-back ledger.
        assert!(report.consistent, "{:?}", report.violation);
        assert_eq!(report.rolled_back, vec![2]);
        assert!(matches!(
            &report.errors[..],
            [RecoveryError::UnrecoverableAddress { addr: 2, detail }] if detail.contains("toy copy")
        ));
        assert_eq!(toy.ledger.committed_value(2), Some(&vec![7; 8]));
        assert_eq!(
            toy.arena.materialized_buckets(),
            buckets,
            "a wipe materialises nothing"
        );
        // Idempotent: the verdict again, nothing moved, nothing recounted.
        let digest = toy.digest();
        assert_eq!(toy.recover(), report);
        assert_eq!(toy.digest(), digest);
        assert_eq!(toy.engine.stats().recoveries, 1);
        // And a crash with nothing in flight recovers to the same state.
        toy.arm(seed, FaultConfig::disabled());
        toy.crash();
        let again = toy.recover();
        assert!(again.consistent && again.rolled_back.is_empty() && again.repairs == 0);
        assert_eq!(toy.digest(), digest);
    }

    /// Phase 1's verdicts the way both controllers computed them before
    /// the ladder was written once: one unit, one MAC, at a time.
    fn convicted_one_by_one(
        auth: &AuthTags,
        arena: &SlotArena,
    ) -> Vec<(u64, usize, FreshnessVerdict)> {
        let verdict = |(b, s)| (b, s, auth.verdict_slot(b, s, arena.slot(b, s)));
        let tagged = auth.tagged_slots_sorted().into_iter().map(verdict);
        tagged
            .filter(|&(_, _, v)| v != FreshnessVerdict::Clean)
            .collect()
    }

    #[test]
    fn lane_batched_phase_1_convicts_exactly_what_the_unit_at_a_time_form_does() {
        const Z: usize = 4;
        let mut kinds = std::collections::BTreeSet::new();
        // One lane, a lane short of full, full, one over, and a whole
        // `Z·(L+1)` path at L = 3.
        for units in [1usize, 7, 8, 9, 4 * (3 + 1)] {
            let mut arena = SlotArena::new(Z, 8);
            let mut auth = AuthTags::new(&[units as u8; 16]);
            let unit = |i: usize| ((i / Z) as u64 * 3, i % Z);
            let block = |i: usize, seq: u64| {
                let mut b = Block::new(BlockAddr(i as u64), Leaf(1), vec![i as u8; 8]);
                b.header.seq = seq;
                b
            };
            for i in 0..units {
                let (b, s) = unit(i);
                // Every third unit is a recorded dummy.
                let content = (i % 3 != 2).then(|| block(i, 1));
                arena.write(b, s, content.as_ref().map(Block::view));
                auth.record_slot(b, s, content.as_ref().map(Block::view));
            }
            // Random damage, one kind per unit: a flipped payload bit
            // (Tampered), the previous unit's authentic pair served here
            // (Spliced), a rollback to the pair an overwrite replaced
            // (Stale), a deleted record (Missing), or nothing.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ units as u64;
            for i in 0..units {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let (b, s) = unit(i);
                match (x >> 60) % 5 {
                    1 => {
                        if let Some((_, payload)) = arena.bucket_mut(b).cell_mut(s) {
                            payload[(x >> 8) as usize % 8] ^= 1 << (x & 7);
                        }
                    }
                    2 if i > 0 => {
                        let (pb, ps) = unit(i - 1);
                        let moved = arena.slot(pb, ps).map(|b| b.to_block());
                        arena.write(b, s, moved.as_ref().map(Block::view));
                        auth.set_slot_record(b, s, auth.slot_record(pb, ps));
                    }
                    3 => {
                        let old = (
                            arena.slot(b, s).map(|b| b.to_block()),
                            auth.slot_record(b, s),
                        );
                        auth.record_slot(b, s, Some(block(i, 2).view()));
                        arena.write(b, s, old.0.as_ref().map(Block::view));
                        auth.set_slot_record(b, s, old.1);
                    }
                    4 => auth.set_slot_record(b, s, None),
                    _ => {}
                }
            }
            let batched = convicted_slots(&auth, &arena);
            assert_eq!(
                batched,
                convicted_one_by_one(&auth, &arena),
                "{units} units"
            );
            kinds.extend(batched.iter().map(|&(_, _, v)| v.label()));
        }
        let all = ["missing", "spliced", "stale", "tampered"];
        assert!(kinds.into_iter().eq(all), "a verdict kind never came up");
    }

    #[test]
    fn a_record_planted_on_a_never_written_slot_is_stale_and_stays_untracked() {
        // The record is authentic — made under the same key, for this
        // very unit — but this controller never wrote the unit: nothing on
        // chip vouches for it.
        let key = [3u8; 16];
        let block = Block::new(BlockAddr(1), Leaf(0), vec![7; 8]);
        let mut elsewhere = AuthTags::new(&key);
        elsewhere.record_slot(6, 1, Some(block.view()));
        let mut auth = AuthTags::new(&key);
        let mut arena = SlotArena::new(4, 8);
        auth.record_slot(6, 0, None);
        auth.set_slot_record(6, 1, elsewhere.slot_record(6, 1));
        auth.set_slot_record(9, 2, elsewhere.slot_record(6, 1));
        arena.write(6, 1, Some(block.view()));
        assert_eq!(
            auth.verdict_slot(6, 1, Some(block.view())),
            FreshnessVerdict::Stale
        );
        assert_eq!(
            auth.verdict_slot(9, 2, Some(block.view())),
            FreshnessVerdict::Spliced
        );
        // Tracking follows the trusted counters, not the records: phase 1
        // visits the one written unit and nothing the adversary planted.
        assert_eq!(auth.tagged_slots_sorted(), vec![(6, 0)]);
        assert_eq!(convicted_slots(&auth, &arena), vec![]);
        assert_eq!(convicted_one_by_one(&auth, &arena), vec![]);
    }
}

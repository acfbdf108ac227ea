//! The recovery ladder — detect → classify → repair → rollback → fail
//! safe — written once, over the shared [`SlotArena`], the persisted
//! [`PosMap`] and the [`CommitLedger`].
//!
//! A controller's `recover` is one call, [`Shell::recover`], which walks
//! the rungs in order:
//!
//! 1. [`Ladder::enter`] — idempotent entry: a controller that is not
//!    crashed repeats its last verdict; a crashed one collects the
//!    incidents the crash filed.
//! 2. [`Ladder::detect`] (hardened designs) — root sanity, then phase 1:
//!    every tagged slot is classified against the trusted counters and
//!    every convicted one wiped; then phase 2: every damaged persisted
//!    PosMap entry is repaired from the newest authenticated copy of its
//!    address, or re-tagged and rolled back under a typed error.
//! 3. whatever the protocol itself restores after a power failure, the
//!    step it hands in (Ring's Case-2 compaction; Path has nothing to do).
//! 4. [`Ladder::repair`] (hardened designs) — the audit, then phase 3:
//!    every committed address the audit can no longer find is re-pointed
//!    at its newest surviving authenticated copy, or rolled back; then the
//!    freshness epoch is closed and the verdict read off the addresses
//!    phase 3 touched. An unhardened design's verdict is the audit itself
//!    ([`check_committed`]).
//! 5. [`Ladder::finish`] — the poison latch and the assembled
//!    [`RecoveryReport`].
//!
//! The audit is the ladder's: one header-only sweep of the arena locates
//! every committed address at once ([`locate`]). What a protocol supplies
//! is what differs between protocols ([`Copies`]): where a committed copy
//! may sit and the words the audit complains in, how a copy is opened
//! (Path decrypts it), how a surviving one is *admitted* back (Ring clears
//! its backup mark and re-records the slot), and step 3.

use psoram_nvm::FaultClass;

use super::{recoverable, CommitLedger, DeviceSide, EngineControl, Shell};
use std::mem::take;

use crate::arena::SlotArena;
use crate::auth::{AuthTags, FreshnessVerdict};
use crate::block::{Block, BlockHeader, BlockRef};
use crate::crash::{RecoveryError, RecoveryIncident, RecoveryReport};
use crate::posmap::PosMap;
use crate::tree::BucketIndex;
use crate::types::{BlockAddr, Leaf};

/// The parts of a controller the ladder repairs, borrowed together: its
/// slot arena, PosMap and ledger.
type Media<'a> = (&'a mut SlotArena, &'a mut PosMap, &'a mut CommitLedger);

/// A `(bucket, slot)` unit of the arena.
type Unit = (u64, usize);

/// What a protocol tells the ladder about the copies of a committed
/// address.
pub(crate) trait Copies {
    /// Names the copy in the audit's complaints.
    const DESC: &'static str;

    /// The buckets that may hold a copy labelled `leaf`, ascending (of
    /// equally new copies the one in the lowest bucket is the one found).
    fn path(&self, leaf: Leaf) -> impl Iterator<Item = BucketIndex>;

    /// Whether `bucket` is one of [`Copies::path`]`(leaf)`: the audit's
    /// sweep asks it of every stored copy.
    fn on_path(&self, leaf: Leaf, bucket: BucketIndex) -> bool {
        self.path(leaf).any(|b| b == bucket)
    }

    /// Whether the copy `h`, stored in `bucket`, is one recovery counts:
    /// [`recoverable`] under `posmap`, on the persisted label's path.
    fn recoverable_at(&self, posmap: &PosMap, bucket: BucketIndex, h: &BlockHeader) -> bool {
        recoverable(posmap, h) && self.on_path(h.leaf, bucket)
    }

    /// Opens a payload as it is stored under `header` into the plaintext
    /// the ledger holds.
    fn open(&self, _header: &BlockHeader, _payload: &mut [u8]) {}

    /// [`Copies::open`] over many payloads, which a protocol that
    /// encrypts them opens side by side.
    fn open_lanes<'b>(&self, payloads: impl Iterator<Item = (&'b BlockHeader, &'b mut [u8])>) {
        for (header, payload) in payloads {
            self.open(header, payload);
        }
    }

    /// What a durable-stash design holds of `addr` outside the tree.
    fn durable_copy(&self, _addr: u64) -> Option<&[u8]> {
        None
    }

    /// Admits the survivor `copy`, sitting at `at`, as the committed copy
    /// of its address: the protocol's chance to promote it.
    fn admit(&self, _arena: &mut SlotArena, _auth: &mut AuthTags, _at: Unit, _copy: &mut Block) {}
}

impl Shell {
    /// Recovers after a power failure — the one entry to the ladder. The
    /// protocol lends its `arena`, says where its committed `copies` sit
    /// and hands in `between`, whatever it restores itself between phases
    /// 2 and 3 (over the arena, the persisted PosMap, its copies and, on a
    /// hardened design, the records its own slot writes refresh), which
    /// returns whether it moved or dropped a stored copy. An unhardened
    /// design's verdict is the audit alone. The ledger then notes the
    /// recovery: what it restored is what each address must read until it
    /// is written again.
    ///
    /// The survivor searches and the audit find copies through one
    /// [`CopyIndex`], built by one header sweep after phase 1's wipes and
    /// again only if `between` moved a copy.
    ///
    /// Idempotent: on a controller that is not crashed, the last verdict
    /// again, state and counters untouched.
    pub(crate) fn recover<C: Copies>(
        &mut self,
        arena: &mut SlotArena,
        copies: &C,
        between: impl FnOnce(&mut SlotArena, &PosMap, &C, Option<&mut AuthTags>) -> bool,
    ) -> RecoveryReport {
        let mut ladder = match Ladder::enter(&self.ctl, &mut self.device, &self.ledger) {
            Ok(ladder) => ladder,
            Err(last) => return *last,
        };
        let index = &mut self.copy_index;
        let mut auth = self.device.auth.take();
        if let Some(auth) = auth.as_mut() {
            let media = (&mut *arena, &mut self.posmap, &mut self.ledger);
            ladder.detect(&mut self.ctl, media, auth, index);
        }
        let moved = between(arena, &self.posmap, copies, auth.as_mut());
        if moved || auth.is_none() {
            index.build(arena);
        }
        let check = match auth.as_mut() {
            Some(auth) => {
                let media = (&mut *arena, &mut self.posmap, &mut self.ledger);
                ladder.repair(media, auth, copies, index)
            }
            None => check_indexed(index, arena, &self.posmap, &self.ledger, copies),
        };
        self.device.auth = auth;
        self.ledger.recovered();
        ladder.finish(&mut self.ctl, check, self.ledger.committed_len())
    }
}

/// One recovery in progress: what it detected, repaired and gave up on.
#[derive(Debug, Default)]
struct Ladder {
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
    /// ladder holding the incidents the device side filed.
    fn enter(
        engine: &EngineControl,
        device: &mut DeviceSide,
        ledger: &CommitLedger,
    ) -> Result<Ladder, Box<RecoveryReport>> {
        if !engine.is_crashed() {
            let last = engine.last_recovery().cloned();
            let clean = || RecoveryReport::from_check(Ok(()), ledger.committed_len());
            return Err(Box::new(last.unwrap_or_else(clean)));
        }
        Ok(Ladder {
            incidents: device.take_incidents(),
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

    /// Root sanity, phase 1 and phase 2; `index` is built over the arena
    /// phase 1 leaves.
    fn detect(
        &mut self,
        engine: &mut EngineControl,
        (arena, posmap, ledger): Media<'_>,
        auth: &mut AuthTags,
        index: &mut CopyIndex,
    ) {
        // The on-chip counter tree must agree with the root anchored in
        // the persistence domain. A mismatch means the trusted anchor
        // itself cannot be believed — fail safe.
        if auth.anchored() != auth.root() {
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
        index.build(arena);
        // Phase 2 — persisted PosMap entries: a corrupt, replayed or
        // spliced leaf label is repaired from the newest authenticated
        // block copy of the address (the redundant copy names the true
        // leaf, and its counter proves it fresher). The survivors of all
        // of them are found first: nothing the loop changes (PosMap
        // entries, their records, the ledger) is read by that search.
        let mut damaged: Vec<(u64, Leaf)> = Vec::new();
        let leaf_of = |a| posmap.persisted_get(BlockAddr(a)).0;
        auth.verdict_posmaps(leaf_of, |a, leaf, verdict| {
            if verdict != FreshnessVerdict::Clean {
                self.convict(verdict);
                damaged.push((a, Leaf(leaf)));
            }
        });
        // The entries were judged in no order; they are repaired, and
        // reported, in address order.
        damaged.sort_unstable_by_key(|&(a, _)| a);
        let addrs: Vec<u64> = damaged.iter().map(|&(a, _)| a).collect();
        let survivors = newest_valid_copies(index, arena, auth, &addrs);
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

    /// The audit, phase 3 — repair-from-redundant-copy — the epoch close
    /// and the verdict over the recovered state.
    ///
    /// Every survivor is admitted and opened before it is compared with
    /// the committed value. The verdict re-audits only the addresses phase
    /// 3 re-pointed or rolled back: an address's audit reads its PosMap
    /// entry, its ledger row and the headers and payloads of its own
    /// copies, and between the two audits nothing but phase 3 writes any
    /// of those, for the addresses that failed the first (DESIGN.md §7).
    fn repair<C: Copies>(
        &mut self,
        (arena, posmap, ledger): Media<'_>,
        auth: &mut AuthTags,
        copies: &C,
        index: &mut CopyIndex,
    ) -> Result<(), String> {
        let failures = audit(index, arena, posmap, ledger, copies);
        debug_assert!(walked_all(arena, posmap, ledger, copies).eq(failures.iter().cloned()));
        let failed: Vec<u64> = failures.iter().map(|&(a, _)| a).collect();
        let survivors = newest_valid_copies(index, arena, auth, &failed);
        for ((a, detail), survivor) in failures.into_iter().zip(survivors) {
            let Some((at, mut copy)) = survivor else {
                ledger.rollback(a, None);
                self.lose(a, detail);
                continue;
            };
            copies.admit(arena, auth, at, &mut copy);
            copies.open(&copy.header, &mut copy.payload);
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
        auth.anchor();
        let touched = failed
            .iter()
            .filter_map(|&a| Some((a, ledger.committed_value(a)?)));
        let verdict = first(walked(arena, posmap, ledger, copies, touched));
        debug_assert_eq!(verdict, first(walked_all(arena, posmap, ledger, copies)));
        verdict
    }

    /// The last rung: `check` is the protocol's consistency verdict over
    /// the recovered state. The report is retained by the engine, which
    /// leaves the crashed state and counts the recovery.
    fn finish(
        mut self,
        engine: &mut EngineControl,
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

/// The recoverability audit, one-shot: the first committed address (in
/// ascending order) with no copy at its persisted PosMap position holding
/// exactly the committed value — every controller's public
/// `check_recoverability`, over an index built for the call.
///
/// # Errors
///
/// Returns a human-readable description of that inconsistency.
pub(crate) fn check_committed<C: Copies>(
    arena: &SlotArena,
    posmap: &PosMap,
    ledger: &CommitLedger,
    copies: &C,
) -> Result<(), String> {
    let mut index = CopyIndex::default();
    index.build(arena);
    check_indexed(&mut index, arena, posmap, ledger, copies)
}

/// [`check_committed`] over an `index` of `arena` already built — the
/// verdict of an unhardened design's recovery.
fn check_indexed<C: Copies>(
    index: &mut CopyIndex,
    arena: &SlotArena,
    posmap: &PosMap,
    ledger: &CommitLedger,
    copies: &C,
) -> Result<(), String> {
    let located = Located::open(index, arena, posmap, ledger, copies);
    let copy_at = |row, a, found: &mut Vec<u8>| located.copy_at(row, a, found);
    let durable = |a| copies.durable_copy(a);
    let lowest = ledger.lowest_violation(ledger.committed_iter(), C::DESC, copy_at, durable);
    let verdict = lowest.map_or(Ok(()), |(_, complaint)| Err(complaint));
    debug_assert_eq!(verdict, first(walked_all(arena, posmap, ledger, copies)));
    verdict
}

fn first(mut violations: impl Iterator<Item = (u64, String)>) -> Result<(), String> {
    violations
        .next()
        .map_or(Ok(()), |(_, complaint)| Err(complaint))
}

/// Every committed address the audit cannot find, ascending, each with
/// its complaint: the ledger read row by row in its own order against
/// what [`Located::open`] found, and only the violations sorted.
fn audit<C: Copies>(
    index: &mut CopyIndex,
    arena: &SlotArena,
    posmap: &PosMap,
    ledger: &CommitLedger,
    copies: &C,
) -> Vec<(u64, String)> {
    let located = Located::open(index, arena, posmap, ledger, copies);
    let copy_at = |row, a, found: &mut Vec<u8>| located.copy_at(row, a, found);
    let durable = |a| copies.durable_copy(a);
    let rows = ledger.committed_iter();
    let mut violations: Vec<_> = ledger.violations(rows, C::DESC, copy_at, durable).collect();
    violations.sort_unstable_by_key(|&(a, _)| a);
    violations
}

/// What the audit finds of every committed row, rows numbered in
/// [`CommitLedger::committed_iter`]'s order: whether a copy was located,
/// and its payload opened.
struct Located<'a> {
    posmap: &'a PosMap,
    located: &'a [u32],
    /// Row `i`'s opened payload at `i * width`.
    plain: &'a [u8],
    width: usize,
}

impl<'a> Located<'a> {
    /// Every committed row located at once through `index` ([`locate`]),
    /// and the located copies opened a lane-full at a time, into the
    /// index's own storage.
    fn open(
        index: &'a mut CopyIndex,
        arena: &SlotArena,
        posmap: &'a PosMap,
        ledger: &CommitLedger,
        copies: &impl Copies,
    ) -> Self {
        let (mut located, mut plain) = (take(&mut index.located), take(&mut index.plain));
        locate(index, arena, posmap, ledger, copies, &mut located);
        let width = arena.payload_bytes();
        plain.clear();
        reserve_total(&mut plain, located.capacity() * width);
        plain.resize(located.len() * width, 0);
        // Each located payload is copied out as the lanes reach it.
        let stored = located.iter().zip(plain.chunks_exact_mut(width.max(1)));
        copies.open_lanes(stored.filter_map(|(&unit, out)| {
            let (_, copy) = (unit != NONE).then(|| index.slot(arena, unit))??;
            out.copy_from_slice(copy.payload);
            Some((copy.header, out))
        }));
        (index.located, index.plain) = (located, plain);
        Located {
            posmap,
            located: &index.located,
            plain: &index.plain,
            width,
        }
    }

    /// [`CommitLedger::violations`]' `copy_at`: row `row`'s opened copy,
    /// if it has one.
    fn copy_at(&self, row: usize, a: u64, found: &mut Vec<u8>) -> (Leaf, bool) {
        let present = self.located[row] != NONE;
        if present {
            found.extend_from_slice(&self.plain[row * self.width..][..self.width]);
        }
        (self.posmap.persisted_get(BlockAddr(a)), present)
    }
}

/// The audit of `rows` alone, an address at a time, in their order: a
/// walk down its persisted path ([`SlotArena::newest_on_path`]). What
/// [`locate`]'s one sweep answers for every address at once.
fn walked<'a, C: Copies>(
    arena: &'a SlotArena,
    posmap: &'a PosMap,
    ledger: &'a CommitLedger,
    copies: &'a C,
    rows: impl IntoIterator<Item = (u64, &'a Vec<u8>)> + 'a,
) -> impl Iterator<Item = (u64, String)> + 'a {
    let copy_at = move |_, a, found: &mut Vec<u8>| {
        let leaf = posmap.persisted_get(BlockAddr(a));
        let copy = arena.newest_on_path(copies.path(leaf), BlockAddr(a), leaf);
        read_out(copies, copy, found);
        (leaf, copy.is_some())
    };
    ledger.violations(rows, C::DESC, copy_at, |a| copies.durable_copy(a))
}

/// The whole ledger [`walked`] — what both audits were before the sweep,
/// kept for debug builds to hold the sweep and the narrow verdict to.
fn walked_all<'a, C: Copies>(
    arena: &'a SlotArena,
    posmap: &'a PosMap,
    ledger: &'a CommitLedger,
    copies: &'a C,
) -> impl Iterator<Item = (u64, String)> + 'a {
    walked(arena, posmap, ledger, copies, ledger.committed_sorted())
}

/// The plaintext payload of `copy` into `found`.
fn read_out(copies: &impl Copies, copy: Option<BlockRef<'_>>, found: &mut Vec<u8>) {
    if let Some(b) = copy {
        found.extend_from_slice(b.payload);
        copies.open(b.header, found);
    }
}

/// Where recovery finds the arena's copies, by address: every stored real
/// copy's unit, grouped by the address its header names and, within an
/// address, in the arena's order (bucket index, then slot) — the order in
/// which a sweep of the arena would meet them.
///
/// One header sweep builds it ([`CopyIndex::build`]): the `(address,
/// unit)` pairs in sweep order, then a counting sort by address, which is
/// stable and so keeps each address's copies in sweep order. A unit is a
/// `u32`: slot `u & mask` of the `u >> shift`-th bucket that stored a real
/// copy. The vectors keep their capacity from one recovery to the next,
/// so a recovery allocates no more for its index in a taller tree
/// (`steady_state_allocs`). The index answers "which slots hold a copy of
/// `a`" and nothing else: every verdict, MAC and comparison a search
/// makes is made on the copy where it lies, on every recovery (DESIGN.md
/// §7).
#[derive(Debug, Default)]
pub(crate) struct CopyIndex {
    /// Bits of a unit that name its slot.
    shift: u32,
    /// The buckets that stored a real copy when the index was built,
    /// ascending.
    buckets: Vec<BucketIndex>,
    /// The copies of address `a` are `units[starts[a]..starts[a + 1]]`.
    starts: Vec<u32>,
    units: Vec<u32>,
    /// Every stored copy's `(address, unit)`, in sweep order: the sort's
    /// input.
    pairs: Vec<(u32, u32)>,
    /// The audit's: per committed row, the unit of the copy it located
    /// ([`NONE`] if none), and that copy's payload opened.
    located: Vec<u32>,
    plain: Vec<u8>,
}

/// A committed row the audit located no copy of.
const NONE: u32 = u32::MAX;

impl CopyIndex {
    /// Indexes every real copy `arena` stores, in one header sweep and
    /// one counting sort.
    ///
    /// # Panics
    ///
    /// Panics if a stored address or unit does not fit in a `u32`: no
    /// tree this crate can recover holds one (its ledger would not fit in
    /// memory first).
    pub(crate) fn build(&mut self, arena: &SlotArena) {
        let shift = usize::BITS - (arena.slots() - 1).leading_zeros();
        let (buckets, pairs) = (&mut self.buckets, &mut self.pairs);
        buckets.clear();
        pairs.clear();
        // Room for every slot of the arena's pages: once the tree has its
        // pages, a recovery allocates nothing here however many copies it
        // holds.
        reserve_total(buckets, arena.slot_room() >> shift);
        reserve_total(pairs, arena.slot_room());
        let mut span = 0;
        for (bucket, stored) in arena.iter() {
            let base = buckets.len() << shift;
            let before = pairs.len();
            for (slot, h) in stored.headers() {
                let a = u32::try_from(h.addr.0).expect("an indexed address fits in a u32");
                let unit = u32::try_from(base | slot).expect("an indexed unit fits in a u32");
                span = span.max(a as usize + 1);
                pairs.push((a, unit));
            }
            if pairs.len() > before {
                buckets.push(bucket);
            }
        }
        // Count each address's copies into `starts[a + 2]`; the running
        // sum then makes `starts[a + 1]` the first of `a`'s places, and
        // placing a copy advances it, so that afterwards `starts[a]` is
        // the first of `a`'s places and `starts[a + 1]` one past its last.
        let starts = &mut self.starts;
        starts.clear();
        reserve_total(starts, (span + 2).next_power_of_two());
        starts.resize(span + 2, 0);
        for &(a, _) in pairs.iter() {
            starts[a as usize + 2] += 1;
        }
        for i in 2..starts.len() {
            starts[i] += starts[i - 1];
        }
        reserve_total(&mut self.units, pairs.capacity());
        self.units.resize(pairs.len(), 0);
        for &(a, unit) in pairs.iter() {
            let place = &mut starts[a as usize + 1];
            self.units[*place as usize] = unit;
            *place += 1;
        }
        self.shift = shift;
    }

    /// The slot unit `unit` names and the copy `arena` holds there, if
    /// any.
    #[inline]
    fn slot<'a>(&self, arena: &'a SlotArena, unit: u32) -> Option<(Unit, BlockRef<'a>)> {
        let bucket = self.buckets[(unit >> self.shift) as usize];
        let slot = (unit & ((1 << self.shift) - 1)) as usize;
        Some(((bucket, slot), arena.slot(bucket, slot)?))
    }

    /// The copies of `addr` in `arena`, with where each sits and its unit,
    /// in the arena's order.
    fn copies<'s, 'a: 's>(
        &'s self,
        arena: &'a SlotArena,
        addr: u64,
    ) -> impl Iterator<Item = (Unit, BlockRef<'a>, u32)> + 's {
        let units = match usize::try_from(addr) {
            Ok(a) if a + 1 < self.starts.len() => {
                &self.units[self.starts[a] as usize..self.starts[a + 1] as usize]
            }
            _ => &[],
        };
        units.iter().filter_map(move |&unit| {
            let (at, copy) = self.slot(arena, unit)?;
            debug_assert_eq!(copy.header.addr.0, addr, "the index is of this arena");
            Some((at, copy, unit))
        })
    }
}

/// For each committed row of `ledger` (in [`CommitLedger::committed_iter`]'s
/// order), where recovery finds its address, into `located`: the unit of
/// the newest copy whose header names the address's persisted leaf and
/// that sits on that leaf's path ([`Copies::recoverable_at`], the row's
/// leaf read once), among the address's copies in `index`; [`NONE`] if it
/// has none. They come in the arena's order and a later copy must be
/// strictly newer, which is [`SlotArena::newest_on_path`]'s tie rule on an
/// ascending path.
fn locate(
    index: &CopyIndex,
    arena: &SlotArena,
    posmap: &PosMap,
    ledger: &CommitLedger,
    copies: &impl Copies,
    located: &mut Vec<u32>,
) {
    let row = |(a, _): (u64, _)| {
        let leaf = posmap.persisted_get(BlockAddr(a));
        let mut best: Option<(u64, u32)> = None;
        for ((bucket, _), copy, unit) in index.copies(arena, a) {
            if copy.header.leaf == leaf
                && copies.on_path(leaf, bucket)
                && best.is_none_or(|(seq, _)| copy.header.seq > seq)
            {
                best = Some((copy.header.seq, unit));
            }
        }
        best.map_or(NONE, |(_, unit)| unit)
    };
    located.clear();
    reserve_total(located, ledger.committed_len().next_power_of_two());
    located.extend(ledger.committed_iter().map(row));
}

/// Grows `v`'s capacity to at least `total` elements.
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    v.reserve(total.saturating_sub(v.len()));
}

/// [`locate`] by a sweep of the whole arena, a copy's row found by an
/// address table built for the sweep: what the audit was before the
/// index, kept as the oracle the index is held to.
#[cfg(test)]
fn locate_swept<'a>(
    arena: &'a SlotArena,
    posmap: &PosMap,
    ledger: &CommitLedger,
    copies: &impl Copies,
) -> Vec<Option<BlockRef<'a>>> {
    let span = ledger.committed_iter().map(|(a, _)| a + 1).max();
    let mut rows = vec![u32::MAX; span.map_or(0, |n| n as usize)];
    for (row, (a, _)) in ledger.committed_iter().enumerate() {
        rows[a as usize] = row as u32;
    }
    let mut best: Vec<Option<BlockRef<'a>>> = vec![None; ledger.committed_len()];
    for (bucket, stored) in arena.iter() {
        for (slot, h) in stored.headers() {
            if !copies.recoverable_at(posmap, bucket, h) {
                continue;
            }
            let row = match rows.get(h.addr.0 as usize) {
                Some(&row) if row != u32::MAX => row as usize,
                _ => continue,
            };
            if best[row].is_none_or(|b| h.seq > b.header.seq) {
                best[row] = stored.slot(slot);
            }
        }
    }
    best
}

/// Phase 1's verdicts: every tagged slot that does not classify Clean, in
/// ascending unit order. A verdict reads only its own unit's content,
/// record and trusted counter, so the units classify side by side —
/// [`AuthTags::verdict_tracked_slots`] walks them bucket by bucket and MACs
/// them a lane-full at a time, in lanes by shape — and only the
/// convictions are put in order.
fn convicted_slots(auth: &AuthTags, arena: &SlotArena) -> Vec<(u64, usize, FreshnessVerdict)> {
    let mut convicted = Vec::new();
    auth.verdict_tracked_slots(arena, |bucket, slot, verdict| {
        if verdict != FreshnessVerdict::Clean {
            convicted.push((bucket, slot, verdict));
        }
    });
    convicted.sort_unstable_by_key(|&(bucket, slot, _)| (bucket, slot));
    convicted
}

/// For each of `addrs`, the newest (highest freshness counter) block copy
/// anywhere on media that passes slot authentication, with where it sits
/// — its copies found through `index`. Deterministic: the copies come in
/// the arena's order and the first of equally new copies wins (the replay
/// adversary can restore byte-exact stale duplicates whose counters tie);
/// a copy is authenticated only if it would beat the best so far.
fn newest_valid_copies(
    index: &CopyIndex,
    arena: &SlotArena,
    auth: &AuthTags,
    addrs: &[u64],
) -> Vec<Option<(Unit, Block)>> {
    let newest = |&a: &u64| {
        let mut best: Option<(Unit, BlockRef<'_>)> = None;
        for (at, copy, _) in index.copies(arena, a) {
            if best.is_none_or(|(_, b)| copy.header.seq > b.header.seq)
                && auth.verify_slot(at.0, at.1, Some(copy))
            {
                best = Some((at, copy));
            }
        }
        best.map(|(at, b)| (at, b.to_block()))
    };
    addrs.iter().map(newest).collect()
}

/// [`newest_valid_copies`] by a sweep of the whole arena, `addrs`
/// ascending and searched per header: what the survivor search was before
/// the index, kept as the oracle the index is held to.
#[cfg(test)]
fn newest_valid_copies_swept(
    arena: &SlotArena,
    auth: &AuthTags,
    addrs: &[u64],
) -> Vec<Option<(Unit, Block)>> {
    debug_assert!(addrs.windows(2).all(|w| w[0] < w[1]));
    let mut best: Vec<Option<(Unit, BlockRef<'_>)>> = vec![None; addrs.len()];
    if !addrs.is_empty() {
        for (idx, bucket) in arena.iter() {
            for (s, h) in bucket.headers() {
                let Ok(i) = addrs.binary_search(&h.addr.0) else {
                    continue;
                };
                let Some(b) = bucket.slot(s) else { continue };
                if best[i].is_none_or(|(_, x)| h.seq > x.header.seq)
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
    use psoram_nvm::{FaultConfig, FaultPlan};

    use super::*;
    use crate::engine::device::{draw_crash_damage, RoundDamage};
    use crate::engine::ProtocolPolicy;
    use crate::testkit::{read_back, Toy, TOY_ADDRS as ADDRS};
    use crate::types::OramError;

    /// The first seed whose plan draws, as its first crash damage over a
    /// round of `units` (slots, PosMap entries), damage that `wanted`
    /// accepts — what [`DeviceSide::strike`] will draw on a toy armed with
    /// that seed, which consumes no plan entropy before its crash.
    pub(crate) fn seed_where(
        cfg: FaultConfig,
        units: (usize, usize),
        wanted: impl Fn(&RoundDamage) -> bool,
    ) -> u64 {
        let draws =
            |seed| draw_crash_damage(&mut FaultPlan::new(seed, cfg), units, &mut Vec::new());
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
        let mut toy = Toy::default();
        toy.write(&[0, 1, 2], 7);
        toy.enable_device_faults(seed, half_torn());
        toy.write(&[1], 9);
        let (buckets, before) = (toy.arena.materialized_buckets(), toy.state_digest());
        toy.crash_now();
        assert_ne!(toy.state_digest(), before, "the entry was not damaged");
        let report = toy.recover();
        assert!(report.consistent, "{:?}", report.violation);
        assert_eq!((report.repairs, report.rolled_back.len()), (1, 0));
        assert!(report.errors.is_empty() && !report.poisoned);
        assert_eq!(toy.state_digest(), before, "the repair restores the state");
        assert_eq!(toy.shell.ledger.committed_value(1), Some(&vec![9; 8]));
        assert_eq!(toy.arena.materialized_buckets(), buckets);
    }

    #[test]
    fn a_third_protocol_is_driven_through_the_policy_surface_alone() {
        let torn = |d: &RoundDamage| d.data_units == [0];
        let rotted = |d: &RoundDamage| d.data_units.is_empty() && d.posmap_units == [0];
        let found = [torn as fn(&_) -> _, rotted].map(|d| seed_where(half_torn(), (1, 1), d));
        for seed in [1, 5].into_iter().chain(found) {
            let mut toy: Box<dyn ProtocolPolicy> = Box::new(Toy::default());
            toy.enable_device_faults(seed, FaultConfig::replay_mix());
            for i in 0..24u64 {
                toy.write(i * 7 % ADDRS, vec![i as u8; 8]).unwrap();
            }
            assert_eq!(toy.read(3).unwrap(), vec![21; 8]);
            toy.crash_now();
            assert!(toy.is_crashed());
            assert_eq!(toy.read(3), Err(OramError::Crashed));
            let refused = toy.verify_contents(true);
            assert_eq!(refused, Err(OramError::Crashed.to_string()));
            let report = toy.recover();
            assert!(report.consistent, "seed {seed}: {:?}", report.violation);
            assert!(!report.poisoned && toy.poisoned().is_none(), "seed {seed}");
            toy.verify_contents(true)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            read_back(toy.as_mut(), true).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            // And it goes on serving.
            toy.write(1, vec![0xEE; 8]).unwrap();
            assert_eq!(toy.read(1).unwrap(), vec![0xEE; 8]);
            assert_eq!((toy.access_attempts(), toy.label().as_str()), (31, "toy"));
        }
    }

    #[test]
    fn a_third_protocols_round_committed_but_not_drained_survives_the_power_failure() {
        let mut toy = Toy::default();
        toy.write(&[0, 1], 7);
        toy.enable_device_faults(3, FaultConfig::disabled());
        // The end signal arrives, the drain does not.
        toy.stage(&[2], &[9; 8]);
        toy.wpq.commit_round(&toy.shell.ctl).unwrap();
        toy.crash_now();
        crate::testkit::the_committed_round_survived(&mut toy, 2, &[9; 8]);
    }

    #[test]
    fn a_third_protocol_rolls_a_torn_block_back_under_a_typed_error_and_recovers_once() {
        let seed = seed_where(half_torn(), (1, 1), |d| d.data_units == [0]);
        let mut toy = Toy::default();
        toy.write(&[0, 1, 2], 7);
        toy.enable_device_faults(seed, half_torn());
        toy.write(&[2], 9);
        let buckets = toy.arena.materialized_buckets();
        toy.crash_now();
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
        assert_eq!(toy.shell.ledger.committed_value(2), Some(&vec![7; 8]));
        assert_eq!(
            toy.arena.materialized_buckets(),
            buckets,
            "a wipe materialises nothing"
        );
        // Idempotent: the verdict again, nothing moved, nothing recounted.
        let digest = toy.state_digest();
        assert_eq!(toy.recover(), report);
        assert_eq!(toy.state_digest(), digest);
        assert_eq!(toy.shell.ctl.stats().recoveries, 1);
        // And a crash with nothing in flight recovers to the same state.
        toy.enable_device_faults(seed, FaultConfig::disabled());
        toy.crash_now();
        let again = toy.recover();
        assert!(again.consistent && again.rolled_back.is_empty() && again.repairs == 0);
        assert_eq!(toy.state_digest(), digest);
    }

    #[test]
    fn a_ladder_recovery_visits_every_tracked_unit_once_and_macs_every_real_claim() {
        let mut toy = Toy::default();
        toy.enable_device_faults(3, FaultConfig::disabled());
        for (i, a) in [0, 1, 2, 3, 1, 2, 1].into_iter().enumerate() {
            toy.write(&[a], i as u8);
        }
        let auth = toy.shell.device.auth.as_ref().unwrap();
        let tracked = auth.tagged_slots_sorted();
        let mut walked = Vec::new();
        auth.verdict_tracked_slots(&toy.arena, |b, s, _| walked.push((b, s)));
        walked.sort_unstable();
        assert_eq!(walked, tracked, "each tracked unit once");
        // The toy stores only real blocks: every tracked unit's claim is a
        // real block's, and every persisted entry's is MACed too.
        let entries = auth.tagged_posmap_sorted().len();
        let real = tracked
            .iter()
            .filter(|&&(b, s)| toy.arena.slot(b, s).is_some());
        assert_eq!(real.count(), tracked.len());
        for _ in 0..2 {
            toy.crash_now();
            crate::auth::MACED.with(|m| m.set((0, 0)));
            assert!(toy.recover().consistent);
            let maced = crate::auth::MACED.with(|m| m.get());
            assert_eq!(maced, (tracked.len(), entries), "on every recovery");
        }
    }

    /// Phase 1's verdicts the way both controllers computed them before
    /// the ladder was written once: the tracked units listed and sorted
    /// ([`AuthTags::tagged_slots_sorted`], the walk's oracle), one unit,
    /// one MAC, at a time.
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
            // The walk visits the listed units, each once.
            let mut walked = Vec::new();
            auth.verdict_tracked_slots(&arena, |b, s, _| walked.push((b, s)));
            walked.sort_unstable();
            assert_eq!(walked, auth.tagged_slots_sorted(), "{units} units");
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

    /// A height-3 heap-ordered tree, as Path and Ring lay theirs out.
    struct Heap;

    impl Copies for Heap {
        const DESC: &'static str = "copy";

        fn path(&self, leaf: Leaf) -> impl Iterator<Item = BucketIndex> {
            crate::tree::heap_path(Heap::LEVELS, leaf)
        }
    }

    impl Heap {
        const LEVELS: u32 = 3;
        const LEAVES: u64 = 1 << Heap::LEVELS;
        const BUCKETS: u64 = 2 * Heap::LEAVES - 1;
    }

    /// What the walk finds for every row, by the copy's own header and
    /// payload (the tests below give every stored copy its own payload).
    fn walked_copies<'a>(
        arena: &'a SlotArena,
        posmap: &PosMap,
        rows: &[(u64, &Vec<u8>)],
    ) -> Vec<Option<BlockRef<'a>>> {
        let walk = |&(a, _): &(u64, _)| {
            let leaf = posmap.persisted_get(BlockAddr(a));
            arena.newest_on_path(Heap.path(leaf), BlockAddr(a), leaf)
        };
        rows.iter().map(walk).collect()
    }

    #[test]
    fn the_sweep_skips_a_spliced_copy_and_breaks_a_tie_towards_the_root() {
        let mut arena = SlotArena::new(4, 1);
        let mut posmap = PosMap::new(Heap::LEAVES, 1);
        let mut ledger = CommitLedger::new();
        for a in 0..3 {
            posmap.persist(BlockAddr(a), Leaf(5));
            ledger.commit_if_fresh(a, 0, &[0]);
        }
        let mut id = 0u8;
        let mut store = |bucket, slot, a, leaf, seq| {
            id += 1;
            let mut b = Block::new(BlockAddr(a), Leaf(leaf), vec![id]);
            b.header.seq = seq;
            arena.write(bucket, slot, Some(b.view()));
        };
        // Leaf 5's path is buckets 0, 2, 5, 12.
        store(12, 0, 0, 5, 7); // a0: the tie's deeper end,
        store(2, 3, 0, 5, 7); //      the end nearer the root (found),
        store(5, 1, 0, 4, 9); //      a newer copy under another label,
        store(6, 0, 0, 5, 9); //      and a newer one spliced off the path.
        store(11, 2, 1, 5, 1); // a1: only a spliced copy — not found.
        store(0, 0, 7, 5, 1); // a7 is not committed; a2 has no copy.
        let rows: Vec<_> = ledger.committed_iter().collect();
        let found = located(&indexed(&arena), &arena, &posmap, &ledger);
        assert_eq!(found, walked_copies(&arena, &posmap, &rows));
        assert_eq!(found, locate_swept(&arena, &posmap, &ledger, &Heap));
        for (&(a, _), b) in rows.iter().zip(&found) {
            assert_eq!(b.map(|b| b.payload), (a == 0).then_some(&[2u8][..]), "a{a}");
        }
    }

    mod props {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// One sweep of the arena finds, for every committed address,
            /// the copy a walk down its persisted path finds — in Path's
            /// geometry (Z = 4) and in Ring's (Z + S = 9, consumed slots):
            /// copies whose counters tie, copies carrying the persisted
            /// leaf off that leaf's path (a splice), copies under another
            /// leaf, buckets nothing materialised, addresses without a
            /// copy and copies of addresses nobody committed.
            #[test]
            fn located_copies_match_newest_on_path(
                ring in any::<bool>(),
                labels in vec(0..Heap::LEAVES, 6),
                stored in vec((0u64..8, 0..2 * Heap::LEAVES, 0u64..3, 0..2 * Heap::LEVELS + 2, 0..Heap::BUCKETS, 0usize..9), 0..48),
                consumed in vec((0..Heap::BUCKETS, 0usize..9), 0..8),
                committed in vec(any::<bool>(), 8),
            ) {
                let slots = if ring { 9 } else { 4 };
                let mut arena = SlotArena::new(slots, 1);
                let mut posmap = PosMap::new(Heap::LEAVES, 1);
                // Addresses 6 and 7 keep their initial labels.
                for (a, &leaf) in labels.iter().enumerate() {
                    posmap.persist(BlockAddr(a as u64), Leaf(leaf));
                }
                for (id, &(a, label, seq, depth, anywhere, slot)) in stored.iter().enumerate() {
                    // Half the copies carry their address's persisted leaf;
                    // a quarter sit wherever `anywhere` says, the rest at
                    // `depth` on the path of the leaf they carry.
                    let addr = BlockAddr(a);
                    let leaf = if label < Heap::LEAVES { Leaf(label) } else { posmap.persisted_get(addr) };
                    let bucket = Heap.path(leaf).nth(depth as usize).unwrap_or(anywhere);
                    let mut b = Block::new(addr, leaf, vec![id as u8]);
                    b.header.seq = seq;
                    arena.write(bucket, slot % slots, Some(b.view()));
                }
                for &(bucket, slot) in consumed.iter().filter(|_| ring) {
                    if let Some(mut b) = arena.bucket_mut_if_present(bucket) {
                        b.consume(slot);
                    }
                }
                let mut ledger = CommitLedger::new();
                for (a, _) in committed.iter().enumerate().filter(|(_, &c)| c) {
                    ledger.commit_if_fresh(a as u64, 0, &[a as u8]);
                }
                let rows: Vec<_> = ledger.committed_iter().collect();
                let mut index = indexed(&arena);
                prop_assert_eq!(
                    located(&index, &arena, &posmap, &ledger),
                    walked_copies(&arena, &posmap, &rows)
                );
                let swept = audit(&mut index, &arena, &posmap, &ledger, &Heap);
                let walked: Vec<_> = walked_all(&arena, &posmap, &ledger, &Heap).collect();
                prop_assert_eq!(swept, walked);
            }

            /// The ladder's index answers what the sweeps it replaced
            /// answered — the audit's locate and the survivor search —
            /// in Path's geometry (Z = 4) and Ring's (Z + S = 9): slots
            /// holding content no record covers, copies whose counters
            /// tie, consumed Ring slots, and, after a between-step that
            /// drops copies and stores new ones, the index built again.
            #[test]
            fn ladder_index_answers_what_the_sweeps_do(
                ring in any::<bool>(),
                labels in vec(0..Heap::LEAVES, 8),
                stored in vec(((0u64..10, 0..2 * Heap::LEAVES, 0u64..3), (0..2 * Heap::LEVELS + 2, 0..Heap::BUCKETS, 0usize..9, any::<bool>())), 0..48),
                consumed in vec((0..Heap::BUCKETS, 0usize..9), 0..8),
                moved in vec((0..Heap::BUCKETS, 0usize..9, any::<bool>(), 0u64..10, 0u64..3), 0..12),
                committed in vec(any::<bool>(), 10),
            ) {
                let slots = if ring { 9 } else { 4 };
                let mut arena = SlotArena::new(slots, 1);
                let mut auth = AuthTags::new(&[5; 16]);
                let mut posmap = PosMap::new(Heap::LEAVES, 1);
                for (a, &leaf) in labels.iter().enumerate() {
                    posmap.persist(BlockAddr(a as u64), Leaf(leaf));
                }
                let mut id = 0u8;
                // Half the copies carry their address's persisted leaf; a
                // quarter sit wherever `anywhere` says, the rest at `depth`
                // on the path of the leaf they carry.
                let mut store = |arena: &mut SlotArena, auth: &mut AuthTags, ((a, label, seq), (depth, anywhere, slot, tracked))| {
                    id = id.wrapping_add(1);
                    let leaf = if label < Heap::LEAVES { Leaf(label) } else { posmap.persisted_get(BlockAddr(a)) };
                    let bucket = Heap.path(leaf).nth(depth as usize).unwrap_or(anywhere);
                    let mut b = Block::new(BlockAddr(a), leaf, vec![id]);
                    b.header.seq = seq;
                    arena.write(bucket, slot % slots, Some(b.view()));
                    // An untracked slot holds content no record covers.
                    if tracked {
                        auth.record_slot(bucket, slot % slots, Some(b.view()));
                    }
                };
                for &copy in &stored {
                    store(&mut arena, &mut auth, copy);
                }
                for &(bucket, slot) in consumed.iter().filter(|_| ring) {
                    if let Some(mut b) = arena.bucket_mut_if_present(bucket) {
                        b.consume(slot % slots);
                    }
                }
                let mut ledger = CommitLedger::new();
                for (a, _) in committed.iter().enumerate().filter(|(_, &c)| c) {
                    ledger.commit_if_fresh(a as u64, 0, &[a as u8]);
                }
                let every: Vec<u64> = (0..12).collect();
                let mut index = CopyIndex::default();
                for step in 0..2 {
                    index.build(&arena);
                    prop_assert_eq!(
                        located(&index, &arena, &posmap, &ledger),
                        locate_swept(&arena, &posmap, &ledger, &Heap),
                        "step {}", step
                    );
                    prop_assert_eq!(
                        newest_valid_copies(&index, &arena, &auth, &every),
                        newest_valid_copies_swept(&arena, &auth, &every),
                        "step {}", step
                    );
                    // The between-step: a slot emptied, or a copy stored
                    // where it was not.
                    for &(bucket, slot, emptied, a, seq) in &moved {
                        if emptied {
                            arena.write(bucket, slot % slots, None);
                        } else {
                            store(&mut arena, &mut auth, ((a, Heap::LEAVES, seq), (2 * Heap::LEVELS, bucket, slot, true)));
                        }
                    }
                }
            }
        }
    }

    /// The index built on an arena.
    fn indexed(arena: &SlotArena) -> CopyIndex {
        let mut index = CopyIndex::default();
        index.build(arena);
        index
    }

    /// [`locate`]'s units, as the copies they name.
    fn located<'a>(
        index: &CopyIndex,
        arena: &'a SlotArena,
        posmap: &PosMap,
        ledger: &CommitLedger,
    ) -> Vec<Option<BlockRef<'a>>> {
        let mut units = Vec::new();
        locate(index, arena, posmap, ledger, &Heap, &mut units);
        let copy = |&unit: &u32| (unit != NONE).then(|| index.slot(arena, unit).unwrap().1);
        units.iter().map(copy).collect()
    }
}

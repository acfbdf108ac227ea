//! The controller shell: the state every tree-ORAM controller in this
//! crate holds whatever its protocol, and the steps of an access, a round
//! and a power failure that touch nothing else.
//!
//! A protocol owns its arena (Path's lives in its public `OramTree`), its
//! stash, its typed round queues ([`PersistEngine`]) and its statistics,
//! and lends the arena in where a step reaches the media. Everything a
//! driver does to a design that reads or writes only this state is a
//! provided method of [`ProtocolPolicy`](super::ProtocolPolicy) over it.

use psoram_nvm::{
    FaultConfig, NvmConfig, NvmController, WearConfig, WearEngine, WpqStats, WEAR_LINE_BYTES,
};
use psoram_obsv::{Event, MetricsRegistry, MetricsSource, Phase, Tap};

use psoram_crypto::Hash128;

use super::{
    AccessScratch, CommitLedger, CopyIndex, DeviceSide, DrainedRound, EngineControl, Listing,
    PersistEngine, PosMapFlush,
};
use crate::arena::SlotArena;
use crate::block::{BlockHeader, BlockRef};
use crate::crash::CrashPoint;
use crate::paged::PagedTable;
use crate::posmap::{PosMap, TempPosMap};
use crate::types::{BlockAddr, Leaf, OramError};

/// What a controller holds beside its protocol's own state.
#[derive(Debug)]
pub struct Shell {
    pub(crate) nvm: NvmController,
    pub(crate) posmap: PosMap,
    pub(crate) temp: TempPosMap,
    /// Crash arming & scheduling, the crashed-state latch, the recovery
    /// bookkeeping, the fail-safe latch and the tap.
    pub(crate) ctl: EngineControl,
    /// Written-vs-committed value ledgers (the recoverability oracle).
    pub(crate) ledger: CommitLedger,
    /// The adversary — fault plan, wear engine and their hands on the
    /// media — and the integrity layer that answers it.
    pub(crate) device: DeviceSide,
    /// Addresses accessed since construction (`verify_contents`).
    pub(crate) touched: PagedTable<()>,
    /// The controller's core-cycle clock (advanced by `read`/`write`).
    pub(crate) clock: u64,
    /// Monotonic per-block freshness source (`BlockHeader::seq`).
    pub(crate) seq_counter: u64,
    /// Reused per-access state (the path frame, the planner's tables, the
    /// payload free list): the steady-state access loop performs no heap
    /// allocation for these.
    pub(crate) scratch: AccessScratch,
    /// Where recovery finds the arena's copies by address, its storage
    /// kept from one recovery to the next ([`CopyIndex`]).
    pub(crate) copy_index: CopyIndex,
}

impl Shell {
    /// A shell over a fresh NVM, a PosMap of `num_leaves` labels seeded
    /// with `posmap_seed` and an empty temporary PosMap.
    pub(crate) fn new(
        nvm: NvmConfig,
        num_leaves: u64,
        posmap_seed: u64,
        temp_capacity: usize,
    ) -> Self {
        Shell {
            nvm: NvmController::new(nvm),
            posmap: PosMap::new(num_leaves, posmap_seed),
            temp: TempPosMap::new(temp_capacity),
            ctl: EngineControl::default(),
            ledger: CommitLedger::new(),
            device: DeviceSide::default(),
            touched: PagedTable::default(),
            clock: 0,
            seq_counter: 0,
            scratch: AccessScratch::default(),
            copy_index: CopyIndex::default(),
        }
    }

    /// The prologue of an access, the `index`-th the design admits:
    /// counts the attempt (arming a crash scheduled for it), validates the
    /// request against the geometry, notes the address touched and marks
    /// the start at `arrival`.
    ///
    /// # Errors
    ///
    /// [`OramError::Crashed`] / [`OramError::Poisoned`] while the design is
    /// down; [`OramError::AddressOutOfRange`] / [`OramError::PayloadSize`]
    /// on an invalid request.
    pub(crate) fn begin_access(
        &mut self,
        addr: BlockAddr,
        data: Option<&[u8]>,
        (capacity, payload_bytes): (u64, usize),
        index: u64,
        arrival: u64,
    ) -> Result<(), OramError> {
        self.ctl.begin_attempt()?;
        if addr.0 >= capacity {
            return Err(OramError::AddressOutOfRange { addr, capacity });
        }
        if let Some(got) = data.map(<[u8]>::len).filter(|&n| n != payload_bytes) {
            return Err(OramError::PayloadSize {
                expected: payload_bytes,
                got,
            });
        }
        self.touched.insert(addr.0, ());
        self.ctl.tap.set_now(arrival);
        self.ctl.tap.emit(|| Event::AccessStart {
            index,
            cycle: arrival,
        });
        Ok(())
    }

    /// Closes a phase of an access: publishes `end` as the tap's clock and
    /// records the span.
    pub(crate) fn phase(&self, phase: Phase, start: u64, end: u64) {
        self.ctl.tap.set_now(end);
        self.ctl.tap.emit(|| Event::Phase { phase, start, end });
    }

    /// The value of access `index` is ready at `ready`: closes the
    /// stash-update phase begun at `start`, and the access.
    pub(crate) fn end_access(&self, index: u64, start: u64, ready: u64) {
        self.phase(Phase::UpdateStash, start, ready);
        self.ctl.tap.emit(|| Event::AccessEnd {
            index,
            cycle: ready,
        });
    }

    /// Current-view PosMap lookup: the temporary PosMap first (PS
    /// variants), then the main map.
    pub(crate) fn lookup(&self, addr: BlockAddr) -> Leaf {
        self.temp.get(addr).unwrap_or_else(|| self.posmap.get(addr))
    }

    /// Whether a stored copy is *held*: its header names the label this
    /// controller holds for its address. Like [`recoverable`], it counts
    /// only on that label's path ([`Copies::on_path`](super::Copies::on_path)).
    pub(crate) fn held(&self, copy: &BlockHeader) -> bool {
        copy.leaf == self.lookup(copy.addr)
    }

    /// What a rewrite keeps of a copy it finds where it writes (Path's
    /// fetched path, Ring's rewritten bucket): a held copy, not a backup,
    /// of an address the stash does not hold (`stashed`, asked last) is
    /// its primary; else, where the design keeps `shadows`, a recoverable
    /// copy is a shadow; anything else is dead.
    pub(crate) fn keep(
        &self,
        copy: BlockRef<'_>,
        shadows: bool,
        stashed: impl FnOnce(BlockAddr) -> bool,
    ) -> Option<Kept> {
        if !copy.is_backup && self.held(copy.header) && !stashed(copy.addr()) {
            return Some(Kept::Primary);
        }
        (shadows && recoverable(&self.posmap, copy.header)).then_some(Kept::Shadow)
    }

    /// [`DeviceSide::flush`] over the shell's own maps.
    pub(crate) fn flush(
        &mut self,
        entries: impl Iterator<Item = PosMapFlush>,
        listing: Listing,
    ) -> u64 {
        let maps = (&mut self.posmap, &mut self.temp);
        self.device.flush(maps, entries, listing)
    }

    /// Arms the device side's wear engine over an NVM region of `bytes`
    /// bytes and, with it, the NVM controller's per-line write counts — the
    /// table only the armed adversary's report ([`Shell::publish_metrics`])
    /// reads.
    pub(crate) fn arm_wear(&mut self, seed: u64, bytes: u64, cfg: WearConfig) {
        let lines = bytes.div_ceil(WEAR_LINE_BYTES).max(1);
        self.device.wear = Some(WearEngine::new(seed, lines, cfg));
        self.nvm.count_lines();
    }

    // ── observation ─────────────────────────────────────────────────────

    /// A deterministic digest over a controller's recoverable state: the
    /// materialised buckets of `arena` in index order (content; with
    /// `read_marks`, Ring's valid bits and read counts too), the persisted
    /// PosMap, the committed ledger and — in wear mode only, so wear-free
    /// digests are byte-for-byte what pre-endurance builds computed — the
    /// durable line mapping. Two controllers in byte-identical recoverable
    /// state hash equal; the double-recover idempotency regression tests
    /// rely on it.
    pub(crate) fn state_digest(&self, arena: &SlotArena, read_marks: bool) -> u128 {
        // Streamed: the image is hashed as it is walked, never assembled.
        let mut image = Hash128::new().stream();
        for (idx, bucket) in arena.iter() {
            image.update(&idx.to_le_bytes());
            for slot in bucket.slots() {
                match slot {
                    None => image.update(&[0]),
                    Some(b) => {
                        image.update(&[1]);
                        image.update(&b.header.addr.0.to_le_bytes());
                        image.update(&b.header.leaf.0.to_le_bytes());
                        image.update(&b.header.seq.to_le_bytes());
                        image.update(&[b.is_backup as u8]);
                        image.update(b.payload);
                    }
                }
            }
            if read_marks {
                for s in 0..bucket.num_slots() {
                    image.update(&[bucket.is_valid(s) as u8]);
                }
                image.update(&(bucket.reads() as u64).to_le_bytes());
            }
        }
        for (a, l) in self.posmap.persisted_sorted() {
            image.update(&a.to_le_bytes());
            image.update(&l.to_le_bytes());
        }
        let mut committed: Vec<(u64, &Vec<u8>)> = self.ledger.committed_iter().collect();
        committed.sort_unstable_by_key(|&(a, _)| a);
        for (a, v) in committed {
            image.update(&a.to_le_bytes());
            image.update(v);
        }
        if let Some(wear) = &self.device.wear {
            image.update(&wear.mapping_digest().to_le_bytes());
        }
        u128::from_le_bytes(image.finalize())
    }

    /// Publishes a design's counters under `prefix`: the protocol's own
    /// (`oram`), the NVM's, the two WPQs' and, once armed, the wear
    /// engine's with the NVM's per-line report.
    pub(crate) fn publish_metrics(
        &self,
        prefix: &str,
        reg: &mut MetricsRegistry,
        oram: &dyn MetricsSource,
        (data, posmap): (WpqStats, WpqStats),
    ) {
        use MetricsRegistry as R;
        oram.publish(&R::key(prefix, "oram"), reg);
        self.nvm.stats().publish(&R::key(prefix, "nvm"), reg);
        data.publish(&R::key(prefix, "wpq.data"), reg);
        posmap.publish(&R::key(prefix, "wpq.posmap"), reg);
        if let Some(w) = &self.device.wear {
            w.publish(&R::key(prefix, "wear"), reg);
            let report = self.nvm.wear_report(8);
            report.publish(&R::key(prefix, "nvm.wear"), reg);
        }
    }
}

/// Whether a stored copy is *recoverable*: its header names the label
/// `posmap` has persisted for its address — the copy a recovery finds, on
/// that label's path. The other half of the copy rule is [`Shell::held`].
pub(crate) fn recoverable(posmap: &PosMap, copy: &BlockHeader) -> bool {
    copy.leaf == posmap.persisted_get(copy.addr)
}

/// What a rewrite keeps of a copy ([`Shell::keep`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kept {
    /// The current copy of its address.
    Primary,
    /// The only recoverable copy of a stash-resident block, kept (flagged
    /// a backup) so the rewrite does not destroy it.
    Shadow,
}

/// What the shell's frames ask of the protocol that holds it.
pub(crate) trait Rounds {
    /// The protocol's data persist unit.
    type Data;
    /// The shell, the round queues and the arena, lent together.
    fn media(&mut self) -> Media<'_, Self::Data>;
    /// Applies one round's entries to the NVM state, in the protocol's
    /// own data/PosMap order and under its own ledger rule.
    fn apply_round(&mut self, round: &mut DrainedRound<Self::Data, PosMapFlush>);
    /// Loses the protocol's volatile state to a power failure.
    fn wipe(&mut self);
}

/// A protocol's shell, round queues and arena.
pub(crate) type Media<'a, D> = (
    &'a mut Shell,
    &'a mut PersistEngine<D, PosMapFlush>,
    &'a mut SlotArena,
);

/// Sends the drainer *end* signal — the atomic commit point of the open
/// round — then drains the round and applies it. One that carries anything
/// becomes the round a power failure would interrupt.
///
/// # Errors
///
/// [`OramError::Wpq`]-wrapped queue errors if no round is open.
pub(crate) fn commit_and_apply<C: Rounds>(c: &mut C) -> Result<(), OramError> {
    let (shell, wpq, _) = c.media();
    wpq.commit_round(&shell.ctl)?;
    let mut round = wpq.drain();
    if let Some(wear) = shell.device.wear.as_mut() {
        // The leveling mapping staged since the last round (gap moves,
        // retirements) rides the round's commit point: one failure-atomic
        // register update in the persistence domain. Each drained data
        // unit then programs its line through the mapping as it stands.
        wear.commit();
        for e in &round.0 {
            wear.record_write(e.addr);
        }
    }
    shell.device.open_round(round.0.len() + round.1.len());
    c.apply_round(&mut round);
    c.media().1.keep(round);
    Ok(())
}

/// A queue is out of room mid-round: commits and applies what is already
/// pushed (each sub-round is still atomic, exactly like a planned
/// small-WPQ split), then reopens.
///
/// # Errors
///
/// As [`commit_and_apply`].
pub(crate) fn stall<C: Rounds>(c: &mut C) -> Result<(), OramError> {
    c.media().0.ctl.note_stall();
    commit_and_apply(c)?;
    let (shell, wpq, _) = c.media();
    Ok(wpq.begin_round(&shell.ctl)?)
}

/// Fires the armed crash plan if it matches `point`: the power fails and
/// the access reports [`OramError::Crashed`].
pub(crate) fn crash_at<C: Rounds>(c: &mut C, point: CrashPoint) -> Result<(), OramError> {
    if c.media().0.ctl.take_crash(point) {
        power_fail(c);
        return Err(OramError::Crashed);
    }
    Ok(())
}

/// The power failure. The engine latches the crashed state and hands over
/// what the ADR flush preserves — every committed round, open ones lost —
/// which the protocol applies the way it applies a drained round before
/// it loses its volatile state. Whatever order it applied the flush in,
/// the root anchored then covers all of it; the working PosMap falls back
/// to the persisted one; and the failure interrupts the media programming
/// of the last applied round (including anything the flush just applied):
/// torn flushes, lost signals, bit rot, replays and splices land on those
/// units now, behind the controller's back. Returns how many (data,
/// PosMap) entries the flush carried. (Kept out of line: every crash point
/// of an access reaches it, and none of them is the access's hot path.)
#[cold]
#[inline(never)]
pub(crate) fn power_fail<C: Rounds>(c: &mut C) -> (usize, usize) {
    let (shell, wpq, _) = c.media();
    let mut round = wpq.crash(&mut shell.ctl);
    if let Some(wear) = shell.device.wear.as_mut() {
        // A staged gap move or retirement that missed its commit round
        // never happened: recovery sees one consistent mapping. The ADR
        // flush still programs the committed rounds' cells — wear is device
        // truth and is never rolled back.
        wear.revert();
        for e in &round.0 {
            wear.record_crash_write(e.addr);
        }
    }
    let flushed = (round.0.len(), round.1.len());
    shell.device.open_round(flushed.0 + flushed.1);
    c.apply_round(&mut round);
    c.wipe();
    let (shell, _, arena) = c.media();
    shell.device.anchor_root();
    shell.posmap.crash();
    shell.device.strike(arena, &mut shell.posmap);
    flushed
}

/// Makes the backend adversarial ([`DeviceSide::arm`]) over the media as
/// they stand.
pub(crate) fn arm<C: Rounds>(c: &mut C, seed: u64, cfg: FaultConfig, hardened: bool) {
    let (shell, _, arena) = c.media();
    let media = (&*arena, &shell.posmap, &shell.temp);
    (shell.device).arm(seed, cfg, hardened, media);
}

/// Wires `tap` through the whole stack: the controller's own events, the
/// engine's round and recovery markers, both WPQs and the NVM's banks.
pub(crate) fn set_tap<C: Rounds>(c: &mut C, tap: Tap) {
    let (shell, wpq, _) = c.media();
    wpq.set_tap(tap.clone());
    shell.nvm.set_tap(tap.clone());
    shell.ctl.tap = tap;
}

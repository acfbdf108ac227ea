//! Freshness-protected AES-CMAC authentication over NVM-resident state.
//!
//! PR-5 gave recovery *integrity*: per-unit CMAC tags (RFC 4493, over the
//! dependency-free `psoram-crypto` AES) that convict torn programming and
//! bit rot. This module upgrades the layer to *freshness*. The threat
//! model sharpens: per-unit tags and version counters now conceptually
//! live **off-chip next to the data they cover**, so an adversary with
//! media access can replay a stale-but-authentic `(content, record)` pair
//! or splice an authentic record across addresses, and every per-unit
//! check still passes. The only trusted state is the on-chip
//! [`CounterTree`]: per-unit monotonic version counters aggregated (XOR
//! of per-unit digests, grouped by ORAM tree level) into a single root
//! digest that the persist engine stores atomically each round.
//!
//! Three structures cooperate:
//!
//! * [`UnitMeta`] — the off-chip stored record: the unit's version
//!   counter, its source identity `(bucket, slot)` or `(addr, _)`, and a
//!   CMAC tag binding counter + identity + canonical content bytes. An
//!   adversary may copy, re-serve, or relocate records wholesale.
//! * [`CounterTree`] — the on-chip trusted anchor. Each write bumps the
//!   unit's counter in O(1): the unit's old digest is XORed out of its
//!   tree-level aggregate and the new one XORed in, so the root is a pure
//!   function of the final counter map — independent of persist order.
//! * [`AuthTags`] — the verification front end. [`AuthTags::verdict_slots`]
//!   classifies what it reads back: `Tampered` (tag mismatch — media
//!   damage), `Spliced` (authentic record for a *different* address),
//!   `Stale` (authentic record whose counter lags the trusted one — a
//!   replay), `Missing` (trusted counter exists but the record is gone —
//!   rollback to genesis), or `Clean`.
//!
//! The slots of a bucket (of a path, of a round) are MACed independently,
//! and the layer reads a path as a path: [`AuthTags::record_slots`] and
//! [`AuthTags::verdict_slots`] stream the units they are handed — a
//! bucket's row of counters and records resolved once per run of its
//! slots, each unit framed in place where [`Cmac::tag_lanes`] reads it
//! (a payload that fits — the paper's 8 bytes — framed with the rest, a
//! longer one borrowed where it lies) — and MAC, judge and store them
//! [`LANES`] at a time. Recovery's phase 1 walks every tracked unit
//! bucket by bucket down the counter rows
//! ([`AuthTags::verdict_tracked_slots`]). The one-unit calls
//! (`bump_slot`, `record_slot`, `verdict_slot`, `classify_served_slot`)
//! are the same code over one unit, and every tag, digest and root is an
//! RFC 4493 output. A dummy's record is its counter digest: writing one
//! costs the one MAC its counter needs, and an intact one — naming its own
//! unit and current counter — is judged by comparing its tag with the
//! digest kept on chip; any other dummy claim, which only damage makes, is
//! MACed like a real block's. A persisted PosMap entry keeps the same
//! row (counter, folded digest, record) in a map of its own, keyed by its
//! address: a flush writes one entry at a time, and recovery reads them
//! all back through the lanes ([`AuthTags::verdict_posmaps`]).
//!
//! The temporary PosMap seal is unchanged from PR-5: it models an on-chip
//! rolling seal and is not replayable in this model.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;

use psoram_crypto::{Aes128, Cmac, CmacStream, Frame};

use crate::arena::SlotArena;
use crate::block::{Block, BlockRef};
use crate::tree::BucketIndex;
use crate::types::Leaf;
use crate::unit_table::UnitTable;

/// Units framed and MACed side by side per pass.
const LANES: usize = Cmac::LANES;
/// Units a write or a check holds at most at a time: enough that the
/// dummies among them, whose records cost no MAC of their own, leave the
/// real blocks' records to fill the [`LANES`].
const HELD: usize = 4 * LANES;

/// CMAC domain byte for tree-slot records.
const DOMAIN_SLOT: u8 = 0x51;
/// CMAC domain byte for persisted PosMap records.
const DOMAIN_POSMAP: u8 = 0x9A;
/// CMAC domain byte for counter-tree per-unit digests.
const DOMAIN_CTR: u8 = 0xC7;
/// CMAC domain byte for the counter-tree root.
const DOMAIN_ROOT: u8 = 0x52;

/// Slot-tag content marker: a real block (header, length, payload follow).
const MARK_REAL: u8 = 0xB1;
/// Counter-digest unit kind: a tree slot.
const KIND_SLOT: u8 = 0x01;
/// Counter-digest unit kind: a persisted PosMap entry.
const KIND_POSMAP: u8 = 0x02;

/// Starts a fixed-width MAC input over `f`, in place (a frame built where
/// the lanes read it is not copied there): little-endian fields appended
/// back to back, no length words. Every message built this way starts
/// with its domain byte and has a layout fully determined by the bytes
/// before each field, which is what makes the encodings injective
/// (DESIGN.md §10 and §11 walk each layout).
fn frame<const BLOCKS: usize>(f: &mut Frame<BLOCKS>, domain: u8) {
    f.clear();
    f.byte(domain);
}

/// A slot-tag frame: room for everything of a real slot (75 B) and a
/// payload of up to 21 bytes after it, in whole AES blocks — the paper's
/// 8-byte payloads are framed with the rest, so every record goes through
/// the lanes from its frame as it lies.
type SlotFrame = Frame<6>;
/// A counter-digest frame (26 B for a slot, 18 B for a PosMap entry).
type DigestFrame = Frame<2>;

/// What a slot record claims to cover: the identity and counter it was
/// written under, and the content found with it.
type SlotClaim<'a> = ((u64, u64), u64, Option<BlockRef<'a>>);

/// One tree slot and the content read back from, or about to be written
/// to, it.
pub(crate) type SlotUnit<'a> = (BucketIndex, usize, Option<BlockRef<'a>>);

/// The MAC input of a real slot's record, framed: the fixed part, then
/// the block's payload — in the frame too if it fits there, else borrowed
/// where it lies and returned beside the frame:
///
/// ```text
/// 0x51 ‖ src.0 ‖ src.1 ‖ ctr ‖ 0xB1 ‖ addr ‖ leaf ‖ iv1 ‖ iv2
///      ‖ seq ‖ is_backup ‖ payload_len ‖ payload             (75 B + payload)
/// ```
///
/// The length word keeps a payload from sliding into a longer one. An
/// empty slot's record has no frame of its own: its claim is framed as
/// the counter digest of the identity and counter it names
/// ([`claim_frame`]), whose domain byte keeps it apart from every real
/// block's.
#[inline]
fn slot_frame<'a>(f: &mut SlotFrame, src: (u64, u64), ctr: u64, b: BlockRef<'a>) -> &'a [u8] {
    frame(f, DOMAIN_SLOT);
    f.word(src.0);
    f.word(src.1);
    f.word(ctr);
    f.byte(MARK_REAL);
    f.word(b.header.addr.0);
    f.word(b.header.leaf.0);
    f.word(b.header.iv1);
    f.word(b.header.iv2);
    f.word(b.header.seq);
    f.byte(b.is_backup as u8);
    f.word(b.payload.len() as u64);
    if b.payload.len() > f.room() {
        return b.payload;
    }
    f.push(b.payload);
    &[]
}

/// `0xC7 ‖ 0x01 ‖ src.0 ‖ src.1 ‖ ctr` (26 B): the MAC input of the
/// counter digest of tree slot `src` at version `ctr` — and so of the
/// record of a dummy written there under `ctr`.
#[inline]
fn slot_digest_frame<const B: usize>(f: &mut Frame<B>, src: (u64, u64), ctr: u64) {
    frame(f, DOMAIN_CTR);
    f.byte(KIND_SLOT);
    f.word(src.0);
    f.word(src.1);
    f.word(ctr);
}

/// The MAC input of what a slot record claims to cover: a real block's
/// [`slot_frame`], or, for an empty slot, the counter digest of the
/// identity and counter the record names. A dummy's record *is* its
/// counter digest (DESIGN.md §10).
#[inline]
fn claim_frame<'a>(f: &mut SlotFrame, (src, ctr, content): SlotClaim<'a>) -> &'a [u8] {
    match content {
        Some(b) => slot_frame(f, src, ctr, b),
        None => {
            slot_digest_frame(f, src, ctr);
            &[]
        }
    }
}

/// The tags of the first `n` messages — `heads[i]` followed by `tails[i]`
/// — MACed side by side, [`LANES`] at a time.
fn tag_framed<const B: usize, const N: usize>(
    cmac: &Cmac,
    (heads, tails): (&[Frame<B>; N], &[&[u8]; N]),
    n: usize,
) -> [[u8; 16]; N] {
    let msgs: [(&Frame<B>, &[u8]); N] = std::array::from_fn(|i| (&heads[i], tails[i]));
    let mut tags = [[0u8; 16]; N];
    cmac.tag_lanes(&msgs[..n], &mut tags[..n]);
    tags
}

/// A stale snapshot the adversary re-serves on the fetch wire: the
/// unit's coordinates plus the `(content, record)` pair as they stood
/// before the last overwrite.
pub(crate) type StaleServe = ((u64, usize), Option<Block>, Option<UnitMeta>);

/// The off-chip stored record accompanying one persisted unit.
///
/// Conceptually this lives on NVM next to the content it covers, so an
/// adversary can snapshot and re-serve it (`Stale`), move it to another
/// address (`Spliced`), or delete it (`Missing`). The tag binds the
/// source identity, the version counter, and the canonical content
/// bytes, so a record is internally consistent even when replayed — only
/// the trusted [`CounterTree`] can convict it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitMeta {
    /// The version counter the record was written under.
    pub ctr: u64,
    /// The identity the record was written for: `(bucket, slot)` for
    /// tree slots, `(addr, 0)` for persisted PosMap entries.
    pub src: (u64, u64),
    /// CMAC over `(src, ctr, content)` under the unit's domain — for a
    /// dummy slot, the unit's counter digest of `(src, ctr)`.
    pub tag: [u8; 16],
}

/// The outcome of verifying one stored unit against its record and the
/// trusted counter tree, ordered worst evidence first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreshnessVerdict {
    /// Record present, authentic, at the right address, and fresh.
    Clean,
    /// The tag does not cover the bytes read back: media damage.
    Tampered,
    /// An authentic record for a *different* address was served here.
    Spliced,
    /// An authentic record for this address whose counter lags the
    /// trusted one: a replay of a stale version.
    Stale,
    /// The trusted counter says the unit was written, but no record was
    /// found: rollback to genesis.
    Missing,
}

impl FreshnessVerdict {
    /// Stable lowercase label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FreshnessVerdict::Clean => "clean",
            FreshnessVerdict::Tampered => "tampered",
            FreshnessVerdict::Spliced => "spliced",
            FreshnessVerdict::Stale => "stale",
            FreshnessVerdict::Missing => "missing",
        }
    }

    /// The NVM-layer fault class a non-clean verdict convicts, for
    /// classification and fail-safe poisoning. `Clean` maps to `None`.
    pub(crate) fn fault_class(&self) -> Option<psoram_nvm::FaultClass> {
        use psoram_nvm::FaultClass;
        match self {
            FreshnessVerdict::Clean => None,
            FreshnessVerdict::Tampered => Some(FaultClass::MediaCorruption),
            FreshnessVerdict::Spliced => Some(FaultClass::CrossSplice),
            FreshnessVerdict::Stale | FreshnessVerdict::Missing => Some(FaultClass::StaleReplay),
        }
    }
}

/// Fetch-path freshness counters kept by a controller.
///
/// `stale_serves` is ground truth — incremented whenever the adversary
/// actually serves a stale unit on the read path, hardened or not.
/// `stale_serves_detected` counts the serves the freshness check caught.
/// A hardened design must keep the two equal; an unhardened baseline
/// consumes the stale bytes silently and the gap convicts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreshnessStats {
    /// Stale units actually served on the fetch path (ground truth).
    pub stale_serves: u64,
    /// Stale serves the freshness verification detected and discarded.
    pub stale_serves_detected: u64,
    /// Fetch-path verifications that failed hard enough to poison.
    pub fetch_poisons: u64,
}

impl FreshnessStats {
    /// True when every injected stale serve was detected.
    pub fn all_detected(&self) -> bool {
        self.stale_serves_detected == self.stale_serves
    }

    /// Field-wise accumulation (for campaign aggregation).
    pub fn merge(&mut self, other: &FreshnessStats) {
        self.stale_serves += other.stale_serves;
        self.stale_serves_detected += other.stale_serves_detected;
        self.fetch_poisons += other.fetch_poisons;
    }
}

/// What the freshness layer keeps per unit — a tree slot or a persisted
/// PosMap entry — side by side in one host row, on both sides of the
/// modelled trust boundary (DESIGN.md §11):
/// `ctr` and `folded` are the on-chip counter tree's, written by a bump
/// alone; `rec` is the record stored off chip beside the data, which the
/// adversary's hooks ([`AuthTags::set_slot_record`]) rewrite at will.
#[derive(Debug, Clone, Copy, Default)]
struct SlotRow {
    /// The trusted version counter; 0 = never written, the unit is not
    /// tracked (whatever `rec` was planted beside it).
    ctr: u64,
    /// The digest of `(unit, ctr)` currently folded into the level
    /// aggregate, so a bump XORs it out without recomputing it.
    folded: u128,
    rec: Option<UnitMeta>,
}

/// The on-chip trusted freshness anchor: per-unit monotonic version
/// counters aggregated into one root digest.
///
/// Every persisted unit (tree slot or PosMap entry) owns a counter that
/// bumps on each write. Each `(unit, ctr)` pair has a CMAC-derived
/// 128-bit digest; digests are XOR-folded per ORAM tree level (PosMap
/// entries fold into their own aggregate), and the root is a CMAC over
/// `(epoch, level aggregates, posmap aggregate)`. A bump is O(1): XOR
/// the old digest out, XOR the new digest in. The root is therefore a
/// pure function of the final counter map — two equivalent persist
/// schedules that end in the same counters produce bit-identical roots.
#[derive(Debug, Clone)]
pub struct CounterTree {
    cmac: Cmac,
    /// Per tree slot: the counter and its folded digest, with the
    /// off-chip record [`AuthTags`] keeps beside them.
    slots: UnitTable<SlotRow>,
    /// Per PosMap address: the same row, folded into `posmap_agg`. Hashed,
    /// not paged: a run persists a sparse subset of its addresses, and a
    /// page of rows for every sixteenth of them costs more than it saves
    /// (measured in commit 048845f, DESIGN.md §11).
    posmap: HashMap<u64, SlotRow>,
    levels: Vec<u128>,
    posmap_agg: u128,
    epoch: u64,
}

impl CounterTree {
    /// Creates an empty counter tree keyed with `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        CounterTree {
            cmac: Cmac::new(Aes128::new(key)),
            slots: UnitTable::default(),
            posmap: HashMap::new(),
            levels: Vec::new(),
            posmap_agg: 0,
            epoch: 0,
        }
    }

    /// Tree level of a heap-indexed bucket (root = level 0).
    fn level_of(bucket: u64) -> usize {
        (bucket + 1).ilog2() as usize
    }

    /// `0xC7 ‖ 0x02 ‖ addr ‖ ctr` (18 B).
    fn posmap_digest(cmac: &Cmac, addr: u64, ctr: u64) -> u128 {
        let mut f = DigestFrame::new();
        frame(&mut f, DOMAIN_CTR);
        f.byte(KIND_POSMAP);
        f.word(addr);
        f.word(ctr);
        u128::from_le_bytes(cmac.tag(f.bytes()))
    }

    /// Bumps the counter of tree slot `(bucket, slot)` and returns the
    /// new value. O(1): only the slot's level aggregate changes.
    pub fn bump_slot(&mut self, bucket: u64, slot: usize) -> u64 {
        self.write_slots([(bucket, slot, None)], false)
    }

    /// The write pass, the only code that moves a slot's counter: every
    /// unit of `units`, in order, is bumped, its digest folded into its
    /// level aggregate and — when `record` is set — a fresh record over
    /// its `content` stored beside the counter: for a real block, a tag
    /// over the block; for a dummy, the digest itself, which is what a
    /// dummy's claim frames to ([`claim_frame`]). Units stream through up
    /// to [`HELD`] at a time, and no more than [`LANES`] real ones (counter
    /// and frames as they arrive, digests and tags MACed side by side,
    /// fold and store), a bucket's row resolved once per run of its slots.
    /// Returns the last new counter.
    fn write_slots<'a>(
        &mut self,
        units: impl IntoIterator<Item = SlotUnit<'a>>,
        record: bool,
    ) -> u64 {
        let mut units = units.into_iter();
        let mut last = 0;
        let mut lanes = [(0, 0, 0, false); HELD];
        let mut digests = [DigestFrame::new(); HELD];
        let mut heads = [SlotFrame::new(); LANES];
        let mut tails: [&[u8]; LANES] = [&[]; LANES];
        loop {
            // Counters first, so a repeated unit sees its earlier bump.
            let (mut n, mut reals) = (0, 0);
            let (mut of, mut row): (_, &mut [SlotRow]) = (None, &mut []);
            while n < HELD && reals < LANES {
                let Some((bucket, slot, content)) = units.next() else {
                    break;
                };
                if of != Some(bucket) || row.len() <= slot {
                    (of, row) = (Some(bucket), self.slots.row_mut(bucket, slot + 1));
                }
                row[slot].ctr += 1;
                last = row[slot].ctr;
                let src = (bucket, slot as u64);
                slot_digest_frame(&mut digests[n], src, last);
                if let Some(b) = content.filter(|_| record) {
                    tails[reals] = slot_frame(&mut heads[reals], src, last, b);
                    reals += 1;
                }
                lanes[n] = (bucket, slot, last, content.is_some());
                n += 1;
            }
            if n == 0 {
                return last;
            }
            let folds = tag_framed(&self.cmac, (&digests, &[&[]; HELD]), n);
            let tags = tag_framed(&self.cmac, (&heads, &tails), reals);
            let mut tags = tags[..reals].iter().copied();
            // Fold: each unit's previously folded digest out, its new one
            // in; the record beside it.
            let (mut of, mut row): (_, &mut [SlotRow]) = (None, &mut []);
            for (&(bucket, slot, ctr, real), fold) in lanes[..n].iter().zip(folds) {
                if of != Some(bucket) || row.len() <= slot {
                    (of, row) = (Some(bucket), self.slots.row_mut(bucket, slot + 1));
                }
                let level = Self::level_of(bucket);
                if self.levels.len() <= level {
                    self.levels.resize(level + 1, 0);
                }
                let digest = u128::from_le_bytes(fold);
                self.levels[level] ^= row[slot].folded ^ digest;
                row[slot].folded = digest;
                if record {
                    // A dummy's record is its counter digest.
                    let tag = if real { tags.next() } else { None };
                    let src = (bucket, slot as u64);
                    row[slot].rec = Some(UnitMeta {
                        ctr,
                        src,
                        tag: tag.unwrap_or(fold),
                    });
                }
            }
        }
    }

    /// Bumps the counter of PosMap address `addr` and returns the new
    /// value.
    pub fn bump_posmap(&mut self, addr: u64) -> u64 {
        let row = self.posmap.entry(addr).or_default();
        row.ctr += 1;
        let digest = Self::posmap_digest(&self.cmac, addr, row.ctr);
        self.posmap_agg ^= row.folded ^ digest;
        row.folded = digest;
        row.ctr
    }

    #[cfg(test)]
    /// The trusted counter of a tree slot, if the slot was ever written.
    pub fn slot_ctr(&self, bucket: u64, slot: usize) -> Option<u64> {
        let ctr = self.slots.get(bucket, slot)?.ctr;
        (ctr != 0).then_some(ctr)
    }

    #[cfg(test)]
    /// The trusted counter of a PosMap address, if it was ever persisted.
    pub fn posmap_ctr(&self, addr: u64) -> Option<u64> {
        let ctr = self.posmap.get(&addr)?.ctr;
        (ctr != 0).then_some(ctr)
    }

    /// All tracked slots in deterministic (sorted) order.
    pub fn tracked_slots_sorted(&self) -> Vec<(u64, usize)> {
        self.slots.units_sorted(|row| row.ctr != 0)
    }

    /// The rows of all tracked PosMap addresses, in the map's order: no
    /// order at all.
    fn tracked_posmap(&self) -> impl Iterator<Item = (u64, &SlotRow)> {
        let tracked = self.posmap.iter().filter(|(_, row)| row.ctr != 0);
        tracked.map(|(&addr, row)| (addr, row))
    }

    /// All tracked PosMap addresses in deterministic (sorted) order.
    pub fn tracked_posmap_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.tracked_posmap().map(|(addr, _)| addr).collect();
        v.sort_unstable();
        v
    }

    /// The current epoch (bumped once per recovery).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Advances the epoch, versioning the root across recoveries.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The root digest: CMAC over
    /// `0x52 ‖ epoch ‖ level aggregates (16 B each, root level first) ‖
    /// PosMap aggregate (16 B)`. Depends only on the final counter map
    /// and the epoch.
    pub fn root(&self) -> [u8; 16] {
        self.aggregates().root(&self.cmac)
    }

    /// What the root is a MAC of: the epoch and the aggregates, borrowed.
    fn aggregates(&self) -> Aggregates<&[u128]> {
        Aggregates {
            epoch: self.epoch,
            levels: &self.levels,
            posmap_agg: self.posmap_agg,
        }
    }
}

/// What [`CounterTree::root`] MACs — the epoch, the level aggregates and
/// the PosMap aggregate — borrowed from the live tree or held as the
/// snapshot [`AuthTags::anchor`] takes.
#[derive(Debug, Clone, Default)]
struct Aggregates<L> {
    epoch: u64,
    levels: L,
    posmap_agg: u128,
}

impl<L: AsRef<[u128]>> Aggregates<L> {
    /// `0x52 ‖ epoch ‖ level aggregates (16 B each, root level first) ‖
    /// PosMap aggregate (16 B)`, MACed.
    fn root(&self, cmac: &Cmac) -> [u8; 16] {
        let mut s = cmac.stream();
        s.update(&[DOMAIN_ROOT]);
        s.update(&self.epoch.to_le_bytes());
        for level in self.levels.as_ref() {
            s.update(&level.to_le_bytes());
        }
        s.update(&self.posmap_agg.to_le_bytes());
        s.finalize()
    }
}

/// A tree slot as it stood before a write: its `(content, record)` pair.
type Snapshot = (Option<Block>, Option<UnitMeta>);

/// The adversary's snapshot store: for each unit, the `(content, record)`
/// pair that was current *before* the most recent write.
///
/// The replay/splice adversary records authentic prior versions as the
/// controller overwrites units, then re-serves them at crash time or on
/// the read path. This is adversary state, not defense state: it is
/// installed alongside the fault plan on hardened *and* baseline
/// designs, so both face the same attack — and only when that plan can
/// replay at all (`FaultConfig::replays_stale_units`).
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitHistory {
    slots: UnitTable<Option<Snapshot>>,
    posmap: HashMap<u64, (Leaf, Option<UnitMeta>)>,
}

impl UnitHistory {
    /// Records the pre-write state of a tree slot.
    pub fn note_slot(&mut self, bucket: BucketIndex, slot: usize, previous: Snapshot) {
        *self.slots.cell_mut(bucket, slot) = Some(previous);
    }

    /// The fetch-wire replay of the adversary's `pick`: among the units
    /// being read (in read order) that have a recorded prior version, the
    /// `pick`-th, modulo their number — `None` when none has one.
    pub fn stale_serve(
        &self,
        units: impl Iterator<Item = (BucketIndex, usize)> + Clone,
        pick: u64,
    ) -> Option<StaleServe> {
        let recorded = |&(bucket, slot): &(BucketIndex, usize)| self.slot(bucket, slot).is_some();
        let candidates = units.clone().filter(recorded).count();
        let (bucket, slot) = units
            .filter(recorded)
            .nth((pick % candidates.max(1) as u64) as usize)?;
        let (content, meta) = self.slot(bucket, slot)?;
        Some(((bucket, slot), content.clone(), *meta))
    }

    /// The recorded prior version of a tree slot, if any.
    pub fn slot(&self, bucket: BucketIndex, slot: usize) -> Option<&Snapshot> {
        self.slots.get(bucket, slot)?.as_ref()
    }

    /// Records the pre-write state of a persisted PosMap entry.
    pub fn note_posmap(&mut self, addr: u64, prev_leaf: Leaf, prev_meta: Option<UnitMeta>) {
        self.posmap.insert(addr, (prev_leaf, prev_meta));
    }

    /// The recorded prior version of a persisted PosMap entry, if any.
    pub fn posmap(&self, addr: u64) -> Option<&(Leaf, Option<UnitMeta>)> {
        self.posmap.get(&addr)
    }
}

/// The verification front end over the on-chip trusted [`CounterTree`]
/// and the off-chip per-unit records kept in its rows.
#[derive(Debug, Clone)]
pub(crate) struct AuthTags {
    ctrs: CounterTree,
    temp_seal: Option<[u8; 16]>,
    /// What the counter-tree root was a MAC of when last anchored in the
    /// persistence domain ([`AuthTags::anchor`]): the trusted reference
    /// recovery holds the counters to, MACed when it is read
    /// ([`AuthTags::anchored`]). The level vector keeps its capacity, so
    /// an anchor allocates nothing once the tree has all its levels.
    anchored: Aggregates<Vec<u128>>,
}

/// The MAC input of a PosMap record:
/// `0x9A ‖ src.0 ‖ src.1 ‖ ctr ‖ leaf` (33 B).
fn posmap_frame(f: &mut Frame<3>, src: (u64, u64), ctr: u64, leaf: u64) {
    frame(f, DOMAIN_POSMAP);
    f.word(src.0);
    f.word(src.1);
    f.word(ctr);
    f.word(leaf);
}

/// The verdict ladder, worst evidence first, for the unit of identity
/// `at` (a slot's `(bucket, slot)`, a PosMap entry's `(addr, 0)`): `rec`
/// is the record found with it, `tag` the MAC recomputed over what that
/// record claims to cover, `trusted` the on-chip counter.
#[inline]
fn judge(
    at: (u64, u64),
    rec: Option<&UnitMeta>,
    trusted: Option<u64>,
    tag: Option<&[u8; 16]>,
) -> FreshnessVerdict {
    match (rec, tag) {
        (None, _) if trusted.is_some() => FreshnessVerdict::Missing,
        (None, _) => FreshnessVerdict::Clean,
        (Some(m), Some(tag)) if Cmac::tags_match(tag, &m.tag) => {
            if m.src != at {
                FreshnessVerdict::Spliced
            } else if Some(m.ctr) != trusted {
                FreshnessVerdict::Stale
            } else {
                FreshnessVerdict::Clean
            }
        }
        _ => FreshnessVerdict::Tampered,
    }
}

/// Whether `rec`, found with `content` at unit `at` beside `row`, is a
/// dummy's record naming its own unit and that unit's current counter.
/// Such a claim frames to the digest `row` keeps on chip, so comparing
/// the two is the whole check; any other claim (which only damage makes)
/// is MACed.
#[inline]
fn claims_own_digest(
    at: (u64, u64),
    row: &SlotRow,
    rec: &UnitMeta,
    content: Option<BlockRef<'_>>,
) -> bool {
    content.is_none() && rec.src == at && rec.ctr == row.ctr && row.ctr != 0
}

/// Units on their way to a verdict, up to [`HELD`] at a time: each unit's
/// row of the table (if it has one) and whether its record's claim is
/// framed — in place, where the lanes read it, [`LANES`] claims at most.
/// A dummy's claim on its own digest is not: it is compared.
struct Verdicts<'r, 'a> {
    auth: &'r AuthTags,
    units: [(BucketIndex, usize, Option<&'r SlotRow>, bool); HELD],
    heads: [SlotFrame; LANES],
    tails: [&'a [u8]; LANES],
    /// Units held, and how many of them have a framed claim.
    n: usize,
    claimed: usize,
}

impl<'r, 'a> Verdicts<'r, 'a> {
    fn new(auth: &'r AuthTags) -> Self {
        Verdicts {
            auth,
            units: [(0, 0, None, false); HELD],
            heads: [SlotFrame::new(); LANES],
            tails: [&[]; LANES],
            n: 0,
            claimed: 0,
        }
    }

    /// Takes the unit `(bucket, slot, row)` read back with `content`;
    /// judges what it holds once the units or the lanes are full.
    #[inline]
    fn push(
        &mut self,
        (bucket, slot, stored): (BucketIndex, usize, Option<&'r SlotRow>),
        content: Option<BlockRef<'a>>,
        each: &mut impl FnMut(BucketIndex, usize, FreshnessVerdict),
    ) {
        let framed = match stored.and_then(|r| Some((r, r.rec.as_ref()?))) {
            Some((row, m)) if !claims_own_digest((bucket, slot as u64), row, m, content) => {
                let claim = (m.src, m.ctr, content);
                self.tails[self.claimed] = claim_frame(&mut self.heads[self.claimed], claim);
                self.claimed += 1;
                true
            }
            _ => false,
        };
        self.units[self.n] = (bucket, slot, stored, framed);
        self.n += 1;
        if self.n == HELD || self.claimed == LANES {
            self.flush(each);
        }
    }

    /// Judges the units held, in order: the framed claims MACed side by
    /// side, a dummy's claim on its own digest compared with the row's,
    /// every unit judged on its own.
    fn flush(&mut self, each: &mut impl FnMut(BucketIndex, usize, FreshnessVerdict)) {
        let claimed = self.claimed;
        let tags = tag_framed(&self.auth.ctrs.cmac, (&self.heads, &self.tails), claimed);
        let mut tags = tags[..claimed].iter();
        for &(bucket, slot, stored, framed) in &self.units[..self.n] {
            let rec = stored.and_then(|r| r.rec.as_ref());
            let own = stored.map(|r| r.folded.to_le_bytes());
            let tag = if framed { tags.next() } else { own.as_ref() };
            let trusted = stored.map(|r| r.ctr).filter(|&ctr| ctr != 0);
            let verdict = judge((bucket, slot as u64), rec, trusted, tag);
            each(bucket, slot, verdict);
        }
        (self.n, self.claimed) = (0, 0);
    }
}

#[cfg(test)]
thread_local! {
    /// Claims recovery has MACed on this thread: phase 1's slot claims,
    /// phase 2's PosMap claims.
    pub(crate) static MACED: std::cell::Cell<(usize, usize)> = const { std::cell::Cell::new((0, 0)) };
}

/// Phase 1's claims that need a MAC, framed where the lanes read them:
/// up to [`LANES`] of them, each with the unit it was found at, its record
/// and its trusted counter.
struct Claims<'r, 'a> {
    cmac: &'r Cmac,
    units: [((u64, u64), Option<&'r UnitMeta>, u64); LANES],
    heads: [SlotFrame; LANES],
    tails: [&'a [u8]; LANES],
    n: usize,
}

impl<'r, 'a> Claims<'r, 'a> {
    fn new(cmac: &'r Cmac) -> Self {
        Claims {
            cmac,
            units: [((0, 0), None, 0); LANES],
            heads: [SlotFrame::new(); LANES],
            tails: [&[]; LANES],
            n: 0,
        }
    }

    /// Frames the claim of `rec`, found at unit `at` with `content` and
    /// trusted counter `ctr`, into the next lane; MACs and judges the
    /// group once the lanes are full.
    #[inline]
    fn push(
        &mut self,
        at: (u64, u64),
        rec: &'r UnitMeta,
        ctr: u64,
        content: Option<BlockRef<'a>>,
        each: &mut impl FnMut(BucketIndex, usize, FreshnessVerdict),
    ) {
        let n = self.n;
        self.tails[n] = claim_frame(&mut self.heads[n], (rec.src, rec.ctr, content));
        self.units[n] = (at, Some(rec), ctr);
        self.n += 1;
        if self.n == LANES {
            self.flush(each);
        }
    }

    /// The claims framed so far MACed side by side and judged.
    fn flush(&mut self, each: &mut impl FnMut(BucketIndex, usize, FreshnessVerdict)) {
        #[cfg(test)]
        MACED.with(|m| m.set((m.get().0 + self.n, m.get().1)));
        let tags = tag_framed(self.cmac, (&self.heads, &self.tails), self.n);
        for (&(at, rec, ctr), tag) in self.units[..self.n].iter().zip(&tags) {
            each(at.0, at.1 as usize, judge(at, rec, Some(ctr), Some(tag)));
        }
        self.n = 0;
    }
}

impl AuthTags {
    /// Creates an empty store keyed with `key`.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut tags = AuthTags {
            ctrs: CounterTree::new(key),
            temp_seal: None,
            anchored: Aggregates::default(),
        };
        tags.anchor();
        tags
    }

    /// The tag of a PosMap record.
    fn posmap_tag(&self, src: (u64, u64), ctr: u64, leaf: u64) -> [u8; 16] {
        let mut f = Frame::new();
        posmap_frame(&mut f, src, ctr, leaf);
        self.ctrs.cmac.tag(f.bytes())
    }

    /// Records (or refreshes) `(bucket, slot)` over `content`: bumps the
    /// trusted counter and stores a fresh off-chip record.
    pub fn record_slot(&mut self, bucket: BucketIndex, slot: usize, content: Option<BlockRef<'_>>) {
        self.record_slots([(bucket, slot, content)]);
    }

    /// Records every unit of `units`: one counter bump, one digest and
    /// one tag per unit, [`LANES`] of each at a time.
    ///
    /// The units of one call must be pairwise distinct. The records
    /// themselves would come out right either way (a repeated unit is
    /// bumped twice and keeps its later record), but callers snapshot the
    /// whole batch's previous versions *before* recording any of it, which
    /// is only the per-unit order when no unit repeats.
    pub fn record_slots<'a>(&mut self, units: impl IntoIterator<Item = SlotUnit<'a>>) {
        #[cfg(debug_assertions)]
        let units = {
            let mut seen: Vec<(BucketIndex, usize)> = Vec::new();
            units.into_iter().inspect(move |&(bucket, slot, _)| {
                assert!(
                    !seen.contains(&(bucket, slot)),
                    "a batch records each unit once"
                );
                seen.push((bucket, slot));
            })
        };
        self.ctrs.write_slots(units, true);
    }

    /// Classifies `(bucket, slot)` against `content`, worst evidence
    /// first: `Tampered` beats `Spliced` beats `Stale`. Untracked slots
    /// verify `Clean`; a tracked slot with no record is `Missing`.
    pub fn verdict_slot(
        &self,
        bucket: BucketIndex,
        slot: usize,
        content: Option<BlockRef<'_>>,
    ) -> FreshnessVerdict {
        let stored = self.slot_record(bucket, slot);
        self.classify_served_slot(bucket, slot, content, stored.as_ref())
    }

    /// [`Self::verdict_slot`] over every unit of `units` — a bucket's
    /// slots, a path's, whatever was read together — handing `each` the
    /// verdicts in order. A bucket's row is looked up once per run of its
    /// slots; the units are judged [`LANES`] at a time ([`Verdicts`]).
    pub fn verdict_slots<'a>(
        &self,
        units: impl IntoIterator<Item = SlotUnit<'a>>,
        mut each: impl FnMut(BucketIndex, usize, FreshnessVerdict),
    ) {
        let mut verdicts = Verdicts::new(self);
        let (mut of, mut row): (_, &[SlotRow]) = (None, &[]);
        for (bucket, slot, content) in units {
            if of != Some(bucket) {
                (of, row) = (Some(bucket), self.ctrs.slots.row(bucket));
            }
            verdicts.push((bucket, slot, row.get(slot)), content, &mut each);
        }
        verdicts.flush(&mut each);
    }

    /// Phase 1 of recovery: every tracked slot — every unit the trusted
    /// counters say was written, whatever records the adversary planted or
    /// deleted — judged against what `arena` holds there, handing `each`
    /// every verdict once, **in no particular order**. The walk goes
    /// bucket by bucket down the counter rows, which the table keeps in
    /// index order: a bucket's row and its arena bucket are resolved once
    /// for all its slots, and nothing is listed or sorted first. A unit
    /// whose verdict needs no MAC — a missing record, or an intact dummy's,
    /// compared with its row's digest — is judged where it stands; every
    /// other claim is framed straight into the next free lane
    /// ([`Claims`]), and only those wait for the group's MACs.
    pub(crate) fn verdict_tracked_slots(
        &self,
        arena: &SlotArena,
        mut each: impl FnMut(BucketIndex, usize, FreshnessVerdict),
    ) {
        let mut lanes = Claims::new(&self.ctrs.cmac);
        for (bucket, row) in self.ctrs.slots.rows() {
            let stored = arena.bucket(bucket);
            for (slot, unit) in row.iter().enumerate().filter(|(_, unit)| unit.ctr != 0) {
                let at = (bucket, slot as u64);
                let content = stored.and_then(|b| b.slot(slot));
                match &unit.rec {
                    Some(m) if !claims_own_digest(at, unit, m, content) => {
                        lanes.push(at, m, unit.ctr, content, &mut each);
                    }
                    rec => {
                        let own = unit.folded.to_le_bytes();
                        each(
                            bucket,
                            slot,
                            judge(at, rec.as_ref(), Some(unit.ctr), Some(&own)),
                        );
                    }
                }
            }
        }
        lanes.flush(&mut each);
    }

    /// The fetch-path check over the units read together, `served` being
    /// what the wire delivered in place of one of them, if anything: that
    /// unit is judged by the `(content, record)` pair served, every other
    /// by what is stored. Returns the fault class of the first stored unit
    /// (in order) that is not `Clean`, and the served unit's verdict.
    pub fn verdict_fetched<'a>(
        &self,
        units: impl IntoIterator<Item = SlotUnit<'a>>,
        served: Option<&StaleServe>,
    ) -> (Option<psoram_nvm::FaultClass>, FreshnessVerdict) {
        let mut convicted = None;
        let mut wire = FreshnessVerdict::Clean;
        self.verdict_slots(units, |bucket, slot, verdict| match served {
            Some((unit, content, meta)) if *unit == (bucket, slot) => {
                wire = self.classify_served_slot(
                    bucket,
                    slot,
                    content.as_ref().map(Block::view),
                    meta.as_ref(),
                );
            }
            _ if convicted.is_none() => convicted = verdict.fault_class(),
            _ => {}
        });
        (convicted, wire)
    }

    /// Classifies an arbitrary served `(content, record)` pair claiming
    /// to be `(bucket, slot)` — the fetch-path wire check, where the
    /// record under test is whatever the device *served*, not the
    /// stored one.
    pub fn classify_served_slot(
        &self,
        bucket: BucketIndex,
        slot: usize,
        content: Option<BlockRef<'_>>,
        rec: Option<&UnitMeta>,
    ) -> FreshnessVerdict {
        let at = (bucket, slot as u64);
        let row = self.ctrs.slots.get(bucket, slot);
        let tag = rec.map(|m| match row {
            Some(row) if claims_own_digest(at, row, m, content) => row.folded.to_le_bytes(),
            _ => {
                let mut tag = [[0u8; 16]];
                let mut head = SlotFrame::new();
                let rest = claim_frame(&mut head, (m.src, m.ctr, content));
                self.ctrs.cmac.tag_lanes(&[(&head, rest)], &mut tag);
                tag[0]
            }
        });
        let trusted = row.map(|r| r.ctr).filter(|&ctr| ctr != 0);
        judge(at, rec, trusted, tag.as_ref())
    }

    /// Boolean form of [`AuthTags::verdict_slot`].
    pub fn verify_slot(
        &self,
        bucket: BucketIndex,
        slot: usize,
        content: Option<BlockRef<'_>>,
    ) -> bool {
        self.verdict_slot(bucket, slot, content) == FreshnessVerdict::Clean
    }

    /// All tracked slots in deterministic (sorted) order, listed: the
    /// oracle [`Self::verdict_tracked_slots`]' walk is held to. Driven by
    /// the trusted counter tree, so a unit whose record was deleted by the
    /// adversary is still visited at recovery.
    #[cfg(test)]
    pub fn tagged_slots_sorted(&self) -> Vec<(BucketIndex, usize)> {
        self.ctrs.tracked_slots_sorted()
    }

    /// Records (or refreshes) the persisted PosMap entry of `addr`.
    pub fn record_posmap(&mut self, addr: u64, leaf: u64) {
        let ctr = self.ctrs.bump_posmap(addr);
        let src = (addr, 0);
        let tag = self.posmap_tag(src, ctr, leaf);
        self.ctrs.posmap.entry(addr).or_default().rec = Some(UnitMeta { ctr, src, tag });
    }

    /// Classifies the persisted PosMap entry of `addr` against `leaf`:
    /// the entry-at-a-time form [`Self::verdict_posmaps`] is held to.
    #[cfg(test)]
    pub fn verdict_posmap(&self, addr: u64, leaf: u64) -> FreshnessVerdict {
        let rec = self.posmap_record(addr);
        let tag = rec.map(|m| self.posmap_tag(m.src, m.ctr, leaf));
        let trusted = self.ctrs.posmap_ctr(addr);
        judge((addr, 0), rec.as_ref(), trusted, tag.as_ref())
    }

    /// [`Self::verdict_posmap`] over every tracked entry against the label
    /// `leaf_of` reads back for it — handing `each` the address, that
    /// label and the verdict, **in no particular order**: an entry's
    /// verdict depends on nothing but the entry, so a caller that needs an
    /// order sorts what it keeps. The rows stream out of their map
    /// [`LANES`] at a time — no list of them, no probe for them: frame as
    /// they arrive, the records' claims MACed side by side, every entry
    /// judged on its own.
    pub fn verdict_posmaps(
        &self,
        leaf_of: impl Fn(u64) -> u64,
        mut each: impl FnMut(u64, u64, FreshnessVerdict),
    ) {
        let mut rows = self.ctrs.tracked_posmap();
        let mut lanes: [(u64, u64, Option<&UnitMeta>, u64); LANES] = [(0, 0, None, 0); LANES];
        let mut heads = [Frame::<3>::new(); LANES];
        loop {
            let (mut n, mut claimed) = (0, 0);
            for (addr, row) in rows.by_ref().take(LANES) {
                let leaf = leaf_of(addr);
                if let Some(m) = &row.rec {
                    posmap_frame(&mut heads[claimed], m.src, m.ctr, leaf);
                    claimed += 1;
                }
                lanes[n] = (addr, leaf, row.rec.as_ref(), row.ctr);
                n += 1;
            }
            if n == 0 {
                return;
            }
            #[cfg(test)]
            MACED.with(|m| m.set((m.get().0, m.get().1 + claimed)));
            let tags = tag_framed(&self.ctrs.cmac, (&heads, &[&[]; LANES]), claimed);
            let mut tags = tags[..claimed].iter();
            for &(addr, leaf, rec, ctr) in &lanes[..n] {
                let tag = rec.and_then(|_| tags.next());
                each(addr, leaf, judge((addr, 0), rec, Some(ctr), tag));
            }
        }
    }

    /// Boolean form of [`AuthTags::verdict_posmap`].
    #[cfg(test)]
    pub fn verify_posmap(&self, addr: u64, leaf: u64) -> bool {
        self.verdict_posmap(addr, leaf) == FreshnessVerdict::Clean
    }

    /// All tracked PosMap addresses in deterministic (sorted) order.
    #[cfg(test)]
    pub fn tagged_posmap_sorted(&self) -> Vec<u64> {
        self.ctrs.tracked_posmap_sorted()
    }

    /// The off-chip record of a tree slot (adversary hook).
    pub fn slot_record(&self, bucket: BucketIndex, slot: usize) -> Option<UnitMeta> {
        self.ctrs.slots.get(bucket, slot)?.rec
    }

    /// Overwrites (or deletes) the off-chip record of a tree slot
    /// *without* touching the trusted counter (adversary hook): a record
    /// planted on a never-written slot does not make the unit tracked,
    /// and deleting where nothing is stored stores nothing.
    pub fn set_slot_record(&mut self, bucket: BucketIndex, slot: usize, rec: Option<UnitMeta>) {
        if rec.is_some() || self.ctrs.slots.get(bucket, slot).is_some() {
            self.ctrs.slots.cell_mut(bucket, slot).rec = rec;
        }
    }

    /// The off-chip record of a persisted PosMap entry (adversary hook).
    pub fn posmap_record(&self, addr: u64) -> Option<UnitMeta> {
        self.ctrs.posmap.get(&addr)?.rec
    }

    /// Overwrites (or deletes) the off-chip record of a PosMap entry
    /// *without* touching the trusted counter (adversary hook): as for a
    /// slot, a planted record tracks nothing.
    pub fn set_posmap_record(&mut self, addr: u64, rec: Option<UnitMeta>) {
        if rec.is_some() || self.ctrs.posmap.contains_key(&addr) {
            self.ctrs.posmap.entry(addr).or_default().rec = rec;
        }
    }

    /// The trusted counter-tree root digest.
    pub fn root(&self) -> [u8; 16] {
        self.ctrs.root()
    }

    /// Anchors the counter-tree root in the persistence domain. In the
    /// model this is one 16-byte failure-atomic register write, made inside
    /// a round's commit ceremony; a crash keeps it. The host keeps what the
    /// root is a MAC of and MACs it only when the anchor is read: every
    /// round anchors, only a recovery reads.
    pub fn anchor(&mut self) {
        let live = self.ctrs.aggregates();
        let held = &mut self.anchored;
        (held.epoch, held.posmap_agg) = (live.epoch, live.posmap_agg);
        held.levels.clear();
        held.levels.extend_from_slice(live.levels);
    }

    /// The root as last anchored: exactly the [`AuthTags::root`] of that
    /// moment.
    pub fn anchored(&self) -> [u8; 16] {
        self.anchored.root(&self.ctrs.cmac)
    }

    /// Advances the counter-tree epoch (once per recovery).
    pub fn advance_epoch(&mut self) {
        self.ctrs.advance_epoch();
    }

    /// Streams the canonical image of a sorted temp-PosMap entry list,
    /// `count ‖ (addr ‖ leaf)*`, into the seal's MAC.
    fn temp_mac(&self, entries: &[(u64, u64)]) -> CmacStream<'_> {
        let mut s = self.ctrs.cmac.stream();
        s.update(&(entries.len() as u64).to_le_bytes());
        for (a, l) in entries {
            s.update(&a.to_le_bytes());
            s.update(&l.to_le_bytes());
        }
        s
    }

    /// Reseals the temporary PosMap over its sorted entry list.
    pub fn seal_temp(&mut self, entries: &[(u64, u64)]) {
        self.temp_seal = Some(self.temp_mac(entries).finalize());
    }

    /// Verifies the temporary PosMap seal. No seal → clean.
    pub fn verify_temp(&self, entries: &[(u64, u64)]) -> bool {
        (self.temp_seal).is_none_or(|tag| self.temp_mac(entries).verify(&tag))
    }

    /// Clears the temporary PosMap seal (after a wipe).
    pub fn clear_temp_seal(&mut self) {
        self.temp_seal = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BlockAddr, Leaf};

    fn tags() -> AuthTags {
        AuthTags::new(&[7u8; 16])
    }

    fn blk(a: u64, payload: u8) -> Block {
        Block::new(BlockAddr(a), Leaf(3), vec![payload; 8])
    }

    #[test]
    fn slot_tags_detect_any_field_mutation() {
        let mut t = tags();
        let b = blk(5, 1);
        t.record_slot(9, 2, Some(b.view()));
        assert!(t.verify_slot(9, 2, Some(b.view())));

        let mut evil = b.clone();
        evil.payload[3] ^= 0x40;
        assert_eq!(
            t.verdict_slot(9, 2, Some(evil.view())),
            FreshnessVerdict::Tampered,
            "payload flip undetected"
        );

        let mut evil = b.clone();
        evil.header.seq += 1;
        assert!(
            !t.verify_slot(9, 2, Some(evil.view())),
            "seq bump undetected"
        );

        let mut evil = b.clone();
        evil.header.leaf = Leaf(4);
        assert!(
            !t.verify_slot(9, 2, Some(evil.view())),
            "leaf change undetected"
        );

        let mut evil = b;
        evil.is_backup = true;
        assert!(
            !t.verify_slot(9, 2, Some(evil.view())),
            "backup flip undetected"
        );
    }

    #[test]
    fn dummy_and_untagged_slots() {
        let mut t = tags();
        // Untracked: anything verifies.
        assert!(t.verify_slot(1, 0, Some(blk(1, 1).view())));
        assert!(t.verify_slot(1, 0, None));
        assert_eq!(t.verdict_slot(1, 0, None), FreshnessVerdict::Clean);
        // Tagged dummy: a materialized block is damage.
        t.record_slot(1, 0, None);
        assert!(t.verify_slot(1, 0, None));
        assert!(!t.verify_slot(1, 0, Some(blk(1, 1).view())));
        // Tagged real block wiped to dummy is damage too.
        t.record_slot(2, 1, Some(blk(2, 2).view()));
        assert!(!t.verify_slot(2, 1, None));
    }

    #[test]
    fn a_dummy_record_tag_is_its_counter_digest() {
        let mut t = tags();
        let real = blk(3, 1);
        t.record_slots([(5, 1, None), (5, 2, Some(real.view())), (5, 3, None)]);
        t.record_slot(5, 1, None);
        let cmac = Cmac::new(Aes128::new(&[7u8; 16]));
        // `0xC7 ‖ 0x01 ‖ bucket ‖ slot ‖ ctr`, spelled out by hand.
        let digest = |slot: u64, ctr: u64| {
            let mut msg = vec![0xC7, 0x01];
            for word in [5, slot, ctr] {
                msg.extend_from_slice(&u64::to_le_bytes(word));
            }
            cmac.tag(&msg)
        };
        let folded = |slot: usize| {
            t.ctrs
                .slots
                .get(5, slot)
                .map(|row| row.folded.to_le_bytes())
        };
        for (slot, ctr) in [(1, 2), (3, 1)] {
            let rec = t.slot_record(5, slot).expect("recorded");
            assert_eq!((rec.src, rec.ctr), ((5, slot as u64), ctr));
            assert_eq!(rec.tag, digest(slot as u64, ctr), "slot {slot}");
            assert_eq!(
                Some(rec.tag),
                folded(slot),
                "slot {slot}: the digest on chip"
            );
        }
        let rec = t.slot_record(5, 2).expect("recorded");
        assert_ne!(
            rec.tag,
            digest(2, 1),
            "a real block's record covers the block"
        );
        assert_eq!(folded(2), Some(digest(2, 1)));
    }

    #[test]
    fn posmap_tags_detect_leaf_swaps() {
        let mut t = tags();
        t.record_posmap(4, 11);
        assert!(t.verify_posmap(4, 11));
        assert_eq!(t.verdict_posmap(4, 12), FreshnessVerdict::Tampered);
        assert!(t.verify_posmap(5, 0), "untracked address verifies clean");
        assert_eq!(t.tagged_posmap_sorted(), vec![4]);
    }

    #[test]
    fn temp_seal_covers_the_whole_entry_list() {
        let mut t = tags();
        assert!(t.verify_temp(&[(1, 2)]), "unsealed verifies clean");
        t.seal_temp(&[(1, 2), (3, 4)]);
        assert!(t.verify_temp(&[(1, 2), (3, 4)]));
        assert!(!t.verify_temp(&[(1, 2)]));
        assert!(!t.verify_temp(&[(1, 2), (3, 5)]));
        t.clear_temp_seal();
        assert!(t.verify_temp(&[]));
    }

    #[test]
    fn tagged_slots_sorted_is_deterministic() {
        let mut t = tags();
        t.record_slot(9, 1, None);
        t.record_slot(2, 3, None);
        t.record_slot(2, 0, None);
        assert_eq!(t.tagged_slots_sorted(), vec![(2, 0), (2, 3), (9, 1)]);
    }

    #[test]
    fn replayed_slot_record_is_stale_not_clean() {
        let mut t = tags();
        let v1 = blk(5, 1);
        let v2 = blk(5, 2);
        t.record_slot(3, 0, Some(v1.view()));
        let stale = t.slot_record(3, 0);
        assert!(stale.is_some());
        t.record_slot(3, 0, Some(v2.view()));
        assert!(t.verify_slot(3, 0, Some(v2.view())));
        // Adversary re-serves the authentic v1 (content, record) pair:
        // the tag verifies, the address matches, but the counter lags.
        t.set_slot_record(3, 0, stale);
        assert_eq!(
            t.verdict_slot(3, 0, Some(v1.view())),
            FreshnessVerdict::Stale,
            "replayed coherent record must be convicted by the counter"
        );
    }

    #[test]
    fn spliced_records_flag_both_locations() {
        let mut t = tags();
        let a = blk(1, 0xAA);
        let b = blk(2, 0xBB);
        t.record_slot(7, 0, Some(a.view()));
        t.record_slot(8, 1, Some(b.view()));
        let ra = t.slot_record(7, 0);
        let rb = t.slot_record(8, 1);
        // Swap records (and contents) across the two slots.
        t.set_slot_record(7, 0, rb);
        t.set_slot_record(8, 1, ra);
        assert_eq!(
            t.verdict_slot(7, 0, Some(b.view())),
            FreshnessVerdict::Spliced
        );
        assert_eq!(
            t.verdict_slot(8, 1, Some(a.view())),
            FreshnessVerdict::Spliced
        );
    }

    #[test]
    fn genesis_rollback_is_missing() {
        let mut t = tags();
        t.record_slot(4, 2, Some(blk(9, 3).view()));
        t.set_slot_record(4, 2, None);
        assert_eq!(
            t.verdict_slot(4, 2, None),
            FreshnessVerdict::Missing,
            "deleted record with a live trusted counter is a rollback"
        );
        // But the unit stays visible to recovery sweeps.
        assert!(t.tagged_slots_sorted().contains(&(4, 2)));
    }

    #[test]
    fn posmap_replay_and_splice_are_detected() {
        let mut t = tags();
        t.record_posmap(10, 100);
        let stale = t.posmap_record(10);
        t.record_posmap(10, 101);
        t.set_posmap_record(10, stale);
        assert_eq!(t.verdict_posmap(10, 100), FreshnessVerdict::Stale);

        let mut t = tags();
        t.record_posmap(1, 11);
        t.record_posmap(2, 22);
        let r1 = t.posmap_record(1);
        let r2 = t.posmap_record(2);
        t.set_posmap_record(1, r2);
        t.set_posmap_record(2, r1);
        assert_eq!(t.verdict_posmap(1, 22), FreshnessVerdict::Spliced);
        assert_eq!(t.verdict_posmap(2, 11), FreshnessVerdict::Spliced);

        let mut t = tags();
        t.record_posmap(3, 33);
        t.set_posmap_record(3, None);
        assert_eq!(t.verdict_posmap(3, 33), FreshnessVerdict::Missing);
    }

    #[test]
    fn lane_batched_posmap_verdicts_are_the_entry_at_a_time_ones() {
        let mut kinds = std::collections::BTreeSet::new();
        // One lane, a lane short of full, full, one over, several passes.
        for entries in [1u64, 7, 8, 9, 29] {
            let mut t = tags();
            let addr = |i: u64| 3 * i + 1;
            for i in 0..entries {
                t.record_posmap(addr(i), 100 + i);
            }
            // One kind of damage per entry: a label the tag does not
            // cover (Tampered), the previous entry's authentic record and
            // label (Spliced), the record an overwrite replaced (Stale), a
            // deleted record (Missing), or nothing; and a record planted
            // beside an address never persisted, which is not visited.
            let mut leaves: Vec<u64> = (0..entries).map(|i| 100 + i).collect();
            t.set_posmap_record(2, t.posmap_record(addr(0)));
            for i in 0..entries {
                match (i * 7 + entries) % 5 {
                    1 => leaves[i as usize] += 1,
                    2 if i > 0 => {
                        t.set_posmap_record(addr(i), t.posmap_record(addr(i - 1)));
                        leaves[i as usize] = 100 + i - 1;
                    }
                    3 => {
                        let old = t.posmap_record(addr(i));
                        t.record_posmap(addr(i), 100 + i);
                        t.set_posmap_record(addr(i), old);
                    }
                    4 => t.set_posmap_record(addr(i), None),
                    _ => {}
                }
            }
            let leaf_of = |a: u64| leaves[(a / 3) as usize];
            let mut batched = Vec::new();
            t.verdict_posmaps(leaf_of, |a, leaf, verdict| batched.push((a, leaf, verdict)));
            batched.sort_unstable_by_key(|&(a, _, _)| a);
            let one_by_one: Vec<_> = (t.tagged_posmap_sorted().into_iter())
                .map(|a| (a, leaf_of(a), t.verdict_posmap(a, leaf_of(a))))
                .collect();
            assert_eq!(batched, one_by_one, "{entries} entries");
            assert_eq!(
                batched.len() as u64,
                entries,
                "the planted record is not tracked"
            );
            assert_eq!(t.verdict_posmap(2, 100), FreshnessVerdict::Spliced);
            kinds.extend(batched.iter().map(|&(_, _, v)| v.label()));
        }
        let all = ["clean", "missing", "spliced", "stale", "tampered"];
        assert!(kinds.into_iter().eq(all), "a verdict kind never came up");
    }

    #[test]
    fn the_anchor_is_the_root_of_its_moment() {
        let mut t = tags();
        let genesis = t.root();
        assert_eq!(t.anchored(), genesis);
        t.record_slot(3, 1, None);
        t.record_posmap(9, 2);
        let now = t.root();
        assert_ne!(now, genesis);
        assert_eq!(
            t.anchored(),
            genesis,
            "a bump moves the root, not the anchor"
        );
        t.anchor();
        assert_eq!(t.anchored(), now);
        t.advance_epoch();
        assert_eq!(t.anchored(), now);
        t.anchor();
        assert_eq!(t.anchored(), t.root());
        assert_ne!(t.root(), now, "the epoch is in the root");
    }

    #[test]
    fn root_tracks_every_bump_and_the_epoch() {
        let mut c = CounterTree::new(&[1u8; 16]);
        let r0 = c.root();
        c.bump_slot(0, 0);
        let r1 = c.root();
        assert_ne!(r0, r1, "slot bump must change the root");
        c.bump_posmap(5);
        let r2 = c.root();
        assert_ne!(r1, r2, "posmap bump must change the root");
        c.advance_epoch();
        assert_ne!(r2, c.root(), "epoch advance must change the root");
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.slot_ctr(0, 0), Some(1));
        assert_eq!(c.posmap_ctr(5), Some(1));
        assert_eq!(c.slot_ctr(0, 1), None);
    }

    #[test]
    fn root_is_order_invariant_for_equivalent_schedules() {
        let ops = [(0u64, 0usize), (1, 2), (6, 1), (1, 2), (14, 3), (0, 0)];
        let mut a = CounterTree::new(&[2u8; 16]);
        for &(b, s) in &ops {
            a.bump_slot(b, s);
        }
        a.bump_posmap(7);
        a.bump_posmap(9);

        let mut b = CounterTree::new(&[2u8; 16]);
        b.bump_posmap(9);
        let mut rev = ops;
        rev.reverse();
        for &(bu, s) in &rev {
            b.bump_slot(bu, s);
        }
        b.bump_posmap(7);
        assert_eq!(a.root(), b.root(), "same final counters, same root");

        // One extra bump anywhere diverges the root.
        b.bump_slot(6, 1);
        assert_ne!(a.root(), b.root());
    }

    #[test]
    fn unit_history_keeps_the_previous_version() {
        let mut h = UnitHistory::default();
        h.note_slot(3, 1, (None, None));
        h.note_slot(3, 1, (Some(blk(5, 1)), None));
        let (content, meta) = h.slot(3, 1).cloned().unwrap_or((None, None));
        assert_eq!(content.map(|b| b.payload[0]), Some(1));
        assert!(meta.is_none());
        assert!(h.slot(9, 9).is_none());

        h.note_posmap(4, Leaf(6), None);
        assert_eq!(h.posmap(4).map(|(l, _)| *l), Some(Leaf(6)));
    }

    /// The MAC input bytes of a slot record's claim, collected instead
    /// of MACed.
    fn encoded(src: (u64, u64), ctr: u64, content: Option<BlockRef<'_>>) -> Vec<u8> {
        let mut head = SlotFrame::new();
        let rest = claim_frame(&mut head, (src, ctr, content));
        let mut out = head.bytes().to_vec();
        out.extend_from_slice(rest);
        out
    }

    #[test]
    fn slot_encoding_is_fixed_width_and_keeps_near_misses_apart() {
        let real = blk(5, 1); // 8-byte payload
        assert_eq!(encoded((9, 2), 1, None).len(), 26, "dummy: two AES blocks");
        assert_eq!(
            encoded((9, 2), 1, Some(real.view())).len(),
            83,
            "real: six AES blocks"
        );
        assert_eq!(encoded((9, 2), 1, None)[..2], [DOMAIN_CTR, KIND_SLOT]);
        assert_eq!(encoded((9, 2), 1, Some(real.view()))[0], DOMAIN_SLOT);

        let with_payload = |p: &[u8]| Block::new(BlockAddr(5), Leaf(3), p.to_vec());
        let messages = [
            // Dummy vs. empty payload vs. a payload spelling the digest's
            // domain and kind.
            encoded((9, 2), 1, None),
            encoded((9, 2), 1, Some(with_payload(&[]).view())),
            encoded(
                (9, 2),
                1,
                Some(with_payload(&[DOMAIN_CTR, KIND_SLOT]).view()),
            ),
            // A payload byte sliding across the length boundary.
            encoded((9, 2), 1, Some(with_payload(&[1, 0]).view())),
            encoded((9, 2), 1, Some(with_payload(&[1]).view())),
            // The same one sliding between the identity fields.
            encoded((1, 0), 0, None),
            encoded((0, 1), 0, None),
            encoded((0, 0), 1, None),
            encoded((1 << 56, 0), 0, None),
            encoded((0, 1 << 56), 0, None),
        ];
        for (i, a) in messages.iter().enumerate() {
            for b in &messages[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// A tree holding `tree`'s final counters whose digests and
    /// aggregates are recomputed from scratch — none carried over.
    fn rebuilt_from_counters(tree: &CounterTree) -> CounterTree {
        let mut fresh = CounterTree {
            cmac: tree.cmac.clone(),
            slots: UnitTable::default(),
            posmap: HashMap::new(),
            levels: vec![0; tree.levels.len()],
            posmap_agg: 0,
            epoch: tree.epoch,
        };
        for (bucket, slot) in tree.tracked_slots_sorted() {
            let ctr = tree.slot_ctr(bucket, slot).unwrap_or(0);
            let mut frame = DigestFrame::new();
            slot_digest_frame(&mut frame, (bucket, slot as u64), ctr);
            let digest = u128::from_le_bytes(fresh.cmac.tag(frame.bytes()));
            fresh.levels[CounterTree::level_of(bucket)] ^= digest;
            *fresh.slots.cell_mut(bucket, slot) = SlotRow {
                ctr,
                folded: digest,
                rec: None,
            };
        }
        for addr in tree.tracked_posmap_sorted() {
            let ctr = tree.posmap_ctr(addr).unwrap_or(0);
            let digest = CounterTree::posmap_digest(&fresh.cmac, addr, ctr);
            fresh.posmap_agg ^= digest;
            let row = SlotRow {
                ctr,
                folded: digest,
                rec: None,
            };
            fresh.posmap.insert(addr, row);
        }
        fresh
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One persist schedule: a list of slot bumps plus posmap bumps.
        fn schedule() -> impl Strategy<Value = (Vec<(u64, usize)>, Vec<u64>)> {
            (
                proptest::collection::vec((0u64..31, 0usize..4), 0..48),
                proptest::collection::vec(0u64..16, 0..24),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The root digest depends only on the final counter map:
            /// applying the same multiset of bumps in a different order
            /// (here: sorted) yields a bit-identical root.
            #[test]
            fn root_is_schedule_order_invariant(ops in schedule()) {
                let (slots, addrs) = ops;
                let mut a = CounterTree::new(&[3u8; 16]);
                for &(b, s) in &slots {
                    a.bump_slot(b, s);
                }
                for &p in &addrs {
                    a.bump_posmap(p);
                }

                let mut sorted_slots = slots.clone();
                sorted_slots.sort_unstable();
                let mut sorted_addrs = addrs.clone();
                sorted_addrs.sort_unstable();
                let mut b = CounterTree::new(&[3u8; 16]);
                for &p in &sorted_addrs {
                    b.bump_posmap(p);
                }
                for &(bu, s) in &sorted_slots {
                    b.bump_slot(bu, s);
                }
                prop_assert_eq!(a.root(), b.root());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Replaying any single stale version of a unit is always
            /// detected: after `n ≥ 2` writes, re-serving the record and
            /// content from any earlier write never verdicts Clean.
            #[test]
            fn any_single_stale_replay_is_detected(
                bucket in 0u64..31,
                slot in 0usize..4,
                writes in 2usize..6,
                serve in 0usize..5,
            ) {
                let serve = serve % (writes - 1); // strictly older version
                let mut t = AuthTags::new(&[4u8; 16]);
                let mut snapshots = Vec::new();
                for i in 0..writes {
                    let b = Block::new(BlockAddr(1), Leaf(2), vec![i as u8; 4]);
                    t.record_slot(bucket, slot, Some(b.view()));
                    snapshots.push((Some(b), t.slot_record(bucket, slot)));
                }
                let (content, meta) = snapshots[serve].clone();
                t.set_slot_record(bucket, slot, meta);
                let verdict = t.verdict_slot(bucket, slot, content.as_ref().map(Block::view));
                prop_assert_eq!(
                    verdict,
                    FreshnessVerdict::Stale,
                    "serving write {} of {} must be stale", serve, writes
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Splicing an authentic record to any *other* unit is always
            /// detected as Spliced (when content travels with it).
            #[test]
            fn any_cross_splice_is_detected(
                from in (0u64..31, 0usize..4),
                to in (0u64..31, 0usize..4),
                payload in 0u8..255,
            ) {
                // Vendored proptest has no prop_assume!: skip the
                // (rare) same-unit draw, which is not a splice.
                if from != to {
                    let mut t = AuthTags::new(&[5u8; 16]);
                    let b = Block::new(BlockAddr(3), Leaf(1), vec![payload; 4]);
                    t.record_slot(from.0, from.1, Some(b.view()));
                    let rec = t.slot_record(from.0, from.1);
                    t.set_slot_record(to.0, to.1, rec);
                    let verdict = t.verdict_slot(to.0, to.1, Some(b.view()));
                    prop_assert_eq!(verdict, FreshnessVerdict::Spliced);
                }
            }
        }

        /// One slot-record triple drawn from a deliberately tiny, spiky
        /// domain (marker bytes, field-boundary powers of two) so equal
        /// and one-field-apart pairs both come up often.
        type Triple = ((u64, u64), u64, Option<Block>);

        fn spiky_word() -> impl Strategy<Value = u64> {
            prop::sample::select(vec![0, 1, 0x51, 0xB1, 0xC7, 1 << 8, 1 << 56, u64::MAX])
        }

        fn triple() -> impl Strategy<Value = Triple> {
            (
                (spiky_word(), spiky_word(), spiky_word()),
                (spiky_word(), spiky_word(), spiky_word()),
                (spiky_word(), spiky_word()),
                (any::<bool>(), any::<bool>()),
                proptest::collection::vec(
                    prop::sample::select(vec![0u8, 1, 0x51, 0xB1, 0xC7]),
                    0..3,
                ),
            )
                .prop_map(|(id, h1, h2, (real, backup), payload)| {
                    let content = real.then_some(Block {
                        header: crate::block::BlockHeader {
                            addr: BlockAddr(h1.0),
                            leaf: Leaf(h1.1),
                            iv1: h1.2,
                            iv2: h2.0,
                            seq: h2.1,
                        },
                        payload,
                        is_backup: backup,
                    });
                    ((id.0, id.1), id.2, content)
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The slot encoding is injective: two triples produce the
            /// same MAC input bytes exactly when they are the same triple.
            #[test]
            fn slot_encoding_is_injective(a in triple(), b in triple(), graft in 0usize..4) {
                // Pull `b` to within a field or two of `a`.
                let mut b = b;
                if graft & 1 == 1 {
                    b.0 = a.0;
                    b.1 = a.1;
                }
                if graft & 2 == 2 {
                    match (&a.2, &mut b.2) {
                        (Some(x), Some(y)) => y.header = x.header,
                        (x, y) => *y = x.clone(),
                    }
                }
                let same_bytes =
                    encoded(a.0, a.1, a.2.as_ref().map(Block::view))
                        == encoded(b.0, b.1, b.2.as_ref().map(Block::view));
                prop_assert_eq!(same_bytes, a == b, "{:?} vs {:?}", a, b);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// The digests cached beside the counters never drift: after
            /// any bump schedule the incrementally folded root equals the
            /// root of a tree rebuilt from the final counter map alone.
            #[test]
            fn cached_digests_reproduce_the_rebuilt_root(ops in schedule(), epochs in 0u64..3) {
                let (slots, addrs) = ops;
                let mut tree = CounterTree::new(&[6u8; 16]);
                // Interleave the two kinds of bump.
                let mut addrs = addrs.iter();
                for &(b, s) in &slots {
                    tree.bump_slot(b, s);
                    if let Some(&p) = addrs.next() {
                        tree.bump_posmap(p);
                    }
                }
                for &p in addrs {
                    tree.bump_posmap(p);
                }
                for _ in 0..epochs {
                    tree.advance_epoch();
                }
                let fresh = rebuilt_from_counters(&tree);
                prop_assert_eq!(tree.root(), fresh.root());
                prop_assert_eq!(&tree.levels, &fresh.levels);
                prop_assert_eq!(tree.posmap_agg, fresh.posmap_agg);
            }
        }

        /// What the adversary does to one slot's off-chip record (and the
        /// content read back with it) between the writes and the check.
        #[derive(Debug, Clone, Copy)]
        enum Attack {
            None,
            /// The record is deleted: `Missing` on a written slot.
            Delete,
            /// Record and content trade places with the next slot's.
            SwapWithNext,
            /// The unit is rolled back one version: `Stale` if it had two.
            Rollback,
            /// One payload bit flips: `Tampered` on a real block.
            Flip,
        }

        /// One slot of a batch: real or dummy on the first write, whether
        /// it is written at all (a never-written slot stays untracked),
        /// whether a second write follows, and the attack on it.
        type SlotPlan = ((bool, bool, bool), Attack);

        fn slot_plan() -> impl Strategy<Value = SlotPlan> {
            (
                (any::<bool>(), any::<bool>(), any::<bool>()),
                prop::sample::select(vec![
                    Attack::None,
                    Attack::None,
                    Attack::Delete,
                    Attack::SwapWithNext,
                    Attack::Rollback,
                    Attack::Flip,
                ]),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The batched calls are the per-slot calls: on random batches
            /// (mixed real and dummy, never-written slots, more units than
            /// one pass holds, spread over a few buckets) `record_slots`
            /// leaves the records and the counter-tree root that a
            /// `record_slot` per unit leaves, and after records are
            /// deleted, swapped between slots or rolled back one version,
            /// `verdict_slots` returns `verdict_slot`'s verdict for every
            /// unit.
            #[test]
            fn batched_calls_match_the_per_slot_calls(
                plans in proptest::collection::vec(slot_plan(), 1..20),
                first_bucket in 0u64..1000,
            ) {
                // Four slots to a bucket, consecutive buckets.
                let unit = |i: usize| (first_bucket + (i / 4) as u64, i % 4);
                let version = |i: usize, v: u8, real: bool| {
                    real.then(|| Block::new(BlockAddr(i as u64), Leaf(v as u64), vec![v; 5 + i % 9]))
                };
                let mut batched = AuthTags::new(&[8u8; 16]);
                let mut single = AuthTags::new(&[8u8; 16]);

                // Two rounds of writes: the second flips real and dummy.
                let mut on_media: Vec<Option<Block>> = vec![None; plans.len()];
                let mut previous = Vec::new();
                for round in 0..2u8 {
                    previous = (0..plans.len())
                        .map(|i| {
                            let (bucket, slot) = unit(i);
                            (on_media[i].clone(), batched.slot_record(bucket, slot))
                        })
                        .collect();
                    let written: Vec<usize> = (0..plans.len())
                        .filter(|&i| {
                            let ((_, written, again), _) = plans[i];
                            written && (round == 0 || again)
                        })
                        .collect();
                    for &i in &written {
                        let ((real, _, _), _) = plans[i];
                        on_media[i] = version(i, round + 1, real == (round == 0));
                    }
                    batched.record_slots(written.iter().map(|&i| {
                        let (bucket, slot) = unit(i);
                        (bucket, slot, on_media[i].as_ref().map(Block::view))
                    }));
                    for &i in &written {
                        let (bucket, slot) = unit(i);
                        single.record_slot(bucket, slot, on_media[i].as_ref().map(Block::view));
                    }
                    for i in 0..plans.len() {
                        let (bucket, slot) = unit(i);
                        prop_assert_eq!(
                            batched.slot_record(bucket, slot),
                            single.slot_record(bucket, slot)
                        );
                    }
                    prop_assert_eq!(batched.root(), single.root());
                }

                // The adversary, identically on both.
                let mut served = on_media.clone();
                for (i, &(_, attack)) in plans.iter().enumerate() {
                    let (bucket, slot) = unit(i);
                    match attack {
                        Attack::None => {}
                        Attack::Delete => {
                            batched.set_slot_record(bucket, slot, None);
                            single.set_slot_record(bucket, slot, None);
                        }
                        Attack::SwapWithNext => {
                            let j = (i + 1) % plans.len();
                            let (b2, s2) = unit(j);
                            let (ri, rj) = (batched.slot_record(bucket, slot), batched.slot_record(b2, s2));
                            for tags in [&mut batched, &mut single] {
                                tags.set_slot_record(bucket, slot, rj);
                                tags.set_slot_record(b2, s2, ri);
                            }
                            served.swap(i, j);
                        }
                        Attack::Rollback => {
                            let (content, record) = previous[i].clone();
                            batched.set_slot_record(bucket, slot, record);
                            single.set_slot_record(bucket, slot, record);
                            served[i] = content;
                        }
                        Attack::Flip => {
                            if let Some(b) = &mut served[i] {
                                b.payload[0] ^= 0x10;
                            }
                        }
                    }
                }

                let mut verdicts = Vec::new();
                batched.verdict_slots(
                    (0..plans.len()).map(|i| {
                        let (bucket, slot) = unit(i);
                        (bucket, slot, served[i].as_ref().map(Block::view))
                    }),
                    |bucket, slot, verdict| verdicts.push((bucket, slot, verdict)),
                );
                let expected: Vec<_> = (0..plans.len())
                    .map(|i| {
                        let (bucket, slot) = unit(i);
                        (bucket, slot, single.verdict_slot(bucket, slot, served[i].as_ref().map(Block::view)))
                    })
                    .collect();
                prop_assert_eq!(verdicts, expected);
                prop_assert_eq!(batched.root(), single.root());
            }
        }

        /// The ladder's every rung comes up in the batched check above;
        /// this pins one batch that shows all five at once, in order.
        #[test]
        fn one_batch_can_hold_every_verdict() {
            let mut t = AuthTags::new(&[8u8; 16]);
            let blocks: Vec<Block> = (0..5).map(|i| blk(i, i as u8)).collect();
            t.record_slots((0..5).map(|s| (7, s, Some(blocks[s].view()))));
            let stale = t.slot_record(7, 3);
            t.record_slot(7, 3, Some(blocks[0].view()));
            t.set_slot_record(7, 3, stale); // rolled back one version
            t.set_slot_record(7, 4, None); // deleted
            let moved = t.slot_record(7, 0);
            t.set_slot_record(7, 2, moved); // spliced from slot 0
            let mut flipped = blocks[1].clone();
            flipped.payload[0] ^= 1;
            let served = [&blocks[0], &flipped, &blocks[0], &blocks[3], &blocks[4]];
            let mut verdicts = Vec::new();
            t.verdict_slots(
                (0..5).map(|s| (7, s, Some(served[s].view()))),
                |_, _, verdict| verdicts.push(verdict),
            );
            use FreshnessVerdict::*;
            assert_eq!(verdicts, [Clean, Tampered, Spliced, Stale, Missing]);
        }

        /// The verdict ladder with every claim's MAC recomputed through
        /// [`Cmac::tag`] — a dummy's included, whose tag the layer compares
        /// with the digest on chip instead.
        fn recomputed_verdict(
            cmac: &Cmac,
            unit: (u64, usize),
            trusted: Option<u64>,
            rec: Option<&UnitMeta>,
            content: Option<BlockRef<'_>>,
        ) -> FreshnessVerdict {
            match rec {
                None if trusted.is_some() => FreshnessVerdict::Missing,
                None => FreshnessVerdict::Clean,
                Some(m) if cmac.tag(&encoded(m.src, m.ctr, content)) != m.tag => {
                    FreshnessVerdict::Tampered
                }
                Some(m) if m.src != (unit.0, unit.1 as u64) => FreshnessVerdict::Spliced,
                Some(m) if Some(m.ctr) != trusted => FreshnessVerdict::Stale,
                Some(_) => FreshnessVerdict::Clean,
            }
        }

        /// The freshness layer as it was before counter and record shared
        /// a row: one map of trusted counters, one of off-chip records,
        /// every unit on its own, every tag through [`Cmac::tag`].
        struct TwoMaps {
            cmac: Cmac,
            ctrs: HashMap<(u64, usize), u64>,
            recs: HashMap<(u64, usize), UnitMeta>,
        }

        impl TwoMaps {
            fn record(&mut self, (bucket, slot): (u64, usize), content: Option<BlockRef<'_>>) {
                let ctr = self.ctrs.entry((bucket, slot)).or_insert(0);
                *ctr += 1;
                let src = (bucket, slot as u64);
                let tag = self.cmac.tag(&encoded(src, *ctr, content));
                self.recs.insert(
                    (bucket, slot),
                    UnitMeta {
                        ctr: *ctr,
                        src,
                        tag,
                    },
                );
            }

            fn plant(&mut self, unit: (u64, usize), rec: Option<UnitMeta>) {
                match rec {
                    Some(m) => self.recs.insert(unit, m),
                    None => self.recs.remove(&unit),
                };
            }

            fn verdict(
                &self,
                unit: (u64, usize),
                content: Option<BlockRef<'_>>,
                rec: Option<&UnitMeta>,
            ) -> FreshnessVerdict {
                let trusted = self.ctrs.get(&unit).copied();
                recomputed_verdict(&self.cmac, unit, trusted, rec, content)
            }

            /// The root over the counter map alone, nothing carried over.
            fn root(&self) -> [u8; 16] {
                let mut levels: Vec<u128> = Vec::new();
                for (&(bucket, slot), &ctr) in &self.ctrs {
                    let level = CounterTree::level_of(bucket);
                    if levels.len() <= level {
                        levels.resize(level + 1, 0);
                    }
                    let mut frame = DigestFrame::new();
                    slot_digest_frame(&mut frame, (bucket, slot as u64), ctr);
                    levels[level] ^= u128::from_le_bytes(self.cmac.tag(frame.bytes()));
                }
                let mut msg = vec![DOMAIN_ROOT];
                msg.extend_from_slice(&0u64.to_le_bytes());
                for level in levels {
                    msg.extend_from_slice(&level.to_le_bytes());
                }
                msg.extend_from_slice(&0u128.to_le_bytes());
                self.cmac.tag(&msg)
            }
        }

        /// The units the sequences below play on: six slots in each of
        /// two sibling buckets, one a level down and one deep in a tall
        /// tree.
        const MERGED_BUCKETS: [u64; 4] = [1, 2, 5, (1 << 20) + 3];
        const MERGED_SLOTS: usize = 6;

        fn merged_unit() -> impl Strategy<Value = (u64, usize)> {
            (
                prop::sample::select(MERGED_BUCKETS.to_vec()),
                0..MERGED_SLOTS,
            )
        }

        /// A slot's content: a dummy, or one of a few small blocks.
        fn merged_content() -> impl Strategy<Value = Option<Block>> {
            (any::<bool>(), 0u64..3, 0u8..3, 0usize..20).prop_map(|(real, addr, fill, len)| {
                real.then(|| Block::new(BlockAddr(addr), Leaf(addr + 1), vec![fill; len]))
            })
        }

        #[derive(Debug, Clone)]
        enum Step {
            /// `record_slot`.
            Record((u64, usize), Option<Block>),
            /// `record_slots` over a ragged batch; a unit may come up
            /// twice, which only a release build records.
            RecordBatch(Vec<((u64, usize), Option<Block>)>),
            /// `set_slot_record(to, slot_record(from))`: a splice between
            /// units, a record planted on a never-written slot, or (from
            /// an empty unit) a deletion.
            Plant {
                from: (u64, usize),
                to: (u64, usize),
            },
            /// `set_slot_record(unit, None)`.
            Delete((u64, usize)),
            /// `verdict_slots` over a batch, `verdict_slot` over its first
            /// unit.
            Verdicts(Vec<((u64, usize), Option<Block>)>),
            /// `classify_served_slot` with the record stored at `rec_of`.
            Served {
                unit: (u64, usize),
                content: Option<Block>,
                rec_of: (u64, usize),
            },
        }

        fn step() -> impl Strategy<Value = Step> {
            let batch = || proptest::collection::vec((merged_unit(), merged_content()), 1..21);
            (
                0u8..12,
                (merged_unit(), merged_unit()),
                merged_content(),
                batch(),
            )
                .prop_map(|(kind, (a, b), content, batch)| match kind {
                    0 | 1 => Step::Record(a, content),
                    2..=4 => Step::RecordBatch(batch),
                    5 | 6 => Step::Plant { from: a, to: b },
                    7 => Step::Delete(a),
                    8..=10 => Step::Verdicts(batch),
                    _ => Step::Served {
                        unit: a,
                        content,
                        rec_of: b,
                    },
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// One row per slot behaves as the two tables did: over random
            /// sequences of records (single, ragged batches over several
            /// buckets, a unit repeated in one batch), planted, spliced and
            /// deleted records, and checks (batched, single, wire-served),
            /// every verdict, the root, the tracked list and every unit's
            /// record and counter equal the two-map model's.
            #[test]
            fn one_row_per_slot_matches_the_two_table_model(
                steps in proptest::collection::vec(step(), 1..24),
            ) {
                let key = [9u8; 16];
                let mut tags = AuthTags::new(&key);
                let mut model = TwoMaps {
                    cmac: Cmac::new(Aes128::new(&key)),
                    ctrs: HashMap::new(),
                    recs: HashMap::new(),
                };
                for step in steps {
                    match step {
                        Step::Record((bucket, slot), content) => {
                            let content = content.as_ref().map(Block::view);
                            tags.record_slot(bucket, slot, content);
                            model.record((bucket, slot), content);
                        }
                        Step::RecordBatch(mut batch) => {
                            if cfg!(debug_assertions) {
                                let mut seen = Vec::new();
                                batch.retain(|&(unit, _)| {
                                    let first = !seen.contains(&unit);
                                    seen.push(unit);
                                    first
                                });
                            }
                            tags.record_slots(batch.iter().map(|((b, s), content)| {
                                (*b, *s, content.as_ref().map(Block::view))
                            }));
                            for (unit, content) in &batch {
                                model.record(*unit, content.as_ref().map(Block::view));
                            }
                        }
                        Step::Plant { from, to } => {
                            let rec = tags.slot_record(from.0, from.1);
                            tags.set_slot_record(to.0, to.1, rec);
                            model.plant(to, rec);
                        }
                        Step::Delete(unit) => {
                            tags.set_slot_record(unit.0, unit.1, None);
                            model.plant(unit, None);
                        }
                        Step::Verdicts(batch) => {
                            let mut got = Vec::new();
                            tags.verdict_slots(
                                batch.iter().map(|((b, s), content)| {
                                    (*b, *s, content.as_ref().map(Block::view))
                                }),
                                |bucket, slot, verdict| got.push(((bucket, slot), verdict)),
                            );
                            let expected: Vec<_> = batch
                                .iter()
                                .map(|(unit, content)| {
                                    let content = content.as_ref().map(Block::view);
                                    (*unit, model.verdict(*unit, content, model.recs.get(unit)))
                                })
                                .collect();
                            prop_assert_eq!(&got, &expected);
                            let ((bucket, slot), content) = &batch[0];
                            let content = content.as_ref().map(Block::view);
                            prop_assert_eq!(tags.verdict_slot(*bucket, *slot, content), expected[0].1);
                        }
                        Step::Served { unit, content, rec_of } => {
                            let content = content.as_ref().map(Block::view);
                            let rec = tags.slot_record(rec_of.0, rec_of.1);
                            prop_assert_eq!(
                                tags.classify_served_slot(unit.0, unit.1, content, rec.as_ref()),
                                model.verdict(unit, content, rec.as_ref())
                            );
                        }
                    }
                    prop_assert_eq!(tags.root(), model.root());
                    let mut tracked: Vec<_> = model.ctrs.keys().copied().collect();
                    tracked.sort_unstable();
                    prop_assert_eq!(tags.tagged_slots_sorted(), tracked);
                    for bucket in MERGED_BUCKETS {
                        for slot in 0..MERGED_SLOTS {
                            let unit = (bucket, slot);
                            prop_assert_eq!(tags.slot_record(bucket, slot), model.recs.get(&unit).copied());
                            prop_assert_eq!(tags.ctrs.slot_ctr(bucket, slot), model.ctrs.get(&unit).copied());
                        }
                    }
                }
            }
        }

        /// What the adversary does to a content-free unit — its off-chip
        /// record, or what is read back beside it — before the check.
        #[derive(Debug, Clone, Copy)]
        enum OnDummy {
            Intact,
            /// The record an earlier write of the unit left: `Stale`.
            Replay,
            /// The record of another unit's dummy planted here: `Spliced`.
            Splice,
            /// One bit of the tag flipped: `Tampered`.
            FlipTag(u8),
            /// The claimed counter moved by a non-zero step: `Tampered`.
            ShiftCtr(u64),
            /// One half of the claimed identity moved: `Tampered`.
            ShiftSrc(bool),
            /// The record deleted: `Missing`.
            Delete,
            /// A real block read back under the dummy's record: `Tampered`.
            RealUnder,
            /// Last written with a real block, read back empty under that
            /// block's record: `Tampered`.
            EmptyUnderReal,
        }

        impl OnDummy {
            fn verdict(self) -> FreshnessVerdict {
                use FreshnessVerdict::*;
                match self {
                    OnDummy::Intact => Clean,
                    OnDummy::Replay => Stale,
                    OnDummy::Splice => Spliced,
                    OnDummy::Delete => Missing,
                    _ => Tampered,
                }
            }
        }

        fn on_dummy() -> impl Strategy<Value = (OnDummy, usize)> {
            let attack = (0u8..9, any::<u8>(), 1u64..4).prop_map(|(kind, bit, step)| match kind {
                0 => OnDummy::Intact,
                1 => OnDummy::Replay,
                2 => OnDummy::Splice,
                3 => OnDummy::FlipTag(bit),
                4 => OnDummy::ShiftCtr(step),
                5 => OnDummy::ShiftSrc(bit & 1 == 1),
                6 => OnDummy::Delete,
                7 => OnDummy::RealUnder,
                _ => OnDummy::EmptyUnderReal,
            });
            (attack, 1usize..4)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Content-free units under every adversary action: a stale
            /// record replayed, a record spliced in from another unit, its
            /// tag, counter or identity bytes tampered, the record deleted,
            /// a record planted on an untracked unit, a real block under a
            /// dummy's record and an empty slot under a real block's. The
            /// layer — a batch of them ([`AuthTags::verdict_slots`], more
            /// units than it holds at once), one at a time, served on the
            /// wire and walked by phase 1 — judges each as a reference
            /// that recomputes every claim's MAC does, and both give the
            /// rung of the ladder the action calls for.
            #[test]
            fn dummy_records_under_every_attack_match_the_recomputing_reference(
                plans in proptest::collection::vec(on_dummy(), 1..40),
                first_bucket in 0u64..1000,
            ) {
                let key = [10u8; 16];
                let mut t = AuthTags::new(&key);
                let cmac = Cmac::new(Aes128::new(&key));
                let unit = |i: usize| (first_bucket + 1 + (i / 4) as u64, i % 4);
                // Another bucket's dummy donates the spliced and planted
                // records; a unit of a bucket nobody writes gets one.
                let (donor, planted) = ((first_bucket, 0), (first_bucket, 1));
                t.record_slot(donor.0, donor.1, None);
                let block = Block::new(BlockAddr(4), Leaf(2), vec![6; 8]);
                let writes = |i: usize| match plans[i] {
                    (OnDummy::Replay, w) => w.max(2),
                    (_, w) => w,
                };
                // Round by round, as batches; an `EmptyUnderReal` unit's
                // last write is real.
                let mut history: Vec<Vec<UnitMeta>> = vec![Vec::new(); plans.len()];
                for round in 0..3 {
                    let written: Vec<usize> = (0..plans.len()).filter(|&i| writes(i) > round).collect();
                    t.record_slots(written.iter().map(|&i| {
                        let last = round + 1 == writes(i);
                        let real = last && matches!(plans[i].0, OnDummy::EmptyUnderReal);
                        let (bucket, slot) = unit(i);
                        (bucket, slot, real.then(|| block.view()))
                    }));
                    for &i in &written {
                        let (bucket, slot) = unit(i);
                        history[i].extend(t.slot_record(bucket, slot));
                    }
                }
                let donated = t.slot_record(donor.0, donor.1);
                t.set_slot_record(planted.0, planted.1, donated);

                let mut served: Vec<Option<&Block>> = vec![None; plans.len()];
                for (i, &(attack, _)) in plans.iter().enumerate() {
                    let (bucket, slot) = unit(i);
                    let Some(mut rec) = t.slot_record(bucket, slot) else {
                        continue;
                    };
                    match attack {
                        OnDummy::Intact | OnDummy::EmptyUnderReal => {}
                        OnDummy::Replay => rec = history[i][0],
                        OnDummy::Splice => rec = donated.unwrap_or(rec),
                        OnDummy::FlipTag(bit) => rec.tag[(bit / 8 % 16) as usize] ^= 1 << (bit % 8),
                        OnDummy::ShiftCtr(step) => rec.ctr += step,
                        OnDummy::ShiftSrc(false) => rec.src.0 ^= 1 << (i % 64),
                        OnDummy::ShiftSrc(true) => rec.src.1 += 1,
                        OnDummy::Delete => {
                            t.set_slot_record(bucket, slot, None);
                            continue;
                        }
                        OnDummy::RealUnder => served[i] = Some(&block),
                    }
                    t.set_slot_record(bucket, slot, Some(rec));
                }

                // Every unit, the planted one and the donor last.
                let mut checked: Vec<((u64, usize), Option<&Block>, FreshnessVerdict)> = (0..plans.len())
                    .map(|i| (unit(i), served[i], plans[i].0.verdict()))
                    .collect();
                checked.push((planted, None, FreshnessVerdict::Spliced));
                checked.push((donor, None, FreshnessVerdict::Clean));
                let mut batched = Vec::new();
                t.verdict_slots(
                    checked.iter().map(|&((b, s), content, _)| (b, s, content.map(Block::view))),
                    |_, _, verdict| batched.push(verdict),
                );
                let mut arena = SlotArena::new(4, 8);
                for &((bucket, slot), content, _) in &checked {
                    arena.write(bucket, slot, content.map(Block::view));
                }
                let mut walked = HashMap::new();
                t.verdict_tracked_slots(&arena, |b, s, verdict| {
                    walked.insert((b, s), verdict);
                });
                prop_assert_eq!(walked.len(), checked.len() - 1, "the planted unit is untracked");
                for (k, &((bucket, slot), content, expected)) in checked.iter().enumerate() {
                    let content = content.map(Block::view);
                    let rec = t.slot_record(bucket, slot);
                    let trusted = t.ctrs.slot_ctr(bucket, slot);
                    let reference = recomputed_verdict(&cmac, (bucket, slot), trusted, rec.as_ref(), content);
                    prop_assert_eq!(reference, expected, "unit {}: reference", k);
                    prop_assert_eq!(batched[k], expected, "unit {}: batched", k);
                    prop_assert_eq!(t.verdict_slot(bucket, slot, content), expected, "unit {}", k);
                    prop_assert_eq!(
                        t.classify_served_slot(bucket, slot, content, rec.as_ref()),
                        expected,
                        "unit {}: served", k
                    );
                    if (bucket, slot) != planted {
                        prop_assert_eq!(walked.get(&(bucket, slot)), Some(&expected), "unit {}: walked", k);
                    }
                }
            }
        }

        /// Deleting a record where nothing was ever stored — no row, or a
        /// row that stops short of the slot — stores nothing.
        #[test]
        fn deleting_a_record_on_an_absent_row_allocates_nothing() {
            let mut t = AuthTags::new(&[8u8; 16]);
            t.record_slot(4, 1, None);
            let info = allocation_counter::measure(|| {
                t.set_slot_record(9, 0, None);
                t.set_slot_record(1 << 30, 3, None);
                t.set_slot_record(4, 5, None);
            });
            assert_eq!(info.count_total, 0);
            assert!(t.ctrs.slots.row(9).is_empty());
            assert_eq!(t.ctrs.slots.row(4).len(), 2);
            assert_eq!(t.tagged_slots_sorted(), vec![(4, 1)]);
        }

        /// Batching moves every snapshot of a round ahead of every record
        /// of it, which is only the slot-by-slot order when the round's
        /// units are distinct: a batch naming a unit twice is refused.
        #[test]
        #[cfg(debug_assertions)]
        #[should_panic(expected = "a batch records each unit once")]
        fn a_batch_naming_a_unit_twice_is_refused() {
            let mut t = AuthTags::new(&[8u8; 16]);
            // Far enough apart to fall into different passes.
            t.record_slots((0..=LANES).chain([0]).map(|slot| (3, slot, None)));
        }
    }
}

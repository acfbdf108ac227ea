//! Ring ORAM with PS-ORAM-style crash consistency.
//!
//! The paper claims PS-ORAM "supports efficient crash consistency for
//! general ORAM protocols" but evaluates only Path ORAM. This module
//! substantiates the claim for the other mainstream tree ORAM, **Ring
//! ORAM** (Ren et al., USENIX Security'15): buckets hold `Z` real plus `S`
//! dummy slots behind a per-bucket permutation; a read touches exactly
//! *one* slot per bucket; a full eviction path is written only every `A`
//! accesses; buckets whose read budgets run out are reshuffled early.
//!
//! Crash-consistency differences from Path ORAM turn out to be friendly:
//!
//! * A read only flips *metadata* (valid bits and counts); the target's
//!   physical bytes stay in its bucket until that bucket is next
//!   rewritten, so no backup block is needed at access time — the paper's
//!   Case-2 "restore blocks marked invalid" recovery applies directly.
//! * Bucket rewrites (evict-path and early reshuffles) are the only
//!   destructive operations. The evict-path rewrite commits as **one
//!   atomic WPQ round** (blocks can migrate shallower between buckets, so
//!   per-bucket rounds could destroy a live copy before its new home
//!   commits); an early reshuffle only rewrites content back into the same
//!   bucket and commits as its own small round.

use std::cmp::Reverse;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use psoram_nvm::{AccessKind, FaultConfig, NvmConfig, WpqEntry};
use psoram_obsv::Phase;

use crate::arena::{BucketRef, SlotArena};
use crate::auth::AuthTags;
use crate::block::{Block, BlockHeader, BlockRef};
use crate::bucket::Bucket;
use crate::crash::{CrashPoint, RecoveryReport};
use crate::engine::{
    arm, check_committed, commit_and_apply, crash_at, power_fail, recoverable, set_tap, stall,
    to_core, to_mem, Access, CommitModel, Copies, DrainedRound, FrameCell, Kept, Listing, Media,
    NvmLayout, PersistEngine, PosMapFlush, ProtocolPolicy, RewriteTables, Rounds, Shell,
};
use crate::posmap::{PosMap, LABEL_BOUND, MAX_LEVELS};
use crate::tree::{heap_on_path, heap_path, BucketIndex};
use crate::types::{BlockAddr, Leaf, OramError};

/// Geometry and policy of a Ring ORAM instance.
///
/// # Examples
///
/// ```
/// use psoram_core::ring::RingConfig;
///
/// let cfg = RingConfig::small_test();
/// assert_eq!(cfg.bucket_physical_slots(), cfg.real_slots + cfg.dummy_slots);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingConfig {
    /// Tree height `L`.
    pub levels: u32,
    /// Real block slots per bucket (`Z`).
    pub real_slots: usize,
    /// Dummy slots per bucket (`S`) — the per-bucket read budget.
    pub dummy_slots: usize,
    /// Evict-path rate `A`: one eviction every `A` accesses.
    pub evict_rate: u64,
    /// Modeled block size in bytes.
    pub block_bytes: usize,
    /// Functional payload bytes stored.
    pub payload_bytes: usize,
    /// Stash capacity.
    pub stash_capacity: usize,
    /// Temporary PosMap capacity.
    pub temp_posmap_capacity: usize,
    /// Data WPQ capacity for the persistent variant (must hold one whole
    /// eviction path: `(Z+S)·(L+1)` slot images).
    pub wpq_capacity: usize,
    /// Fraction of real slots holding blocks.
    pub utilization: f64,
}

impl RingConfig {
    /// A small test parameterization: `L = 6, Z = 4, S = 5, A = 3`.
    pub fn small_test() -> Self {
        RingConfig {
            levels: 6,
            real_slots: 4,
            dummy_slots: 5,
            evict_rate: 3,
            block_bytes: 64,
            payload_bytes: 8,
            stash_capacity: 220,
            temp_posmap_capacity: 96,
            wpq_capacity: 256,
            utilization: 0.5,
        }
    }

    /// A paper-comparable configuration (`L = 18`) for experiments.
    pub fn experiment() -> Self {
        RingConfig {
            levels: 18,
            ..Self::small_test()
        }
    }

    /// Physical slots per bucket (`Z + S`).
    pub fn bucket_physical_slots(&self) -> usize {
        self.real_slots + self.dummy_slots
    }

    /// Number of leaves.
    pub fn num_leaves(&self) -> u64 {
        1 << self.levels
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Addressable logical blocks.
    pub fn capacity_blocks(&self) -> u64 {
        (self.num_buckets() as f64 * self.real_slots as f64 * self.utilization) as u64
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values (`S = 0` would forbid dummy reads, a
    /// WPQ smaller than one path breaks eviction atomicity).
    pub fn validate(&self) {
        assert!(self.levels >= 1, "levels out of range");
        assert!(self.levels <= MAX_LEVELS, "{LABEL_BOUND}");
        assert!(
            self.real_slots >= 1 && self.dummy_slots >= 1,
            "need real and dummy slots"
        );
        assert!(self.evict_rate >= 1, "evict rate must be positive");
        assert!(self.utilization > 0.0 && self.utilization <= 1.0);
        assert!(
            self.wpq_capacity >= self.bucket_physical_slots() * (self.levels as usize + 1),
            "WPQ must hold one full eviction path"
        );
    }
}

impl Default for RingConfig {
    fn default() -> Self {
        Self::small_test()
    }
}

pub use crate::engine::RingVariant;

/// A uniformly chosen valid dummy slot of `bucket`: one draw over their
/// count, none when it has none left.
fn pick_valid_dummy(bucket: BucketRef<'_>, rng: &mut StdRng) -> Option<usize> {
    let n = bucket.valid_dummies().count();
    let k = (n > 0).then(|| rng.gen_range(0..n))?;
    bucket.valid_dummies().nth(k)
}

/// Statistics for a Ring ORAM controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingStats {
    /// Logical accesses served.
    pub accesses: u64,
    /// Evict-path operations performed.
    pub evictions: u64,
    /// Early reshuffles triggered by exhausted read budgets.
    pub early_reshuffles: u64,
    /// Dirty PosMap entries flushed (PS variant).
    pub dirty_entries_flushed: u64,
    /// High-water mark of stash occupancy.
    pub stash_max: usize,
    /// Crashes injected.
    pub crashes: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Recoveries that detected a consistency violation.
    pub recovery_failures: u64,
    /// Eviction rounds split early because a WPQ ran out of room.
    pub wpq_stalls: u64,
    /// Sum of per-access latencies (core cycles).
    pub total_access_cycles: u64,
}

impl psoram_obsv::MetricsSource for RingStats {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "accesses"), self.accesses);
        reg.set_counter(&R::key(prefix, "evictions"), self.evictions);
        reg.set_counter(&R::key(prefix, "early_reshuffles"), self.early_reshuffles);
        reg.set_counter(
            &R::key(prefix, "dirty_entries_flushed"),
            self.dirty_entries_flushed,
        );
        reg.set_counter(&R::key(prefix, "stash_max"), self.stash_max as u64);
        reg.set_counter(&R::key(prefix, "crashes"), self.crashes);
        reg.set_counter(&R::key(prefix, "recoveries"), self.recoveries);
        reg.set_counter(&R::key(prefix, "recovery_failures"), self.recovery_failures);
        reg.set_counter(&R::key(prefix, "wpq_stalls"), self.wpq_stalls);
        reg.set_counter(
            &R::key(prefix, "total_access_cycles"),
            self.total_access_cycles,
        );
    }
}

/// Where recovery looks for Ring's committed copies: on the tree path of
/// the persisted leaf, in the clear.
struct RingCopies {
    levels: u32,
}

impl Copies for RingCopies {
    const DESC: &'static str = "copy";

    fn path(&self, leaf: Leaf) -> impl Iterator<Item = BucketIndex> {
        heap_path(self.levels, leaf)
    }

    fn on_path(&self, leaf: Leaf, bucket: BucketIndex) -> bool {
        heap_on_path(self.levels, leaf, bucket)
    }

    /// A surviving shadow is promoted to primary: a legitimate controller
    /// write, so its slot is recorded afresh.
    fn admit(
        &self,
        arena: &mut SlotArena,
        auth: &mut AuthTags,
        (bidx, s): (u64, usize),
        copy: &mut Block,
    ) {
        if copy.is_backup {
            copy.is_backup = false;
            if let Some(mut bucket) = arena.bucket_mut_if_present(bidx) {
                bucket.set_backup(s, false);
            }
            auth.record_slot(bidx, s, Some(copy.view()));
        }
    }
}

/// A Ring ORAM controller over simulated NVM, optionally crash-consistent.
///
/// # Examples
///
/// ```
/// use psoram_core::ring::{RingConfig, RingOram, RingVariant};
/// use psoram_core::BlockAddr;
///
/// let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 7);
/// oram.write(BlockAddr(3), vec![9; 8]).unwrap();
/// assert_eq!(oram.read(BlockAddr(3)).unwrap(), vec![9; 8]);
/// ```
#[derive(Debug)]
pub struct RingOram {
    config: RingConfig,
    variant: RingVariant,
    /// The state every controller holds: NVM, PosMaps, engine control,
    /// ledger, device side, clock, scratch (its frame holds the one slot
    /// per bucket an access reads).
    shell: Shell,
    /// The WPQ persist rounds of whole-bucket rewrites and PosMap entries.
    wpq: PersistEngine<(u64, Bucket), PosMapFlush>,
    /// The same slot arena the Path tree sits on, with `Z + S` physical
    /// slots a bucket; the per-slot *consumed* flag is Ring's `valid`
    /// bit and, counted, its per-bucket read count.
    buckets: SlotArena,
    /// Primaries only, one an address: a shadow never leaves the tree.
    stash: Vec<Block>,
    rng: StdRng,
    access_counter: u64,
    /// Reverse-lexicographic eviction cursor.
    evict_cursor: u64,
    stats: RingStats,
    /// Bucket rewrites begun in the current access ([`CrashPoint::
    /// DuringEviction`] indexes into this cursor).
    rewrites_this_access: usize,
    /// The tables of the bucket rewrite in progress.
    rewrite: RewriteTables,
    /// Bucket images a round applied and emptied, for the next rewrites.
    spare_images: Vec<Bucket>,
}

impl RingOram {
    /// Creates a Ring ORAM over a single-channel paper-default PCM memory.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(config: RingConfig, variant: RingVariant, seed: u64) -> Self {
        Self::with_nvm(config, variant, NvmConfig::paper_pcm(1), seed)
    }

    /// Creates a Ring ORAM over an explicit NVM configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn with_nvm(config: RingConfig, variant: RingVariant, nvm: NvmConfig, seed: u64) -> Self {
        config.validate();
        let posmap_seed = seed ^ 0x52_49_4E_47;
        RingOram {
            shell: Shell::new(
                nvm,
                config.num_leaves(),
                posmap_seed,
                config.temp_posmap_capacity,
            ),
            wpq: PersistEngine::new(config.wpq_capacity, config.wpq_capacity),
            rng: StdRng::seed_from_u64(seed),
            buckets: SlotArena::new(config.bucket_physical_slots(), config.payload_bytes),
            stash: Vec::new(),
            access_counter: 0,
            evict_cursor: 0,
            stats: RingStats::default(),
            rewrites_this_access: 0,
            rewrite: RewriteTables::default(),
            spare_images: Vec::new(),
            config,
            variant,
        }
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Current temporary-PosMap occupancy (always zero on Ring-Baseline).
    pub fn temp_posmap_len(&self) -> usize {
        self.shell.temp.len()
    }

    /// Backup (shadow) copies pinned in the tree: a scan of every
    /// materialized bucket, for occupancy traces.
    pub fn pinned_backups(&self) -> usize {
        let backups = |(_, b): (u64, BucketRef<'_>)| b.blocks().filter(|b| b.is_backup).count();
        self.buckets.iter().map(backups).sum()
    }

    /// Controller statistics. The crash/recovery/stall counters live in
    /// the shared engine control and are merged into the snapshot here.
    pub fn stats(&self) -> RingStats {
        let e = self.shell.ctl.stats();
        RingStats {
            crashes: e.crashes,
            recoveries: e.recoveries,
            recovery_failures: e.recovery_failures,
            wpq_stalls: e.wpq_stalls,
            ..self.stats
        }
    }

    // ── geometry helpers ────────────────────────────────────────────────

    /// Bucket indices from the root to `leaf`, ascending.
    fn path(&self, leaf: Leaf) -> impl ExactSizeIterator<Item = u64> + Clone {
        heap_path(self.config.levels, leaf)
    }

    fn common_depth(&self, a: Leaf, b: Leaf) -> u32 {
        let diff = a.0 ^ b.0;
        if diff == 0 {
            self.config.levels
        } else {
            self.config.levels - (64 - diff.leading_zeros())
        }
    }

    fn slot_nvm_addr(&self, bucket: u64, slot: usize) -> u64 {
        self.slot_addresser()(bucket, slot)
    }

    /// [`RingOram::slot_nvm_addr`] as a function of the geometry alone, for
    /// address streams that outlive a borrow of the controller.
    fn slot_addresser(&self) -> impl Fn(u64, usize) -> u64 + Copy {
        let physical = self.config.bucket_physical_slots() as u64;
        let block_bytes = self.config.block_bytes as u64;
        move |bucket, slot| (bucket * physical + slot as u64) * block_bytes
    }

    /// NVM addresses of the real blocks physically in `bucket` — what a
    /// rewrite reads off media (slot positions are known from the
    /// per-bucket permutation metadata).
    fn occupied_addrs<'a>(
        buckets: &'a SlotArena,
        addr_of: impl Fn(u64, usize) -> u64 + Copy + 'a,
        bucket: u64,
    ) -> impl Iterator<Item = u64> + 'a {
        buckets.bucket(bucket).into_iter().flat_map(move |b| {
            (0..b.num_slots())
                .filter(move |&s| b.is_real(s))
                .map(move |s| addr_of(bucket, s))
        })
    }

    /// Position of `addr`'s block in the stash.
    fn stash_primary(&self, addr: BlockAddr) -> Option<usize> {
        self.stash.iter().position(|b| b.addr() == addr)
    }

    // ── public access API ───────────────────────────────────────────────

    /// Reads block `addr` at the controller's own clock.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from the access.
    pub fn read(&mut self, addr: BlockAddr) -> Result<Vec<u8>, OramError> {
        ProtocolPolicy::read(self, addr.0)
    }

    /// Writes `data` to block `addr`.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from the access.
    pub fn write(&mut self, addr: BlockAddr, data: Vec<u8>) -> Result<(), OramError> {
        ProtocolPolicy::write_from(self, addr.0, &data)
    }

    /// The access itself, over borrowed write data; the value comes back
    /// only when no data was given (the one copy a read makes).
    fn access(
        &mut self,
        addr: BlockAddr,
        data: Option<&[u8]>,
        arrival: u64,
    ) -> Result<(Option<Vec<u8>>, u64), OramError> {
        let access_index = self.stats.accesses;
        let geometry = (self.config.capacity_blocks(), self.config.payload_bytes);
        self.shell
            .begin_access(addr, data, geometry, access_index, arrival)?;
        self.stats.accesses += 1;
        self.access_counter += 1;
        self.rewrites_this_access = 0;

        let mut t = arrival + 1; // stash lookup

        // Step ②: PosMap + remap.
        let old_leaf = self.shell.lookup(addr);
        let new_leaf = Leaf(self.rng.gen_range(0..self.config.num_leaves()));
        match self.variant {
            RingVariant::Baseline => self.shell.posmap.set(addr, new_leaf),
            RingVariant::PsRing => self.shell.temp.insert(addr, new_leaf)?,
        }
        self.shell.device.seal_temp(&self.shell.temp);
        t += 2;
        self.shell.phase(Phase::PosMap, arrival, t);
        crash_at(self, CrashPoint::AfterAccessPosMap)?;

        // Step ③: read exactly one slot per bucket along the path.
        // The device side's four guards bracket the read (all inert
        // without a fault plan). First: transient media read errors.
        t = self.shell.device.read_fault(&mut self.shell.ctl, t)?;
        let t_before_path = t;
        // Second: the freshness adversary may serve one of this access's
        // read slots stale. The draw always consumes plan entropy
        // (schedule invariance) and is resolved once the slots are known.
        let replay_pick = self.shell.device.read_replay();
        // Where the target is read from: its bytes stay in the slot (a read
        // flips metadata only) until step ④ copies them.
        let in_stash = self.stash_primary(addr).is_some();
        let fetched_from = (!in_stash)
            .then(|| self.held_slot(addr, old_leaf))
            .flatten();
        // The frame lists the slots this access reads: one per bucket.
        let mut frame = std::mem::take(&mut self.shell.scratch.frame);
        frame.cells.clear();
        for bidx in self.path(old_leaf) {
            let slot = match fetched_from {
                Some((at, slot)) if at == bidx => Some(slot),
                _ => (self.buckets.bucket(bidx)).and_then(|b| pick_valid_dummy(b, &mut self.rng)),
            };
            // Brand-new (all-dummy, all-valid) bucket: read slot 0.
            let slot = slot.unwrap_or_default();
            let mut b = self.buckets.bucket_mut(bidx);
            if b.is_valid(slot) {
                b.consume(slot);
            }
            frame.cells.push(FrameCell {
                bucket: bidx,
                slot,
                nvm_addr: self.slot_nvm_addr(bidx, slot),
            });
        }
        let done = self
            .shell
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Read, to_mem(t));
        t = to_core(done) + 1;
        // Third: the endurance adversary on the hottest read line. Then
        // the wire draw lands on what was actually read, and fourth:
        // hardened verification of every read slot — including whatever
        // the wire served — against the on-chip counters.
        t = (self.shell.device).wear_read_fault(&mut self.shell.ctl, frame.nvm_addrs(0), t)?;
        let mut serve_stale = self.shell.device.serve_stale(replay_pick, &frame.cells);
        t = self.shell.device.verify_fetched(
            &mut self.shell.ctl,
            &self.buckets,
            &frame.cells,
            &mut serve_stale,
            t,
        )?;
        self.shell.scratch.frame = frame;
        // One combined metadata write per access (valid bits + counts).
        let meta =
            self.shell
                .nvm
                .access_sized(self.slot_nvm_addr(0, 0), AccessKind::Write, to_mem(t), 8);
        let _ = meta; // metadata write retires in the background
        self.shell.phase(Phase::LoadPath, t_before_path, t);
        crash_at(self, CrashPoint::AfterLoadPath)?;

        // Step ④: stash update.
        self.shell.seq_counter += 1;
        let seq = self.shell.seq_counter;
        if let Some(idx) = self.stash_primary(addr) {
            self.stash[idx].header.leaf = new_leaf;
            self.stash[idx].header.seq = seq;
        } else {
            // An undetected stale serve (Baseline) replaces the fetched
            // bytes: the controller consumes what the wire delivered.
            let fetched = fetched_from.and_then(|at| match &serve_stale {
                Some((stale_at, content, _)) if *stale_at == at => (content.as_ref())
                    .map(Block::view)
                    .filter(|b| b.addr() == addr && !b.is_backup),
                _ => self.buckets.slot(at.0, at.1),
            });
            let mut block = match fetched {
                Some(view) => self.shell.scratch.block_from(view),
                None => {
                    (self.shell.scratch).zeroed_block(addr, new_leaf, self.config.payload_bytes)
                }
            };
            block.header.leaf = new_leaf;
            block.header.seq = seq;
            block.is_backup = false;
            self.stash.push(block);
        }
        let idx = self.stash_primary(addr).ok_or(OramError::Invariant {
            context: "stash primary present after update",
        })?;
        let primary = &mut self.stash[idx];
        if let Some(d) = data {
            primary.payload.clear();
            primary.payload.extend_from_slice(d);
        }
        self.shell.ledger.note_written(addr.0, &primary.payload);
        let read = data.is_none().then(|| primary.payload.clone());
        if self.stash.len() > self.config.stash_capacity {
            return Err(OramError::StashOverflow {
                capacity: self.config.stash_capacity,
            });
        }
        self.stats.stash_max = self.stats.stash_max.max(self.stash.len());
        let value_ready = t + 2;
        self.shell.end_access(access_index, t, value_ready);
        crash_at(self, CrashPoint::AfterUpdateStash)?;

        // Step ⑤: early reshuffles, then the periodic evict-path.
        let mut t_bg = value_ready;
        for bidx in self.path(old_leaf) {
            let reads = self.buckets.bucket(bidx).map_or(0, |b| b.reads());
            if reads >= self.config.dummy_slots {
                t_bg = self.reshuffle_bucket(bidx, t_bg)?;
                self.stats.early_reshuffles += 1;
            }
        }
        if self.access_counter.is_multiple_of(self.config.evict_rate) {
            t_bg = self.evict_path(t_bg)?;
        }
        let _background_done = t_bg;
        self.shell.phase(Phase::Eviction, value_ready, t_bg);
        crash_at(self, CrashPoint::AfterEviction)?;

        self.stats.total_access_cycles += value_ready - arrival;
        Ok((read, value_ready))
    }

    /// Where a read of `addr` under `leaf`, the label the controller holds
    /// for it, takes its copy: [`SlotArena::newest_on_path`]'s pick among
    /// the slots a read may take (valid, not a backup).
    fn held_slot(&self, addr: BlockAddr, leaf: Leaf) -> Option<(u64, usize)> {
        let readable =
            |b: BucketRef<'_>, s| b.is_valid(s) && b.slot(s).is_some_and(|c| !c.is_backup);
        (self.buckets).newest_where(self.path(leaf), addr, leaf, readable)
    }

    /// Sorts the blocks physically in the bucket at `level` of a rewrite
    /// into its tables: shadows stay pinned to their level, dead copies
    /// are left where they lie, and a primary either stays too (an early
    /// reshuffle) or, with `pull`, joins the stash for re-placement — one
    /// pulled off its *persisted* position is remembered: if placement
    /// cannot fit it back on the path, the rewrite would destroy the only
    /// recoverable copy.
    fn pool_bucket(&mut self, rw: &mut RewriteTables, level: usize, bidx: u64, pull: bool) {
        let Some(bucket) = self.buckets.bucket(bidx) else {
            return;
        };
        let shadows = self.variant == RingVariant::PsRing;
        for view in bucket.blocks() {
            let stashed = |a| self.stash_primary(a).is_some();
            let Some(kept) = self.shell.keep(view, shadows, stashed) else {
                continue;
            };
            let mut b = self.shell.scratch.block_from(view);
            b.is_backup = kept == Kept::Shadow;
            if b.is_backup || !pull {
                rw.push(level, b);
                continue;
            }
            if shadows && recoverable(&self.shell.posmap, &b.header) {
                rw.pulled.push((b.addr(), level));
            }
            self.stash.push(b);
        }
    }

    /// Builds the image of every level from the tables, root first, with
    /// the dirty PosMap entries of its primaries.
    fn build_images(&mut self, rw: &mut RewriteTables, path: impl Iterator<Item = u64>) {
        let physical = self.config.bucket_physical_slots();
        for (level, bidx) in path.enumerate() {
            rw.flush_dirty(level, |a| self.shell.temp.get(a));
            let mut image = (self.spare_images.pop()).unwrap_or_else(|| Bucket::new(physical));
            rw.fill_image(level, &mut image, &mut self.rng);
            rw.images.push((bidx, image));
        }
    }

    /// Rewrites one bucket in place (early reshuffle).
    fn reshuffle_bucket(&mut self, bidx: u64, t: u64) -> Result<u64, OramError> {
        // Read the real blocks still present (the permutation metadata
        // tells the controller which slots those are), rebuild, write the
        // whole bucket back.
        let reads = Self::occupied_addrs(&self.buckets, self.slot_addresser(), bidx);
        let done = self
            .shell
            .nvm
            .access_batch(reads, AccessKind::Read, to_mem(t));
        let t = to_core(done);

        let mut rw = std::mem::take(&mut self.rewrite);
        rw.begin(1, self.config.bucket_physical_slots());
        self.pool_bucket(&mut rw, 0, bidx, false);
        debug_assert!(rw.len(0) <= self.config.real_slots);
        self.build_images(&mut rw, std::iter::once(bidx));
        let done = self.commit_rewrites(&mut rw, t);
        self.rewrite = rw;
        done
    }

    /// The periodic evict-path: deterministic reverse-lexicographic leaf,
    /// all buckets on the path rebuilt and committed atomically.
    fn evict_path(&mut self, t: u64) -> Result<u64, OramError> {
        self.stats.evictions += 1;
        let leaf =
            Leaf(bit_reverse(self.evict_cursor, self.config.levels) % self.config.num_leaves());
        self.evict_cursor += 1;
        let path = self.path(leaf);
        let physical = self.config.bucket_physical_slots();

        // Fetch the real blocks present on the path (slot positions are
        // known from the per-bucket permutation metadata).
        let (buckets, addr_of) = (&self.buckets, self.slot_addresser());
        let reads = path
            .clone()
            .flat_map(|bidx| Self::occupied_addrs(buckets, addr_of, bidx));
        let done = self
            .shell
            .nvm
            .access_batch(reads, AccessKind::Read, to_mem(t));
        let t = to_core(done);

        // Pool: shadows stay pinned to their bucket; primaries join the
        // stash for (re-)placement. No address gains a second primary
        // there: a copy of one the stash holds is stale by definition.
        let mut rw = std::mem::take(&mut self.rewrite);
        rw.begin(path.len(), physical);
        for (level, bidx) in path.clone().enumerate() {
            self.pool_bucket(&mut rw, level, bidx, true);
        }

        // Greedy deepest-first placement of stash blocks into the path:
        // by common depth with the eviction leaf, stash order within one.
        let keyed = |(i, b): (u32, &Block)| (Reverse(self.common_depth(b.leaf(), leaf)), i);
        rw.order.clear();
        rw.order.extend((0u32..).zip(&self.stash).map(keyed));
        rw.order.sort_unstable();
        for k in 0..rw.order.len() {
            let (Reverse(max_d), i) = rw.order[k];
            let block = std::mem::replace(&mut self.stash[i as usize], crate::stash::hole());
            match rw.deepest_with_room(max_d as usize, self.config.real_slots) {
                Some(d) => rw.push(d, block),
                None => rw.leftovers.push(block),
            }
        }
        // Live-shadow preservation for unplaceable blocks: a leftover whose
        // on-NVM copy sat at its persisted PosMap leaf on this path is about
        // to have that copy rewritten away while the block itself retreats to
        // the volatile stash — a crash before its next placement would lose
        // it. Pin a backup copy on the persisted path (the source bucket or
        // any ancestor with a free physical slot) inside this atomic round.
        // It is one `pool_bucket` pulled (PS-Ring only), so recoverable.
        for i in 0..rw.leftovers.len() {
            let b = &rw.leftovers[i];
            let pulled = rw.pulled.iter().find(|&&(a, _)| a == b.addr());
            let Some(d) = pulled.and_then(|&(_, src)| rw.deepest_with_room(src, physical)) else {
                continue;
            };
            let mut shadow = self.shell.scratch.block_from(b.view());
            shadow.is_backup = true;
            rw.push(d, shadow);
        }
        // The leftovers are the stash now; the vector of holes is kept for
        // the next eviction's.
        self.stash.clear();
        std::mem::swap(&mut self.stash, &mut rw.leftovers);
        self.stats.stash_max = self.stats.stash_max.max(self.stash.len());

        self.build_images(&mut rw, path);
        let done = self.commit_rewrites(&mut rw, t);
        self.rewrite = rw;
        done
    }

    /// Commits a set of bucket rewrites (and their posmap flushes) as one
    /// atomic round — through the WPQ for PS-Ring, directly for Baseline —
    /// then issues the NVM writes.
    fn commit_rewrites(&mut self, rw: &mut RewriteTables, t: u64) -> Result<u64, OramError> {
        let physical = self.config.bucket_physical_slots();
        // Crash during the rewrite assembly?
        if self.shell.ctl.armed_eviction_crash() == Some(self.rewrites_this_access) {
            self.shell.ctl.disarm_crash();
            if self.variant == RingVariant::PsRing {
                // Round assembled but the end signal never arrives, so the
                // crash discards it.
                let entries = (rw.images.drain(..))
                    .map(|(bidx, bucket)| WpqEntry {
                        addr: self.slot_nvm_addr(bidx, 0),
                        value: (bidx, bucket),
                    })
                    .collect();
                self.wpq.stage_abandoned_round(entries);
            } else {
                // Direct writes: half the buckets land, half do not — torn
                // off mid-rewrite, they are no round's units and commit
                // nothing.
                let landed = rw.images.len() / 2;
                for (bidx, image) in rw.images.drain(..).take(landed) {
                    for (s, content) in image_slots(&image) {
                        self.buckets.write(bidx, s, content);
                    }
                    self.settle(bidx, image);
                }
            }
            power_fail(self);
            return Err(OramError::Crashed);
        }
        self.rewrites_this_access += 1;
        self.shell.ctl.tap.set_now(t);

        // The frame now lists what this round writes: every physical slot
        // of the rewritten buckets, which come in ascending order.
        debug_assert!(rw.images.windows(2).all(|w| w[0].0 < w[1].0));
        let mut frame = std::mem::take(&mut self.shell.scratch.frame);
        frame.cells.clear();
        for (bidx, _) in &rw.images {
            for slot in 0..physical {
                frame.cells.push(FrameCell {
                    bucket: *bidx,
                    slot,
                    nvm_addr: self.slot_nvm_addr(*bidx, slot),
                });
            }
        }

        match self.variant {
            RingVariant::Baseline => {
                // A direct write-back is a round of its own: its first
                // bucket starts the list the later ones join.
                let mut listing = Listing::Start;
                for (bidx, image) in rw.images.drain(..) {
                    self.apply_rewrite(bidx, image, listing);
                    listing = Listing::Join;
                }
            }
            RingVariant::PsRing => {
                // The temporary PosMap feeds this round's flushes: it is
                // authenticated before anything it names is persisted.
                self.shell
                    .device
                    .check_temp(&mut self.shell.ctl, &self.shell.temp)?;
                self.wpq.begin_round(&self.shell.ctl)?;
                for (bidx, bucket) in rw.images.drain(..) {
                    // Out of room mid-round: stall — commit and apply what is
                    // already pushed (still atomic), then reopen and retry.
                    if self.wpq.data_is_full() {
                        stall(self)?;
                    }
                    self.wpq.push_data(WpqEntry {
                        addr: self.slot_nvm_addr(bidx, 0),
                        value: (bidx, bucket),
                    })?;
                }
                for &(a, l) in &rw.flushes {
                    if self.wpq.posmap_is_full() {
                        stall(self)?;
                    }
                    self.wpq.push_posmap(WpqEntry {
                        addr: a.0 * 8,
                        value: (a, l),
                    })?;
                }
                commit_and_apply(self)?;
            }
        }

        let done = self
            .shell
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Write, to_mem(t));
        self.shell.scratch.frame = frame;
        Ok(to_core(done))
    }

    /// Applies one bucket rewrite of a round to the ledger and, every
    /// physical slot of the image a unit, to the media; the image,
    /// emptied, is kept for the next rewrites.
    fn apply_rewrite(&mut self, bidx: u64, image: Bucket, listing: Listing) {
        // Ledger: a copy the rewrite lands held (a primary) or recoverable
        // is committed — on PS-Ring, a held primary is the newest copy of
        // its address once its dirty entry lands (DESIGN.md §9).
        for b in image.blocks() {
            let held = !b.is_backup && self.shell.held(&b.header);
            if held || recoverable(&self.shell.posmap, &b.header) {
                (self.shell.ledger).commit_if_fresh(b.addr().0, b.header.seq, &b.payload);
            }
        }
        let rewrite = std::iter::once((bidx, image_slots(&image)));
        self.shell
            .device
            .program(&mut self.buckets, rewrite, listing);
        self.settle(bidx, image);
    }

    /// A bucket whose image is on media is valid in every slot again, no
    /// reads counted; the image is emptied — its blocks' buffers and itself
    /// are kept for the next rewrites.
    fn settle(&mut self, bidx: u64, mut image: Bucket) {
        for block in image.slots_mut().iter_mut().filter_map(Option::take) {
            self.shell.scratch.recycle(block);
        }
        self.buckets.bucket_mut(bidx).revalidate();
        self.spare_images.push(image);
    }

    // ── recovery ────────────────────────────────────────────────────────

    /// Ring's own share of recovery, the paper's Case-2 procedure (the
    /// bytes never left the bucket): promotes the newest recoverable copy
    /// of each address — the one `locate` finds — back to primary status,
    /// compacts superseded recoverable duplicates and revalidates every
    /// consumed slot. Controller-initiated slot mutations are legitimate
    /// writes, so on a hardened design their records are refreshed.
    /// Returns whether a duplicate was dropped (a stored copy moved).
    fn restore_consumed(
        buckets: &mut SlotArena,
        posmap: &PosMap,
        copies: &RingCopies,
        mut auth: Option<&mut AuthTags>,
    ) -> bool {
        // Every copy recovery counts (`Copies::recoverable_at`), listed
        // once in a list sized by a counting pass and sorted newest first
        // per address: the first of each address is the copy recovery
        // designates as live. Buckets are scanned in index order (the
        // store's iteration order): the replay adversary can restore
        // byte-exact stale duplicates whose seq numbers tie, and the winner
        // of a tie — the first copy in that order — must be the same on
        // every run.
        let counted =
            |bidx| move |&(_, h): &(usize, &BlockHeader)| copies.recoverable_at(posmap, bidx, h);
        let count = (buckets.iter())
            .map(|(bidx, bucket)| bucket.headers().filter(counted(bidx)).count())
            .sum();
        let mut found = Vec::with_capacity(count);
        for (bidx, bucket) in buckets.iter() {
            for (s, h) in bucket.headers().filter(counted(bidx)) {
                found.push((h.addr.0, Reverse(h.seq), bidx, s));
            }
        }
        found.sort_unstable();
        // Each winner is promoted, each superseded duplicate dropped; a
        // slot's record is refreshed once, and the counter tree folds its
        // records order-free.
        let mut dropped = false;
        for (i, &(addr, _, bidx, s)) in found.iter().enumerate() {
            let mut bucket = buckets.bucket_mut(bidx);
            let content = if i > 0 && found[i - 1].0 == addr {
                bucket.set(s, None);
                dropped = true;
                None
            } else if bucket.slot(s).is_some_and(|b| b.is_backup) {
                bucket.set_backup(s, false);
                bucket.slot(s)
            } else {
                continue;
            };
            if let Some(auth) = auth.as_mut() {
                auth.record_slot(bidx, s, content);
            }
        }
        let mut materialised = Vec::with_capacity(buckets.materialized_buckets());
        materialised.extend(buckets.indices());
        for bidx in materialised {
            buckets.bucket_mut(bidx).revalidate();
        }
        dropped
    }

    fn copies(&self) -> RingCopies {
        RingCopies {
            levels: self.config.levels,
        }
    }

    /// Verifies that every committed value has a physical copy at its
    /// persisted PosMap position.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn check_recoverability(&self) -> Result<(), String> {
        check_committed(
            &self.buckets,
            &self.shell.posmap,
            &self.shell.ledger,
            &self.copies(),
        )
    }
}

/// Every physical slot of `image` with what it holds.
fn image_slots(image: &Bucket) -> impl Iterator<Item = (usize, Option<BlockRef<'_>>)> + Clone {
    (0..image.num_slots()).map(move |s| (s, image.slot(s).map(Block::view)))
}

impl Rounds for RingOram {
    type Data = (u64, Bucket);

    fn media(&mut self) -> Media<'_, (u64, Bucket)> {
        (&mut self.shell, &mut self.wpq, &mut self.buckets)
    }

    /// Its bucket rewrites, then its PosMap entries.
    fn apply_round(&mut self, (data, posmap): &mut DrainedRound<(u64, Bucket), PosMapFlush>) {
        for (bidx, image) in data.drain(..).map(|e| e.value) {
            self.apply_rewrite(bidx, image, Listing::Join);
        }
        let entries = posmap.drain(..).map(|e| e.value);
        self.stats.dirty_entries_flushed += self.shell.flush(entries, Listing::Join);
    }

    fn wipe(&mut self) {
        self.stash.clear();
        self.shell.temp.wipe();
    }
}

impl ProtocolPolicy for RingOram {
    fn label(&self) -> String {
        format!("ring/{}", self.variant)
    }
    fn capacity_blocks(&self) -> u64 {
        self.config.capacity_blocks()
    }
    fn payload_bytes(&self) -> usize {
        self.config.payload_bytes
    }
    fn crash_consistent(&self) -> bool {
        self.variant.is_crash_consistent()
    }
    fn commit_model(&self) -> CommitModel {
        // Ring ORAM only writes buckets back every `A` accesses: a
        // completed write may sit volatile until the next evict-path.
        CommitModel::Deferred
    }
    fn shell(&self) -> &Shell {
        &self.shell
    }
    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn access(&mut self, addr: u64, data: Option<&[u8]>, arrival: u64) -> Access {
        RingOram::access(self, BlockAddr(addr), data, arrival)
    }

    /// A stash primary; else the slot step ③ would read the target from
    /// (`held_slot` on the current label); else zeros.
    fn peek(&self, addr: u64, out: &mut Vec<u8>) {
        let addr = BlockAddr(addr);
        out.clear();
        if let Some(i) = self.stash_primary(addr) {
            out.extend_from_slice(&self.stash[i].payload);
            return;
        }
        let hit = self.held_slot(addr, self.shell.lookup(addr));
        match hit.and_then(|(bidx, s)| self.buckets.slot(bidx, s)) {
            Some(copy) => out.extend_from_slice(copy.payload),
            None => out.resize(self.config.payload_bytes, 0),
        }
    }

    fn crash_now(&mut self) {
        power_fail(self);
    }

    /// What is Ring's own is where a committed copy may sit, the Case-2
    /// compaction between phases 2 and 3 (consumed slots revalidated — the
    /// bytes never left the bucket — the newest PosMap-consistent copy of
    /// each address promoted back to primary, superseded duplicates
    /// dropped) and the promotion of a surviving shadow (`RingCopies`).
    fn recover(&mut self) -> RecoveryReport {
        let copies = self.copies();
        (self.shell).recover(&mut self.buckets, &copies, Self::restore_consumed)
    }

    /// The digest covers the materialized buckets (content, valid bits,
    /// counts), the persisted PosMap and the committed ledger.
    fn state_digest(&self) -> u128 {
        self.shell.state_digest(&self.buckets, true)
    }
    fn stash_max_occupancy(&self) -> usize {
        self.stats.stash_max
    }

    /// PS-Ring is the hardened variant; records cover every physical slot.
    fn enable_device_faults(&mut self, seed: u64, cfg: FaultConfig) {
        arm(self, seed, cfg, self.variant.uses_wpq());
    }

    /// The tree alone: the PosMap entries never reach the bus.
    fn nvm_layout(&self) -> NvmLayout {
        let bucket_bytes = self.config.bucket_physical_slots() * self.config.block_bytes;
        NvmLayout::tree_only(self.config.num_buckets(), bucket_bytes as u64)
    }

    fn wpq_stats(&self) -> (psoram_nvm::WpqStats, psoram_nvm::WpqStats) {
        self.wpq.wpq_stats()
    }

    fn set_obsv_tap(&mut self, tap: psoram_obsv::Tap) {
        set_tap(self, tap);
    }

    fn publish_metrics(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        let wpq = self.wpq.wpq_stats();
        (self.shell).publish_metrics(prefix, reg, &self.stats(), wpq);
    }
}

/// Reverses the low `bits` bits of `x` (Ring ORAM's deterministic
/// reverse-lexicographic eviction order).
fn bit_reverse(x: u64, bits: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..bits {
        out |= ((x >> i) & 1) << (bits - 1 - i);
    }
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::RngCore;

    use super::*;

    fn rng_pair(seed: u64) -> (StdRng, StdRng) {
        (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed))
    }

    proptest! {
        /// The dummy slot a read takes, picked by one draw over a count, is
        /// the one `choose` takes off the collected list of valid dummies,
        /// and the generator is left where `choose` leaves it.
        #[test]
        fn the_dummy_pick_matches_choosing_from_the_collected_list(
            geometry in 0usize..3,
            pattern in prop::collection::vec((any::<bool>(), any::<bool>()), 9),
            seed in any::<u64>(),
        ) {
            let physical = [3, 6, 9][geometry];
            let block = Block::new(BlockAddr(1), Leaf(2), vec![3; 8]);
            let mut arena = SlotArena::new(physical, 8);
            let mut bucket = arena.bucket_mut(5);
            for (s, &(real, consumed)) in pattern[..physical].iter().enumerate() {
                bucket.set(s, real.then(|| block.view()));
                if consumed {
                    bucket.consume(s);
                }
            }
            let b = arena.bucket(5).expect("just written");
            let listed: Vec<usize> = (0..physical)
                .filter(|&s| b.is_valid(s) && !b.is_real(s))
                .collect();
            let (mut listing, mut counting) = rng_pair(seed);
            prop_assert_eq!(
                pick_valid_dummy(b, &mut counting),
                listed.choose(&mut listing).copied()
            );
            prop_assert_eq!(counting.next_u64(), listing.next_u64());
        }

        /// An image filled through a permutation of slot indices is, slot
        /// for slot, the image whose slots were shuffled themselves, and
        /// the generator is left where that shuffle leaves it.
        #[test]
        fn the_index_permutation_matches_shuffling_the_slots(
            geometry in 0usize..3,
            count in 0usize..10,
            seed in any::<u64>(),
        ) {
            let physical = [3, 6, 9][geometry];
            let blocks: Vec<Block> = (0..count.min(physical) as u64)
                .map(|i| {
                    let mut b = Block::new(BlockAddr(i), Leaf(i * 7), vec![i as u8; 8]);
                    b.header.seq = 100 + i;
                    b.is_backup = i % 3 == 1;
                    b
                })
                .collect();
            let (mut shuffling, mut indexing) = rng_pair(seed);
            let reference = Bucket::permuted(blocks.clone(), physical, &mut shuffling);
            let mut cells: Vec<Option<Block>> = blocks.into_iter().map(Some).collect();
            let mut image = Bucket::new(physical);
            image.fill_permuted(&mut cells, &mut Vec::new(), &mut indexing);
            prop_assert_eq!(image, reference);
            prop_assert!(cells.iter().all(Option::is_none), "every block moved");
            prop_assert_eq!(indexing.next_u64(), shuffling.next_u64());
        }
    }

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 6), 0);
    }

    #[test]
    fn a_round_committed_but_not_drained_survives_the_power_failure() {
        let mut oram = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 33);
        oram.enable_device_faults(33, FaultConfig::disabled());
        for a in 0..40u64 {
            oram.write(BlockAddr(a), vec![a as u8; 8]).unwrap();
        }
        // A never-written address joins the image of its new leaf's
        // bucket, in a dummy slot: the end signal arrives, the drain does
        // not.
        let (addr, leaf, value) = (BlockAddr(50), Leaf(5), vec![0xC7; 8]);
        let bidx = oram.path(leaf).last().expect("a leaf bucket");
        let mut image = Bucket::new(oram.config.bucket_physical_slots());
        if let Some(on_media) = oram.buckets.bucket(bidx) {
            for (s, stored) in on_media.slots().enumerate() {
                image.set_slot(s, stored.map(|b| b.to_block()));
            }
        }
        oram.shell.seq_counter += 1;
        let mut block = Block::new(addr, leaf, value.clone());
        block.header.seq = oram.shell.seq_counter;
        image
            .insert(block)
            .expect("a dummy slot in the leaf bucket");
        // Its dirty entry sits in the temporary PosMap until a flush
        // retires it.
        oram.shell.temp.insert(addr, leaf).unwrap();
        oram.shell.device.seal_temp(&oram.shell.temp);
        oram.wpq.begin_round(&oram.shell.ctl).unwrap();
        let rewrite = WpqEntry {
            addr: oram.slot_nvm_addr(bidx, 0),
            value: (bidx, image),
        };
        oram.wpq.push_data(rewrite).unwrap();
        let entry = WpqEntry {
            addr: addr.0 * 8,
            value: (addr, leaf),
        };
        oram.wpq.push_posmap(entry).unwrap();
        oram.wpq.commit_round(&oram.shell.ctl).unwrap();

        oram.crash_now();
        crate::testkit::the_committed_round_survived(&mut oram, addr.0, &value);
    }

    /// Ring-Baseline persists no label, so a power failure loses what its
    /// evictions landed under the labels it held: its ledger committed
    /// those, and its recovery names one it cannot find. PS-Ring, on the
    /// same operations, finds every one it committed.
    #[test]
    fn ring_baselines_crash_loss_is_judged_where_ps_ring_recovers() {
        let recovered = |variant| {
            let mut oram = RingOram::new(RingConfig::small_test(), variant, 7);
            for a in 0..40u64 {
                oram.write(BlockAddr(a), vec![a as u8 + 1; 8]).unwrap();
            }
            oram.crash_now();
            oram.recover()
        };
        let lost = recovered(RingVariant::Baseline);
        assert!(!lost.consistent && lost.addresses_checked > 0, "{lost:?}");
        let named = lost.violation.as_deref().unwrap_or_default();
        let addr = named.strip_prefix('a').and_then(|r| r.split_once(':'));
        assert!(
            addr.is_some_and(|(a, _)| a.parse::<u64>().is_ok_and(|a| a < 40)),
            "{named}"
        );
        let kept = recovered(RingVariant::PsRing);
        assert!(kept.consistent && kept.addresses_checked > 0, "{kept:?}");
    }

    #[test]
    fn snapshot_store_exists_only_under_plans_that_replay() {
        use crate::testkit::{snapshot_store_exists_only_under_plans_that_replay as held, Design};
        held(|d| matches!(d, Design::Ring(_)));
    }
}

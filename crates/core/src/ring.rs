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

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use psoram_crypto::Hash128;
use psoram_nvm::{
    AccessKind, FaultClass, FaultConfig, FaultStats, NvmConfig, NvmController, ReadFault, WpqEntry,
};
use psoram_obsv::{Event, Phase, Tap};

use crate::arena::{BucketRef, SlotArena};
use crate::auth::{AuthTags, FreshnessStats, FreshnessVerdict, UnitHistory};
use crate::block::{Block, BlockRef};
use crate::bucket::Bucket;
use crate::crash::{CrashPoint, RecoveryError, RecoveryReport};
use crate::engine::{
    to_core, to_mem, AccessScratch, CommitLedger, FrameCell, PersistEngine, RoundDamage,
    WearReadOutcome,
};
use crate::posmap::{PosMap, TempPosMap};
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
        assert!(self.levels >= 1 && self.levels < 40, "levels out of range");
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

/// One drained WPQ round: whole-bucket rewrites and PosMap entries.
type DrainedRound = (
    Vec<WpqEntry<(u64, Bucket)>>,
    Vec<WpqEntry<(BlockAddr, Leaf)>>,
);

/// The slot of `bucket` a read for `addr` takes it from: valid, real, a
/// primary copy.
fn find_valid(bucket: BucketRef<'_>, addr: BlockAddr) -> Option<usize> {
    bucket
        .headers()
        .filter(|&(s, h)| h.addr == addr && bucket.is_valid(s))
        .find_map(|(s, _)| bucket.slot(s).is_some_and(|b| !b.is_backup).then_some(s))
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
    nvm: NvmController,
    /// The same slot arena the Path tree sits on, with `Z + S` physical
    /// slots a bucket; the per-slot *consumed* flag is Ring's `valid`
    /// bit and, counted, its per-bucket read count.
    buckets: SlotArena,
    stash: Vec<Block>,
    posmap: PosMap,
    temp: TempPosMap,
    /// The shared persist-round engine: WPQ rounds, crash arming &
    /// scheduling, and the crash/recovery state machine.
    engine: PersistEngine<(u64, Bucket), (BlockAddr, Leaf)>,
    rng: StdRng,
    clock: u64,
    access_counter: u64,
    /// Reverse-lexicographic eviction cursor.
    evict_cursor: u64,
    stats: RingStats,
    /// Written-vs-committed value ledgers (the recoverability oracle).
    ledger: CommitLedger,
    seq_counter: u64,
    /// Bucket rewrites begun in the current access ([`CrashPoint::
    /// DuringEviction`] indexes into this cursor).
    rewrites_this_access: usize,
    touched: Vec<u64>,
    /// On-chip CMAC tag store ([`RingOram::enable_device_faults`], PS-Ring
    /// only).
    auth: Option<AuthTags>,
    /// The freshness adversary's snapshot store: the previous version of
    /// every persist unit, recorded on overwrite. Present on *every*
    /// variant (adversary state, not defense state) whose installed fault
    /// plan can replay.
    history: Option<UnitHistory>,
    /// Fetch-path freshness counters: stale serves injected on the read
    /// wire and how many the hardened verifier caught.
    freshness: FreshnessStats,
    /// `(bucket, slot)` units of the last applied persist round — the
    /// units device-fault damage lands on at a crash.
    last_round_slots: Vec<(u64, usize)>,
    /// Persisted-PosMap addresses of the last applied round.
    last_round_posmap: Vec<BlockAddr>,
    /// Reused per-access state: the frame holds the one slot per bucket an
    /// access reads.
    scratch: AccessScratch,
    /// The buffers WPQ rounds drain into, kept for their capacity.
    drained: DrainedRound,
    /// Observability tap (detached by default; see [`RingOram::set_obsv_tap`]).
    obsv: Tap,
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
        RingOram {
            posmap: PosMap::new(config.num_leaves(), seed ^ 0x52_49_4E_47),
            temp: TempPosMap::new(config.temp_posmap_capacity),
            engine: PersistEngine::new(config.wpq_capacity, config.wpq_capacity),
            rng: StdRng::seed_from_u64(seed),
            nvm: NvmController::new(nvm),
            buckets: SlotArena::new(config.bucket_physical_slots(), config.payload_bytes),
            stash: Vec::new(),
            clock: 0,
            access_counter: 0,
            evict_cursor: 0,
            stats: RingStats::default(),
            ledger: CommitLedger::new(),
            seq_counter: 0,
            rewrites_this_access: 0,
            touched: Vec::new(),
            auth: None,
            history: None,
            freshness: FreshnessStats::default(),
            last_round_slots: Vec::new(),
            last_round_posmap: Vec::new(),
            scratch: AccessScratch::default(),
            drained: DrainedRound::default(),
            obsv: Tap::detached(),
            config,
            variant,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &RingConfig {
        &self.config
    }

    /// The persistence variant.
    pub fn variant(&self) -> RingVariant {
        self.variant
    }

    /// Controller statistics. The crash/recovery/stall counters live in
    /// the shared persist engine and are merged into the snapshot here.
    pub fn stats(&self) -> RingStats {
        let mut s = self.stats;
        let e = self.engine.stats();
        s.crashes = e.crashes;
        s.recoveries = e.recoveries;
        s.recovery_failures = e.recovery_failures;
        s.wpq_stalls = e.wpq_stalls;
        s
    }

    /// Accumulated statistics of the engine's (data, PosMap) WPQs.
    pub fn wpq_stats(&self) -> (psoram_nvm::WpqStats, psoram_nvm::WpqStats) {
        self.engine.wpq_stats()
    }

    /// The controller's core-cycle clock (advanced by `read`/`write`).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Installs an observability tap and cascades it into the persist
    /// engine (WPQ rounds) and the NVM controller (bank timing).
    pub fn set_obsv_tap(&mut self, tap: Tap) {
        self.engine.set_tap(tap.clone());
        self.nvm.set_tap(tap.clone());
        self.obsv = tap;
    }

    /// Convenience: attaches `recorder` behind a fresh shared tap.
    pub fn attach_obsv_recorder(&mut self, recorder: std::sync::Arc<dyn psoram_obsv::Recorder>) {
        self.set_obsv_tap(Tap::attached(recorder));
    }

    /// NVM traffic statistics.
    pub fn nvm_stats(&self) -> psoram_nvm::NvmStats {
        *self.nvm.stats()
    }

    /// The underlying NVM controller (timing state, wear map, ...).
    pub fn nvm(&self) -> &psoram_nvm::NvmController {
        &self.nvm
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Installs a seeded device-level fault plan on the NVM backend.
    ///
    /// Mirrors [`crate::PathOram::enable_device_faults`]: the hardened
    /// (WPQ) PS-Ring variant additionally arms the integrity layer — CMAC
    /// tags over every physical bucket slot and persisted PosMap entry,
    /// sealed WPQ batch frames, and a rolling seal over the temporary
    /// PosMap. The Baseline variant gets the same faults with no
    /// defenses, preserving the differential campaigns' detection power.
    pub fn enable_device_faults(&mut self, seed: u64, cfg: FaultConfig) {
        self.engine.install_fault_plan(seed, cfg);
        // The replay adversary's snapshot store goes on every variant —
        // the Baseline is replayed too, it just cannot tell — but only
        // under a plan that can ever re-serve what it snapshots.
        self.history = cfg.replays_stale_units().then(UnitHistory::default);
        if self.variant != RingVariant::PsRing {
            return;
        }
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&seed.to_le_bytes());
        key[8..].copy_from_slice(&seed.rotate_left(17).to_le_bytes());
        key[0] ^= 0xA7;
        let mut auth = AuthTags::new(&key);
        // Retro-tag whatever already sits on media: everything written
        // before hardening is trusted as-is and covered from here on.
        // Tags deliberately cover slot *content* only — the valid bits
        // and counts are read-path metadata that mutates outside persist
        // rounds.
        for (bidx, bucket) in self.buckets.iter() {
            auth.record_slots(bucket.slots().enumerate().map(|(s, slot)| (bidx, s, slot)));
        }
        for (a, l) in self.posmap.persisted_sorted() {
            auth.record_posmap(a, l);
        }
        auth.seal_temp(&self.temp.entries_sorted());
        self.engine.seal_frames(&key);
        // Anchor the counter-tree root in the persistence domain before
        // the first adversarial round.
        self.engine.persist_root(auth.root());
        self.auth = Some(auth);
    }

    /// Ground-truth injection counters of the installed fault plan, if any.
    pub fn device_fault_stats(&self) -> Option<FaultStats> {
        self.engine.fault_stats()
    }

    /// Arms the endurance adversary over the ring's NVM line region.
    ///
    /// Mirrors [`crate::PathOram::enable_wear`]: per-line write
    /// accounting with seeded cell budgets plus the chosen wear-leveling
    /// scheme, whose mapping changes stage against the durable state and
    /// commit only in the persist engine's commit round.
    pub fn enable_wear(&mut self, seed: u64, cfg: psoram_nvm::WearConfig) {
        let bytes = self.config.num_buckets()
            * self.config.bucket_physical_slots() as u64
            * self.config.block_bytes as u64;
        let lines = bytes.div_ceil(psoram_nvm::WEAR_LINE_BYTES).max(1);
        self.engine.enable_wear(seed, lines, cfg);
    }

    /// Wear/leveling counters of the armed endurance adversary, if any.
    pub fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
        self.engine.wear_stats()
    }

    /// The endurance adversary's engine (mapping, per-line writes), if armed.
    pub fn wear_engine(&self) -> Option<&psoram_nvm::WearEngine> {
        self.engine.wear_engine()
    }

    /// Fetch-path freshness counters: stale units the adversary served on
    /// the read wire, and how many the hardened verifier detected.
    pub fn freshness_stats(&self) -> FreshnessStats {
        self.freshness
    }

    /// The latched fail-safe class, if the controller is poisoned.
    pub fn poisoned(&self) -> Option<FaultClass> {
        self.engine.poisoned()
    }

    /// A deterministic digest over the controller's recoverable state:
    /// the materialized buckets (content, valid bits, counts), the
    /// persisted PosMap, and the committed ledger. The double-recover
    /// idempotency regression tests rely on it.
    pub fn state_digest(&self) -> u128 {
        let mut bytes = Vec::new();
        for (bidx, bucket) in self.buckets.iter() {
            bytes.extend_from_slice(&bidx.to_le_bytes());
            for slot in bucket.slots() {
                match slot {
                    None => bytes.push(0),
                    Some(b) => {
                        bytes.push(1);
                        bytes.extend_from_slice(&b.header.addr.0.to_le_bytes());
                        bytes.extend_from_slice(&b.header.leaf.0.to_le_bytes());
                        bytes.extend_from_slice(&b.header.seq.to_le_bytes());
                        bytes.push(b.is_backup as u8);
                        bytes.extend_from_slice(b.payload);
                    }
                }
            }
            for s in 0..bucket.num_slots() {
                bytes.push(bucket.is_valid(s) as u8);
            }
            bytes.extend_from_slice(&(bucket.reads() as u64).to_le_bytes());
        }
        for (a, l) in self.posmap.persisted_sorted() {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(&l.to_le_bytes());
        }
        let mut committed: Vec<(u64, &Vec<u8>)> = self.ledger.committed_iter().collect();
        committed.sort_unstable_by_key(|&(a, _)| a);
        for (a, v) in committed {
            bytes.extend_from_slice(&a.to_le_bytes());
            bytes.extend_from_slice(v);
        }
        // Wear mode folds the durable line mapping in; with wear off the
        // digest is byte-for-byte what pre-endurance builds computed.
        if let Some(d) = self.engine.wear_digest() {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        u128::from_le_bytes(Hash128::new().digest(&bytes))
    }

    crate::engine::impl_crash_controls!();

    // ── geometry helpers ────────────────────────────────────────────────

    /// Bucket indices from the root to `leaf`, ascending.
    fn path(&self, leaf: Leaf) -> impl ExactSizeIterator<Item = u64> + Clone {
        let levels = self.config.levels;
        (0..levels + 1).map(move |d| (1u64 << d) - 1 + (leaf.0 >> (levels - d)))
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

    fn lookup(&self, addr: BlockAddr) -> Leaf {
        self.temp.get(addr).unwrap_or_else(|| self.posmap.get(addr))
    }

    fn stash_primary(&self, addr: BlockAddr) -> Option<usize> {
        self.stash
            .iter()
            .position(|b| !b.is_backup && b.addr() == addr)
    }

    // ── public access API ───────────────────────────────────────────────

    /// Reads block `addr` at the controller's own clock.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from the access.
    pub fn read(&mut self, addr: BlockAddr) -> Result<Vec<u8>, OramError> {
        let arrival = self.clock;
        let (value, done) = self.access_at(addr, None, arrival)?;
        self.clock = done;
        Ok(value)
    }

    /// Writes `data` to block `addr`.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from the access.
    pub fn write(&mut self, addr: BlockAddr, data: Vec<u8>) -> Result<(), OramError> {
        self.write_from(addr, &data)
    }

    /// [`RingOram::write`] from borrowed bytes: the access copies them
    /// once, into the stash.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from the access.
    pub fn write_from(&mut self, addr: BlockAddr, data: &[u8]) -> Result<(), OramError> {
        let arrival = self.clock;
        let (_, done) = self.access(addr, Some(data), arrival)?;
        self.clock = done;
        Ok(())
    }

    /// Performs one access; returns the value and the completion cycle.
    ///
    /// # Errors
    ///
    /// * [`OramError::Crashed`] — an injected crash fired.
    /// * [`OramError::AddressOutOfRange`] / [`OramError::PayloadSize`] on
    ///   invalid requests.
    pub fn access_at(
        &mut self,
        addr: BlockAddr,
        data: Option<Vec<u8>>,
        arrival: u64,
    ) -> Result<(Vec<u8>, u64), OramError> {
        let (read, done) = self.access(addr, data.as_deref(), arrival)?;
        // A write's value is the buffer it came in.
        let value = data.or(read).ok_or(OramError::Invariant {
            context: "an access without data returns the value it read",
        })?;
        Ok((value, done))
    }

    /// The access itself, over borrowed write data; the value comes back
    /// only when no data was given (the one copy a read makes).
    fn access(
        &mut self,
        addr: BlockAddr,
        data: Option<&[u8]>,
        arrival: u64,
    ) -> Result<(Option<Vec<u8>>, u64), OramError> {
        self.engine.begin_attempt()?;
        if addr.0 >= self.config.capacity_blocks() {
            return Err(OramError::AddressOutOfRange {
                addr,
                capacity: self.config.capacity_blocks(),
            });
        }
        if let Some(d) = data {
            if d.len() != self.config.payload_bytes {
                return Err(OramError::PayloadSize {
                    expected: self.config.payload_bytes,
                    got: d.len(),
                });
            }
        }
        self.stats.accesses += 1;
        self.access_counter += 1;
        self.rewrites_this_access = 0;
        self.touched.push(addr.0);
        let access_index = self.stats.accesses - 1;
        self.obsv.set_now(arrival);
        self.obsv.emit(|| Event::AccessStart {
            index: access_index,
            cycle: arrival,
        });

        let mut t = arrival + 1; // stash lookup

        // Step ②: PosMap + remap.
        let old_leaf = self.lookup(addr);
        let new_leaf = Leaf(self.rng.gen_range(0..self.config.num_leaves()));
        match self.variant {
            RingVariant::Baseline => self.posmap.set(addr, new_leaf),
            RingVariant::PsRing => self.temp.insert(addr, new_leaf)?,
        }
        if let Some(auth) = &mut self.auth {
            auth.seal_temp(&self.temp.entries_sorted());
        }
        t += 2;
        self.obsv.set_now(t);
        self.obsv.emit(|| Event::Phase {
            phase: Phase::PosMap,
            start: arrival,
            end: t,
        });
        self.maybe_crash(CrashPoint::AfterAccessPosMap)?;

        // Step ③: read exactly one slot per bucket along the path.
        // Transient media read errors (device-fault mode): bounded retry
        // with exponential backoff re-issues the path read; a stuck line
        // exhausts the retries and latches the fail-safe poisoned state.
        match self.engine.read_fault() {
            ReadFault::None => {}
            ReadFault::Transient { attempts } => {
                for k in 0..attempts {
                    t += 400 << k;
                }
                self.obsv.set_now(t);
                self.obsv.emit(|| Event::FaultDetected {
                    kind: psoram_obsv::DeviceFaultKind::TransientRead,
                    units: u64::from(attempts),
                    cycle: t,
                });
            }
            ReadFault::Stuck => {
                self.engine.poison(FaultClass::TransientRead);
                return Err(OramError::Poisoned {
                    class: FaultClass::TransientRead,
                });
            }
        }
        let t_before_path = t;
        // Freshness adversary on the read wire (device-fault mode): the
        // device may serve one of this access's read slots from an
        // authentic-but-stale snapshot. The draw always consumes plan
        // entropy (schedule invariance); it only lands when a read slot
        // actually has recorded history.
        let replay_pick = self.engine.read_replay();
        let in_stash = self.stash_primary(addr).is_some();
        // The frame lists the slots this access reads: one per bucket.
        let mut frame = std::mem::take(&mut self.scratch.frame);
        frame.cells.clear();
        let mut valid_dummies = std::mem::take(&mut self.scratch.dummies);
        let mut fetched: Option<Block> = None;
        let mut fetched_from: Option<(u64, usize)> = None;
        for bidx in self.path(old_leaf) {
            let slot = self.buckets.bucket(bidx).and_then(|b| {
                let hit = if in_stash || fetched.is_some() {
                    None
                } else {
                    find_valid(b, addr)
                };
                hit.or_else(|| {
                    valid_dummies.clear();
                    valid_dummies
                        .extend((0..b.num_slots()).filter(|&s| b.is_valid(s) && !b.is_real(s)));
                    valid_dummies.choose(&mut self.rng).copied()
                })
            });
            // Brand-new (all-dummy, all-valid) bucket: read slot 0.
            let slot = slot.unwrap_or_default();
            let mut b = self.buckets.bucket_mut(bidx);
            if b.is_valid(slot) {
                if let Some(block) = b.slot(slot) {
                    if block.addr() == addr && !block.is_backup {
                        fetched = Some(block.to_block());
                        fetched_from = Some((bidx, slot));
                    }
                }
                b.consume(slot);
            }
            frame.cells.push(FrameCell {
                bucket: bidx,
                slot,
                nvm_addr: self.slot_nvm_addr(bidx, slot),
            });
        }
        self.scratch.dummies = valid_dummies;
        let done = self
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Read, to_mem(t));
        t = to_core(done) + 1;
        // Endurance adversary (wear mode): mirrors the Path controller —
        // drift failures on the hottest read line retry with backoff, a
        // stuck conviction retires onto a spare (repaired from the
        // redundant copy), and a dry spare pool latches fail-safe poison.
        match self.engine.wear_read_fault(frame.nvm_addrs(0)) {
            WearReadOutcome::None => {}
            WearReadOutcome::Transient { attempts } => {
                for k in 0..attempts {
                    t += 400 << k;
                }
                self.obsv.set_now(t);
                self.obsv.emit(|| Event::FaultDetected {
                    kind: psoram_obsv::DeviceFaultKind::WearOut,
                    units: u64::from(attempts),
                    cycle: t,
                });
            }
            WearReadOutcome::Retired { line, spare } => {
                t += 800;
                self.obsv.set_now(t);
                self.obsv.emit(|| Event::FaultDetected {
                    kind: psoram_obsv::DeviceFaultKind::WearOut,
                    units: 1,
                    cycle: t,
                });
                self.obsv.emit(|| Event::LineRetired {
                    line,
                    spare,
                    cycle: t,
                });
            }
            WearReadOutcome::Exhausted { .. } => {
                self.engine.poison(FaultClass::WearOut);
                return Err(OramError::Poisoned {
                    class: FaultClass::WearOut,
                });
            }
        }
        // Resolve the wire-replay draw against what was actually read.
        let mut serve_stale: Option<crate::auth::StaleServe> = None;
        if let Some(pick) = replay_pick {
            if let Some(history) = self.history.as_ref() {
                let read = frame.cells.iter().map(|c| (c.bucket, c.slot));
                serve_stale = history.stale_serve(read, pick);
            }
            if serve_stale.is_some() {
                self.engine.confirm_read_replay();
                self.freshness.stale_serves += 1;
            }
        }
        // Hardened wire verification: every read slot's (content, record)
        // pair — including whatever the wire served — must classify Clean
        // against the on-chip counters. The CMAC checks overlap the
        // existing read pipeline; only detections cost extra cycles.
        if let Some(auth) = &self.auth {
            let buckets = &self.buckets;
            let stored = frame
                .cells
                .iter()
                .map(|c| (c.bucket, c.slot, buckets.slot(c.bucket, c.slot)));
            let (convicted, wire_verdict) = auth.verdict_fetched(stored, serve_stale.as_ref());
            if let Some(class) = convicted {
                // Stored state failing freshness outside a recovery
                // pass: fail safe rather than serve it.
                self.freshness.fetch_poisons += 1;
                self.engine.poison(class);
                return Err(OramError::Poisoned { class });
            }
            if let Some(class) = wire_verdict.fault_class() {
                // Caught on the wire: one re-issue round trip, then the
                // true copy is read instead of the replayed one.
                self.freshness.stale_serves_detected += 1;
                t += 400;
                self.obsv.set_now(t);
                self.obsv.emit(|| Event::FaultDetected {
                    kind: crate::engine::fault_kind(class),
                    units: 1,
                    cycle: t,
                });
                serve_stale = None;
            }
        }
        // An undetected stale serve (Baseline) replaces the fetched bytes:
        // the controller consumes what the wire delivered.
        if let Some(((sb, ss), content, _)) = &serve_stale {
            if fetched_from == Some((*sb, *ss)) {
                fetched = content.clone().filter(|b| b.addr() == addr && !b.is_backup);
            }
        }
        self.scratch.frame = frame;
        // One combined metadata write per access (valid bits + counts).
        let meta = self
            .nvm
            .access_sized(self.slot_nvm_addr(0, 0), AccessKind::Write, to_mem(t), 8);
        let _ = meta; // metadata write retires in the background
        self.obsv.set_now(t);
        self.obsv.emit(|| Event::Phase {
            phase: Phase::LoadPath,
            start: t_before_path,
            end: t,
        });
        self.maybe_crash(CrashPoint::AfterLoadPath)?;

        // Step ④: stash update.
        self.seq_counter += 1;
        let seq = self.seq_counter;
        if let Some(idx) = self.stash_primary(addr) {
            self.stash[idx].header.leaf = new_leaf;
            self.stash[idx].header.seq = seq;
        } else {
            let mut block = fetched.unwrap_or_else(|| {
                Block::new(addr, new_leaf, vec![0u8; self.config.payload_bytes])
            });
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
        self.ledger.note_written(addr.0, &primary.payload);
        let read = data.is_none().then(|| primary.payload.clone());
        if self.stash.len() > self.config.stash_capacity {
            return Err(OramError::StashOverflow {
                capacity: self.config.stash_capacity,
            });
        }
        self.stats.stash_max = self.stats.stash_max.max(self.stash.len());
        let value_ready = t + 2;
        self.obsv.set_now(value_ready);
        self.obsv.emit(|| Event::Phase {
            phase: Phase::UpdateStash,
            start: t,
            end: value_ready,
        });
        self.obsv.emit(|| Event::AccessEnd {
            index: access_index,
            cycle: value_ready,
        });
        self.maybe_crash(CrashPoint::AfterUpdateStash)?;

        // Step ⑤: early reshuffles, then the periodic evict-path.
        let exhausted: Vec<u64> = self
            .path(old_leaf)
            .filter(|&b| {
                self.buckets
                    .bucket(b)
                    .is_some_and(|bk| bk.reads() >= self.config.dummy_slots)
            })
            .collect();
        let mut t_bg = value_ready;
        for bidx in exhausted {
            t_bg = self.reshuffle_bucket(bidx, t_bg)?;
            self.stats.early_reshuffles += 1;
        }
        if self.access_counter.is_multiple_of(self.config.evict_rate) {
            t_bg = self.evict_path(t_bg)?;
        }
        let _background_done = t_bg;
        self.obsv.set_now(t_bg);
        self.obsv.emit(|| Event::Phase {
            phase: Phase::Eviction,
            start: value_ready,
            end: t_bg,
        });
        self.maybe_crash(CrashPoint::AfterEviction)?;

        self.stats.total_access_cycles += value_ready - arrival;
        Ok((read, value_ready))
    }

    /// Classifies a physically present block during a bucket rewrite.
    /// Returns the block to retain in the new bucket image, if any.
    fn classify_for_rewrite(&self, block: Block) -> Option<Block> {
        let a = block.addr();
        let in_stash = self.stash_primary(a).is_some();
        let current = self.lookup(a);
        let stale = in_stash || block.leaf() != current || block.is_backup;
        if !stale {
            let mut b = block;
            b.is_backup = false;
            return Some(b);
        }
        if self.variant == RingVariant::PsRing && block.leaf() == self.posmap.persisted_get(a) {
            // Live shadow: the only recoverable copy of a stash-resident
            // block. Keep it (flagged) so the rewrite does not destroy it.
            let mut b = block;
            b.is_backup = true;
            return Some(b);
        }
        None
    }

    /// Owned copies of the real blocks physically in bucket `bidx` (none
    /// when it was never materialized): what a rewrite reads off media.
    fn present_blocks(&self, bidx: u64) -> Vec<Block> {
        self.buckets
            .bucket(bidx)
            .map(|b| b.blocks().map(|b| b.to_block()).collect())
            .unwrap_or_default()
    }

    /// Rewrites one bucket in place (early reshuffle).
    fn reshuffle_bucket(&mut self, bidx: u64, t: u64) -> Result<u64, OramError> {
        let physical = self.config.bucket_physical_slots();
        // Read the real blocks still present (the permutation metadata
        // tells the controller which slots those are), rebuild, write the
        // whole bucket back.
        let reads = Self::occupied_addrs(&self.buckets, self.slot_addresser(), bidx);
        let done = self.nvm.access_batch(reads, AccessKind::Read, to_mem(t));
        let t = to_core(done);

        let keep: Vec<Block> = self
            .present_blocks(bidx)
            .into_iter()
            .filter_map(|b| self.classify_for_rewrite(b))
            .collect();
        debug_assert!(keep.len() <= self.config.real_slots);
        let fresh = Bucket::permuted(keep, physical, &mut self.rng);
        self.commit_rewrites(vec![(bidx, fresh)], Vec::new(), t)
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
        let z = self.config.real_slots;

        // Fetch the real blocks present on the path (slot positions are
        // known from the per-bucket permutation metadata).
        let (buckets, addr_of) = (&self.buckets, self.slot_addresser());
        let reads = path
            .clone()
            .flat_map(|bidx| Self::occupied_addrs(buckets, addr_of, bidx));
        let done = self.nvm.access_batch(reads, AccessKind::Read, to_mem(t));
        let t = to_core(done);

        // Pool: shadows stay pinned to their bucket; primaries join the
        // stash for (re-)placement. Primaries pulled off their *persisted*
        // position are remembered: if placement cannot fit them back on the
        // path, the rewrite below would destroy the only recoverable copy.
        // `per_level[d]` collects the new content of `path[d]`.
        let mut per_level: Vec<Vec<Block>> = vec![Vec::new(); path.len()];
        let mut pulled_src: HashMap<u64, usize> = HashMap::new();
        for (pos, bidx) in path.clone().enumerate() {
            for block in self.present_blocks(bidx) {
                match self.classify_for_rewrite(block) {
                    Some(b) if b.is_backup => per_level[pos].push(b),
                    Some(b) => {
                        if self.variant == RingVariant::PsRing
                            && b.leaf() == self.posmap.persisted_get(b.addr())
                        {
                            pulled_src.insert(b.addr().0, pos);
                        }
                        self.stash.push(b);
                    }
                    None => {}
                }
            }
        }
        // Dedup: fetching may have re-added primaries already in the stash.
        self.dedup_stash();

        // Greedy deepest-first placement of stash blocks into the path.
        let mut remaining: Vec<Block> = std::mem::take(&mut self.stash);
        remaining.sort_by_key(|b| std::cmp::Reverse(self.common_depth(b.leaf(), leaf)));
        let mut leftovers = Vec::new();
        for block in remaining {
            let max_d = self.common_depth(block.leaf(), leaf) as usize;
            match (0..=max_d).rev().find(|&d| per_level[d].len() < z) {
                Some(d) => per_level[d].push(block),
                None => leftovers.push(block),
            }
        }
        // Live-shadow preservation for unplaceable blocks: a leftover whose
        // on-NVM copy sat at its persisted PosMap leaf on this path is about
        // to have that copy rewritten away while the block itself retreats to
        // the volatile stash — a crash before its next placement would lose
        // it. Pin a backup copy on the persisted path (the source bucket or
        // any ancestor with a free physical slot) inside this atomic round.
        if self.variant == RingVariant::PsRing {
            for b in &leftovers {
                let a = b.addr();
                if b.leaf() != self.posmap.persisted_get(a) {
                    continue;
                }
                let Some(&src_depth) = pulled_src.get(&a.0) else {
                    continue;
                };
                let spot = (0..=src_depth)
                    .rev()
                    .find(|&d| per_level[d].len() < physical);
                if let Some(d) = spot {
                    let mut shadow = b.clone();
                    shadow.is_backup = true;
                    per_level[d].push(shadow);
                }
            }
        }
        self.stash = leftovers;
        self.stats.stash_max = self.stats.stash_max.max(self.stash.len());

        // Build fresh buckets and the dirty posmap entries travelling with
        // this atomic round.
        let mut rewrites = Vec::with_capacity(path.len());
        let mut flushes = Vec::new();
        for (bidx, blocks) in path.zip(per_level) {
            for b in &blocks {
                if !b.is_backup {
                    if let Some(l) = self.temp.get(b.addr()) {
                        flushes.push((b.addr(), l));
                    }
                }
            }
            rewrites.push((bidx, Bucket::permuted(blocks, physical, &mut self.rng)));
        }
        self.commit_rewrites(rewrites, flushes, t)
    }

    fn dedup_stash(&mut self) {
        let mut best: HashMap<u64, (u64, usize)> = HashMap::new();
        for (i, b) in self.stash.iter().enumerate() {
            if b.is_backup {
                continue;
            }
            let e = best.entry(b.addr().0).or_insert((b.header.seq, i));
            if b.header.seq > e.0 {
                *e = (b.header.seq, i);
            }
        }
        let keep: Vec<usize> = best.values().map(|&(_, i)| i).collect();
        let mut i = 0;
        self.stash.retain(|b| {
            let k = b.is_backup || keep.contains(&i);
            i += 1;
            k
        });
    }

    /// Commits a set of bucket rewrites (and their posmap flushes) as one
    /// atomic round — through the WPQ for PS-Ring, directly for Baseline —
    /// then issues the NVM writes.
    fn commit_rewrites(
        &mut self,
        rewrites: Vec<(u64, Bucket)>,
        flushes: Vec<(BlockAddr, Leaf)>,
        t: u64,
    ) -> Result<u64, OramError> {
        let physical = self.config.bucket_physical_slots();
        // Crash during the rewrite assembly?
        if let Some(k) = self.engine.armed_eviction_crash() {
            if k == self.rewrites_this_access {
                self.engine.disarm_crash();
                if self.variant == RingVariant::PsRing {
                    // Round assembled but the end signal never arrives, so
                    // the crash discards it.
                    let entries = rewrites
                        .into_iter()
                        .map(|(bidx, bucket)| WpqEntry {
                            addr: self.slot_nvm_addr(bidx, 0),
                            value: (bidx, bucket),
                        })
                        .collect();
                    self.engine.stage_abandoned_round(entries);
                } else {
                    // Direct writes: half the buckets land, half do not.
                    let landed = rewrites.len() / 2;
                    for (bidx, bucket) in rewrites.into_iter().take(landed) {
                        self.install(bidx, bucket);
                    }
                }
                self.execute_crash();
                return Err(OramError::Crashed);
            }
        }
        self.rewrites_this_access += 1;
        self.obsv.set_now(t);

        // The frame now lists what this round writes: every physical slot
        // of the rewritten buckets, which come in ascending order.
        debug_assert!(rewrites.windows(2).all(|w| w[0].0 < w[1].0));
        let mut frame = std::mem::take(&mut self.scratch.frame);
        frame.cells.clear();
        for (bidx, _) in &rewrites {
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
                let device = self.engine.device_mode();
                if device {
                    self.last_round_slots.clear();
                }
                for (bidx, bucket) in rewrites {
                    if device {
                        for s in 0..physical {
                            self.last_round_slots.push((bidx, s));
                        }
                    }
                    self.apply_rewrite(bidx, bucket);
                }
            }
            RingVariant::PsRing => {
                // The temporary PosMap feeds this round's flushes; a seal
                // mismatch means its backing store rotted and nothing the
                // round would persist can be trusted. Fail safe.
                if let Some(auth) = &self.auth {
                    if !auth.verify_temp(&self.temp.entries_sorted()) {
                        self.engine.poison(FaultClass::MediaCorruption);
                        return Err(OramError::Poisoned {
                            class: FaultClass::MediaCorruption,
                        });
                    }
                }
                self.engine.begin_round()?;
                for (bidx, bucket) in rewrites {
                    // Out of room mid-round: stall — commit and apply what is
                    // already pushed (still atomic), then reopen and retry.
                    if self.engine.data_is_full() {
                        self.engine.note_stall();
                        self.commit_and_apply_round()?;
                        self.engine.begin_round()?;
                    }
                    self.engine.push_data(WpqEntry {
                        addr: self.slot_nvm_addr(bidx, 0),
                        value: (bidx, bucket),
                    })?;
                }
                for &(a, l) in &flushes {
                    if self.engine.posmap_is_full() {
                        self.engine.note_stall();
                        self.commit_and_apply_round()?;
                        self.engine.begin_round()?;
                    }
                    self.engine.push_posmap(WpqEntry {
                        addr: a.0 * 8,
                        value: (a, l),
                    })?;
                }
                self.commit_and_apply_round()?;
                self.refresh_ledger_for(&flushes);
            }
        }

        let done = self
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Write, to_mem(t));
        self.scratch.frame = frame;
        Ok(to_core(done))
    }

    /// Sends the drainer `end` signal and applies the drained round to the
    /// bucket store and PosMap.
    fn commit_and_apply_round(&mut self) -> Result<(), OramError> {
        self.engine.commit_round()?;
        let (mut data, mut posmap) = std::mem::take(&mut self.drained);
        self.engine.drain_into(&mut data, &mut posmap);
        let device = self.engine.device_mode() && !(data.is_empty() && posmap.is_empty());
        if device {
            // This round becomes the one whose media programming a crash
            // would interrupt.
            self.last_round_slots.clear();
            self.last_round_posmap.clear();
        }
        let physical = self.config.bucket_physical_slots();
        for e in data.drain(..) {
            let (bidx, bucket) = e.value;
            if device {
                for s in 0..physical {
                    self.last_round_slots.push((bidx, s));
                }
            }
            self.apply_rewrite(bidx, bucket);
        }
        let mut flushed = false;
        for e in posmap.drain(..) {
            let (a, l) = e.value;
            self.snapshot_posmap_entry(a);
            self.posmap.persist(a, l);
            self.temp.remove(a);
            if let Some(auth) = &mut self.auth {
                auth.record_posmap(a.0, l.0);
            }
            if device {
                self.last_round_posmap.push(a);
            }
            self.stats.dirty_entries_flushed += 1;
            flushed = true;
        }
        self.drained = (data, posmap);
        if flushed {
            if let Some(auth) = &mut self.auth {
                auth.seal_temp(&self.temp.entries_sorted());
            }
        }
        if let Some(auth) = &self.auth {
            // The counter-tree root rides the same failure-atomic commit
            // as the round's data.
            self.engine.persist_root(auth.root());
        }
        Ok(())
    }

    /// Puts a bucket image on media: every slot overwritten, every slot
    /// valid again, no reads counted.
    fn install(&mut self, bidx: u64, image: Bucket) {
        let mut bucket = self.buckets.bucket_mut(bidx);
        for (s, slot) in image.into_slots().iter().enumerate() {
            bucket.set(s, slot.as_ref().map(Block::view));
        }
        bucket.revalidate();
    }

    fn apply_rewrite(&mut self, bidx: u64, bucket: Bucket) {
        // Ledger: every block written at its persisted position is now the
        // recoverable copy (PS variant only cares, but the data is cheap).
        for b in bucket.blocks() {
            let a = b.addr();
            if b.leaf() == self.posmap.persisted_get(a) {
                self.ledger.commit_if_fresh(a.0, b.header.seq, &b.payload);
            }
        }
        if let Some(h) = self.history.as_mut() {
            // Snapshot every slot this rewrite replaces: the coherent
            // stale units a replay adversary re-serves.
            let old = self.buckets.bucket(bidx);
            for s in 0..bucket.num_slots() {
                let prev_content = old.and_then(|old| old.slot(s)).map(|b| b.to_block());
                let prev_meta = self.auth.as_ref().and_then(|a| a.slot_record(bidx, s));
                h.note_slot(bidx, s, prev_content, prev_meta);
            }
        }
        if let Some(auth) = &mut self.auth {
            auth.record_slots(
                (0..bucket.num_slots()).map(|s| (bidx, s, bucket.slot(s).map(Block::view))),
            );
        }
        self.install(bidx, bucket);
    }

    /// Snapshots the persisted PosMap entry (and record) a persist of
    /// `addr` is about to replace: the replay adversary's raw material. A
    /// no-op unless the installed fault plan can replay.
    fn snapshot_posmap_entry(&mut self, addr: BlockAddr) {
        if let Some(h) = self.history.as_mut() {
            let prev_leaf = self.posmap.persisted_get(addr);
            let prev_meta = self.auth.as_ref().and_then(|a| a.posmap_record(addr.0));
            h.note_posmap(addr.0, prev_leaf, prev_meta);
        }
    }

    /// After posmap flushes commit, re-evaluate the flushed addresses: the
    /// copy matching the *new* persisted leaf becomes recoverable.
    fn refresh_ledger_for(&mut self, flushes: &[(BlockAddr, Leaf)]) {
        for &(a, _) in flushes {
            let leaf = self.posmap.persisted_get(a);
            if let Some(b) = Self::newest_on_path(&self.buckets, self.path(leaf), a, leaf) {
                self.ledger.commit_if_fresh(a.0, b.header.seq, b.payload);
            }
        }
    }

    // ── crash & recovery ────────────────────────────────────────────────

    /// Immediately executes a power failure.
    pub fn crash_now(&mut self) {
        self.execute_crash();
    }

    fn execute_crash(&mut self) {
        // ADR flushes committed WPQ rounds; open rounds are lost. The
        // engine latches the crashed state and counts the crash.
        let (data, posmap) = self.engine.crash();
        let device = self.engine.device_mode() && !(data.is_empty() && posmap.is_empty());
        if device {
            self.last_round_slots.clear();
            self.last_round_posmap.clear();
        }
        let physical = self.config.bucket_physical_slots();
        for e in data {
            let (bidx, bucket) = e.value;
            if device {
                for s in 0..physical {
                    self.last_round_slots.push((bidx, s));
                }
            }
            self.apply_rewrite(bidx, bucket);
        }
        let flushes: Vec<(BlockAddr, Leaf)> = posmap.iter().map(|e| e.value).collect();
        for &(a, l) in &flushes {
            self.snapshot_posmap_entry(a);
            self.posmap.persist(a, l);
            if let Some(auth) = &mut self.auth {
                auth.record_posmap(a.0, l.0);
            }
            if device {
                self.last_round_posmap.push(a);
            }
        }
        self.refresh_ledger_for(&flushes);
        self.stash.clear();
        self.temp.wipe();
        self.posmap.crash();
        // Device faults: the power failure interrupts the media programming
        // of the last applied round (including anything the ADR flush just
        // applied above) — torn flushes, lost signals, and bit rot land on
        // those units now, behind the controller's back.
        if self.engine.device_mode() {
            let damage = self
                .engine
                .draw_crash_damage(self.last_round_slots.len(), self.last_round_posmap.len());
            self.apply_device_damage(&damage);
        }
    }

    /// Applies drawn device damage to the NVM image: flips a payload (or
    /// header) bit of each damaged bucket slot and corrupts each damaged
    /// persisted PosMap entry. Tags are deliberately *not* refreshed —
    /// this is the adversary writing behind the controller's back.
    fn apply_device_damage(&mut self, damage: &RoundDamage) {
        for &i in &damage.data_units {
            let (bidx, slot) = self.last_round_slots[i];
            // Torn programming of a dummy slot has no observable content
            // to corrupt (and draws no entropy).
            let mut bucket = self.buckets.bucket_mut(bidx);
            let Some((header, payload)) = bucket.cell_mut(slot) else {
                continue;
            };
            let e = self.engine.device_entropy();
            if payload.is_empty() {
                header.iv1 ^= 1 | e;
            } else {
                payload[e as usize % payload.len()] ^= 1 << ((e >> 32) & 7);
            }
        }
        for &i in &damage.posmap_units {
            let addr = self.last_round_posmap[i];
            let e = self.engine.device_entropy();
            self.posmap.corrupt_persisted(addr, e);
        }
        self.apply_freshness_damage(damage);
    }

    /// Applies the freshness adversary's share of the drawn crash damage:
    /// replays restore a unit's recorded previous `(content, record)`
    /// pair wholesale (coherent but stale — only the trusted counter can
    /// tell), and splices swap two authentic units across addresses.
    /// Applied after the bit flips, so a replay also overwrites any flip
    /// that landed on the same unit. A splice is only coherent when both
    /// ends are distinct units that still carry authentic records — a
    /// drawn pair that collapses onto one media unit, or whose record
    /// was already destroyed by bit rot, is a no-op the engine never
    /// counts (the confirm calls are the ground truth).
    fn apply_freshness_damage(&mut self, damage: &RoundDamage) {
        let restored_slot = if let Some(i) = damage.replayed_data {
            let (bidx, slot) = self.last_round_slots[i];
            let prev = self
                .history
                .as_ref()
                .and_then(|h| h.slot(bidx, slot).cloned());
            if let Some((content, meta)) = prev {
                if let Some(mut bucket) = self.buckets.bucket_mut_if_present(bidx) {
                    bucket.set(slot, content.as_ref().map(Block::view));
                }
                if let Some(auth) = self.auth.as_mut() {
                    auth.set_slot_record(bidx, slot, meta);
                }
                self.engine.confirm_stale_replay();
                Some((bidx, slot))
            } else {
                None
            }
        } else {
            None
        };
        let restored_addr = if let Some(i) = damage.replayed_posmap {
            let addr = self.last_round_posmap[i];
            let prev = self
                .history
                .as_ref()
                .and_then(|h| h.posmap(addr.0).copied());
            if let Some((leaf, meta)) = prev {
                self.posmap.overwrite_persisted(addr, leaf);
                if let Some(auth) = self.auth.as_mut() {
                    auth.set_posmap_record(addr.0, meta);
                }
                self.engine.confirm_stale_replay();
                Some(addr)
            } else {
                None
            }
        } else {
            None
        };
        if let Some((i, j)) = damage.spliced_data {
            let (b1, s1) = self.last_round_slots[i];
            let (b2, s2) = self.last_round_slots[j];
            // A bit-rotted end no longer carries an authentic record —
            // unless the replay above just overwrote the rot wholesale.
            let rotted = |c: (u64, usize)| {
                restored_slot != Some(c)
                    && damage
                        .data_units
                        .iter()
                        .any(|&k| self.last_round_slots[k] == c)
            };
            if (b1, s1) != (b2, s2) && !rotted((b1, s1)) && !rotted((b2, s2)) {
                let c1 = self.buckets.slot(b1, s1).map(|b| b.to_block());
                let c2 = self.buckets.slot(b2, s2).map(|b| b.to_block());
                if let Some(mut bucket) = self.buckets.bucket_mut_if_present(b1) {
                    bucket.set(s1, c2.as_ref().map(Block::view));
                }
                if let Some(mut bucket) = self.buckets.bucket_mut_if_present(b2) {
                    bucket.set(s2, c1.as_ref().map(Block::view));
                }
                if let Some(auth) = self.auth.as_mut() {
                    let r1 = auth.slot_record(b1, s1);
                    let r2 = auth.slot_record(b2, s2);
                    auth.set_slot_record(b1, s1, r2);
                    auth.set_slot_record(b2, s2, r1);
                }
                self.engine.confirm_cross_splice();
            }
        }
        if let Some((i, j)) = damage.spliced_posmap {
            let a1 = self.last_round_posmap[i];
            let a2 = self.last_round_posmap[j];
            let rotted = |a: BlockAddr| {
                restored_addr != Some(a)
                    && damage
                        .posmap_units
                        .iter()
                        .any(|&k| self.last_round_posmap[k] == a)
            };
            if a1 != a2 && !rotted(a1) && !rotted(a2) {
                let l1 = self.posmap.persisted_get(a1);
                let l2 = self.posmap.persisted_get(a2);
                self.posmap.overwrite_persisted(a1, l2);
                self.posmap.overwrite_persisted(a2, l1);
                if let Some(auth) = self.auth.as_mut() {
                    let r1 = auth.posmap_record(a1.0);
                    let r2 = auth.posmap_record(a2.0);
                    auth.set_posmap_record(a1.0, r2);
                    auth.set_posmap_record(a2.0, r1);
                }
                self.engine.confirm_cross_splice();
            }
        }
    }

    /// Recovers after a crash: revalidates consumed slots (the paper's
    /// Case-2 procedure — the bytes never left the bucket), promotes the
    /// newest PosMap-consistent copy of each address back to primary
    /// status, and compacts superseded duplicates. Returns a
    /// [`RecoveryReport`] with the consistency verdict and, on failure,
    /// the violation text (also retained in [`RingOram::last_recovery`]).
    ///
    /// With device faults enabled on PS-Ring, recovery runs the full
    /// detect → classify → repair → fail-safe pipeline first: a CMAC scan
    /// wipes slots and PosMap entries that fail authentication, each
    /// damaged committed address is restored from its newest surviving
    /// authenticated copy, and addresses with no surviving copy are
    /// rolled back with a typed [`RecoveryError`] instead of serving
    /// corrupt data.
    ///
    /// Idempotent: calling `recover` on a controller that is not crashed
    /// repeats the last verdict without touching state or counters.
    pub fn recover(&mut self) -> RecoveryReport {
        if !self.engine.is_crashed() {
            return self.last_recovery().cloned().unwrap_or_else(|| {
                RecoveryReport::from_check(Ok(()), self.ledger.committed_len())
            });
        }
        let incidents = self.engine.take_incidents();
        let mut errors: Vec<RecoveryError> = Vec::new();
        let mut repairs = 0u64;
        let mut rolled_back: Vec<u64> = Vec::new();
        let mut replays_detected = 0u64;
        let mut splices_detected = 0u64;
        let mut auth = self.auth.take();

        if let Some(auth) = auth.as_mut() {
            // Root sanity: the on-chip counter tree must agree with the
            // root anchored in the persistence domain. A mismatch means
            // the trusted anchor itself cannot be believed — fail safe.
            if self
                .engine
                .persisted_root()
                .is_some_and(|r| r != auth.root())
            {
                self.engine.poison(FaultClass::StaleReplay);
            }
            // Device phase 1 — detect & classify: every tagged slot is
            // classified against the trusted counters, worst evidence
            // first. A replayed or spliced unit is coherent (its CMAC
            // verifies) — only the counter comparison convicts it. Every
            // convicted slot is wiped; any committed value it held is
            // restored from an authenticated redundant copy in phase 3.
            for (bidx, slot) in auth.tagged_slots_sorted() {
                match auth.verdict_slot(bidx, slot, self.buckets.slot(bidx, slot)) {
                    FreshnessVerdict::Clean => {}
                    verdict => {
                        match verdict {
                            FreshnessVerdict::Stale | FreshnessVerdict::Missing => {
                                replays_detected += 1;
                            }
                            FreshnessVerdict::Spliced => splices_detected += 1,
                            _ => {}
                        }
                        if let Some(mut bucket) = self.buckets.bucket_mut_if_present(bidx) {
                            bucket.set(slot, None);
                        }
                        auth.record_slot(bidx, slot, None);
                    }
                }
            }
            // Device phase 2 — persisted PosMap entries: repair a corrupt,
            // replayed, or spliced leaf label from the newest
            // authenticated copy of the address (the redundant copy names
            // the true leaf, and its counter proves it fresher).
            for a in auth.tagged_posmap_sorted() {
                let addr = BlockAddr(a);
                let leaf = self.posmap.persisted_get(addr);
                match auth.verdict_posmap(a, leaf.0) {
                    FreshnessVerdict::Clean => continue,
                    FreshnessVerdict::Stale | FreshnessVerdict::Missing => replays_detected += 1,
                    FreshnessVerdict::Spliced => splices_detected += 1,
                    FreshnessVerdict::Tampered => {}
                }
                match self.newest_valid_copy(addr, auth) {
                    Some((_, _, copy)) => {
                        self.posmap.persist(addr, copy.leaf());
                        auth.record_posmap(a, copy.leaf().0);
                        repairs += 1;
                    }
                    None => {
                        // Accept the damaged label (re-tag it so the scan
                        // converges) and forget the committed value: typed
                        // data loss, never silent corruption.
                        auth.record_posmap(a, leaf.0);
                        self.ledger.rollback(a, None);
                        rolled_back.push(a);
                        errors.push(RecoveryError::UnrecoverableAddress {
                            addr: a,
                            detail: "posmap entry corrupt; no surviving authenticated copy"
                                .to_string(),
                        });
                    }
                }
            }
        }

        // Pass 1: find, per address, the newest copy matching the persisted
        // PosMap — that is the copy recovery designates as live. Buckets
        // are scanned in index order (the store's iteration order): the
        // replay adversary can restore byte-exact stale duplicates whose
        // seq numbers tie, and the winner of a tie must be the same on
        // every run.
        let mut best: HashMap<u64, (u64, u64, usize)> = HashMap::new();
        for (bidx, bucket) in self.buckets.iter() {
            for (s, slot) in bucket.slots().enumerate() {
                if let Some(b) = slot {
                    if b.leaf() == self.posmap.persisted_get(b.addr()) {
                        let e = best.entry(b.addr().0).or_insert((b.header.seq, bidx, s));
                        if b.header.seq > e.0 {
                            *e = (b.header.seq, bidx, s);
                        }
                    }
                }
            }
        }
        // Pass 2: promote winners, drop superseded matching duplicates,
        // revalidate everything. Controller-initiated slot mutations are
        // legitimate writes, so their tags are refreshed. (Per-slot
        // outcomes depend only on `best`, but the scan stays sorted so
        // any future side effects inherit determinism.)
        let materialised: Vec<u64> = self.buckets.indices().collect();
        for bidx in materialised {
            let mut bucket = self.buckets.bucket_mut(bidx);
            for s in 0..bucket.num_slots() {
                let Some(b) = bucket.slot(s) else {
                    continue;
                };
                let (addr, is_backup) = (b.addr(), b.is_backup);
                if b.leaf() != self.posmap.persisted_get(addr) {
                    continue;
                }
                match best.get(&addr.0) {
                    Some(&(_, wb, ws)) if (wb, ws) == (bidx, s) => {
                        if is_backup {
                            bucket.set_backup(s, false);
                            if let Some(auth) = auth.as_mut() {
                                auth.record_slot(bidx, s, bucket.slot(s));
                            }
                        }
                    }
                    _ => {
                        bucket.set(s, None);
                        if let Some(auth) = auth.as_mut() {
                            auth.record_slot(bidx, s, None);
                        }
                    }
                }
            }
            bucket.revalidate();
        }

        if let Some(auth) = auth.as_mut() {
            // Device phase 3 — repair-from-redundant-copy: every committed
            // address the audit can no longer find is re-pointed at its
            // newest surviving authenticated copy (promoted to primary);
            // addresses with none are rolled back with a typed error.
            for (a, detail) in self.audit_failures() {
                let addr = BlockAddr(a);
                match self.newest_valid_copy(addr, auth) {
                    Some((bidx, s, copy)) => {
                        let mut promoted = copy;
                        if promoted.is_backup {
                            promoted.is_backup = false;
                            if let Some(mut bucket) = self.buckets.bucket_mut_if_present(bidx) {
                                bucket.set_backup(s, false);
                            }
                            auth.record_slot(bidx, s, Some(promoted.view()));
                        }
                        let intact = self.ledger.committed_value(a) == Some(&promoted.payload);
                        self.posmap.persist(addr, promoted.leaf());
                        auth.record_posmap(a, promoted.leaf().0);
                        self.ledger
                            .rollback(a, Some((promoted.header.seq, promoted.payload.clone())));
                        if intact {
                            repairs += 1;
                        } else {
                            // The survivor is an older version: detected
                            // rollback, reported as typed loss.
                            rolled_back.push(a);
                            errors.push(RecoveryError::UnrecoverableAddress { addr: a, detail });
                        }
                    }
                    None => {
                        self.ledger.rollback(a, None);
                        rolled_back.push(a);
                        errors.push(RecoveryError::UnrecoverableAddress { addr: a, detail });
                    }
                }
            }
            // The temporary PosMap did not survive the power failure.
            auth.clear_temp_seal();
            // Close the freshness epoch: repairs bumped counters, so
            // re-anchor the persisted root for the rounds that follow.
            auth.advance_epoch();
            self.engine.persist_root(auth.root());
        }
        self.auth = auth;
        if let Some(class) = self.engine.poisoned() {
            errors.push(RecoveryError::Poisoned { class });
        }
        let mut report =
            RecoveryReport::from_check(self.check_recoverability(), self.ledger.committed_len());
        rolled_back.sort_unstable();
        rolled_back.dedup();
        report.repairs = repairs;
        report.rolled_back = rolled_back;
        report.incidents = incidents;
        report.errors = errors;
        report.replays_detected = replays_detected;
        report.splices_detected = splices_detected;
        report.poisoned = self.engine.poisoned().is_some();
        self.engine.finish_recovery(report)
    }

    /// The newest copy (highest freshness counter, the first on a tie) of
    /// `addr` on the path to `leaf` whose header names that leaf.
    fn newest_on_path(
        buckets: &SlotArena,
        path: impl Iterator<Item = u64>,
        addr: BlockAddr,
        leaf: Leaf,
    ) -> Option<BlockRef<'_>> {
        let mut best: Option<(BucketRef<'_>, usize, u64)> = None;
        for bucket in path.filter_map(|idx| buckets.bucket(idx)) {
            for (slot, h) in bucket.headers() {
                if h.addr == addr && h.leaf == leaf && best.is_none_or(|(_, _, seq)| h.seq > seq) {
                    best = Some((bucket, slot, h.seq));
                }
            }
        }
        best.and_then(|(bucket, slot, _)| bucket.slot(slot))
    }

    /// Where recovery would find committed address `a`: its persisted leaf
    /// and, written into `found`, the payload of the newest matching copy
    /// on that path. Reports whether there is one.
    fn recoverable_copy(&self, a: u64, found: &mut Vec<u8>) -> (Leaf, bool) {
        let addr = BlockAddr(a);
        let leaf = self.posmap.persisted_get(addr);
        let best = Self::newest_on_path(&self.buckets, self.path(leaf), addr, leaf);
        if let Some(b) = best {
            found.extend_from_slice(b.payload);
        }
        (leaf, best.is_some())
    }

    /// The committed addresses the recoverability audit can no longer
    /// locate, with the audit's verbatim complaint (sorted by address).
    fn audit_failures(&self) -> Vec<(u64, String)> {
        self.ledger.audit_committed_collect(
            "copy",
            |a, found| self.recoverable_copy(a, found),
            |_, _| false,
        )
    }

    /// The newest (highest freshness counter) copy of `addr` anywhere on
    /// media that passes slot authentication, with its location.
    /// Deterministic: buckets are scanned in sorted order.
    fn newest_valid_copy(&self, addr: BlockAddr, auth: &AuthTags) -> Option<(u64, usize, Block)> {
        let mut best: Option<(u64, usize, BlockRef<'_>)> = None;
        for (bidx, bucket) in self.buckets.iter() {
            for (s, slot) in bucket.slots().enumerate() {
                if let Some(b) = slot {
                    if b.addr() == addr
                        && auth.verify_slot(bidx, s, Some(b))
                        && best.is_none_or(|(_, _, x)| b.header.seq > x.header.seq)
                    {
                        best = Some((bidx, s, b));
                    }
                }
            }
        }
        best.map(|(bidx, s, b)| (bidx, s, b.to_block()))
    }

    /// The report of the most recent [`RingOram::recover`] call.
    pub fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.engine.last_recovery()
    }

    /// Verifies that every committed value has a physical copy at its
    /// persisted PosMap position.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn check_recoverability(&self) -> Result<(), String> {
        self.ledger.audit_committed(
            "copy",
            |a, found| self.recoverable_copy(a, found),
            |_, _| false,
        )
    }

    /// Reads back every touched address and compares with the appropriate
    /// ledger (committed after a crash, written otherwise).
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn verify_contents(&mut self, after_crash: bool) -> Result<(), String> {
        let mut addrs = self.touched.clone();
        addrs.sort_unstable();
        addrs.dedup();
        for a in addrs {
            let expected = self
                .ledger
                .expected_value(a, after_crash, self.config.payload_bytes);
            let got = self.read(BlockAddr(a)).map_err(|e| e.to_string())?;
            if got != expected {
                return Err(format!("a{a}: read {got:?}, expected {expected:?}"));
            }
        }
        Ok(())
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
    use super::*;

    #[test]
    fn bit_reverse_basics() {
        assert_eq!(bit_reverse(0b001, 3), 0b100);
        assert_eq!(bit_reverse(0b110, 3), 0b011);
        assert_eq!(bit_reverse(0, 6), 0);
    }

    #[test]
    fn snapshot_store_exists_only_under_plans_that_replay() {
        let splice_only = FaultConfig {
            cross_splice: 1.0,
            ..FaultConfig::disabled()
        };
        for (mix, snapshots) in [
            (FaultConfig::disabled(), false),
            (FaultConfig::campaign_default(), false),
            (splice_only, false),
            (FaultConfig::replay_mix(), true),
        ] {
            for variant in [RingVariant::Baseline, RingVariant::PsRing] {
                let mut oram = RingOram::new(RingConfig::small_test(), variant, 9);
                oram.enable_device_faults(9, mix);
                assert_eq!(oram.history.is_some(), snapshots, "{variant:?} {mix:?}");
                assert_eq!(oram.auth.is_some(), variant == RingVariant::PsRing);
            }
        }
    }
}

//! The ORAM controller: Path ORAM access protocol, the PS-ORAM
//! crash-consistent variants, crash injection and recovery.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psoram_crypto::{Aes128, CryptoLatencyModel, CtrCipher};
use psoram_nvm::{
    AccessKind, FaultConfig, NvmConfig, OnChipNvmModel, WpqEntry, CORE_CYCLES_PER_MEM_CYCLE,
};
use psoram_obsv::{Event, Phase};

use crate::block::{Block, BlockHeader};
use crate::crash::{CrashPoint, CrashReport, RecoveryReport};
use crate::engine::{
    arm, check_committed, commit_and_apply, crash_at, lone, power_fail, recoverable, set_tap,
    stall, to_core, to_mem, Access, CommitModel, Copies, DrainedRound, FrameCell, Kept, Listing,
    Media, NvmLayout, PathFrame, PersistEngine, PosMapFlush, ProtocolPolicy, Rounds, Shell,
};
use crate::eviction::{order_for_small_wpq, Candidate};
use crate::recursive::RecursivePosMap;
use crate::stash::Stash;
use crate::stats::OramStats;
use crate::tree::{heap_on_path, heap_path, BucketIndex, OramTree};
use crate::types::{BlockAddr, Leaf, OramConfig, OramError};

pub use crate::engine::ProtocolVariant;
pub use crate::types::{AccessOutcome, Op};

/// A real block on its way through the data WPQ to the tree slot the
/// eviction gave it. Dummy slots never enter the queue: they are rewritten
/// from their frame coordinates once the round that precedes them commits.
#[derive(Debug)]
pub(crate) struct PlacedBlock {
    bucket: u64,
    slot: usize,
    block: Block,
}

/// The write-back order of a round through a `capacity`-entry data WPQ:
/// `None` when its real blocks fit one atomic batch, else
/// [`order_for_small_wpq`]'s batches of frame positions (or its
/// oversize-cycle error).
fn small_wpq_batches(
    targets: &[Option<BlockAddr>],
    live: &[Option<BlockAddr>],
    capacity: usize,
) -> Result<Option<Vec<Vec<usize>>>, usize> {
    if targets.iter().flatten().count() <= capacity {
        Ok(None)
    } else {
        order_for_small_wpq(targets, live, capacity).map(Some)
    }
}

/// Where recovery looks for Path's committed copies: on the tree path of
/// the persisted leaf, encrypted under their own `iv2` when payloads are
/// (`cipher`), and — FullNVM's durable stash — in `stash`.
struct PathCopies<'a> {
    levels: u32,
    cipher: Option<&'a CtrCipher>,
    stash: Option<&'a Stash>,
}

impl Copies for PathCopies<'_> {
    const DESC: &'static str = "recoverable copy";

    fn path(&self, leaf: Leaf) -> impl Iterator<Item = BucketIndex> {
        heap_path(self.levels, leaf)
    }

    fn on_path(&self, leaf: Leaf, bucket: BucketIndex) -> bool {
        heap_on_path(self.levels, leaf, bucket)
    }

    fn open(&self, header: &BlockHeader, payload: &mut [u8]) {
        if let Some(cipher) = self.cipher {
            cipher.apply_keystream(header.iv2 as u128, payload);
        }
    }

    fn open_lanes<'b>(&self, payloads: impl Iterator<Item = (&'b BlockHeader, &'b mut [u8])>) {
        if let Some(cipher) = self.cipher {
            cipher.apply_keystreams(payloads.map(|(h, payload)| (h.iv2 as u128, payload)));
        }
    }

    fn durable_copy(&self, addr: u64) -> Option<&[u8]> {
        Some(&self.stash?.get(BlockAddr(addr))?.payload)
    }
}

/// A crash-consistent (or deliberately not) Path ORAM controller over a
/// simulated NVM.
///
/// One controller owns the full stack below the LLC: the ORAM tree in NVM,
/// the stash, the (temporary) PosMaps, the persistence domain, and the
/// encryption engine. The [`ProtocolVariant`] selects which of the paper's
/// designs the controller implements.
///
/// # Examples
///
/// ```
/// use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolVariant};
///
/// let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
/// oram.write(BlockAddr(3), vec![0xAB; 8]).unwrap();
/// assert_eq!(oram.read(BlockAddr(3)).unwrap(), vec![0xAB; 8]);
/// ```
#[derive(Debug)]
pub struct PathOram {
    config: OramConfig,
    variant: ProtocolVariant,
    /// The state every controller holds: NVM, PosMaps, engine control,
    /// ledger, device side, clock, scratch.
    shell: Shell,
    /// The WPQ persist rounds of placed blocks and their PosMap entries.
    wpq: PersistEngine<PlacedBlock, PosMapFlush>,
    tree: OramTree,
    stash: Stash,
    recursion: Option<RecursivePosMap>,
    cipher: CtrCipher,
    crypto_lat: CryptoLatencyModel,
    onchip: OnChipNvmModel,
    onchip_parallelism: u64,
    /// The tree, the PosMap entries, the recursion's trees and the stash
    /// snapshot (Rcr-PS-ORAM).
    layout: NvmLayout,
    /// Core cycles the controller frontend (decrypt/verify/stash port)
    /// needs per 64 B block. Provisioned for single-channel bandwidth
    /// (8 memory cycles/block), it becomes the bottleneck as channels are
    /// added — the paper's sub-linear channel scaling (§5.2.3).
    frontend_cycles_per_block: u64,
    /// Core cycle until which the frontend pipeline is busy.
    frontend_free: u64,
    /// Levels `0..top_cache_levels` of the tree are mirrored in a fast
    /// volatile buffer (DRAM/on-chip), the paper's §4.5 hybrid-memory
    /// direction: path reads skip the NVM for those buckets, while writes
    /// stay write-through so crash consistency is untouched.
    top_cache_levels: u32,
    rng: StdRng,
    stats: OramStats,
    encrypt_payloads: bool,
    iv: u64,
}

impl PathOram {
    /// Creates a controller with a single-channel paper-default PCM memory.
    pub fn new(config: OramConfig, variant: ProtocolVariant, seed: u64) -> Self {
        Self::with_nvm(config, variant, NvmConfig::paper_pcm(1), seed)
    }

    /// Creates a controller over an explicit NVM configuration (e.g. the
    /// multi-channel systems of Figure 7).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`OramConfig::validate`].
    pub fn with_nvm(
        config: OramConfig,
        variant: ProtocolVariant,
        nvm_config: NvmConfig,
        seed: u64,
    ) -> Self {
        config.validate();
        let tree = OramTree::new(&config);
        // Each region past the tree starts on a 1 MiB boundary.
        let mib = |bytes: u64| bytes.next_multiple_of(1 << 20);
        let tree_bytes = tree.region_bytes();
        let posmap = mib(tree_bytes);
        let recursion_base = mib(posmap + config.capacity_blocks() * 8);
        let recursion = (variant.is_recursive())
            .then(|| RecursivePosMap::new(&config, recursion_base, 128, seed ^ 0x5EC0));
        let recursion_bytes = recursion.as_ref().map_or(0, RecursivePosMap::region_bytes);
        let layout = NvmLayout {
            bucket_bytes: (config.bucket_slots * config.block_bytes) as u64,
            tree_bytes,
            posmap,
            stash: mib(recursion_base + recursion_bytes),
        };
        let onchip = variant
            .onchip_tech()
            .map(OnChipNvmModel::for_tech)
            .unwrap_or_else(OnChipNvmModel::sram);
        let key: [u8; 16] = {
            let mut k = [0u8; 16];
            k[..8].copy_from_slice(&seed.to_le_bytes());
            k[8..].copy_from_slice(&(!seed).to_le_bytes());
            k
        };
        PathOram {
            shell: Shell::new(
                nvm_config,
                config.num_leaves(),
                seed ^ 0xFACE,
                config.temp_posmap_capacity,
            ),
            wpq: PersistEngine::new(config.data_wpq_capacity, config.posmap_wpq_capacity),
            stash: Stash::new(config.stash_capacity),
            recursion,
            cipher: CtrCipher::new(Aes128::new(&key)),
            crypto_lat: CryptoLatencyModel::paper_default(),
            onchip,
            // Effective parallelism of the on-chip NVM buffer array
            // (FullNVM designs); calibrated against Figure 5(a).
            onchip_parallelism: 5,
            layout,
            // One block per 8 memory cycles — the frontend is provisioned
            // for a single channel's burst bandwidth, which is what makes
            // 2->4 channel scaling saturate (Figure 7, §5.2.3).
            frontend_cycles_per_block: 8 * CORE_CYCLES_PER_MEM_CYCLE,
            frontend_free: 0,
            top_cache_levels: 0,
            rng: StdRng::seed_from_u64(seed),
            stats: OramStats::default(),
            encrypt_payloads: true,
            iv: 0,
            tree,
            config,
            variant,
        }
    }

    /// The protocol variant this controller implements.
    pub fn variant(&self) -> ProtocolVariant {
        self.variant
    }

    /// The ORAM geometry.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// `true` if a primary copy of `addr` currently sits in the stash.
    pub fn stash_contains(&self, addr: BlockAddr) -> bool {
        self.stash.contains(addr)
    }

    /// Current stash occupancy (including backups).
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Enables/disables functional payload encryption (timing is charged
    /// either way). On by default; large sweeps may disable it to trade
    /// fidelity for speed.
    pub fn set_payload_encryption(&mut self, on: bool) {
        self.encrypt_payloads = on;
    }

    /// Mirrors the top `levels` of the tree in a fast volatile buffer
    /// (hybrid DRAM+NVM, the paper's §4.5 future work): path reads skip
    /// the NVM for those buckets; writes remain write-through, so crash
    /// consistency is preserved and a power failure merely cools the
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics if `levels` exceeds the tree height.
    pub fn set_top_cache_levels(&mut self, levels: u32) {
        assert!(
            levels <= self.config.levels + 1,
            "cache cannot exceed the tree"
        );
        self.top_cache_levels = levels;
    }

    /// Buffer bytes required by the configured top-of-tree cache.
    pub fn top_cache_bytes(&self) -> u64 {
        ((1u64 << self.top_cache_levels) - 1)
            * self.config.bucket_slots as u64
            * self.config.block_bytes as u64
    }

    /// Controller statistics. The crash/recovery/stall counters live in
    /// the shared engine control and are merged into the snapshot here.
    pub fn stats(&self) -> OramStats {
        let e = self.shell.ctl.stats();
        OramStats {
            crashes: e.crashes,
            recoveries: e.recoveries,
            recovery_failures: e.recovery_failures,
            wpq_stalls: e.wpq_stalls,
            ..self.stats
        }
    }

    /// Reads block `addr` at the controller's own clock.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from [`PathOram::access_at`].
    pub fn read(&mut self, addr: BlockAddr) -> Result<Vec<u8>, OramError> {
        ProtocolPolicy::read(self, addr.0)
    }

    /// Writes `data` to block `addr` at the controller's own clock.
    ///
    /// # Errors
    ///
    /// Propagates any [`OramError`] from [`PathOram::access_at`].
    pub fn write(&mut self, addr: BlockAddr, data: Vec<u8>) -> Result<(), OramError> {
        ProtocolPolicy::write_from(self, addr.0, &data)
    }

    fn onchip_batch_cycles(&self, ops: u64, per_op: u64) -> u64 {
        (ops * per_op).div_ceil(self.onchip_parallelism)
    }

    /// Streams `n_blocks` through the controller frontend pipeline starting
    /// no earlier than core cycle `t`; returns the frontend drain cycle.
    fn frontend_process(&mut self, n_blocks: u64, t: u64) -> u64 {
        let done = t.max(self.frontend_free) + n_blocks * self.frontend_cycles_per_block;
        self.frontend_free = done;
        done
    }

    fn fresh_iv(&mut self) -> u64 {
        self.iv += 1;
        self.iv
    }

    fn encrypt_for_tree(&mut self, block: &mut Block) {
        let iv = self.fresh_iv();
        block.header.iv2 = iv;
        if self.encrypt_payloads {
            self.cipher.apply_keystream(iv as u128, &mut block.payload);
        }
    }

    fn decrypt_from_tree(&self, block: &mut Block) {
        if self.encrypt_payloads {
            self.cipher
                .apply_keystream(block.header.iv2 as u128, &mut block.payload);
        }
    }

    /// Performs one ORAM access arriving at core cycle `arrival`.
    ///
    /// # Errors
    ///
    /// * [`OramError::Crashed`] — an injected crash fired (call
    ///   [`PathOram::recover`]).
    /// * [`OramError::AddressOutOfRange`] / [`OramError::PayloadSize`] —
    ///   invalid request.
    /// * [`OramError::StashOverflow`] / [`OramError::TempPosMapOverflow`] —
    ///   capacity exhaustion (statistically negligible at paper sizing).
    pub fn access_at(
        &mut self,
        op: Op,
        addr: BlockAddr,
        data: Option<Vec<u8>>,
        arrival: u64,
    ) -> Result<AccessOutcome, OramError> {
        let (read, complete_cycle, eviction_complete_cycle) =
            self.access(op, addr, data.as_deref(), arrival)?;
        Ok(AccessOutcome {
            // A write's value is the buffer it came in.
            value: data.or(read).ok_or(OramError::Invariant {
                context: "an access without data returns the value it read",
            })?,
            complete_cycle,
            eviction_complete_cycle,
        })
    }

    /// The access itself, over borrowed write data. Returns the block's
    /// value when no data was given (the one copy a read makes), the cycle
    /// the value is ready and the cycle the eviction completes.
    fn access(
        &mut self,
        op: Op,
        addr: BlockAddr,
        data: Option<&[u8]>,
        arrival: u64,
    ) -> Result<(Option<Vec<u8>>, u64, u64), OramError> {
        let access_index = self.stats.accesses;
        let geometry = (self.config.capacity_blocks(), self.config.payload_bytes);
        self.shell
            .begin_access(addr, data, geometry, access_index, arrival)?;
        self.stats.accesses += 1;
        match op {
            Op::Read => self.stats.reads += 1,
            Op::Write => self.stats.writes += 1,
        }

        let mut t = arrival;

        // ── Step ① Check stash ─────────────────────────────────────────
        t += self.onchip.read_cycles; // one content-addressable lookup
        self.stats.onchip_nvm_reads += u64::from(self.variant.onchip_tech().is_some());
        let stash_hit = self.stash.contains(addr);
        if stash_hit {
            self.stats.stash_hits += 1;
        }
        self.shell.phase(Phase::CheckStash, arrival, t);
        crash_at(self, CrashPoint::AfterCheckStash)?;

        // ── Step ② Access PosMap (+ backup label) ──────────────────────
        let old_leaf = self.shell.lookup(addr);
        let new_leaf = Leaf(self.rng.gen_range(0..self.config.num_leaves()));
        let t_before_posmap = t;
        t = self.step2_update_posmap(addr, new_leaf, t)?;
        self.shell.phase(Phase::PosMap, t_before_posmap, t);
        crash_at(self, CrashPoint::AfterAccessPosMap)?;

        // ── Step ③ Load path ───────────────────────────────────────────
        let t_before_path = t;
        let t_after_read = self.step3_load_path(addr, old_leaf, t)?;
        t = t_after_read;
        self.shell.phase(Phase::LoadPath, t_before_path, t);
        crash_at(self, CrashPoint::AfterLoadPath)?;

        // ── Step ④ Update stash + backup data ──────────────────────────
        self.shell.seq_counter += 1;
        let seq = self.shell.seq_counter;
        if !self.stash.contains(addr) {
            // Fresh block, never written: materialize zeros.
            let fresh = self
                .shell
                .scratch
                .zeroed_block(addr, new_leaf, self.config.payload_bytes);
            self.stash.insert(fresh)?;
        }
        let primary = self.stash.get_mut(addr).ok_or(OramError::Invariant {
            context: "stash primary present after path load",
        })?;
        primary.header.leaf = new_leaf;
        primary.header.seq = seq;
        if let Some(d) = data {
            primary.payload.clear();
            primary.payload.extend_from_slice(d);
        }
        self.shell.ledger.note_written(addr.0, &primary.payload);
        let read = data.is_none().then(|| primary.payload.clone());
        t += 2; // header update + (possible) backup copy, pipelined SRAM ops
        let value_ready = t;
        self.shell
            .end_access(access_index, t_after_read, value_ready);
        crash_at(self, CrashPoint::AfterUpdateStash)?;

        // ── Step ⑤ Eviction ────────────────────────────────────────────
        let eviction_complete = self.step5_evict(old_leaf, t)?;
        self.shell.ctl.tap.emit(|| Event::Phase {
            phase: Phase::Eviction,
            start: value_ready,
            end: eviction_complete,
        });
        crash_at(self, CrashPoint::AfterEviction)?;

        if self.variant.stash_durable() {
            // FullNVM: stash and PosMap are non-volatile, so a completed
            // access is durable (atomicity within an access is the gap the
            // crash tests expose).
            let value = data.or(read.as_deref()).unwrap_or_default();
            self.shell
                .ledger
                .commit_if_fresh(addr.0, self.shell.seq_counter, value);
        }
        self.stats.total_access_cycles += value_ready - arrival;

        Ok((read, value_ready, eviction_complete))
    }

    /// Step ②: per-variant PosMap handling. Returns the advanced clock.
    fn step2_update_posmap(
        &mut self,
        addr: BlockAddr,
        new_leaf: Leaf,
        mut t: u64,
    ) -> Result<u64, OramError> {
        match self.variant {
            ProtocolVariant::Baseline => {
                t += 2; // SRAM read + write
                self.shell.posmap.set(addr, new_leaf);
            }
            ProtocolVariant::FullNvm | ProtocolVariant::FullNvmStt => {
                t += self.onchip.read_cycles + self.onchip.write_cycles;
                self.stats.onchip_nvm_reads += 1;
                self.stats.onchip_nvm_writes += 1;
                // On-chip NVM PosMap: the update is durable immediately,
                // but not atomic with the data movement (the paper's point).
                self.shell.posmap.persist(addr, new_leaf);
            }
            ProtocolVariant::NaivePsOram | ProtocolVariant::PsOram => {
                t += 2; // SRAM read + temporary-PosMap insert
                self.shell.temp.insert(addr, new_leaf)?;
            }
            ProtocolVariant::RcrBaseline => {
                t = self.recursive_posmap_walk(addr, t)?;
                // Written back to untrusted NVM on every access: durable
                // now, and the media programming a crash interrupts.
                self.shell
                    .flush(std::iter::once((addr, new_leaf)), Listing::Start);
                self.stats.posmap_entry_writes += 1;
            }
            ProtocolVariant::RcrPsOram => {
                t = self.recursive_posmap_walk(addr, t)?;
                // The new label is backed up in the temporary PosMap and
                // reaches the posmap tree atomically at eviction commit.
                self.shell.temp.insert(addr, new_leaf)?;
            }
        }
        self.shell.device.seal_temp(&self.shell.temp);
        Ok(t)
    }

    /// Walks the recursive PosMap trees, issuing their path reads/writes to
    /// the NVM. Returns the advanced clock.
    fn recursive_posmap_walk(&mut self, addr: BlockAddr, mut t: u64) -> Result<u64, OramError> {
        let acc = self
            .recursion
            .as_mut()
            .ok_or(OramError::Invariant {
                context: "recursive variant carries a recursion model",
            })?
            .access(addr);
        if acc.plb_hit {
            self.stats.plb_hits += 1;
        } else {
            self.stats.plb_full_misses += 1;
        }
        for (reads, writes) in acc.reads.iter().zip(acc.writes.iter()) {
            let fe = self.frontend_process(reads.len() as u64, t);
            let done =
                self.shell
                    .nvm
                    .access_batch(reads.iter().copied(), AccessKind::Read, to_mem(t));
            t = (to_core(done) + self.crypto_lat.decrypt_overlapped_cycles()).max(fe);
            self.stats.recursion_reads += reads.len() as u64;
            let fe = self.frontend_process(writes.len() as u64, t);
            let done =
                self.shell
                    .nvm
                    .access_batch(writes.iter().copied(), AccessKind::Write, to_mem(t));
            t = to_core(done).max(fe);
            self.stats.recursion_writes += writes.len() as u64;
        }
        Ok(t)
    }

    /// Step ③: fetch the path, classify copies, fill the stash. Returns
    /// the advanced clock.
    ///
    /// The path is resolved once, into the access's frame; the frame's
    /// `live` column (slot → address whose recoverable copy occupies it)
    /// is what the eviction's ordering logic reads.
    fn step3_load_path(&mut self, target: BlockAddr, leaf: Leaf, t: u64) -> Result<u64, OramError> {
        let mut frame = std::mem::take(&mut self.shell.scratch.frame);
        let outcome = self.load_path(&mut frame, target, leaf, t);
        self.shell.scratch.frame = frame;
        outcome
    }

    fn load_path(
        &mut self,
        frame: &mut PathFrame,
        target: BlockAddr,
        leaf: Leaf,
        t: u64,
    ) -> Result<u64, OramError> {
        // The device side's four guards bracket the fetch (all inert
        // without a fault plan). First: transient media read errors.
        let t = self.shell.device.read_fault(&mut self.shell.ctl, t)?;
        frame.resolve(&self.tree, leaf);
        let z = self.config.bucket_slots;
        // Second: the freshness adversary may serve one path slot stale.
        // The draw always consumes plan entropy (schedule invariance).
        let pick = self.shell.device.read_replay();
        let mut serve_stale = self.shell.device.serve_stale(pick, &frame.cells);
        // Buckets mirrored in the fast volatile buffer cost no NVM read.
        let cached = self.top_cache_levels as usize * z;
        let frontend_done = self.frontend_process(self.config.path_slots() as u64, t);
        let done =
            self.shell
                .nvm
                .access_batch(frame.nvm_addrs(cached), AccessKind::Read, to_mem(t));
        let t = (to_core(done) + self.crypto_lat.decrypt_overlapped_cycles()).max(frontend_done);

        // Third: the endurance adversary on the hottest fetched line.
        // Fourth: hardened freshness verification of every loaded slot —
        // including whatever the wire served — before admission.
        let t =
            (self.shell.device).wear_read_fault(&mut self.shell.ctl, frame.nvm_addrs(cached), t)?;
        let mut t = self.shell.device.verify_fetched(
            &mut self.shell.ctl,
            self.tree.arena(),
            &frame.cells,
            &mut serve_stale,
            t,
        )?;

        // Gather the fetched blocks, one bucket at a time, into on-chip
        // copies (their payload buffers come off the free list). An
        // undetected stale serve (baselines) replaces the slot's bytes
        // right here — the controller consumes what the wire delivered.
        let mut fetched = std::mem::take(&mut self.shell.scratch.fetched);
        fetched.clear();
        for (depth, bucket) in self.tree.path(leaf).enumerate() {
            let on_media = self.tree.bucket_ref(bucket);
            for slot in 0..z {
                let stored = match &serve_stale {
                    Some(((sb, ss), content, _)) if (*sb, *ss) == (bucket, slot) => {
                        content.as_ref().map(Block::view)
                    }
                    _ => on_media.and_then(|b| b.slot(slot)),
                };
                if let Some(stored) = stored {
                    let mut block = self.shell.scratch.block_from(stored);
                    self.decrypt_from_tree(&mut block);
                    if recoverable(&self.shell.posmap, &block.header) {
                        frame.mark_live(depth * z + slot, block.addr());
                    }
                    fetched.push(block);
                }
            }
        }

        // Of the target's copies under the label the access held before
        // step ② (a committed primary and an older backup can both name
        // it), the newest becomes the primary and, for PS variants, spawns
        // the pinned backup; every other copy goes by `Shell::keep`.
        let keep_shadows = self.variant.uses_wpq();
        let target_in_stash = self.stash.contains(target);
        let is_target_copy = |b: &Block| !target_in_stash && b.addr() == target && b.leaf() == leaf;
        let mut newest: Option<usize> = None;
        for (i, b) in fetched.iter().enumerate() {
            if is_target_copy(b) && newest.is_none_or(|j| fetched[j].header.seq < b.header.seq) {
                newest = Some(i);
            }
        }
        // This pick runs over what the wire served; over the media, with
        // nothing served stale, it is the observer's (`peek`).
        debug_assert!(
            target_in_stash
                || serve_stale.is_some()
                || (self.tree.arena())
                    .newest_on_path(self.tree.path(leaf), target, leaf)
                    .map(|b| *b.header)
                    == newest.map(|i| fetched[i].header),
            "step ③'s pick of {target} is newest_on_path's"
        );
        if let Some(i) = newest {
            let mut primary = fetched.remove(i);
            if keep_shadows {
                // The backup preserves the block as fetched, pinned to
                // the leaf it was fetched from.
                let mut backup = self.shell.scratch.block_from(primary.view());
                backup.is_backup = true;
                self.stats.backups_created += 1;
                self.stash.insert(backup)?;
            }
            primary.is_backup = false;
            // Header leaf and freshness counter are updated in step 4.
            self.stash.insert(primary)?;
            // Older duplicates are superseded by the freshly created backup
            // and dropped below.
        }
        for mut block in fetched.drain(..) {
            // A superseded duplicate of the target, or a dead copy: dropped.
            let stashed = |a| self.stash.contains(a);
            let kept = (!is_target_copy(&block))
                .then(|| (self.shell).keep(block.view(), keep_shadows, stashed))
                .flatten();
            let Some(kept) = kept else {
                self.shell.scratch.recycle(block);
                continue;
            };
            block.is_backup = kept == Kept::Shadow;
            self.stats.shadows_rewritten += u64::from(block.is_backup);
            self.stash.insert(block)?;
        }
        self.shell.scratch.fetched = fetched;

        // FullNVM: the fetched path is written into the on-chip NVM stash.
        if self.variant.onchip_tech().is_some() {
            let n = self.config.path_slots() as u64;
            t += self.onchip_batch_cycles(n, self.onchip.write_cycles);
            self.stats.onchip_nvm_writes += n;
        } else {
            t += self.config.path_slots() as u64; // pipelined SRAM fill
        }
        Ok(t)
    }

    /// Step ⑤: plan and persist the eviction. Returns the cycle at which
    /// the write-back fully reaches the NVM.
    fn step5_evict(&mut self, leaf: Leaf, t: u64) -> Result<u64, OramError> {
        let mut frame = std::mem::take(&mut self.shell.scratch.frame);
        let outcome = self.evict_frame(&mut frame, leaf, t);
        self.shell.scratch.frame = frame;
        outcome
    }

    fn evict_frame(
        &mut self,
        frame: &mut PathFrame,
        leaf: Leaf,
        mut t: u64,
    ) -> Result<u64, OramError> {
        // Rcr-PS-ORAM additionally persists the stash's (dirty) real blocks
        // to a reserved NVM stash region every access ("the dirty blocks in
        // the stash are persisted for crash recoverability", §5.1) — a
        // redundant recovery image on top of the shadow-block mechanism.
        let stash_snapshot = if self.variant == ProtocolVariant::RcrPsOram {
            self.stash.blocks().iter().filter(|b| !b.is_backup).count() as u64
        } else {
            0
        };
        // Candidates: the whole stash, planned over where it stands.
        // Blocks fetched from this path (backups/shadows pinned here, plus
        // primaries whose live copy the rewrite destroys) must be
        // re-placed; the rest are opportunistic.
        let persistent = self.variant.uses_wpq();
        let (stash, posmap, live) = (&self.stash, &self.shell.posmap, &*frame);
        let candidates = stash.blocks().iter().map(|b| {
            // Must-place: backups/shadows (pinned to this path) and fetched
            // primaries still at their persisted position — their live NVM
            // copies are on this path and about to be destroyed. The
            // remapped target is *not* here: its old copy is protected by
            // its backup, and its new leaf may not fit this path.
            // Non-persistent designs: plain Path ORAM greedy eviction.
            let must = persistent
                && (b.is_backup || (live.holds_live(b.addr()) && recoverable(posmap, &b.header)));
            Candidate::of(b, must)
        });
        // Small persistence domains use identity placement so the
        // write-back has no ordering constraints (see
        // `Placement::place_in_place`); full-sized WPQs commit the whole
        // round atomically and can place greedily.
        let small_wpq = persistent && self.config.data_wpq_capacity < self.config.path_slots();
        let mut placement = std::mem::take(&mut self.shell.scratch.placement);
        placement.place_greedy(candidates.clone(), &self.tree, leaf);
        // `batches` is the write-back order of a round too large for one
        // atomic batch, worked out once, here, while choosing the plan.
        let batches = if small_wpq {
            // Prefer greedy placement (better stash behaviour) when its
            // write-back admits a dependency-safe ordering; fall back to
            // identity placement only for plans with an oversize cycle.
            // The candidates stay put until that is settled.
            let capacity = self.config.data_wpq_capacity;
            let mut targets = std::mem::take(&mut self.shell.scratch.targets);
            placement.targets_into(self.stash.blocks(), &mut targets);
            let batches = match small_wpq_batches(&targets, &frame.live, capacity) {
                Ok(batches) => batches,
                Err(_) => {
                    self.stats.in_place_fallbacks += 1;
                    placement.place_in_place(candidates, &self.tree, leaf, &frame.live);
                    placement.targets_into(self.stash.blocks(), &mut targets);
                    small_wpq_batches(&targets, &frame.live, capacity).map_err(|_| {
                        OramError::Invariant {
                            context: "identity placement has no ordering constraints",
                        }
                    })?
                }
            };
            self.shell.scratch.targets = targets;
            batches
        } else {
            None
        };
        // Only the placed blocks leave the stash, for the frame's cells;
        // the rest stay, in the order the planner turned them away.
        self.stats.eviction_leftovers += placement.leftovers().len() as u64;
        self.stash
            .evict(placement.slots(), placement.leftovers(), &mut frame.out);
        self.shell.scratch.placement = placement;

        // FullNVM: blocks are read back out of the on-chip NVM stash.
        if self.variant.onchip_tech().is_some() {
            let n = self.config.path_slots() as u64;
            t += self.onchip_batch_cycles(n, self.onchip.read_cycles);
            self.stats.onchip_nvm_reads += n;
        }
        // Encrypt the eviction candidates (pad generation pipelined).
        t += self.crypto_lat.encrypt_cycles();

        let mut t_end = if self.variant.uses_wpq() {
            self.evict_through_wpq(frame, batches, t)?
        } else {
            self.evict_direct(frame, t)?
        };

        if stash_snapshot > 0 {
            let block_bytes = self.config.block_bytes as u64;
            let region = self.layout.stash;
            // Overlaps with the path write-back; the access pipeline only
            // observes the later of the two completions.
            let done = self.shell.nvm.access_batch(
                (0..stash_snapshot).map(|i| region + i * block_bytes),
                AccessKind::Write,
                to_mem(t),
            );
            self.stats.stash_snapshot_writes += stash_snapshot;
            t_end = t_end.max(to_core(done));
        }
        Ok(t_end)
    }

    /// Direct write-back for the non-WPQ designs (`Baseline`, `FullNVM`,
    /// `Rcr-Baseline`): every slot write hits the NVM as it is issued, in
    /// path order, so a crash mid-eviction leaves a partially rewritten
    /// path (Figure 3). The armed crash index counts slot writes, i.e. it
    /// is a frame position.
    fn evict_direct(&mut self, frame: &mut PathFrame, t: u64) -> Result<u64, OramError> {
        let slots = frame.cells.len();
        let crash_at = (self.shell.ctl.armed_eviction_crash()).filter(|&pos| pos < slots);
        let written = crash_at.unwrap_or(slots);
        for block in frame.out[..written].iter_mut().flatten() {
            self.encrypt_for_tree(block);
        }
        // The path rewrite is a round of its own, the one a power failure
        // interrupts, and its real blocks are its units; a dummy written
        // straight to the media is none.
        let cells = frame.cells[..written].iter().zip(&frame.out[..written]);
        let reals = (cells.clone())
            .filter_map(|(c, out)| Some((c.bucket, c.slot, Some(out.as_ref()?.view()))));
        (self.shell.device).program(self.tree.arena_mut(), reals.map(lone), Listing::Start);
        for (c, _) in cells.filter(|(_, out)| out.is_none()) {
            self.tree.write_slot_from(c.bucket, c.slot, None);
        }
        for block in frame.out[..written].iter_mut().filter_map(Option::take) {
            self.shell.scratch.recycle(block);
        }
        if crash_at.is_some() {
            self.shell.ctl.disarm_crash();
            self.crash_now();
            return Err(OramError::Crashed);
        }
        let frontend_done = self.frontend_process(frame.cells.len() as u64, t);
        let done = self
            .shell
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Write, to_mem(t));
        Ok(to_core(done).max(frontend_done))
    }

    /// WPQ-based atomic eviction (steps 5-A/5-B/5-C) for the PS-ORAM family.
    ///
    /// `order` splits a round that exceeds the data WPQ into
    /// dependency-ordered atomic batches of frame positions; `None`
    /// commits the whole path as one batch — its real blocks first, in
    /// path order, then its dummies.
    fn evict_through_wpq(
        &mut self,
        frame: &mut PathFrame,
        order: Option<Vec<Vec<usize>>>,
        mut t: u64,
    ) -> Result<u64, OramError> {
        self.stats.eviction_rounds += 1;

        // Hardened designs authenticate the temporary PosMap before
        // trusting it for dirty-entry selection.
        self.shell
            .device
            .check_temp(&mut self.shell.ctl, &self.shell.temp)?;

        // 5-A: identify the dirty metadata entries (PS-ORAM) or all path
        // entries (Naïve).
        let naive = self.variant == ProtocolVariant::NaivePsOram;
        let crash_after_batches = self.shell.ctl.armed_eviction_crash();
        let slots = frame.cells.len();

        self.shell.scratch.entry_addrs.clear();
        // Dummy slots of the open batch, rewritten after its commit.
        let mut dummies = std::mem::take(&mut self.shell.scratch.dummies);
        for committed_batches in 0..order.as_ref().map_or(1, Vec::len) {
            // The frame positions of this batch: every one, in path order,
            // when the round is a single batch.
            let batch = order.as_ref().map(|batches| &batches[committed_batches]);
            let whole = batch.map_or(0..slots, |_| 0..0);
            let positions = whole.chain(batch.into_iter().flatten().copied());
            if crash_after_batches == Some(committed_batches) {
                // Power failure while the next round is being assembled:
                // model entries mid-push by opening a round, pushing the
                // batch, and crashing before the end signal.
                let entries = positions
                    .filter_map(|pos| {
                        Some(Self::wpq_entry(&frame.cells[pos], frame.out[pos].take()?))
                    })
                    .collect();
                self.wpq.stage_abandoned_round(entries);
                self.shell.ctl.disarm_crash();
                self.crash_now();
                self.shell.scratch.dummies = dummies;
                return Err(OramError::Crashed);
            }

            // 5-B: drainer start signal; push data and matching metadata.
            self.wpq.begin_round(&self.shell.ctl)?;
            let mut pushed = 0u64;
            dummies.clear();
            for pos in positions {
                match frame.out[pos].take() {
                    Some(block) => pushed += self.push_real(&frame.cells[pos], block, naive)?,
                    None => dummies.push(pos),
                }
            }
            // A batch's dummies follow its reals, and the room check runs
            // ahead of them as it does ahead of every real: once, because
            // it either finds room (and dummies take none) or leaves both
            // queues empty.
            if !dummies.is_empty() {
                self.stall_if_full()?;
            }
            if naive {
                // Naïve also flushes a metadata entry per dummy slot, so the
                // full Z·(L+1) PosMap entries reach the NVM every round.
                for &pos in &dummies {
                    let FrameCell { bucket, slot, .. } = frame.cells[pos];
                    self.stats.posmap_entry_writes += 1;
                    let entry = self.naive_slot_entry_addr(bucket, slot);
                    self.shell.scratch.entry_addrs.push(entry);
                }
            }
            t += pushed; // one cycle per WPQ push
            self.shell.ctl.tap.set_now(t);

            // 5-C: end signal — the atomic commit point — then flush.
            commit_and_apply(self)?;
            // Dummy slots of this batch are rewritten directly after the
            // commit: they carry no recoverable data and only overwrite
            // copies whose addresses committed in this or earlier batches.
            let rewritten = (dummies.iter()).map(|&pos| {
                let FrameCell { bucket, slot, .. } = frame.cells[pos];
                (bucket, slot, None)
            });
            (self.shell.device).program(self.tree.arena_mut(), rewritten.map(lone), Listing::Apart);
            self.stats.eviction_batches += 1;
        }
        self.shell.scratch.dummies = dummies;

        // Issue the full-path writes plus metadata writes to the NVM. The
        // WPQ drains in address order (an FR-FCFS-style controller avoids
        // the bank clustering a literal commit-order drain would cause);
        // atomicity was already established by the end signals above.
        // Every slot of the path was written exactly once, so the frame —
        // path order is address order — is that sorted address list.
        self.shell.scratch.entry_addrs.sort_unstable();
        let frontend_done = self.frontend_process(frame.cells.len() as u64, t);
        // PosMap entries are 7-8 B: they occupy the data bus for a single
        // beat, though the cell-programming pulse is unchanged.
        let done = self
            .shell
            .nvm
            .access_batch(frame.nvm_addrs(0), AccessKind::Write, to_mem(t));
        let mut t_end = to_core(done).max(frontend_done);
        let entry_addrs = &self.shell.scratch.entry_addrs;
        if !entry_addrs.is_empty() {
            let done = self.shell.nvm.access_batch_sized(
                entry_addrs.iter().copied(),
                AccessKind::Write,
                to_mem(t),
                8,
            );
            t_end = t_end.max(to_core(done));
        }
        Ok(t_end)
    }

    /// The data-WPQ entry carrying `block` to the slot at `cell`.
    fn wpq_entry(cell: &FrameCell, block: Block) -> WpqEntry<PlacedBlock> {
        WpqEntry {
            addr: cell.nvm_addr,
            value: PlacedBlock {
                bucket: cell.bucket,
                slot: cell.slot,
                block,
            },
        }
    }

    /// A block's data and its PosMap entry must land in the same atomic
    /// round: if either queue is out of room, stall.
    fn stall_if_full(&mut self) -> Result<(), OramError> {
        if self.wpq.data_is_full() || self.wpq.posmap_is_full() {
            stall(self)?;
        }
        Ok(())
    }

    /// Pushes one real block of the open round and the metadata that must
    /// commit with it; returns the number of WPQ pushes.
    fn push_real(&mut self, cell: &FrameCell, block: Block, naive: bool) -> Result<u64, OramError> {
        self.stall_if_full()?;
        // Metadata for this batch: dirty entries (PS-ORAM) of evicted
        // primaries; Naïve pushes an entry per slot.
        let flush = if block.is_backup {
            None
        } else {
            let a = block.addr();
            let dirty = self.shell.temp.get(a);
            dirty.or(naive.then(|| block.leaf())).map(|l| (a, l))
        };
        self.wpq.push_data(Self::wpq_entry(cell, block))?;
        let Some((a, l)) = flush else {
            return Ok(1);
        };
        self.wpq.push_posmap(WpqEntry {
            addr: self.posmap_entry_nvm_addr(a),
            value: (a, l),
        })?;
        Ok(2)
    }

    /// Metadata-entry address Naïve writes for a dummy slot. Dummy entries
    /// correspond to no particular table row; spread them over the entry
    /// region like real (block-address-indexed) entries so they exercise
    /// banks the same way.
    fn naive_slot_entry_addr(&self, bucket: u64, slot: usize) -> u64 {
        let slot_index = bucket * self.config.bucket_slots as u64 + slot as u64;
        let spread = slot_index.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        self.layout.posmap + (spread * 8) % (self.config.capacity_blocks() * 8)
    }

    fn posmap_entry_nvm_addr(&self, addr: BlockAddr) -> u64 {
        if let Some(rec) = &self.recursion {
            if let Some(level0) = rec.levels().first() {
                // The entry lives in a PosMap_1 block inside the posmap tree.
                return level0.base_addr
                    + rec.block_index(addr, 0) * self.config.block_bytes as u64;
            }
        }
        self.layout.posmap + addr.0 * 8
    }

    /// Immediately executes a power failure (also what an armed
    /// [`ProtocolPolicy::inject_crash`] plan runs).
    pub fn crash_now(&mut self) -> CrashReport {
        let stash_durable = self.variant.stash_durable();
        let (stash_blocks_lost, temp_entries_lost) = if stash_durable {
            (0, 0)
        } else {
            (self.stash.len(), self.shell.temp.len())
        };
        let (wpq_data_flushed, wpq_posmap_flushed) = power_fail(self);
        CrashReport {
            stash_blocks_lost,
            temp_entries_lost,
            wpq_data_flushed,
            wpq_posmap_flushed,
            stash_durable,
        }
    }

    /// Verifies the crash-recovery invariant: every address with a durably
    /// committed value has a copy in NVM (or, for durable-stash designs, in
    /// the stash) at its *persisted* PosMap position holding exactly that
    /// value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first inconsistency.
    pub fn check_recoverability(&self) -> Result<(), String> {
        let copies = PathCopies {
            levels: self.config.levels,
            cipher: self.encrypt_payloads.then_some(&self.cipher),
            stash: self.variant.stash_durable().then_some(&self.stash),
        };
        check_committed(
            self.tree.arena(),
            &self.shell.posmap,
            &self.shell.ledger,
            &copies,
        )
    }

    /// Checks every touched address against the appropriate ledger by
    /// what a read would return, without reading
    /// ([`ProtocolPolicy::verify_contents`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    pub fn verify_contents(&self, after_crash: bool) -> Result<(), String> {
        ProtocolPolicy::verify_contents(self, after_crash)
    }

    /// Occupied temporary-PosMap entries.
    pub fn temp_posmap_len(&self) -> usize {
        self.shell.temp.len()
    }

    /// The functional ORAM tree (inspection in tests and tools).
    pub fn tree(&self) -> &OramTree {
        &self.tree
    }
}

impl Rounds for PathOram {
    type Data = PlacedBlock;

    fn media(&mut self) -> Media<'_, PlacedBlock> {
        (&mut self.shell, &mut self.wpq, self.tree.arena_mut())
    }

    /// Applies one committed WPQ round to the NVM state: main PosMap and
    /// temp-entry retirement, the committed-value ledger, tree slots. The
    /// entries are consumed; the vectors keep their capacity.
    fn apply_round(&mut self, (data, posmap): &mut DrainedRound<PlacedBlock, PosMapFlush>) {
        // The PosMap entries go first: which committed copy of an address
        // is the recoverable one is decided against the *new* persisted
        // map, and deciding it while the block is still plaintext spares
        // a copy of every payload. (Their NVM addresses are kept for the
        // caller's timing; a power failure's flush times nothing.)
        (self.shell.scratch.entry_addrs).extend(posmap.iter().map(|e| e.addr));
        let entries = posmap.drain(..).map(|e| e.value);
        let flushed = self.shell.flush(entries, Listing::Join);
        self.stats.dirty_entries_flushed += flushed;
        self.stats.posmap_entry_writes += flushed;
        // The full-path rewrite covers dummy slots too: the data entries
        // carry the real blocks, and the remaining slots of the same
        // buckets are written as encrypted dummies by the same round. For
        // traffic/timing, the whole path's slots are issued by the caller.
        for e in data.iter_mut() {
            let b = &mut e.value.block;
            // Ledger: the recoverable value of an address is the
            // written copy that matches the persisted PosMap. Several
            // can commit in one round (a primary that re-drew its old
            // leaf plus its backup): offered in commit order, the
            // newest — highest freshness counter, the later on a tie —
            // is what the ledger keeps and what recovery restores.
            if recoverable(&self.shell.posmap, &b.header) {
                (self.shell.ledger).commit_if_fresh(b.addr().0, b.header.seq, &b.payload);
            }
            // Encrypted in place, the block's bytes move on into the tree.
            self.encrypt_for_tree(b);
        }
        let units = data.iter().map(|e| {
            let w = &e.value;
            (w.bucket, w.slot, Some(w.block.view()))
        });
        (self.shell.device).program(self.tree.arena_mut(), units.map(lone), Listing::Join);
        for e in data.drain(..) {
            self.shell.scratch.recycle(e.value.block);
        }
    }

    fn wipe(&mut self) {
        if !self.variant.stash_durable() {
            self.stash.wipe();
            self.shell.temp.wipe();
        }
        if let Some(rec) = &mut self.recursion {
            rec.wipe_plb();
        }
    }
}

impl ProtocolPolicy for PathOram {
    fn label(&self) -> String {
        format!("path/{}", self.variant.label())
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
        match self.variant {
            // Stash and PosMap live in on-chip NVM: a completed access is
            // durable before it returns.
            ProtocolVariant::FullNvm | ProtocolVariant::FullNvmStt => CommitModel::OnCompletion,
            // Persists the stash's dirty blocks to the reserved NVM
            // region every access, so completed writes never depend on
            // winning a slot in the eviction plan.
            ProtocolVariant::RcrPsOram => CommitModel::OnCompletion,
            // The WPQ makes each *eviction round* atomic, but a written
            // block that loses the greedy placement race (root bucket
            // full) stays in the volatile stash as an eviction leftover
            // until a later access evicts it — a crash in that window
            // rolls the address back to its previous completed write.
            ProtocolVariant::NaivePsOram | ProtocolVariant::PsOram => CommitModel::Deferred,
            // Baselines are judged by the strict model on purpose: they
            // claim nothing, and the oracle's violations on them are the
            // harness's differential teeth.
            ProtocolVariant::Baseline | ProtocolVariant::RcrBaseline => CommitModel::OnCompletion,
        }
    }
    fn shell(&self) -> &Shell {
        &self.shell
    }
    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn access(&mut self, addr: u64, data: Option<&[u8]>, arrival: u64) -> Access {
        let op = if data.is_some() { Op::Write } else { Op::Read };
        let (read, ready, _) = PathOram::access(self, op, BlockAddr(addr), data, arrival)?;
        Ok((read, ready))
    }

    /// A stash primary; else the newest copy on the path the current
    /// lookup names that carries that label (step ③'s pick), decrypted
    /// under its own `iv2`; else zeros (step ④'s fresh block).
    fn peek(&self, addr: u64, out: &mut Vec<u8>) {
        let addr = BlockAddr(addr);
        out.clear();
        if let Some(primary) = self.stash.get(addr) {
            out.extend_from_slice(&primary.payload);
            return;
        }
        let leaf = self.shell.lookup(addr);
        match (self.tree.arena()).newest_on_path(self.tree.path(leaf), addr, leaf) {
            Some(copy) => {
                out.extend_from_slice(copy.payload);
                if self.encrypt_payloads {
                    self.cipher.apply_keystream(copy.header.iv2 as u128, out);
                }
            }
            None => out.resize(self.config.payload_bytes, 0),
        }
    }

    fn crash_now(&mut self) {
        PathOram::crash_now(self);
    }

    /// What is Path's own is where a committed copy may sit and its
    /// decryption (`PathCopies`).
    fn recover(&mut self) -> RecoveryReport {
        let copies = PathCopies {
            levels: self.config.levels,
            cipher: self.encrypt_payloads.then_some(&self.cipher),
            stash: self.variant.stash_durable().then_some(&self.stash),
        };
        (self.shell).recover(self.tree.arena_mut(), &copies, |_, _, _, _| false)
    }

    /// The digest covers the materialized tree, the persisted PosMap and
    /// the committed ledger.
    fn state_digest(&self) -> u128 {
        self.shell.state_digest(self.tree.arena(), false)
    }
    fn stash_max_occupancy(&self) -> usize {
        self.stash.max_occupancy()
    }

    /// The WPQ variants are the hardened ones.
    fn enable_device_faults(&mut self, seed: u64, cfg: FaultConfig) {
        arm(self, seed, cfg, self.variant.uses_wpq());
    }

    fn nvm_layout(&self) -> NvmLayout {
        self.layout
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

#[cfg(test)]
mod tests {
    use psoram_nvm::FaultClass;

    use super::*;

    #[test]
    fn a_paper_scale_instance_stays_sparse() {
        // L = 23: 2^24 buckets, 2^25 addresses. 2,000 accesses touch at
        // most 24 buckets and one address each; the tables under them
        // must cost pages in proportion to that, not to the geometry.
        let cfg = OramConfig::paper_default();
        let capacity = cfg.capacity_blocks();
        let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 5);
        let mut x = 5u64;
        for _ in 0..2_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            oram.read(BlockAddr((x >> 20) % capacity)).unwrap();
        }
        let buckets = oram.tree.materialized_buckets();
        let pages = oram.tree.materialized_pages();
        assert!(buckets <= 2_000 * 24, "{buckets} buckets");
        // Measured: 26,213 buckets on 18,221 of the tree's 1,048,576
        // pages. The deep levels pay a page per lone bucket, so the bound
        // is ten pages an access, 7.3 MiB of pages in all.
        assert!(pages <= 20_000, "{pages} tree pages");
        // Every header, flag and payload byte of those buckets included
        // (measured: 2.5 MB — a bucket written only as dummies is four
        // flag bytes, and one that holds a block pays for its own four
        // slots, not for its page's other fifteen).
        let page_bytes = oram.tree.materialized_page_bytes();
        assert!(page_bytes <= 7_680_000, "{page_bytes} B of tree pages");
        // One page per touched address at worst, 64 B (labels) or 16 B.
        assert!(oram.shell.posmap.materialized_pages() <= 2_000);
        assert!(oram.shell.touched.pages() <= 2_000);
    }

    #[test]
    fn snapshot_store_exists_only_under_plans_that_replay() {
        use crate::testkit::{snapshot_store_exists_only_under_plans_that_replay as held, Design};
        held(|d| matches!(d, Design::Path(_)));
    }

    #[test]
    fn a_round_committed_but_not_drained_survives_the_power_failure() {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 33);
        oram.enable_device_faults(33, FaultConfig::disabled());
        for a in 0..40u64 {
            oram.write(BlockAddr(a), vec![a as u8; 8]).unwrap();
        }
        // A never-written address, bound for a dummy slot on its new
        // leaf's path: the end signal arrives, the drain does not.
        let (addr, leaf, value) = (BlockAddr(50), Leaf(5), vec![0xC7; 8]);
        let (bucket, slot) = (oram.tree.path(leaf))
            .flat_map(|b| (0..4).map(move |s| (b, s)))
            .find(|&(b, s)| oram.tree.slot_ref(b, s).is_none())
            .expect("a dummy slot on the path");
        oram.shell.seq_counter += 1;
        let mut block = Block::new(addr, leaf, value.clone());
        block.header.seq = oram.shell.seq_counter;
        oram.wpq.begin_round(&oram.shell.ctl).unwrap();
        let cell = FrameCell {
            bucket,
            slot,
            nvm_addr: oram.tree.slot_nvm_addr(bucket, slot),
        };
        oram.wpq
            .push_data(PathOram::wpq_entry(&cell, block))
            .unwrap();
        let entry = WpqEntry {
            addr: oram.posmap_entry_nvm_addr(addr),
            value: (addr, leaf),
        };
        oram.wpq.push_posmap(entry).unwrap();
        oram.wpq.commit_round(&oram.shell.ctl).unwrap();

        let flushed = oram.crash_now();
        assert_eq!(
            (flushed.wpq_data_flushed, flushed.wpq_posmap_flushed),
            (1, 1)
        );
        crate::testkit::the_committed_round_survived(&mut oram, addr.0, &value);
    }

    /// What the test below does to one slot of the path about to be read.
    #[derive(Debug, Clone, Copy)]
    enum SlotDamage {
        /// A payload byte of a real block flips; a dummy slot grows a
        /// block. Either way the record no longer covers what is read.
        Content,
        /// The record (and content) of one overwrite ago: authentic, at
        /// the right address, one counter behind.
        AgedRecord,
    }

    /// An armed L = 6 instance in which every slot of the tree has been
    /// written (hence is tracked), and an address to access next.
    fn armed_and_fully_tracked() -> (PathOram, BlockAddr) {
        let cfg = OramConfig::small_test();
        let capacity = cfg.capacity_blocks();
        let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 21);
        oram.enable_device_faults(21, FaultConfig::disabled());
        for i in 0..400u64 {
            let addr = BlockAddr(i.wrapping_mul(0x9E37_79B9) % capacity);
            oram.write(addr, vec![i as u8; 8]).unwrap();
        }
        (oram, BlockAddr(5))
    }

    #[test]
    fn every_slot_of_a_fetched_path_is_judged_before_admission() {
        let (probe, target) = armed_and_fully_tracked();
        let leaf = probe.shell.lookup(target);
        let z = probe.config.bucket_slots;
        let cells: Vec<(u64, usize)> = (probe.tree.path(leaf))
            .flat_map(|bucket| (0..z).map(move |slot| (bucket, slot)))
            .collect();
        assert_eq!(cells.len(), probe.config.path_slots());
        let (mut reals, mut dummies) = (0, 0);
        for &(bucket, slot) in &cells {
            for damage in [SlotDamage::Content, SlotDamage::AgedRecord] {
                let (mut oram, _) = armed_and_fully_tracked();
                assert_eq!(
                    oram.shell.lookup(target),
                    leaf,
                    "the set-up is deterministic"
                );
                let stored = oram.tree.arena().slot(bucket, slot).map(|b| b.to_block());
                let auth = oram.shell.device.auth.as_mut().expect("hardened");
                assert!(auth.slot_record(bucket, slot).is_some(), "tracked");
                let class = match damage {
                    SlotDamage::Content => {
                        let mut evil = stored.clone().unwrap_or_else(|| {
                            dummies += 1;
                            Block::new(BlockAddr(1), leaf, vec![0; 8])
                        });
                        reals += usize::from(stored.is_some());
                        evil.payload[3] ^= 0x20;
                        (oram.tree.arena_mut()).write(bucket, slot, Some(evil.view()));
                        FaultClass::MediaCorruption
                    }
                    SlotDamage::AgedRecord => {
                        let aged = auth.slot_record(bucket, slot);
                        auth.record_slot(bucket, slot, stored.as_ref().map(Block::view));
                        auth.set_slot_record(bucket, slot, aged);
                        FaultClass::StaleReplay
                    }
                };
                let before = oram.freshness_stats().fetch_poisons;
                assert_eq!(
                    oram.read(target),
                    Err(OramError::Poisoned { class }),
                    "{damage:?} at ({bucket}, {slot})"
                );
                assert_eq!(oram.freshness_stats().fetch_poisons, before + 1);
                assert_eq!(oram.poisoned(), Some(class));
            }
        }
        assert!(reals > 0 && dummies > 0, "{reals} real, {dummies} dummy");
    }
}

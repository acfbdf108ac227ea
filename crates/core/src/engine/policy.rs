//! The policy layer: protocol-variant metadata and the uniform
//! [`ProtocolPolicy`] trait the controllers implement.
//!
//! A *policy* is everything that names and characterizes a design —
//! which paper variant it is, whether it claims crash consistency, when
//! its completed writes become durable — plus the object-safe operation
//! surface the fault harness, system model, and benches drive it
//! through. The mechanics of persist rounds and crash scheduling live
//! one layer down in [`PersistEngine`](crate::engine::PersistEngine) and
//! [`EngineControl`](crate::engine::EngineControl).

use serde::{Deserialize, Serialize};

use psoram_nvm::MemTech;

use super::Shell;
use crate::crash::{CrashPoint, RecoveryReport};
use crate::types::OramError;

/// The persistent-ORAM protocol variants evaluated in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolVariant {
    /// Path ORAM on NVM without any crash-consistency support.
    Baseline,
    /// On-chip stash and PosMap built from PCM cells; persistent but not
    /// atomic.
    FullNvm,
    /// `FullNVM` with STT-RAM on-chip buffers.
    FullNvmStt,
    /// PS-ORAM persisting *all* `Z·(L+1)` PosMap entries per access.
    NaivePsOram,
    /// The paper's contribution: backup blocks + dirty-entry-only flushes
    /// through atomic WPQ rounds.
    PsOram,
    /// Recursive Path ORAM (PosMap in untrusted NVM) without stash
    /// persistence.
    RcrBaseline,
    /// Recursive PS-ORAM: recursive PosMap plus PS-ORAM data persistence.
    RcrPsOram,
}

impl ProtocolVariant {
    /// All seven variants, in the paper's presentation order.
    pub fn all() -> [ProtocolVariant; 7] {
        [
            ProtocolVariant::Baseline,
            ProtocolVariant::FullNvm,
            ProtocolVariant::FullNvmStt,
            ProtocolVariant::NaivePsOram,
            ProtocolVariant::PsOram,
            ProtocolVariant::RcrBaseline,
            ProtocolVariant::RcrPsOram,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolVariant::Baseline => "Baseline",
            ProtocolVariant::FullNvm => "FullNVM",
            ProtocolVariant::FullNvmStt => "FullNVM(STT)",
            ProtocolVariant::NaivePsOram => "Naive-PS-ORAM",
            ProtocolVariant::PsOram => "PS-ORAM",
            ProtocolVariant::RcrBaseline => "Rcr-Baseline",
            ProtocolVariant::RcrPsOram => "Rcr-PS-ORAM",
        }
    }

    /// `true` for the recursive-PosMap variants.
    pub fn is_recursive(self) -> bool {
        matches!(
            self,
            ProtocolVariant::RcrBaseline | ProtocolVariant::RcrPsOram
        )
    }

    /// `true` for variants that evict through the WPQ persistence domain
    /// (and therefore use the temporary PosMap and backup blocks).
    pub fn uses_wpq(self) -> bool {
        matches!(
            self,
            ProtocolVariant::NaivePsOram | ProtocolVariant::PsOram | ProtocolVariant::RcrPsOram
        )
    }

    /// On-chip buffer technology for the stash/PosMap, if not SRAM.
    pub fn onchip_tech(self) -> Option<MemTech> {
        match self {
            ProtocolVariant::FullNvm => Some(MemTech::Pcm),
            ProtocolVariant::FullNvmStt => Some(MemTech::SttRam),
            _ => None,
        }
    }

    /// `true` when the stash itself survives a power failure.
    pub fn stash_durable(self) -> bool {
        self.onchip_tech().is_some()
    }

    /// Whether the design is expected to recover consistently from a crash
    /// at *any* point (the paper's claim for the PS-ORAM family).
    pub fn is_crash_consistent(self) -> bool {
        self.uses_wpq()
    }
}

impl std::fmt::Display for ProtocolVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Persistence flavour of the Ring ORAM controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RingVariant {
    /// Volatile stash/PosMap; bucket rewrites hit the NVM directly.
    Baseline,
    /// PS-style crash consistency: temporary PosMap plus atomic WPQ rounds
    /// for every bucket rewrite.
    PsRing,
}

impl RingVariant {
    /// Both flavours.
    pub fn all() -> [RingVariant; 2] {
        [RingVariant::Baseline, RingVariant::PsRing]
    }

    /// `true` for the flavour that rewrites buckets through atomic WPQ
    /// rounds (and therefore carries the temporary PosMap and, under
    /// device faults, the integrity layer).
    pub fn uses_wpq(self) -> bool {
        self == RingVariant::PsRing
    }

    /// Whether the flavour is expected to recover consistently from a
    /// crash at *any* point.
    pub fn is_crash_consistent(self) -> bool {
        self.uses_wpq()
    }
}

impl std::fmt::Display for RingVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RingVariant::Baseline => write!(f, "Ring-Baseline"),
            RingVariant::PsRing => write!(f, "PS-Ring-ORAM"),
        }
    }
}

/// When a design's completed writes become durable.
///
/// Drives the differential oracle's admissible-value set after a crash:
/// an `OnCompletion` design must preserve every completed write, while a
/// `Deferred` design may roll an address back to an earlier completed
/// write (but never to a value outside its history).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitModel {
    /// Every completed access is durable before it returns (Path ORAM).
    OnCompletion,
    /// Writes persist lazily at eviction boundaries (Ring ORAM).
    Deferred,
}

/// What an access comes back with: the value read (`None` for a write)
/// and the core cycle it is ready.
pub type Access = Result<(Option<Vec<u8>>, u64), OramError>;

/// Where a design's NVM regions lie, as public as its geometry: the
/// tree's buckets in heap order from address 0, then the metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvmLayout {
    /// Bytes of one bucket.
    pub bucket_bytes: u64,
    /// Bytes of the tree: the region the endurance adversary wears.
    pub tree_bytes: u64,
    /// Base of the PosMap entries, 8 B each, indexed by logical address.
    pub posmap: u64,
    /// Base of the stash snapshot, past the recursion's trees.
    pub stash: u64,
}

impl NvmLayout {
    /// A tree of `buckets` buckets of `bucket_bytes` and no metadata.
    pub fn tree_only(buckets: u64, bucket_bytes: u64) -> NvmLayout {
        let tree_bytes = buckets * bucket_bytes;
        let (posmap, stash) = (tree_bytes, tree_bytes);
        NvmLayout {
            bucket_bytes,
            tree_bytes,
            posmap,
            stash,
        }
    }
}

/// The uniform surface of an ORAM protocol variant over the shared
/// persist engine.
///
/// Everything above the controllers — the fault-injection harness, the
/// system model, the benches, and the parameterized crash tests — drives
/// designs through this one object-safe trait, so a new protocol variant
/// joins every sweep, campaign, and test by implementing it. What a
/// protocol writes is what names it, its [`Shell`] accessors and what
/// only it can do (an access, a power failure, a recovery, whatever
/// touches its arena or its typed queues); every control that reads or
/// writes the shell alone is provided.
pub trait ProtocolPolicy {
    /// Human-readable design name (used in reports).
    fn label(&self) -> String;
    /// Addressable logical blocks.
    fn capacity_blocks(&self) -> u64;
    /// Functional payload size in bytes.
    fn payload_bytes(&self) -> usize;
    /// Whether the design claims crash consistency (the oracle's
    /// expectation: `true` means any violation is a bug).
    fn crash_consistent(&self) -> bool;
    /// When this design's completed writes become durable.
    fn commit_model(&self) -> CommitModel;
    /// The state the design shares with every other.
    fn shell(&self) -> &Shell;
    /// [`ProtocolPolicy::shell`], mutably.
    fn shell_mut(&mut self) -> &mut Shell;

    /// One access to logical block `addr` arriving at core cycle
    /// `arrival`: a write of `data` if given, else a read. Returns the
    /// value read (`None` for a write) and the cycle it is ready.
    ///
    /// # Errors
    ///
    /// The controller's [`OramError`] (notably [`OramError::Crashed`] when
    /// an armed crash fires).
    fn access(&mut self, addr: u64, data: Option<&[u8]>, arrival: u64) -> Access;
    /// The value a read of logical block `addr` would return now, into
    /// `out` (emptied first): the protocol's own read selection — its
    /// stash, else the copy its fetch would take from the path its PosMap
    /// names, else zeros — without the read. Nothing moves and nothing is
    /// counted, charged or drawn from a fault plan, and the wire serves
    /// nothing: this is the media as it stands.
    fn peek(&self, addr: u64, out: &mut Vec<u8>);
    /// Immediately executes a power failure.
    fn crash_now(&mut self);
    /// Recovers after a crash and checks the result: the persisted PosMap
    /// becomes the working map (the paper's §4.3) and normal operation
    /// resumes. The [`RecoveryReport`] carries the consistency verdict and,
    /// on failure, the violation text; it is retained in
    /// [`ProtocolPolicy::last_recovery`] and failures are counted.
    ///
    /// With device faults enabled on a hardened design, recovery runs the
    /// full detect → classify → repair → fail-safe pipeline first
    /// ([`crate::engine`]'s ladder): a CMAC scan wipes slots and PosMap
    /// entries that fail authentication, each damaged committed address is
    /// restored from its newest surviving authenticated copy, and
    /// addresses with no surviving copy are rolled back with a typed
    /// [`RecoveryError`](crate::RecoveryError) instead of serving corrupt
    /// data.
    ///
    /// Idempotent: calling `recover` on a design that is not crashed
    /// repeats the last verdict without touching state or counters.
    fn recover(&mut self) -> RecoveryReport;
    /// A deterministic digest over the design's recoverable state, for
    /// idempotency regression checks.
    fn state_digest(&self) -> u128;
    /// The most blocks the design's stash has held at once.
    fn stash_max_occupancy(&self) -> usize;
    /// Makes the design's WPQ/NVM backend adversarial: installs a seeded
    /// [`FaultPlan`](psoram_nvm::FaultPlan) that injects torn flushes,
    /// lost/duplicated drainer signals, bit rot, and transient read errors.
    ///
    /// Hardened (WPQ) designs additionally arm the integrity layer: CMAC
    /// tags over every slot on media and every persisted PosMap entry
    /// and a rolling seal over the temporary PosMap — recovery then
    /// detects, classifies, and repairs the damage.
    /// Baselines get the same faults with no defenses, so the differential
    /// campaigns keep their detection power.
    fn enable_device_faults(&mut self, seed: u64, cfg: psoram_nvm::FaultConfig);
    /// Where the design's NVM regions lie.
    fn nvm_layout(&self) -> NvmLayout;
    /// Accumulated statistics of the design's (data, PosMap) WPQs.
    fn wpq_stats(&self) -> (psoram_nvm::WpqStats, psoram_nvm::WpqStats);
    /// Wires an observability tap through the whole stack: access/phase
    /// events in the controller, round and WPQ events in the persist
    /// engine, and bank-level events in the NVM controller. The tap only
    /// observes — simulated timing and state are unchanged (enforced by
    /// the paired-run identity tests).
    fn set_obsv_tap(&mut self, tap: psoram_obsv::Tap);
    /// Publishes the design's counters into a metrics registry under
    /// `prefix`.
    fn publish_metrics(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry);

    /// Arms the endurance adversary over the design's tree region:
    /// per-line write accounting (seeded cell budgets around
    /// `cfg.mean_endurance`) plus the chosen wear-leveling scheme. Gap
    /// moves and retirements stage against the durable mapping and only
    /// become durable in the persist engine's commit round, so a crash
    /// mid-gap-move or mid-retirement rolls back to one consistent
    /// mapping. Wear-induced faults additionally require an installed
    /// device fault plan with a wear arm (`FaultConfig::wear_only` or
    /// `FaultConfig::wear_mix`); without one this is accounting only.
    fn enable_wear(&mut self, seed: u64, cfg: psoram_nvm::WearConfig) {
        let bytes = self.nvm_layout().tree_bytes;
        self.shell_mut().arm_wear(seed, bytes, cfg);
    }

    /// Reads logical block `addr` at the design's own clock.
    ///
    /// # Errors
    ///
    /// As [`ProtocolPolicy::access`].
    fn read(&mut self, addr: u64) -> Result<Vec<u8>, OramError> {
        let arrival = self.shell().clock;
        let (value, done) = self.access(addr, None, arrival)?;
        self.shell_mut().clock = done;
        value.ok_or(OramError::Invariant {
            context: "an access without data returns the value it read",
        })
    }
    /// Writes `data` to logical block `addr` at the design's own clock,
    /// from borrowed bytes: the access copies them once, into the stash.
    ///
    /// # Errors
    ///
    /// As [`ProtocolPolicy::access`].
    fn write_from(&mut self, addr: u64, data: &[u8]) -> Result<(), OramError> {
        let arrival = self.shell().clock;
        let (_, done) = self.access(addr, Some(data), arrival)?;
        self.shell_mut().clock = done;
        Ok(())
    }
    /// [`ProtocolPolicy::write_from`] for callers that hand their buffer
    /// over.
    ///
    /// # Errors
    ///
    /// As [`ProtocolPolicy::access`].
    fn write(&mut self, addr: u64, data: Vec<u8>) -> Result<(), OramError> {
        self.write_from(addr, &data)
    }
    /// Checks every touched address, ascending, against the appropriate
    /// ledger ([`CommitLedger::expected`](crate::engine::CommitLedger::expected)):
    /// the last *written* value if the design never crashed; after a crash
    /// and recovery, the *committed* value the recovery restored (falling
    /// back to zeros), or the last write served since. Each address is
    /// checked by the value a read would return now
    /// ([`ProtocolPolicy::peek`]), so the check only observes: no access,
    /// clock, remap, eviction, ledger or statistics update and no
    /// fault-plan draw. A crashed or poisoned design fails it as its first
    /// read would. It judges values, not media health: a fetch's judge
    /// runs on reads, not here.
    ///
    /// # Errors
    ///
    /// Returns a description of the first refusal or mismatch.
    fn verify_contents(&self, after_crash: bool) -> Result<(), String> {
        let shell = self.shell();
        shell.ctl.in_service().map_err(|e| e.to_string())?;
        let bytes = self.payload_bytes();
        let mut got = Vec::with_capacity(bytes);
        for (a, ()) in shell.touched.iter() {
            self.peek(a, &mut got);
            let expected = shell.ledger.expected(a, after_crash);
            let zeros = || got.len() == bytes && got.iter().all(|&b| b == 0);
            let matches = expected.map_or_else(zeros, |e| got == e);
            if !matches {
                let zeros = vec![0; bytes];
                let expected = expected.unwrap_or(&zeros);
                return Err(format!("a{a}: read {got:?}, expected {expected:?}"));
            }
        }
        Ok(())
    }

    /// Arms a crash to fire at `point` during the next access.
    fn inject_crash(&mut self, point: CrashPoint) {
        self.shell_mut().ctl.inject_crash(point);
    }
    /// Disarms a pending crash plan that has not fired (e.g. a
    /// `DuringEviction` index beyond the access's batch count).
    fn disarm_crash(&mut self) {
        self.shell_mut().ctl.disarm_crash();
    }
    /// Schedules a crash to fire at `point` during access attempt
    /// `access_index` (0-based, counting every access entry — including
    /// attempts that themselves crashed; see
    /// [`ProtocolPolicy::access_attempts`]).
    ///
    /// Unlike `inject_crash`, which arms only the very next access, a
    /// schedule can hold many future crashes at once; entries must be
    /// added in ascending index order and are consumed as the attempt
    /// counter reaches them. An index already in the past is silently
    /// never reached — use `clear_crash_schedule` to drop stale entries.
    fn schedule_crash(&mut self, access_index: u64, point: CrashPoint) {
        self.shell_mut().ctl.schedule_crash(access_index, point);
    }
    /// Drops all scheduled crashes that have not fired.
    fn clear_crash_schedule(&mut self) {
        self.shell_mut().ctl.clear_crash_schedule();
    }
    /// Total access attempts so far (including attempts that crashed
    /// mid-way); the index the next attempt will carry for
    /// `schedule_crash`.
    fn access_attempts(&self) -> u64 {
        self.shell().ctl.access_attempts()
    }
    /// `true` between a crash and the matching [`ProtocolPolicy::recover`].
    fn is_crashed(&self) -> bool {
        self.shell().ctl.is_crashed()
    }
    /// The report of the most recent recovery, if any.
    fn last_recovery(&self) -> Option<&RecoveryReport> {
        self.shell().ctl.last_recovery()
    }
    /// The latched fail-safe class, if the design poisoned itself on
    /// unrepairable damage.
    fn poisoned(&self) -> Option<psoram_nvm::FaultClass> {
        self.shell().ctl.poisoned()
    }
    /// The design's core-cycle clock (advanced by `read`/`write`).
    fn clock(&self) -> u64 {
        self.shell().clock
    }
    /// NVM traffic counters (reads/writes reaching the memory).
    fn nvm_stats(&self) -> psoram_nvm::NvmStats {
        *self.shell().nvm.stats()
    }
    /// The underlying NVM controller (timing state, wear map, ...).
    fn nvm(&self) -> &psoram_nvm::NvmController {
        &self.shell().nvm
    }
    /// Attaches an observability recorder behind a fresh shared tap.
    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn psoram_obsv::Recorder>) {
        self.set_obsv_tap(psoram_obsv::Tap::attached(recorder));
    }
    /// Ground-truth injection counters of the installed fault plan, if
    /// any.
    fn device_fault_stats(&self) -> Option<psoram_nvm::FaultStats> {
        self.shell().device.fault_stats()
    }
    /// Fetch-path freshness counters: stale units the adversary served on
    /// the read wire, how many the hardened verifier detected, and
    /// fetch-path poisons.
    fn freshness_stats(&self) -> crate::auth::FreshnessStats {
        self.shell().device.freshness_stats()
    }
    /// Wear/leveling counters of the armed endurance adversary, if any.
    fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
        self.wear_engine().map(psoram_nvm::WearEngine::stats)
    }
    /// The endurance adversary's engine (mapping, per-line writes), if
    /// armed.
    fn wear_engine(&self) -> Option<&psoram_nvm::WearEngine> {
        self.shell().device.wear.as_ref()
    }
    /// Physical-line wear profile of the armed endurance adversary:
    /// `(max_line_writes, lines_touched)`. The lifetime campaigns divide
    /// the hottest line's write count by access count to project
    /// years-to-failure per leveling scheme.
    fn wear_line_profile(&self) -> Option<(u64, u64)> {
        self.wear_engine()
            .map(|w| (w.max_line_writes(), w.lines_touched()))
    }
    /// Spare lines the retirement layer still holds, once wear is armed.
    fn wear_spares_left(&self) -> Option<u64> {
        self.wear_engine().map(|w| w.spares_left())
    }
}

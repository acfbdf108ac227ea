//! The policy layer: protocol-variant metadata and the uniform
//! [`ProtocolPolicy`] trait the controllers implement.
//!
//! A *policy* is everything that names and characterizes a design —
//! which paper variant it is, whether it claims crash consistency, when
//! its completed writes become durable — plus the object-safe operation
//! surface the fault harness, system model, and benches drive it
//! through. The mechanics of persist rounds and crash scheduling live
//! one layer down in [`PersistEngine`](crate::engine::PersistEngine).

use serde::{Deserialize, Serialize};

use psoram_nvm::MemTech;

use crate::controller::PathOram;
use crate::crash::{CrashPoint, RecoveryReport};
use crate::ring::RingOram;
use crate::types::{BlockAddr, OramError};

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

/// The uniform surface of an ORAM protocol variant over the shared
/// persist engine.
///
/// Everything above the controllers — the fault-injection harness, the
/// system model, the benches, and the parameterized crash tests — drives
/// designs through this one object-safe trait, so a new protocol variant
/// joins every sweep, campaign, and test by implementing it.
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
    /// Writes `data` to logical block `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the controller's [`OramError`] (notably
    /// [`OramError::Crashed`] when an armed crash fires).
    fn write(&mut self, addr: u64, data: Vec<u8>) -> Result<(), OramError>;
    /// [`ProtocolPolicy::write`] from borrowed bytes, for callers that
    /// keep their buffer: the access copies the bytes once, into the
    /// stash.
    ///
    /// # Errors
    ///
    /// As [`ProtocolPolicy::write`].
    fn write_from(&mut self, addr: u64, data: &[u8]) -> Result<(), OramError>;
    /// Reads logical block `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the controller's [`OramError`].
    fn read(&mut self, addr: u64) -> Result<Vec<u8>, OramError>;
    /// Arms a crash plan; it fires when the access reaches `point`.
    fn inject_crash(&mut self, point: CrashPoint);
    /// Drops any armed crash plan.
    fn disarm_crash(&mut self);
    /// Schedules a crash to arm when access attempt `access_index` begins.
    fn schedule_crash(&mut self, access_index: u64, point: CrashPoint);
    /// Drops all scheduled crashes that have not fired.
    fn clear_crash_schedule(&mut self);
    /// Access attempts made so far (including ones that crashed).
    fn access_attempts(&self) -> u64;
    /// `true` between a crash and the matching [`ProtocolPolicy::recover`].
    fn is_crashed(&self) -> bool;
    /// Immediately executes a power failure.
    fn crash_now(&mut self);
    /// Runs the design's recovery procedure and consistency check.
    fn recover(&mut self) -> RecoveryReport;
    /// The report of the most recent recovery, if any.
    fn last_recovery(&self) -> Option<&RecoveryReport>;
    /// Reads back every touched address and compares it with the
    /// appropriate ledger (committed after a crash, written otherwise).
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    fn verify_contents(&mut self, after_crash: bool) -> Result<(), String>;
    /// The controller's core-cycle clock.
    fn clock(&self) -> u64;
    /// NVM traffic counters (reads/writes reaching the memory).
    fn nvm_stats(&self) -> psoram_nvm::NvmStats;
    /// Attaches an observability recorder behind a fresh shared tap.
    ///
    /// The default implementation ignores the recorder, so policies that
    /// do not model tracing stay valid.
    fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn psoram_obsv::Recorder>) {
        let _ = recorder;
    }
    /// Publishes the design's counters into a metrics registry under
    /// `prefix`. The default implementation publishes nothing.
    fn publish_metrics(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        let _ = (prefix, reg);
    }
    /// Makes the design's NVM backend adversarial with a seeded device
    /// fault plan (and arms integrity hardening where the design supports
    /// it). The default implementation ignores the plan, so policies
    /// without a device model stay valid.
    fn enable_device_faults(&mut self, seed: u64, cfg: psoram_nvm::FaultConfig) {
        let _ = (seed, cfg);
    }
    /// Ground-truth injection counters of the installed fault plan, if
    /// any. `None` when no plan is installed (or supported).
    fn device_fault_stats(&self) -> Option<psoram_nvm::FaultStats> {
        None
    }
    /// The latched fail-safe class, if the design poisoned itself on
    /// unrepairable damage.
    fn poisoned(&self) -> Option<psoram_nvm::FaultClass> {
        None
    }
    /// A deterministic digest over the design's recoverable state, for
    /// idempotency regression checks. `0` when the design does not model
    /// one.
    fn state_digest(&self) -> u128 {
        0
    }
    /// Freshness counters (stale serves observed vs detected, fetch-path
    /// poisons). The default implementation reports zeroes, so policies
    /// without a device model stay valid.
    fn freshness_stats(&self) -> crate::auth::FreshnessStats {
        crate::auth::FreshnessStats::default()
    }
    /// Arms the endurance adversary: per-line wear accounting plus the
    /// chosen wear-leveling scheme, with mapping changes committed in the
    /// persistence domain's commit round. The default implementation
    /// ignores the request, so policies without a device model stay valid.
    fn enable_wear(&mut self, seed: u64, cfg: psoram_nvm::WearConfig) {
        let _ = (seed, cfg);
    }
    /// Wear/leveling counters of the armed endurance adversary, if any.
    /// `None` when wear is not enabled (or supported).
    fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
        None
    }
    /// Physical-line wear profile of the armed endurance adversary:
    /// `(max_line_writes, lines_touched)`. The lifetime campaigns divide
    /// the hottest line's write count by access count to project
    /// years-to-failure per leveling scheme. `None` when wear is not
    /// enabled (or supported).
    fn wear_line_profile(&self) -> Option<(u64, u64)> {
        None
    }
    /// Spare lines the retirement layer still holds. `None` when wear is
    /// not enabled (or supported).
    fn wear_spares_left(&self) -> Option<u64> {
        None
    }
}

/// Expands, inside an `impl ProtocolPolicy for $ctl` block, to every
/// method that only forwards to the controller's inherent method of the
/// same name (most of them generated there by `impl_crash_controls!`).
/// What a protocol writes by hand is what names and characterizes it:
/// `label`, `capacity_blocks`, `payload_bytes`, `crash_consistent` and
/// `commit_model`.
macro_rules! forward_to_controller {
    ($ctl:ty) => {
        fn write(&mut self, addr: u64, data: Vec<u8>) -> Result<(), OramError> {
            <$ctl>::write(self, BlockAddr(addr), data)
        }
        fn write_from(&mut self, addr: u64, data: &[u8]) -> Result<(), OramError> {
            <$ctl>::write_from(self, BlockAddr(addr), data)
        }
        fn read(&mut self, addr: u64) -> Result<Vec<u8>, OramError> {
            <$ctl>::read(self, BlockAddr(addr))
        }
        fn inject_crash(&mut self, point: CrashPoint) {
            <$ctl>::inject_crash(self, point);
        }
        fn disarm_crash(&mut self) {
            <$ctl>::disarm_crash(self);
        }
        fn schedule_crash(&mut self, access_index: u64, point: CrashPoint) {
            <$ctl>::schedule_crash(self, access_index, point);
        }
        fn clear_crash_schedule(&mut self) {
            <$ctl>::clear_crash_schedule(self);
        }
        fn access_attempts(&self) -> u64 {
            <$ctl>::access_attempts(self)
        }
        fn is_crashed(&self) -> bool {
            <$ctl>::is_crashed(self)
        }
        fn crash_now(&mut self) {
            <$ctl>::crash_now(self);
        }
        fn recover(&mut self) -> RecoveryReport {
            <$ctl>::recover(self)
        }
        fn last_recovery(&self) -> Option<&RecoveryReport> {
            <$ctl>::last_recovery(self)
        }
        fn verify_contents(&mut self, after_crash: bool) -> Result<(), String> {
            <$ctl>::verify_contents(self, after_crash)
        }
        fn clock(&self) -> u64 {
            <$ctl>::clock(self)
        }
        fn nvm_stats(&self) -> psoram_nvm::NvmStats {
            <$ctl>::nvm_stats(self)
        }
        fn attach_recorder(&mut self, recorder: std::sync::Arc<dyn psoram_obsv::Recorder>) {
            <$ctl>::attach_obsv_recorder(self, recorder);
        }
        fn publish_metrics(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
            use psoram_obsv::{MetricsRegistry as R, MetricsSource};
            self.stats().publish(&R::key(prefix, "oram"), reg);
            self.nvm_stats().publish(&R::key(prefix, "nvm"), reg);
            let (data, posmap) = self.wpq_stats();
            data.publish(&R::key(prefix, "wpq.data"), reg);
            posmap.publish(&R::key(prefix, "wpq.posmap"), reg);
            if let Some(w) = self.wear_engine() {
                w.publish(&R::key(prefix, "wear"), reg);
                self.nvm()
                    .wear_report(8)
                    .publish(&R::key(prefix, "nvm.wear"), reg);
            }
        }
        fn enable_device_faults(&mut self, seed: u64, cfg: psoram_nvm::FaultConfig) {
            <$ctl>::enable_device_faults(self, seed, cfg);
        }
        fn enable_wear(&mut self, seed: u64, cfg: psoram_nvm::WearConfig) {
            <$ctl>::enable_wear(self, seed, cfg);
        }
        fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
            <$ctl>::wear_stats(self)
        }
        fn wear_line_profile(&self) -> Option<(u64, u64)> {
            self.wear_engine()
                .map(|w| (w.max_line_writes(), w.lines_touched()))
        }
        fn wear_spares_left(&self) -> Option<u64> {
            self.wear_engine().map(|w| w.spares_left())
        }
        fn device_fault_stats(&self) -> Option<psoram_nvm::FaultStats> {
            <$ctl>::device_fault_stats(self)
        }
        fn poisoned(&self) -> Option<psoram_nvm::FaultClass> {
            <$ctl>::poisoned(self)
        }
        fn state_digest(&self) -> u128 {
            <$ctl>::state_digest(self)
        }
        fn freshness_stats(&self) -> crate::auth::FreshnessStats {
            <$ctl>::freshness_stats(self)
        }
    };
}

impl ProtocolPolicy for PathOram {
    fn label(&self) -> String {
        format!("path/{}", self.variant().label())
    }
    fn capacity_blocks(&self) -> u64 {
        self.config().capacity_blocks()
    }
    fn payload_bytes(&self) -> usize {
        self.config().payload_bytes
    }
    fn crash_consistent(&self) -> bool {
        self.variant().is_crash_consistent()
    }
    fn commit_model(&self) -> CommitModel {
        match self.variant() {
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
    forward_to_controller!(PathOram);
}

impl ProtocolPolicy for RingOram {
    fn label(&self) -> String {
        format!("ring/{}", self.variant())
    }
    fn capacity_blocks(&self) -> u64 {
        self.config().capacity_blocks()
    }
    fn payload_bytes(&self) -> usize {
        self.config().payload_bytes
    }
    fn crash_consistent(&self) -> bool {
        self.variant() == RingVariant::PsRing
    }
    fn commit_model(&self) -> CommitModel {
        // Ring ORAM only writes buckets back every `A` accesses: a
        // completed write may sit volatile until the next evict-path.
        CommitModel::Deferred
    }
    forward_to_controller!(RingOram);
}

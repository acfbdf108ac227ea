//! The shared persist-round engine beneath the ORAM controllers.
//!
//! The paper's central mechanism — atomic persist rounds of *start signal
//! → persist units through the WPQ → end signal*, plus crash arming and
//! the crash/recover state machine — is protocol-agnostic: Path ORAM and
//! Ring ORAM differ in *what* they persist (slot writes vs whole-bucket
//! rewrites) and *when* (every access vs every `A` accesses), but not in
//! *how* a round commits or what a crash discards. This module owns that
//! shared machinery exactly once:
//!
//! * [`PersistEngine`] — the WPQ persist-round protocol over a
//!   [`psoram_nvm::PersistenceDomain`], crash arming & scheduling
//!   (`inject_crash`/`schedule_crash`/`access_attempts`), the
//!   crashed-state latch, and the engine-owned crash/recovery/stall
//!   counters ([`EngineStats`]).
//! * [`CommitLedger`] — the written-vs-durably-committed value ledgers
//!   with the freshness-counter staleness guard, shared by every
//!   controller's recoverability oracle.
//! * [`ProtocolPolicy`] — the object-safe trait the controllers implement;
//!   everything above the controllers (fault harness, system model,
//!   benches) drives designs through this one surface, and
//!   [`CommitModel`] tells the differential oracle when a design's
//!   completed writes become durable.
//! * `DeviceSide` (`device.rs`) — the fault plan's hands on a
//!   controller's media (snapshots, crash damage, stale serves) and the
//!   integrity layer that answers them, with the guards a fetch runs.
//! * `Ladder` (`recover.rs`) — recovery's detect → classify → repair →
//!   rollback rungs over the shared arena, PosMap and ledger.
//!
//! A new ORAM protocol variant implements `ProtocolPolicy` (path
//! selection, eviction, commit model), holds a `DeviceSide`, walks the
//! `Ladder` in its `recover`, and reuses the engine for the entire
//! crash-consistency protocol — instead of forking a 1,400-line
//! controller.

mod device;
mod ledger;
mod persist;
mod policy;
mod recover;
mod scratch;

pub(crate) use device::DeviceSide;
pub use ledger::CommitLedger;
pub(crate) use persist::fault_kind;
pub use persist::{EngineStats, PersistEngine, RoundDamage, WearReadOutcome};
pub use policy::{CommitModel, ProtocolPolicy, ProtocolVariant, RingVariant};
pub(crate) use recover::{check_committed, Copies, Ladder, Media};
pub(crate) use scratch::{AccessScratch, FrameCell, PathFrame, RewriteTables};

use psoram_crypto::Hash128;
use psoram_nvm::CORE_CYCLES_PER_MEM_CYCLE;

use crate::arena::SlotArena;
use crate::posmap::PosMap;
use crate::types::OramError;

/// Converts a core-cycle timestamp to memory-controller cycles (floor).
pub(crate) fn to_mem(core: u64) -> u64 {
    core / CORE_CYCLES_PER_MEM_CYCLE
}

/// Converts a memory-controller cycle back to core cycles.
pub(crate) fn to_core(mem: u64) -> u64 {
    mem * CORE_CYCLES_PER_MEM_CYCLE
}

/// A deterministic digest over a controller's recoverable state: the
/// materialised buckets in index order (content; with `read_marks`, Ring's
/// valid bits and read counts too), the persisted PosMap, the committed
/// ledger and — in wear mode only, so wear-free digests are byte-for-byte
/// what pre-endurance builds computed — the durable line mapping. Two
/// controllers in byte-identical recoverable state hash equal; the
/// double-recover idempotency regression tests rely on it.
pub(crate) fn state_digest(
    arena: &SlotArena,
    read_marks: bool,
    posmap: &PosMap,
    ledger: &CommitLedger,
    wear_mapping: Option<u64>,
) -> u128 {
    let mut bytes = Vec::new();
    for (idx, bucket) in arena.iter() {
        bytes.extend_from_slice(&idx.to_le_bytes());
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
        if read_marks {
            bytes.extend((0..bucket.num_slots()).map(|s| bucket.is_valid(s) as u8));
            bytes.extend_from_slice(&(bucket.reads() as u64).to_le_bytes());
        }
    }
    for (a, l) in posmap.persisted_sorted() {
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(&l.to_le_bytes());
    }
    let mut committed: Vec<(u64, &Vec<u8>)> = ledger.committed_iter().collect();
    committed.sort_unstable_by_key(|&(a, _)| a);
    for (a, v) in committed {
        bytes.extend_from_slice(&a.to_le_bytes());
        bytes.extend_from_slice(v);
    }
    if let Some(d) = wear_mapping {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    u128::from_le_bytes(Hash128::new().digest(&bytes))
}

/// Reads back every `touched` address, ascending, and compares it with
/// what the ledger expects. `probe` returns the expectation — snapshotted
/// *before* the read, which is a fresh access and updates the ledgers —
/// and the read's outcome; `note` closes the mismatch message.
///
/// # Errors
///
/// Returns a description of the first failed read or mismatch.
pub(crate) fn verify_contents(
    touched: Vec<u64>,
    note: &str,
    mut probe: impl FnMut(u64) -> (Vec<u8>, Result<Vec<u8>, OramError>),
) -> Result<(), String> {
    for a in touched {
        let (expected, got) = probe(a);
        let got = got.map_err(|e| e.to_string())?;
        if got != expected {
            return Err(format!("a{a}: read {got:?}, expected {expected:?}{note}"));
        }
    }
    Ok(())
}

/// Expands to the crash, device, recovery and observation surface every
/// controller exposes: thin public wrappers over its embedded
/// [`PersistEngine`] (a `self.engine` field), [`DeviceSide`]
/// (`self.device`) and NVM (`self.nvm`, with the `self.clock` and
/// `self.obsv` tap beside it), its `stats()` snapshot (a `self.stats` field
/// of type `$stats`, the engine-owned counters merged in), plus the private
/// `maybe_crash` step guard, which turns a fired crash plan into
/// volatile-state loss via the controller's own `execute_crash`. Defined
/// once so the surface cannot drift between controllers — a new protocol
/// variant gets the identical API by invoking this macro inside its `impl`
/// block.
macro_rules! impl_crash_controls {
    ($stats:ty) => {
        /// The controller's core-cycle clock (advanced by `read`/`write`).
        pub fn clock(&self) -> u64 {
            self.clock
        }

        /// NVM traffic statistics.
        pub fn nvm_stats(&self) -> psoram_nvm::NvmStats {
            *self.nvm.stats()
        }

        /// The underlying NVM controller (timing state, wear map, ...).
        pub fn nvm(&self) -> &psoram_nvm::NvmController {
            &self.nvm
        }

        /// Accumulated statistics of the engine's (data, PosMap) WPQs.
        pub fn wpq_stats(&self) -> (psoram_nvm::WpqStats, psoram_nvm::WpqStats) {
            self.engine.wpq_stats()
        }

        /// Wires an observability tap through the whole controller stack:
        /// access/phase events in the controller, round and WPQ events in
        /// the persist engine, and bank-level events in the NVM
        /// controller. The tap only observes — simulated timing and state
        /// are unchanged (enforced by the paired-run identity tests).
        pub fn set_obsv_tap(&mut self, tap: psoram_obsv::Tap) {
            self.engine.set_tap(tap.clone());
            self.nvm.set_tap(tap.clone());
            self.obsv = tap;
        }

        /// Convenience: builds a tap over `recorder` and wires it in via
        /// `set_obsv_tap`.
        pub fn attach_obsv_recorder(
            &mut self,
            recorder: std::sync::Arc<dyn psoram_obsv::Recorder>,
        ) {
            self.set_obsv_tap(psoram_obsv::Tap::attached(recorder));
        }

        /// Controller statistics. The crash/recovery/stall counters live
        /// in the shared persist engine and are merged into the snapshot
        /// here.
        pub fn stats(&self) -> $stats {
            let mut s = self.stats;
            let e = self.engine.stats();
            s.crashes = e.crashes;
            s.recoveries = e.recoveries;
            s.recovery_failures = e.recovery_failures;
            s.wpq_stalls = e.wpq_stalls;
            s
        }

        /// Ground-truth injection counters of the installed fault plan,
        /// if any.
        pub fn device_fault_stats(&self) -> Option<psoram_nvm::FaultStats> {
            self.engine.fault_stats()
        }

        /// The shared tail of `enable_wear`: arms the wear engine over an
        /// NVM region of `bytes` bytes and, with it, the NVM controller's
        /// per-line write counts — the table only the armed adversary's
        /// report (`publish_metrics`) reads.
        fn arm_wear(&mut self, seed: u64, bytes: u64, cfg: psoram_nvm::WearConfig) {
            let lines = bytes.div_ceil(psoram_nvm::WEAR_LINE_BYTES).max(1);
            self.engine.enable_wear(seed, lines, cfg);
            self.nvm.count_lines();
        }

        /// Wear/leveling counters of the armed endurance adversary, if any.
        pub fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
            self.engine.wear_stats()
        }

        /// The endurance adversary's engine (mapping, per-line writes), if
        /// armed.
        pub fn wear_engine(&self) -> Option<&psoram_nvm::WearEngine> {
            self.engine.wear_engine()
        }

        /// Fetch-path freshness counters: stale units the adversary served
        /// on the read wire, and how many the hardened verifier detected.
        pub fn freshness_stats(&self) -> crate::FreshnessStats {
            self.device.freshness_stats()
        }

        /// The latched fail-safe class, if the controller is poisoned.
        pub fn poisoned(&self) -> Option<psoram_nvm::FaultClass> {
            self.engine.poisoned()
        }

        /// The report of the most recent `recover` call.
        pub fn last_recovery(&self) -> Option<&crate::RecoveryReport> {
            self.engine.last_recovery()
        }

        /// Arms a crash to fire at `point` during the next access.
        pub fn inject_crash(&mut self, point: crate::CrashPoint) {
            self.engine.inject_crash(point);
        }

        /// Disarms a pending crash plan that has not fired (e.g. a
        /// `DuringEviction` index beyond the access's batch count).
        pub fn disarm_crash(&mut self) {
            self.engine.disarm_crash();
        }

        /// Schedules a crash to fire at `point` during access attempt
        /// `access_index` (0-based, counting every access entry — including
        /// attempts that themselves crashed; see `access_attempts`).
        ///
        /// Unlike `inject_crash`, which arms only the very next access, a
        /// schedule can hold many future crashes at once; entries must be
        /// added in ascending index order and are consumed as the attempt
        /// counter reaches them. An index already in the past is silently
        /// never reached — use `clear_crash_schedule` to drop stale
        /// entries.
        pub fn schedule_crash(&mut self, access_index: u64, point: crate::CrashPoint) {
            self.engine.schedule_crash(access_index, point);
        }

        /// Drops all scheduled crashes that have not fired.
        pub fn clear_crash_schedule(&mut self) {
            self.engine.clear_crash_schedule();
        }

        /// Total access attempts so far (including attempts that crashed
        /// mid-way); the index the next attempt will carry for
        /// `schedule_crash`.
        pub fn access_attempts(&self) -> u64 {
            self.engine.access_attempts()
        }

        /// `true` while the controller is in a crashed state.
        pub fn is_crashed(&self) -> bool {
            self.engine.is_crashed()
        }

        /// Fires the armed crash plan if it matches `point`: loses volatile
        /// state via `execute_crash` and reports `OramError::Crashed`.
        fn maybe_crash(&mut self, point: crate::CrashPoint) -> Result<(), crate::OramError> {
            if self.engine.take_crash(point) {
                self.execute_crash();
                return Err(crate::OramError::Crashed);
            }
            Ok(())
        }
    };
}
pub(crate) use impl_crash_controls;

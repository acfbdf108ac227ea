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
//!
//! A new ORAM protocol variant implements `ProtocolPolicy` (path
//! selection, eviction, commit model) and reuses the engine for the
//! entire crash-consistency protocol — instead of forking a 1,400-line
//! controller.

mod ledger;
mod persist;
mod policy;
mod scratch;

pub use ledger::CommitLedger;
pub(crate) use persist::fault_kind;
pub use persist::{EngineStats, PersistEngine, RoundDamage, WearReadOutcome};
pub use policy::{CommitModel, ProtocolPolicy, ProtocolVariant, RingVariant};
pub(crate) use scratch::{AccessScratch, FrameCell, PathFrame};

use psoram_nvm::CORE_CYCLES_PER_MEM_CYCLE;

/// Converts a core-cycle timestamp to memory-controller cycles (floor).
pub(crate) fn to_mem(core: u64) -> u64 {
    core / CORE_CYCLES_PER_MEM_CYCLE
}

/// Converts a memory-controller cycle back to core cycles.
pub(crate) fn to_core(mem: u64) -> u64 {
    mem * CORE_CYCLES_PER_MEM_CYCLE
}

/// Expands to the crash-control surface every controller exposes: thin
/// public wrappers over its embedded [`PersistEngine`] (a `self.engine`
/// field) plus the private `maybe_crash` step guard, which turns a fired
/// crash plan into volatile-state loss via the controller's own
/// `execute_crash`. Defined once so the surface cannot drift between
/// controllers — a new protocol variant gets the identical crash API by
/// invoking this macro inside its `impl` block.
macro_rules! impl_crash_controls {
    () => {
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

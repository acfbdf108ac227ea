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
//! * [`Shell`] — the state every controller holds whatever its protocol
//!   (NVM, PosMaps, ledger, device side, clock, scratch) and the steps of
//!   an access, a round and a power failure that touch nothing else.
//! * `PersistEngine` (`persist.rs`) — the WPQ persist-round protocol over
//!   a [`psoram_nvm::PersistenceDomain`], typed by a protocol's persist
//!   units; `EngineControl` — crash arming & scheduling
//!   (`inject_crash`/`schedule_crash`/`access_attempts`), the
//!   crashed-state and fail-safe latches, the tap and the engine-owned
//!   crash/recovery/stall counters ([`EngineStats`]).
//! * [`CommitLedger`] — the written-vs-durably-committed value ledgers
//!   with the freshness-counter staleness guard, shared by every
//!   controller's recoverability oracle.
//! * [`ProtocolPolicy`] — the object-safe trait the controllers implement;
//!   everything above the controllers (fault harness, system model,
//!   benches) drives designs through this one surface — its controls over
//!   the shell are provided methods — and [`CommitModel`] tells the
//!   differential oracle when a design's completed writes become durable.
//! * `DeviceSide` (`device.rs`) — the adversary: the fault plan, the wear
//!   engine and their hands on a controller's media (snapshots, crash
//!   damage, stale serves), with the incidents it files; and the integrity
//!   layer that answers it, with the guards a fetch runs and the one way a
//!   round's units reach the media (`program`, `flush`).
//! * `Ladder` (`recover.rs`) — recovery's detect → classify → repair →
//!   rollback rungs over the shared arena, PosMap and ledger, entered
//!   through `Shell::recover`.
//!
//! A new ORAM protocol variant holds a `Shell`, its arena and its queues
//! and implements `ProtocolPolicy`: what names it, its access, how it
//! applies a drained round and what it loses to a power failure — the toy
//! protocol in the test-support module (`crate::testkit::Toy`) is a whole
//! one in a hundred lines, and one row of the conformance suite's design
//! table — instead of forking a 1,400-line controller.

mod device;
mod ledger;
mod persist;
mod policy;
mod recover;
mod scratch;
mod shell;

pub(crate) use device::{lone, DeviceSide, Listing, PosMapFlush};
pub use ledger::CommitLedger;
pub use persist::EngineStats;
pub(crate) use persist::{fault_kind, DrainedRound, EngineControl, PersistEngine};
pub use policy::{Access, CommitModel, NvmLayout, ProtocolPolicy, ProtocolVariant, RingVariant};
pub(crate) use recover::{check_committed, Copies, CopyIndex};
pub(crate) use scratch::{AccessScratch, FrameCell, PathFrame, RewriteTables};
pub use shell::Shell;
pub(crate) use shell::{
    arm, commit_and_apply, crash_at, power_fail, recoverable, set_tap, stall, Kept, Media, Rounds,
};

use psoram_nvm::CORE_CYCLES_PER_MEM_CYCLE;

/// Converts a core-cycle timestamp to memory-controller cycles (floor).
pub(crate) fn to_mem(core: u64) -> u64 {
    core / CORE_CYCLES_PER_MEM_CYCLE
}

/// Converts a memory-controller cycle back to core cycles.
pub(crate) fn to_core(mem: u64) -> u64 {
    mem * CORE_CYCLES_PER_MEM_CYCLE
}

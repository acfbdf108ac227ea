//! # psoram-core
//!
//! Path ORAM, recursive ORAM, and **PS-ORAM** — the crash-consistent ORAM
//! controller of *"PS-ORAM: Efficient Crash Consistency Support for
//! Oblivious RAM on NVM"* (ISCA 2022) — over a simulated NVM memory system.
//!
//! The crate implements the full controller stack:
//!
//! * the sparse NVM-resident [`OramTree`], [`Stash`], [`PosMap`] and
//!   PS-ORAM's [`TempPosMap`];
//! * the five-step access protocol for all seven evaluated designs
//!   ([`ProtocolVariant`]), including the backup (shadow) blocks, the
//!   drainer-signalled atomic WPQ rounds, and dependency-ordered write-back
//!   for small persistence domains;
//! * the recursive PosMap with a Freecursive-style PLB
//!   ([`RecursivePosMap`]);
//! * crash injection at every protocol step ([`CrashPoint`]), recovery, and
//!   a machine-checkable recoverability invariant.
//!
//! # Examples
//!
//! Crash in the middle of an access and recover without losing committed
//! data:
//!
//! ```
//! use psoram_core::{
//!     BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant,
//! };
//!
//! let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 1);
//! for i in 0..20 {
//!     oram.write(BlockAddr(i), vec![i as u8; 8]).unwrap();
//! }
//! oram.inject_crash(CrashPoint::AfterLoadPath);
//! let _ = oram.read(BlockAddr(0)); // crashes mid-access
//! assert!(oram.is_crashed());
//! assert!(oram.recover().consistent, "PS-ORAM recovers consistently");
//! oram.verify_contents(true).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The in-module freshness proptests expand past the default limit.
#![recursion_limit = "256"]

mod arena;
mod auth;
mod block;
mod bucket;
pub mod controller;
mod crash;
pub mod engine;
pub mod eviction;
pub mod integrity;
mod paged;
pub mod par;
mod posmap;
mod recursive;
pub mod ring;
mod shard;
mod stash;
mod stats;
#[doc(hidden)]
pub mod testkit;
mod tree;
mod types;
mod unit_table;

pub use arena::BucketRef;
pub use auth::{CounterTree, FreshnessStats, FreshnessVerdict, UnitMeta};
pub use block::{Block, BlockHeader, BlockRef};
pub use bucket::Bucket;
pub use controller::{AccessOutcome, Op, PathOram, ProtocolVariant};
pub use crash::{CrashPoint, CrashReport, RecoveryError, RecoveryIncident, RecoveryReport};
pub use engine::{CommitLedger, CommitModel, EngineStats, ProtocolPolicy, Shell};
pub use eviction::{plan_eviction, EvictionPlan, SlotWrite};
pub use posmap::{PosMap, TempPosMap};
pub use recursive::{RecLevel, RecursivePosMap, ENTRIES_PER_BLOCK};
pub use shard::{ShardController, ShardRange, ShardStep};
pub use stash::Stash;
pub use stats::OramStats;
pub use tree::{BucketIndex, OramTree};
pub use types::{BlockAddr, Leaf, OramConfig, OramError};

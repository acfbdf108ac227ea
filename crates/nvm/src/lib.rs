//! # psoram-nvm
//!
//! Cycle-level NVM main-memory timing simulator (in the spirit of NVMain 2.0)
//! plus the ADR **write-pending-queue (WPQ) persistence domain** used by the
//! PS-ORAM controller.
//!
//! The model covers what the PS-ORAM evaluation needs:
//!
//! * PCM and STT-RAM device timing (`tRCD/tWP/tCWD/tWTR/tRP/tCCD`, Table 3 of
//!   the paper) at a 400 MHz memory clock under a 3.2 GHz core clock.
//! * Multi-channel, multi-bank organization with cacheline interleaving,
//!   per-bank service state and per-channel data-bus contention — enough to
//!   reproduce the paper's single- vs multi-channel scaling (Figure 7).
//! * Read/write traffic and per-bank wear statistics (Figure 6, lifetime
//!   discussion).
//! * A persistence domain ([`wpq`]) with *atomic* start/end-signalled batches
//!   feeding the NVM, exactly as in PS-ORAM eviction step 5-B/5-C.
//! * An on-chip NVM buffer latency model ([`onchip`]) for the paper's
//!   `FullNVM` / `FullNVM(STT)` baselines, where the stash and PosMap are
//!   built from NVM instead of SRAM.
//!
//! # Examples
//!
//! ```
//! use psoram_nvm::{NvmConfig, NvmController, AccessKind};
//!
//! let mut mem = NvmController::new(NvmConfig::paper_pcm(1));
//! let done = mem.access(0x1000, AccessKind::Read, 0);
//! assert!(done > 0);
//! assert_eq!(mem.stats().reads, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod bank;
mod channel;
mod controller;
pub mod fault;
mod lines;
pub mod onchip;
mod request;
mod stats;
mod timing;
pub mod wear;
pub mod wpq;

pub use controller::{NvmConfig, NvmConfigError, NvmController, NvmWearReport};
pub use fault::{FaultClass, FaultConfig, FaultPlan, FaultStats, ReadFault, RoundFate};
pub use onchip::OnChipNvmModel;
pub use request::AccessKind;
pub use stats::NvmStats;
pub use timing::{MemTech, TimingParams, CORE_CYCLES_PER_MEM_CYCLE, CORE_HZ};
pub use wear::{
    Conviction, EnduranceModel, GapMove, RemapTable, StartGap, WearConfig, WearEngine, WearScheme,
    WearStats, SPARE_LINE_BASE, WEAR_LINE_BYTES,
};
pub use wpq::{PersistenceDomain, Wpq, WpqEntry, WpqError, WpqStats};

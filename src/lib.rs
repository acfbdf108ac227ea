//! # psoram — PS-ORAM: crash-consistent Oblivious RAM on NVM
//!
//! Facade crate re-exporting the whole PS-ORAM workspace. This is the crate a
//! downstream user depends on; the sub-crates can also be used individually.
//!
//! A reproduction of *PS-ORAM: Efficient Crash Consistency Support for
//! Oblivious RAM on NVM* (ISCA 2022). See `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-vs-measured results.
//!
//! # Quickstart
//!
//! ```
//! use psoram::core::{BlockAddr, OramConfig, PathOram, ProtocolVariant};
//!
//! // A small crash-consistent PS-ORAM over a simulated NVM.
//! let config = OramConfig::small_test();
//! let mut oram = PathOram::new(config, ProtocolVariant::PsOram, 42);
//! oram.write(BlockAddr(3), vec![0xAB; 8]).unwrap();
//! assert_eq!(oram.read(BlockAddr(3)).unwrap(), vec![0xAB; 8]);
//! ```
//!
//! The layers above and around the controller are re-exported too — the
//! sharded service front-end, the observability tap and the fault-injection
//! campaigns:
//!
//! ```
//! assert_eq!(psoram::service::CORE_HZ, psoram::nvm::CORE_HZ);
//! assert_eq!(psoram::obsv::Tap::detached().now(), 0);
//! assert!(psoram::faultsim::default_jobs() >= 1);
//! ```

#![forbid(unsafe_code)]

pub use psoram_cache as cache;
pub use psoram_core as core;
pub use psoram_crypto as crypto;
pub use psoram_energy as energy;
pub use psoram_faultsim as faultsim;
pub use psoram_nvm as nvm;
pub use psoram_obsv as obsv;
pub use psoram_service as service;
pub use psoram_system as system;
pub use psoram_trace as trace;

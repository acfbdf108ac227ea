//! # psoram-faultsim — systematic fault injection & recovery verification
//!
//! The crash tests in `psoram-core` each probe one hand-picked failure;
//! this crate turns crash consistency into a *searched* property:
//!
//! * **Exhaustive sweep** ([`exhaustive_sweep`]): for each design, a long
//!   workload arms a crash on every access, covering all five step
//!   boundaries and every reachable `DuringEviction(k)` persist-unit
//!   index, recovering and continuing after each one.
//! * **Randomized campaign** ([`random_campaign`]): seeded multi-crash
//!   runs — random traffic, random crash points, repeated
//!   crash→recover→continue cycles, and *nested* crashes that strike
//!   while a previous recovery is still being verified. Deterministic
//!   under a fixed seed.
//! * **Device-fault campaign** ([`device_campaign`]): the randomized
//!   campaign re-run on damaged silicon — a seeded device fault plan
//!   tears flushes, loses/duplicates WPQ signals, flips persisted bits,
//!   and fails reads underneath every design. Hardened designs must
//!   repair, roll back with typed errors, or fail safe; never diverge
//!   silently.
//! * **Endurance campaigns** ([`wear_campaign`], [`lifetime_campaign`]):
//!   wear-torture runs on pre-aged silicon, and years-to-failure
//!   projected from each design's hot-line profile at the access rate
//!   the full-system simulator measures. Shards side by side — one
//!   crashed or worn while its siblings serve — are `psoram-service`'s
//!   lanes, not a campaign here.
//! * **Differential oracle** ([`ShadowOracle`]): an independent shadow
//!   map of logical address → last durably committed value. After every
//!   recovery it asserts that no committed write is lost and no
//!   interrupted write surfaces as anything but its old or new value,
//!   on top of the designs' own recoverability checks.
//! * **Structured reports** ([`CampaignReport`]): JSON (serde) records of
//!   crashes, recoveries, and each violation pinned to the exact crash
//!   point and access index, so any failure replays deterministically.
//! * **Deterministic parallel runner** ([`par_map`]): per-design runs fan
//!   out across cores (each derives its RNG stream from the seed and the
//!   design alone) and results come back in input order, so every report
//!   is byte-identical to the serial runner at any `PSORAM_JOBS` setting.
//!
//! The expectation is differential by design: PS-ORAM designs must come
//! out violation-free, while the non-persistent baseline must *fail* the
//! oracle — a sweep in which the baseline passes means the harness has
//! lost its teeth.
//!
//! The harness is layered on `psoram_core::testkit`, the conformance
//! suite: its design table
//! ([`testkit::Design`](psoram_core::testkit::Design)) names, builds and
//! makes the claims of every design a campaign runs, and its recovery
//! judge
//! ([`testkit::judge_recovery`](psoram_core::testkit::judge_recovery))
//! reads every recovery report. The harness adds scale, the shadow
//! oracle and the campaign verdicts ([`CampaignReport::verdict`],
//! [`DeviceCampaignReport::verdict`]).
//!
//! # Examples
//!
//! ```
//! use psoram_faultsim::{sweep_variant, SweepConfig};
//! use psoram_core::testkit::Design;
//! use psoram_core::ProtocolVariant;
//!
//! let cfg = SweepConfig { accesses: 40, ..SweepConfig::smoke() };
//! let report = sweep_variant(Design::Path(ProtocolVariant::PsOram), &cfg);
//! assert!(report.crashes_injected > 0);
//! assert_eq!(report.violations_total, 0, "PS-ORAM must survive every crash");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod device;
mod driver;
mod lifetime;
mod oracle;
mod report;
mod sweep;

pub use campaign::{
    campaign_variant, campaign_variant_traced, random_campaign, random_campaign_traced,
    CampaignConfig,
};
pub use device::{
    device_campaign, device_campaign_variant, DeviceCampaignConfig, DeviceCampaignReport,
    DeviceFaultSummary, DeviceVariantReport,
};
pub use driver::SWEEP_SET;
pub use lifetime::{
    lifetime_campaign, wear_campaign, wear_sweep_set, LifetimeCampaignConfig,
    LifetimeCampaignReport, LifetimeRow, WearCampaignConfig, WearCampaignReport, WearRunReport,
};
pub use oracle::{CommitModel, PendingWrite, ShadowOracle};
pub use psoram_core::par::{self, default_jobs, par_map, resolve_jobs};
pub use report::{
    CampaignReport, CrashPointCost, VariantReport, ViolationKind, ViolationRecord,
    MAX_RECORDED_VIOLATIONS,
};
pub use sweep::{exhaustive_sweep, sweep_variant, SweepConfig};

//! # psoram-service
//!
//! The sharded, batched multi-tenant ORAM service front-end.
//!
//! PS-ORAM makes a single controller crash-consistent; this crate turns
//! N such controllers into a service. The logical address space is
//! partitioned across N **shards** — each an independent controller
//! instance with its own persistence domain (persist engine, counter
//! tree, fault plan) — fed by a deterministic request-queue/worker
//! scheduler:
//!
//! ```text
//! clients ──▶ open-loop schedule ──▶ router ──▶ per-shard queues
//!                                                │ batch ▼
//!                                         shard workers (par_map)
//!                                                │ completions ▼
//!                                   collector: p50/p95/p99, throughput
//! ```
//!
//! * [`open_loop_schedule`] generates the seeded arrival process
//!   (exponential inter-arrival at a configured aggregate rate, in core
//!   cycles at 3.2 GHz).
//! * [`AddressPartition`] maps every address to exactly one shard.
//! * [`run_service`] executes the per-shard queues on the
//!   `psoram_core::par` deterministic worker pool: per-shard seeds,
//!   input-order collection — the [`ServiceReport`] is byte-identical at
//!   any worker count.
//! * A [`ShardCrashPlan`] can strike one shard mid-load; recovery runs
//!   through the ordinary hardened `recover()` path on that shard alone
//!   while the siblings keep serving.
//! * A [`WearShardPlan`] runs one shard as a near-end-of-life device:
//!   pre-aged lines, wear-correlated media faults, crash-consistent line
//!   retirement onto spares. The degraded shard must keep serving —
//!   retirements and repairs surface in its [`WearLaneEvidence`] and
//!   latency numbers — while every sibling stays byte-identical to a
//!   wear-free run.
//!
//! # Examples
//!
//! ```
//! use psoram_service::{run_service, ServiceConfig};
//!
//! let mut cfg = ServiceConfig::smoke();
//! cfg.requests = 200;
//! let out = run_service(&cfg, 1);
//! assert_eq!(out.report.aggregate.requests, 200);
//! assert!(out.report.latency_cycles.p99 >= out.report.latency_cycles.p50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lane;
mod partition;
mod report;
mod request;
mod scheduler;

pub use lane::{LaneKind, ShardServer};
pub use partition::AddressPartition;
pub use report::{
    percentile, AggregateReport, LatencySummary, ServiceReport, ShardLaneReport, WearLaneEvidence,
};
pub use request::{open_loop_schedule, AccessRequest, Completion, CORE_HZ};
pub use scheduler::{
    run_service, ServiceConfig, ServiceOutcome, ShardCrashPlan, WearShardPlan,
    BATCH_DISPATCH_CYCLES, RECOVERY_REBOOT_CYCLES,
};

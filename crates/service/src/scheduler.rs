//! The request-queue/worker scheduler: route, batch, execute, collect.
//!
//! [`run_service`] turns one seeded open-loop schedule into a
//! [`ServiceReport`]:
//!
//! 1. **Route.** Every request maps to exactly one shard through the
//!    [`AddressPartition`]; per-shard queues preserve global arrival
//!    order, so per-address program order survives routing.
//! 2. **Execute.** Each shard queue runs on the `psoram_core::par`
//!    deterministic worker pool ([`par_map`]): per-shard seeds,
//!    input-order collection. A lane is a *virtual-time* simulation —
//!    the worker advances a lane clock by batching overhead, controller
//!    service cycles, and (when a [`ShardCrashPlan`] strikes) recovery
//!    plus a modeled reboot penalty. Nothing reads the wall clock, so
//!    the report is byte-identical at any `jobs` count.
//! 3. **Collect.** Completions merge in shard order; latencies sort;
//!    the collector computes p50/p95/p99 and per-shard and aggregate
//!    throughput.

use std::sync::Arc;

use psoram_core::par::par_map;
use psoram_core::{Op, ProtocolVariant};
use psoram_nvm::{WearConfig, WearScheme};
use psoram_obsv::{Event, Recorder, RingBufferRecorder};

use crate::lane::{LaneKind, ShardServer};
use crate::partition::AddressPartition;
use crate::report::{
    AggregateReport, LatencySummary, ServiceReport, ShardLaneReport, WearLaneEvidence,
};
use crate::request::{open_loop_schedule, AccessRequest, Completion, CORE_HZ};

/// Fixed dispatch overhead charged once per batch (queue pop, address
/// translation, MAC context setup for the batch).
pub const BATCH_DISPATCH_CYCLES: u64 = 64;

/// Modeled reboot penalty charged to a lane when its shard crashes:
/// power-cycle plus firmware re-init before `recover()` can even run.
/// The controllers account recovery work outside the access clock, so
/// the scheduler owns making crashes *cost* something in lane time.
pub const RECOVERY_REBOOT_CYCLES: u64 = 100_000;

/// Strike plan for one shard: crash it after it has completed
/// `after_requests` requests, then recover through the ordinary
/// hardened path while sibling shards keep serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardCrashPlan {
    /// The shard to strike.
    pub shard: u32,
    /// Completed-request count on that shard that triggers the crash.
    pub after_requests: u64,
}

/// Endurance plan for one shard: run it as a near-end-of-life device —
/// pre-aged lines, tiny cell budgets, wear-correlated media faults —
/// while every sibling serves from healthy silicon.
///
/// The degraded shard must *stay up*: transient faults retry, convicted
/// lines retire onto spares and repair from the redundant copy, and the
/// cost of all of that shows up in the lane's latency numbers and (with
/// `trace`) as `LineRetired`/`FaultDetected` events. The spare pool is
/// sized generously (`wear_config` uses 64 spares) because a service
/// shard, unlike a faultsim campaign target, is never allowed to poison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WearShardPlan {
    /// The shard that serves from worn silicon.
    pub shard: u32,
    /// The leveling/retirement design point. [`WearScheme::Remap`] is
    /// the scheme that can actually retire convicted lines; `StartGap`
    /// and `None` survive only as long as no line exhausts its budget.
    pub scheme: WearScheme,
    /// Uniform pre-aging: writes every line already carries at boot
    /// (models years of prior service without simulating them).
    pub preage_writes: u64,
}

impl WearShardPlan {
    /// A near-EOL smoke plan: Remap scheme, lines pre-aged to ~75% of
    /// the stress budget so retirements fire within a few hundred
    /// requests.
    pub fn near_eol(shard: u32) -> Self {
        WearShardPlan {
            shard,
            scheme: WearScheme::Remap,
            preage_writes: 384,
        }
    }

    /// The wear engine configuration this plan arms: the campaign
    /// stress point (tiny budgets so wear is observable in a short run)
    /// with a service-sized spare pool.
    pub fn wear_config(&self) -> WearConfig {
        WearConfig {
            spare_lines: 64,
            preage_writes: self.preage_writes,
            ..WearConfig::stress(self.scheme)
        }
    }
}

/// Full configuration for one service run.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards (independent persistence domains).
    pub shards: u32,
    /// Number of simulated open-loop clients.
    pub clients: u32,
    /// Aggregate arrival rate, requests per second.
    pub arrival_rate: u64,
    /// Total requests in the run.
    pub requests: u64,
    /// Maximum requests dispatched per batch.
    pub batch_size: usize,
    /// ORAM tree levels per shard.
    pub levels: u32,
    /// Protocol variant backing every shard.
    pub variant: ProtocolVariant,
    /// Schedule and shard seed.
    pub seed: u64,
    /// Execution model per shard.
    pub lane: LaneKind,
    /// Optional mid-load crash on one shard.
    pub crash: Option<ShardCrashPlan>,
    /// Optional endurance adversary on one shard.
    pub wear: Option<WearShardPlan>,
    /// Record service-lane and persist-domain events.
    pub trace: bool,
}

impl ServiceConfig {
    /// The small configuration, still 4 shards: tests pin it and BENCH_07's
    /// wear fleet runs it. The arrival rate deliberately exceeds one
    /// controller's service capacity so a single-shard baseline saturates.
    pub fn smoke() -> Self {
        ServiceConfig {
            shards: 4,
            clients: 8,
            arrival_rate: 600_000,
            requests: 2_000,
            batch_size: 8,
            levels: 10,
            variant: ProtocolVariant::PsOram,
            seed: 0x5EED,
            lane: LaneKind::Controller,
            crash: None,
            wear: None,
            trace: false,
        }
    }

    /// The bench configuration (BENCH_06): the paper's L=12 geometry at
    /// an arrival rate well past one controller's service capacity
    /// (~230k acc/s at L=12), so the single-shard baseline saturates
    /// and the sharded front-end's aggregate gain is visible.
    pub fn bench() -> Self {
        ServiceConfig {
            shards: 4,
            clients: 32,
            arrival_rate: 600_000,
            requests: 20_000,
            batch_size: 8,
            levels: 12,
            variant: ProtocolVariant::PsOram,
            seed: 0x5EED,
            lane: LaneKind::Controller,
            crash: None,
            wear: None,
            trace: false,
        }
    }

    /// Per-shard geometry: every shard gets the same tree.
    pub fn per_shard_capacity(&self) -> u64 {
        psoram_core::OramConfig::small_test()
            .with_levels(self.levels)
            .capacity_blocks()
    }

    /// Total logical address space served by the front-end.
    pub fn capacity(&self) -> u64 {
        self.per_shard_capacity() * self.shards as u64
    }

    /// The router's address partition.
    pub fn partition(&self) -> AddressPartition {
        AddressPartition::new(self.capacity(), self.shards)
    }

    /// Shard `shard`'s independent seed (golden-ratio mix of the run
    /// seed — same discipline as `SystemConfig::for_shard` and the
    /// faultsim campaigns' run seeds).
    pub fn shard_seed(&self, shard: u32) -> u64 {
        self.seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
    }
}

/// The result of [`run_service`]: the collector's report plus, when
/// tracing was on, the merged event stream (service-lane events
/// interleaved with each shard's persist-domain events, ordered by
/// shard then capture order).
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The deterministic service report.
    pub report: ServiceReport,
    /// Captured events (empty unless `cfg.trace`).
    pub events: Vec<Event>,
    /// Events the lanes' rings evicted because they were full (0 unless
    /// `cfg.trace`): `events` is every event the run emitted when this is
    /// zero.
    pub dropped: u64,
}

struct LaneOutcome {
    completions: Vec<Completion>,
    report: ShardLaneReport,
    events: Vec<Event>,
    dropped: u64,
}

/// Deterministic write fill byte for a request: reads assert the last
/// written fill, giving the service an end-to-end read-your-writes
/// check on every single request.
fn fill_byte(r: &AccessRequest) -> u8 {
    (r.addr as u8) ^ (r.id as u8) | 1
}

fn run_lane(cfg: &ServiceConfig, shard: u32, queue: Vec<AccessRequest>) -> LaneOutcome {
    let partition = cfg.partition();
    let range = partition.range_of(shard);
    let mut server = ShardServer::build(
        cfg.lane,
        cfg.variant,
        cfg.levels,
        range,
        cfg.shard_seed(shard),
        shard,
    );
    let wear_armed = match cfg.wear {
        Some(plan) if plan.shard == shard => {
            server.arm_wear(cfg.shard_seed(shard), plan.wear_config());
            true
        }
        _ => false,
    };
    let recorder = if cfg.trace {
        let rec = Arc::new(RingBufferRecorder::new(psoram_obsv::DEFAULT_RING_CAPACITY));
        server.attach_recorder(rec.clone());
        Some(rec)
    } else {
        None
    };
    let record = |rec: &Option<Arc<RingBufferRecorder>>, ev: Event| {
        if let Some(r) = rec {
            r.record(ev);
        }
    };
    for r in &queue {
        record(
            &recorder,
            Event::ServiceEnqueue {
                request: r.id,
                shard,
                cycle: r.arrival_cycle,
            },
        );
    }

    // Last-written fill per local address, for read-your-writes checks
    // on controller lanes.
    let mut expected: Vec<u8> = vec![0; range.len() as usize];
    let mut completions = Vec::with_capacity(queue.len());
    let mut now = 0u64;
    let mut busy = 0u64;
    let mut wait_sum = 0u128;
    let mut batches = 0u64;
    let mut crashes = 0u64;
    let mut recoveries_consistent = 0u64;
    let mut recovery_cycles = 0u64;
    let mut completed = 0u64;
    let mut i = 0usize;
    while i < queue.len() {
        if now < queue[i].arrival_cycle {
            now = queue[i].arrival_cycle;
        }
        let mut end = i + 1;
        while end < queue.len() && end - i < cfg.batch_size && queue[end].arrival_cycle <= now {
            end += 1;
        }
        now += BATCH_DISPATCH_CYCLES;
        batches += 1;
        record(
            &recorder,
            Event::ServiceBatch {
                shard,
                size: (end - i) as u64,
                cycle: now,
            },
        );
        for r in &queue[i..end] {
            let dispatch = now;
            record(
                &recorder,
                Event::ServiceDequeue {
                    request: r.id,
                    shard,
                    wait_cycles: dispatch.saturating_sub(r.arrival_cycle),
                    cycle: dispatch,
                },
            );
            wait_sum += dispatch.saturating_sub(r.arrival_cycle) as u128;
            let fill = fill_byte(r);
            let (cycles, value) = server
                .serve(r.op, r.addr, fill)
                .expect("router guarantees addresses in range; shards never stay crashed");
            let local = range.to_local(r.addr) as usize;
            match r.op {
                Op::Write => expected[local] = fill,
                Op::Read => {
                    if let Some(v) = value {
                        assert!(
                            v.iter().all(|&b| b == expected[local]),
                            "shard {shard} returned stale data for request {}",
                            r.id
                        );
                    }
                }
            }
            busy += cycles;
            now += cycles;
            completed += 1;
            if let Some(plan) = cfg.crash {
                if plan.shard == shard && completed == plan.after_requests {
                    let (consistent, delta) = server.crash_and_recover();
                    crashes += 1;
                    if consistent {
                        recoveries_consistent += 1;
                    }
                    let charge = delta + RECOVERY_REBOOT_CYCLES;
                    recovery_cycles += charge;
                    now += charge;
                }
            }
            completions.push(Completion {
                id: r.id,
                client: r.client,
                shard,
                addr: r.addr,
                arrival_cycle: r.arrival_cycle,
                dispatch_cycle: dispatch,
                complete_cycle: now,
            });
            record(
                &recorder,
                Event::ServiceComplete {
                    request: r.id,
                    shard,
                    latency_cycles: now.saturating_sub(r.arrival_cycle),
                    cycle: now,
                },
            );
        }
        i = end;
    }
    let verify_ok = server.verify(crashes > 0);
    let wear = if wear_armed {
        let stats = server.wear_stats().unwrap_or_default();
        let faults = server.device_fault_stats().unwrap_or_default();
        Some(WearLaneEvidence {
            wear_faults: faults.wear_faults,
            wear_stuck_faults: faults.wear_stuck_faults,
            gap_moves: stats.gap_moves,
            retirements: stats.retirements,
            repairs: stats.repairs,
            spares_left: server.wear_spares_left().unwrap_or(0),
        })
    } else {
        None
    };
    let requests = completions.len() as u64;
    let report = ShardLaneReport {
        shard,
        requests,
        batches,
        queue_wait_mean_cycles: if requests > 0 {
            (wait_sum / requests as u128) as u64
        } else {
            0
        },
        busy_cycles: busy,
        makespan_cycles: now,
        throughput_accesses_per_sec: if now > 0 {
            requests as f64 * CORE_HZ as f64 / now as f64
        } else {
            0.0
        },
        crashes,
        recoveries_consistent,
        recovery_cycles,
        verify_ok,
        state_digest: format!("{:032x}", server.state_digest()),
        wear,
    };
    LaneOutcome {
        completions,
        report,
        events: recorder.as_ref().map(|r| r.events()).unwrap_or_default(),
        dropped: recorder.map_or(0, |r| r.dropped()),
    }
}

/// Runs the full service pipeline on `jobs` worker threads (0 = the
/// `PSORAM_JOBS`/default discipline of the faultsim pool) and collects
/// the report. Byte-identical output at any worker count.
pub fn run_service(cfg: &ServiceConfig, jobs: usize) -> ServiceOutcome {
    let partition = cfg.partition();
    let schedule = open_loop_schedule(
        cfg.requests,
        cfg.clients,
        cfg.arrival_rate,
        partition.capacity(),
        cfg.seed,
    );
    let mut queues: Vec<Vec<AccessRequest>> = vec![Vec::new(); cfg.shards as usize];
    for r in schedule {
        queues[partition.shard_of(r.addr) as usize].push(r);
    }
    let work: Vec<(u32, Vec<AccessRequest>)> = queues
        .into_iter()
        .enumerate()
        .map(|(s, q)| (s as u32, q))
        .collect();
    let lanes = par_map(jobs, work, |(shard, queue)| run_lane(cfg, shard, queue));

    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.requests as usize);
    let mut lane_reports = Vec::with_capacity(lanes.len());
    let mut events = Vec::new();
    let mut dropped = 0u64;
    let mut makespan = 0u64;
    let mut total = 0u64;
    for lane in lanes {
        latencies.extend(lane.completions.iter().map(Completion::latency));
        makespan = makespan.max(lane.report.makespan_cycles);
        total += lane.report.requests;
        lane_reports.push(lane.report);
        events.extend(lane.events);
        dropped += lane.dropped;
    }
    latencies.sort_unstable();
    let latency_cycles = LatencySummary::from_sorted(&latencies);
    let report = ServiceReport {
        shards: cfg.shards,
        clients: cfg.clients,
        arrival_rate: cfg.arrival_rate,
        batch_size: cfg.batch_size as u64,
        levels: cfg.levels,
        variant: cfg.variant.label().to_string(),
        lane: cfg.lane.label().to_string(),
        seed: cfg.seed,
        latency_cycles,
        p50_us: LatencySummary::cycles_to_us(latency_cycles.p50),
        p99_us: LatencySummary::cycles_to_us(latency_cycles.p99),
        lanes: lane_reports,
        aggregate: AggregateReport {
            requests: total,
            makespan_cycles: makespan,
            accesses_per_sec: if makespan > 0 {
                total as f64 * CORE_HZ as f64 / makespan as f64
            } else {
                0.0
            },
        },
    };
    ServiceOutcome {
        report,
        events,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_every_request_and_shard() {
        let mut cfg = ServiceConfig::smoke();
        cfg.requests = 400;
        let out = run_service(&cfg, 2);
        assert_eq!(out.report.aggregate.requests, 400);
        assert_eq!(out.report.lanes.len(), 4);
        for lane in &out.report.lanes {
            assert!(
                lane.requests > 0,
                "uniform addresses should hit every shard"
            );
            assert!(lane.verify_ok);
            assert_eq!(lane.crashes, 0);
        }
        let s = &out.report.latency_cycles;
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
        assert!(out.report.aggregate.accesses_per_sec > 0.0);
        assert!(out.events.is_empty());
    }

    #[test]
    fn tracing_emits_the_service_lane() {
        let mut cfg = ServiceConfig::smoke();
        cfg.requests = 120;
        cfg.trace = true;
        let out = run_service(&cfg, 1);
        assert_eq!(out.dropped, 0, "the rings held the whole run");
        let enq = out
            .events
            .iter()
            .filter(|e| matches!(e, Event::ServiceEnqueue { .. }))
            .count();
        let comp = out
            .events
            .iter()
            .filter(|e| matches!(e, Event::ServiceComplete { .. }))
            .count();
        assert_eq!(enq, 120);
        assert_eq!(comp, 120);
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e, Event::ServiceBatch { .. })));
        // Lanes are merged in shard order, each opening with its
        // enqueues: an access belongs to the last shard named before it.
        let mut starts = vec![0u64; cfg.shards as usize];
        let mut shard = None;
        for e in &out.events {
            match *e {
                Event::ServiceEnqueue { shard: s, .. } => shard = Some(s as usize),
                Event::AccessStart { .. } => starts[shard.expect("a lane's enqueues first")] += 1,
                _ => {}
            }
        }
        for lane in &out.report.lanes {
            assert!(lane.verify_ok);
            assert_eq!(
                starts[lane.shard as usize], lane.requests,
                "shard {}: one access a request, none for the check",
                lane.shard
            );
        }
    }

    #[test]
    fn crash_plan_strikes_exactly_one_shard() {
        let mut cfg = ServiceConfig::smoke();
        cfg.requests = 600;
        cfg.crash = Some(ShardCrashPlan {
            shard: 2,
            after_requests: 40,
        });
        let out = run_service(&cfg, 0);
        for lane in &out.report.lanes {
            if lane.shard == 2 {
                assert_eq!(lane.crashes, 1);
                assert_eq!(lane.recoveries_consistent, 1);
                assert!(lane.recovery_cycles >= RECOVERY_REBOOT_CYCLES);
            } else {
                assert_eq!(lane.crashes, 0);
            }
            assert!(lane.verify_ok);
        }
    }

    #[test]
    fn wear_shard_degrades_gracefully_while_siblings_stay_identical() {
        let mut base = ServiceConfig::smoke();
        base.requests = 1200;
        let clean = run_service(&base, 2);
        let mut worn = base.clone();
        worn.wear = Some(WearShardPlan::near_eol(1));
        let out = run_service(&worn, 2);
        assert_eq!(out.report.aggregate.requests, 1200);
        for lane in &out.report.lanes {
            assert!(lane.verify_ok, "shard {} failed verify", lane.shard);
            let clean_lane = &clean.report.lanes[lane.shard as usize];
            if lane.shard == 1 {
                let w = lane.wear.expect("wear shard must carry evidence");
                assert!(w.wear_faults > 0, "near-EOL shard saw no media faults");
                assert!(w.retirements > 0, "no line retired: {w:?}");
                assert!(w.repairs >= w.retirements, "retire without repair: {w:?}");
                assert!(w.spares_left < 64, "retirement consumed no spare");
                assert!(
                    lane.busy_cycles > clean_lane.busy_cycles,
                    "fault retries and repairs must show up in lane time"
                );
            } else {
                assert!(lane.wear.is_none());
                assert_eq!(
                    lane, clean_lane,
                    "sibling shard {} must be byte-identical to the wear-free run",
                    lane.shard
                );
            }
        }
    }

    #[test]
    fn wear_trace_surfaces_line_retirements() {
        let mut cfg = ServiceConfig::smoke();
        cfg.requests = 1200;
        cfg.trace = true;
        cfg.wear = Some(WearShardPlan::near_eol(0));
        let out = run_service(&cfg, 1);
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, Event::LineRetired { .. })),
            "retirements must be visible in the event stream"
        );
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e, Event::FaultDetected { .. })),
            "detected wear faults must be visible in the event stream"
        );
    }

    #[test]
    fn full_system_lanes_run_end_to_end() {
        let mut cfg = ServiceConfig::smoke();
        cfg.requests = 60;
        cfg.levels = 6;
        cfg.lane = LaneKind::FullSystem;
        let out = run_service(&cfg, 2);
        assert_eq!(out.report.aggregate.requests, 60);
        assert!(out.report.lanes.iter().all(|l| l.verify_ok));
    }
}

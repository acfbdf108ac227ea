//! `service_sharded`: the only open-loop, only queueing and only
//! multi-thread path. Poisson arrivals in virtual time into four shards,
//! each an independent controller lane on the `par_map` worker pool.

use std::time::Instant;

use psoram_core::{Op, ProtocolVariant};
use psoram_nvm::NvmStats;
use psoram_service::{
    open_loop_schedule, run_service, AccessRequest, LaneKind, ServiceConfig, ServiceReport,
    ShardServer,
};

use crate::measure::{Tracer, Window, Workload, DRAIN_EVERY};
use crate::oracle::Oracle;
use crate::Scale;

const LEVELS: u32 = 12;

pub struct Service {
    cfg: ServiceConfig,
    jobs: usize,
    /// Requests of the schedule's head the harness replays on lanes of its
    /// own: the service report carries no NVM counters and no Baseline.
    replica_requests: u64,
    /// Requests the harness's own routing expects on each shard.
    census: Vec<u64>,
    schedule: Vec<AccessRequest>,
    /// `(busy cycles, NVM traffic)` of the PS-ORAM replica, computed once.
    design_replica: Option<(u64, NvmStats)>,
    /// The latest window's report, for the backlog side row.
    last_report: Option<ServiceReport>,
}

impl Service {
    pub fn new(seed: u64, scale: Scale) -> Self {
        let cfg = ServiceConfig {
            shards: 4,
            clients: 32,
            arrival_rate: 600_000,
            requests: scale.ops(50_000, 1_000) as u64,
            batch_size: 8,
            levels: LEVELS,
            variant: ProtocolVariant::PsOram,
            seed,
            lane: LaneKind::Controller,
            crash: None,
            wear: None,
            trace: false,
        };
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
        Service {
            replica_requests: scale.ops(20_000, 1_000) as u64,
            cfg,
            jobs,
            census: Vec::new(),
            schedule: Vec::new(),
            design_replica: None,
            last_report: None,
        }
    }

    /// Serves the head of the schedule on harness-built lanes, in queue
    /// order, checking every read against the last fill written. Returns
    /// the lanes' busy cycles and NVM traffic. The lanes emit into the
    /// tracer's ring: the service's own event stream ends with every
    /// lane's `verify_contents`, which pushes the requests out of its
    /// per-lane rings.
    fn replica(
        &self,
        variant: ProtocolVariant,
        oracle: &mut Oracle,
        tracer: &mut Tracer,
    ) -> (u64, NvmStats) {
        let partition = self.cfg.partition();
        let mut lanes: Vec<(ShardServer, Vec<u8>)> = (0..self.cfg.shards)
            .map(|shard| {
                let range = partition.range_of(shard);
                let server = ShardServer::build(
                    self.cfg.lane,
                    variant,
                    self.cfg.levels,
                    range,
                    self.cfg.shard_seed(shard),
                    shard,
                );
                (server, vec![0u8; range.len() as usize])
            })
            .collect();
        if tracer.is_on() {
            for (server, _) in &mut lanes {
                server.attach_recorder(tracer.ring.clone());
            }
        }
        let mut busy = 0;
        for (i, r) in self.schedule[..self.replica_requests as usize]
            .iter()
            .enumerate()
        {
            let shard = partition.shard_of(r.addr);
            let (server, expected) = &mut lanes[shard as usize];
            let local = partition.range_of(shard).to_local(r.addr) as usize;
            let fill = (r.id as u8) | 1;
            match server.serve(r.op, r.addr, fill) {
                Ok((cycles, value)) => {
                    busy += cycles;
                    let ok = match r.op {
                        Op::Write => {
                            expected[local] = fill;
                            true
                        }
                        Op::Read => value.is_some_and(|v| {
                            let want = u64::from(expected[local]);
                            v.iter().all(|&b| oracle.matches(u64::from(b), want))
                        }),
                    };
                    oracle.op(ok, || format!("replica request {} on a{}", r.id, r.addr));
                }
                Err(e) => oracle.op(false, || format!("replica request {}: {e}", r.id)),
            }
            if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
                tracer.drain();
            }
        }
        tracer.drain();
        let nvm = lanes
            .iter()
            .map(|(server, _)| match server {
                ShardServer::Controller(shard) => shard.policy().nvm_stats(),
                ShardServer::System { .. } => unreachable!("controller lanes only"),
            })
            .fold(NvmStats::default(), |a, b| a + b);
        (busy, nvm)
    }

    fn check(&self, report: &ServiceReport, oracle: &mut Oracle) {
        for lane in &report.lanes {
            let want = self.census[lane.shard as usize];
            let ok = oracle.matches(lane.requests, want) && lane.verify_ok && lane.crashes == 0;
            oracle.ops(want, ok, || {
                format!(
                    "lane {} served {} of {want}: {lane:?}",
                    lane.shard, lane.requests
                )
            });
        }
    }
}

fn report_rows(report: &ServiceReport, host_s: f64) -> Vec<(&'static str, f64)> {
    let requests = report.aggregate.requests as f64;
    let lanes = &report.lanes;
    let sum = |f: fn(&psoram_service::ShardLaneReport) -> u64| -> f64 {
        lanes.iter().map(|l| f(l) as f64).sum()
    };
    let max_lane = lanes.iter().map(|l| l.requests).max().unwrap_or(0) as f64;
    vec![
        ("service.host_ns_per_req", host_s * 1e9 / requests),
        (
            "service.sim_queue_wait_mean_cycles",
            mean_queue_wait(report),
        ),
        (
            "service.sim_busy_share",
            sum(|l| l.busy_cycles) / sum(|l| l.makespan_cycles),
        ),
        (
            "service.batches_per_kreq",
            1e3 * sum(|l| l.batches) / requests,
        ),
        (
            "service.lane_imbalance",
            max_lane / (requests / lanes.len() as f64),
        ),
        (
            "service.sim_agg_acc_per_s",
            report.aggregate.accesses_per_sec,
        ),
    ]
}

fn mean_queue_wait(report: &ServiceReport) -> f64 {
    report
        .lanes
        .iter()
        .map(|l| (l.queue_wait_mean_cycles * l.requests) as f64)
        .sum::<f64>()
        / report.aggregate.requests as f64
}

impl Workload for Service {
    /// The service builds its lanes inside `run_service` (cold start,
    /// stated); the harness's own set-up is the schedule and the routing
    /// census its checks need.
    type Instance = ();

    fn setup(&mut self, _tracer: &Tracer) {
        let partition = self.cfg.partition();
        self.schedule = open_loop_schedule(
            self.cfg.requests,
            self.cfg.clients,
            self.cfg.arrival_rate,
            partition.capacity(),
            self.cfg.seed,
        );
        self.census = vec![0; self.cfg.shards as usize];
        for r in &self.schedule {
            self.census[partition.shard_of(r.addr) as usize] += 1;
        }
    }

    fn window(&mut self, _inst: &mut (), oracle: &mut Oracle, tracer: &mut Tracer) -> Window {
        let cfg = ServiceConfig {
            trace: tracer.is_on(),
            ..self.cfg.clone()
        };
        tracer.spans.enter("service.run", 0);
        let start = Instant::now();
        let out = run_service(&cfg, self.jobs);
        let host_s = start.elapsed().as_secs_f64();
        tracer.spans.exit();
        self.check(&out.report, oracle);
        let mut rows = Vec::new();
        if tracer.is_on() {
            rows = report_rows(&out.report, host_s);
        }
        let (replica_busy, replica_nvm) = match self.design_replica {
            Some(cached) => cached,
            None => {
                *self
                    .design_replica
                    .insert(self.replica(ProtocolVariant::PsOram, oracle, tracer))
            }
        };
        let latency = out.report.latency_cycles;
        let busy_cycles = out.report.lanes.iter().map(|l| l.busy_cycles).sum();
        self.last_report = Some(out.report);
        Window {
            ops: self.cfg.requests,
            host_s,
            sim_cycles: busy_cycles,
            nvm_reads: replica_nvm.reads,
            nvm_writes: replica_nvm.writes,
            nvm_ops: self.replica_requests,
            fold_ops: self.replica_requests,
            op_cycles: Vec::new(),
            reported_percentiles: Some((latency.p50, latency.p99, self.cfg.requests as usize)),
            design_parts: vec![(replica_busy, replica_nvm.writes)],
            rows,
        }
    }

    fn reference(&mut self) -> Vec<(u64, u64)> {
        let (busy, nvm) = self.replica(
            ProtocolVariant::Baseline,
            &mut Oracle::new(false),
            &mut Tracer::off(),
        );
        vec![(busy, nvm.writes)]
    }

    /// Every lane already ran `verify_contents` inside the service
    /// (`verify_ok`, checked per window); nothing is left to read back.
    fn final_check(&mut self, _inst: (), _oracle: &mut Oracle) -> f64 {
        0.0
    }

    fn side_rows(&mut self, _oracle: &mut Oracle) -> Vec<(&'static str, f64)> {
        let head = |requests: u64| ServiceConfig {
            requests,
            ..self.cfg.clone()
        };
        let wall = |cfg: &ServiceConfig, jobs: usize| {
            let t = Instant::now();
            let out = run_service(cfg, jobs);
            (t.elapsed().as_secs_f64(), out.report)
        };
        let prefix = head(self.replica_requests);
        let (serial_s, _) = wall(&prefix, 1);
        let (parallel_s, _) = wall(&prefix, self.jobs);
        // The schedule is generated front to back, so a shorter run is the
        // head of the longer one: its mean wait is the first decile's.
        let (_, first_decile) = wall(&head(self.cfg.requests / 10), self.jobs);
        let whole = self
            .last_report
            .as_ref()
            .expect("side rows follow a window");
        vec![
            ("service.parallel_speedup", serial_s / parallel_s),
            (
                "service.backlog_growth",
                mean_queue_wait(whole) / mean_queue_wait(&first_decile).max(1.0),
            ),
        ]
    }

    fn levels(&self) -> u32 {
        LEVELS
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("op", "one request".into()),
            (
                "loop",
                format!(
                    "open, {} clients, Poisson at {} req/s of simulated time, lanes cold-started",
                    self.cfg.clients, self.cfg.arrival_rate
                ),
            ),
            ("levels", LEVELS.to_string()),
            ("jobs", self.jobs.to_string()),
            ("warmup_ops", "0".into()),
            ("window_ops", self.cfg.requests.to_string()),
            ("ref_ops", self.replica_requests.to_string()),
        ]
    }
}

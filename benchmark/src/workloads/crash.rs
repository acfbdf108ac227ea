//! `crash_recover`: the controller layer used differently — a few accesses,
//! a power failure, then the detect → classify → repair → rollback ladder.

use std::time::Instant;

use psoram_nvm::FaultConfig;

use crate::design::{counter_rows, Arm, Design, Protocol};
use crate::measure::{Tracer, Window, Workload};
use crate::oracle::{Oracle, Shadow};
use crate::workloads::controller::{baseline_pass, uniform_stream, Access};
use crate::Scale;

const LEVELS: u32 = 9;
/// Mixed accesses between two power failures.
const ACCESSES_PER_CYCLE: usize = 8;

pub struct CrashRecover {
    warmup_cycles: usize,
    window_cycles: usize,
    seed: u64,
    stream: Vec<Access>,
    /// Set by `final_check`, reported by `side_rows`.
    verify_contents_s: f64,
}

pub struct Instance {
    design: Design,
    shadow: Shadow,
}

/// Recovery counters summed over a window.
#[derive(Default)]
struct Ladder {
    repairs: u64,
    rollbacks: u64,
    incidents: u64,
    replays_detected: u64,
    poisoned: u64,
}

impl CrashRecover {
    pub fn new(seed: u64, scale: Scale) -> Self {
        CrashRecover {
            warmup_cycles: 10,
            // 1,050 cycles leave ten samples beyond the p99.
            window_cycles: scale.ops(1_050, 50),
            seed,
            stream: Vec::new(),
            verify_contents_s: 0.0,
        }
    }

    /// Crash-drain damage and the replay/splice adversary, without the
    /// read-side faults that would fail accesses between crashes.
    fn fault_mix() -> FaultConfig {
        FaultConfig {
            transient_read: 0.0,
            stuck_read: 0.0,
            read_replay: 0.0,
            ..FaultConfig::replay_mix()
        }
    }

    fn cycles(&self, from: usize, count: usize) -> impl Iterator<Item = &[Access]> {
        self.stream
            .chunks(ACCESSES_PER_CYCLE)
            .skip(from)
            .take(count)
    }
}

/// One cycle: the accesses, `crash_now`, `recover`. Returns the cycle's
/// simulated cycles.
fn run_cycle(
    inst: &mut Instance,
    id: u64,
    accesses: &[Access],
    oracle: &mut Oracle,
    tracer: &mut Tracer,
    ladder: &mut Ladder,
) -> u64 {
    let policy = inst.design.policy();
    let before = policy.clock();
    let mut ok = true;
    tracer.spans.enter("op", id);
    tracer.spans.enter("recover.traffic", id);
    for a in accesses {
        let good = if a.write {
            policy.write(a.addr, inst.shadow.next_write(a.addr)).is_ok()
        } else {
            policy
                .read(a.addr)
                .is_ok_and(|bytes| inst.shadow.check_read(oracle, a.addr, &bytes))
        };
        ok &= good;
    }
    tracer.spans.exit();
    tracer.spans.enter("recover.crash_now", id);
    policy.crash_now();
    tracer.spans.exit();
    inst.shadow.crashed();
    tracer.spans.enter("recover.recover", id);
    let report = policy.recover();
    tracer.spans.exit();
    tracer.spans.exit();
    ladder.repairs += report.repairs;
    ladder.rollbacks += report.rolled_back.len() as u64;
    ladder.incidents += report.incidents.len() as u64;
    ladder.replays_detected += report.replays_detected + report.splices_detected;
    ladder.poisoned += u64::from(report.poisoned);
    ok &= oracle.matches(u64::from(report.consistent), 1) && !report.poisoned;
    oracle.op(ok, || {
        format!(
            "cycle {id}: consistent={} poisoned={} violation={:?}",
            report.consistent, report.poisoned, report.violation
        )
    });
    tracer.drain();
    policy.clock() - before
}

impl Workload for CrashRecover {
    type Instance = Instance;

    fn setup(&mut self, tracer: &Tracer) -> Instance {
        let arm = Arm::Faults(Self::fault_mix());
        let mut design = Design::build(Protocol::Path, LEVELS, arm, self.seed ^ 0xC0DE);
        let capacity = design.policy().capacity_blocks();
        let accesses = (self.warmup_cycles + self.window_cycles) * ACCESSES_PER_CYCLE;
        self.stream = uniform_stream(self.seed, capacity, accesses);
        let mut inst = Instance {
            design,
            shadow: Shadow::new(capacity),
        };
        let mut unchecked = Oracle::new(false);
        for (i, accesses) in self.cycles(0, self.warmup_cycles).enumerate() {
            run_cycle(
                &mut inst,
                i as u64,
                accesses,
                &mut unchecked,
                &mut Tracer::off(),
                &mut Ladder::default(),
            );
        }
        if tracer.is_on() {
            inst.design.policy().attach_recorder(tracer.ring.clone());
        }
        inst
    }

    fn window(&mut self, inst: &mut Instance, oracle: &mut Oracle, tracer: &mut Tracer) -> Window {
        let before = inst.design.counters();
        let mut ladder = Ladder::default();
        let start = Instant::now();
        let op_cycles: Vec<u64> = self
            .cycles(self.warmup_cycles, self.window_cycles)
            .enumerate()
            .map(|(i, accesses)| run_cycle(inst, i as u64, accesses, oracle, tracer, &mut ladder))
            .collect();
        let host_s = start.elapsed().as_secs_f64();
        let after = inst.design.counters();
        let nvm = after.nvm.since(&before.nvm);
        let ops = op_cycles.len() as u64;
        let mut rows = Vec::new();
        if tracer.is_on() {
            rows = counter_rows(&before, &after, ops);
            let per_op = |v: u64| v as f64 / ops as f64;
            let mut recover_ns = tracer.spans.durations_ns("recover.recover");
            let traffic_ns: u64 = tracer.spans.durations_ns("recover.traffic").iter().sum();
            let (p50, p99, _) = crate::stats::p50_p99(&mut recover_ns);
            rows.extend([
                ("recover.host_us_p50", p50 as f64 / 1e3),
                ("recover.host_us_p99", p99 as f64 / 1e3),
                (
                    "recover.traffic_host_share",
                    traffic_ns as f64 / (host_s * 1e9),
                ),
                ("recover.repairs_per_op", per_op(ladder.repairs)),
                ("recover.rollbacks_per_op", per_op(ladder.rollbacks)),
                ("recover.incidents_per_op", per_op(ladder.incidents)),
                (
                    "recover.replays_detected_per_op",
                    per_op(ladder.replays_detected),
                ),
                // A poisoned instance would have to be rebuilt; it also
                // counts as a failed op.
                ("recover.rebuilds", ladder.poisoned as f64),
            ]);
        }
        Window {
            ops,
            host_s,
            sim_cycles: after.clock - before.clock,
            nvm_reads: nvm.reads,
            nvm_writes: nvm.writes,
            nvm_ops: ops,
            reported_percentiles: None,
            fold_ops: ops,
            op_cycles,
            design_parts: vec![(after.clock - before.clock, nvm.writes)],
            rows,
        }
    }

    /// The identical access stream on `Baseline`: no crashes, no faults,
    /// no authentication.
    fn reference(&mut self) -> Vec<(u64, u64)> {
        let (warm, timed) = self
            .stream
            .split_at(self.warmup_cycles * ACCESSES_PER_CYCLE);
        vec![baseline_pass(
            Protocol::Path,
            LEVELS,
            self.seed,
            warm,
            timed,
        )]
    }

    fn final_check(&mut self, mut inst: Instance, oracle: &mut Oracle) -> f64 {
        let start = Instant::now();
        let verdict = inst.design.policy().verify_contents(true);
        self.verify_contents_s = start.elapsed().as_secs_f64();
        oracle.op(verdict.is_ok(), || {
            format!("verify_contents: {}", verdict.unwrap_err())
        });
        self.verify_contents_s
    }

    fn side_rows(&mut self, _oracle: &mut Oracle) -> Vec<(&'static str, f64)> {
        vec![("recover.verify_contents_s", self.verify_contents_s)]
    }

    fn levels(&self) -> u32 {
        LEVELS
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "op",
                format!("one cycle: {ACCESSES_PER_CYCLE} accesses, crash_now, recover"),
            ),
            ("loop", "closed, 1 client".into()),
            ("levels", LEVELS.to_string()),
            ("warmup_ops", self.warmup_cycles.to_string()),
            ("window_ops", self.window_cycles.to_string()),
            (
                "ref_ops",
                "the whole window's accesses, crash-free".to_string(),
            ),
        ]
    }
}

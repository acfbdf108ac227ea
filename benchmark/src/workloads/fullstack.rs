//! `fullstack_spec`: the paper's Fig. 5 experiment. One `System` per
//! SPEC-like trace (core model, caches, PS-ORAM controller, one PCM
//! channel), stepped record by record over harness-generated streams.

use std::time::Instant;

use psoram_core::ProtocolVariant;
use psoram_system::{System, SystemConfig};
use psoram_trace::{SpecWorkload, TraceGenerator, TraceRecord};

use crate::measure::{Tracer, Window, Workload};
use crate::oracle::Oracle;
use crate::Scale;

const LEVELS: u32 = 16;
/// Records per op.
const BATCH: usize = 1_000;

pub struct Fullstack {
    /// Warm-up batches per trace: fills the caches before
    /// `mark_measurement_start`, as the figure binaries do (20%).
    warmup_batches: usize,
    window_batches: usize,
    seed: u64,
    traces: Vec<Vec<TraceRecord>>,
}

pub struct Instance {
    systems: Vec<System>,
}

impl Fullstack {
    pub fn new(seed: u64, scale: Scale) -> Self {
        Fullstack {
            warmup_batches: scale.ops(8, 2),
            // 14 x 80 = 1,120 ops: ten samples beyond the p99.
            window_batches: scale.ops(80, 4),
            seed,
            traces: Vec::new(),
        }
    }

    fn config(&self, variant: ProtocolVariant) -> SystemConfig {
        let mut cfg = SystemConfig::experiment(variant, 1);
        cfg.oram = cfg.oram.with_levels(LEVELS);
        cfg.oram.data_wpq_capacity = cfg.oram.path_slots();
        cfg.oram.posmap_wpq_capacity = cfg.oram.path_slots();
        cfg.seed = self.seed ^ 0xC0DE;
        cfg
    }

    /// Builds one system per trace and runs the warm-up batches.
    fn warmed_systems(&self, variant: ProtocolVariant) -> Vec<System> {
        self.traces
            .iter()
            .map(|trace| {
                let mut sys = System::new(self.config(variant));
                for rec in &trace[..self.warmup_batches * BATCH] {
                    sys.step(rec);
                }
                sys.mark_measurement_start();
                sys
            })
            .collect()
    }
}

impl Workload for Fullstack {
    type Instance = Instance;

    fn setup(&mut self, tracer: &Tracer) -> Instance {
        let records = (self.warmup_batches + self.window_batches) * BATCH;
        let probe = System::new(self.config(ProtocolVariant::PsOram));
        self.traces = SpecWorkload::all()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let mut spec = w.spec();
                probe.fit_spec(&mut spec);
                TraceGenerator::new(&spec, self.seed.wrapping_add(i as u64))
                    .take(records)
                    .collect()
            })
            .collect();
        let mut systems = self.warmed_systems(ProtocolVariant::PsOram);
        if tracer.is_on() {
            for sys in &mut systems {
                sys.set_recorder(tracer.ring.clone());
            }
        }
        Instance { systems }
    }

    fn window(&mut self, inst: &mut Instance, oracle: &mut Oracle, tracer: &mut Tracer) -> Window {
        let mut win = Window::default();
        let (mut instructions, mut llc_misses) = (0u64, 0u64);
        let start = Instant::now();
        for (t, (sys, trace)) in inst.systems.iter_mut().zip(&self.traces).enumerate() {
            let name = SpecWorkload::all()[t].name();
            for (b, batch) in trace[self.warmup_batches * BATCH..]
                .chunks(BATCH)
                .enumerate()
            {
                let before = sys.clock();
                tracer
                    .spans
                    .enter("op", (t * self.window_batches + b) as u64);
                for rec in batch {
                    sys.step(rec);
                }
                tracer.spans.exit();
                win.op_cycles.push(sys.clock() - before);
                tracer.drain();
            }
            let result = sys.result(name);
            // An in-range access cannot fail (the system would panic), so
            // an op counts as good when its trace accounted for every
            // record and no crash fired.
            let good = oracle.matches(result.accesses, (self.window_batches * BATCH) as u64)
                && sys.crashes_recovered() == 0;
            for _ in 0..self.window_batches {
                oracle.op(good, || format!("{name}: {result:?}"));
            }
            win.sim_cycles += result.exec_cycles;
            win.nvm_reads += result.nvm.reads;
            win.nvm_writes += result.nvm.writes;
            win.design_parts
                .push((result.exec_cycles, result.nvm.writes));
            instructions += result.instructions;
            llc_misses += result.llc_misses;
        }
        win.host_s = start.elapsed().as_secs_f64();
        win.ops = win.op_cycles.len() as u64;
        win.nvm_ops = win.ops;
        win.fold_ops = win.ops;
        if tracer.is_on() {
            win.rows = vec![
                (
                    "cache.llc_mpki",
                    llc_misses as f64 * 1e3 / instructions as f64,
                ),
                (
                    "system.host_ns_per_llc_miss",
                    win.host_s * 1e9 / llc_misses.max(1) as f64,
                ),
                (
                    "system.sim_ipc",
                    instructions as f64 / win.sim_cycles as f64,
                ),
            ];
        }
        win
    }

    /// The same traces, warm-up included, on `Baseline`: per-trace cycles
    /// and writes for the Fig. 5 / Fig. 6 geometric means.
    fn reference(&mut self) -> Vec<(u64, u64)> {
        self.warmed_systems(ProtocolVariant::Baseline)
            .iter_mut()
            .zip(&self.traces)
            .map(|(sys, trace)| {
                for rec in &trace[self.warmup_batches * BATCH..] {
                    sys.step(rec);
                }
                let result = sys.result("reference");
                (result.exec_cycles, result.nvm.writes)
            })
            .collect()
    }

    fn final_check(&mut self, inst: Instance, oracle: &mut Oracle) -> f64 {
        let start = Instant::now();
        for (t, mut sys) in inst.systems.into_iter().enumerate() {
            let verdict = sys
                .oram_mut()
                .expect("experiment systems carry an ORAM backend")
                .verify_contents(false);
            oracle.op(verdict.is_ok(), || {
                format!(
                    "{} verify_contents: {}",
                    SpecWorkload::all()[t].name(),
                    verdict.unwrap_err()
                )
            });
        }
        start.elapsed().as_secs_f64()
    }

    fn paper_overhead_pct(&self) -> Option<f64> {
        Some(4.29)
    }

    fn levels(&self) -> u32 {
        LEVELS
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("op", format!("one {BATCH}-record batch")),
            ("loop", "closed, 1 in-order core per trace".into()),
            ("levels", LEVELS.to_string()),
            (
                "warmup_ops",
                format!("14 x {} (caches warmed)", self.warmup_batches),
            ),
            ("window_ops", format!("14 x {}", self.window_batches)),
            ("ref_ops", "the whole window".into()),
        ]
    }
}

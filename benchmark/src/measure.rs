//! The measuring loop every workload runs through.
//!
//! A *rep* is one set-up (build the design, generate the op stream from the
//! seed, warm up) followed by one timed *window* of a fixed number of ops.
//! Reps repeat on fresh instances until `--seconds` of window time has been
//! measured. Every rep does identical work, so:
//!
//! * sim-clock metrics come from rep 0 and every later rep must reproduce
//!   them exactly (a rep that does not is a counted failure);
//! * host-clock metrics are the median over reps, which a faster simulator
//!   moves without changing what is measured.

use std::sync::Arc;
use std::time::Instant;

use psoram_obsv::RingBufferRecorder;

use crate::fold::{Fold, PHASES};
use crate::oracle::Oracle;
use crate::spans::Spans;
use crate::{alloc, stats};

/// Events per op stay in the low hundreds, so draining every
/// [`DRAIN_EVERY`] ops keeps the ring far from wrapping.
pub const RING_CAPACITY: usize = 1 << 16;
pub const DRAIN_EVERY: usize = 32;

/// What `--trace 1` switches on around a window: harness spans, the event
/// ring the design emits into, and the fold that consumes it.
pub struct Tracer {
    pub spans: Spans,
    pub ring: Arc<RingBufferRecorder>,
    pub fold: Fold,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            spans: Spans::off(),
            ring: Arc::new(RingBufferRecorder::new(1)),
            fold: Fold::default(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            spans: Spans::on(),
            ring: Arc::new(RingBufferRecorder::new(RING_CAPACITY)),
            fold: Fold::default(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.spans.is_on()
    }

    pub fn drain(&mut self) {
        if self.is_on() {
            self.fold.drain(&self.ring);
        }
    }
}

/// What one timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: u64,
    pub host_s: f64,
    pub sim_cycles: u64,
    pub nvm_reads: u64,
    pub nvm_writes: u64,
    /// Ops the two NVM counts cover (the whole window unless the workload
    /// can only count a prefix from outside).
    pub nvm_ops: u64,
    /// Simulated cycles of each op, in op order.
    pub op_cycles: Vec<u64>,
    /// `(p50, p99, samples)` where the program reports percentiles itself
    /// and keeps the samples (the service report).
    pub reported_percentiles: Option<(u64, u64, usize)>,
    /// `(sim cycles, NVM writes)` of the design over the part of the
    /// stream the reference pass replays; several parts are combined by
    /// geometric mean (one per SPEC trace on `fullstack_spec`).
    pub design_parts: Vec<(u64, u64)>,
    /// Ops whose events reached the tracer's fold (the whole window unless
    /// the workload can only trace a prefix from outside).
    pub fold_ops: u64,
    /// Per-layer rows cut from public stats accessors; traced windows only.
    pub rows: Vec<(&'static str, f64)>,
}

impl Window {
    fn sim_signature(&self) -> (u64, u64, u64, u64) {
        (self.ops, self.sim_cycles, self.nvm_reads, self.nvm_writes)
    }
}

pub trait Workload {
    type Instance;

    /// Builds the design(s), generates the op stream from the seed and
    /// runs the warm-up. Timed as one `setup_s` sample.
    fn setup(&mut self, tracer: &Tracer) -> Self::Instance;

    /// Runs the fixed op count of one window and checks every output.
    fn window(
        &mut self,
        inst: &mut Self::Instance,
        oracle: &mut Oracle,
        tracer: &mut Tracer,
    ) -> Window;

    /// Replays the same stream, untimed, on the protocol's `Baseline`
    /// variant with crashes, faults and authentication removed; returns
    /// parts matching [`Window::design_parts`].
    fn reference(&mut self) -> Vec<(u64, u64)>;

    /// End-of-run contents check on the last instance, outside any timed
    /// region. Returns the seconds it took.
    fn final_check(&mut self, inst: Self::Instance, oracle: &mut Oracle) -> f64;

    /// Side runs that only `--trace 1` pays for.
    fn side_rows(&mut self, _oracle: &mut Oracle) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// The paper's figure for this workload's overhead over Baseline, where
    /// the workload reproduces a paper experiment.
    fn paper_overhead_pct(&self) -> Option<f64> {
        None
    }

    /// Tree height the kernel replays are sized to.
    fn levels(&self) -> u32;

    /// Sizes and settings worth printing beside the numbers.
    fn notes(&self) -> Vec<(&'static str, String)>;
}

/// Everything a finished run knows; `main` turns it into JSON.
#[derive(Debug, Default)]
pub struct Measured {
    pub metrics: Vec<(&'static str, f64)>,
    /// Per-rep samples behind the host-clock medians.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub notes: Vec<(&'static str, String)>,
}

fn vm_hwm_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn timed_setup<W: Workload>(w: &mut W, tracer: &Tracer, setups: &mut Vec<f64>) -> W::Instance {
    let t = Instant::now();
    let inst = w.setup(tracer);
    setups.push(t.elapsed().as_secs_f64());
    inst
}

/// Geometric mean of design ÷ reference over the parts, for cycles and for
/// NVM writes.
fn versus_reference(design: &[(u64, u64)], reference: &[(u64, u64)]) -> (f64, f64) {
    assert_eq!(design.len(), reference.len(), "reference parts mismatch");
    let ratio = |pick: fn(&(u64, u64)) -> u64| {
        let ratios: Vec<f64> = design
            .iter()
            .zip(reference)
            .map(|(d, r)| pick(d) as f64 / pick(r).max(1) as f64)
            .collect();
        stats::geomean(&ratios)
    };
    (ratio(|p| p.0), ratio(|p| p.1))
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end<W: Workload>(w: &mut W, seconds: f64, oracle: &mut Oracle) -> Measured {
    let mut tracer = Tracer::off();
    let mut setups = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut timed = 0.0;
    let last = loop {
        let mut inst = timed_setup(w, &tracer, &mut setups);
        let win = w.window(&mut inst, oracle, &mut tracer);
        timed += win.host_s;
        let another = timed < seconds && timed + win.host_s <= seconds * 1.25;
        windows.push(win);
        if !another {
            break inst;
        }
    };
    // Long windows leave few reps; set-up alone is cheap enough to sample.
    while setups.len() < 3 {
        drop(timed_setup(w, &tracer, &mut setups));
    }

    let first = &windows[0];
    for (rep, win) in windows.iter().enumerate().skip(1) {
        oracle.op(win.sim_signature() == first.sim_signature(), || {
            format!(
                "rep {rep} did not reproduce rep 0's simulated totals: {:?} vs {:?}",
                win.sim_signature(),
                first.sim_signature()
            )
        });
    }

    let reference = w.reference();
    let (vs_baseline, _) = versus_reference(&first.design_parts, &reference);
    let check_s = w.final_check(last, oracle);

    let ops = first.ops as f64;
    let rates: Vec<f64> = windows.iter().map(|w| w.ops as f64 / w.host_s).collect();
    let (p50, p99, count) = first
        .reported_percentiles
        .unwrap_or_else(|| stats::p50_p99(&mut first.op_cycles.clone()));
    let mut notes = w.notes();
    notes.push(("reps", windows.len().to_string()));
    notes.push(("sim_op_samples", count.to_string()));
    notes.push(("final_check_s", format!("{check_s:.3}")));
    Measured {
        metrics: vec![
            ("setup_s", stats::median(&setups)),
            ("host_ops_per_s", stats::median(&rates)),
            ("host_peak_rss_mb", vm_hwm_mib()),
            ("sim_cycles_per_op", first.sim_cycles as f64 / ops),
            ("sim_op_p50_cycles", p50 as f64),
            ("sim_op_p99_cycles", p99 as f64),
            (
                "nvm_reads_per_op",
                first.nvm_reads as f64 / first.nvm_ops as f64,
            ),
            (
                "nvm_writes_per_op",
                first.nvm_writes as f64 / first.nvm_ops as f64,
            ),
            ("sim_cycles_vs_baseline", vs_baseline),
        ],
        samples: vec![("setup_s", setups), ("host_ops_per_s", rates)],
        notes,
    }
}

/// `--trace 1`: one traced window, one untraced window for the tracing
/// price, the kernel replays, and the workload's side runs.
pub fn per_layer<W: Workload>(w: &mut W, oracle: &mut Oracle) -> (Measured, Spans) {
    let mut tracer = Tracer::on();
    let mut inst = w.setup(&tracer);
    let (allocs0, bytes0) = alloc::snapshot();
    alloc::set_enabled(true);
    let traced = w.window(&mut inst, oracle, &mut tracer);
    alloc::set_enabled(false);
    let (allocs1, bytes1) = alloc::snapshot();
    tracer.drain();
    w.final_check(inst, oracle);

    let mut off = Tracer::off();
    let mut untraced_inst = w.setup(&off);
    let untraced = w.window(&mut untraced_inst, oracle, &mut off);
    drop(untraced_inst);
    oracle.op(untraced.sim_signature() == traced.sim_signature(), || {
        "tracing changed the simulated totals".into()
    });

    let reference = w.reference();
    let (vs_baseline, writes_vs_baseline) = versus_reference(&traced.design_parts, &reference);

    let ops = traced.ops as f64;
    let fold = &tracer.fold;
    let per_op = |v: u64| v as f64 / traced.fold_ops as f64;
    let per_window_op = |v: u64| v as f64 / ops;
    let mut rows: Vec<(&'static str, f64)> = vec![
        ("round.sim_cycles_per_op", per_op(fold.round_cycles)),
        ("round.data_units_per_op", per_op(fold.round_data_units)),
        ("round.posmap_units_per_op", per_op(fold.round_posmap_units)),
        (
            "nvm.sim_read_latency_mean_cycles",
            fold.mean_nvm_latency(false),
        ),
        (
            "nvm.sim_write_latency_mean_cycles",
            fold.mean_nvm_latency(true),
        ),
        (
            "nvm.ps_write_overhead_pct",
            100.0 * (writes_vs_baseline - 1.0),
        ),
        ("alloc.allocs_per_op", per_window_op(allocs1 - allocs0)),
        ("alloc.bytes_per_op", per_window_op(bytes1 - bytes0)),
        (
            "obsv.traced_slowdown",
            (untraced.ops as f64 / untraced.host_s) / (ops / traced.host_s),
        ),
        ("obsv.events_per_op", per_op(fold.events)),
        ("obsv.dropped_events", fold.dropped as f64),
    ];
    rows.extend(
        PHASES
            .iter()
            .zip(fold.phase_cycles)
            .map(|((_, row), cycles)| (*row, per_op(cycles))),
    );
    if let Some(paper_pct) = w.paper_overhead_pct() {
        rows.push((
            "system.ps_overhead_error_vs_paper_pp",
            100.0 * (vs_baseline - 1.0) - paper_pct,
        ));
    }
    rows.extend(op_span_rows(&tracer.spans));
    rows.extend(traced.rows.iter().copied());
    rows.extend(w.side_rows(oracle));
    let kernels = crate::kernels::replay(w.levels());
    // What an op costs beyond the layers replayed standalone.
    if let Some((_, ns)) = rows.iter().find(|(n, _)| *n == "controller.host_ns_per_op") {
        rows.push(("controller.unattributed_ns_per_op", ns - kernels.access_ns));
    }
    rows.extend(kernels.rows);

    let mut notes = w.notes();
    notes.push((
        "critical_path_phases_over_sim_cycles",
        format!(
            "{:.4}",
            per_op(fold.critical_path_cycles()) / (traced.sim_cycles as f64 / ops)
        ),
    ));
    let measured = Measured {
        metrics: rows,
        samples: Vec::new(),
        notes,
    };
    (measured, tracer.spans)
}

/// Host-time rows from the `op` spans: per-op percentiles and the
/// throughput of five equal segments of the window.
fn op_span_rows(spans: &Spans) -> Vec<(&'static str, f64)> {
    let mut ns = spans.durations_ns("op");
    if ns.is_empty() {
        return Vec::new();
    }
    let total: u64 = ns.iter().sum();
    let seg_rates: Vec<f64> = ns
        .chunks(ns.len().div_ceil(5))
        .map(|seg| seg.len() as f64 * 1e9 / seg.iter().sum::<u64>().max(1) as f64)
        .collect();
    let mean_ns = total as f64 / ns.len() as f64;
    let (p50, p99, _) = stats::p50_p99(&mut ns);
    vec![
        ("controller.host_access_p50_us", p50 as f64 / 1e3),
        ("controller.host_access_p99_us", p99 as f64 / 1e3),
        ("controller.host_ns_per_op", mean_ns),
        (
            "controller.host_ops_per_s_seg_min",
            seg_rates.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "controller.host_ops_per_s_seg_max",
            seg_rates.iter().copied().fold(0.0, f64::max),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_ratio_is_a_geomean_over_parts() {
        let (cycles, writes) = versus_reference(&[(200, 30), (800, 30)], &[(100, 10), (100, 30)]);
        assert!((cycles - 4.0).abs() < 1e-12);
        assert!((writes - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_reads_a_positive_size() {
        assert!(vm_hwm_mib() > 0.0);
    }
}

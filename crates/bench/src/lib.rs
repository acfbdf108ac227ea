//! # psoram-bench
//!
//! The experiment harness regenerating every table and figure of the
//! PS-ORAM paper. [`experiments::REGISTRY`] is one table of every tracked
//! result; the `experiments [NAME...]` binary regenerates them (all of
//! them without a name):
//!
//! | Entries | What they back |
//! |---|---|
//! | `table1`, `table2`, `table4` | Tables 1, 2 and 4 |
//! | `fig5`, `fig6`, `fig7` | Figures 5, 6 and 7 |
//! | `oram_overhead` | §5.1's ORAM vs non-ORAM overhead |
//! | `stash_study`, `stash_tail_study`, `wpq_study`, `tech_study` | the sizing of Table 3's stash and WPQ, Table 3(c)'s PCM vs STT-RAM |
//! | `topcache_study`, `scheduler_study`, `ring_vs_path` | extensions: §4.5's hybrid memory, write buffering, Ring ORAM |
//! | `lifetime`, `service` | `BENCH_07.json` (endurance) and `BENCH_06.json` (the sharded service) |
//!
//! Each entry's scale is a constant: the full-system sweeps run at
//! [`SWEEP_LEVELS`], [`SWEEP_RECORDS`] and [`SWEEP_WARMUP`], each study
//! at its own access count. Shared utilities here: run orchestration,
//! the campaign front-ends, normalized tables and geometric means.
//! [`fleet`] runs BENCH_07's wear fleet for the `lifetime` entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fleet;

use psoram_core::{ProtocolPolicy, ProtocolVariant};
use psoram_faultsim::{
    device_campaign, exhaustive_sweep, random_campaign, random_campaign_traced, CampaignConfig,
    CampaignReport, DeviceCampaignConfig, DeviceCampaignReport, SweepConfig,
};
use psoram_obsv::Event;
use psoram_system::{SimResult, System, SystemConfig};
use psoram_trace::SpecWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The CLI surface shared by the harness binaries: `--jobs N`
/// (exported as `PSORAM_JOBS` for the deterministic worker pool),
/// `--trace-out FILE` (chrome://tracing JSON timeline), and
/// `--metrics-out FILE` (flat counters/gauges/histograms snapshot).
///
/// One pass over argv consumes the shared flags and leaves everything
/// else in [`CommonCli::rest`] for the binary's own parser — so no
/// binary duplicates the jobs/observability parsing, and new shared
/// flags land everywhere at once. `--jobs 1` restores the legacy serial
/// behavior; the output of every binary is byte-identical at any job
/// count — parallelism only changes wall-clock (see DESIGN.md).
#[derive(Debug, Clone, Default)]
pub struct CommonCli {
    /// Resolved worker count (after applying `--jobs` / `PSORAM_JOBS`).
    pub jobs: usize,
    /// Destination for the chrome://tracing JSON, if requested.
    pub trace_out: Option<String>,
    /// Destination for the metrics snapshot JSON, if requested.
    pub metrics_out: Option<String>,
    /// Arguments the shared pass did not consume, in order.
    pub rest: Vec<String>,
}

impl CommonCli {
    /// Parses the process argv (skipping the binary name).
    ///
    /// # Panics
    ///
    /// Exits the process (status 2) on a malformed shared flag.
    pub fn parse() -> CommonCli {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument vector (testable entry point).
    ///
    /// # Panics
    ///
    /// Exits the process (status 2) on a malformed shared flag.
    pub fn from_args(args: Vec<String>) -> CommonCli {
        let fail = |msg: &str| -> ! {
            eprintln!("error: {msg}");
            std::process::exit(2);
        };
        let mut cli = CommonCli::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg.clone(), None),
            };
            let slot = match flag.as_str() {
                "--jobs" => None,
                "--trace-out" => Some(&mut cli.trace_out),
                "--metrics-out" => Some(&mut cli.metrics_out),
                _ => {
                    cli.rest.push(arg);
                    continue;
                }
            };
            let value = inline.or_else(|| it.next());
            match (slot, value) {
                (Some(slot), Some(path)) => *slot = Some(path),
                (Some(_), None) => fail(&format!("{flag} needs a file path")),
                (None, value) => match value.and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => {
                        std::env::set_var(psoram_faultsim::par::JOBS_ENV, n.to_string())
                    }
                    _ => fail("--jobs needs a positive integer"),
                },
            }
        }
        cli.jobs = psoram_faultsim::resolve_jobs(0);
        cli
    }
}

/// Writes an observability artifact (chrome trace or metrics snapshot),
/// announcing the path.
///
/// # Panics
///
/// Panics on I/O errors — experiments want loud failures.
pub fn write_obsv_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, contents).expect("write observability output");
    println!("[saved {path}]");
}

/// Trace records measured per workload by the full-system sweeps (Table 4,
/// Figs. 5–7, `oram_overhead`, `tech_study`).
pub const SWEEP_RECORDS: usize = 40_000;

/// ORAM tree height of the full-system sweeps (the paper: 23). 18 keeps
/// the sparse tree's host-memory footprint tractable for full sweeps; see
/// DESIGN.md's substitution notes.
pub const SWEEP_LEVELS: u32 = 18;

/// Warmup records run before each sweep measurement and excluded from it
/// (simpoint-style): a fifth of [`SWEEP_RECORDS`].
pub const SWEEP_WARMUP: usize = SWEEP_RECORDS / 5;

/// Builds the experiment system config for `variant` and `channels`.
pub fn experiment_config(variant: ProtocolVariant, channels: usize) -> SystemConfig {
    let mut cfg = SystemConfig::experiment(variant, channels);
    cfg.oram = cfg.oram.with_levels(SWEEP_LEVELS);
    cfg.oram.data_wpq_capacity = cfg.oram.path_slots();
    cfg.oram.posmap_wpq_capacity = cfg.oram.path_slots();
    cfg
}

/// Runs one workload on the system `cfg` describes at the sweep scale:
/// [`SWEEP_WARMUP`] unmeasured records, then [`SWEEP_RECORDS`] measured.
pub(crate) fn run_config(cfg: SystemConfig, workload: SpecWorkload) -> SimResult {
    System::new(cfg).run_workload_with_warmup(workload, SWEEP_WARMUP, SWEEP_RECORDS)
}

/// Runs one workload under one variant and returns the result.
pub fn run_one(variant: ProtocolVariant, channels: usize, workload: SpecWorkload) -> SimResult {
    run_config(experiment_config(variant, channels), workload)
}

/// Runs the non-ORAM reference system on one workload.
pub fn run_reference(channels: usize, workload: SpecWorkload) -> SimResult {
    let mut cfg = SystemConfig::non_oram_reference(channels);
    cfg.oram = cfg.oram.with_levels(SWEEP_LEVELS);
    run_config(cfg, workload)
}

/// For every SPEC workload on one channel: runs the Baseline variant
/// plus each of `variants`, handing `(workload, baseline, per-variant
/// results)` to `row` (results align with `variants`). Progress goes to
/// stderr.
///
/// Workloads are independent simulations, so they fan out across the
/// worker pool (`--jobs` / `PSORAM_JOBS`); `row` is still invoked in
/// `SpecWorkload::all()` order after collection, so every table the
/// figures print is byte-identical at any job count.
///
/// # Examples
///
/// ```no_run
/// use psoram_bench::sweep_vs_baseline;
/// use psoram_core::ProtocolVariant;
///
/// sweep_vs_baseline(&[ProtocolVariant::PsOram], |w, base, runs| {
///     println!("{w}: {:.3}", runs[0].normalized_time(base));
/// });
/// ```
pub fn sweep_vs_baseline(
    variants: &[ProtocolVariant],
    mut row: impl FnMut(SpecWorkload, &SimResult, &[SimResult]),
) {
    let results = psoram_faultsim::par_map(0, SpecWorkload::all().to_vec(), |w| {
        let base = run_one(ProtocolVariant::Baseline, 1, w);
        let runs: Vec<SimResult> = variants.iter().map(|&v| run_one(v, 1, w)).collect();
        eprintln!("[{w} done]");
        (w, base, runs)
    });
    for (w, base, runs) in results {
        row(w, &base, &runs);
    }
}

/// Runs the fault-injection campaigns for `mode` (`"exhaustive"`,
/// `"random"`, or `"both"`) at their default scale, optionally
/// overriding the campaign seed.
///
/// With `traced`, the random campaign runs with a per-design ring-buffer
/// recorder and its event tracks come back alongside the reports (one per
/// design, in sweep order); otherwise the tracks are empty. The
/// exhaustive sweep always runs untraced. Recorders only observe, so the
/// reports are byte-identical either way.
pub fn crash_campaigns(
    mode: &str,
    seed: Option<u64>,
    traced: bool,
) -> (Vec<CampaignReport>, Vec<(String, Vec<Event>)>) {
    let mut reports = Vec::new();
    let mut tracks = Vec::new();
    if mode == "exhaustive" || mode == "both" {
        let mut cfg = SweepConfig::default();
        if let Some(s) = seed {
            cfg.seed = s;
        }
        reports.push(exhaustive_sweep(&cfg));
    }
    if mode == "random" || mode == "both" {
        let mut cfg = CampaignConfig::default();
        if let Some(s) = seed {
            cfg.seed = s;
        }
        if traced {
            let (report, t) = random_campaign_traced(&cfg);
            reports.push(report);
            tracks = t;
        } else {
            reports.push(random_campaign(&cfg));
        }
    }
    (reports, tracks)
}

/// Runs the device-fault campaign: the randomized crash campaign with a
/// seeded device fault plan (torn flushes, lost/duplicated WPQ signals,
/// persisted bit flips, read failures) armed underneath every Path and
/// Ring design. With `replay` the plan also arms the freshness adversary
/// (stale replays, cross splices, stale read serves), which the
/// authenticated counter tree must detect. Runs at the default scale,
/// deterministic in `seed` at any job count.
pub fn device_campaigns(seed: Option<u64>, aggressive: bool, replay: bool) -> DeviceCampaignReport {
    let mut cfg = DeviceCampaignConfig::default();
    if let Some(s) = seed {
        cfg.seed = s;
    }
    cfg.aggressive = aggressive;
    cfg.replay = replay;
    device_campaign(&cfg)
}

/// Cycle and NVM-traffic snapshot of one design after a traffic run, as
/// the design-level comparisons report it.
#[derive(Debug, Clone, serde::Serialize)]
pub struct TrafficRow {
    /// Design name.
    pub name: String,
    /// Core cycles consumed.
    pub cycles: u64,
    /// NVM block reads issued.
    pub reads: u64,
    /// NVM block writes issued.
    pub writes: u64,
}

/// Drives `accesses` uniformly random block writes (from an `StdRng` seeded
/// with `seed`) through a design via the shared [`ProtocolPolicy`] surface
/// and snapshots its cycle and traffic counters.
///
/// # Panics
///
/// Panics if any access fails — traffic runs inject no crashes.
pub fn drive_uniform_writes(
    name: &str,
    oram: &mut dyn ProtocolPolicy,
    accesses: usize,
    seed: u64,
) -> TrafficRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let cap = oram.capacity_blocks();
    let payload = vec![0u8; oram.payload_bytes()];
    for _ in 0..accesses {
        oram.write(rng.gen_range(0..cap), payload.clone())
            .expect("traffic write");
    }
    let stats = oram.nvm_stats();
    TrafficRow {
        name: name.to_string(),
        cycles: oram.clock(),
        reads: stats.reads,
        writes: stats.writes,
    }
}

/// Geometric mean of a slice of positive numbers.
///
/// # Panics
///
/// Panics if `xs` is empty or contains non-positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    let log_sum: f64 = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "geomean requires positive values");
            x.ln()
        })
        .sum();
    (log_sum / xs.len() as f64).exp()
}

/// A table of per-workload values for several named series, printed in the
/// paper's figure layout (one row per workload, one column per series, plus
/// a geometric-mean row).
#[derive(Debug, Default, Clone)]
pub struct FigureTable {
    series: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl FigureTable {
    /// Creates a table with the given series (column) names.
    pub fn new(series: &[&str]) -> Self {
        FigureTable {
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one workload row; `values` must align with the series.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the series count.
    pub fn add_row(&mut self, workload: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row arity mismatch");
        self.rows.push((workload.to_string(), values));
    }

    /// Per-series geometric means across rows.
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.series.len())
            .map(|i| geomean(&self.rows.iter().map(|(_, r)| r[i]).collect::<Vec<_>>()))
            .collect()
    }

    /// Renders the table with a `gmean` footer row.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("\n== {title} ==\n{:<16}", "workload");
        for s in &self.series {
            out.push_str(&format!("{s:>16}"));
        }
        let gmean = ("gmean".to_string(), self.geomeans());
        for (w, values) in self.rows.iter().chain([&gmean]) {
            out.push_str(&format!("\n{w:<16}"));
            for v in values {
                out.push_str(&format!("{v:>16.4}"));
            }
        }
        out.push('\n');
        out
    }
}

/// Writes a JSON value to `path` (see [`write_obsv_file`]).
fn write_results_json(path: &str, value: &serde_json::Value) {
    write_obsv_file(
        path,
        &serde_json::to_string_pretty(value).expect("serialize"),
    );
}

/// The paper's Table 3 header at the sweep scale, printed by each entry
/// that runs the full-system sweep (Table 4, Figs. 5–7, `oram_overhead`,
/// `tech_study`) before its table; the other entries run geometries of
/// their own and print none of it.
pub fn print_sweep_config() {
    println!(
        "config: in-order core 3.2GHz | L1 32KB/2-way | L2 1MB/8-way | \
         Z=4, L={SWEEP_LEVELS} (paper: 23), stash 200, C_tPos 96 | PCM 400MHz \
         48/60/4/3/1/2 | records/workload={SWEEP_RECORDS}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[0.0, 1.0]);
    }

    #[test]
    fn figure_table_render_and_gmean() {
        let mut t = FigureTable::new(&["a", "b"]);
        t.add_row("w1", vec![1.0, 2.0]);
        t.add_row("w2", vec![4.0, 8.0]);
        let g = t.geomeans();
        assert!((g[0] - 2.0).abs() < 1e-12);
        assert!((g[1] - 4.0).abs() < 1e-12);
        let row = |w: &str, a: f64, b: f64| format!("{w:<16}{a:>16.4}{b:>16.4}\n");
        assert_eq!(
            t.render("test"),
            format!("\n== test ==\n{:<16}{:>16}{:>16}\n", "workload", "a", "b")
                + &row("w1", 1.0, 2.0)
                + &row("w2", 4.0, 8.0)
                + &row("gmean", 2.0, 4.0)
        );
    }

    #[test]
    fn common_cli_splits_shared_flags_from_rest() {
        let cli = CommonCli::from_args(
            [
                "--quiet",
                "--trace-out",
                "t.json",
                "--metrics-out=m.json",
                "--out",
                "r.json",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        );
        assert_eq!(cli.trace_out.as_deref(), Some("t.json"));
        assert_eq!(cli.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(cli.rest, vec!["--quiet", "--out", "r.json"]);
        assert!(cli.jobs >= 1);
    }

    #[test]
    fn experiment_config_honours_levels() {
        let cfg = experiment_config(ProtocolVariant::PsOram, 2);
        assert_eq!(cfg.oram.levels, SWEEP_LEVELS);
        assert_eq!(cfg.nvm.channels, 2);
    }
}

//! # psoram-bench
//!
//! The experiment harness regenerating every table and figure of the
//! PS-ORAM paper. Each `src/bin/*` binary reproduces one result:
//!
//! | Binary | Paper result |
//! |---|---|
//! | `table1_energy_constants` | Table 1 (drain cost constants) |
//! | `table2_drain_cost` | Table 2 (eADR vs PS-ORAM drain energy/time) |
//! | `table4_mpki` | Table 4 (workload MPKIs through the cache model) |
//! | `fig5_performance` | Figure 5 (normalized execution time, a & b) |
//! | `fig6_traffic` | Figure 6 (NVM read/write traffic) |
//! | `fig7_multichannel` | Figure 7 (1/2/4-channel performance) |
//! | `oram_overhead` | §5.1 ORAM vs non-ORAM overhead |
//!
//! Shared utilities here: run orchestration, normalized tables, geometric
//! means, and JSON result dumps (written to `results/`). [`fleet`] runs
//! BENCH_07's wear fleet for `lifetime_campaign`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use std::collections::BTreeMap;
use std::io::Write as _;

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

/// The CLI surface shared by every experiment binary: `--jobs N`
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
        let mut cli = CommonCli::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let jobs_value = if a == "--jobs" {
                Some(it.next())
            } else {
                a.strip_prefix("--jobs=").map(|v| Some(v.to_string()))
            };
            if let Some(value) = jobs_value {
                match value.and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => {
                        std::env::set_var(psoram_faultsim::par::JOBS_ENV, n.to_string())
                    }
                    _ => {
                        eprintln!("error: --jobs needs a positive integer");
                        std::process::exit(2);
                    }
                }
                continue;
            }
            let mut consumed = false;
            for (flag, slot) in [
                ("--trace-out", &mut cli.trace_out),
                ("--metrics-out", &mut cli.metrics_out),
            ] {
                if a == flag {
                    match it.next() {
                        Some(v) => *slot = Some(v),
                        None => {
                            eprintln!("error: {flag} needs a file path");
                            std::process::exit(2);
                        }
                    }
                    consumed = true;
                } else if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
                    *slot = Some(v.to_string());
                    consumed = true;
                }
            }
            if !consumed {
                cli.rest.push(a);
            }
        }
        cli.jobs = psoram_faultsim::resolve_jobs(0);
        cli
    }
}

/// Writes an observability artifact (chrome trace or metrics snapshot),
/// announcing the path like [`write_results_json`].
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_obsv_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, contents).expect("write observability output");
    println!("[saved {path}]");
}

/// Captures a chrome-trace timeline from one deterministic full-system
/// side run: `records` trace records of `workload` under `variant` with a
/// ring-buffer recorder attached to the whole stack. Used by the figure
/// binaries' `--trace-out`, so the (long) measured sweep itself stays
/// untraced.
pub fn capture_system_trace(
    variant: ProtocolVariant,
    workload: SpecWorkload,
    channels: usize,
    records: usize,
) -> String {
    let rec = std::sync::Arc::new(psoram_obsv::RingBufferRecorder::new(
        psoram_obsv::DEFAULT_RING_CAPACITY,
    ));
    let mut sys = System::new(experiment_config(variant, channels));
    sys.set_recorder(rec.clone());
    sys.run_workload(workload, records);
    let label = format!("{}/{}", workload.name(), variant.label());
    psoram_obsv::chrome_trace_json(&[(label, rec.events())])
}

/// Records per workload for the sweep binaries; override with the
/// `PSORAM_RECORDS` environment variable.
pub fn records_per_workload() -> usize {
    std::env::var("PSORAM_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40_000)
}

/// ORAM tree height for the sweep binaries; override with `PSORAM_LEVELS`.
///
/// The default (18) keeps the sparse tree's host-memory footprint tractable
/// for full sweeps; see DESIGN.md's substitution notes.
pub fn experiment_levels() -> u32 {
    std::env::var("PSORAM_LEVELS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(18)
}

/// Builds the experiment system config for `variant` and `channels`.
pub fn experiment_config(variant: ProtocolVariant, channels: usize) -> SystemConfig {
    let mut cfg = SystemConfig::experiment(variant, channels);
    cfg.oram = cfg.oram.with_levels(experiment_levels());
    cfg.oram.data_wpq_capacity = cfg.oram.path_slots();
    cfg.oram.posmap_wpq_capacity = cfg.oram.path_slots();
    cfg
}

/// Warmup records excluded from measurement (simpoint-style); override
/// with `PSORAM_WARMUP`.
pub fn warmup_records() -> usize {
    std::env::var("PSORAM_WARMUP")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| (records_per_workload() / 5).max(2_000))
}

/// Runs one workload under one variant and returns the result.
pub fn run_one(
    variant: ProtocolVariant,
    channels: usize,
    workload: SpecWorkload,
    n: usize,
) -> SimResult {
    let mut sys = System::new(experiment_config(variant, channels));
    sys.run_workload_with_warmup(workload, warmup_records(), n)
}

/// Runs the non-ORAM reference system on one workload.
pub fn run_reference(channels: usize, workload: SpecWorkload, n: usize) -> SimResult {
    let mut cfg = SystemConfig::non_oram_reference(channels);
    cfg.oram = cfg.oram.with_levels(experiment_levels());
    let mut sys = System::new(cfg);
    sys.run_workload_with_warmup(workload, warmup_records(), n)
}

/// The shared experiment harness: one configured context (channel count,
/// records per workload, warmup) that the figure and sweep binaries drive
/// instead of each re-deriving its own config/build/run preamble.
///
/// # Examples
///
/// ```no_run
/// use psoram_bench::SimHarness;
/// use psoram_core::ProtocolVariant;
///
/// let h = SimHarness::new(1);
/// h.banner("Figure 5: performance comparison");
/// h.sweep_vs_baseline(&[ProtocolVariant::PsOram], |w, base, runs| {
///     println!("{w}: {:.3}", runs[0].normalized_time(base));
/// });
/// ```
#[derive(Debug, Clone)]
pub struct SimHarness {
    channels: usize,
    records: usize,
}

impl SimHarness {
    /// A harness over `channels` NVM channels, sized from the
    /// `PSORAM_RECORDS`/`PSORAM_LEVELS`/`PSORAM_WARMUP` environment.
    pub fn new(channels: usize) -> Self {
        SimHarness {
            channels,
            records: records_per_workload(),
        }
    }

    /// Records simulated per workload.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Prints the paper's Table 3 configuration banner.
    pub fn banner(&self, what: &str) {
        print_config_banner(what);
    }

    /// Runs one workload under one variant.
    pub fn run(&self, variant: ProtocolVariant, workload: SpecWorkload) -> SimResult {
        run_one(variant, self.channels, workload, self.records)
    }

    /// Runs the non-ORAM reference system on one workload.
    pub fn run_reference(&self, workload: SpecWorkload) -> SimResult {
        run_reference(self.channels, workload, self.records)
    }

    /// For every SPEC workload: runs the Baseline variant plus each of
    /// `variants`, handing `(workload, baseline, per-variant results)` to
    /// `row` (results align with `variants`). Progress goes to stderr.
    ///
    /// Workloads are independent simulations, so they fan out across the
    /// worker pool (`--jobs` / `PSORAM_JOBS`); `row` is still invoked in
    /// `SpecWorkload::all()` order after collection, so every table the
    /// figure binaries print is byte-identical at any job count.
    pub fn sweep_vs_baseline(
        &self,
        variants: &[ProtocolVariant],
        mut row: impl FnMut(SpecWorkload, &SimResult, &[SimResult]),
    ) {
        let results = psoram_faultsim::par_map(0, SpecWorkload::all().to_vec(), |w| {
            let base = self.run(ProtocolVariant::Baseline, w);
            let runs: Vec<SimResult> = variants.iter().map(|&v| self.run(v, w)).collect();
            eprintln!("[{w} done]");
            (w, base, runs)
        });
        for (w, base, runs) in results {
            row(w, &base, &runs);
        }
    }

    /// Runs the fault-injection campaigns for `mode`
    /// (`"exhaustive"`, `"random"`, or `"both"`), at smoke or full scale,
    /// optionally overriding the campaign seed.
    pub fn crash_campaigns(
        &self,
        mode: &str,
        smoke: bool,
        seed: Option<u64>,
    ) -> Vec<CampaignReport> {
        let mut reports = Vec::new();
        if mode == "exhaustive" || mode == "both" {
            let mut cfg = if smoke {
                SweepConfig::smoke()
            } else {
                SweepConfig::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            reports.push(exhaustive_sweep(&cfg));
        }
        if mode == "random" || mode == "both" {
            let mut cfg = if smoke {
                CampaignConfig::smoke()
            } else {
                CampaignConfig::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            reports.push(random_campaign(&cfg));
        }
        reports
    }

    /// Runs the device-fault campaign: the randomized crash campaign with
    /// a seeded device fault plan (torn flushes, lost/duplicated WPQ
    /// signals, persisted bit flips, read failures) armed underneath every
    /// Path and Ring design. With `replay` the plan also arms the
    /// freshness adversary (stale replays, cross splices, stale read
    /// serves), which the authenticated counter tree must detect.
    /// Deterministic in `seed` at any job count.
    pub fn device_campaigns(
        &self,
        smoke: bool,
        seed: Option<u64>,
        aggressive: bool,
        replay: bool,
    ) -> DeviceCampaignReport {
        let mut cfg = if smoke {
            DeviceCampaignConfig::smoke()
        } else {
            DeviceCampaignConfig::default()
        };
        if let Some(s) = seed {
            cfg.seed = s;
        }
        cfg.aggressive = aggressive;
        cfg.replay = replay;
        device_campaign(&cfg)
    }

    /// [`SimHarness::crash_campaigns`] with tracing: the random campaign
    /// runs with a per-design ring-buffer recorder and the event tracks
    /// come back alongside the reports (one per design, in sweep order).
    /// The exhaustive sweep is returned untraced. Recorders only observe,
    /// so the reports are byte-identical to [`SimHarness::crash_campaigns`].
    pub fn crash_campaigns_traced(
        &self,
        mode: &str,
        smoke: bool,
        seed: Option<u64>,
    ) -> (Vec<CampaignReport>, Vec<(String, Vec<Event>)>) {
        let mut reports = Vec::new();
        let mut tracks = Vec::new();
        if mode == "exhaustive" || mode == "both" {
            let mut cfg = if smoke {
                SweepConfig::smoke()
            } else {
                SweepConfig::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            reports.push(exhaustive_sweep(&cfg));
        }
        if mode == "random" || mode == "both" {
            let mut cfg = if smoke {
                CampaignConfig::smoke()
            } else {
                CampaignConfig::default()
            };
            if let Some(s) = seed {
                cfg.seed = s;
            }
            let (report, t) = random_campaign_traced(&cfg);
            reports.push(report);
            tracks = t;
        }
        (reports, tracks)
    }
}

/// Cycle and NVM-traffic snapshot of one design after a traffic run,
/// as reported by the design-level comparison binaries.
#[derive(Debug, Clone)]
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
    rows: BTreeMap<String, Vec<f64>>,
    row_order: Vec<String>,
}

impl FigureTable {
    /// Creates a table with the given series (column) names.
    pub fn new(series: &[&str]) -> Self {
        FigureTable {
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: BTreeMap::new(),
            row_order: Vec::new(),
        }
    }

    /// Adds one workload row; `values` must align with the series.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the series count.
    pub fn add_row(&mut self, workload: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row arity mismatch");
        if !self.rows.contains_key(workload) {
            self.row_order.push(workload.to_string());
        }
        self.rows.insert(workload.to_string(), values);
    }

    /// Per-series geometric means across rows.
    pub fn geomeans(&self) -> Vec<f64> {
        (0..self.series.len())
            .map(|i| {
                let col: Vec<f64> = self.row_order.iter().map(|w| self.rows[w][i]).collect();
                geomean(&col)
            })
            .collect()
    }

    /// Renders the table with a `gmean` footer row.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n== {title} ==\n"));
        out.push_str(&format!("{:<16}", "workload"));
        for s in &self.series {
            out.push_str(&format!("{s:>16}"));
        }
        out.push('\n');
        for w in &self.row_order {
            out.push_str(&format!("{w:<16}"));
            for v in &self.rows[w] {
                out.push_str(&format!("{v:>16.4}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<16}", "gmean"));
        for g in self.geomeans() {
            out.push_str(&format!("{g:>16.4}"));
        }
        out.push('\n');
        out
    }

    /// Series names.
    pub fn series(&self) -> &[String] {
        &self.series
    }

    /// Looks up one cell.
    pub fn get(&self, workload: &str, series: &str) -> Option<f64> {
        let i = self.series.iter().position(|s| s == series)?;
        self.rows.get(workload).map(|r| r[i])
    }
}

/// Writes a JSON value to `results/<name>.json`, creating the directory.
///
/// # Panics
///
/// Panics on I/O errors — experiment binaries want loud failures.
pub fn write_results_json(name: &str, value: &serde_json::Value) {
    std::fs::create_dir_all("results").expect("create results dir");
    let path = format!("results/{name}.json");
    let mut f = std::fs::File::create(&path).expect("create results file");
    f.write_all(
        serde_json::to_string_pretty(value)
            .expect("serialize")
            .as_bytes(),
    )
    .expect("write results");
    println!("[saved {path}]");
}

/// The paper's Table 3 header, printed by each binary for context.
pub fn print_config_banner(what: &str) {
    println!("PS-ORAM reproduction — {what}");
    println!(
        "config: in-order core 3.2GHz | L1 32KB/2-way | L2 1MB/8-way | \
         Z=4, L={} (paper: 23), stash 200, C_tPos 96 | PCM 400MHz \
         48/60/4/3/1/2 | records/workload={}",
        experiment_levels(),
        records_per_workload()
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
        let s = t.render("test");
        assert!(s.contains("w1"));
        assert!(s.contains("gmean"));
        assert_eq!(t.get("w1", "b"), Some(2.0));
        assert_eq!(t.get("w1", "c"), None);
    }

    #[test]
    fn common_cli_splits_shared_flags_from_rest() {
        let cli = CommonCli::from_args(
            [
                "--smoke",
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
        assert_eq!(cli.rest, vec!["--smoke", "--out", "r.json"]);
        assert!(cli.jobs >= 1);
    }

    #[test]
    fn experiment_config_honours_levels() {
        let cfg = experiment_config(ProtocolVariant::PsOram, 2);
        assert_eq!(cfg.oram.levels, experiment_levels());
        assert_eq!(cfg.nvm.channels, 2);
    }
}

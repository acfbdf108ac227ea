//! Endurance campaigns: wearing silicon instead of merely faulty silicon.
//!
//! The device campaigns assume an ageless medium — fault probabilities
//! never drift. This module drops that assumption twice over:
//!
//! * [`wear_campaign`] is the torture side: hundreds of seeded runs in
//!   which per-line write budgets drain, wear-coupled media faults
//!   concentrate on hot lines, stuck lines are convicted and retired
//!   onto spares mid-run, and crashes land in the middle of gap moves
//!   and retirements. The contract mirrors the device campaigns': a
//!   hardened design may lose to a worn-out device, but **never
//!   silently** — every wear-induced fault must end detected, repaired,
//!   retired, rolled back under a typed error, or refused by the
//!   fail-safe latch.
//! * [`lifetime_campaign`] is the projection side: the 14 calibrated
//!   SPEC workload models, run through the full-system simulator, set
//!   the ORAM access rate; each design's measured hot-line profile under
//!   every wear-leveling scheme (none / Start-Gap / remap-on-retire)
//!   turns it into per-line write rates, yielding years-to-failure per
//!   (workload, design, scheme) cell.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use psoram_core::testkit::Design;
use psoram_core::ProtocolVariant;
use psoram_nvm::{FaultConfig, WearConfig, WearScheme, CORE_HZ};
use psoram_system::{System, SystemConfig};
use psoram_trace::SpecWorkload;

use crate::driver::{Driver, SWEEP_SET};
use crate::par::par_map;

const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// The hardened designs of [`SWEEP_SET`], whose zero-silent-corruption
/// contract the wear campaign enforces (baselines have nothing to promise
/// a wearing device).
pub fn wear_sweep_set() -> Vec<Design> {
    SWEEP_SET.into_iter().filter(|d| d.is_hardened()).collect()
}

/// Parameters of a wear-torture campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct WearCampaignConfig {
    /// Master seed: every run's RNG stream derives from
    /// `(seed, design, scheme, run)` alone, so reports are
    /// byte-identical at any job count.
    pub seed: u64,
    /// Seeded runs per (design, scheme) cell.
    pub runs_per_cell: u64,
    /// Workload accesses per run (on top of the prefill).
    pub accesses: u64,
    /// Power faults injected per run (each lands mid-traffic, so staged
    /// gap moves and retirements are exposed to the crash).
    pub crashes: u64,
    /// Distinct logical addresses the workload touches.
    pub working_set: u64,
    /// Arm the full campaign fault mix on top of the wear arm
    /// (`false` = wear-induced faults only).
    pub mixed_faults: bool,
    /// Worker threads (`0` = default pool sizing).
    pub jobs: usize,
}

impl Default for WearCampaignConfig {
    fn default() -> Self {
        WearCampaignConfig {
            seed: 0x0EAF,
            // 2 hardened designs x 3 schemes x 84 seeds = 504 runs.
            runs_per_cell: 84,
            accesses: 30,
            crashes: 2,
            working_set: 16,
            mixed_faults: false,
            jobs: 0,
        }
    }
}

impl WearCampaignConfig {
    /// A reduced configuration for quick smoke runs.
    pub fn smoke() -> Self {
        WearCampaignConfig {
            runs_per_cell: 6,
            accesses: 20,
            ..Self::default()
        }
    }

    /// Total runs this configuration executes.
    pub fn total_runs(&self) -> u64 {
        wear_sweep_set().len() as u64 * WearScheme::all().len() as u64 * self.runs_per_cell
    }
}

/// One wear-torture run's evidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WearRunReport {
    /// Design label.
    pub design: String,
    /// Wear-leveling scheme label.
    pub scheme: String,
    /// The run's derived seed.
    pub seed: u64,
    /// Accesses completed (prefill included).
    pub accesses: u64,
    /// Ground truth: wear faults the plan injected.
    pub wear_faults_injected: u64,
    /// Ground truth: stuck (conviction-grade) wear faults injected.
    pub wear_stuck_injected: u64,
    /// Lines retired onto spares.
    pub retirements: u64,
    /// Repairs from the redundant copy onto fresh spares.
    pub repairs: u64,
    /// Start-Gap rotations performed.
    pub gap_moves: u64,
    /// Mapping commit rounds and crash rollbacks.
    pub map_commits: u64,
    /// Mapping rollbacks at crash.
    pub map_reverts: u64,
    /// Whether the run ended in the fail-safe poison latch (a *detected*
    /// end state — the spare pool ran dry and the design refused
    /// service rather than serve stuck bits).
    pub failsafe: bool,
    /// Silent divergences from the shadow oracle — the number that must
    /// be zero.
    pub silent_violations: u64,
    /// The differential verdict from the underlying crash harness.
    pub matches_expectation: bool,
}

/// A whole wear campaign: one report per seeded run, in
/// (design, scheme, run) order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WearCampaignReport {
    /// Always `"wear"`.
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// Per-run evidence.
    pub runs: Vec<WearRunReport>,
}

impl WearCampaignReport {
    /// The campaign's headline contract: every run reported zero silent
    /// corruption — wear-induced faults were detected, repaired,
    /// retired, typed-rolled-back, or refused, never served.
    pub fn zero_silent_corruption(&self) -> bool {
        self.runs
            .iter()
            .all(|r| r.silent_violations == 0 && r.matches_expectation)
    }

    /// Total retirements across the campaign.
    pub fn total_retirements(&self) -> u64 {
        self.runs.iter().map(|r| r.retirements).sum()
    }

    /// Total ground-truth wear faults injected.
    pub fn total_wear_faults(&self) -> u64 {
        self.runs.iter().map(|r| r.wear_faults_injected).sum()
    }

    /// Runs that ended in the fail-safe latch.
    pub fn failsafe_runs(&self) -> u64 {
        self.runs.iter().filter(|r| r.failsafe).count() as u64
    }
}

/// Derives one run's seed from the campaign seed and its cell
/// coordinates (golden-ratio mixing, as the service's shard seeds).
fn run_seed(seed: u64, cell: u64, run: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(cell * 1013 + run + 1))
}

/// Executes one wear-torture run.
fn wear_run(
    cfg: &WearCampaignConfig,
    variant: Design,
    scheme: WearScheme,
    cell: u64,
    run: u64,
) -> WearRunReport {
    let s = run_seed(cfg.seed, cell, run);
    let mut rng = StdRng::seed_from_u64(s ^ 0x0EA4);
    let mut d = Driver::new(variant, s, 0);
    d.device = true;
    d.device_summary.hardened = true;
    let working_set = cfg.working_set.min(d.target.capacity_blocks());
    d.prefill(working_set);
    // Arms only after prefill, so the committed shadow starts honest.
    let faults = if cfg.mixed_faults {
        FaultConfig::wear_mix()
    } else {
        FaultConfig::wear_only()
    };
    d.target.enable_device_faults(s ^ 0xFA_17, faults);
    // Stress endurance: tiny budgets, pre-aged lines, a small spare
    // pool — a device deep into its life from the first access.
    d.target.enable_wear(s ^ 0x0EA5, WearConfig::stress(scheme));

    let crash_every = if cfg.crashes > 0 {
        (cfg.accesses / (cfg.crashes + 1)).max(1)
    } else {
        u64::MAX
    };
    for access in 0..cfg.accesses {
        if d.aborted || d.poisoned {
            break;
        }
        d.step(&mut rng, working_set, None, None);
        if access % crash_every == crash_every - 1 && !d.poisoned && !d.aborted {
            // Power fault at rest: staged gap moves and retirements from
            // the drained rounds face the crash/revert path.
            d.crash_at_rest();
        }
    }

    let wear = d.target.wear_stats().unwrap_or_default();
    let injected = d.target.device_fault_stats().unwrap_or_default();
    let failsafe = d.poisoned;
    let design = d.target.label();
    let report = d.finish();
    WearRunReport {
        design,
        scheme: scheme.label().to_string(),
        seed: s,
        accesses: report.accesses,
        wear_faults_injected: injected.wear_faults,
        wear_stuck_injected: injected.wear_stuck_faults,
        retirements: wear.retirements,
        repairs: wear.repairs,
        gap_moves: wear.gap_moves,
        map_commits: wear.map_commits,
        map_reverts: wear.map_reverts,
        failsafe,
        silent_violations: report.violations_total,
        matches_expectation: report.matches_expectation,
    }
}

/// Runs the wear-torture campaign: `runs_per_cell` seeded runs for every
/// (hardened design, wear-leveling scheme) cell, fanned out over the
/// deterministic worker pool. Byte-identical at any job count.
pub fn wear_campaign(cfg: &WearCampaignConfig) -> WearCampaignReport {
    let mut cells: Vec<(Design, WearScheme, u64, u64)> = Vec::new();
    let mut cell_ix = 0u64;
    for variant in wear_sweep_set() {
        for scheme in WearScheme::all() {
            for run in 0..cfg.runs_per_cell {
                cells.push((variant, scheme, cell_ix, run));
            }
            cell_ix += 1;
        }
    }
    let runs = par_map(cfg.jobs, cells, |(variant, scheme, cell, run)| {
        wear_run(cfg, variant, scheme, cell, run)
    });
    WearCampaignReport {
        mode: "wear".into(),
        seed: cfg.seed,
        runs,
    }
}

// ── lifetime projection ────────────────────────────────────────────────

/// Parameters of a lifetime-projection campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCampaignConfig {
    /// Master seed (drives the full-system runs and the probe
    /// controllers).
    pub seed: u64,
    /// Trace records each workload runs through the full-system
    /// simulator to measure its ORAM access rate.
    pub trace_records: usize,
    /// Accesses driven through each (design, scheme) probe to measure
    /// the hot-line write profile.
    pub probe_accesses: u64,
    /// Cell endurance the projection assumes (mean writes per line).
    pub mean_endurance: f64,
    /// Spare lines per device the remap scheme can retire onto.
    pub spare_lines: u64,
    /// Worker threads (`0` = default pool sizing).
    pub jobs: usize,
}

impl Default for LifetimeCampaignConfig {
    fn default() -> Self {
        LifetimeCampaignConfig {
            seed: 0x11FE,
            trace_records: 20_000,
            probe_accesses: 240,
            mean_endurance: 1e7,
            spare_lines: 64,
            jobs: 0,
        }
    }
}

impl LifetimeCampaignConfig {
    /// A reduced configuration for quick smoke runs.
    pub fn smoke() -> Self {
        LifetimeCampaignConfig {
            trace_records: 4_000,
            probe_accesses: 80,
            ..Self::default()
        }
    }
}

/// One (workload, design, scheme) cell of the lifetime projection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeRow {
    /// SPEC workload name.
    pub workload: String,
    /// Design label.
    pub design: String,
    /// Wear-leveling scheme label.
    pub scheme: String,
    /// ORAM accesses per second the workload sustains (measured on the
    /// full-system simulator under PS-ORAM; see `workload_access_rate`).
    pub accesses_per_sec: f64,
    /// Hottest physical line's writes per ORAM access (probe measure).
    pub hot_line_writes_per_access: f64,
    /// Physical lines the probe touched.
    pub lines_touched: u64,
    /// Start-Gap rotations during the probe.
    pub gap_moves: u64,
    /// Projected years until the hottest line exhausts its budget
    /// (remap multiplies the budget by the spare-chain factor).
    pub years_to_failure: f64,
}

/// The lifetime-projection report: 14 workloads × designs × schemes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimeCampaignReport {
    /// Always `"lifetime"`.
    pub mode: String,
    /// Master seed.
    pub seed: u64,
    /// Assumed mean cell endurance (writes per line).
    pub mean_endurance: f64,
    /// Per-cell projections, in (workload, design, scheme) order.
    pub rows: Vec<LifetimeRow>,
}

impl LifetimeCampaignReport {
    /// Mean years-to-failure across all cells for one scheme.
    pub fn mean_years(&self, scheme: &str) -> f64 {
        let rows: Vec<&LifetimeRow> = self.rows.iter().filter(|r| r.scheme == scheme).collect();
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().map(|r| r.years_to_failure).sum::<f64>() / rows.len() as f64
    }
}

/// Hot-line write profile of one (design, scheme) probe: the design's
/// label, writes on the hottest physical line per access, lines touched,
/// and gap moves.
#[derive(Debug, Clone)]
struct WearProbe {
    label: String,
    hot_writes_per_access: f64,
    lines_touched: u64,
    gap_moves: u64,
}

/// Measures a design's physical write concentration under a leveling
/// scheme: a clean (fault-free) run with wear accounting armed.
fn probe_design(cfg: &LifetimeCampaignConfig, variant: Design, scheme: WearScheme) -> WearProbe {
    let s = cfg
        .seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(scheme as u64 + 1));
    let mut target = variant.build(s);
    target.enable_wear(s, WearConfig::paper_default(scheme));
    let mut rng = StdRng::seed_from_u64(s ^ 0x9B0B);
    let cap = target.capacity_blocks();
    let payload = target.payload_bytes();
    let working_set = 24u64.min(cap);
    let mut written: Vec<u64> = Vec::new();
    for access in 0..cfg.probe_accesses {
        let addr = rng.gen_range(0..working_set);
        if written.is_empty() || rng.gen_bool(0.6) {
            let fill = (access & 0xFF) as u8;
            target
                .write(addr, vec![fill; payload])
                .expect("clean probe never crashes");
            written.push(addr);
        } else {
            let idx = rng.gen_range(0..written.len());
            target
                .read(written[idx])
                .expect("clean probe never crashes");
        }
    }
    let (max_line_writes, lines_touched) = target
        .wear_line_profile()
        .expect("wear accounting was armed");
    let stats = target.wear_stats().expect("wear accounting was armed");
    WearProbe {
        label: target.label(),
        hot_writes_per_access: max_line_writes as f64 / cfg.probe_accesses as f64,
        lines_touched,
        gap_moves: stats.gap_moves,
    }
}

/// The measured access rate for one workload: ORAM accesses per second
/// of a PS-ORAM [`System`] running `trace_records` records of it. The
/// geometry is [`SystemConfig::quick_test`] (L=12, one PCM channel,
/// 64 KB L2); its in-order [`CORE_HZ`] core stalls on every LLC miss,
/// so the rate is what the controller's own service time allows. The
/// system is Path-only: the PS-Ring rows use the same rate.
fn workload_access_rate(cfg: &LifetimeCampaignConfig, w: SpecWorkload) -> f64 {
    let mut sc = SystemConfig::quick_test(ProtocolVariant::PsOram, 1);
    sc.seed = cfg.seed;
    // Timing is identical either way; skipping the cipher is faster.
    sc.encrypt_payloads = false;
    let r = System::new(sc).run_workload(w, cfg.trace_records);
    r.oram.accesses as f64 * CORE_HZ as f64 / r.exec_cycles.max(1) as f64
}

/// Years-to-failure for one cell: the hottest line's budget divided by
/// its write rate. Remap-on-retire chains the spare pool onto the
/// hottest line — each retirement replaces it with a fresh-budget spare,
/// multiplying effective endurance by `1 + spares`.
fn project_years(
    cfg: &LifetimeCampaignConfig,
    scheme: WearScheme,
    probe: &WearProbe,
    rate: f64,
) -> f64 {
    let line_writes_per_sec = probe.hot_writes_per_access * rate;
    if line_writes_per_sec <= 0.0 {
        return f64::INFINITY;
    }
    let budget = match scheme {
        WearScheme::Remap => cfg.mean_endurance * (1.0 + cfg.spare_lines as f64),
        WearScheme::None | WearScheme::StartGap => cfg.mean_endurance,
    };
    budget / (line_writes_per_sec * SECONDS_PER_YEAR)
}

/// Runs the lifetime projection: 14 SPEC workloads × the sweep-set
/// designs × every leveling scheme. The probes and the per-workload
/// access-rate runs fan out over the worker pool. Byte-identical at any
/// job count.
pub fn lifetime_campaign(cfg: &LifetimeCampaignConfig) -> LifetimeCampaignReport {
    // Hardened designs only: the baselines bypass the persistence
    // domain's drain, so they record no media wear to project from.
    let designs = wear_sweep_set();
    let schemes = WearScheme::all();
    let probes_in: Vec<(Design, WearScheme)> = designs
        .iter()
        .flat_map(|&d| schemes.iter().map(move |&s| (d, s)))
        .collect();
    let probes = par_map(cfg.jobs, probes_in.clone(), |(d, s)| {
        probe_design(cfg, d, s)
    });
    let rates = par_map(cfg.jobs, SpecWorkload::all().to_vec(), |w| {
        (w, workload_access_rate(cfg, w))
    });

    let mut rows = Vec::with_capacity(rates.len() * probes.len());
    for &(w, rate) in &rates {
        for (probe, &(_, s)) in probes.iter().zip(&probes_in) {
            rows.push(LifetimeRow {
                workload: w.name().to_string(),
                design: probe.label.clone(),
                scheme: s.label().to_string(),
                accesses_per_sec: rate,
                hot_line_writes_per_access: probe.hot_writes_per_access,
                lines_touched: probe.lines_touched,
                gap_moves: probe.gap_moves,
                years_to_failure: project_years(cfg, s, probe, rate),
            });
        }
    }
    LifetimeCampaignReport {
        mode: "lifetime".into(),
        seed: cfg.seed,
        mean_endurance: cfg.mean_endurance,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear_smoke_campaign_reports_no_silent_corruption() {
        let report = wear_campaign(&WearCampaignConfig::smoke());
        assert_eq!(
            report.runs.len() as u64,
            WearCampaignConfig::smoke().total_runs()
        );
        assert!(report.zero_silent_corruption());
        assert!(
            report.total_wear_faults() > 0,
            "the stress endurance config must actually inject wear faults"
        );
    }

    #[test]
    fn wear_campaign_serde_round_trips() {
        let mut cfg = WearCampaignConfig::smoke();
        cfg.runs_per_cell = 1;
        let r = wear_campaign(&cfg);
        let json = serde_json::to_string(&r).unwrap();
        let back: WearCampaignReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn lifetime_rows_cover_the_full_matrix() {
        let r = lifetime_campaign(&LifetimeCampaignConfig::smoke());
        assert_eq!(
            r.rows.len(),
            14 * wear_sweep_set().len() * WearScheme::all().len()
        );
        for row in &r.rows {
            assert!(
                row.accesses_per_sec > 0.0,
                "{}: zero access rate",
                row.workload
            );
            assert!(
                row.years_to_failure.is_finite() && row.years_to_failure > 0.0,
                "{}/{}/{}: bad projection",
                row.workload,
                row.design,
                row.scheme
            );
        }
    }

    #[test]
    fn leveling_extends_projected_lifetime() {
        let r = lifetime_campaign(&LifetimeCampaignConfig::smoke());
        let none = r.mean_years("none");
        let sg = r.mean_years("start_gap");
        let remap = r.mean_years("remap");
        assert!(
            sg > none,
            "Start-Gap must spread the hot line: {sg} vs {none}"
        );
        assert!(
            remap > none,
            "the spare chain must outlive the bare device: {remap} vs {none}"
        );
    }
}

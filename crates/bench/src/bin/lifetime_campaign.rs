//! Tracked endurance benchmark (`BENCH_07.json`).
//!
//! Three endurance artifacts in one report, all in **simulated**
//! quantities (seeds, cycles, counters), so the JSON is byte-identical
//! across runs, worker counts, and machines:
//!
//! * **Lifetime projection** — the 14 calibrated SPEC workload models,
//!   run through the full-system simulator, set the ORAM access rate;
//!   each hardened design's measured hot-line profile under every
//!   wear-leveling scheme (none / Start-Gap / remap-on-retire) turns it
//!   into years-to-failure per (workload, design, scheme) cell.
//! * **Wear torture** — 500+ seeded runs (84 per design × scheme cell
//!   at the default config) on pre-aged, tiny-budget silicon with
//!   crashes landing mid-gap-move and mid-retirement. The verdict the
//!   binary enforces: zero silent corruption — every wear-induced fault
//!   ends detected, repaired, retired, typed-rolled-back, or refused.
//! * **Wear fleet** — the service's shard lanes (`ServiceConfig::smoke`)
//!   with shard 1 on near-EOL silicon (`WearShardPlan::near_eol`), run
//!   beside its wear-free twin. The verdict the binary enforces: every
//!   sibling lane is byte-identical to the twin's, and the worn lane
//!   verifies and retired at least one line.
//!
//! The drain-cost table (`psoram-energy`) is folded in so the lifetime
//! story carries its energy context: what one flush-on-crash costs
//! eADR-style architectures vs the PS-ORAM WPQ drain that the wear
//! engine's mapping commits piggyback on.
//!
//! Usage:
//!   lifetime_campaign [--smoke] [--seed N] [--out FILE] [--jobs N] [--quiet]

use psoram_bench::fleet::{WearFleet, WORN_SHARD};
use psoram_energy::DrainCostModel;
use psoram_faultsim::{
    lifetime_campaign, wear_campaign, LifetimeCampaignConfig, WearCampaignConfig,
};
use psoram_nvm::WearScheme;
use psoram_service::ServiceConfig;

struct Args {
    smoke: bool,
    seed: Option<u64>,
    out: String,
    jobs: usize,
    quiet: bool,
}

fn parse_args() -> Args {
    let common = psoram_bench::CommonCli::parse();
    let mut args = Args {
        smoke: false,
        seed: None,
        out: "BENCH_07.json".into(),
        jobs: common.jobs,
        quiet: false,
    };
    let mut it = common.rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--quiet" => args.quiet = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                );
            }
            "--out" => args.out = it.next().unwrap_or_else(|| usage("--out needs a value")),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "lifetime_campaign: endurance adversary — lifetime projection,\n\
         wear torture, and the wear-aware fleet (BENCH_07)\n\n\
         options:\n\
         \x20 --smoke     reduced workload (CI gate)\n\
         \x20 --seed N    override the campaign seed\n\
         \x20 --out FILE  output JSON path (default BENCH_07.json)\n\
         \x20 --jobs N    worker threads (report is identical at any count)\n\
         \x20 --quiet     suppress the human-readable summary"
    );
    std::process::exit(2);
}

/// Per-(design, scheme) aggregate of the torture runs — the committed
/// artifact carries the 6 cells, not the 500+ individual run records.
fn torture_cells(report: &psoram_faultsim::WearCampaignReport) -> Vec<serde_json::Value> {
    let mut cells: Vec<(String, String)> = Vec::new();
    for r in &report.runs {
        let key = (r.design.clone(), r.scheme.clone());
        if !cells.contains(&key) {
            cells.push(key);
        }
    }
    cells
        .into_iter()
        .map(|(design, scheme)| {
            let runs: Vec<_> = report
                .runs
                .iter()
                .filter(|r| r.design == design && r.scheme == scheme)
                .collect();
            serde_json::json!({
                "design": design,
                "scheme": scheme,
                "runs": runs.len() as u64,
                "wear_faults_injected": runs.iter().map(|r| r.wear_faults_injected).sum::<u64>(),
                "wear_stuck_injected": runs.iter().map(|r| r.wear_stuck_injected).sum::<u64>(),
                "retirements": runs.iter().map(|r| r.retirements).sum::<u64>(),
                "repairs": runs.iter().map(|r| r.repairs).sum::<u64>(),
                "gap_moves": runs.iter().map(|r| r.gap_moves).sum::<u64>(),
                "map_commits": runs.iter().map(|r| r.map_commits).sum::<u64>(),
                "map_reverts": runs.iter().map(|r| r.map_reverts).sum::<u64>(),
                "failsafe_runs": runs.iter().filter(|r| r.failsafe).count() as u64,
                "silent_violations": runs.iter().map(|r| r.silent_violations).sum::<u64>(),
            })
        })
        .collect()
}

fn main() {
    let args = parse_args();
    psoram_bench::print_config_banner("endurance campaigns (BENCH_07)");

    let mut life_cfg = if args.smoke {
        LifetimeCampaignConfig::smoke()
    } else {
        LifetimeCampaignConfig::default()
    };
    let mut wear_cfg = if args.smoke {
        WearCampaignConfig::smoke()
    } else {
        WearCampaignConfig::default()
    };
    let mut fleet_cfg = ServiceConfig::smoke();
    if let Some(seed) = args.seed {
        life_cfg.seed = seed;
        wear_cfg.seed = seed;
        fleet_cfg.seed = seed;
    }
    life_cfg.jobs = args.jobs;
    wear_cfg.jobs = args.jobs;
    eprintln!(
        "[lifetime: {} probe accesses, 14 workloads; torture: {} runs; fleet: {} shards]",
        life_cfg.probe_accesses,
        wear_cfg.total_runs(),
        fleet_cfg.shards,
    );

    let lifetime = lifetime_campaign(&life_cfg);
    let torture = wear_campaign(&wear_cfg);
    let fleet = WearFleet::run(&fleet_cfg, args.jobs);

    // Worker-count identity self-check on the projection (the cheapest
    // of the three artifacts to re-run serially).
    let serial = lifetime_campaign(&LifetimeCampaignConfig {
        jobs: 1,
        ..life_cfg.clone()
    });
    assert_eq!(
        serde_json::to_string(&serial).expect("serialize"),
        serde_json::to_string(&lifetime).expect("serialize"),
        "lifetime projection differs between --jobs 1 and --jobs {}: \
         the deterministic runner is broken",
        args.jobs
    );

    let m96 = DrainCostModel::paper_config(96);
    let m4 = DrainCostModel::paper_config(4);
    let report = serde_json::json!({
        "bench": "lifetime_campaign",
        "smoke": args.smoke,
        "lifetime": serde_json::to_value(&lifetime),
        "wear_torture": {
            "seed": torture.seed,
            "runs": torture.runs.len() as u64,
            "zero_silent_corruption": torture.zero_silent_corruption(),
            "total_wear_faults": torture.total_wear_faults(),
            "total_retirements": torture.total_retirements(),
            "failsafe_runs": torture.failsafe_runs(),
            "cells": torture_cells(&torture),
        },
        "wear_fleet": serde_json::to_value(&fleet.fleet),
        "drain_cost": {
            "wpq_entries": 96,
            "eadr_cache": serde_json::to_value(&m96.eadr_cache()),
            "eadr_oram": serde_json::to_value(&m96.eadr_oram()),
            "ps_oram_wpq96": serde_json::to_value(&m96.ps_oram()),
            "ps_oram_wpq4": serde_json::to_value(&m4.ps_oram()),
            "energy_ratio_eadr_cache": m96.energy_ratio_eadr_cache(),
            "energy_ratio_eadr_oram": m96.energy_ratio_eadr_oram(),
        },
    });

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write --out {}: {e}", args.out);
        std::process::exit(2);
    }
    println!("[saved {}]", args.out);

    if !args.quiet {
        for scheme in WearScheme::all() {
            // Scientific notation: at the simulated small-tree geometry
            // the hot line takes a large share of every access's drain,
            // so absolute lifetimes are tiny — the cross-scheme ratio is
            // the signal (see EXPERIMENTS.md).
            eprintln!(
                "  lifetime mean ({:>9}): {:>12.3e} years ({:.1}x none)",
                scheme.label(),
                lifetime.mean_years(scheme.label()),
                lifetime.mean_years(scheme.label())
                    / lifetime
                        .mean_years(WearScheme::None.label())
                        .max(f64::MIN_POSITIVE),
            );
        }
        eprintln!(
            "  torture: {} runs, {} wear faults, {} retirements, {} fail-safes, silent corruption: {}",
            torture.runs.len(),
            torture.total_wear_faults(),
            torture.total_retirements(),
            torture.failsafe_runs(),
            if torture.zero_silent_corruption() { "none" } else { "DETECTED" },
        );
        if let Some(w) = fleet.worn().wear {
            eprintln!(
                "  fleet: worn shard {WORN_SHARD} absorbed {} faults ({} retirements, {} repairs, \
                 {} spares left), busy {:.2}x its wear-free twin",
                w.wear_faults,
                w.retirements,
                w.repairs,
                w.spares_left,
                fleet.busy_vs_twin(),
            );
        }
    }

    // The verdicts the binary enforces.
    let mut failed = false;
    if !torture.zero_silent_corruption() {
        eprintln!("FAIL (torture): a wear run diverged silently from the shadow oracle");
        failed = true;
    }
    if torture.total_wear_faults() == 0 {
        eprintln!("FAIL (torture): the endurance adversary injected nothing");
        failed = true;
    }
    let expected_rows =
        14 * psoram_faultsim::wear_sweep_set().len() * psoram_nvm::WearScheme::all().len();
    if lifetime.rows.len() != expected_rows {
        eprintln!(
            "FAIL (lifetime): {} rows, expected {expected_rows}",
            lifetime.rows.len()
        );
        failed = true;
    }
    if lifetime
        .rows
        .iter()
        .any(|r| !r.years_to_failure.is_finite() || r.years_to_failure <= 0.0)
    {
        eprintln!("FAIL (lifetime): a cell projected a non-finite or non-positive lifetime");
        failed = true;
    }
    for failure in fleet.failures() {
        eprintln!("FAIL (fleet): {failure}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    if !args.quiet {
        eprintln!(
            "PASS: zero silent corruption across {} wear runs; {} lifetime cells projected",
            torture.runs.len(),
            lifetime.rows.len()
        );
    }
}

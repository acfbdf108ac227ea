//! The two tracked reports at the repository root: BENCH_06 (the sharded
//! service front-end) and BENCH_07 (the endurance campaigns). Every
//! number in them is simulated (seeds, cycles, counters), so each file is
//! byte-identical across runs, worker counts and machines.
//!
//! Each entry also holds its report to a verdict and panics, after
//! printing its summary, when one is broken: a tracked file is only
//! written for a run that passes.

use psoram_energy::DrainCostModel;
use psoram_faultsim::{
    lifetime_campaign, wear_campaign, wear_sweep_set, LifetimeCampaignConfig, WearCampaignConfig,
    WearCampaignReport,
};
use psoram_nvm::WearScheme;
use psoram_service::{run_service, ServiceConfig};
use serde_json::{json, Value};

use crate::fleet::{WearFleet, WORN_SHARD};
use crate::{write_obsv_file, CommonCli};

/// Panics naming every broken verdict of `entry`.
fn hold(entry: &str, failures: &[String]) {
    assert!(
        failures.is_empty(),
        "{entry} FAILED:\n  {}",
        failures.join("\n  ")
    );
}

/// **BENCH_07**, the endurance campaigns:
///
/// * **Lifetime projection** — the 14 calibrated SPEC workload models,
///   run through the full-system simulator, set the ORAM access rate;
///   each hardened design's measured hot-line profile under every
///   wear-leveling scheme (none / Start-Gap / remap-on-retire) turns it
///   into years-to-failure per (workload, design, scheme) cell.
/// * **Wear torture** — 504 seeded runs (84 per design × scheme cell)
///   on pre-aged, tiny-budget silicon with crashes landing mid-gap-move
///   and mid-retirement, aggregated per cell.
/// * **Wear fleet** — the service's shard lanes (`ServiceConfig::smoke`)
///   with shard [`WORN_SHARD`] on near-EOL silicon, beside its wear-free
///   twin ([`WearFleet`]).
/// * **Drain cost** — what one flush-on-crash costs eADR-style designs
///   against the PS-ORAM WPQ drain the wear engine's mapping commits
///   ride on (`psoram-energy`).
///
/// Verdicts: zero silent corruption, wear faults injected, a finite
/// positive lifetime in each of the 84 cells, and the fleet's checks.
pub(super) fn lifetime(cli: &CommonCli) -> Value {
    let life_cfg = LifetimeCampaignConfig {
        jobs: cli.jobs,
        ..LifetimeCampaignConfig::default()
    };
    let wear_cfg = WearCampaignConfig {
        jobs: cli.jobs,
        ..WearCampaignConfig::default()
    };
    let lifetime = lifetime_campaign(&life_cfg);
    let torture = wear_campaign(&wear_cfg);
    let fleet = WearFleet::run(&ServiceConfig::smoke(), cli.jobs);

    println!();
    for scheme in WearScheme::all() {
        // Scientific notation: at the simulated small-tree geometry the
        // hot line takes a large share of every access's drain, so
        // absolute lifetimes are tiny — the cross-scheme ratio is the
        // signal (see EXPERIMENTS.md).
        println!(
            "lifetime mean ({:>9}): {:>12.3e} years ({:.1}x none)",
            scheme.label(),
            lifetime.mean_years(scheme.label()),
            lifetime.mean_years(scheme.label())
                / lifetime
                    .mean_years(WearScheme::None.label())
                    .max(f64::MIN_POSITIVE),
        );
    }
    println!(
        "torture: {} runs, {} wear faults, {} retirements, {} fail-safes",
        torture.runs.len(),
        torture.total_wear_faults(),
        torture.total_retirements(),
        torture.failsafe_runs(),
    );
    if let Some(w) = fleet.worn().wear {
        println!(
            "fleet: worn shard {WORN_SHARD} absorbed {} faults ({} retirements, {} repairs, \
             {} spares left), busy {:.2}x its wear-free twin",
            w.wear_faults,
            w.retirements,
            w.repairs,
            w.spares_left,
            fleet.busy_vs_twin(),
        );
    }

    let mut failures = Vec::new();
    if !torture.zero_silent_corruption() {
        failures.push("torture: a wear run diverged silently from the shadow oracle".into());
    }
    if torture.total_wear_faults() == 0 {
        failures.push("torture: the endurance adversary injected nothing".into());
    }
    let expected_rows = 14 * wear_sweep_set().len() * WearScheme::all().len();
    if lifetime.rows.len() != expected_rows {
        failures.push(format!(
            "lifetime: {} rows, expected {expected_rows}",
            lifetime.rows.len()
        ));
    }
    if lifetime
        .rows
        .iter()
        .any(|r| !r.years_to_failure.is_finite() || r.years_to_failure <= 0.0)
    {
        failures.push("lifetime: a cell projected a non-finite or non-positive lifetime".into());
    }
    failures.extend(fleet.failures().into_iter().map(|f| format!("fleet: {f}")));
    hold("lifetime", &failures);

    let m96 = DrainCostModel::paper_config(96);
    let m4 = DrainCostModel::paper_config(4);
    json!({
        "bench": "lifetime_campaign",
        // Always false (there is one scale); kept for the tracked
        // file's shape.
        "smoke": false,
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
    })
}

/// Per-(design, scheme) aggregate of the torture runs: the tracked
/// report carries the 6 cells, not the 504 run records.
fn torture_cells(report: &WearCampaignReport) -> Vec<Value> {
    let mut cells: Vec<(&str, &str)> = Vec::new();
    for r in &report.runs {
        let key = (r.design.as_str(), r.scheme.as_str());
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
            json!({
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

/// **BENCH_06**, the sharded service front-end (`ServiceConfig::bench`)
/// in simulated time, at two points over the same open-loop arrival
/// stream:
///
/// * **baseline** — one shard: a single controller absorbing the whole
///   stream. At this rate it saturates, so queues grow.
/// * **sharded** — four shards, independent persistence domains; its
///   aggregate throughput over the baseline's is `speedup`.
///
/// `--trace-out` / `--metrics-out` trace the sharded run (tracing does
/// not perturb the report; see the service's `determinism.rs`).
///
/// Verdicts: every lane of both runs passes its end-of-run contents
/// check, and the speed-up is above 1.
pub(super) fn service(cli: &CommonCli) -> Value {
    let cfg = ServiceConfig::bench();
    println!(
        "\nservice: {} requests, {} shards x L={}, {} clients @ {} req/s, batch {}, lane {}",
        cfg.requests,
        cfg.shards,
        cfg.levels,
        cfg.clients,
        cfg.arrival_rate,
        cfg.batch_size,
        cfg.lane.label(),
    );
    let base = run_service(
        &ServiceConfig {
            shards: 1,
            ..cfg.clone()
        },
        cli.jobs,
    );
    let sharded = run_service(
        &ServiceConfig {
            trace: cli.trace_out.is_some() || cli.metrics_out.is_some(),
            ..cfg.clone()
        },
        cli.jobs,
    );
    if let Some(path) = &cli.trace_out {
        let label = format!("service/{}x{}", cfg.shards, cfg.lane.label());
        write_obsv_file(
            path,
            &psoram_obsv::chrome_trace_json(&[(label, sharded.events.clone())]),
        );
    }
    if let Some(path) = &cli.metrics_out {
        let mut reg = psoram_obsv::MetricsRegistry::new();
        reg.ingest_events("service", &sharded.events);
        write_obsv_file(path, &reg.to_json_string());
    }

    let (b, s) = (&base.report, &sharded.report);
    let speedup = s.aggregate.accesses_per_sec / b.aggregate.accesses_per_sec.max(1e-9);
    println!(
        "baseline  1 shard : p50 {:>9} cyc  p99 {:>9} cyc  {:>10.0} acc/s",
        b.latency_cycles.p50, b.latency_cycles.p99, b.aggregate.accesses_per_sec
    );
    println!(
        "sharded  {:>2} shards: p50 {:>9} cyc  p99 {:>9} cyc  {:>10.0} acc/s  ({speedup:.2}x)",
        s.shards, s.latency_cycles.p50, s.latency_cycles.p99, s.aggregate.accesses_per_sec
    );
    for lane in &s.lanes {
        println!(
            "  shard {}: {:>6} reqs {:>5} batches  wait~{:>8} cyc  {:>10.0} acc/s  verify {}",
            lane.shard,
            lane.requests,
            lane.batches,
            lane.queue_wait_mean_cycles,
            lane.throughput_accesses_per_sec,
            if lane.verify_ok { "ok" } else { "FAIL" },
        );
    }

    let mut failures = Vec::new();
    for (run, report) in [("baseline", b), ("sharded", s)] {
        for lane in report.lanes.iter().filter(|l| !l.verify_ok) {
            failures.push(format!(
                "{run} shard {} failed its end-of-run contents check",
                lane.shard
            ));
        }
    }
    if speedup <= 1.0 {
        failures.push(format!(
            "the sharded aggregate did not beat one controller (speedup {speedup:.2}x): \
             {} req/s may not saturate one controller at L={}",
            cfg.arrival_rate, cfg.levels
        ));
    }
    hold("service", &failures);

    json!({
        "bench": "service_bench",
        // Always false (there is one scale); kept for the tracked
        // file's shape.
        "smoke": false,
        "baseline_single_shard": serde_json::to_value(b),
        "sharded": serde_json::to_value(s),
        "speedup": speedup,
    })
}

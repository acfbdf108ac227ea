//! The service front-end's core contract: the report is a pure function
//! of the configuration — worker count, tracing, and scheduling order
//! never leak into it.

use std::collections::HashSet;

use psoram_service::{run_service, LaneKind, ServiceConfig, ShardCrashPlan, WearShardPlan};

fn cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::smoke();
    cfg.requests = 1_200;
    cfg.seed = 0xD0_5EED;
    cfg
}

fn report_json(cfg: &ServiceConfig, jobs: usize) -> String {
    serde_json::to_string(&run_service(cfg, jobs).report).expect("report serializes")
}

#[test]
fn one_worker_and_four_workers_are_byte_identical() {
    let cfg = cfg();
    assert_eq!(report_json(&cfg, 1), report_json(&cfg, 4));
}

#[test]
fn default_jobs_matches_explicit_jobs() {
    let cfg = cfg();
    assert_eq!(report_json(&cfg, 0), report_json(&cfg, 2));
}

#[test]
fn tracing_does_not_perturb_the_report() {
    let mut traced = cfg();
    traced.trace = true;
    let out = run_service(&traced, 1);
    assert!(!out.events.is_empty(), "tracing must actually record");
    let plain = serde_json::to_string(&run_service(&cfg(), 1).report).unwrap();
    assert_eq!(serde_json::to_string(&out.report).unwrap(), plain);
}

#[test]
fn crash_runs_are_deterministic_across_worker_counts() {
    let mut cfg = cfg();
    cfg.crash = Some(ShardCrashPlan {
        shard: 1,
        after_requests: 50,
    });
    assert_eq!(report_json(&cfg, 1), report_json(&cfg, 4));
}

#[test]
fn wear_runs_are_deterministic_across_worker_counts() {
    let mut cfg = cfg();
    cfg.wear = Some(WearShardPlan::near_eol(1));
    assert_eq!(report_json(&cfg, 1), report_json(&cfg, 4));
}

#[test]
fn full_system_lanes_are_deterministic_too() {
    let mut cfg = cfg();
    cfg.requests = 150;
    cfg.levels = 6;
    cfg.lane = LaneKind::FullSystem;
    assert_eq!(report_json(&cfg, 1), report_json(&cfg, 4));
}

#[test]
fn distinct_seeds_diverge() {
    let a = cfg();
    let mut b = cfg();
    b.seed = a.seed + 1;
    assert_ne!(report_json(&a, 1), report_json(&b, 1));
    // Shards draw from streams of their own: no two of 64 share a seed.
    let seeds: HashSet<u64> = (0..64).map(|s| a.shard_seed(s)).collect();
    assert_eq!(seeds.len(), 64);
}

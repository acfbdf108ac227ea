//! Byte-identity of the endurance campaigns across worker counts.
//!
//! Same contract `par_determinism.rs` enforces for the crash campaigns:
//! the worker count is a pure throughput knob. Every artifact of
//! `BENCH_07.json` — the wear-torture report, the lifetime projection
//! matrix, and the wear fleet (the service's lanes beside their
//! wear-free twin) — must serialize byte-identically at `jobs = 1` and
//! any `jobs > 1`, because the `lifetime` experiment writes the tracked
//! file on however many workers it is given. These run each artifact at
//! its small test scale (`*::smoke()`), one campaign at a time;
//! `experiments_jobs.rs` holds the whole entry at its tracked scale.

use psoram_bench::fleet::WearFleet;
use psoram_faultsim::{
    lifetime_campaign, wear_campaign, LifetimeCampaignConfig, WearCampaignConfig,
};
use psoram_service::ServiceConfig;

#[test]
fn wear_campaign_identical_across_job_counts() {
    let mut cfg = WearCampaignConfig::smoke();
    cfg.jobs = 1;
    let serial = serde_json::to_string_pretty(&wear_campaign(&cfg)).unwrap();
    cfg.jobs = 2;
    let parallel = serde_json::to_string_pretty(&wear_campaign(&cfg)).unwrap();
    assert_eq!(serial, parallel, "wear campaign diverged at jobs=2");
}

#[test]
fn lifetime_projection_identical_across_job_counts() {
    let mut cfg = LifetimeCampaignConfig::smoke();
    cfg.jobs = 1;
    let serial = serde_json::to_string_pretty(&lifetime_campaign(&cfg)).unwrap();
    cfg.jobs = 2;
    let parallel = serde_json::to_string_pretty(&lifetime_campaign(&cfg)).unwrap();
    assert_eq!(serial, parallel, "lifetime projection diverged at jobs=2");
}

#[test]
fn wear_fleet_identical_across_job_counts() {
    let json = |jobs| {
        let fleet = WearFleet::run(&ServiceConfig::smoke(), jobs);
        serde_json::to_string_pretty(&(fleet.fleet, fleet.twin)).unwrap()
    };
    assert_eq!(json(1), json(2), "wear fleet diverged at jobs=2");
}

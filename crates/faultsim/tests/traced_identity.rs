//! The tentpole acceptance property: attaching a recorder — noop or
//! ring-buffer — to a fault-injection campaign must not change a single
//! byte of the campaign report.
//!
//! The guarantee is structural (`Tap::emit` takes a closure, so a
//! detached tap never even constructs events), but this paired-run test
//! is what keeps it true as taps are added to new code paths.

use std::sync::Arc;

use psoram_faultsim::{
    campaign_variant, campaign_variant_traced, random_campaign, random_campaign_traced,
    CampaignConfig, SWEEP_SET,
};
use psoram_obsv::{NoopRecorder, RingBufferRecorder, DEFAULT_RING_CAPACITY};

fn seed_42() -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        ..CampaignConfig::smoke()
    }
}

#[test]
fn campaign_report_identical_with_and_without_tracing() {
    let cfg = seed_42();
    let untraced = serde_json::to_string_pretty(&random_campaign(&cfg)).unwrap();
    let (traced, tracks) = random_campaign_traced(&cfg);
    let traced = serde_json::to_string_pretty(&traced).unwrap();
    assert_eq!(
        untraced, traced,
        "tracing a campaign changed its report — the taps are not pure observers"
    );
    assert!(
        tracks.iter().all(|(_, events)| !events.is_empty()),
        "every design's track must have captured events"
    );
}

#[test]
fn noop_and_ring_recorders_yield_identical_variant_reports() {
    let cfg = seed_42();
    for variant in SWEEP_SET {
        let bare = campaign_variant(variant, &cfg);
        let noop = campaign_variant_traced(variant, &cfg, Some(Arc::new(NoopRecorder)));
        let ring = campaign_variant_traced(
            variant,
            &cfg,
            Some(Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY))),
        );
        let bare = serde_json::to_string(&bare).unwrap();
        assert_eq!(
            bare,
            serde_json::to_string(&noop).unwrap(),
            "{variant:?}: NoopRecorder perturbed the campaign"
        );
        assert_eq!(
            bare,
            serde_json::to_string(&ring).unwrap(),
            "{variant:?}: RingBufferRecorder perturbed the campaign"
        );
    }
}

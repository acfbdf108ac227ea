//! Differential golden test for the device side and the recovery ladder.
//!
//! `golden_campaign.rs` pins a fault-free campaign; the device and replay
//! campaigns were only checked against themselves
//! (`device_campaign_is_deterministic_under_fixed_seed`), so a change that
//! reordered one entropy draw of the fault plan *deterministically* passed every
//! test. This one runs the seed-42 smoke device campaign twice — once with
//! the replay/splice adversary armed, once under the aggressive mix — and
//! asserts the two serialized `DeviceCampaignReport`s are byte-identical to
//! a checked-in golden: every draw, every `confirm_*`, every verdict,
//! repair, rollback and poison of every design in the sweep set.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! PSORAM_BLESS=1 cargo test -p psoram-faultsim --test golden_device_campaign
//! ```

use psoram_faultsim::{device_campaign, DeviceCampaignConfig};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/device_campaign_seed42.json"
);

#[test]
fn seed_42_device_campaigns_match_golden() {
    let smoke = DeviceCampaignConfig {
        seed: 42,
        ..DeviceCampaignConfig::smoke()
    };
    let reports = [
        device_campaign(&DeviceCampaignConfig {
            replay: true,
            ..smoke.clone()
        }),
        device_campaign(&DeviceCampaignConfig {
            aggressive: true,
            ..smoke
        }),
    ];
    let mut json = serde_json::to_string_pretty(&reports.to_vec()).expect("reports serialize");
    json.push('\n');

    if std::env::var_os("PSORAM_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden missing — run with PSORAM_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "seed-42 device campaign reports diverged from the checked-in golden; \
         if the change is intentional, re-bless with PSORAM_BLESS=1"
    );
}

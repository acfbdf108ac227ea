//! Acceptance: the replay/splice adversary vs. the freshness layer.
//!
//! Hundreds of seeded device campaigns with the replay adversary armed —
//! crashed rounds rolled back to authentic stale versions, persist units
//! spliced across addresses, stale snapshots served on the fetch wire —
//! across every design in the sweep set. The tentpole contract, asserted
//! campaign by campaign: the hardened designs detect **every** injected
//! replay (crash-side convictions cover the drawn replay/splice events;
//! wire-side, every served stale snapshot is caught before consumption),
//! while the unhardened baselines consume stale data none the wiser —
//! the differential proof that the adversary kept its teeth.

use psoram_core::testkit::Design;
use psoram_faultsim::{device_campaign, DeviceCampaignConfig};

fn replay_cfg(seed: u64) -> DeviceCampaignConfig {
    DeviceCampaignConfig {
        seed,
        cycles: 5,
        max_quiet_accesses: 5,
        working_set: 12,
        full_check_every: 10,
        aggressive: false,
        replay: true,
    }
}

#[test]
fn replay_campaigns_detect_every_injected_replay() {
    const SEEDS: u64 = 56;
    let designs = Design::all().filter(|&d| d != Design::Toy).count() as u64;
    assert!(
        SEEDS * designs >= 500,
        "campaign matrix too small to count as a search"
    );

    let (mut replays, mut splices, mut serves) = (0u64, 0u64, 0u64);
    let mut detected_crash = 0u64;
    let mut baseline_violations = 0u64;
    let mut baseline_blind_serves = 0u64;

    for i in 0..SEEDS {
        let cfg = replay_cfg(0xF5E5 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let report = device_campaign(&cfg);

        for v in &report.variants {
            // The tentpole: every hardened design detected all of the
            // adversary's work in this campaign. Replayed units are
            // coherent records — only the counter comparison convicts
            // them — and a hardened design must still never diverge from
            // the shadow oracle silently.
            if let Err(e) = v.verdict(true) {
                panic!("seed {:#x}: {e}", cfg.seed);
            }
            if v.device.hardened {
                detected_crash += v.device.replays_detected + v.device.splices_detected;
            } else {
                baseline_violations += v.report.violations_total;
                if v.device.stale_serves > 0 {
                    assert_eq!(
                        v.device.stale_serves_detected, 0,
                        "seed {:#x} {}: an unhardened design detected a wire replay",
                        cfg.seed, v.report.label
                    );
                    baseline_blind_serves += v.device.stale_serves;
                }
            }
            replays += v.device.injected.stale_replays;
            splices += v.device.injected.cross_splices;
            serves += v.device.stale_serves;
        }
    }

    // Mix coverage: all three adversary moves must actually fire across
    // the sweep, or the detection claims above are vacuous.
    assert!(replays > 0, "no stale replay injected across {SEEDS} seeds");
    assert!(splices > 0, "no cross splice injected across {SEEDS} seeds");
    assert!(serves > 0, "no wire serve landed across {SEEDS} seeds");
    assert!(
        detected_crash > 0,
        "hardened designs never convicted a crash-side replay"
    );

    // Differential teeth: the same adversary must have actually hurt at
    // least one unhardened design, and served it stale data blind.
    assert!(
        baseline_violations > 0,
        "no unhardened design violated under the replay mix — the adversary is toothless"
    );
    assert!(
        baseline_blind_serves > 0,
        "no unhardened design blindly consumed a wire serve"
    );
}

#[test]
fn replay_mix_off_injects_no_replays() {
    let cfg = DeviceCampaignConfig {
        replay: false,
        ..replay_cfg(0xD15A_B1ED)
    };
    let report = device_campaign(&cfg);
    assert_eq!(
        report.total_replays_injected(),
        0,
        "replay-class faults fired with the adversary off"
    );
    for v in &report.variants {
        assert_eq!(v.device.stale_serves, 0, "{}", v.report.label);
        assert_eq!(v.device.replays_detected, 0, "{}", v.report.label);
        assert_eq!(v.device.splices_detected, 0, "{}", v.report.label);
    }
}

#[test]
fn replay_campaign_is_deterministic_under_fixed_seed() {
    let cfg = replay_cfg(0xBEE5);
    let a = device_campaign(&cfg);
    let b = device_campaign(&cfg);
    assert_eq!(a, b, "non-deterministic replay campaign");
    assert!(a.replay, "report must record that the adversary was armed");
    let json = serde_json::to_string(&a).unwrap();
    let back: psoram_faultsim::DeviceCampaignReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, a);
}

/// Regression: ring recovery once resolved seq *ties* by hash-map
/// iteration order. The replay adversary restores byte-exact stale
/// duplicates, so two candidate copies of a block can carry the same
/// seq — and under the old unordered scan the winner (hence violation
/// counts, repairs, costs) flipped between runs. Recovery now scans
/// buckets in sorted index order; two in-process runs of the exact
/// CLI smoke configuration must agree bit for bit.
#[test]
fn ring_recovery_resolves_seq_ties_deterministically() {
    use psoram_core::ring::RingVariant;
    use psoram_faultsim::device_campaign_variant;

    let cfg = DeviceCampaignConfig {
        replay: true,
        seed: 57024,
        ..DeviceCampaignConfig::smoke()
    };
    let variant = Design::Ring(RingVariant::Baseline);
    let a = device_campaign_variant(variant, &cfg);
    let b = device_campaign_variant(variant, &cfg);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "ring recovery outcome depended on iteration order"
    );
}

//! Acceptance: the seeded device-fault campaign.
//!
//! One full campaign — every Path protocol variant plus both Ring
//! flavours, hundreds of crashes, a fault mix spanning torn flushes,
//! WPQ signal loss/duplication, and persisted bit flips — with the
//! tentpole contract asserted design by design: hardened controllers
//! never diverge from the shadow oracle silently (every loss is a
//! repair, a typed rollback, or a fail-safe poison), and the unhardened
//! baselines keep failing, proving the injector kept its teeth.

use psoram_core::testkit::Design;
use psoram_faultsim::{device_campaign, device_campaign_variant, DeviceCampaignConfig};

#[test]
fn full_device_campaign_has_no_silent_corruption() {
    let cfg = DeviceCampaignConfig::default();
    let report = device_campaign(&cfg);

    // Scale: the campaign must amount to a real search, not a smoke run.
    assert!(
        report.total_crashes() >= 500,
        "only {} crashes fired across the design matrix",
        report.total_crashes()
    );

    // Mix: all three headline fault classes must actually fire.
    let (mut torn, mut signal, mut flips) = (0u64, 0u64, 0u64);
    for v in &report.variants {
        torn += v.device.injected.torn_flushes;
        signal += v.device.injected.signal_losses + v.device.injected.duplicated_signals;
        flips += v.device.injected.bit_flips;
    }
    assert!(
        torn > 0 && signal > 0 && flips > 0,
        "fault mix incomplete: torn {torn}, signal {signal}, flips {flips}"
    );

    // The tentpole contract: every design crashed, hardened controllers
    // saw zero undetected corruptions — data loss is admissible only as a
    // repair, a typed rollback, or a fail-safe, never as a silent oracle
    // violation — and an unhardened design violated (detection power).
    report.verdict().unwrap();

    // The integrity layer must have actually worked for a living.
    let evidence: u64 = report
        .variants
        .iter()
        .filter(|v| v.device.hardened)
        .map(|v| v.device.incidents + v.device.repairs + v.device.rollbacks)
        .sum();
    assert!(evidence > 0, "hardened designs never detected a fault");
}

#[test]
fn device_campaign_is_deterministic_under_fixed_seed() {
    let cfg = DeviceCampaignConfig {
        cycles: 8,
        ..DeviceCampaignConfig::smoke()
    };
    for v in Design::all().filter(|&d| d != Design::Toy) {
        let a = device_campaign_variant(v, &cfg);
        let b = device_campaign_variant(v, &cfg);
        assert_eq!(a, b, "{v:?}: non-deterministic device campaign");
    }
}

#[test]
fn aggressive_mix_forces_failsafe_rebuilds_somewhere() {
    let cfg = DeviceCampaignConfig {
        aggressive: true,
        cycles: 30,
        ..DeviceCampaignConfig::default()
    };
    let report = device_campaign(&cfg);
    // Under the aggressive mix the hardened designs must still never
    // diverge silently, even while being torn apart hard enough that
    // typed rollbacks or poison-rebuilds become routine.
    report.verdict().unwrap();
    let declared: u64 = report
        .variants
        .iter()
        .filter(|v| v.device.hardened)
        .map(|v| v.device.rollbacks + v.device.failsafe_rebuilds + v.device.detected_failsafes)
        .sum();
    assert!(
        declared > 0,
        "aggressive mix never forced a declared loss or fail-safe"
    );
}

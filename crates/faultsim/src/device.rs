//! Device-fault campaigns: the crash campaigns re-run on damaged silicon.
//!
//! The random campaigns assume an honest medium — every persisted byte
//! reads back as written. This module drops that assumption: a seeded
//! device fault plan ([`psoram_nvm::FaultPlan`]) is armed underneath every
//! design, tearing flushes mid-round, losing and duplicating WPQ
//! start/end signals, flipping bits in persisted buckets and PosMap
//! entries, and failing reads. The differential question gains a twist:
//! a hardened design may now *lose* data — media corruption can defeat
//! any bounded redundancy — but it must never lose data **silently**.
//! Every divergence from the shadow oracle has to arrive classified:
//! repaired from a redundant authenticated copy, rolled back under a
//! typed [`RecoveryError`](psoram_core::RecoveryError), or refused
//! outright by the fail-safe poison latch (after which the campaign
//! rebuilds the controller from the oracle's durable truth, the simulated
//! analogue of replacing a failed DIMM and restoring from application
//! state). The unhardened baselines run under the same plan with no
//! defenses, keeping the differential teeth: a baseline that stops
//! failing means the injector has lost its bite.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use psoram_core::testkit::Design;
use psoram_core::{CrashPoint, ProtocolPolicy};
use psoram_nvm::{FaultConfig, FaultStats};

use crate::driver::{stream_tweak, Driver};
use crate::report::VariantReport;

/// Parameters of a device-fault campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceCampaignConfig {
    /// Master seed: drives the workload RNGs, the controllers, and the
    /// fault plans. Two runs with the same seed produce byte-identical
    /// reports at any job count.
    pub seed: u64,
    /// Crash→recover→continue cycles per design (at least one crash
    /// fires per cycle).
    pub cycles: u64,
    /// Upper bound on crash-free accesses between consecutive crashes.
    pub max_quiet_accesses: u64,
    /// Distinct logical addresses the workload touches.
    pub working_set: u64,
    /// Recoveries between full shadow read-backs (0 → final check only).
    pub full_check_every: u64,
    /// Use [`FaultConfig::aggressive`] instead of
    /// [`FaultConfig::campaign_default`].
    pub aggressive: bool,
    /// Arm the replay/splice adversary on top of the base mix: crashed
    /// rounds may have persist units rolled back to authentic stale
    /// versions or spliced across addresses, and fetches may be served
    /// stale snapshots on the wire.
    pub replay: bool,
}

impl Default for DeviceCampaignConfig {
    fn default() -> Self {
        DeviceCampaignConfig {
            seed: 0xDE_C0,
            cycles: 60,
            max_quiet_accesses: 6,
            working_set: 24,
            full_check_every: 20,
            aggressive: false,
            replay: false,
        }
    }
}

impl DeviceCampaignConfig {
    /// A reduced configuration for quick smoke runs.
    pub fn smoke() -> Self {
        DeviceCampaignConfig {
            cycles: 12,
            working_set: 12,
            ..Self::default()
        }
    }

    fn fault_config(&self) -> FaultConfig {
        let base = if self.aggressive {
            FaultConfig::aggressive()
        } else {
            FaultConfig::campaign_default()
        };
        if self.replay {
            base.with_replay()
        } else {
            base
        }
    }
}

/// The designs a device campaign tortures: every row of the design table
/// but the toy — hardened and unhardened side by side, so the report
/// stays differential.
fn designs() -> impl Iterator<Item = Design> {
    Design::all().filter(|&d| d != Design::Toy)
}

/// Detection/repair evidence from one design's device campaign, set
/// against the injector's ground truth.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceFaultSummary {
    /// Whether the design carries the integrity layer.
    pub hardened: bool,
    /// Ground truth: faults the plan actually injected, accumulated
    /// across fail-safe rebuilds.
    pub injected: FaultStats,
    /// Device-fault incidents recovery detected and classified.
    pub incidents: u64,
    /// Damaged persist units repaired from a redundant authenticated
    /// copy.
    pub repairs: u64,
    /// Addresses rolled back (or forgotten) under a typed error.
    pub rollbacks: u64,
    /// Typed [`RecoveryError`](psoram_core::RecoveryError)s raised.
    pub typed_errors: u64,
    /// Recoveries that failed their consistency check *with* typed
    /// errors or poisoning — detected fail-safes, not silent violations.
    pub detected_failsafes: u64,
    /// Times the fail-safe poison latch forced a controller rebuild.
    pub failsafe_rebuilds: u64,
    /// Persist units recovery convicted of carrying a stale (replayed or
    /// rolled-back-to-genesis) version counter.
    pub replays_detected: u64,
    /// Persist units recovery convicted of a cross-address splice.
    pub splices_detected: u64,
    /// Stale snapshots the adversary actually served on the fetch wire.
    pub stale_serves: u64,
    /// Wire serves the hardened fetch path caught before consumption.
    pub stale_serves_detected: u64,
    /// Fetch-path verifications that latched the fail-safe poison.
    pub fetch_poisons: u64,
}

/// Per-design outcome of a device campaign: the ordinary differential
/// report plus the device-fault evidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceVariantReport {
    /// The crash-consistency report (accesses, recoveries, violations).
    pub report: VariantReport,
    /// Device-fault injection and detection evidence.
    pub device: DeviceFaultSummary,
}

/// A whole device campaign: one report per design, in design-table
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCampaignReport {
    /// Always `"device"`.
    pub mode: String,
    /// RNG seed, for exact replay.
    pub seed: u64,
    /// Whether the aggressive fault mix was used.
    pub aggressive: bool,
    /// Whether the replay/splice adversary was armed.
    pub replay: bool,
    /// Per-design outcomes.
    pub variants: Vec<DeviceVariantReport>,
}

impl DeviceCampaignReport {
    /// Crashes fired across all designs.
    pub fn total_crashes(&self) -> u64 {
        self.variants
            .iter()
            .map(|v| v.report.crashes_injected)
            .sum()
    }

    /// Ground-truth faults injected across all designs.
    pub fn total_injected(&self) -> u64 {
        self.variants
            .iter()
            .map(|v| v.device.injected.total_injected())
            .sum()
    }

    /// Ground-truth replay-adversary events injected across all designs
    /// (crash replays + cross splices + wire serves).
    pub fn total_replays_injected(&self) -> u64 {
        self.variants
            .iter()
            .map(|v| v.device.injected.total_replays())
            .sum()
    }

    /// The campaign's verdict: every design's ([`DeviceVariantReport::verdict`]),
    /// then the injector's. It is sound only if the plan injected
    /// something and an unhardened design kept failing (detection power);
    /// with the replay adversary armed, only if the adversary injected
    /// something and an unhardened design served stale data blind.
    ///
    /// # Errors
    ///
    /// The first way the campaign fell short.
    pub fn verdict(&self) -> Result<(), String> {
        for v in &self.variants {
            v.verdict(self.replay)?;
        }
        if self.total_injected() == 0 {
            return Err("the device fault plan injected nothing — the injector is broken".into());
        }
        let baseline_convicted = self
            .variants
            .iter()
            .any(|v| !v.device.hardened && v.report.violations_total > 0);
        if !baseline_convicted {
            return Err("no violation detected on any unhardened design under \
                        device faults: the oracle has no detection power"
                .into());
        }
        if !self.replay {
            return Ok(());
        }
        if self.total_replays_injected() == 0 {
            return Err("the replay adversary injected nothing — the injector is broken".into());
        }
        let baseline_blind = self.variants.iter().any(|v| {
            !v.device.hardened && v.device.stale_serves > 0 && v.device.stale_serves_detected == 0
        });
        if !baseline_blind {
            return Err("no unhardened design blindly served stale data: the \
                        replay oracle has no detection power"
                .into());
        }
        Ok(())
    }
}

impl DeviceVariantReport {
    /// One design's share of the campaign verdict: a crash fired; and a
    /// hardened design never diverged silently (repairs, typed rollbacks
    /// and fail-safes are all admissible) and, with the `replay`
    /// adversary armed, detected all of its work. Crash-time damage is
    /// counted per convicted unit (a splice pair yields two convictions,
    /// and overlapping replay+splice damage on one unit reclassifies
    /// rather than double-counts), so the crash-side criterion is
    /// `detected >= injected events`; on the wire every served stale
    /// snapshot must be caught before consumption, exactly.
    ///
    /// # Errors
    ///
    /// The first way the design fell short.
    pub fn verdict(&self, replay: bool) -> Result<(), String> {
        let (r, d) = (&self.report, &self.device);
        if d.hardened && !r.matches_expectation {
            return Err(format!(
                "{}: {} silent violation(s) under device faults (first: {:?})",
                r.label,
                r.violations_total,
                r.violations.first()
            ));
        }
        if r.crashes_injected == 0 {
            return Err(format!(
                "{}: no crash ever fired — the schedule is broken",
                r.label
            ));
        }
        let missed = d.replays_detected + d.splices_detected
            < d.injected.stale_replays + d.injected.cross_splices
            || d.stale_serves_detected != d.stale_serves;
        if replay && d.hardened && missed {
            return Err(format!(
                "{}: a hardened design let an injected replay/splice or a \
                 stale read serve go undetected",
                r.label
            ));
        }
        Ok(())
    }
}

/// Folds a torn-down controller's freshness counters into the summary
/// (the counters live on the controller, so they must be harvested
/// before a rebuild discards it).
fn harvest_freshness(summary: &mut DeviceFaultSummary, target: &dyn ProtocolPolicy) {
    let fs = target.freshness_stats();
    summary.stale_serves += fs.stale_serves;
    summary.stale_serves_detected += fs.stale_serves_detected;
    summary.fetch_poisons += fs.fetch_poisons;
}

/// Tears down a poisoned controller and rebuilds it from the oracle's
/// expected contents, then re-arms a fresh fault plan (derived from the
/// same master seed, so the run stays deterministic).
fn rebuild(d: &mut Driver, variant: Design, cfg: &DeviceCampaignConfig, tweak: u64) {
    if let Some(stats) = d.target.device_fault_stats() {
        d.device_summary.injected += stats;
    }
    harvest_freshness(&mut d.device_summary, d.target.as_ref());
    d.device_summary.failsafe_rebuilds += 1;
    let epoch = d.device_summary.failsafe_rebuilds;
    d.oracle.drop_pending();
    d.poisoned = false;
    d.target = variant.build(cfg.seed ^ tweak ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(epoch));
    for (addr, value) in d.oracle.expected_entries() {
        if d.do_write(addr, value) {
            unreachable!("crash fired while re-seeding a rebuilt controller");
        }
    }
    // The plan arms only after the re-seed, so the rebuilt controller
    // starts from an honest, fully committed shadow.
    d.target.enable_device_faults(
        cfg.seed ^ tweak ^ epoch.rotate_left(32) ^ 0xA5A5,
        cfg.fault_config(),
    );
}

/// Runs a device-fault campaign against one design.
pub fn device_campaign_variant(variant: Design, cfg: &DeviceCampaignConfig) -> DeviceVariantReport {
    let mut d = Driver::new(variant, cfg.seed, cfg.full_check_every);
    // Decoupled from the clean campaign's stream by a domain constant.
    let tweak = stream_tweak(&d.report.label);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ tweak ^ 0xD0_0D);
    d.device = true;
    d.device_summary.hardened = variant.is_hardened();
    let working_set = cfg.working_set.min(d.target.capacity_blocks());
    d.prefill(working_set);
    // The plan arms *after* prefill: the committed shadow starts honest.
    d.target
        .enable_device_faults(cfg.seed ^ tweak, cfg.fault_config());
    let steps = CrashPoint::step_boundaries();

    for _cycle in 0..cfg.cycles {
        if d.aborted {
            break;
        }
        if d.poisoned {
            rebuild(&mut d, variant, cfg, tweak);
        }

        // Quiet phase: normal traffic between faults (transient read
        // faults and WPQ-level signal damage land here).
        for _ in 0..rng.gen_range(0..cfg.max_quiet_accesses + 1) {
            if d.poisoned {
                break;
            }
            d.step(&mut rng, working_set, None, None);
        }
        if d.poisoned {
            continue; // rebuilt at the top of the next cycle
        }

        // Fault phase: mostly power failures at rest — the committed WPQ
        // backlog is empty, so crash damage lands on the last applied
        // round's persist units — and sometimes a crash armed inside an
        // access, exercising damage underneath an in-flight write.
        if rng.gen_bool(0.7) {
            d.crash_at_rest();
        } else {
            let point = steps[rng.gen_range(0..steps.len())];
            d.target.inject_crash(point);
            // A poisoned design takes no more traffic this cycle.
            let fired =
                (0..12).any(|_| !d.poisoned && d.step(&mut rng, working_set, Some(point), None));
            if !fired {
                d.target.disarm_crash();
                if !d.poisoned {
                    d.crash_at_rest();
                }
            }
        }
    }

    if let Some(stats) = d.target.device_fault_stats() {
        d.device_summary.injected += stats;
    }
    harvest_freshness(&mut d.device_summary, d.target.as_ref());
    let device = d.device_summary.clone();
    let report = d.finish();
    DeviceVariantReport { report, device }
}

/// Runs the device campaign against every row of the design table but
/// the toy.
///
/// Designs run in parallel (see [`crate::par_map`]); each variant's RNG
/// stream is derived from `(cfg.seed, variant)` alone and results come
/// back in table order, so the report is byte-identical at any job count.
pub fn device_campaign(cfg: &DeviceCampaignConfig) -> DeviceCampaignReport {
    let variants = crate::par_map(0, designs().collect(), |v| device_campaign_variant(v, cfg));
    DeviceCampaignReport {
        mode: "device".into(),
        seed: cfg.seed,
        aggressive: cfg.aggressive,
        replay: cfg.replay,
        variants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psoram_core::ProtocolVariant;

    #[test]
    fn sweep_set_is_differential() {
        let set: Vec<Design> = designs().collect();
        assert!(set.iter().any(|d| d.is_hardened()));
        assert!(set.iter().any(|d| !d.is_hardened()));
        assert_eq!(set.len(), ProtocolVariant::all().len() + 2);
    }

    #[test]
    fn device_report_serde_round_trips() {
        let cfg = DeviceCampaignConfig {
            cycles: 2,
            working_set: 8,
            ..DeviceCampaignConfig::smoke()
        };
        let r = device_campaign_variant(Design::Path(ProtocolVariant::PsOram), &cfg);
        let json = serde_json::to_string(&r).unwrap();
        let back: DeviceVariantReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

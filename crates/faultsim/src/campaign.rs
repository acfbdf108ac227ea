//! Randomized multi-crash campaigns: seeded crash→recover→continue
//! cycles, including power failures *during* recovery verification.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use psoram_core::testkit::Design;
use psoram_core::CrashPoint;

use crate::driver::{stream_tweak, Driver, SWEEP_SET};
use crate::report::{CampaignReport, VariantReport};

/// Parameters of a randomized campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Master seed: drives the workload RNG and the controllers. Two runs
    /// with the same seed produce byte-identical reports.
    pub seed: u64,
    /// Crash→recover→continue cycles per design.
    pub cycles: u64,
    /// Upper bound on crash-free accesses between consecutive crashes.
    pub max_quiet_accesses: u64,
    /// Distinct logical addresses the workload touches.
    pub working_set: u64,
    /// Probability that a recovery is itself interrupted by a crash.
    pub nested_crash_prob: f64,
    /// Recoveries between full shadow read-backs (0 → final check only).
    pub full_check_every: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0xCA_50,
            cycles: 120,
            max_quiet_accesses: 6,
            working_set: 24,
            nested_crash_prob: 0.25,
            full_check_every: 40,
        }
    }
}

impl CampaignConfig {
    /// The small test scale: goldens and debug-profile tests pin these
    /// sizes, and `perf_baseline` times its `--jobs` comparison on it;
    /// `crash_campaign` runs `default()`.
    pub fn smoke() -> Self {
        CampaignConfig {
            cycles: 25,
            working_set: 12,
            ..Self::default()
        }
    }
}

/// Runs a randomized campaign against one design.
pub fn campaign_variant(variant: Design, cfg: &CampaignConfig) -> VariantReport {
    campaign_variant_traced(variant, cfg, None)
}

/// [`campaign_variant`] with an optional observability recorder attached
/// to the design's controller stack. The recorder only observes: a traced
/// run produces a byte-identical report to an untraced one.
pub fn campaign_variant_traced(
    variant: Design,
    cfg: &CampaignConfig,
    recorder: Option<std::sync::Arc<dyn psoram_obsv::Recorder>>,
) -> VariantReport {
    let mut d = Driver::new(variant, cfg.seed, cfg.full_check_every);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ stream_tweak(&d.report.label));
    if let Some(rec) = recorder {
        d.target.attach_recorder(rec);
    }
    let working_set = cfg.working_set.min(d.target.capacity_blocks());
    d.prefill(working_set);
    let steps = CrashPoint::step_boundaries();

    for _cycle in 0..cfg.cycles {
        if d.aborted {
            break;
        }
        // Quiet phase: normal traffic between faults. No plan is armed:
        // a crash here means a plan leaked, handled as unattributed.
        for _ in 0..rng.gen_range(0..cfg.max_quiet_accesses + 1) {
            d.step(&mut rng, working_set, None, None);
        }

        // Fault phase: arm a random crash point and drive accesses until
        // it fires (a too-deep DuringEviction index may never fire).
        let point = if rng.gen_bool(0.4) {
            let hi = d.report.max_eviction_units.map_or(4, |m| m + 2);
            CrashPoint::DuringEviction(rng.gen_range(0..hi))
        } else {
            steps[rng.gen_range(0..steps.len())]
        };
        d.target.inject_crash(point);
        let nested = Some(cfg.nested_crash_prob);
        let fired = (0..12).any(|_| d.step(&mut rng, working_set, Some(point), nested));
        if !fired {
            d.target.disarm_crash();
        }
    }
    d.finish()
}

/// Runs the campaign against every design in [`SWEEP_SET`].
///
/// Designs run in parallel (see [`crate::par_map`]); each variant's RNG
/// stream is derived from `(cfg.seed, variant)` alone and results are
/// collected in sweep-set order, so the report — including the seed-42
/// golden — is byte-identical at any job count.
pub fn random_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let variants = crate::par_map(0, SWEEP_SET.to_vec(), |v| campaign_variant(v, cfg));
    CampaignReport {
        mode: "random".into(),
        seed: cfg.seed,
        variants,
    }
}

/// [`random_campaign`] with a [`psoram_obsv::RingBufferRecorder`] attached
/// to every design, returning one event track per design (labelled with
/// the design's name, in sweep-set order) alongside the report.
///
/// Each design records into its own buffer inside the parallel runner, so
/// the tracks — like the report — are byte-identical at any job count.
pub fn random_campaign_traced(
    cfg: &CampaignConfig,
) -> (CampaignReport, Vec<(String, Vec<psoram_obsv::Event>)>) {
    let results = crate::par_map(0, SWEEP_SET.to_vec(), |v| {
        let rec = std::sync::Arc::new(psoram_obsv::RingBufferRecorder::new(
            psoram_obsv::DEFAULT_RING_CAPACITY,
        ));
        let report = campaign_variant_traced(v, cfg, Some(rec.clone()));
        let label = report.label.clone();
        (report, (label, rec.events()))
    });
    let mut variants = Vec::with_capacity(results.len());
    let mut tracks = Vec::with_capacity(results.len());
    for (report, track) in results {
        variants.push(report);
        tracks.push(track);
    }
    (
        CampaignReport {
            mode: "random".into(),
            seed: cfg.seed,
            variants,
        },
        tracks,
    )
}

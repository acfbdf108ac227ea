//! Exhaustive fault sweep: crash at every step boundary and every
//! mid-eviction persist-unit index, recover, and continue.
//!
//! The sweep runs one long workload per design and arms a crash for
//! *every* access, alternating between the five step-boundary points and
//! a scan of `DuringEviction(k)` for increasing `k`. When a
//! `DuringEviction(k)` plan does not fire (the access had fewer than
//! `k + 1` persist units) the scan wraps back to `k = 0`, so over a long
//! workload every reachable persist-unit index is hit many times; the
//! largest index that fired is reported as coverage evidence.

use psoram_core::testkit::Design;
use psoram_core::CrashPoint;

use crate::driver::{Driver, SWEEP_SET};
use crate::report::{CampaignReport, VariantReport};

/// Parameters of an exhaustive sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepConfig {
    /// Seed for the controllers (the sweep itself is deterministic).
    pub seed: u64,
    /// Workload accesses per design (each arms one crash attempt).
    pub accesses: u64,
    /// Distinct logical addresses the workload touches.
    pub working_set: u64,
    /// Recoveries between full shadow read-backs (0 → final check only).
    pub full_check_every: u64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            seed: 0xFA01,
            accesses: 1000,
            working_set: 32,
            full_check_every: 50,
        }
    }
}

impl SweepConfig {
    /// A reduced configuration for quick smoke runs.
    pub fn smoke() -> Self {
        SweepConfig {
            accesses: 120,
            working_set: 16,
            ..Self::default()
        }
    }
}

/// Sweeps one design; see the module docs for the schedule.
pub fn sweep_variant(variant: Design, cfg: &SweepConfig) -> VariantReport {
    let mut d = Driver::new(variant, cfg.seed, cfg.full_check_every);
    let working_set = cfg.working_set.min(d.target.capacity_blocks());
    d.prefill(working_set);

    let steps = CrashPoint::step_boundaries();
    let mut step_i = 0;
    let mut evict_k = 0usize;
    for i in 0..cfg.accesses {
        if d.aborted {
            break;
        }
        // Alternate step-boundary and mid-eviction crashes so both
        // families interleave with every workload position.
        let mid_eviction = i % 2 == 1;
        let point = if mid_eviction {
            CrashPoint::DuringEviction(evict_k)
        } else {
            steps[step_i]
        };
        let attempt = d.target.access_attempts();
        d.target.inject_crash(point);

        let addr = (i.wrapping_mul(7) + 3) % working_set;
        let crashed = if i % 2 == 0 {
            let value = d.next_payload();
            d.do_write(addr, value)
        } else {
            d.do_read(addr)
        };

        if crashed {
            d.handle_crash(attempt, Some(point), addr, None);
            if mid_eviction {
                evict_k += 1;
            }
        } else {
            // The plan never fired this access (a point the design does
            // not reach, or `k` past this access's persist-unit count).
            d.target.disarm_crash();
            if mid_eviction {
                evict_k = 0;
            }
        }
        if !mid_eviction {
            step_i = (step_i + 1) % steps.len();
        }
    }
    d.finish()
}

/// Sweeps every design in [`SWEEP_SET`].
///
/// Designs run in parallel (see [`crate::par_map`]); each sweep is
/// deterministic in `(variant, cfg)` alone and results are collected in
/// sweep-set order, so the report is identical at any job count.
pub fn exhaustive_sweep(cfg: &SweepConfig) -> CampaignReport {
    let variants = crate::par_map(0, SWEEP_SET.to_vec(), |v| sweep_variant(v, cfg));
    CampaignReport {
        mode: "exhaustive".into(),
        seed: cfg.seed,
        variants,
    }
}

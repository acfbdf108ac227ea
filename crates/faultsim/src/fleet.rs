//! Fleet campaigns: crash-and-recover one instance of a design while
//! its siblings keep serving.
//!
//! The single-target campaigns in this crate stop the world: one
//! controller, one crash plan, one recovery. A sharded service runs N
//! independent persistence domains side by side, and its failure story
//! is different — a power-fault domain covers *one* shard, so recovery
//! must be local. [`fleet_campaign`] drives N independent instances of a
//! design (per-instance seeds, fanned out over [`par_map`]) and can
//! crash exactly one of them mid-load; the per-instance reports let a
//! caller assert the isolation contract: every untargeted instance's
//! report is byte-identical to a crash-free fleet run, and the targeted
//! instance recovers through the same device/replay-hardened `recover()`
//! path the global campaigns exercise.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::par::par_map;
use crate::target::DesignVariant;

/// Configuration of one fleet campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The design every instance is built from.
    pub design: DesignVariant,
    /// Number of independent instances (shards) in the fleet.
    pub instances: u32,
    /// Accesses driven through each instance.
    pub accesses_per_instance: u64,
    /// Master seed; each instance derives its own RNG stream from
    /// `(seed, instance)` alone, so reports are byte-identical at any
    /// worker count.
    pub seed: u64,
    /// Crash this instance mid-load (`None` runs the fleet crash-free).
    pub crash_instance: Option<u32>,
    /// Accesses the targeted instance completes before the power fault.
    pub crash_after: u64,
    /// Worker threads (`0` = default pool sizing).
    pub jobs: usize,
}

impl FleetConfig {
    /// A small deterministic fleet for tests and CI smoke.
    pub fn smoke() -> Self {
        FleetConfig {
            design: DesignVariant::Path(psoram_core::ProtocolVariant::PsOram),
            instances: 3,
            accesses_per_instance: 120,
            seed: 0xF1EE7,
            crash_instance: None,
            crash_after: 40,
            jobs: 0,
        }
    }
}

/// What one fleet instance did, in a serde-stable shape so isolation
/// tests can compare instances byte-for-byte across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetLaneReport {
    /// Instance index within the fleet.
    pub instance: u32,
    /// Design label.
    pub design: String,
    /// Accesses completed.
    pub accesses: u64,
    /// Power faults injected on this instance.
    pub crashes: u64,
    /// Recoveries that passed the design's consistency check.
    pub recoveries_consistent: u64,
    /// Controller clock after the run (core cycles).
    pub clock: u64,
    /// Final content audit against the design's own ledger.
    pub verify_ok: bool,
    /// Deterministic digest of the instance's recoverable state
    /// (hex-encoded; `0` when the design does not model one).
    pub state_digest: String,
}

/// Seed for instance `i`: mixed so streams never overlap between
/// instances (same derivation discipline as the per-shard service
/// lanes).
fn instance_seed(seed: u64, instance: u32) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance as u64 + 1))
}

/// Runs one instance's load to a report, deterministic in `(cfg,
/// instance, wear)`. A healthy instance (`wear` is `None`) takes the
/// optional mid-load power fault and must serve every access. The worn
/// one runs the same traffic on pre-aged silicon with the wear fault arm
/// live, samples each access's service cycles, and may end early in the
/// fail-safe poison latch (a detected fail-safe, not a failure of the
/// harness); it returns its degradation evidence too.
fn run_instance(
    cfg: &FleetConfig,
    instance: u32,
    wear: Option<psoram_nvm::WearConfig>,
) -> (FleetLaneReport, Option<WearShardEvidence>) {
    let seed = instance_seed(cfg.seed, instance);
    let mut target = cfg.design.build(seed);
    let worn = wear.is_some();
    if let Some(wcfg) = wear {
        target.enable_device_faults(seed ^ 0x0EA4, psoram_nvm::FaultConfig::wear_only());
        target.enable_wear(seed ^ 0x0EA5, wcfg);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7EA7);
    let cap = target.capacity_blocks();
    let payload = target.payload_bytes();
    let crash_here = !worn && cfg.crash_instance == Some(instance);

    let mut written: Vec<u64> = Vec::new();
    let mut latencies: Vec<u64> = Vec::new();
    let mut crashes = 0u64;
    let mut recoveries_consistent = 0u64;
    let mut completed = 0u64;
    let mut poisoned = false;
    while completed < cfg.accesses_per_instance {
        // 70/30 write/read mix; reads only touch written addresses.
        let addr = rng.gen_range(0..cap);
        let write = written.is_empty() || rng.gen_range(0..10u32) < 7;
        let before = target.clock();
        let res = if write {
            let tag = (completed & 0xFF) as u8;
            target.write(addr, vec![tag; payload]).map(|_| ())
        } else {
            let idx = rng.gen_range(0..written.len());
            target.read(written[idx]).map(|_| ())
        };
        match res {
            Ok(()) => {
                if worn {
                    latencies.push(target.clock().saturating_sub(before));
                }
                if write {
                    written.push(addr);
                }
                completed += 1;
            }
            Err(psoram_core::OramError::Poisoned { .. }) if worn => {
                poisoned = true;
                break;
            }
            Err(e) => panic!("fleet instance {instance}: access failed: {e}"),
        }
        if crash_here && completed == cfg.crash_after {
            // The power fault covers this persistence domain only; the
            // sibling instances never see it.
            target.crash_now();
            crashes += 1;
            let report = target.recover();
            if report.consistent {
                recoveries_consistent += 1;
            }
        }
    }
    let verify_ok = poisoned || target.verify_contents(crashes > 0).is_ok();
    let evidence = worn.then(|| {
        latencies.sort_unstable();
        let wear = target.wear_stats().unwrap_or_default();
        WearShardEvidence {
            instance,
            wear_faults_injected: target.device_fault_stats().unwrap_or_default().wear_faults,
            retirements: wear.retirements,
            repairs: wear.repairs,
            gap_moves: wear.gap_moves,
            spares_left: target.wear_spares_left().unwrap_or(0),
            poisoned,
            completed_accesses: completed,
            p50_cycles: pct(&latencies, 50),
            p99_cycles: pct(&latencies, 99),
        }
    });
    let lane = FleetLaneReport {
        instance,
        design: target.label(),
        accesses: completed,
        crashes,
        recoveries_consistent,
        clock: target.clock(),
        verify_ok,
        state_digest: format!("{:032x}", target.state_digest()),
    };
    (lane, evidence)
}

/// Runs the fleet: every instance is an independent persistence domain
/// driven from its own seed, so the lanes fan out over the worker pool
/// and the report vector is byte-identical at any `jobs` count.
pub fn fleet_campaign(cfg: &FleetConfig) -> Vec<FleetLaneReport> {
    let instances: Vec<u32> = (0..cfg.instances).collect();
    par_map(cfg.jobs, instances, |i| run_instance(cfg, i, None).0)
}

// ── wear-aware fleet: one near-EOL shard among healthy siblings ────────

/// Configuration of a wear-aware fleet run: the base fleet plus one
/// instance whose NVM is deep into its write-endurance budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WearFleetConfig {
    /// The base fleet (design, instances, accesses, seed, jobs).
    pub fleet: FleetConfig,
    /// The instance running on worn silicon.
    pub wear_instance: u32,
    /// Wear-leveling scheme on the worn instance.
    pub scheme: psoram_nvm::WearScheme,
    /// Writes pre-aged onto every line of the worn instance (pushes it
    /// toward end-of-life from the first access).
    pub preage_writes: u64,
}

impl WearFleetConfig {
    /// A small deterministic wear fleet for tests and CI smoke.
    pub fn smoke() -> Self {
        WearFleetConfig {
            fleet: FleetConfig::smoke(),
            wear_instance: 1,
            scheme: psoram_nvm::WearScheme::Remap,
            preage_writes: 280,
        }
    }
}

/// Degradation evidence from the worn instance: wear faults absorbed,
/// lines retired, and the latency tail they cost.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearShardEvidence {
    /// The worn instance's index.
    pub instance: u32,
    /// Ground truth: wear faults the plan injected.
    pub wear_faults_injected: u64,
    /// Lines retired onto spares.
    pub retirements: u64,
    /// Repairs from the redundant copy onto fresh spares.
    pub repairs: u64,
    /// Start-Gap rotations performed.
    pub gap_moves: u64,
    /// Spare lines still available at the end of the run.
    pub spares_left: u64,
    /// Whether the instance ended in the fail-safe poison latch.
    pub poisoned: bool,
    /// Accesses the instance completed before the run (or the latch)
    /// ended it.
    pub completed_accesses: u64,
    /// Median per-access service cycles on the worn instance.
    pub p50_cycles: u64,
    /// 99th-percentile per-access service cycles (retirement repairs
    /// and retry backoffs land here).
    pub p99_cycles: u64,
}

/// A wear-aware fleet run: the per-instance lane reports (the worn
/// instance included) plus the worn instance's degradation evidence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearFleetReport {
    /// Per-instance reports, fleet order.
    pub lanes: Vec<FleetLaneReport>,
    /// The worn instance's evidence.
    pub wear: WearShardEvidence,
}

/// Sorted-slice percentile (nearest-rank, matching the service layer).
fn pct(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * p).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Runs the wear-aware fleet: the `wear_instance` runs on pre-aged
/// silicon with wear faults live, every sibling runs as it does in
/// [`fleet_campaign`] — so sibling lane reports are byte-identical to a
/// wear-free run of the same [`FleetConfig`].
///
/// # Panics
///
/// Panics if `wear_instance` is outside the fleet.
pub fn wear_fleet_campaign(cfg: &WearFleetConfig) -> WearFleetReport {
    assert!(
        cfg.wear_instance < cfg.fleet.instances,
        "wear instance outside the fleet"
    );
    let mut wcfg = psoram_nvm::WearConfig::stress(cfg.scheme);
    wcfg.preage_writes = cfg.preage_writes;
    let instances: Vec<u32> = (0..cfg.fleet.instances).collect();
    let outcomes = par_map(cfg.fleet.jobs, instances, |i| {
        run_instance(&cfg.fleet, i, (i == cfg.wear_instance).then_some(wcfg))
    });
    let (lanes, evidence): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    WearFleetReport {
        lanes,
        wear: (evidence.into_iter().flatten().next()).expect("the wear instance always reports"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_reports_are_worker_count_invariant() {
        let cfg = FleetConfig::smoke();
        let serial = fleet_campaign(&FleetConfig {
            jobs: 1,
            ..cfg.clone()
        });
        let parallel = fleet_campaign(&FleetConfig { jobs: 4, ..cfg });
        assert_eq!(serial, parallel);
    }

    #[test]
    fn wear_fleet_keeps_healthy_siblings_byte_identical() {
        let cfg = WearFleetConfig::smoke();
        let plain = fleet_campaign(&cfg.fleet);
        let worn = wear_fleet_campaign(&cfg);
        assert_eq!(worn.lanes.len(), plain.len());
        for (lane, clean) in worn.lanes.iter().zip(&plain) {
            if lane.instance != cfg.wear_instance {
                assert_eq!(
                    lane, clean,
                    "healthy sibling {} diverged from the wear-free fleet",
                    lane.instance
                );
            }
        }
        let w = &worn.wear;
        assert_eq!(w.instance, cfg.wear_instance);
        assert!(w.wear_faults_injected > 0, "near-EOL shard saw no faults");
        assert!(w.completed_accesses > 0);
        assert!(w.p50_cycles <= w.p99_cycles);
        if !w.poisoned {
            assert!(worn.lanes[cfg.wear_instance as usize].verify_ok);
        }
    }

    #[test]
    fn wear_fleet_is_worker_count_invariant() {
        let mut cfg = WearFleetConfig::smoke();
        cfg.fleet.jobs = 1;
        let serial = wear_fleet_campaign(&cfg);
        cfg.fleet.jobs = 4;
        let parallel = wear_fleet_campaign(&cfg);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn instance_seeds_never_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            assert!(seen.insert(instance_seed(42, i)));
        }
    }
}

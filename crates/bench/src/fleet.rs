//! BENCH_07's wear fleet: the service's shard lanes with shard
//! [`WORN_SHARD`] on near-EOL silicon (`WearShardPlan::near_eol`), run
//! beside the wear-free twin of the same configuration.
//!
//! PS-ORAM recovers a fault inside the persistence domain it struck, so
//! wear on one shard must show only on that shard's lane. The verdict
//! [`WearFleet::failures`] spells out, and the `lifetime` experiment
//! fails on: every lane verifies, every sibling lane is byte-identical to
//! the twin's, and the worn lane retired at least one line.

use psoram_service::{run_service, ServiceConfig, ServiceReport, ShardLaneReport, WearShardPlan};

/// The fleet's shard on near-EOL silicon.
pub const WORN_SHARD: u32 = 1;

/// One wear-fleet run: the worn service report and its wear-free twin.
#[derive(Debug, Clone, PartialEq)]
pub struct WearFleet {
    /// `cfg` with [`WORN_SHARD`] on near-EOL silicon.
    pub fleet: ServiceReport,
    /// `cfg` with no wear adversary armed.
    pub twin: ServiceReport,
}

impl WearFleet {
    /// Runs the twin and the worn fleet of `cfg` on `jobs` worker
    /// threads; both reports are byte-identical at any worker count.
    pub fn run(cfg: &ServiceConfig, jobs: usize) -> Self {
        let twin = ServiceConfig {
            wear: None,
            ..cfg.clone()
        };
        let worn = ServiceConfig {
            wear: Some(WearShardPlan::near_eol(WORN_SHARD)),
            ..cfg.clone()
        };
        WearFleet {
            fleet: run_service(&worn, jobs).report,
            twin: run_service(&twin, jobs).report,
        }
    }

    /// The lane that served from worn silicon.
    pub fn worn(&self) -> &ShardLaneReport {
        &self.fleet.lanes[WORN_SHARD as usize]
    }

    /// The worn lane's busy cycles over its wear-free twin's.
    pub fn busy_vs_twin(&self) -> f64 {
        self.worn().busy_cycles as f64 / self.twin.lanes[WORN_SHARD as usize].busy_cycles as f64
    }

    /// One line per broken verdict condition; empty when the fleet passes.
    pub fn failures(&self) -> Vec<String> {
        let mut failed = Vec::new();
        for (lane, clean) in self.fleet.lanes.iter().zip(&self.twin.lanes) {
            if lane.shard != WORN_SHARD
                && serde_json::to_string(lane).ok() != serde_json::to_string(clean).ok()
            {
                failed.push(format!(
                    "sibling shard {} differs from its wear-free twin",
                    lane.shard
                ));
            }
        }
        for lane in self.fleet.lanes.iter().filter(|l| !l.verify_ok) {
            failed.push(format!("shard {} failed verify", lane.shard));
        }
        if self.worn().wear.map_or(0, |w| w.retirements) == 0 {
            failed.push("the worn shard retired no line".into());
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wear_fleet_keeps_healthy_siblings_byte_identical() {
        let fleet = WearFleet::run(&ServiceConfig::smoke(), 0);
        assert_eq!(fleet.fleet.lanes.len(), fleet.twin.lanes.len());
        assert_eq!(fleet.failures(), Vec::<String>::new());
        let w = fleet
            .worn()
            .wear
            .expect("the worn lane carries wear evidence");
        assert!(w.wear_faults > 0, "near-EOL shard saw no faults");
        assert!(fleet.worn().requests > 0);
    }

    #[test]
    fn wear_fleet_is_worker_count_invariant() {
        let cfg = ServiceConfig::smoke();
        assert_eq!(WearFleet::run(&cfg, 1), WearFleet::run(&cfg, 4));
    }

    #[test]
    fn instance_seeds_never_collide() {
        let cfg = ServiceConfig {
            seed: 42,
            ..ServiceConfig::smoke()
        };
        let mut seen = std::collections::HashSet::new();
        for shard in 0..64 {
            assert!(seen.insert(cfg.shard_seed(shard)));
        }
    }
}

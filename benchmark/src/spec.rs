//! The benchmark's declared surface: workload names, metric names, units,
//! clocks and regression bounds. `BENCHMARK.json` at the repo root repeats
//! this table for the driver; `benchmark check-schema` fails when the two
//! disagree, so neither can drift alone.

pub const HARNESS_VERSION: &str = env!("CARGO_PKG_VERSION");

/// Seconds of window time one run measures; `BENCHMARK.json` repeats it.
pub const RUN_SECONDS: u64 = 10;

/// Which clock a metric is read from.
///
/// `Host` is wall time (or memory) of the simulator process: noisy, bounded.
/// `Sim` is a modelled cycle or count: deterministic for a seed, so two
/// runs of the same code at the same seed must agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression. Per-layer metrics carry no bound (0).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Metric {
    e2e(name, unit, clock, better, 0.0)
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};

/// End-to-end metrics, the same names on every workload. Each bound is at
/// least three times the widest spread (interquartile distance over the
/// median of ten seeds) seen on any workload on the 2-core box this was
/// sized on; the host bounds also cover the 10% the box drifted between two
/// such sets. The sim-clock bounds cover the seed-to-seed spread the driver
/// sees (it varies `--seed`); `compare` on two same-seed sets demands exact
/// equality instead.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Host, Lower, 0.25),
    e2e("host_ops_per_s", "op/s", Host, Higher, 0.25),
    e2e("host_peak_rss_mb", "MiB", Host, Lower, 0.25),
    e2e("sim_cycles_per_op", "cycles", Sim, Lower, 0.03),
    e2e("sim_op_p50_cycles", "cycles", Sim, Lower, 0.08),
    e2e("sim_op_p99_cycles", "cycles", Sim, Lower, 0.15),
    e2e("nvm_reads_per_op", "blocks", Sim, Lower, 0.10),
    e2e("nvm_writes_per_op", "blocks", Sim, Lower, 0.02),
    e2e("sim_cycles_vs_baseline", "ratio", Sim, Lower, 0.03),
];

/// Per-layer metrics (`--trace 1`). A metric a workload does not exercise
/// reads 0 there; README.md lists which workload feeds which row.
pub const PER_LAYER: &[Metric] = &[
    // psoram-crypto — kernel replay
    layer("crypto.aes_block_ns", "ns", Host, Lower),
    layer("crypto.ctr_payload_ns", "ns", Host, Lower),
    layer("crypto.ctr_bulk_mb_per_s", "MB/s", Host, Higher),
    layer("crypto.cmac_unit_ns", "ns", Host, Lower),
    layer("crypto.cmac_temp_seal_ns", "ns", Host, Lower),
    layer("crypto.hash_bucket_ns", "ns", Host, Lower),
    // core::stash / posmap
    layer("stash.path_cycle_ns", "ns", Host, Lower),
    layer("posmap.get_set_ns", "ns", Host, Lower),
    layer("posmap.temp_entries_sorted_ns", "ns", Host, Lower),
    layer("oram.stash_hit_share", "ratio", Sim, Higher),
    layer("oram.stash_max_occupancy", "blocks", Sim, Lower),
    // core::tree / eviction
    layer("tree.take_path_ns", "ns", Host, Lower),
    layer("tree.write_path_ns", "ns", Host, Lower),
    layer("tree.materialized_buckets", "count", Sim, Lower),
    layer("eviction.plan_ns", "ns", Host, Lower),
    layer("oram.eviction_leftovers_per_kop", "blocks", Sim, Lower),
    // core::auth / integrity
    layer("auth.counter_bump_root_ns", "ns", Host, Lower),
    layer("integrity.verify_update_path_ns", "ns", Host, Lower),
    layer("auth.host_slowdown_vs_plain", "ratio", Host, Lower),
    // core::engine + nvm::wpq
    layer("nvm.wpq_round_ns", "ns", Host, Lower),
    layer("round.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("round.data_units_per_op", "count", Sim, Lower),
    layer("round.posmap_units_per_op", "count", Sim, Lower),
    layer("wpq.data.pushed_per_op", "count", Sim, Lower),
    layer("wpq.posmap.pushed_per_op", "count", Sim, Lower),
    layer("wpq.max_occupancy", "count", Sim, Lower),
    layer("wpq.full_rejections", "count", Sim, Lower),
    layer("engine.wpq_stalls_per_kop", "count", Sim, Lower),
    // psoram-nvm timing model
    layer("nvm.path_batch_ns", "ns", Host, Lower),
    layer("nvm.sim_read_latency_mean_cycles", "cycles", Sim, Lower),
    layer("nvm.sim_write_latency_mean_cycles", "cycles", Sim, Lower),
    layer("nvm.sim_bus_busy_share", "ratio", Sim, Lower),
    layer("nvm.ps_write_overhead_pct", "%", Sim, Lower),
    // controller
    layer("controller.host_access_p50_us", "us", Host, Lower),
    layer("controller.host_access_p99_us", "us", Host, Lower),
    layer("controller.host_ns_per_op", "ns", Host, Lower),
    layer("controller.unattributed_ns_per_op", "ns", Host, Lower),
    layer("controller.host_ns_per_op_L12", "ns", Host, Lower),
    layer("controller.host_ns_per_op_L20", "ns", Host, Lower),
    layer("controller.host_ops_per_s_seg_min", "op/s", Host, Higher),
    layer("controller.host_ops_per_s_seg_max", "op/s", Host, Higher),
    layer("phase.check_stash.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("phase.posmap.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("phase.load_path.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("phase.update_stash.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("phase.eviction.sim_cycles_per_op", "cycles", Sim, Lower),
    layer("oram.backups_per_op", "blocks", Sim, Lower),
    layer("oram.dirty_entries_flushed_per_op", "count", Sim, Lower),
    layer("alloc.allocs_per_op", "count", Host, Lower),
    layer("alloc.bytes_per_op", "B", Host, Lower),
    // psoram-trace / psoram-cache / psoram-system
    layer("trace.gen_ns_per_record", "ns", Host, Lower),
    layer("cache.access_ns", "ns", Host, Lower),
    layer("cache.llc_mpki", "1/kinstr", Sim, Lower),
    layer("system.host_ns_per_llc_miss", "ns", Host, Lower),
    layer("system.sim_ipc", "instr/cycle", Sim, Higher),
    layer("system.ps_overhead_error_vs_paper_pp", "pp", Sim, Lower),
    // psoram-service (+ faultsim::par)
    layer("service.schedule_gen_ns_per_req", "ns", Host, Lower),
    layer("service.host_ns_per_req", "ns", Host, Lower),
    layer("service.parallel_speedup", "ratio", Host, Higher),
    layer("service.sim_queue_wait_mean_cycles", "cycles", Sim, Lower),
    layer("service.sim_busy_share", "ratio", Sim, Lower),
    layer("service.batches_per_kreq", "count", Sim, Lower),
    layer("service.lane_imbalance", "ratio", Sim, Lower),
    layer("service.sim_agg_acc_per_s", "op/s", Sim, Higher),
    layer("service.backlog_growth", "ratio", Sim, Lower),
    // recovery ladder
    layer("recover.host_us_p50", "us", Host, Lower),
    layer("recover.host_us_p99", "us", Host, Lower),
    layer("recover.traffic_host_share", "ratio", Host, Lower),
    layer("recover.repairs_per_op", "count", Sim, Lower),
    layer("recover.rollbacks_per_op", "count", Sim, Lower),
    layer("recover.incidents_per_op", "count", Sim, Lower),
    layer("recover.replays_detected_per_op", "count", Sim, Lower),
    layer("recover.rebuilds", "count", Sim, Lower),
    layer("recover.verify_contents_s", "s", Host, Lower),
    // psoram-obsv
    layer("obsv.traced_slowdown", "ratio", Host, Lower),
    layer("obsv.events_per_op", "count", Sim, Lower),
    layer("obsv.dropped_events", "count", Sim, Lower),
    layer("obsv.emit_detached_ns", "ns", Host, Lower),
    layer("obsv.emit_ring_ns", "ns", Host, Lower),
];

/// The table a run prints: per-layer under `--trace 1`, else end-to-end.
pub fn table(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Workload names and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "path_plain",
        "PS-ORAM Path hot path at L=16, 50/50 r/w: CTR, stash/posmap, tree, eviction plan, persist round, NVM timing; bypasses auth, Ring, cache, service",
    ),
    (
        "path_auth",
        "same instance with freshness verification armed and no damage: CMAC, counter tree, seal_temp dominate; path_plain is its bypass",
    ),
    (
        "ring_plain",
        "PS-Ring on the shared persist engine, WPQ, NVM and crypto but its own bucket code: a shared-store change must not trade Path for Ring",
    ),
    (
        "fullstack_spec",
        "Fig. 5 experiment: System stepped over 14 SPEC-like traces through psoram-trace and psoram-cache; low-MPKI traces cache-bound, high-MPKI controller-bound",
    ),
    (
        "service_sharded",
        "open-loop Poisson arrivals into 4 shards on parallel lanes: the only queueing and only multi-thread path; same controller work as path_plain at L=12",
    ),
    (
        "crash_recover",
        "accesses, crash_now, recover under the replay fault mix at L=9: the detect-classify-repair-rollback ladder instead of the access path",
    ),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Names may hold only these characters (the `BENCHMARK.json` contract).
pub fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(well_formed(name));
            assert!(why.len() <= 200, "{name}: why is {} chars", why.len());
            assert!(seen.insert(name));
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }
}

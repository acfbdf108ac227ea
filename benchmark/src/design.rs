//! The two controllers behind one handle, with the public counters the
//! per-layer rows are cut from (`stats()`, `wpq_stats()`, `nvm_stats()`,
//! `nvm()`, `tree()`).

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::{FaultConfig, NvmStats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    Path,
    Ring,
}

/// What is armed on top of the protocol's PS variant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arm {
    /// Nothing: the paper's design.
    Plain,
    /// Device fault plan installed (freshness verification armed).
    Faults(FaultConfig),
    /// The reference pass: the protocol's `Baseline` variant, no crash
    /// consistency, no faults, no authentication.
    Baseline,
}

pub enum Design {
    Path(Box<PathOram>),
    Ring(Box<RingOram>),
}

/// Cumulative counters of one design; subtract two snapshots for a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub clock: u64,
    pub nvm: NvmStats,
    pub accesses: u64,
    pub stash_hits: u64,
    pub stash_max: u64,
    pub eviction_leftovers: u64,
    pub backups: u64,
    pub dirty_entries_flushed: u64,
    pub wpq_stalls: u64,
    pub data_pushed: u64,
    pub posmap_pushed: u64,
    pub wpq_max_occupancy: u64,
    pub wpq_full_rejections: u64,
    /// Data-bus busy time in memory cycles, summed over channels.
    pub bus_busy_mem_cycles: u64,
    pub materialized_buckets: u64,
}

impl Design {
    /// Builds a design at tree height `levels` with its WPQs sized to one
    /// path, payload encryption on (the constructors' default).
    pub fn build(protocol: Protocol, levels: u32, arm: Arm, seed: u64) -> Design {
        let mut design = match protocol {
            Protocol::Path => {
                let mut cfg = OramConfig::paper_default().with_levels(levels);
                cfg.data_wpq_capacity = cfg.path_slots();
                cfg.posmap_wpq_capacity = cfg.path_slots();
                let variant = match arm {
                    Arm::Baseline => ProtocolVariant::Baseline,
                    _ => ProtocolVariant::PsOram,
                };
                Design::Path(Box::new(PathOram::new(cfg, variant, seed)))
            }
            Protocol::Ring => {
                let mut cfg = RingConfig {
                    levels,
                    ..RingConfig::small_test()
                };
                cfg.wpq_capacity = cfg.bucket_physical_slots() * (levels as usize + 1);
                let variant = match arm {
                    Arm::Baseline => RingVariant::Baseline,
                    _ => RingVariant::PsRing,
                };
                Design::Ring(Box::new(RingOram::new(cfg, variant, seed)))
            }
        };
        if let Arm::Faults(mix) = arm {
            design
                .policy()
                .enable_device_faults(seed ^ 0xFA17_5EED, mix);
        }
        design
    }

    pub fn policy(&mut self) -> &mut dyn ProtocolPolicy {
        match self {
            Design::Path(p) => p.as_mut(),
            Design::Ring(r) => r.as_mut(),
        }
    }

    pub fn counters(&self) -> Counters {
        match self {
            Design::Path(p) => {
                let s = p.stats();
                let (data, posmap) = p.wpq_stats();
                Counters {
                    clock: p.clock(),
                    nvm: p.nvm_stats(),
                    accesses: s.accesses,
                    stash_hits: s.stash_hits,
                    stash_max: p.stash_max_occupancy() as u64,
                    eviction_leftovers: s.eviction_leftovers,
                    backups: s.backups_created,
                    dirty_entries_flushed: s.dirty_entries_flushed,
                    wpq_stalls: s.wpq_stalls,
                    data_pushed: data.entries_pushed,
                    posmap_pushed: posmap.entries_pushed,
                    wpq_max_occupancy: data.max_occupancy.max(posmap.max_occupancy) as u64,
                    wpq_full_rejections: data.full_rejections + posmap.full_rejections,
                    bus_busy_mem_cycles: p.nvm().total_bus_busy_cycles(),
                    materialized_buckets: p.tree().materialized_buckets() as u64,
                }
            }
            Design::Ring(r) => {
                let s = r.stats();
                let (data, posmap) = r.wpq_stats();
                Counters {
                    clock: r.clock(),
                    nvm: r.nvm_stats(),
                    accesses: s.accesses,
                    stash_max: s.stash_max as u64,
                    dirty_entries_flushed: s.dirty_entries_flushed,
                    wpq_stalls: s.wpq_stalls,
                    data_pushed: data.entries_pushed,
                    posmap_pushed: posmap.entries_pushed,
                    wpq_max_occupancy: data.max_occupancy.max(posmap.max_occupancy) as u64,
                    wpq_full_rejections: data.full_rejections + posmap.full_rejections,
                    bus_busy_mem_cycles: r.nvm().total_bus_busy_cycles(),
                    // Ring keeps its own bucket store and exposes neither
                    // stash hits, leftovers, backups nor materialisation.
                    ..Counters::default()
                }
            }
        }
    }
}

/// Per-layer rows cut from two counter snapshots around `ops` operations.
pub fn counter_rows(before: &Counters, after: &Counters, ops: u64) -> Vec<(&'static str, f64)> {
    let ops_f = ops.max(1) as f64;
    let accesses = (after.accesses - before.accesses).max(1) as f64;
    let mem_cycles =
        (after.clock - before.clock).max(1) as f64 / psoram_nvm::CORE_CYCLES_PER_MEM_CYCLE as f64;
    let per_op = |a: u64, b: u64| (a - b) as f64 / ops_f;
    vec![
        (
            "oram.stash_hit_share",
            (after.stash_hits - before.stash_hits) as f64 / accesses,
        ),
        ("oram.stash_max_occupancy", after.stash_max as f64),
        (
            "tree.materialized_buckets",
            after.materialized_buckets as f64,
        ),
        (
            "oram.eviction_leftovers_per_kop",
            1e3 * per_op(after.eviction_leftovers, before.eviction_leftovers),
        ),
        (
            "wpq.data.pushed_per_op",
            per_op(after.data_pushed, before.data_pushed),
        ),
        (
            "wpq.posmap.pushed_per_op",
            per_op(after.posmap_pushed, before.posmap_pushed),
        ),
        ("wpq.max_occupancy", after.wpq_max_occupancy as f64),
        (
            "wpq.full_rejections",
            (after.wpq_full_rejections - before.wpq_full_rejections) as f64,
        ),
        (
            "engine.wpq_stalls_per_kop",
            1e3 * per_op(after.wpq_stalls, before.wpq_stalls),
        ),
        (
            "nvm.sim_bus_busy_share",
            (after.bus_busy_mem_cycles - before.bus_busy_mem_cycles) as f64 / mem_cycles,
        ),
        ("oram.backups_per_op", per_op(after.backups, before.backups)),
        (
            "oram.dirty_entries_flushed_per_op",
            per_op(after.dirty_entries_flushed, before.dirty_entries_flushed),
        ),
    ]
}

//! Hybrid-memory extension study (§4.5 future work): mirror the top tree
//! levels in a fast volatile buffer with write-through persistence, sweep
//! the cached depth, and report latency/traffic savings.

use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    psoram_bench::print_config_banner("top-of-tree cache study (hybrid memory)");
    let accesses: usize = std::env::var("PSORAM_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let levels = 14u32;

    println!(
        "\n{:>14}{:>14}{:>12}{:>14}{:>14}{:>14}",
        "cached levels", "buffer bytes", "cycles", "vs uncached", "NVM reads", "NVM writes"
    );
    let mut base_cycles = None;
    let mut rows = Vec::new();
    for cached in [0u32, 2, 4, 6, 8] {
        let mut cfg = OramConfig::paper_default().with_levels(levels);
        cfg.data_wpq_capacity = cfg.path_slots();
        cfg.posmap_wpq_capacity = cfg.path_slots();
        let cap = cfg.capacity_blocks();
        let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 11);
        oram.set_payload_encryption(false);
        oram.set_top_cache_levels(cached);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..accesses {
            oram.write(BlockAddr(rng.gen_range(0..cap)), vec![0u8; 8])
                .unwrap();
        }
        let cycles = oram.clock();
        let base = *base_cycles.get_or_insert(cycles as f64);
        println!(
            "{:>14}{:>14}{:>12}{:>14.3}{:>14}{:>14}",
            cached,
            oram.top_cache_bytes(),
            cycles,
            cycles as f64 / base,
            oram.nvm_stats().reads,
            oram.nvm_stats().writes
        );
        rows.push(serde_json::json!({
            "cached_levels": cached,
            "buffer_bytes": oram.top_cache_bytes(),
            "cycles": cycles,
            "nvm_reads": oram.nvm_stats().reads,
            "nvm_writes": oram.nvm_stats().writes,
        }));
    }
    println!(
        "\nEach cached level removes Z block reads per access while the write-through\n\
         policy keeps NVM write traffic — and therefore crash consistency — unchanged.\n\
         Crash tests for this mode live in crates/core/tests/controller_tests.rs."
    );
    psoram_bench::write_results_json("topcache_study", &serde_json::json!(rows));
}

//! Memory-scheduler ablation: read-priority write buffering in the NVM
//! controller (real PCM controllers park writes so the 60-cycle write
//! pulse stays off the read critical path). Shows its interaction with
//! ORAM's read-path-then-write-path traffic.

use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::NvmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    psoram_bench::print_config_banner("write-buffer scheduler study");
    let accesses: usize = std::env::var("PSORAM_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6_000);
    let levels = 14u32;

    println!(
        "\n{:>14}{:>14}{:>12}{:>16}{:>16}",
        "buffer size", "cycles", "vs none", "mean access", "drained writes"
    );
    let mut base = None;
    let mut rows = Vec::new();
    for buffer in [0usize, 32, 128, 512] {
        let mut nvm = NvmConfig::paper_pcm(1);
        nvm.write_buffer_entries = buffer;
        let mut cfg = OramConfig::paper_default().with_levels(levels);
        cfg.data_wpq_capacity = cfg.path_slots();
        cfg.posmap_wpq_capacity = cfg.path_slots();
        let cap = cfg.capacity_blocks();
        let mut oram = PathOram::with_nvm(cfg, ProtocolVariant::PsOram, nvm, 11);
        oram.set_payload_encryption(false);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..accesses {
            oram.write(BlockAddr(rng.gen_range(0..cap)), vec![0u8; 8])
                .unwrap();
        }
        let cycles = oram.clock();
        let b = *base.get_or_insert(cycles as f64);
        println!(
            "{:>14}{:>14}{:>12.3}{:>16.0}{:>16}",
            buffer,
            cycles,
            cycles as f64 / b,
            oram.stats().mean_access_cycles(),
            oram.nvm().drained_writes(),
        );
        rows.push(serde_json::json!({
            "buffer": buffer,
            "cycles": cycles,
            "mean_access_cycles": oram.stats().mean_access_cycles(),
            "drained_writes": oram.nvm().drained_writes(),
        }));
    }
    println!(
        "\nNegative result, and an informative one: write buffering — a standard PCM\n\
         controller optimization for irregular write streams — does NOT help ORAM.\n\
         Path ORAM already batches its writes into full-path bursts that amortize\n\
         the 60-cycle write pulse across banks; a buffer merely defers the same bank\n\
         work into a later window where it collides with the next path read (worst\n\
         at 512 entries: half-buffer drains of 256 writes stall everything behind\n\
         them). The ORAM access protocol is, in effect, its own write scheduler.\n\
         Durability is unaffected either way: it comes from the WPQ persistence\n\
         domain, which commits before requests enter the memory controller."
    );
    psoram_bench::write_results_json("scheduler_study", &serde_json::json!(rows));
}

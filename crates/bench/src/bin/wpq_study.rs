//! WPQ sizing study (§4.2.3): performance and eviction batching of
//! PS-ORAM as the persistence domain shrinks from a full path to the
//! 4-entry configuration, plus crash-recovery validation at each size.

use psoram_core::{BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    psoram_bench::print_config_banner("WPQ sizing study");
    let accesses: usize = std::env::var("PSORAM_RECORDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let levels = 12u32;

    println!(
        "\n{:>10}{:>14}{:>14}{:>16}{:>18}{:>12}",
        "WPQ size", "cycles", "vs full", "batches/round", "drain energy(uJ)", "recovers?"
    );
    let mut baseline_cycles = None;
    let mut rows = Vec::new();
    let full = OramConfig::paper_default().with_levels(levels).path_slots();
    for entries in [full, 24, 12, 8, 4] {
        let mut cfg = OramConfig::paper_default().with_levels(levels);
        cfg.data_wpq_capacity = entries;
        cfg.posmap_wpq_capacity = entries;
        let cap = cfg.capacity_blocks();

        // Performance run.
        let mut oram = PathOram::new(cfg.clone(), ProtocolVariant::PsOram, 11);
        oram.set_payload_encryption(false);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..accesses {
            oram.write(BlockAddr(rng.gen_range(0..cap)), vec![0u8; 8])
                .unwrap();
        }
        let cycles = oram.clock();
        let base = *baseline_cycles.get_or_insert(cycles as f64);
        let batches_per_round =
            oram.stats().eviction_batches as f64 / oram.stats().eviction_rounds as f64;

        // Crash-recovery validation at this size.
        let mut crash_oram = PathOram::new(cfg, ProtocolVariant::PsOram, 13);
        for i in 0..40u64 {
            crash_oram.write(BlockAddr(i), vec![i as u8; 8]).unwrap();
        }
        crash_oram.inject_crash(CrashPoint::DuringEviction(1));
        let _ = crash_oram.read(BlockAddr(3));
        let recovers = if crash_oram.is_crashed() {
            crash_oram.recover().consistent && crash_oram.verify_contents(true).is_ok()
        } else {
            true
        };

        let energy = psoram_energy::DrainCostModel::paper_config(entries)
            .ps_oram()
            .energy_uj();
        println!(
            "{:>10}{:>14}{:>14.3}{:>16.2}{:>18.2}{:>12}",
            entries,
            cycles,
            cycles as f64 / base,
            batches_per_round,
            energy,
            recovers
        );
        rows.push(serde_json::json!({
            "entries": entries,
            "cycles": cycles,
            "batches_per_round": batches_per_round,
            "drain_energy_uj": energy,
            "recovers": recovers,
        }));
    }
    println!(
        "\nShrinking the WPQ multiplies eviction sub-rounds (identity placement keeps\n\
         them consistent) and costs a little time, while the crash-drain energy falls\n\
         to microjoules — the paper's §4.2.3 trade-off."
    );
    psoram_bench::write_results_json("wpq_study", &serde_json::json!(rows));
}

//! The studies behind the paper's sizing claims and its extensions: the
//! stash, the WPQ, the top-of-tree cache, the write scheduler, the memory
//! technology and Ring ORAM. Each controller-level study drives uniformly
//! random writes (seed 3) at its own access count.

use std::sync::Arc;

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_energy::DrainCostModel;
use psoram_nvm::NvmConfig;
use psoram_obsv::{Event, MetricsRegistry, RingBufferRecorder};
use psoram_trace::SpecWorkload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{json, Value};

use crate::{
    drive_uniform_writes, experiment_config, geomean, print_sweep_config, run_config,
    write_obsv_file, CommonCli, TrafficRow,
};

/// `levels` of the paper's geometry with both WPQs a full path deep, as
/// every controller-level study sizes them unless it studies them.
fn full_path_wpqs(levels: u32) -> OramConfig {
    let mut cfg = OramConfig::paper_default().with_levels(levels);
    cfg.data_wpq_capacity = cfg.path_slots();
    cfg.posmap_wpq_capacity = cfg.path_slots();
    cfg
}

/// A Path controller with payload encryption off (the studies count
/// cycles and traffic, not ciphertext).
fn plain_path(cfg: OramConfig, variant: ProtocolVariant, seed: u64) -> PathOram {
    let mut oram = PathOram::new(cfg, variant, seed);
    oram.set_payload_encryption(false);
    oram
}

/// Stash occupancy study: the §5.1 sizing argument ("to minimize the
/// possibility of stash overflow, the ORAM utilization rate is set to
/// 50%"; Table 3 sizes the stash at 200 entries). Sweeps the utilization
/// and reports the stash high-water mark over long random runs.
pub(super) fn stash(_: &CommonCli) -> Value {
    const ACCESSES: usize = 20_000;
    println!(
        "\n{:>12}{:>12}{:>16}{:>16}{:>14}",
        "utilization", "levels", "max stash", "max temp-pos", "leftover evts"
    );
    let mut rows = Vec::new();
    for util in [0.3f64, 0.5, 0.7, 0.9] {
        for levels in [10u32, 12] {
            let mut cfg = full_path_wpqs(levels);
            cfg.utilization = util;
            cfg.stash_capacity = 4096; // headroom so we can observe the peak
            cfg.temp_posmap_capacity = 4096;
            let mut oram = plain_path(cfg, ProtocolVariant::PsOram, 11);
            drive_uniform_writes("stash", &mut oram, ACCESSES, 3);
            println!(
                "{:>12.1}{:>12}{:>16}{:>16}{:>14}",
                util,
                levels,
                oram.stash_max_occupancy(),
                oram.temp_posmap_len(),
                oram.stats().eviction_leftovers
            );
            rows.push(json!({
                "utilization": util,
                "levels": levels,
                "max_stash": oram.stash_max_occupancy(),
                "eviction_leftovers": oram.stats().eviction_leftovers,
            }));
        }
    }
    json!(rows)
}

/// Stash-occupancy tail study: Path ORAM theory says the stash occupancy
/// distribution has an exponentially decaying tail (why a 200-entry stash
/// with 50% utilization "never" overflows). Measures the distribution
/// over a long run and reports the log-linear tail.
pub(super) fn stash_tail(_: &CommonCli) -> Value {
    const ACCESSES: usize = 60_000;
    let mut cfg = full_path_wpqs(12);
    cfg.stash_capacity = 4096;
    cfg.temp_posmap_capacity = 4096;
    let cap = cfg.capacity_blocks();
    let mut oram = plain_path(cfg, ProtocolVariant::PsOram, 17);

    let mut histogram = vec![0u64; 256];
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..ACCESSES {
        oram.write(BlockAddr(rng.gen_range(0..cap)), vec![0u8; 8])
            .expect("stash headroom");
        let occ = oram.stash_len().min(255);
        histogram[occ] += 1;
    }

    println!("\npost-access stash occupancy distribution ({ACCESSES} accesses):");
    println!(
        "{:>10}{:>12}{:>14}{:>18}",
        "occupancy", "count", "P(X >= s)", "log10 P(X >= s)"
    );
    let total: u64 = histogram.iter().sum();
    let mut tail = total;
    let mut rows = Vec::new();
    for (occ, &count) in histogram.iter().enumerate() {
        if count == 0 && tail == 0 {
            break;
        }
        let p = tail as f64 / total as f64;
        if p > 0.0 && (count > 0 || (occ % 2 == 0 && occ < 8)) {
            println!("{:>10}{:>12}{:>14.6}{:>18.2}", occ, count, p, p.log10());
        }
        rows.push(json!({ "occupancy": occ, "count": count, "tail_p": p }));
        tail -= count;
    }
    let max_occ = histogram.iter().rposition(|&c| c > 0).unwrap_or(0);
    println!(
        "\nmax observed: {max_occ}; high-water mark incl. mid-access transients: {}",
        oram.stash_max_occupancy()
    );
    json!(rows)
}

/// Hybrid-memory extension study (§4.5 future work): mirror the top tree
/// levels in a fast volatile buffer with write-through persistence, sweep
/// the cached depth, and report latency/traffic savings.
pub(super) fn topcache(_: &CommonCli) -> Value {
    const ACCESSES: usize = 10_000;
    println!(
        "\n{:>14}{:>14}{:>12}{:>14}{:>14}{:>14}",
        "cached levels", "buffer bytes", "cycles", "vs uncached", "NVM reads", "NVM writes"
    );
    let mut base_cycles = None;
    let mut rows = Vec::new();
    for cached in [0u32, 2, 4, 6, 8] {
        let mut oram = plain_path(full_path_wpqs(14), ProtocolVariant::PsOram, 11);
        oram.set_top_cache_levels(cached);
        let run = drive_uniform_writes("topcache", &mut oram, ACCESSES, 3);
        let base = *base_cycles.get_or_insert(run.cycles as f64);
        println!(
            "{:>14}{:>14}{:>12}{:>14.3}{:>14}{:>14}",
            cached,
            oram.top_cache_bytes(),
            run.cycles,
            run.cycles as f64 / base,
            run.reads,
            run.writes
        );
        rows.push(json!({
            "cached_levels": cached,
            "buffer_bytes": oram.top_cache_bytes(),
            "cycles": run.cycles,
            "nvm_reads": run.reads,
            "nvm_writes": run.writes,
        }));
    }
    json!(rows)
}

/// Memory-scheduler ablation: read-priority write buffering in the NVM
/// controller (real PCM controllers park writes so the 60-cycle write
/// pulse stays off the read critical path), and its interaction with
/// ORAM's read-path-then-write-path traffic.
pub(super) fn scheduler(_: &CommonCli) -> Value {
    const ACCESSES: usize = 6_000;
    println!(
        "\n{:>14}{:>14}{:>12}{:>16}{:>16}",
        "buffer size", "cycles", "vs none", "mean access", "drained writes"
    );
    let mut base = None;
    let mut rows = Vec::new();
    for buffer in [0usize, 32, 128, 512] {
        let mut nvm = NvmConfig::paper_pcm(1);
        nvm.write_buffer_entries = buffer;
        let mut oram = PathOram::with_nvm(full_path_wpqs(14), ProtocolVariant::PsOram, nvm, 11);
        oram.set_payload_encryption(false);
        let cycles = drive_uniform_writes("scheduler", &mut oram, ACCESSES, 3).cycles;
        let b = *base.get_or_insert(cycles as f64);
        println!(
            "{:>14}{:>14}{:>12.3}{:>16.0}{:>16}",
            buffer,
            cycles,
            cycles as f64 / b,
            oram.stats().mean_access_cycles(),
            oram.nvm().drained_writes(),
        );
        rows.push(json!({
            "buffer": buffer,
            "cycles": cycles,
            "mean_access_cycles": oram.stats().mean_access_cycles(),
            "drained_writes": oram.nvm().drained_writes(),
        }));
    }
    json!(rows)
}

/// WPQ sizing study (§4.2.3): performance and eviction batching of
/// PS-ORAM as the persistence domain shrinks from a full path to the
/// 4-entry configuration, plus crash-recovery validation at each size.
pub(super) fn wpq(_: &CommonCli) -> Value {
    const ACCESSES: usize = 10_000;
    const LEVELS: u32 = 12;
    println!(
        "\n{:>10}{:>14}{:>14}{:>16}{:>18}{:>12}",
        "WPQ size", "cycles", "vs full", "batches/round", "drain energy(uJ)", "recovers?"
    );
    let mut baseline_cycles = None;
    let mut rows = Vec::new();
    let full = full_path_wpqs(LEVELS).path_slots();
    for entries in [full, 24, 12, 8, 4] {
        let cfg = OramConfig::paper_default()
            .with_levels(LEVELS)
            .with_wpq_capacity(entries, entries);

        // Performance run.
        let mut oram = plain_path(cfg.clone(), ProtocolVariant::PsOram, 11);
        let cycles = drive_uniform_writes("wpq", &mut oram, ACCESSES, 3).cycles;
        let base = *baseline_cycles.get_or_insert(cycles as f64);
        let batches_per_round =
            oram.stats().eviction_batches as f64 / oram.stats().eviction_rounds as f64;

        // Crash-recovery validation at this size.
        let mut crash_oram = PathOram::new(cfg, ProtocolVariant::PsOram, 13);
        for i in 0..40u64 {
            crash_oram
                .write(BlockAddr(i), vec![i as u8; 8])
                .expect("write before the crash");
        }
        crash_oram.inject_crash(CrashPoint::DuringEviction(1));
        let _ = crash_oram.read(BlockAddr(3));
        let recovers = if crash_oram.is_crashed() {
            crash_oram.recover().consistent && crash_oram.verify_contents(true).is_ok()
        } else {
            true
        };

        let energy = DrainCostModel::paper_config(entries).ps_oram().energy_uj();
        println!(
            "{:>10}{:>14}{:>14.3}{:>16.2}{:>18.2}{:>12}",
            entries,
            cycles,
            cycles as f64 / base,
            batches_per_round,
            energy,
            recovers
        );
        rows.push(json!({
            "entries": entries,
            "cycles": cycles,
            "batches_per_round": batches_per_round,
            "drain_energy_uj": energy,
            "recovers": recovers,
        }));
    }
    json!(rows)
}

/// Memory-technology sensitivity: Table 3(c) lists both PCM and STT-RAM
/// timing for the main memory. Re-runs the Figure-5 comparison on four
/// workloads with STT-RAM as the main memory and shows how the
/// persistence overheads shift when the write pulse is 4x cheaper.
pub(super) fn tech(_: &CommonCli) -> Value {
    print_sweep_config();
    let run = |variant, nvm: NvmConfig, w| {
        let mut cfg = experiment_config(variant, 1);
        cfg.nvm = nvm;
        run_config(cfg, w).exec_cycles as f64
    };
    let variants = [
        ProtocolVariant::Baseline,
        ProtocolVariant::NaivePsOram,
        ProtocolVariant::PsOram,
    ];
    let workloads = [
        SpecWorkload::Mcf,
        SpecWorkload::Bzip2,
        SpecWorkload::Sphinx3,
        SpecWorkload::Lbm,
    ];

    // cycles[variant][workload] = (PCM, STT-RAM); variants[0] is Baseline.
    let cycles: Vec<Vec<(f64, f64)>> = variants
        .iter()
        .map(|&v| {
            workloads
                .iter()
                .map(|&w| {
                    let pcm = run(v, NvmConfig::paper_pcm(1), w);
                    (pcm, run(v, NvmConfig::paper_sttram(1), w))
                })
                .collect()
        })
        .collect();
    println!(
        "\n{:<16}{:>18}{:>18}{:>18}",
        "variant", "PCM overhead", "STT-RAM overhead", "STT/PCM speedup"
    );
    let mut rows = Vec::new();
    for (v, runs) in variants.iter().zip(&cycles) {
        let gmean_of =
            |f: &dyn Fn(usize) -> f64| geomean(&(0..workloads.len()).map(f).collect::<Vec<_>>());
        let gp = gmean_of(&|i| runs[i].0 / cycles[0][i].0);
        let gs = gmean_of(&|i| runs[i].1 / cycles[0][i].1);
        let gx = gmean_of(&|i| runs[i].0 / runs[i].1);
        println!(
            "{:<16}{:>17.2}%{:>17.2}%{:>17.2}x",
            v.label(),
            (gp - 1.0) * 100.0,
            (gs - 1.0) * 100.0,
            gx
        );
        rows.push(json!({
            "variant": v.label(),
            "pcm_overhead": gp - 1.0,
            "stt_overhead": gs - 1.0,
            "stt_speedup": gx,
        }));
    }
    json!(rows)
}

/// Extension experiment: PS-ORAM's crash-consistency machinery applied to
/// **Ring ORAM** (the paper's "general ORAM protocols" claim), compared
/// with Path ORAM on bandwidth and persistence overhead. All four designs
/// are driven through the shared [`ProtocolPolicy`] surface — the same
/// traffic loop exercises both controllers.
pub(super) fn ring_vs_path(cli: &CommonCli) -> Value {
    const ACCESSES: usize = 8_000;
    const LEVELS: u32 = 12;

    let path = |variant| -> Box<dyn ProtocolPolicy> {
        Box::new(plain_path(full_path_wpqs(LEVELS), variant, 11))
    };
    let ring = |variant| -> Box<dyn ProtocolPolicy> {
        let mut cfg = RingConfig {
            levels: LEVELS,
            ..RingConfig::small_test()
        };
        cfg.wpq_capacity = cfg.bucket_physical_slots() * (LEVELS as usize + 1);
        Box::new(RingOram::new(cfg, variant, 11))
    };
    // The four designs share no state, so each worker constructs its own
    // controller and drives it to completion; `par_map` returns rows in
    // input order, keeping the table identical at any `--jobs` count.
    // Each design records into its own buffer, so traces merge in input
    // order too.
    let tracing = cli.trace_out.is_some() || cli.metrics_out.is_some();
    let results: Vec<(TrafficRow, (String, Vec<Event>), MetricsRegistry)> =
        psoram_faultsim::par_map(0, (0..4usize).collect(), |i| {
            let (name, mut oram): (&str, Box<dyn ProtocolPolicy>) = match i {
                0 => ("Path-Baseline", path(ProtocolVariant::Baseline)),
                1 => ("PS-ORAM", path(ProtocolVariant::PsOram)),
                2 => ("Ring-Baseline", ring(RingVariant::Baseline)),
                _ => ("PS-Ring-ORAM", ring(RingVariant::PsRing)),
            };
            let rec = Arc::new(RingBufferRecorder::new(psoram_obsv::DEFAULT_RING_CAPACITY));
            if tracing {
                oram.attach_recorder(rec.clone());
            }
            let row = drive_uniform_writes(name, &mut *oram, ACCESSES, 3);
            let mut reg = MetricsRegistry::new();
            if tracing {
                oram.publish_metrics(name, &mut reg);
            }
            (row, (name.to_string(), rec.events()), reg)
        });

    if let Some(path_out) = &cli.trace_out {
        let tracks: Vec<(String, Vec<Event>)> = results.iter().map(|(_, t, _)| t.clone()).collect();
        write_obsv_file(path_out, &psoram_obsv::chrome_trace_json(&tracks));
    }
    if let Some(path_out) = &cli.metrics_out {
        let mut merged = MetricsRegistry::new();
        for (_, (label, events), reg) in &results {
            merged.merge(reg);
            merged.ingest_events(&format!("trace.{label}"), events);
        }
        write_obsv_file(path_out, &merged.to_json_string());
    }

    let rows: Vec<&TrafficRow> = results.iter().map(|(r, _, _)| r).collect();
    println!(
        "\n{:<16}{:>14}{:>14}{:>14}{:>16}{:>16}",
        "design", "cycles", "NVM reads", "NVM writes", "reads/access", "writes/access"
    );
    for r in &rows {
        println!(
            "{:<16}{:>14}{:>14}{:>14}{:>16.1}{:>16.1}",
            r.name,
            r.cycles,
            r.reads,
            r.writes,
            r.reads as f64 / ACCESSES as f64,
            r.writes as f64 / ACCESSES as f64
        );
    }
    let path_pers = rows[1].cycles as f64 / rows[0].cycles as f64 - 1.0;
    let ring_pers = rows[3].cycles as f64 / rows[2].cycles as f64 - 1.0;
    println!(
        "\nPersistence overhead: Path ORAM {:+.2}%, Ring ORAM {:+.2}%",
        path_pers * 100.0,
        ring_pers * 100.0
    );
    json!(rows)
}

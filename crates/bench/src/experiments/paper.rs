//! The paper's own tables and figures: Tables 1, 2 and 4, Figs. 5–7 and
//! §5.1's ORAM-vs-non-ORAM context, all at the sweep scale.

use std::collections::BTreeMap;
use std::sync::Arc;

use psoram_core::ProtocolVariant;
use psoram_energy::{constants, DrainCostModel};
use psoram_obsv::{MetricsRegistry, MetricsSource as _, RingBufferRecorder};
use psoram_system::{SimResult, System};
use psoram_trace::SpecWorkload;
use serde_json::{json, Value};

use crate::{
    experiment_config, geomean, print_sweep_config, run_one, run_reference, sweep_vs_baseline,
    write_obsv_file, CommonCli, FigureTable,
};

/// **Table 1**: energy cost constants for crash-time draining.
pub(super) fn table1(_: &CommonCli) -> Value {
    println!("\n| Operation                                          | Energy Cost    |");
    println!("|----------------------------------------------------|----------------|");
    println!(
        "| Accessing Data from SRAM                           | {:.0}pJ/Byte      |",
        constants::SRAM_ACCESS_PJ_PER_BYTE
    );
    println!(
        "| Moving data from L1D to NVM                        | {:.3}nJ/Byte  |",
        constants::L1_TO_NVM_NJ_PER_BYTE
    );
    println!(
        "| Moving data from L2, stash, PosMap and WPQs to NVM | {:.3}nJ/Byte  |",
        constants::L2_TO_NVM_NJ_PER_BYTE
    );
    json!({
        "sram_access_pj_per_byte": constants::SRAM_ACCESS_PJ_PER_BYTE,
        "l1_to_nvm_nj_per_byte": constants::L1_TO_NVM_NJ_PER_BYTE,
        "l2_to_nvm_nj_per_byte": constants::L2_TO_NVM_NJ_PER_BYTE,
    })
}

fn fmt_energy(j: f64) -> String {
    if j >= 1.0 {
        format!("{j:.3}J")
    } else if j >= 1e-3 {
        format!("{:.3}mJ", j * 1e3)
    } else {
        format!("{:.3}uJ", j * 1e6)
    }
}

fn fmt_time(s: f64) -> String {
    if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3}us", s * 1e6)
    } else {
        format!("{:.3}ns", s * 1e9)
    }
}

/// **Table 2**: estimated draining energy and time for eADR-cache /
/// eADR-ORAM vs PS-ORAM (96- and 4-entry WPQs).
pub(super) fn table2(_: &CommonCli) -> Value {
    let m96 = DrainCostModel::paper_config(96);
    let m4 = DrainCostModel::paper_config(4);

    let eadr_cache = m96.eadr_cache();
    let eadr_oram = m96.eadr_oram();
    let ps96 = m96.ps_oram();
    let ps4 = m4.ps_oram();

    println!("\nSystem         |  eADR-cache |   eADR-ORAM | PS-ORAM(96) | PS-ORAM(4)");
    println!("---------------+-------------+-------------+-------------+-----------");
    println!(
        "Energy         | {:>11} | {:>11} | {:>11} | {:>10}",
        fmt_energy(eadr_cache.energy_joules),
        fmt_energy(eadr_oram.energy_joules),
        fmt_energy(ps96.energy_joules),
        fmt_energy(ps4.energy_joules),
    );
    println!(
        "Time           | {:>11} | {:>11} | {:>11} | {:>10}",
        fmt_time(eadr_cache.time_seconds),
        fmt_time(eadr_oram.time_seconds),
        fmt_time(ps96.time_seconds),
        fmt_time(ps4.time_seconds),
    );
    println!(
        "\nNormalized to PS-ORAM (96-entry): eADR-cache {:.0}x, eADR-ORAM {:.0}x",
        m96.energy_ratio_eadr_cache(),
        m96.energy_ratio_eadr_oram(),
    );
    println!(
        "Normalized to PS-ORAM (4-entry):  eADR-cache {:.0}x, eADR-ORAM {:.0}x",
        eadr_cache.energy_joules / ps4.energy_joules,
        eadr_oram.energy_joules / ps4.energy_joules,
    );
    println!("\nPaper reference: eADR-cache 12.653mJ/26.638us; eADR-ORAM 2.286J/4.817ms;");
    println!("PS-ORAM 76.530uJ/161.134ns (96) and 2.83uJ/6.713ns (4); ratios 165x / 29870x.");

    json!({
        "eadr_cache": { "energy_j": eadr_cache.energy_joules, "time_s": eadr_cache.time_seconds },
        "eadr_oram": { "energy_j": eadr_oram.energy_joules, "time_s": eadr_oram.time_seconds },
        "ps_oram_96": { "energy_j": ps96.energy_joules, "time_s": ps96.time_seconds },
        "ps_oram_4": { "energy_j": ps4.energy_joules, "time_s": ps4.time_seconds },
        "ratio_energy_eadr_oram_vs_ps96": m96.energy_ratio_eadr_oram(),
        "ratio_energy_eadr_cache_vs_ps96": m96.energy_ratio_eadr_cache(),
        "ratio_time_eadr_oram_vs_ps96": m96.time_ratio_eadr_oram(),
    })
}

/// **Table 4**: the 14 workloads and their measured MPKIs through the
/// real cache hierarchy, against the paper's targets.
pub(super) fn table4(_: &CommonCli) -> Value {
    print_sweep_config();
    println!(
        "\n{:<16}{:>12}{:>12}{:>10}",
        "workload", "paper MPKI", "measured", "delta%"
    );
    let mut rows = Vec::new();
    for w in SpecWorkload::all() {
        let measured = run_reference(1, w).mpki();
        let target = w.paper_mpki();
        let delta = (measured - target) / target * 100.0;
        println!(
            "{:<16}{:>12.2}{:>12.2}{:>9.1}%",
            w.name(),
            target,
            measured,
            delta
        );
        rows.push(json!({
            "workload": w.name(),
            "paper_mpki": target,
            "measured_mpki": measured,
        }));
    }
    json!(rows)
}

/// [`sweep_vs_baseline`] for the figures: every run is also published
/// into the `--metrics-out` snapshot, and `--trace-out` captures a small
/// deterministic side run (the measured sweep stays untraced, so
/// recording cannot perturb the reported numbers).
fn observed_sweep(
    cli: &CommonCli,
    variants: &[ProtocolVariant],
    mut row: impl FnMut(SpecWorkload, &SimResult, &[SimResult]),
) {
    print_sweep_config();
    let mut reg = MetricsRegistry::new();
    sweep_vs_baseline(variants, |w, base, runs| {
        base.publish(&format!("{}.Baseline", w.name()), &mut reg);
        for (v, r) in variants.iter().zip(runs) {
            r.publish(&format!("{}.{}", w.name(), v.label()), &mut reg);
        }
        row(w, base, runs);
    });
    if let Some(path) = &cli.metrics_out {
        write_obsv_file(path, &reg.to_json_string());
    }
    if let Some(path) = &cli.trace_out {
        let rec = Arc::new(RingBufferRecorder::new(psoram_obsv::DEFAULT_RING_CAPACITY));
        let mut sys = System::new(experiment_config(ProtocolVariant::PsOram, 1));
        sys.set_recorder(rec.clone());
        sys.run_workload(SpecWorkload::Mcf, 2_000);
        let label = format!(
            "{}/{}",
            SpecWorkload::Mcf.name(),
            ProtocolVariant::PsOram.label()
        );
        let track = (label, rec.events());
        write_obsv_file(path, &psoram_obsv::chrome_trace_json(&[track]));
    }
}

/// **Figure 5**: normalized execution time of the persistent ORAM designs
/// over 14 workloads (Z=4, 1 channel, 1 core).
///
/// * (a) non-recursive: FullNVM, FullNVM(STT), Naive-PS-ORAM, PS-ORAM,
///   normalized to Baseline.
/// * (b) recursive: Rcr-Baseline and Rcr-PS-ORAM, normalized to the
///   non-recursive Baseline (as in the paper), plus the Rcr-PS-ORAM /
///   Rcr-Baseline ratio the text reports (~3.65%).
pub(super) fn fig5(cli: &CommonCli) -> Value {
    let variants = [
        ProtocolVariant::FullNvm,
        ProtocolVariant::FullNvmStt,
        ProtocolVariant::NaivePsOram,
        ProtocolVariant::PsOram,
        ProtocolVariant::RcrBaseline,
        ProtocolVariant::RcrPsOram,
    ];
    let mut table_a = FigureTable::new(&["FullNVM", "FullNVM(STT)", "Naive-PS", "PS-ORAM"]);
    let mut table_b = FigureTable::new(&["Rcr-Baseline", "Rcr-PS-ORAM", "Rcr-PS/Rcr-Base"]);
    observed_sweep(cli, &variants, |w, base, runs| {
        table_a.add_row(
            w.name(),
            runs[..4].iter().map(|r| r.normalized_time(base)).collect(),
        );
        let (rb, rp) = (&runs[4], &runs[5]);
        table_b.add_row(
            w.name(),
            vec![
                rb.normalized_time(base),
                rp.normalized_time(base),
                rp.exec_cycles as f64 / rb.exec_cycles as f64,
            ],
        );
    });
    print!(
        "{}",
        table_a.render("Figure 5(a): exec time normalized to Baseline")
    );
    print!(
        "{}",
        table_b.render("Figure 5(b): recursive designs, normalized to Baseline")
    );

    let ga = table_a.geomeans();
    let gb = table_b.geomeans();
    let overheads = [
        ("FullNVM", ga[0], "+90.54%"),
        ("FullNVM(STT)", ga[1], "+37.69%"),
        ("Naive-PS-ORAM", ga[2], "+73.92%"),
        ("PS-ORAM", ga[3], "+4.29%"),
        ("Rcr-Baseline", gb[0], "+68.93%"),
        ("Rcr-PS-ORAM", gb[1], "+75.10%"),
        ("Rcr-PS-over-Rcr-Base", gb[2], "+3.65%"),
    ];
    println!("\nSummary (gmean overhead vs Baseline):");
    let mut pct = Vec::new();
    for (label, g, paper) in overheads {
        println!(
            "  {label:<20} +{:.2}%   (paper: {paper})",
            (g - 1.0) * 100.0
        );
        pct.push((label.to_string(), json!((g - 1.0) * 100.0)));
    }
    json!({ "gmean_overhead_pct": Value::Object(pct) })
}

/// **Figure 6**: NVM read and write traffic of each design, normalized to
/// Baseline (single channel).
pub(super) fn fig6(cli: &CommonCli) -> Value {
    let variants = [
        ProtocolVariant::FullNvm,
        ProtocolVariant::NaivePsOram,
        ProtocolVariant::PsOram,
        ProtocolVariant::RcrBaseline,
        ProtocolVariant::RcrPsOram,
    ];
    let labels = ["FullNVM", "Naive-PS", "PS-ORAM", "Rcr-Base", "Rcr-PS"];
    let mut reads = FigureTable::new(&labels);
    let mut writes = FigureTable::new(&labels);
    let mut rcr_ps_vs_base = Vec::new();
    observed_sweep(cli, &variants, |w, base, runs| {
        reads.add_row(
            w.name(),
            runs.iter()
                .map(|r| r.total_reads() as f64 / base.total_reads() as f64)
                .collect(),
        );
        writes.add_row(
            w.name(),
            runs.iter()
                .map(|r| r.total_writes() as f64 / base.total_writes() as f64)
                .collect(),
        );
        rcr_ps_vs_base.push(runs[4].total_writes() as f64 / runs[3].total_writes() as f64);
    });
    print!(
        "{}",
        reads.render("Figure 6(a): reads normalized to Baseline")
    );
    print!(
        "{}",
        writes.render("Figure 6(b): writes normalized to Baseline")
    );

    let gr = reads.geomeans();
    let gw = writes.geomeans();
    let rcr_ratio = geomean(&rcr_ps_vs_base);
    println!("\nSummary (gmean vs Baseline):");
    for (what, g, paper) in [
        ("reads : Rcr-Baseline", gr[3], "~+90.28%"),
        ("reads : Rcr-PS-ORAM", gr[4], "~+90.54%"),
        ("reads : FullNVM", gr[0], "unchanged"),
        ("reads : Naive-PS", gr[1], "unchanged"),
        ("reads : PS-ORAM", gr[2], "unchanged"),
        ("writes: FullNVM", gw[0], "+111.63%"),
        ("writes: Naive-PS", gw[1], "high"),
        ("writes: PS-ORAM", gw[2], "+4.84%"),
        ("writes: Rcr-PS over Rcr-Base", rcr_ratio, "+15.54%"),
    ] {
        println!("  {what:<30} {:+.2}% (paper: {paper})", (g - 1.0) * 100.0);
    }

    let by_label = |g: &[f64]| -> BTreeMap<String, f64> {
        labels
            .iter()
            .map(|l| l.to_string())
            .zip(g.iter().copied())
            .collect()
    };
    json!({
        "gmean_reads_normalized": by_label(&gr),
        "gmean_writes_normalized": by_label(&gw),
        "rcr_ps_writes_over_rcr_base": rcr_ratio,
    })
}

/// **Figure 7**: performance in 1/2/4-channel memory systems for
/// Baseline, PS-ORAM, Rcr-Baseline, Rcr-PS-ORAM.
pub(super) fn fig7(_: &CommonCli) -> Value {
    print_sweep_config();
    let variants = [
        ProtocolVariant::Baseline,
        ProtocolVariant::PsOram,
        ProtocolVariant::RcrBaseline,
        ProtocolVariant::RcrPsOram,
    ];

    // cycles[variant][channel_idx] = gmean exec cycles across workloads.
    let mut cycles = vec![[0.0f64; 3]; variants.len()];
    for (vi, v) in variants.iter().enumerate() {
        for (ci, ch) in [1usize, 2, 4].iter().enumerate() {
            let per_wl: Vec<f64> = SpecWorkload::all()
                .iter()
                .map(|w| run_one(*v, *ch, *w).exec_cycles as f64)
                .collect();
            cycles[vi][ci] = geomean(&per_wl);
            eprintln!("[{v} {ch}ch done]");
        }
    }

    println!(
        "\n{:<14}{:>14}{:>14}{:>14}",
        "variant", "1-channel", "2-channel", "4-channel"
    );
    for (vi, v) in variants.iter().enumerate() {
        println!(
            "{:<14}{:>14.0}{:>14.0}{:>14.0}",
            v.label(),
            cycles[vi][0],
            cycles[vi][1],
            cycles[vi][2]
        );
    }

    let speedup = |v: usize, ci: usize| (cycles[v][0] / cycles[v][ci] - 1.0) * 100.0;
    let slower =
        |v: usize, base: usize, ci: usize| (cycles[v][ci] / cycles[base][ci] - 1.0) * 100.0;
    println!(
        "\nSummary (2ch / 4ch):\n\
         \x20 PS-ORAM speedup over its 1ch:         +{:.2}% / +{:.2}% (paper: +51.26%/+53.76%)\n\
         \x20 Rcr-PS-ORAM speedup over its 1ch:     +{:.2}% / +{:.2}% (paper: +46.50%/+55.21%)\n\
         \x20 PS-ORAM slower than Baseline:         +{:.2}% / +{:.2}% (paper: +4.94%/+5.32%)\n\
         \x20 Rcr-PS-ORAM slower than Rcr-Baseline: +{:.2}% / +{:.2}% (paper: +2.12%/+5.36%)",
        speedup(1, 1),
        speedup(1, 2),
        speedup(3, 1),
        speedup(3, 2),
        slower(1, 0, 1),
        slower(1, 0, 2),
        slower(3, 2, 1),
        slower(3, 2, 2)
    );

    json!({
        "gmean_cycles": variants
            .iter()
            .enumerate()
            .map(|(vi, v)| (v.label().to_string(), cycles[vi].to_vec()))
            .collect::<BTreeMap<_, _>>(),
    })
}

/// §5.1's context numbers: baseline ORAM overhead vs a non-ORAM NVM
/// system (paper: 2–24x, avg ~11x at 1 channel; 1.8–21x, avg ~6.5x at 4
/// channels).
pub(super) fn oram_overhead(_: &CommonCli) -> Value {
    print_sweep_config();
    let mut table = FigureTable::new(&["1-channel", "4-channel"]);
    let mut per_channel = [Vec::new(), Vec::new()];

    for w in SpecWorkload::all() {
        let mut row = Vec::new();
        for (ci, ch) in [1usize, 4].iter().enumerate() {
            let oram = run_one(ProtocolVariant::Baseline, *ch, w);
            let plain = run_reference(*ch, w);
            let ratio = oram.exec_cycles as f64 / plain.exec_cycles as f64;
            row.push(ratio);
            per_channel[ci].push(ratio);
        }
        table.add_row(w.name(), row);
        eprintln!("[{w} done]");
    }

    print!("{}", table.render("ORAM slowdown over non-ORAM NVM"));
    let g1 = geomean(&per_channel[0]);
    let g4 = geomean(&per_channel[1]);
    let minmax = |v: &[f64]| {
        (
            v.iter().cloned().fold(f64::INFINITY, f64::min),
            v.iter().cloned().fold(0.0f64, f64::max),
        )
    };
    let (lo1, hi1) = minmax(&per_channel[0]);
    let (lo4, hi4) = minmax(&per_channel[1]);
    println!("\nSummary:");
    println!("  1-channel: {lo1:.1}x – {hi1:.1}x, gmean {g1:.1}x (paper: 2x–24x, avg ~11x)");
    println!("  4-channel: {lo4:.1}x – {hi4:.1}x, gmean {g4:.1}x (paper: 1.8x–21x, avg ~6.5x)");

    json!({
        "gmean_1ch": g1, "gmean_4ch": g4,
        "range_1ch": [lo1, hi1], "range_4ch": [lo4, hi4],
    })
}

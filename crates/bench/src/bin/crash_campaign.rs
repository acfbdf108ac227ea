//! Fault-injection campaign runner (`psoram-faultsim` front-end).
//!
//! Runs the exhaustive crash-point sweep and/or the randomized
//! multi-crash campaign against the design matrix (non-persistent
//! baseline, PS-ORAM, PS-Ring-ORAM), prints a JSON report, and exits
//! non-zero if any design deviates from its crash-consistency claim —
//! including the *baseline failing to fail*, which would mean the
//! harness lost its detection power.
//!
//! Usage:
//!   crash_campaign [--mode exhaustive|random|both]
//!                  [--seed N] [--out FILE] [--quiet] [--jobs N]
//!                  [--device-faults] [--aggressive-faults] [--replay-faults]
//!                  [--trace-out FILE] [--metrics-out FILE]
//!
//! `--jobs` fans the per-design campaigns out across worker threads; the
//! report is byte-identical at any job count (each design variant derives
//! its RNG from the campaign seed, never from execution order).
//!
//! `--device-faults` appends the device-fault campaign: the random
//! campaign re-run with a seeded device fault plan (torn flushes,
//! lost/duplicated WPQ signals, persisted bit flips, read failures)
//! armed underneath every Path and Ring design. Hardened designs must
//! repair, roll back with typed errors, or fail safe — never diverge
//! silently — while the unhardened baselines must keep failing.
//!
//! `--replay-faults` (implies `--device-faults`) additionally arms the
//! freshness adversary: stale replays, cross-address splices, and stale
//! read serves against persisted units. Hardened designs must detect
//! every injected replay through the authenticated counter tree, while
//! the unhardened baselines must blindly serve stale data at least once
//! (detection power).

use psoram_bench::{crash_campaigns, device_campaigns};
use psoram_faultsim::{CampaignReport, DeviceCampaignReport};

struct Args {
    mode: String,
    seed: Option<u64>,
    out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    quiet: bool,
    device_faults: bool,
    aggressive_faults: bool,
    replay_faults: bool,
}

fn parse_args() -> Args {
    // The shared pass (psoram_bench::CommonCli) consumes --jobs,
    // --trace-out, and --metrics-out; this parser only owns the
    // campaign-specific flags left in `rest`.
    let common = psoram_bench::CommonCli::parse();
    let mut args = Args {
        mode: "both".into(),
        seed: None,
        out: None,
        trace_out: common.trace_out,
        metrics_out: common.metrics_out,
        quiet: false,
        device_faults: false,
        aggressive_faults: false,
        replay_faults: false,
    };
    let mut it = common.rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quiet" => args.quiet = true,
            "--device-faults" => args.device_faults = true,
            "--aggressive-faults" => args.aggressive_faults = true,
            "--replay-faults" => {
                args.replay_faults = true;
                args.device_faults = true;
            }
            "--mode" => args.mode = it.next().unwrap_or_else(|| usage("--mode needs a value")),
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage("--seed needs a value"));
                args.seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                );
            }
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage("--out needs a value"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if !matches!(args.mode.as_str(), "exhaustive" | "random" | "both") {
        usage("--mode must be exhaustive, random, or both");
    }
    if args.aggressive_faults && !args.device_faults {
        usage("--aggressive-faults requires --device-faults");
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "crash_campaign: systematic fault injection & recovery verification\n\n\
         options:\n\
         \x20 --mode MODE        exhaustive | random | both (default both)\n\
         \x20 --seed N           override the campaign seed\n\
         \x20 --out FILE         write the JSON report to FILE (default stdout)\n\
         \x20 --trace-out FILE   write a chrome://tracing timeline of the random\n\
         \x20                    campaign (one track per design)\n\
         \x20 --metrics-out FILE write a flat metrics snapshot (per-design counters\n\
         \x20                    incl. per-crash-point timing attribution)\n\
         \x20 --jobs N           worker threads (default: all cores; 1 = serial);\n\
         \x20                    the report is byte-identical at any job count\n\
         \x20 --device-faults    append the device-fault campaign (seeded torn\n\
         \x20                    flushes, signal loss, bit flips, read failures)\n\
         \x20 --aggressive-faults use the aggressive fault mix (implies more\n\
         \x20                    fail-safe rebuilds; requires --device-faults)\n\
         \x20 --replay-faults    arm the freshness adversary (stale replays,\n\
         \x20                    cross splices, stale read serves) in the device\n\
         \x20                    campaign; implies --device-faults\n\
         \x20 --quiet            suppress the human-readable summary"
    );
    std::process::exit(2);
}

fn summarize(report: &CampaignReport) {
    eprintln!("== {} campaign (seed {}) ==", report.mode, report.seed);
    for v in &report.variants {
        eprintln!(
            "  {:<22} accesses {:>5}  crashes {:>4} (step {:>4}, mid-evict {:>4}, nested {:>3})  \
             recoveries {:>4}  violations {:>4}  [{}]",
            v.label,
            v.accesses,
            v.crashes_injected,
            v.step_boundary_crashes,
            v.during_eviction_crashes,
            v.nested_crashes,
            v.recoveries,
            v.violations_total,
            if v.matches_expectation {
                "ok"
            } else {
                "UNEXPECTED"
            },
        );
    }
}

fn summarize_device(report: &DeviceCampaignReport) {
    eprintln!(
        "== device-fault campaign (seed {}, {} mix{}) ==",
        report.seed,
        if report.aggressive {
            "aggressive"
        } else {
            "default"
        },
        if report.replay {
            " + replay adversary"
        } else {
            ""
        }
    );
    for v in &report.variants {
        eprintln!(
            "  {:<22} crashes {:>4}  injected {:>5} (torn {:>3}, signal {:>3}, flips {:>4})  \
             repairs {:>4}  rollbacks {:>3}  failsafes {:>3}  rebuilds {:>2}  violations {:>4}  [{}]",
            v.report.label,
            v.report.crashes_injected,
            v.device.injected.total_injected(),
            v.device.injected.torn_flushes,
            v.device.injected.signal_losses + v.device.injected.duplicated_signals,
            v.device.injected.bit_flips,
            v.device.repairs,
            v.device.rollbacks,
            v.device.detected_failsafes,
            v.device.failsafe_rebuilds,
            v.report.violations_total,
            if v.report.matches_expectation {
                "ok"
            } else {
                "UNEXPECTED"
            },
        );
        if report.replay {
            eprintln!(
                "  {:<22}   replay: injected {:>3} (stale {:>2}, splice {:>2})  \
                 detected {:>3}  stale serves {:>3}/{:>3} caught  poisons {:>3}",
                "",
                v.device.injected.stale_replays + v.device.injected.cross_splices,
                v.device.injected.stale_replays,
                v.device.injected.cross_splices,
                v.device.replays_detected + v.device.splices_detected,
                v.device.stale_serves_detected,
                v.device.stale_serves,
                v.device.fetch_poisons,
            );
        }
    }
}

fn main() {
    let args = parse_args();

    // Fail fast on an unwritable report path before spending minutes on
    // the campaigns themselves.
    for path in [&args.out, &args.trace_out, &args.metrics_out]
        .into_iter()
        .flatten()
    {
        if let Err(e) = std::fs::write(path, b"[]") {
            eprintln!("error: cannot write to {path}: {e}");
            std::process::exit(2);
        }
    }

    let (reports, tracks) = crash_campaigns(&args.mode, args.seed, args.trace_out.is_some());

    if let Some(path) = &args.trace_out {
        psoram_bench::write_obsv_file(path, &psoram_obsv::chrome_trace_json(&tracks));
    }
    if let Some(path) = &args.metrics_out {
        use psoram_obsv::MetricsSource as _;
        let mut reg = psoram_obsv::MetricsRegistry::new();
        for report in &reports {
            for v in &report.variants {
                v.publish(&format!("{}.{}", report.mode, v.label), &mut reg);
            }
        }
        for (label, events) in &tracks {
            reg.ingest_events(&format!("trace.{label}"), events);
        }
        psoram_bench::write_obsv_file(path, &reg.to_json_string());
    }

    let device_report = args
        .device_faults
        .then(|| device_campaigns(args.seed, args.aggressive_faults, args.replay_faults));

    // With --device-faults the output array gains the device report as its
    // final element; without the flag the output is byte-identical to the
    // previous behavior (the golden artifacts never set the flag).
    let json = match &device_report {
        Some(dev) => {
            let mut vals: Vec<serde_json::Value> =
                reports.iter().map(serde_json::to_value).collect();
            vals.push(serde_json::to_value(dev));
            serde_json::to_string_pretty(&vals).expect("report serializes")
        }
        None => serde_json::to_string_pretty(&reports).expect("report serializes"),
    };
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: cannot write --out {path}: {e}");
                std::process::exit(2);
            }
        }
        None => println!("{json}"),
    }

    let mut failed = false;
    for report in &reports {
        if !args.quiet {
            summarize(report);
        }
        if let Err(e) = report.verdict() {
            eprintln!("FAIL ({}): {e}", report.mode);
            failed = true;
        } else if !args.quiet {
            eprintln!(
                "PASS ({}): PS designs clean, baseline data loss detected",
                report.mode
            );
        }
    }
    if let Some(dev) = &device_report {
        if !args.quiet {
            summarize_device(dev);
        }
        if let Err(e) = dev.verdict() {
            eprintln!("FAIL (device): {e}");
            failed = true;
        } else if !args.quiet {
            eprintln!(
                "PASS (device): hardened designs repaired, rolled back with typed \
                 errors, or failed safe; unhardened data loss detected{}",
                if dev.replay {
                    format!(
                        "; all {} injected replays/splices detected",
                        dev.total_replays_injected()
                    )
                } else {
                    String::new()
                }
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

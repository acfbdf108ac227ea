//! The repo's single perf yardstick. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark run   [--seed N] [--seconds S] [--out FILE]        all six, end-to-end metrics
//! benchmark trace [--seed N] [--out FILE]                      all six, per-layer metrics
//! benchmark compare A.json B.json                              verdicts against the bounds
//! benchmark check-schema                                       BENCHMARK.json == spec.rs
//! ```
//!
//! `--smoke` shrinks every op count about fifty-fold (same JSON shape);
//! `--self-test` flips one value the oracle expects, so the run must report
//! failures and exit non-zero.

mod alloc;
mod compare;
mod design;
mod fold;
mod kernels;
mod measure;
mod oracle;
mod report;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::{exit, Command};

use serde_json::{json, Value};

use measure::{Measured, Workload};
use oracle::Oracle;
use report::object;
use spec::Metric;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Full-size or `--smoke` op counts.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    /// `full`, or about a fiftieth of it under `--smoke` but never below
    /// `floor` (enough samples for the percentiles to exist).
    pub fn ops(self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 50).max(floor).min(full)
        } else {
            full
        }
    }
}

#[derive(Debug)]
struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    self_test: bool,
    out: Option<PathBuf>,
}

fn usage(error: &str) -> ! {
    eprintln!("error: {error}\n");
    eprintln!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--self-test]\n\
         \x20      benchmark run   [--seed N] [--seconds S] [--smoke] [--self-test] [--out FILE]\n\
         \x20      benchmark trace [--seed N] [--smoke] [--out FILE]\n\
         \x20      benchmark compare A.json B.json\n\
         \x20      benchmark check-schema\n\
         workloads: {}",
        spec::WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join(", ")
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        self_test: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("--seed must be a non-negative integer"))
            }
            "--seconds" => {
                let s: f64 = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
                if !(s > 0.0 && s <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--smoke" => args.smoke = true,
            "--self-test" => args.self_test = true,
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--help" | "-h" => usage("help requested"),
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            _ if args.command.is_none() && args.workload.is_none() => args.command = Some(arg),
            _ => args.positional.push(arg),
        }
    }
    args
}

fn seconds(args: &Args) -> f64 {
    args.seconds.unwrap_or(if args.smoke {
        0.2
    } else {
        spec::RUN_SECONDS as f64
    })
}

/// Every declared metric, in declared order, with the value measured for
/// it. An undeclared name is a harness bug; an end-to-end metric left
/// unmeasured too. A per-layer metric the workload does not exercise is 0.
fn declared_values(
    table: &'static [Metric],
    measured: &[(&'static str, f64)],
    all_required: bool,
) -> Result<Vec<(&'static Metric, f64)>, String> {
    if let Some((extra, _)) = measured
        .iter()
        .find(|(name, _)| !table.iter().any(|m| m.name == *name))
    {
        return Err(format!("measured but not declared: {extra}"));
    }
    table
        .iter()
        .map(
            |m| match measured.iter().find(|(name, _)| *name == m.name) {
                Some((_, v)) if v.is_finite() => Ok((m, *v)),
                Some((_, v)) => Err(format!("{} is not a number: {v}", m.name)),
                None if all_required => Err(format!("declared but not measured: {}", m.name)),
                None => Ok((m, 0.0)),
            },
        )
        .collect()
}

fn measure_one<W: Workload>(mut w: W, args: &Args, oracle: &mut Oracle) -> Measured {
    if args.trace {
        let name = args.workload.as_deref().expect("driver form");
        let (measured, spans) = measure::per_layer(&mut w, oracle);
        let path = report::bench_dir().join(format!("results/{name}.spans.json"));
        match report::write_json(&path, &spans.to_json(5_000)) {
            Ok(()) => eprintln!("[spans written to {}]", path.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
        measured
    } else {
        measure::end_to_end(&mut w, seconds(args), oracle)
    }
}

/// The driver's form: one workload, one JSON object as the last line.
fn run_workload(args: &Args) -> ! {
    let name = args.workload.as_deref().expect("driver form");
    let Some((name, _)) = spec::WORKLOADS.iter().find(|(n, _)| *n == name) else {
        usage(&format!("unknown workload {name}"));
    };
    let scale = Scale { smoke: args.smoke };
    let mut oracle = Oracle::new(args.self_test);
    let measured = match *name {
        "path_plain" | "path_auth" | "ring_plain" => measure_one(
            workloads::controller::Controller::new(name, args.seed, scale),
            args,
            &mut oracle,
        ),
        "fullstack_spec" => measure_one(
            workloads::fullstack::Fullstack::new(args.seed, scale),
            args,
            &mut oracle,
        ),
        "service_sharded" => measure_one(
            workloads::service::Service::new(args.seed, scale),
            args,
            &mut oracle,
        ),
        "crash_recover" => measure_one(
            workloads::crash::CrashRecover::new(args.seed, scale),
            args,
            &mut oracle,
        ),
        other => unreachable!("declared workload without a runner: {other}"),
    };

    let table = spec::table(args.trace);
    let values = declared_values(table, &measured.metrics, !args.trace).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });
    eprintln!(
        "[{name}: seed {}, {} ops attempted, {} failed]",
        args.seed, oracle.attempted, oracle.failed
    );
    for (m, v) in &values {
        eprintln!(
            "  {:<40} {v:>18.4} {:<12} {}",
            m.name,
            m.unit,
            m.clock.label()
        );
    }
    for (k, v) in &measured.notes {
        eprintln!("  note {k}: {v}");
    }
    let detail = json!({
        "detail": {
            "samples": object(measured.samples.iter().map(|(k, v)| (k.to_string(), json!(v)))),
            "notes": object(measured.notes.iter().map(|(k, v)| (k.to_string(), json!(v)))),
            "first_failure": oracle.first_failure(),
        }
    });
    println!("{detail}");
    let result = json!({
        "correct": oracle.failed == 0,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": object(values.iter().map(|(m, v)| (m.name.to_string(), report::metric_value(m, *v)))),
    });
    println!("{result}");
    exit(0);
}

/// Runs one workload in a child process of its own (so `VmHWM` is that
/// workload's alone) and returns its entry for the result file.
fn child_entry(args: &Args, workload: &str, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds(args).to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if args.self_test {
        cmd.arg("--self-test");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| -> Result<Value, String> {
        serde_json::from_str(line.unwrap_or("")).map_err(|e| format!("{workload}: {e}"))
    };
    let result = parse(lines.next())?;
    let detail = parse(lines.next())?;

    let table = spec::table(trace);
    let printed = result["metrics"].as_object().ok_or("no metrics object")?;
    let names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let declared: Vec<&str> = table.iter().map(|m| m.name).collect();
    if names != declared {
        return Err(format!(
            "{workload} printed {names:?}, BENCHMARK.json declares {declared:?}"
        ));
    }
    let metrics = table.iter().zip(printed).map(|(m, (name, v))| {
        (
            name.clone(),
            json!({"value": v["value"].as_f64(), "unit": m.unit, "clock": m.clock.label()}),
        )
    });
    let attempted = result["attempted"].as_u64().unwrap_or(0);
    let failed = result["failed"].as_u64().unwrap_or(attempted);
    Ok(json!({
        "name": workload,
        "correct": result["correct"].as_bool().unwrap_or(false),
        "attempted": attempted,
        "failed": failed,
        "failed_ops_share": failed as f64 / attempted.max(1) as f64,
        "metrics": object(metrics),
        "samples": detail["detail"]["samples"].clone(),
        "notes": detail["detail"]["notes"].clone(),
        "first_failure": detail["detail"]["first_failure"].clone(),
    }))
}

/// `run` / `trace`: every workload, one child at a time.
fn run_all(args: &Args, trace: bool) -> ! {
    let mode = if trace { "trace" } else { "run" };
    let mut entries = Vec::new();
    let mut ok = true;
    for (workload, _) in spec::WORKLOADS {
        match child_entry(args, workload, trace) {
            Ok(entry) => entries.push(entry),
            Err(e) => {
                eprintln!("error: {e}");
                ok = false;
            }
        }
    }
    println!(
        "{:<16} {:<40} {:>18} {:<12} clock",
        "workload", "metric", "value", "unit"
    );
    for entry in &entries {
        let name = entry["name"].as_str().unwrap_or("");
        for (metric, v) in entry["metrics"].as_object().into_iter().flatten() {
            println!(
                "{name:<16} {metric:<40} {:>18.4} {:<12} {}",
                v["value"].as_f64().unwrap_or(f64::NAN),
                v["unit"].as_str().unwrap_or(""),
                v["clock"].as_str().unwrap_or(""),
            );
        }
        let share = entry["failed_ops_share"].as_f64().unwrap_or(1.0);
        println!(
            "{name:<16} {:<40} {share:>18.6} {:<12} -   ({} of {} ops failed)",
            "failed_ops_share", "ratio", entry["failed"], entry["attempted"]
        );
        ok &= share == 0.0;
    }
    let file = json!({
        "harness_version": spec::HARNESS_VERSION,
        "mode": mode,
        "smoke": args.smoke,
        "self_test": args.self_test,
        "seconds": seconds(args),
        "fingerprint": report::fingerprint(args.seed),
        "workloads": entries,
    });
    if let Some(path) = &args.out {
        match report::write_json(path, &file) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        }
    }
    if !ok {
        println!("FAIL: an operation failed, a workload did not finish, or the names drifted");
    }
    exit(i32::from(!ok));
}

fn main() {
    let args = parse_args();
    match args.command.as_deref() {
        None if args.workload.is_some() => run_workload(&args),
        None => usage("nothing to do"),
        Some("run") => run_all(&args, false),
        Some("trace") => run_all(&args, true),
        Some("compare") => {
            let [a, b] = args.positional.as_slice() else {
                usage("compare needs two result files");
            };
            let load = |p: &String| {
                report::read_json(&PathBuf::from(p)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    exit(2);
                })
            };
            exit(i32::from(!compare::compare(&load(a), &load(b))));
        }
        Some("check-schema") => match report::check_schema() {
            Ok(()) => println!(
                "BENCHMARK.json matches the harness: {} workloads, {} end-to-end and {} per-layer metrics",
                spec::WORKLOADS.len(),
                spec::END_TO_END.len(),
                spec::PER_LAYER.len()
            ),
            Err(errors) => {
                for e in errors {
                    eprintln!("error: {e}");
                }
                exit(1);
            }
        },
        Some(other) => usage(&format!("unknown command {other}")),
    }
}

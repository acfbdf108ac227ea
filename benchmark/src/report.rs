//! Result files: what a run writes, the host fingerprint it carries, and
//! the schema check against `BENCHMARK.json`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::spec::{self, Metric};

/// The benchmark's own directory; the checkout it was built in is the
/// checkout it runs in.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn object(fields: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(fields.into_iter().collect())
}

/// `{"value": v, "unit": u}` — the driver's shape for one metric.
pub fn metric_value(m: &Metric, value: f64) -> Value {
    json!({"value": value, "unit": m.unit})
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers came from. `compare` warns when two files disagree.
pub fn fingerprint(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let dir = bench_dir();
    let dir = dir.to_string_lossy();
    json!({
        "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model": cpu,
        "rustc": command_line("rustc", &["--version"]),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_commit": command_line("git", &["-C", &dir, "describe", "--always", "--dirty"]),
        "seed": seed,
        "harness_version": spec::HARNESS_VERSION,
    })
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    let text = serde_json::to_string_pretty(value).expect("values serialize");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn declared(list: &Value) -> Vec<&Value> {
    list.as_array()
        .map(|a| a.iter().collect())
        .unwrap_or_default()
}

fn check_metrics(
    errors: &mut Vec<String>,
    key: &str,
    json: &Value,
    table: &[Metric],
    bounded: bool,
) {
    let listed = declared(&json[key]);
    if listed.len() != table.len() {
        errors.push(format!(
            "{key}: BENCHMARK.json lists {}, the harness declares {}",
            listed.len(),
            table.len()
        ));
    }
    for m in table {
        let Some(entry) = listed.iter().find(|e| e["name"].as_str() == Some(m.name)) else {
            errors.push(format!("{key}: {} missing from BENCHMARK.json", m.name));
            continue;
        };
        if entry["unit"].as_str() != Some(m.unit)
            || entry["better"].as_str() != Some(m.better.label())
        {
            errors.push(format!("{key}: {} unit/better differ", m.name));
        }
        if bounded && entry["bound"].as_f64() != Some(m.bound) {
            errors.push(format!("{key}: {} bound differs", m.name));
        }
    }
    for entry in &listed {
        let name = entry["name"].as_str().unwrap_or("");
        if !spec::well_formed(name) {
            errors.push(format!("{key}: malformed name {name:?}"));
        }
        if !table.iter().any(|m| m.name == name) {
            errors.push(format!("{key}: {name} is not declared by the harness"));
        }
    }
}

/// `BENCHMARK.json` must repeat `spec.rs` exactly: none missing, none
/// extra, same units, directions, bounds and run length.
pub fn check_schema() -> Result<(), Vec<String>> {
    let path = bench_dir().join("../BENCHMARK.json");
    let json = read_json(&path).map_err(|e| vec![e])?;
    let mut errors = Vec::new();
    check_metrics(&mut errors, "end_to_end", &json, spec::END_TO_END, true);
    check_metrics(&mut errors, "per_layer", &json, spec::PER_LAYER, false);
    let workloads = declared(&json["workloads"]);
    let names: Vec<(&str, &str)> = workloads
        .iter()
        .map(|w| {
            (
                w["name"].as_str().unwrap_or(""),
                w["why"].as_str().unwrap_or(""),
            )
        })
        .collect();
    if names != spec::WORKLOADS {
        errors.push("workloads: names or reasons differ from the harness".into());
    }
    if json["run_seconds"].as_u64() != Some(spec::RUN_SECONDS) {
        errors.push("run_seconds differs from the harness".into());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

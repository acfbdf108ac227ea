//! `benchmark compare A.json B.json`: a verdict for every pairing of
//! workload and end-to-end metric, A the parent and B the change.
//!
//! * sim-clock metrics are deterministic for a seed, so at equal seeds any
//!   difference is real: worse is a regression whatever its size;
//! * host-clock metrics may worsen by their bound; where the per-rep
//!   spread of either file is wider than the bound the pairing is
//!   `unresolved`, not `unchanged`, unless every rep of B beats every rep
//!   of A;
//! * any rise in `failed_ops_share` is a regression.

use serde_json::Value;

use crate::spec::{self, Better, Clock, Metric};
use crate::stats;

/// `setup_s` may also worsen by this much in absolute terms: a quarter of
/// a 40 ms set-up is scheduler noise.
const SETUP_FLOOR_S: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Equal,
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        delta.signum()
    } else {
        delta / a.abs()
    }
}

fn all_better(m: &Metric, a: &[f64], b: &[f64]) -> bool {
    !a.is_empty()
        && !b.is_empty()
        && a.iter()
            .all(|&x| b.iter().all(|&y| worse_by(m, x, y) < 0.0))
}

pub fn judge(m: &Metric, a: f64, b: f64, a_reps: &[f64], b_reps: &[f64], exact: bool) -> Verdict {
    let worse = worse_by(m, a, b);
    if m.clock == Clock::Sim && exact {
        return match worse {
            w if w > 0.0 => Verdict::Regressed,
            w if w < 0.0 => Verdict::Improved,
            _ => Verdict::Equal,
        };
    }
    if stats::spread(a_reps).max(stats::spread(b_reps)) > m.bound {
        return if all_better(m, a_reps, b_reps) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let within_floor = m.name == "setup_s" && (b - a).abs() <= SETUP_FLOOR_S;
    if worse > m.bound && !within_floor {
        Verdict::Regressed
    } else if worse < -m.bound && !within_floor {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn workload<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
    file["workloads"]
        .as_array()?
        .iter()
        .find(|w| w["name"].as_str() == Some(name))
}

fn reps(w: &Value, metric: &str) -> Vec<f64> {
    w["samples"][metric]
        .as_array()
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Prints the table; returns `true` when nothing regressed.
pub fn compare(a: &Value, b: &Value) -> bool {
    for key in [
        "nproc",
        "cpu_model",
        "rustc",
        "profile",
        "git_commit",
        "seed",
        "harness_version",
    ] {
        let (fa, fb) = (&a["fingerprint"][key], &b["fingerprint"][key]);
        if fa != fb {
            println!("warning: fingerprints differ on {key}: {fa} vs {fb}");
        }
    }
    if a["smoke"] != b["smoke"] || a["seconds"] != b["seconds"] {
        println!("warning: the two sets were not run at the same size");
    }
    let exact = a["fingerprint"]["seed"] == b["fingerprint"]["seed"];
    if !exact {
        println!("warning: seeds differ, so sim-clock metrics are held to their bounds only");
    }

    let mut ok = true;
    println!(
        "{:<16} {:<24} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for (name, _) in spec::WORKLOADS {
        let (Some(wa), Some(wb)) = (workload(a, name), workload(b, name)) else {
            println!("{name:<16} missing from one file");
            ok = false;
            continue;
        };
        for m in spec::END_TO_END {
            let value = |w: &Value| w["metrics"][m.name]["value"].as_f64();
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                println!("{name:<16} {:<24} missing from one file", m.name);
                ok = false;
                continue;
            };
            let verdict = judge(m, va, vb, &reps(wa, m.name), &reps(wb, m.name), exact);
            ok &= verdict != Verdict::Regressed;
            println!(
                "{name:<16} {:<24} {va:>16.4} {vb:>16.4} {:>8.2}%  {} ({} clock)",
                m.name,
                100.0 * worse_by(m, va, vb),
                verdict.label(),
                m.clock.label(),
            );
        }
        let share = |w: &Value| w["failed_ops_share"].as_f64().unwrap_or(1.0);
        let (fa, fb) = (share(wa), share(wb));
        let verdict = if fb > fa {
            ok = false;
            Verdict::Regressed
        } else {
            Verdict::Equal
        };
        println!(
            "{name:<16} {:<24} {fa:>16.6} {fb:>16.6} {:>9}  {}",
            "failed_ops_share",
            "",
            verdict.label()
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> &'static Metric {
        spec::end_to_end("host_ops_per_s").unwrap()
    }

    #[test]
    fn sim_metrics_must_be_equal_at_equal_seeds() {
        let m = spec::end_to_end("sim_cycles_per_op").unwrap();
        assert_eq!(judge(m, 100.0, 100.0, &[], &[], true), Verdict::Equal);
        assert_eq!(judge(m, 100.0, 100.01, &[], &[], true), Verdict::Regressed);
        assert_eq!(judge(m, 100.0, 99.0, &[], &[], true), Verdict::Improved);
        // Across seeds only the bound applies.
        assert_eq!(judge(m, 100.0, 100.01, &[], &[], false), Verdict::Unchanged);
    }

    #[test]
    fn host_metrics_get_their_bound() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        let bound = host().bound;
        let verdict = |b: f64| judge(host(), 100.0, b, &steady, &steady, true);
        assert_eq!(verdict(100.0 * (1.0 - bound / 2.0)), Verdict::Unchanged);
        assert_eq!(verdict(100.0 * (1.0 - bound) - 1.0), Verdict::Regressed);
        assert_eq!(verdict(100.0 * (1.0 + bound) + 1.0), Verdict::Improved);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [50.0, 100.0, 150.0, 100.0];
        assert!(stats::spread(&noisy) > host().bound);
        assert_eq!(
            judge(host(), 100.0, 98.0, &noisy, &noisy, true),
            Verdict::Unresolved
        );
        // ... unless every rep of B beats every rep of A.
        let faster = [200.0, 260.0, 160.0, 210.0];
        assert_eq!(
            judge(host(), 100.0, 205.0, &noisy, &faster, true),
            Verdict::Improved
        );
    }

    #[test]
    fn small_setups_get_an_absolute_floor() {
        let m = spec::end_to_end("setup_s").unwrap();
        assert_eq!(judge(m, 0.04, 0.08, &[], &[], true), Verdict::Unchanged);
        assert_eq!(judge(m, 1.0, 1.5, &[], &[], true), Verdict::Regressed);
    }
}

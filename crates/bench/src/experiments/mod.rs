//! One table of every tracked experiment.
//!
//! Each [`Experiment`] names the tracked file it writes (under `results/`,
//! or `BENCH_06.json` / `BENCH_07.json` at the repository root), the
//! paper artefact or EXPERIMENTS.md section that file backs, and the one
//! function that produces it. The `experiments [NAME...]` binary runs the
//! named entries (all of them without a name); CI runs it and then
//! `git diff --exit-code`, so a tracked file is exactly what its entry
//! writes today.
//!
//! An entry runs at one scale, its tracked one: a constant in its
//! function — the full-system sweeps share [`crate::SWEEP_LEVELS`],
//! [`crate::SWEEP_RECORDS`] and [`crate::SWEEP_WARMUP`] — so rerunning
//! one at another scale is a change to one constant and one regenerated
//! file.

mod paper;
mod reports;
mod studies;

use serde_json::Value;

use crate::CommonCli;

/// One tracked experiment.
#[derive(Debug)]
pub struct Experiment {
    /// The name `experiments NAME` selects it by.
    pub name: &'static str,
    /// The tracked file it writes, relative to the repository root.
    pub artifact: &'static str,
    /// The paper artefact or EXPERIMENTS.md section the artifact backs;
    /// also the title printed before the run.
    pub backs: &'static str,
    /// Whether it honours `--trace-out` / `--metrics-out`.
    pub observable: bool,
    /// Produces the artifact's contents, printing its table on the way.
    pub run: fn(&CommonCli) -> Value,
}

impl Experiment {
    /// Prints the entry's title (`backs`), runs the entry and writes its
    /// artifact (relative to the working directory).
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — experiments want loud failures.
    pub fn regenerate(&self, cli: &CommonCli) {
        println!("PS-ORAM reproduction — {}", self.backs);
        let value = (self.run)(cli);
        crate::write_results_json(self.artifact, &value);
    }
}

/// Every tracked experiment, in the order `experiments` runs them.
pub const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "table1",
        artifact: "results/table1.json",
        backs: "Table 1 — energy cost constants",
        observable: false,
        run: paper::table1,
    },
    Experiment {
        name: "table2",
        artifact: "results/table2.json",
        backs: "Table 2 — drain energy & time, eADR vs PS-ORAM",
        observable: false,
        run: paper::table2,
    },
    Experiment {
        name: "table4",
        artifact: "results/table4.json",
        backs: "Table 4 — workload MPKIs",
        observable: false,
        run: paper::table4,
    },
    Experiment {
        name: "fig5",
        artifact: "results/fig5.json",
        backs: "Figure 5 — normalized execution time",
        observable: true,
        run: paper::fig5,
    },
    Experiment {
        name: "fig6",
        artifact: "results/fig6.json",
        backs: "Figure 6 — NVM read/write traffic",
        observable: true,
        run: paper::fig6,
    },
    Experiment {
        name: "fig7",
        artifact: "results/fig7.json",
        backs: "Figure 7 — multi-channel performance",
        observable: false,
        run: paper::fig7,
    },
    Experiment {
        name: "oram_overhead",
        artifact: "results/oram_overhead.json",
        backs: "§5.1 context — ORAM vs non-ORAM NVM",
        observable: false,
        run: paper::oram_overhead,
    },
    Experiment {
        name: "stash_study",
        artifact: "results/stash_study.json",
        backs: "Extension studies — stash occupancy vs utilization (Table 3's stash)",
        observable: false,
        run: studies::stash,
    },
    Experiment {
        name: "stash_tail_study",
        artifact: "results/stash_tail_study.json",
        backs: "Extension studies — stash occupancy tail",
        observable: false,
        run: studies::stash_tail,
    },
    Experiment {
        name: "topcache_study",
        artifact: "results/topcache_study.json",
        backs: "Extension studies — top-of-tree cache (§4.5 hybrid memory)",
        observable: false,
        run: studies::topcache,
    },
    Experiment {
        name: "scheduler_study",
        artifact: "results/scheduler_study.json",
        backs: "Extension studies — NVM write-buffer scheduler",
        observable: false,
        run: studies::scheduler,
    },
    Experiment {
        name: "wpq_study",
        artifact: "results/wpq_study.json",
        backs: "Extension studies — WPQ sizing (§4.2.3)",
        observable: false,
        run: studies::wpq,
    },
    Experiment {
        name: "tech_study",
        artifact: "results/tech_study.json",
        backs: "Extension studies — PCM vs STT-RAM main memory (Table 3(c))",
        observable: false,
        run: studies::tech,
    },
    Experiment {
        name: "ring_vs_path",
        artifact: "results/ring_vs_path.json",
        backs: "Extension studies — Ring ORAM vs Path ORAM",
        observable: true,
        run: studies::ring_vs_path,
    },
    Experiment {
        name: "lifetime",
        artifact: "BENCH_07.json",
        backs: "BENCH_07 — endurance: lifetime projection, wear torture, wear fleet",
        observable: false,
        run: reports::lifetime,
    },
    Experiment {
        name: "service",
        artifact: "BENCH_06.json",
        backs: "BENCH_06 — sharded service front-end, throughput and tail latency",
        observable: true,
        run: reports::service,
    },
];

/// The entries `cli` asks for: the named ones in argv order, or every
/// entry when none is named.
///
/// # Errors
///
/// Returns the reason to print above the usage — empty for `--help` — on
/// `--help`, an unknown flag or name, or `--trace-out` / `--metrics-out`
/// without exactly one named entry that honours them.
pub fn select(cli: &CommonCli) -> Result<Vec<&'static Experiment>, String> {
    let mut picked = Vec::new();
    for arg in &cli.rest {
        if arg == "--help" || arg == "-h" {
            return Err(String::new());
        }
        if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        }
        match REGISTRY.iter().find(|e| e.name == arg) {
            Some(e) => picked.push(e),
            None => return Err(format!("unknown experiment `{arg}`")),
        }
    }
    let observing = cli.trace_out.is_some() || cli.metrics_out.is_some();
    if observing && !matches!(picked.as_slice(), [e] if e.observable) {
        return Err(format!(
            "--trace-out and --metrics-out need exactly one of: {}",
            observable_names()
        ));
    }
    if picked.is_empty() {
        picked = REGISTRY.iter().collect();
    }
    Ok(picked)
}

/// The `experiments` usage text, listing every entry.
pub fn usage() -> String {
    let mut out = String::from(
        "experiments: regenerate the tracked results/ files, BENCH_06 and BENCH_07\n\n\
         usage: experiments [--jobs N] [NAME...]\n\
         \x20      experiments [--jobs N] [--trace-out FILE] [--metrics-out FILE] NAME\n\n\
         \x20 --jobs N           worker threads (default: all cores); every file is\n\
         \x20                    byte-identical at any job count\n\
         \x20 --trace-out FILE   chrome://tracing timeline of a small side run\n\
         \x20 --metrics-out FILE flat metrics snapshot of the measured runs\n",
    );
    out.push_str(&format!(
        "\x20                    (the two take one of: {})\n\nentries (none named: all):\n",
        observable_names()
    ));
    for e in REGISTRY {
        out.push_str(&format!("  {:<18} {}\n", e.name, e.backs));
    }
    out
}

/// The entries that take `--trace-out` / `--metrics-out`, comma-separated.
fn observable_names() -> String {
    let names: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| e.observable)
        .map(|e| e.name)
        .collect();
    names.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn cli(args: &[&str]) -> CommonCli {
        CommonCli::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    fn picked(args: &[&str]) -> Result<Vec<&'static str>, String> {
        select(&cli(args)).map(|v| v.iter().map(|e| e.name).collect())
    }

    #[test]
    fn registry_names_and_artifacts_are_unique() {
        let names: BTreeSet<_> = REGISTRY.iter().map(|e| e.name).collect();
        let artifacts: BTreeSet<_> = REGISTRY.iter().map(|e| e.artifact).collect();
        assert_eq!(names.len(), REGISTRY.len(), "duplicate entry name");
        assert_eq!(artifacts.len(), REGISTRY.len(), "duplicate artifact");
        for e in REGISTRY {
            assert!(e.artifact.ends_with(".json"));
        }
    }

    /// A tracked result nothing regenerates would go stale unseen: the
    /// tracked `results/*.json` are exactly the registry's `results/`
    /// artifacts and the crash campaign report CI regenerates beside it,
    /// and the registry's other artifacts are the two tracked root reports
    /// BENCH_06 and BENCH_07.
    #[test]
    fn every_tracked_result_has_a_generator() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let listed = std::process::Command::new("git")
            .args(["ls-files", "results"])
            .current_dir(&root)
            .output();
        let tracked: BTreeSet<String> = match listed {
            Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                .lines()
                .filter(|p| p.ends_with(".json"))
                .map(str::to_string)
                .collect(),
            // Outside a git checkout: whatever the directory holds.
            _ => std::fs::read_dir(root.join("results"))
                .expect("results/ exists")
                .map(|e| format!("results/{}", e.unwrap().file_name().to_string_lossy()))
                .filter(|p| p.ends_with(".json"))
                .collect(),
        };
        let (in_results, at_root): (Vec<&str>, Vec<&str>) = REGISTRY
            .iter()
            .map(|e| e.artifact)
            .partition(|a| a.starts_with("results/"));
        let expected: BTreeSet<String> = in_results
            .into_iter()
            .chain(["results/crash_campaign.json"])
            .map(str::to_string)
            .collect();
        assert_eq!(tracked, expected);
        assert_eq!(at_root, ["BENCH_07.json", "BENCH_06.json"]);
        for report in at_root {
            assert!(root.join(report).is_file(), "{report} is not in the tree");
        }
    }

    /// EXPERIMENTS.md tells each experiment once, as it stands: every
    /// entry is named by exactly one `##` heading, as `experiments NAME`,
    /// and no heading is a change's diary (`... (PR N)`).
    #[test]
    fn every_entry_has_one_doc_section() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        let headings: Vec<&str> = doc.lines().filter(|l| l.starts_with("##")).collect();
        for e in REGISTRY {
            let tag = format!("`experiments {}`", e.name);
            let n = headings.iter().filter(|h| h.contains(&tag)).count();
            assert_eq!(n, 1, "{n} EXPERIMENTS.md headings name {tag}");
        }
        for h in &headings {
            let tail = h
                .trim_end()
                .strip_suffix(')')
                .and_then(|h| h.rsplit_once("(PR "));
            let diary = tail.is_some_and(|(_, n)| n.chars().all(|c| c.is_ascii_digit()));
            assert!(!diary, "a change's diary in EXPERIMENTS.md: {h}");
        }
    }

    #[test]
    fn argv_selects_entries_or_refuses_before_running_any() {
        let all: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        assert_eq!(picked(&[]).unwrap(), all);
        assert_eq!(picked(&["fig7", "table1"]).unwrap(), vec!["fig7", "table1"]);
        assert_eq!(
            picked(&["--trace-out", "t.json", "fig5"]).unwrap(),
            vec!["fig5"]
        );
        assert_eq!(
            picked(&["ring_vs_path", "--metrics-out=m.json"]).unwrap(),
            vec!["ring_vs_path"]
        );

        // --help, an unknown flag, an unknown name: usage, nothing runs.
        assert_eq!(picked(&["--help"]), Err(String::new()));
        assert_eq!(picked(&["ring_vs_path", "-h"]), Err(String::new()));
        assert!(picked(&["--seed"]).unwrap_err().contains("unknown flag"));
        assert!(picked(&["fig5", "fig8"])
            .unwrap_err()
            .contains("unknown experiment `fig8`"));

        // The observability outputs belong to one observable entry.
        for args in [
            &["--trace-out", "t.json"][..],
            &["--metrics-out", "m.json", "table1"],
            &["--trace-out", "t.json", "fig5", "fig6"],
        ] {
            assert!(picked(args).unwrap_err().contains("--trace-out"));
        }
        assert!(usage().contains("ring_vs_path"));
    }
}

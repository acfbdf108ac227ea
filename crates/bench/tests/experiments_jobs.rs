//! The fast registry entries write the same values on one worker and on
//! two: the tables and studies that take seconds, and the two tracked
//! root reports (`lifetime`, BENCH_07; `service`, BENCH_06) at their
//! tracked scale.
//! Its own test binary, since it sets the process-wide jobs variable.

use psoram_bench::experiments::REGISTRY;
use psoram_bench::CommonCli;

#[test]
fn fast_entries_are_identical_at_one_and_two_jobs() {
    let cli = CommonCli::default();
    for name in [
        "table1",
        "table2",
        "table4",
        "ring_vs_path",
        "scheduler_study",
        "lifetime",
        "service",
    ] {
        let entry = REGISTRY
            .iter()
            .find(|e| e.name == name)
            .expect("registered");
        let at = |jobs: &str| {
            std::env::set_var(psoram_faultsim::par::JOBS_ENV, jobs);
            serde_json::to_string_pretty(&(entry.run)(&cli)).expect("serialize")
        };
        assert_eq!(at("1"), at("2"), "{name} differs between 1 and 2 jobs");
    }
    std::env::remove_var(psoram_faultsim::par::JOBS_ENV);
}

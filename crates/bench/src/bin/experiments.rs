//! Regenerates the tracked `results/` files, `BENCH_06.json` and
//! `BENCH_07.json` from [`psoram_bench::experiments::REGISTRY`].
//!
//! Usage:
//!   experiments [--jobs N] [NAME...]
//!   experiments [--jobs N] [--trace-out FILE] [--metrics-out FILE] NAME
//!
//! With no name every entry runs, in registry order. `--help`, an unknown
//! flag or name, or an observability output without exactly one entry
//! that takes it prints the usage and exits 2 before anything is written.
//! An entry whose verdict breaks panics before writing its artifact.

use psoram_bench::experiments;

fn main() {
    let cli = psoram_bench::CommonCli::parse();
    match experiments::select(&cli) {
        Ok(picked) => {
            for e in picked {
                e.regenerate(&cli);
            }
        }
        Err(err) => {
            if !err.is_empty() {
                eprintln!("error: {err}\n");
            }
            eprint!("{}", experiments::usage());
            std::process::exit(2);
        }
    }
}

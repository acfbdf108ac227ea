//! Attacker's-eye view: what does the memory bus actually see?
//!
//! Runs two logical programs of equal length — one hammering address 1,
//! one striding by 7 over addresses 0..40 — on Baseline Path ORAM and on
//! PS-ORAM, records every NVM request the simulated bus carries and folds
//! the stream per access: the path id of the online read, the tree
//! traffic, and the writes to the metadata region (the paper's §4.6
//! claims, checked on the request stream rather than taken on trust).
//!
//! Run with: `cargo run --example access_pattern_analysis`

use psoram::core::testkit::{
    bus_runs, chi_square, distinct, serial_correlation, Arm, BusAccess, Case, Design, Geometry,
};
use psoram::core::ProtocolVariant;
use psoram::obsv::AccessKind;

fn main() {
    println!("logical program vs the NVM request stream, folded per access");
    println!("(chi-square vs uniform over 16 bins; expected ~15, p=0.001 bound ~37.7)\n");
    println!(
        "{:<10}{:<8}{:>11}{:>11}{:>13}{:>8}  first PosMap entries written",
        "variant", "program", "chi-square", "lag-1 corr", "tree shapes", "shapes"
    );
    for variant in [ProtocolVariant::Baseline, ProtocolVariant::PsOram] {
        let design = Design::Path(variant);
        let layout = design.build(5).nvm_layout();
        let case = Case {
            design,
            arm: Arm::Plain,
            seed: 5,
        };
        let [hammer, stride] = bus_runs(&case, Geometry::Small).expect("the programs run");
        for (program, bus) in [("hammer", hammer), ("stride", stride)] {
            let leaves: Vec<u64> = bus.iter().filter_map(BusAccess::leaf).collect();
            let entries: Vec<u64> = (bus.iter().flat_map(|a| &a.metadata))
                .filter(|&&(kind, addr)| kind == AccessKind::Write && addr < layout.stash)
                .map(|&(_, addr)| (addr - layout.posmap) / 8)
                .take(8)
                .collect();
            println!(
                "{:<10}{:<8}{:>11.1}{:>11.3}{:>13}{:>8}  {entries:?}",
                variant.label(),
                program,
                chi_square(&leaves, 64, 16),
                serial_correlation(&leaves),
                distinct(&bus, |a| a.tree),
                distinct(&bus, |a| (a.tree, a.metadata.len())),
            );
        }
    }
    println!(
        "\nBoth programs read uniform paths and move the same tree traffic on \
         either design. Baseline writes no metadata on the bus; PS-ORAM writes \
         each PosMap entry a round flushes at the address of its logical block, \
         so its entry stream replays the program."
    );
}

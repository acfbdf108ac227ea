//! End-to-end checks of the paper's headline numeric claims that our
//! models reproduce exactly (Table 2) or structurally (security §4.6, on
//! the NVM request stream).

use psoram::core::testkit::{
    bus_runs, chi_square, conform, distinct, plain, serial_correlation, watch, Arm, BusAccess,
    Case, Contract, Design, Geometry, ACCESSES, RECURSION_LEVELS,
};
use psoram::core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram::energy::DrainCostModel;

#[test]
fn table2_energy_numbers() {
    let m = DrainCostModel::paper_config(96);
    // PS-ORAM @96 entries: 76.530 uJ / 161.134 ns — exact under the model.
    let ps = m.ps_oram();
    assert!((ps.energy_uj() - 76.530).abs() < 0.05);
    assert!((ps.time_ns() - 161.134).abs() < 1.0);
    // eADR-ORAM is 4-5 orders of magnitude worse.
    assert!(m.energy_ratio_eadr_oram() > 2.5e4);
    assert!(m.time_ratio_eadr_oram() > 2.5e4);
}

#[test]
fn security_claims_hold_across_variants() {
    // §4.6 on the bus: every row's NVM requests under a hammered address
    // and a stride of equal length, folded per access. Path ids are
    // uniform and Path tree traffic is the same whatever the program; a
    // row the bus tells apart must fail, for the reason the design table
    // states (Ring's rewrites; the PosMap entries of PS-ORAM, Naive and
    // Rcr-PS-ORAM) — the persistence add-ons change no tree traffic.
    conform(Contract::Oblivious, plain);
    println!("small_test, seed 5, {ACCESSES} writes per program (hammer h / stride s)");
    println!(
        "design          chi h/s    lag-1  access 0  tree shapes h/s  shapes h/s  \
         PosMap entries h/s  snapshot h/s"
    );
    let mut streams = Vec::new();
    for design in Design::all().filter(|&d| d != Design::Toy) {
        let case = Case {
            design,
            arm: Arm::Plain,
            seed: 5,
        };
        let bus = bus_runs(&case, Geometry::Small).unwrap();
        let layout = Design::build(design, 5).nvm_layout();
        let leaves = |i: usize| {
            bus[i]
                .iter()
                .filter_map(BusAccess::leaf)
                .collect::<Vec<_>>()
        };
        // The PosMap entries a program writes, as logical addresses, and
        // its stash-snapshot writes.
        let entries = |i: usize| -> Vec<u64> {
            let writes = bus[i].iter().flat_map(BusAccess::metadata_writes);
            let entries = writes.filter(|&addr| addr < layout.stash);
            entries.map(|addr| (addr - layout.posmap) / 8).collect()
        };
        let snapshot = |i: usize| {
            let writes = bus[i].iter().flat_map(BusAccess::metadata_writes);
            writes.filter(|&addr| addr >= layout.stash).count()
        };
        let shapes = |shape: fn(&BusAccess) -> ((u64, u64), usize)| {
            format!("{}/{}", distinct(&bus[0], shape), distinct(&bus[1], shape))
        };
        let name = match design {
            Design::Path(v) => v.label().to_string(),
            _ => format!("{design:?}"),
        };
        let (reads, writes) = bus[0][0].tree;
        println!(
            "{name:<16}{:>4.1}/{:<5.1}{:>7.3}{:>6}/{:<3}{:>13}{:>14}{:>14}/{:<6}{:>7}/{}",
            chi_square(&leaves(0), 64, 16),
            chi_square(&leaves(1), 64, 16),
            serial_correlation(&leaves(0)),
            reads,
            writes,
            shapes(|a| (a.tree, 0)),
            shapes(|a| (a.tree, a.metadata.len())),
            entries(0).len(),
            entries(1).len(),
            snapshot(0),
            snapshot(1),
        );
        if !entries(0).is_empty() {
            let first = |i| entries(i).into_iter().take(8).collect::<Vec<_>>();
            streams.push(format!("{name:<16}h {:?}  s {:?}", first(0), first(1)));
        }
    }
    println!("first PosMap entries written (logical addresses):");
    println!("{}", streams.join("\n"));
}

#[test]
fn recursion_traffic_counts_the_programs_posmap_blocks() {
    // At a height whose PosMap outgrows the on-chip root map, a PLB miss
    // walks a recursion tree, so Rcr-Baseline and Rcr-PS-ORAM make as
    // many recursion paths as the program has distinct PosMap blocks: the
    // design table holds both cells as must-fail.
    let cells = conform(Contract::Recursion, plain);
    assert_eq!(
        cells, 2,
        "one cell per recursive row at L={RECURSION_LEVELS}"
    );
    println!("L={RECURSION_LEVELS}, seed 0: PosMap-region requests (hammer/stride)");
    let tall = Geometry::Tall(RECURSION_LEVELS);
    for variant in [ProtocolVariant::RcrBaseline, ProtocolVariant::RcrPsOram] {
        let design = Design::Path(variant);
        let case = Case {
            design,
            arm: Arm::Plain,
            seed: 0,
        };
        let bus = bus_runs(&case, tall).unwrap();
        let stash = design.build_at(tall, 0).unwrap().nvm_layout().stash;
        let requests = |i: usize| {
            let metadata = bus[i].iter().flat_map(|a| &a.metadata);
            metadata.filter(|m| m.1 < stash).count()
        };
        println!("{:<14}{:>6}/{}", variant.label(), requests(0), requests(1));
    }
}

/// What the bus shows of `program` on a small PS-ORAM.
fn ps_oram_bus(
    config: OramConfig,
    program: impl FnOnce(&mut PathOram),
) -> (PathOram, Vec<BusAccess>) {
    let mut oram = PathOram::new(config, ProtocolVariant::PsOram, 5);
    let ((), bus) = watch(&mut oram, program);
    (oram, bus)
}

#[test]
fn claim4_backup_blocks_invisible_after_crash() {
    // The backup block is only interpretable by re-reading its whole path:
    // on the bus it is one more encrypted block among Z*(L+1).
    let (oram, bus) = ps_oram_bus(OramConfig::small_test(), |oram| {
        for i in 0..200u64 {
            oram.write(BlockAddr(i % 20), vec![i as u8; 8]).unwrap();
        }
    });
    assert!(oram.stats().backups_created > 0);
    assert_eq!(bus.len(), 200);
    assert!(bus.iter().all(|a| a.tree == (28, 28)));
}

#[test]
fn claim5_small_wpq_reordering_keeps_shape() {
    let cfg = OramConfig::small_test().with_wpq_capacity(4, 4);
    let (oram, bus) = ps_oram_bus(cfg, |oram| {
        for i in 0..300u64 {
            oram.write(BlockAddr(i % 20), vec![i as u8; 8]).unwrap();
        }
    });
    // Sub-batched evictions still write full paths: shape unchanged.
    assert_eq!(bus.len(), 300);
    assert!(bus.iter().all(|a| a.tree == (28, 28)));
    assert!(oram.stats().eviction_batches > oram.stats().eviction_rounds);
}

#[test]
fn nvm_lifetime_wear_is_spread() {
    // "Friendly to NVM lifetime": writes spread across banks rather than
    // hammering one location.
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 5);
    for i in 0..400u64 {
        oram.write(BlockAddr(i % 30), vec![0; 8]).unwrap();
    }
    let wear = oram.nvm().wear_map();
    let flat: Vec<u64> = wear.into_iter().flatten().collect();
    let max = *flat.iter().max().unwrap() as f64;
    let min = *flat.iter().min().unwrap() as f64;
    assert!(min > 0.0, "all banks should see writes");
    assert!(max / min < 3.0, "wear imbalance too high: {max} vs {min}");
}

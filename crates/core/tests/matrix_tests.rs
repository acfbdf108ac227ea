//! Cross-feature matrix: every protocol variant × channel count ×
//! freshness layer armed × top-of-tree cache must stay functionally
//! correct, bounded, and (where claimed) crash-consistent.

use psoram_core::testkit::{payload, program, reads_its_writes, Arm, Claim, Contract, Design};
use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::{FaultConfig, NvmConfig};

/// `hardened` arms tags, counters, seal and root under a plan that never
/// damages anything (a WPQ design verifies every fetch; the others only
/// carry the plan).
fn build(variant: ProtocolVariant, channels: usize, hardened: bool, top_cache: u32) -> PathOram {
    let cfg = OramConfig::small_test();
    let mut oram = PathOram::with_nvm(cfg, variant, NvmConfig::paper_pcm(channels), 97);
    if hardened {
        oram.enable_device_faults(97, FaultConfig::disabled());
    }
    oram.set_top_cache_levels(top_cache);
    oram
}

/// The Path rows of the design table.
fn path_variants() -> impl Iterator<Item = ProtocolVariant> {
    Design::all().filter_map(|d| match d {
        Design::Path(v) => Some(v),
        _ => None,
    })
}

#[test]
fn full_matrix_read_your_writes() {
    for variant in path_variants() {
        for channels in [1usize, 2] {
            for hardened in [false, true] {
                for top_cache in [0u32, 3] {
                    let tag = format!("{variant}/{channels}ch/hard={hardened}/cache={top_cache}");
                    let mut oram = build(variant, channels, hardened, top_cache);
                    let ops = program(97, 60, true);
                    reads_its_writes(&mut oram, &ops, false)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert!(
                        oram.stash_max_occupancy() < 120,
                        "{tag}: stash ran to {}",
                        oram.stash_max_occupancy()
                    );
                }
            }
        }
    }
}

#[test]
fn variant_helper_predicates_are_consistent() {
    for d in Design::all() {
        // WPQ users are exactly the crash-consistent designs, and the
        // table's claims are the designs' own.
        assert_eq!(d.is_hardened(), d.is_crash_consistent(), "{d:?}");
        assert_eq!(
            d.build(0).crash_consistent(),
            d.is_crash_consistent(),
            "{d:?}"
        );
        let plain = d.claim(Contract::CrashAnywhere, Arm::Plain);
        assert_eq!(plain == Claim::MustPass, d.is_crash_consistent(), "{d:?}");
    }
    for v in path_variants() {
        // Stash durability is exactly the on-chip NVM designs.
        assert_eq!(v.stash_durable(), v.onchip_tech().is_some(), "{v}");
    }
    // Labels are unique and non-empty.
    let labels: std::collections::HashSet<String> =
        Design::all().map(|d| d.build(0).label()).collect();
    assert!(labels.iter().all(|l| !l.is_empty()));
    assert_eq!(labels.len(), Design::all().count());
}

#[test]
fn deterministic_across_matrix_cells() {
    // Feature toggles must not perturb unrelated randomness: two identical
    // builds give identical traffic.
    let run = || {
        let mut oram = build(ProtocolVariant::PsOram, 2, true, 2);
        for i in 0..30u64 {
            oram.write(BlockAddr(i % 10), payload(i)).unwrap();
        }
        oram.nvm_stats()
    };
    assert_eq!(run(), run());
}

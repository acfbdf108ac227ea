//! Cross-feature matrix: every protocol variant × channel count ×
//! freshness layer armed × top-of-tree cache must stay functionally
//! correct, bounded, and (where claimed) crash-consistent.

use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_nvm::{FaultConfig, NvmConfig};

fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

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

#[test]
fn full_matrix_read_your_writes() {
    for variant in ProtocolVariant::all() {
        for channels in [1usize, 2] {
            for hardened in [false, true] {
                for top_cache in [0u32, 3] {
                    let tag = format!("{variant}/{channels}ch/hard={hardened}/cache={top_cache}");
                    let mut oram = build(variant, channels, hardened, top_cache);
                    for i in 0..25u64 {
                        oram.write(BlockAddr(i), payload(i))
                            .unwrap_or_else(|e| panic!("{tag}: write failed: {e}"));
                    }
                    for i in 0..25u64 {
                        let got = oram
                            .read(BlockAddr(i))
                            .unwrap_or_else(|e| panic!("{tag}: read failed: {e}"));
                        assert_eq!(got, payload(i), "{tag}: wrong value");
                    }
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
    for v in ProtocolVariant::all() {
        // WPQ users are exactly the crash-consistent designs.
        assert_eq!(v.uses_wpq(), v.is_crash_consistent(), "{v}");
        // Stash durability is exactly the on-chip NVM designs.
        assert_eq!(v.stash_durable(), v.onchip_tech().is_some(), "{v}");
        // Labels are unique and non-empty.
        assert!(!v.label().is_empty());
    }
    let labels: std::collections::HashSet<&str> =
        ProtocolVariant::all().iter().map(|v| v.label()).collect();
    assert_eq!(labels.len(), 7);
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

//! ROADMAP item 1(c)'s occupancy trace, as a test that exists.
//!
//! A Ring ORAM instance that runs forever holds its occupancy: NVM reads
//! per access (one slot per bucket, plus the real blocks every rewrite
//! fetches) stay flat and the stash stays small. Ring-Baseline does, for a
//! million accesses; PS-Ring does not yet — its reads climb after a
//! seed-dependent onset and its temporary PosMap overflows — and its soak
//! stays `#[ignore]`d until item 1 lands. Either soak, failing, prints the
//! per-window table item 1 asks for: temporary-PosMap entries, backups
//! pinned in the tree, stash blocks and reads per access.
//!
//! Release only (a debug build is thirty times slower); CI's `perf-smoke`
//! runs it next to `steady_state_allocs`.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::BlockAddr;
use psoram_core::ProtocolPolicy;

const WINDOW: u64 = 10_000;

/// Addresses a soak touches, each written once before its first window: a
/// tree still filling reads more blocks per rewrite with every address it
/// meets (23 to 28 reads per access over a million uniform accesses at
/// `L = 16`), which is occupancy found, not occupancy leaked.
const WORKING_SET: u64 = 16_384;

/// Occupancy at the end of one window of [`WINDOW`] accesses.
struct Row {
    accesses: u64,
    temp_entries: usize,
    pinned_backups: usize,
    stash: usize,
    reads_per_access: f64,
}

fn table(rows: &[Row]) -> String {
    let mut out = String::from("  accesses  temp-PosMap  pinned backups  stash  reads/access\n");
    for r in rows {
        out += &format!(
            "{:>10}  {:>11}  {:>14}  {:>5}  {:>12.3}\n",
            r.accesses, r.temp_entries, r.pinned_backups, r.stash, r.reads_per_access
        );
    }
    out
}

/// `accesses` uniform accesses (a third of them reads) over the working
/// set of a fresh instance; `Err` carries the finding and the trace up to
/// it.
fn soak(
    variant: RingVariant,
    levels: u32,
    accesses: u64,
    stash_bound: usize,
) -> Result<String, String> {
    let cfg = RingConfig {
        levels,
        ..RingConfig::small_test()
    };
    let mut oram = RingOram::new(cfg.clone(), variant, 7);
    let mut rows: Vec<Row> = Vec::new();
    for a in 0..WORKING_SET {
        if let Err(e) = oram.write(BlockAddr(a), vec![a as u8; cfg.payload_bytes]) {
            return Err(format!("first write of a{a}: {e}"));
        }
    }
    let (mut x, mut reads_before) = (7u64, oram.nvm_stats().reads);
    for i in 1..=accesses {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let addr = BlockAddr((x >> 33) % WORKING_SET);
        let outcome = if i % 3 == 0 {
            oram.read(addr).map(drop)
        } else {
            oram.write(addr, vec![(x >> 17) as u8; cfg.payload_bytes])
        };
        if let Err(e) = outcome {
            return Err(format!("access {i}: {e}\n{}", table(&rows)));
        }
        if i % WINDOW == 0 {
            let reads = oram.nvm_stats().reads;
            rows.push(Row {
                accesses: i,
                temp_entries: oram.temp_posmap_len(),
                pinned_backups: oram.pinned_backups(),
                stash: oram.stash_len(),
                reads_per_access: (reads - reads_before) as f64 / WINDOW as f64,
            });
            reads_before = reads;
        }
    }
    let tenth = (rows.len() / 10).max(1);
    let mean =
        |part: &[Row]| part.iter().map(|r| r.reads_per_access).sum::<f64>() / part.len() as f64;
    let (first, last) = (mean(&rows[..tenth]), mean(&rows[rows.len() - tenth..]));
    let stash_max = oram.stats().stash_max;
    if (last / first - 1.0).abs() > 0.02 {
        return Err(format!(
            "NVM reads per access moved from {first:.3} (first tenth) to {last:.3} (last)\n{}",
            table(&rows)
        ));
    }
    if stash_max > stash_bound {
        return Err(format!(
            "stash high-water {stash_max} above {stash_bound}\n{}",
            table(&rows)
        ));
    }
    Ok(format!(
        "reads per access {first:.3} (first tenth) to {last:.3} (last), stash high-water {stash_max}"
    ))
}

/// Both scales of ROADMAP item 1's soak: a million accesses at `L = 16`,
/// a hundred thousand at `L = 20`.
fn soak_both_scales(variant: RingVariant) {
    for (levels, accesses) in [(16, 1_000_000), (20, 100_000)] {
        match soak(variant, levels, accesses, 20) {
            Ok(held) => println!("{variant} at L={levels}, {accesses} accesses: {held}"),
            Err(finding) => panic!("{variant} at L={levels}: {finding}"),
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: a million accesses")]
fn ring_baseline_holds_its_occupancy_for_a_million_accesses() {
    soak_both_scales(RingVariant::Baseline);
}

#[test]
#[ignore = "ROADMAP item 1(c): PS-Ring's pinned backups and temporary PosMap leak under the \
            deferred evict-path / early-reshuffle schedule; the failure prints the trace"]
fn ps_ring_holds_its_occupancy_for_a_million_accesses() {
    soak_both_scales(RingVariant::PsRing);
}

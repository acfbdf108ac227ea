//! A guided, visual walk through one PS-ORAM access: the tree, the path,
//! the stash, the temporary PosMap, and the WPQ round.
//!
//! Run with: `cargo run --example visualize_access`

use psoram::core::{BlockAddr, Leaf, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};

/// Renders the small ORAM tree as ASCII, marking the buckets of `path`.
fn render_tree(oram: &PathOram, path_leaf: Option<Leaf>) {
    let tree = oram.tree();
    let levels = tree.levels().min(4); // keep the picture readable
    let on_path: Vec<u64> = match path_leaf {
        Some(l) => tree.path_indices(l),
        None => Vec::new(),
    };
    for d in 0..=levels {
        let nodes = 1u64 << d;
        let width = 64 / nodes as usize;
        let mut row = String::new();
        for i in 0..nodes {
            let idx = nodes - 1 + i;
            let occ = tree.bucket_ref(idx).map_or(0, |b| b.occupancy());
            let mark = if on_path.contains(&idx) { '*' } else { ' ' };
            row.push_str(&format!(
                "{:^width$}",
                format!("[{occ}{mark}]"),
                width = width
            ));
        }
        println!("  L{d}: {row}");
    }
    println!("       ([n] = real blocks in bucket, * = on the accessed path)");
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = OramConfig::small_test();
    cfg.levels = 4; // tiny tree so the picture fits a terminal
    cfg.data_wpq_capacity = cfg.path_slots();
    cfg.posmap_wpq_capacity = cfg.path_slots();
    let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 7);

    println!("== warming up: writing 12 blocks ==");
    for i in 0..12u64 {
        oram.write(BlockAddr(i), vec![i as u8; 8])?;
    }
    render_tree(&oram, None);
    println!(
        "stash: {} blocks | temp PosMap: {} pending entries\n",
        oram.stash_len(),
        oram.temp_posmap_len()
    );

    println!("== accessing block a5 ==");
    let before_writes = oram.nvm_stats().writes;
    let before_backups = oram.stats().backups_created;
    let value = oram.read(BlockAddr(5))?;
    println!("value read: {value:?}");
    println!("the access performed the five PS-ORAM steps:");
    println!("  1. stash check (miss)");
    println!("  2. PosMap lookup; new leaf parked in the *temporary* PosMap");
    println!(
        "  3. full path read — {} block transfers",
        oram.config().path_slots()
    );
    println!(
        "  4. stash update + backup block creation ({} backups so far)",
        oram.stats().backups_created
    );
    println!(
        "  5. eviction: one atomic WPQ round, {} NVM writes ({} rounds committed)",
        oram.nvm_stats().writes - before_writes,
        oram.stats().eviction_rounds
    );
    let _ = before_backups;
    render_tree(&oram, None);
    println!(
        "stash: {} blocks | temp PosMap: {} pending | dirty entries flushed: {}",
        oram.stash_len(),
        oram.temp_posmap_len(),
        oram.stats().dirty_entries_flushed
    );
    println!(
        "\nNVM totals: {} reads, {} writes over {} accesses",
        oram.nvm_stats().reads,
        oram.nvm_stats().writes,
        oram.stats().accesses
    );
    Ok(())
}

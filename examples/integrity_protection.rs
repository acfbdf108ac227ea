//! Integrity-protected PS-ORAM: Merkle verification over the NVM tree.
//!
//! PS-ORAM assumes a secure-memory substrate with encryption *and*
//! integrity (its related work: Triad-NVM, SuperMem). This example enables
//! the integrity tree, shows that normal operation and crash recovery are
//! alarm-free, and that physical tampering with the NVM image is caught on
//! the very next access to the affected path.
//!
//! Run with: `cargo run --example integrity_protection`

use psoram::core::{
    BlockAddr, Leaf, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 2026);
    oram.enable_integrity();
    println!("integrity tree enabled (root in the persistence domain)");

    for i in 0..40u64 {
        oram.write(BlockAddr(i), vec![i as u8; 8])?;
    }
    println!("40 blocks written; every path read so far verified against the root");

    // Crash and recover: the root update rides the eviction commits, so
    // recovery replays cleanly with no false alarms.
    oram.crash_now();
    assert!(oram.recover().consistent);
    oram.verify_contents(true)
        .map_err(|e| format!("false alarm: {e}"))?;
    println!("crash + recovery: all committed data verified, zero false alarms");

    // Now play the adversary: flip bytes directly in the NVM image.
    let mut corrupted = None;
    for leaf in 0..64u64 {
        if oram.corrupt_path_for_testing(Leaf(leaf)) {
            corrupted = Some(leaf);
            break;
        }
    }
    let leaf = corrupted.expect("some path holds data");
    println!("adversary corrupted a block on path l{leaf} behind the controller's back");

    let mut detected = false;
    for i in 0..40u64 {
        match oram.read(BlockAddr(i)) {
            Err(OramError::IntegrityViolation { leaf }) => {
                println!("tampering detected on access: integrity violation at {leaf} ✓");
                detected = true;
                break;
            }
            Ok(_) => {}
            Err(e) => return Err(e.to_string().into()),
        }
    }
    assert!(
        detected,
        "the corrupted path is eventually accessed and caught"
    );
    Ok(())
}

//! Quickstart: a crash-consistent ORAM in a dozen lines.
//!
//! Run with: `cargo run --example quickstart`

use psoram::core::{BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A PS-ORAM controller over a simulated PCM main memory. The config
    // mirrors the paper's Table 3 (here with a small tree for speed).
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 42);

    // Use it like a block device: writes and reads by logical address.
    for i in 0..16u64 {
        oram.write(BlockAddr(i), vec![i as u8; 8])?;
    }
    assert_eq!(oram.read(BlockAddr(7))?, vec![7u8; 8]);
    println!("wrote and read 16 blocks through the ORAM");

    // Power-fail in the middle of an access...
    oram.inject_crash(CrashPoint::AfterLoadPath);
    let _ = oram.read(BlockAddr(3)); // returns Err(OramError::Crashed)
    println!("crash injected mid-access: crashed = {}", oram.is_crashed());

    // ...and recover: every durably committed value is intact.
    let report = oram.recover();
    println!(
        "recovered, consistency check passed = {}",
        report.consistent
    );
    oram.verify_contents(true)
        .map_err(|e| format!("verification failed: {e}"))?;
    println!("all committed values verified after recovery ✓");

    // The obfuscation means the memory bus saw uniformly random paths:
    let stats = oram.stats();
    println!(
        "stats: {} accesses, {} backup blocks, {} dirty PosMap flushes, {} NVM writes",
        stats.accesses,
        stats.backups_created,
        stats.dirty_entries_flushed,
        oram.nvm_stats().writes
    );
    Ok(())
}

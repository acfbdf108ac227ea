//! An oblivious, crash-consistent key-value store on PS-ORAM.
//!
//! The paper motivates NVM ORAM with applications like collaborative file
//! editing (Dropbox-style metadata), which need *both* access-pattern
//! privacy and crash consistency. This example builds a tiny KV store on
//! top of the ORAM block interface: keys hash to blocks, values are fixed
//! 8-byte records, and a power failure mid-update never corrupts the store.
//!
//! Run with: `cargo run --example secure_kv`

use psoram::core::{BlockAddr, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant};

/// A fixed-size record store: `u32` keys to `u64` values, oblivious and
/// crash-consistent.
struct ObliviousKv {
    oram: PathOram,
    capacity: u64,
}

impl ObliviousKv {
    fn new(seed: u64) -> Self {
        let config = OramConfig::small_test().with_levels(10);
        let capacity = config.capacity_blocks();
        ObliviousKv {
            oram: PathOram::new(config, ProtocolVariant::PsOram, seed),
            capacity,
        }
    }

    fn slot(&self, key: u32) -> BlockAddr {
        // A tiny deterministic hash; collisions overwrite (toy directory).
        let h = (key as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 17;
        BlockAddr(h % self.capacity)
    }

    fn put(&mut self, key: u32, value: u64) -> Result<(), OramError> {
        self.oram
            .write(self.slot(key), value.to_le_bytes().to_vec())
    }

    fn get(&mut self, key: u32) -> Result<u64, OramError> {
        let bytes = self.oram.read(self.slot(key))?;
        Ok(u64::from_le_bytes(
            bytes.try_into().expect("8-byte records"),
        ))
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut kv = ObliviousKv::new(7);

    // A collaborative document: per-user cursor positions, edit counters...
    println!("populating the store with 64 user records");
    for user in 0..64u32 {
        kv.put(user, (user as u64) * 1000 + 7)?;
    }
    assert_eq!(kv.get(42)?, 42_007);

    // Simulate a power failure in the middle of an update burst.
    for user in 0..8u32 {
        kv.put(user, 999_999)?;
    }
    println!("power failure!");
    kv.oram.crash_now();
    let consistent = kv.oram.recover().consistent;
    println!("recovered; ORAM consistency check: {consistent}");

    // Every record reads back as either its old or its new committed value
    // — never garbage, never a torn record.
    let mut old = 0;
    let mut new = 0;
    for user in 0..8u32 {
        match kv.get(user)? {
            999_999 => new += 1,
            v if v == (user as u64) * 1000 + 7 => old += 1,
            v => panic!("corrupted record for user {user}: {v}"),
        }
    }
    println!("after crash: {new} records at the new value, {old} rolled back cleanly");
    // Untouched records are always intact.
    for user in 8..64u32 {
        assert_eq!(kv.get(user)?, (user as u64) * 1000 + 7);
    }
    println!("all 56 untouched records intact ✓");
    println!(
        "bus-side obfuscation: {} ORAM accesses produced {} uniform path reads",
        kv.oram.stats().accesses,
        kv.oram.stats().accesses
    );
    Ok(())
}

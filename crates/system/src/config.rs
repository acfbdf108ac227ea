//! Full-system configuration (the paper's Table 3).

use psoram_cache::HierarchyConfig;
use psoram_core::{OramConfig, ProtocolVariant};
use psoram_nvm::NvmConfig;
use serde::{Deserialize, Serialize};

/// Configuration of a complete simulated system.
///
/// Defaults mirror Table 3: a 3.2 GHz in-order core, 32 KB/2-way L1,
/// 1 MB/8-way L2, a 4 GB `Z = 4` ORAM over single-channel 400 MHz PCM.
///
/// # Examples
///
/// ```
/// use psoram_core::ProtocolVariant;
/// use psoram_system::SystemConfig;
///
/// let cfg = SystemConfig::paper_default(ProtocolVariant::PsOram, 1);
/// assert_eq!(cfg.oram.levels, 23);
/// assert!(cfg.use_oram);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// ORAM geometry (ignored when `use_oram` is `false`).
    pub oram: OramConfig,
    /// Protocol variant of the ORAM controller.
    pub variant: ProtocolVariant,
    /// Main-memory organization.
    pub nvm: NvmConfig,
    /// `false` simulates the non-ORAM reference system of §5.1 (LLC misses
    /// go straight to the NVM).
    pub use_oram: bool,
    /// Seed for the controller's randomness.
    pub seed: u64,
    /// Functionally encrypt payloads (timing is identical either way;
    /// disable for very long sweeps).
    pub encrypt_payloads: bool,
    /// Tree levels mirrored in a fast volatile buffer (hybrid-memory
    /// top-of-tree cache; 0 disables it).
    pub top_cache_levels: u32,
}

impl SystemConfig {
    /// The paper's Table 3 system with the given variant and channel count.
    ///
    /// Note: at the full `L = 23` geometry, long runs materialize a large
    /// sparse tree. The experiment harness uses [`SystemConfig::experiment`]
    /// (a moderately scaled tree) by default; see `DESIGN.md` for the
    /// substitution note.
    pub fn paper_default(variant: ProtocolVariant, channels: usize) -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::paper_default(),
            oram: OramConfig::paper_default(),
            variant,
            nvm: NvmConfig::paper_pcm(channels),
            use_oram: true,
            seed: 0x905_2022,
            encrypt_payloads: true,
            top_cache_levels: 0,
        }
    }

    /// The scaled experiment geometry (`L = 18`): same path-length dynamics
    /// per level, tractable memory footprint for multi-million-access
    /// sweeps.
    pub fn experiment(variant: ProtocolVariant, channels: usize) -> Self {
        let mut cfg = Self::paper_default(variant, channels);
        cfg.oram = cfg.oram.with_levels(18);
        cfg.oram.data_wpq_capacity = cfg.oram.path_slots();
        cfg.oram.posmap_wpq_capacity = cfg.oram.path_slots();
        cfg.encrypt_payloads = false;
        cfg
    }

    /// A small, fast configuration for tests and doc examples.
    ///
    /// The ORAM tree is tiny (`L = 12`), so the L2 is shrunk to 64 KB to
    /// keep the workloads' cold footprints larger than the LLC — otherwise
    /// their MPKI (and thus the memory-boundedness the experiments measure)
    /// would collapse.
    pub fn quick_test(variant: ProtocolVariant, channels: usize) -> Self {
        let mut cfg = Self::paper_default(variant, channels);
        cfg.oram = OramConfig::small_test().with_levels(12);
        cfg.oram.data_wpq_capacity = cfg.oram.path_slots();
        cfg.oram.posmap_wpq_capacity = cfg.oram.path_slots();
        cfg.hierarchy.l2.size_bytes = 64 * 1024;
        cfg
    }

    /// The non-ORAM reference system (§5.1's "non-ORAM system with NVM
    /// main memory").
    pub fn non_oram_reference(channels: usize) -> Self {
        let mut cfg = Self::paper_default(ProtocolVariant::Baseline, channels);
        cfg.use_oram = false;
        cfg
    }

    /// Derives the configuration for shard `shard` of a partitioned
    /// service: identical geometry (every shard gets its own full
    /// cache/NVM hierarchy and its own persistence domain) with a
    /// shard-unique controller seed, so N sharded systems built from one
    /// base config are independent but individually deterministic.
    pub fn for_shard(&self, shard: u32) -> Self {
        let mut cfg = self.clone();
        cfg.seed = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1));
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table3() {
        let cfg = SystemConfig::paper_default(ProtocolVariant::Baseline, 1);
        assert_eq!(cfg.hierarchy.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.hierarchy.l2.size_bytes, 1024 * 1024);
        assert_eq!(cfg.oram.bucket_slots, 4);
        assert_eq!(cfg.oram.stash_capacity, 200);
        assert_eq!(cfg.nvm.channels, 1);
    }

    #[test]
    fn experiment_keeps_wpq_sized_to_path() {
        let cfg = SystemConfig::experiment(ProtocolVariant::PsOram, 1);
        assert_eq!(cfg.oram.data_wpq_capacity, cfg.oram.path_slots());
    }

    #[test]
    fn non_oram_reference_disables_oram() {
        assert!(!SystemConfig::non_oram_reference(4).use_oram);
    }

    #[test]
    fn for_shard_derives_unique_seeds_same_geometry() {
        let base = SystemConfig::quick_test(ProtocolVariant::PsOram, 1);
        let a = base.for_shard(0);
        let b = base.for_shard(1);
        assert_ne!(a.seed, b.seed, "shards must not share RNG streams");
        assert_ne!(a.seed, base.seed);
        assert_eq!(a.oram, b.oram, "shard geometry must match the base");
        assert_eq!(a.seed, base.for_shard(0).seed, "derivation is stable");
    }
}

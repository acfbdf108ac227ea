//! A uniform fault-injection surface over the ORAM controllers.
//!
//! The harness drives Path ORAM ([`PathOram`]) and Ring ORAM
//! ([`RingOram`]) through the shared persist engine's
//! [`ProtocolPolicy`](psoram_core::ProtocolPolicy) trait — re-exported
//! here as [`FaultTarget`] — so sweeps and campaigns are written once.
//! [`DesignVariant`] names a concrete (protocol, controller) pair and
//! acts as the factory.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{OramConfig, PathOram, ProtocolVariant};
use serde::{Deserialize, Serialize};

/// The controller operations the fault harness needs.
///
/// This is the engine-level [`ProtocolPolicy`](psoram_core::ProtocolPolicy)
/// trait: both ORAM controllers implement it in `psoram-core`, and the
/// harness is generic over it (via `Box<dyn FaultTarget>`), so new designs
/// join the sweep by implementing one small trait next to the engine.
pub use psoram_core::engine::ProtocolPolicy as FaultTarget;

/// A concrete design the harness can build and torture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DesignVariant {
    /// A Path ORAM protocol variant on the small test geometry.
    Path(ProtocolVariant),
    /// A Ring ORAM persistence flavour on the small test geometry.
    Ring(RingVariant),
}

impl DesignVariant {
    /// The default sweep set: the non-persistent baseline (expected to
    /// fail), the paper's PS-ORAM (expected to pass), and the Ring ORAM
    /// extension (expected to pass).
    pub fn sweep_set() -> Vec<DesignVariant> {
        vec![
            DesignVariant::Path(ProtocolVariant::Baseline),
            DesignVariant::Path(ProtocolVariant::PsOram),
            DesignVariant::Ring(RingVariant::PsRing),
        ]
    }

    /// Builds a fresh controller for this design, seeded for determinism.
    pub fn build(self, seed: u64) -> Box<dyn FaultTarget> {
        match self {
            DesignVariant::Path(v) => Box::new(PathOram::new(OramConfig::small_test(), v, seed)),
            DesignVariant::Ring(v) => Box::new(RingOram::new(RingConfig::small_test(), v, seed)),
        }
    }

    /// The design's display label (matches [`FaultTarget::label`]).
    pub fn label(self) -> String {
        match self {
            DesignVariant::Path(v) => format!("path/{}", v.label()),
            DesignVariant::Ring(v) => format!("ring/{v}"),
        }
    }

    /// Whether this design is expected to survive every crash.
    pub fn expected_consistent(self) -> bool {
        match self {
            DesignVariant::Path(v) => v.is_crash_consistent(),
            DesignVariant::Ring(v) => v.is_crash_consistent(),
        }
    }
}

impl std::fmt::Display for DesignVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_matching_labels() {
        for v in DesignVariant::sweep_set() {
            let t = v.build(1);
            assert_eq!(t.label(), v.label());
            assert_eq!(t.crash_consistent(), v.expected_consistent());
            assert!(t.capacity_blocks() > 16);
        }
    }

    #[test]
    fn variant_serde_round_trips() {
        for v in DesignVariant::sweep_set() {
            let json = serde_json::to_string(&v).unwrap();
            let back: DesignVariant = serde_json::from_str(&json).unwrap();
            assert_eq!(back, v);
        }
    }
}

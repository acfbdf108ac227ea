//! The shard worker's execution target: one independent persistence
//! domain serving one address range.
//!
//! A lane is either a bare [`ShardController`] (the controller-level
//! model the fault campaigns use) or a full [`System`] instance — its
//! own cache hierarchy, NVM channels, and ORAM backend — built from
//! [`SystemConfig::for_shard`]. Both expose the same tiny surface to the
//! scheduler: serve one access for a cycle cost, crash-and-recover in
//! place, verify at the end.

use std::sync::Arc;

use psoram_core::{
    Op, OramConfig, OramError, PathOram, ProtocolPolicy, ProtocolVariant, ShardController,
    ShardRange,
};
use psoram_obsv::Recorder;
use psoram_system::{System, SystemConfig};
use serde::{Deserialize, Serialize};

/// Which execution model backs each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LaneKind {
    /// A bare crash-consistent controller per shard: fastest, and the
    /// model the fault campaigns and benches compare against.
    Controller,
    /// A full per-shard memory hierarchy (caches + NVM + ORAM backend)
    /// instantiated via [`SystemConfig::for_shard`].
    FullSystem,
}

impl LaneKind {
    /// Stable label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Controller => "controller",
            LaneKind::FullSystem => "full-system",
        }
    }
}

/// One shard's server: the worker-side execution target.
pub enum ShardServer {
    /// A bare controller session.
    Controller(ShardController),
    /// A full system; global addresses are translated to shard-local
    /// byte addresses before entering the hierarchy.
    System {
        /// The per-shard system instance.
        sys: Box<System>,
        /// Global address range this shard owns.
        range: ShardRange,
        /// Bytes per logical block (local block → byte address).
        block_bytes: u64,
    },
}

impl std::fmt::Debug for ShardServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardServer::Controller(c) => f.debug_tuple("Controller").field(c).finish(),
            ShardServer::System { range, .. } => {
                f.debug_struct("System").field("range", range).finish()
            }
        }
    }
}

/// Payload sizes up to this are served a write pattern off the stack.
const FILL_PATTERN_BYTES: usize = 64;

/// [`ShardServer::build`] sets `use_oram` on every full-system lane.
const NO_ORAM: &str = "full-system lane always carries an ORAM backend";

impl ShardServer {
    /// Builds the server for one shard: its own controller (or full
    /// system) seeded independently of every sibling.
    pub fn build(
        kind: LaneKind,
        variant: ProtocolVariant,
        levels: u32,
        range: ShardRange,
        seed: u64,
        shard: u32,
    ) -> ShardServer {
        let oram_cfg = OramConfig::small_test().with_levels(levels);
        match kind {
            LaneKind::Controller => {
                let oram = PathOram::new(oram_cfg, variant, seed);
                ShardServer::Controller(ShardController::new(Box::new(oram), range))
            }
            LaneKind::FullSystem => {
                let mut sc = SystemConfig::quick_test(variant, 1);
                sc.oram = oram_cfg;
                sc.use_oram = true;
                sc.seed = seed;
                let sc = sc.for_shard(shard);
                let block_bytes = sc.oram.block_bytes as u64;
                assert!(
                    range.len() <= sc.oram.capacity_blocks(),
                    "shard range {range} exceeds system ORAM capacity"
                );
                ShardServer::System {
                    sys: Box::new(System::new(sc)),
                    range,
                    block_bytes,
                }
            }
        }
    }

    /// Serves one access at global address `addr` — a write stores `fill`
    /// in every payload byte — returning the controller-clock cycles it
    /// cost and, for a read on a controller lane, the block value (for
    /// read-your-writes checking).
    ///
    /// # Errors
    ///
    /// Propagates routing and controller errors from the underlying
    /// [`ShardController`]; full-system lanes are infallible (the
    /// hierarchy absorbs the access).
    pub fn serve(
        &mut self,
        op: Op,
        addr: u64,
        fill: u8,
    ) -> Result<(u64, Option<Vec<u8>>), OramError> {
        match self {
            ShardServer::Controller(shard) => {
                // The fill pattern is borrowed from the stack: a payload
                // is at most one block (64 B everywhere in this repo).
                let pattern = [fill; FILL_PATTERN_BYTES];
                let payload_bytes = shard.policy().payload_bytes();
                let spilled;
                let data = match op {
                    Op::Write if payload_bytes <= FILL_PATTERN_BYTES => {
                        Some(&pattern[..payload_bytes])
                    }
                    Op::Write => {
                        spilled = vec![fill; payload_bytes];
                        Some(&spilled[..])
                    }
                    Op::Read => None,
                };
                let step = shard.step(op, addr, data)?;
                Ok((step.service_cycles, step.value))
            }
            ShardServer::System {
                sys,
                range,
                block_bytes,
            } => {
                let local = range.to_local(addr);
                let before = sys.clock();
                sys.access(local * *block_bytes, op == Op::Write);
                Ok((sys.clock().saturating_sub(before), None))
            }
        }
    }

    /// The controller behind either arm.
    fn policy(&self) -> &dyn ProtocolPolicy {
        match self {
            ShardServer::Controller(shard) => shard.policy(),
            ShardServer::System { sys, .. } => sys.oram().expect(NO_ORAM),
        }
    }

    fn policy_mut(&mut self) -> &mut dyn ProtocolPolicy {
        match self {
            ShardServer::Controller(shard) => shard.policy_mut(),
            ShardServer::System { sys, .. } => sys.oram_mut().expect(NO_ORAM),
        }
    }

    /// Injects a power failure on this shard only and immediately runs
    /// the hardened recovery path. Returns whether recovery reported a
    /// consistent state and the controller-clock cycles it consumed
    /// (often zero — the scheduler layers its modeled reboot penalty on
    /// top).
    pub fn crash_and_recover(&mut self) -> (bool, u64) {
        let oram = self.policy_mut();
        oram.crash_now();
        let before = oram.clock();
        let report = oram.recover();
        (report.consistent, oram.clock().saturating_sub(before))
    }

    /// Arms the endurance adversary on this shard only: a wear-only
    /// device fault plan (wear-correlated media faults, every crash-fate
    /// probability zero) plus the wear engine itself, each on its own
    /// sub-stream of `seed`. Sibling shards stay byte-identical to a
    /// wear-free run (BENCH_07's wear fleet holds this).
    pub fn arm_wear(&mut self, seed: u64, cfg: psoram_nvm::WearConfig) {
        let oram = self.policy_mut();
        oram.enable_device_faults(seed ^ 0x0EA4, psoram_nvm::FaultConfig::wear_only());
        oram.enable_wear(seed ^ 0x0EA5, cfg);
    }

    /// Wear/leveling counters of the armed endurance adversary, `None`
    /// when [`ShardServer::arm_wear`] was never called on this shard.
    pub fn wear_stats(&self) -> Option<psoram_nvm::WearStats> {
        self.policy().wear_stats()
    }

    /// Ground-truth injection counters of the device fault plan, if any.
    pub fn device_fault_stats(&self) -> Option<psoram_nvm::FaultStats> {
        self.policy().device_fault_stats()
    }

    /// Spare lines the retirement layer still holds.
    pub fn wear_spares_left(&self) -> Option<u64> {
        self.policy().wear_spares_left()
    }

    /// Attaches an event recorder to the underlying controller/system so
    /// persist-domain events land in the same sink as the service-lane
    /// events.
    pub fn attach_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        match self {
            ShardServer::Controller(shard) => shard.policy_mut().attach_recorder(recorder),
            ShardServer::System { sys, .. } => sys.set_recorder(recorder),
        }
    }

    /// End-of-run contents check against the controller's mirror: it
    /// observes what each touched address would read, issuing nothing.
    pub fn verify(&self, after_crash: bool) -> bool {
        self.policy().verify_contents(after_crash).is_ok()
    }

    /// The underlying controller/system clock.
    pub fn clock(&self) -> u64 {
        match self {
            ShardServer::Controller(shard) => shard.clock(),
            ShardServer::System { sys, .. } => sys.clock(),
        }
    }

    /// The shard's final state digest, for cross-run identity checks.
    pub fn state_digest(&self) -> u128 {
        self.policy().state_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> ShardRange {
        ShardRange { lo: 10, hi: 40 }
    }

    #[test]
    fn controller_lane_serves_and_checks_values() {
        let mut s = ShardServer::build(
            LaneKind::Controller,
            ProtocolVariant::PsOram,
            6,
            range(),
            99,
            0,
        );
        let (wc, _) = s.serve(Op::Write, 12, 0xAB).unwrap();
        assert!(wc > 0);
        let (_, val) = s.serve(Op::Read, 12, 0).unwrap();
        let val = val.unwrap();
        assert!(val.iter().all(|&b| b == 0xAB));
        assert!(s.verify(false));
    }

    #[test]
    fn full_system_lane_serves_and_recovers() {
        let mut s = ShardServer::build(
            LaneKind::FullSystem,
            ProtocolVariant::PsOram,
            6,
            range(),
            7,
            2,
        );
        let (c0, _) = s.serve(Op::Write, 11, 1).unwrap();
        assert!(c0 > 0, "a system access must advance the system clock");
        let (consistent, _) = s.crash_and_recover();
        assert!(consistent);
        assert!(s.verify(true));
        assert!(s.state_digest() != 0);
    }

    #[test]
    fn crash_and_recover_is_local_and_consistent() {
        let mut s = ShardServer::build(
            LaneKind::Controller,
            ProtocolVariant::PsOram,
            6,
            range(),
            5,
            1,
        );
        for a in 10..20u64 {
            s.serve(Op::Write, a, a as u8).unwrap();
        }
        let (consistent, _) = s.crash_and_recover();
        assert!(consistent);
        let (_, val) = s.serve(Op::Read, 15, 0).unwrap();
        assert!(val.unwrap().iter().all(|&b| b == 15));
    }
}

//! The shard session API: one controller serving a sub-range of a
//! larger logical address space.
//!
//! The multi-tenant service front-end (`psoram-service`) partitions the
//! logical address space across N independent controller instances —
//! each its own persistence domain with its own persist engine, counter
//! tree, and fault plan. [`ShardController`] is the narrow surface a
//! shard worker drives: construct with a [`ShardRange`] of the global
//! space, [`ShardController::step`] one access at a time (returning the
//! value *and* the service-cycle cost, extracted from the monolithic
//! blocking access loop the benches used to time externally), crash and
//! recover in place, or take the wrapped policy back out with
//! [`ShardController::into_policy`].

use crate::crash::RecoveryReport;
use crate::engine::ProtocolPolicy;
use crate::types::{BlockAddr, Op, OramError};

/// A half-open range `[lo, hi)` of **global** logical block addresses
/// owned by one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// First global address owned by the shard.
    pub lo: u64,
    /// One past the last global address owned by the shard.
    pub hi: u64,
}

impl ShardRange {
    /// Number of addresses in the range.
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// `true` when the range owns no addresses.
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    /// Whether `addr` (global) falls inside the range.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.lo && addr < self.hi
    }

    /// Translates a global address into the shard's local space.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the range; route before translating.
    pub fn to_local(&self, addr: u64) -> u64 {
        assert!(self.contains(addr), "address {addr} outside {self:?}");
        addr - self.lo
    }
}

impl std::fmt::Display for ShardRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.lo, self.hi)
    }
}

/// The outcome of one shard access step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStep {
    /// The block's value, for a read (`None` for a write: the caller
    /// holds what it wrote).
    pub value: Option<Vec<u8>>,
    /// Core cycles the controller spent serving this access (the
    /// controller-clock delta across the step).
    pub service_cycles: u64,
}

/// One shard of a partitioned ORAM service: a controller bound to a
/// sub-range of the global address space.
///
/// The wrapped controller is its own persistence domain — nothing is
/// shared with sibling shards — so a crash, recovery, or device fault on
/// one shard cannot touch another. The session surface is deliberately
/// narrow: route, step, crash, recover, read the clock, or take the
/// policy back.
///
/// # Examples
///
/// ```
/// use psoram_core::{
///     Op, OramConfig, PathOram, ProtocolVariant, ShardController, ShardRange,
/// };
///
/// let oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
/// let range = ShardRange { lo: 100, hi: 140 };
/// let mut shard = ShardController::new(Box::new(oram), range);
/// let w = shard.step(Op::Write, 105, Some(&[9u8; 8])).unwrap();
/// assert!(w.service_cycles > 0);
/// let r = shard.step(Op::Read, 105, None).unwrap();
/// assert_eq!(r.value, Some(vec![9u8; 8]));
/// ```
pub struct ShardController {
    policy: Box<dyn ProtocolPolicy>,
    range: ShardRange,
    served: u64,
}

impl std::fmt::Debug for ShardController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardController")
            .field("label", &self.policy.label())
            .field("range", &self.range)
            .field("served", &self.served)
            .finish()
    }
}

impl ShardController {
    /// Binds `policy` to `range` of the global address space.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or larger than the controller's
    /// block capacity — the shard must be able to hold every address it
    /// owns.
    pub fn new(policy: Box<dyn ProtocolPolicy>, range: ShardRange) -> Self {
        assert!(!range.is_empty(), "shard range {range} is empty");
        assert!(
            range.len() <= policy.capacity_blocks(),
            "shard range {range} exceeds controller capacity {}",
            policy.capacity_blocks()
        );
        ShardController {
            policy,
            range,
            served: 0,
        }
    }

    /// The global address range this shard owns.
    pub fn range(&self) -> ShardRange {
        self.range
    }

    /// Accesses served so far (successful steps).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Executes exactly one access against the shard and reports its
    /// value and service-cycle cost. `addr` is **global**; it must fall
    /// inside [`ShardController::range`]. A write borrows its payload:
    /// the controller copies it once, into its stash.
    ///
    /// # Errors
    ///
    /// [`OramError::AddressOutOfRange`] when `addr` is not owned by this
    /// shard (a routing bug); otherwise whatever the controller returns
    /// (notably [`OramError::Crashed`] when a crash fires mid-access).
    pub fn step(&mut self, op: Op, addr: u64, data: Option<&[u8]>) -> Result<ShardStep, OramError> {
        if !self.range.contains(addr) {
            return Err(OramError::AddressOutOfRange {
                addr: BlockAddr(addr),
                capacity: self.range.len(),
            });
        }
        let local = self.range.to_local(addr);
        let before = self.policy.clock();
        let value = match op {
            Op::Write => {
                let payload = data.ok_or(OramError::PayloadSize {
                    expected: self.policy.payload_bytes(),
                    got: 0,
                })?;
                self.policy.write_from(local, payload)?;
                None
            }
            Op::Read => Some(self.policy.read(local)?),
        };
        self.served += 1;
        Ok(ShardStep {
            value,
            service_cycles: self.policy.clock().saturating_sub(before),
        })
    }

    /// Immediately executes a power failure on this shard only.
    pub fn crash_now(&mut self) {
        self.policy.crash_now();
    }

    /// Runs the shard's recovery procedure, returning the report and the
    /// controller-clock delta it consumed (charged to this shard's lane
    /// only; the siblings keep serving). The delta can be zero — the
    /// controllers account recovery outside the access clock — so
    /// schedulers typically add their own modeled reboot penalty on top.
    pub fn recover(&mut self) -> (RecoveryReport, u64) {
        let before = self.policy.clock();
        let report = self.policy.recover();
        let cycles = self.policy.clock().saturating_sub(before);
        (report, cycles)
    }

    /// `true` between a crash and the matching recovery.
    pub fn is_crashed(&self) -> bool {
        self.policy.is_crashed()
    }

    /// The shard controller's core-cycle clock.
    pub fn clock(&self) -> u64 {
        self.policy.clock()
    }

    /// Shared read access to the wrapped policy.
    pub fn policy(&self) -> &dyn ProtocolPolicy {
        &*self.policy
    }

    /// Mutable access to the wrapped policy (fault-plan arming,
    /// recorder attachment).
    pub fn policy_mut(&mut self) -> &mut dyn ProtocolPolicy {
        &mut *self.policy
    }

    /// Dissolves the session and hands the controller back (takeable
    /// ownership: the service can rebuild a poisoned shard in place).
    pub fn into_policy(self) -> Box<dyn ProtocolPolicy> {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{PathOram, ProtocolVariant};
    use crate::types::OramConfig;

    fn shard(lo: u64, hi: u64) -> ShardController {
        let oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 11);
        ShardController::new(Box::new(oram), ShardRange { lo, hi })
    }

    #[test]
    fn range_translation_round_trips() {
        let r = ShardRange { lo: 64, hi: 96 };
        assert_eq!(r.len(), 32);
        assert!(r.contains(64) && r.contains(95) && !r.contains(96));
        assert_eq!(r.to_local(70), 6);
    }

    #[test]
    fn step_translates_and_charges_cycles() {
        let mut s = shard(200, 240);
        let w = s.step(Op::Write, 239, Some(&[3u8; 8])).unwrap();
        assert!(w.service_cycles > 0);
        assert_eq!(w.value, None);
        let r = s.step(Op::Read, 239, None).unwrap();
        assert_eq!(r.value, Some(vec![3u8; 8]));
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn out_of_range_address_is_a_routing_error() {
        let mut s = shard(0, 16);
        let err = s.step(Op::Read, 16, None).unwrap_err();
        assert!(matches!(err, OramError::AddressOutOfRange { .. }));
        assert_eq!(s.served(), 0);
    }

    #[test]
    fn crash_recover_preserves_committed_writes() {
        let mut s = shard(32, 64);
        for a in 32..40u64 {
            s.step(Op::Write, a, Some(&[a as u8; 8])).unwrap();
        }
        s.crash_now();
        assert!(s.is_crashed());
        let clock_before = s.clock();
        let (report, cycles) = s.recover();
        assert!(report.consistent, "PS-ORAM shard must recover consistently");
        assert_eq!(cycles, s.clock() - clock_before);
        assert!(!s.is_crashed());
        for a in 32..40u64 {
            let read = s.step(Op::Read, a, None).unwrap();
            assert_eq!(read.value, Some(vec![a as u8; 8]));
        }
    }

    #[test]
    fn into_policy_hands_the_controller_back() {
        let mut s = shard(0, 32);
        s.step(Op::Write, 1, Some(&[1u8; 8])).unwrap();
        let mut policy = s.into_policy();
        assert_eq!(policy.read(1).unwrap(), vec![1u8; 8]);
    }

    #[test]
    #[should_panic(expected = "exceeds controller capacity")]
    fn oversized_range_is_rejected() {
        let oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 1);
        let cap = psoram_tests_capacity(&oram);
        ShardController::new(Box::new(oram), ShardRange { lo: 0, hi: cap + 1 });
    }

    fn psoram_tests_capacity(oram: &PathOram) -> u64 {
        oram.config().capacity_blocks()
    }
}

//! Structured campaign reports (JSON via serde).

use psoram_core::testkit::Design;
use psoram_core::CrashPoint;
use serde::{Deserialize, Serialize};

/// One oracle violation, pinned to the exact crash that caused it so the
/// run can be replayed (`variant` + `seed` + `access_index` + `point`
/// reproduce it deterministically).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViolationRecord {
    /// Access attempt index (as counted by the controller) at which the
    /// offending crash fired, if the violation is tied to one crash.
    pub access_index: Option<u64>,
    /// The crash point that produced the violation, if tied to one crash.
    pub crash_point: Option<CrashPoint>,
    /// What kind of check failed.
    pub kind: ViolationKind,
    /// Human-readable detail (verbatim from the failing check).
    pub detail: String,
}

/// The check a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// The design's own recoverability check failed after recovery.
    RecoveryCheck,
    /// A durably committed value read back wrong (lost or corrupted).
    CommittedValueLost,
    /// A crashed write surfaced as neither its old nor its new value.
    TornWrite,
    /// The controller returned an error the harness did not inject.
    UnexpectedError,
}

/// Simulated-cycle cost of recovering from crashes at one crash point,
/// aggregated over a run (the per-crash-point timing attribution).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPointCost {
    /// Crash-point key: a step-boundary name (`"AfterLoadPath"`, …),
    /// `"DuringEviction"` for all mid-eviction indices, or
    /// `"Unattributed"` for crashes the harness did not arm.
    pub point: String,
    /// Recoveries attributed to this point.
    pub fires: u64,
    /// Total simulated core cycles those recoveries consumed.
    pub cycles: u64,
}

/// Per-design outcome of a sweep or campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VariantReport {
    /// The design that was tortured.
    pub variant: Design,
    /// Display label of the design.
    pub label: String,
    /// Whether the design claims crash consistency.
    pub expected_consistent: bool,
    /// Logical accesses issued by the workload (including crashed ones,
    /// excluding oracle read-backs).
    pub accesses: u64,
    /// Crashes that actually fired.
    pub crashes_injected: u64,
    /// Crashes that fired at a step boundary.
    pub step_boundary_crashes: u64,
    /// Crashes that fired mid-eviction (`DuringEviction(k)`).
    pub during_eviction_crashes: u64,
    /// Largest `DuringEviction(k)` index that fired (persist-unit count
    /// coverage; `None` if no mid-eviction crash fired).
    pub max_eviction_units: Option<usize>,
    /// Recoveries attempted.
    pub recoveries: u64,
    /// Recoveries whose consistency check passed.
    pub recoveries_consistent: u64,
    /// Crashes injected while a recovery was being verified (nested).
    pub nested_crashes: u64,
    /// Full shadow-map read-back verifications performed.
    pub full_checks: u64,
    /// Total violations observed (may exceed `violations.len()` when the
    /// per-report record cap was hit).
    pub violations_total: u64,
    /// Recorded violations, oldest first (capped at
    /// [`MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<ViolationRecord>,
    /// Recovery-time attribution per crash point, sorted by key.
    pub crash_point_costs: Vec<CrashPointCost>,
    /// `true` when the observed violations match the design's claim:
    /// consistent designs saw none; others are allowed any number.
    pub matches_expectation: bool,
}

/// Cap on stored [`ViolationRecord`]s per variant; a non-persistent
/// baseline can violate on nearly every crash, and the count alone
/// carries the signal beyond this point.
pub const MAX_RECORDED_VIOLATIONS: usize = 256;

impl VariantReport {
    /// Creates an empty report for `variant`, labelled `label`.
    pub fn new(variant: Design, label: String) -> Self {
        VariantReport {
            variant,
            label,
            expected_consistent: variant.is_crash_consistent(),
            accesses: 0,
            crashes_injected: 0,
            step_boundary_crashes: 0,
            during_eviction_crashes: 0,
            max_eviction_units: None,
            recoveries: 0,
            recoveries_consistent: 0,
            nested_crashes: 0,
            full_checks: 0,
            violations_total: 0,
            violations: Vec::new(),
            crash_point_costs: Vec::new(),
            matches_expectation: true,
        }
    }

    /// Attributes one recovery's simulated-cycle cost to a crash point.
    pub fn record_crash_cost(&mut self, point: &str, cycles: u64) {
        match self.crash_point_costs.iter_mut().find(|c| c.point == point) {
            Some(c) => {
                c.fires += 1;
                c.cycles += cycles;
            }
            None => self.crash_point_costs.push(CrashPointCost {
                point: point.to_string(),
                fires: 1,
                cycles,
            }),
        }
    }

    /// Records a violation.
    pub fn record_violation(
        &mut self,
        access_index: Option<u64>,
        crash_point: Option<CrashPoint>,
        kind: ViolationKind,
        detail: String,
    ) {
        self.violations_total += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(ViolationRecord {
                access_index,
                crash_point,
                kind,
                detail,
            });
        }
    }

    /// Finalizes `matches_expectation` from the recorded evidence and
    /// puts the cost attribution in deterministic (key-sorted) order.
    pub fn finalize(&mut self) {
        self.crash_point_costs.sort_by(|a, b| a.point.cmp(&b.point));
        self.matches_expectation = !self.expected_consistent || self.violations_total == 0;
    }
}

impl psoram_obsv::MetricsSource for VariantReport {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "accesses"), self.accesses);
        reg.set_counter(&R::key(prefix, "crashes_injected"), self.crashes_injected);
        reg.set_counter(
            &R::key(prefix, "step_boundary_crashes"),
            self.step_boundary_crashes,
        );
        reg.set_counter(
            &R::key(prefix, "during_eviction_crashes"),
            self.during_eviction_crashes,
        );
        reg.set_counter(&R::key(prefix, "recoveries"), self.recoveries);
        reg.set_counter(
            &R::key(prefix, "recoveries_consistent"),
            self.recoveries_consistent,
        );
        reg.set_counter(&R::key(prefix, "nested_crashes"), self.nested_crashes);
        reg.set_counter(&R::key(prefix, "full_checks"), self.full_checks);
        reg.set_counter(&R::key(prefix, "violations_total"), self.violations_total);
        for c in &self.crash_point_costs {
            let base = R::key(prefix, &format!("crash_cost.{}", c.point));
            reg.set_counter(&R::key(&base, "fires"), c.fires);
            reg.set_counter(&R::key(&base, "cycles"), c.cycles);
        }
    }
}

/// A whole campaign: mode, seed, and one report per design.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// `"exhaustive"` or `"random"`.
    pub mode: String,
    /// RNG seed (also seeds each controller), for exact replay.
    pub seed: u64,
    /// Per-design outcomes.
    pub variants: Vec<VariantReport>,
}

impl CampaignReport {
    /// The campaign's verdict. It is sound only if every design crashed,
    /// the consistent designs came out clean and a non-persistent
    /// baseline was convicted: a sweep in which the baseline passes has
    /// lost its teeth.
    ///
    /// # Errors
    ///
    /// The first way the campaign fell short.
    pub fn verdict(&self) -> Result<(), String> {
        for v in &self.variants {
            if v.expected_consistent && v.violations_total > 0 {
                return Err(format!(
                    "{}: {} violation(s) in a design that claims crash consistency (first: {:?})",
                    v.label,
                    v.violations_total,
                    v.violations.first()
                ));
            }
            if v.crashes_injected == 0 {
                return Err(format!(
                    "{}: no crash ever fired — the schedule is broken",
                    v.label
                ));
            }
        }
        let baseline_convicted = self
            .variants
            .iter()
            .any(|v| !v.expected_consistent && v.violations_total > 0);
        if !baseline_convicted {
            return Err("no violation detected on any non-persistent baseline: \
                        the oracle has no detection power"
                .into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psoram_core::ProtocolVariant;

    #[test]
    fn expectation_requires_clean_run_only_for_consistent_designs() {
        let mut r = VariantReport::new(Design::Path(ProtocolVariant::Baseline), "b".into());
        r.record_violation(
            Some(3),
            None,
            ViolationKind::CommittedValueLost,
            "lost".into(),
        );
        r.finalize();
        assert!(r.matches_expectation, "baseline may lose data");

        let mut r = VariantReport::new(Design::Path(ProtocolVariant::PsOram), "ps".into());
        r.record_violation(
            Some(3),
            None,
            ViolationKind::CommittedValueLost,
            "lost".into(),
        );
        r.finalize();
        assert!(!r.matches_expectation, "PS-ORAM must not lose data");
    }
}

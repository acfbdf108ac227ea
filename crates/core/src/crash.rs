//! Crash injection points within an ORAM access.

use serde::{Deserialize, Serialize};

/// Where within the five-step ORAM access a power failure strikes.
///
/// These mirror the case studies of paper §3.3: crashes after the PosMap
/// update (Case 1), after the path load (Case 2), and during/after the
/// eviction write-back (Case 3, Figure 3).
///
/// # Examples
///
/// ```
/// use psoram_core::CrashPoint;
///
/// let points = CrashPoint::step_boundaries();
/// assert_eq!(points.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrashPoint {
    /// After step ① (stash check), before the PosMap is touched.
    AfterCheckStash,
    /// After step ② (PosMap access + remap) — paper Case 1.
    AfterAccessPosMap,
    /// After step ③ (path load into the stash) — paper Case 2.
    AfterLoadPath,
    /// After step ④ (stash update + backup creation).
    AfterUpdateStash,
    /// During step ⑤: after `k` persistence units have reached the NVM
    /// (direct writes for non-WPQ designs; committed atomic batches for
    /// WPQ designs) — paper Case 3 / Figure 3.
    DuringEviction(usize),
    /// After step ⑤ completes, before the next access.
    AfterEviction,
}

impl CrashPoint {
    /// The five step-boundary crash points (excluding mid-eviction).
    pub fn step_boundaries() -> [CrashPoint; 5] {
        [
            CrashPoint::AfterCheckStash,
            CrashPoint::AfterAccessPosMap,
            CrashPoint::AfterLoadPath,
            CrashPoint::AfterUpdateStash,
            CrashPoint::AfterEviction,
        ]
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashPoint::AfterCheckStash => write!(f, "after step 1 (check stash)"),
            CrashPoint::AfterAccessPosMap => write!(f, "after step 2 (access PosMap)"),
            CrashPoint::AfterLoadPath => write!(f, "after step 3 (load path)"),
            CrashPoint::AfterUpdateStash => write!(f, "after step 4 (update stash)"),
            CrashPoint::DuringEviction(k) => write!(f, "during step 5 (after {k} persist units)"),
            CrashPoint::AfterEviction => write!(f, "after step 5 (eviction complete)"),
        }
    }
}

/// Report of what a crash destroyed and what the persistence domain saved.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashReport {
    /// Blocks lost from the volatile stash.
    pub stash_blocks_lost: usize,
    /// Entries lost from the volatile temporary PosMap.
    pub temp_entries_lost: usize,
    /// Data blocks the ADR reserve flushed out of committed WPQ rounds.
    pub wpq_data_flushed: usize,
    /// PosMap entries the ADR reserve flushed out of committed WPQ rounds.
    pub wpq_posmap_flushed: usize,
    /// Whether the design's stash survives (on-chip NVM stash).
    pub stash_durable: bool,
}

/// Typed failure raised by the hardened recovery path when damage cannot
/// be silently absorbed.
///
/// This is the `RecoveryError` half of the detect → classify → repair →
/// fail-safe taxonomy; the classification half is
/// [`psoram_nvm::FaultClass`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryError {
    /// A committed address has no surviving authenticated copy: recovery
    /// rolled it back (or forgot it) instead of serving corrupt data.
    UnrecoverableAddress {
        /// The logical block address that was rolled back.
        addr: u64,
        /// What the audit saw, verbatim.
        detail: String,
    },
    /// Bounded retry with backoff was exhausted (stuck read).
    RetryExhausted {
        /// The classified fault.
        class: psoram_nvm::FaultClass,
    },
    /// Recovery latched the controller into fail-safe poisoned state.
    Poisoned {
        /// The classified fault.
        class: psoram_nvm::FaultClass,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::UnrecoverableAddress { addr, detail } => {
                write!(f, "a{addr} unrecoverable: {detail}")
            }
            RecoveryError::RetryExhausted { class } => {
                write!(f, "bounded retry exhausted ({class})")
            }
            RecoveryError::Poisoned { class } => {
                write!(f, "fail-safe poisoned ({class})")
            }
        }
    }
}

/// One detected device fault, classified and counted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryIncident {
    /// The fault class recovery assigned to the damage.
    pub class: psoram_nvm::FaultClass,
    /// Persist units (tree slots / PosMap entries) affected.
    pub units: u64,
}

/// Outcome of a post-crash recovery (paper §4.3).
///
/// Produced by `PathOram::recover` / `RingOram::recover`; `consistent`
/// reports whether the recovered state passed the recoverability check,
/// and `violation` carries the first detected inconsistency verbatim so a
/// harness can attribute the failure to an exact crash point.
///
/// The device-fault fields (`repairs`, `rolled_back`, `incidents`,
/// `errors`, `poisoned`) stay at their defaults — and are skipped during
/// serialization — unless a fault plan is installed, keeping pre-existing
/// golden artifacts byte-identical. The skip-at-default behaviour is why
/// `Serialize`/`Deserialize` are hand-written rather than derived.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether the recovered state passed the consistency check.
    pub consistent: bool,
    /// Description of the first inconsistency found, if any.
    pub violation: Option<String>,
    /// Durably committed addresses the check examined.
    pub addresses_checked: usize,
    /// Damaged persist units whose committed value survived via a
    /// redundant authenticated copy.
    pub repairs: u64,
    /// Addresses recovery rolled back (or forgot) because no
    /// authenticated copy survived — detected, typed data loss.
    pub rolled_back: Vec<u64>,
    /// Detected device faults, classified and counted.
    pub incidents: Vec<RecoveryIncident>,
    /// Typed recovery errors raised while handling the damage.
    pub errors: Vec<RecoveryError>,
    /// Whether recovery latched the controller into fail-safe state.
    pub poisoned: bool,
    /// Persist units whose stored freshness record carried a stale (or
    /// rolled-back-to-genesis) version counter — detected replays.
    pub replays_detected: u64,
    /// Persist units whose stored record was authentic for a *different*
    /// unit — detected cross-address splices.
    pub splices_detected: u64,
}

impl Serialize for RecoveryReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("consistent".to_string(), self.consistent.to_value()),
            ("violation".to_string(), self.violation.to_value()),
            (
                "addresses_checked".to_string(),
                self.addresses_checked.to_value(),
            ),
        ];
        if self.repairs != 0 {
            fields.push(("repairs".to_string(), self.repairs.to_value()));
        }
        if !self.rolled_back.is_empty() {
            fields.push(("rolled_back".to_string(), self.rolled_back.to_value()));
        }
        if !self.incidents.is_empty() {
            fields.push(("incidents".to_string(), self.incidents.to_value()));
        }
        if !self.errors.is_empty() {
            fields.push(("errors".to_string(), self.errors.to_value()));
        }
        if self.poisoned {
            fields.push(("poisoned".to_string(), self.poisoned.to_value()));
        }
        if self.replays_detected != 0 {
            fields.push((
                "replays_detected".to_string(),
                self.replays_detected.to_value(),
            ));
        }
        if self.splices_detected != 0 {
            fields.push((
                "splices_detected".to_string(),
                self.splices_detected.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for RecoveryReport {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected object for RecoveryReport"))?;
        fn optional<T: Deserialize + Default>(
            v: &serde::Value,
            key: &str,
        ) -> Result<T, serde::DeError> {
            match v.get(key) {
                Some(inner) => T::from_value(inner),
                None => Ok(T::default()),
            }
        }
        Ok(RecoveryReport {
            consistent: Deserialize::from_value(serde::object_field(
                fields,
                "consistent",
                "RecoveryReport",
            )?)?,
            violation: Deserialize::from_value(serde::object_field(
                fields,
                "violation",
                "RecoveryReport",
            )?)?,
            addresses_checked: Deserialize::from_value(serde::object_field(
                fields,
                "addresses_checked",
                "RecoveryReport",
            )?)?,
            repairs: optional(v, "repairs")?,
            rolled_back: optional(v, "rolled_back")?,
            incidents: optional(v, "incidents")?,
            errors: optional(v, "errors")?,
            poisoned: optional(v, "poisoned")?,
            replays_detected: optional(v, "replays_detected")?,
            splices_detected: optional(v, "splices_detected")?,
        })
    }
}

impl RecoveryReport {
    /// Builds a report from a recoverability-check result.
    pub fn from_check(result: Result<(), String>, addresses_checked: usize) -> Self {
        match result {
            Ok(()) => RecoveryReport {
                consistent: true,
                violation: None,
                addresses_checked,
                ..RecoveryReport::default()
            },
            Err(v) => RecoveryReport {
                consistent: false,
                violation: Some(v),
                addresses_checked,
                ..RecoveryReport::default()
            },
        }
    }

    /// Total freshness violations (replays + splices) recovery detected.
    pub fn freshness_violations(&self) -> u64 {
        self.replays_detected + self.splices_detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_report_from_check() {
        let ok = RecoveryReport::from_check(Ok(()), 7);
        assert!(ok.consistent && ok.violation.is_none() && ok.addresses_checked == 7);
        let bad = RecoveryReport::from_check(Err("a3: lost".into()), 2);
        assert!(!bad.consistent);
        assert_eq!(bad.violation.as_deref(), Some("a3: lost"));
    }

    #[test]
    fn device_fault_fields_are_invisible_when_defaulted() {
        // Golden-compatibility contract: a report with no device faults
        // serializes exactly as it did before the fields existed.
        let r = RecoveryReport::from_check(Ok(()), 3);
        let json = serde_json::to_string(&r).unwrap();
        assert!(!json.contains("repairs"));
        assert!(!json.contains("rolled_back"));
        assert!(!json.contains("incidents"));
        assert!(!json.contains("errors"));
        assert!(!json.contains("poisoned"));
        assert!(!json.contains("replays_detected"));
        assert!(!json.contains("splices_detected"));
        let back: RecoveryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn device_fault_fields_round_trip_when_set() {
        let mut r = RecoveryReport::from_check(Ok(()), 1);
        r.repairs = 2;
        r.rolled_back = vec![7];
        r.incidents = vec![RecoveryIncident {
            class: psoram_nvm::FaultClass::TornFlush,
            units: 3,
        }];
        r.errors = vec![RecoveryError::UnrecoverableAddress {
            addr: 7,
            detail: "gone".into(),
        }];
        r.replays_detected = 4;
        r.splices_detected = 2;
        assert_eq!(r.freshness_violations(), 6);
        let json = serde_json::to_string(&r).unwrap();
        let back: RecoveryReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
        assert!(back.errors[0].to_string().contains("a7"));
    }

    #[test]
    fn recovery_error_display() {
        use psoram_nvm::FaultClass;
        assert!(RecoveryError::RetryExhausted {
            class: FaultClass::TransientRead
        }
        .to_string()
        .contains("retry"));
        assert!(RecoveryError::Poisoned {
            class: FaultClass::MediaCorruption
        }
        .to_string()
        .contains("poisoned"));
    }

    #[test]
    fn display_names_all_points() {
        for p in CrashPoint::step_boundaries() {
            assert!(!p.to_string().is_empty());
        }
        assert!(CrashPoint::DuringEviction(3).to_string().contains('3'));
    }

    #[test]
    fn step_boundaries_are_distinct() {
        let pts = CrashPoint::step_boundaries();
        for (i, a) in pts.iter().enumerate() {
            for b in &pts[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

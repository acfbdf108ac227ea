//! The crash→recover→verify engine shared by sweeps and campaigns.

use rand::Rng;

use psoram_core::ring::RingVariant;
use psoram_core::testkit::{judge_recovery, Design, Judged};
use psoram_core::{CrashPoint, OramError, ProtocolPolicy, ProtocolVariant};

use crate::device::DeviceFaultSummary;
use crate::oracle::ShadowOracle;
use crate::report::{VariantReport, ViolationKind};

/// The designs the sweeps and the random campaigns run: the
/// non-persistent baseline (expected to fail), the paper's PS-ORAM and
/// PS-Ring (expected to pass).
pub const SWEEP_SET: [Design; 3] = [
    Design::Path(ProtocolVariant::Baseline),
    Design::Path(ProtocolVariant::PsOram),
    Design::Ring(RingVariant::PsRing),
];

/// Crash points guaranteed to fire on the next access for every design
/// (Ring ORAM never reaches `AfterCheckStash`), used for nested faults so
/// an armed plan cannot leak past the recovery it targets.
const ALWAYS_FIRING: [CrashPoint; 3] = [
    CrashPoint::AfterAccessPosMap,
    CrashPoint::AfterLoadPath,
    CrashPoint::AfterUpdateStash,
];

/// A design's RNG stream tweak: a hash of its label, so each design's
/// traffic is deterministic in (seed, design) alone.
pub(crate) fn stream_tweak(label: &str) -> u64 {
    label
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64))
}

/// How many consecutive unexpected (non-injected) controller errors the
/// driver tolerates before abandoning a variant's run.
const MAX_UNEXPECTED_ERRORS: u64 = 5;

/// Stable attribution key for a crash point: the step-boundary name,
/// `"DuringEviction"` for every mid-eviction index, or `"Unattributed"`
/// for crashes the harness did not arm.
fn crash_point_key(point: Option<CrashPoint>) -> &'static str {
    match point {
        Some(CrashPoint::AfterCheckStash) => "AfterCheckStash",
        Some(CrashPoint::AfterAccessPosMap) => "AfterAccessPosMap",
        Some(CrashPoint::AfterLoadPath) => "AfterLoadPath",
        Some(CrashPoint::AfterUpdateStash) => "AfterUpdateStash",
        Some(CrashPoint::DuringEviction(_)) => "DuringEviction",
        Some(CrashPoint::AfterEviction) => "AfterEviction",
        None => "Unattributed",
    }
}

/// Drives one design through a fault workload, keeping the shadow oracle
/// and the report in lockstep with every access.
pub(crate) struct Driver {
    pub target: Box<dyn ProtocolPolicy>,
    pub oracle: ShadowOracle,
    pub report: VariantReport,
    /// Set when the run hit too many unexpected errors to continue.
    pub aborted: bool,
    /// Device-fault mode: typed fail-safe refusals (poisoning) become an
    /// expected outcome rather than unexpected errors, and recovery's
    /// declared rollbacks resync the shadow instead of standing as
    /// violations — only *silent* divergence counts.
    pub device: bool,
    /// Latched when the controller poisons itself (device mode only).
    /// The campaign tears the target down and rebuilds it.
    pub poisoned: bool,
    /// Detection/repair evidence accumulated across recoveries
    /// (device mode only).
    pub device_summary: DeviceFaultSummary,
    /// Recoveries between full shadow read-backs (0 → final check only).
    full_check_every: u64,
    unexpected_errors: u64,
    payload_counter: u64,
    payload_bytes: usize,
}

impl Driver {
    pub fn new(design: Design, seed: u64, full_check_every: u64) -> Self {
        let target = design.build(seed);
        let payload_bytes = target.payload_bytes();
        let model = target.commit_model();
        Driver {
            oracle: ShadowOracle::new(payload_bytes, model),
            report: VariantReport::new(design, target.label()),
            target,
            aborted: false,
            device: false,
            poisoned: false,
            device_summary: DeviceFaultSummary::default(),
            full_check_every,
            unexpected_errors: 0,
            payload_counter: 0,
            payload_bytes,
        }
    }

    /// A fresh, unique payload (a little-endian counter padded to the
    /// block's payload size) — distinguishes every write in the oracle.
    pub fn next_payload(&mut self) -> Vec<u8> {
        self.payload_counter += 1;
        let mut v = vec![0u8; self.payload_bytes];
        for (dst, src) in v.iter_mut().zip(self.payload_counter.to_le_bytes()) {
            *dst = src;
        }
        v
    }

    /// Writes every address in `0..working_set` once, crash-free, so the
    /// oracle starts with a fully committed shadow.
    pub fn prefill(&mut self, working_set: u64) {
        for addr in 0..working_set {
            let value = self.next_payload();
            if self.do_write(addr, value) {
                // No crash is armed during prefill; a crash here means the
                // harness itself is broken.
                unreachable!("crash fired during prefill");
            }
        }
    }

    /// One workload access: an address drawn below `working_set`, a fresh
    /// payload written to it with probability 0.6 and otherwise a read.
    /// If it crashes (the armed `point`, `None` for a crash the harness
    /// did not arm), the crash is handled here: with `nested_crash_prob`,
    /// a draw decides whether the recovery is itself interrupted (`None`
    /// draws nothing). Returns whether it crashed.
    pub fn step(
        &mut self,
        rng: &mut impl Rng,
        working_set: u64,
        point: Option<CrashPoint>,
        nested_crash_prob: Option<f64>,
    ) -> bool {
        let attempt = self.target.access_attempts();
        let addr = rng.gen_range(0..working_set);
        let crashed = if rng.gen_bool(0.6) {
            let value = self.next_payload();
            self.do_write(addr, value)
        } else {
            self.do_read(addr)
        };
        if crashed {
            let nested = match nested_crash_prob {
                Some(p) if rng.gen_bool(p) => {
                    Some(ALWAYS_FIRING[rng.gen_range(0..ALWAYS_FIRING.len())])
                }
                _ => None,
            };
            self.handle_crash(attempt, point, addr, nested);
        }
        crashed
    }

    /// Issues one workload write. Returns `true` when the access crashed
    /// (the crash is still unhandled — call [`Driver::handle_crash`]).
    pub fn do_write(&mut self, addr: u64, value: Vec<u8>) -> bool {
        self.report.accesses += 1;
        self.oracle.begin_write(addr, value.clone());
        match self.target.write(addr, value) {
            Ok(()) => {
                self.oracle.commit_write();
                false
            }
            Err(OramError::Crashed) => true,
            Err(OramError::Poisoned { .. }) if self.device => {
                self.oracle.drop_pending();
                self.poisoned = true;
                false
            }
            Err(e) => {
                self.oracle.drop_pending();
                self.record_unexpected(e);
                false
            }
        }
    }

    /// Issues one workload read, checking the value against the oracle.
    /// Returns `true` when the access crashed.
    pub fn do_read(&mut self, addr: u64) -> bool {
        self.report.accesses += 1;
        match self.target.read(addr) {
            Ok(v) => {
                if let Err(detail) = self.oracle.observe(addr, &v) {
                    self.report.record_violation(
                        None,
                        None,
                        ViolationKind::CommittedValueLost,
                        detail,
                    );
                    self.oracle.resync(addr, &v);
                }
                false
            }
            Err(OramError::Crashed) => true,
            Err(OramError::Poisoned { .. }) if self.device => {
                self.poisoned = true;
                false
            }
            Err(e) => {
                self.record_unexpected(e);
                false
            }
        }
    }

    /// Handles a crash that fired on the access of `addr`: recovers,
    /// verifies, and (optionally) injects a nested crash in the middle of
    /// the verification itself.
    ///
    /// `attempt_index` is the controller's access-attempt index of the
    /// crashed access (for replay); `point` is the injected crash point
    /// (`None` for crashes the harness did not arm itself).
    pub fn handle_crash(
        &mut self,
        attempt_index: u64,
        point: Option<CrashPoint>,
        addr: u64,
        nested: Option<CrashPoint>,
    ) {
        let clock_before = self.target.clock();
        self.count_crash(point);
        self.oracle.note_crash();
        self.recover_once(attempt_index, point);

        // Nested fault: the power fails again while recovery is being
        // verified. The armed plan fires on the first verification read.
        if let Some(np) = nested {
            self.target.inject_crash(np);
        }

        // Adjudicate the interrupted access by reading its address back.
        match self.read_verifying(addr, attempt_index, nested) {
            Some(v) => {
                if self.oracle.has_pending() {
                    if let Err(detail) = self.oracle.resolve_pending(&v) {
                        self.report.record_violation(
                            Some(attempt_index),
                            point,
                            ViolationKind::TornWrite,
                            detail,
                        );
                        self.oracle.resync(addr, &v);
                    }
                } else if let Err(detail) = self.oracle.observe(addr, &v) {
                    self.report.record_violation(
                        Some(attempt_index),
                        point,
                        ViolationKind::CommittedValueLost,
                        detail,
                    );
                    self.oracle.resync(addr, &v);
                }
            }
            None => self.oracle.drop_pending(),
        }
        // A nested plan that never fired must not leak into the workload.
        self.target.disarm_crash();

        // Timing attribution: the simulated cycles this crash cost, from
        // recovery through adjudication (including nested recoveries, but
        // excluding the periodic amortized full check below).
        self.report
            .record_crash_cost(crash_point_key(point), self.target.clock() - clock_before);

        if self.full_check_every > 0 && self.report.recoveries.is_multiple_of(self.full_check_every)
        {
            self.full_check(Some(attempt_index), point);
        }
    }

    /// Reads back every committed address and checks it against the
    /// shadow. Mismatches are recorded (and the shadow resynced so a
    /// lossy baseline keeps producing fresh evidence instead of echoes).
    pub fn full_check(&mut self, attempt_index: Option<u64>, point: Option<CrashPoint>) {
        self.report.full_checks += 1;
        for addr in self.oracle.addrs() {
            if self.aborted || self.poisoned {
                return;
            }
            if let Some(v) = self.read_verifying(addr, attempt_index.unwrap_or(0), None) {
                if let Err(detail) = self.oracle.observe(addr, &v) {
                    self.report.record_violation(
                        attempt_index,
                        point,
                        ViolationKind::CommittedValueLost,
                        detail,
                    );
                    self.oracle.resync(addr, &v);
                }
            }
        }
    }

    /// Finishes the run: final full read-back, then the verdict.
    pub fn finish(mut self) -> VariantReport {
        if !self.aborted {
            self.full_check(None, None);
        }
        self.report.finalize();
        self.report
    }

    /// A verification read (not part of the workload). Recovers inline if
    /// a nested crash fires mid-verification.
    fn read_verifying(
        &mut self,
        addr: u64,
        attempt_index: u64,
        nested: Option<CrashPoint>,
    ) -> Option<Vec<u8>> {
        loop {
            match self.target.read(addr) {
                Ok(v) => return Some(v),
                Err(OramError::Crashed) => {
                    self.report.nested_crashes += 1;
                    self.count_crash(nested);
                    self.oracle.note_crash();
                    self.recover_once(attempt_index, nested);
                }
                Err(OramError::Poisoned { .. }) if self.device => {
                    self.poisoned = true;
                    return None;
                }
                Err(e) => {
                    self.record_unexpected(e);
                    return None;
                }
            }
        }
    }

    /// Injects a power failure at rest — no access in flight — then
    /// recovers and runs the periodic full check. The device campaigns
    /// prefer this shape: with the committed WPQ backlog empty, crash
    /// damage lands squarely on the last applied round's persist units,
    /// which is exactly the state the integrity layer must defend.
    pub fn crash_at_rest(&mut self) {
        let attempt = self.target.access_attempts();
        let clock_before = self.target.clock();
        self.count_crash(None);
        self.oracle.note_crash();
        self.target.crash_now();
        self.recover_once(attempt, None);
        self.report
            .record_crash_cost("AtRest", self.target.clock() - clock_before);
        if self.full_check_every > 0 && self.report.recoveries.is_multiple_of(self.full_check_every)
        {
            self.full_check(Some(attempt), None);
        }
    }

    fn recover_once(&mut self, attempt_index: u64, point: Option<CrashPoint>) {
        let rec = self.target.recover();
        self.report.recoveries += 1;
        if self.device {
            self.device_summary.incidents += rec.incidents.len() as u64;
            self.device_summary.repairs += rec.repairs;
            self.device_summary.rollbacks += rec.rolled_back.len() as u64;
            self.device_summary.typed_errors += rec.errors.len() as u64;
            self.device_summary.replays_detected += rec.replays_detected;
            self.device_summary.splices_detected += rec.splices_detected;
            if rec.poisoned {
                self.poisoned = true;
            }
        }
        match judge_recovery(&rec, self.device) {
            Judged::Consistent => self.report.recoveries_consistent += 1,
            Judged::Declared => {
                // A detected fail-safe: the design lost data but *said
                // so*, with typed errors or by refusing service. That is
                // the contract under device faults — only silent
                // divergence counts against a hardened design.
                self.device_summary.detected_failsafes += 1;
                if !rec.poisoned {
                    // The design declared data loss; realign the whole
                    // shadow to its post-recovery truth so only *new*,
                    // undeclared divergence is reported from here on.
                    for addr in self.oracle.addrs() {
                        if self.poisoned {
                            break;
                        }
                        self.resync_declared(addr);
                    }
                }
            }
            Judged::Silent => self.report.record_violation(
                Some(attempt_index),
                point,
                ViolationKind::RecoveryCheck,
                rec.violation
                    .clone()
                    .unwrap_or_else(|| "recoverability check failed".into()),
            ),
            Judged::Unnamed(a) => self.report.record_violation(
                Some(attempt_index),
                point,
                ViolationKind::RecoveryCheck,
                format!("rollback of a{a} not named by a typed error"),
            ),
        }
        // Typed rollbacks moved the durable truth backwards on purpose;
        // fold them into the shadow so later read-backs check the design
        // against what recovery *declared*, not what the fault destroyed.
        if self.device {
            for addr in rec.rolled_back {
                if self.poisoned {
                    break;
                }
                self.resync_declared(addr);
            }
        }
    }

    /// Reads `addr` back and resyncs the shadow to the observed value
    /// without recording a violation — used for addresses a recovery
    /// rolled back (or re-floored) under a typed error.
    fn resync_declared(&mut self, addr: u64) {
        match self.target.read(addr) {
            Ok(v) => self.oracle.resync(addr, &v),
            Err(OramError::Poisoned { .. }) => self.poisoned = true,
            Err(OramError::Crashed) => {}
            Err(e) => self.record_unexpected(e),
        }
    }

    fn count_crash(&mut self, point: Option<CrashPoint>) {
        self.report.crashes_injected += 1;
        match point {
            Some(CrashPoint::DuringEviction(k)) => {
                self.report.during_eviction_crashes += 1;
                self.report.max_eviction_units =
                    Some(self.report.max_eviction_units.map_or(k, |m| m.max(k)));
            }
            Some(_) => self.report.step_boundary_crashes += 1,
            None => {}
        }
    }

    fn record_unexpected(&mut self, e: OramError) {
        self.report.record_violation(
            Some(self.target.access_attempts()),
            None,
            ViolationKind::UnexpectedError,
            e.to_string(),
        );
        self.unexpected_errors += 1;
        if self.unexpected_errors >= MAX_UNEXPECTED_ERRORS {
            self.aborted = true;
        }
    }
}

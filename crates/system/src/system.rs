//! The trace-driven full-system simulator.

use psoram_cache::{Hierarchy, MemOp};
use psoram_core::{BlockAddr, CrashPoint, Op, OramError, PathOram, ProtocolPolicy};
use psoram_nvm::{AccessKind, NvmController, CORE_CYCLES_PER_MEM_CYCLE};
use psoram_obsv::Tap;
use psoram_trace::{SpecWorkload, TraceGenerator, TraceRecord, WorkloadSpec};

use crate::config::SystemConfig;
use crate::result::SimResult;

/// Memory backend below the LLC: the ORAM stack or a plain NVM controller.
#[derive(Debug)]
enum Backend {
    Oram(Box<PathOram>),
    Plain(Box<NvmController>),
}

/// A complete simulated system: in-order core, cache hierarchy, and the
/// ORAM/NVM memory backend.
///
/// The core retires one instruction per cycle and blocks on memory
/// operations, matching the paper's single in-order core at 3.2 GHz (§5.1
/// argues the memory system dominates, so in-order vs out-of-order does not
/// change the comparison).
///
/// # Examples
///
/// ```
/// use psoram_core::ProtocolVariant;
/// use psoram_system::{System, SystemConfig};
/// use psoram_trace::SpecWorkload;
///
/// let mut sys = System::new(SystemConfig::quick_test(ProtocolVariant::Baseline, 1));
/// let r = sys.run_workload(SpecWorkload::Gcc, 1_000);
/// assert_eq!(r.variant, "Baseline");
/// ```
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    hierarchy: Hierarchy,
    backend: Backend,
    clock: u64,
    instructions: u64,
    accesses: u64,
    crashes_recovered: u64,
    recoveries_consistent: u64,
    mark: Option<Snapshot>,
    /// Observability tap (detached by default; see [`System::set_recorder`]).
    obsv: Tap,
}

/// Counter snapshot taken at the end of warmup, so results measure only
/// the steady-state window.
#[derive(Debug, Clone)]
struct Snapshot {
    clock: u64,
    instructions: u64,
    accesses: u64,
    llc_misses: u64,
    nvm: psoram_nvm::NvmStats,
    oram: psoram_core::OramStats,
}

impl System {
    /// Builds an idle system from `config`.
    pub fn new(config: SystemConfig) -> Self {
        let hierarchy = Hierarchy::new(config.hierarchy);
        let backend = if config.use_oram {
            let mut oram = PathOram::with_nvm(
                config.oram.clone(),
                config.variant,
                config.nvm.clone(),
                config.seed,
            );
            oram.set_payload_encryption(config.encrypt_payloads);
            oram.set_top_cache_levels(config.top_cache_levels);
            Backend::Oram(Box::new(oram))
        } else {
            Backend::Plain(Box::new(NvmController::new(config.nvm.clone())))
        };
        System {
            config,
            hierarchy,
            backend,
            clock: 0,
            instructions: 0,
            accesses: 0,
            crashes_recovered: 0,
            recoveries_consistent: 0,
            mark: None,
            obsv: Tap::detached(),
        }
    }

    /// Attaches an observability recorder to the whole stack: the cache
    /// hierarchy, the ORAM controller (or plain NVM controller), and the
    /// persist engine all share one tap, so their events carry the same
    /// simulated-cycle clock.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<dyn psoram_obsv::Recorder>) {
        let tap = Tap::attached(recorder);
        self.hierarchy.set_tap(tap.clone());
        match &mut self.backend {
            Backend::Oram(o) => o.set_obsv_tap(tap.clone()),
            Backend::Plain(n) => n.set_tap(tap.clone()),
        }
        self.obsv = tap;
    }

    /// Marks the end of warmup: subsequent [`System::result`] calls report
    /// only activity after this point (the simpoint-style measurement
    /// window).
    pub fn mark_measurement_start(&mut self) {
        let (nvm, oram) = match &self.backend {
            Backend::Oram(o) => (o.nvm_stats(), o.stats()),
            Backend::Plain(n) => (*n.stats(), Default::default()),
        };
        self.mark = Some(Snapshot {
            clock: self.clock,
            instructions: self.instructions,
            accesses: self.accesses,
            llc_misses: self.hierarchy.stats().llc_misses,
            nvm,
            oram,
        });
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Current core-cycle clock.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Access to the ORAM controller, when one is configured.
    pub fn oram(&self) -> Option<&PathOram> {
        match &self.backend {
            Backend::Oram(o) => Some(o),
            Backend::Plain(_) => None,
        }
    }

    /// Mutable access to the ORAM controller (crash injection in system
    /// tests).
    pub fn oram_mut(&mut self) -> Option<&mut PathOram> {
        match &mut self.backend {
            Backend::Oram(o) => Some(o),
            Backend::Plain(_) => None,
        }
    }

    #[cfg(test)]
    /// Dissolves the system and hands the ORAM controller back (takeable
    /// ownership, mirroring `ShardController::into_policy`): the service
    /// layer can rebuild a shard's hierarchy while keeping its
    /// persistence domain. `None` when no ORAM backend is configured.
    pub fn take_oram(self) -> Option<Box<PathOram>> {
        match self.backend {
            Backend::Oram(o) => Some(o),
            Backend::Plain(_) => None,
        }
    }

    /// Schedules a power failure at the ORAM backend's access attempt
    /// `access_index` (see [`PathOram::schedule_crash`]); when it fires
    /// mid-workload the system recovers and reissues the access in place,
    /// so fault campaigns run through the complete cache+NVM stack.
    ///
    /// Returns `false` when no ORAM backend is configured.
    pub fn schedule_crash(&mut self, access_index: u64, point: CrashPoint) -> bool {
        match &mut self.backend {
            Backend::Oram(o) => {
                o.schedule_crash(access_index, point);
                true
            }
            Backend::Plain(_) => false,
        }
    }

    /// Crashes that fired and were recovered during stepping.
    pub fn crashes_recovered(&self) -> u64 {
        self.crashes_recovered
    }

    /// How many of those recoveries passed the recoverability check.
    pub fn recoveries_consistent(&self) -> u64 {
        self.recoveries_consistent
    }

    /// Executes one trace record (compute burst + one memory access).
    pub fn step(&mut self, rec: &TraceRecord) {
        // Compute burst at 1 IPC, plus the memory instruction itself.
        self.clock += rec.instrs_before;
        self.instructions += rec.instrs_before + 1;
        self.access(rec.addr, rec.is_write);
    }

    /// Drives one memory access (byte address) through the cache
    /// hierarchy and backend at the current clock, blocking the core
    /// until the access resolves. This is the per-request entry point
    /// the service layer uses when a shard owns a full cache/NVM
    /// hierarchy; [`System::step`] wraps it with the trace-record
    /// compute burst.
    pub fn access(&mut self, addr: u64, is_write: bool) {
        self.accesses += 1;
        self.obsv.set_now(self.clock);
        let r = self.hierarchy.access(addr, is_write);
        self.clock += r.latency_cycles;
        for op in &r.memory_ops {
            self.issue_memory_op(*op);
        }
    }

    fn issue_memory_op(&mut self, op: MemOp) {
        match &mut self.backend {
            Backend::Oram(oram) => {
                let (kind, addr) = match op {
                    MemOp::Read(a) => (Op::Read, a),
                    MemOp::Write(a) => (Op::Write, a),
                };
                let block = BlockAddr(
                    (addr / self.config.oram.block_bytes as u64)
                        % self.config.oram.capacity_blocks(),
                );
                let data = match kind {
                    Op::Write => Some(vec![0xA5u8; self.config.oram.payload_bytes]),
                    Op::Read => None,
                };
                let out = loop {
                    match oram.access_at(kind, block, data.clone(), self.clock) {
                        Ok(out) => break out,
                        Err(OramError::Crashed) => {
                            // Power failure below the cache hierarchy: the
                            // persistence domain drains, the machine reboots,
                            // recovery runs, and the access is reissued.
                            let rec = oram.recover();
                            self.crashes_recovered += 1;
                            if rec.consistent {
                                self.recoveries_consistent += 1;
                            }
                        }
                        Err(e) => panic!("in-range access cannot fail: {e}"),
                    }
                };
                // The in-order core blocks until the line fill returns;
                // writes retire once accepted by the controller.
                self.clock = out.complete_cycle;
            }
            Backend::Plain(nvm) => {
                let (kind, addr) = match op {
                    MemOp::Read(a) => (AccessKind::Read, a),
                    MemOp::Write(a) => (AccessKind::Write, a),
                };
                let done = nvm.access(addr, kind, self.clock / CORE_CYCLES_PER_MEM_CYCLE);
                if kind.is_read() {
                    self.clock = done * CORE_CYCLES_PER_MEM_CYCLE;
                }
            }
        }
    }

    /// Runs `n` records of a named SPEC-like workload and reports results.
    pub fn run_workload(&mut self, workload: SpecWorkload, n: usize) -> SimResult {
        self.run_workload_with_warmup(workload, 0, n)
    }

    /// Runs `warmup` unmeasured records, then `n` measured records of a
    /// named workload — the simpoint-style methodology that removes cache
    /// cold-start effects from the reported MPKI and cycle counts.
    pub fn run_workload_with_warmup(
        &mut self,
        workload: SpecWorkload,
        warmup: usize,
        n: usize,
    ) -> SimResult {
        let mut spec = workload.spec();
        self.fit_spec(&mut spec);
        let mut gen = TraceGenerator::new(&spec, self.config.seed ^ 0x17ACE);
        for rec in gen.by_ref().take(warmup) {
            self.step(&rec);
        }
        if warmup > 0 {
            self.mark_measurement_start();
        }
        self.run_trace(gen, n, workload.name())
    }

    /// Runs `n` records from an arbitrary generator.
    pub fn run_trace(
        &mut self,
        gen: impl Iterator<Item = TraceRecord>,
        n: usize,
        name: &str,
    ) -> SimResult {
        for rec in gen.take(n) {
            self.step(&rec);
        }
        self.result(name)
    }

    /// Shrinks a workload's footprint to fit the configured ORAM capacity
    /// (half the capacity for the cold region), preserving its MPKI and
    /// pattern. Documented as part of the trace substitution in DESIGN.md.
    pub fn fit_spec(&self, spec: &mut WorkloadSpec) {
        let cap_lines = self.config.oram.capacity_blocks();
        let max_cold = (cap_lines / 2).max(1024);
        if spec.cold_lines > max_cold {
            spec.cold_lines = max_cold;
        }
    }

    /// Collects the run's results (since the measurement mark, if one was
    /// set).
    pub fn result(&self, workload: &str) -> SimResult {
        let h = self.hierarchy.stats();
        let (variant, nvm, oram) = match &self.backend {
            Backend::Oram(o) => (o.variant().label().to_string(), o.nvm_stats(), o.stats()),
            Backend::Plain(nvm) => ("non-ORAM".to_string(), *nvm.stats(), Default::default()),
        };
        match &self.mark {
            None => SimResult {
                workload: workload.to_string(),
                variant,
                instructions: self.instructions,
                accesses: self.accesses,
                llc_misses: h.llc_misses,
                exec_cycles: self.clock,
                nvm,
                oram,
            },
            Some(m) => SimResult {
                workload: workload.to_string(),
                variant,
                instructions: self.instructions - m.instructions,
                accesses: self.accesses - m.accesses,
                llc_misses: h.llc_misses - m.llc_misses,
                exec_cycles: self.clock - m.clock,
                nvm: nvm.since(&m.nvm),
                oram: oram.since(&m.oram),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psoram_core::ProtocolVariant;

    fn quick(variant: ProtocolVariant) -> System {
        System::new(SystemConfig::quick_test(variant, 1))
    }

    #[test]
    fn runs_a_workload_end_to_end() {
        let mut sys = quick(ProtocolVariant::PsOram);
        let r = sys.run_workload(SpecWorkload::Mcf, 3_000);
        assert!(r.exec_cycles > 0);
        assert!(r.llc_misses > 0);
        assert!(r.nvm.reads > 0);
        assert!(r.nvm.writes > 0);
        assert_eq!(r.variant, "PS-ORAM");
    }

    #[test]
    fn oram_system_is_much_slower_than_plain_nvm() {
        let mut with = quick(ProtocolVariant::Baseline);
        let mut without = System::new(SystemConfig {
            use_oram: false,
            ..SystemConfig::quick_test(ProtocolVariant::Baseline, 1)
        });
        let a = with.run_workload(SpecWorkload::Lbm, 4_000);
        let b = without.run_workload(SpecWorkload::Lbm, 4_000);
        let overhead = a.exec_cycles as f64 / b.exec_cycles as f64;
        assert!(overhead > 1.8, "ORAM overhead only {overhead:.2}x");
    }

    #[test]
    fn mpki_lands_near_target_for_quick_config() {
        let mut sys = quick(ProtocolVariant::Baseline);
        let r = sys.run_workload(SpecWorkload::Bzip2, 30_000);
        let target = SpecWorkload::Bzip2.paper_mpki();
        let got = r.mpki();
        assert!(
            (got - target).abs() / target < 0.35,
            "MPKI {got:.2} too far from target {target:.2}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut sys = quick(ProtocolVariant::PsOram);
            sys.run_workload(SpecWorkload::Gcc, 2_000).exec_cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ps_oram_close_to_baseline_in_system_context() {
        let cycles = |variant| {
            let mut sys = quick(variant);
            sys.run_workload(SpecWorkload::Sphinx3, 10_000).exec_cycles as f64
        };
        let base = cycles(ProtocolVariant::Baseline);
        let ps = cycles(ProtocolVariant::PsOram);
        let full = cycles(ProtocolVariant::FullNvm);
        assert!(ps / base < 1.25, "PS-ORAM overhead {:.3}", ps / base);
        assert!(
            full / base > ps / base,
            "FullNVM should cost more than PS-ORAM"
        );
    }

    #[test]
    fn crash_injection_through_system_api() {
        let mut sys = quick(ProtocolVariant::PsOram);
        sys.run_workload(SpecWorkload::Mcf, 1_000);
        let oram = sys.oram_mut().unwrap();
        oram.crash_now();
        assert!(oram.recover().consistent);
    }

    #[test]
    fn full_stack_crash_recover_continue() {
        // Scheduled power failures fire beneath the cache hierarchy while a
        // workload runs; the system recovers in place and the trace keeps
        // going — the full-stack leg of the fault-injection harness.
        let mut sys = quick(ProtocolVariant::PsOram);
        sys.run_workload(SpecWorkload::Mcf, 500);
        let base = sys.oram().unwrap().access_attempts();
        for k in 1..=5u64 {
            assert!(sys.schedule_crash(base + 5 * k, CrashPoint::AfterLoadPath));
        }
        // One long run: the deterministic generator replays its prefix into
        // a warm cache, so only the tail produces fresh ORAM traffic.
        sys.run_workload(SpecWorkload::Mcf, 8_000);
        assert_eq!(
            sys.crashes_recovered(),
            5,
            "every scheduled crash must fire"
        );
        assert_eq!(
            sys.recoveries_consistent(),
            5,
            "every recovery must be consistent"
        );
        let oram = sys.oram_mut().unwrap();
        assert!(!oram.is_crashed());
        oram.verify_contents(true).unwrap();
    }

    #[test]
    fn top_cache_through_system_config() {
        let mut cfg = SystemConfig::quick_test(ProtocolVariant::PsOram, 1);
        cfg.top_cache_levels = 4;
        let mut sys = System::new(cfg);
        let r = sys.run_workload(SpecWorkload::Gcc, 3_000);
        assert!(r.exec_cycles > 0);
        let oram = sys.oram().unwrap();
        assert_eq!(oram.top_cache_bytes(), ((1 << 4) - 1) * 4 * 64);
        // Fewer NVM reads than an uncached run.
        let mut plain = System::new(SystemConfig::quick_test(ProtocolVariant::PsOram, 1));
        let p = plain.run_workload(SpecWorkload::Gcc, 3_000);
        assert!(r.nvm.reads < p.nvm.reads);
    }

    #[test]
    fn access_is_step_without_compute_burst() {
        // The extracted per-request entry point must drive the same
        // cache+backend path as step(): a run made of bare accesses
        // matches a run of zero-burst trace records cycle for cycle.
        let recs: Vec<TraceRecord> = {
            let spec = SpecWorkload::Gcc.spec();
            TraceGenerator::new(&spec, 42).take(500).collect()
        };
        let mut via_step = quick(ProtocolVariant::PsOram);
        let mut via_access = quick(ProtocolVariant::PsOram);
        for rec in &recs {
            via_step.step(&TraceRecord {
                instrs_before: 0,
                ..*rec
            });
            via_access.access(rec.addr, rec.is_write);
        }
        assert_eq!(via_step.clock(), via_access.clock());
        assert_eq!(
            via_step.result("w").nvm.writes,
            via_access.result("w").nvm.writes
        );
    }

    #[test]
    fn sharded_systems_are_independent_and_deterministic() {
        // Two shards built from one base config: each its own hierarchy
        // and persistence domain. Crashing one must not perturb the
        // other, and each shard replays identically from its config.
        let base = SystemConfig::quick_test(ProtocolVariant::PsOram, 1);
        let run = |shard: u32, crash: bool| {
            let mut sys = System::new(base.for_shard(shard));
            sys.run_workload(SpecWorkload::Mcf, 1_500);
            if crash {
                let oram = sys.oram_mut().unwrap();
                oram.crash_now();
                assert!(oram.recover().consistent);
            }
            sys.run_workload(SpecWorkload::Mcf, 500).exec_cycles
        };
        let shard0_alone = run(0, false);
        let shard1_alone = run(1, false);
        // Crash shard 1; shard 0's replay is byte-identical.
        assert_eq!(run(0, false), shard0_alone);
        let shard1_crashed = run(1, true);
        assert_eq!(run(0, false), shard0_alone, "shard 0 unaffected");
        assert_ne!(shard0_alone, shard1_alone, "distinct seeds diverge");
        assert!(shard1_crashed > 0);
    }

    #[test]
    fn take_oram_hands_back_the_backend() {
        let mut sys = quick(ProtocolVariant::PsOram);
        sys.run_workload(SpecWorkload::Gcc, 500);
        let clock = sys.oram().unwrap().clock();
        let oram = sys.take_oram().unwrap();
        assert_eq!(oram.clock(), clock);
        assert!(System::new(SystemConfig {
            use_oram: false,
            ..SystemConfig::quick_test(ProtocolVariant::Baseline, 1)
        })
        .take_oram()
        .is_none());
    }

    #[test]
    fn fit_spec_bounds_cold_footprint() {
        let sys = quick(ProtocolVariant::Baseline);
        let mut spec = SpecWorkload::Mcf.spec();
        sys.fit_spec(&mut spec);
        assert!(spec.cold_lines <= sys.config().oram.capacity_blocks() / 2);
    }
}

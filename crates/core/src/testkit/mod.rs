//! Test support, not API: the conformance suite.
//!
//! Every design is a row of one table ([`Design`]): the seven Path
//! variants, both Ring flavours and the [`Toy`], a third protocol written
//! against the engine alone. A row builds its design, names the crash
//! points that fire in it and, for each [`Contract`] under each [`Arm`],
//! [`Claim`]s that the design must pass it, must fail it by design, or
//! nothing — read off the variant predicates, not a second list. A
//! contract is a function over (row, arm, seed) whose error names all
//! four; [`conform`] runs one over every cell the table enables, so a
//! design joins every suite as one row.

mod toy;

use std::sync::Arc;

use psoram_nvm::{FaultConfig, WearConfig, WearScheme, WearStats};
use psoram_obsv::{chrome_trace_json, Event, MetricsRegistry, NoopRecorder, RingBufferRecorder};
use serde::{Deserialize, Serialize};

use crate::crash::{CrashPoint, RecoveryError, RecoveryReport};
use crate::engine::{CommitModel, ProtocolPolicy, ProtocolVariant, RingVariant};
use crate::ring::{RingConfig, RingOram};
use crate::types::{OramConfig, OramError};
use crate::PathOram;

pub use toy::{Toy, ADDRS as TOY_ADDRS};

/// One row of the design table. Its wire form (`{"Path": "PsOram"}`,
/// `{"Ring": "PsRing"}`) names the design in every campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Design {
    /// A Path ORAM protocol variant.
    Path(ProtocolVariant),
    /// A Ring ORAM persistence flavour.
    Ring(RingVariant),
    /// The toy protocol.
    Toy,
}

/// The geometry a row is built at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// `OramConfig::small_test` / `RingConfig::small_test`.
    Small,
    /// The small geometry with the smallest legal WPQs, forcing
    /// dependency-ordered sub-batches (paper §4.2.3).
    SmallWpq,
    /// Height `L` at `Z = 2` (Path's WPQs a path; Ring's `S = 3`, `A = 2`):
    /// the small scope where nearly every path overlaps every other.
    Scope(u32),
    /// Height `L`: Path at the paper's geometry with WPQs of a path, Ring
    /// at the small one.
    Tall(u32),
}

impl Design {
    /// The table: the Path variants in the paper's order, Ring, the toy.
    pub fn all() -> impl Iterator<Item = Design> {
        let path = ProtocolVariant::all().into_iter().map(Design::Path);
        let ring = RingVariant::all().into_iter().map(Design::Ring);
        path.chain(ring).chain([Design::Toy])
    }

    /// Whether the design claims to recover consistently from a crash at
    /// any point.
    pub fn is_crash_consistent(self) -> bool {
        match self {
            Design::Path(v) => v.is_crash_consistent(),
            Design::Ring(v) => v.is_crash_consistent(),
            Design::Toy => true,
        }
    }

    /// Whether device faults arm the integrity layer on the design.
    pub fn is_hardened(self) -> bool {
        match self {
            Design::Path(v) => v.uses_wpq(),
            Design::Ring(v) => v.uses_wpq(),
            Design::Toy => true,
        }
    }

    /// The design at `geometry`, seeded; `None` where it has no such
    /// geometry (the toy has one shape).
    pub fn build_at(self, geometry: Geometry, seed: u64) -> Option<Box<dyn ProtocolPolicy>> {
        let (mut path, mut ring) = (OramConfig::small_test(), RingConfig::small_test());
        match geometry {
            Geometry::Small => {}
            Geometry::SmallWpq => {
                path = path.with_wpq_capacity(4, 4);
                ring.wpq_capacity = ring.bucket_physical_slots() * (ring.levels as usize + 1);
            }
            Geometry::Scope(levels) => {
                let wpq = 2 * (levels as usize + 1);
                path = OramConfig {
                    levels,
                    bucket_slots: 2,
                    ..path
                }
                .with_wpq_capacity(wpq, wpq);
                (
                    ring.levels,
                    ring.real_slots,
                    ring.dummy_slots,
                    ring.evict_rate,
                ) = (levels, 2, 3, 2);
            }
            Geometry::Tall(levels) => {
                path = OramConfig::paper_default().with_levels(levels);
                let slots = path.path_slots();
                path = path.with_wpq_capacity(slots, slots);
                ring.levels = levels;
            }
        }
        Some(match self {
            Design::Path(v) => Box::new(PathOram::new(path, v, seed)),
            Design::Ring(v) => Box::new(RingOram::new(ring, v, seed)),
            Design::Toy if geometry == Geometry::Small => Box::new(Toy::default()),
            Design::Toy => return None,
        })
    }

    /// The design at the small geometry.
    pub fn build(self, seed: u64) -> Box<dyn ProtocolPolicy> {
        self.build_at(Geometry::Small, seed)
            .expect("every row is small")
    }

    /// The step-boundary crash points that fire on every access (Ring
    /// checks no stash before its PosMap; the toy's round is open or
    /// applied).
    pub fn step_points(self) -> Vec<CrashPoint> {
        match self {
            Design::Path(_) => CrashPoint::step_boundaries().to_vec(),
            Design::Ring(_) => CrashPoint::step_boundaries()[1..].to_vec(),
            Design::Toy => vec![CrashPoint::AfterUpdateStash, CrashPoint::AfterEviction],
        }
    }

    /// Whether a crash can fire part-way through an eviction's persist
    /// units ([`CrashPoint::DuringEviction`]).
    pub fn crashes_mid_eviction(self) -> bool {
        self != Design::Toy
    }

    /// The arms the design supports: every one.
    pub fn arms(self) -> [Arm; 5] {
        Arm::ALL
    }

    /// What the design claims for `contract` under `arm`: a design the
    /// arm's faults meet undefended claims no recovery, and one without
    /// crash consistency must fail a plain crash somewhere.
    pub fn claim(self, contract: Contract, arm: Arm) -> Claim {
        let undefended = arm.damages() && !self.is_hardened();
        match contract {
            Contract::Allocations if self.alloc_budget(arm, 12).is_none() => Claim::NotClaimed,
            Contract::CrashAnywhere | Contract::Idempotent if undefended => Claim::NotClaimed,
            Contract::CrashAnywhere if !self.is_crash_consistent() => match arm {
                Arm::Plain => Claim::MustFail("§3.3: no atomic rounds, no consistent recovery"),
                _ => Claim::NotClaimed,
            },
            _ => Claim::MustPass,
        }
    }

    /// The allocation budget of one steady-state access at height
    /// `levels` under `arm` (hardened: the integrity layer armed with
    /// nothing to damage), in the release build: a measurement plus one,
    /// or (Baseline) the figure of the commit before the slot arena.
    pub fn alloc_budget(self, arm: Arm, levels: u32) -> Option<f64> {
        use {ProtocolVariant as P, RingVariant as R};
        match (self, arm, levels) {
            (Design::Path(P::PsOram), Arm::Plain, 12 | 16) => Some(8.0),
            (Design::Path(P::PsOram), Arm::Hardened, 12) => Some(3.72),
            (Design::Path(P::PsOram), Arm::Hardened, 16) => Some(11.87),
            (Design::Path(P::Baseline), Arm::Plain, 12) => Some(31.2),
            (Design::Ring(R::PsRing), Arm::Plain, 12) => Some(3.45),
            (Design::Ring(R::PsRing), Arm::Plain, 16) => Some(8.28),
            (Design::Ring(R::Baseline), Arm::Plain, 12) => Some(2.71),
            (Design::Ring(R::Baseline), Arm::Plain, 16) => Some(7.30),
            _ => None,
        }
    }
}

/// What a design is armed with before its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// Nothing.
    Plain,
    /// `crash_recover`'s fault mix: crash-drain damage and the
    /// replay/splice adversary, no read-side faults. It hardens the WPQ
    /// designs; the others take the faults undefended.
    Hardened,
    /// Start-Gap moving a line on every drained write, accounting only.
    StartGap,
    /// Remap-on-retire over tiny budgets, accounting only.
    Remap,
    /// A wear-only fault plan over Remap lines pre-aged to 384 writes of
    /// a ~512-write budget, 64 spares (`WearShardPlan::near_eol`).
    NearEol,
}

impl Arm {
    /// Every arm.
    pub const ALL: [Arm; 5] = [
        Arm::Plain,
        Arm::Hardened,
        Arm::StartGap,
        Arm::Remap,
        Arm::NearEol,
    ];

    /// Whether the arm damages the media: a crash's drain, a worn load.
    pub fn damages(self) -> bool {
        matches!(self, Arm::Hardened | Arm::NearEol)
    }

    /// Arms `oram`, seeded by `seed`.
    pub fn apply(self, oram: &mut dyn ProtocolPolicy, seed: u64) {
        let wear = |scheme, gap_interval, spare_lines| WearConfig {
            gap_interval,
            spare_lines,
            ..WearConfig::stress(scheme)
        };
        let crash_recover = FaultConfig {
            transient_read: 0.0,
            stuck_read: 0.0,
            read_replay: 0.0,
            ..FaultConfig::replay_mix()
        };
        match self {
            Arm::Plain => {}
            Arm::Hardened => oram.enable_device_faults(seed ^ 0xFA17, crash_recover),
            Arm::StartGap => oram.enable_wear(seed ^ 0x0EA5, wear(WearScheme::StartGap, 1, 16)),
            Arm::Remap => oram.enable_wear(seed ^ 0x0EA5, wear(WearScheme::Remap, 1, 16)),
            Arm::NearEol => {
                oram.enable_device_faults(seed ^ 0x0EA4, FaultConfig::wear_only());
                oram.enable_wear(seed ^ 0x0EA5, wear(WearScheme::Remap, 16, 64));
            }
        }
    }
}

/// What a row claims for a contract under an arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// Every seed passes.
    MustPass,
    /// Some seed fails, by design (the paper section says why).
    MustFail(&'static str),
    /// Nothing either way; the cell is not run.
    NotClaimed,
}

/// A contract every design is held to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Contract {
    /// Every read returns the last value written.
    ReadYourWrites,
    /// A crash at every step boundary, mid-eviction, in the smallest WPQs
    /// and on a schedule recovers and reads back.
    CrashAnywhere,
    /// `verify_contents` equals a first read and changes nothing.
    Observer,
    /// A recover with no crash changes nothing, the report is retained and
    /// counted, recover twice is recover once, and an idle re-crash moves
    /// nothing.
    Idempotent,
    /// The stash and the temporary PosMap stay bounded.
    Bounded,
    /// Operations are refused while crashed, and a cleared crash schedule
    /// never fires.
    Refusal,
    /// A steady-state access stays inside its budget (held by
    /// `steady_state_allocs`, which counts allocations).
    Allocations,
    /// Runs and traces are deterministic per seed, wear stays unarmed
    /// until armed, and a recorder does not perturb a run.
    Deterministic,
}

impl Contract {
    /// Every contract.
    pub const ALL: [Contract; 8] = [
        Contract::ReadYourWrites,
        Contract::CrashAnywhere,
        Contract::Observer,
        Contract::Idempotent,
        Contract::Bounded,
        Contract::Refusal,
        Contract::Allocations,
        Contract::Deterministic,
    ];

    /// The contract's check, whole.
    fn check(self) -> Check {
        match self {
            Contract::ReadYourWrites => read_your_writes,
            Contract::CrashAnywhere => crash_anywhere,
            Contract::Observer => |c| for_observed_crashes(c, true, true).map(drop),
            Contract::Idempotent => idempotent,
            Contract::Bounded => bounded,
            Contract::Refusal => |c| refused_while_crashed(c).and(cleared_schedules_never_fire(c)),
            Contract::Allocations => |_| Err("counted by steady_state_allocs".into()),
            Contract::Deterministic => |c| {
                (wear_unarmed_until_armed(c).and_then(|()| recorders_do_not_perturb(c)))
                    .and_then(|()| traces_are_well_formed(c))
                    .and_then(|()| runs_repeat(c))
            },
        }
    }

    /// The seeds each cell runs.
    fn seeds(self) -> std::ops::Range<u64> {
        match self {
            Contract::Bounded | Contract::Deterministic => 0..1,
            _ => 0..2,
        }
    }
}

/// One cell of the grid at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// The row.
    pub design: Design,
    /// Its arm.
    pub arm: Arm,
    /// The seed of the design and its arm.
    pub seed: u64,
}

impl Case {
    /// The row at `geometry`, armed.
    pub fn build_at(&self, geometry: Geometry) -> Option<Box<dyn ProtocolPolicy>> {
        let mut oram = self.design.build_at(geometry, self.seed)?;
        self.arm.apply(oram.as_mut(), self.seed);
        Some(oram)
    }

    /// The row at the small geometry, armed.
    pub fn build(&self) -> Box<dyn ProtocolPolicy> {
        self.build_at(Geometry::Small).expect("every row is small")
    }

    /// Whether `oram` served all of `ops`: `false` if, under an arm that
    /// damages the media, the fail-safe latch refused one (a typed
    /// refusal, not corruption). Any other refusal is a break.
    fn serves(&self, oram: &mut dyn ProtocolPolicy, ops: &[Op]) -> Result<bool, Broke> {
        served(drive(oram, ops), self.arm.damages())
    }
}

/// What a check found broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Broke {
    /// The design broke the model: a read or the observer returned other
    /// than the model holds, a completed write is gone, or a recovery
    /// calls itself inconsistent.
    Model(String),
    /// Anything else: a crash that never fired, an access that failed
    /// unlooked-for, state that moved.
    Other(String),
}

impl Broke {
    /// The same breakage, `place` said first.
    fn at(self, place: impl std::fmt::Display) -> Broke {
        match self {
            Broke::Model(e) => Broke::Model(format!("{place}: {e}")),
            Broke::Other(e) => Broke::Other(format!("{place}: {e}")),
        }
    }
}

impl std::fmt::Display for Broke {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Broke::Model(e) => write!(f, "model: {e}"),
            Broke::Other(e) => f.write_str(e),
        }
    }
}

impl From<String> for Broke {
    fn from(e: String) -> Broke {
        Broke::Other(e)
    }
}

impl From<&str> for Broke {
    fn from(e: &str) -> Broke {
        Broke::Other(e.into())
    }
}

/// What a check finds: nothing, or what broke.
pub type Outcome = Result<(), Broke>;

/// A contract, or one clause of it, over one case.
pub type Check = fn(&Case) -> Outcome;

/// Which cells of the table a run takes.
pub type Pick = fn(Design, Arm) -> bool;

/// Runs `contract` over every cell the table enables and `pick` selects,
/// each at the contract's seeds: a must-pass cell passes at every seed; a
/// must-fail cell breaks the model ([`Broke::Model`]) at one and breaks
/// no other way at any.
/// Returns the cells run.
///
/// # Panics
///
/// On any cell that broke its claim, listing every one, each naming the
/// contract, design, arm and seed.
pub fn conform(contract: Contract, pick: Pick) -> usize {
    run(contract, |c| contract.check()(c).map(|()| 0), false, pick).0
}

/// [`conform`] with one clause of `contract` in place of the whole, held
/// where the contract must pass.
///
/// # Panics
///
/// As [`conform`].
pub fn conform_clause(contract: Contract, clause: Check, pick: Pick) -> usize {
    run(contract, |c| clause(c).map(|()| 0), true, pick).0
}

/// [`conform_clause`] with a clause that counts what it met; the sum.
///
/// # Panics
///
/// As [`conform`].
pub fn tally(contract: Contract, clause: fn(&Case) -> Result<usize, Broke>, pick: Pick) -> usize {
    run(contract, clause, true, pick).1
}

/// Selects the plain arm of every row.
pub fn plain(_: Design, arm: Arm) -> bool {
    arm == Arm::Plain
}

fn run(
    contract: Contract,
    check: impl Fn(&Case) -> Result<usize, Broke>,
    clause: bool,
    pick: Pick,
) -> (usize, usize) {
    let (mut cells, mut sum, mut broken) = (0, 0, Vec::new());
    for design in Design::all() {
        for arm in design.arms().into_iter().filter(|&arm| pick(design, arm)) {
            let claim = design.claim(contract, arm);
            if claim == Claim::NotClaimed || clause && claim != Claim::MustPass {
                continue;
            }
            cells += 1;
            let name = |seed| format!("conformance {contract:?} {design:?} {arm:?} seed {seed}");
            let outcomes: Vec<_> = (contract.seeds())
                .map(|seed| check(&Case { design, arm, seed }).map_err(|e| e.at(name(seed))))
                .collect();
            sum += outcomes.iter().flatten().sum::<usize>();
            let model = outcomes.iter().any(|o| matches!(o, Err(Broke::Model(_))));
            let errors = outcomes.into_iter().filter_map(Result::err);
            match claim {
                Claim::MustFail(why) => {
                    let other = errors.filter(|e| matches!(e, Broke::Other(_)));
                    broken.extend(other.map(|e| e.to_string()));
                    if !model {
                        let cell = format!("conformance {contract:?} {design:?} {arm:?}");
                        broken.push(format!("{cell}: broke the model at no seed ({why})"));
                    }
                }
                _ => broken.extend(errors.map(|e| e.to_string())),
            }
        }
    }
    assert!(broken.is_empty(), "broken:\n{}", broken.join("\n"));
    (cells, sum)
}

/// Every (design, arm, contract) cell the table enables.
pub fn cells() -> usize {
    let claimed = |d: Design, a, c| d.claim(c, a) != Claim::NotClaimed;
    let per_row = |d: Design| -> usize {
        let per_arm = |a| Contract::ALL.iter().filter(|&&c| claimed(d, a, c)).count();
        d.arms().into_iter().map(per_arm).sum()
    };
    Design::all().map(per_row).sum()
}

/// The tests' reference for [`ProtocolPolicy::verify_contents`], not a
/// second check: reads back every touched address, ascending, each
/// through a full [`ProtocolPolicy::read`] (which remaps, evicts, draws
/// from a fault plan and updates the ledgers), against the expectation
/// the check uses, taken before the read.
///
/// # Errors
///
/// The first failed read or mismatch.
pub fn read_back<P: ProtocolPolicy + ?Sized>(oram: &mut P, crashed: bool) -> Result<(), String> {
    let touched: Vec<u64> = oram.shell().touched.iter().map(|(a, ())| a).collect();
    let zeros = vec![0; oram.payload_bytes()];
    for a in touched {
        let expected = oram.shell().ledger.expected(a, crashed);
        let expected = expected.unwrap_or(&zeros).to_vec();
        let got = oram.read(a).map_err(|e| e.to_string())?;
        if got != expected {
            return Err(format!("a{a}: read {got:?}, expected {expected:?}"));
        }
    }
    Ok(())
}

/// The `i`-th payload of the small geometry's 8-byte blocks.
pub fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

/// One operation of a program: an address, whether it writes, and the
/// byte it writes.
pub type Op = (u64, bool, u8);

/// A seeded program of `n` operations: writes of byte `seed + i` to
/// address `i`, or, `mixed`, reads (a third) and writes drawn below 40.
pub fn program(seed: u64, n: u64, mixed: bool) -> Vec<Op> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    let op = |i: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        match mixed {
            true => ((x >> 33) % 40, !i.is_multiple_of(3), (x >> 17) as u8),
            false => (i % 60, true, (seed + i) as u8),
        }
    };
    (0..n).map(op).collect()
}

/// Runs `ops`, each address wrapped to the capacity; the first refusal.
fn drive(oram: &mut dyn ProtocolPolicy, ops: &[Op]) -> Result<(), OramError> {
    let (span, bytes) = (oram.capacity_blocks(), oram.payload_bytes());
    for &(a, write, byte) in ops {
        match write {
            true => oram.write(a % span, vec![byte; bytes])?,
            false => drop(oram.read(a % span)?),
        }
    }
    Ok(())
}

/// Whether an access was served: `false` if, with `latch`, the fail-safe
/// latch refused it.
fn served(outcome: Result<(), OramError>, latch: bool) -> Result<bool, Broke> {
    match outcome {
        Ok(()) => Ok(true),
        Err(OramError::Poisoned { .. }) if latch => Ok(false),
        Err(e) => Err(e.to_string().into()),
    }
}

fn read_your_writes(c: &Case) -> Outcome {
    let ops = program(c.seed, 60, true);
    reads_its_writes(c.build().as_mut(), &ops, c.arm.damages())
}

/// `ops` against a model: every read, and then a read of every written
/// address, returns what the model holds; with `latch`, the fail-safe
/// latch may end the run.
///
/// # Errors
///
/// The first read that returned something else.
pub fn reads_its_writes(oram: &mut dyn ProtocolPolicy, ops: &[Op], latch: bool) -> Outcome {
    let (span, bytes) = (oram.capacity_blocks(), oram.payload_bytes());
    let mut model = std::collections::BTreeMap::new();
    let mut reads = Vec::new();
    for &(a, write, byte) in ops {
        let a = a % span;
        if !write {
            reads.push(a);
        } else if served(oram.write(a, vec![byte; bytes]), latch)? {
            model.insert(a, vec![byte; bytes]);
        } else {
            return Ok(());
        }
    }
    let zeros = vec![0; bytes];
    for a in reads.into_iter().chain(model.keys().rev().copied()) {
        let expected = model.get(&a).unwrap_or(&zeros);
        match oram.read(a) {
            Ok(got) if got == *expected => {}
            Ok(got) => {
                return Err(Broke::Model(format!(
                    "a{a}: read {got:?}, expected {expected:?}"
                )))
            }
            Err(e) => return served(Err(e), latch).map(drop),
        }
    }
    Ok(())
}

/// How a recovery's report reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judged {
    /// The recovery calls itself consistent.
    Consistent,
    /// Under damage, it lost data and said so: typed errors or the
    /// fail-safe latch, every rollback named.
    Declared,
    /// It lost data without a typed error or the latch: undamaged, any
    /// inconsistent recovery.
    Silent,
    /// Under damage, it rolled this address back without a typed error
    /// that names it.
    Unnamed(u64),
}

/// The recovery judge: reads `report`, of a design whose media were
/// `damaged`. Only damage admits a loss, and only a classified one.
pub fn judge_recovery(report: &RecoveryReport, damaged: bool) -> Judged {
    let declared = damaged && (!report.errors.is_empty() || report.poisoned);
    if !report.consistent && !declared {
        return Judged::Silent;
    }
    let named = |&a: &u64| {
        let names =
            |e: &_| matches!(e, RecoveryError::UnrecoverableAddress { addr, .. } if *addr == a);
        report.errors.iter().any(names)
    };
    match report.rolled_back.iter().find(|a| damaged && !named(a)) {
        Some(&a) => Judged::Unnamed(a),
        None if report.consistent => Judged::Consistent,
        None => Judged::Declared,
    }
}

/// A recovery's verdict ([`judge_recovery`]) and what the design reads
/// after it. Under an arm that damages the media a declared loss or the
/// fail-safe latch ends the check, and a read-back may end in the latch.
///
/// # Errors
///
/// What the recovery got wrong.
pub fn recovered(arm: Arm, oram: &mut dyn ProtocolPolicy, report: &RecoveryReport) -> Outcome {
    let violation = &report.violation;
    match judge_recovery(report, arm.damages()) {
        Judged::Silent if arm.damages() => {
            return Err(Broke::Model(format!("silent violation {violation:?}")))
        }
        Judged::Silent => {
            return Err(Broke::Model(format!(
                "inconsistent recovery: {violation:?}"
            )))
        }
        Judged::Unnamed(a) => {
            return Err(format!("rollback of a{a} not named by a typed error").into())
        }
        Judged::Declared => return Ok(()),
        Judged::Consistent if arm.damages() && report.poisoned => return Ok(()),
        Judged::Consistent => {}
    }
    let moved = |w: WearStats| w.gap_moves > 0 && w.map_commits + w.map_reverts > 0;
    if arm == Arm::StartGap && !oram.wear_stats().is_some_and(moved) {
        let wear = oram.wear_stats();
        return Err(format!("a crash round moved no line: {wear:?}").into());
    }
    (oram.verify_contents(true)).map_err(|e| Broke::Model(format!("observed: {e}")))?;
    match read_back(oram, true) {
        Err(e) if !(arm.damages() && oram.poisoned().is_some()) => {
            Err(Broke::Model(format!("read back: {e}")))
        }
        _ => Ok(()),
    }
}

/// Runs `ops` on the case's design at `geometry`, then reads until a
/// crash at `point` fires, which the access it fires in must not survive;
/// the design recovers and reads back, and a design durable on completion
/// keeps every write. `Ok(false)` if it never fired: a mid-eviction index
/// past the access's units, or a design the fail-safe latch took down
/// (or one without the geometry).
pub fn crash_at(
    c: &Case,
    geometry: Geometry,
    point: CrashPoint,
    ops: &[Op],
) -> Result<bool, Broke> {
    let Some(mut oram) = c.build_at(geometry) else {
        return Ok(false);
    };
    let latch = c.arm.damages();
    if !c.serves(oram.as_mut(), ops)? {
        return Ok(false);
    }
    oram.inject_crash(point);
    for a in 0..6 {
        let outcome = oram.read(a % oram.capacity_blocks());
        if oram.is_crashed() {
            match outcome {
                Err(OramError::Crashed) => break,
                _ => {
                    return Err(format!("{point}: the crashing access returned {outcome:?}").into())
                }
            }
        }
        if !served(outcome.map(drop), latch)? {
            return Ok(false);
        }
    }
    if !oram.is_crashed() {
        return Ok(false);
    }
    let report = oram.recover();
    let at = |e: Broke| e.at(format!("{geometry:?} {point}"));
    recovered(c.arm, oram.as_mut(), &report).map_err(at)?;
    if oram.commit_model() == CommitModel::OnCompletion && !latch {
        let lost = |e| at(Broke::Model(format!("a completed write was lost: {e}")));
        oram.verify_contents(false).map_err(lost)?;
    }
    Ok(true)
}

/// A crash at every step boundary of the design fires, recovers and
/// reads back.
pub fn crash_at_step_boundaries(c: &Case) -> Outcome {
    let ops = program(c.seed, 30, false);
    for point in c.design.step_points() {
        if !crash_at(c, Geometry::Small, point, &ops)? && !c.arm.damages() {
            return Err(format!("{point}: the crash did not fire").into());
        }
    }
    Ok(())
}

/// A crash after 0, 1 or 2 of an eviction's persist units recovers and
/// reads back, and one of them fires.
pub fn crash_mid_eviction(c: &Case) -> Outcome {
    let (ops, mut fired) = (program(c.seed, 30, false), c.arm.damages());
    for k in (0..3).filter(|_| c.design.crashes_mid_eviction()) {
        fired |= crash_at(c, Geometry::Small, CrashPoint::DuringEviction(k), &ops)?;
    }
    match fired || !c.design.crashes_mid_eviction() {
        true => Ok(()),
        false => Err("no mid-eviction crash ever fired".into()),
    }
}

/// A crash after 0, 1, 2, 3, 5 or 8 persist units of an eviction through
/// the smallest legal WPQs recovers and reads back.
pub fn crash_in_a_small_wpq(c: &Case) -> Outcome {
    let ops = program(c.seed, 30, false);
    for k in [0, 1, 2, 3, 5, 8] {
        crash_at(c, Geometry::SmallWpq, CrashPoint::DuringEviction(k), &ops)?;
    }
    Ok(())
}

/// Crashes scheduled two accesses ahead fire, recover and read back,
/// cycle after cycle.
pub fn crash_on_a_schedule(c: &Case) -> Outcome {
    let mut oram = c.build();
    if !c.serves(oram.as_mut(), &program(c.seed, 12, false))? {
        return Ok(());
    }
    for (cycle, &point) in c.design.step_points().iter().cycle().take(3).enumerate() {
        oram.schedule_crash(oram.access_attempts() + 2, point);
        let ops = program(c.seed + 100 * (cycle as u64 + 1), 6, false);
        match drive(oram.as_mut(), &ops) {
            Err(OramError::Crashed) => {
                let report = oram.recover();
                recovered(c.arm, oram.as_mut(), &report)
                    .map_err(|e| e.at(format!("cycle {cycle} at {point}")))?
            }
            Err(OramError::Poisoned { .. }) if c.arm.damages() => return Ok(()),
            outcome => {
                return Err(format!("cycle {cycle}: {point} never fired: {outcome:?}").into())
            }
        }
    }
    Ok(())
}

/// Whether the Path or Ring row at `seed`, after 30 writes, a crash `k`
/// units into an eviction and `recover`, reads a completed write back
/// wrong.
pub fn loses_a_completed_write(d: Design, seed: u64, k: usize) -> bool {
    let mut oram = d.build(seed);
    for i in 0..30 {
        oram.write(i, payload(i)).unwrap();
    }
    oram.inject_crash(CrashPoint::DuringEviction(k));
    let _ = (0..6).try_for_each(|i| oram.read(i).map(drop));
    if !oram.is_crashed() {
        return false;
    }
    oram.recover();
    (0..30).any(|i| oram.read(i).unwrap() != payload(i))
}

/// A crash wherever one can fire.
fn crash_anywhere(c: &Case) -> Outcome {
    crash_at_step_boundaries(c)?;
    crash_mid_eviction(c)?;
    crash_in_a_small_wpq(c)?;
    crash_on_a_schedule(c)
}

/// What the observer must leave as it found it: the digest, clock and
/// attempts, and every counter the design publishes or keeps.
fn snapshot(oram: &dyn ProtocolPolicy) -> String {
    let mut published = MetricsRegistry::new();
    oram.publish_metrics("", &mut published);
    let state = (oram.state_digest(), oram.clock(), oram.access_attempts());
    let wires = (oram.nvm_stats(), oram.wpq_stats());
    let faults = (oram.device_fault_stats(), oram.freshness_stats());
    format!(
        "{state:?} {wires:?} {faults:?}\n{}",
        published.to_json_string()
    )
}

/// The case's design after 48 mixed accesses and, unless `crash` is
/// `None`, a power failure at that point (or right after the access, when
/// the design has no such point) and `recover`. Two calls build
/// byte-identical instances.
fn observed(c: &Case, crash: Option<CrashPoint>) -> Result<Box<dyn ProtocolPolicy>, Broke> {
    let mut oram = c.build();
    let served = c.serves(oram.as_mut(), &program(c.seed, 48, true))?;
    if let Some(point) = crash.filter(|_| served) {
        oram.inject_crash(point);
        let (addr, bytes) = (c.seed % oram.capacity_blocks(), oram.payload_bytes());
        let outcome = oram.write(addr, vec![0xC5; bytes]);
        if !oram.is_crashed() {
            if outcome.is_err() && oram.poisoned().is_none() {
                return Err(format!("{point}: {outcome:?}").into());
            }
            oram.disarm_crash();
            oram.crash_now();
        }
        oram.recover();
    }
    Ok(oram)
}

/// The address a failed check names first, if it names one.
fn failing_addr(outcome: &Result<(), String>) -> Option<u64> {
    let e = outcome.as_ref().err()?;
    e.strip_prefix('a')?.split_once(':')?.0.parse().ok()
}

/// `verify_contents` on the case's design after `crash` moves nothing;
/// with a `twin`, the design then goes on (a read-back) exactly as a twin
/// never checked; to `agree`, the check equals that read-back: the same
/// `Ok`, or the same first failing address with the same values. The two
/// may differ two ways: the read-back ends in a typed fetch error (the
/// design poisons itself mid-read), or its own earlier reads moved the
/// disputed address — then a read of it issued first, on a fresh build,
/// returns what the check saw, and only a design without crash
/// consistency, after a crash, may leave one. `Ok(true)` if the
/// read-back failed.
fn observe(c: &Case, crash: Option<CrashPoint>, twin: bool, agree: bool) -> Result<bool, Broke> {
    let after_crash = crash.is_some();
    let mut checked = observed(c, crash)?;
    let before = snapshot(checked.as_ref());
    let mut twin = twin.then(|| observed(c, crash)).transpose()?;
    let verdict = checked.verify_contents(after_crash);
    if snapshot(checked.as_ref()) != before {
        return Err("the check moved state".into());
    }
    let was_poisoned = checked.poisoned().is_some();
    let read = read_back(checked.as_mut(), after_crash);
    if let Some(twin) = twin.as_mut() {
        let went_on = read_back(twin.as_mut(), after_crash);
        if went_on != read || snapshot(checked.as_ref()) != snapshot(twin.as_ref()) {
            return Err("the checked design went on unlike its twin".into());
        }
    }
    let fetch_error = read.is_err() && !was_poisoned && checked.poisoned().is_some();
    if !agree || fetch_error || verdict == read {
        return Ok(read.is_err());
    }
    let addrs = failing_addr(&verdict)
        .into_iter()
        .chain(failing_addr(&read));
    let disputed = addrs
        .min()
        .ok_or_else(|| format!("{verdict:?} vs {read:?}"))?;
    let (mut first, mut now) = (observed(c, crash)?, Vec::new());
    first.peek(disputed, &mut now);
    if first.read(disputed) != Ok(now) {
        return Err(format!("a{disputed}: a first read differs").into());
    }
    match !first.crash_consistent() && after_crash {
        true => Ok(read.is_err()),
        false => Err(format!("a{disputed}: {verdict:?} vs {read:?}").into()),
    }
}

/// [`observe`] after no crash and after a power failure at each crash
/// point that fires in the design: its step boundaries and, where it has
/// them, after an eviction's first unit; the read-backs that failed.
fn for_observed_crashes(c: &Case, twin: bool, agree: bool) -> Result<usize, Broke> {
    let mid = c
        .design
        .crashes_mid_eviction()
        .then_some(CrashPoint::DuringEviction(0));
    let points = c.design.step_points().into_iter().chain(mid);
    let mut failed = 0;
    for crash in [None].into_iter().chain(points.map(Some)) {
        let seen = observe(c, crash, twin, agree).map_err(|e| e.at(format!("{crash:?}")))?;
        failed += usize::from(seen);
    }
    Ok(failed)
}

/// The observer clause: `verify_contents` equals a read-back run after
/// it; how many of those read-backs failed.
pub fn observer_agrees_with_a_read_back(c: &Case) -> Result<usize, Broke> {
    for_observed_crashes(c, false, true)
}

/// The observer clause: `verify_contents` changes nothing.
pub fn observer_changes_nothing(c: &Case) -> Outcome {
    for_observed_crashes(c, true, false).map(drop)
}

fn idempotent(c: &Case) -> Outcome {
    let mut oram = c.build();
    if oram.last_recovery().is_some() {
        return Err("a report before any recovery".into());
    }
    if !c.serves(oram.as_mut(), &program(c.seed, 20, true))? {
        return Ok(());
    }
    let digest = oram.state_digest();
    let idle = oram.recover();
    if idle.violation.is_some() || oram.state_digest() != digest {
        return Err(format!("a recover without a crash moved state: {idle:?}").into());
    }
    oram.crash_now();
    let first = oram.recover();
    let failures = oram.shell().ctl.stats().recovery_failures;
    if oram.last_recovery() != Some(&first) || failures != u64::from(!first.consistent) {
        return Err(format!("the report was not kept: {failures} failures").into());
    }
    let ledger = c.design.is_crash_consistent() && !first.poisoned;
    if ledger && first.addresses_checked == 0 {
        return Err("the recovery checked no committed address".into());
    }
    let counted = |o: &dyn ProtocolPolicy| (o.state_digest(), o.shell().ctl.stats().recoveries);
    let once = counted(oram.as_ref());
    if oram.recover() != first || counted(oram.as_ref()) != once {
        return Err("recover twice is not recover once".into());
    }
    if c.arm.damages() || first.poisoned {
        return Ok(());
    }
    oram.crash_now();
    let second = oram.recover();
    match oram.state_digest() == once.0 && second.repairs == 0 && second.rolled_back.is_empty() {
        true => Ok(()),
        false => Err(format!("an idle re-crash moved state: {second:?}").into()),
    }
}

/// After 600 writes over 60 addresses the stash has held fewer than 100
/// blocks and the temporary PosMap fewer than 40 entries at once.
fn bounded(c: &Case) -> Outcome {
    let mut oram = c.build();
    c.serves(oram.as_mut(), &program(c.seed, 600, false))?;
    let (stash, temp) = (
        oram.stash_max_occupancy(),
        oram.shell().temp.max_occupancy(),
    );
    match stash < 100 && temp < 40 {
        true => Ok(()),
        false => Err(format!("stash ran to {stash}, temporary PosMap to {temp}").into()),
    }
}

/// Reads, writes and the contents check are refused while crashed, and
/// reads are served again after `recover`.
pub fn refused_while_crashed(c: &Case) -> Outcome {
    let mut oram = c.build();
    let bytes = oram.payload_bytes();
    oram.write(0, vec![1; bytes]).map_err(|e| e.to_string())?;
    oram.crash_now();
    let refused = Err(OramError::Crashed);
    if oram.read(0).map(drop) != refused || oram.write(0, vec![2; bytes]) != refused {
        return Err("an access was served while crashed".into());
    }
    if oram.verify_contents(true) != Err(OramError::Crashed.to_string()) {
        return Err("the contents check ran while crashed".into());
    }
    oram.recover();
    match oram.read(0) {
        Err(OramError::Poisoned { .. }) if c.arm.damages() => Ok(()),
        outcome => Ok(outcome
            .map(drop)
            .map_err(|e| format!("after recovery: {e}"))?),
    }
}

/// A crash schedule cleared before it comes due never fires.
pub fn cleared_schedules_never_fire(c: &Case) -> Outcome {
    let mut oram = c.build();
    oram.schedule_crash(oram.access_attempts() + 1, c.design.step_points()[0]);
    oram.clear_crash_schedule();
    c.serves(oram.as_mut(), &program(c.seed, 10, false))?;
    match oram.is_crashed() {
        true => Err("a cleared schedule fired".into()),
        false => Ok(()),
    }
}

/// A run with one crash and recovery, told by its outcomes and the state
/// and counters it leaves.
fn traced_run(c: &Case, recorder: Option<Arc<dyn psoram_obsv::Recorder>>) -> String {
    let mut oram = c.build();
    if let Some(recorder) = recorder {
        oram.attach_recorder(recorder);
    }
    let warm = drive(oram.as_mut(), &program(c.seed, 20, false));
    oram.inject_crash(c.design.step_points()[0]);
    let crashed = oram.read(0);
    let report = oram.recover();
    let after = drive(oram.as_mut(), &program(c.seed, 12, true));
    let state = snapshot(oram.as_ref());
    format!("{warm:?} {crashed:?} {after:?}\n{report:?}\n{state}")
}

/// [`traced_run`] into a ring buffer: the run, its events and how many
/// the buffer dropped.
fn traced(c: &Case) -> (String, Vec<Event>, u64) {
    let rec = Arc::new(RingBufferRecorder::new(psoram_obsv::DEFAULT_RING_CAPACITY));
    let run = traced_run(c, Some(rec.clone()));
    (run, rec.events(), rec.dropped())
}

/// The determinism clause: wear stays unarmed until an arm arms it.
pub fn wear_unarmed_until_armed(c: &Case) -> Outcome {
    match matches!(c.arm, Arm::Plain | Arm::Hardened) && c.build().wear_stats().is_some() {
        true => Err("wear is armed by default".into()),
        false => Ok(()),
    }
}

/// The determinism clause: a `NoopRecorder` and a `RingBufferRecorder`
/// leave the run as it is without one, and the second captures events.
pub fn recorders_do_not_perturb(c: &Case) -> Outcome {
    let bare = traced_run(c, None);
    if traced_run(c, Some(Arc::new(NoopRecorder))) != bare {
        return Err("a NoopRecorder changed the run".into());
    }
    match traced(c) {
        (run, events, _) if run == bare && !events.is_empty() => Ok(()),
        _ => Err("a RingBufferRecorder changed the run or captured nothing".into()),
    }
}

/// The determinism clause: two traced runs of one seed are the same.
pub fn runs_repeat(c: &Case) -> Outcome {
    let trace = || {
        let (run, events, _) = traced(c);
        (run, chrome_trace_json(&[(String::new(), events)]))
    };
    match trace() == trace() {
        true => Ok(()),
        false => Err("two traced runs of one seed differ".into()),
    }
}

/// The determinism clause: a trace drops nothing; an access opens and
/// closes in order, with rising indices and cycles; rounds bracket;
/// intervals run forwards; a WPQ holds no more than its capacity; a crash
/// abandons the access and round in flight, and no recovery outruns the
/// crashes. A design that models time (not the toy) shows phases, NVM
/// accesses and, with rounds, WPQ pushes; one with rounds begins them;
/// and, unless the arm damages the media, the run's one crash and one
/// recovery appear, consistent where the row claims it.
pub fn traces_are_well_formed(c: &Case) -> Outcome {
    let (_, events, dropped) = traced(c);
    let (mut open, mut last, mut round, mut crashes) = (None, None, None, 0);
    let (mut recoveries, mut saw) = (Vec::new(), [false; 4]);
    for (i, event) in events.iter().enumerate() {
        let holds = match *event {
            Event::AccessStart { index, cycle } => {
                let after = |(j, c)| index > j && cycle >= c;
                let fresh = open.is_none() && last.is_none_or(after);
                (open, last) = (Some(index), Some((index, cycle)));
                fresh
            }
            Event::AccessEnd { index, cycle } => {
                open.take() == Some(index) && last.is_some_and(|(_, c)| cycle >= c)
            }
            Event::Phase { start, end, .. } => {
                saw[0] = true;
                end >= start
            }
            Event::NvmAccess {
                arrival, complete, ..
            } => {
                saw[1] = true;
                complete >= arrival
            }
            Event::WpqPush {
                occupancy,
                capacity,
                ..
            } => {
                saw[2] = true;
                occupancy <= capacity
            }
            Event::RoundBegin { cycle } => {
                saw[3] = true;
                round.replace(cycle).is_none()
            }
            Event::RoundCommit { cycle, .. } => round.take().is_some_and(|begin| cycle >= begin),
            Event::Crash { .. } => {
                (open, round, crashes) = (None, None, crashes + 1);
                true
            }
            Event::Recovery { consistent, .. } => {
                recoveries.push(consistent);
                recoveries.len() <= crashes
            }
            _ => true,
        };
        if !holds {
            return Err(format!("event {i} breaks the trace's structure: {event:?}").into());
        }
    }
    let (timed, rounds) = (c.design != Design::Toy, c.design.is_hardened());
    let wanted = [timed, timed, timed && rounds, rounds];
    if dropped > 0 || wanted.iter().zip(saw).any(|(&wanted, saw)| wanted && !saw) {
        let kinds = "Phase, NvmAccess, WpqPush, RoundBegin";
        return Err(format!("{dropped} events dropped; saw [{kinds}]: {saw:?}").into());
    }
    let claimed = c.design.is_crash_consistent();
    match (crashes, recoveries.as_slice()) {
        _ if c.arm.damages() => Ok(()),
        (1, [consistent]) if *consistent || !claimed => Ok(()),
        seen => Err(format!("one crash and one consistent recovery expected: {seen:?}").into()),
    }
}

/// Under each fault mix, the adversary keeps its snapshot store exactly
/// when the plan can replay, and the integrity layer arms exactly on the
/// hardened rows — of those `pick` selects.
#[cfg(test)]
pub(crate) fn snapshot_store_exists_only_under_plans_that_replay(pick: fn(Design) -> bool) {
    let splice_only = FaultConfig {
        cross_splice: 1.0,
        ..FaultConfig::disabled()
    };
    let (replay, campaign) = (FaultConfig::replay_mix(), FaultConfig::campaign_default());
    let mixes = [FaultConfig::disabled(), campaign, splice_only, replay];
    for (mix, snapshots) in mixes.into_iter().zip([false, false, false, true]) {
        for d in Design::all().filter(|&d| pick(d)) {
            let mut oram = d.build(9);
            oram.enable_device_faults(9, mix);
            let device = &oram.shell().device;
            assert_eq!(device.replays(), snapshots, "{d:?} {mix:?}");
            assert_eq!(device.auth.is_some(), d.is_hardened(), "{d:?}");
        }
    }
}

/// After a power failure that interrupted a round whose end signal arrived
/// but whose drain did not: the root anchored in the persistence domain
/// covers what the ADR flush programmed, recovery repairs and rolls back
/// nothing, and `addr` commits, and reads, `value`.
#[cfg(test)]
pub(crate) fn the_committed_round_survived(oram: &mut dyn ProtocolPolicy, addr: u64, value: &[u8]) {
    let root = oram.shell().device.auth.as_ref().map(|auth| auth.root());
    assert_eq!(oram.shell().ctl.persisted_root(), root);
    let report = oram.recover();
    assert!(report.consistent, "{:?}", report.violation);
    assert!(!report.poisoned && report.errors.is_empty(), "{report:?}");
    assert_eq!((report.repairs, report.replays_detected), (0, 0));
    let committed = oram.shell().ledger.committed_value(addr).map(Vec::as_slice);
    assert_eq!(committed, Some(value));
    assert_eq!(oram.read(addr).unwrap(), value);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (design, arm, contract) cells the design grids of
    /// `crates/core/tests` ran before the table, each counted once.
    const PARENT_CELLS: usize = 103;

    #[test]
    fn the_grid_does_not_shrink() {
        let cells = cells();
        assert!(
            cells >= PARENT_CELLS,
            "{cells} cells; the grids before ran {PARENT_CELLS}"
        );
    }

    #[test]
    fn factory_builds_matching_labels() {
        for d in Design::all() {
            let t = d.build(1);
            let label = match d {
                Design::Path(v) => format!("path/{}", v.label()),
                Design::Ring(v) => format!("ring/{v}"),
                Design::Toy => "toy".into(),
            };
            assert_eq!(t.label(), label);
            assert_eq!(t.crash_consistent(), d.is_crash_consistent(), "{d:?}");
            let small = if d == Design::Toy { TOY_ADDRS - 1 } else { 16 };
            assert!(t.capacity_blocks() > small, "{d:?}");
        }
    }

    #[test]
    fn variant_serde_round_trips() {
        for d in Design::all() {
            let json = serde_json::to_string(&d).unwrap();
            assert_eq!(serde_json::from_str::<Design>(&json).unwrap(), d);
        }
        let wire = |d| serde_json::to_string(&d).unwrap();
        assert_eq!(
            wire(Design::Path(ProtocolVariant::Baseline)),
            r#"{"Path":"Baseline"}"#
        );
        assert_eq!(
            wire(Design::Ring(RingVariant::PsRing)),
            r#"{"Ring":"PsRing"}"#
        );
    }
}

//! The conformance suite: every contract over the rows of the design
//! table (`psoram_core::testkit`) and the arms it claims the contract
//! under, less the cells a test elsewhere owns, so each cell runs once
//! per `cargo test`. Those are each contract's plain arm — the Path rows'
//! in `controller_tests`, the Ring rows' in `ring_tests`, every row's in
//! `crash_matrix`, `verify_observer` and `obsv_tests`, and the
//! obliviousness and recursion contracts' in the facade's `paper_claims`
//! (the recursion contract claims nothing else) — the Start-Gap
//! crash cells (`crash_matrix`) and the hardened idempotency cells
//! (`device_fault_tests`). A broken cell reads `conformance <contract>
//! <design> <arm> seed N: ...`. The allocation contract needs a counting
//! allocator and is held by `steady_state_allocs`, over the same table.

use psoram_core::testkit::{conform, conform_clause, runs_repeat, Arm, Contract, Design};

/// The non-plain arms, and the toy's plain arm (no other file names the
/// toy's row for read-your-writes, boundedness or repeatable runs).
fn unowned(d: Design, arm: Arm) -> bool {
    arm != Arm::Plain || d == Design::Toy
}

fn armed(_: Design, arm: Arm) -> bool {
    arm != Arm::Plain
}

#[test]
fn read_your_writes() {
    conform(Contract::ReadYourWrites, unowned);
}

#[test]
fn crash_anywhere() {
    conform(Contract::CrashAnywhere, |_, arm| {
        !matches!(arm, Arm::Plain | Arm::StartGap)
    });
}

#[test]
fn observer() {
    conform(Contract::Observer, armed);
}

#[test]
fn idempotent() {
    conform(Contract::Idempotent, |_, arm| {
        !matches!(arm, Arm::Plain | Arm::Hardened)
    });
}

#[test]
fn bounded() {
    conform(Contract::Bounded, unowned);
}

#[test]
fn refusal() {
    conform(Contract::Refusal, armed);
}

#[test]
fn deterministic() {
    conform(Contract::Deterministic, armed);
    conform_clause(Contract::Deterministic, runs_repeat, |d, arm| {
        d == Design::Toy && arm == Arm::Plain
    });
}

#[test]
fn oblivious() {
    conform(Contract::Oblivious, armed);
}

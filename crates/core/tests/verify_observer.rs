//! `verify_contents` observes: it is held to a read-back through the ORAM
//! and to changing nothing — the observer contract's two clauses
//! (`psoram_core::testkit`), here on every row's plain arm; the
//! conformance suite holds the other arms. Some read-back must fail,
//! or the agreement was never tested on a failing case.

use psoram_core::testkit::{
    conform_clause, observer_agrees_with_a_read_back, observer_changes_nothing, plain, tally,
    Contract,
};

#[test]
fn verify_contents_agrees_with_the_read_back_after_it() {
    let failing = tally(Contract::Observer, observer_agrees_with_a_read_back, plain);
    assert!(failing > 0, "no case ever failed its read-back");
}

#[test]
fn verify_contents_changes_nothing() {
    conform_clause(Contract::Observer, observer_changes_nothing, plain);
}

//! The differential oracle: a shadow map of durable truth.
//!
//! The oracle mirrors, outside the ORAM, what a crash-consistent store
//! must preserve. It deliberately shares no state with the controllers'
//! internal ledgers, so it cross-checks them rather than echoing them.
//!
//! Designs differ in *when* a write becomes durable ([`CommitModel`]):
//!
//! * [`CommitModel::OnCompletion`] — a completed write is durably
//!   committed before the access returns: designs with a durable stash
//!   (FullNvm/FullNvmStt), RCR's per-access dirty-stash snapshot, and —
//!   deliberately, as the harness's differential teeth — the
//!   non-persistent baselines. After a crash the address must read back
//!   as exactly its last completed write (or, for the one write in
//!   flight, either its old or its new value — the access is atomic).
//! * [`CommitModel::Deferred`] — a completed write may still sit in
//!   volatile state: Ring ORAM's stash holds writes until the next
//!   evict-path (every `A` accesses), and the WPQ-based Path designs
//!   (PS-ORAM, naive PS-ORAM) can leave a written block in the stash as
//!   an eviction leftover when it loses the greedy placement race. A
//!   crash may then legitimately roll an address back to an *earlier
//!   completed write*.
//!   The oracle then accepts any value from the address's completed-write
//!   history since the last *proven-durable* floor — but never a value
//!   outside that history (torn/corrupted) and never one older than the
//!   floor (resurrection of lost state). Each post-crash observation
//!   advances the floor, ratcheting the guarantee forward.

use std::collections::{BTreeMap, BTreeSet};

pub use psoram_core::engine::CommitModel;

/// A write that was in flight when a crash fired, not yet adjudicated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingWrite {
    /// Target logical address.
    pub addr: u64,
    /// The value the interrupted access tried to commit.
    pub new: Vec<u8>,
}

/// Shadow map of logical address → durably committed value(s).
#[derive(Debug, Clone)]
pub struct ShadowOracle {
    model: CommitModel,
    /// Proven-durable floor per address.
    committed: BTreeMap<u64, Vec<u8>>,
    /// Completed writes newer than the floor, oldest first (only under
    /// [`CommitModel::Deferred`]; empty for `OnCompletion`).
    recent: BTreeMap<u64, Vec<Vec<u8>>>,
    /// Addresses whose *visible* value is unknown since the last crash
    /// (deferred writes may or may not have survived).
    ambiguous: BTreeSet<u64>,
    pending: Option<PendingWrite>,
    zeros: Vec<u8>,
}

impl ShadowOracle {
    /// Creates an oracle for blocks of `payload_bytes` (unwritten
    /// addresses read back as zeros) under the given commit model.
    pub fn new(payload_bytes: usize, model: CommitModel) -> Self {
        ShadowOracle {
            model,
            committed: BTreeMap::new(),
            recent: BTreeMap::new(),
            ambiguous: BTreeSet::new(),
            pending: None,
            zeros: vec![0; payload_bytes],
        }
    }

    /// Declares a write about to be issued. Must be resolved by
    /// [`ShadowOracle::commit_write`] (access completed) or
    /// [`ShadowOracle::resolve_pending`] (access crashed).
    ///
    /// # Panics
    ///
    /// Panics if a previous write is still unresolved — the harness
    /// issues accesses strictly one at a time.
    pub fn begin_write(&mut self, addr: u64, value: Vec<u8>) {
        assert!(
            self.pending.is_none(),
            "write issued while another is unresolved"
        );
        self.pending = Some(PendingWrite { addr, new: value });
    }

    /// The declared write's access completed.
    ///
    /// # Panics
    ///
    /// Panics if no write is pending.
    pub fn commit_write(&mut self) {
        let p = self
            .pending
            .take()
            .expect("commit_write without begin_write");
        match self.model {
            CommitModel::OnCompletion => {
                self.committed.insert(p.addr, p.new);
            }
            CommitModel::Deferred => {
                self.recent.entry(p.addr).or_default().push(p.new);
            }
        }
        // Whatever a crash may have destroyed, this address's visible
        // value is now exactly the write that just completed.
        self.ambiguous.remove(&p.addr);
    }

    /// Notes that a crash fired: under [`CommitModel::Deferred`], every
    /// address with unproven writes becomes ambiguous until re-observed.
    pub fn note_crash(&mut self) {
        if self.model == CommitModel::Deferred {
            self.ambiguous.extend(self.recent.keys().copied());
        }
    }

    /// Whether a crashed write is awaiting adjudication.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Adjudicates a crashed write from its post-recovery read-back.
    ///
    /// # Errors
    ///
    /// Returns a description when `actual` is not an admissible survivor
    /// — a torn or corrupted write.
    ///
    /// # Panics
    ///
    /// Panics if no write is pending.
    pub fn resolve_pending(&mut self, actual: &[u8]) -> Result<(), String> {
        let p = self
            .pending
            .take()
            .expect("resolve_pending without a crashed write");
        if actual == p.new.as_slice() {
            // The interrupted write committed just before the crash.
            self.committed.insert(p.addr, p.new);
            self.recent.remove(&p.addr);
            self.ambiguous.remove(&p.addr);
            return Ok(());
        }
        self.adjudicate(p.addr, actual)
            .map_err(|detail| format!("{detail} (a write of {:?} was in flight)", p.new))
    }

    /// Drops a pending write without adjudication (used when the harness
    /// cannot read the address back, e.g. the run is being abandoned).
    pub fn drop_pending(&mut self) {
        self.pending = None;
    }

    /// Checks an observed read-back value against the shadow, advancing
    /// the proven-durable floor on success.
    ///
    /// # Errors
    ///
    /// Returns a description when the value is inadmissible: a lost
    /// committed value under the strict model, or a value outside the
    /// completed-write history (or older than the proven floor) under the
    /// deferred model.
    pub fn observe(&mut self, addr: u64, actual: &[u8]) -> Result<(), String> {
        if self.ambiguous.contains(&addr) {
            self.adjudicate(addr, actual)
        } else {
            let expected = self.expected_current(addr);
            if actual == expected.as_slice() {
                Ok(())
            } else {
                Err(format!(
                    "a{addr}: read {actual:?}, last completed write was {expected:?}"
                ))
            }
        }
    }

    /// Settles an ambiguous address from a post-crash observation.
    fn adjudicate(&mut self, addr: u64, actual: &[u8]) -> Result<(), String> {
        // Newest surviving write wins: if the observed value matches a
        // completed write, everything older is superseded and everything
        // newer is proven lost (had a newer copy survived, recovery would
        // surface it instead).
        if let Some(history) = self.recent.get(&addr) {
            if history.iter().any(|v| v.as_slice() == actual) {
                self.committed.insert(addr, actual.to_vec());
                self.recent.remove(&addr);
                self.ambiguous.remove(&addr);
                return Ok(());
            }
        }
        let floor = self.committed.get(&addr).unwrap_or(&self.zeros);
        if actual == floor.as_slice() {
            self.recent.remove(&addr);
            self.ambiguous.remove(&addr);
            return Ok(());
        }
        Err(format!(
            "a{addr}: post-crash value {actual:?} is outside the completed-write \
             history (durable floor {floor:?})"
        ))
    }

    /// The value a crash-free read must return: the last completed write.
    fn expected_current(&self, addr: u64) -> &Vec<u8> {
        self.recent
            .get(&addr)
            .and_then(|h| h.last())
            .or_else(|| self.committed.get(&addr))
            .unwrap_or(&self.zeros)
    }

    /// Forces the shadow to the observed value. Used after a *detected*
    /// violation on a non-consistent baseline so the campaign can keep
    /// running without re-reporting the same loss forever.
    pub fn resync(&mut self, addr: u64, actual: &[u8]) {
        self.committed.insert(addr, actual.to_vec());
        self.recent.remove(&addr);
        self.ambiguous.remove(&addr);
    }

    /// Snapshot of `(address, expected crash-free value)` pairs in
    /// deterministic order. The device campaigns use this to re-seed a
    /// replacement controller after a fail-safe poison tear-down — the
    /// simulated analogue of restoring from application-level state after
    /// swapping a failed DIMM.
    pub fn expected_entries(&self) -> Vec<(u64, Vec<u8>)> {
        self.addrs()
            .into_iter()
            .map(|a| (a, self.expected_current(a).clone()))
            .collect()
    }

    /// Addresses with any tracked value, in deterministic order.
    pub fn addrs(&self) -> Vec<u64> {
        self.committed
            .keys()
            .chain(self.recent.keys())
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// Number of addresses tracked.
    pub fn len(&self) -> usize {
        self.addrs().len()
    }

    /// `true` when no address has been written yet.
    pub fn is_empty(&self) -> bool {
        self.committed.is_empty() && self.recent.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_model_committed_then_lost_is_a_violation() {
        let mut o = ShadowOracle::new(4, CommitModel::OnCompletion);
        o.begin_write(3, vec![9; 4]);
        o.commit_write();
        assert!(o.observe(3, &[9; 4]).is_ok());
        assert!(o.observe(3, &[0; 4]).is_err());
    }

    #[test]
    fn crashed_write_may_resolve_old_or_new() {
        let mut o = ShadowOracle::new(4, CommitModel::OnCompletion);
        o.begin_write(1, vec![1; 4]);
        o.commit_write();
        // Crash during an overwrite: old survives...
        o.begin_write(1, vec![2; 4]);
        assert!(o.resolve_pending(&[1; 4]).is_ok());
        assert!(o.observe(1, &[1; 4]).is_ok());
        // ...or the new value committed first.
        o.begin_write(1, vec![3; 4]);
        assert!(o.resolve_pending(&[3; 4]).is_ok());
        assert!(o.observe(1, &[3; 4]).is_ok());
    }

    #[test]
    fn torn_write_is_a_violation_in_both_models() {
        for model in [CommitModel::OnCompletion, CommitModel::Deferred] {
            let mut o = ShadowOracle::new(4, model);
            o.begin_write(5, vec![7; 4]);
            assert!(o.resolve_pending(&[7, 0, 7, 0]).is_err(), "{model:?}");
        }
    }

    #[test]
    fn deferred_model_allows_rollback_within_history_only() {
        let mut o = ShadowOracle::new(4, CommitModel::Deferred);
        o.begin_write(2, vec![1; 4]);
        o.commit_write();
        o.begin_write(2, vec![2; 4]);
        o.commit_write();
        o.note_crash();
        // Rolling back to the first (possibly unevicted) write is fine...
        assert!(o.observe(2, &[1; 4]).is_ok());
        // ...and ratchets the floor: the same rollback observed again
        // without a new crash now violates (value can't flap).
        assert!(o.observe(2, &[0; 4]).is_err());
    }

    #[test]
    fn deferred_model_rejects_values_below_the_proven_floor() {
        let mut o = ShadowOracle::new(4, CommitModel::Deferred);
        o.begin_write(2, vec![1; 4]);
        o.commit_write();
        o.note_crash();
        assert!(o.observe(2, &[1; 4]).is_ok(), "floor proven at [1;4]");
        o.begin_write(2, vec![2; 4]);
        o.commit_write();
        o.note_crash();
        // Zeros are now below the floor: the durable [1;4] was lost.
        assert!(o.observe(2, &[0; 4]).is_err());
    }

    #[test]
    fn completed_write_settles_ambiguity() {
        let mut o = ShadowOracle::new(4, CommitModel::Deferred);
        o.begin_write(4, vec![1; 4]);
        o.commit_write();
        o.note_crash();
        // A fresh completed write pins the visible value again.
        o.begin_write(4, vec![5; 4]);
        o.commit_write();
        assert!(o.observe(4, &[5; 4]).is_ok());
        assert!(
            o.observe(4, &[1; 4]).is_err(),
            "older write can't be visible now"
        );
    }

    #[test]
    fn unwritten_addresses_expect_zeros() {
        let mut o = ShadowOracle::new(2, CommitModel::OnCompletion);
        assert!(o.observe(42, &[0, 0]).is_ok());
        assert!(o.observe(42, &[1, 0]).is_err());
    }
}

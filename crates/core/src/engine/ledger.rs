//! Written-vs-committed value ledgers shared by the controllers'
//! recoverability oracles.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;

use crate::types::{BlockAddr, Leaf};

/// Tracks, per logical address, the last program-*written* value and the
/// last durably *committed* value.
///
/// Committed entries are keyed by the block's monotonic freshness counter
/// (`BlockHeader::seq`): WPQ rounds can commit copies out of order (a
/// backup from an earlier round after the primary from a later one), so
/// an update only lands if it is at least as fresh as what the ledger
/// already holds.
///
/// The ledger is a test oracle over the addresses a run happened to touch,
/// so unlike the controller's position-indexed tables it stays hashed:
/// dense pages here would be paid by every live instance for addresses it
/// never commits (DESIGN.md has the measured cost).
#[derive(Debug, Default)]
pub struct CommitLedger {
    /// Last value written by the program, per address.
    written: HashMap<u64, Vec<u8>>,
    /// Last durably committed value, keyed by freshness counter.
    committed: HashMap<u64, (u64, Vec<u8>)>,
    /// Addresses written since the last recovery; `None` before the
    /// first, when every write is.
    written_since_recovery: Option<HashSet<u64>>,
}

impl CommitLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the program-visible write of `value` to `addr`. Like
    /// [`CommitLedger::commit_if_fresh`], the value is copied into the
    /// entry's own buffer: re-writing an address allocates nothing.
    pub fn note_written(&mut self, addr: u64, value: &[u8]) {
        match self.written.entry(addr) {
            Entry::Occupied(mut held) => overwrite(held.get_mut(), value),
            Entry::Vacant(slot) => {
                slot.insert(value.to_vec());
            }
        }
        if let Some(since) = &mut self.written_since_recovery {
            since.insert(addr);
        }
    }

    /// A recovery ran: what it restored — the committed value — is what
    /// every address must read until it is written again
    /// ([`CommitLedger::expected`]).
    pub(super) fn recovered(&mut self) {
        self.written_since_recovery
            .get_or_insert_with(HashSet::new)
            .clear();
    }

    /// Records that a copy of `addr` with freshness `seq` committed
    /// durably, unless a strictly fresher commit is already recorded.
    /// Returns `true` if the entry landed. The payload is copied into the
    /// entry's own buffer, so re-committing an address allocates nothing.
    pub fn commit_if_fresh(&mut self, addr: u64, seq: u64, payload: &[u8]) -> bool {
        match self.committed.entry(addr) {
            Entry::Occupied(held) if held.get().0 > seq => false,
            Entry::Occupied(mut held) => {
                let (held_seq, held_payload) = held.get_mut();
                *held_seq = seq;
                overwrite(held_payload, payload);
                true
            }
            Entry::Vacant(slot) => {
                slot.insert((seq, payload.to_vec()));
                true
            }
        }
    }

    /// The last durably committed value of `addr`, if any.
    pub fn committed_value(&self, addr: u64) -> Option<&Vec<u8>> {
        self.committed.get(&addr).map(|(_, v)| v)
    }

    /// The last program-written value of `addr`, if any.
    pub fn written_value(&self, addr: u64) -> Option<&Vec<u8>> {
        self.written.get(&addr)
    }

    /// Number of addresses with a committed value.
    pub fn committed_len(&self) -> usize {
        self.committed.len()
    }

    /// Iterates over `(addr, committed_value)` pairs: in no particular
    /// order, but the same one until the ledger next changes.
    pub fn committed_iter(&self) -> impl Iterator<Item = (u64, &Vec<u8>)> {
        self.committed.iter().map(|(&a, (_, v))| (a, v))
    }

    /// `(addr, committed_value)` pairs in ascending address order: the
    /// order in which the audit reports, listed and sorted — what debug
    /// builds walk the whole ledger in beside the recovery's audit, which
    /// sorts only what it reports.
    pub(super) fn committed_sorted(&self) -> Vec<(u64, &Vec<u8>)> {
        let mut v: Vec<(u64, &Vec<u8>)> = self.committed_iter().collect();
        v.sort_unstable_by_key(|(a, _)| *a);
        v
    }

    /// The value a read of `addr` must return. Without `after_crash`, the
    /// last written value: nothing was lost. With it, what the last
    /// recovery restored — the committed value — unless the address was
    /// written since, and then that write; before any recovery the two
    /// agree. `None` when the ledger holds nothing, and the read must
    /// return zeros.
    pub fn expected(&self, addr: u64, after_crash: bool) -> Option<&[u8]> {
        let since = self.written_since_recovery.as_ref();
        let current = !after_crash || since.is_none_or(|since| since.contains(&addr));
        match self.written.get(&addr).filter(|_| current) {
            Some(v) => Some(v.as_slice()),
            None if after_crash => self.committed_value(addr).map(Vec::as_slice),
            None => None,
        }
    }

    /// Every inconsistency of the shared recoverability audit among
    /// `rows` — `(addr, committed_value)` pairs: all of
    /// [`CommitLedger::committed_iter`] or [`CommitLedger::committed_sorted`],
    /// or a part of either — lazily and in that order: a committed address
    /// must have a physical copy at its persisted PosMap position holding
    /// exactly the committed value.
    ///
    /// `copy_at` is handed a row's number and address; it reports the
    /// persisted leaf of the address and whether a matching copy was found
    /// there, writing the newest one's plaintext payload into the (empty)
    /// buffer it is handed — one buffer serves the whole audit.
    /// `durable_copy` is what a durable-stash design holds of an address
    /// outside the tree: if that is the last written value, the address
    /// is satisfied by it alone. `desc` names the copy in violation
    /// messages (e.g. `"recoverable copy"`).
    pub(super) fn violations<'a>(
        &'a self,
        rows: impl IntoIterator<Item = (u64, &'a Vec<u8>)> + 'a,
        desc: &'a str,
        mut copy_at: impl FnMut(usize, u64, &mut Vec<u8>) -> (Leaf, bool) + 'a,
        mut durable_copy: impl FnMut(u64) -> Option<&'a [u8]> + 'a,
    ) -> impl Iterator<Item = (u64, String)> + 'a {
        let mut found = Vec::new();
        let rows = rows.into_iter().enumerate();
        rows.filter_map(move |row| {
            let miss = self.miss(row, &mut found, &mut copy_at, &mut durable_copy)?;
            let (_, (a, expected)) = row;
            Some((a, complaint(a, desc, miss, &found, expected)))
        })
    }

    /// The violation among `rows` with the lowest address — the first
    /// [`CommitLedger::violations`] would yield of them sorted — without
    /// sorting them or wording any other complaint.
    pub(super) fn lowest_violation<'a>(
        &'a self,
        rows: impl IntoIterator<Item = (u64, &'a Vec<u8>)>,
        desc: &str,
        mut copy_at: impl FnMut(usize, u64, &mut Vec<u8>) -> (Leaf, bool),
        mut durable_copy: impl FnMut(u64) -> Option<&'a [u8]>,
    ) -> Option<(u64, String)> {
        let mut found = Vec::new();
        let mut failing = |row| self.miss(row, &mut found, &mut copy_at, &mut durable_copy);
        let rows = rows.into_iter().enumerate();
        let lowest = rows
            .filter(|&row| failing(row).is_some())
            .min_by_key(|&(_, (a, _))| a)?;
        let miss = failing(lowest)?;
        let (_, (a, expected)) = lowest;
        Some((a, complaint(a, desc, miss, &found, expected)))
    }

    /// How row number `row` — `a`, committed as `expected` — fails the
    /// audit, if it does: the persisted leaf of `a` and whether a copy was
    /// found there, the copy's plaintext left in `found`.
    fn miss<'a>(
        &self,
        (row, (a, expected)): (usize, (u64, &Vec<u8>)),
        found: &mut Vec<u8>,
        copy_at: &mut impl FnMut(usize, u64, &mut Vec<u8>) -> (Leaf, bool),
        durable_copy: &mut impl FnMut(u64) -> Option<&'a [u8]>,
    ) -> Option<(Leaf, bool)> {
        if durable_copy(a).is_some_and(|held| held == self.written_value(a).unwrap_or(expected)) {
            return None;
        }
        found.clear();
        let (leaf, present) = copy_at(row, a, found);
        (!present || found != expected).then_some((leaf, present))
    }

    /// Rolls the committed record of `addr` back to `survivor` — the
    /// newest copy recovery could still authenticate — or forgets the
    /// address entirely when no copy survived. Detected, typed data
    /// regression; never called outside device-fault recovery.
    pub fn rollback(&mut self, addr: u64, survivor: Option<(u64, Vec<u8>)>) {
        match survivor {
            Some((seq, payload)) => {
                self.committed.insert(addr, (seq, payload));
            }
            None => {
                self.committed.remove(&addr);
            }
        }
    }
}

/// The audit's complaint about `a`, which [`CommitLedger::miss`]
/// found `found` of, or nothing, at its persisted `leaf`.
fn complaint(
    a: u64,
    desc: &str,
    (leaf, present): (Leaf, bool),
    found: &[u8],
    expected: &[u8],
) -> String {
    let addr = BlockAddr(a);
    if present {
        format!("{addr}: {desc} at {leaf} holds {found:?}, expected {expected:?}")
    } else {
        format!("{addr}: no {desc} on persisted path {leaf}")
    }
}

/// Replaces the contents of `held` with `value`, keeping its allocation.
fn overwrite(held: &mut Vec<u8>, value: &[u8]) {
    held.clear();
    held.extend_from_slice(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_commits_cannot_regress_the_ledger() {
        let mut l = CommitLedger::new();
        assert!(l.commit_if_fresh(7, 5, &[5]));
        assert!(!l.commit_if_fresh(7, 3, &[3]), "older seq must be rejected");
        assert_eq!(l.committed_value(7), Some(&vec![5]));
        // Equal freshness re-commits (idempotent replay of the same copy).
        assert!(l.commit_if_fresh(7, 5, &[5]));
        assert!(l.commit_if_fresh(7, 9, &[9]));
        assert_eq!(l.committed_value(7), Some(&vec![9]));
        assert_eq!(l.committed_len(), 1);
    }

    #[test]
    fn audit_collect_reports_every_failure_sorted() {
        let mut l = CommitLedger::new();
        l.commit_if_fresh(5, 0, &[5]);
        l.commit_if_fresh(2, 0, &[2]);
        l.commit_if_fresh(9, 0, &[9]);
        l.note_written(2, &[3]);
        let rows = l.committed_sorted();
        assert_eq!(rows, vec![(2, &vec![2]), (5, &vec![5]), (9, &vec![9])]);
        let copy_at = |row: usize, a: u64, found: &mut Vec<u8>| {
            assert_eq!(rows[row].0, a, "a row's number travels with its address");
            found.push(2);
            (Leaf(0), a != 5)
        };
        let failures: Vec<_> = l
            .violations(rows.clone(), "copy", copy_at, |_| None)
            .collect();
        assert_eq!(
            failures,
            vec![
                (5, "a5: no copy on persisted path l0".to_string()),
                (9, "a9: copy at l0 holds [2], expected [9]".to_string()),
            ]
        );
        // The lowest alone, from rows in the ledger's own order or a part
        // of them.
        let by_addr = |_, a: u64, found: &mut Vec<u8>| {
            found.push(2);
            (Leaf(0), a != 5)
        };
        let lowest = l.lowest_violation(l.committed_iter(), "copy", by_addr, |_| None);
        assert_eq!(lowest.as_ref(), failures.first());
        let part = l.committed_iter().filter(|&(a, _)| a != 5);
        let lowest = l.lowest_violation(part, "copy", by_addr, |_| None);
        assert_eq!(lowest.as_ref(), failures.get(1));
        // A durable copy satisfies its address when it holds the last
        // written value (the committed one if nothing was written since).
        let held = |a: u64| match a {
            2 => Some(&[3u8][..]),
            5 => Some(&[5][..]),
            _ => Some(&[0][..]),
        };
        let failed: Vec<u64> =
            (l.violations(rows.clone(), "copy", |_, _, _| (Leaf(0), false), held))
                .map(|(a, _)| a)
                .collect();
        assert_eq!(
            failed,
            vec![9],
            "a2 by its written value, a5 by its committed one"
        );
        let absent = |_, _, _: &mut Vec<u8>| (Leaf(0), false);
        let lowest = l.lowest_violation(l.committed_iter(), "copy", absent, held);
        assert_eq!(lowest.map(|(a, _)| a), Some(9));
    }

    #[test]
    fn rollback_regresses_or_forgets() {
        let mut l = CommitLedger::new();
        l.commit_if_fresh(1, 8, &[8]);
        l.rollback(1, Some((3, vec![3])));
        assert_eq!(l.committed_value(1), Some(&vec![3]));
        l.rollback(1, None);
        assert_eq!(l.committed_value(1), None);
        // Forgetting one address leaves the others as they were.
        for a in [2, 3, 4] {
            l.commit_if_fresh(a, a, &[a as u8]);
        }
        l.rollback(2, None);
        l.rollback(9, None);
        assert_eq!(l.committed_value(2), None);
        assert_eq!(l.committed_value(3), Some(&vec![3]));
        assert_eq!(l.committed_value(4), Some(&vec![4]));
        assert_eq!(l.committed_sorted(), vec![(3, &vec![3]), (4, &vec![4])]);
    }

    #[test]
    fn after_a_recovery_an_address_reads_what_it_restored_until_written() {
        let mut l = CommitLedger::new();
        l.note_written(1, &[1]);
        l.note_written(2, &[2]);
        l.commit_if_fresh(1, 0, &[1]);
        // Before any recovery both expectations are the last write.
        assert_eq!(l.expected(2, true), Some(&[2][..]));
        l.recovered();
        // The uncommitted write of 2 is lost; the committed 1 survived.
        assert_eq!(l.expected(1, true), Some(&[1][..]));
        assert_eq!(l.expected(2, true), None);
        assert_eq!(l.expected(2, false), Some(&[2][..]), "nothing lost");
        // Served on: a write after the recovery is expected before it
        // commits.
        l.note_written(2, &[4]);
        assert_eq!(l.expected(2, true), Some(&[4][..]));
        assert_eq!(l.written_value(2), Some(&vec![4]));
        // The next recovery loses it too, had it not committed.
        l.recovered();
        assert_eq!(l.expected(2, true), None);
        assert_eq!(l.expected(1, true), Some(&[1][..]));
    }

    #[test]
    fn written_and_committed_are_independent() {
        let mut l = CommitLedger::new();
        l.note_written(1, &[1]);
        l.note_written(1, &[1]);
        assert_eq!(l.written_value(1), Some(&vec![1]));
        assert_eq!(l.committed_value(1), None);
        assert_eq!(l.committed_iter().count(), 0);
    }
}

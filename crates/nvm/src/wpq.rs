//! The ADR persistence domain: write pending queues with atomic batches.
//!
//! Intel ADR guarantees that, on a power failure, the contents of the
//! memory controller's write pending queues (WPQs) are flushed to the NVM.
//! PS-ORAM places *two* WPQs inside this domain — one for evicted data
//! blocks and one for dirty PosMap entries — and a **drainer** that brackets
//! each eviction round between a `start` and an `end` signal sent to both
//! queues (paper §4.1–4.2, steps 5-B/5-C). Entries of a round become durable
//! *atomically* when the `end` signal is observed; a crash before `end`
//! discards the whole round from both queues, so data and metadata can never
//! persist half-updated.
//!
//! The queues hold entries and nothing else. What a crash's device faults
//! do to the round whose media programming it interrupts (a torn flush, a
//! lost or doubled end signal, bit rot; [`crate::FaultPlan::round_fate`])
//! is drawn and applied once, by the persist engine in `psoram-core`, over
//! the units that round listed.

use psoram_obsv::{Event, QueueKind, Tap};
use serde::{Deserialize, Serialize};

/// An entry queued for persistence in a WPQ.
///
/// The queue is generic in its payload; the ORAM controller uses one
/// instantiation for 64 B data blocks and one for PosMap entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WpqEntry<T> {
    /// NVM destination address of the entry.
    pub addr: u64,
    /// The value to persist.
    pub value: T,
}

/// Errors returned by the WPQ batch protocol.
///
/// The drainer protocol is strictly bracketed (`start`, pushes, `end`);
/// violations and capacity exhaustion surface as typed errors rather than
/// panics so a controller can stall and retry (see
/// [`WpqStats::full_rejections`] / [`WpqStats::protocol_errors`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WpqError {
    /// `start` signal while a batch is already open.
    BatchAlreadyOpen,
    /// Push or `end` signal with no batch open.
    NoBatchOpen,
    /// The queue is at capacity; the caller must drain (or split the
    /// eviction round) before retrying.
    Full {
        /// Capacity of the queue that rejected the push.
        capacity: usize,
    },
}

impl std::fmt::Display for WpqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WpqError::BatchAlreadyOpen => write!(f, "WPQ start signal while a batch is open"),
            WpqError::NoBatchOpen => write!(f, "WPQ push or end signal outside a batch"),
            WpqError::Full { capacity } => {
                write!(f, "write pending queue full (capacity {capacity})")
            }
        }
    }
}

impl std::error::Error for WpqError {}

/// A bounded write pending queue with start/end-signalled atomic batches.
///
/// Entries pushed between [`Wpq::begin_batch`] and [`Wpq::end_batch`] become
/// durable together. [`Wpq::crash`] models a power failure: committed
/// entries are flushed by the ADR energy reserve and returned; the open
/// (uncommitted) batch is lost.
///
/// # Examples
///
/// ```
/// use psoram_nvm::{Wpq, WpqEntry};
///
/// let mut q: Wpq<u32> = Wpq::new(4);
/// q.begin_batch().unwrap();
/// q.push(WpqEntry { addr: 0x40, value: 7 }).unwrap();
/// q.end_batch().unwrap();
/// q.begin_batch().unwrap();
/// q.push(WpqEntry { addr: 0x80, value: 9 }).unwrap();
/// // Crash before the second end signal: only the first batch survives.
/// let survivors = q.crash();
/// assert_eq!(survivors.len(), 1);
/// assert_eq!(survivors[0].value, 7);
/// ```
#[derive(Debug, Clone)]
pub struct Wpq<T> {
    capacity: usize,
    committed: Vec<WpqEntry<T>>,
    open: Vec<WpqEntry<T>>,
    in_batch: bool,
    stats: WpqStats,
    tap: Tap,
    kind: QueueKind,
}

/// Occupancy and throughput statistics for a WPQ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WpqStats {
    /// Total entries ever pushed.
    pub entries_pushed: u64,
    /// Batches committed via the end signal.
    pub batches_committed: u64,
    /// Entries drained to NVM during normal operation.
    pub entries_drained: u64,
    /// High-water mark of total queue occupancy.
    pub max_occupancy: usize,
    /// Pushes rejected because the queue was at capacity (each one is a
    /// controller stall-and-retry).
    pub full_rejections: u64,
    /// Batch-protocol violations (double start, push/end without start).
    pub protocol_errors: u64,
}

impl psoram_obsv::MetricsSource for WpqStats {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "entries_pushed"), self.entries_pushed);
        reg.set_counter(&R::key(prefix, "batches_committed"), self.batches_committed);
        reg.set_counter(&R::key(prefix, "entries_drained"), self.entries_drained);
        reg.set_counter(&R::key(prefix, "max_occupancy"), self.max_occupancy as u64);
        reg.set_counter(&R::key(prefix, "full_rejections"), self.full_rejections);
        reg.set_counter(&R::key(prefix, "protocol_errors"), self.protocol_errors);
    }
}

impl<T> Wpq<T> {
    /// Creates an empty queue holding at most `capacity` entries
    /// (committed + open combined).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "WPQ capacity must be positive");
        Wpq {
            capacity,
            committed: Vec::new(),
            open: Vec::new(),
            in_batch: false,
            stats: WpqStats::default(),
            tap: Tap::detached(),
            kind: QueueKind::Data,
        }
    }

    /// Wires an observability tap into this queue, tagging its events
    /// with `kind`. Purely observational: the queue behaves identically
    /// with or without a tap.
    pub fn set_tap(&mut self, tap: Tap, kind: QueueKind) {
        self.tap = tap;
        self.kind = kind;
    }

    /// Starts a new atomic batch (the drainer's `start` signal).
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::BatchAlreadyOpen`] if a batch is already open —
    /// the drainer protocol is strictly bracketed.
    pub fn begin_batch(&mut self) -> Result<(), WpqError> {
        if self.in_batch {
            self.stats.protocol_errors += 1;
            return Err(WpqError::BatchAlreadyOpen);
        }
        self.in_batch = true;
        Ok(())
    }

    /// Queues an entry in the open batch.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::Full`] if the queue is at capacity (the caller
    /// must drain or split the eviction round before retrying) and
    /// [`WpqError::NoBatchOpen`] if no batch is open.
    pub fn push(&mut self, entry: WpqEntry<T>) -> Result<(), WpqError> {
        if !self.in_batch {
            self.stats.protocol_errors += 1;
            return Err(WpqError::NoBatchOpen);
        }
        if self.len() >= self.capacity {
            self.stats.full_rejections += 1;
            self.tap.emit(|| Event::WpqReject {
                queue: self.kind,
                capacity: self.capacity as u64,
                cycle: self.tap.now(),
            });
            return Err(WpqError::Full {
                capacity: self.capacity,
            });
        }
        self.open.push(entry);
        self.stats.entries_pushed += 1;
        self.stats.max_occupancy = self.stats.max_occupancy.max(self.len());
        self.tap.emit(|| Event::WpqPush {
            queue: self.kind,
            occupancy: self.len() as u64,
            capacity: self.capacity as u64,
            cycle: self.tap.now(),
        });
        Ok(())
    }

    /// Commits the open batch (the drainer's `end` signal); its entries are
    /// now inside the persistence guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::NoBatchOpen`] if no batch is open.
    pub fn end_batch(&mut self) -> Result<(), WpqError> {
        if !self.in_batch {
            self.stats.protocol_errors += 1;
            return Err(WpqError::NoBatchOpen);
        }
        self.in_batch = false;
        self.committed.append(&mut self.open);
        self.stats.batches_committed += 1;
        Ok(())
    }

    /// Discards the open batch and closes it without committing (used to
    /// back out of a half-assembled round, e.g. when the paired queue of a
    /// persistence domain rejected its `start` signal).
    pub fn abort_batch(&mut self) {
        self.open.clear();
        self.in_batch = false;
    }

    /// Drains all committed entries for writing to the NVM (normal-operation
    /// flush, step 5-C).
    pub fn drain_committed(&mut self) -> Vec<WpqEntry<T>> {
        let mut out = Vec::new();
        self.drain_committed_into(&mut out);
        out
    }

    /// [`Wpq::drain_committed`] appending to a buffer the caller reuses:
    /// the queue and the buffer both keep their capacity, so a steady
    /// commit-drain cycle allocates nothing.
    pub fn drain_committed_into(&mut self, out: &mut Vec<WpqEntry<T>>) {
        self.stats.entries_drained += self.committed.len() as u64;
        self.tap.emit(|| Event::WpqDrain {
            queue: self.kind,
            drained: self.committed.len() as u64,
            cycle: self.tap.now(),
        });
        out.append(&mut self.committed);
    }

    /// Models a power failure: returns the entries the ADR energy reserve
    /// flushes to NVM (all committed entries) and discards the open batch.
    pub fn crash(&mut self) -> Vec<WpqEntry<T>> {
        self.open.clear();
        self.in_batch = false;
        std::mem::take(&mut self.committed)
    }

    /// Entries currently queued (committed + open).
    pub fn len(&self) -> usize {
        self.committed.len() + self.open.len()
    }

    /// Entries in the currently open (uncommitted) batch.
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// `true` when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining capacity before [`Wpq::push`] fails.
    pub fn remaining(&self) -> usize {
        self.capacity - self.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// `true` while a batch is open (between start and end signals).
    pub fn in_batch(&self) -> bool {
        self.in_batch
    }

    /// Occupancy/throughput statistics.
    pub fn stats(&self) -> WpqStats {
        self.stats
    }
}

/// The PS-ORAM persistence domain: the drainer plus both WPQs.
///
/// The drainer issues `start`/`end` signals to the **data-block WPQ** and
/// the **PosMap WPQ** simultaneously, which is what makes an ORAM eviction
/// round's data and metadata persist atomically (design requirement §3.2).
///
/// # Examples
///
/// ```
/// use psoram_nvm::{PersistenceDomain, WpqEntry};
///
/// let mut pd: PersistenceDomain<[u8; 8], u32> = PersistenceDomain::new(96, 96);
/// pd.begin_round().unwrap();
/// pd.push_data(WpqEntry { addr: 0x40, value: [1; 8] }).unwrap();
/// pd.push_posmap(WpqEntry { addr: 0x99, value: 5 }).unwrap();
/// pd.commit_round().unwrap();
/// let (data, posmap) = pd.drain();
/// assert_eq!(data.len(), 1);
/// assert_eq!(posmap.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PersistenceDomain<D, P> {
    data_wpq: Wpq<D>,
    posmap_wpq: Wpq<P>,
}

impl<D, P> PersistenceDomain<D, P> {
    /// Creates a persistence domain with the given WPQ capacities.
    ///
    /// The paper sizes both at 96 entries for the full-path configuration
    /// and studies a 4-entry variant (§4.2.3).
    pub fn new(data_capacity: usize, posmap_capacity: usize) -> Self {
        PersistenceDomain {
            data_wpq: Wpq::new(data_capacity),
            posmap_wpq: Wpq::new(posmap_capacity),
        }
    }

    /// Drainer `start` signal to both queues.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::BatchAlreadyOpen`] if either queue already has an
    /// open batch; both queues are left batch-closed on error so the domain
    /// never ends up with only one side open.
    pub fn begin_round(&mut self) -> Result<(), WpqError> {
        self.data_wpq.begin_batch()?;
        if let Err(e) = self.posmap_wpq.begin_batch() {
            self.data_wpq.abort_batch();
            return Err(e);
        }
        Ok(())
    }

    /// Queues a data block for persistence.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::Full`] when the data WPQ is full and
    /// [`WpqError::NoBatchOpen`] outside a round.
    pub fn push_data(&mut self, entry: WpqEntry<D>) -> Result<(), WpqError> {
        self.data_wpq.push(entry)
    }

    /// Queues a PosMap entry for persistence.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::Full`] when the PosMap WPQ is full and
    /// [`WpqError::NoBatchOpen`] outside a round.
    pub fn push_posmap(&mut self, entry: WpqEntry<P>) -> Result<(), WpqError> {
        self.posmap_wpq.push(entry)
    }

    /// Drainer `end` signal to both queues — the atomic commit point of an
    /// eviction round.
    ///
    /// # Errors
    ///
    /// Returns [`WpqError::NoBatchOpen`] if no round is open (neither queue
    /// commits in that case).
    pub fn commit_round(&mut self) -> Result<(), WpqError> {
        if !self.data_wpq.in_batch() || !self.posmap_wpq.in_batch() {
            // Count the violation on the queue(s) that would have rejected
            // the end signal, but commit neither: the round must be atomic.
            if !self.data_wpq.in_batch() {
                self.data_wpq.stats.protocol_errors += 1;
            }
            if !self.posmap_wpq.in_batch() {
                self.posmap_wpq.stats.protocol_errors += 1;
            }
            return Err(WpqError::NoBatchOpen);
        }
        self.data_wpq.end_batch()?;
        self.posmap_wpq.end_batch()
    }

    /// Drains both queues for the NVM writeback (step 5-C).
    pub fn drain(&mut self) -> (Vec<WpqEntry<D>>, Vec<WpqEntry<P>>) {
        (
            self.data_wpq.drain_committed(),
            self.posmap_wpq.drain_committed(),
        )
    }

    /// [`PersistenceDomain::drain`] appending to buffers the caller reuses.
    pub fn drain_into(&mut self, data: &mut Vec<WpqEntry<D>>, posmap: &mut Vec<WpqEntry<P>>) {
        self.data_wpq.drain_committed_into(data);
        self.posmap_wpq.drain_committed_into(posmap);
    }

    /// Models a crash: both queues keep exactly their committed rounds.
    pub fn crash(&mut self) -> (Vec<WpqEntry<D>>, Vec<WpqEntry<P>>) {
        (self.data_wpq.crash(), self.posmap_wpq.crash())
    }

    /// Wires an observability tap into both queues (data and PosMap
    /// events are tagged with their [`QueueKind`]).
    pub fn set_tap(&mut self, tap: Tap) {
        self.data_wpq.set_tap(tap.clone(), QueueKind::Data);
        self.posmap_wpq.set_tap(tap, QueueKind::PosMap);
    }

    /// The data-block WPQ.
    pub fn data_wpq(&self) -> &Wpq<D> {
        &self.data_wpq
    }

    /// The PosMap WPQ.
    pub fn posmap_wpq(&self) -> &Wpq<P> {
        &self.posmap_wpq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_entries_survive_crash_uncommitted_do_not() {
        let mut q: Wpq<u8> = Wpq::new(8);
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 1, value: 1 }).unwrap();
        q.push(WpqEntry { addr: 2, value: 2 }).unwrap();
        q.end_batch().unwrap();
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 3, value: 3 }).unwrap();
        let survivors = q.crash();
        assert_eq!(
            survivors.iter().map(|e| e.addr).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert!(q.is_empty());
        assert!(!q.in_batch());
    }

    #[test]
    fn push_respects_capacity() {
        let mut q: Wpq<u8> = Wpq::new(2);
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 1, value: 1 }).unwrap();
        q.push(WpqEntry { addr: 2, value: 2 }).unwrap();
        let err = q.push(WpqEntry { addr: 3, value: 3 }).unwrap_err();
        assert_eq!(err, WpqError::Full { capacity: 2 });
        assert_eq!(q.stats().full_rejections, 1);
        // The queue survives the rejection and keeps working.
        q.end_batch().unwrap();
        assert_eq!(q.drain_committed().len(), 2);
    }

    #[test]
    fn double_start_signal_is_a_typed_error() {
        let mut q: Wpq<u8> = Wpq::new(2);
        q.begin_batch().unwrap();
        assert_eq!(q.begin_batch().unwrap_err(), WpqError::BatchAlreadyOpen);
        assert_eq!(q.stats().protocol_errors, 1);
        assert!(q.in_batch(), "failed start must not close the open batch");
    }

    #[test]
    fn push_and_end_without_start_are_typed_errors() {
        let mut q: Wpq<u8> = Wpq::new(2);
        assert_eq!(
            q.push(WpqEntry { addr: 1, value: 1 }).unwrap_err(),
            WpqError::NoBatchOpen
        );
        assert_eq!(q.end_batch().unwrap_err(), WpqError::NoBatchOpen);
        assert_eq!(q.stats().protocol_errors, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn abort_batch_discards_open_entries_only() {
        let mut q: Wpq<u8> = Wpq::new(4);
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 1, value: 1 }).unwrap();
        q.end_batch().unwrap();
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 2, value: 2 }).unwrap();
        q.abort_batch();
        assert!(!q.in_batch());
        let committed = q.drain_committed();
        assert_eq!(
            committed.iter().map(|e| e.addr).collect::<Vec<_>>(),
            vec![1]
        );
    }

    #[test]
    fn domain_round_errors_keep_queues_in_lockstep() {
        let mut pd: PersistenceDomain<u8, u8> = PersistenceDomain::new(4, 4);
        assert_eq!(pd.commit_round().unwrap_err(), WpqError::NoBatchOpen);
        pd.begin_round().unwrap();
        assert_eq!(pd.begin_round().unwrap_err(), WpqError::BatchAlreadyOpen);
        assert!(pd.data_wpq().in_batch() && pd.posmap_wpq().in_batch());
        pd.commit_round().unwrap();
        assert!(!pd.data_wpq().in_batch() && !pd.posmap_wpq().in_batch());
    }

    #[test]
    fn drain_clears_committed_and_counts() {
        let mut q: Wpq<u8> = Wpq::new(4);
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 1, value: 1 }).unwrap();
        q.end_batch().unwrap();
        let drained = q.drain_committed();
        assert_eq!(drained.len(), 1);
        assert!(q.is_empty());
        assert_eq!(q.stats().entries_drained, 1);
        assert_eq!(q.stats().batches_committed, 1);
    }

    #[test]
    fn max_occupancy_tracks_high_water_mark() {
        let mut q: Wpq<u8> = Wpq::new(8);
        q.begin_batch().unwrap();
        for i in 0..5 {
            q.push(WpqEntry {
                addr: i,
                value: i as u8,
            })
            .unwrap();
        }
        q.end_batch().unwrap();
        q.drain_committed();
        assert_eq!(q.stats().max_occupancy, 5);
    }

    #[test]
    fn domain_crash_is_atomic_across_both_queues() {
        let mut pd: PersistenceDomain<u8, u8> = PersistenceDomain::new(8, 8);
        // Round 1: committed.
        pd.begin_round().unwrap();
        pd.push_data(WpqEntry { addr: 1, value: 1 }).unwrap();
        pd.push_posmap(WpqEntry {
            addr: 10,
            value: 10,
        })
        .unwrap();
        pd.commit_round().unwrap();
        // Round 2: open at crash time.
        pd.begin_round().unwrap();
        pd.push_data(WpqEntry { addr: 2, value: 2 }).unwrap();
        pd.push_posmap(WpqEntry {
            addr: 20,
            value: 20,
        })
        .unwrap();
        let (data, posmap) = pd.crash();
        // Either both of a round's sides persist or neither does.
        assert_eq!(data.len(), 1);
        assert_eq!(posmap.len(), 1);
        assert_eq!(data[0].addr, 1);
        assert_eq!(posmap[0].addr, 10);
    }

    #[test]
    fn remaining_capacity_reported() {
        let mut q: Wpq<u8> = Wpq::new(4);
        assert_eq!(q.remaining(), 4);
        q.begin_batch().unwrap();
        q.push(WpqEntry { addr: 1, value: 1 }).unwrap();
        assert_eq!(q.remaining(), 3);
        assert_eq!(q.capacity(), 4);
    }

    #[test]
    fn wpq_error_displays() {
        assert!(WpqError::Full { capacity: 4 }
            .to_string()
            .contains("capacity 4"));
        assert!(WpqError::BatchAlreadyOpen
            .to_string()
            .contains("start signal"));
        assert!(WpqError::NoBatchOpen
            .to_string()
            .contains("outside a batch"));
    }
}

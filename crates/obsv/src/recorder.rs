//! Event sinks: the [`Recorder`] trait and its two implementations.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::event::Event;

/// A sink for typed simulator events.
///
/// Recorders are shared behind `Arc<dyn Recorder>` and may be hit from
/// several worker threads (each design in a parallel campaign gets its
/// *own* recorder, but the trait stays `Send + Sync` so sharing is
/// sound if a caller chooses to).
///
/// Implementations must be strictly observational: recording an event
/// must never feed back into simulated time or simulated state. The
/// paired-run identity tests (`NoopRecorder` vs `RingBufferRecorder`
/// byte-identical reports) enforce this for the whole pipeline.
pub trait Recorder: Send + Sync + fmt::Debug {
    /// Accept one event. Implementations must not panic on overflow;
    /// bounded sinks drop instead.
    fn record(&self, event: Event);
}

/// The zero-overhead default sink: discards everything.
///
/// A [`crate::Tap`] with no recorder attached short-circuits before the
/// event is even constructed, so in practice `NoopRecorder` only exists
/// to make "explicitly record nothing" expressible in APIs that take a
/// recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _event: Event) {}
}

/// A bounded, drop-oldest in-memory event ring.
///
/// Events carry a monotone sequence number internally so consumers can
/// detect loss: when the ring overflows, the oldest events are dropped
/// and [`RingBufferRecorder::dropped`] counts them.
#[derive(Debug)]
pub struct RingBufferRecorder {
    inner: Mutex<RingInner>,
}

#[derive(Debug)]
struct RingInner {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity: enough for a smoke-sized campaign without
/// measurable memory pressure.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

impl RingBufferRecorder {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferRecorder {
            inner: Mutex::new(RingInner {
                events: VecDeque::new(),
                capacity: capacity.max(1),
                dropped: 0,
            }),
        }
    }

    /// The ring, whether or not a recording thread died holding it: every
    /// update leaves it valid at each step (a pop, a count, a push), so a
    /// poisoned lock still guards a usable ring — and an event sink must
    /// not take down whoever reads it next.
    fn ring(&self) -> MutexGuard<'_, RingInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Snapshot of the retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring().events.iter().copied().collect()
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring().dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.ring().events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all retained events and resets the drop counter.
    pub fn clear(&self) {
        let mut inner = self.ring();
        inner.events.clear();
        inner.dropped = 0;
    }
}

impl Default for RingBufferRecorder {
    fn default() -> Self {
        RingBufferRecorder::new(DEFAULT_RING_CAPACITY)
    }
}

impl Recorder for RingBufferRecorder {
    fn record(&self, event: Event) {
        let mut inner = self.ring();
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn marker(cycle: u64) -> Event {
        Event::Crash { cycle }
    }

    #[test]
    fn ring_retains_in_order() {
        let rec = RingBufferRecorder::new(8);
        for c in 0..5 {
            rec.record(marker(c));
        }
        let got: Vec<u64> = rec.events().iter().map(|e| e.cycle()).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let rec = RingBufferRecorder::new(3);
        for c in 0..10 {
            rec.record(marker(c));
        }
        let got: Vec<u64> = rec.events().iter().map(|e| e.cycle()).collect();
        assert_eq!(got, vec![7, 8, 9]);
        assert_eq!(rec.dropped(), 7);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn clear_resets_everything() {
        let rec = RingBufferRecorder::new(2);
        rec.record(marker(1));
        rec.record(marker(2));
        rec.record(marker(3));
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn a_recording_thread_that_dies_holding_the_ring_takes_no_reader_down() {
        let rec = std::sync::Arc::new(RingBufferRecorder::new(2));
        rec.record(marker(1));
        let held = std::sync::Arc::clone(&rec);
        let died = std::thread::spawn(move || {
            let _ring = held.inner.lock().expect("first holder");
            panic!("a recorder thread dies mid-record");
        })
        .join();
        assert!(died.is_err() && rec.inner.is_poisoned());
        assert_eq!(rec.events(), vec![marker(1)]);
        rec.record(marker(2));
        rec.record(marker(3));
        assert_eq!((rec.len(), rec.dropped()), (2, 1));
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let rec = RingBufferRecorder::new(0);
        rec.record(marker(1));
        assert_eq!(rec.len(), 1);
    }
}

//! Client requests and the open-loop arrival schedule.

use std::collections::HashSet;

use psoram_core::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The modeled core frequency, defined once beside the memory clock ratio
/// in `psoram-nvm`; here it converts the configured arrival rate into
/// inter-arrival cycles and simulated cycle spans back into seconds.
pub use psoram_nvm::CORE_HZ;

/// One client access request as submitted to the service front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRequest {
    /// Global request id (submission order).
    pub id: u64,
    /// Simulated client that issued the request.
    pub client: u32,
    /// Read or write.
    pub op: Op,
    /// Global logical block address.
    pub addr: u64,
    /// Core cycle at which the request arrived (open-loop: arrivals
    /// never wait for completions).
    pub arrival_cycle: u64,
}

/// One completed request, as reported by a shard worker to the
/// collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Global request id.
    pub id: u64,
    /// Issuing client.
    pub client: u32,
    /// Shard that served the request.
    pub shard: u32,
    /// Global logical block address.
    pub addr: u64,
    /// Arrival cycle (from the schedule).
    pub arrival_cycle: u64,
    /// Cycle the shard worker dispatched the request (queue exit).
    pub dispatch_cycle: u64,
    /// Cycle the access completed end-to-end.
    pub complete_cycle: u64,
}

impl Completion {
    /// End-to-end latency: completion − arrival.
    pub fn latency(&self) -> u64 {
        self.complete_cycle.saturating_sub(self.arrival_cycle)
    }

    /// Time spent queued before dispatch.
    pub fn queue_wait(&self) -> u64 {
        self.dispatch_cycle.saturating_sub(self.arrival_cycle)
    }
}

/// Generates the deterministic open-loop arrival schedule: `requests`
/// requests from `clients` simulated clients at an aggregate
/// `arrival_rate` (requests per second), addresses uniform over
/// `[0, capacity)`.
///
/// Inter-arrival gaps are exponential (a Poisson arrival process — the
/// standard open-loop model), quantized to core cycles at [`CORE_HZ`]
/// with a 1-cycle floor. The access mix is 70% writes / 30% reads, with
/// the first touch of every address forced to a write so reads never
/// observe uninitialized blocks. Everything derives from `seed` alone,
/// so the same seed and config replay the same schedule byte for byte.
///
/// # Panics
///
/// Panics on a degenerate configuration (zero requests, clients, rate,
/// or capacity).
pub fn open_loop_schedule(
    requests: u64,
    clients: u32,
    arrival_rate: u64,
    capacity: u64,
    seed: u64,
) -> Vec<AccessRequest> {
    assert!(requests >= 1, "need at least one request");
    assert!(clients >= 1, "need at least one client");
    assert!(arrival_rate >= 1, "need a positive arrival rate");
    assert!(capacity >= 1, "need a non-empty address space");
    let mean_gap = CORE_HZ as f64 / arrival_rate as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut written: HashSet<u64> = HashSet::new();
    let mut schedule = Vec::with_capacity(requests as usize);
    let mut now = 0u64;
    for id in 0..requests {
        // Exponential gap via inverse transform; u is in [0, 1) so
        // 1 - u is in (0, 1] and the log is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        let gap = (-(1.0 - u).ln() * mean_gap).max(1.0);
        now = now.saturating_add(gap as u64);
        let client = rng.gen_range(0..clients);
        let addr = rng.gen_range(0..capacity);
        let roll = rng.gen_range(0..10u32);
        let op = if roll < 7 || !written.contains(&addr) {
            written.insert(addr);
            Op::Write
        } else {
            Op::Read
        };
        schedule.push(AccessRequest {
            id,
            client,
            op,
            addr,
            arrival_cycle: now,
        });
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_monotone() {
        let a = open_loop_schedule(500, 16, 100_000, 1 << 20, 7);
        let b = open_loop_schedule(500, 16, 100_000, 1 << 20, 7);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[1].arrival_cycle >= w[0].arrival_cycle);
            assert_eq!(w[1].id, w[0].id + 1);
        }
    }

    #[test]
    fn first_touch_is_always_a_write() {
        let sched = open_loop_schedule(2_000, 8, 1_000_000, 64, 3);
        let mut seen = HashSet::new();
        for r in &sched {
            if !seen.contains(&r.addr) {
                assert_eq!(r.op, Op::Write, "first touch of {} must write", r.addr);
                seen.insert(r.addr);
            }
        }
    }

    #[test]
    fn mean_gap_tracks_the_rate() {
        let rate = 200_000u64;
        let sched = open_loop_schedule(4_000, 8, rate, 1 << 20, 11);
        let span = sched.last().unwrap().arrival_cycle as f64;
        let expect = 4_000.0 * CORE_HZ as f64 / rate as f64;
        assert!(
            (span / expect - 1.0).abs() < 0.1,
            "arrival span {span} too far from expected {expect}"
        );
    }

    #[test]
    fn latency_helpers() {
        let c = Completion {
            id: 0,
            client: 0,
            shard: 0,
            addr: 0,
            arrival_cycle: 100,
            dispatch_cycle: 150,
            complete_cycle: 400,
        };
        assert_eq!(c.latency(), 300);
        assert_eq!(c.queue_wait(), 50);
    }
}

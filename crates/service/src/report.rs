//! The collector's output: per-shard lane reports and the aggregate
//! latency/throughput summary.
//!
//! Everything in a [`ServiceReport`] derives from simulated quantities
//! (core cycles, request counts, seeds), so serializing one is
//! byte-identical across runs and worker counts. Wall-clock numbers
//! never appear here — the bench prints those to stderr.

use serde::Serialize;

use crate::request::CORE_HZ;

/// Nearest-rank percentile over an ascending-sorted slice.
///
/// `pct` is in `[1, 100]`; the nearest-rank index is
/// `ceil(pct · n / 100) − 1`, computed in pure integer arithmetic so the
/// result is deterministic. Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    let n = sorted.len() as u64;
    if n == 0 {
        return 0;
    }
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// End-to-end latency percentiles in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencySummary {
    /// Median latency.
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile (tail) latency.
    pub p99: u64,
    /// Arithmetic mean (integer-truncated).
    pub mean: u64,
    /// Fastest observed request.
    pub min: u64,
    /// Slowest observed request.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes an ascending-sorted latency sample.
    pub fn from_sorted(sorted: &[u64]) -> Self {
        if sorted.is_empty() {
            return LatencySummary {
                p50: 0,
                p95: 0,
                p99: 0,
                mean: 0,
                min: 0,
                max: 0,
            };
        }
        let sum: u128 = sorted.iter().map(|&v| v as u128).sum();
        LatencySummary {
            p50: percentile(sorted, 50),
            p95: percentile(sorted, 95),
            p99: percentile(sorted, 99),
            mean: (sum / sorted.len() as u128) as u64,
            min: sorted[0],
            max: *sorted.last().unwrap(),
        }
    }

    /// Converts a cycle count to microseconds at [`CORE_HZ`].
    pub fn cycles_to_us(cycles: u64) -> f64 {
        cycles as f64 * 1e6 / CORE_HZ as f64
    }
}

/// Endurance-adversary evidence for a shard that ran with wear armed
/// (see `ServiceConfig::wear`). Absent — and absent from the serialized
/// report — on every wear-free lane, so wear-free runs stay
/// byte-identical to reports produced before wear support existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WearLaneEvidence {
    /// Wear-correlated media faults the device plan injected.
    pub wear_faults: u64,
    /// The subset that were stuck-at (cell budget exhausted) faults.
    pub wear_stuck_faults: u64,
    /// Start-Gap moves performed by the leveling layer.
    pub gap_moves: u64,
    /// Lines convicted and retired onto spares.
    pub retirements: u64,
    /// Repair copies written while retiring (content restored from the
    /// redundant copy onto the spare).
    pub repairs: u64,
    /// Spare lines the retirement layer still held at end of run.
    pub spares_left: u64,
}

/// One shard worker's lane summary.
///
/// `Serialize` is hand-written so the `wear` evidence is skipped when
/// absent: a wear-free run serializes exactly as it did before the
/// endurance adversary existed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLaneReport {
    /// Shard index.
    pub shard: u32,
    /// Requests routed to and served by this shard.
    pub requests: u64,
    /// Batches the worker dispatched.
    pub batches: u64,
    /// Mean cycles a request waited in the queue before dispatch.
    pub queue_wait_mean_cycles: u64,
    /// Cycles the controller spent actually serving accesses.
    pub busy_cycles: u64,
    /// Lane virtual time at the last completion (arrival of the first
    /// request through completion of the last).
    pub makespan_cycles: u64,
    /// Lane throughput: requests ÷ makespan, in accesses per second.
    pub throughput_accesses_per_sec: f64,
    /// Power failures injected on this shard.
    pub crashes: u64,
    /// Recoveries that reported a consistent state.
    pub recoveries_consistent: u64,
    /// Cycles charged to recovery (controller delta + modeled reboot).
    pub recovery_cycles: u64,
    /// Whether the end-of-run contents check passed.
    pub verify_ok: bool,
    /// The shard controller's final state digest (hex).
    pub state_digest: String,
    /// Endurance evidence, present only on the shard that ran with the
    /// wear adversary armed.
    pub wear: Option<WearLaneEvidence>,
}

impl Serialize for ShardLaneReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("shard".to_string(), self.shard.to_value()),
            ("requests".to_string(), self.requests.to_value()),
            ("batches".to_string(), self.batches.to_value()),
            (
                "queue_wait_mean_cycles".to_string(),
                self.queue_wait_mean_cycles.to_value(),
            ),
            ("busy_cycles".to_string(), self.busy_cycles.to_value()),
            (
                "makespan_cycles".to_string(),
                self.makespan_cycles.to_value(),
            ),
            (
                "throughput_accesses_per_sec".to_string(),
                self.throughput_accesses_per_sec.to_value(),
            ),
            ("crashes".to_string(), self.crashes.to_value()),
            (
                "recoveries_consistent".to_string(),
                self.recoveries_consistent.to_value(),
            ),
            (
                "recovery_cycles".to_string(),
                self.recovery_cycles.to_value(),
            ),
            ("verify_ok".to_string(), self.verify_ok.to_value()),
            ("state_digest".to_string(), self.state_digest.to_value()),
        ];
        if let Some(w) = &self.wear {
            fields.push(("wear".to_string(), w.to_value()));
        }
        serde::Value::Object(fields)
    }
}

/// Service-wide totals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregateReport {
    /// Total requests served across all shards.
    pub requests: u64,
    /// Service makespan: the slowest lane's makespan (lanes run
    /// concurrently in real hardware).
    pub makespan_cycles: u64,
    /// Aggregate throughput: requests ÷ makespan at [`CORE_HZ`].
    pub accesses_per_sec: f64,
}

/// The collector's full report for one service run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceReport {
    /// Number of shards (independent persistence domains).
    pub shards: u32,
    /// Number of simulated open-loop clients.
    pub clients: u32,
    /// Configured aggregate arrival rate (requests per second).
    pub arrival_rate: u64,
    /// Maximum requests dispatched per batch.
    pub batch_size: u64,
    /// ORAM tree levels per shard.
    pub levels: u32,
    /// Protocol variant label.
    pub variant: String,
    /// Lane kind label (`controller` or `full-system`).
    pub lane: String,
    /// Schedule seed.
    pub seed: u64,
    /// End-to-end latency summary in core cycles.
    pub latency_cycles: LatencySummary,
    /// Median latency in microseconds at the modeled 3.2 GHz core.
    pub p50_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Per-shard lane summaries, in shard order.
    pub lanes: Vec<ShardLaneReport>,
    /// Service-wide totals.
    pub aggregate: AggregateReport,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        let small = [10u64, 20, 30];
        assert_eq!(percentile(&small, 50), 20);
        assert_eq!(percentile(&small, 99), 30);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn summary_orders_percentiles() {
        let mut v: Vec<u64> = (0..1000).map(|i| (i * 37) % 991).collect();
        v.sort_unstable();
        let s = LatencySummary::from_sorted(&v);
        assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        assert!(s.mean >= s.min && s.mean <= s.max);
    }

    #[test]
    fn cycle_to_us_conversion() {
        assert_eq!(LatencySummary::cycles_to_us(CORE_HZ), 1e6);
        assert_eq!(LatencySummary::cycles_to_us(3_200), 1.0);
    }
}

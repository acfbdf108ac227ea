//! Folds the event stream the controllers already emit (`attach_recorder`)
//! into per-layer simulated-clock sums. Nothing here is timed: every number
//! is a modelled cycle or a count.

use std::sync::Arc;

use psoram_obsv::{AccessKind, Event, Phase, QueueKind, RingBufferRecorder};

/// The access phases in protocol order, each with its per-layer row.
pub const PHASES: [(Phase, &str); 5] = [
    (Phase::CheckStash, "phase.check_stash.sim_cycles_per_op"),
    (Phase::PosMap, "phase.posmap.sim_cycles_per_op"),
    (Phase::LoadPath, "phase.load_path.sim_cycles_per_op"),
    (Phase::UpdateStash, "phase.update_stash.sim_cycles_per_op"),
    (Phase::Eviction, "phase.eviction.sim_cycles_per_op"),
];

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fold {
    pub events: u64,
    pub dropped: u64,
    /// Core cycles per phase, indexed as [`PHASES`].
    pub phase_cycles: [u64; 5],
    /// Core cycles between each `RoundBegin` and its `RoundCommit`.
    pub round_cycles: u64,
    pub round_data_units: u64,
    pub round_posmap_units: u64,
    /// Accepted pushes: `[data, posmap]`.
    pub wpq_pushes: [u64; 2],
    /// Bank latency in memory cycles, `(sum, count)`: `[read, write]`.
    pub nvm_latency: [(u64, u64); 2],
    round_open: Option<u64>,
}

impl Fold {
    pub fn ingest(&mut self, events: &[Event]) {
        self.events += events.len() as u64;
        for e in events {
            match *e {
                Event::Phase { phase, start, end } => {
                    let i = PHASES
                        .iter()
                        .position(|(p, _)| *p == phase)
                        .expect("known phase");
                    self.phase_cycles[i] += end.saturating_sub(start);
                }
                Event::RoundBegin { cycle } => self.round_open = Some(cycle),
                Event::RoundCommit {
                    cycle,
                    data_units,
                    posmap_units,
                } => {
                    if let Some(begin) = self.round_open.take() {
                        self.round_cycles += cycle.saturating_sub(begin);
                    }
                    self.round_data_units += data_units;
                    self.round_posmap_units += posmap_units;
                }
                Event::WpqPush { queue, .. } => {
                    self.wpq_pushes[(queue == QueueKind::PosMap) as usize] += 1;
                }
                Event::NvmAccess {
                    kind,
                    arrival,
                    complete,
                    ..
                } => {
                    let slot = &mut self.nvm_latency[(kind == AccessKind::Write) as usize];
                    slot.0 += complete.saturating_sub(arrival);
                    slot.1 += 1;
                }
                _ => {}
            }
        }
    }

    /// Moves everything the ring holds into the fold. Call often enough
    /// that the ring never wraps; what it dropped anyway is counted.
    pub fn drain(&mut self, ring: &Arc<RingBufferRecorder>) {
        self.dropped += ring.dropped();
        self.ingest(&ring.events());
        ring.clear();
    }

    /// Cycles of the four phases on the access's critical path. Eviction
    /// runs behind the ADR boundary after the value is ready, overlapped
    /// with the next access, so it is not part of Δclock.
    pub fn critical_path_cycles(&self) -> u64 {
        self.phase_cycles[..4].iter().sum()
    }

    pub fn mean_nvm_latency(&self, write: bool) -> f64 {
        let (sum, count) = self.nvm_latency[write as usize];
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psoram_core::{OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};

    #[test]
    fn critical_path_phases_sum_to_delta_clock() {
        let mut cfg = OramConfig::small_test();
        cfg.data_wpq_capacity = cfg.path_slots();
        cfg.posmap_wpq_capacity = cfg.path_slots();
        let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 3);
        let ring = Arc::new(RingBufferRecorder::new(1 << 16));
        ProtocolPolicy::attach_recorder(&mut oram, ring.clone());
        let mut fold = Fold::default();
        let c0 = oram.clock();
        for i in 0..200u64 {
            ProtocolPolicy::write(&mut oram, i % 50, vec![i as u8; 8]).unwrap();
            ProtocolPolicy::read(&mut oram, (i * 7) % 50).unwrap();
            fold.drain(&ring);
        }
        assert_eq!(fold.dropped, 0);
        assert_eq!(fold.critical_path_cycles(), oram.clock() - c0);
        assert!(fold.phase_cycles[4] > 0, "eviction phase is reported too");
        assert_eq!(fold.round_data_units, fold.wpq_pushes[0]);
        assert!(fold.nvm_latency[0].1 > 0 && fold.nvm_latency[1].1 > 0);
    }
}

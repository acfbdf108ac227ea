//! The typed event vocabulary shared by every simulator layer.

use std::fmt;

/// One of the five pipeline phases of an ORAM access (§2 of the paper;
/// steps ① – ⑤ in the controller). Ring ORAM reuses the same vocabulary
/// minus [`Phase::CheckStash`], which it never reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Step ①: probe the on-chip stash for the requested block.
    CheckStash,
    /// Step ②: position-map lookup and remap.
    PosMap,
    /// Step ③: read the tree path (or one slot per bucket for Ring).
    LoadPath,
    /// Step ④: insert/update the block in the stash.
    UpdateStash,
    /// Step ⑤: eviction / path write-back (through the WPQ when the
    /// design is persistent).
    Eviction,
}

impl Phase {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            Phase::CheckStash => "check_stash",
            Phase::PosMap => "posmap",
            Phase::LoadPath => "load_path",
            Phase::UpdateStash => "update_stash",
            Phase::Eviction => "eviction",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which of the two WPQ queues inside the persistence domain an event
/// refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueueKind {
    /// The data-block write-pending queue.
    Data,
    /// The position-map flush queue.
    PosMap,
}

impl QueueKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            QueueKind::Data => "data",
            QueueKind::PosMap => "posmap",
        }
    }
}

/// Direction of an NVM channel access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Array read.
    Read,
    /// Array write.
    Write,
}

impl AccessKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        }
    }
}

/// Where in the hierarchy a cache access resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Miss in L1, hit in the unified L2.
    L2,
    /// Missed the whole hierarchy; goes to (ORAM-protected) memory.
    Memory,
}

impl CacheLevel {
    /// Stable label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            CacheLevel::L1 => "l1",
            CacheLevel::L2 => "l2",
            CacheLevel::Memory => "memory",
        }
    }
}

/// Device-fault classification carried by the fault/recovery events.
///
/// Mirrors `psoram-nvm`'s `FaultClass`; duplicated here because this
/// crate sits *below* `psoram-nvm` in the dependency graph and must stay
/// dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceFaultKind {
    /// An ADR drain tore mid-batch.
    TornFlush,
    /// A drainer end signal was dropped (whole round lost).
    SignalLoss,
    /// A drainer end signal was duplicated (round replayed).
    DuplicatedSignal,
    /// Media bit rot / interrupted cell programming.
    MediaCorruption,
    /// A media read failed (transiently or stuck).
    TransientRead,
    /// A stale-but-authentic unit was re-served (freshness replay).
    StaleReplay,
    /// An authentic unit was relocated across addresses (splice).
    CrossSplice,
    /// A media line exhausted its cell budget (wear-out stuck-at).
    WearOut,
}

impl DeviceFaultKind {
    /// Stable lowercase label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            DeviceFaultKind::TornFlush => "torn_flush",
            DeviceFaultKind::SignalLoss => "signal_loss",
            DeviceFaultKind::DuplicatedSignal => "duplicated_signal",
            DeviceFaultKind::MediaCorruption => "media_corruption",
            DeviceFaultKind::TransientRead => "transient_read",
            DeviceFaultKind::StaleReplay => "stale_replay",
            DeviceFaultKind::CrossSplice => "cross_splice",
            DeviceFaultKind::WearOut => "wear_out",
        }
    }
}

impl fmt::Display for DeviceFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A single typed observation, stamped with **simulated** cycles.
///
/// Component ownership of the cycle domain:
///
/// * ORAM controller events (`Access*`, `Phase`, `Round*`, `Wpq*`,
///   `Crash`, `Recovery`) carry *core* cycles from the controller clock.
/// * [`Event::NvmAccess`] carries *memory* cycles straight from the bank
///   scheduler (`arrival` → `complete`).
/// * [`Event::CacheAccess`] carries the driving system's core clock.
///
/// Stamps are monotone per component but the domains are not mutually
/// ordered; the chrome exporter places each component on its own track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// An ORAM access entered the pipeline.
    AccessStart {
        /// Zero-based access index (the controller's attempt counter).
        index: u64,
        /// Core-cycle arrival time.
        cycle: u64,
    },
    /// The access's value became available (end of step ④; eviction may
    /// still be in flight behind the ADR boundary).
    AccessEnd {
        /// Matches the `index` of the corresponding `AccessStart`.
        index: u64,
        /// Core cycle at which the value was ready.
        cycle: u64,
    },
    /// One pipeline phase of the current access, as a closed interval.
    Phase {
        /// Which step of the access pipeline.
        phase: Phase,
        /// Core cycle at which the phase began.
        start: u64,
        /// Core cycle at which the phase completed (`end >= start`).
        end: u64,
    },
    /// The persist engine opened an eviction round (drainer *start*
    /// signal, §4.2).
    RoundBegin {
        /// Core cycle when the round opened.
        cycle: u64,
    },
    /// The persist engine committed a round (drainer *end* signal);
    /// everything pushed since `RoundBegin` is now ADR-durable.
    RoundCommit {
        /// Core cycle when the round committed.
        cycle: u64,
        /// Data-queue entries committed by this round.
        data_units: u64,
        /// PosMap-queue entries committed by this round.
        posmap_units: u64,
    },
    /// An entry was accepted into a WPQ batch.
    WpqPush {
        /// Which queue accepted the entry.
        queue: QueueKind,
        /// Total occupancy (committed + open) *after* the push.
        occupancy: u64,
        /// Queue capacity, for depth-invariant checks.
        capacity: u64,
        /// Core cycle of the push.
        cycle: u64,
    },
    /// A push was rejected because the queue was full.
    WpqReject {
        /// Which queue rejected the entry.
        queue: QueueKind,
        /// Queue capacity at the time of rejection.
        capacity: u64,
        /// Core cycle of the rejection.
        cycle: u64,
    },
    /// Committed entries were drained from a WPQ to the NVM array.
    WpqDrain {
        /// Which queue drained.
        queue: QueueKind,
        /// Number of entries drained.
        drained: u64,
        /// Core cycle of the drain.
        cycle: u64,
    },
    /// The controller stalled an eviction waiting for WPQ space.
    WpqStall {
        /// Core cycle when the stall was charged.
        cycle: u64,
    },
    /// One scheduled access on an NVM bank, in **memory** cycles: what
    /// an observer of the memory bus sees of a request.
    NvmAccess {
        /// Read or write.
        kind: AccessKind,
        /// The request's NVM byte address.
        addr: u64,
        /// Channel index.
        channel: u32,
        /// Bank index within the channel.
        bank: u32,
        /// Memory cycle the request arrived at the controller.
        arrival: u64,
        /// Memory cycle the bank completed it (`complete >= arrival`).
        complete: u64,
    },
    /// One access into the cache hierarchy and where it resolved.
    CacheAccess {
        /// The level that satisfied the access.
        level: CacheLevel,
        /// Whether the access was a store.
        write: bool,
        /// Core cycle of the access (the driving system's clock).
        cycle: u64,
    },
    /// A (simulated) power failure struck.
    Crash {
        /// Core cycle of the crash.
        cycle: u64,
    },
    /// A recovery pass (§4.3) finished.
    Recovery {
        /// Whether the recovered state passed its consistency check.
        consistent: bool,
        /// Core cycle at which recovery completed.
        cycle: u64,
    },
    /// Recovery (or a guarded read) detected device-level damage.
    FaultDetected {
        /// What kind of damage was classified.
        kind: DeviceFaultKind,
        /// Persist units (slots / map entries) found damaged.
        units: u64,
        /// Core cycle of the detection.
        cycle: u64,
    },
    /// A recovery pass finished its repair stage.
    FaultRepaired {
        /// Addresses whose committed value survived via a redundant copy.
        repaired: u64,
        /// Addresses rolled back or forgotten (detected, unrepairable).
        rolled_back: u64,
        /// Core cycle at which the repair stage completed.
        cycle: u64,
    },
    /// A worn-out media line was retired onto a spare and its content
    /// repaired from the redundant copy (crash-consistent: the remap
    /// becomes durable at the next commit round).
    LineRetired {
        /// The convicted physical line.
        line: u64,
        /// The spare line now serving its address.
        spare: u64,
        /// Core cycle of the retirement.
        cycle: u64,
    },
    /// The controller latched fail-safe poisoned state: damage it can
    /// neither repair nor retry past. Every subsequent access errors.
    Poisoned {
        /// The fault class that forced the fail-safe.
        kind: DeviceFaultKind,
        /// Core cycle of the poisoning.
        cycle: u64,
    },
    /// A client request arrived in a shard's service queue (service
    /// front-end lane; see `psoram-service`).
    ServiceEnqueue {
        /// Global request id.
        request: u64,
        /// Shard the router mapped the request to.
        shard: u32,
        /// Core cycle of the arrival (open-loop schedule time).
        cycle: u64,
    },
    /// A queued request was handed to its shard worker; `wait_cycles` is
    /// the time spent queued (dispatch − arrival).
    ServiceDequeue {
        /// Global request id.
        request: u64,
        /// Shard that dequeued the request.
        shard: u32,
        /// Cycles the request waited in the queue before dispatch.
        wait_cycles: u64,
        /// Core cycle of the dispatch.
        cycle: u64,
    },
    /// A shard worker dispatched one batch of queued requests
    /// back-to-back.
    ServiceBatch {
        /// Shard that formed the batch.
        shard: u32,
        /// Requests in the batch.
        size: u64,
        /// Core cycle of the batch dispatch.
        cycle: u64,
    },
    /// A request completed end-to-end; `latency_cycles` is completion −
    /// arrival (queueing plus service time).
    ServiceComplete {
        /// Global request id.
        request: u64,
        /// Shard that served the request.
        shard: u32,
        /// End-to-end latency in core cycles.
        latency_cycles: u64,
        /// Core cycle of the completion.
        cycle: u64,
    },
}

impl Event {
    /// The primary cycle stamp of the event (interval events report
    /// their start).
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::AccessStart { cycle, .. }
            | Event::AccessEnd { cycle, .. }
            | Event::RoundBegin { cycle }
            | Event::RoundCommit { cycle, .. }
            | Event::WpqPush { cycle, .. }
            | Event::WpqReject { cycle, .. }
            | Event::WpqDrain { cycle, .. }
            | Event::WpqStall { cycle }
            | Event::CacheAccess { cycle, .. }
            | Event::Crash { cycle }
            | Event::Recovery { cycle, .. }
            | Event::FaultDetected { cycle, .. }
            | Event::FaultRepaired { cycle, .. }
            | Event::LineRetired { cycle, .. }
            | Event::Poisoned { cycle, .. }
            | Event::ServiceEnqueue { cycle, .. }
            | Event::ServiceDequeue { cycle, .. }
            | Event::ServiceBatch { cycle, .. }
            | Event::ServiceComplete { cycle, .. } => cycle,
            Event::Phase { start, .. } => start,
            Event::NvmAccess { arrival, .. } => arrival,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Phase::CheckStash.label(), "check_stash");
        assert_eq!(Phase::Eviction.to_string(), "eviction");
        assert_eq!(QueueKind::PosMap.label(), "posmap");
        assert_eq!(AccessKind::Write.label(), "write");
        assert_eq!(CacheLevel::Memory.label(), "memory");
    }

    #[test]
    fn cycle_picks_interval_start() {
        let e = Event::Phase {
            phase: Phase::LoadPath,
            start: 7,
            end: 19,
        };
        assert_eq!(e.cycle(), 7);
        let n = Event::NvmAccess {
            kind: AccessKind::Read,
            addr: 0x40,
            channel: 0,
            bank: 3,
            arrival: 40,
            complete: 90,
        };
        assert_eq!(n.cycle(), 40);
    }
}

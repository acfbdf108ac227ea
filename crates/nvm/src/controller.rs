//! The multi-channel NVM memory controller.
//!
//! **The burst is the unit.** An ORAM path arrives as `Z·(L+1)` requests
//! of one kind, one size and one arrival cycle, so
//! [`NvmController::access_batch_sized`] is the controller's one entry and
//! the burst's own loop. What is a property of the burst is read once,
//! before the first request: the form of the address map, the [`Step`]
//! the timing makes of the kind and the bus cycles, whether a tap listens,
//! whether lines are counted, whether writes park in the write buffer,
//! the traffic totals. What is a property of a request is stepped per
//! request, in request order: its channel and bank, the channel's FCFS
//! order and bus, the bank's `tWTR`/`tCCD` windows, its `NvmAccess` event.
//! The loop holds the bus of the channel it is on by value and writes it
//! back when a request leaves for another channel — once a burst on one
//! channel, once a request on two interleaved by the block, no more
//! often than the per-request controller stored it. The scalar entries are
//! the one-request burst, which is what makes them the burst's oracle
//! (`tests/nvm_properties.rs`, beside a frozen copy of the per-request
//! formulas).
//!
//! **Per-line write counts exist when their reader does.** The only
//! readers of the per-line table are the wear reports an armed endurance
//! adversary publishes, so the table is built by
//! [`NvmController::count_lines`] — which the ORAM controllers call
//! beside arming their wear engine — and counts from that call on. A
//! controller nobody armed counts no lines.

use psoram_obsv::{Event, Tap};
use serde::{Deserialize, Serialize};

use crate::address::{AddressMap, Decompose};
use crate::bank::Step;
use crate::channel::Channel;
use crate::lines::LineCounters;
use crate::request::AccessKind;
use crate::stats::NvmStats;
use crate::timing::{MemTech, TimingParams};

/// Configuration of the simulated NVM main memory.
///
/// # Examples
///
/// ```
/// use psoram_nvm::NvmConfig;
///
/// let cfg = NvmConfig::paper_pcm(4);
/// assert_eq!(cfg.channels, 4);
/// assert_eq!(cfg.block_bytes, 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Device technology (PCM by default, per the paper).
    pub tech: MemTech,
    /// Number of independent channels (1, 2 or 4 in the paper).
    pub channels: usize,
    /// Banks per channel.
    pub banks_per_channel: usize,
    /// Transfer granularity in bytes (64 B cacheline in the paper).
    pub block_bytes: usize,
    /// Data-bus width in bytes transferred per memory cycle.
    pub bus_bytes_per_cycle: usize,
    /// Channel-interleave granularity in blocks (1 = cacheline
    /// interleaving; 4 = 256 B DIMM-granularity interleaving). Coarser
    /// granularity interacts with the ORAM tree's exponential bucket
    /// layout and produces the channel imbalance the paper observes when
    /// scaling from 2 to 4 channels (§5.2.3).
    pub interleave_blocks: u64,
    /// Controller write buffer entries (0 disables buffering). With a
    /// buffer, writes are acknowledged on entry and drained to the banks
    /// when the buffer crosses its high watermark (half full) — the
    /// read-priority scheduling real PCM controllers use to hide the long
    /// write pulse. Buffered writes are volatile: they are a *performance*
    /// structure, distinct from the WPQ persistence domain.
    pub write_buffer_entries: usize,
}

impl NvmConfig {
    /// The paper's Table 3 PCM main memory with the given channel count:
    /// 4 GB PCM @ 400 MHz, 64 B blocks, 8 banks per channel.
    pub fn paper_pcm(channels: usize) -> Self {
        NvmConfig {
            tech: MemTech::Pcm,
            channels,
            banks_per_channel: 8,
            block_bytes: 64,
            bus_bytes_per_cycle: 8,
            interleave_blocks: 1,
            write_buffer_entries: 0,
        }
    }

    /// Same organization with STT-RAM timing.
    pub fn paper_sttram(channels: usize) -> Self {
        NvmConfig {
            tech: MemTech::SttRam,
            ..Self::paper_pcm(channels)
        }
    }

    /// Memory cycles occupied by one block transfer on the data bus.
    pub fn burst_cycles(&self) -> u64 {
        (self.block_bytes as u64).div_ceil(self.bus_bytes_per_cycle as u64)
    }

    /// Checks the geometry every access divides by.
    ///
    /// # Errors
    ///
    /// The first zero among `channels`, `banks_per_channel`, `block_bytes`,
    /// `bus_bytes_per_cycle` and `interleave_blocks`, as its own
    /// [`NvmConfigError`] variant.
    pub fn validate(&self) -> Result<(), NvmConfigError> {
        if self.channels == 0 {
            return Err(NvmConfigError::ZeroChannels);
        }
        if self.banks_per_channel == 0 {
            return Err(NvmConfigError::ZeroBanksPerChannel);
        }
        if self.block_bytes == 0 {
            return Err(NvmConfigError::ZeroBlockBytes);
        }
        if self.bus_bytes_per_cycle == 0 {
            return Err(NvmConfigError::ZeroBusBytesPerCycle);
        }
        if self.interleave_blocks == 0 {
            return Err(NvmConfigError::ZeroInterleaveBlocks);
        }
        Ok(())
    }
}

/// A geometry an [`NvmController`] cannot be built over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmConfigError {
    /// `channels` is zero.
    ZeroChannels,
    /// `banks_per_channel` is zero.
    ZeroBanksPerChannel,
    /// `block_bytes` is zero.
    ZeroBlockBytes,
    /// `bus_bytes_per_cycle` is zero.
    ZeroBusBytesPerCycle,
    /// `interleave_blocks` is zero.
    ZeroInterleaveBlocks,
}

impl std::fmt::Display for NvmConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let field = match self {
            NvmConfigError::ZeroChannels => "channels",
            NvmConfigError::ZeroBanksPerChannel => "banks_per_channel",
            NvmConfigError::ZeroBlockBytes => "block_bytes",
            NvmConfigError::ZeroBusBytesPerCycle => "bus_bytes_per_cycle",
            NvmConfigError::ZeroInterleaveBlocks => "interleave_blocks",
        };
        write!(f, "invalid NVM configuration: {field} must be at least 1")
    }
}

impl std::error::Error for NvmConfigError {}

impl Default for NvmConfig {
    fn default() -> Self {
        Self::paper_pcm(1)
    }
}

/// Cycle-level multi-channel NVM controller.
///
/// Addresses are interleaved across channels at block granularity and across
/// banks within a channel. All times are in **memory cycles** (400 MHz);
/// multiply by [`crate::CORE_CYCLES_PER_MEM_CYCLE`] for core cycles.
///
/// # Examples
///
/// ```
/// use psoram_nvm::{NvmConfig, NvmController, AccessKind};
///
/// let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
/// let t1 = mem.access(0x0000, AccessKind::Read, 0);
/// let t2 = mem.access(0x0040, AccessKind::Read, 0); // next block, other channel
/// assert_eq!(t1, t2); // perfectly parallel across channels
/// ```
#[derive(Debug, Clone)]
pub struct NvmController {
    config: NvmConfig,
    timing: TimingParams,
    /// `config`'s geometry, classified: shifts and masks where it can be.
    map: AddressMap,
    channels: Vec<Channel>,
    stats: NvmStats,
    /// Buffered (acknowledged but not yet drained) writes:
    /// `(addr, bus cycles)`.
    write_buffer: std::collections::VecDeque<(u64, u64)>,
    /// Per-line (block-granularity) write counts since
    /// [`NvmController::count_lines`]; `None` until then. The counters
    /// keep no order of their own; every query that lists lines sorts its
    /// result, which is what makes the reports deterministic.
    line_writes: Option<LineCounters>,
    /// Writes drained from the buffer (observability).
    drained_writes: u64,
    /// Observability tap (bank-level `NvmAccess` events, memory cycles).
    tap: Tap,
}

impl NvmController {
    /// Creates an idle memory system from `config`.
    ///
    /// # Panics
    ///
    /// Panics with the [`NvmConfigError`] if `config` does not
    /// [`validate`](NvmConfig::validate).
    pub fn new(config: NvmConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let timing = TimingParams::for_tech(config.tech);
        let channels = (0..config.channels)
            .map(|_| Channel::new(config.banks_per_channel))
            .collect();
        NvmController {
            map: AddressMap::new(&config),
            config,
            timing,
            channels,
            stats: NvmStats::default(),
            write_buffer: std::collections::VecDeque::new(),
            line_writes: None,
            drained_writes: 0,
            tap: Tap::detached(),
        }
    }

    /// Wires an observability tap into the controller. Every scheduled
    /// bank access emits an [`Event::NvmAccess`] stamped in memory
    /// cycles; timing and statistics are unaffected.
    pub fn set_tap(&mut self, tap: Tap) {
        self.tap = tap;
    }

    /// Starts counting writes per line, for [`Self::hottest_lines`],
    /// [`Self::lines_touched`] and [`Self::wear_report`]. Writes accepted
    /// before the first call are not counted; later calls change nothing.
    pub fn count_lines(&mut self) {
        self.line_writes.get_or_insert_default();
    }

    /// Maps a byte address to `(channel, bank)`.
    ///
    /// Channels interleave at `interleave_blocks` granularity; banks within
    /// a channel always interleave at block granularity (so single-channel
    /// behaviour is independent of the channel-interleave setting).
    pub fn map_address(&self, addr: u64) -> (usize, usize) {
        let (_, channel, bank) = self.map.decompose(addr);
        (channel, bank)
    }

    /// Performs one block access arriving at memory cycle `arrival` and
    /// returns its completion cycle.
    pub fn access(&mut self, addr: u64, kind: AccessKind, arrival: u64) -> u64 {
        self.access_sized(addr, kind, arrival, self.config.block_bytes)
    }

    /// Performs one access of `bytes` bytes (sub-block writes such as
    /// PosMap entries occupy the bus for fewer cycles; cell-programming
    /// time is unchanged): the one-request burst.
    pub fn access_sized(&mut self, addr: u64, kind: AccessKind, arrival: u64, bytes: usize) -> u64 {
        self.access_batch_sized(std::iter::once(addr), kind, arrival, bytes)
    }

    /// Drains the write buffer down to `low_watermark` entries, scheduling
    /// the drained writes on the banks starting at `now`: one burst per
    /// run of equally sized writes.
    pub fn drain_write_buffer(&mut self, now: u64, low_watermark: usize) -> u64 {
        let mut done = now;
        while self.write_buffer.len() > low_watermark {
            let excess = self.write_buffer.len() - low_watermark;
            let bus_cycles = self.write_buffer[0].1;
            let run = (self.write_buffer.iter().take(excess))
                .take_while(|&&(_, cycles)| cycles == bus_cycles)
                .count();
            let step = Step::new(AccessKind::Write, &self.timing, bus_cycles);
            let addrs = self.write_buffer.drain(..run).map(|(addr, _)| addr);
            // Counted against their lines when they parked.
            let (channels, tap) = (&mut self.channels[..], &self.tap);
            let (last, _) = schedule_burst(&self.map, channels, tap, None, addrs, step, now);
            done = done.max(last);
            self.drained_writes += run as u64;
        }
        done
    }

    /// Writes currently parked in the (volatile) write buffer.
    pub fn write_buffer_len(&self) -> usize {
        self.write_buffer.len()
    }

    /// Writes that have drained from the buffer to the banks.
    pub fn drained_writes(&self) -> u64 {
        self.drained_writes
    }

    /// Performs a batch of block accesses all arriving at `arrival` and
    /// returns the cycle at which the *last* one completes.
    ///
    /// This is the shape of an ORAM path read/write: `Z * (L+1)` blocks
    /// spread over the channels and banks.
    pub fn access_batch(
        &mut self,
        addrs: impl IntoIterator<Item = u64>,
        kind: AccessKind,
        arrival: u64,
    ) -> u64 {
        let block = self.config.block_bytes;
        self.access_batch_sized(addrs, kind, arrival, block)
    }

    /// [`NvmController::access_batch`] with an explicit per-access size:
    /// one burst of same-kind, same-size requests, scheduled in order.
    pub fn access_batch_sized(
        &mut self,
        addrs: impl IntoIterator<Item = u64>,
        kind: AccessKind,
        arrival: u64,
        bytes: usize,
    ) -> u64 {
        let bus_cycles = (bytes as u64)
            .div_ceil(self.config.bus_bytes_per_cycle as u64)
            .max(1);
        // Read-priority write buffering: acknowledged writes park in the
        // buffer; they drain to the banks when the buffer crosses its high
        // watermark, out of the way of latency-critical reads.
        let buffer_entries = match kind {
            AccessKind::Write => self.config.write_buffer_entries,
            AccessKind::Read => 0,
        };
        let (done, requests) = if buffer_entries > 0 {
            let mut requests = 0u64;
            for addr in addrs {
                requests += 1;
                // Line-granularity wear accounting: one cell-programming
                // pulse per accepted write, whether it drains now or via
                // the buffer.
                if let Some(lines) = &mut self.line_writes {
                    lines.record(self.map.decompose(addr).0);
                }
                self.write_buffer.push_back((addr, bus_cycles));
                if self.write_buffer.len() >= buffer_entries {
                    self.drain_write_buffer(arrival, buffer_entries / 2);
                }
            }
            // Accepted immediately.
            (arrival + u64::from(requests > 0), requests)
        } else {
            let step = Step::new(kind, &self.timing, bus_cycles);
            let lines = match kind {
                AccessKind::Write => self.line_writes.as_mut(),
                AccessKind::Read => None,
            };
            let (channels, tap, addrs) = (&mut self.channels[..], &self.tap, addrs.into_iter());
            schedule_burst(&self.map, channels, tap, lines, addrs, step, arrival)
        };
        self.stats.record_burst(kind, requests, bytes as u64);
        done
    }

    /// Immutable access to the accumulated traffic statistics.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    #[cfg(test)]
    /// Resets traffic statistics (not the timing state).
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats::default();
    }

    /// The configuration this controller was built with.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    /// The active device timing parameters.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// Per-channel, per-bank lifetime write counts (wear map).
    pub fn wear_map(&self) -> Vec<Vec<u64>> {
        self.channels.iter().map(Channel::bank_writes).collect()
    }

    /// The `n` most-written lines as `(line, writes)`, hottest first
    /// (ties break toward the lowest line). Deterministic: the listing is
    /// sorted on every query. Empty unless [`Self::count_lines`] armed
    /// the counters.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self
            .line_writes
            .iter()
            .flat_map(LineCounters::iter)
            .collect();
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Distinct lines written at least once since [`Self::count_lines`].
    pub fn lines_touched(&self) -> u64 {
        self.line_writes.as_ref().map_or(0, LineCounters::touched)
    }

    /// Snapshot of the controller's wear skew: per-bank counts plus, when
    /// lines are counted, the `hot_n` hottest of them; publishable into a
    /// metrics registry.
    pub fn wear_report(&self, hot_n: usize) -> NvmWearReport {
        let hottest_lines = self.hottest_lines(hot_n);
        let max_line_writes = hottest_lines.first().map_or(0, |&(_, w)| w);
        NvmWearReport {
            bank_writes: self.wear_map(),
            lines_counted: self.line_writes.is_some(),
            hottest_lines,
            lines_touched: self.lines_touched(),
            max_line_writes,
        }
    }

    /// Total data-bus busy cycles summed over channels.
    pub fn total_bus_busy_cycles(&self) -> u64 {
        self.channels.iter().map(Channel::busy_cycles).sum()
    }

    /// Last cycle at which any channel had activity.
    pub fn last_activity(&self) -> u64 {
        self.channels
            .iter()
            .map(Channel::last_activity)
            .max()
            .unwrap_or(0)
    }
}

/// A deterministic snapshot of NVM wear skew: per-bank lifetime write
/// counts plus (from a controller that counts them) the hottest lines,
/// publishable through the metrics
/// registry so `--metrics-out` snapshots show where the wear sits (the
/// raw [`NvmController::wear_map`] used to be reachable only from code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmWearReport {
    /// Per-channel, per-bank lifetime write counts.
    pub bank_writes: Vec<Vec<u64>>,
    /// Whether the controller counts lines at all
    /// ([`NvmController::count_lines`]); the three fields below are
    /// measurements only when it does, and only then published.
    pub lines_counted: bool,
    /// The hottest lines as `(line, writes)`, hottest first.
    pub hottest_lines: Vec<(u64, u64)>,
    /// Distinct lines written at least once.
    pub lines_touched: u64,
    /// Lifetime writes of the hottest line.
    pub max_line_writes: u64,
}

impl psoram_obsv::MetricsSource for NvmWearReport {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        for (c, banks) in self.bank_writes.iter().enumerate() {
            for (b, &writes) in banks.iter().enumerate() {
                reg.set_gauge(&R::key(prefix, &format!("bank.c{c}.b{b}")), writes as f64);
            }
        }
        if !self.lines_counted {
            return;
        }
        for (i, &(line, writes)) in self.hottest_lines.iter().enumerate() {
            reg.set_gauge(&R::key(prefix, &format!("hot.{i}.line")), line as f64);
            reg.set_gauge(&R::key(prefix, &format!("hot.{i}.writes")), writes as f64);
        }
        reg.set_gauge(&R::key(prefix, "lines_touched"), self.lines_touched as f64);
        reg.set_gauge(
            &R::key(prefix, "max_line_writes"),
            self.max_line_writes as f64,
        );
    }
}

/// One burst on the banks: matches on the address map once and runs
/// [`step_burst`] over the form it finds. Returns the last completion
/// cycle (`arrival` for an empty burst) and the number of requests.
#[inline]
fn schedule_burst(
    map: &AddressMap,
    channels: &mut [Channel],
    tap: &Tap,
    lines: Option<&mut LineCounters>,
    addrs: impl Iterator<Item = u64>,
    step: Step,
    arrival: u64,
) -> (u64, u64) {
    match map {
        AddressMap::Shifts(map) => step_burst(map, channels, tap, lines, addrs, step, arrival),
        AddressMap::Divisors(map) => step_burst(map, channels, tap, lines, addrs, step, arrival),
    }
}

/// The burst's loop over one form of the address map: every request is
/// decomposed, counted against its line (when `lines` are), stepped
/// through its channel's bus and its bank, and reported to the tap (when
/// one listens). The bus of the channel the loop is on is a local; it goes
/// back to its channel when a request leaves for another, and at the end.
#[inline]
fn step_burst(
    map: &impl Decompose,
    channels: &mut [Channel],
    tap: &Tap,
    mut lines: Option<&mut LineCounters>,
    addrs: impl Iterator<Item = u64>,
    step: Step,
    arrival: u64,
) -> (u64, u64) {
    let traced = tap.is_attached();
    let kind = obsv_kind(step.kind);
    let (mut done, mut requests) = (arrival, 0u64);
    // A validated geometry has a channel 0; a burst that never visits it
    // writes its bus back as it found it.
    let (mut on, mut bus) = (0, channels[0].bus);
    for addr in addrs {
        requests += 1;
        let (line, channel, bank) = map.decompose(addr);
        if let Some(lines) = lines.as_deref_mut() {
            lines.record(line);
        }
        if channel != on {
            channels[on].bus = bus;
            (on, bus) = (channel, channels[channel].bus);
        }
        let complete = bus
            .access(&mut channels[on].banks[bank], &step, arrival)
            .complete;
        if traced {
            tap.emit(|| Event::NvmAccess {
                kind,
                addr,
                channel: channel as u32,
                bank: bank as u32,
                arrival,
                complete,
            });
        }
        done = done.max(complete);
    }
    channels[on].bus = bus;
    (done, requests)
}

/// Maps the controller's request kind onto the observability vocabulary.
fn obsv_kind(kind: AccessKind) -> psoram_obsv::AccessKind {
    match kind {
        AccessKind::Read => psoram_obsv::AccessKind::Read,
        AccessKind::Write => psoram_obsv::AccessKind::Write,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_mapping_interleaves_blocks_across_channels() {
        let mem = NvmController::new(NvmConfig::paper_pcm(4));
        assert_eq!(mem.map_address(0x00).0, 0);
        assert_eq!(mem.map_address(0x40).0, 1);
        assert_eq!(mem.map_address(0x80).0, 2);
        assert_eq!(mem.map_address(0xC0).0, 3);
        assert_eq!(mem.map_address(0x100).0, 0);
    }

    #[test]
    fn same_channel_blocks_rotate_banks() {
        let mem = NvmController::new(NvmConfig::paper_pcm(1));
        let (_, b0) = mem.map_address(0x00);
        let (_, b1) = mem.map_address(0x40);
        assert_ne!(b0, b1);
    }

    #[test]
    fn more_channels_speed_up_batches() {
        let addrs: Vec<u64> = (0..96u64).map(|i| i * 64).collect();
        let mut one = NvmController::new(NvmConfig::paper_pcm(1));
        let mut four = NvmController::new(NvmConfig::paper_pcm(4));
        let t1 = one.access_batch(addrs.clone(), AccessKind::Read, 0);
        let t4 = four.access_batch(addrs, AccessKind::Read, 0);
        assert!(t4 < t1, "4-channel {t4} should beat 1-channel {t1}");
        // ...but not 4x, matching the paper's sub-linear scaling discussion.
        assert!(t4 * 2 > t1 / 2);
    }

    #[test]
    fn stats_count_reads_and_writes_separately() {
        let mut mem = NvmController::new(NvmConfig::default());
        mem.access(0, AccessKind::Read, 0);
        mem.access(64, AccessKind::Write, 0);
        mem.access(128, AccessKind::Write, 0);
        assert_eq!(mem.stats().reads, 1);
        assert_eq!(mem.stats().writes, 2);
        assert_eq!(mem.stats().write_bytes, 128);
    }

    #[test]
    fn wear_map_shape_matches_geometry() {
        let cfg = NvmConfig::paper_pcm(2);
        let mut mem = NvmController::new(cfg.clone());
        for i in 0..64u64 {
            mem.access(i * 64, AccessKind::Write, 0);
        }
        let wear = mem.wear_map();
        assert_eq!(wear.len(), cfg.channels);
        assert!(wear.iter().all(|ch| ch.len() == cfg.banks_per_channel));
        let total: u64 = wear.iter().flatten().sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn line_wear_tracks_hot_lines_deterministically() {
        let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
        mem.count_lines();
        for _ in 0..5 {
            mem.access(0x40, AccessKind::Write, 0);
        }
        mem.access(0x80, AccessKind::Write, 0);
        mem.access(0x00, AccessKind::Read, 0); // reads do not wear cells
        assert_eq!(mem.hottest_lines(2), vec![(1, 5), (2, 1)]);
        assert_eq!(mem.lines_touched(), 2);
        let report = mem.wear_report(1);
        assert_eq!(report.max_line_writes, 5);
        assert_eq!(report.hottest_lines, vec![(1, 5)]);
        assert_eq!(report.bank_writes.len(), 2);
        let mut reg = psoram_obsv::MetricsRegistry::new();
        reg.publish("nvm.wear", &report);
        assert_eq!(reg.gauge("nvm.wear.hot.0.writes"), Some(5.0));
        assert_eq!(reg.gauge("nvm.wear.lines_touched"), Some(2.0));
    }

    #[test]
    fn an_unarmed_controller_counts_no_lines_and_publishes_no_line_gauges() {
        let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
        for i in 0..32u64 {
            mem.access(i * 64, AccessKind::Write, 0);
        }
        assert_eq!(mem.lines_touched(), 0);
        assert!(mem.hottest_lines(8).is_empty());
        let report = mem.wear_report(8);
        assert!(!report.lines_counted);
        assert_eq!(report.bank_writes.iter().flatten().sum::<u64>(), 32);
        let mut reg = psoram_obsv::MetricsRegistry::new();
        reg.publish("nvm.wear", &report);
        assert_eq!(reg.gauge("nvm.wear.bank.c0.b0"), Some(2.0), "the bank map");
        assert_eq!(reg.gauge("nvm.wear.lines_touched"), None);
        assert_eq!(reg.gauge("nvm.wear.max_line_writes"), None);
        assert_eq!(reg.gauge("nvm.wear.hot.0.writes"), None);
    }

    #[test]
    fn lines_count_from_the_arming_call_and_arming_twice_resets_nothing() {
        let mut mem = NvmController::new(NvmConfig::paper_pcm(1));
        mem.access(0x40, AccessKind::Write, 0); // before arming: not counted
        mem.count_lines();
        assert_eq!(mem.lines_touched(), 0);
        mem.access(0x40, AccessKind::Write, 0);
        mem.access(0x80, AccessKind::Write, 0);
        mem.count_lines();
        assert_eq!(mem.hottest_lines(8), vec![(1, 1), (2, 1)]);
        mem.access(0x80, AccessKind::Write, 0);
        assert_eq!(mem.hottest_lines(8), vec![(2, 2), (1, 1)]);
        let report = mem.wear_report(1);
        assert!(report.lines_counted);
        assert_eq!((report.lines_touched, report.max_line_writes), (2, 2));
    }

    #[test]
    fn a_clone_of_an_armed_controller_carries_its_counts() {
        let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
        mem.count_lines();
        mem.access(0x40, AccessKind::Write, 0);
        let mut copy = mem.clone();
        copy.access(0x40, AccessKind::Write, 0);
        assert_eq!(mem.hottest_lines(8), vec![(1, 1)]);
        assert_eq!(
            copy.hottest_lines(8),
            vec![(1, 2)],
            "armed, and counting on"
        );
    }

    #[test]
    fn buffered_writes_wear_lines_at_acceptance() {
        let mut cfg = NvmConfig::paper_pcm(1);
        cfg.write_buffer_entries = 16;
        let mut mem = NvmController::new(cfg);
        mem.count_lines();
        for _ in 0..3 {
            mem.access(0, AccessKind::Write, 0);
        }
        assert_eq!(mem.hottest_lines(1), vec![(0, 3)]);
    }

    #[test]
    fn sttram_reads_faster_than_pcm() {
        let mut pcm = NvmController::new(NvmConfig::paper_pcm(1));
        let mut stt = NvmController::new(NvmConfig::paper_sttram(1));
        assert!(stt.access(0, AccessKind::Read, 0) < pcm.access(0, AccessKind::Read, 0));
    }

    #[test]
    fn reset_stats_clears_traffic_only() {
        let mut mem = NvmController::new(NvmConfig::default());
        let t1 = mem.access(0, AccessKind::Write, 0);
        mem.reset_stats();
        assert_eq!(mem.stats().writes, 0);
        // Timing state survives: the same bank is still busy.
        let t2 = mem.access(0, AccessKind::Write, 0);
        assert!(t2 > t1);
    }

    #[test]
    fn validate_names_the_zero_field() {
        let zeroed = |zero: fn(&mut NvmConfig)| {
            let mut cfg = NvmConfig::paper_pcm(2);
            zero(&mut cfg);
            cfg.validate()
        };
        assert_eq!(NvmConfig::paper_pcm(2).validate(), Ok(()));
        assert_eq!(
            zeroed(|c| c.channels = 0),
            Err(NvmConfigError::ZeroChannels)
        );
        assert_eq!(
            zeroed(|c| c.banks_per_channel = 0),
            Err(NvmConfigError::ZeroBanksPerChannel)
        );
        assert_eq!(
            zeroed(|c| c.block_bytes = 0),
            Err(NvmConfigError::ZeroBlockBytes)
        );
        assert_eq!(
            zeroed(|c| c.bus_bytes_per_cycle = 0),
            Err(NvmConfigError::ZeroBusBytesPerCycle)
        );
        assert_eq!(
            zeroed(|c| c.interleave_blocks = 0),
            Err(NvmConfigError::ZeroInterleaveBlocks)
        );
    }

    #[test]
    #[should_panic(expected = "channels must be at least 1")]
    fn zero_channels_rejected_at_construction() {
        let _ = NvmController::new(NvmConfig::paper_pcm(0));
    }

    #[test]
    #[should_panic(expected = "banks_per_channel must be at least 1")]
    fn zero_banks_rejected_at_construction() {
        let _ = NvmController::new(NvmConfig {
            banks_per_channel: 0,
            ..NvmConfig::paper_pcm(1)
        });
    }

    #[test]
    #[should_panic(expected = "block_bytes must be at least 1")]
    fn zero_block_bytes_rejected_at_construction() {
        let _ = NvmController::new(NvmConfig {
            block_bytes: 0,
            ..NvmConfig::paper_pcm(1)
        });
    }

    #[test]
    #[should_panic(expected = "bus_bytes_per_cycle must be at least 1")]
    fn zero_bus_width_rejected_at_construction() {
        let _ = NvmController::new(NvmConfig {
            bus_bytes_per_cycle: 0,
            ..NvmConfig::paper_pcm(1)
        });
    }

    #[test]
    #[should_panic(expected = "interleave_blocks must be at least 1")]
    fn zero_interleave_rejected_at_construction() {
        let _ = NvmController::new(NvmConfig {
            interleave_blocks: 0,
            ..NvmConfig::paper_pcm(1)
        });
    }

    #[test]
    fn an_empty_burst_completes_at_arrival_and_counts_nothing() {
        let mut mem = NvmController::new(NvmConfig::paper_pcm(2));
        assert_eq!(
            mem.access_batch(std::iter::empty(), AccessKind::Write, 77),
            77
        );
        assert_eq!(*mem.stats(), NvmStats::default());
        assert_eq!(mem.last_activity(), 0);
    }

    #[test]
    fn burst_cycles_for_paper_config() {
        assert_eq!(NvmConfig::paper_pcm(1).burst_cycles(), 8);
    }

    #[test]
    fn write_buffer_acknowledges_writes_immediately() {
        let mut cfg = NvmConfig::paper_pcm(1);
        cfg.write_buffer_entries = 16;
        let mut mem = NvmController::new(cfg);
        let done = mem.access(0, AccessKind::Write, 100);
        assert_eq!(done, 101, "buffered write acks in one cycle");
        assert_eq!(mem.write_buffer_len(), 1);
        assert_eq!(mem.stats().writes, 1, "traffic counted at acceptance");
    }

    #[test]
    fn write_buffer_drains_at_high_watermark() {
        let mut cfg = NvmConfig::paper_pcm(1);
        cfg.write_buffer_entries = 8;
        let mut mem = NvmController::new(cfg);
        for i in 0..8u64 {
            mem.access(i * 64, AccessKind::Write, 0);
        }
        // Hitting the watermark drains down to half.
        assert_eq!(mem.write_buffer_len(), 4);
        assert_eq!(mem.drained_writes(), 4);
    }

    #[test]
    fn buffered_writes_keep_reads_fast() {
        let run = |buffer: usize| {
            let mut cfg = NvmConfig::paper_pcm(1);
            cfg.write_buffer_entries = buffer;
            let mut mem = NvmController::new(cfg);
            // A write burst followed immediately by a dependent read.
            for i in 0..6u64 {
                mem.access(i * 64, AccessKind::Write, 0);
            }
            mem.access(0x8000, AccessKind::Read, 0)
        };
        let unbuffered = run(0);
        let buffered = run(64);
        assert!(
            buffered < unbuffered,
            "read behind writes: {buffered} !< {unbuffered}"
        );
    }

    #[test]
    fn explicit_drain_empties_buffer() {
        let mut cfg = NvmConfig::paper_pcm(1);
        cfg.write_buffer_entries = 32;
        let mut mem = NvmController::new(cfg);
        for i in 0..10u64 {
            mem.access(i * 64, AccessKind::Write, 0);
        }
        let done = mem.drain_write_buffer(100, 0);
        assert_eq!(mem.write_buffer_len(), 0);
        assert!(done > 100);
        assert_eq!(mem.drained_writes(), 10);
    }
}

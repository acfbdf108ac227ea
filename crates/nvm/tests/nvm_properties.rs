//! Property-based tests for the NVM timing model, the persistence domain,
//! and the wear leveler.

use std::sync::Arc;

use proptest::prelude::*;
use psoram_obsv::{Event, RingBufferRecorder, Tap};

use psoram_nvm::{
    AccessKind, NvmConfig, NvmController, NvmStats, StartGap, TimingParams, Wpq, WpqEntry,
};

/// The paper's PCM over an arbitrary geometry.
fn geometry(channels: usize, interleave_blocks: u64, banks: usize, buffer: usize) -> NvmConfig {
    NvmConfig {
        banks_per_channel: banks,
        interleave_blocks,
        write_buffer_entries: buffer,
        ..NvmConfig::paper_pcm(channels)
    }
}

fn kind_of(is_write: bool) -> AccessKind {
    if is_write {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// The controller's per-request arithmetic as the build before the burst
/// kernel computed it (6836432), frozen: `/` and `%` for the address, the
/// bank's `tWTR`/`tCCD` windows, the channel's bus, the write buffer's
/// high and low watermarks, one event a scheduled request. It shares no
/// code with the crate, so a change to the kernel is held against what
/// the model was, not against itself.
struct Reference {
    cfg: NvmConfig,
    t: TimingParams,
    /// Per channel: `[bus_free_at, busy_cycles, last_activity]`.
    bus: Vec<[u64; 3]>,
    /// Per channel and bank: `[ready_at, read_ok_at, cmd_ok_at, writes]`.
    banks: Vec<Vec<[u64; 4]>>,
    stats: NvmStats,
    buffer: std::collections::VecDeque<(u64, u64)>,
    drained: u64,
    lines: Option<std::collections::HashMap<u64, u64>>,
    events: Vec<Event>,
}

impl Reference {
    fn new(cfg: NvmConfig, counted: bool) -> Self {
        Reference {
            t: TimingParams::for_tech(cfg.tech),
            bus: vec![[0; 3]; cfg.channels],
            banks: vec![vec![[0; 4]; cfg.banks_per_channel]; cfg.channels],
            stats: NvmStats::default(),
            buffer: std::collections::VecDeque::new(),
            drained: 0,
            lines: counted.then(std::collections::HashMap::new),
            events: Vec::new(),
            cfg,
        }
    }

    fn schedule(&mut self, addr: u64, kind: AccessKind, arrival: u64, bus_cycles: u64) -> u64 {
        let (t, il, chans) = (self.t, self.cfg.interleave_blocks, self.cfg.channels as u64);
        let block = addr / self.cfg.block_bytes as u64;
        let (ch, local) = (block / il % chans, block / il / chans * il + block % il);
        let bank = local % self.cfg.banks_per_channel as u64;
        let (offset, occupancy) = match kind {
            AccessKind::Read => (t.t_rcd, t.t_rcd + bus_cycles + t.t_rp),
            AccessKind::Write => (t.t_cwd, t.t_cwd + bus_cycles + t.t_wp + t.t_rp),
        };
        let bus = &mut self.bus[ch as usize];
        let b = &mut self.banks[ch as usize][bank as usize];
        let mut issue = arrival
            .max(bus[0].saturating_sub(offset))
            .max(b[0])
            .max(b[2]);
        if kind.is_read() {
            issue = issue.max(b[1]);
        }
        let burst_end = issue + offset + bus_cycles;
        (b[0], b[2]) = (issue + occupancy, issue + t.t_ccd);
        if kind.is_write() {
            (b[1], b[3]) = (burst_end + t.t_wtr, b[3] + 1);
        }
        *bus = [burst_end, bus[1] + bus_cycles, bus[2].max(burst_end)];
        let kind = match kind {
            AccessKind::Read => psoram_obsv::AccessKind::Read,
            AccessKind::Write => psoram_obsv::AccessKind::Write,
        };
        self.events.push(Event::NvmAccess {
            kind,
            addr,
            channel: ch as u32,
            bank: bank as u32,
            arrival,
            complete: burst_end,
        });
        burst_end
    }

    fn wear_map(&self) -> Vec<Vec<u64>> {
        let writes = |channel: &Vec<[u64; 4]>| channel.iter().map(|b| b[3]).collect();
        self.banks.iter().map(writes).collect()
    }

    /// Every counted line, hottest first, ties toward the lowest line.
    fn hottest_lines(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.lines.iter().flatten().map(|(&l, &w)| (l, w)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all
    }

    fn access(&mut self, addr: u64, kind: AccessKind, arrival: u64, bytes: usize) -> u64 {
        let bus_cycles = (bytes as u64)
            .div_ceil(self.cfg.bus_bytes_per_cycle as u64)
            .max(1);
        self.stats.record(kind, bytes as u64);
        if let (true, Some(lines)) = (kind.is_write(), &mut self.lines) {
            *lines.entry(addr / self.cfg.block_bytes as u64).or_insert(0) += 1;
        }
        if kind.is_read() || self.cfg.write_buffer_entries == 0 {
            return self.schedule(addr, kind, arrival, bus_cycles);
        }
        self.buffer.push_back((addr, bus_cycles));
        if self.buffer.len() >= self.cfg.write_buffer_entries {
            while self.buffer.len() > self.cfg.write_buffer_entries / 2 {
                let (addr, bus_cycles) = self.buffer.pop_front().expect("non-empty");
                self.schedule(addr, AccessKind::Write, arrival, bus_cycles);
                self.drained += 1;
            }
        }
        arrival + 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A request can never complete before it arrives, and per-address
    /// service times are positive.
    #[test]
    fn completion_after_arrival(
        addrs in prop::collection::vec(0u64..(1 << 30), 1..64),
        kinds in prop::collection::vec(any::<bool>(), 64),
        channels in prop::sample::select(vec![1usize, 2, 4]),
    ) {
        let mut nvm = NvmController::new(NvmConfig::paper_pcm(channels));
        let mut t = 0u64;
        for (i, addr) in addrs.iter().enumerate() {
            let kind = if kinds[i % kinds.len()] { AccessKind::Write } else { AccessKind::Read };
            let done = nvm.access(addr & !63, kind, t);
            prop_assert!(done > t, "completion {done} not after arrival {t}");
            t = done;
        }
    }

    /// Serving the same batch on more channels is never slower.
    #[test]
    fn more_channels_never_slower(
        blocks in prop::collection::vec(0u64..(1 << 24), 4..80),
    ) {
        let addrs: Vec<u64> = blocks.iter().map(|b| b * 64).collect();
        let mut one = NvmController::new(NvmConfig::paper_pcm(1));
        let mut four = NvmController::new(NvmConfig::paper_pcm(4));
        let t1 = one.access_batch(addrs.clone(), AccessKind::Read, 0);
        let t4 = four.access_batch(addrs, AccessKind::Read, 0);
        prop_assert!(t4 <= t1, "4ch {t4} slower than 1ch {t1}");
    }

    /// The paged line counters report what the `HashMap<line, writes>`
    /// they replaced reported, for arbitrary addresses: runs of
    /// neighbouring lines (shared pages, the last-page memo), lines at
    /// the top of the address space (line numbers are not bounded), and
    /// reads in between (which wear nothing).
    #[test]
    fn line_wear_matches_a_hash_map_of_counts(
        accesses in prop::collection::vec(
            (any::<bool>(), 0u64..4, 0u64..40, any::<u64>(), 0u8..4),
            1..300,
        ),
        hot_n in 0usize..12,
    ) {
        let mut nvm = NvmController::new(NvmConfig::paper_pcm(2));
        nvm.count_lines();
        let mut model: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for (is_write, region, near, anywhere, shape) in accesses {
            let addr = match shape {
                // Four far-apart neighbourhoods, the last two at and above 2^54.
                0..=2 => [0, 1 << 30, 1 << 54, u64::MAX - 4095][region as usize] + near * 64 + 7,
                _ => anywhere,
            };
            if is_write {
                nvm.access(addr, AccessKind::Write, 0);
                *model.entry(addr / 64).or_insert(0) += 1;
            } else {
                nvm.access(addr, AccessKind::Read, 0);
            }
        }
        let mut expected: Vec<(u64, u64)> = model.iter().map(|(&l, &w)| (l, w)).collect();
        // Hottest first; ties toward the lowest line.
        expected.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(nvm.lines_touched(), model.len() as u64);
        prop_assert_eq!(nvm.hottest_lines(usize::MAX), expected.clone());
        expected.truncate(hot_n);
        prop_assert_eq!(nvm.hottest_lines(hot_n), expected.clone());
        let report = nvm.wear_report(hot_n);
        prop_assert_eq!(report.lines_touched, model.len() as u64);
        prop_assert_eq!(report.max_line_writes, expected.first().map_or(0, |&(_, w)| w));
        prop_assert_eq!(report.hottest_lines, expected);
    }

    /// Address mapping is deterministic and in range.
    #[test]
    fn address_mapping_in_range(addr in any::<u64>(), channels in 1usize..5) {
        let nvm = NvmController::new(NvmConfig::paper_pcm(channels));
        let (c1, b1) = nvm.map_address(addr);
        let (c2, b2) = nvm.map_address(addr);
        prop_assert_eq!((c1, b1), (c2, b2));
        prop_assert!(c1 < channels);
        prop_assert!(b1 < 8);
    }

    /// The shift-and-mask address map is the plain `/`-`%` formula, for
    /// power-of-two and other geometries alike.
    #[test]
    fn address_mapping_is_the_division_formula(
        addr in any::<u64>(),
        channels in prop::sample::select(vec![1u64, 2, 3, 4]),
        interleave in prop::sample::select(vec![1u64, 3, 4]),
        banks in prop::sample::select(vec![1u64, 8]),
        block_bytes in prop::sample::select(vec![64u64, 96]),
    ) {
        let mut cfg = geometry(channels as usize, interleave, banks as usize, 0);
        cfg.block_bytes = block_bytes as usize;
        let nvm = NvmController::new(cfg);
        let block = addr / block_bytes;
        let group = block / interleave;
        let local = group / channels * interleave + block % interleave;
        prop_assert_eq!(
            nvm.map_address(addr),
            ((group % channels) as usize, (local % banks) as usize)
        );
    }

    /// WPQ crash semantics: exactly the committed prefix survives, in
    /// order, regardless of the batch pattern.
    #[test]
    fn wpq_crash_preserves_committed_prefix(
        batch_sizes in prop::collection::vec(0usize..6, 1..8),
        commit_mask in prop::collection::vec(any::<bool>(), 8),
    ) {
        let mut q: Wpq<u64> = Wpq::new(1024);
        let mut expected = Vec::new();
        let mut next_val = 0u64;
        let mut open_uncommitted = false;
        for (i, &n) in batch_sizes.iter().enumerate() {
            if open_uncommitted {
                break; // an uncommitted batch must be the last activity
            }
            q.begin_batch().unwrap();
            let mut vals = Vec::new();
            for _ in 0..n {
                q.push(WpqEntry { addr: next_val, value: next_val }).unwrap();
                vals.push(next_val);
                next_val += 1;
            }
            if commit_mask[i % commit_mask.len()] {
                q.end_batch().unwrap();
                expected.extend(vals);
            } else {
                open_uncommitted = true;
            }
        }
        let survived: Vec<u64> = q.crash().into_iter().map(|e| e.value).collect();
        prop_assert_eq!(survived, expected);
    }

    /// Start-Gap stays a bijection from logical lines onto physical lines
    /// minus the gap, for any write pattern length.
    #[test]
    fn start_gap_bijection(lines in 2u64..64, writes in 0u64..500, interval in 1u64..16) {
        let mut sg = StartGap::new(lines, interval);
        for _ in 0..writes {
            sg.record_write();
        }
        let mut seen = std::collections::HashSet::new();
        for l in 0..lines {
            let p = sg.map(l);
            prop_assert!(p <= lines, "physical {p} beyond spare line");
            prop_assert!(seen.insert(p), "collision at physical {p}");
        }
    }

    /// Traffic accounting is exact: one record per access.
    #[test]
    fn stats_count_every_access(
        ops in prop::collection::vec((0u64..(1 << 20), any::<bool>()), 1..100),
    ) {
        let mut nvm = NvmController::new(NvmConfig::paper_pcm(2));
        let mut reads = 0u64;
        let mut writes = 0u64;
        for (block, is_write) in &ops {
            let kind = if *is_write { AccessKind::Write } else { AccessKind::Read };
            nvm.access(block * 64, kind, 0);
            if *is_write { writes += 1 } else { reads += 1 }
        }
        prop_assert_eq!(nvm.stats().reads, reads);
        prop_assert_eq!(nvm.stats().writes, writes);
        prop_assert_eq!(nvm.stats().read_bytes, reads * 64);
    }
}

proptest! {
    // Eleven axes: more cases than the suite's 64, at a millisecond each.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A burst is its requests one at a time, and both are the formulas
    /// of [`Reference`]: two clones of one warmed controller, one fed
    /// bursts through `access_batch_sized`, one fed the same requests
    /// through `access_sized`, and the frozen per-request model agree on
    /// every completion cycle, every statistic, the wear they count and
    /// the `NvmAccess` events they emit, in order — whatever the geometry
    /// (power-of-two or not, block size included), with and without the
    /// write buffer, a tap or the line counters (a benchmark run has
    /// neither), with repeated and colliding addresses, empty bursts, and
    /// arrivals on either side of the last activity.
    #[test]
    fn burst_matches_the_per_request_oracle(
        channels in prop::sample::select(vec![1usize, 2, 3, 4]),
        interleave in prop::sample::select(vec![1u64, 3, 4]),
        banks in prop::sample::select(vec![1usize, 8]),
        buffer in prop::sample::select(vec![0usize, 8]),
        block_bytes in prop::sample::select(vec![64usize, 96]),
        traced in any::<bool>(),
        counted in any::<bool>(),
        warmup in prop::collection::vec((any::<bool>(), 0u64..48), 0..40),
        bursts in prop::collection::vec(
            (
                any::<bool>(),
                prop::sample::select(vec![8usize, 64]),
                0u64..3000,
                prop::collection::vec((0u64..48, 0u64..64), 0..24),
            ),
            1..6,
        ),
    ) {
        let cfg = NvmConfig { block_bytes, ..geometry(channels, interleave, banks, buffer) };
        let mut reference = Reference::new(cfg.clone(), counted);
        let mut warmed = NvmController::new(cfg);
        if counted {
            warmed.count_lines();
        }
        for (is_write, block) in warmup {
            warmed.access(block * 64, kind_of(is_write), 0);
            reference.access(block * 64, kind_of(is_write), 0, block_bytes);
        }
        reference.events.clear();
        let (mut burst, mut oracle) = (warmed.clone(), warmed);
        let (burst_events, oracle_events) = (
            Arc::new(RingBufferRecorder::new(4096)),
            Arc::new(RingBufferRecorder::new(4096)),
        );
        if traced {
            burst.set_tap(Tap::attached(burst_events.clone()));
            oracle.set_tap(Tap::attached(oracle_events.clone()));
        }

        for (is_write, bytes, arrival, requests) in bursts {
            let kind = kind_of(is_write);
            let addrs = requests.iter().map(|&(block, offset)| block * 64 + offset);
            let done = burst.access_batch_sized(addrs.clone(), kind, arrival, bytes);
            let folded = addrs.clone().fold(arrival, |done, addr| {
                done.max(oracle.access_sized(addr, kind, arrival, bytes))
            });
            let modelled = addrs.fold(arrival, |done, addr| {
                done.max(reference.access(addr, kind, arrival, bytes))
            });
            prop_assert_eq!(done, folded);
            prop_assert_eq!(done, modelled);
        }
        let hottest = reference.hottest_lines();
        if !traced {
            reference.events.clear();
        }
        for (side, events) in [(&burst, &burst_events), (&oracle, &oracle_events)] {
            prop_assert_eq!(side.stats(), &reference.stats);
            prop_assert_eq!(side.wear_map(), reference.wear_map());
            prop_assert_eq!(
                side.total_bus_busy_cycles(),
                reference.bus.iter().map(|b| b[1]).sum::<u64>()
            );
            prop_assert_eq!(
                side.last_activity(),
                reference.bus.iter().map(|b| b[2]).max().unwrap_or(0)
            );
            prop_assert_eq!(side.drained_writes(), reference.drained);
            prop_assert_eq!(side.write_buffer_len(), reference.buffer.len());
            prop_assert_eq!(side.hottest_lines(usize::MAX), hottest.clone());
            prop_assert_eq!(side.lines_touched(), hottest.len() as u64);
            prop_assert_eq!(&events.events(), &reference.events);
            prop_assert_eq!(events.dropped(), 0);
        }
    }
}

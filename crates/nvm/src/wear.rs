//! Wear leveling, endurance modeling, and crash-consistent line
//! retirement for the NVM backend.
//!
//! The paper highlights that PS-ORAM is "friendly to NVM lifetime", but an
//! ORAM's physical write pattern is brutally skewed — the root bucket is
//! rewritten on every access — so a production deployment dies of wear-out
//! long before its mean line does. This module supplies the three pieces
//! the endurance adversary needs:
//!
//! * [`StartGap`] — the classic algebraic rotation (Qureshi et al.,
//!   MICRO'09): one spare line and a moving *gap* shift every logical line
//!   by one position per full rotation, no remap table required.
//! * [`EnduranceModel`] — seeded per-line cell budgets around a
//!   configurable mean, so hot lines exhaust their budget first.
//! * [`RemapTable`] — a spare-line pool with retire-on-conviction: when a
//!   line is convicted (stuck reads past its budget), it is remapped onto
//!   a spare and the content is repaired from the redundant copy.
//!
//! [`WearEngine`] ties them together under the persistence domain with a
//! *staged vs. durable* mapping discipline: gap moves and retirements
//! mutate the staged mapping, [`WearEngine::commit`] (called inside the
//! persist engine's commit round) makes them durable, and
//! [`WearEngine::revert`] (called at a crash) rolls the staged mapping
//! back — so a crash mid-gap-move or mid-retirement recovers to a single
//! consistent mapping and no address ever resolves to two lines. Per-line
//! write counts are *device* truth (programmed cells do not un-program)
//! and are never rolled back.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Bytes per wear-tracked media line (one cacheline persist unit).
pub const WEAR_LINE_BYTES: u64 = 64;

/// Base of the spare-line id space handed out by [`RemapTable`]. Far
/// above any simulated NVM line so spares never collide with the
/// address-derived line ids.
pub const SPARE_LINE_BASE: u64 = 1 << 48;

/// A gap-move event: the controller must copy one line into the gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GapMove {
    /// Physical line whose content moves into the old gap position.
    pub from_line: u64,
    /// Physical line that becomes the new gap.
    pub to_line: u64,
}

/// Start-Gap address rotation over `lines` logical lines (using `lines + 1`
/// physical lines).
///
/// # Examples
///
/// ```
/// use psoram_nvm::{GapMove, StartGap};
///
/// let mut sg = StartGap::new(8, 4); // move the gap every 4 writes
/// let before: Vec<u64> = (0..8).map(|l| sg.map(l)).collect();
/// let mv = (0..4).find_map(|_| sg.record_write()).expect("4 writes move the gap");
/// // The first move slides the line just below the gap into the gap...
/// assert_eq!(mv, GapMove { from_line: 7, to_line: 8 });
/// let after: Vec<u64> = (0..8).map(|l| sg.map(l)).collect();
/// // ...so exactly one logical line's mapping changed, onto the old gap.
/// let changed: Vec<usize> = (0..8).filter(|&l| before[l] != after[l]).collect();
/// assert_eq!(changed, vec![7]);
/// assert_eq!(after[7], 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StartGap {
    lines: u64,
    start: u64,
    /// Physical position of the gap, in `0..=lines`.
    gap: u64,
    interval: u64,
    writes_since_move: u64,
    gap_moves: u64,
}

impl StartGap {
    /// Creates a Start-Gap mapper over `lines` logical lines, moving the
    /// gap after every `interval` writes.
    ///
    /// # Panics
    ///
    /// Panics if `lines` or `interval` is zero.
    pub fn new(lines: u64, interval: u64) -> Self {
        assert!(lines > 0, "need at least one line");
        assert!(interval > 0, "gap move interval must be positive");
        StartGap {
            lines,
            start: 0,
            gap: lines,
            interval,
            writes_since_move: 0,
            gap_moves: 0,
        }
    }

    /// Maps a logical line to its current physical line.
    ///
    /// # Panics
    ///
    /// Panics if `logical >= lines`.
    pub fn map(&self, logical: u64) -> u64 {
        assert!(logical < self.lines, "logical line out of range");
        let pa = (logical + self.start) % self.lines;
        if pa >= self.gap {
            pa + 1
        } else {
            pa
        }
    }

    /// Records one write; every `interval` writes the gap moves one
    /// position and the required line copy is returned.
    pub fn record_write(&mut self) -> Option<GapMove> {
        self.writes_since_move += 1;
        if self.writes_since_move < self.interval {
            return None;
        }
        self.writes_since_move = 0;
        self.gap_moves += 1;
        let mv = if self.gap == 0 {
            // Full rotation complete: gap wraps to the top and the start
            // shifts by one, sliding every logical line.
            self.start = (self.start + 1) % self.lines;
            let mv = GapMove {
                from_line: self.lines,
                to_line: 0,
            };
            self.gap = self.lines;
            mv
        } else {
            let mv = GapMove {
                from_line: self.gap - 1,
                to_line: self.gap,
            };
            self.gap -= 1;
            mv
        };
        Some(mv)
    }

    /// Number of gap moves performed (each costs one extra line write).
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Number of logical lines managed.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Current gap position (for mapping digests and invariant checks).
    pub fn gap(&self) -> u64 {
        self.gap
    }

    /// Current start offset (for mapping digests and invariant checks).
    pub fn start(&self) -> u64 {
        self.start
    }
}

/// Which wear-leveling design point sits under the persistence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WearScheme {
    /// No leveling: logical lines map to themselves, convictions have no
    /// spare to retire onto (the device fails in place).
    None,
    /// Start-Gap rotation (one spare line, algebraic shift).
    StartGap,
    /// Spare-pool retirement: convicted lines remap onto spares.
    Remap,
}

impl WearScheme {
    /// Every design point, in sweep order.
    pub fn all() -> [WearScheme; 3] {
        [WearScheme::None, WearScheme::StartGap, WearScheme::Remap]
    }

    /// Stable lower-case label (used in reports and metric keys).
    pub fn label(self) -> &'static str {
        match self {
            WearScheme::None => "none",
            WearScheme::StartGap => "start_gap",
            WearScheme::Remap => "remap",
        }
    }
}

impl std::fmt::Display for WearScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the [`WearEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WearConfig {
    /// The leveling / retirement design point.
    pub scheme: WearScheme,
    /// Mean per-line cell budget (writes before the line wears out).
    pub mean_endurance: f64,
    /// Relative spread of the per-line budget around the mean (0.1 =
    /// ±10%), seeded per line by the [`EnduranceModel`].
    pub endurance_spread: f64,
    /// Start-Gap rotation interval (gap moves every this many writes).
    pub gap_interval: u64,
    /// Spare lines available to the [`RemapTable`] (Remap scheme only).
    pub spare_lines: u64,
    /// Uniform pre-aging: writes every line is assumed to already carry
    /// (models a near-end-of-life device without simulating years).
    pub preage_writes: u64,
}

impl WearConfig {
    /// The paper-scale endurance point: 10^7 ± 10% cell budget, the
    /// MICRO'09 gap interval, a small spare pool, no pre-aging.
    pub fn paper_default(scheme: WearScheme) -> Self {
        WearConfig {
            scheme,
            mean_endurance: 1e7,
            endurance_spread: 0.10,
            gap_interval: 100,
            spare_lines: 64,
            preage_writes: 0,
        }
    }

    /// A stress point for campaigns: tiny pre-aged budgets so wear faults
    /// fire within a few hundred accesses instead of years.
    pub fn stress(scheme: WearScheme) -> Self {
        WearConfig {
            scheme,
            mean_endurance: 512.0,
            endurance_spread: 0.25,
            gap_interval: 16,
            spare_lines: 16,
            preage_writes: 384,
        }
    }
}

/// Deterministic seeded per-line cell budgets.
///
/// Stateless: `budget(line)` hashes `(seed, line)` through a SplitMix64
/// finalizer into a uniform budget in `mean * (1 ± spread)`, so two
/// models with the same seed agree on every line forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnduranceModel {
    seed: u64,
    mean: f64,
    spread: f64,
}

impl EnduranceModel {
    /// Creates a model with the given mean budget and relative spread.
    pub fn new(seed: u64, mean: f64, spread: f64) -> Self {
        EnduranceModel {
            // Avoid the all-zeros fixed point without perturbing seeds.
            seed: seed ^ 0xBB67_AE85_84CA_A73B,
            mean,
            spread,
        }
    }

    /// The seeded cell budget of `line` (always at least 1).
    pub fn budget(&self, line: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(line.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // uniform [0, 1)
        let budget = self.mean * (1.0 + self.spread * (2.0 * u - 1.0));
        budget.max(1.0) as u64
    }
}

/// The spare-line retirement map: convicted physical lines remap onto
/// spares drawn from a finite pool. Chains are allowed (a spare can wear
/// out and retire onto another spare); [`RemapTable::resolve`] follows
/// them to the terminal line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RemapTable {
    /// Retired physical line → its replacement (possibly itself retired).
    map: BTreeMap<u64, u64>,
    /// Unused spares, kept descending so `pop` hands them out in order.
    free: Vec<u64>,
    retired: u64,
}

impl RemapTable {
    /// Creates a table with `spares` spare lines in its pool.
    pub fn new(spares: u64) -> Self {
        RemapTable {
            map: BTreeMap::new(),
            free: (0..spares).rev().map(|i| SPARE_LINE_BASE + i).collect(),
            retired: 0,
        }
    }

    /// Follows the retirement chain from `line` to its terminal
    /// replacement (identity when the line was never retired).
    pub fn resolve(&self, line: u64) -> u64 {
        let mut cur = line;
        // The chain is acyclic by construction (spares are handed out
        // once); bound the walk anyway so a corrupted table cannot hang.
        for _ in 0..=self.map.len() {
            match self.map.get(&cur) {
                Some(&next) => cur = next,
                None => return cur,
            }
        }
        cur
    }

    /// Retires `line` onto a fresh spare, returning the spare — or `None`
    /// when the pool is dry (the device has no capacity left to degrade
    /// into). `line` must be terminal (resolve before convicting).
    pub fn retire(&mut self, line: u64) -> Option<u64> {
        debug_assert!(
            !self.map.contains_key(&line),
            "retiring a non-terminal line"
        );
        let spare = self.free.pop()?;
        self.map.insert(line, spare);
        self.retired += 1;
        Some(spare)
    }

    /// Lines retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Spares still available.
    pub fn spares_left(&self) -> u64 {
        self.free.len() as u64
    }

    /// `true` when no two retirement chains share a terminal line — the
    /// "no address resolves to two lines" half of the mapping invariant
    /// (the other half, injectivity of Start-Gap, is proven separately).
    pub fn is_injective(&self) -> bool {
        // Interior chain nodes (a retired spare) share their head's
        // terminal by construction; the invariant is over chain *heads*:
        // two distinct still-addressable lines never share a terminal.
        let interior: std::collections::BTreeSet<u64> = self.map.values().copied().collect();
        let mut seen = std::collections::BTreeSet::new();
        self.map
            .keys()
            .filter(|k| !interior.contains(k))
            .all(|&k| seen.insert(self.resolve(k)))
    }
}

/// Counters the wear engine accumulates (monotonic, never rolled back).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WearStats {
    /// Media line writes recorded (including gap-move copies and
    /// retirement repair copies).
    pub writes_recorded: u64,
    /// Start-Gap moves performed.
    pub gap_moves: u64,
    /// Lines convicted by the fault layer (stuck past budget).
    pub convictions: u64,
    /// Convictions that retired onto a spare.
    pub retirements: u64,
    /// Repair copies written while retiring (content restored from the
    /// redundant copy onto the spare).
    pub repairs: u64,
    /// Mapping commits (staged state made durable in a persist round).
    pub map_commits: u64,
    /// Mapping reverts (staged state rolled back by a crash).
    pub map_reverts: u64,
}

/// The complete wear-leveling state, staged or durable.
#[derive(Debug, Clone, PartialEq)]
struct MapState {
    start_gap: Option<StartGap>,
    remap: RemapTable,
}

impl MapState {
    fn resolve(&self, line: u64) -> u64 {
        let leveled = match &self.start_gap {
            Some(sg) if line < sg.lines() => sg.map(line),
            _ => line,
        };
        self.remap.resolve(leveled)
    }
}

/// Outcome of convicting a worn line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conviction {
    /// The line was retired onto `spare` and its content repaired from
    /// the redundant copy (staged; durable at the next commit round).
    Retired {
        /// The spare line now serving the retired line's address.
        spare: u64,
    },
    /// No spare capacity (or no retirement layer): the line is dead in
    /// place and the controller must fail safe.
    Exhausted,
}

/// The endurance adversary's bookkeeping under the persistence domain:
/// per-line write counts, seeded budgets, and the crash-consistent
/// leveling/retirement mapping.
///
/// Mapping mutations (gap moves, retirements) stage first;
/// [`WearEngine::commit`] — invoked inside the persist engine's commit
/// round — makes them durable, and [`WearEngine::revert`] — invoked at a
/// crash — rolls them back, so recovery always sees one consistent
/// mapping. Write counts are physical-cell truth and survive both.
#[derive(Debug, Clone)]
pub struct WearEngine {
    cfg: WearConfig,
    endurance: EnduranceModel,
    durable: MapState,
    staged: MapState,
    /// Physical line → lifetime writes. BTreeMap for deterministic
    /// iteration (digests, hottest-line queries).
    writes: BTreeMap<u64, u64>,
    stats: WearStats,
}

impl WearEngine {
    /// Creates an engine over a device of `lines` media lines.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn new(seed: u64, lines: u64, cfg: WearConfig) -> Self {
        assert!(lines > 0, "need at least one media line");
        let start_gap = (cfg.scheme == WearScheme::StartGap)
            .then(|| StartGap::new(lines, cfg.gap_interval.max(1)));
        let spares = if cfg.scheme == WearScheme::Remap {
            cfg.spare_lines
        } else {
            0
        };
        let state = MapState {
            start_gap,
            remap: RemapTable::new(spares),
        };
        WearEngine {
            cfg,
            endurance: EnduranceModel::new(seed, cfg.mean_endurance, cfg.endurance_spread),
            durable: state.clone(),
            staged: state,
            writes: BTreeMap::new(),
            stats: WearStats::default(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> WearConfig {
        self.cfg
    }

    fn line_of(addr: u64) -> u64 {
        addr / WEAR_LINE_BYTES
    }

    /// Records one media write at `addr` through the staged mapping; a
    /// Start-Gap rotation triggered by the write stages its gap move and
    /// charges the copy write.
    pub fn record_write(&mut self, addr: u64) {
        let phys = self.staged.resolve(Self::line_of(addr));
        *self.writes.entry(phys).or_insert(0) += 1;
        self.stats.writes_recorded += 1;
        if let Some(sg) = self.staged.start_gap.as_mut() {
            if let Some(mv) = sg.record_write() {
                // The gap move copies one line: extra media wear, staged
                // mapping shift until the next commit round.
                *self.writes.entry(mv.to_line).or_insert(0) += 1;
                self.stats.gap_moves += 1;
                self.stats.writes_recorded += 1;
            }
        }
    }

    /// Records a write flushed by the ADR energy reserve *at* the crash:
    /// the cells are programmed (wear is real) but the leveler does not
    /// advance — any staged rotation is about to be reverted anyway.
    pub fn record_crash_write(&mut self, addr: u64) {
        let phys = self.durable.resolve(Self::line_of(addr));
        *self.writes.entry(phys).or_insert(0) += 1;
        self.stats.writes_recorded += 1;
    }

    /// Wear fraction (lifetime writes / seeded budget, plus pre-aging) of
    /// the physical line currently serving `addr`. 1.0 means the budget
    /// is exhausted; values above 1.0 mean the line is living on borrowed
    /// time.
    pub fn fraction(&self, addr: u64) -> f64 {
        self.fraction_of_line(self.staged.resolve(Self::line_of(addr)))
    }

    fn fraction_of_line(&self, phys: u64) -> f64 {
        let writes = self.writes.get(&phys).copied().unwrap_or(0) + self.cfg.preage_writes;
        writes as f64 / self.endurance.budget(phys) as f64
    }

    /// The most-worn physical line among the lines serving `addrs`,
    /// with its wear fraction (ties break toward the lowest line id;
    /// empty input reports line 0 at fraction 0).
    pub fn hottest(&self, addrs: impl IntoIterator<Item = u64>) -> (u64, f64) {
        let mut best = (0u64, 0.0f64);
        let mut found = false;
        for addr in addrs {
            let phys = self.staged.resolve(Self::line_of(addr));
            let frac = self.fraction_of_line(phys);
            if !found || frac > best.1 || (frac == best.1 && phys < best.0) {
                best = (phys, frac);
                found = true;
            }
        }
        best
    }

    /// Convicts the physical line `phys` (stuck reads past its budget).
    /// Under the Remap scheme with spare capacity left, the line retires
    /// onto a spare (staged) and the repair copy is charged; otherwise
    /// the device is exhausted at that line.
    pub fn convict(&mut self, phys: u64) -> Conviction {
        self.stats.convictions += 1;
        if self.cfg.scheme == WearScheme::Remap {
            let terminal = self.staged.remap.resolve(phys);
            if let Some(spare) = self.staged.remap.retire(terminal) {
                self.stats.retirements += 1;
                self.stats.repairs += 1;
                // Repairing from the redundant copy programs the spare.
                *self.writes.entry(spare).or_insert(0) += 1;
                return Conviction::Retired { spare };
            }
        }
        Conviction::Exhausted
    }

    /// Makes the staged mapping durable. Called inside the persist
    /// engine's commit round: the mapping update rides the same atomic
    /// commit point as the round it belongs to.
    pub fn commit(&mut self) {
        if self.staged != self.durable {
            self.durable = self.staged.clone();
            self.stats.map_commits += 1;
        }
    }

    /// Rolls the staged mapping back to the last durable state. Called at
    /// a crash: an in-flight gap move or retirement that missed its
    /// commit round never happened.
    pub fn revert(&mut self) {
        if self.staged != self.durable {
            self.staged = self.durable.clone();
            self.stats.map_reverts += 1;
        }
    }

    #[cfg(test)]
    /// `true` while the staged mapping has mutations the next commit
    /// round will make durable.
    pub fn has_staged_changes(&self) -> bool {
        self.staged != self.durable
    }

    /// FNV-1a digest of the *durable* mapping state — what recovery would
    /// reconstruct. Folds the scheme, the Start-Gap registers, and every
    /// retirement chain entry.
    pub fn mapping_digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        fold(self.cfg.scheme as u64);
        if let Some(sg) = &self.durable.start_gap {
            fold(sg.start());
            fold(sg.gap());
            fold(sg.gap_moves());
        }
        for (&from, &to) in &self.durable.remap.map {
            fold(from);
            fold(to);
        }
        fold(self.durable.remap.spares_left());
        h
    }

    /// Resolves `addr` through the staged mapping (current serving line).
    pub fn resolve(&self, addr: u64) -> u64 {
        self.staged.resolve(Self::line_of(addr))
    }

    #[cfg(test)]
    /// Resolves `addr` through the durable mapping (what a crash
    /// recovery would use).
    pub fn durable_resolve(&self, addr: u64) -> u64 {
        self.durable.resolve(Self::line_of(addr))
    }

    /// Accumulated counters.
    pub fn stats(&self) -> WearStats {
        self.stats
    }

    /// Lifetime writes of the hottest physical line.
    pub fn max_line_writes(&self) -> u64 {
        self.writes.values().copied().max().unwrap_or(0)
    }

    /// Physical lines with at least one recorded write.
    pub fn lines_touched(&self) -> u64 {
        self.writes.len() as u64
    }

    /// The highest wear fraction across every touched line.
    pub fn max_fraction(&self) -> f64 {
        self.writes
            .keys()
            .map(|&l| self.fraction_of_line(l))
            .fold(0.0, f64::max)
    }

    /// The `n` most-written physical lines as `(line, writes)`, hottest
    /// first (ties break toward the lowest line id). Deterministic.
    pub fn hottest_lines(&self, n: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self.writes.iter().map(|(&l, &w)| (l, w)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// Spares still available to the retirement layer.
    pub fn spares_left(&self) -> u64 {
        self.staged.remap.spares_left()
    }

    /// `true` when both the staged and the durable retirement maps are
    /// injective (no two retired lines share a terminal replacement).
    pub fn mapping_is_injective(&self) -> bool {
        self.staged.remap.is_injective() && self.durable.remap.is_injective()
    }
}

impl psoram_obsv::MetricsSource for WearEngine {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        let s = self.stats;
        reg.set_counter(&R::key(prefix, "writes_recorded"), s.writes_recorded);
        reg.set_counter(&R::key(prefix, "gap_moves"), s.gap_moves);
        reg.set_counter(&R::key(prefix, "convictions"), s.convictions);
        reg.set_counter(&R::key(prefix, "retirements"), s.retirements);
        reg.set_counter(&R::key(prefix, "repairs"), s.repairs);
        reg.set_counter(&R::key(prefix, "map_commits"), s.map_commits);
        reg.set_counter(&R::key(prefix, "map_reverts"), s.map_reverts);
        reg.set_gauge(&R::key(prefix, "max_fraction"), self.max_fraction());
        reg.set_gauge(
            &R::key(prefix, "lines_touched"),
            self.lines_touched() as f64,
        );
        reg.set_gauge(&R::key(prefix, "spares_left"), self.spares_left() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mapping_is_injective_at_all_times() {
        let mut sg = StartGap::new(16, 1);
        for step in 0..200 {
            let mapped: HashSet<u64> = (0..16).map(|l| sg.map(l)).collect();
            assert_eq!(mapped.len(), 16, "collision at step {step}");
            assert!(mapped.iter().all(|&p| p <= 16));
            // The gap line is never mapped.
            assert!(!mapped.contains(&sg.gap));
            sg.record_write();
        }
    }

    #[test]
    fn gap_moves_every_interval() {
        let mut sg = StartGap::new(8, 4);
        let mut moves = 0;
        for _ in 0..40 {
            if sg.record_write().is_some() {
                moves += 1;
            }
        }
        assert_eq!(moves, 10);
        assert_eq!(sg.gap_moves(), 10);
    }

    #[test]
    fn full_rotation_shifts_start() {
        let lines = 4u64;
        let mut sg = StartGap::new(lines, 1);
        let initial: Vec<u64> = (0..lines).map(|l| sg.map(l)).collect();
        // One full rotation = lines + 1 gap moves.
        for _ in 0..=lines {
            sg.record_write();
        }
        let after: Vec<u64> = (0..lines).map(|l| sg.map(l)).collect();
        assert_ne!(initial, after, "a full rotation must shift the mapping");
    }

    #[test]
    fn hot_line_wear_is_spread_over_rotations() {
        // Hammer logical line 0 and count physical-line write distribution.
        let lines = 8u64;
        let mut sg = StartGap::new(lines, 8);
        let mut wear = vec![0u64; lines as usize + 1];
        for _ in 0..20_000 {
            wear[sg.map(0) as usize] += 1;
            if let Some(mv) = sg.record_write() {
                wear[mv.to_line as usize] += 1; // the copy write
            }
        }
        let touched = wear.iter().filter(|&&w| w > 0).count();
        assert!(
            touched >= lines as usize,
            "hot line should rotate over (nearly) all physical lines, touched {touched}"
        );
        let max = *wear.iter().max().unwrap() as f64;
        let avg = wear.iter().sum::<u64>() as f64 / wear.len() as f64;
        assert!(
            max / avg < 3.0,
            "wear still concentrated: max {max}, avg {avg:.0}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_logical_rejected() {
        StartGap::new(4, 1).map(4);
    }

    #[test]
    fn endurance_budgets_are_seeded_and_bounded() {
        let m = EnduranceModel::new(42, 1e7, 0.10);
        let again = EnduranceModel::new(42, 1e7, 0.10);
        let mut distinct = HashSet::new();
        for line in 0..1000u64 {
            let b = m.budget(line);
            assert_eq!(b, again.budget(line), "budget must be stable");
            assert!(
                (9e6..=1.1e7 + 1.0).contains(&(b as f64)),
                "budget {b} out of band"
            );
            distinct.insert(b);
        }
        assert!(distinct.len() > 100, "budgets should vary per line");
        // A different seed reshuffles the budgets.
        let other = EnduranceModel::new(43, 1e7, 0.10);
        assert!((0..1000u64).any(|l| other.budget(l) != m.budget(l)));
    }

    #[test]
    fn remap_resolves_chains_and_stays_injective() {
        let mut t = RemapTable::new(4);
        let s1 = t.retire(7).unwrap();
        assert_eq!(t.resolve(7), s1);
        // The spare itself wears out: chain to a second spare.
        let s2 = t.retire(s1).unwrap();
        assert_eq!(t.resolve(7), s2, "chains resolve to the terminal line");
        assert_eq!(t.resolve(s1), s2);
        assert!(t.is_injective());
        assert_eq!(t.retired(), 2);
        assert_eq!(t.spares_left(), 2);
        // Drain the pool.
        assert!(t.retire(8).is_some());
        assert!(t.retire(9).is_some());
        assert_eq!(t.retire(10), None, "dry pool refuses to retire");
    }

    #[test]
    fn engine_counts_wear_through_the_scheme() {
        let cfg = WearConfig::paper_default(WearScheme::None);
        let mut w = WearEngine::new(1, 64, cfg);
        for _ in 0..10 {
            w.record_write(0); // line 0
        }
        w.record_write(64); // line 1
        assert_eq!(w.max_line_writes(), 10);
        assert_eq!(w.lines_touched(), 2);
        assert_eq!(w.hottest_lines(1), vec![(0, 10)]);
        let (line, frac) = w.hottest([0, 64]);
        assert_eq!(line, 0);
        assert!(frac > 0.0);
        assert_eq!(w.stats().writes_recorded, 11);
    }

    #[test]
    fn start_gap_engine_spreads_the_hot_line() {
        let mut cfg = WearConfig::paper_default(WearScheme::StartGap);
        cfg.gap_interval = 4;
        let mut w = WearEngine::new(1, 16, cfg);
        for _ in 0..2000 {
            w.record_write(0);
            w.commit();
        }
        assert!(w.stats().gap_moves > 0);
        // Rotation must have spread line 0's writes over several
        // physical lines.
        assert!(
            w.lines_touched() >= 8,
            "rotation should spread wear, touched {}",
            w.lines_touched()
        );
        assert!(w.max_line_writes() < 2000);
    }

    #[test]
    fn staged_mutations_commit_or_revert_atomically() {
        let mut cfg = WearConfig::stress(WearScheme::Remap);
        let mut w = WearEngine::new(9, 32, cfg);
        let d0 = w.mapping_digest();
        let line = w.resolve(0);
        match w.convict(line) {
            Conviction::Retired { spare } => {
                assert_eq!(w.resolve(0), spare, "staged mapping serves the spare");
                assert_eq!(w.durable_resolve(0), line, "durable mapping unchanged");
                assert!(w.has_staged_changes());
                assert_eq!(w.mapping_digest(), d0, "digest covers durable state only");
                // Crash before the commit round: the retirement never
                // happened.
                w.revert();
                assert_eq!(w.resolve(0), line);
                assert!(!w.has_staged_changes());
                assert_eq!(w.stats().map_reverts, 1);
                // Convict again and commit: now it is durable.
                let Conviction::Retired { spare: s2 } = w.convict(line) else {
                    panic!("spares left; must retire");
                };
                w.commit();
                assert_eq!(w.durable_resolve(0), s2);
                assert_ne!(w.mapping_digest(), d0);
                assert!(w.mapping_is_injective());
            }
            Conviction::Exhausted => panic!("fresh pool must retire"),
        }
        // None-scheme convictions exhaust immediately.
        cfg.scheme = WearScheme::None;
        let mut none = WearEngine::new(9, 32, cfg);
        assert_eq!(none.convict(3), Conviction::Exhausted);
    }

    #[test]
    fn crash_writes_wear_the_durable_lines() {
        let mut cfg = WearConfig::stress(WearScheme::Remap);
        cfg.preage_writes = 0;
        let mut w = WearEngine::new(5, 16, cfg);
        let Conviction::Retired { spare } = w.convict(2) else {
            panic!("must retire");
        };
        // Staged points line 2 at the spare, durable does not: an ADR
        // crash flush of addr 128 (line 2) wears the *old* line.
        w.record_crash_write(128);
        w.revert();
        let writes: Vec<(u64, u64)> = w.hottest_lines(8);
        assert!(
            writes.contains(&(2, 1)),
            "crash write lands on line 2: {writes:?}"
        );
        assert!(
            writes.contains(&(spare, 1)),
            "repair copy wears the spare: {writes:?}"
        );
    }

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(WearScheme::None.label(), "none");
        assert_eq!(WearScheme::StartGap.to_string(), "start_gap");
        assert_eq!(WearScheme::Remap.label(), "remap");
        assert_eq!(WearScheme::all().len(), 3);
    }
}

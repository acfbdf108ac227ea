//! Device-level fault model for the WPQ/NVM backend.
//!
//! PS-ORAM's crash-consistency argument leans on two device guarantees
//! that real NVM parts do not actually give:
//!
//! 1. **ADR atomicity** — that the energy reserve drains every committed
//!    WPQ batch to media in full. In practice persists complete at
//!    cacheline (64 B) granularity, so an interrupted drain can tear a
//!    batch mid-way, and a dropped (or doubled) drainer `end` signal can
//!    lose or replay a whole round.
//! 2. **Media fidelity** — that a cell returns what was written. PCM and
//!    STT-RAM exhibit resistance drift and stuck-at faults, so recently
//!    programmed lines can read back corrupted, and reads can fail
//!    transiently.
//!
//! [`FaultPlan`] is a seeded adversary that decides, at each crash and
//! each media read, which of these violations occur. It owns its own
//! SplitMix64 stream so installing it never perturbs controller RNGs:
//! with all probabilities at zero the instrumented system is
//! bit-identical to the uninstrumented one.
//!
//! On top of the device violations, the plan models an *active* memory
//! adversary against freshness: re-serving a stale-but-authentic snapshot
//! of a persist unit ([`FaultClass::StaleReplay`]), or swapping two
//! authentic units across addresses ([`FaultClass::CrossSplice`]). Both
//! defeat pure content authentication — the replayed bytes carry a valid
//! tag — and are only caught by the counter-tree freshness layer in
//! `psoram-core`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use serde::{Deserialize, Serialize};

/// Classification of a detected device fault.
///
/// This is the `FaultClass` half of the recovery taxonomy: recovery code
/// classifies damage it *detects* into one of these, pairs it with a
/// repair-or-fail-safe decision, and reports it (see `RecoveryError` in
/// `psoram-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultClass {
    /// An ADR drain was interrupted mid-batch: a prefix of the round's
    /// cachelines reached media, the suffix did not.
    TornFlush,
    /// A drainer `end` signal was dropped: the whole committed round
    /// never reached media.
    SignalLoss,
    /// A drainer `end` signal was duplicated: the round's writes were
    /// applied twice (benign for idempotent slot writes, but it must be
    /// detected, deduplicated, and accounted).
    DuplicatedSignal,
    /// Media corruption: bit rot or interrupted cell programming in a
    /// recently written region.
    MediaCorruption,
    /// A media read failed transiently (or the line is stuck).
    TransientRead,
    /// A stale-but-authentic snapshot of a persist unit was re-served in
    /// place of the freshest version (replay; includes rollback to the
    /// never-written genesis state).
    StaleReplay,
    /// An authentic unit (content plus its stored freshness record) was
    /// moved from one address onto another.
    CrossSplice,
    /// A media line exhausted its cell budget: wear-correlated stuck-at
    /// failure that no retry (and, without spare capacity, no repair)
    /// can recover.
    WearOut,
}

impl FaultClass {
    /// Stable lower-case label (used in reports and event args).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::TornFlush => "torn_flush",
            FaultClass::SignalLoss => "signal_loss",
            FaultClass::DuplicatedSignal => "duplicated_signal",
            FaultClass::MediaCorruption => "media_corruption",
            FaultClass::TransientRead => "transient_read",
            FaultClass::StaleReplay => "stale_replay",
            FaultClass::CrossSplice => "cross_splice",
            FaultClass::WearOut => "wear_out",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-fault-kind injection probabilities.
///
/// All values are probabilities in `[0, 1]`. The round-fate draws
/// (`torn_flush`, `signal_loss`, `duplicate_signal`) are evaluated in
/// that order against the round whose media programming the crash
/// interrupted; `bit_flip_per_unit` is drawn once per surviving persist
/// unit; `transient_read` once per path load, with `stuck_read` the
/// conditional probability that the failure is persistent rather than
/// transient (defeating bounded retry).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// P(interrupted drain tears the in-flight round).
    pub torn_flush: f64,
    /// P(the in-flight round's end signal was lost entirely).
    pub signal_loss: f64,
    /// P(the in-flight round's end signal was duplicated).
    pub duplicate_signal: f64,
    /// P(bit flip) per surviving persist unit of the in-flight round.
    pub bit_flip_per_unit: f64,
    /// P(read failure) per media path load.
    pub transient_read: f64,
    /// P(failure is stuck | read failure): retries will not help.
    pub stuck_read: f64,
    /// P(the crash re-serves one stale-but-authentic persist unit of the
    /// in-flight round) — the replay adversary.
    pub stale_replay: f64,
    /// P(the crash swaps two authentic persist units across addresses) —
    /// the splice adversary.
    pub cross_splice: f64,
    /// P(one path load transiently re-serves a stale snapshot of a unit)
    /// — the read-time replay adversary.
    pub read_replay: f64,
    /// Scale of the wear-coupled media arm: the per-path-load fault
    /// probability is `wear_media_fault * frac²`, where `frac` is the
    /// hottest loaded line's wear fraction (clamped to 1) — so faults
    /// concentrate progressively on hot lines instead of landing
    /// uniformly.
    pub wear_media_fault: f64,
    /// P(the wear fault is a stuck-at conviction | the line is past its
    /// budget): retirement (or fail-safe) instead of a transient retry.
    pub wear_stuck: f64,
}

impl FaultConfig {
    /// No faults: an installed plan with this config is inert.
    pub fn disabled() -> Self {
        FaultConfig {
            torn_flush: 0.0,
            signal_loss: 0.0,
            duplicate_signal: 0.0,
            bit_flip_per_unit: 0.0,
            transient_read: 0.0,
            stuck_read: 0.0,
            stale_replay: 0.0,
            cross_splice: 0.0,
            read_replay: 0.0,
            wear_media_fault: 0.0,
            wear_stuck: 0.0,
        }
    }

    /// The device-fault campaign mix: every class fires often enough for
    /// a few-hundred-crash campaign to exercise all of them. The replay
    /// adversary stays off — see [`FaultConfig::replay_mix`].
    pub fn campaign_default() -> Self {
        FaultConfig {
            torn_flush: 0.25,
            signal_loss: 0.10,
            duplicate_signal: 0.10,
            bit_flip_per_unit: 0.06,
            transient_read: 0.03,
            stuck_read: 0.10,
            ..Self::disabled()
        }
    }

    /// An aggressive mix for stress tests: most crashes damage something.
    pub fn aggressive() -> Self {
        FaultConfig {
            torn_flush: 0.45,
            signal_loss: 0.25,
            duplicate_signal: 0.15,
            bit_flip_per_unit: 0.25,
            transient_read: 0.08,
            stuck_read: 0.15,
            ..Self::disabled()
        }
    }

    /// Arms the replay/splice adversary on top of an existing mix.
    pub fn with_replay(mut self) -> Self {
        self.stale_replay = 0.30;
        self.cross_splice = 0.18;
        self.read_replay = 0.05;
        self
    }

    /// The replay campaign mix: the default device mix plus the
    /// replay/splice adversary.
    pub fn replay_mix() -> Self {
        Self::campaign_default().with_replay()
    }

    /// Arms the wear-coupled media arm on top of an existing mix. At
    /// full scale a budget-exhausted line faults on (almost) every load;
    /// half of those convictions are stuck-at.
    pub fn with_wear(mut self) -> Self {
        self.wear_media_fault = 0.9;
        self.wear_stuck = 0.5;
        self
    }

    /// The endurance campaign mix: *only* the wear arm, so every injected
    /// fault in a lifetime campaign is wear-correlated and the crash-side
    /// schedule stays identical to an uninstrumented run.
    pub fn wear_only() -> Self {
        Self::disabled().with_wear()
    }

    /// The full wear campaign mix: the default device mix plus the
    /// wear-coupled arm.
    pub fn wear_mix() -> Self {
        Self::campaign_default().with_wear()
    }

    /// `true` when every probability is zero.
    pub fn is_disabled(&self) -> bool {
        self.torn_flush == 0.0
            && self.signal_loss == 0.0
            && self.duplicate_signal == 0.0
            && self.bit_flip_per_unit == 0.0
            && self.transient_read == 0.0
            && self.stale_replay == 0.0
            && self.cross_splice == 0.0
            && self.read_replay == 0.0
            && self.wear_media_fault == 0.0
    }

    /// `true` when the plan can ever re-serve a *previous* version of a
    /// unit (at a crash or on the read wire). Only then does the
    /// adversary need a snapshot of what each write overwrites; splices
    /// swap current units and need none.
    pub fn replays_stale_units(&self) -> bool {
        self.stale_replay > 0.0 || self.read_replay > 0.0
    }
}

/// Counters of faults a plan has injected (ground truth, for differential
/// checks against what recovery *detected*).
///
/// The replay-adversary counters (`stale_replays`, `cross_splices`,
/// `read_replays`) are skipped during serialization while at their
/// defaults, so device-campaign artifacts produced before the replay
/// adversary existed deserialize unchanged and a replay-free run
/// serializes exactly as it did before the fields existed. That
/// skip-at-default contract is why `Serialize`/`Deserialize` are
/// hand-written rather than derived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Rounds torn mid-drain.
    pub torn_flushes: u64,
    /// Rounds lost to a dropped end signal.
    pub signal_losses: u64,
    /// Rounds replayed by a duplicated end signal.
    pub duplicated_signals: u64,
    /// Individual persist units hit by bit flips.
    pub bit_flips: u64,
    /// Read failures injected (transient and stuck).
    pub read_faults: u64,
    /// Read failures that were stuck (retry-defeating).
    pub stuck_reads: u64,
    /// Crash-round fates drawn (including `Intact`).
    pub fates_drawn: u64,
    /// Persist units re-served stale at a crash (replay adversary).
    pub stale_replays: u64,
    /// Unit pairs swapped across addresses at a crash (splice adversary).
    pub cross_splices: u64,
    /// Path loads that transiently re-served a stale unit snapshot.
    pub read_replays: u64,
    /// Wear-correlated media faults injected (transient and stuck).
    pub wear_faults: u64,
    /// Wear faults that were stuck-at convictions (past-budget lines).
    pub wear_stuck_faults: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.torn_flushes
            + self.signal_losses
            + self.duplicated_signals
            + self.bit_flips
            + self.read_faults
            + self.total_replays()
            + self.wear_faults
    }

    /// Freshness attacks injected (crash replays, splices, read replays).
    pub fn total_replays(&self) -> u64 {
        self.stale_replays + self.cross_splices + self.read_replays
    }
}

impl std::ops::AddAssign for FaultStats {
    /// Sums every counter: a campaign that rebuilds a controller folds the
    /// torn-down plan's ground truth into the run's.
    fn add_assign(&mut self, s: FaultStats) {
        self.torn_flushes += s.torn_flushes;
        self.signal_losses += s.signal_losses;
        self.duplicated_signals += s.duplicated_signals;
        self.bit_flips += s.bit_flips;
        self.read_faults += s.read_faults;
        self.stuck_reads += s.stuck_reads;
        self.fates_drawn += s.fates_drawn;
        self.stale_replays += s.stale_replays;
        self.cross_splices += s.cross_splices;
        self.read_replays += s.read_replays;
        self.wear_faults += s.wear_faults;
        self.wear_stuck_faults += s.wear_stuck_faults;
    }
}

impl Serialize for FaultStats {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("torn_flushes".to_string(), self.torn_flushes.to_value()),
            ("signal_losses".to_string(), self.signal_losses.to_value()),
            (
                "duplicated_signals".to_string(),
                self.duplicated_signals.to_value(),
            ),
            ("bit_flips".to_string(), self.bit_flips.to_value()),
            ("read_faults".to_string(), self.read_faults.to_value()),
            ("stuck_reads".to_string(), self.stuck_reads.to_value()),
            ("fates_drawn".to_string(), self.fates_drawn.to_value()),
        ];
        if self.stale_replays != 0 {
            fields.push(("stale_replays".to_string(), self.stale_replays.to_value()));
        }
        if self.cross_splices != 0 {
            fields.push(("cross_splices".to_string(), self.cross_splices.to_value()));
        }
        if self.read_replays != 0 {
            fields.push(("read_replays".to_string(), self.read_replays.to_value()));
        }
        // Like the replay counters, the wear counters are skipped at
        // their defaults so pre-endurance artifacts round-trip unchanged
        // and a wear-free run serializes exactly as before.
        if self.wear_faults != 0 {
            fields.push(("wear_faults".to_string(), self.wear_faults.to_value()));
        }
        if self.wear_stuck_faults != 0 {
            fields.push((
                "wear_stuck_faults".to_string(),
                self.wear_stuck_faults.to_value(),
            ));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for FaultStats {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let fields = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected object for FaultStats"))?;
        fn optional(v: &serde::Value, key: &str) -> Result<u64, serde::DeError> {
            match v.get(key) {
                Some(inner) => u64::from_value(inner),
                None => Ok(0),
            }
        }
        Ok(FaultStats {
            torn_flushes: Deserialize::from_value(serde::object_field(
                fields,
                "torn_flushes",
                "FaultStats",
            )?)?,
            signal_losses: Deserialize::from_value(serde::object_field(
                fields,
                "signal_losses",
                "FaultStats",
            )?)?,
            duplicated_signals: Deserialize::from_value(serde::object_field(
                fields,
                "duplicated_signals",
                "FaultStats",
            )?)?,
            bit_flips: Deserialize::from_value(serde::object_field(
                fields,
                "bit_flips",
                "FaultStats",
            )?)?,
            read_faults: Deserialize::from_value(serde::object_field(
                fields,
                "read_faults",
                "FaultStats",
            )?)?,
            stuck_reads: Deserialize::from_value(serde::object_field(
                fields,
                "stuck_reads",
                "FaultStats",
            )?)?,
            fates_drawn: Deserialize::from_value(serde::object_field(
                fields,
                "fates_drawn",
                "FaultStats",
            )?)?,
            stale_replays: optional(v, "stale_replays")?,
            cross_splices: optional(v, "cross_splices")?,
            read_replays: optional(v, "read_replays")?,
            wear_faults: optional(v, "wear_faults")?,
            wear_stuck_faults: optional(v, "wear_stuck_faults")?,
        })
    }
}

impl psoram_obsv::MetricsSource for FaultStats {
    fn publish(&self, prefix: &str, reg: &mut psoram_obsv::MetricsRegistry) {
        use psoram_obsv::MetricsRegistry as R;
        reg.set_counter(&R::key(prefix, "torn_flushes"), self.torn_flushes);
        reg.set_counter(&R::key(prefix, "signal_losses"), self.signal_losses);
        reg.set_counter(
            &R::key(prefix, "duplicated_signals"),
            self.duplicated_signals,
        );
        reg.set_counter(&R::key(prefix, "bit_flips"), self.bit_flips);
        reg.set_counter(&R::key(prefix, "read_faults"), self.read_faults);
        reg.set_counter(&R::key(prefix, "stuck_reads"), self.stuck_reads);
        reg.set_counter(&R::key(prefix, "fates_drawn"), self.fates_drawn);
        reg.set_counter(&R::key(prefix, "stale_replays"), self.stale_replays);
        reg.set_counter(&R::key(prefix, "cross_splices"), self.cross_splices);
        reg.set_counter(&R::key(prefix, "read_replays"), self.read_replays);
        reg.set_counter(&R::key(prefix, "wear_faults"), self.wear_faults);
        reg.set_counter(&R::key(prefix, "wear_stuck_faults"), self.wear_stuck_faults);
    }
}

/// The fate a [`FaultPlan`] assigns to the round whose media programming
/// a crash interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundFate {
    /// The drain completed; every unit reached media (bit flips may still
    /// hit individual units).
    Intact,
    /// Only the first `kept` units reached media; the rest read back as
    /// interrupted-programming garbage.
    Torn {
        /// Units (cachelines) that completed before the tear.
        kept: usize,
    },
    /// The end signal was dropped: no unit of the round reached media.
    Lost,
    /// The end signal was duplicated: the round applied twice.
    Duplicated,
}

/// The outcome a [`FaultPlan`] assigns to one media path load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// The read succeeds.
    None,
    /// The read fails `attempts` times, then succeeds (bounded retry with
    /// backoff recovers it).
    Transient {
        /// Failed attempts before the read goes through.
        attempts: u32,
    },
    /// The line is stuck: every retry fails; the controller must
    /// fail-safe.
    Stuck,
}

/// A seeded device-fault adversary.
///
/// Deterministic: the same seed, config, and call sequence produce the
/// same fault schedule, which is what keeps device-fault campaigns
/// byte-identical across job counts. The plan draws from its own
/// SplitMix64 stream and never touches any controller RNG.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    state: u64,
    stats: FaultStats,
}

impl FaultPlan {
    /// Creates a plan from a seed and a fault mix.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        FaultPlan {
            cfg,
            // Avoid the all-zeros fixed point without perturbing other seeds.
            state: seed ^ 0x6A09_E667_F3BC_C909,
            stats: FaultStats::default(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            // Still consume a draw so the schedule does not depend on
            // which probabilities are zero.
            let _ = self.next_u64();
            return false;
        }
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Draws the fate of the in-flight round of `units` persist units.
    ///
    /// With `units == 0` the fate is always [`RoundFate::Intact`] (there
    /// is nothing in flight), but draws are still consumed so the
    /// downstream schedule is independent of round sizes.
    pub fn round_fate(&mut self, units: usize) -> RoundFate {
        self.stats.fates_drawn += 1;
        let torn = self.chance(self.cfg.torn_flush);
        let lost = self.chance(self.cfg.signal_loss);
        let dup = self.chance(self.cfg.duplicate_signal);
        let kept_draw = self.next_u64();
        if units == 0 {
            return RoundFate::Intact;
        }
        if lost {
            self.stats.signal_losses += 1;
            RoundFate::Lost
        } else if torn {
            self.stats.torn_flushes += 1;
            RoundFate::Torn {
                kept: (kept_draw % units as u64) as usize,
            }
        } else if dup {
            self.stats.duplicated_signals += 1;
            RoundFate::Duplicated
        } else {
            RoundFate::Intact
        }
    }

    /// Draws whether one surviving persist unit takes a bit flip.
    pub fn unit_corrupted(&mut self) -> bool {
        let hit = self.chance(self.cfg.bit_flip_per_unit);
        if hit {
            self.stats.bit_flips += 1;
        }
        hit
    }

    /// Entropy for choosing which byte/bit of a damaged unit to flip.
    pub fn entropy(&mut self) -> u64 {
        self.next_u64()
    }

    /// Draws whether the crash re-serves one stale unit of the in-flight
    /// round, and which (an index into the round's persist units).
    ///
    /// With the replay adversary disabled (probability zero) no entropy
    /// is consumed at all, so a replay-free mix keeps the exact fault
    /// schedule of a plan that never knew about replays. With it armed,
    /// draws are always consumed — even when `units == 0` and nothing
    /// can be replayed — so the downstream schedule is independent of
    /// round sizes. A replayed unit of the last applied round always has
    /// an authentic prior snapshot (the round overwrote it), so a `Some`
    /// here is always applied — the counter is ground truth for the
    /// differential detection check.
    pub fn replay_fate(&mut self, units: usize) -> Option<usize> {
        if self.cfg.stale_replay <= 0.0 {
            return None;
        }
        let hit = self.chance(self.cfg.stale_replay);
        let pick = self.next_u64();
        if units == 0 || !hit {
            return None;
        }
        Some((pick % units as u64) as usize)
    }

    /// Counts one *applied* crash-time replay. The controller confirms
    /// after restoring the unit's stale snapshot, so the ground-truth
    /// counter only covers attacks that actually landed on media (a
    /// drawn replay with no recorded history, for instance, never
    /// happened).
    pub fn confirm_stale_replay(&mut self) {
        self.stats.stale_replays += 1;
    }

    /// Draws whether the crash swaps two authentic units of the in-flight
    /// round across addresses, and which pair (distinct indices).
    ///
    /// Entropy rules mirror [`FaultPlan::replay_fate`]: zero probability
    /// consumes nothing; an armed mix always draws, even when `units < 2`
    /// and no pair exists.
    pub fn splice_fate(&mut self, units: usize) -> Option<(usize, usize)> {
        if self.cfg.cross_splice <= 0.0 {
            return None;
        }
        let hit = self.chance(self.cfg.cross_splice);
        let first = self.next_u64();
        let second = self.next_u64();
        if units < 2 || !hit {
            return None;
        }
        let i = (first % units as u64) as usize;
        let mut j = (second % (units as u64 - 1)) as usize;
        if j >= i {
            j += 1;
        }
        Some((i, j))
    }

    /// Counts one *applied* cross-address splice (see
    /// [`FaultPlan::confirm_stale_replay`] for the confirm discipline).
    /// A drawn pair whose indices land on the same media unit, or whose
    /// units were already destroyed by bit rot, is a no-op the
    /// controller never confirms.
    pub fn confirm_cross_splice(&mut self) {
        self.stats.cross_splices += 1;
    }

    /// Draws whether one media path load transiently re-serves a stale
    /// snapshot, returning entropy for choosing which path unit.
    ///
    /// Entropy rules mirror [`FaultPlan::replay_fate`]: zero probability
    /// consumes nothing. Whether the pick lands on a unit that *has* a
    /// stale snapshot is the controller's to decide; it reports an
    /// applied serve back via [`FaultPlan::confirm_read_replay`] so the
    /// ground-truth counter only counts attacks that actually reached
    /// the fetch path.
    pub fn read_replay(&mut self) -> Option<u64> {
        if self.cfg.read_replay <= 0.0 {
            return None;
        }
        let hit = self.chance(self.cfg.read_replay);
        let pick = self.next_u64();
        hit.then_some(pick)
    }

    /// Counts one applied read-time replay (see [`FaultPlan::read_replay`]).
    pub fn confirm_read_replay(&mut self) {
        self.stats.read_replays += 1;
    }

    /// Draws the outcome of one media path load.
    pub fn read_fault(&mut self) -> ReadFault {
        let fail = self.chance(self.cfg.transient_read);
        let stuck = self.chance(self.cfg.stuck_read);
        let extra = self.next_u64();
        if !fail {
            return ReadFault::None;
        }
        self.stats.read_faults += 1;
        if stuck {
            self.stats.stuck_reads += 1;
            ReadFault::Stuck
        } else {
            ReadFault::Transient {
                attempts: 1 + (extra % 2) as u32,
            }
        }
    }

    /// Draws the wear-coupled outcome of one media path load, given the
    /// wear fraction of the hottest line the load touches (lifetime
    /// writes / seeded cell budget; 1.0 = budget exhausted).
    ///
    /// The fault probability is `wear_media_fault * frac²` (clamping
    /// `frac` to 1), so cold lines are effectively immune and faults
    /// concentrate progressively on hot lines. A fault on a past-budget
    /// line (`frac >= 1`) escalates to [`ReadFault::Stuck`] with
    /// probability `wear_stuck` — a conviction the controller must retire
    /// or fail safe on; everything else is a transient drift failure that
    /// bounded retry recovers.
    ///
    /// Entropy rules mirror [`FaultPlan::replay_fate`]: with the arm
    /// disabled (`wear_media_fault <= 0`) *no* entropy is consumed, so a
    /// wear-free mix keeps the exact fault schedule of a plan that never
    /// knew about wear — goldens pass un-re-blessed. Armed, the draw
    /// always consumes its three units, whatever the wear values, so the
    /// schedule is independent of how worn the device happens to be.
    pub fn wear_fault(&mut self, wear_fraction: f64) -> ReadFault {
        if self.cfg.wear_media_fault <= 0.0 {
            return ReadFault::None;
        }
        let frac = wear_fraction.clamp(0.0, 1.0);
        let fail = self.chance(self.cfg.wear_media_fault * frac * frac);
        let stuck = self.chance(self.cfg.wear_stuck);
        let extra = self.next_u64();
        if !fail {
            return ReadFault::None;
        }
        self.stats.wear_faults += 1;
        if stuck && wear_fraction >= 1.0 {
            self.stats.wear_stuck_faults += 1;
            ReadFault::Stuck
        } else {
            ReadFault::Transient {
                attempts: 1 + (extra % 2) as u32,
            }
        }
    }

    /// Counters of everything injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan's fault mix.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_sum_field_by_field() {
        let stats = |k: u64| FaultStats {
            torn_flushes: k,
            signal_losses: 2 * k,
            duplicated_signals: 3 * k,
            bit_flips: 4 * k,
            read_faults: 5 * k,
            stuck_reads: 6 * k,
            fates_drawn: 7 * k,
            stale_replays: 8 * k,
            cross_splices: 9 * k,
            read_replays: 10 * k,
            wear_faults: 11 * k,
            wear_stuck_faults: 12 * k,
        };
        let mut sum = stats(1);
        sum += stats(100);
        assert_eq!(sum, stats(101));
        // Every summand of the total: 1+2+3+4+5 (torn … read faults),
        // 8+9+10 (replays), 11 (wear), times 101.
        assert_eq!(sum.total_injected(), 53 * 101);
    }

    #[test]
    fn identical_seeds_produce_identical_schedules() {
        let mut a = FaultPlan::new(7, FaultConfig::replay_mix());
        let mut b = FaultPlan::new(7, FaultConfig::replay_mix());
        for units in [0usize, 1, 5, 9, 3, 12] {
            assert_eq!(a.round_fate(units), b.round_fate(units));
            assert_eq!(a.unit_corrupted(), b.unit_corrupted());
            assert_eq!(a.read_fault(), b.read_fault());
            assert_eq!(a.replay_fate(units), b.replay_fate(units));
            assert_eq!(a.splice_fate(units), b.splice_fate(units));
            assert_eq!(a.read_replay(), b.read_replay());
            assert_eq!(a.entropy(), b.entropy());
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn disabled_plan_injects_nothing() {
        let mut p = FaultPlan::new(3, FaultConfig::disabled());
        for _ in 0..200 {
            assert_eq!(p.round_fate(8), RoundFate::Intact);
            assert!(!p.unit_corrupted());
            assert_eq!(p.read_fault(), ReadFault::None);
            assert_eq!(p.replay_fate(8), None);
            assert_eq!(p.splice_fate(8), None);
            assert_eq!(p.read_replay(), None);
            assert_eq!(p.wear_fault(1.0), ReadFault::None);
        }
        assert_eq!(p.stats().total_injected(), 0);
        assert!(FaultConfig::disabled().is_disabled());
        assert!(!FaultConfig::campaign_default().is_disabled());
        assert!(!FaultConfig::replay_mix().is_disabled());
    }

    #[test]
    fn replay_draws_are_schedule_invariant() {
        // Within an armed mix the replay draws must consume entropy even
        // when nothing can be replayed (empty round, singleton round for
        // a splice), so the downstream schedule does not depend on round
        // sizes.
        let mut a = FaultPlan::new(5, FaultConfig::replay_mix());
        let mut b = FaultPlan::new(5, FaultConfig::replay_mix());
        assert_eq!(a.replay_fate(0), None);
        assert_eq!(a.splice_fate(1), None);
        let _ = b.replay_fate(9);
        let _ = b.splice_fate(9);
        assert_eq!(a.entropy(), b.entropy(), "draw counts diverged");

        // With the adversary off (probability zero) the draws burn *no*
        // entropy: a replay-free mix keeps the exact schedule of a plan
        // that never drew replay fates at all.
        let mut c = FaultPlan::new(6, FaultConfig::campaign_default());
        let mut d = FaultPlan::new(6, FaultConfig::campaign_default());
        let _ = c.replay_fate(4);
        let _ = c.splice_fate(4);
        let _ = c.read_replay();
        assert_eq!(c.entropy(), d.entropy(), "disabled draws consumed entropy");
    }

    #[test]
    fn splice_picks_a_distinct_pair() {
        let mut p = FaultPlan::new(
            17,
            FaultConfig {
                cross_splice: 1.0,
                ..FaultConfig::disabled()
            },
        );
        for units in [2usize, 3, 5, 8, 13] {
            for _ in 0..64 {
                let (i, j) = p.splice_fate(units).expect("p=1 must splice");
                assert_ne!(i, j);
                assert!(i < units && j < units);
            }
        }
    }

    #[test]
    fn replay_classes_fire_under_replay_mix() {
        let mut p = FaultPlan::new(0xF2E5, FaultConfig::replay_mix());
        let mut applied_reads = 0;
        for _ in 0..2000 {
            if p.replay_fate(8).is_some() {
                p.confirm_stale_replay();
            }
            if p.splice_fate(8).is_some() {
                p.confirm_cross_splice();
            }
            if p.read_replay().is_some() {
                p.confirm_read_replay();
                applied_reads += 1;
            }
        }
        let s = p.stats();
        assert!(s.stale_replays > 0, "no stale replay in 2000 draws");
        assert!(s.cross_splices > 0, "no cross splice in 2000 draws");
        assert_eq!(s.read_replays, applied_reads);
        assert_eq!(
            s.total_replays(),
            s.stale_replays + s.cross_splices + s.read_replays
        );
        assert!(s.total_injected() >= s.total_replays());
    }

    #[test]
    fn fault_stats_serde_skips_replay_fields_at_default() {
        // Golden-compatibility contract: a replay-free stats record
        // serializes exactly as it did before the adversary existed.
        let s = FaultStats {
            torn_flushes: 3,
            fates_drawn: 10,
            ..FaultStats::default()
        };
        let json = serde_json::to_string(&s).expect("serialize");
        assert!(!json.contains("stale_replays"));
        assert!(!json.contains("cross_splices"));
        assert!(!json.contains("read_replays"));
        let back: FaultStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);

        let armed = FaultStats {
            stale_replays: 2,
            cross_splices: 1,
            read_replays: 4,
            ..s
        };
        let json = serde_json::to_string(&armed).expect("serialize");
        assert!(json.contains("stale_replays"));
        let back: FaultStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, armed);
    }

    #[test]
    fn wear_draws_are_schedule_invariant() {
        // Armed: the wear draw consumes its fixed entropy whatever the
        // wear fraction, so the downstream schedule is independent of how
        // worn the device is.
        let mut a = FaultPlan::new(5, FaultConfig::wear_mix());
        let mut b = FaultPlan::new(5, FaultConfig::wear_mix());
        let _ = a.wear_fault(0.0);
        let _ = b.wear_fault(1.5);
        assert_eq!(a.entropy(), b.entropy(), "draw counts diverged");

        // Disabled: no entropy at all — a wear-free mix keeps the exact
        // schedule of a plan that never drew wear fates (golden compat).
        let mut c = FaultPlan::new(6, FaultConfig::campaign_default());
        let mut d = FaultPlan::new(6, FaultConfig::campaign_default());
        let _ = c.wear_fault(1.0);
        let _ = c.wear_fault(0.3);
        assert_eq!(c.entropy(), d.entropy(), "disabled draws consumed entropy");
    }

    #[test]
    fn wear_faults_concentrate_on_hot_lines() {
        let mut p = FaultPlan::new(0xEA2, FaultConfig::wear_only());
        let mut cold = 0u64;
        let mut hot = 0u64;
        let mut stuck = 0u64;
        for _ in 0..2000 {
            if p.wear_fault(0.05) != ReadFault::None {
                cold += 1;
            }
            match p.wear_fault(1.0) {
                ReadFault::None => {}
                ReadFault::Transient { attempts } => {
                    assert!((1..=2).contains(&attempts));
                    hot += 1;
                }
                ReadFault::Stuck => {
                    hot += 1;
                    stuck += 1;
                }
            }
        }
        assert!(hot > 100 * cold.max(1), "hot {hot} vs cold {cold}");
        assert!(stuck > 0, "past-budget lines must convict eventually");
        let s = p.stats();
        assert_eq!(s.wear_faults, hot + cold);
        assert_eq!(s.wear_stuck_faults, stuck);
        assert!(s.total_injected() >= s.wear_faults);
        // A below-budget line never sticks, however worn.
        let mut q = FaultPlan::new(1, FaultConfig::wear_only());
        for _ in 0..500 {
            assert_ne!(q.wear_fault(0.99), ReadFault::Stuck);
        }
        assert!(!FaultConfig::wear_only().is_disabled());
    }

    #[test]
    fn fault_stats_serde_skips_wear_fields_at_default() {
        let s = FaultStats {
            read_faults: 2,
            fates_drawn: 4,
            ..FaultStats::default()
        };
        let json = serde_json::to_string(&s).expect("serialize");
        assert!(!json.contains("wear_faults"));
        assert!(!json.contains("wear_stuck_faults"));
        let back: FaultStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, s);

        let armed = FaultStats {
            wear_faults: 7,
            wear_stuck_faults: 3,
            ..s
        };
        let json = serde_json::to_string(&armed).expect("serialize");
        assert!(json.contains("wear_faults"));
        let back: FaultStats = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, armed);
    }

    #[test]
    fn torn_keeps_a_strict_prefix() {
        let mut p = FaultPlan::new(11, FaultConfig::aggressive());
        let mut saw_torn = false;
        for _ in 0..500 {
            if let RoundFate::Torn { kept } = p.round_fate(6) {
                assert!(kept < 6, "a torn round must drop at least one unit");
                saw_torn = true;
            }
        }
        assert!(saw_torn, "aggressive mix never tore a round in 500 draws");
        assert!(p.stats().torn_flushes > 0);
    }

    #[test]
    fn empty_rounds_are_always_intact_but_consume_draws() {
        let mut a = FaultPlan::new(5, FaultConfig::aggressive());
        let mut b = FaultPlan::new(5, FaultConfig::aggressive());
        assert_eq!(a.round_fate(0), RoundFate::Intact);
        // b skips the empty round: streams must now diverge, proving the
        // empty round consumed entropy (schedule independence).
        let a_next = a.entropy();
        let b_next = b.entropy();
        assert_ne!(a_next, b_next);
    }

    #[test]
    fn all_classes_fire_under_campaign_mix() {
        let mut p = FaultPlan::new(0xCA_50, FaultConfig::campaign_default());
        for _ in 0..3000 {
            let _ = p.round_fate(8);
            let _ = p.unit_corrupted();
            let _ = p.read_fault();
        }
        let s = p.stats();
        assert!(s.torn_flushes > 0, "no torn flush in 3000 draws");
        assert!(s.signal_losses > 0, "no signal loss in 3000 draws");
        assert!(s.duplicated_signals > 0, "no duplicated signal");
        assert!(s.bit_flips > 0, "no bit flip");
        assert!(s.read_faults > 0, "no read fault");
        assert!(s.stuck_reads > 0, "no stuck read");
        assert_eq!(s.fates_drawn, 3000);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(FaultClass::TornFlush.label(), "torn_flush");
        assert_eq!(FaultClass::SignalLoss.to_string(), "signal_loss");
        assert_eq!(FaultClass::DuplicatedSignal.label(), "duplicated_signal");
        assert_eq!(FaultClass::MediaCorruption.label(), "media_corruption");
        assert_eq!(FaultClass::TransientRead.label(), "transient_read");
        assert_eq!(FaultClass::StaleReplay.label(), "stale_replay");
        assert_eq!(FaultClass::CrossSplice.to_string(), "cross_splice");
        assert_eq!(FaultClass::WearOut.label(), "wear_out");
    }
}

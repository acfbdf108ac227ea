//! Lockdown suite for the `psoram-obsv` taps threaded through the ORAM
//! controllers.
//!
//! Three properties pin the observability layer down:
//!
//! 1. **Observer transparency** — running the identical workload with no
//!    recorder, a [`NoopRecorder`], and a [`RingBufferRecorder`] must
//!    produce byte-identical metrics snapshots. The taps observe; they
//!    never perturb.
//! 2. **Golden trace** — a fixed-seed run exports a chrome://tracing
//!    JSON that matches a checked-in golden byte-for-byte, so any
//!    accidental change to event emission or the exporter shows up as a
//!    diff. Re-bless with `PSORAM_BLESS=1 cargo test -p psoram-core
//!    --test obsv_tests`.
//! 3. **Stream invariants** — the event stream obeys the structural
//!    rules the exporters and `ingest_events` rely on: WPQ occupancy
//!    never exceeds capacity, persist rounds bracket correctly, phase
//!    and NVM intervals are well-formed, access indices are strictly
//!    increasing, and recoveries never outnumber crashes.

use std::sync::Arc;

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_obsv::{
    chrome_trace_json, Event, MetricsRegistry, NoopRecorder, RingBufferRecorder,
    DEFAULT_RING_CAPACITY,
};

fn payload(i: u64) -> Vec<u8> {
    vec![(i % 251) as u8; 8]
}

/// The two persistent designs, built fresh at a fixed seed, boxed behind
/// the shared policy surface so one loop covers both controllers.
fn designs() -> Vec<(&'static str, Box<dyn ProtocolPolicy>)> {
    let mut path = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
    path.set_payload_encryption(false);
    vec![
        ("path/ps-oram", Box::new(path)),
        (
            "ring/ps-ring",
            Box::new(RingOram::new(
                RingConfig::small_test(),
                RingVariant::PsRing,
                7,
            )),
        ),
    ]
}

/// A deterministic workload with writes, reads, and one crash/recover
/// cycle, so every event class is exercised.
fn drive(oram: &mut dyn ProtocolPolicy) {
    for i in 0..20u64 {
        oram.write(i % 12, payload(i)).unwrap();
    }
    oram.inject_crash(CrashPoint::AfterUpdateStash);
    assert!(oram.read(3).is_err(), "armed crash must fire");
    assert!(oram.recover().consistent, "recovery must succeed");
    for i in 0..12u64 {
        oram.read(i).unwrap();
    }
}

/// The run's observable outcome, serialized for byte comparison: the
/// full metrics registry plus the controller clock.
fn report_of(oram: &dyn ProtocolPolicy, label: &str) -> String {
    let mut reg = MetricsRegistry::new();
    oram.publish_metrics(label, &mut reg);
    format!("clock={}\n{}", oram.clock(), reg.to_json_string())
}

#[test]
fn recorders_do_not_perturb_the_simulation() {
    for ((label, mut bare), (_, mut noop), (_, mut ring)) in designs()
        .into_iter()
        .zip(designs())
        .zip(designs())
        .map(|((a, b), c)| (a, b, c))
    {
        noop.attach_recorder(Arc::new(NoopRecorder));
        let rec = Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY));
        ring.attach_recorder(rec.clone());

        drive(&mut *bare);
        drive(&mut *noop);
        drive(&mut *ring);

        let baseline = report_of(&*bare, label);
        assert_eq!(
            baseline,
            report_of(&*noop, label),
            "{label}: NoopRecorder changed the simulation outcome"
        );
        assert_eq!(
            baseline,
            report_of(&*ring, label),
            "{label}: RingBufferRecorder changed the simulation outcome"
        );
        assert!(
            !rec.events().is_empty(),
            "{label}: the ring recorder must actually have captured events"
        );
    }
}

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/trace_seed7.json"
);

#[test]
fn chrome_trace_matches_golden() {
    // Deliberately tiny: six writes and two reads keep the golden small
    // while still covering access, phase, round, WPQ, and NVM events.
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
    oram.set_payload_encryption(false);
    let rec = Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY));
    oram.attach_recorder(rec.clone());
    for i in 0..6u64 {
        oram.write(BlockAddr(i), payload(i)).unwrap();
    }
    oram.read(BlockAddr(0)).unwrap();
    oram.read(BlockAddr(5)).unwrap();

    let tracks = vec![("path/ps-oram".to_string(), rec.events())];
    let mut json = chrome_trace_json(&tracks);
    json.push('\n');

    if std::env::var_os("PSORAM_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &json).expect("write golden");
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden missing — run with PSORAM_BLESS=1 to create it");
    assert_eq!(
        json, golden,
        "seed-7 chrome trace diverged from the checked-in golden; \
         if the change is intentional, re-bless with PSORAM_BLESS=1"
    );
}

#[test]
fn event_stream_obeys_structural_invariants() {
    for (label, mut oram) in designs() {
        let rec = Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY));
        oram.attach_recorder(rec.clone());
        drive(&mut *oram);
        let events = rec.events();
        assert!(!events.is_empty(), "{label}: no events captured");
        assert_eq!(rec.dropped(), 0, "{label}: ring buffer overflowed");

        let mut open_access: Option<u64> = None;
        let mut last_access_index: Option<u64> = None;
        let mut last_access_cycle = 0u64;
        let mut round_open = false;
        let mut round_begin_cycle = 0u64;
        let mut crashes = 0u64;
        let mut recoveries = 0u64;
        let mut saw = (false, false, false, false); // phase, push, nvm, round

        for (i, ev) in events.iter().enumerate() {
            match *ev {
                Event::AccessStart { index, cycle } => {
                    assert!(
                        open_access.is_none(),
                        "{label}@{i}: AccessStart while access {open_access:?} still open"
                    );
                    if let Some(prev) = last_access_index {
                        assert!(
                            index > prev,
                            "{label}@{i}: access indices must be strictly increasing"
                        );
                    }
                    assert!(
                        cycle >= last_access_cycle,
                        "{label}@{i}: access arrival cycles must be monotone"
                    );
                    open_access = Some(index);
                    last_access_index = Some(index);
                    last_access_cycle = cycle;
                }
                Event::AccessEnd { index, cycle } => {
                    assert_eq!(
                        open_access,
                        Some(index),
                        "{label}@{i}: AccessEnd without matching AccessStart"
                    );
                    assert!(
                        cycle >= last_access_cycle,
                        "{label}@{i}: AccessEnd before start"
                    );
                    open_access = None;
                }
                Event::Phase { start, end, .. } => {
                    assert!(end >= start, "{label}@{i}: phase interval inverted");
                    saw.0 = true;
                }
                Event::RoundBegin { cycle } => {
                    assert!(!round_open, "{label}@{i}: nested RoundBegin");
                    round_open = true;
                    round_begin_cycle = cycle;
                    saw.3 = true;
                }
                Event::RoundCommit { cycle, .. } => {
                    assert!(round_open, "{label}@{i}: RoundCommit without RoundBegin");
                    assert!(
                        cycle >= round_begin_cycle,
                        "{label}@{i}: round committed before it began"
                    );
                    round_open = false;
                }
                Event::WpqPush {
                    occupancy,
                    capacity,
                    ..
                } => {
                    assert!(
                        occupancy <= capacity,
                        "{label}@{i}: WPQ occupancy {occupancy} exceeds capacity {capacity}"
                    );
                    saw.1 = true;
                }
                Event::NvmAccess {
                    arrival, complete, ..
                } => {
                    assert!(
                        complete >= arrival,
                        "{label}@{i}: NVM access completed before it arrived"
                    );
                    saw.2 = true;
                }
                Event::Crash { .. } => {
                    crashes += 1;
                    // A crash abandons any round in flight.
                    round_open = false;
                    // ... and tears down the in-flight access.
                    open_access = None;
                }
                Event::Recovery { consistent, .. } => {
                    recoveries += 1;
                    assert!(
                        recoveries <= crashes,
                        "{label}@{i}: recovery without a preceding crash"
                    );
                    assert!(
                        consistent,
                        "{label}@{i}: recovery reported inconsistent state"
                    );
                }
                _ => {}
            }
        }
        assert_eq!(crashes, 1, "{label}: expected exactly one injected crash");
        assert_eq!(recoveries, 1, "{label}: expected exactly one recovery");
        assert!(saw.0, "{label}: no Phase events captured");
        assert!(saw.1, "{label}: no WpqPush events captured");
        assert!(saw.2, "{label}: no NvmAccess events captured");
        assert!(saw.3, "{label}: no RoundBegin events captured");
    }
}

#[test]
fn ingested_metrics_agree_with_event_stream() {
    let (label, mut oram) = designs().remove(0);
    let rec = Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY));
    oram.attach_recorder(rec.clone());
    drive(&mut *oram);
    let events = rec.events();

    let mut reg = MetricsRegistry::new();
    reg.ingest_events(label, &events);
    let pushes: u64 = events
        .iter()
        .filter(|e| matches!(e, Event::WpqPush { .. }))
        .count() as u64;
    let crashes: u64 = events
        .iter()
        .filter(|e| matches!(e, Event::Crash { .. }))
        .count() as u64;
    assert_eq!(
        reg.counter(&MetricsRegistry::key(label, "wpq.pushes")),
        Some(pushes),
        "ingest_events must count every WpqPush"
    );
    assert_eq!(
        reg.counter(&MetricsRegistry::key(label, "crashes")),
        Some(crashes),
        "ingest_events must count every Crash"
    );
}

#[test]
fn wear_map_publishes_per_bank_and_hot_line_gauges() {
    for (label, mut oram) in designs() {
        // Without wear armed: no wear keys at all, so pre-endurance
        // metrics snapshots are byte-identical to what they always were.
        drive(&mut *oram);
        let mut clean = MetricsRegistry::new();
        oram.publish_metrics(label, &mut clean);
        let clean_json = clean.to_json_string();
        assert!(
            !clean_json.contains(".wear."),
            "{label}: wear keys leaked into a wear-free snapshot"
        );
        // Nor anything the per-line table would have published: nobody
        // armed it, so there is no measurement to report.
        assert!(
            !clean_json.contains(".hot.") && !clean_json.contains("lines_touched"),
            "{label}: per-line gauges published from a controller that counts no lines"
        );

        let (wlabel, mut worn) = designs()
            .into_iter()
            .find(|(l, _)| *l == label)
            .expect("same design set");
        worn.enable_wear(
            7,
            psoram_nvm::WearConfig::paper_default(psoram_nvm::WearScheme::Remap),
        );
        drive(&mut *worn);
        let mut reg = MetricsRegistry::new();
        worn.publish_metrics(wlabel, &mut reg);
        let key = |s: &str| MetricsRegistry::key(wlabel, s);
        assert!(
            reg.counter(&key("wear.writes_recorded")).unwrap_or(0) > 0,
            "{wlabel}: the wear engine recorded no media writes"
        );
        // The NVM wear map: per-bank lifetime writes plus the hot-N
        // per-line gauges, hottest first.
        assert!(
            reg.gauge(&key("nvm.wear.lines_touched")).unwrap_or(0.0) > 0.0,
            "{wlabel}: no per-line wear was tracked"
        );
        assert!(
            reg.gauge(&key("nvm.wear.hot.0.writes")).unwrap_or(0.0) > 0.0,
            "{wlabel}: the hottest-line gauge is missing"
        );
        assert!(
            reg.gauge(&key("nvm.wear.bank.c0.b0")).is_some(),
            "{wlabel}: the per-bank wear map is missing"
        );
    }
}

//! Lockdown suite for the `psoram-obsv` taps threaded through the ORAM
//! controllers.
//!
//! Three properties pin the observability layer down:
//!
//! 1. **Observer transparency** — running the identical workload with no
//!    recorder, a `NoopRecorder`, and a [`RingBufferRecorder`] must
//!    produce byte-identical metrics snapshots (a clause of the
//!    determinism contract of `psoram_core::testkit`, on every row). The
//!    taps observe; they never perturb.
//! 2. **Golden trace** — a fixed-seed run exports a chrome://tracing
//!    JSON that matches a checked-in golden byte-for-byte, so any
//!    accidental change to event emission or the exporter shows up as a
//!    diff. Re-bless with `PSORAM_BLESS=1 cargo test -p psoram-core
//!    --test obsv_tests`.
//! 3. **Stream invariants** — the event stream obeys the structural
//!    rules the exporters and `ingest_events` rely on: WPQ occupancy
//!    never exceeds capacity, persist rounds bracket correctly, phase
//!    and NVM intervals are well-formed, access indices are strictly
//!    increasing, the recorder drops nothing, the run's one crash and one
//!    recovery appear, and a design that models time shows every event
//!    class (another clause of the determinism contract, on every row).

use std::sync::Arc;

use psoram_core::testkit::{
    conform_clause, payload, plain, recorders_do_not_perturb, traces_are_well_formed, Contract,
    Design,
};
use psoram_core::{BlockAddr, CrashPoint, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_obsv::{
    chrome_trace_json, Event, MetricsRegistry, RingBufferRecorder, DEFAULT_RING_CAPACITY,
};

/// The rows that model the NVM and claim crash consistency, built fresh
/// at a fixed seed (the toy models no time: it emits no phase, WPQ or
/// NVM event).
fn designs() -> impl Iterator<Item = Box<dyn ProtocolPolicy>> {
    let timed = Design::all().filter(|&d| d.is_crash_consistent() && d != Design::Toy);
    timed.map(|d| d.build(7))
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

#[test]
fn recorders_do_not_perturb_the_simulation() {
    conform_clause(Contract::Deterministic, recorders_do_not_perturb, plain);
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
    conform_clause(Contract::Deterministic, traces_are_well_formed, plain);
}

#[test]
fn ingested_metrics_agree_with_event_stream() {
    let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
    let label = "path/ps-oram";
    let rec = Arc::new(RingBufferRecorder::new(DEFAULT_RING_CAPACITY));
    oram.attach_recorder(rec.clone());
    drive(&mut oram);
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
    for (mut oram, mut worn) in designs().zip(designs()) {
        let label = &oram.label();
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

        worn.enable_wear(
            7,
            psoram_nvm::WearConfig::paper_default(psoram_nvm::WearScheme::Remap),
        );
        drive(&mut *worn);
        let mut reg = MetricsRegistry::new();
        worn.publish_metrics(label, &mut reg);
        let key = |s: &str| MetricsRegistry::key(label, s);
        assert!(
            reg.counter(&key("wear.writes_recorded")).unwrap_or(0) > 0,
            "{label}: the wear engine recorded no media writes"
        );
        // The NVM wear map: per-bank lifetime writes plus the hot-N
        // per-line gauges, hottest first.
        assert!(
            reg.gauge(&key("nvm.wear.lines_touched")).unwrap_or(0.0) > 0.0,
            "{label}: no per-line wear was tracked"
        );
        assert!(
            reg.gauge(&key("nvm.wear.hot.0.writes")).unwrap_or(0.0) > 0.0,
            "{label}: the hottest-line gauge is missing"
        );
        assert!(
            reg.gauge(&key("nvm.wear.bank.c0.b0")).is_some(),
            "{label}: the per-bank wear map is missing"
        );
    }
}

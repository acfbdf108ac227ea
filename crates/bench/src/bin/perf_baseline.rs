//! Tracked performance baseline (`BENCH_05.json`).
//!
//! Measures the functional speed of the simulator itself — distinct from
//! the *simulated* cycle counts the figure binaries report (see DESIGN.md
//! §"Performance model vs. functional speed"):
//!
//! * AES-128 blocks/sec: byte-wise reference cipher vs the T-table fast
//!   path (the batched-CTR kernel underneath every bucket re-encryption).
//! * CTR keystream throughput through `keystream_into`.
//! * Single-thread ORAM accesses/sec for Path ORAM and Ring ORAM under
//!   their PS variants (payload encryption on — the real hot path).
//! * Freshness-verification overhead: the same Path instance with the
//!   authenticated counter tree armed (inert fault plan — every fetch
//!   verifies tag + counter, no damage is ever injected), reported as
//!   accesses/sec and relative slowdown against the unauthenticated run.
//! * Randomized crash-campaign wall-clock at `--jobs 1` vs `--jobs N`,
//!   asserting the two reports are byte-identical.
//! * Recovery latency over repeated crash→recover cycles: clean, with
//!   the device fault plan armed (authenticate + repair + roll back),
//!   and with the replay adversary armed on top (stale replays and
//!   cross splices that the counter tree must detect during recovery).
//!
//! Usage:
//!   perf_baseline [--out FILE] [--jobs N]
//!
//! The JSON report goes to stdout, or to FILE with `--out`. Its numbers
//! are this machine's host clock, so the tracked `BENCH_05.json` is
//! rewritten only on purpose (`--out BENCH_05.json`).

use std::hint::black_box;
use std::time::Instant;

use psoram_bench::drive_uniform_writes;
use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};
use psoram_crypto::{Aes128, CtrCipher, ReferenceAes128};
use psoram_faultsim::{random_campaign, CampaignConfig};
use psoram_nvm::FaultConfig;

struct Args {
    out: Option<String>,
    jobs: usize,
}

fn parse_args() -> Args {
    // The shared pass (psoram_bench::CommonCli) consumes --jobs; the
    // observability outputs are not this binary's.
    let common = psoram_bench::CommonCli::parse();
    if common.trace_out.is_some() || common.metrics_out.is_some() {
        usage("perf_baseline takes no --trace-out / --metrics-out");
    }
    let mut args = Args {
        out: None,
        jobs: common.jobs,
    };
    let mut it = common.rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = Some(it.next().unwrap_or_else(|| usage("--out needs a value"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}\n");
    }
    eprintln!(
        "perf_baseline: functional-speed baseline for the simulator\n\n\
         options:\n\
         \x20 --out FILE  write the JSON report to FILE (default stdout)\n\
         \x20 --jobs N    parallel job count for the campaign comparison\n\
         \x20             (default: all cores)"
    );
    std::process::exit(2);
}

/// Encrypts `blocks` independent counter blocks through `f` and returns
/// blocks/sec, taking the best of three passes (max throughput ≈ least
/// scheduler interference). Counter-mode shape — successive blocks carry
/// no data dependency, exactly like the CTR keystream kernel this
/// baseline exists to track.
fn time_blocks(blocks: u64, mut f: impl FnMut(&[u8; 16]) -> [u8; 16]) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let mut acc = [0u8; 16];
        let t = Instant::now();
        for i in 0..blocks {
            let mut counter = [0x5Au8; 16];
            counter[..8].copy_from_slice(&i.to_be_bytes());
            let out = f(&counter);
            for (a, o) in acc.iter_mut().zip(out) {
                *a ^= o; // fold so no encryption can be elided
            }
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(blocks as f64 / secs.max(1e-9));
    }
    best
}

/// Wall-clock recovery latency over `crashes` crash→recover cycles on a
/// PS-ORAM Path instance, with `accesses` of uniform write traffic
/// between crashes.
///
/// With a `mix` given, that fault plan is armed first, so each recovery
/// also authenticates every unit it reads back and performs whatever
/// repairs/rollbacks the injected damage demands — the delta against the
/// clean run is the integrity tax on the recovery path. A poisoned
/// instance (unrepairable damage) is rebuilt and the run continues until
/// `crashes` recoveries have been timed.
struct RecoveryLatency {
    mean_us: f64,
    max_us: f64,
    repairs: u64,
    rollbacks: u64,
    incidents: u64,
    rebuilds: u64,
    replays_detected: u64,
}

fn time_recovery(mix: Option<FaultConfig>, crashes: usize, accesses: usize) -> RecoveryLatency {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let levels = 10u32;
    let mut cfg = OramConfig::paper_default().with_levels(levels);
    cfg.data_wpq_capacity = cfg.path_slots();
    cfg.posmap_wpq_capacity = cfg.path_slots();
    let build = |epoch: u64| -> Box<dyn ProtocolPolicy> {
        let mut oram: Box<dyn ProtocolPolicy> = Box::new(PathOram::new(
            cfg.clone(),
            ProtocolVariant::PsOram,
            17 ^ epoch,
        ));
        if let Some(mix) = mix {
            oram.enable_device_faults(0xBE9C ^ epoch, mix);
        }
        oram
    };
    let mut oram = build(0);
    let mut rng = StdRng::seed_from_u64(23);
    let cap = oram.capacity_blocks();
    let payload = vec![0u8; oram.payload_bytes()];

    let mut out = RecoveryLatency {
        mean_us: 0.0,
        max_us: 0.0,
        repairs: 0,
        rollbacks: 0,
        incidents: 0,
        rebuilds: 0,
        replays_detected: 0,
    };
    let mut total_secs = 0.0f64;
    let mut measured = 0usize;
    while measured < crashes {
        for _ in 0..accesses {
            // Under an armed plan a write can fail typed (stuck read,
            // poison); the bench tolerates it and lets the rebuild below
            // handle a poisoned instance.
            if oram.write(rng.gen_range(0..cap), payload.clone()).is_err() {
                break;
            }
        }
        if oram.poisoned().is_some() {
            out.rebuilds += 1;
            oram = build(out.rebuilds);
            continue;
        }
        oram.crash_now();
        let t = Instant::now();
        let rec = oram.recover();
        let secs = t.elapsed().as_secs_f64();
        total_secs += secs;
        out.max_us = out.max_us.max(secs * 1e6);
        measured += 1;
        out.repairs += rec.repairs;
        out.rollbacks += rec.rolled_back.len() as u64;
        out.incidents += rec.incidents.len() as u64;
        out.replays_detected += rec.replays_detected + rec.splices_detected;
        if rec.poisoned {
            out.rebuilds += 1;
            oram = build(out.rebuilds);
        }
    }
    out.mean_us = total_secs / crashes as f64 * 1e6;
    out
}

fn main() {
    let args = parse_args();
    let (aes_blocks, ctr_bytes, oram_accesses) = (2_000_000u64, 64usize << 20, 8_000usize);

    eprintln!("[aes: {aes_blocks} blocks, reference vs T-table]");
    let reference = ReferenceAes128::new(&[0x11; 16]);
    let ttable = Aes128::portable(&[0x11; 16]);
    let ref_bps = time_blocks(aes_blocks, |b| reference.encrypt_block(b));
    let tt_bps = time_blocks(aes_blocks, |b| ttable.encrypt_block(b));

    eprintln!("[ctr: {ctr_bytes} keystream bytes]");
    let ctr = CtrCipher::new(Aes128::new(&[0x22; 16]));
    let mut buf = vec![0u8; 64 * 1024];
    let t = Instant::now();
    let mut produced = 0usize;
    let mut iv = 0u128;
    while produced < ctr_bytes {
        ctr.keystream_into(iv, &mut buf);
        iv = iv.wrapping_add((buf.len() / 16) as u128);
        produced += buf.len();
        black_box(&buf);
    }
    let ctr_bytes_per_sec = produced as f64 / t.elapsed().as_secs_f64().max(1e-9);

    eprintln!("[oram: {oram_accesses} accesses, Path + Ring, single thread]");
    let levels = 12u32;
    let mut path_cfg = OramConfig::paper_default().with_levels(levels);
    path_cfg.data_wpq_capacity = path_cfg.path_slots();
    path_cfg.posmap_wpq_capacity = path_cfg.path_slots();
    let mut path: Box<dyn ProtocolPolicy> =
        Box::new(PathOram::new(path_cfg.clone(), ProtocolVariant::PsOram, 11));
    let t = Instant::now();
    drive_uniform_writes("Path", &mut *path, oram_accesses, 3);
    let path_aps = oram_accesses as f64 / t.elapsed().as_secs_f64().max(1e-9);

    // Same instance shape with the authenticated counter tree armed and an
    // inert fault plan: every fetch verifies tag + counter against the
    // trusted tree, but no damage ever lands. The delta against the plain
    // run is the freshness-verification tax on the access path.
    eprintln!("[oram: {oram_accesses} accesses, Path with freshness verification armed]");
    let mut path_auth: Box<dyn ProtocolPolicy> =
        Box::new(PathOram::new(path_cfg, ProtocolVariant::PsOram, 11));
    path_auth.enable_device_faults(0xF2E5, FaultConfig::disabled());
    let t = Instant::now();
    drive_uniform_writes("Path+auth", &mut *path_auth, oram_accesses, 3);
    let path_auth_aps = oram_accesses as f64 / t.elapsed().as_secs_f64().max(1e-9);

    let mut ring_cfg = RingConfig {
        levels,
        ..RingConfig::small_test()
    };
    ring_cfg.wpq_capacity = ring_cfg.bucket_physical_slots() * (levels as usize + 1);
    let mut ring: Box<dyn ProtocolPolicy> =
        Box::new(RingOram::new(ring_cfg, RingVariant::PsRing, 11));
    let t = Instant::now();
    drive_uniform_writes("Ring", &mut *ring, oram_accesses, 3);
    let ring_aps = oram_accesses as f64 / t.elapsed().as_secs_f64().max(1e-9);

    let (rec_crashes, rec_accesses) = (40, 200);
    eprintln!(
        "[recovery: {rec_crashes} crash->recover cycles, clean vs device faults vs replay mix]"
    );
    // Crash-drain damage only (torn rounds, lost/duplicated signals, bit
    // flips): read faults during the traffic phase would poison and
    // rebuild the instance, shrinking the committed set and making the
    // per-mix means incomparable.
    let device_mix = FaultConfig {
        transient_read: 0.0,
        stuck_read: 0.0,
        ..FaultConfig::campaign_default()
    };
    let replay_mix = FaultConfig {
        transient_read: 0.0,
        stuck_read: 0.0,
        read_replay: 0.0,
        ..FaultConfig::replay_mix()
    };
    let rec_clean = time_recovery(None, rec_crashes, rec_accesses);
    let rec_device = time_recovery(Some(device_mix), rec_crashes, rec_accesses);
    let rec_replay = time_recovery(Some(replay_mix), rec_crashes, rec_accesses);

    eprintln!(
        "[campaign: random smoke sweep, --jobs 1 vs --jobs {}]",
        args.jobs
    );
    let cfg = CampaignConfig::smoke();
    std::env::set_var(psoram_faultsim::par::JOBS_ENV, "1");
    let t = Instant::now();
    let serial_report = random_campaign(&cfg);
    let serial_secs = t.elapsed().as_secs_f64();
    std::env::set_var(psoram_faultsim::par::JOBS_ENV, args.jobs.to_string());
    let t = Instant::now();
    let parallel_report = random_campaign(&cfg);
    let parallel_secs = t.elapsed().as_secs_f64();
    std::env::remove_var(psoram_faultsim::par::JOBS_ENV);
    let identical = serde_json::to_string(&serial_report).expect("serialize")
        == serde_json::to_string(&parallel_report).expect("serialize");
    assert!(
        identical,
        "campaign report differs between --jobs 1 and --jobs {}: \
         the deterministic runner is broken",
        args.jobs
    );

    let report = serde_json::json!({
        "bench": "perf_baseline",
        "cores": psoram_faultsim::default_jobs(),
        "aes": {
            "blocks": aes_blocks,
            "reference_blocks_per_sec": ref_bps,
            "ttable_blocks_per_sec": tt_bps,
            "ttable_speedup": tt_bps / ref_bps,
        },
        "ctr_keystream": {
            "bytes": produced,
            "bytes_per_sec": ctr_bytes_per_sec,
        },
        "oram_single_thread": {
            "accesses": oram_accesses,
            "levels": levels,
            "path_ps_accesses_per_sec": path_aps,
            "ring_ps_accesses_per_sec": ring_aps,
        },
        "freshness_verification": {
            "accesses": oram_accesses,
            "path_ps_plain_accesses_per_sec": path_aps,
            "path_ps_authenticated_accesses_per_sec": path_auth_aps,
            "verification_slowdown": path_aps / path_auth_aps.max(1e-9),
        },
        "recovery_latency": {
            "crashes": rec_crashes,
            "accesses_between_crashes": rec_accesses,
            "clean": {
                "mean_us": rec_clean.mean_us,
                "max_us": rec_clean.max_us,
            },
            "device_faults": {
                "mean_us": rec_device.mean_us,
                "max_us": rec_device.max_us,
                "repairs": rec_device.repairs,
                "rollbacks": rec_device.rollbacks,
                "incidents": rec_device.incidents,
                "rebuilds": rec_device.rebuilds,
                "slowdown_vs_clean": rec_device.mean_us / rec_clean.mean_us.max(1e-9),
            },
            "replay_mix": {
                "mean_us": rec_replay.mean_us,
                "max_us": rec_replay.max_us,
                "repairs": rec_replay.repairs,
                "rollbacks": rec_replay.rollbacks,
                "incidents": rec_replay.incidents,
                "rebuilds": rec_replay.rebuilds,
                "replays_detected": rec_replay.replays_detected,
                "slowdown_vs_clean": rec_replay.mean_us / rec_clean.mean_us.max(1e-9),
            },
        },
        "campaign_wall_clock": {
            "mode": "random-smoke",
            "jobs_serial": 1,
            "jobs_parallel": args.jobs,
            "serial_secs": serial_secs,
            "parallel_secs": parallel_secs,
            "speedup": serial_secs / parallel_secs.max(1e-9),
            "reports_identical": identical,
        },
    });
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    match &args.out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("[saved {path}]");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "AES T-table speedup: {:.2}x | CTR: {:.1} MiB/s | Path: {:.0} acc/s | \
         Ring: {:.0} acc/s | campaign {:.2}s -> {:.2}s at {} job(s)",
        tt_bps / ref_bps,
        ctr_bytes_per_sec / (1024.0 * 1024.0),
        path_aps,
        ring_aps,
        serial_secs,
        parallel_secs,
        args.jobs
    );
    eprintln!(
        "recovery: clean {:.0} us -> device-faults {:.0} us -> replay-mix {:.0} us mean \
         ({} repairs, {} rollbacks, {} rebuilds over {} crashes; \
         {} replays/splices detected under the replay mix)",
        rec_clean.mean_us,
        rec_device.mean_us,
        rec_replay.mean_us,
        rec_device.repairs,
        rec_device.rollbacks,
        rec_device.rebuilds,
        rec_crashes,
        rec_replay.replays_detected
    );
    eprintln!(
        "freshness: {:.0} acc/s plain -> {:.0} acc/s authenticated ({:.2}x slowdown)",
        path_aps,
        path_auth_aps,
        path_aps / path_auth_aps.max(1e-9)
    );
}

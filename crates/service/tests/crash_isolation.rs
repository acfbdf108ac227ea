//! Per-shard crash isolation: striking one shard mid-load must be
//! invisible — byte for byte — to every sibling shard, and the struck
//! shard must come back through the ordinary hardened recovery path.
//!
//! Each shard is its own persistence domain (own persist engine,
//! counter tree, fault plan), so a crash on shard k cannot perturb any
//! other lane's schedule, latencies, digest, or contents.

use psoram_core::ring::{RingConfig, RingOram, RingVariant};
use psoram_core::{Op, ShardController, ShardRange};
use psoram_service::{
    run_service, ServiceConfig, ShardCrashPlan, ShardServer, RECOVERY_REBOOT_CYCLES,
};

fn cfg() -> ServiceConfig {
    let mut cfg = ServiceConfig::smoke();
    cfg.requests = 1_500;
    cfg.seed = 0xC0FFEE;
    cfg
}

#[test]
fn crashing_one_shard_leaves_siblings_byte_identical() {
    let clean = run_service(&cfg(), 2).report;

    let mut crashed_cfg = cfg();
    crashed_cfg.crash = Some(ShardCrashPlan {
        shard: 2,
        after_requests: 60,
    });
    let crashed = run_service(&crashed_cfg, 2).report;

    assert_eq!(clean.lanes.len(), crashed.lanes.len());
    for (a, b) in clean.lanes.iter().zip(crashed.lanes.iter()) {
        if a.shard == 2 {
            continue;
        }
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "shard {} perturbed by a crash on shard 2",
            a.shard
        );
    }
}

#[test]
fn struck_shard_recovers_consistently_and_serves_on() {
    let mut cfg = cfg();
    cfg.crash = Some(ShardCrashPlan {
        shard: 2,
        after_requests: 60,
    });
    let report = run_service(&cfg, 2).report;
    let lane = report.lanes.iter().find(|l| l.shard == 2).unwrap();
    assert_eq!(lane.crashes, 1);
    assert_eq!(lane.recoveries_consistent, 1);
    assert!(lane.verify_ok, "post-crash contents check must pass");
    assert!(
        lane.recovery_cycles >= RECOVERY_REBOOT_CYCLES,
        "the lane must be charged at least the modeled reboot penalty"
    );

    // The struck shard still serves its full share of requests — the
    // crash delays it, it doesn't drop work.
    let clean = run_service(
        &{
            let mut c = self::cfg();
            c.crash = None;
            c
        },
        2,
    )
    .report;
    let clean_lane = clean.lanes.iter().find(|l| l.shard == 2).unwrap();
    assert_eq!(lane.requests, clean_lane.requests);
    // The reboot penalty can be absorbed by open-loop idle gaps, so the
    // makespan may tie the clean run — but it can never beat it.
    assert!(lane.makespan_cycles >= clean_lane.makespan_cycles);
    assert!(lane.busy_cycles == clean_lane.busy_cycles || lane.busy_cycles > 0);
}

/// A lane is any controller: a PS-Ring shard crashes, recovers through
/// the same hardened `recover()` and serves on, every committed write
/// intact.
#[test]
fn a_ps_ring_lane_recovers_in_place_and_serves_on() {
    let range = ShardRange {
        lo: 1_000,
        hi: 1_040,
    };
    let ring = RingOram::new(RingConfig::small_test(), RingVariant::PsRing, 0x5EAF00D);
    let mut lane = ShardServer::Controller(ShardController::new(Box::new(ring), range));
    let addr_of = |i: u64| range.lo + (i * 7) % range.len();
    let mut expected = vec![0u8; range.len() as usize];
    for i in 0..150u64 {
        let fill = i as u8 | 1;
        lane.serve(Op::Write, addr_of(i), fill).unwrap();
        expected[range.to_local(addr_of(i)) as usize] = fill;
        if i % 3 == 2 {
            let prev = addr_of(i - 1);
            let (_, value) = lane.serve(Op::Read, prev, 0).unwrap();
            let want = expected[range.to_local(prev) as usize];
            assert!(
                value.unwrap().iter().all(|&b| b == want),
                "stale read of {prev}"
            );
        }
        if i == 60 {
            let (consistent, _) = lane.crash_and_recover();
            assert!(consistent, "PS-Ring must recover consistently");
            assert!(lane.verify(true), "no committed write may be lost");
        }
    }
    assert!(lane.verify(true), "no committed write may be lost");
}

#[test]
fn aggregate_tail_latency_absorbs_the_crash() {
    let clean = run_service(&cfg(), 0).report;
    let mut crashed_cfg = cfg();
    crashed_cfg.crash = Some(ShardCrashPlan {
        shard: 0,
        after_requests: 40,
    });
    let crashed = run_service(&crashed_cfg, 0).report;
    assert_eq!(clean.aggregate.requests, crashed.aggregate.requests);
    assert!(
        crashed.latency_cycles.max >= clean.latency_cycles.max,
        "a mid-load crash cannot make the worst request faster"
    );
}

//! Kernel replay: each layer's public calls timed standalone, with one
//! access's call mix at the workload's geometry. A row is the median of
//! [`BATCHES`] batches; min and max go to stderr beside it.
//!
//! The tree and eviction rows replay on a *young* tree (a quarter of
//! capacity, at most 12,000 blocks), about the fill the workloads' own
//! fresh-instance windows reach; the stash and cipher rows take a path to
//! hold `Z(L+1)/2` real blocks, the configured 50% utilisation.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use psoram_cache::{Hierarchy, HierarchyConfig};
use psoram_core::integrity::IntegrityTree;
use psoram_core::{
    plan_eviction, Block, BlockAddr, CounterTree, Leaf, OramConfig, OramTree, PosMap, Stash,
    TempPosMap,
};
use psoram_crypto::{Aes128, Cmac, CtrCipher, Hash128};
use psoram_nvm::{AccessKind, NvmConfig, NvmController, PersistenceDomain, WpqEntry};
use psoram_obsv::{Event, RingBufferRecorder, Tap};
use psoram_service::open_loop_schedule;
use psoram_trace::{SpecWorkload, TraceGenerator, TraceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats;

const BATCHES: usize = 5;
const Z: usize = 4;

/// Rows that together make up one Path access's call mix; their sum (with
/// the payload cipher scaled to one path) is what
/// `controller.unattributed_ns_per_op` subtracts.
const ACCESS_ROWS: [&str; 7] = [
    "stash.path_cycle_ns",
    "posmap.get_set_ns",
    "tree.take_path_ns",
    "tree.write_path_ns",
    "eviction.plan_ns",
    "nvm.wpq_round_ns",
    "nvm.path_batch_ns",
];

pub struct Kernels {
    pub rows: Vec<(&'static str, f64)>,
    /// Host ns of one access's worth of the layers replayed here.
    pub access_ns: f64,
}

/// Median ns per call of `f` over [`BATCHES`] batches of `iters` calls.
fn time_ns(name: &str, iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let t = Instant::now();
            for i in 0..iters {
                f(b * iters + i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    report(name, &per_call)
}

/// Times `f` and files the result under the row `name`.
fn timed_row(
    rows: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    iters: usize,
    f: impl FnMut(usize),
) {
    rows.push((name, time_ns(name, iters, f)));
}

fn report(name: &str, per_call: &[f64]) -> f64 {
    let min = per_call.iter().copied().fold(f64::INFINITY, f64::min);
    let max = per_call.iter().copied().fold(0.0, f64::max);
    let med = stats::median(per_call);
    eprintln!("  kernel {name:<34} {med:>12.1} ns  [min {min:.1}, max {max:.1}]");
    med
}

pub fn replay(levels: u32) -> Kernels {
    let slots = Z * (levels as usize + 1);
    let real = slots / 2;
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(0x4B45_524E);
    eprintln!("[kernel replay at L={levels}: {slots} slots per path, {real} taken as real]");

    crypto_rows(&mut rows);
    stash_posmap_rows(&mut rows, levels, real, &mut rng);
    tree_rows(&mut rows, levels, &mut rng);
    auth_rows(&mut rows, levels, &mut rng);
    persistence_rows(&mut rows, levels, slots, &mut rng);
    frontend_rows(&mut rows);
    obsv_rows(&mut rows);

    let row = |name: &str| {
        rows.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    // Decrypt the real half on load, encrypt it again on write-back.
    let access_ns = ACCESS_ROWS.iter().map(|n| row(n)).sum::<f64>()
        + row("crypto.ctr_payload_ns") * (2 * real) as f64;
    Kernels { rows, access_ns }
}

fn crypto_rows(rows: &mut Vec<(&'static str, f64)>) {
    let aes = Aes128::new(&[0x11; 16]);
    let mut acc = [0u8; 16];
    timed_row(rows, "crypto.aes_block_ns", 200_000, |i| {
        let mut counter = [0x5Au8; 16];
        counter[..8].copy_from_slice(&(i as u64).to_be_bytes());
        let out = aes.encrypt_block(&counter);
        acc.iter_mut().zip(out).for_each(|(a, o)| *a ^= o);
    });
    black_box(acc);

    // The controller's shape: one 8-byte payload per call.
    let ctr = CtrCipher::new(Aes128::new(&[0x22; 16]));
    let mut payload = [0u8; 8];
    timed_row(rows, "crypto.ctr_payload_ns", 200_000, |i| {
        ctr.apply_keystream(i as u128, black_box(&mut payload));
    });

    let mut bulk = vec![0u8; 64 * 1024];
    let bulk_ns = time_ns("crypto.ctr_bulk (64 KiB)", 40, |i| {
        ctr.keystream_into((i * 4096) as u128, black_box(&mut bulk));
    });
    rows.push((
        "crypto.ctr_bulk_mb_per_s",
        bulk.len() as f64 / bulk_ns * 1e3,
    ));

    // One slot record: (bucket, slot, counter, 58 canonical content bytes).
    let cmac = Cmac::new(Aes128::new(&[0x33; 16]));
    let content = [0xB1u8; 58];
    timed_row(rows, "crypto.cmac_unit_ns", 50_000, |i| {
        let word = (i as u64).to_le_bytes();
        black_box(cmac.tag_parts(0x51, &[&word, &word, &word, &content]));
    });

    // The temporary-PosMap seal: a length word plus 96 (addr, leaf) pairs.
    let mut image = vec![0x5Eu8; 8 + 96 * 16];
    timed_row(rows, "crypto.cmac_temp_seal_ns", 5_000, |i| {
        image[0] = i as u8;
        black_box(cmac.tag(&image));
    });

    let hasher = Hash128::new();
    let mut bucket = [0xC3u8; Z * 64];
    timed_row(rows, "crypto.hash_bucket_ns", 20_000, |i| {
        bucket[0] = i as u8;
        black_box(hasher.digest(&bucket));
    });
}

fn stash_posmap_rows(
    rows: &mut Vec<(&'static str, f64)>,
    levels: u32,
    real: usize,
    rng: &mut StdRng,
) {
    let leaves = 1u64 << levels;
    let mut stash = Stash::new(200);
    timed_row(rows, "stash.path_cycle_ns", 4_000, |i| {
        let base = (i * real) as u64;
        for a in 0..real as u64 {
            stash
                .insert(Block::new(
                    BlockAddr(base + a),
                    Leaf(a % leaves),
                    vec![0; 8],
                ))
                .expect("stash has room for one path");
        }
        let target = BlockAddr(base + real as u64 / 2);
        if stash.contains(target) {
            stash.get_mut(target).expect("just inserted").header.seq = i as u64;
        }
        black_box(stash.drain_matching(|b| b.addr().0 >= base));
    });

    let mut posmap = PosMap::new(leaves, 7);
    let mut temp = TempPosMap::new(96);
    let capacity = OramConfig::paper_default()
        .with_levels(levels)
        .capacity_blocks();
    timed_row(rows, "posmap.get_set_ns", 100_000, |_| {
        let addr = BlockAddr(rng.gen_range(0..capacity));
        let leaf = Leaf(rng.gen_range(0..leaves));
        black_box(temp.get(addr).unwrap_or_else(|| posmap.get(addr)));
        temp.insert(addr, leaf).expect("temp posmap has room");
        posmap.persist(addr, leaf);
        temp.remove(addr);
    });

    for a in 0..48u64 {
        temp.insert(BlockAddr(a * 977 % capacity), Leaf(a))
            .expect("half-full temp posmap");
    }
    timed_row(rows, "posmap.temp_entries_sorted_ns", 50_000, |_| {
        black_box(temp.entries_sorted());
    });
}

/// The access loop's tree work through public functions only: take the
/// path, plan the eviction, write every slot back.
fn tree_rows(rows: &mut Vec<(&'static str, f64)>, levels: u32, rng: &mut StdRng) {
    let cfg = OramConfig::paper_default().with_levels(levels);
    let leaves = cfg.num_leaves();
    // A young tree: a quarter of capacity, at most 12,000 blocks.
    let population = (cfg.capacity_blocks() / 4).min(12_000);
    let mut tree = OramTree::new(&cfg);
    let mut resident: Vec<Block> = Vec::new();
    let mut placed = 0u64;
    let mut ns = [0u64; 3];
    // One access: the target comes off its path (or is new while the tree
    // is being populated), is remapped, and competes for a slot again.
    let mut cycle = |ns: &mut [u64; 3], rng: &mut StdRng| {
        let leaf = Leaf(rng.gen_range(0..leaves));
        let t0 = Instant::now();
        let mut must = tree.take_path(leaf);
        let t1 = Instant::now();
        let mut opportunistic = std::mem::take(&mut resident);
        let remapped = Leaf(rng.gen_range(0..leaves));
        if placed < population {
            opportunistic.push(Block::new(BlockAddr(placed), remapped, vec![0; 8]));
            placed += 1;
        } else if let Some(mut target) = must.pop() {
            target.header.leaf = remapped;
            opportunistic.push(target);
        }
        let t2 = Instant::now();
        let (plan, leftovers) = plan_eviction(must, opportunistic, &tree, leaf);
        let t3 = Instant::now();
        for w in plan.writes {
            tree.write_slot(w.bucket, w.slot, w.block);
        }
        let t4 = Instant::now();
        resident = leftovers;
        ns[0] += (t1 - t0).as_nanos() as u64;
        ns[1] += (t3 - t2).as_nanos() as u64;
        ns[2] += (t4 - t3).as_nanos() as u64;
    };
    for _ in 0..population + 500 {
        cycle(&mut ns, rng);
    }
    const ITERS: usize = 400;
    let mut per_call = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..BATCHES {
        ns = [0; 3];
        for _ in 0..ITERS {
            cycle(&mut ns, rng);
        }
        for (out, total) in per_call.iter_mut().zip(ns) {
            out.push(total as f64 / ITERS as f64);
        }
    }
    for (name, samples) in [
        "tree.take_path_ns",
        "eviction.plan_ns",
        "tree.write_path_ns",
    ]
    .into_iter()
    .zip(&per_call)
    {
        rows.push((name, report(name, samples)));
    }
}

fn path_buckets(levels: u32, leaf: u64) -> impl Iterator<Item = u64> {
    (0..=levels).map(move |d| (1u64 << d) - 1 + (leaf >> (levels - d)))
}

fn auth_rows(rows: &mut Vec<(&'static str, f64)>, levels: u32, rng: &mut StdRng) {
    let leaves = 1u64 << levels;
    let mut counters = CounterTree::new(&[0x44; 16]);
    timed_row(rows, "auth.counter_bump_root_ns", 300, |i| {
        for bucket in path_buckets(levels, rng.gen_range(0..leaves)) {
            for slot in 0..Z {
                counters.bump_slot(bucket, slot);
            }
        }
        counters.bump_posmap(i as u64);
        black_box(counters.root());
    });

    let hasher = Hash128::new();
    let mut integrity = IntegrityTree::new(levels, hasher.digest(&[0u8; Z * 64]));
    timed_row(rows, "integrity.verify_update_path_ns", 600, |i| {
        let leaf = Leaf(rng.gen_range(0..leaves));
        let mut path = integrity.path_digests_template(leaf);
        integrity
            .verify_path(leaf, &path)
            .expect("an untampered path verifies");
        for (_, digest) in &mut path {
            digest[0] ^= i as u8;
        }
        integrity.update_buckets(&path);
    });
}

fn persistence_rows(
    rows: &mut Vec<(&'static str, f64)>,
    levels: u32,
    slots: usize,
    rng: &mut StdRng,
) {
    let mut domain: PersistenceDomain<u64, u64> = PersistenceDomain::new(slots, slots);
    timed_row(rows, "nvm.wpq_round_ns", 5_000, |i| {
        domain.begin_round().expect("no round open");
        for s in 0..slots as u64 {
            domain
                .push_data(WpqEntry {
                    addr: s * 64,
                    value: i as u64,
                })
                .expect("queue sized to one path");
        }
        for s in 0..2 {
            domain
                .push_posmap(WpqEntry { addr: s, value: s })
                .expect("queue sized to one path");
        }
        domain.commit_round().expect("round open");
        black_box(domain.drain());
    });

    let leaves = 1u64 << levels;
    let mut nvm = NvmController::new(NvmConfig::paper_pcm(1));
    let mut now = 0u64;
    timed_row(rows, "nvm.path_batch_ns", 3_000, |_| {
        let leaf = rng.gen_range(0..leaves);
        let addrs = move || {
            path_buckets(levels, leaf)
                .flat_map(|b| (0..Z as u64).map(move |s| (b * Z as u64 + s) * 64))
        };
        now = nvm.access_batch(addrs(), AccessKind::Read, now);
        now = nvm.access_batch(addrs(), AccessKind::Write, now);
    });
}

fn frontend_rows(rows: &mut Vec<(&'static str, f64)>) {
    let spec = SpecWorkload::Mcf.spec();
    let mut gen = TraceGenerator::new(&spec, 9);
    let mut records: Vec<TraceRecord> = Vec::with_capacity(100_000);
    timed_row(rows, "trace.gen_ns_per_record", 20_000, |_| {
        records.push(gen.next().expect("generators never end"));
    });

    let mut caches = Hierarchy::new(HierarchyConfig::paper_default());
    timed_row(rows, "cache.access_ns", 20_000, |i| {
        let r = &records[i];
        black_box(caches.access(r.addr, r.is_write));
    });

    const REQUESTS: u64 = 10_000;
    let schedule_ns = time_ns("service.schedule_gen (10k requests)", 1, |i| {
        black_box(open_loop_schedule(REQUESTS, 32, 600_000, 1 << 16, i as u64));
    });
    rows.push((
        "service.schedule_gen_ns_per_req",
        schedule_ns / REQUESTS as f64,
    ));
}

fn obsv_rows(rows: &mut Vec<(&'static str, f64)>) {
    let detached = Tap::detached();
    timed_row(rows, "obsv.emit_detached_ns", 1_000_000, |i| {
        black_box(&detached).emit(|| Event::WpqStall { cycle: i as u64 });
    });
    // A full ring: every emit also evicts, the steady state of a long run.
    let attached = Tap::attached(Arc::new(RingBufferRecorder::new(1 << 12)));
    timed_row(rows, "obsv.emit_ring_ns", 200_000, |i| {
        attached.emit(|| Event::WpqStall { cycle: i as u64 });
    });
}

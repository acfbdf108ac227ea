//! Full ORAM-access latency (host time) per protocol variant — the cost of
//! *simulating* each design, complementing the simulated-cycle results of
//! the fig5 binary.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use psoram_core::{BlockAddr, OramConfig, PathOram, ProtocolPolicy, ProtocolVariant};

fn bench_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("oram_access");
    for variant in ProtocolVariant::all() {
        group.bench_function(variant.label(), |b| {
            let cfg = OramConfig::small_test();
            let cap = cfg.capacity_blocks();
            let mut oram = PathOram::new(cfg, variant, 7);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(0x9E3779B9);
                black_box(oram.read(BlockAddr(i % cap)).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_ring(c: &mut Criterion) {
    use psoram_core::ring::{RingConfig, RingOram, RingVariant};
    let mut group = c.benchmark_group("ring_access");
    for variant in [RingVariant::Baseline, RingVariant::PsRing] {
        group.bench_function(variant.to_string(), |b| {
            let cfg = RingConfig::small_test();
            let cap = cfg.capacity_blocks();
            let mut oram = RingOram::new(cfg, variant, 7);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(0x9E3779B9);
                black_box(oram.read(BlockAddr(i % cap)).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_integrity(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrity");
    for enabled in [false, true] {
        group.bench_function(if enabled { "on" } else { "off" }, |b| {
            let cfg = OramConfig::small_test();
            let cap = cfg.capacity_blocks();
            let mut oram = PathOram::new(cfg, ProtocolVariant::PsOram, 7);
            if enabled {
                oram.enable_integrity();
            }
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(0x9E3779B9);
                black_box(oram.read(BlockAddr(i % cap)).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_crash_recovery(c: &mut Criterion) {
    c.bench_function("crash_and_recover", |b| {
        let mut oram = PathOram::new(OramConfig::small_test(), ProtocolVariant::PsOram, 7);
        for i in 0..50u64 {
            oram.write(BlockAddr(i), vec![0; 8]).unwrap();
        }
        b.iter(|| {
            oram.crash_now();
            black_box(oram.recover())
        });
    });
}

criterion_group!(
    benches,
    bench_variants,
    bench_ring,
    bench_integrity,
    bench_crash_recovery
);
criterion_main!(benches);

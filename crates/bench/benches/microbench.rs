//! Microbenchmarks of the PS-ORAM building blocks: AES, stash, PosMap,
//! tree addressing, and the WPQ persistence domain.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use psoram_core::{Block, BlockAddr, Leaf, OramConfig, OramTree, PosMap, Stash, TempPosMap};
use psoram_crypto::{Aes128, CtrCipher};
use psoram_nvm::{PersistenceDomain, WpqEntry};

fn bench_crypto(c: &mut Criterion) {
    let aes = Aes128::new(&[7u8; 16]);
    let cipher = CtrCipher::new(aes.clone());
    c.bench_function("aes128_block", |b| {
        let block = [0x5Au8; 16];
        b.iter(|| black_box(aes.encrypt_block(black_box(&block))));
    });
    c.bench_function("ctr_encrypt_64B", |b| {
        let mut buf = [0u8; 64];
        b.iter(|| {
            cipher.apply_keystream(black_box(42), &mut buf);
            black_box(buf[0])
        });
    });
}

fn bench_stash(c: &mut Criterion) {
    c.bench_function("stash_insert_lookup_drain_200", |b| {
        b.iter_batched(
            || Stash::new(256),
            |mut stash| {
                for i in 0..200u64 {
                    stash
                        .insert(Block::new(BlockAddr(i), Leaf(i % 64), vec![0; 8]))
                        .unwrap();
                }
                black_box(stash.get(BlockAddr(100)).is_some());
                stash.drain_matching(|_| true)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_posmap(c: &mut Criterion) {
    let mut pm = PosMap::new(1 << 23, 9);
    c.bench_function("posmap_lookup", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(0x9E37);
            black_box(pm.get(BlockAddr(i % (1 << 25))))
        });
    });
    c.bench_function("posmap_persist", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            pm.persist(BlockAddr(i % 4096), Leaf(i % (1 << 23)));
        });
    });
    let mut temp = TempPosMap::new(96);
    c.bench_function("temp_posmap_insert_remove", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            temp.insert(BlockAddr(i % 64), Leaf(i)).unwrap();
            temp.remove(BlockAddr(i % 64))
        });
    });
}

fn bench_tree(c: &mut Criterion) {
    let cfg = OramConfig::paper_default(); // L = 23
    let tree = OramTree::new(&cfg);
    c.bench_function("tree_path_indices_L23", |b| {
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 0x9E3779B9) % cfg.num_leaves();
            black_box(tree.path_indices(Leaf(l)))
        });
    });
    c.bench_function("tree_write_take_path_L18", |b| {
        let cfg = OramConfig::paper_default().with_levels(18);
        let mut tree = OramTree::new(&cfg);
        let mut l = 0u64;
        b.iter(|| {
            l = (l + 12345) % cfg.num_leaves();
            let leaf = Leaf(l);
            let idx = tree.bucket_at(leaf, 18);
            tree.write_slot(idx, 0, Some(Block::new(BlockAddr(l), leaf, vec![0; 8])));
            black_box(tree.take_path(leaf).len())
        });
    });
}

fn bench_wpq(c: &mut Criterion) {
    c.bench_function("wpq_round_96_entries", |b| {
        b.iter_batched(
            || PersistenceDomain::<u64, u32>::new(96, 96),
            |mut pd| {
                pd.begin_round().unwrap();
                for i in 0..96u64 {
                    pd.push_data(WpqEntry {
                        addr: i * 64,
                        value: i,
                    })
                    .unwrap();
                    pd.push_posmap(WpqEntry {
                        addr: i * 8,
                        value: i as u32,
                    })
                    .unwrap();
                }
                pd.commit_round().unwrap();
                black_box(pd.drain())
            },
            BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    benches,
    bench_crypto,
    bench_stash,
    bench_posmap,
    bench_tree,
    bench_wpq
);
criterion_main!(benches);

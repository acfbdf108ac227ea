//! Crypto-kernel microbenchmarks: the T-table AES fast path against the
//! byte-wise reference cipher, the batched CTR keystream, and a
//! full-bucket re-encryption (the shape of the controllers' per-access
//! crypto work: Z=4 slots, one CTR stream per slot).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use psoram_crypto::{Aes128, CtrCipher, ReferenceAes128};

fn bench_aes_single_block(c: &mut Criterion) {
    let reference = ReferenceAes128::new(&[7u8; 16]);
    let ttable = Aes128::portable(&[7u8; 16]);
    let block = [0x5Au8; 16];
    c.bench_function("aes128_block_reference", |b| {
        b.iter(|| black_box(reference.encrypt_block(black_box(&block))));
    });
    c.bench_function("aes128_block_ttable", |b| {
        b.iter(|| black_box(ttable.encrypt_block(black_box(&block))));
    });
}

fn bench_ctr_keystream(c: &mut Criterion) {
    let cipher = CtrCipher::new(Aes128::new(&[7u8; 16]));
    let mut buf = vec![0u8; 4096];
    c.bench_function("ctr_keystream_into_4KiB", |b| {
        let mut iv = 0u128;
        b.iter(|| {
            cipher.keystream_into(black_box(iv), &mut buf);
            iv = iv.wrapping_add(256);
            black_box(buf[0])
        });
    });
}

fn bench_bucket_reencrypt(c: &mut Criterion) {
    // A Path ORAM bucket: Z=4 slots, 64-byte payloads, one IV per slot —
    // decrypt on fetch plus encrypt on write-back is two passes of this.
    const Z: usize = 4;
    const SLOT: usize = 64;
    let cipher = CtrCipher::new(Aes128::new(&[7u8; 16]));
    let mut bucket = vec![[0xA5u8; SLOT]; Z];
    c.bench_function("bucket_reencrypt_z4_64B", |b| {
        let mut epoch = 0u128;
        b.iter(|| {
            for (slot, payload) in bucket.iter_mut().enumerate() {
                cipher.apply_keystream(epoch + slot as u128, payload);
            }
            epoch = epoch.wrapping_add(Z as u128);
            black_box(bucket[0][0])
        });
    });
}

criterion_group!(
    benches,
    bench_aes_single_block,
    bench_ctr_keystream,
    bench_bucket_reencrypt
);
criterion_main!(benches);

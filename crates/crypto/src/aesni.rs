//! The AES-NI round function: the one module of this crate (and of the
//! workspace) that contains `unsafe`.
//!
//! Everything here is reached through [`AesNi`], a token that can only be
//! obtained from [`AesNi::detect`], so holding one *is* the proof that the
//! running CPU reported `aes` and `sse2`. That detected feature is the only
//! precondition of every `unsafe` block below; the loads and stores go
//! through references to `[u8; 16]`, whose validity the type system
//! already guarantees, and `loadu`/`storeu` have no alignment requirement.
//!
//! The rounds consume the byte-form schedule produced by
//! [`crate::aes::expand_key`] — the same one the T-table and the reference
//! cipher run — so the backends differ in the round function only. The
//! one exception is the Davies–Meyer chain of [`crate::Hash128`], which
//! rekeys the cipher with every 16 bytes it hashes: there the schedule is
//! expanded here too, by `aeskeygenassist`, and held to `expand_key`'s
//! through the chain it produces (`aes.rs` and `tests/equivalence.rs`).

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_and_si128,
    _mm_loadl_epi64, _mm_loadu_si128, _mm_set1_epi64x, _mm_setzero_si128, _mm_shuffle_epi32,
    _mm_slli_si128, _mm_storeu_si128, _mm_unpacklo_epi64, _mm_xor_si128,
};

use crate::aes::Chain;

/// Most blocks sent through the rounds together. AES-NI retires one
/// `aesenc` per cycle or two against a latency of three or four, so eight
/// independent states keep the unit busy on every core that has it.
const WIDE: usize = 8;

/// Proof that the host CPU has the AES and SSE2 instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AesNi(());

impl AesNi {
    /// `Some` exactly when the running CPU reports `aes` and `sse2`.
    pub fn detect() -> Option<Self> {
        (is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")).then_some(AesNi(()))
    }

    /// Encrypts one block under `round_keys`.
    pub fn encrypt_block(self, round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        // SAFETY: `self` exists only if `detect` saw `aes` and `sse2`.
        unsafe { encrypt_block(round_keys, block) }
    }

    /// Encrypts every block of `blocks` in place under `round_keys`, up to
    /// [`WIDE`] of them abreast.
    pub fn encrypt_blocks(self, round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
        // SAFETY: `self` exists only if `detect` saw `aes` and `sse2`.
        unsafe { encrypt_blocks(round_keys, blocks) }
    }

    /// The CBC chains of [`crate::Aes128::cbc_chains`] under `round_keys`,
    /// up to [`WIDE`] of them abreast, every chaining value in a register.
    pub fn cbc_chains(
        self,
        round_keys: &[[u8; 16]; 11],
        chains: &[Chain<'_>],
        out: &mut [[u8; 16]],
    ) {
        // SAFETY: `self` exists only if `detect` saw `aes` and `sse2`.
        unsafe { cbc_chains(round_keys, chains, out) }
    }

    /// The Davies–Meyer chain over `blocks`: `state ← E_m(state) ^ state`
    /// for each block `m` in order, the block being the cipher *key*, its
    /// schedule expanded by the AES unit as well.
    pub fn davies_meyer(self, state: &mut [u8; 16], blocks: &[[u8; 16]]) {
        // SAFETY: `self` exists only if `detect` saw `aes` and `sse2`.
        unsafe { davies_meyer(state, blocks) }
    }
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a live reference to 16 readable bytes and the
    // unaligned load accepts any address; `sse2` is enabled on this fn.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// [`load`] as two 8-byte halves. A block a caller has just composed —
/// a MAC frame's fields, a mask computed in general registers — was
/// written 8 bytes or less at a time, and a 16-byte load over such stores
/// waits for them to retire; an 8-byte load is forwarded from the store
/// that wrote it.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn load_halves(bytes: &[u8; 16]) -> __m128i {
    let (lo, hi) = bytes.split_at(8);
    // SAFETY: each half is a live reference to 8 readable bytes, which is
    // all `loadl` reads, at any alignment; `sse2` is enabled on this fn.
    unsafe {
        let lo = _mm_loadl_epi64(lo.as_ptr().cast());
        let hi = _mm_loadl_epi64(hi.as_ptr().cast());
        _mm_unpacklo_epi64(lo, hi)
    }
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is a live exclusive reference to 16 writable bytes
    // and the unaligned store accepts any address; `sse2` is enabled here.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The ten rounds over `N` independent states: each round key is loaded
/// once and serves all of them before the next is touched.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn rounds<const N: usize>(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let blocks: &mut [[u8; 16]; N] = blocks.try_into().expect("caller matched the width");
    // Plain loops, no closures: everything below must inline into this
    // feature-enabled function to become bare `aesenc`s.
    let whitening = load(&round_keys[0]);
    let mut s = [whitening; N];
    for (v, block) in s.iter_mut().zip(blocks.iter()) {
        *v = _mm_xor_si128(load(block), whitening);
    }
    for round_key in &round_keys[1..10] {
        let key = load(round_key);
        for v in &mut s {
            *v = _mm_aesenc_si128(*v, key);
        }
    }
    let last = load(&round_keys[10]);
    for (block, v) in blocks.iter_mut().zip(s) {
        store(block, _mm_aesenclast_si128(v, last));
    }
}

/// The one-block case, by value: the state never leaves its register.
#[target_feature(enable = "aes,sse2")]
fn encrypt_block(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
    let mut one = [*block];
    rounds::<1>(round_keys, &mut one);
    one[0]
}

#[target_feature(enable = "aes,sse2")]
fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let mut wide = blocks.chunks_exact_mut(WIDE);
    for chunk in &mut wide {
        rounds::<WIDE>(round_keys, chunk);
    }
    // The tail goes through in one pass too, at its own width.
    let tail = wide.into_remainder();
    match tail.len() {
        0 => {}
        1 => rounds::<1>(round_keys, tail),
        2 => rounds::<2>(round_keys, tail),
        3 => rounds::<3>(round_keys, tail),
        4 => rounds::<4>(round_keys, tail),
        5 => rounds::<5>(round_keys, tail),
        6 => rounds::<6>(round_keys, tail),
        _ => rounds::<7>(round_keys, tail),
    }
}

#[target_feature(enable = "aes,sse2")]
fn cbc_chains(round_keys: &[[u8; 16]; 11], chains: &[Chain<'_>], out: &mut [[u8; 16]]) {
    for (chains, out) in chains.chunks(WIDE).zip(out.chunks_mut(WIDE)) {
        match chains.len() {
            1 => lanes::<1>(round_keys, chains, out),
            2 => lanes::<2>(round_keys, chains, out),
            3 => lanes::<3>(round_keys, chains, out),
            4 => lanes::<4>(round_keys, chains, out),
            5 => lanes::<5>(round_keys, chains, out),
            6 => lanes::<6>(round_keys, chains, out),
            7 => lanes::<7>(round_keys, chains, out),
            _ => lanes::<WIDE>(round_keys, chains, out),
        }
    }
}

/// `N` CBC chains in lockstep, one block of each per pass through the ten
/// rounds; the chaining values stay in registers from the first block to
/// the last and are stored once. The chains are aligned on their *last*
/// block, so they all end in the same pass, which is where the last-block
/// masks go in. When their lengths differ, a chain of `len` blocks runs in
/// the last `len` passes: before its first block its register idles
/// through the rounds on whatever it holds and is then cleared by a mask,
/// so no pass branches on a lane.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn lanes<const N: usize>(round_keys: &[[u8; 16]; 11], chains: &[Chain<'_>], out: &mut [[u8; 16]]) {
    let chains: &[Chain<'_>; N] = chains.try_into().expect("caller matched the width");
    let mut passes = 0;
    for (blocks, _) in chains {
        passes = passes.max(blocks.len());
    }
    let mut start = [0; N];
    let mut ragged = false;
    for (start, (blocks, _)) in start.iter_mut().zip(chains) {
        *start = passes - blocks.len();
        ragged |= *start != 0;
    }
    let whitening = load(&round_keys[0]);
    let mut x = [_mm_setzero_si128(); N];
    for r in 0..passes {
        for ((v, (blocks, last)), &start) in x.iter_mut().zip(chains).zip(&start) {
            let mut block = if ragged {
                // All ones once the chain has absorbed a block, zeros
                // until then.
                *v = _mm_and_si128(*v, _mm_set1_epi64x(-i64::from(r > start)));
                load_halves(&blocks[r.saturating_sub(start)])
            } else {
                load_halves(&blocks[r])
            };
            if r + 1 == passes {
                block = _mm_xor_si128(block, load_halves(last));
            }
            *v = _mm_xor_si128(*v, _mm_xor_si128(block, whitening));
        }
        for round_key in &round_keys[1..10] {
            let key = load(round_key);
            for v in &mut x {
                *v = _mm_aesenc_si128(*v, key);
            }
        }
        let last = load(&round_keys[10]);
        for v in &mut x {
            *v = _mm_aesenclast_si128(*v, last);
        }
    }
    for (out, v) in out.iter_mut().zip(x) {
        store(out, v);
    }
}

/// One step of the FIPS-197 key expansion: the round key after `key`,
/// `RCON` being that round's constant. `aeskeygenassist` leaves
/// `SubWord(RotWord(w3)) ^ RCON` in its top word; every word of the next
/// key takes it, over the running XOR `w0, w0^w1, w0^w1^w2, w0^w1^w2^w3`.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn next_round_key<const RCON: i32>(key: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(key));
    let pairs = _mm_xor_si128(key, _mm_slli_si128::<4>(key));
    let prefixes = _mm_xor_si128(pairs, _mm_slli_si128::<8>(pairs));
    _mm_xor_si128(prefixes, assist)
}

/// The schedule [`crate::aes::expand_key`] computes, in registers.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn expand(key: &[u8; 16]) -> [__m128i; 11] {
    let k0 = load(key);
    let k1 = next_round_key::<0x01>(k0);
    let k2 = next_round_key::<0x02>(k1);
    let k3 = next_round_key::<0x04>(k2);
    let k4 = next_round_key::<0x08>(k3);
    let k5 = next_round_key::<0x10>(k4);
    let k6 = next_round_key::<0x20>(k5);
    let k7 = next_round_key::<0x40>(k6);
    let k8 = next_round_key::<0x80>(k7);
    let k9 = next_round_key::<0x1b>(k8);
    let k10 = next_round_key::<0x36>(k9);
    [k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10]
}

/// One link of the chain: `E_schedule(h) ^ h`.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn compress(schedule: &[__m128i; 11], h: __m128i) -> __m128i {
    let mut s = _mm_xor_si128(h, schedule[0]);
    for &key in &schedule[1..10] {
        s = _mm_aesenc_si128(s, key);
    }
    _mm_xor_si128(_mm_aesenclast_si128(s, schedule[10]), h)
}

#[target_feature(enable = "aes,sse2")]
fn davies_meyer(state: &mut [u8; 16], blocks: &[[u8; 16]]) {
    let mut h = load(state);
    // A schedule depends on its block alone, so while one link's ten
    // rounds wait on each other the next blocks' expansions are already in
    // flight. The out-of-order core finds that overlap in this plain loop;
    // expanding four or eight schedules ahead by hand only added stores
    // (990 and 1,010 ns a 256-byte bucket against 850).
    for block in blocks {
        h = compress(&expand(block), h);
    }
    store(state, h);
}

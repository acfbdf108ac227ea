//! The AES-NI round function: the one module of this crate (and of the
//! workspace) that contains `unsafe`.
//!
//! Everything here is reached through [`AesNi`], a token that can only be
//! obtained from [`AesNi::detect`], so holding one *is* the proof that the
//! running CPU reported `aes` and `sse2` — and, when its `wide` flag is set,
//! `vaes` and `avx512f` too. Those detected features are the only
//! precondition of every `unsafe` block below; the loads and stores go
//! through references to `[u8; 16]`, whose validity the type system
//! already guarantees, and `loadu`/`storeu` have no alignment requirement.
//!
//! The CBC chains of CMAC's lanes have two kernels: the *narrow* one, up to
//! eight chains in 128-bit registers, one `aesenc` per chain per round; and,
//! where the CPU has VAES, the *wide* one, up to sixteen chains four to a
//! 512-bit register, one `vaesenc` per four chains per round (DESIGN.md §9).
//!
//! The rounds consume the byte-form schedule produced by
//! [`crate::aes::expand_key`] — the same one the T-table and the reference
//! cipher run — so the backends differ in the round function only. The
//! one exception is the Davies–Meyer chain of [`crate::Hash128`], which
//! rekeys the cipher with every 16 bytes it hashes: there the schedule is
//! expanded here too, by `aeskeygenassist`, and held to `expand_key`'s
//! through the chain it produces (`aes.rs` and `tests/equivalence.rs`).

use std::arch::x86_64::{
    __m128i, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
    _mm512_castsi128_si512, _mm512_extracti32x4_epi32, _mm512_inserti32x4, _mm512_maskz_mov_epi64,
    _mm512_setzero_si512, _mm512_ternarylogic_epi64, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aeskeygenassist_si128, _mm_and_si128, _mm_loadl_epi64, _mm_loadu_si128, _mm_set1_epi64x,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128, _mm_unpacklo_epi64,
    _mm_xor_si128,
};

use crate::aes::Chain;

/// Most blocks sent through the rounds together. AES-NI retires one
/// `aesenc` per cycle or two against a latency of three or four, so eight
/// independent states keep the unit busy on every core that has it.
const WIDE: usize = 8;

/// Most chains the wide kernel runs abreast: four 512-bit registers of
/// four. A `vaesenc` takes four chains' rounds for the issue slot and
/// latency of one `aesenc`, so four registers keep as many rounds in
/// flight per cycle as [`WIDE`] 128-bit ones, over twice the chains.
pub(crate) const WIDE_LANES: usize = 16;

/// Proof that the host CPU has the AES and SSE2 instructions — and, when
/// `wide` is set, VAES and AVX-512F as well.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct AesNi {
    wide: bool,
}

impl AesNi {
    /// `Some` exactly when the running CPU reports `aes` and `sse2`; wide
    /// when it also reports `vaes` and `avx512f`.
    pub fn detect() -> Option<Self> {
        let narrow = is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2");
        let wide = is_x86_feature_detected!("vaes") && is_x86_feature_detected!("avx512f");
        narrow.then_some(AesNi { wide })
    }

    /// Whether the chains run on the wide kernel.
    pub fn is_wide(self) -> bool {
        self.wide
    }

    /// The same token with the wide kernel switched off: the rounds a host
    /// with AES-NI but no VAES runs, for tests on a host that has both.
    #[cfg(test)]
    pub fn narrow(self) -> Self {
        AesNi { wide: false }
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
    /// up to [`WIDE`] of them abreast — [`WIDE_LANES`] on the wide kernel —
    /// every chaining value in a register.
    pub fn cbc_chains(
        self,
        round_keys: &[[u8; 16]; 11],
        chains: &[Chain<'_>],
        out: &mut [[u8; 16]],
    ) {
        if self.wide {
            // SAFETY: `wide` is set only by `detect`, and only when it saw
            // `vaes` and `avx512f` beside `aes` and `sse2`.
            unsafe { cbc_chains_wide(round_keys, chains, out) }
        } else {
            // SAFETY: `self` exists only if `detect` saw `aes` and `sse2`.
            unsafe { cbc_chains(round_keys, chains, out) }
        }
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

#[target_feature(enable = "aes,sse2,vaes,avx512f")]
fn cbc_chains_wide(round_keys: &[[u8; 16]; 11], chains: &[Chain<'_>], out: &mut [[u8; 16]]) {
    for (chains, out) in chains.chunks(WIDE_LANES).zip(out.chunks_mut(WIDE_LANES)) {
        match chains.len().div_ceil(4) {
            1 => wide_lanes::<1>(round_keys, chains, out),
            2 => wide_lanes::<2>(round_keys, chains, out),
            3 => wide_lanes::<3>(round_keys, chains, out),
            _ => wide_lanes::<4>(round_keys, chains, out),
        }
    }
}

/// Block `p` of the lockstep of chain `(blocks, last)`, which starts at
/// pass `start`, as one 128-bit lane: its first block until then, and the
/// last mask XORed in on the final pass.
#[inline]
#[target_feature(enable = "aes,sse2")]
fn lane_block((blocks, last): &Chain<'_>, p: usize, start: usize, is_last: bool) -> __m128i {
    let block = load(&blocks[p.saturating_sub(start)]);
    if is_last {
        _mm_xor_si128(block, load(last))
    } else {
        block
    }
}

/// [`lanes`] on the wide kernel: `R` 512-bit registers of four chains each,
/// `chains.len()` of them in `4R - 3..=4R` (a short register's idle lanes
/// run the group's last chain again and are not stored). The chains are
/// aligned on their last block as in [`lanes`]; when every chain has as
/// many blocks as the longest — a group of the freshness layer's slot
/// claims, six blocks each, or of its PosMap claims, three — no pass masks
/// a lane.
#[inline]
#[target_feature(enable = "aes,sse2,vaes,avx512f")]
fn wide_lanes<const R: usize>(
    round_keys: &[[u8; 16]; 11],
    chains: &[Chain<'_>],
    out: &mut [[u8; 16]],
) {
    let n = chains.len();
    // Lane `i` runs chain `lane[i]`.
    let mut lane = [0usize; WIDE_LANES];
    let mut passes = 0;
    for (i, lane) in lane.iter_mut().enumerate() {
        *lane = i.min(n - 1);
        passes = passes.max(chains[*lane].0.len());
    }
    // The pass at which each lane's chain absorbs its first block.
    let mut start = [0usize; WIDE_LANES];
    let mut ragged = false;
    for (start, &i) in start.iter_mut().zip(&lane) {
        *start = passes - chains[i].0.len();
        ragged |= *start != 0;
    }
    let mut keys = [_mm512_setzero_si512(); 11];
    for (key, round_key) in keys.iter_mut().zip(round_keys) {
        *key = _mm512_broadcast_i32x4(load(round_key));
    }
    let mut x = [_mm512_setzero_si512(); R];
    for p in 0..passes {
        let is_last = p + 1 == passes;
        for (r, v) in x.iter_mut().enumerate() {
            let (c, s) = (&lane[4 * r..4 * r + 4], &start[4 * r..4 * r + 4]);
            let mut block = _mm512_castsi128_si512(lane_block(&chains[c[0]], p, s[0], is_last));
            block = _mm512_inserti32x4::<1>(block, lane_block(&chains[c[1]], p, s[1], is_last));
            block = _mm512_inserti32x4::<2>(block, lane_block(&chains[c[2]], p, s[2], is_last));
            block = _mm512_inserti32x4::<3>(block, lane_block(&chains[c[3]], p, s[3], is_last));
            if ragged {
                // Two mask bits (one 128-bit lane) per chain: set once the
                // chain has absorbed a block, clear until then.
                let mut absorbed = 0u8;
                for (j, &s) in s.iter().enumerate() {
                    absorbed |= u8::from(p > s) * (0b11 << (2 * j));
                }
                *v = _mm512_maskz_mov_epi64(absorbed, *v);
            }
            // x ^ block ^ whitening, in one instruction.
            *v = _mm512_ternarylogic_epi64::<0x96>(*v, block, keys[0]);
        }
        for key in &keys[1..10] {
            for v in &mut x {
                *v = _mm512_aesenc_epi128(*v, *key);
            }
        }
        for v in &mut x {
            *v = _mm512_aesenclast_epi128(*v, keys[10]);
        }
    }
    for (four, v) in out[..n].chunks_mut(4).zip(x) {
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(v),
            _mm512_extracti32x4_epi32::<1>(v),
            _mm512_extracti32x4_epi32::<2>(v),
            _mm512_extracti32x4_epi32::<3>(v),
        ];
        for (out, lane) in four.iter_mut().zip(lanes) {
            store(out, lane);
        }
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

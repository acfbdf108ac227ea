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
//! cipher run — so the backends differ in the round function only.

use std::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

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
}

#[inline]
#[target_feature(enable = "aes,sse2")]
fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a live reference to 16 readable bytes and the
    // unaligned load accepts any address; `sse2` is enabled on this fn.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
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

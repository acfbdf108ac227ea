//! Equivalence of both `Aes128` round functions — the one the host selects
//! (AES-NI where the CPU has it) and the portable T-table — against each
//! other and the byte-wise reference cipher, over random keys and blocks,
//! plus the multi-block entry point and the CTR layer built on top. On a
//! host without AES instructions the selected path *is* the T-table and the
//! comparisons hold trivially.
//!
//! The known-answer vectors (FIPS-197, NIST SP 800-38A) live next to the
//! implementations; this suite covers the space *between* the published
//! vectors so a table-generation or byte-ordering bug cannot hide on inputs
//! the vectors happen not to exercise.

use proptest::prelude::*;
use psoram_crypto::{Aes128, CtrCipher, Hash128, ReferenceAes128};

fn bytes16(halves: (u64, u64)) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&halves.0.to_be_bytes());
    out[8..].copy_from_slice(&halves.1.to_be_bytes());
    out
}

/// `Hash128` written out by hand over the T-table cipher: Davies–Meyer
/// (`H' = E_m(H) ^ H`, the message block as the key) from the fixed IV
/// over the whole blocks, the `0x80`-padded remainder and the big-endian
/// length block. What a host without AES instructions computes.
fn portable_davies_meyer(msg: &[u8]) -> [u8; 16] {
    let mut state = 0x6a09e667_bb67ae85_3c6ef372_a54ff53au128.to_be_bytes();
    let mut compress = |block: [u8; 16]| {
        let out = Aes128::portable(&block).encrypt_block(&state);
        state.iter_mut().zip(out).for_each(|(s, o)| *s ^= o);
    };
    let whole = msg.chunks_exact(16);
    let rem = whole.remainder();
    for block in whole {
        compress(block.try_into().expect("16 bytes"));
    }
    let mut last = [0u8; 16];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] = 0x80;
    compress(last);
    compress((msg.len() as u128).to_be_bytes());
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The digest the host's rounds produce is the by-hand chain over the
    /// T-table: a host with AES instructions and one without agree on
    /// every message, short of a block, across many, and empty — and a
    /// message streamed in pieces hashes as the whole, wherever it is cut
    /// (inside a block, on one, across the stream's gather buffer).
    #[test]
    fn hash_is_the_portable_davies_meyer_chain(
        msg in prop::collection::vec(any::<u8>(), 0..700),
        cuts in prop::collection::vec(0usize..700, 0..6),
    ) {
        let expected = portable_davies_meyer(&msg);
        prop_assert_eq!(Hash128::new().digest(&msg), expected);

        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(msg.len())).collect();
        cuts.sort_unstable();
        let mut stream = Hash128::new().stream();
        let mut from = 0;
        for cut in cuts {
            stream.update(&msg[from..cut]);
            from = cut;
        }
        stream.update(&msg[from..]);
        prop_assert_eq!(stream.finalize(), expected);
    }

    /// The T-table and the reference cipher agree on every (key, block).
    #[test]
    fn ttable_matches_reference(
        k in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let key = bytes16(k);
        let block = bytes16(b);
        prop_assert_eq!(
            Aes128::portable(&key).encrypt_block(&block),
            ReferenceAes128::new(&key).encrypt_block(&block)
        );
    }

    /// Hardware ≡ T-table ≡ reference: whatever rounds `new` selected on
    /// this host produce the ciphertext of the other two.
    #[test]
    fn selected_backend_matches_ttable_and_reference(
        k in (any::<u64>(), any::<u64>()),
        b in (any::<u64>(), any::<u64>()),
    ) {
        let key = bytes16(k);
        let block = bytes16(b);
        let selected = Aes128::new(&key).encrypt_block(&block);
        prop_assert_eq!(selected, Aes128::portable(&key).encrypt_block(&block));
        prop_assert_eq!(selected, ReferenceAes128::new(&key).encrypt_block(&block));
    }

    /// `encrypt_blocks(v)` is `v.map(encrypt_block)` at every length that
    /// splits differently into wide groups and tails, on both backends.
    #[test]
    fn encrypt_blocks_matches_block_at_a_time(
        k in (any::<u64>(), any::<u64>()),
        blocks in prop::collection::vec((any::<u64>(), any::<u64>()), 0..18),
    ) {
        let key = bytes16(k);
        let plain: Vec<[u8; 16]> = blocks.into_iter().map(bytes16).collect();
        let reference = ReferenceAes128::new(&key);
        let expected: Vec<[u8; 16]> = plain.iter().map(|b| reference.encrypt_block(b)).collect();
        for aes in [Aes128::new(&key), Aes128::portable(&key)] {
            let mut together = plain.clone();
            aes.encrypt_blocks(&mut together);
            prop_assert_eq!(&together, &expected, "{:?}", aes);
        }
    }

    /// CTR keystream over the fast path equals block-at-a-time CTR over the
    /// reference cipher, including tail blocks and counter wrap-around.
    #[test]
    fn ctr_keystream_matches_reference_ctr(
        k in (any::<u64>(), any::<u64>()),
        iv_halves in (any::<u64>(), any::<u64>()),
        len in 0usize..200,
    ) {
        let key = bytes16(k);
        let iv = u128::from_be_bytes(bytes16(iv_halves));

        let mut fast = vec![0u8; len];
        CtrCipher::new(Aes128::new(&key)).keystream_into(iv, &mut fast);
        let mut portable = vec![0u8; len];
        CtrCipher::new(Aes128::portable(&key)).keystream_into(iv, &mut portable);

        let reference = ReferenceAes128::new(&key);
        let mut slow = vec![0u8; len];
        for (i, chunk) in slow.chunks_mut(16).enumerate() {
            let counter = iv.wrapping_add(i as u128).to_be_bytes();
            let pad = reference.encrypt_block(&counter);
            chunk.copy_from_slice(&pad[..chunk.len()]);
        }

        prop_assert_eq!(&fast, &slow);
        prop_assert_eq!(&portable, &slow);
    }

    /// apply_keystream is an involution for any (key, iv, data).
    #[test]
    fn ctr_roundtrip(
        k in (any::<u64>(), any::<u64>()),
        iv_lo in any::<u64>(),
        data in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let cipher = CtrCipher::new(Aes128::new(&bytes16(k)));
        let mut buf = data.clone();
        cipher.apply_keystream(u128::from(iv_lo), &mut buf);
        cipher.apply_keystream(u128::from(iv_lo), &mut buf);
        prop_assert_eq!(buf, data);
    }
}

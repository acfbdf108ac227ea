//! Property tests: the production CMAC against a from-scratch scalar
//! oracle, plus the detector guarantee the integrity layer leans on —
//! any single-bit flip in a tagged message (or its tag) must fail
//! verification.

use proptest::prelude::*;

use psoram_crypto::{Aes128, Cmac, Frame, ReferenceAes128};

/// Keys over the whole 128-bit domain (the vendored proptest has no
/// byte-array `Arbitrary`, so assemble one from two `u64` draws).
fn key_strategy() -> impl Strategy<Value = [u8; 16]> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&a.to_le_bytes());
        k[8..].copy_from_slice(&b.to_le_bytes());
        k
    })
}

/// RFC 4493 CMAC computed the slow, obvious way on the table-free
/// reference AES — an oracle sharing no code with the production
/// [`Cmac`] beyond the cipher's test vectors.
fn oracle_cmac(key: &[u8; 16], msg: &[u8]) -> [u8; 16] {
    fn dbl(x: [u8; 16]) -> [u8; 16] {
        let n = u128::from_be_bytes(x);
        let mut d = n << 1;
        if n >> 127 == 1 {
            d ^= 0x87;
        }
        d.to_be_bytes()
    }
    let aes = ReferenceAes128::new(key);
    let k1 = dbl(aes.encrypt_block(&[0u8; 16]));
    let k2 = dbl(k1);

    let complete = !msg.is_empty() && msg.len().is_multiple_of(16);
    let mut m = msg.to_vec();
    if !complete {
        m.push(0x80);
        while !m.len().is_multiple_of(16) {
            m.push(0);
        }
    }
    let last_key = if complete { k1 } else { k2 };
    let blocks = m.len() / 16;
    let mut x = [0u8; 16];
    for i in 0..blocks {
        let mut blk = [0u8; 16];
        blk.copy_from_slice(&m[i * 16..(i + 1) * 16]);
        if i == blocks - 1 {
            for (b, k) in blk.iter_mut().zip(&last_key) {
                *b ^= k;
            }
        }
        for (a, b) in x.iter_mut().zip(&blk) {
            *a ^= b;
        }
        x = aes.encrypt_block(&x);
    }
    x
}

/// The lanes on exactly the messages the freshness layer sends: a dummy
/// slot's record or a counter digest (26 bytes), a PosMap record (33) and
/// a real slot's record (83) — framed whole, as the layer frames it, and
/// as a 75-byte frame with its 8-byte payload borrowed — 1 to 8 to a
/// group, each shape alone and all of them mixed from every starting
/// shape, give each message the tag [`Cmac::tag`] gives it alone, on the
/// backend the host selects and on the T-table.
#[test]
fn tag_lanes_on_the_freshness_layer_shapes() {
    /// (bytes framed, bytes borrowed after the frame)
    const SHAPES: [(usize, usize); 4] = [(26, 0), (33, 0), (83, 0), (75, 8)];
    let key = [0x5A; 16];
    for aes in [Aes128::new(&key), Aes128::portable(&key)] {
        let mac = Cmac::new(aes);
        for n in 1..=Cmac::LANES {
            let alone = (0..SHAPES.len()).map(|shape| vec![shape; n]);
            let mixed = (0..SHAPES.len())
                .map(|first| (first..first + n).map(|i| i % SHAPES.len()).collect());
            for pattern in alone.chain(mixed).collect::<Vec<Vec<usize>>>() {
                let msgs: Vec<(Vec<u8>, usize)> = (pattern.iter().enumerate())
                    .map(|(i, &shape)| {
                        let (framed, borrowed) = SHAPES[shape];
                        let bytes = (0..framed + borrowed).map(|j| (i * 31 + j * 7 + shape) as u8);
                        (bytes.collect(), framed)
                    })
                    .collect();
                let frames: Vec<Frame<6>> = (msgs.iter())
                    .map(|(m, framed)| {
                        let mut frame = Frame::new();
                        frame.push(&m[..*framed]);
                        frame
                    })
                    .collect();
                let lanes: Vec<(&Frame<6>, &[u8])> = (msgs.iter().zip(&frames))
                    .map(|((m, framed), frame)| (frame, &m[*framed..]))
                    .collect();
                let mut tags = vec![[0u8; 16]; n];
                mac.tag_lanes(&lanes, &mut tags);
                let expected: Vec<[u8; 16]> = msgs.iter().map(|(m, _)| mac.tag(m)).collect();
                assert_eq!(tags, expected, "shapes {pattern:?}, {mac:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The production CMAC agrees with the scalar oracle on every key and
    /// message length (covering the empty, partial-block, and
    /// complete-block padding paths).
    #[test]
    fn cmac_matches_scalar_oracle(
        key in key_strategy(),
        msg in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let mac = Cmac::new(Aes128::new(&key));
        prop_assert_eq!(mac.tag(&msg), oracle_cmac(&key, &msg));
    }

    /// Chunking is invisible: any split of any message into `update`
    /// calls (empty chunks included) yields the one-shot tag.
    #[test]
    fn any_chunking_matches_the_one_shot_tag(
        key in key_strategy(),
        msg in prop::collection::vec(any::<u8>(), 0..120),
        cuts in prop::collection::vec(any::<u16>(), 0..8),
    ) {
        let mac = Cmac::new(Aes128::new(&key));
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (msg.len() + 1)).collect();
        cuts.sort_unstable();
        let mut s = mac.stream();
        let mut from = 0;
        for cut in cuts {
            s.update(&msg[from..cut]);
            from = cut;
        }
        s.update(&msg[from..]);
        prop_assert_eq!(s.finalize(), mac.tag(&msg));
    }

    /// A tag always verifies against the message it was computed over.
    #[test]
    fn tag_verifies_round_trip(
        key in key_strategy(),
        msg in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mac = Cmac::new(Aes128::new(&key));
        let tag = mac.tag(&msg);
        prop_assert!(mac.verify(&msg, &tag));
    }

    /// The detector property the device-fault recovery relies on: any
    /// single-bit flip in the authenticated message is caught.
    #[test]
    fn single_bit_flip_in_message_is_detected(
        key in key_strategy(),
        msg in prop::collection::vec(any::<u8>(), 1..64),
        bit in any::<u32>(),
    ) {
        let mac = Cmac::new(Aes128::new(&key));
        let tag = mac.tag(&msg);
        let mut corrupted = msg.clone();
        let pos = (bit as usize) % (msg.len() * 8);
        corrupted[pos / 8] ^= 1 << (pos % 8);
        prop_assert!(
            !mac.verify(&corrupted, &tag),
            "bit {pos} flip went undetected"
        );
    }

    /// And the dual: any single-bit flip in the tag itself is caught.
    #[test]
    fn single_bit_flip_in_tag_is_detected(
        key in key_strategy(),
        msg in prop::collection::vec(any::<u8>(), 0..64),
        bit in 0u32..128,
    ) {
        let mac = Cmac::new(Aes128::new(&key));
        let mut tag = mac.tag(&msg);
        tag[(bit / 8) as usize] ^= 1 << (bit % 8);
        prop_assert!(!mac.verify(&msg, &tag));
    }

    /// Lockstep lanes are invisible: `tag_lanes` over 1..=9 messages of
    /// ragged length (empty, partial, exact multiples of 16, up to 200
    /// bytes — more messages than one group holds) gives each message the
    /// tag `tag` gives it alone, wherever each is split between frame and
    /// payload, on both AES backends.
    #[test]
    fn tag_lanes_matches_per_message_tags(
        key in key_strategy(),
        msgs in prop::collection::vec(
            (
                prop::collection::vec(any::<u8>(), 0..201),
                // Round some lengths down to a block boundary.
                any::<bool>(),
                // Where the frame ends; sometimes on a block boundary too.
                (any::<u16>(), any::<bool>()),
            ),
            1..10,
        ),
    ) {
        let msgs: Vec<(Vec<u8>, usize)> = msgs
            .into_iter()
            .map(|(mut m, whole_blocks, (cut, cut_on_block))| {
                if whole_blocks {
                    m.truncate(m.len() / 16 * 16);
                }
                let mut cut = cut as usize % (m.len() + 1);
                if cut_on_block {
                    cut = cut / 16 * 16;
                }
                (m, cut)
            })
            .collect();
        // 13 blocks hold the longest message whole.
        let frames: Vec<Frame<13>> = msgs
            .iter()
            .map(|(m, cut)| {
                let mut frame = Frame::new();
                frame.push(&m[..*cut]);
                frame
            })
            .collect();
        let lanes: Vec<(&Frame<13>, &[u8])> = msgs
            .iter()
            .zip(&frames)
            .map(|((m, cut), frame)| (frame, &m[*cut..]))
            .collect();
        for aes in [Aes128::new(&key), Aes128::portable(&key)] {
            let mac = Cmac::new(aes);
            let expected: Vec<[u8; 16]> = msgs.iter().map(|(m, _)| mac.tag(m)).collect();
            let mut tags = vec![[0u8; 16]; msgs.len()];
            mac.tag_lanes(&lanes, &mut tags);
            prop_assert_eq!(&tags, &expected);
        }
    }
}

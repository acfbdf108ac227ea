//! A 128-bit hash built from AES (Davies–Meyer + Merkle–Damgård).
//!
//! Secure-memory integrity engines use block-cipher-based compression
//! functions because the AES datapath is already on chip. This is the
//! classic Davies–Meyer construction, `H_i = E(m_i, H_{i-1}) ^ H_{i-1}`,
//! with Merkle–Damgård length-strengthening — collision-resistant under
//! the ideal-cipher model and exactly what the integrity tree needs.

use crate::aes::davies_meyer;

/// Output size of [`Hash128`] in bytes.
pub const DIGEST_BYTES: usize = 16;

/// A 128-bit digest.
pub type Digest = [u8; DIGEST_BYTES];

/// The chain's initial value: an arbitrary fixed constant (fractional bits
/// of sqrt(2)).
const IV: Digest = [
    0x6a, 0x09, 0xe6, 0x67, 0xbb, 0x67, 0xae, 0x85, 0x3c, 0x6e, 0xf3, 0x72, 0xa5, 0x4f, 0xf5, 0x3a,
];

/// Bytes a [`Hash128Stream`] gathers before it compresses them: sixteen
/// blocks, so that a message fed a word at a time still reaches the chain
/// in runs long enough to expand key schedules ahead of the encryptions.
const GATHER: usize = 256;

/// AES-based 128-bit hash function.
///
/// # Examples
///
/// ```
/// use psoram_crypto::Hash128;
///
/// let h = Hash128::new();
/// let d1 = h.digest(b"bucket contents");
/// let d2 = h.digest(b"bucket contents!");
/// assert_ne!(d1, d2);
/// assert_eq!(d1, h.digest(b"bucket contents"));
///
/// // A message that exists only in pieces is hashed as it comes.
/// let mut s = h.stream();
/// s.update(b"bucket ");
/// s.update(b"contents");
/// assert_eq!(s.finalize(), d1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hash128;

impl Hash128 {
    /// Creates the hash function (stateless; the construction is keyless).
    pub fn new() -> Self {
        Hash128
    }

    /// Begins hashing a message that arrives in pieces.
    pub fn stream(&self) -> Hash128Stream {
        Hash128Stream {
            state: IV,
            buf: [0; GATHER],
            filled: 0,
            len: 0,
        }
    }

    /// Hashes `msg` to a 128-bit digest.
    pub fn digest(&self, msg: &[u8]) -> Digest {
        self.digest_parts(&[msg])
    }

    /// Hashes the concatenation of several parts without materializing it.
    pub fn digest_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut s = self.stream();
        for part in parts {
            s.update(part);
        }
        s.finalize()
    }
}

/// The hash of a message still arriving: [`Hash128::stream`], any number
/// of [`update`](Self::update)s, one [`finalize`](Self::finalize). The
/// digest is that of the pieces' concatenation, however it was cut.
#[derive(Debug, Clone)]
pub struct Hash128Stream {
    /// Chaining value over every compressed block.
    state: Digest,
    /// `buf[..filled]`: message bytes gathered and not yet compressed.
    buf: [u8; GATHER],
    filled: usize,
    /// Message bytes so far, for the length-strengthening block.
    len: u64,
}

impl Hash128Stream {
    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.filled > 0 {
            let n = (GATHER - self.filled).min(data.len());
            self.buf[self.filled..self.filled + n].copy_from_slice(&data[..n]);
            self.filled += n;
            data = &data[n..];
            if self.filled < GATHER {
                return;
            }
            davies_meyer(&mut self.state, self.buf.as_chunks().0);
            self.filled = 0;
        }
        // Nothing gathered: whole blocks go to the chain from where they
        // lie, and only what is left over is copied.
        let (blocks, rest) = data.as_chunks();
        davies_meyer(&mut self.state, blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.filled = rest.len();
    }

    /// Finishes the message and returns its digest.
    pub fn finalize(mut self) -> Digest {
        let (blocks, rem) = self.buf[..self.filled].as_chunks();
        // The padded block (remainder || 0x80 || zeros), then Merkle–Damgård
        // length strengthening.
        let mut tail = [[0u8; 16]; 2];
        tail[0][..rem.len()].copy_from_slice(rem);
        tail[0][rem.len()] = 0x80;
        tail[1][8..].copy_from_slice(&self.len.to_be_bytes());
        davies_meyer(&mut self.state, blocks);
        davies_meyer(&mut self.state, &tail);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let h = Hash128::new();
        assert_eq!(h.digest(b"abc"), h.digest(b"abc"));
    }

    #[test]
    fn sensitive_to_every_byte() {
        let h = Hash128::new();
        let base = h.digest(&[0u8; 64]);
        for i in 0..64 {
            let mut m = [0u8; 64];
            m[i] = 1;
            assert_ne!(h.digest(&m), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn length_extension_distinguished() {
        let h = Hash128::new();
        // Same prefix, different lengths of zero padding.
        assert_ne!(h.digest(&[0u8; 16]), h.digest(&[0u8; 32]));
        assert_ne!(h.digest(b""), h.digest(&[0u8; 1]));
    }

    #[test]
    fn parts_equal_concatenation() {
        let h = Hash128::new();
        assert_eq!(h.digest_parts(&[b"ab", b"cd"]), h.digest(b"abcd"));
    }

    #[test]
    fn boundary_lengths() {
        let h = Hash128::new();
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33] {
            let m = vec![0xA5u8; len];
            let d = h.digest(&m);
            assert_eq!(d, h.digest(&m), "len {len}");
        }
    }

    /// The message the known answers below were taken over: `len` bytes
    /// of a fixed non-repeating pattern.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + i / 256 + 7) as u8).collect()
    }

    /// Digests recorded from the build whose `digest` expanded every
    /// block's key in software and encrypted with `Aes128::new` (6836432):
    /// the empty message, both sides of one and of sixteen blocks, and a
    /// page. Every golden that folds a `state_digest` rests on these.
    #[test]
    fn known_answers() {
        const PINS: [(usize, u128); 8] = [
            (0, 0x39fd1819b49198ace037459131663cf1),
            (1, 0x1e4ba819aa0f87637ccc631990f1bcc3),
            (15, 0x51031e3671d4865cc92cb55a4daee448),
            (16, 0xa71d3cc6f5d3b08f5764ea1a70e109d8),
            (17, 0xb1b6ec47bcd2d6ff76d695adec266723),
            (255, 0x9806891ec4ada83db1f7e8d8b33a7c40),
            (256, 0x98e561dc0fc3dda4ff2be1d7f7bd965f),
            (4096, 0x18444fcc0cdab2634523fd4d2728b29a),
        ];
        let h = Hash128::new();
        let got = PINS.map(|(len, _)| (len, u128::from_be_bytes(h.digest(&pattern(len)))));
        assert_eq!(got, PINS, "{got:#034x?}");
    }

    #[test]
    fn empirical_collision_sanity() {
        let h = Hash128::new();
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u64 {
            assert!(seen.insert(h.digest(&i.to_le_bytes())), "collision at {i}");
        }
    }
}

//! AES-CMAC (RFC 4493) message authentication.
//!
//! Secure NVM systems pair counter-mode encryption with per-block
//! authentication (the paper's related work: Triad-NVM, SuperMem). This
//! CMAC lets the ORAM controller tag each block so recovery can *verify*
//! the copy it restores rather than trust the NVM bits blindly.

use crate::Aes128;

/// AES-CMAC tag generator.
///
/// # Examples
///
/// ```
/// use psoram_crypto::{Aes128, Cmac};
///
/// let mac = Cmac::new(Aes128::new(&[3u8; 16]));
/// let tag = mac.tag(b"oram block payload");
/// assert!(mac.verify(b"oram block payload", &tag));
/// assert!(!mac.verify(b"tampered block!!!", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct Cmac {
    aes: Aes128,
    k1: [u8; 16],
    k2: [u8; 16],
}

/// Doubles a 128-bit value in GF(2^128) (the CMAC subkey derivation).
fn dbl(x: &[u8; 16]) -> [u8; 16] {
    let mut out = [0u8; 16];
    let mut carry = 0u8;
    for i in (0..16).rev() {
        out[i] = (x[i] << 1) | carry;
        carry = x[i] >> 7;
    }
    if carry != 0 {
        out[15] ^= 0x87;
    }
    out
}

impl Cmac {
    /// Derives the CMAC subkeys from an expanded AES key.
    pub fn new(aes: Aes128) -> Self {
        let l = aes.encrypt_block(&[0u8; 16]);
        let k1 = dbl(&l);
        let k2 = dbl(&k1);
        Cmac { aes, k1, k2 }
    }

    /// Starts an incremental MAC: feed the message in any number of
    /// [`CmacStream::update`] chunks, then [`CmacStream::finalize`]. The
    /// tag depends only on the concatenated bytes, never on the chunking,
    /// so callers can MAC a record field by field without assembling it.
    ///
    /// ```
    /// use psoram_crypto::{Aes128, Cmac};
    ///
    /// let mac = Cmac::new(Aes128::new(&[3u8; 16]));
    /// let mut s = mac.stream();
    /// s.update(b"oram block ");
    /// s.update(b"payload");
    /// assert_eq!(s.finalize(), mac.tag(b"oram block payload"));
    /// ```
    pub fn stream(&self) -> CmacStream<'_> {
        CmacStream {
            mac: self,
            x: [0u8; 16],
            buf: [0u8; 16],
            len: 0,
        }
    }

    /// Computes the 16-byte CMAC tag of `msg`.
    pub fn tag(&self, msg: &[u8]) -> [u8; 16] {
        let mut s = self.stream();
        s.update(msg);
        s.finalize()
    }

    /// Computes the tag of a multi-part message under a one-byte domain.
    ///
    /// Each part is prefixed with its little-endian length before MACing,
    /// so differently split inputs can never collide: `("ab", "c")` and
    /// `("a", "bc")` authenticate different byte streams, and the domain
    /// byte keeps callers sharing one key in disjoint message spaces.
    /// This is the general-purpose framing for variable-shape records;
    /// fixed-shape records (the freshness layer's slot tags and counter
    /// digests) stream their own fixed-width encoding instead and save
    /// the length words.
    pub fn tag_parts(&self, domain: u8, parts: &[&[u8]]) -> [u8; 16] {
        let mut s = self.stream();
        s.update(&[domain]);
        for p in parts {
            s.update(&(p.len() as u64).to_le_bytes());
            s.update(p);
        }
        s.finalize()
    }

    /// Constant-shape verification of a tag.
    pub fn verify(&self, msg: &[u8], tag: &[u8; 16]) -> bool {
        let mut s = self.stream();
        s.update(msg);
        s.verify(tag)
    }
}

/// An in-progress AES-CMAC computation (see [`Cmac::stream`]).
///
/// CMAC masks the *last* block with a subkey, so the newest block is held
/// back until either more input proves it was not the last or
/// [`CmacStream::finalize`] masks and absorbs it.
#[derive(Debug, Clone)]
pub struct CmacStream<'a> {
    mac: &'a Cmac,
    /// CBC chaining value over every absorbed block.
    x: [u8; 16],
    /// The held-back newest block; `buf[..len]` is message bytes.
    buf: [u8; 16],
    len: usize,
}

impl CmacStream<'_> {
    /// XORs the held block into the chain and encrypts.
    fn absorb(&mut self) {
        for (x, b) in self.x.iter_mut().zip(&self.buf) {
            *x ^= b;
        }
        self.x = self.mac.aes.encrypt_block(&self.x);
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.len == 16 {
                // More input follows, so the held block is not the last.
                self.absorb();
                self.len = 0;
            }
            let n = (16 - self.len).min(data.len());
            self.buf[self.len..self.len + n].copy_from_slice(&data[..n]);
            self.len += n;
            data = &data[n..];
        }
    }

    /// Finishes the message and returns its 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        // Last block: XOR with K1 (complete) or pad `10*` and XOR with K2.
        let subkey = if self.len == 16 {
            self.mac.k1
        } else {
            self.buf[self.len] = 0x80;
            self.buf[self.len + 1..].fill(0);
            self.mac.k2
        };
        for (b, k) in self.buf.iter_mut().zip(&subkey) {
            *b ^= k;
        }
        self.absorb();
        self.x
    }

    /// Finishes the message and compares its tag to `tag` in constant
    /// shape.
    pub fn verify(self, tag: &[u8; 16]) -> bool {
        let computed = self.finalize();
        let mut diff = 0u8;
        for (a, b) in computed.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rfc_key() -> Aes128 {
        Aes128::new(&[
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ])
    }

    /// RFC 4493 Example 1: empty message.
    #[test]
    fn rfc4493_empty_message() {
        let mac = Cmac::new(rfc_key());
        let expected = [
            0xbb, 0x1d, 0x69, 0x29, 0xe9, 0x59, 0x37, 0x28, 0x7f, 0xa3, 0x7d, 0x12, 0x9b, 0x75,
            0x67, 0x46,
        ];
        assert_eq!(mac.tag(b""), expected);
    }

    /// RFC 4493 Example 2: one full block.
    #[test]
    fn rfc4493_single_block() {
        let mac = Cmac::new(rfc_key());
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x07, 0x0a, 0x16, 0xb4, 0x6b, 0x4d, 0x41, 0x44, 0xf7, 0x9b, 0xdd, 0x9d, 0xd0, 0x4a,
            0x28, 0x7c,
        ];
        assert_eq!(mac.tag(&msg), expected);
    }

    /// RFC 4493 Example 3: 40 bytes (partial last block).
    #[test]
    fn rfc4493_forty_bytes() {
        let mac = Cmac::new(rfc_key());
        let msg = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11,
        ];
        let expected = [
            0xdf, 0xa6, 0x67, 0x47, 0xde, 0x9a, 0xe6, 0x30, 0x30, 0xca, 0x32, 0x61, 0x14, 0x97,
            0xc8, 0x27,
        ];
        assert_eq!(mac.tag(&msg), expected);
    }

    /// RFC 4493 Examples 1-4 (0, 16, 40 and 64 bytes of one message),
    /// one-shot and fed through the streaming path byte by byte and in
    /// block-straddling 7-byte chunks.
    #[test]
    fn rfc4493_examples_through_the_streaming_path() {
        const MSG: [u8; 64] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac,
            0x45, 0xaf, 0x8e, 0x51, 0x30, 0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb,
            0xc1, 0x19, 0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b, 0x17,
            0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10,
        ];
        let examples: [(usize, u128); 4] = [
            (0, 0xbb1d6929_e9593728_7fa37d12_9b756746),
            (16, 0x070a16b4_6b4d4144_f79bdd9d_d04a287c),
            (40, 0xdfa66747_de9ae630_30ca3261_1497c827),
            (64, 0x51f0bebf_7e3b9d92_fc497417_79363cfe),
        ];
        let mac = Cmac::new(rfc_key());
        for (len, tag) in examples {
            let msg = &MSG[..len];
            let expected = tag.to_be_bytes();
            assert_eq!(mac.tag(msg), expected, "one-shot, {len} bytes");
            for chunk in [1, 7] {
                let mut s = mac.stream();
                for piece in msg.chunks(chunk) {
                    s.update(piece);
                }
                assert_eq!(s.finalize(), expected, "{len} bytes in {chunk}-byte chunks");
            }
            let mut s = mac.stream();
            s.update(msg);
            assert!(s.verify(&expected));
        }
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let mac = Cmac::new(Aes128::new(&[7u8; 16]));
        let tag = mac.tag(b"block");
        assert!(mac.verify(b"block", &tag));
        assert!(!mac.verify(b"blocj", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!mac.verify(b"block", &bad));
    }

    #[test]
    fn distinct_messages_distinct_tags() {
        let mac = Cmac::new(Aes128::new(&[7u8; 16]));
        assert_ne!(mac.tag(b"a"), mac.tag(b"b"));
        assert_ne!(mac.tag(b""), mac.tag(b"\0"));
    }

    #[test]
    fn tag_parts_is_split_and_domain_separated() {
        let mac = Cmac::new(Aes128::new(&[9u8; 16]));
        // Splitting the same bytes differently must change the tag.
        assert_ne!(
            mac.tag_parts(1, &[b"ab", b"c"]),
            mac.tag_parts(1, &[b"a", b"bc"])
        );
        // Same parts under different domains must change the tag.
        assert_ne!(mac.tag_parts(1, &[b"abc"]), mac.tag_parts(2, &[b"abc"]));
        // Deterministic.
        assert_eq!(
            mac.tag_parts(3, &[b"x", b"", b"y"]),
            mac.tag_parts(3, &[b"x", b"", b"y"])
        );
        // Part count matters even when the concatenation is identical.
        assert_ne!(mac.tag_parts(3, &[b"xy"]), mac.tag_parts(3, &[b"x", b"y"]));
    }
}

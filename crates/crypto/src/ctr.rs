//! AES counter (CTR) mode over arbitrary-length buffers.

use crate::Aes128;

/// Keystream blocks generated per pass through the cipher.
const GROUP: usize = 8;

/// AES-128 counter-mode cipher.
///
/// ORAM blocks are encrypted in counter mode with per-block initialization
/// vectors (IVs): `IV1` protects the header and `IV2` the content (Fletcher
/// et al.). Counter mode is an involution — applying the keystream twice
/// restores the plaintext — so a single [`CtrCipher::apply_keystream`] method
/// serves for both encryption and decryption.
///
/// # Examples
///
/// ```
/// use psoram_crypto::{Aes128, CtrCipher};
///
/// let cipher = CtrCipher::new(Aes128::new(&[0x42; 16]));
/// let mut buf = vec![0u8; 64];
/// cipher.apply_keystream(7, &mut buf);
/// assert!(buf.iter().any(|&b| b != 0));
/// cipher.apply_keystream(7, &mut buf);
/// assert!(buf.iter().all(|&b| b == 0));
/// ```
#[derive(Debug, Clone)]
pub struct CtrCipher {
    aes: Aes128,
}

impl CtrCipher {
    /// Creates a counter-mode cipher around an expanded AES-128 key.
    pub fn new(aes: Aes128) -> Self {
        CtrCipher { aes }
    }

    /// XORs `buf` with the keystream generated from initialization vector
    /// `iv`. Apply once to encrypt, once more (with the same `iv`) to
    /// decrypt.
    ///
    /// The counter block for keystream block `i` is the big-endian encoding
    /// of `iv + i`, which matches the standard CTR construction where the IV
    /// occupies the counter's high bits.
    pub fn apply_keystream(&self, iv: u128, buf: &mut [u8]) {
        self.with_pads(iv, buf, |chunk, pad| {
            for (b, p) in chunk.iter_mut().zip(pad) {
                *b ^= p;
            }
        });
    }

    /// [`CtrCipher::apply_keystream`] over several buffers, each under its
    /// own IV: the counter blocks of all of them go through the cipher
    /// eight at a time, wherever one buffer ends and the next begins —
    /// so buffers of a block or two (an ORAM block's payload) are opened
    /// side by side rather than each alone.
    ///
    /// ```
    /// use psoram_crypto::{Aes128, CtrCipher};
    ///
    /// let cipher = CtrCipher::new(Aes128::new(&[0x42; 16]));
    /// let (mut a, mut b) = ([1u8; 8], [2u8; 40]);
    /// cipher.apply_keystreams([(7, &mut a[..]), (9, &mut b[..])]);
    /// let (mut a2, mut b2) = ([1u8; 8], [2u8; 40]);
    /// cipher.apply_keystream(7, &mut a2);
    /// cipher.apply_keystream(9, &mut b2);
    /// assert_eq!((a, b), (a2, b2));
    /// ```
    pub fn apply_keystreams<'a>(&self, bufs: impl IntoIterator<Item = (u128, &'a mut [u8])>) {
        let mut pads = [[0u8; 16]; GROUP];
        let mut outs: [&mut [u8]; GROUP] = Default::default();
        let mut n = 0;
        for (iv, buf) in bufs {
            for (i, chunk) in buf.chunks_mut(16).enumerate() {
                pads[n] = iv.wrapping_add(i as u128).to_be_bytes();
                outs[n] = chunk;
                n += 1;
                if n == GROUP {
                    self.xor_pads(&mut pads, &mut outs);
                    n = 0;
                }
            }
        }
        self.xor_pads(&mut pads[..n], &mut outs[..n]);
    }

    /// Encrypts the counter blocks `pads` and XORs each into its `outs`.
    fn xor_pads(&self, pads: &mut [[u8; 16]], outs: &mut [&mut [u8]]) {
        self.aes.encrypt_blocks(pads);
        for (out, pad) in outs.iter_mut().zip(pads.iter()) {
            for (b, p) in out.iter_mut().zip(pad) {
                *b ^= p;
            }
        }
    }

    /// Walks `buf` in runs of up to [`GROUP`] keystream blocks, handing
    /// `apply` each run with its pad. The counter blocks of one buffer are
    /// independent, so a run goes through the cipher together.
    fn with_pads(&self, iv: u128, buf: &mut [u8], mut apply: impl FnMut(&mut [u8], &[u8])) {
        for (g, chunk) in buf.chunks_mut(16 * GROUP).enumerate() {
            let mut pads = [[0u8; 16]; GROUP];
            let pads = &mut pads[..chunk.len().div_ceil(16)];
            for (i, pad) in pads.iter_mut().enumerate() {
                *pad = iv.wrapping_add((g * GROUP + i) as u128).to_be_bytes();
            }
            self.aes.encrypt_blocks(pads);
            apply(chunk, &pads.as_flattened()[..chunk.len()]);
        }
    }

    /// Fills `out` with keystream bytes for `iv`, overwriting its contents.
    ///
    /// This is the batched, allocation-free variant of [`Self::keystream`]:
    /// the caller brings a reusable scratch buffer (any length; the final
    /// partial block is truncated) and XORs the pad into data itself, which
    /// is how the controller re-encrypts a whole path's buckets without a
    /// heap allocation per access.
    pub fn keystream_into(&self, iv: u128, out: &mut [u8]) {
        self.with_pads(iv, out, |chunk, pad| chunk.copy_from_slice(pad));
    }

    /// Generates `len` keystream bytes for `iv` without touching user data.
    ///
    /// Used by the timing model to emulate Osiris-style pad pre-generation,
    /// where the encryption pad is computed while the data block is still in
    /// flight from memory. Allocates; hot paths should hand a scratch buffer
    /// to [`Self::keystream_into`] instead.
    pub fn keystream(&self, iv: u128, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.keystream_into(iv, &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cipher() -> CtrCipher {
        CtrCipher::new(Aes128::new(&[0xA5; 16]))
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let c = cipher();
        let original: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let mut buf = original.clone();
        c.apply_keystream(0xDEADBEEF, &mut buf);
        assert_ne!(buf, original);
        c.apply_keystream(0xDEADBEEF, &mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn distinct_ivs_produce_distinct_ciphertexts() {
        let c = cipher();
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        c.apply_keystream(1, &mut a);
        c.apply_keystream(2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_matches_apply_on_zeroes() {
        let c = cipher();
        let ks = c.keystream(99, 48);
        let mut buf = vec![0u8; 48];
        c.apply_keystream(99, &mut buf);
        assert_eq!(ks, buf);
    }

    #[test]
    fn keystream_into_matches_keystream() {
        let c = cipher();
        for len in [0usize, 1, 15, 16, 17, 48, 200] {
            let ks = c.keystream(0x1234_5678, len);
            let mut buf = vec![0xEEu8; len];
            c.keystream_into(0x1234_5678, &mut buf);
            assert_eq!(ks, buf, "len {len}");
        }
    }

    #[test]
    fn apply_keystreams_is_apply_keystream_per_buffer() {
        let c = cipher();
        // Lengths that straddle a group of counter blocks, end on one,
        // leave a partial block, and are nothing at all.
        for lens in [&[8usize; 11][..], &[0, 16, 17, 128, 3], &[200], &[]] {
            let mut together: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0x3C; n]).collect();
            let mut apart = together.clone();
            let ivs = (0..lens.len() as u128).map(|i| 0xABCD_0000 + 1000 * i);
            c.apply_keystreams(ivs.clone().zip(together.iter_mut().map(Vec::as_mut_slice)));
            for (iv, buf) in ivs.zip(&mut apart) {
                c.apply_keystream(iv, buf);
            }
            assert_eq!(together, apart, "{lens:?}");
        }
    }

    #[test]
    fn keystream_into_then_xor_equals_apply_keystream() {
        let c = cipher();
        let plain: Vec<u8> = (0..77).map(|i| (i * 13) as u8).collect();

        let mut direct = plain.clone();
        c.apply_keystream(0xFEED, &mut direct);

        let mut pad = vec![0u8; plain.len()];
        c.keystream_into(0xFEED, &mut pad);
        let via_pad: Vec<u8> = plain.iter().zip(&pad).map(|(p, k)| p ^ k).collect();

        assert_eq!(direct, via_pad);
    }

    #[test]
    fn non_multiple_of_block_length_handled() {
        let c = cipher();
        let mut buf = vec![0xFFu8; 21];
        c.apply_keystream(5, &mut buf);
        c.apply_keystream(5, &mut buf);
        assert_eq!(buf, vec![0xFFu8; 21]);
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first 16-byte block.
    #[test]
    fn sp800_38a_ctr_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv = u128::from_be_bytes([
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ]);
        let mut buf = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68, 0x64, 0x99, 0x0d,
            0xb6, 0xce,
        ];
        CtrCipher::new(Aes128::new(&key)).apply_keystream(iv, &mut buf);
        assert_eq!(buf, expected);
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, all four blocks in one
    /// `apply_keystream` call, on the selected AES backend and the T-table.
    #[test]
    fn sp800_38a_ctr_four_blocks_on_both_backends() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv = 0xf0f1f2f3_f4f5f6f7_f8f9fafb_fcfdfeff_u128;
        const PT: [u128; 4] = [
            0x6bc1bee2_2e409f96_e93d7e11_7393172a,
            0xae2d8a57_1e03ac9c_9eb76fac_45af8e51,
            0x30c81c46_a35ce411_e5fbc119_1a0a52ef,
            0xf69f2445_df4f9b17_ad2b417b_e66c3710,
        ];
        const CT: [u128; 4] = [
            0x874d6191_b620e326_1bef6864_990db6ce,
            0x9806f66b_7970fdff_8617187b_b9fffdff,
            0x5ae4df3e_dbd5d35e_5b4f0902_0db03eab,
            0x1e031dda_2fbe03d1_792170a0_f3009cee,
        ];
        for aes in [Aes128::new(&key), Aes128::portable(&key)] {
            let mut buf = PT.map(u128::to_be_bytes).as_flattened().to_vec();
            CtrCipher::new(aes).apply_keystream(iv, &mut buf);
            assert_eq!(buf, CT.map(u128::to_be_bytes).as_flattened());
        }
    }

    /// Sequential blocks must use incrementing counters (second SP 800-38A
    /// block checked through a 32-byte buffer).
    #[test]
    fn sp800_38a_ctr_second_block() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv = u128::from_be_bytes([
            0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc, 0xfd,
            0xfe, 0xff,
        ]);
        let mut buf = [0u8; 32];
        buf[16..].copy_from_slice(&[
            0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03, 0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf,
            0x8e, 0x51,
        ]);
        CtrCipher::new(Aes128::new(&key)).apply_keystream(iv, &mut buf);
        let expected_second = [
            0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70, 0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b, 0xb9, 0xff,
            0xfd, 0xff,
        ];
        assert_eq!(&buf[16..], &expected_second);
    }
}

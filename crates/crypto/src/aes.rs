//! AES-128 block cipher (FIPS-197): one type, two round functions.
//!
//! [`Aes128::new`] picks its round function once, from what the host
//! reports: on `x86_64` with the `aes` and `sse2` CPU features detected at
//! run time, the AES-NI rounds (`crate::aesni`) — their CBC chains on the
//! wide VAES kernel where the host also reports `vaes` and `avx512f`;
//! everywhere else the portable T-table rounds in this file. All consume
//! the same [`expand_key`] schedule, and nothing but the platform enters
//! the choice. [`Aes128::portable`] pins the T-table on any host, and the
//! test-only `Aes128::narrow` the AES-NI rounds without the wide kernel,
//! which is how the test suite holds them against each other and against
//! the byte-wise [`crate::ReferenceAes128`].
//!
//! The T-table round is the classic four precomputed 32-bit lookup tables
//! (`Te0..Te3`), each entry combining SubBytes, ShiftRows, and MixColumns
//! for one state byte; a round is then sixteen table loads, sixteen XORs,
//! and the round key. The tables are generated at compile time from the
//! S-box.
//!
//! Functional throughput is independent of the *timing* model, which charges
//! a fixed 32-cycle latency per AES operation regardless of how fast the
//! simulator computes it (see [`crate::CryptoLatencyModel`]).

#[cfg(target_arch = "x86_64")]
use crate::aesni::AesNi;

/// The AES S-box (forward substitution table), from FIPS-197 Figure 7.
pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// GF(2^8) doubling, usable in const table generation.
const fn mul2(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// The four encryption T-tables. With big-endian state words (row 0 in the
/// most significant byte), `TE[0][x]` holds the MixColumns column
/// `(2·S(x), S(x), S(x), 3·S(x))`; `TE[1..3]` are byte rotations of it, so a
/// full round column is `TE[0][..] ^ TE[1][..] ^ TE[2][..] ^ TE[3][..] ^ rk`.
static TE: [[u32; 256]; 4] = {
    let mut t = [[0u32; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = mul2(SBOX[i]) as u32;
        let s3 = s2 ^ s;
        let w = (s2 << 24) | (s << 16) | (s << 8) | s3;
        t[0][i] = w;
        t[1][i] = w.rotate_right(8);
        t[2][i] = w.rotate_right(16);
        t[3][i] = w.rotate_right(24);
        i += 1;
    }
    t
};

/// Expands `key` into the 11 round keys of the FIPS-197 key schedule.
///
/// Shared by both round functions of [`Aes128`] and the byte-wise
/// reference cipher so all of them provably run the same schedule.
pub(crate) fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    let mut w = [[0u8; 4]; 44];
    for (i, chunk) in key.chunks_exact(4).enumerate() {
        w[i].copy_from_slice(chunk);
    }
    for i in 4..44 {
        let mut temp = w[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for b in &mut temp {
                *b = SBOX[*b as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        for j in 0..4 {
            w[i][j] = w[i - 4][j] ^ temp[j];
        }
    }
    let mut round_keys = [[0u8; 16]; 11];
    for r in 0..11 {
        for c in 0..4 {
            round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
        }
    }
    round_keys
}

/// An AES-128 block cipher with a pre-expanded key schedule.
///
/// The cipher only exposes block *encryption*: ORAM uses AES exclusively in
/// counter mode, where decryption is the same keystream XOR. The round
/// function is the host's AES instructions where it has them and the
/// T-table otherwise (see the module docs); the ciphertext is the FIPS-197
/// one either way.
///
/// # Examples
///
/// ```
/// use psoram_crypto::Aes128;
///
/// // FIPS-197 Appendix B example.
/// let key = [
///     0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
///     0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c,
/// ];
/// let aes = Aes128::new(&key);
/// let block = [
///     0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
///     0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34,
/// ];
/// let ct = aes.encrypt_block(&block);
/// assert_eq!(ct[0], 0x39);
/// assert_eq!(ct[15], 0x32);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    rounds: Rounds,
}

/// The round function an [`Aes128`] was built with, over the schedule in
/// the form it consumes.
#[derive(Clone)]
enum Rounds {
    /// The host's AES instructions, over the 11 round keys of 16 bytes
    /// each as [`expand_key`] lays them out.
    #[cfg(target_arch = "x86_64")]
    Hardware(AesNi, [[u8; 16]; 11]),
    /// The T-table rounds, over the schedule as 44 big-endian words.
    Portable([u32; 44]),
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material; do say which rounds ran.
        let backend = match self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(hw, _) if hw.is_wide() => "aes-ni+vaes",
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(..) => "aes-ni",
            Rounds::Portable(_) => "t-table",
        };
        f.debug_struct("Aes128")
            .field("backend", &backend)
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule and returns the
    /// cipher, on the host's AES instructions if it has them.
    pub fn new(key: &[u8; 16]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = AesNi::detect() {
            return Aes128 {
                rounds: Rounds::Hardware(hw, expand_key(key)),
            };
        }
        Self::portable(key)
    }

    /// Same cipher, pinned to the portable T-table rounds whatever the
    /// host offers. This is the path every host without AES instructions
    /// runs; the constructor exists so tests can reach it — and hold it
    /// against [`Aes128::new`] — on a host that has them.
    pub fn portable(key: &[u8; 16]) -> Self {
        let round_keys = expand_key(key);
        let mut ek = [0u32; 44];
        for (i, word) in ek.iter_mut().enumerate() {
            let rk = &round_keys[i / 4];
            let c = (i % 4) * 4;
            *word = u32::from_be_bytes([rk[c], rk[c + 1], rk[c + 2], rk[c + 3]]);
        }
        Aes128 {
            rounds: Rounds::Portable(ek),
        }
    }

    /// Same cipher, on the AES-NI rounds with the CBC chains on the narrow
    /// kernel even where the host has VAES: what a host with AES-NI and no
    /// VAES runs. The T-table where the host has no AES-NI.
    #[cfg(test)]
    pub(crate) fn narrow(key: &[u8; 16]) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = AesNi::detect() {
            return Aes128 {
                rounds: Rounds::Hardware(hw.narrow(), expand_key(key)),
            };
        }
        Self::portable(key)
    }

    /// Encrypts one 16-byte block and returns the ciphertext block: the
    /// one-block case of [`Aes128::encrypt_blocks`], by value.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(hw, round_keys) => hw.encrypt_block(round_keys, block),
            Rounds::Portable(ek) => ttable_encrypt(ek, block),
        }
    }

    /// Encrypts every block of `blocks` in place, each on its own (ECB).
    ///
    /// The blocks are independent, so the hardware rounds take several
    /// through each round together — one round-key load serves all of
    /// them, and the AES unit's pipeline stays full — where a chain of
    /// [`Aes128::encrypt_block`] calls would wait out every round's
    /// latency. The T-table rounds take them one after another.
    pub fn encrypt_blocks(&self, blocks: &mut [[u8; 16]]) {
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(hw, round_keys) => hw.encrypt_blocks(round_keys, blocks),
            Rounds::Portable(ek) => {
                for block in blocks {
                    *block = ttable_encrypt(ek, block);
                }
            }
        }
    }
}

/// One chain of [`Aes128::cbc_chains`]: its blocks, in order (at least
/// one), and what is XORed into the last of them.
pub(crate) type Chain<'a> = (&'a [[u8; 16]], [u8; 16]);

impl Aes128 {
    /// Independent CBC chains side by side — the engine of CMAC's lanes.
    /// Chain `i`, `chains[i] = (blocks, last)`, absorbs its blocks in
    /// order from a zero chaining value (`x ← E(x ^ block)`), `last` XORed
    /// into the final one, and `out[i]` becomes its last `x`.
    ///
    /// On the hardware rounds up to eight chains — sixteen on the wide
    /// kernel, four to a 512-bit register — run in lockstep with their
    /// chaining values held in registers, so the AES unit sees as many
    /// independent states per pass as it does in
    /// [`Aes128::encrypt_blocks`], and nothing goes back to memory between
    /// a chain's blocks. The T-table runs the chains one after another.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `chains`.
    pub(crate) fn cbc_chains(&self, chains: &[Chain<'_>], out: &mut [[u8; 16]]) {
        assert!(out.len() >= chains.len(), "one output per chain");
        debug_assert!(
            chains.iter().all(|(blocks, _)| !blocks.is_empty()),
            "a chain has a block"
        );
        match &self.rounds {
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(hw, round_keys) => hw.cbc_chains(round_keys, chains, out),
            Rounds::Portable(ek) => cbc_chains_portable(ek, chains, out),
        }
    }
}

/// [`Aes128::cbc_chains`] on the T-table, a chain at a time.
fn cbc_chains_portable(ek: &[u32; 44], chains: &[Chain<'_>], out: &mut [[u8; 16]]) {
    for (out, (blocks, last)) in out.iter_mut().zip(chains) {
        let mut x = 0u128;
        for (i, block) in blocks.iter().enumerate() {
            let mut block = u128::from_le_bytes(*block);
            if i + 1 == blocks.len() {
                block ^= u128::from_le_bytes(*last);
            }
            x = u128::from_le_bytes(ttable_encrypt(ek, &(x ^ block).to_le_bytes()));
        }
        *out = x.to_le_bytes();
    }
}

/// The Davies–Meyer chain of [`crate::Hash128`] over `blocks`:
/// `state ← E_m(state) ^ state` for each block `m` in order, the message
/// block being the cipher *key*. On the host's AES instructions where it
/// has them, key schedule included; [`davies_meyer_portable`] elsewhere.
pub(crate) fn davies_meyer(state: &mut [u8; 16], blocks: &[[u8; 16]]) {
    #[cfg(target_arch = "x86_64")]
    if let Some(hw) = AesNi::detect() {
        return hw.davies_meyer(state, blocks);
    }
    davies_meyer_portable(state, blocks);
}

/// [`davies_meyer`] over [`expand_key`] and the T-table rounds: what a
/// host without AES instructions runs.
pub(crate) fn davies_meyer_portable(state: &mut [u8; 16], blocks: &[[u8; 16]]) {
    for block in blocks {
        let out = Aes128::portable(block).encrypt_block(state);
        for (s, o) in state.iter_mut().zip(out) {
            *s ^= o;
        }
    }
}

/// One block through the T-table rounds under the word schedule `ek`.
fn ttable_encrypt(ek: &[u32; 44], block: &[u8; 16]) -> [u8; 16] {
    let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ ek[0];
    let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ ek[1];
    let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ ek[2];
    let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ ek[3];

    // Rounds 1..=9: SubBytes + ShiftRows + MixColumns folded into the
    // T-tables; the ShiftRows byte selection is the (s_j, s_{j+1},
    // s_{j+2}, s_{j+3}) column rotation below.
    for r in 1..10 {
        let k = &ek[4 * r..4 * r + 4];
        let t0 = round_word(s0, s1, s2, s3) ^ k[0];
        let t1 = round_word(s1, s2, s3, s0) ^ k[1];
        let t2 = round_word(s2, s3, s0, s1) ^ k[2];
        let t3 = round_word(s3, s0, s1, s2) ^ k[3];
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }

    // Final round: SubBytes + ShiftRows only (no MixColumns).
    let o0 = final_word(s0, s1, s2, s3) ^ ek[40];
    let o1 = final_word(s1, s2, s3, s0) ^ ek[41];
    let o2 = final_word(s2, s3, s0, s1) ^ ek[42];
    let o3 = final_word(s3, s0, s1, s2) ^ ek[43];

    let mut out = [0u8; 16];
    out[0..4].copy_from_slice(&o0.to_be_bytes());
    out[4..8].copy_from_slice(&o1.to_be_bytes());
    out[8..12].copy_from_slice(&o2.to_be_bytes());
    out[12..16].copy_from_slice(&o3.to_be_bytes());
    out
}

/// One output column of a main round, before the round key.
#[inline(always)]
fn round_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE[0][(a >> 24) as usize]
        ^ TE[1][((b >> 16) & 0xff) as usize]
        ^ TE[2][((c >> 8) & 0xff) as usize]
        ^ TE[3][(d & 0xff) as usize]
}

/// One output column of the final round (S-box only), before the round key.
#[inline(always)]
fn final_word(a: u32, b: u32, c: u32, d: u32) -> u32 {
    (u32::from(SBOX[(a >> 24) as usize]) << 24)
        | (u32::from(SBOX[((b >> 16) & 0xff) as usize]) << 16)
        | (u32::from(SBOX[((c >> 8) & 0xff) as usize]) << 8)
        | u32::from(SBOX[(d & 0xff) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferenceAes128;

    /// The cipher under `key` on the round function the host selects and on
    /// the T-table (one and the same on a host without AES instructions).
    fn both(key: &[u8; 16]) -> [Aes128; 2] {
        [Aes128::new(key), Aes128::portable(key)]
    }

    const SP800_38A_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    /// FIPS-197 Appendix B: full example vector.
    #[test]
    fn fips197_appendix_b() {
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        for aes in both(&SP800_38A_KEY) {
            assert_eq!(aes.encrypt_block(&pt), expected, "{aes:?}");
        }
    }

    /// FIPS-197 Appendix C.1: AES-128 known-answer test.
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = core::array::from_fn(|i| (i * 0x11) as u8);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        for aes in both(&key) {
            assert_eq!(aes.encrypt_block(&pt), expected, "{aes:?}");
        }
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128.Encrypt: the first block alone,
    /// then all four through `encrypt_blocks`.
    #[test]
    fn sp800_38a_ecb_first_block() {
        const PT: [u128; 4] = [
            0x6bc1bee2_2e409f96_e93d7e11_7393172a,
            0xae2d8a57_1e03ac9c_9eb76fac_45af8e51,
            0x30c81c46_a35ce411_e5fbc119_1a0a52ef,
            0xf69f2445_df4f9b17_ad2b417b_e66c3710,
        ];
        const CT: [u128; 4] = [
            0x3ad77bb4_0d7a3660_a89ecaf3_2466ef97,
            0xf5d3d585_03b9699d_e785895a_96fdbaaf,
            0x43b1cd7f_598ece23_881b00e3_ed030688,
            0x7b0c785e_27e8ad3f_82232071_04725dd4,
        ];
        for aes in both(&SP800_38A_KEY) {
            assert_eq!(
                aes.encrypt_block(&PT[0].to_be_bytes()),
                CT[0].to_be_bytes(),
                "{aes:?}"
            );
            let mut blocks = PT.map(u128::to_be_bytes);
            aes.encrypt_blocks(&mut blocks);
            assert_eq!(blocks, CT.map(u128::to_be_bytes), "{aes:?}");
        }
    }

    #[test]
    fn key_schedule_first_and_last_round_keys() {
        // FIPS-197 Appendix A.1 key expansion example.
        let last = [
            0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
            0x0c, 0xa6,
        ];
        let round_keys = expand_key(&SP800_38A_KEY);
        assert_eq!(round_keys[0], SP800_38A_KEY);
        assert_eq!(round_keys[10], last);
    }

    #[test]
    fn word_schedule_mirrors_byte_schedule() {
        let key = [0x3Cu8; 16];
        let aes = Aes128::portable(&key);
        let ek = match &aes.rounds {
            Rounds::Portable(ek) => ek,
            #[cfg(target_arch = "x86_64")]
            Rounds::Hardware(..) => panic!("`portable` must build the T-table rounds"),
        };
        let round_keys = expand_key(&key);
        for (i, &word) in ek.iter().enumerate() {
            let rk = &round_keys[i / 4];
            let c = (i % 4) * 4;
            assert_eq!(word.to_be_bytes(), [rk[c], rk[c + 1], rk[c + 2], rk[c + 3]]);
        }
    }

    #[test]
    fn matches_reference_cipher_on_structured_inputs() {
        for seed in 0u8..32 {
            let key: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_mul(seed ^ 0x5f));
            let pt: [u8; 16] = core::array::from_fn(|i| (i as u8).wrapping_add(seed));
            let reference = ReferenceAes128::new(&key).encrypt_block(&pt);
            for aes in both(&key) {
                assert_eq!(aes.encrypt_block(&pt), reference, "seed {seed}, {aes:?}");
            }
        }
    }

    /// Every width the multi-block entry point can split into (whole wide
    /// groups, every tail length, nothing at all) is block-at-a-time ECB.
    #[test]
    fn encrypt_blocks_is_encrypt_block_per_block_at_every_width() {
        for aes in both(&[0x6D; 16]) {
            for n in 0..=19usize {
                let plain: Vec<[u8; 16]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 31 + j * 7) as u8))
                    .collect();
                let mut together = plain.clone();
                aes.encrypt_blocks(&mut together);
                let apart: Vec<[u8; 16]> = plain.iter().map(|b| aes.encrypt_block(b)).collect();
                assert_eq!(together, apart, "{n} blocks, {aes:?}");
            }
        }
    }

    /// The chain the host selects (on its AES unit, the schedule by
    /// `aeskeygenassist`) is the chain over `expand_key` and the T-table,
    /// link by link: nothing, one block, and runs of them.
    #[test]
    fn davies_meyer_is_the_portable_chain_at_every_length() {
        for n in 0..=9usize {
            let blocks: Vec<[u8; 16]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 37 + j * 11 + n) as u8))
                .collect();
            let (mut selected, mut portable) = ([0xA5u8; 16], [0xA5u8; 16]);
            davies_meyer(&mut selected, &blocks);
            davies_meyer_portable(&mut portable, &blocks);
            assert_eq!(selected, portable, "{n} blocks");
            assert_eq!(n == 0, selected == [0xA5; 16]);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let pt = [0u8; 16];
        let c1 = Aes128::new(&[0u8; 16]).encrypt_block(&pt);
        let c2 = Aes128::new(&[1u8; 16]).encrypt_block(&pt);
        assert_ne!(c1, c2);
    }

    #[test]
    fn debug_redacts_key_material() {
        for aes in both(&[7u8; 16]) {
            let dbg = format!("{aes:?}");
            assert!(dbg.contains("redacted"));
            assert!(!dbg.contains("[7"));
        }
    }

    /// A test log or a bug report shows which rounds ran.
    #[test]
    fn debug_names_the_selected_backend() {
        let portable = format!("{:?}", Aes128::portable(&[7u8; 16]));
        assert!(portable.contains("t-table"), "{portable}");
        let selected = format!("{:?}", Aes128::new(&[7u8; 16]));
        #[cfg(target_arch = "x86_64")]
        let hardware = crate::aesni::AesNi::detect().is_some();
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        let expected = if hardware { "aes-ni" } else { "t-table" };
        assert!(selected.contains(expected), "{selected}");
    }

    #[test]
    fn te_tables_are_rotations_of_te0() {
        for (i, &t0) in TE[0].iter().enumerate() {
            assert_eq!(TE[1][i], t0.rotate_right(8));
            assert_eq!(TE[2][i], t0.rotate_right(16));
            assert_eq!(TE[3][i], t0.rotate_right(24));
        }
    }
}

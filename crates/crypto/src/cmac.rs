//! AES-CMAC (RFC 4493) message authentication.
//!
//! Secure NVM systems pair counter-mode encryption with per-block
//! authentication (the paper's related work: Triad-NVM, SuperMem). This
//! CMAC lets the ORAM controller tag each block so recovery can *verify*
//! the copy it restores rather than trust the NVM bits blindly.

use crate::aes::Chain;
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
#[derive(Clone)]
pub struct Cmac {
    aes: Aes128,
    /// What RFC 4493 XORs into a message's last block, by the number of
    /// message bytes in it: K2 over the `10*` padding for 0 to 15, K1 for
    /// a complete block (16).
    last: [[u8; 16]; 17],
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The subkeys are key material: name the cipher, not them.
        f.debug_struct("Cmac")
            .field("aes", &self.aes)
            .field("subkeys", &"<redacted>")
            .finish()
    }
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
        let last = std::array::from_fn(|tail| match tail {
            16 => k1,
            _ => (0x80 << (8 * tail) ^ u128::from_le_bytes(k2)).to_le_bytes(),
        });
        Cmac { aes, last }
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

    /// Compares a computed tag with a stored one in constant shape: every
    /// byte is looked at whatever the first difference.
    #[inline]
    pub fn tags_match(computed: &[u8; 16], stored: &[u8; 16]) -> bool {
        // One XOR of the whole words: no byte decides early.
        u128::from_le_bytes(*computed) ^ u128::from_le_bytes(*stored) == 0
    }

    /// Messages [`Cmac::tag_lanes`] MACs side by side in one pass;
    /// callers that frame messages on the stack size their arrays with it.
    /// Sixteen: the wide AES kernel's four registers of four chains (the
    /// narrow kernel takes a group as two passes of eight).
    pub const LANES: usize = 16;

    /// MACs independent messages in lockstep: `tags[i]` becomes exactly
    /// [`Cmac::tag`] of `msgs[i]`'s frame followed by its payload.
    ///
    /// Each message is borrowed in two parts — the fixed head the caller
    /// framed on the stack ([`Frame`]), then the payload it covers, where
    /// it lies. A message with no payload goes through the cipher from its
    /// frame's blocks as they lie; one with a payload is first composed
    /// into whole blocks on the stack. Up to [`Cmac::LANES`] messages go
    /// through together, their CBC chains side by side in [`Aes128`]'s
    /// chain kernel, the chaining values never leaving the AES unit's
    /// registers between blocks. Every lane is RFC 4493 unchanged — its
    /// own chaining value, its own padding, its own K1/K2 mask on its own
    /// last block — and the lanes share nothing but the round keys, which
    /// is why the tags cannot differ from `tag`'s by a bit. Lengths may be
    /// ragged.
    ///
    /// ```
    /// use psoram_crypto::{Aes128, Cmac, Frame};
    ///
    /// let mac = Cmac::new(Aes128::new(&[3u8; 16]));
    /// let mut head = Frame::<1>::new();
    /// head.push(b"slot 0 ");
    /// let mut tags = [[0u8; 16]; 2];
    /// mac.tag_lanes(&[(&head, &b"payload"[..]), (&Frame::new(), b"")], &mut tags);
    /// assert_eq!(tags, [mac.tag(b"slot 0 payload"), mac.tag(b"")]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `msgs` and `tags` differ in length.
    pub fn tag_lanes<const B: usize>(&self, msgs: &[(&Frame<B>, &[u8])], tags: &mut [[u8; 16]]) {
        assert_eq!(msgs.len(), tags.len(), "one tag per message");
        // Where each lane composes a message with a payload: made on the
        // first group that has one.
        let mut spill = None;
        for (msgs, tags) in msgs.chunks(Self::LANES).zip(tags.chunks_mut(Self::LANES)) {
            let rooms: &mut [[[u8; 16]; SPILL]] = if msgs.iter().any(|(_, p)| !p.is_empty()) {
                spill.get_or_insert([[[0; 16]; SPILL]; Self::LANES])
            } else {
                &mut []
            };
            let mut rooms = rooms.iter_mut();
            // The lanes whose message is too long for its room.
            let mut long = 0u32;
            let mut chains: [Chain<'_>; Self::LANES] = [(&[], [0; 16]); Self::LANES];
            for (lane, (chain, &(frame, payload))) in chains.iter_mut().zip(msgs).enumerate() {
                let len = frame.len + payload.len();
                let need = len.div_ceil(16);
                let blocks = match (payload, rooms.next()) {
                    ([], _) => frame.blocks(),
                    (_, Some(room)) if need <= SPILL => {
                        compose(frame, payload, &mut room[..need]);
                        &room[..need]
                    }
                    _ => {
                        long |= 1 << lane;
                        frame.blocks()
                    }
                };
                *chain = (blocks, self.last_mask(len));
            }
            self.aes.cbc_chains(&chains[..msgs.len()], tags);
            while long != 0 {
                let lane = long.trailing_zeros() as usize;
                long &= long - 1;
                let (frame, payload) = msgs[lane];
                let mut s = self.stream();
                s.update(frame.bytes());
                s.update(payload);
                tags[lane] = s.finalize();
            }
        }
    }

    /// What RFC 4493 XORs into the last block of a `len`-byte message —
    /// K1 over a complete block; K2 over the `10*` padding otherwise —
    /// given that the block already holds the message's bytes and zeros
    /// after them. (A XOR, not a padding byte poked into the block: the
    /// block is read as it lies.)
    fn last_mask(&self, len: usize) -> [u8; 16] {
        match len {
            0 => self.last[0],
            _ => self.last[(len - 1) % 16 + 1],
        }
    }
}

/// The fixed head of a message for [`Cmac::tag_lanes`], built in place on
/// the stack: up to `16 * BLOCKS` bytes appended back to back into
/// zero-initialised, block-aligned storage, so the lanes take a frame's
/// blocks as they lie and the bytes after its end are already the
/// padding's zeros.
#[derive(Debug, Clone, Copy)]
pub struct Frame<const BLOCKS: usize> {
    blocks: [[u8; 16]; BLOCKS],
    len: usize,
}

impl<const BLOCKS: usize> Default for Frame<BLOCKS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const BLOCKS: usize> Frame<BLOCKS> {
    /// An empty frame.
    pub fn new() -> Self {
        Frame {
            blocks: [[0; 16]; BLOCKS],
            len: 0,
        }
    }

    /// Empties the frame for reuse: its storage is zeros again, in stores
    /// of a fixed size (a length-dependent fill is a call into `memset`).
    #[inline]
    pub fn clear(&mut self) {
        self.blocks = [[0; 16]; BLOCKS];
        self.len = 0;
    }

    /// Appends `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the frame would exceed `16 * BLOCKS` bytes.
    #[inline(always)]
    pub fn push(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(16);
        for chunk in &mut chunks {
            let whole: &[u8; 16] = chunk.try_into().expect("a 16-byte chunk");
            self.put(u128::from_le_bytes(*whole), 16);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            self.put(load_short(rest), rest.len());
        }
    }

    /// Appends one byte (a domain, a marker, a flag).
    #[inline(always)]
    pub fn byte(&mut self, b: u8) {
        self.put(u128::from(b), 1);
    }

    /// Appends a 64-bit field, little-endian.
    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.put(u128::from(w), 8);
    }

    /// Appends the `n` low bytes of `v` (`1..=16` of them, the rest zero),
    /// merged into the open block in registers and the block written back
    /// whole: a frame costs a few wide stores, not one per field, and the
    /// lanes read each block back in the same wide pieces, which the
    /// stores forward to the loads. (A load over several narrower stores
    /// waits for all of them to retire.)
    #[inline(always)]
    fn put(&mut self, v: u128, n: usize) {
        let (at, off) = (self.len / 16, self.len % 16);
        let open = &mut self.blocks[at];
        *open = (u128::from_le_bytes(*open) | v << (8 * off)).to_le_bytes();
        if off + n > 16 {
            self.blocks[at + 1] = (v >> (8 * (16 - off))).to_le_bytes();
        }
        self.len += n;
    }

    /// The blocks the message so far lies in, zero-padded: at least one,
    /// the empty message's block of padding.
    #[inline]
    fn blocks(&self) -> &[[u8; 16]] {
        self.blocks
            .get(..self.len.div_ceil(16).max(1))
            .unwrap_or(&ZERO)
    }

    /// How many more bytes the frame holds.
    pub fn room(&self) -> usize {
        16 * BLOCKS - self.len
    }

    /// The bytes appended so far.
    pub fn bytes(&self) -> &[u8] {
        &self.blocks.as_flattened()[..self.len]
    }
}

/// Blocks a lane composes a message with a payload in: six, which hold
/// any message of up to 96 bytes (the freshness layer's longest is 83). A
/// longer one is MACed on its own.
const SPILL: usize = 6;
/// The one block of padding an empty message is, for a frame with no
/// storage.
static ZERO: [[u8; 16]; 1] = [[0; 16]];

/// A frame and the payload after it into whole blocks in `dst` (exactly
/// as many as they need), little-endian, zeros after the message's end:
/// the frame's whole blocks copied, then the block where the frame's last
/// bytes meet the payload, then the payload's.
#[inline]
fn compose<const B: usize>(frame: &Frame<B>, mut payload: &[u8], dst: &mut [[u8; 16]]) {
    let whole = frame.len / 16;
    let (copied, rest) = dst.split_at_mut(whole);
    copied.copy_from_slice(&frame.blocks[..whole]);
    let mut have = frame.len % 16;
    // The frame's storage past its end is zeros.
    let mut head = frame
        .blocks
        .get(whole)
        .filter(|_| have > 0)
        .map_or(0, |b| u128::from_le_bytes(*b));
    for block in rest {
        let x = match payload.split_first_chunk::<16>() {
            Some((bytes, rest)) if have == 0 => {
                payload = rest;
                u128::from_le_bytes(*bytes)
            }
            _ => {
                let (taken, rest) = payload.split_at(payload.len().min(16 - have));
                payload = rest;
                head | load_short(taken) << (8 * have)
            }
        };
        *block = x.to_le_bytes();
        (head, have) = (0, 0);
    }
}

/// The fewer-than-16 bytes of `bytes` as a little-endian integer: two
/// fixed-width loads, overlapping where the length is no power of two,
/// where a variable-length copy would be a call into `memcpy` and a
/// stalled load after it.
#[inline(always)]
fn load_short(bytes: &[u8]) -> u128 {
    /// `bytes` as its first and last `W` bytes, if it has `W..=2W`.
    fn ends<const W: usize>(bytes: &[u8]) -> Option<([u8; W], [u8; W], usize)> {
        let gap = 8 * bytes.len().checked_sub(W)?;
        Some((*bytes.first_chunk()?, *bytes.last_chunk()?, gap))
    }
    debug_assert!(bytes.len() < 16);
    if let Some((lo, hi, gap)) = ends::<8>(bytes) {
        u128::from(u64::from_le_bytes(lo)) | u128::from(u64::from_le_bytes(hi)) << gap
    } else if let Some((lo, hi, gap)) = ends::<4>(bytes) {
        u128::from(u32::from_le_bytes(lo)) | u128::from(u32::from_le_bytes(hi)) << gap
    } else if let Some((lo, hi, gap)) = ends::<2>(bytes) {
        u128::from(u16::from_le_bytes(lo)) | u128::from(u16::from_le_bytes(hi)) << gap
    } else {
        bytes.first().map_or(0, |&b| u128::from(b))
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
    /// The held-back newest block: `buf[..len]` is message bytes, the
    /// rest zeros.
    buf: [u8; 16],
    len: usize,
}

impl CmacStream<'_> {
    /// XORs `block` into the chain and encrypts.
    fn absorb(&mut self, block: u128) {
        let chained = u128::from_le_bytes(self.x) ^ block;
        self.x = self.mac.aes.encrypt_block(&chained.to_le_bytes());
    }

    /// Appends `data` to the message.
    pub fn update(&mut self, mut data: &[u8]) {
        while !data.is_empty() {
            if self.len == 16 {
                // More input follows, so the held block is not the last.
                self.absorb(u128::from_le_bytes(self.buf));
                self.buf = [0; 16];
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
        let last =
            u128::from_le_bytes(self.buf) ^ u128::from_le_bytes(self.mac.last_mask(self.len));
        self.absorb(last);
        self.x
    }

    /// Finishes the message and compares its tag to `tag` in constant
    /// shape.
    pub fn verify(self, tag: &[u8; 16]) -> bool {
        Cmac::tags_match(&self.finalize(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RFC_KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];

    fn rfc_key() -> Aes128 {
        Aes128::new(&RFC_KEY)
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

    /// RFC 4493 Examples 1-4 (0, 16, 40 and 64 bytes of one message), on
    /// the selected AES backend and on the T-table: one-shot, fed through
    /// the streaming path byte by byte and in block-straddling 7-byte
    /// chunks, and all four side by side through the lanes.
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
        for aes in [rfc_key(), Aes128::portable(&RFC_KEY)] {
            let mac = Cmac::new(aes);
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
            // Ragged lanes: 1, 1, 3 and 4 blocks, each framed up to byte 21.
            let frames = examples.map(|(len, _)| {
                let mut frame = Frame::<2>::new();
                frame.push(&MSG[..len.min(21)]);
                frame
            });
            let lanes: [(&Frame<2>, &[u8]); 4] = core::array::from_fn(|i| {
                (&frames[i], &MSG[frames[i].bytes().len()..examples[i].0])
            });
            let mut tags = [[0u8; 16]; 4];
            mac.tag_lanes(&lanes, &mut tags);
            assert_eq!(tags, examples.map(|(_, tag)| tag.to_be_bytes()), "{mac:?}");
        }
    }

    /// `tag_lanes` against `tag` at every group size from one to
    /// [`Cmac::LANES`] and one over, with equal lengths — the freshness
    /// layer's slot claims (83 bytes, six blocks) and PosMap claims (33,
    /// three) — and ragged ones, on the rounds `aes` runs.
    fn lanes_match_tag(aes: Aes128) {
        let mac = Cmac::new(aes);
        let msg = |i: usize, len: usize| -> Vec<u8> {
            (0..len).map(|j| (i * 37 + j * 11 + len) as u8).collect()
        };
        for n in 1..=Cmac::LANES + 1 {
            let equal = [83usize, 33].map(|len| vec![len; n]);
            let ragged = (0..n).map(|i| [0, 1, 16, 26, 33, 48, 75, 83, 96][i % 9]);
            for lens in equal.into_iter().chain([ragged.collect()]) {
                let msgs: Vec<Vec<u8>> = lens.iter().enumerate().map(|(i, &l)| msg(i, l)).collect();
                let frames: Vec<Frame<6>> = (msgs.iter())
                    .map(|m| {
                        let mut frame = Frame::new();
                        frame.push(m);
                        frame
                    })
                    .collect();
                let lanes: Vec<(&Frame<6>, &[u8])> = frames.iter().map(|f| (f, &[][..])).collect();
                let mut tags = vec![[0u8; 16]; n];
                mac.tag_lanes(&lanes, &mut tags);
                let expected: Vec<[u8; 16]> = msgs.iter().map(|m| mac.tag(m)).collect();
                assert_eq!(tags, expected, "{n} lanes of {lens:?} bytes, {mac:?}");
            }
        }
    }

    #[test]
    fn lanes_on_the_wide_rounds_match_tag() {
        let aes = Aes128::new(&[0x3C; 16]);
        lanes_match_tag(aes.clone());
        // A T-table host has no wide rounds to hold: the lanes ran above
        // on what it has.
        let dbg = format!("{aes:?}");
        let wide = is_x86_feature_detected_wide();
        assert_eq!(dbg.contains("vaes"), wide, "{dbg}");
    }

    #[test]
    fn lanes_on_the_narrow_rounds_match_tag() {
        let aes = Aes128::narrow(&[0x3C; 16]);
        assert!(!format!("{aes:?}").contains("vaes"));
        lanes_match_tag(aes);
    }

    /// Whether the host has the wide kernel's instructions.
    fn is_x86_feature_detected_wide() -> bool {
        #[cfg(target_arch = "x86_64")]
        return is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("avx512f");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn tag_lanes_of_nothing_is_nothing() {
        let mac = Cmac::new(rfc_key());
        mac.tag_lanes::<2>(&[], &mut []);
        mac.tag_lanes::<0>(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "one tag per message")]
    fn tag_lanes_wants_a_tag_per_message() {
        let mac = Cmac::new(rfc_key());
        let frame = Frame::<1>::new();
        mac.tag_lanes(&[(&frame, &b"a"[..]), (&frame, b"b")], &mut [[0u8; 16]]);
    }

    #[test]
    fn load_short_reads_every_length_little_endian() {
        let bytes: [u8; 15] = core::array::from_fn(|i| 0xA1 + i as u8);
        for len in 0..=15 {
            let mut padded = [0u8; 16];
            padded[..len].copy_from_slice(&bytes[..len]);
            assert_eq!(
                load_short(&bytes[..len]),
                u128::from_le_bytes(padded),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn frame_appends_back_to_back_up_to_its_capacity() {
        let mut f = Frame::<2>::new();
        assert_eq!(f.bytes(), b"");
        f.push(b"abc");
        f.push(b"");
        f.push(&[7; 29]);
        assert_eq!(f.bytes().len(), 32);
        assert_eq!(&f.bytes()[..4], b"abc\x07");
    }

    #[test]
    fn a_cleared_frame_is_a_new_one() {
        let mut f = Frame::<3>::new();
        f.push(&[9; 40]);
        f.clear();
        assert_eq!((f.bytes(), f.room()), (&[][..], 48));
        f.push(b"ab");
        let mut fresh = Frame::<3>::new();
        fresh.push(b"ab");
        assert_eq!(
            f.blocks, fresh.blocks,
            "storage past the end is zeros again"
        );
    }

    #[test]
    fn frame_room_counts_down_to_nothing() {
        let mut f = Frame::<2>::new();
        assert_eq!(f.room(), 32);
        f.push(&[1; 21]);
        assert_eq!(f.room(), 11);
        f.push(&[2; 11]);
        assert_eq!(f.room(), 0);
    }

    #[test]
    #[should_panic]
    fn frame_refuses_to_overflow() {
        let mut f = Frame::<1>::new();
        f.push(&[0; 17]);
    }

    #[test]
    fn debug_redacts_the_subkeys() {
        let dbg = format!("{:?}", Cmac::new(Aes128::portable(&[7u8; 16])));
        assert!(dbg.contains("t-table") && dbg.contains("redacted"), "{dbg}");
        assert!(!dbg.contains("last"), "{dbg}");
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

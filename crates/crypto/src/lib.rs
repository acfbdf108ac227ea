//! # psoram-crypto
//!
//! AES-128 (FIPS-197) with counter (CTR) mode, AES-CMAC and a fixed-latency
//! model, as used by the PS-ORAM controller's encryption/decryption circuit.
//!
//! The PS-ORAM paper (ISCA'22) assumes an overall AES encryption latency of
//! **32 processor cycles** (following Fletcher et al. and Zhang et al.) and
//! overlaps fetching data with encryption-pad generation (Osiris-style).
//! Each ORAM block carries two initialization vectors: `IV1` encrypts the
//! block *header* (program address + path id) while `IV2` encrypts the data
//! *content* (Fletcher et al., FCCM'15).
//!
//! This crate provides:
//!
//! * [`Aes128`] — the cipher on the simulator's hottest loop. Its round
//!   function is chosen once per key from the platform alone: the host's
//!   AES instructions where the CPU reports them (`x86_64` with `aes` and
//!   `sse2`, detected at run time), the from-scratch T-table rounds
//!   everywhere else. [`Aes128::portable`] pins the T-table on any host;
//!   both are held to the FIPS-197 and NIST SP 800-38A vectors and to each
//!   other. [`Aes128::encrypt_blocks`] sends independent blocks through
//!   the rounds together.
//! * [`ReferenceAes128`] — the original byte-wise, specification-faithful
//!   cipher, kept as the equivalence oracle for both (proptest over random
//!   keys/blocks in `tests/equivalence.rs`).
//! * [`CtrCipher`] — AES-CTR keystream encryption of arbitrary-length
//!   buffers, including the allocation-free batched
//!   [`CtrCipher::keystream_into`].
//! * [`Cmac`] — AES-CMAC (RFC 4493): one-shot, streaming
//!   ([`CmacStream`]), and up to [`Cmac::LANES`] independent messages in
//!   lockstep ([`Cmac::tag_lanes`] over stack-built [`Frame`]s and
//!   borrowed payloads), all bit-identical.
//! * [`Hash128`] — a 128-bit Davies–Meyer hash over the same cipher, for
//!   state digests: every 16 message bytes key one encryption, so on the
//!   hardware path the key schedule runs on the AES unit as well. One-shot,
//!   in parts, or streaming ([`Hash128Stream`]), all bit-identical.
//! * [`CryptoLatencyModel`] — the cycle-cost model the timing simulator
//!   charges for header/content (de|en)cryption. Functional throughput and
//!   modeled latency are deliberately decoupled: the timing side charges 32
//!   cycles per AES operation no matter how fast the host computes it.
//!
//! The crate denies the `unsafe_code` lint and allows it in one private
//! module, the AES-NI intrinsics, where every block that needs it rests on
//! nothing but the CPU feature detected before the module can be reached
//! (DESIGN.md §9).
//!
//! # Examples
//!
//! ```
//! use psoram_crypto::{Aes128, CtrCipher};
//!
//! let key = [0u8; 16];
//! let aes = Aes128::new(&key);
//! let cipher = CtrCipher::new(aes);
//! let mut data = *b"oram block data!";
//! let iv = 42u128;
//! cipher.apply_keystream(iv, &mut data);
//! assert_ne!(&data, b"oram block data!");
//! cipher.apply_keystream(iv, &mut data); // CTR is an involution
//! assert_eq!(&data, b"oram block data!");
//! ```

// `unsafe_code` is denied crate-wide and allowed in exactly one module,
// the AES-NI intrinsics (`tools/check_unsafe.sh` holds the line in CI).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni;
mod cmac;
mod ctr;
mod hash;
mod latency;
mod reference;

pub use aes::Aes128;
pub use cmac::{Cmac, CmacStream, Frame};
pub use ctr::CtrCipher;
pub use hash::{Digest, Hash128, Hash128Stream, DIGEST_BYTES};
pub use latency::CryptoLatencyModel;
pub use reference::ReferenceAes128;

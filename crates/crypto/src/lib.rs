//! # psoram-crypto
//!
//! From-scratch AES-128 (FIPS-197) with counter (CTR) mode and a fixed-latency
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
//! * [`Aes128`] — the T-table (u32 lookup-table) AES-128 fast path that sits
//!   on the simulator's hottest loop, verified against the FIPS-197 and NIST
//!   SP 800-38A vectors.
//! * [`ReferenceAes128`] — the original byte-wise, specification-faithful
//!   cipher, kept as the equivalence oracle for the fast path (proptest over
//!   random keys/blocks in `tests/equivalence.rs`).
//! * [`CtrCipher`] — AES-CTR keystream encryption of arbitrary-length
//!   buffers, including the allocation-free batched
//!   [`CtrCipher::keystream_into`].
//! * [`CryptoLatencyModel`] — the cycle-cost model the timing simulator
//!   charges for header/content (de|en)cryption. Functional throughput and
//!   modeled latency are deliberately decoupled: the timing side charges 32
//!   cycles per AES operation no matter how fast the host computes it.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aes;
mod cmac;
mod ctr;
mod hash;
mod inverse;
mod latency;
mod reference;

pub use aes::Aes128;
pub use cmac::{Cmac, CmacStream};
pub use ctr::CtrCipher;
pub use hash::{Digest, Hash128, DIGEST_BYTES};
pub use latency::CryptoLatencyModel;
pub use reference::ReferenceAes128;

//! ORAM blocks: header plus encrypted payload.

use serde::{Deserialize, Serialize};

use crate::types::{BlockAddr, Leaf};

/// A block header: program address, path id, and the two initialization
/// vectors used with AES counter-mode (IV1 for the header, IV2 for the
/// content, following Fletcher et al.).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Program (logical) address of the block.
    pub addr: BlockAddr,
    /// The path this block is mapped to.
    pub leaf: Leaf,
    /// IV used to encrypt the header.
    pub iv1: u64,
    /// IV used to encrypt the data content.
    pub iv2: u64,
    /// Monotonic freshness counter, bumped on every content update.
    ///
    /// Real controllers already carry a monotonic counter per block (the
    /// AES-CTR IV); recovery uses it to pick the *newest* among multiple
    /// valid-looking copies — e.g. a committed primary and its backup when
    /// the random remap happened to re-draw the same leaf.
    pub seq: u64,
}

/// A real (non-dummy) ORAM block.
///
/// Dummy blocks are represented as empty slots ([`Option::None`] in a
/// bucket), mirroring the paper's special address `⊥`.
///
/// # Examples
///
/// ```
/// use psoram_core::{Block, BlockAddr, Leaf};
///
/// let b = Block::new(BlockAddr(7), Leaf(3), vec![1, 2, 3, 4]);
/// assert_eq!(b.header.addr, BlockAddr(7));
/// assert!(!b.is_backup);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Header carrying address, path id and IVs.
    pub header: BlockHeader,
    /// Functional payload (decrypted form while on chip).
    pub payload: Vec<u8>,
    /// `true` for a PS-ORAM backup (shadow) copy created in step ④. Backup
    /// blocks are ignored by stash lookups and auto-invalidate once the
    /// primary copy reaches its new path.
    pub is_backup: bool,
}

impl Block {
    /// Creates a block mapped to `leaf` holding `payload`.
    pub fn new(addr: BlockAddr, leaf: Leaf, payload: Vec<u8>) -> Self {
        Block {
            header: BlockHeader {
                addr,
                leaf,
                iv1: 0,
                iv2: 0,
                seq: 0,
            },
            payload,
            is_backup: false,
        }
    }

    /// Creates the backup (shadow) copy of `self`, pinned to `old_leaf`.
    ///
    /// The backup preserves the block's content *as fetched* so that a crash
    /// before the primary copy persists can recover the pre-access value
    /// (paper §4.2.1 step ④ and §4.3 Case 3).
    pub fn to_backup(&self, old_leaf: Leaf) -> Block {
        let mut b = self.clone();
        b.header.leaf = old_leaf;
        b.is_backup = true;
        b
    }

    /// The block's logical address.
    pub fn addr(&self) -> BlockAddr {
        self.header.addr
    }

    /// The path the block is currently mapped to.
    pub fn leaf(&self) -> Leaf {
        self.header.leaf
    }

    /// This block as the tree store hands blocks out: header and payload
    /// borrowed.
    pub fn view(&self) -> BlockRef<'_> {
        BlockRef {
            header: &self.header,
            is_backup: self.is_backup,
            payload: &self.payload,
        }
    }
}

/// A real block borrowed from where it lies — a slot of the NVM tree (whose
/// payloads sit in the store's own buffers, not in per-block vectors) or an
/// on-chip [`Block`].
///
/// # Examples
///
/// ```
/// use psoram_core::{Block, BlockAddr, Leaf};
///
/// let b = Block::new(BlockAddr(7), Leaf(3), vec![1, 2, 3, 4]);
/// let v = b.view();
/// assert_eq!((v.addr(), v.leaf(), v.payload), (BlockAddr(7), Leaf(3), &[1, 2, 3, 4][..]));
/// assert_eq!(v.to_block(), b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRef<'a> {
    /// Header carrying address, path id and IVs.
    pub header: &'a BlockHeader,
    /// `true` for a PS-ORAM backup (shadow) copy.
    pub is_backup: bool,
    /// The payload bytes, as stored.
    pub payload: &'a [u8],
}

impl BlockRef<'_> {
    /// The block's logical address.
    pub fn addr(&self) -> BlockAddr {
        self.header.addr
    }

    /// The path the block is mapped to.
    pub fn leaf(&self) -> Leaf {
        self.header.leaf
    }

    /// An owned copy with a freshly allocated payload.
    pub fn to_block(&self) -> Block {
        self.to_block_in(Vec::new())
    }

    /// An owned copy whose payload reuses `buffer`'s allocation (its
    /// contents are replaced).
    pub fn to_block_in(&self, mut buffer: Vec<u8>) -> Block {
        buffer.clear();
        buffer.extend_from_slice(self.payload);
        Block {
            header: *self.header,
            payload: buffer,
            is_backup: self.is_backup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backup_preserves_payload_and_pins_old_leaf() {
        let b = Block::new(BlockAddr(1), Leaf(9), vec![5; 8]);
        let backup = b.to_backup(Leaf(2));
        assert!(backup.is_backup);
        assert_eq!(backup.leaf(), Leaf(2));
        assert_eq!(backup.payload, b.payload);
        assert_eq!(backup.addr(), b.addr());
        // The original is untouched.
        assert!(!b.is_backup);
        assert_eq!(b.leaf(), Leaf(9));
    }

    #[test]
    fn a_view_round_trips_every_field() {
        let mut b = Block::new(BlockAddr(1), Leaf(9), vec![5; 8]).to_backup(Leaf(2));
        b.header.iv2 = 77;
        b.header.seq = 3;
        assert_eq!(b.view().to_block(), b);
        assert!(b.view().is_backup);
    }

    #[test]
    fn accessors() {
        let b = Block::new(BlockAddr(3), Leaf(4), vec![]);
        assert_eq!(b.addr(), BlockAddr(3));
        assert_eq!(b.leaf(), Leaf(4));
    }
}

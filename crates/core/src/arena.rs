//! The flat slot arena: the one bucket store under every tree ORAM in this
//! crate.
//!
//! The paper's tree is a flat NVM region of fixed-size slots, `Z` to a
//! bucket, buckets in heap order. The arena is that region minus what was
//! never written: a directory of lazily allocated *pages*, a page covering
//! [`PAGE_BUCKETS`] consecutive buckets and holding three contiguous
//! columns:
//!
//! * one flag byte per slot of every bucket a write has *materialised*
//!   (occupied, backup, and Ring ORAM's *consumed* bit — its per-bucket
//!   `valid`/`count` metadata);
//! * the slots' headers ([`BlockHeader`], fixed width) and
//! * the slots' payloads, at stride `payload_bytes`, of every bucket that
//!   has ever *stored* a real block.
//!
//! A slot is therefore found by arithmetic on its page — no per-bucket or
//! per-block heap cell — overwriting one copies bytes and frees nothing,
//! and reading one borrows ([`BlockRef`]).
//!
//! "Materialised" is tracked per bucket, not per page: state digests, the
//! retro-tag sweep and recovery's scans must visit exactly the buckets a
//! write created, in index order (which is the arena's iteration order).
//! The columns hold only those buckets, in the order they appeared, and
//! the wide ones only the buckets that needed them: a path rewrite
//! materialises every bucket it passes, most of them — in a young or a
//! paper-scale tree nearly all of the deep ones — as four dummies, and
//! those cost four bytes, not four slots.

use crate::block::{BlockHeader, BlockRef};
use crate::tree::BucketIndex;
use crate::types::{BlockAddr, Leaf};

/// Buckets per page.
///
/// Sixteen by measurement (commit 6713e48, DESIGN.md §9). At 8
/// `path_plain` runs 4 % slower, `fullstack_spec` peaks 4 % higher and a
/// paper-scale instance spreads over 11 % more pages; at 32 nothing
/// measurable is gained on speed, `fullstack_spec` peaks 3 % lower and the
/// paper-scale instance's pages hold 13 % more bytes.
pub(crate) const PAGE_BUCKETS: usize = 16;

/// Flag bit: the slot holds a real block (clear: a dummy).
const OCCUPIED: u8 = 1;
/// Flag bit: the block is a backup (shadow) copy.
const BACKUP: u8 = 2;
/// Flag bit: a Ring ORAM read consumed the slot since its bucket was last
/// rewritten (Ring's `valid` bit, inverted so that fresh slots are valid).
const CONSUMED: u8 = 4;

const NO_HEADER: BlockHeader = BlockHeader {
    addr: BlockAddr(0),
    leaf: Leaf(0),
    iv1: 0,
    iv2: 0,
    seq: 0,
};

/// Position-table entry of a bucket that has no place in a column yet.
const ABSENT: u8 = u8::MAX;

#[derive(Debug, Clone)]
struct Page {
    /// Per bucket of the page: the position of its slots in `flags`, in
    /// units of buckets ([`ABSENT`]: not materialised).
    flagged: [u8; PAGE_BUCKETS],
    /// Per bucket of the page: the position of its slots in `headers` and
    /// `payload` ([`ABSENT`]: it never stored a real block).
    stored: [u8; PAGE_BUCKETS],
    flags: Vec<u8>,
    headers: Vec<BlockHeader>,
    payload: Vec<u8>,
}

impl Default for Page {
    fn default() -> Self {
        Page {
            flagged: [ABSENT; PAGE_BUCKETS],
            stored: [ABSENT; PAGE_BUCKETS],
            flags: Vec::new(),
            headers: Vec::new(),
            payload: Vec::new(),
        }
    }
}

impl Page {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Page>()
            + self.headers.capacity() * std::mem::size_of::<BlockHeader>()
            + self.flags.capacity()
            + self.payload.capacity()
    }

    /// Column index of slot 0 of the bucket at `offset` in `flags`.
    fn flags_at(&self, offset: usize, slots: usize) -> Option<usize> {
        let position = self.flagged[offset];
        (position != ABSENT).then_some(position as usize * slots)
    }

    /// Column index of slot 0 of the bucket at `offset` in `headers` (and,
    /// times the stride, in `payload`).
    fn cells_at(&self, offset: usize, slots: usize) -> Option<usize> {
        let position = self.stored[offset];
        (position != ABSENT).then_some(position as usize * slots)
    }

    /// [`Page::cells_at`], giving the bucket its cells first if it has
    /// none. The columns grow amortised: they are reallocated five times
    /// on a page's way to sixteen stored buckets, not sixteen, and a lone
    /// bucket's are exactly its own size.
    fn cells_at_mut(&mut self, offset: usize, slots: usize, payload_bytes: usize) -> usize {
        if self.stored[offset] == ABSENT {
            self.stored[offset] = (self.headers.len() / slots) as u8;
            self.headers.resize(self.headers.len() + slots, NO_HEADER);
            self.payload
                .resize(self.payload.len() + slots * payload_bytes, 0);
        }
        self.stored[offset] as usize * slots
    }
}

impl Page {
    /// Overwrites slot `slot` of the materialised bucket at `offset` with
    /// `content` (a dummy if `None`); Ring's consumed bit is left as it is.
    fn set(
        &mut self,
        offset: usize,
        slot: usize,
        slots: usize,
        payload_bytes: usize,
        content: Option<BlockRef<'_>>,
    ) {
        assert!(slot < slots, "slot {slot} out of range");
        let flags = &mut self.flags[self.flagged[offset] as usize * slots + slot];
        let Some(b) = content else {
            *flags &= CONSUMED;
            return;
        };
        assert_eq!(
            b.payload.len(),
            payload_bytes,
            "payload does not fit the tree's slots"
        );
        *flags = (*flags & CONSUMED) | OCCUPIED | if b.is_backup { BACKUP } else { 0 };
        let at = self.cells_at_mut(offset, slots, payload_bytes) + slot;
        self.headers[at] = *b.header;
        self.payload[at * payload_bytes..][..payload_bytes].copy_from_slice(b.payload);
    }
}

/// A sparse `(bucket, slot) -> block` store with fixed geometry.
///
/// Bucket indices must be bounded by the caller (they are heap positions
/// of a validated tree): the directory grows to the highest page written.
#[derive(Debug, Clone)]
pub(crate) struct SlotArena {
    slots: usize,
    payload_bytes: usize,
    pages: Vec<Option<Box<Page>>>,
    buckets: usize,
}

/// `(page, offset)` of `bucket`.
fn locate(bucket: BucketIndex) -> (usize, usize) {
    let page = usize::try_from(bucket / PAGE_BUCKETS as u64)
        .expect("bucket index exceeds the host address space");
    (page, (bucket % PAGE_BUCKETS as u64) as usize)
}

impl SlotArena {
    /// An empty arena of `slots`-slot buckets holding `payload_bytes`-byte
    /// payloads.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn new(slots: usize, payload_bytes: usize) -> Self {
        assert!(slots > 0, "a bucket has at least one slot");
        SlotArena {
            slots,
            payload_bytes,
            pages: Vec::new(),
            buckets: 0,
        }
    }

    /// Slots per bucket.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Payload bytes per slot.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// The materialised bucket `bucket`; `None` reads as all-dummy.
    pub fn bucket(&self, bucket: BucketIndex) -> Option<BucketRef<'_>> {
        let (page, offset) = locate(bucket);
        let page = self.pages.get(page)?.as_deref()?;
        self.view(page, offset)
    }

    fn view<'a>(&self, page: &'a Page, offset: usize) -> Option<BucketRef<'a>> {
        Some(BucketRef {
            page,
            flags: page.flags_at(offset, self.slots)?,
            cells: page.cells_at(offset, self.slots),
            slots: self.slots,
            payload_bytes: self.payload_bytes,
        })
    }

    /// The real block in `(bucket, slot)`; dummy and unmaterialised slots
    /// are `None`.
    pub fn slot(&self, bucket: BucketIndex, slot: usize) -> Option<BlockRef<'_>> {
        self.bucket(bucket)?.slot(slot)
    }

    /// The newest copy (highest freshness counter, the first on a tie —
    /// a later copy must be strictly newer) of `addr` in the buckets of
    /// `path` whose header names `leaf`: where a read finds its copy on the
    /// path of the label the controller holds, and recovery a committed
    /// address on the persisted one.
    pub fn newest_on_path(
        &self,
        path: impl Iterator<Item = BucketIndex>,
        addr: BlockAddr,
        leaf: Leaf,
    ) -> Option<BlockRef<'_>> {
        let (bucket, slot) = self.newest_where(path, addr, leaf, |_, _| true)?;
        self.slot(bucket, slot)
    }

    /// Where [`SlotArena::newest_on_path`]'s copy sits when only the slots
    /// `counts` admits are candidates (a Ring read's: valid, not a
    /// backup).
    pub(crate) fn newest_where(
        &self,
        path: impl Iterator<Item = BucketIndex>,
        addr: BlockAddr,
        leaf: Leaf,
        counts: impl Fn(BucketRef<'_>, usize) -> bool,
    ) -> Option<(BucketIndex, usize)> {
        let mut best: Option<(BucketIndex, usize, u64)> = None;
        for (idx, bucket) in path.filter_map(|idx| Some((idx, self.bucket(idx)?))) {
            for (slot, h) in bucket
                .headers()
                .filter(|(_, h)| h.addr == addr && h.leaf == leaf)
            {
                if best.is_none_or(|(_, _, seq)| h.seq > seq) && counts(bucket, slot) {
                    best = Some((idx, slot, h.seq));
                }
            }
        }
        best.map(|(idx, slot, _)| (idx, slot))
    }

    /// Allocates the page of `bucket` (and the directory up to it) if
    /// need be and gives the bucket its flag bytes.
    fn materialise(&mut self, bucket: BucketIndex) {
        let (page, offset) = locate(bucket);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(Box::default);
        page.flagged[offset] = (page.flags.len() / self.slots) as u8;
        page.flags.resize(page.flags.len() + self.slots, 0);
        self.buckets += 1;
    }

    /// The page of `bucket`, the bucket materialised (all-dummy) on
    /// demand.
    fn page_of_mut(&mut self, bucket: BucketIndex) -> &mut Page {
        let (page, offset) = locate(bucket);
        let materialised =
            matches!(self.pages.get(page), Some(Some(p)) if p.flagged[offset] != ABSENT);
        if !materialised {
            self.materialise(bucket);
        }
        self.pages[page]
            .as_deref_mut()
            .expect("the bucket was just materialised")
    }

    /// Mutable access to `bucket`, materialising it (all-dummy) on demand.
    pub fn bucket_mut(&mut self, bucket: BucketIndex) -> BucketMut<'_> {
        let (slots, payload_bytes) = (self.slots, self.payload_bytes);
        BucketMut {
            page: self.page_of_mut(bucket),
            offset: locate(bucket).1,
            slots,
            payload_bytes,
        }
    }

    /// Mutable access to `bucket` if it is materialised; never
    /// materialises.
    pub fn bucket_mut_if_present(&mut self, bucket: BucketIndex) -> Option<BucketMut<'_>> {
        self.bucket(bucket)?;
        Some(self.bucket_mut(bucket))
    }

    /// Overwrites `(bucket, slot)` with `content` (a dummy if `None`),
    /// materialising the bucket.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the payload is not
    /// `payload_bytes` long.
    pub fn write(&mut self, bucket: BucketIndex, slot: usize, content: Option<BlockRef<'_>>) {
        let (slots, payload_bytes) = (self.slots, self.payload_bytes);
        self.page_of_mut(bucket)
            .set(locate(bucket).1, slot, slots, payload_bytes, content);
    }

    /// Number of materialised buckets.
    pub fn materialized_buckets(&self) -> usize {
        self.buckets
    }

    /// Slots the allocated pages hold room for: a bound on the real copies
    /// the arena stores that grows only with its pages.
    pub fn slot_room(&self) -> usize {
        self.pages() * PAGE_BUCKETS * self.slots
    }

    /// Number of allocated pages.
    pub fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Heap bytes held by the pages (the directory itself excluded): with
    /// [`SlotArena::pages`], the footprint of a sparse tree.
    pub fn page_bytes(&self) -> usize {
        self.pages.iter().flatten().map(|p| p.heap_bytes()).sum()
    }

    /// Every materialised bucket, in strictly ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (BucketIndex, BucketRef<'_>)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p, page.as_deref()?)))
            .flat_map(move |(p, page)| {
                let base = (p * PAGE_BUCKETS) as u64;
                (0..PAGE_BUCKETS).filter_map(move |o| Some((base + o as u64, self.view(page, o)?)))
            })
    }

    /// Indices of the materialised buckets, ascending — for scans that
    /// mutate as they go ([`SlotArena::bucket_mut`] per index).
    pub fn indices(&self) -> impl Iterator<Item = BucketIndex> + '_ {
        self.iter().map(|(bucket, _)| bucket)
    }
}

/// A borrowed materialised bucket.
#[derive(Clone, Copy)]
pub struct BucketRef<'a> {
    page: &'a Page,
    /// Column index of the bucket's slot 0 in the page's flags.
    flags: usize,
    /// Column index of its slot 0 in the headers, if it ever stored a
    /// real block.
    cells: Option<usize>,
    slots: usize,
    payload_bytes: usize,
}

impl std::fmt::Debug for BucketRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.slots()).finish()
    }
}

impl<'a> BucketRef<'a> {
    /// Number of slots.
    pub fn num_slots(&self) -> usize {
        self.slots
    }

    fn flags(&self) -> &'a [u8] {
        &self.page.flags[self.flags..self.flags + self.slots]
    }

    /// The flag byte of slot `slot`.
    fn flag(&self, slot: usize) -> u8 {
        assert!(slot < self.slots, "slot {slot} out of range");
        self.page.flags[self.flags + slot]
    }

    /// The real block in slot `slot`, `None` for a dummy.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline(always)]
    pub fn slot(&self, slot: usize) -> Option<BlockRef<'a>> {
        let flags = self.flag(slot);
        if flags & OCCUPIED == 0 {
            return None;
        }
        // An occupied slot's bucket has its cells.
        let at = self.cells? + slot;
        Some(BlockRef {
            header: &self.page.headers[at],
            is_backup: flags & BACKUP != 0,
            payload: &self.page.payload[at * self.payload_bytes..][..self.payload_bytes],
        })
    }

    /// `true` if slot `slot` holds a real block.
    pub fn is_real(&self, slot: usize) -> bool {
        self.flag(slot) & OCCUPIED != 0
    }

    /// The headers of the real blocks with their slots, in slot order —
    /// for searches that want the whole block ([`BucketRef::slot`]) only
    /// of what they find.
    pub fn headers(self) -> impl Iterator<Item = (usize, &'a BlockHeader)> {
        let headers = match self.cells {
            Some(first) => &self.page.headers[first..first + self.slots],
            None => &[],
        };
        // Without cells there are no occupied slots either.
        self.flags()
            .iter()
            .zip(headers)
            .enumerate()
            .filter(|(_, (&flags, _))| flags & OCCUPIED != 0)
            .map(|(slot, (_, header))| (slot, header))
    }

    /// Every slot in order, dummies as `None`.
    pub fn slots(self) -> impl Iterator<Item = Option<BlockRef<'a>>> {
        (0..self.num_slots()).map(move |s| self.slot(s))
    }

    /// The real blocks, in slot order.
    pub fn blocks(self) -> impl Iterator<Item = BlockRef<'a>> {
        self.slots().flatten()
    }

    /// Number of real blocks stored.
    pub fn occupancy(&self) -> usize {
        self.flags().iter().filter(|&&f| f & OCCUPIED != 0).count()
    }

    /// `true` if every slot is a dummy.
    pub fn is_empty(&self) -> bool {
        self.occupancy() == 0
    }

    /// Ring ORAM: `true` until a read consumes the slot (reset by a
    /// bucket rewrite).
    pub(crate) fn is_valid(&self, slot: usize) -> bool {
        self.flag(slot) & CONSUMED == 0
    }

    /// Ring ORAM: the slots a dummy read may take — dummies no read has
    /// consumed — in slot order.
    pub(crate) fn valid_dummies(self) -> impl Iterator<Item = usize> + 'a {
        let unread_dummy = |&(_, &f): &(usize, &u8)| f & (OCCUPIED | CONSUMED) == 0;
        (self.flags().iter().enumerate())
            .filter(unread_dummy)
            .map(|(slot, _)| slot)
    }

    /// Ring ORAM: reads since the last rewrite — a read consumes exactly
    /// one valid slot, so this is the number of consumed slots.
    pub(crate) fn reads(&self) -> usize {
        self.flags().iter().filter(|&&f| f & CONSUMED != 0).count()
    }
}

/// Mutable access to one materialised bucket.
#[derive(Debug)]
pub(crate) struct BucketMut<'a> {
    page: &'a mut Page,
    /// The bucket's offset in its page.
    offset: usize,
    slots: usize,
    payload_bytes: usize,
}

impl BucketMut<'_> {
    /// Column index of the bucket's slot 0 in the page's flags.
    fn flags(&self) -> usize {
        self.page.flagged[self.offset] as usize * self.slots
    }

    fn flag_mut(&mut self, slot: usize) -> &mut u8 {
        assert!(slot < self.slots, "slot {slot} out of range");
        let at = self.flags() + slot;
        &mut self.page.flags[at]
    }

    /// The real block in slot `slot` as it stands, `None` for a dummy.
    pub fn slot(&self, slot: usize) -> Option<BlockRef<'_>> {
        self.as_ref().slot(slot)
    }

    /// Ring ORAM: `true` until a read consumes the slot.
    pub fn is_valid(&self, slot: usize) -> bool {
        self.as_ref().is_valid(slot)
    }

    /// The bucket as it stands.
    fn as_ref(&self) -> BucketRef<'_> {
        BucketRef {
            page: self.page,
            flags: self.flags(),
            cells: self.page.cells_at(self.offset, self.slots),
            slots: self.slots,
            payload_bytes: self.payload_bytes,
        }
    }

    /// Overwrites slot `slot` with `content` (a dummy if `None`); Ring's
    /// consumed bit is left as it is.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or the payload is not
    /// `payload_bytes` long.
    pub fn set(&mut self, slot: usize, content: Option<BlockRef<'_>>) {
        self.page
            .set(self.offset, slot, self.slots, self.payload_bytes, content);
    }

    /// The header and payload of the real block in slot `slot`, in place
    /// (device damage lands here); `None` for a dummy.
    pub fn cell_mut(&mut self, slot: usize) -> Option<(&mut BlockHeader, &mut [u8])> {
        if *self.flag_mut(slot) & OCCUPIED == 0 {
            return None;
        }
        let at = self.page.cells_at(self.offset, self.slots)? + slot;
        Some((
            &mut self.page.headers[at],
            &mut self.page.payload[at * self.payload_bytes..][..self.payload_bytes],
        ))
    }

    /// Sets or clears the backup mark of an occupied slot.
    pub fn set_backup(&mut self, slot: usize, is_backup: bool) {
        let flags = self.flag_mut(slot);
        debug_assert!(*flags & OCCUPIED != 0);
        if is_backup {
            *flags |= BACKUP;
        } else {
            *flags &= !BACKUP;
        }
    }

    /// Ring ORAM: marks a valid slot consumed by a read.
    pub fn consume(&mut self, slot: usize) {
        *self.flag_mut(slot) |= CONSUMED;
    }

    /// Ring ORAM: every slot valid again, zero reads — the state after a
    /// bucket rewrite or a recovery.
    pub fn revalidate(&mut self) {
        let first = self.flags();
        for f in &mut self.page.flags[first..first + self.slots] {
            *f &= !CONSUMED;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::block::Block;

    fn blk(a: u64, payload_bytes: usize) -> Block {
        let mut b = Block::new(BlockAddr(a), Leaf(a % 7), vec![a as u8; payload_bytes]);
        b.header.seq = a * 3;
        b.header.iv2 = a + 1;
        b
    }

    #[test]
    fn unwritten_buckets_read_as_absent_without_materialising() {
        let a = SlotArena::new(4, 8);
        assert!(a.bucket(0).is_none());
        assert!(a.slot((1 << 24) - 2, 3).is_none());
        assert_eq!(
            (a.materialized_buckets(), a.pages(), a.page_bytes()),
            (0, 0, 0)
        );
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn a_dummy_write_materialises_its_bucket_and_nothing_else() {
        let mut a = SlotArena::new(4, 8);
        a.write(40, 1, None);
        assert_eq!((a.materialized_buckets(), a.pages()), (1, 1));
        assert!(a.bucket(40).is_some_and(|b| b.is_empty()));
        assert!(a.bucket(41).is_none(), "a page neighbour stays absent");
        a.write(41, 0, Some(blk(5, 8).view()));
        assert_eq!((a.materialized_buckets(), a.pages()), (2, 1));
        assert_eq!(a.slot(41, 0).map(|b| b.to_block()), Some(blk(5, 8)));
    }

    #[test]
    fn buckets_materialised_out_of_order_iterate_in_index_order() {
        let mut a = SlotArena::new(2, 4);
        for bucket in [9, 3, 35, 4, 0, 34] {
            a.write(bucket, 1, Some(blk(bucket, 4).view()));
        }
        let listed: Vec<(u64, u64)> = a
            .iter()
            .map(|(i, b)| (i, b.slot(1).expect("written").addr().0))
            .collect();
        assert_eq!(
            listed,
            vec![(0, 0), (3, 3), (4, 4), (9, 9), (34, 34), (35, 35)]
        );
        assert_eq!(a.indices().collect::<Vec<_>>(), vec![0, 3, 4, 9, 34, 35]);
    }

    #[test]
    fn overwriting_keeps_the_footprint_and_a_sparse_page_pays_per_bucket() {
        let mut a = SlotArena::new(4, 8);
        a.write(7, 0, Some(blk(1, 8).view()));
        let one = a.page_bytes();
        for round in 0..50 {
            a.write(7, round % 4, Some(blk(round as u64, 8).view()));
            a.write(7, (round + 1) % 4, None);
        }
        assert_eq!(a.page_bytes(), one, "overwrites allocate nothing");
        // A lone bucket holds its own four slots, not sixteen buckets' (its
        // four flag bytes round up to the vector's eight-byte minimum).
        let cells = 4 * (std::mem::size_of::<BlockHeader>() + 8);
        assert_eq!(one, std::mem::size_of::<Page>() + 8 + cells);
        // An all-dummy neighbour costs flag bytes only...
        a.write(8, 0, None);
        assert_eq!(a.page_bytes(), one);
        a.write(9, 3, None);
        assert_eq!(a.page_bytes(), one + 8);
        // ...until it stores its first real block.
        a.write(9, 3, Some(blk(2, 8).view()));
        assert_eq!(a.page_bytes(), one + 8 + cells);
        assert_eq!(a.slot(9, 3).map(|b| b.addr()), Some(BlockAddr(2)));
        assert_eq!(a.slot(7, 1).map(|b| b.addr()), Some(BlockAddr(49)));
    }

    #[test]
    fn ring_sidecar_counts_consumed_slots_and_survives_slot_writes() {
        let mut a = SlotArena::new(3, 2);
        let mut b = a.bucket_mut(5);
        b.consume(2);
        b.set(2, Some(blk(9, 2).view()));
        b.set(1, None);
        assert!(!b.is_valid(2) && b.is_valid(1));
        assert_eq!(a.bucket(5).map(|b| b.reads()), Some(1));
        a.bucket_mut(5).revalidate();
        assert_eq!(a.bucket(5).map(|b| b.reads()), Some(0));
        assert_eq!(a.slot(5, 2).map(|b| b.addr()), Some(BlockAddr(9)));
        assert!(a.bucket_mut_if_present(6).is_none());
        assert_eq!(a.materialized_buckets(), 1);
    }

    #[test]
    #[should_panic(expected = "payload does not fit")]
    fn a_payload_of_the_wrong_width_is_refused() {
        SlotArena::new(4, 8).write(0, 0, Some(blk(1, 7).view()));
    }

    /// The last bucket of an `L = 23` tree.
    const LAST_L23: u64 = (1 << 24) - 2;

    #[derive(Debug, Clone)]
    enum Step {
        Write(u64, usize, u64),
        Dummy(u64, usize),
        Read(u64, usize),
        TakePath(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..10, 0u8..4, 0u64..40, 0u64..64, 0usize..5, any::<u16>()).prop_map(
            |(kind, region, near, leaf, slot, v)| {
                // Buckets cluster (shared pages), scatter, and reach the
                // far end of a paper-scale tree.
                let bucket = match region {
                    0 | 1 => near,
                    2 => near * 97,
                    _ => LAST_L23 - near,
                };
                match kind {
                    0..=4 => Step::Write(bucket, slot, u64::from(v)),
                    5 | 6 => Step::Dummy(bucket, slot),
                    7 | 8 => Step::Read(bucket, slot),
                    _ => Step::TakePath(leaf),
                }
            },
        )
    }

    proptest! {
        // Every case grows an `L = 23` directory (a 2^20-entry vector).
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The arena's contract: against a
        /// `BTreeMap<(bucket, slot), Option<Block>>` under random writes,
        /// dummy overwrites, reads and whole-path takes.
        #[test]
        fn behaves_like_a_map_of_slots(
            geometry in (0usize..3, 0usize..3),
            steps in prop::collection::vec(step(), 0..120),
        ) {
            let z = [1, 4, 5][geometry.0];
            let payload_bytes = [0, 8, 64][geometry.1];
            let mut tree = crate::tree::OramTree::with_base(23, z, 64, payload_bytes, 0);
            let mut model: BTreeMap<(u64, usize), Option<Block>> = BTreeMap::new();
            let touch = |model: &mut BTreeMap<_, _>, bucket: u64| {
                for s in 0..z {
                    model.entry((bucket, s)).or_insert(None);
                }
            };
            for s in steps {
                match s {
                    Step::Write(bucket, slot, v) => {
                        let slot = slot % z;
                        let b = blk(v, payload_bytes);
                        touch(&mut model, bucket);
                        model.insert((bucket, slot), Some(b.clone()));
                        tree.write_slot(bucket, slot, Some(b));
                    }
                    Step::Dummy(bucket, slot) => {
                        let slot = slot % z;
                        touch(&mut model, bucket);
                        model.insert((bucket, slot), None);
                        tree.write_slot(bucket, slot, None);
                    }
                    Step::Read(bucket, slot) => {
                        let slot = slot % z;
                        let want = model.get(&(bucket, slot)).cloned().flatten();
                        prop_assert_eq!(tree.slot_ref(bucket, slot).map(|b| b.to_block()), want);
                    }
                    Step::TakePath(leaf) => {
                        // Leaves of the far subtree, so takes meet the
                        // scattered writes as well as the root's.
                        let leaf = Leaf((1 << 23) - 1 - leaf);
                        let mut want = Vec::new();
                        for bucket in tree.path(leaf) {
                            for s in 0..z {
                                if let Some(cell) = model.get_mut(&(bucket, s)) {
                                    want.extend(cell.take());
                                }
                            }
                        }
                        prop_assert_eq!(tree.take_path(leaf), want);
                    }
                }
                prop_assert_eq!(tree.materialized_buckets(), model.len() / z);
            }
            prop_assert_eq!(tree.real_blocks(), model.values().flatten().count());
            let listed: Vec<((u64, usize), Option<Block>)> = tree
                .arena()
                .iter()
                .flat_map(|(bucket, b)| {
                    (0..z).map(move |s| ((bucket, s), b.slot(s).map(|v| v.to_block())))
                })
                .collect();
            prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending");
            prop_assert_eq!(listed, model.into_iter().collect::<Vec<_>>());
        }
    }
}

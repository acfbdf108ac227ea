//! Position maps: the main (persistable) PosMap and PS-ORAM's temporary
//! PosMap.

use std::num::NonZeroU32;

use crate::paged::PagedTable;
use crate::types::{BlockAddr, Leaf, OramError};

/// SplitMix64 — deterministic initial leaf assignment.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The main position map with separate *volatile* and *persisted* views.
///
/// Lookups see the volatile view. [`PosMap::set`] is a volatile update (a
/// plain SRAM write, as in the non-persistent `Baseline`); [`PosMap::persist`]
/// is a durable update (an NVM write, as performed when the PosMap WPQ
/// flushes, or on every update in `FullNVM`). [`PosMap::crash`] discards
/// volatile updates, restoring exactly what had been persisted — which for a
/// never-persisted map is the initial random mapping the paper's Case 1a
/// describes.
///
/// The map is stored as overlays over a deterministic pseudo-random initial
/// mapping, so even the paper-scale 2^25-entry PosMap costs memory only for
/// the pages of touched entries. The overlays are tables indexed by block
/// address — the on-chip table of the paper's hardware — holding 4 B
/// labels like the paper's PosMap blocks do.
///
/// # Examples
///
/// ```
/// use psoram_core::{PosMap, BlockAddr, Leaf};
///
/// let mut pm = PosMap::new(64, 7);
/// let initial = pm.get(BlockAddr(3));
/// pm.set(BlockAddr(3), Leaf(9));          // volatile
/// assert_eq!(pm.get(BlockAddr(3)), Leaf(9));
/// pm.crash();                              // power failure
/// assert_eq!(pm.get(BlockAddr(3)), initial);
/// ```
#[derive(Debug, Clone)]
pub struct PosMap {
    num_leaves: u64,
    seed: u64,
    /// Volatile updates not yet persisted (lost on crash).
    volatile: PagedTable<Label>,
    /// Durable updates (survive crashes).
    persisted: PagedTable<Label>,
    persist_writes: u64,
}

/// A stored leaf label, `leaf + 1` so that an empty cell costs no tag:
/// `Option<Label>` is 4 bytes.
#[derive(Debug, Clone, Copy)]
struct Label(NonZeroU32);

/// The most leaves a 4 B label addresses: `u32::MAX - 1`, since a
/// [`Label`] stores `leaf + 1` and is never zero.
const MAX_LEAVES: u64 = u32::MAX as u64 - 1;

/// The tallest tree whose leaves all have a label: `2^MAX_LEVELS` leaves
/// fit [`MAX_LEAVES`]. `OramConfig::validate` and `RingConfig::validate`
/// refuse a taller one with [`LABEL_BOUND`], as [`PosMap::new`] would.
pub(crate) const MAX_LEVELS: u32 = MAX_LEAVES.ilog2();

/// What a tree or a leaf count over the label range is refused with.
pub(crate) const LABEL_BOUND: &str = "PosMap labels are 4 bytes: at most 2^32 - 2 leaves";

impl Label {
    fn new(leaf: Leaf) -> Self {
        let stored = leaf
            .0
            .checked_add(1)
            .and_then(|l| u32::try_from(l).ok())
            .and_then(NonZeroU32::new);
        Label(stored.expect("PosMap labels are 4 bytes"))
    }

    fn leaf(self) -> Leaf {
        Leaf(u64::from(self.0.get()) - 1)
    }
}

impl PosMap {
    /// Creates a PosMap over `num_leaves` leaves with a deterministic
    /// initial mapping derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_leaves` is zero or does not fit a 4 B label.
    pub fn new(num_leaves: u64, seed: u64) -> Self {
        assert!(num_leaves > 0, "PosMap needs at least one leaf");
        assert!(num_leaves <= MAX_LEAVES, "{LABEL_BOUND}");
        PosMap {
            num_leaves,
            seed,
            volatile: PagedTable::default(),
            persisted: PagedTable::default(),
            persist_writes: 0,
        }
    }

    fn initial(&self, addr: BlockAddr) -> Leaf {
        Leaf(splitmix64(self.seed ^ addr.0.wrapping_mul(0xD6E8FEB86659FD93)) % self.num_leaves)
    }

    /// Current (volatile-view) leaf for `addr`.
    pub fn get(&self, addr: BlockAddr) -> Leaf {
        match self.volatile.get(addr.0) {
            Some(l) => l.leaf(),
            None => self.persisted_get(addr),
        }
    }

    /// The leaf recovery would see after a crash right now.
    pub fn persisted_get(&self, addr: BlockAddr) -> Leaf {
        match self.persisted.get(addr.0) {
            Some(l) => l.leaf(),
            None => self.initial(addr),
        }
    }

    /// Volatile (SRAM) update — lost on crash.
    pub fn set(&mut self, addr: BlockAddr, leaf: Leaf) {
        self.volatile.insert(addr.0, Label::new(leaf));
    }

    /// Durable (NVM) update — survives crashes and clears any volatile
    /// shadow of the same entry.
    pub fn persist(&mut self, addr: BlockAddr, leaf: Leaf) {
        self.volatile.remove(addr.0);
        self.persisted.insert(addr.0, Label::new(leaf));
        self.persist_writes += 1;
    }

    /// Models a power failure: volatile updates are lost.
    pub fn crash(&mut self) {
        self.volatile.clear();
    }

    /// Number of durable updates performed (NVM metadata write traffic).
    pub fn persist_writes(&self) -> u64 {
        self.persist_writes
    }

    /// All explicitly persisted `(addr, leaf)` entries, sorted — for
    /// deterministic retro-tagging and state digests. Initial-mapping
    /// entries (pure functions of the seed) are not stored and not listed.
    pub fn persisted_sorted(&self) -> Vec<(u64, u64)> {
        self.persisted
            .iter()
            .map(|(a, l)| (a, l.leaf().0))
            .collect()
    }

    /// Number of leaves in the mapped tree.
    pub fn num_leaves(&self) -> u64 {
        self.num_leaves
    }

    /// Number of table pages backing the two overlays — the footprint of
    /// a sparsely touched map.
    #[cfg(test)]
    pub(crate) fn materialized_pages(&self) -> usize {
        self.volatile.pages() + self.persisted.pages()
    }

    /// Device-fault hook: corrupts the *persisted* entry of `addr` by
    /// XORing `entropy` into the stored leaf (mod leaf range), modelling
    /// bit rot in the durable PosMap region. Returns the damaged leaf.
    ///
    /// Only meaningful for entries that have been [`PosMap::persist`]ed;
    /// initial-mapping entries are pure functions of the seed (no stored
    /// media to damage), in which case an explicit wrong entry is stored.
    pub fn corrupt_persisted(&mut self, addr: BlockAddr, entropy: u64) -> Leaf {
        let current = self.persisted_get(addr).0;
        // Guarantee the stored value actually changes.
        let flip = (entropy % self.num_leaves.max(2)).max(1);
        let bad = (current ^ flip) % self.num_leaves;
        let bad = if bad == current {
            (current + 1) % self.num_leaves
        } else {
            bad
        };
        self.persisted.insert(addr.0, Label::new(Leaf(bad)));
        Leaf(bad)
    }

    /// Device-fault hook: overwrites the *persisted* entry of `addr` with
    /// an arbitrary leaf, bypassing the write counter — the replay
    /// adversary re-serving a stale-but-well-formed entry behind the
    /// controller's back.
    pub fn overwrite_persisted(&mut self, addr: BlockAddr, leaf: Leaf) {
        self.persisted.insert(addr.0, Label::new(leaf));
    }
}

/// PS-ORAM's **temporary PosMap** (`C_tPos`, 96 entries in Table 3).
///
/// Holds the *reassigned* path ids of accessed blocks until the blocks
/// themselves persist, so the main PosMap's durable entry is never
/// overwritten early (paper §4.1). Entries leave when the matching block is
/// evicted and its round commits; everything is lost on a crash, by design —
/// the main PosMap still points at a valid (possibly backup) copy.
///
/// # Examples
///
/// ```
/// use psoram_core::{TempPosMap, BlockAddr, Leaf};
///
/// let mut t = TempPosMap::new(96);
/// t.insert(BlockAddr(1), Leaf(5)).unwrap();
/// assert_eq!(t.get(BlockAddr(1)), Some(Leaf(5)));
/// assert_eq!(t.remove(BlockAddr(1)), Some(Leaf(5)));
/// assert!(t.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TempPosMap {
    capacity: usize,
    /// `(addr, leaf)` in ascending address order: the order the seal
    /// reads them in. At most `capacity` (96 in Table 3) entries, so a
    /// binary search and a shift beat hashing.
    entries: Vec<(u64, u64)>,
    max_occupancy: usize,
}

impl TempPosMap {
    /// Creates an empty temporary PosMap bounded at `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "temporary PosMap capacity must be positive");
        TempPosMap {
            capacity,
            entries: Vec::new(),
            max_occupancy: 0,
        }
    }

    /// Where `addr` is (`Ok`) or would be inserted (`Err`).
    fn position(&self, addr: BlockAddr) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&addr.0, |&(a, _)| a)
    }

    /// Records the new (not yet persistent) leaf of `addr`.
    ///
    /// Re-inserting an existing address overwrites in place and never
    /// fails; fresh insertions respect the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`OramError::TempPosMapOverflow`] when full.
    pub fn insert(&mut self, addr: BlockAddr, leaf: Leaf) -> Result<(), OramError> {
        match self.position(addr) {
            Ok(at) => self.entries[at].1 = leaf.0,
            Err(_) if self.entries.len() >= self.capacity => {
                return Err(OramError::TempPosMapOverflow {
                    capacity: self.capacity,
                });
            }
            Err(at) => {
                self.entries.insert(at, (addr.0, leaf.0));
                self.max_occupancy = self.max_occupancy.max(self.entries.len());
            }
        }
        Ok(())
    }

    /// The pending leaf for `addr`, if one exists.
    pub fn get(&self, addr: BlockAddr) -> Option<Leaf> {
        let at = self.position(addr).ok()?;
        Some(Leaf(self.entries[at].1))
    }

    /// Removes and returns the pending entry for `addr` (done when the
    /// block's eviction round commits).
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Leaf> {
        let at = self.position(addr).ok()?;
        Some(Leaf(self.entries.remove(at).1))
    }

    /// Current number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// High-water mark of occupancy.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }

    /// Models a power failure: all pending entries are lost.
    pub fn wipe(&mut self) {
        self.entries.clear();
    }

    /// The pending `(addr, leaf)` entries in ascending address order —
    /// the canonical byte layout the temp-PosMap authentication seal
    /// covers.
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// [`TempPosMap::entries`] as an owned list.
    pub fn entries_sorted(&self) -> Vec<(u64, u64)> {
        self.entries.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_mapping_is_deterministic_and_in_range() {
        let a = PosMap::new(64, 1);
        let b = PosMap::new(64, 1);
        for i in 0..100 {
            let l = a.get(BlockAddr(i));
            assert_eq!(l, b.get(BlockAddr(i)));
            assert!(l.0 < 64);
        }
    }

    #[test]
    fn different_seeds_give_different_mappings() {
        let a = PosMap::new(1 << 20, 1);
        let b = PosMap::new(1 << 20, 2);
        let same = (0..64)
            .filter(|&i| a.get(BlockAddr(i)) == b.get(BlockAddr(i)))
            .count();
        assert!(
            same < 8,
            "mappings should be nearly disjoint, {same} collisions"
        );
    }

    #[test]
    fn volatile_updates_roll_back_on_crash() {
        let mut pm = PosMap::new(16, 3);
        let init = pm.get(BlockAddr(5));
        pm.set(BlockAddr(5), Leaf(1));
        pm.crash();
        assert_eq!(pm.get(BlockAddr(5)), init);
    }

    #[test]
    fn persisted_updates_survive_crash() {
        let mut pm = PosMap::new(16, 3);
        pm.persist(BlockAddr(5), Leaf(2));
        pm.set(BlockAddr(5), Leaf(9)); // volatile shadow
        assert_eq!(pm.get(BlockAddr(5)), Leaf(9));
        pm.crash();
        assert_eq!(pm.get(BlockAddr(5)), Leaf(2));
        assert_eq!(pm.persist_writes(), 1);
    }

    #[test]
    fn persist_clears_volatile_shadow() {
        let mut pm = PosMap::new(16, 3);
        pm.set(BlockAddr(1), Leaf(4));
        pm.persist(BlockAddr(1), Leaf(7));
        assert_eq!(pm.get(BlockAddr(1)), Leaf(7));
        pm.crash();
        assert_eq!(pm.get(BlockAddr(1)), Leaf(7));
    }

    #[test]
    fn persisted_get_ignores_volatile() {
        let mut pm = PosMap::new(16, 3);
        let init = pm.persisted_get(BlockAddr(2));
        pm.set(BlockAddr(2), Leaf(11));
        assert_eq!(pm.persisted_get(BlockAddr(2)), init);
    }

    #[test]
    fn initial_mapping_is_roughly_uniform() {
        let pm = PosMap::new(8, 42);
        let mut counts = [0usize; 8];
        for i in 0..8000 {
            counts[pm.get(BlockAddr(i)).0 as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (800..1200).contains(&c),
                "unbalanced initial mapping: {counts:?}"
            );
        }
    }

    #[test]
    fn temp_posmap_capacity_enforced_for_fresh_entries_only() {
        let mut t = TempPosMap::new(2);
        t.insert(BlockAddr(1), Leaf(1)).unwrap();
        t.insert(BlockAddr(2), Leaf(2)).unwrap();
        assert!(t.insert(BlockAddr(3), Leaf(3)).is_err());
        // Overwriting an existing entry is always allowed.
        t.insert(BlockAddr(1), Leaf(9)).unwrap();
        assert_eq!(t.get(BlockAddr(1)), Some(Leaf(9)));
    }

    #[test]
    fn corrupt_persisted_always_changes_the_recovered_leaf() {
        let mut pm = PosMap::new(16, 3);
        pm.persist(BlockAddr(5), Leaf(2));
        for entropy in 0..64 {
            let before = pm.persisted_get(BlockAddr(5));
            let bad = pm.corrupt_persisted(BlockAddr(5), entropy);
            assert_ne!(bad, before, "corruption must change the stored leaf");
            assert!(bad.0 < 16);
            assert_eq!(pm.persisted_get(BlockAddr(5)), bad);
        }
        // Never-persisted entries get an explicit wrong overlay too.
        let init = pm.persisted_get(BlockAddr(9));
        assert_ne!(pm.corrupt_persisted(BlockAddr(9), 0), init);
    }

    #[test]
    fn temp_entries_sorted_is_deterministic() {
        let mut t = TempPosMap::new(8);
        t.insert(BlockAddr(9), Leaf(1)).unwrap();
        t.insert(BlockAddr(2), Leaf(5)).unwrap();
        t.insert(BlockAddr(4), Leaf(3)).unwrap();
        assert_eq!(t.entries_sorted(), vec![(2, 5), (4, 3), (9, 1)]);
    }

    #[test]
    fn temp_posmap_remove_and_wipe() {
        let mut t = TempPosMap::new(4);
        t.insert(BlockAddr(1), Leaf(1)).unwrap();
        t.insert(BlockAddr(2), Leaf(2)).unwrap();
        assert_eq!(t.remove(BlockAddr(1)), Some(Leaf(1)));
        assert_eq!(t.remove(BlockAddr(1)), None);
        t.wipe();
        assert!(t.is_empty());
        assert_eq!(t.max_occupancy(), 2);
    }

    mod props {
        use std::collections::BTreeMap;

        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// The sorted vector is a bounded ordered map: against a
            /// `BTreeMap` under random inserts, overwrites, removals and
            /// wipes at a small capacity — an overwrite at capacity never
            /// fails, a fresh insert there overflows and changes nothing,
            /// `entries()` stays ascending and is what `entries_sorted()`
            /// copies, and `max_occupancy` is the high-water mark.
            #[test]
            fn temp_posmap_behaves_like_a_bounded_btreemap(
                capacity in 1usize..7,
                steps in prop::collection::vec((0u8..10, 0u64..9, 0u64..50), 0..120),
            ) {
                let mut temp = TempPosMap::new(capacity);
                let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                let mut high_water = 0;
                for (kind, addr, leaf) in steps {
                    match kind {
                        0..=5 => {
                            let fits = model.contains_key(&addr) || model.len() < capacity;
                            let got = temp.insert(BlockAddr(addr), Leaf(leaf));
                            if fits {
                                prop_assert_eq!(got, Ok(()));
                                model.insert(addr, leaf);
                            } else {
                                prop_assert_eq!(got, Err(OramError::TempPosMapOverflow { capacity }));
                            }
                        }
                        6..=8 => prop_assert_eq!(
                            temp.remove(BlockAddr(addr)),
                            model.remove(&addr).map(Leaf)
                        ),
                        _ => {
                            temp.wipe();
                            model.clear();
                        }
                    }
                    high_water = high_water.max(model.len());
                    prop_assert_eq!(temp.get(BlockAddr(addr)), model.get(&addr).copied().map(Leaf));
                    prop_assert_eq!((temp.len(), temp.is_empty()), (model.len(), model.is_empty()));
                    prop_assert_eq!(temp.max_occupancy(), high_water);
                    let listed: Vec<(u64, u64)> = model.iter().map(|(&a, &l)| (a, l)).collect();
                    prop_assert_eq!(temp.entries(), &listed[..]);
                    prop_assert_eq!(temp.entries_sorted(), listed);
                }
                prop_assert_eq!(temp.capacity(), capacity);
            }
        }
    }
}

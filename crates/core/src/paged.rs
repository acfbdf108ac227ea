//! A lazily-paged table indexed by a position the simulator generates.
//!
//! The PosMap's leaves, the freshness layer's per-bucket rows and the
//! touched-address set are all keyed by a *position* — a heap bucket index
//! or a block address — that the controller bounds at entry
//! (`num_buckets()`, `capacity_blocks()`). (The tree's slots are keyed the
//! same way but are fixed-width records, and live in the slot arena.) A position needs no hashing: the
//! table is a directory of fixed-size pages, a page is materialised by the
//! first write that lands in it, and an absent page reads as "nothing
//! stored". Iteration walks the directory, so it is in ascending index
//! order without a sort.

/// Entries per page.
///
/// Small on purpose: at `L = 20`/`23` the deep levels of a young tree hold
/// one touched bucket per page, so every extra entry is paid for by each
/// lone bucket, while a dense table (`L = 16`, the PosMap) amortises the
/// per-page allocation over sixteen entries either way.
pub(crate) const PAGE_ENTRIES: usize = 16;

type Page<T> = Box<[Option<T>; PAGE_ENTRIES]>;

/// A sparse `u64 -> T` table over a directory of lazily allocated pages.
///
/// The directory is a `Vec` grown to the highest page written, so indices
/// must be bounded by the caller (they are: every index is a bucket of a
/// validated tree or an address checked against `capacity_blocks()`).
/// Tables keyed by caller-supplied, unbounded values — the NVM line
/// counters, the commit ledger — do not belong here.
#[derive(Debug, Clone)]
pub(crate) struct PagedTable<T> {
    pages: Vec<Option<Page<T>>>,
}

impl<T> Default for PagedTable<T> {
    fn default() -> Self {
        PagedTable { pages: Vec::new() }
    }
}

/// `(page, offset)` of `index`.
fn locate(index: u64) -> (usize, usize) {
    let page = usize::try_from(index / PAGE_ENTRIES as u64)
        .expect("table index exceeds the host address space");
    (page, (index % PAGE_ENTRIES as u64) as usize)
}

impl<T> PagedTable<T> {
    /// The value stored at `index`, if any.
    pub fn get(&self, index: u64) -> Option<&T> {
        let (page, offset) = locate(index);
        self.pages.get(page)?.as_ref()?[offset].as_ref()
    }

    /// The cell of `index`, materialising its page on demand.
    fn cell_mut(&mut self, index: u64) -> &mut Option<T> {
        let (page, offset) = locate(index);
        if self.pages.len() <= page {
            self.pages.resize_with(page + 1, || None);
        }
        let page = self.pages[page].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        &mut page[offset]
    }

    /// Stores `value` at `index`, returning what it replaced.
    pub fn insert(&mut self, index: u64, value: T) -> Option<T> {
        self.cell_mut(index).replace(value)
    }

    /// The value at `index`, storing `default()` first if there is none.
    pub fn get_or_insert_with(&mut self, index: u64, default: impl FnOnce() -> T) -> &mut T {
        self.cell_mut(index).get_or_insert_with(default)
    }

    /// Removes and returns the value at `index`. Never materialises a
    /// page, and never frees one: a position written once is usually
    /// written again.
    pub fn remove(&mut self, index: u64) -> Option<T> {
        let (page, offset) = locate(index);
        self.pages.get_mut(page)?.as_mut()?[offset].take()
    }

    /// Drops every value and every page.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Number of materialised pages (a memory-footprint probe).
    #[cfg(test)]
    pub fn pages(&self) -> usize {
        self.pages.iter().flatten().count()
    }

    /// Every stored `(index, value)`, in strictly ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(p, page)| Some((p, page.as_ref()?)))
            .flat_map(|(p, page)| {
                let base = (p * PAGE_ENTRIES) as u64;
                page.iter()
                    .enumerate()
                    .filter_map(move |(o, cell)| Some((base + o as u64, cell.as_ref()?)))
            })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    #[test]
    fn unwritten_indices_read_as_absent_without_materialising() {
        let mut t: PagedTable<u32> = PagedTable::default();
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(u64::from(u32::MAX)), None);
        assert_eq!(t.remove(7), None);
        assert_eq!(t.pages(), 0);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn insert_overwrite_remove_track_len_and_pages() {
        let mut t: PagedTable<u32> = PagedTable::default();
        assert_eq!(t.insert(5, 50), None);
        assert_eq!(t.insert(5, 51), Some(50), "overwrite returns the old value");
        assert_eq!(t.insert(6, 60), None);
        assert_eq!(
            (t.iter().count(), t.pages()),
            (2, 1),
            "5 and 6 share a page"
        );
        t.insert(5 + 4 * PAGE_ENTRIES as u64, 9);
        assert_eq!((t.iter().count(), t.pages()), (3, 2));
        assert_eq!(t.get(5 + PAGE_ENTRIES as u64), None, "absent page between");
        *t.get_or_insert_with(6, || unreachable!("stored")) += 1;
        assert_eq!(t.remove(6), Some(61));
        assert_eq!(t.remove(6), None);
        assert_eq!(
            (t.iter().count(), t.pages()),
            (2, 2),
            "pages outlive their values"
        );
    }

    #[test]
    fn get_or_insert_with_stores_once() {
        let mut t: PagedTable<Vec<u8>> = PagedTable::default();
        t.get_or_insert_with(40, Vec::new).push(1);
        t.get_or_insert_with(40, || unreachable!("already stored"))
            .push(2);
        assert_eq!(t.get(40), Some(&vec![1, 2]));
        assert_eq!(t.iter().count(), 1);
    }

    #[test]
    fn clear_drops_values_and_pages() {
        let mut t: PagedTable<u8> = PagedTable::default();
        for i in 0..100 {
            t.insert(i * 7, i as u8);
        }
        t.clear();
        assert_eq!((t.iter().count(), t.pages()), (0, 0));
        assert_eq!(t.get(7), None);
        t.insert(7, 1);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(7, &1)]);
    }

    #[derive(Debug, Clone)]
    enum Step {
        Insert(u64, u16),
        Remove(u64),
        Touch(u64, u16),
        Clear,
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..40, any::<bool>(), 0u64..48, 0u64..5_000, any::<u16>()).prop_map(
            |(kind, cluster, near, far, v)| {
                // Indices cluster (shared pages) and scatter (lone pages).
                let i = if cluster { near } else { far };
                match kind {
                    0 => Step::Clear,
                    1..=19 => Step::Insert(i, v),
                    20..=29 => Step::Remove(i),
                    _ => Step::Touch(i, v),
                }
            },
        )
    }

    proptest! {
        #[test]
        fn behaves_like_a_btreemap(steps in prop::collection::vec(step(), 0..200)) {
            let mut table: PagedTable<u16> = PagedTable::default();
            let mut model: BTreeMap<u64, u16> = BTreeMap::new();
            for s in steps {
                match s {
                    Step::Insert(i, v) => prop_assert_eq!(table.insert(i, v), model.insert(i, v)),
                    Step::Remove(i) => prop_assert_eq!(table.remove(i), model.remove(&i)),
                    Step::Touch(i, v) => {
                        let got = *table.get_or_insert_with(i, || v);
                        prop_assert_eq!(got, *model.entry(i).or_insert(v));
                    }
                    Step::Clear => {
                        table.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(table.iter().count(), model.len());
            }
            for i in 0..5_000 {
                prop_assert_eq!(table.get(i), model.get(&i));
            }
            let listed: Vec<(u64, u16)> = table.iter().map(|(i, &v)| (i, v)).collect();
            prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending");
            prop_assert_eq!(listed, model.into_iter().collect::<Vec<_>>());
        }
    }
}

//! Per-unit side tables keyed by tree slot.
//!
//! The freshness layer keeps a row of state per `(bucket, slot)` — the
//! trusted counter with the off-chip record beside it, the adversary's
//! snapshot — and every path access touches all `Z` slots of `L + 1`
//! buckets. [`UnitTable`] stores one dense row per bucket in the same
//! lazily-paged table that holds the buckets themselves, so a caller
//! walking a path resolves a bucket's row once ([`UnitTable::row`],
//! [`UnitTable::row_mut`]) and finds its slots side by side.

use crate::paged::PagedTable;
use crate::tree::BucketIndex;

/// One value per tree slot, stored as a dense row per bucket. A cell
/// nothing was stored in reads as `T::default()`.
#[derive(Debug, Clone)]
pub(crate) struct UnitTable<T> {
    rows: PagedTable<Vec<T>>,
}

impl<T> Default for UnitTable<T> {
    fn default() -> Self {
        UnitTable {
            rows: PagedTable::default(),
        }
    }
}

impl<T: Default> UnitTable<T> {
    /// The cell of `(bucket, slot)`, if its row reaches that far.
    pub fn get(&self, bucket: BucketIndex, slot: usize) -> Option<&T> {
        self.row(bucket).get(slot)
    }

    /// The cells of `bucket` stored so far, slot 0 first: empty for a
    /// bucket never written to.
    pub fn row(&self, bucket: BucketIndex) -> &[T] {
        self.rows.get(bucket).map_or(&[], Vec::as_slice)
    }

    /// Mutable access to the row of `bucket`, grown with default cells to
    /// at least `slots` long.
    pub fn row_mut(&mut self, bucket: BucketIndex, slots: usize) -> &mut [T] {
        let row = self.rows.get_or_insert_with(bucket, Vec::new);
        if row.len() < slots {
            row.resize_with(slots, T::default);
        }
        row
    }

    /// Mutable access to the cell of `(bucket, slot)`, growing the
    /// bucket's row on demand.
    pub fn cell_mut(&mut self, bucket: BucketIndex, slot: usize) -> &mut T {
        &mut self.row_mut(bucket, slot + 1)[slot]
    }

    /// Every bucket that has a row, with the row, in ascending bucket
    /// order.
    pub fn rows(&self) -> impl Iterator<Item = (BucketIndex, &[T])> {
        self.rows
            .iter()
            .map(|(bucket, row)| (bucket, row.as_slice()))
    }

    /// Every `(bucket, slot)` whose cell satisfies `stored`, in sorted
    /// order.
    pub fn units_sorted(&self, stored: impl Fn(&T) -> bool) -> Vec<(BucketIndex, usize)> {
        self.rows
            .iter()
            .flat_map(|(bucket, row)| {
                let stored = &stored;
                row.iter()
                    .enumerate()
                    .filter(move |(_, cell)| stored(cell))
                    .map(move |(slot, _)| (bucket, slot))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_independent_and_rows_grow_on_demand() {
        let mut t: UnitTable<Option<u32>> = UnitTable::default();
        assert_eq!(t.get(7, 2), None);
        assert!(t.row(7).is_empty(), "reading materialises nothing");
        *t.cell_mut(7, 2) = Some(5);
        assert_eq!(t.get(7, 2), Some(&Some(5)));
        assert_eq!(
            t.get(7, 0),
            Some(&None),
            "growing a row stores nothing else"
        );
        assert_eq!(t.get(7, 9), None, "past the row's end");
        *t.cell_mut(7, 2) = None;
        assert_eq!(t.get(7, 2), Some(&None));
        // A row is resolved once and its cells written side by side; it
        // never shrinks.
        let row = t.row_mut(7, 2);
        assert_eq!(row.len(), 3);
        row[0] = Some(1);
        t.row_mut(7, 5)[4] = Some(9);
        assert_eq!(t.row(7), [Some(1), None, None, None, Some(9)]);
        assert!(t.row(8).is_empty());
    }

    #[test]
    fn units_sorted_lists_only_stored_values_in_order() {
        // The largest bucket of an L = 23 tree: the table's indices are
        // heap positions, bounded by the tree they belong to.
        const LAST_L23: BucketIndex = (1 << 24) - 2;
        let mut t: UnitTable<bool> = UnitTable::default();
        for (b, s) in [(9, 1), (2, 3), (2, 0), (LAST_L23, 0)] {
            *t.cell_mut(b, s) = true;
        }
        *t.cell_mut(5, 1) = false;
        assert_eq!(
            t.units_sorted(|&stored| stored),
            vec![(2, 0), (2, 3), (9, 1), (LAST_L23, 0)]
        );
    }
}

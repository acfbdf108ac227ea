//! Per-unit side tables keyed by tree slot.
//!
//! The freshness layer keeps several values per `(bucket, slot)` — the
//! trusted counter, the off-chip record, the adversary's snapshot — and
//! every path access touches all `Z` slots of `L + 1` buckets in each.
//! [`UnitTable`] stores one dense row per bucket in the same lazily-paged
//! table that holds the buckets themselves, so a bucket's slots sit
//! contiguously behind two indexed loads.

use crate::paged::PagedTable;
use crate::tree::BucketIndex;

/// One value per tree slot, stored as a dense row per bucket.
#[derive(Debug, Clone)]
pub(crate) struct UnitTable<T> {
    rows: PagedTable<Vec<Option<T>>>,
}

impl<T> Default for UnitTable<T> {
    fn default() -> Self {
        UnitTable {
            rows: PagedTable::default(),
        }
    }
}

impl<T> UnitTable<T> {
    /// The value of `(bucket, slot)`, if one was ever stored.
    pub fn get(&self, bucket: BucketIndex, slot: usize) -> Option<&T> {
        self.rows.get(bucket)?.get(slot)?.as_ref()
    }

    /// Mutable access to the cell of `(bucket, slot)`, growing the
    /// bucket's row on demand.
    pub fn cell_mut(&mut self, bucket: BucketIndex, slot: usize) -> &mut Option<T> {
        let row = self.rows.get_or_insert_with(bucket, Vec::new);
        if row.len() <= slot {
            row.resize_with(slot + 1, || None);
        }
        &mut row[slot]
    }

    /// Every `(bucket, slot)` holding a value, in sorted order.
    pub fn units_sorted(&self) -> Vec<(BucketIndex, usize)> {
        self.rows
            .iter()
            .flat_map(|(bucket, row)| {
                row.iter()
                    .enumerate()
                    .filter(|(_, cell)| cell.is_some())
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
        let mut t: UnitTable<u32> = UnitTable::default();
        assert_eq!(t.get(7, 2), None);
        *t.cell_mut(7, 2) = Some(5);
        assert_eq!(t.get(7, 2), Some(&5));
        assert_eq!(t.get(7, 0), None, "growing a row stores nothing else");
        assert_eq!(t.get(7, 9), None, "past the row's end");
        *t.cell_mut(7, 2) = None;
        assert_eq!(t.get(7, 2), None);
    }

    #[test]
    fn units_sorted_lists_only_stored_values_in_order() {
        // The largest bucket of an L = 23 tree: the table's indices are
        // heap positions, bounded by the tree they belong to.
        const LAST_L23: BucketIndex = (1 << 24) - 2;
        let mut t: UnitTable<()> = UnitTable::default();
        for (b, s) in [(9, 1), (2, 3), (2, 0), (LAST_L23, 0)] {
            *t.cell_mut(b, s) = Some(());
        }
        *t.cell_mut(5, 1) = None;
        assert_eq!(
            t.units_sorted(),
            vec![(2, 0), (2, 3), (9, 1), (LAST_L23, 0)]
        );
    }
}

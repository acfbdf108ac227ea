//! Per-unit side tables keyed by tree slot.
//!
//! The freshness layer keeps several values per `(bucket, slot)` — the
//! trusted counter, the off-chip record, the adversary's snapshot — and
//! every path access touches all `Z` slots of `L + 1` buckets in each.
//! [`UnitTable`] stores one dense row per bucket, so a bucket's slots sit
//! contiguously behind a single probe, and hashes the bucket index with a
//! multiply instead of SipHash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::tree::BucketIndex;

/// Multiplicative hasher for bucket indices.
///
/// Bucket indices are heap positions derived from the controller's own
/// uniformly random leaves, never from outside input, so collision
/// resistance against crafted keys buys nothing here. Maps keyed by
/// workload-supplied block addresses keep the default hasher.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BucketHasher(u64);

impl Hasher for BucketHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply, then fold the well-mixed high half down:
        // the table takes its slot from the low bits.
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One value per tree slot, stored as a dense row per bucket.
#[derive(Debug, Clone)]
pub(crate) struct UnitTable<T> {
    rows: HashMap<BucketIndex, Vec<Option<T>>, BuildHasherDefault<BucketHasher>>,
}

impl<T> Default for UnitTable<T> {
    fn default() -> Self {
        UnitTable {
            rows: HashMap::default(),
        }
    }
}

impl<T> UnitTable<T> {
    /// The value of `(bucket, slot)`, if one was ever stored.
    pub fn get(&self, bucket: BucketIndex, slot: usize) -> Option<&T> {
        self.rows.get(&bucket)?.get(slot)?.as_ref()
    }

    /// Mutable access to the cell of `(bucket, slot)`, growing the
    /// bucket's row on demand.
    pub fn cell_mut(&mut self, bucket: BucketIndex, slot: usize) -> &mut Option<T> {
        let row = self.rows.entry(bucket).or_default();
        if row.len() <= slot {
            row.resize_with(slot + 1, || None);
        }
        &mut row[slot]
    }

    /// Every `(bucket, slot)` holding a value, in sorted order.
    pub fn units_sorted(&self) -> Vec<(BucketIndex, usize)> {
        let mut units: Vec<(BucketIndex, usize)> = self
            .rows
            .iter()
            .flat_map(|(&bucket, row)| {
                row.iter()
                    .enumerate()
                    .filter(|(_, cell)| cell.is_some())
                    .map(move |(slot, _)| (bucket, slot))
            })
            .collect();
        units.sort_unstable();
        units
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
        let mut t: UnitTable<()> = UnitTable::default();
        for (b, s) in [(9, 1), (2, 3), (2, 0), (1 << 40, 0)] {
            *t.cell_mut(b, s) = Some(());
        }
        *t.cell_mut(5, 1) = None;
        assert_eq!(t.units_sorted(), vec![(2, 0), (2, 3), (9, 1), (1 << 40, 0)]);
    }

    #[test]
    fn sibling_and_dense_indices_spread_over_low_bits() {
        // The table takes its slot from the hash's low bits: a run of
        // consecutive heap indices must not pile into a few of them.
        let mut low = std::collections::HashSet::new();
        for n in 0..256u64 {
            let mut h = BucketHasher::default();
            h.write_u64((1 << 16) + n);
            low.insert(h.finish() & 0xFF);
        }
        assert!(low.len() > 128, "only {} of 256 low bytes hit", low.len());
    }
}

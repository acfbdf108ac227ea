//! Per-line write counters, paged.
//!
//! An instrument of the endurance adversary: the only readers of this
//! table are the wear reports a controller with an armed `WearEngine`
//! publishes (`nvm.wear.hot.*`, `lines_touched`, `max_line_writes`), so
//! the table exists from [`crate::NvmController::count_lines`] on — the
//! ORAM controllers call it beside arming the engine — and a controller
//! nobody armed counts nothing. What it counts, once armed, is every
//! write the controller *accepts* (at acceptance, whether it drains now
//! or through the write buffer), by logical line: dummies and PosMap
//! entries included. (The `WearEngine` keeps its own map of *physical*
//! lines for drained real units; the lifetime campaigns read that one.)
//!
//! An ORAM path write-back bumps ~70 counters in ascending address
//! order, so the counters sit in small pages of neighbouring lines: one
//! hash probe finds a page, and a memo of the page written last serves
//! the rest of the run.
//!
//! The pages hang off a *hash map*, not an indexed directory: line numbers
//! come from caller-supplied addresses (`System` feeds raw trace addresses
//! to the DRAM reference), so nothing bounds them and a directory sized by
//! the highest line seen could be made arbitrarily large from outside.
//! The table's cost (1.8 µs of a 10.3 µs plain L=16 access when every
//! controller kept one) is cache misses, not hashing — a multiplicative
//! hasher moved it 2.55 → 2.50 µs, a dense `Vec<u32>` still cost 1.5 µs
//! (DESIGN.md §9) — which is why it is armed rather than tuned.

use std::collections::HashMap;

/// Lines per page: the four slots of four neighbouring buckets.
const LINES_PER_PAGE: usize = 16;

#[derive(Debug, Clone)]
struct Page {
    /// `first line / LINES_PER_PAGE`.
    number: u64,
    writes: [u64; LINES_PER_PAGE],
}

/// Write counts per line, since the table was built.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineCounters {
    /// Page number → position in `pages`.
    index: HashMap<u64, usize>,
    pages: Vec<Page>,
    /// Position of the page written last.
    last: usize,
    /// Lines with at least one write.
    touched: u64,
}

impl LineCounters {
    /// Counts one write to `line`.
    pub fn record(&mut self, line: u64) {
        let number = line / LINES_PER_PAGE as u64;
        if self.pages.get(self.last).is_none_or(|p| p.number != number) {
            let next = self.pages.len();
            self.last = *self.index.entry(number).or_insert(next);
            if self.last == next {
                self.pages.push(Page {
                    number,
                    writes: [0; LINES_PER_PAGE],
                });
            }
        }
        let count = &mut self.pages[self.last].writes[(line % LINES_PER_PAGE as u64) as usize];
        self.touched += u64::from(*count == 0);
        *count += 1;
    }

    /// Distinct lines written at least once.
    pub fn touched(&self) -> u64 {
        self.touched
    }

    /// Every written line as `(line, writes)`, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.pages.iter().flat_map(|p| {
            let first = p.number * LINES_PER_PAGE as u64;
            p.writes
                .iter()
                .enumerate()
                .filter(|(_, &writes)| writes > 0)
                .map(move |(offset, &writes)| (first + offset as u64, writes))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_survive_leaving_and_re_entering_a_page() {
        let mut c = LineCounters::default();
        let far = u64::MAX; // the last line there is: its page number is not bounded
        for line in [3, 4, far, 3, 3 + LINES_PER_PAGE as u64, 3, far] {
            c.record(line);
        }
        let mut got: Vec<(u64, u64)> = c.iter().collect();
        got.sort_unstable();
        assert_eq!(
            got,
            vec![(3, 3), (4, 1), (3 + LINES_PER_PAGE as u64, 1), (far, 2)]
        );
        assert_eq!(c.touched(), 4);
        assert_eq!(c.pages.len(), 3, "one page per neighbourhood, none twice");
    }

    #[test]
    fn an_empty_table_lists_nothing() {
        let c = LineCounters::default();
        assert_eq!(c.touched(), 0);
        assert_eq!(c.iter().count(), 0);
    }
}

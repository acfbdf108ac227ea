//! What the memory bus shows: a recorder's [`Event::NvmAccess`] stream
//! folded per access, the statistics an observer computes over it, and
//! the obliviousness contract.

use std::sync::Arc;

use psoram_obsv::{AccessKind, Event, RingBufferRecorder};

use super::{Broke, Case, Claim, Contract, Geometry, Op, Outcome};
use crate::engine::{NvmLayout, ProtocolPolicy};

/// One access as the bus shows it: the NVM requests from its
/// `AccessStart` to the next one's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusAccess {
    /// The deepest tree bucket read before the access's first tree write:
    /// the end of the online path read.
    pub online: Option<u64>,
    /// Tree-region reads and writes.
    pub tree: (u64, u64),
    /// The requests past the tree (PosMap entries, recursion trees, stash
    /// snapshot), in order: kind and address.
    pub metadata: Vec<(AccessKind, u64)>,
}

impl BusAccess {
    /// The online read's path id: its deepest bucket's place in its level.
    pub fn leaf(&self) -> Option<u64> {
        self.online.map(|b| b + 1 - (1 << (b + 1).ilog2()))
    }

    /// The addresses of the metadata writes.
    pub fn metadata_writes(&self) -> impl Iterator<Item = u64> + '_ {
        let writes = self.metadata.iter().filter(|m| m.0 == AccessKind::Write);
        writes.map(|m| m.1)
    }
}

/// Folds `events` into one [`BusAccess`] per `AccessStart`, an NVM
/// request in the tree when `layout` puts it there; requests before the
/// first access are no access's.
pub fn fold(events: &[Event], layout: &NvmLayout) -> Vec<BusAccess> {
    let mut accesses: Vec<BusAccess> = Vec::new();
    for event in events {
        match (*event, accesses.last_mut()) {
            (Event::AccessStart { .. }, _) => accesses.push(BusAccess::default()),
            (Event::NvmAccess { kind, addr, .. }, Some(a)) if addr < layout.tree_bytes => {
                if kind == AccessKind::Write {
                    a.tree.1 += 1;
                } else if a.tree.1 == 0 {
                    // Heap order: a deeper bucket has a larger index.
                    a.online = a.online.max(Some(addr / layout.bucket_bytes));
                }
                a.tree.0 += u64::from(kind == AccessKind::Read);
            }
            (Event::NvmAccess { kind, addr, .. }, Some(a)) => a.metadata.push((kind, addr)),
            _ => {}
        }
    }
    accesses
}

/// Chi-square statistic of `leaves` against the uniform distribution over
/// `num_leaves`, in `bins` bins: near `bins - 1` when they are uniform.
/// Panics without a bin or a leaf.
pub fn chi_square(leaves: &[u64], num_leaves: u64, bins: usize) -> f64 {
    assert!(bins > 0 && !leaves.is_empty(), "need a bin and a leaf");
    let mut counts = vec![0u64; bins];
    for &leaf in leaves {
        let bin = (leaf as u128 * bins as u128 / num_leaves as u128) as usize;
        counts[bin.min(bins - 1)] += 1;
    }
    let expected = leaves.len() as f64 / bins as f64;
    let term = |&c: &u64| (c as f64 - expected).powi(2) / expected;
    counts.iter().map(term).sum()
}

/// Lag-1 serial correlation of `leaves`: near zero for independent
/// draws, 1 for a constant sequence. Panics on fewer than two.
pub fn serial_correlation(leaves: &[u64]) -> f64 {
    assert!(leaves.len() >= 2, "need at least two leaves");
    let xs: Vec<f64> = leaves.iter().map(|&l| l as f64).collect();
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    if var == 0.0 {
        return 1.0;
    }
    let cov = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean));
    cov.sum::<f64>() / (n - 1.0) / var
}

/// How many distinct values `shape` takes over `accesses`.
pub fn distinct<T: Ord>(accesses: &[BusAccess], shape: impl Fn(&BusAccess) -> T) -> usize {
    let shapes: std::collections::BTreeSet<T> = accesses.iter().map(shape).collect();
    shapes.len()
}

/// The path-id check's chi-square bound: 16 bins, p = 0.001.
pub const CHI_BOUND: f64 = 37.7;

/// Writes in each program of [`bus_runs`].
pub const ACCESSES: u64 = 1_500;

/// The height the recursion contract runs at: its PosMap (16,384
/// entries) outgrows the on-chip root map (4,096), so a recursive row
/// walks a recursion tree; at the small geometry it never does.
pub const RECURSION_LEVELS: u32 = 13;

/// Runs `program` on `oram` with a recorder attached: what it returned
/// and what the bus showed, folded. Panics if the recorder dropped events.
pub fn watch<P, R>(oram: &mut P, program: impl FnOnce(&mut P) -> R) -> (R, Vec<BusAccess>)
where
    P: ProtocolPolicy + ?Sized,
{
    let recorder = Arc::new(RingBufferRecorder::new(1 << 20));
    oram.attach_recorder(recorder.clone());
    let out = program(oram);
    assert_eq!(recorder.dropped(), 0, "the trace dropped events");
    (out, fold(&recorder.events(), &oram.nvm_layout()))
}

/// What the bus shows of the case's design at `geometry` under two
/// programs of [`ACCESSES`] writes, one hammering address 1, one striding
/// by 7 over addresses 0..40; or an access that failed, or a latch that
/// ended one.
pub fn bus_runs(c: &Case, geometry: Geometry) -> Result<[Vec<BusAccess>; 2], Broke> {
    let build = || c.build_at(geometry).ok_or(Broke::from("no such geometry"));
    let run = |at: fn(u64) -> u64| {
        let ops: Vec<Op> = (0..ACCESSES).map(|i| (at(i), true, i as u8)).collect();
        match watch(build()?.as_mut(), |oram| c.serves(oram, &ops)) {
            (Ok(true), bus) => Ok(bus),
            (Ok(false), _) => Err(Broke::from("the fail-safe latch ended a program")),
            (Err(e), _) => Err(e),
        }
    };
    Ok([run(|_| 1)?, run(|i| 7 * i % 40)?])
}

/// The obliviousness contract: under [`bus_runs`]' hammer the path ids
/// are uniform (`paths`), and its two programs move the same tree traffic
/// (`shapes`) and write the same metadata addresses (`metadata`), access
/// by access. A failed check breaks the model if the row's must-fail
/// reason names it, and the cell otherwise.
pub(super) fn oblivious(c: &Case) -> Outcome {
    let [hammer, stride] = bus_runs(c, Geometry::Small)?;
    let layout = c.build().nvm_layout();
    let ids: Vec<u64> = hammer.iter().filter_map(BusAccess::leaf).collect();
    let leaves = (layout.tree_bytes / layout.bucket_bytes).div_ceil(2);
    let chi = (ids.len() == hammer.len()).then(|| chi_square(&ids, leaves, 16));
    let differs = |what: fn(&BusAccess) -> Vec<u64>| {
        let (h, s) = hammer
            .iter()
            .zip(&stride)
            .find(|(h, s)| what(h) != what(s))?;
        Some(format!("{:?} vs {:?}", what(h), what(s)))
    };
    let skewed = chi.is_none_or(|chi| chi >= CHI_BOUND);
    let checks = [
        ("paths", skewed.then(|| format!("chi-square {chi:?}"))),
        ("shapes", differs(|a| vec![a.tree.0, a.tree.1])),
        ("metadata", differs(|a| a.metadata_writes().collect())),
    ];
    let why = match c.design.claim(Contract::Oblivious, c.arm) {
        Claim::MustFail(why) => why,
        _ => "",
    };
    let (named, other): (Vec<_>, Vec<_>) = (checks.into_iter())
        .filter_map(|(check, found)| Some((why.starts_with(check), format!("{check}: {}", found?))))
        .partition(|&(named, _)| named);
    match (other.into_iter().next(), named.into_iter().next()) {
        (Some((_, e)), _) => Err(Broke::Other(e)),
        (None, Some((_, e))) => Err(Broke::Model(e)),
        (None, None) => Ok(()),
    }
}

/// The recursion contract: at [`RECURSION_LEVELS`], [`bus_runs`]' two
/// programs make as many PosMap-region requests (the entries and the
/// recursion trees, below the stash snapshot) as each other, access by
/// access.
pub(super) fn recursion(c: &Case) -> Outcome {
    let geometry = Geometry::Tall(RECURSION_LEVELS);
    let [hammer, stride] = bus_runs(c, geometry)?;
    let layout = c.build_at(geometry).ok_or("no such geometry")?.nvm_layout();
    let count = |a: &BusAccess| a.metadata.iter().filter(|m| m.1 < layout.stash).count();
    let total = |bus: &[BusAccess]| bus.iter().map(count).sum::<usize>();
    let mut pairs = hammer.iter().zip(&stride).enumerate();
    match pairs.find(|(_, (h, s))| count(h) != count(s)) {
        Some((i, (h, s))) => Err(Broke::Model(format!(
            "recursion: access {i} makes {} vs {} requests; {} vs {} in all",
            count(h),
            count(s),
            total(&hammer),
            total(&stride),
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(leaf: u64, reads: u64) -> BusAccess {
        BusAccess {
            online: Some((1 << 6) - 1 + leaf),
            tree: (reads, reads),
            ..BusAccess::default()
        }
    }

    #[test]
    fn chi_square_near_bins_for_uniform_data() {
        // Perfectly uniform: leaves 0..64 round-robin.
        let leaves: Vec<u64> = (0..6400).map(|i| i % 64).collect();
        let chi = chi_square(&leaves, 64, 16);
        assert!(
            chi < 1.0,
            "round-robin over bins is exactly uniform, chi={chi}"
        );
    }

    #[test]
    fn chi_square_large_for_skewed_data() {
        let chi = chi_square(&[0; 1000], 64, 16);
        assert!(
            chi > 1000.0,
            "all-one-leaf must look wildly non-uniform, chi={chi}"
        );
    }

    #[test]
    fn constant_shape_detects_variation() {
        let mut seen = vec![access(1, 28), access(2, 28)];
        let leaves: Vec<_> = seen.iter().map(BusAccess::leaf).collect();
        assert_eq!(leaves, [Some(1), Some(2)]);
        assert_eq!(distinct(&seen, |a| a.tree), 1);
        seen.push(access(3, 27));
        assert_eq!(distinct(&seen, |a| a.tree), 2);
    }

    #[test]
    fn serial_correlation_high_for_repeats() {
        let leaves: Vec<u64> = (0..100).map(|i| i / 50).collect(); // long runs
        assert!(serial_correlation(&leaves) > 0.5);
    }

    #[test]
    fn empty_recorder_behaviour() {
        let layout = NvmLayout::tree_only(127, 256);
        assert!(fold(&[], &layout).is_empty());
        assert_eq!(distinct(&[], |a| a.tree), 0);
    }
}

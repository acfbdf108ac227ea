//! A small deterministic fork-join pool for independent simulations.
//!
//! Campaign variants, crash-point sweeps, and per-workload bench runs are
//! embarrassingly parallel: each job owns its RNG seed and shares nothing.
//! [`par_map`] fans such jobs out over `std::thread::scope` workers and
//! collects the results **in input order**, so the output — and therefore
//! every report derived from it — is bit-identical to the serial runner at
//! any thread count. Built on the standard library only; rayon is not
//! vendored and is not needed at this scale.
//!
//! Thread count resolution, everywhere in the workspace:
//!
//! 1. an explicit `jobs >= 1` argument (CLI `--jobs N`),
//! 2. else the `PSORAM_JOBS` environment variable,
//! 3. else [`std::thread::available_parallelism`].
//!
//! `jobs == 1` takes a strictly serial path on the caller's thread — no pool,
//! no channels — which is the legacy behavior and the byte-identity baseline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "PSORAM_JOBS";

/// The worker count used when the caller does not pass one explicitly:
/// `PSORAM_JOBS` if set to a positive integer, else all available cores.
pub fn default_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a caller-supplied job count: `0` means "use [`default_jobs`]".
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        default_jobs()
    } else {
        jobs
    }
}

/// Applies `f` to every item and returns the results in input order.
///
/// `jobs` is the worker count (`0` = [`default_jobs`]). With one job (or at
/// most one item) the map runs serially on the calling thread. Otherwise
/// `min(jobs, items.len())` scoped workers pull items from a shared cursor;
/// work-stealing order is nondeterministic but invisible, because results
/// are slotted back by input index.
///
/// # Panics
///
/// If `f` panics on any item the panic propagates to the caller once all
/// workers have drained (the `thread::scope` join), matching the serial
/// behavior closely enough for tests to assert on it.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = resolve_jobs(jobs).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Hand each worker the next unclaimed index; results carry their index
    // home so the output order never depends on scheduling.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i]
                        .lock()
                        .expect("par_map: item slot poisoned")
                        .take()
                        .expect("par_map: item claimed twice");
                    local.push((i, f(item)));
                }
                collected
                    .lock()
                    .expect("par_map: result sink poisoned")
                    .append(&mut local);
            });
        }
    });

    let mut indexed = collected
        .into_inner()
        .expect("par_map: result sink poisoned");
    assert_eq!(indexed.len(), n, "par_map lost results");
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order() {
        let out = par_map(4, (0u64..100).collect(), |x| x * 3);
        assert_eq!(out, (0u64..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_output_across_thread_counts() {
        // Each job derives everything from its own input, as campaign
        // variants derive everything from (seed, variant).
        let work = |x: u64| -> (u64, u64) {
            let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            (x, h)
        };
        let inputs: Vec<u64> = (0..257).collect();
        let serial = par_map(1, inputs.clone(), work);
        for jobs in [2, 8] {
            assert_eq!(par_map(jobs, inputs.clone(), work), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = par_map(8, Vec::<u64>::new(), |x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_serially() {
        let out = par_map(8, vec![41u64], |x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, (0u64..16).collect(), |x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic in a worker must reach the caller");
    }

    #[test]
    fn serial_panic_propagates_too() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(1, vec![1u64], |_| -> u64 { panic!("serial boom") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn resolve_jobs_zero_is_default() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }
}

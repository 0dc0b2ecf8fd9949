//! Deterministic scoped-thread fan-out for the parallel pipeline stages.
//!
//! Scoped threads, an atomic work counter and per-slot results give the
//! workspace parallelism without any runtime dependency. Determinism is
//! structural: task `i`'s result always lands in slot `i`, and callers
//! reduce the slots in index order, so the output is byte-identical for
//! any worker count.
//!
//! This module is the workspace's one worker pool and sanctioned
//! thread-spawn point (the `det-thread-spawn` lint bans `std::thread`
//! elsewhere): bc-campaign's seed-sweep driver and `bc-sim`'s
//! `runner::repeat` fan out through [`par_map`] rather than rolling
//! their own pools.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Maps `f` over `0..n` on up to `workers` scoped threads, returning the
/// results in index order.
///
/// With `workers <= 1` (or fewer than two tasks) the map runs inline on
/// the caller's thread — the parallel and serial paths produce identical
/// output by construction, because `f` sees only its own index.
///
/// A panic inside `f` propagates to the caller once all workers finish
/// (the scoped-thread join re-raises it).
pub fn par_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    {
        let next = AtomicUsize::new(0);
        let slot_refs: Vec<Mutex<&mut Option<T>>> = slots.iter_mut().map(Mutex::new).collect();
        thread::scope(|scope| {
            for _ in 0..workers.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    **slot_refs[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.unwrap_or_else(|| unreachable!("every work item was claimed and completed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| i * i + 1;
        let serial = par_map(100, 1, f);
        for workers in [2, 3, 8, 64] {
            assert_eq!(par_map(100, workers, f), serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert!(par_map(0, 4, |i| i).is_empty());
        assert_eq!(par_map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn more_workers_than_items() {
        assert_eq!(par_map(3, 16, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn panics_propagate() {
        let r = std::panic::catch_unwind(|| {
            par_map(8, 4, |i| {
                assert!(i != 5, "boom");
                i
            })
        });
        assert!(r.is_err());
    }
}

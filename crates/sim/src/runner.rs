//! Parallel execution of seeded experiment runs.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

use bc_core::Metrics;

use crate::Summary;

/// Runs `f(seed)` for `runs` consecutive seeds starting at `base_seed`,
/// spread across the machine's cores by [`bc_core::par::par_map`], and
/// returns the results in seed order.
///
/// Every figure's "each point is an average of N runs with different
/// random seeds" (Section VI-A) goes through here, which keeps results
/// deterministic for a fixed `(base_seed, runs)` regardless of thread
/// scheduling.
///
/// # Panics
///
/// If `f` panics for some seed, every other seed still runs, then the
/// panic of the lowest failing seed is re-raised on the calling thread
/// with that seed in the message (rather than silently dropping that
/// run's slot).
pub fn repeat<R, F>(runs: usize, base_seed: u64, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    let seed = |i: usize| base_seed + i as u64; // cast-ok: run index to seed offset
    let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let outcomes = bc_core::par::par_map(runs, workers, |i| {
        catch_unwind(AssertUnwindSafe(|| f(seed(i)))).map_err(|payload| panic_message(&*payload))
    });
    // Outcomes are in seed order, so the first failure is the lowest seed.
    outcomes
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| {
            outcome.unwrap_or_else(|msg| {
                panic!("experiment worker panicked for seed {}: {msg}", seed(i))
            })
        })
        .collect()
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-field summaries of a batch of [`Metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSummary {
    /// Summary of the stop counts.
    pub num_stops: Summary,
    /// Summary of tour lengths (m).
    pub tour_length_m: Summary,
    /// Summary of total charging times (s).
    pub charge_time_s: Summary,
    /// Summary of total operating energies (J).
    pub total_energy_j: Summary,
    /// Summary of per-sensor average charging times (s).
    pub avg_charge_time_per_sensor_s: Summary,
}

/// Summarises each metric across runs.
pub fn average_metrics(all: &[Metrics]) -> MetricsSummary {
    fn col(all: &[Metrics], f: impl Fn(&Metrics) -> f64) -> Summary {
        Summary::of(&all.iter().map(f).collect::<Vec<_>>())
    }
    MetricsSummary {
        num_stops: col(all, |m| m.num_stops as f64), // cast-ok: stop count to summary
        tour_length_m: col(all, |m| m.tour_length_m.0),
        charge_time_s: col(all, |m| m.charge_time_s.0),
        total_energy_j: col(all, |m| m.total_energy_j.0),
        avg_charge_time_per_sensor_s: col(all, |m| m.avg_charge_time_per_sensor_s.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_is_ordered_and_deterministic() {
        let a = repeat(16, 100, |seed| seed * 2);
        let b = repeat(16, 100, |seed| seed * 2);
        assert_eq!(a, b);
        assert_eq!(a[0], 200);
        assert_eq!(a[15], 230);
    }

    #[test]
    fn worker_panic_surfaces_with_seed() {
        let err = std::panic::catch_unwind(|| {
            repeat(16, 300, |seed| {
                if seed == 307 {
                    panic!("boom at {seed}");
                }
                seed
            })
        })
        .expect_err("panic must propagate");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("seed 307") && msg.contains("boom"),
            "unhelpful panic message: {msg}"
        );
    }

    #[test]
    fn repeat_zero_runs() {
        let v: Vec<u64> = repeat(0, 0, |s| s);
        assert!(v.is_empty());
    }

    #[test]
    fn repeat_single_run() {
        assert_eq!(repeat(1, 7, |s| s + 1), vec![8]);
    }

    #[test]
    fn metrics_averaging() {
        use bc_units::{Joules, Meters, Seconds};
        let m = |e: f64| Metrics {
            num_stops: 2,
            tour_length_m: Meters(10.0),
            charge_time_s: Seconds(5.0),
            move_energy_j: Joules(0.0),
            charge_energy_j: Joules(0.0),
            total_energy_j: Joules(e),
            avg_charge_time_per_sensor_s: Seconds(1.0),
        };
        let s = average_metrics(&[m(10.0), m(20.0)]);
        assert_eq!(s.total_energy_j.mean, 15.0);
        assert_eq!(s.num_stops.mean, 2.0);
        assert_eq!(s.tour_length_m.n, 2);
    }
}

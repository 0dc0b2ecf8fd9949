//! Travelling-salesman substrate for bundle-charging tour planning.
//!
//! The paper's planners (SC, CSS, BC, BC-OPT) all start from a TSP tour —
//! over sensors (SC/CSS) or over bundle anchor points (BC). No suitable
//! TSP crate is available offline, so this crate implements, from
//! scratch, the one tour pipeline the planners use:
//!
//! * [`Tour`] — a validated cyclic permutation with length accounting;
//! * [`construct`] — nearest-neighbour construction;
//! * [`improve`] — 2-opt and Or-opt local search (2-opt skips, without a
//!   square root, the pairs that cannot shorten the tour; Or-opt scans
//!   again only the starts a move can change, and scores only the
//!   insertions a grid over the points says can win);
//! * [`exact`] — Held–Karp dynamic programming for small instances.
//!
//! Every routine reads the metric through a closure `dist(i, j)`, the
//! tour metric `d(l_i, l_j)` of the paper's Table I, evaluated when it is
//! asked for: no routine tabulates it. The one-stop entry point is
//! [`solve`]: Held–Karp up to [`SolveConfig::exact_threshold`] points,
//! otherwise nearest-neighbour construction followed by 2-opt and Or-opt
//! until a local optimum.
//!
//! # Example
//!
//! ```
//! use bc_geom::Point;
//! use bc_tsp::{solve, SolveConfig};
//!
//! let pts = vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(10.0, 10.0),
//!     Point::new(0.0, 10.0),
//! ];
//! let (tour, _work) = solve(&pts, |i, j| pts[i].distance(pts[j]), &SolveConfig::default());
//! assert!((tour.length - 40.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod construct;
pub mod exact;
pub mod improve;
pub mod tour;

pub use improve::OrOptWork;
pub use tour::Tour;

use bc_geom::Point;

/// Configuration for the high-level [`solve`] pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveConfig {
    /// Run the 2-opt improvement pass until local optimality.
    pub two_opt: bool,
    /// Run the Or-opt improvement pass (segment relocation of length 1–3)
    /// until local optimality.
    pub or_opt: bool,
    /// Use exact Held–Karp for instances up to this size (inclusive).
    /// Set to `0` to always use heuristics.
    pub exact_threshold: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            two_opt: true,
            or_opt: true,
            exact_threshold: 10,
        }
    }
}

/// Computes a short closed tour through `points` under the metric
/// `dist`, with the Or-opt work it took.
///
/// Small instances (at most `config.exact_threshold` points) are solved
/// exactly with Held–Karp; larger ones use nearest-neighbour construction
/// followed by the configured local-search passes. An empty input yields
/// an empty tour.
///
/// `dist(i, j)` is the length of the leg from `points[i]` to `points[j]`.
/// It must be symmetric with a zero diagonal, and it may be any metric
/// that never undercuts the straight line. Both local-search passes rely
/// on that to skip work: [`improve::two_opt`] skips the pairs whose
/// straight-line lengths show they cannot shorten the tour, and
/// [`improve::or_opt`] buckets the points in a grid to score only the
/// insertions that can win and scans again only the starts a move can
/// change, so the tour is the one the full scans would build. The
/// precondition is `dist(i, j) >= points[i].distance(points[j])` for all
/// `i`, `j`; it holds with equality for the straight line
/// `|i, j| points[i].distance(points[j])`, and for shortest paths around
/// obstacles.
///
/// # Example
///
/// ```
/// use bc_geom::Point;
/// use bc_tsp::{solve, SolveConfig};
///
/// let pts: Vec<Point> = (0..20)
///     .map(|i| Point::new((i as f64 * 1.7).sin() * 50.0, (i as f64 * 2.3).cos() * 50.0))
///     .collect();
/// let (tour, _work) = solve(&pts, |i, j| pts[i].distance(pts[j]), &SolveConfig::default());
/// assert_eq!(tour.order.len(), 20);
/// ```
pub fn solve<F: Fn(usize, usize) -> f64>(
    points: &[Point],
    dist: F,
    config: &SolveConfig,
) -> (Tour, OrOptWork) {
    let n = points.len();
    let mut work = OrOptWork::default();
    if n == 0 {
        return (Tour::empty(), work);
    }
    if n <= config.exact_threshold && n <= exact::HELD_KARP_MAX {
        return (exact::held_karp(n, &dist), work);
    }
    let mut tour = construct::nearest_neighbor(n, 0, &dist);
    let mut improved = true;
    while improved {
        improved = false;
        if config.two_opt && improve::two_opt(&mut tour, &dist, points) {
            improved = true;
        }
        if config.or_opt {
            let pass = improve::or_opt(&mut tour, &dist, points);
            improved |= pass.moves > 0;
            work.moves += pass.moves;
            work.scored += pass.scored;
        }
    }
    (tour, work)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The straight-line metric over `pts`, as the planners pass it.
    pub(crate) fn line(pts: &[Point]) -> impl Fn(usize, usize) -> f64 + Copy + '_ {
        move |i, j| pts[i].distance(pts[j])
    }

    #[test]
    fn empty_and_singleton() {
        let cfg = SolveConfig::default();
        assert!(solve(&[], |_, _| 0.0, &cfg).0.is_empty());
        let pts = [Point::new(1.0, 1.0)];
        let (t, _) = solve(&pts, line(&pts), &cfg);
        assert_eq!(t.order, vec![0]);
        assert_eq!(t.length, 0.0);
    }

    #[test]
    fn square_is_solved_optimally() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ];
        let (t, _) = solve(&pts, line(&pts), &SolveConfig::default());
        assert!((t.length - 40.0).abs() < 1e-9);
    }

    #[test]
    fn improvement_never_hurts() {
        let pts: Vec<Point> = (0..40)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 12.9898).sin() * 500.0, (a * 78.233).cos() * 500.0)
            })
            .collect();
        let construction_only = SolveConfig {
            two_opt: false,
            or_opt: false,
            exact_threshold: 0,
        };
        let (nn, nn_work) = solve(&pts, line(&pts), &construction_only);
        let (full, full_work) = solve(&pts, line(&pts), &SolveConfig::default());
        assert!(full.length <= nn.length + 1e-9);
        assert_eq!(nn_work, OrOptWork::default());
        assert!(full_work.scored >= full_work.moves);
    }

    #[test]
    fn heuristic_close_to_exact_on_small_instances() {
        let pts: Vec<Point> = (0..9)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 3.7).sin() * 30.0, (a * 5.1).cos() * 30.0)
            })
            .collect();
        let (exact, _) = solve(&pts, line(&pts), &SolveConfig::default()); // n <= threshold -> exact
        let (heur, _) = solve(
            &pts,
            line(&pts),
            &SolveConfig {
                exact_threshold: 0,
                ..SolveConfig::default()
            },
        );
        assert!(heur.length >= exact.length - 1e-9);
        // 2-opt + Or-opt is typically optimal at this size; allow 5 % slack.
        assert!(heur.length <= exact.length * 1.05);
    }
}

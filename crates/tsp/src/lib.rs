//! Travelling-salesman substrate for bundle-charging tour planning.
//!
//! The paper's planners (SC, CSS, BC, BC-OPT) all start from a TSP tour —
//! over sensors (SC/CSS) or over bundle anchor points (BC). No suitable
//! TSP crate is available offline, so this crate implements, from
//! scratch, the one tour pipeline the planners use:
//!
//! * [`DistanceMatrix`] — dense symmetric Euclidean distances;
//! * [`Tour`] — a validated cyclic permutation with length accounting;
//! * [`construct`] — nearest-neighbour construction;
//! * [`improve`] — 2-opt and Or-opt local search;
//! * [`exact`] — Held–Karp dynamic programming for small instances.
//!
//! The one-stop entry point is [`solve`]: Held–Karp up to
//! [`SolveConfig::exact_threshold`] points, otherwise nearest-neighbour
//! construction followed by 2-opt and Or-opt until a local optimum.
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
//! let tour = solve(&pts, &SolveConfig::default());
//! assert!((tour.length - 40.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod construct;
pub mod exact;
pub mod improve;
pub mod matrix;
pub mod tour;

pub use matrix::DistanceMatrix;
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

/// Computes a short closed tour through `points`.
///
/// Small instances (at most `config.exact_threshold` points) are solved
/// exactly with Held–Karp; larger ones use nearest-neighbour construction
/// followed by the configured local-search passes. An empty input yields
/// an empty tour.
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
/// let tour = solve(&pts, &SolveConfig::default());
/// assert_eq!(tour.order.len(), 20);
/// ```
pub fn solve(points: &[Point], config: &SolveConfig) -> Tour {
    let n = points.len();
    if n == 0 {
        return Tour::empty();
    }
    let m = DistanceMatrix::from_points(points);
    solve_matrix(&m, config)
}

/// Like [`solve`] but over a pre-built distance matrix.
pub fn solve_matrix(m: &DistanceMatrix, config: &SolveConfig) -> Tour {
    let n = m.len();
    if n == 0 {
        return Tour::empty();
    }
    if n <= config.exact_threshold && n <= exact::HELD_KARP_MAX {
        return exact::held_karp(m);
    }
    let mut tour = construct::nearest_neighbor(m, 0);
    let mut improved = true;
    while improved {
        improved = false;
        if config.two_opt && improve::two_opt(&mut tour, m) {
            improved = true;
        }
        if config.or_opt && improve::or_opt(&mut tour, m) {
            improved = true;
        }
    }
    tour
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        assert_eq!(solve(&[], &SolveConfig::default()).order.len(), 0);
        let t = solve(&[Point::new(1.0, 1.0)], &SolveConfig::default());
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
        let t = solve(&pts, &SolveConfig::default());
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
        let nn = solve(&pts, &construction_only);
        let full = solve(&pts, &SolveConfig::default());
        assert!(full.length <= nn.length + 1e-9);
    }

    #[test]
    fn heuristic_close_to_exact_on_small_instances() {
        let pts: Vec<Point> = (0..9)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 3.7).sin() * 30.0, (a * 5.1).cos() * 30.0)
            })
            .collect();
        let exact = solve(&pts, &SolveConfig::default()); // n <= threshold -> exact
        let heur = solve(
            &pts,
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

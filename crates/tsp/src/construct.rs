//! Nearest-neighbour tour construction.
#![allow(clippy::needless_range_loop)] // index loops mirror the textbook formulations

use crate::{DistanceMatrix, Tour};

/// Nearest-neighbour construction starting from `start`.
///
/// Repeatedly moves to the closest unvisited point. `O(n^2)`.
///
/// # Panics
///
/// Panics if `start >= m.len()` on a non-empty matrix.
pub fn nearest_neighbor(m: &DistanceMatrix, start: usize) -> Tour {
    let n = m.len();
    if n == 0 {
        return Tour::empty();
    }
    assert!(start < n, "start index {start} out of bounds for {n} points");
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut current = start;
    visited[current] = true;
    order.push(current);
    let mut length = 0.0;
    for _ in 1..n {
        let mut best = usize::MAX;
        let mut best_d = f64::INFINITY;
        for j in 0..n {
            if !visited[j] {
                let d = m.dist(current, j);
                if d < best_d {
                    best_d = d;
                    best = j;
                }
            }
        }
        visited[best] = true;
        order.push(best);
        length += best_d;
        current = best;
    }
    length += m.dist(current, start);
    Tour { order, length }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Point;

    fn ring(n: usize, r: f64) -> Vec<Point> {
        (0..n)
            .map(|i| Point::from_angle(i as f64 * std::f64::consts::TAU / n as f64) * r)
            .collect()
    }

    fn scattered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 12.9898).sin() * 100.0, (a * 78.233).cos() * 100.0)
            })
            .collect()
    }

    #[test]
    fn nn_visits_every_point_once() {
        let pts = scattered(25);
        let m = DistanceMatrix::from_points(&pts);
        let t = nearest_neighbor(&m, 0);
        assert!(t.validate(25));
        assert!((t.recompute_length(&m) - t.length).abs() < 1e-9);
    }

    #[test]
    fn nn_on_ring_is_optimal() {
        let pts = ring(12, 10.0);
        let m = DistanceMatrix::from_points(&pts);
        let t = nearest_neighbor(&m, 0);
        // Perimeter of the regular 12-gon.
        let side = pts[0].distance(pts[1]);
        assert!((t.length - 12.0 * side).abs() < 1e-9);
    }

    #[test]
    fn nn_start_variation() {
        let pts = scattered(15);
        let m = DistanceMatrix::from_points(&pts);
        for s in 0..15 {
            let t = nearest_neighbor(&m, s);
            assert!(t.validate(15));
            assert_eq!(t.order[0], s);
        }
    }

    #[test]
    fn nn_handles_tiny_inputs() {
        for n in 0..4usize {
            let pts = scattered(n);
            let m = DistanceMatrix::from_points(&pts);
            if n > 0 {
                assert!(nearest_neighbor(&m, 0).validate(n));
            } else {
                assert!(nearest_neighbor(&m, 0).is_empty());
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn nn_bad_start_panics() {
        let m = DistanceMatrix::from_points(&scattered(3));
        let _ = nearest_neighbor(&m, 7);
    }
}

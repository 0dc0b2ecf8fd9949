//! Exact TSP via Held–Karp dynamic programming.
//!
//! `O(2^n * n^2)` time and `O(2^n * n)` memory — practical to about 20
//! points. Used to anchor the heuristics' optimality gap in tests and to
//! solve the small instances exactly in the figure pipelines when
//! requested.

use crate::Tour;

/// Largest instance [`held_karp`] accepts.
pub const HELD_KARP_MAX: usize = 20;

/// Solves the TSP over `n` points under the metric `dist` exactly with
/// Held–Karp dynamic programming.
///
/// Returns the optimal closed tour starting (arbitrarily) at point `0`.
///
/// # Panics
///
/// Panics if `n > HELD_KARP_MAX` (the table would not fit in memory).
pub fn held_karp<F: Fn(usize, usize) -> f64>(n: usize, dist: F) -> Tour {
    assert!(
        n <= HELD_KARP_MAX,
        "Held-Karp limited to {HELD_KARP_MAX} points, got {n}"
    );
    match n {
        0 => return Tour::empty(),
        1 => {
            return Tour {
                order: vec![0],
                length: 0.0,
            }
        }
        2 => {
            return Tour {
                order: vec![0, 1],
                length: 2.0 * dist(0, 1),
            }
        }
        _ => {}
    }
    // dp[mask][j]: cheapest path starting at 0, visiting exactly the set
    // `mask` (which always contains 0 and j), ending at j.
    let full: usize = (1 << n) - 1;
    let mut dp = vec![f64::INFINITY; (1 << n) * n];
    let mut parent = vec![usize::MAX; (1 << n) * n];
    dp[n] = 0.0; // mask = {0}, end = 0
    for mask in 1..=full {
        if mask & 1 == 0 {
            continue; // every path starts at 0
        }
        for j in 0..n {
            if mask & (1 << j) == 0 {
                continue;
            }
            let cur = dp[mask * n + j];
            if !cur.is_finite() {
                continue;
            }
            for k in 0..n {
                if mask & (1 << k) != 0 {
                    continue;
                }
                let next_mask = mask | (1 << k);
                let cand = cur + dist(j, k);
                if cand < dp[next_mask * n + k] {
                    dp[next_mask * n + k] = cand;
                    parent[next_mask * n + k] = j;
                }
            }
        }
    }
    // Close the cycle.
    let mut best_end = 1;
    let mut best_len = f64::INFINITY;
    for j in 1..n {
        let cand = dp[full * n + j] + dist(j, 0);
        if cand < best_len {
            best_len = cand;
            best_end = j;
        }
    }
    // Reconstruct.
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    let mut j = best_end;
    while j != usize::MAX {
        order.push(j);
        let p = parent[mask * n + j];
        mask &= !(1 << j);
        j = p;
    }
    order.reverse();
    debug_assert_eq!(order[0], 0);
    Tour {
        order,
        length: best_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::nearest_neighbor;
    use crate::improve::two_opt;
    use crate::tests::line;
    use bc_geom::Point;

    fn scattered(n: usize, seed: f64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 + seed;
                Point::new((a * 12.9898).sin() * 100.0, (a * 78.233).cos() * 100.0)
            })
            .collect()
    }

    #[test]
    fn trivial_sizes() {
        assert!(held_karp(0, line(&[])).is_empty());
        let one = held_karp(1, line(&[Point::ORIGIN]));
        assert_eq!(one.order, vec![0]);
        let two = held_karp(2, line(&[Point::ORIGIN, Point::new(3.0, 4.0)]));
        assert_eq!(two.length, 10.0);
    }

    #[test]
    fn square_optimal() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0), // deliberately shuffled
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let t = held_karp(4, line(&pts));
        assert!((t.length - 4.0).abs() < 1e-9);
        assert!(t.validate(4));
    }

    #[test]
    fn never_worse_than_heuristics() {
        for seed in 0..5 {
            let pts = scattered(11, seed as f64 * 17.0);
            let dist = line(&pts);
            let exact = held_karp(11, dist);
            let mut heur = nearest_neighbor(11, 0, dist);
            two_opt(&mut heur, dist, &pts);
            assert!(
                exact.length <= heur.length + 1e-9,
                "seed {seed}: exact {} > heuristic {}",
                exact.length,
                heur.length
            );
            assert!(exact.validate(11));
        }
    }

    #[test]
    fn exact_on_ring_matches_perimeter() {
        let n = 10;
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::from_angle(i as f64 * std::f64::consts::TAU / n as f64) * 5.0)
            .collect();
        let t = held_karp(n, line(&pts));
        let side = pts[0].distance(pts[1]);
        assert!((t.length - n as f64 * side).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "Held-Karp limited")]
    fn too_large_panics() {
        let pts = scattered(HELD_KARP_MAX + 1, 0.0);
        let _ = held_karp(pts.len(), line(&pts));
    }
}

//! Closed tours as validated cyclic permutations.

use std::fmt;

use crate::DistanceMatrix;

/// A closed tour: a permutation of `0..n` visited cyclically, together
/// with its cached length.
///
/// The length is maintained by the construction and improvement routines;
/// [`Tour::recompute_length`] re-derives it from a matrix when in doubt
/// and [`Tour::validate`] checks the permutation invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Tour {
    /// Visit order: a permutation of `0..n`.
    pub order: Vec<usize>,
    /// Total cyclic length of the tour under the metric it was built with.
    pub length: f64,
}

impl Tour {
    /// The empty tour.
    pub fn empty() -> Self {
        Tour {
            order: Vec::new(),
            length: 0.0,
        }
    }

    /// Builds a tour from an explicit visit order, computing its length
    /// from `m`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..m.len()`.
    pub fn from_order(order: Vec<usize>, m: &DistanceMatrix) -> Self {
        let mut t = Tour { order, length: 0.0 };
        assert!(t.validate(m.len()), "order is not a valid permutation");
        t.length = t.recompute_length(m);
        t
    }

    /// Number of visited points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the tour visits nothing.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Checks that the visit order is a permutation of `0..n`.
    pub fn validate(&self, n: usize) -> bool {
        if self.order.len() != n {
            return false;
        }
        let mut seen = vec![false; n];
        for &i in &self.order {
            if i >= n || seen[i] {
                return false;
            }
            seen[i] = true;
        }
        true
    }

    /// Recomputes the cyclic length from a distance matrix (does not
    /// mutate the cached value; assign the result if desired).
    pub fn recompute_length(&self, m: &DistanceMatrix) -> f64 {
        cycle_length(&self.order, |a, b| m.dist(a, b))
    }
}

impl fmt::Display for Tour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tour(len={:.3}, n={})", self.length, self.order.len())
    }
}

/// Length of the closed cycle through `order` under an arbitrary metric.
pub fn cycle_length<F: Fn(usize, usize) -> f64>(order: &[usize], dist: F) -> f64 {
    let n = order.len();
    if n < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        total += dist(order[i], order[(i + 1) % n]);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Point;

    fn unit_square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ]
    }

    #[test]
    fn from_order_computes_length() {
        let pts = unit_square();
        let m = DistanceMatrix::from_points(&pts);
        let t = Tour::from_order(vec![0, 1, 2, 3], &m);
        assert!((t.length - 4.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_order_is_longer() {
        let pts = unit_square();
        let m = DistanceMatrix::from_points(&pts);
        let good = Tour::from_order(vec![0, 1, 2, 3], &m);
        let crossed = Tour::from_order(vec![0, 2, 1, 3], &m);
        assert!(crossed.length > good.length);
    }

    #[test]
    fn validate_rejects_bad_orders() {
        let t = Tour {
            order: vec![0, 1, 1],
            length: 0.0,
        };
        assert!(!t.validate(3));
        let t2 = Tour {
            order: vec![0, 1],
            length: 0.0,
        };
        assert!(!t2.validate(3));
        let t3 = Tour {
            order: vec![0, 1, 3],
            length: 0.0,
        };
        assert!(!t3.validate(3));
    }

    #[test]
    fn tiny_cycles_have_expected_length() {
        assert_eq!(cycle_length(&[], |_, _| 1.0), 0.0);
        assert_eq!(cycle_length(&[0], |_, _| 1.0), 0.0);
        // Two points: out and back.
        assert_eq!(cycle_length(&[0, 1], |_, _| 3.0), 6.0);
    }

    #[test]
    #[should_panic(expected = "not a valid permutation")]
    fn from_order_panics_on_invalid() {
        let m = DistanceMatrix::from_points(&unit_square());
        let _ = Tour::from_order(vec![0, 0, 1, 2], &m);
    }
}

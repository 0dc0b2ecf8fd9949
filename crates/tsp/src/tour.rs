//! Closed tours as validated cyclic permutations.

use std::fmt;

/// A closed tour: a permutation of `0..n` visited cyclically, together
/// with its cached length.
///
/// The length is maintained by the construction and improvement routines;
/// [`Tour::recompute_length`] re-derives it from a metric when in doubt
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
    /// under the metric `dist`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of `0..order.len()`.
    pub fn from_order<F: Fn(usize, usize) -> f64>(order: Vec<usize>, dist: F) -> Self {
        let n = order.len();
        let mut t = Tour { order, length: 0.0 };
        assert!(t.validate(n), "order is not a valid permutation");
        t.length = t.recompute_length(dist);
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

    /// Recomputes the cyclic length under the metric `dist` (does not
    /// mutate the cached value; assign the result if desired).
    pub fn recompute_length<F: Fn(usize, usize) -> f64>(&self, dist: F) -> f64 {
        cycle_length(&self.order, dist)
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
    use crate::tests::line;
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
        let t = Tour::from_order(vec![0, 1, 2, 3], line(&pts));
        assert!((t.length - 4.0).abs() < 1e-12);
    }

    #[test]
    fn crossing_order_is_longer() {
        let pts = unit_square();
        let good = Tour::from_order(vec![0, 1, 2, 3], line(&pts));
        let crossed = Tour::from_order(vec![0, 2, 1, 3], line(&pts));
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
        let pts = unit_square();
        let _ = Tour::from_order(vec![0, 0, 1, 2], line(&pts));
    }
}

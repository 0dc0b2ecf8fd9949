//! Ellipse–circle tangency search (Theorems 4 and 5 of the paper).
//!
//! BC-OPT relocates an anchor point `C_i` to a point `C'_i` at distance `d`
//! from the original anchor so that the detour through its tour neighbours
//! `C_{i-1}` and `C_{i+1}` is as short as possible. Theorem 4 shows the
//! optimum is the tangency point of the circle `|P - C_i| = d` with the
//! smallest ellipse having foci `C_{i-1}` and `C_{i+1}` that touches the
//! circle; Theorem 5 shows that at the optimum the radius `C_i C'_i`
//! bisects the focal angle, which turns the search into a one-dimensional
//! root/extremum problem solvable in `O(log h)` rather than sweeping the
//! whole circle at discretisation `h`.
//!
//! [`min_focal_sum_on_circle`] implements the fast search (a coarse bracket
//! over a table of fixed sample directions + golden-section refinement,
//! logarithmic in the output precision).

use std::sync::LazyLock;

use crate::{Disk, Point};

/// Result of a tangency search on a circle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tangency {
    /// The minimizing point on the circle.
    pub point: Point,
    /// Angle of the minimizing point on the circle (radians from the
    /// positive x-axis around the circle center).
    pub theta: f64,
    /// The minimal focal sum `|P - f1| + |P - f2|`.
    pub focal_sum: f64,
}

/// Number of coarse samples used to bracket the global minimum before
/// golden-section refinement. The focal-sum function on a circle has at
/// most two local minima, so a moderate sample count brackets the global
/// one reliably.
pub const COARSE_SAMPLES: usize = 64;

/// Golden-section iterations; each shrinks the bracket by ~0.618, so 48
/// iterations refine a `2*pi/64` bracket below 1e-11 radians.
pub const REFINE_ITERS: usize = 48;

/// Focal-sum evaluations one [`min_focal_sum_on_circle`] call performs on
/// a circle of positive radius: the coarse samples, the golden-section
/// bracket's two interior points, then one per refinement iteration.
/// Public so profiling callers (the BC-OPT tighten stage) can attribute
/// golden-section work to their spans without re-deriving the search's
/// internals.
pub const EVALS_PER_SEARCH: usize = COARSE_SAMPLES + 2 + REFINE_ITERS;

/// Angle between two neighbouring coarse samples.
const COARSE_STEP: f64 = std::f64::consts::TAU / COARSE_SAMPLES as f64; // cast-ok: sample count to angle step

/// Unit direction of every coarse sample, `Point::from_angle(i * step)`.
/// `center + dir * radius` is bit for bit the point
/// [`Disk::boundary_point`] computes at that angle, without its `sin_cos`.
static COARSE_DIRS: LazyLock<[Point; COARSE_SAMPLES]> =
    LazyLock::new(|| std::array::from_fn(|i| Point::from_angle(i as f64 * COARSE_STEP))); // cast-ok: sample index to angle

/// Finds the point on `circle` minimizing the sum of distances to the two
/// foci `f1` and `f2` (the tangency point of Theorem 4).
///
/// Runs in `O(COARSE_SAMPLES + log(1/eps))` evaluations — the paper's
/// `O(log h)` bisector-guided search, implemented as a derivative-free
/// golden-section refinement of a coarse bracket (the golden-section
/// update and the bisector sign test of Theorem 5 locate the same
/// stationary point). A circle of positive radius costs exactly
/// [`EVALS_PER_SEARCH`] focal-sum evaluations.
///
/// For a degenerate circle (`radius == 0`) the center itself is returned.
///
/// # Example
///
/// ```
/// use bc_geom::{Disk, Point, tangency::min_focal_sum_on_circle};
///
/// // Foci left and right; circle centred above the segment. The best
/// // point is the bottom of the circle, pulled straight toward the
/// // segment between the foci.
/// let t = min_focal_sum_on_circle(
///     Point::new(-10.0, 0.0),
///     Point::new(10.0, 0.0),
///     &Disk::new(Point::new(0.0, 5.0), 1.0),
/// );
/// assert!(t.point.distance(Point::new(0.0, 4.0)) < 1e-6);
/// ```
pub fn min_focal_sum_on_circle(f1: Point, f2: Point, circle: &Disk) -> Tangency {
    search(f1, f2, circle).0
}

/// [`min_focal_sum_on_circle`], also returning how many focal sums it
/// evaluated.
fn search(f1: Point, f2: Point, circle: &Disk) -> (Tangency, usize) {
    if circle.radius == 0.0 {
        let focal_sum = circle.center.distance(f1) + circle.center.distance(f2);
        let t = Tangency {
            point: circle.center,
            theta: 0.0,
            focal_sum,
        };
        return (t, 1);
    }
    let mut evals = 0usize;
    let mut at = |p: Point| {
        evals += 1;
        (p, p.distance(f1) + p.distance(f2))
    };

    // Coarse scan over the tabled sample directions to bracket the
    // global minimum.
    let mut best_i = 0usize;
    let mut best_v = f64::INFINITY;
    for (i, &dir) in COARSE_DIRS.iter().enumerate() {
        let (_, v) = at(circle.center + dir * circle.radius);
        if v < best_v {
            best_v = v;
            best_i = i;
        }
    }
    let mut lo = (best_i as f64 - 1.0) * COARSE_STEP; // cast-ok: sample index to angle
    let mut hi = (best_i as f64 + 1.0) * COARSE_STEP; // cast-ok: sample index to angle

    // Golden-section refinement inside the bracket. Each probe keeps its
    // boundary point, so the winner is returned as evaluated.
    let mut g = |theta: f64| at(circle.boundary_point(theta));
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let (mut p1, mut g1) = g(x1);
    let (mut p2, mut g2) = g(x2);
    for _ in 0..REFINE_ITERS {
        if g1 <= g2 {
            hi = x2;
            (x2, p2, g2) = (x1, p1, g1);
            x1 = hi - INV_PHI * (hi - lo);
            (p1, g1) = g(x1);
        } else {
            lo = x1;
            (x1, p1, g1) = (x2, p2, g2);
            x2 = lo + INV_PHI * (hi - lo);
            (p2, g2) = g(x2);
        }
    }
    let (point, theta, focal_sum) = if g1 <= g2 { (p1, x1, g1) } else { (p2, x2, g2) };
    (
        Tangency {
            point,
            theta,
            focal_sum,
        },
        evals,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(p: Point) -> [u64; 2] {
        [p.x.to_bits(), p.y.to_bits()]
    }

    #[test]
    fn evals_per_search_counts_every_focal_sum() {
        assert_eq!(EVALS_PER_SEARCH, 114);
        let circles = [
            Disk::new(Point::new(0.0, 5.0), 2.0),
            Disk::new(Point::new(2.0, 1.5), 1e-6),
            Disk::new(Point::new(-7.0, 0.5), 30.0),
        ];
        for (f1, f2) in [
            (Point::new(-3.0, 4.0), Point::new(8.0, -1.0)),
            (Point::ORIGIN, Point::ORIGIN),
        ] {
            for circle in &circles {
                let (t, evals) = search(f1, f2, circle);
                assert_eq!(evals, EVALS_PER_SEARCH);
                // The stored winner is what re-evaluating its angle gives.
                let p = circle.boundary_point(t.theta);
                assert_eq!(bits(t.point), bits(p));
                let sum = p.distance(f1) + p.distance(f2);
                assert_eq!(t.focal_sum.to_bits(), sum.to_bits());
            }
        }
    }

    #[test]
    fn coarse_table_matches_boundary_points_bit_for_bit() {
        let circle = Disk::new(Point::new(3.7, -1.2), 12.5);
        let step = std::f64::consts::TAU / COARSE_SAMPLES as f64;
        for (i, &dir) in COARSE_DIRS.iter().enumerate() {
            let want = circle.boundary_point(i as f64 * step);
            assert_eq!(bits(circle.center + dir * circle.radius), bits(want));
        }
    }

    #[test]
    fn symmetric_case_hits_midline() {
        // Symmetric foci, circle on the perpendicular bisector: the optimum
        // is the boundary point nearest the focal segment.
        let t = min_focal_sum_on_circle(
            Point::new(-4.0, 0.0),
            Point::new(4.0, 0.0),
            &Disk::new(Point::new(0.0, 10.0), 3.0),
        );
        assert!(t.point.distance(Point::new(0.0, 7.0)) < 1e-6);
    }

    #[test]
    fn result_is_on_the_circle() {
        let circle = Disk::new(Point::new(3.0, -2.0), 2.5);
        let t = min_focal_sum_on_circle(Point::new(-5.0, 1.0), Point::new(9.0, 4.0), &circle);
        assert!((t.point.distance(circle.center) - circle.radius).abs() < 1e-9);
    }

    #[test]
    fn zero_radius_returns_center() {
        let c = Point::new(2.0, 3.0);
        let t = min_focal_sum_on_circle(Point::ORIGIN, Point::new(10.0, 0.0), &Disk::new(c, 0.0));
        assert_eq!(t.point, c);
    }

    #[test]
    fn circle_between_foci_degenerate_min() {
        // Circle centred on the focal segment: minimum focal sum is exactly
        // the focal distance when the circle crosses the segment.
        let (f1, f2) = (Point::new(-10.0, 0.0), Point::new(10.0, 0.0));
        let t = min_focal_sum_on_circle(f1, f2, &Disk::new(Point::new(0.0, 0.0), 1.0));
        assert!((t.focal_sum - 20.0).abs() < 1e-9);
    }

    #[test]
    fn improving_over_original_center() {
        // Moving toward the chord between the foci always improves the sum
        // when the circle center is off the focal segment.
        let circle = Disk::new(Point::new(0.0, 5.0), 1.0);
        let (f1, f2) = (Point::new(-10.0, 0.0), Point::new(10.0, 0.0));
        let t = min_focal_sum_on_circle(f1, f2, &circle);
        let at_center = circle.center.distance(f1) + circle.center.distance(f2);
        assert!(t.focal_sum < at_center);
    }
}

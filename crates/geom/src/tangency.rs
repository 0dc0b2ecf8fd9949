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
//! logarithmic in the output precision);
//! [`min_focal_sum_on_circle_exhaustive`] is the `O(h)` reference sweep the
//! theorems were designed to avoid, retained for verification.

use std::sync::LazyLock;

use crate::{Disk, Ellipse, Point};

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
/// stationary point; see [`focal_sum_derivative`]). A circle of positive
/// radius costs exactly [`EVALS_PER_SEARCH`] focal-sum evaluations.
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

/// Reference `O(h)` exhaustive sweep at discretisation `h`: evaluates the
/// focal sum at `h` equally spaced angles and returns the best sample.
///
/// This is the brute-force search Theorems 4–5 replace; tests compare the
/// fast search against it.
///
/// # Panics
///
/// Panics if `h == 0`.
pub fn min_focal_sum_on_circle_exhaustive(
    f1: Point,
    f2: Point,
    circle: &Disk,
    h: usize,
) -> Tangency {
    assert!(h > 0, "discretisation level must be positive");
    let mut best = Tangency {
        point: circle.boundary_point(0.0),
        theta: 0.0,
        focal_sum: f64::INFINITY,
    };
    for i in 0..h {
        let theta = i as f64 * std::f64::consts::TAU / h as f64; // cast-ok: sample index to angle
        let p = circle.boundary_point(theta);
        let s = p.distance(f1) + p.distance(f2);
        if s < best.focal_sum {
            best = Tangency {
                point: p,
                theta,
                focal_sum: s,
            };
        }
    }
    best
}

/// Derivative of the focal sum along the circle at angle `theta`:
/// `d/d_theta [ |P(theta) - f1| + |P(theta) - f2| ]`.
///
/// The derivative vanishes exactly when the tangent of the circle is
/// perpendicular to the bisector of the focal rays — i.e. when the radius
/// `C_i P` bisects the angle `f1 - P - f2`, which is Theorem 5's
/// characterisation of the optimum. Exposed so tests (and alternative
/// bisection-based searches) can verify the property.
pub fn focal_sum_derivative(f1: Point, f2: Point, circle: &Disk, theta: f64) -> f64 {
    let p = circle.boundary_point(theta);
    let tangent = Point::new(-theta.sin(), theta.cos()) * circle.radius;
    let mut d = 0.0;
    for f in [f1, f2] {
        if let Some(u) = (p - f).normalized() {
            d += tangent.dot(u);
        }
    }
    d
}

/// Angle (radians) between the inward radius direction at `p` and the
/// bisector of the focal rays — the residual of Theorem 5's optimality
/// condition. Near zero iff `p` is a stationary point of the focal sum on
/// the circle.
pub fn bisector_residual(f1: Point, f2: Point, circle: &Disk, p: Point) -> f64 {
    let radius_dir = match (circle.center - p).normalized() {
        Some(v) => v,
        None => return 0.0,
    };
    let u = (p - f1).normalized().unwrap_or(Point::ORIGIN);
    let v = (p - f2).normalized().unwrap_or(Point::ORIGIN);
    let bisector = match (u + v).normalized() {
        Some(b) => b,
        None => return 0.0,
    };
    // The circle lies outside the tangent ellipse, so at the optimum the
    // ellipse's outward normal (the focal bisector) points from `p`
    // toward the circle center: the two directions are parallel.
    let cosang = radius_dir.dot(bisector).clamp(-1.0, 1.0);
    cosang.acos()
}

/// The ellipse through the tangency point with the given foci — the level
/// set of Theorem 4. Useful for visualisation and verification: the circle
/// lies entirely outside (or on) this ellipse.
pub fn tangent_ellipse(f1: Point, f2: Point, circle: &Disk) -> Ellipse {
    let t = min_focal_sum_on_circle(f1, f2, circle);
    Ellipse::new(f1, f2, t.focal_sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exhaustive_sweep() {
        let cases = [
            (Point::new(-10.0, 0.0), Point::new(10.0, 0.0), Point::new(0.0, 5.0), 2.0),
            (Point::new(0.0, 0.0), Point::new(7.0, 3.0), Point::new(2.0, 9.0), 1.5),
            (Point::new(-1.0, -1.0), Point::new(1.0, 1.0), Point::new(8.0, -4.0), 3.0),
            (Point::new(5.0, 5.0), Point::new(5.0, 5.0), Point::new(0.0, 0.0), 2.0),
        ];
        for (f1, f2, c, r) in cases {
            let circle = Disk::new(c, r);
            let fast = min_focal_sum_on_circle(f1, f2, &circle);
            let slow = min_focal_sum_on_circle_exhaustive(f1, f2, &circle, 20_000);
            assert!(
                fast.focal_sum <= slow.focal_sum + 1e-6,
                "fast {} worse than sweep {}",
                fast.focal_sum,
                slow.focal_sum
            );
        }
    }

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
    fn derivative_vanishes_at_optimum() {
        let circle = Disk::new(Point::new(1.0, 6.0), 2.0);
        let (f1, f2) = (Point::new(-8.0, 0.0), Point::new(9.0, -1.0));
        let t = min_focal_sum_on_circle(f1, f2, &circle);
        let d = focal_sum_derivative(f1, f2, &circle, t.theta);
        assert!(d.abs() < 1e-6, "derivative at optimum: {d}");
    }

    #[test]
    fn theorem5_bisector_property_holds() {
        let circle = Disk::new(Point::new(0.0, 8.0), 3.0);
        let (f1, f2) = (Point::new(-6.0, 0.0), Point::new(10.0, 2.0));
        let t = min_focal_sum_on_circle(f1, f2, &circle);
        let residual = bisector_residual(f1, f2, &circle, t.point);
        assert!(residual < 1e-5, "bisector residual {residual}");
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
    fn tangent_ellipse_excludes_circle_interior() {
        let circle = Disk::new(Point::new(0.0, 7.0), 2.0);
        let (f1, f2) = (Point::new(-5.0, 0.0), Point::new(5.0, 0.0));
        let e = tangent_ellipse(f1, f2, &circle);
        // Every circle boundary point has focal sum >= the tangent level.
        for i in 0..256 {
            let p = circle.boundary_point(i as f64 * std::f64::consts::TAU / 256.0);
            assert!(e.focal_sum(p) >= e.focal_sum_constant() - 1e-9);
        }
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

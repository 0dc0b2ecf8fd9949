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
//! logarithmic in the output precision). [`min_focal_sum_with_cut`] is the
//! same search for a caller that may not need its answer: after the coarse
//! scan and at a few fixed points of the refinement it hands the caller an
//! [`AnswerArc`], an arc of the circle the answer is certain to lie on, and
//! it stops as soon as the caller's cut test says that no point of the arc
//! can matter. There is one golden-section loop: the plain search is the
//! cut-aware one with a test that never fires.

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

/// An arc of the circle that a [`min_focal_sum_with_cut`] search's answer
/// lies on: the answer's angle is within `half_width` radians of the
/// reference angle `theta`. The reference is a point the search has
/// already evaluated, so its focal sum comes at no cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerArc {
    /// Angle of the reference point (radians, as [`Tangency::theta`]).
    pub theta: f64,
    /// Unit direction of the reference point from the circle's centre,
    /// bit for bit `Point::from_angle(theta)`.
    pub dir: Point,
    /// The reference point, `center + dir * radius`.
    pub point: Point,
    /// The reference point's focal sum, as the search evaluated it.
    pub focal_sum: f64,
    /// Half-width of the arc around `theta`, in radians.
    pub half_width: f64,
}

/// Number of coarse samples used to bracket the global minimum before
/// golden-section refinement. The focal-sum function on a circle has at
/// most two local minima, so a moderate sample count brackets the global
/// one reliably.
pub const COARSE_SAMPLES: usize = 64;

/// Golden-section iterations; each shrinks the bracket by ~0.618, so 48
/// iterations refine a `2*pi/64` bracket below 1e-11 radians.
pub const REFINE_ITERS: usize = 48;

/// Focal-sum evaluations of a search that runs to its end on a circle of
/// positive radius (every [`min_focal_sum_on_circle`] call, and a
/// [`min_focal_sum_with_cut`] call whose cut never fires): the coarse
/// samples, the golden-section bracket's two interior points, then one
/// per refinement iteration. A search its cut stops makes fewer. Public
/// so profiling callers (the BC-OPT tighten stage) can attribute
/// golden-section work to their spans without re-deriving the search's
/// internals.
pub const EVALS_PER_SEARCH: usize = COARSE_SAMPLES + 2 + REFINE_ITERS;

/// The refinement iterations before which [`min_focal_sum_with_cut`]
/// hands its caller an arc, besides the arc after the coarse scan.
const CUT_CHECKPOINTS: [usize; 3] = [6, 12, 24];

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
    search(f1, f2, circle, |_| false)
        .0
        .unwrap_or_else(|| unreachable!("a cut that never fires never stops the search"))
}

/// [`min_focal_sum_on_circle`] for a caller that needs the answer only
/// when it can matter: the search returns `None` as soon as `cut` returns
/// `true` for an arc it hands over, and otherwise the answer
/// [`min_focal_sum_on_circle`] returns, bit for bit.
///
/// On a circle of positive radius the search hands `cut` an
/// [`AnswerArc`] after its coarse scan and again before refinement
/// iterations 6, 12 and 24 of [`REFINE_ITERS`], and the answer's angle
/// lies within each arc's half-width of the arc's reference angle. The
/// refinement never leaves its bracket: after the scan that is
/// `[(i - 1) step, (i + 1) step]` around the best sample `i`, so the
/// first arc's reference is sample `i` and its half-width one step.
/// Later the reference is whichever of the bracket's two interior points
/// has the smaller focal sum, and the half-width is the bracket's width.
/// A degenerate circle returns its centre without asking. A search that
/// runs to its end makes [`EVALS_PER_SEARCH`] evaluations; a stopped one
/// makes fewer.
///
/// # Example
///
/// ```
/// use bc_geom::tangency::{min_focal_sum_with_cut, AnswerArc};
/// use bc_geom::{Disk, Point};
///
/// let (f1, f2) = (Point::new(-10.0, 0.0), Point::new(10.0, 0.0));
/// let circle = Disk::new(Point::new(0.0, 5.0), 1.0);
/// // The focal sum is 2-Lipschitz, so no point of an arc is below its
/// // reference's sum minus twice the arc's half length. A caller that
/// // wants the answer only below 21 learns after the coarse scan that
/// // the minimum (about 21.54) is not.
/// let cut = |arc: &AnswerArc| arc.focal_sum - 2.0 * circle.radius * arc.half_width >= 21.0;
/// assert!(min_focal_sum_with_cut(f1, f2, &circle, cut).is_none());
/// let t = min_focal_sum_with_cut(f1, f2, &circle, |_| false).unwrap();
/// assert!(t.point.distance(Point::new(0.0, 4.0)) < 1e-6);
/// ```
pub fn min_focal_sum_with_cut(
    f1: Point,
    f2: Point,
    circle: &Disk,
    cut: impl FnMut(&AnswerArc) -> bool,
) -> Option<Tangency> {
    search(f1, f2, circle, cut).0
}

/// [`min_focal_sum_with_cut`], also returning how many focal sums it
/// evaluated.
fn search(
    f1: Point,
    f2: Point,
    circle: &Disk,
    mut cut: impl FnMut(&AnswerArc) -> bool,
) -> (Option<Tangency>, usize) {
    if circle.radius == 0.0 {
        let focal_sum = circle.center.distance(f1) + circle.center.distance(f2);
        let t = Tangency {
            point: circle.center,
            theta: 0.0,
            focal_sum,
        };
        return (Some(t), 1);
    }
    let mut evals = 0usize;
    let mut at = |p: Point| {
        evals += 1;
        p.distance(f1) + p.distance(f2)
    };

    // Coarse scan over the tabled sample directions to bracket the
    // global minimum.
    let mut best_i = 0usize;
    let mut best_v = f64::INFINITY;
    for (i, &dir) in COARSE_DIRS.iter().enumerate() {
        let v = at(circle.center + dir * circle.radius);
        if v < best_v {
            best_v = v;
            best_i = i;
        }
    }
    let dir = COARSE_DIRS[best_i];
    let scanned = AnswerArc {
        theta: best_i as f64 * COARSE_STEP, // cast-ok: sample index to angle
        dir,
        point: circle.center + dir * circle.radius,
        focal_sum: best_v,
        half_width: COARSE_STEP,
    };
    if cut(&scanned) {
        return (None, evals);
    }
    let mut lo = (best_i as f64 - 1.0) * COARSE_STEP; // cast-ok: sample index to angle
    let mut hi = (best_i as f64 + 1.0) * COARSE_STEP; // cast-ok: sample index to angle

    // Golden-section refinement inside the bracket. Each probe keeps its
    // direction and boundary point, so the winner is returned as
    // evaluated and an arc's reference is handed over as evaluated.
    let mut g = |theta: f64| {
        let dir = Point::from_angle(theta);
        let p = circle.center + dir * circle.radius;
        (dir, p, at(p))
    };
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut x1 = hi - INV_PHI * (hi - lo);
    let mut x2 = lo + INV_PHI * (hi - lo);
    let (mut d1, mut p1, mut g1) = g(x1);
    let (mut d2, mut p2, mut g2) = g(x2);
    for iter in 0..REFINE_ITERS {
        if CUT_CHECKPOINTS.contains(&iter) {
            let (theta, dir, point, focal_sum) = if g1 <= g2 {
                (x1, d1, p1, g1)
            } else {
                (x2, d2, p2, g2)
            };
            let arc = AnswerArc {
                theta,
                dir,
                point,
                focal_sum,
                half_width: hi - lo,
            };
            if cut(&arc) {
                return (None, evals);
            }
        }
        if g1 <= g2 {
            hi = x2;
            (x2, d2, p2, g2) = (x1, d1, p1, g1);
            x1 = hi - INV_PHI * (hi - lo);
            (d1, p1, g1) = g(x1);
        } else {
            lo = x1;
            (x1, d1, p1, g1) = (x2, d2, p2, g2);
            x2 = lo + INV_PHI * (hi - lo);
            (d2, p2, g2) = g(x2);
        }
    }
    let (point, theta, focal_sum) = if g1 <= g2 { (p1, x1, g1) } else { (p2, x2, g2) };
    let t = Tangency {
        point,
        theta,
        focal_sum,
    };
    (Some(t), evals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
                let plain = min_focal_sum_on_circle(f1, f2, circle);
                for (t, evals) in [
                    search(f1, f2, circle, |_| false),
                    // The cut-aware search asked at every arc, never cut.
                    search(f1, f2, circle, |arc| arc.half_width < 0.0),
                ] {
                    let t = t.expect("a cut that never fires runs to the end");
                    assert_eq!(evals, EVALS_PER_SEARCH);
                    assert_eq!(bits(t.point), bits(plain.point));
                    assert_eq!(t.theta.to_bits(), plain.theta.to_bits());
                    assert_eq!(t.focal_sum.to_bits(), plain.focal_sum.to_bits());
                    // The stored winner is what re-evaluating its angle gives.
                    let p = circle.boundary_point(t.theta);
                    assert_eq!(bits(t.point), bits(p));
                    let sum = p.distance(f1) + p.distance(f2);
                    assert_eq!(t.focal_sum.to_bits(), sum.to_bits());
                }
            }
        }
    }

    #[test]
    fn every_arc_holds_the_answer_it_hands_over() {
        let mut rng = SmallRng::seed_from_u64(33);
        let mut point = |span: f64| {
            let (x, y): (f64, f64) = (rng.random_range(-0.5..0.5), rng.random_range(-0.5..0.5));
            Point::new(span * x, span * y)
        };
        let mut cases = Vec::new();
        for radius in [1e-6, 0.3, 4.0, 30.0] {
            for _ in 0..40 {
                let circle = Disk::new(point(60.0), radius);
                let (f1, f2) = (point(120.0), point(120.0));
                cases.push((f1, f2, circle));
                // Equal foci, and a focus on the circle.
                cases.push((f1, f1, circle));
                let on = circle.boundary_point(point(12.0).x);
                cases.push((on, f2, circle));
                cases.push((f1, on, circle));
            }
        }
        // A focus on the circle at a coarse sample's angle, where the
        // scan's reference point is the focus itself.
        let circle = Disk::new(Point::new(1.0, 2.0), 5.0);
        let on = circle.center + COARSE_DIRS[40] * circle.radius;
        cases.push((on, on, circle));
        cases.push((on, Point::new(-9.0, 3.0), circle));

        for (f1, f2, circle) in cases {
            let mut arcs = Vec::new();
            let t = min_focal_sum_with_cut(f1, f2, &circle, |arc| {
                arcs.push(*arc);
                false
            })
            .expect("a cut that never fires runs to the end");
            assert_eq!(arcs.len(), 1 + CUT_CHECKPOINTS.len());
            assert_eq!(arcs[0].half_width, COARSE_STEP);
            for arc in &arcs {
                let label = format!("{f1:?} {f2:?} {circle:?} {arc:?} -> {}", t.theta);
                assert!((t.theta - arc.theta).abs() <= arc.half_width, "{label}");
                // The reference is the point evaluated at its angle, with
                // the focal sum evaluated there.
                assert_eq!(bits(arc.dir), bits(Point::from_angle(arc.theta)), "{label}");
                assert_eq!(
                    bits(arc.point),
                    bits(circle.center + arc.dir * circle.radius)
                );
                let sum = arc.point.distance(f1) + arc.point.distance(f2);
                assert_eq!(arc.focal_sum.to_bits(), sum.to_bits(), "{label}");
            }
            // Each checkpoint's arc is narrower than the one before it.
            assert!(arcs.windows(2).all(|w| w[1].half_width < w[0].half_width));
        }
    }

    #[test]
    fn a_cut_stops_the_search_at_the_arc_it_fires_on() {
        let (f1, f2) = (Point::new(-3.0, 4.0), Point::new(8.0, -1.0));
        let circle = Disk::new(Point::new(0.0, 5.0), 2.0);
        for stop_at in 0..=CUT_CHECKPOINTS.len() {
            let mut seen = 0;
            let (t, evals) = search(f1, f2, &circle, |_| {
                seen += 1;
                seen > stop_at
            });
            assert!(t.is_none());
            assert_eq!(seen, stop_at + 1);
            let refined = [
                0,
                2 + CUT_CHECKPOINTS[0],
                2 + CUT_CHECKPOINTS[1],
                2 + CUT_CHECKPOINTS[2],
            ];
            assert_eq!(evals, COARSE_SAMPLES + refined[stop_at]);
        }
        // A degenerate circle answers without asking.
        let centre = Disk::new(Point::new(1.0, 1.0), 0.0);
        let t = min_focal_sum_with_cut(f1, f2, &centre, |_| true).expect("no arc to cut");
        assert_eq!(t.point, centre.center);
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

//! Smallest enclosing disk (the paper's `MinDisk`, Algorithm 1).
//!
//! Implements Welzl's randomized incremental algorithm with expected linear
//! running time, in the iterative formulation that avoids deep recursion.
//! The decisional variant [`fits_in_radius`] is what the charging-bundle
//! generator calls to test whether a candidate group of sensors can form a
//! bundle of radius at most `r`.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{Disk, Point, EPS};

/// Computes the smallest enclosing disk of a set of points.
///
/// Runs Welzl's algorithm on an internally shuffled copy (seeded, so the
/// function is deterministic for a given input). The result is exact up to
/// floating-point rounding: every input point is contained (within [`EPS`])
/// and the disk is supported by at most three input points.
///
/// For the empty input the degenerate disk at the origin with radius `0` is
/// returned.
///
/// # Example
///
/// ```
/// use bc_geom::{Point, sed::smallest_enclosing_disk};
///
/// let pts = [Point::new(0.0, 0.0), Point::new(4.0, 0.0)];
/// let d = smallest_enclosing_disk(&pts);
/// assert!((d.radius - 2.0).abs() < 1e-9);
/// ```
pub fn smallest_enclosing_disk(points: &[Point]) -> Disk {
    match points.len() {
        0 => return Disk::point(Point::ORIGIN),
        1 => return Disk::point(points[0]),
        2 => return Disk::from_diameter(points[0], points[1]),
        _ => {}
    }
    let mut pts = points.to_vec();
    // Deterministic shuffle: expected O(n) independent of input order while
    // keeping the library reproducible run-to-run.
    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5eed_d15c);
    pts.shuffle(&mut rng);
    welzl_incremental(&pts)
}

/// Decisional `MinDisk`: can `points` be enclosed by a disk of radius at
/// most `r`?
///
/// Equivalent to `smallest_enclosing_disk(points).radius <= r + EPS` but
/// named for how Algorithm 2 of the paper uses it.
pub fn fits_in_radius(points: &[Point], r: f64) -> bool {
    smallest_enclosing_disk(points).radius <= r + EPS
}

/// Welzl's incremental construction on an already-shuffled slice.
fn welzl_incremental(pts: &[Point]) -> Disk {
    let mut d = Disk::from_diameter(pts[0], pts[1]);
    for i in 2..pts.len() {
        if !d.contains(pts[i]) {
            d = disk_with_one_boundary(&pts[..i], pts[i]);
        }
    }
    d
}

/// Smallest disk enclosing `pts` with `p` on its boundary.
fn disk_with_one_boundary(pts: &[Point], p: Point) -> Disk {
    let mut d = Disk::point(p);
    for i in 0..pts.len() {
        if !d.contains(pts[i]) {
            d = disk_with_two_boundary(&pts[..i], p, pts[i]);
        }
    }
    d
}

/// Smallest disk enclosing `pts` with `p` and `q` on its boundary.
fn disk_with_two_boundary(pts: &[Point], p: Point, q: Point) -> Disk {
    let mut d = Disk::from_diameter(p, q);
    for &s in pts {
        if !d.contains(s) {
            d = circum_or_fallback(p, q, s);
        }
    }
    d
}

/// Circumdisk of three points, falling back to the largest pairwise
/// diameter disk for (nearly) collinear triples.
fn circum_or_fallback(a: Point, b: Point, c: Point) -> Disk {
    if let Some(d) = Disk::circumscribing(a, b, c) {
        return d;
    }
    let dab = Disk::from_diameter(a, b);
    let dbc = Disk::from_diameter(b, c);
    let dac = Disk::from_diameter(a, c);
    let mut best = dab;
    for d in [dbc, dac] {
        if d.radius > best.radius {
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_encloses(d: &Disk, pts: &[Point]) {
        for &p in pts {
            assert!(
                d.contains(p),
                "disk {d} does not contain {p} (dist {})",
                d.center.distance(p)
            );
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(smallest_enclosing_disk(&[]).radius, 0.0);
        let p = Point::new(3.0, 4.0);
        let d = smallest_enclosing_disk(&[p]);
        assert_eq!(d.center, p);
        assert_eq!(d.radius, 0.0);
    }

    #[test]
    fn two_points_diameter() {
        let d = smallest_enclosing_disk(&[Point::new(-1.0, 0.0), Point::new(1.0, 0.0)]);
        assert!(d.center.distance(Point::ORIGIN) < 1e-12);
        assert!((d.radius - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equilateral_triangle() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.5, 3f64.sqrt() / 2.0),
        ];
        let d = smallest_enclosing_disk(&pts);
        assert_encloses(&d, &pts);
        // Circumradius of a unit equilateral triangle is 1/sqrt(3).
        assert!((d.radius - 1.0 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn obtuse_triangle_uses_diameter() {
        // Very obtuse: the SED is the diameter disk of the two far points.
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 0.1),
        ];
        let d = smallest_enclosing_disk(&pts);
        assert_encloses(&d, &pts);
        assert!((d.radius - 5.0).abs() < 1e-6);
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point> = (0..10)
            .map(|i| Point::new(i as f64, 2.0 * i as f64))
            .collect();
        let d = smallest_enclosing_disk(&pts);
        assert_encloses(&d, &pts);
        let expected = pts[0].distance(pts[9]) / 2.0;
        assert!((d.radius - expected).abs() < 1e-9);
    }

    #[test]
    fn duplicated_points() {
        let pts = vec![Point::new(1.0, 1.0); 20];
        let d = smallest_enclosing_disk(&pts);
        assert!(d.radius < 1e-12);
        assert!(d.center.distance(Point::new(1.0, 1.0)) < 1e-12);
    }

    #[test]
    fn decisional_variant_consistent() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 1.0),
        ];
        let d = smallest_enclosing_disk(&pts);
        assert!(fits_in_radius(&pts, d.radius + 0.01));
        assert!(fits_in_radius(&pts, d.radius));
        assert!(!fits_in_radius(&pts, d.radius - 0.01));
    }

    #[test]
    fn order_invariance() {
        let mut pts: Vec<Point> = (0..30)
            .map(|i| Point::new((i as f64 * 0.7).sin() * 5.0, (i as f64 * 1.3).cos() * 5.0))
            .collect();
        let d1 = smallest_enclosing_disk(&pts);
        pts.reverse();
        let d2 = smallest_enclosing_disk(&pts);
        assert!((d1.radius - d2.radius).abs() < 1e-9);
        assert!(d1.center.distance(d2.center) < 1e-6);
    }

    #[test]
    fn points_on_circle() {
        // 16 points on a circle of radius 7 centred at (3, -1).
        let c = Point::new(3.0, -1.0);
        let pts: Vec<Point> = (0..16)
            .map(|i| c + Point::from_angle(i as f64 * std::f64::consts::TAU / 16.0) * 7.0)
            .collect();
        let d = smallest_enclosing_disk(&pts);
        assert!((d.radius - 7.0).abs() < 1e-9);
        assert!(d.center.distance(c) < 1e-6);
    }
}

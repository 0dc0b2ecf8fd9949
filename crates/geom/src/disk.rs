//! Closed disks in the plane.

use std::fmt;
use std::ops::Deref;

use serde::{Deserialize, Serialize};

use crate::{Point, EPS};

/// A closed disk: all points within `radius` of `center`.
///
/// Charging bundles are represented by the smallest enclosing disk of their
/// member sensors; the disk's center is the *anchor point* from which the
/// mobile charger transmits.
///
/// # Example
///
/// ```
/// use bc_geom::{Disk, Point};
///
/// let d = Disk::new(Point::new(0.0, 0.0), 1.0);
/// assert!(d.contains(Point::new(0.5, 0.5)));
/// assert!(!d.contains(Point::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    /// Center of the disk.
    pub center: Point,
    /// Radius of the disk, non-negative.
    pub radius: f64,
}

impl Disk {
    /// Creates a disk from a center and a radius.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "disk radius must be finite and non-negative, got {radius}"
        );
        Disk { center, radius }
    }

    /// The degenerate disk containing only `p`.
    pub fn point(p: Point) -> Self {
        Disk {
            center: p,
            radius: 0.0,
        }
    }

    /// The smallest disk with segment `ab` as a diameter.
    pub fn from_diameter(a: Point, b: Point) -> Self {
        Disk {
            center: a.midpoint(b),
            radius: a.distance(b) / 2.0,
        }
    }

    /// The circumdisk of three points, or `None` when they are (nearly)
    /// collinear and no finite circumcircle exists.
    ///
    /// # Example
    ///
    /// ```
    /// use bc_geom::{Disk, Point};
    ///
    /// let d = Disk::circumscribing(
    ///     Point::new(0.0, 0.0),
    ///     Point::new(2.0, 0.0),
    ///     Point::new(1.0, 1.0),
    /// ).unwrap();
    /// assert!((d.center.x - 1.0).abs() < 1e-12);
    /// ```
    pub fn circumscribing(a: Point, b: Point, c: Point) -> Option<Self> {
        let ab = b - a;
        let ac = c - a;
        let d = 2.0 * ab.cross(ac);
        if d.abs() < 1e-12 {
            return None;
        }
        let ab2 = ab.norm_squared();
        let ac2 = ac.norm_squared();
        let ux = (ac.y * ab2 - ab.y * ac2) / d;
        let uy = (ab.x * ac2 - ac.x * ab2) / d;
        let center = Point::new(a.x + ux, a.y + uy);
        Some(Disk {
            center,
            radius: center.distance(a),
        })
    }

    /// Whether `p` lies inside the disk, with the crate-wide [`EPS`]
    /// tolerance applied on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.distance_squared(p) <= (self.radius + EPS) * (self.radius + EPS)
    }

    /// The (0, 1, or 2) intersection points of the two disks' boundary
    /// circles, without allocating.
    ///
    /// Tangent circles report a single point. Concentric or too-distant
    /// circles report none. These intersection points are the exact
    /// candidate anchor family used by the optimal bundle generator: any
    /// maximal set of sensors coverable by a radius-`r` disk is covered by a
    /// disk centred at a sensor or at one of these pairwise intersections.
    pub fn circle_intersections(&self, other: &Disk) -> Crossings {
        let none = Crossings::default();
        let d = self.center.distance(other.center);
        if d < EPS {
            return none; // concentric: zero or infinitely many
        }
        let (r0, r1) = (self.radius, other.radius);
        if d > r0 + r1 + EPS || d < (r0 - r1).abs() - EPS {
            return none;
        }
        // Distance from self.center to the radical line along the center line.
        let a = (r0 * r0 - r1 * r1 + d * d) / (2.0 * d);
        let h2 = r0 * r0 - a * a;
        let dir = (other.center - self.center) / d;
        let base = self.center + dir * a;
        if h2 <= EPS * EPS {
            return Crossings {
                points: [base, Point::ORIGIN],
                len: 1,
            };
        }
        let h = h2.sqrt();
        let off = Point::new(-dir.y, dir.x) * h;
        Crossings {
            points: [base + off, base - off],
            len: 2,
        }
    }

    /// Area of the disk.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// The point on the disk's boundary at `angle` radians from the
    /// positive x-axis.
    pub fn boundary_point(&self, angle: f64) -> Point {
        self.center + Point::from_angle(angle) * self.radius
    }
}

/// The crossing points of two circles, as [`Disk::circle_intersections`]
/// returns them: held inline, read as a slice or iterated by value.
#[derive(Debug, Clone, Copy, Default)]
pub struct Crossings {
    points: [Point; 2],
    len: usize,
}

impl Deref for Crossings {
    type Target = [Point];

    fn deref(&self) -> &[Point] {
        &self.points[..self.len]
    }
}

impl IntoIterator for Crossings {
    type Item = Point;
    type IntoIter = std::iter::Take<std::array::IntoIter<Point, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.points.into_iter().take(self.len)
    }
}

impl fmt::Display for Disk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Disk[{} r={:.3}]", self.center, self.radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diameter_disk_contains_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let d = Disk::from_diameter(a, b);
        assert!(d.contains(a) && d.contains(b));
        assert_eq!(d.center, Point::new(2.0, 0.0));
        assert_eq!(d.radius, 2.0);
    }

    #[test]
    fn circumscribing_right_triangle() {
        // For a right triangle, circumcenter is the hypotenuse midpoint.
        let d = Disk::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 3.0),
        )
        .unwrap();
        assert!(d.center.distance(Point::new(2.0, 1.5)) < 1e-12);
        assert!((d.radius - 2.5).abs() < 1e-12);
    }

    #[test]
    fn circumscribing_collinear_is_none() {
        assert!(Disk::circumscribing(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        )
        .is_none());
    }

    #[test]
    fn containment_tolerance_on_boundary() {
        let d = Disk::new(Point::ORIGIN, 1.0);
        assert!(d.contains(Point::new(1.0, 0.0)));
    }

    #[test]
    fn intersections_two_points() {
        let a = Disk::new(Point::new(0.0, 0.0), 1.0);
        let b = Disk::new(Point::new(1.0, 0.0), 1.0);
        let pts = a.circle_intersections(&b);
        assert_eq!(pts.len(), 2);
        for p in pts {
            assert!((p.distance(a.center) - 1.0).abs() < 1e-9);
            assert!((p.distance(b.center) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn intersections_tangent_single_point() {
        let a = Disk::new(Point::new(0.0, 0.0), 1.0);
        let b = Disk::new(Point::new(2.0, 0.0), 1.0);
        let pts = a.circle_intersections(&b);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].distance(Point::new(1.0, 0.0)) < 1e-6);
    }

    #[test]
    fn intersections_disjoint_empty() {
        let a = Disk::new(Point::new(0.0, 0.0), 1.0);
        let b = Disk::new(Point::new(5.0, 0.0), 1.0);
        assert!(a.circle_intersections(&b).is_empty());
        // Nested without touching:
        let c = Disk::new(Point::new(0.1, 0.0), 0.1);
        assert!(a.circle_intersections(&c).is_empty());
    }

    #[test]
    fn boundary_point_is_on_boundary() {
        let d = Disk::new(Point::new(3.0, -2.0), 2.5);
        for i in 0..8 {
            let p = d.boundary_point(i as f64);
            assert!((p.distance(d.center) - d.radius).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn negative_radius_panics() {
        let _ = Disk::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn area_unit_disk() {
        let d = Disk::new(Point::ORIGIN, 1.0);
        assert!((d.area() - std::f64::consts::PI).abs() < 1e-12);
    }
}

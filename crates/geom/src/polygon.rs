//! Simple polygons (obstacle footprints).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Point, Segment};

/// A simple polygon given by its vertices in counter-clockwise order.
///
/// Used as obstacle footprints for obstacle-aware charger routing: the
/// paper's network model assumes an obstacle-free field, but its
/// formulation (Table I) defines inter-anchor distance as a *shortest
/// path*, which this type makes concrete.
///
/// # Example
///
/// ```
/// use bc_geom::{Point, Polygon};
///
/// let square = Polygon::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 0.0),
///     Point::new(2.0, 2.0),
///     Point::new(0.0, 2.0),
/// ]).unwrap();
/// assert!(square.contains(Point::new(1.0, 1.0)));
/// assert!(!square.contains(Point::new(3.0, 1.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Point>,
}

/// Error constructing a [`Polygon`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolygonError {
    /// Fewer than three vertices.
    TooFewVertices,
    /// Two consecutive vertices coincide.
    DegenerateEdge,
    /// Vertices are not in counter-clockwise order (signed area <= 0).
    NotCounterClockwise,
}

impl fmt::Display for PolygonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolygonError::TooFewVertices => write!(f, "a polygon needs at least 3 vertices"),
            PolygonError::DegenerateEdge => write!(f, "consecutive vertices coincide"),
            PolygonError::NotCounterClockwise => {
                write!(f, "vertices must wind counter-clockwise")
            }
        }
    }
}

impl std::error::Error for PolygonError {}

impl Polygon {
    /// Creates a polygon from counter-clockwise vertices.
    ///
    /// # Errors
    ///
    /// Any [`PolygonError`] variant.
    pub fn new(vertices: Vec<Point>) -> Result<Self, PolygonError> {
        if vertices.len() < 3 {
            return Err(PolygonError::TooFewVertices);
        }
        for i in 0..vertices.len() {
            let j = (i + 1) % vertices.len();
            if vertices[i].distance_squared(vertices[j]) < 1e-18 {
                return Err(PolygonError::DegenerateEdge);
            }
        }
        let p = Polygon { vertices };
        if p.signed_area() <= 0.0 {
            return Err(PolygonError::NotCounterClockwise);
        }
        Ok(p)
    }

    /// An axis-aligned rectangular obstacle.
    ///
    /// # Panics
    ///
    /// Panics if the corners are not strictly ordered (zero-area box).
    pub fn rectangle(min: Point, max: Point) -> Self {
        assert!(
            min.x < max.x && min.y < max.y,
            "rectangle needs strictly ordered corners"
        );
        Polygon {
            vertices: vec![min, Point::new(max.x, min.y), max, Point::new(min.x, max.y)],
        }
    }

    /// A regular polygon with `sides` vertices around `center`.
    ///
    /// # Panics
    ///
    /// Panics if `sides < 3` or `radius <= 0`.
    pub fn regular(center: Point, radius: f64, sides: usize) -> Self {
        assert!(sides >= 3, "need at least 3 sides");
        assert!(radius > 0.0, "radius must be positive");
        let vertices = (0..sides)
            .map(|i| {
                let angle = i as f64 * std::f64::consts::TAU / sides as f64; // cast-ok: vertex index to angle
                center + Point::from_angle(angle) * radius
            })
            .collect();
        Polygon { vertices }
    }

    /// The vertices in counter-clockwise order.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Twice the signed area (positive for counter-clockwise winding).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut a = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            a += p.cross(q);
        }
        a / 2.0
    }

    /// The polygon's edges as segments.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Whether `p` lies strictly inside the polygon (boundary excluded,
    /// with a small tolerance). Even-odd ray casting.
    pub fn contains(&self, p: Point) -> bool {
        // Points on (or within EPS of) the boundary count as outside so
        // that paths may slide along obstacle walls.
        if self.edges().any(|e| e.distance_to_point(p) < 1e-9) {
            return false;
        }
        let n = self.vertices.len();
        let mut inside = false;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            if (a.y > p.y) != (b.y > p.y) {
                let x = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Whether the open segment `s` passes through the polygon's
    /// interior (crossing an edge properly, or running inside).
    ///
    /// Touching a vertex or sliding along an edge does **not** count as
    /// blocking — visibility-graph paths hug obstacle corners.
    pub fn blocks(&self, s: Segment) -> bool {
        // Proper crossings with any edge block the segment.
        for e in self.edges() {
            if segments_cross_properly(s, e) {
                return true;
            }
        }
        // No proper crossing: the segment is entirely inside or entirely
        // outside (up to boundary contact); test the midpoint.
        self.contains(s.midpoint())
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon[{} vertices]", self.vertices.len())
    }
}

/// Whether two segments cross at a single interior point of both
/// (proper intersection). Collinear overlap and endpoint touching are
/// not "proper".
pub fn segments_cross_properly(a: Segment, b: Segment) -> bool {
    let d1 = (a.b - a.a).cross(b.a - a.a);
    let d2 = (a.b - a.a).cross(b.b - a.a);
    let d3 = (b.b - b.a).cross(a.a - b.a);
    let d4 = (b.b - b.a).cross(a.b - b.a);
    const E: f64 = 1e-12;
    ((d1 > E && d2 < -E) || (d1 < -E && d2 > E)) && ((d3 > E && d4 < -E) || (d3 < -E && d4 > E))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn construction_validation() {
        assert_eq!(
            Polygon::new(vec![Point::ORIGIN, Point::new(1.0, 0.0)]),
            Err(PolygonError::TooFewVertices)
        );
        // Clockwise winding rejected.
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 1.0),
                Point::new(1.0, 0.0),
            ]),
            Err(PolygonError::NotCounterClockwise)
        );
        assert!(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])
        .is_ok());
        assert_eq!(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
            ]),
            Err(PolygonError::DegenerateEdge)
        );
    }

    #[test]
    fn area_and_winding() {
        assert!((unit_square().signed_area() - 1.0).abs() < 1e-12);
        let hex = Polygon::regular(Point::ORIGIN, 2.0, 6);
        assert!(hex.signed_area() > 0.0);
        assert_eq!(hex.vertices().len(), 6);
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.5, 0.5)));
        assert!(!sq.contains(Point::new(1.5, 0.5)));
        // Boundary counts as outside.
        assert!(!sq.contains(Point::new(1.0, 0.5)));
        assert!(!sq.contains(Point::new(0.0, 0.0)));
    }

    #[test]
    fn blocking_segments() {
        let sq = unit_square();
        // Straight through the middle: blocked.
        assert!(sq.blocks(Segment::new(Point::new(-1.0, 0.5), Point::new(2.0, 0.5))));
        // Entirely inside: blocked.
        assert!(sq.blocks(Segment::new(Point::new(0.2, 0.2), Point::new(0.8, 0.8))));
        // Far away: free.
        assert!(!sq.blocks(Segment::new(Point::new(2.0, 2.0), Point::new(3.0, 2.0))));
        // Sliding along an edge: free (paths hug walls).
        assert!(!sq.blocks(Segment::new(Point::new(-1.0, 0.0), Point::new(2.0, 0.0))));
        // Grazing the (1,1) corner from outside: free.
        assert!(!sq.blocks(Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0))));
        // Chord through two corners crosses the interior: blocked.
        assert!(sq.blocks(Segment::new(Point::new(-1.0, 2.0), Point::new(2.0, -1.0))));
    }

    #[test]
    fn proper_crossing_predicate() {
        let a = Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Segment::new(Point::new(0.0, 2.0), Point::new(2.0, 0.0));
        assert!(segments_cross_properly(a, b));
        // Shared endpoint is not proper.
        let c = Segment::new(Point::new(2.0, 2.0), Point::new(3.0, 0.0));
        assert!(!segments_cross_properly(a, c));
        // Parallel disjoint.
        let d = Segment::new(Point::new(0.0, 1.0), Point::new(2.0, 3.0));
        assert!(!segments_cross_properly(a, d));
    }

    #[test]
    #[should_panic(expected = "strictly ordered")]
    fn empty_rectangle_panics() {
        let _ = Polygon::rectangle(Point::new(1.0, 1.0), Point::new(1.0, 2.0));
    }
}

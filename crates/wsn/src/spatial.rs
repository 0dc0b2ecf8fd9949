//! Uniform-grid spatial index for radius queries.

use std::collections::HashMap;

use bc_geom::Point;

/// A uniform-grid spatial index over a fixed point set.
///
/// The bundle candidate generator issues one radius query per sensor; the
/// grid makes each query proportional to the local density instead of
/// `O(n)`.
///
/// # Example
///
/// ```
/// use bc_geom::Point;
/// use bc_wsn::GridIndex;
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 0.0)];
/// let idx = GridIndex::build(&pts, 10.0);
/// let mut near = idx.within_radius(&pts, Point::new(0.0, 0.0), 10.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
    /// Bounding box of occupied cells, used to clamp query scans so that
    /// huge query radii stay proportional to the data, not the radius.
    occupied: Option<((i64, i64), (i64, i64))>,
}

impl GridIndex {
    /// Builds an index over `points` with the given cell size.
    ///
    /// A good cell size is the typical query radius; any positive value is
    /// correct.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive, got {cell_size}"
        );
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        let mut occupied: Option<((i64, i64), (i64, i64))> = None;
        for (i, p) in points.iter().enumerate() {
            let key = Self::key(*p, cell_size);
            cells.entry(key).or_default().push(i);
            occupied = Some(match occupied {
                None => (key, key),
                Some(((x0, y0), (x1, y1))) => (
                    (x0.min(key.0), y0.min(key.1)),
                    (x1.max(key.0), y1.max(key.1)),
                ),
            });
        }
        GridIndex {
            cell: cell_size,
            cells,
            occupied,
        }
    }

    #[allow(clippy::cast_possible_truncation)] // field coordinates are far below i64 range
    fn key(p: Point, cell: f64) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64) // cast-ok: finite grid cell index
    }

    /// Indices of all points within `radius` of `center` (inclusive).
    ///
    /// `points` must be the same slice the index was built over.
    pub fn within_radius(&self, points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_radius_into(points, center, radius, &mut out);
        out
    }

    /// Like [`GridIndex::within_radius`] but appends hits to a caller
    /// scratch buffer after clearing it, so hot loops (one query per
    /// sensor in candidate generation) can reuse one allocation.
    ///
    /// The result order is identical to `within_radius`: cells are
    /// scanned in grid order and points in bucket (insertion) order.
    pub fn within_radius_into(
        &self,
        points: &[Point],
        center: Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be non-negative"
        );
        out.clear();
        let Some(((ox0, oy0), (ox1, oy1))) = self.occupied else {
            return;
        };
        let r2 = radius * radius;
        #[allow(clippy::cast_possible_truncation)] // radius/cell validated finite and small
        let span = (radius / self.cell).ceil() as i64; // cast-ok: cell span is small and non-negative
        let (cx, cy) = Self::key(center, self.cell);
        for gx in (cx - span).max(ox0)..=(cx + span).min(ox1) {
            for gy in (cy - span).max(oy0)..=(cy + span).min(oy1) {
                if let Some(bucket) = self.cells.get(&(gx, gy)) {
                    for &i in bucket {
                        if points[i].distance_squared(center) <= r2 + 1e-12 {
                            out.push(i);
                        }
                    }
                }
            }
        }
    }

    /// The cell size the index was built with.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of occupied grid cells.
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(points: &[Point], center: Point, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..points.len())
            .filter(|&i| points[i].distance(center) <= radius + 1e-9)
            .collect();
        v.sort_unstable();
        v
    }

    fn scattered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                Point::new(
                    (a * 12.9898).sin() * 500.0 + 500.0,
                    (a * 78.233).cos() * 500.0 + 500.0,
                )
            })
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let pts = scattered(200);
        let idx = GridIndex::build(&pts, 50.0);
        for (qi, &q) in pts.iter().enumerate().step_by(17) {
            for r in [0.0, 10.0, 60.0, 200.0] {
                let mut got = idx.within_radius(&pts, q, r);
                got.sort_unstable();
                assert_eq!(got, brute(&pts, q, r), "query {qi} r={r}");
            }
        }
    }

    #[test]
    fn includes_self_and_boundary() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let idx = GridIndex::build(&pts, 5.0);
        let mut got = idx.within_radius(&pts, pts[0], 10.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]); // boundary point included
    }

    #[test]
    fn radius_zero_returns_exact_matches() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        let idx = GridIndex::build(&pts, 1.0);
        let mut got = idx.within_radius(&pts, Point::new(1.0, 1.0), 0.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn negative_coordinates() {
        let pts = vec![Point::new(-100.0, -100.0), Point::new(-95.0, -100.0)];
        let idx = GridIndex::build(&pts, 10.0);
        assert_eq!(idx.within_radius(&pts, pts[0], 6.0).len(), 2);
    }

    #[test]
    fn empty_points() {
        let pts: Vec<Point> = Vec::new();
        let idx = GridIndex::build(&pts, 10.0);
        assert!(idx.within_radius(&pts, Point::ORIGIN, 100.0).is_empty());
        assert_eq!(idx.occupied_cells(), 0);
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::build(&[], 0.0);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let pts = scattered(100);
        let idx = GridIndex::build(&pts, 50.0);
        let mut buf = vec![999]; // stale contents must be cleared
        for &q in pts.iter().step_by(13) {
            idx.within_radius_into(&pts, q, 60.0, &mut buf);
            assert_eq!(buf, idx.within_radius(&pts, q, 60.0));
        }
    }

    #[test]
    fn cell_size_round_trips() {
        let idx = GridIndex::build(&[Point::ORIGIN], 7.5);
        assert_eq!(idx.cell_size(), 7.5);
    }
}

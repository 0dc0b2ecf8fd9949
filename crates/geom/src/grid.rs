//! A uniform bucket grid over a fixed point set, for radius and box
//! queries: `bc_wsn::Network`'s radius queries and `bc_tsp`'s Or-opt
//! each build one, with cells of their own size.
//!
//! # Example
//!
//! ```
//! use bc_geom::grid::PointGrid;
//! use bc_geom::Point;
//!
//! let pts = [Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(50.0, 0.0)];
//! let grid = PointGrid::new(&pts, 10.0);
//! let mut near = Vec::new();
//! grid.within_radius_into(&pts, Point::new(0.0, 0.0), 10.0, &mut near);
//! assert_eq!(near, vec![0, 1]);
//! ```

use crate::{Aabb, Point};

/// A grid whose key range needs more than `max(4 n, MIN_CELLS)` cells
/// falls back to one cell.
const CELLS_PER_POINT: usize = 4;

/// Sensors inside a `w × h` field of diagonal `d` key at most
/// `(20 w / d + 2) (20 h / d + 2) < 261` cells of 5% of `d`, so no such
/// network falls back.
const MIN_CELLS: usize = 4096;

/// A uniform grid of square cells over a fixed point set.
///
/// A point's cell key is `(floor(x / cell), floor(y / cell))`. The cells
/// of the occupied key range are stored column-major in CSR form: the
/// points of column `c`, row `r` are
/// `items[starts[c * rows + r]..starts[c * rows + r + 1]]`, in index
/// order, so a column's run of rows is one contiguous slice.
///
/// A key range that would need more than `max(4 n, 4096)` cells (points
/// spread far apart for the cell), an infinite coordinate, or an empty
/// set gets one infinite cell instead: every query then scans every
/// point, and [`PointGrid::within_radius_into`] still filters exactly. A
/// point with a NaN coordinate is bucketed in the first column or row
/// and lies within no radius.
#[derive(Debug, Clone)]
pub struct PointGrid {
    cell: f64,
    /// Keys of the first column and the first row.
    origin: (f64, f64),
    cols: usize,
    rows: usize,
    starts: Vec<usize>,
    items: Vec<usize>,
}

/// The columns and rows, first to last, that one query scans.
#[derive(Debug, Clone, Copy)]
struct Block {
    cols: (usize, usize),
    rows: (usize, usize),
}

impl Block {
    fn contains(self, (col, row): (usize, usize)) -> bool {
        (self.cols.0 <= col) & (col <= self.cols.1) & (self.rows.0 <= row) & (row <= self.rows.1)
    }
}

impl PointGrid {
    /// Buckets `points` into square cells of side `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(points: &[Point], cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "cell size must be positive, got {cell}"
        );
        let cap = (CELLS_PER_POINT * points.len()).max(MIN_CELLS) as f64; // cast-ok: cell budget to float
        let range = Aabb::from_points(points.iter().copied())
            // Keys are monotone in the coordinates, so the corners of the
            // bounding box key the occupied range.
            .map(|b| (key(b.min, cell), key(b.max, cell)))
            .filter(|&(lo, hi)| (hi.0 - lo.0 + 1.0) * (hi.1 - lo.1 + 1.0) <= cap);
        let (cell, origin, cols, rows) = match range {
            Some((lo, hi)) => (cell, lo, offset(hi.0, lo.0) + 1, offset(hi.1, lo.1) + 1),
            None => (f64::INFINITY, (0.0, 0.0), 1, 1),
        };
        let mut grid = PointGrid {
            cell,
            origin,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            items: vec![0; points.len()],
        };
        let cell_of: Vec<usize> = points
            .iter()
            .map(|&p| {
                let (col, row) = grid.cell_of(p);
                col * rows + row
            })
            .collect();
        for &c in &cell_of {
            grid.starts[c + 1] += 1;
        }
        for c in 0..cols * rows {
            grid.starts[c + 1] += grid.starts[c];
        }
        let mut fill = grid.starts.clone();
        for (i, &c) in cell_of.iter().enumerate() {
            grid.items[fill[c]] = i;
            fill[c] += 1;
        }
        grid
    }

    /// Writes to `out`, after clearing it, the points of the cells it
    /// scans that lie within `radius` of `center` (squared distance at
    /// most `radius² + 1e-12`). `points` must be the slice the grid was
    /// built over.
    ///
    /// Scans the cells whose keys lie within `ceil(radius / cell)` of
    /// `center`'s on both axes: columns, then rows, then points, each in
    /// ascending order, which is the order of the hits. Only points of
    /// that block are tested, so a point just past its edge is not listed
    /// even when its computed distance passes the test (with cell 10, a
    /// query at x = 10 of radius 10 leaves out a point at x = -1e-15).
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn within_radius_into(
        &self,
        points: &[Point],
        center: Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let Some(block) = self.radius_block(center, radius) else {
            return;
        };
        let r2 = radius * radius;
        self.scan(block, |i| {
            if points[i].distance_squared(center) <= r2 + 1e-12 {
                out.push(i);
            }
        });
    }

    /// Radius queries answered from given lists of points, as
    /// [`AmongQueries::within_radius_into`] describes. `points` must be
    /// the slice the grid was built over.
    pub fn among_queries<'a>(&'a self, points: &'a [Point]) -> AmongQueries<'a> {
        AmongQueries {
            grid: self,
            points,
            cells: points.iter().map(|&p| self.cell_of(p)).collect(),
        }
    }

    /// Calls `visit` with every point in the cells that overlap the box
    /// `center ± radius`: a superset of the points within `radius`, in no
    /// promised order.
    ///
    /// Every step from a coordinate to its key is monotone, so a point
    /// whose coordinates lie inside the box (as computed here) is never
    /// missed. An infinite radius visits every point.
    pub fn visit_box(&self, center: Point, radius: f64, visit: impl FnMut(usize)) {
        let (x0, y0) = key(Point::new(center.x - radius, center.y - radius), self.cell);
        let (x1, y1) = key(Point::new(center.x + radius, center.y + radius), self.cell);
        if let Some(block) = self.block((x0, x1), (y0, y1)) {
            self.scan(block, visit);
        }
    }

    /// The cell a point was bucketed in, as (column, row). The one
    /// infinite cell keys every point as ±0 or NaN, and all map to it.
    fn cell_of(&self, p: Point) -> (usize, usize) {
        let (kx, ky) = key(p, self.cell);
        (offset(kx, self.origin.0), offset(ky, self.origin.1))
    }

    /// The block a radius query scans: keys within `ceil(radius / cell)`
    /// of `center`'s on both axes.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    fn radius_block(&self, center: Point, radius: f64) -> Option<Block> {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "radius must be non-negative"
        );
        let span = (radius / self.cell).ceil();
        let (cx, cy) = key(center, self.cell);
        self.block((cx - span, cx + span), (cy - span, cy + span))
    }

    /// The cells with keys in `x.0..=x.1` by `y.0..=y.1`, clamped to the
    /// occupied range, or `None` if there are none. A NaN bound is no
    /// bound.
    fn block(&self, x: (f64, f64), y: (f64, f64)) -> Option<Block> {
        Some(Block {
            cols: axis(x, self.origin.0, self.cols)?,
            rows: axis(y, self.origin.1, self.rows)?,
        })
    }

    /// Visits the points of `block`'s cells: columns, then rows, then
    /// points, each in ascending order.
    fn scan(&self, block: Block, mut visit: impl FnMut(usize)) {
        let (r0, r1) = block.rows;
        for col in block.cols.0..=block.cols.1 {
            let first = col * self.rows;
            for &i in &self.items[self.starts[first + r0]..self.starts[first + r1 + 1]] {
                visit(i);
            }
        }
    }
}

/// A grid's radius queries, answered from a list of candidate points
/// instead of a scan. Holds each point's cell.
#[derive(Debug, Clone)]
pub struct AmongQueries<'a> {
    grid: &'a PointGrid,
    points: &'a [Point],
    cells: Vec<(usize, usize)>,
}

impl AmongQueries<'_> {
    /// Writes to `out`, after clearing it, the points of `among` that
    /// [`PointGrid::within_radius_into`] lists for `center` and `radius`
    /// (those in the cells it scans that pass its distance test), in the
    /// order of `among`.
    ///
    /// When `among` holds every point that query lists, as the hits of a
    /// query with a larger radius around a nearby centre can, `out` holds
    /// exactly its hits: in hit order if `among` is a larger query's hit
    /// list, whose scan visits the smaller block's cells in the same
    /// order, and ascending if `among` is.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn within_radius_into(
        &self,
        among: &[usize],
        center: Point,
        radius: f64,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let Some(block) = self.grid.radius_block(center, radius) else {
            return;
        };
        let limit = radius * radius + 1e-12;
        // Branch-free: write every candidate, advance past the hits only.
        out.resize(among.len(), 0);
        let mut hits = 0;
        for &i in among {
            let hit =
                (self.points[i].distance_squared(center) <= limit) & block.contains(self.cells[i]);
            out[hits] = i;
            hits += usize::from(hit);
        }
        out.truncate(hits);
    }
}

/// The cell key of `p`: `(floor(x / cell), floor(y / cell))`.
fn key(p: Point, cell: f64) -> (f64, f64) {
    ((p.x / cell).floor(), (p.y / cell).floor())
}

/// The first and last of the `count` cells from key `first` on one axis
/// whose keys lie in `lo..=hi`, or `None` if there are none.
fn axis((lo, hi): (f64, f64), first: f64, count: usize) -> Option<(usize, usize)> {
    let last = first + (count - 1) as f64; // cast-ok: cell count to float
    let (lo, hi) = (lo.max(first), hi.min(last));
    (lo <= hi).then(|| (offset(lo, first), offset(hi, first)))
}

/// `key - first` as an index; NaN maps to 0.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // keys lie on the axis
fn offset(key: f64, first: f64) -> usize {
    (key - first).max(0.0) as usize // cast-ok: integral and at most the axis length
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scattered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 12.9898).sin() * 500.0, (a * 78.233).cos() * 300.0)
            })
            .collect()
    }

    fn near(grid: &PointGrid, pts: &[Point], center: Point, radius: f64) -> Vec<usize> {
        let mut out = vec![usize::MAX]; // stale contents must be cleared
        grid.within_radius_into(pts, center, radius, &mut out);
        out
    }

    fn in_box(grid: &PointGrid, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.visit_box(center, radius, |i| out.push(i));
        out.sort_unstable();
        out
    }

    fn brute(pts: &[Point], center: Point, radius: f64) -> Vec<usize> {
        (0..pts.len())
            .filter(|&i| pts[i].distance(center) <= radius + 1e-9)
            .collect()
    }

    #[test]
    fn radius_queries_match_brute_force() {
        let pts = scattered(200);
        for cell in [20.0, 50.0, 400.0] {
            let grid = PointGrid::new(&pts, cell);
            for (qi, &q) in pts.iter().enumerate().step_by(17) {
                for r in [0.0, 10.0, 60.0, 200.0, 2000.0] {
                    let mut got = near(&grid, &pts, q, r);
                    got.sort_unstable();
                    assert_eq!(got, brute(&pts, q, r), "cell {cell} query {qi} r={r}");
                }
            }
        }
    }

    /// Given a larger query's hits, or those sorted, the among query
    /// returns the query's own hits in that list's order.
    #[test]
    fn among_queries_answer_from_a_larger_query() {
        let pts = scattered(300);
        let mut wide = Vec::new();
        let mut got = Vec::new();
        for cell in [20.0, 50.0, 400.0] {
            let grid = PointGrid::new(&pts, cell);
            let among = grid.among_queries(&pts);
            for &q in pts.iter().step_by(13) {
                for r in [0.0, 10.0, 60.0, 200.0] {
                    let want = near(&grid, &pts, q, r);
                    grid.within_radius_into(&pts, q, r + 7.0, &mut wide);
                    got.push(usize::MAX); // stale contents must be cleared
                    among.within_radius_into(&wide, q, r, &mut got);
                    assert_eq!(got, want, "cell {cell} r={r}");
                    wide.sort_unstable();
                    among.within_radius_into(&wide, q, r, &mut got);
                    let mut sorted = want.clone();
                    sorted.sort_unstable();
                    assert_eq!(got, sorted, "cell {cell} r={r}");
                }
            }
        }
    }

    /// A point just past a cell edge can pass the distance test yet lie
    /// outside the cells a query scans; the among query leaves it out too.
    #[test]
    fn among_queries_keep_to_the_scanned_cells() {
        // Cell 10: the query around x = 10 (key 1, span 1) scans keys 0..=2,
        // and x = -1e-15 keys -1 although it lies 10 away as computed.
        let pts = [Point::new(10.0, 0.0), Point::new(-1e-15, 0.0)];
        let grid = PointGrid::new(&pts, 10.0);
        assert!(pts[0].distance_squared(pts[1]) <= 100.0 + 1e-12);
        assert_eq!(near(&grid, &pts, pts[0], 10.0), vec![0]);
        let mut out = Vec::new();
        grid.among_queries(&pts)
            .within_radius_into(&[0, 1], pts[0], 10.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn hits_come_by_column_then_row_then_index() {
        // Keys at cell 10: 0 → (0, 0), 1 → (1, 0), 2 → (0, 1), 3 → (0, 0).
        let pts = [
            Point::new(1.0, 1.0),
            Point::new(11.0, 1.0),
            Point::new(1.0, 11.0),
            Point::new(2.0, 2.0),
        ];
        let grid = PointGrid::new(&pts, 10.0);
        assert_eq!(
            near(&grid, &pts, Point::new(5.0, 5.0), 20.0),
            vec![0, 3, 2, 1]
        );
    }

    #[test]
    fn boundary_hits_and_radius_zero() {
        let pts = [Point::new(0.0, 0.0), Point::new(10.0, 0.0)];
        let grid = PointGrid::new(&pts, 5.0);
        assert_eq!(near(&grid, &pts, pts[0], 10.0), vec![0, 1]);

        let pts = [
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
        ];
        let grid = PointGrid::new(&pts, 1.0);
        assert_eq!(near(&grid, &pts, Point::new(1.0, 1.0), 0.0), vec![0, 1]);
    }

    #[test]
    fn empty_grid_answers_nothing() {
        let grid = PointGrid::new(&[], 10.0);
        assert!(near(&grid, &[], Point::ORIGIN, 100.0).is_empty());
        assert!(in_box(&grid, Point::ORIGIN, f64::INFINITY).is_empty());
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_panics() {
        let _ = PointGrid::new(&[], 0.0);
    }

    #[test]
    fn box_visits_cover_every_point_in_the_disk() {
        let pts = scattered(300);
        let grid = PointGrid::new(&pts, 30.0);
        let all = in_box(&grid, Point::ORIGIN, f64::INFINITY);
        assert_eq!(all, (0..300).collect::<Vec<_>>(), "each point once");
        for (c, radius) in [(0, 0.0), (7, 5.0), (42, 20.0), (99, 55.5), (150, 400.0)] {
            let hits = in_box(&grid, pts[c], radius);
            for (i, p) in pts.iter().enumerate() {
                if p.distance(pts[c]) <= radius {
                    assert!(
                        hits.binary_search(&i).is_ok(),
                        "point {i} missed around {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_and_coincident_sets_stay_small() {
        let line: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 3.0)).collect();
        let grid = PointGrid::new(&line, 2.0);
        assert_eq!((grid.cols, grid.rows), (25, 1));
        assert_eq!(
            in_box(&grid, Point::new(10.0, 3.0), 1.0),
            vec![8, 9, 10, 11]
        );

        let pile = vec![Point::new(5.0, 5.0); 20];
        let grid = PointGrid::new(&pile, 1.0);
        assert_eq!((grid.cols, grid.rows), (1, 1));
        assert_eq!(near(&grid, &pile, Point::new(5.0, 5.0), 0.0).len(), 20);
    }

    #[test]
    fn wide_or_non_finite_spreads_fall_back_to_one_cell() {
        let far = [
            Point::new(0.0, 0.0),
            Point::new(1e6, 1e6),
            Point::new(3.0, 0.0),
        ];
        let non_finite = [
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 1.0),
            Point::new(2.0, f64::NAN),
        ];
        for pts in [&far[..], &non_finite[..]] {
            let grid = PointGrid::new(pts, 1.0);
            assert_eq!((grid.cols, grid.rows), (1, 1));
            assert_eq!(in_box(&grid, Point::ORIGIN, 1.0), vec![0, 1, 2]);
            assert_eq!(
                near(&grid, pts, Point::ORIGIN, 3.0),
                brute(pts, Point::ORIGIN, 3.0)
            );
        }
    }
}

//! A static bucket grid over a tour's points, for Or-opt's restricted
//! insertion scan.

use bc_geom::{Aabb, Point};

/// Points per cell the grid aims for. Or-opt's queries cover a disk of
/// radius `g + L` (removal gain plus longest tour edge), so a cell that
/// holds one or two points keeps the scanned cells close to the disk.
const POINTS_PER_CELL: f64 = 2.0;

/// A uniform grid over a fixed point set, stored row-major in CSR form:
/// the points of cell `c` are `items[starts[c]..starts[c + 1]]`, so one
/// row of cells is one contiguous slice.
#[derive(Debug)]
pub(crate) struct PointGrid {
    min: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    starts: Vec<usize>,
    items: Vec<usize>,
}

impl PointGrid {
    /// Buckets the `n` points into about `n / POINTS_PER_CELL` square cells
    /// over their bounding box. A flat box (collinear points) gets a
    /// single row or column, and however flat, the grid has at most
    /// `1.5 n + 1` cells. Coincident points and non-finite coordinates
    /// get one cell, so every query returns every point.
    pub(crate) fn new(points: &[Point]) -> Self {
        let n = points.len();
        let bbox = Aabb::from_points(points.iter().copied())
            .unwrap_or_else(|| Aabb::new(Point::ORIGIN, Point::ORIGIN));
        let (w, h) = (bbox.width(), bbox.height());
        let target = (n as f64 / POINTS_PER_CELL).max(1.0); // cast-ok: point count to float
        let cell = (w * h / target).sqrt().max(w.max(h) / target);
        // `cell >= max(w, h) / target`, so neither axis exceeds
        // `target + 1` cells, and `cell² >= w h / target` bounds the
        // product.
        let (cell, cols, rows) = if cell.is_finite() && cell > 0.0 {
            let cols = axis_cell(bbox.max.x, bbox.min.x, cell, n + 1) + 1;
            let rows = axis_cell(bbox.max.y, bbox.min.y, cell, n + 1) + 1;
            (cell, cols, rows)
        } else {
            (1.0, 1, 1)
        };
        let mut grid = PointGrid {
            min: bbox.min,
            cell,
            cols,
            rows,
            starts: vec![0; cols * rows + 1],
            items: vec![0; n],
        };
        let cell_of: Vec<usize> = points.iter().map(|&p| grid.cell_of(p)).collect();
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

    /// Calls `visit` with every point in the cells that overlap the box
    /// `center ± radius`; a superset of the points within `radius`.
    ///
    /// Every step from a coordinate to its cell index is monotone, so a
    /// point whose coordinates lie inside the box (as computed here) is
    /// never missed. A non-finite radius scans every cell.
    pub(crate) fn visit_box(&self, center: Point, radius: f64, mut visit: impl FnMut(usize)) {
        let x0 = axis_cell(center.x - radius, self.min.x, self.cell, self.cols);
        let x1 = axis_cell(center.x + radius, self.min.x, self.cell, self.cols);
        let y0 = axis_cell(center.y - radius, self.min.y, self.cell, self.rows);
        let y1 = axis_cell(center.y + radius, self.min.y, self.cell, self.rows);
        for gy in y0..=y1 {
            let row = gy * self.cols;
            for &i in &self.items[self.starts[row + x0]..self.starts[row + x1 + 1]] {
                visit(i);
            }
        }
    }

    fn cell_of(&self, p: Point) -> usize {
        let gx = axis_cell(p.x, self.min.x, self.cell, self.cols);
        let gy = axis_cell(p.y, self.min.y, self.cell, self.rows);
        gy * self.cols + gx
    }
}

/// Index of the cell holding coordinate `v` on an axis of `count` cells
/// of size `cell` starting at `lo`: `floor((v - lo) / cell)` clamped to
/// `0..count` (NaN maps to 0). Monotone in `v`.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // clamped to [0, count - 1] before the cast
fn axis_cell(v: f64, lo: f64, cell: f64, count: usize) -> usize {
    let top = count.saturating_sub(1) as f64; // cast-ok: cell count to float
    ((v - lo) / cell).floor().max(0.0).min(top) as usize // cast-ok: clamped to [0, count - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scattered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 12.9898).sin() * 100.0, (a * 78.233).cos() * 60.0)
            })
            .collect()
    }

    fn near(grid: &PointGrid, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        grid.visit_box(center, radius, |i| out.push(i));
        out.sort_unstable();
        out
    }

    #[test]
    fn box_queries_cover_every_point_in_the_disk() {
        let pts = scattered(300);
        let grid = PointGrid::new(&pts);
        for (c, radius) in [(0, 0.0), (7, 5.0), (42, 20.0), (99, 55.5), (150, 400.0)] {
            let hits = near(&grid, pts[c], radius);
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
    fn every_point_is_bucketed_once() {
        let pts = scattered(97);
        let grid = PointGrid::new(&pts);
        let all = near(&grid, Point::ORIGIN, f64::INFINITY);
        assert_eq!(all, (0..97).collect::<Vec<_>>());
        assert!(grid.cols * grid.rows <= 97);
    }

    #[test]
    fn degenerate_point_sets_stay_small() {
        let line: Vec<Point> = (0..50).map(|i| Point::new(i as f64, 3.0)).collect();
        let grid = PointGrid::new(&line);
        assert_eq!(grid.rows, 1);
        assert!(grid.cols <= 26);
        assert_eq!(near(&grid, Point::new(10.0, 3.0), 1.0).len(), 4);

        let pile = vec![Point::new(5.0, 5.0); 20];
        let grid = PointGrid::new(&pile);
        assert_eq!((grid.cols, grid.rows), (1, 1));
        assert_eq!(near(&grid, Point::new(5.0, 5.0), 0.0).len(), 20);

        let sliver = vec![
            Point::new(0.0, 0.0),
            Point::new(1000.0, 1e-9),
            Point::new(3.0, 0.0),
        ];
        let grid = PointGrid::new(&sliver);
        assert!(grid.cols * grid.rows <= 3);
    }

    #[test]
    fn non_finite_coordinates_fall_back_to_one_cell() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(f64::INFINITY, 1.0),
            Point::new(2.0, f64::NAN),
        ];
        let grid = PointGrid::new(&pts);
        assert_eq!((grid.cols, grid.rows), (1, 1));
        assert_eq!(near(&grid, Point::ORIGIN, 1.0), vec![0, 1, 2]);
    }

    #[test]
    fn empty_grid_answers_nothing() {
        let grid = PointGrid::new(&[]);
        assert!(near(&grid, Point::ORIGIN, 10.0).is_empty());
    }
}

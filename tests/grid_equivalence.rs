//! Exactness of `Network`'s radius queries on the shared
//! `bc_geom::grid::PointGrid`. The HashMap grid index they replaced
//! survives here as a test-local oracle: built with `Network`'s cell rule
//! (5% of the field diagonal), it must return the exact hit list, order
//! included, because the family build walks a sensor's `2r` hits in
//! order and so fixes the candidate family and every plan. A network
//! spread past the grid's cell cap gets one cell, which returns the same
//! hits in index order.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{PlanContext, PlannerConfig};
use bundle_charging::geom::{Aabb, Point};
use bundle_charging::wsn::{deploy, Network};

// ---------------------------------------------------------------------
// The oracle: `bc_wsn::GridIndex` as it was, copied verbatim without its
// two accessors.
// ---------------------------------------------------------------------

/// A uniform-grid spatial index over a fixed point set.
///
/// The bundle candidate generator issues one radius query per sensor; the
/// grid makes each query proportional to the local density instead of
/// `O(n)`.
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
}

// ---------------------------------------------------------------------
// The comparison.
// ---------------------------------------------------------------------

/// Queries `net` at `queries` random centres (inside the field, outside
/// it, and on sensors) with radii from 0 to 3× the field side, and
/// asserts that both query forms return the oracle's exact hit list, or
/// with `one_cell` (a grid that fell back to one cell) that list sorted.
/// Returns how many of the oracle's lists were out of index order: a
/// one-cell grid returns every list sorted.
fn assert_matches_oracle(
    net: &Network,
    queries: usize,
    seed: u64,
    label: &str,
    one_cell: bool,
) -> usize {
    let field = net.field();
    let cell = (field.diagonal() * 0.05).max(1e-6);
    let oracle = GridIndex::build(net.positions(), cell);
    let side = field.width().max(field.height()).max(1.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut buf = vec![usize::MAX];
    let mut unsorted = 0;
    for q in 0..queries {
        let center = match q % 4 {
            0 if !net.is_empty() => net.positions()[rng.random_range(0..net.len())],
            1 => Point::new(
                rng.random_range(field.min.x - side..=field.max.x + side),
                rng.random_range(field.min.y - side..=field.max.y + side),
            ),
            _ => Point::new(
                rng.random_range(field.min.x..=field.max.x),
                rng.random_range(field.min.y..=field.max.y),
            ),
        };
        let radius = match q % 5 {
            0 => 0.0,
            1 => cell * f64::from(rng.random_range(1u32..4)),
            2 => rng.random_range(0.0..=0.1 * side),
            _ => rng.random_range(0.0..=3.0 * side),
        };
        let mut want = oracle.within_radius(net.positions(), center, radius);
        unsorted += usize::from(want.windows(2).any(|w| w[0] > w[1]));
        if one_cell {
            want.sort_unstable();
        }
        assert_eq!(
            net.within_radius(center, radius),
            want,
            "{label}: query {q} at {center} r = {radius}"
        );
        net.within_radius_into(center, radius, &mut buf);
        assert_eq!(
            buf, want,
            "{label}: into-query {q} at {center} r = {radius}"
        );
    }
    unsorted
}

#[test]
fn deployments_match_the_oracle() {
    for seed in 0..4u64 {
        for (n, side) in [(40, 200.0), (300, 300.0), (1000, 1000.0)] {
            let field = Aabb::square(side);
            let nets = [
                ("uniform", deploy::uniform(n, field, 2.0, seed)),
                (
                    "clusters",
                    deploy::clusters(n, 5, side / 20.0, field, 2.0, seed),
                ),
                (
                    "perturbed grid",
                    deploy::perturbed_grid(n / 20, 20, field, side / 40.0, 2.0, seed),
                ),
            ];
            for (kind, net) in &nets {
                let label = format!("{kind} n = {n} in {side} m, seed {seed}");
                let unsorted = assert_matches_oracle(net, 400, seed, &label, false);
                assert!(unsorted > 0, "{label}: every hit list came sorted");
            }
        }
    }
}

#[test]
fn explicit_coordinates_match_the_oracle() {
    let coincident = [(5.0, 5.0); 6];
    let collinear: Vec<(f64, f64)> = (0..30).map(|i| (f64::from(i) * 7.0, 50.0)).collect();
    let diagonal: Vec<(f64, f64)> = (0..30)
        .map(|i| (f64::from(i) * 3.0, f64::from(i) * 3.0))
        .collect();
    let negative: Vec<(f64, f64)> = (0..40)
        .map(|i| {
            let a = f64::from(i);
            (
                (a * 12.9898).sin() * 90.0 - 60.0,
                (a * 78.233).cos() * 90.0 - 30.0,
            )
        })
        .collect();
    let negative_field = Aabb::new(Point::new(-150.0, -120.0), Point::new(30.0, 60.0));
    let nets = [
        ("empty", deploy::from_coords(&[], Aabb::square(100.0), 2.0)),
        (
            "single",
            deploy::from_coords(&[(50.0, 50.0)], Aabb::square(100.0), 2.0),
        ),
        (
            "coincident",
            deploy::from_coords(&coincident, Aabb::square(10.0), 2.0),
        ),
        (
            "collinear",
            deploy::from_coords(&collinear, Aabb::square(300.0), 2.0),
        ),
        (
            "diagonal",
            deploy::from_coords(&diagonal, Aabb::square(100.0), 2.0),
        ),
        (
            "negative",
            deploy::from_coords(&negative, negative_field, 2.0),
        ),
    ];
    for (seed, (label, net)) in (0u64..).zip(&nets) {
        assert_matches_oracle(net, 600, seed, label, false);
    }
}

#[test]
fn sensors_added_outside_the_field_match_the_oracle() {
    let mut ctx = PlanContext::new(
        deploy::uniform(60, Aabb::square(300.0), 2.0, 7),
        PlannerConfig::paper_sim(25.0),
    );
    let mut plan = ctx.plan(Algorithm::Bc).expect("plan").plan;
    // The last sensor spreads the keys over 238 × 240 cells of 21.2 m,
    // past the grid's max(4 n, 4096) cells, so it keeps one cell.
    let added = [
        (Point::new(-40.0, 340.0), false),
        (Point::new(420.0, -75.0), false),
        (Point::new(5000.0, 5000.0), true),
    ];
    for (pos, one_cell) in added {
        plan = ctx.add_sensor(&plan, pos, 2.0).expect("add sensor");
        let net = ctx.network();
        assert!(!net.field().contains(pos));
        let label = format!("added at {pos}");
        let unsorted = assert_matches_oracle(net, 800, 11, &label, one_cell);
        assert!(unsorted > 0, "{label}: every hit list came sorted");
    }
}

//! Local-search tour improvement: 2-opt and Or-opt.
//!
//! Both passes skip work that cannot change their result, so they make
//! the moves, and leave the order and length bits, of the plain scans
//! they replaced (`tests/tour_equivalence.rs` keeps those scans as
//! oracles). Both rely on the metric never undercutting the straight
//! line between the points.

use bc_geom::grid::PointGrid;
use bc_geom::{Aabb, Point};

use crate::Tour;

/// Runs 2-opt to local optimality under the metric `dist`: repeatedly
/// reverses a tour segment when doing so shortens the tour. `points[i]`
/// is the position of point `i`. Returns `true` if any improvement was
/// made.
///
/// First-improvement strategy with restart, `O(n^2)` pairs per sweep.
/// The tour's cached length is updated incrementally.
///
/// Replacing the edges `(a, b)` and `(c, d)` by `(a, c)` and `(b, d)`
/// saves length only if `dist(a, c) < dist(a, b)` or
/// `dist(b, d) < dist(c, d)`, and so, as the metric never undercuts the
/// straight line, only if `|a c| < dist(a, b)` or `|b d| < dist(c, d)`.
/// A pair with `|a c|² ≥ (dist(a, b) + pad)²` and
/// `|b d|² ≥ (dist(c, d) + pad)²` is therefore skipped without a square
/// root: the positions and the edge lengths are kept in tour order
/// across reversals, and the pad (1e-6 m) keeps rounding from skipping a
/// pair the full scan would take. Every other pair is priced as the full
/// scan prices it, so the moves, the order and the length bits are the
/// full scan's.
///
/// # Precondition
///
/// The metric is symmetric and never undercuts the straight line, as
/// [`or_opt`] states; debug builds check the second the same way.
///
/// # Panics
///
/// Panics if `points.len() != tour.order.len()`.
pub fn two_opt<F: Fn(usize, usize) -> f64>(tour: &mut Tour, dist: F, points: &[Point]) -> bool {
    assert_eq!(
        points.len(),
        tour.order.len(),
        "two_opt needs one point per tour stop"
    );
    let n = tour.order.len();
    if n < 4 {
        return false;
    }
    debug_assert!(
        never_undercuts(&tour.order, &dist, points),
        "two_opt: the metric undercuts the straight line"
    );
    // `at[p]` is the position of the point at tour position `p` (`at[n]`
    // that of the first again), and `edge[p]` the length of the edge
    // leaving it.
    let mut at: Vec<Point> = tour
        .order
        .iter()
        .chain(&tour.order[..1])
        .map(|&u| points[u])
        .collect();
    let mut edge: Vec<f64> = (0..n)
        .map(|p| dist(tour.order[p], tour.order[(p + 1) % n]))
        .collect();
    let mut any = false;
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            // `a` stays put for every `j`; only a reversal changes `b`.
            let a = tour.order[i];
            let mut b = tour.order[i + 1];
            let mut ab = dist(a, b);
            // Skip the pair that shares the wrap-around edge.
            let end = if i == 0 { n - 1 } else { n };
            for j in (i + 2)..end {
                if beyond(at[i], at[j], ab) && beyond(at[i + 1], at[j + 1], edge[j]) {
                    continue;
                }
                let c = tour.order[j];
                let d = tour.order[(j + 1) % n];
                let delta = dist(a, c) + dist(b, d) - ab - dist(c, d);
                if delta < -1e-10 {
                    tour.order[i + 1..=j].reverse();
                    at[i + 1..=j].reverse();
                    edge[i + 1..j].reverse();
                    tour.length += delta;
                    improved = true;
                    any = true;
                    b = tour.order[i + 1];
                    ab = dist(a, b);
                    edge[i] = ab;
                    edge[j] = dist(tour.order[j], d);
                }
            }
        }
    }
    any
}

/// Slack (metres) added to the lengths that bound which moves can win,
/// in 2-opt's skip test and Or-opt's insertion and invalidation
/// queries, so that floating-point rounding can never drop a winning
/// move. The bounds' own rounding error is about `1e-16` of the
/// distances involved.
const QUERY_PAD: f64 = 1e-6;

/// Points per grid cell Or-opt aims for. Its queries cover a disk of
/// radius `g + L` (removal gain plus longest tour edge), so a cell that
/// holds one or two points keeps the scanned cells close to the disk.
const POINTS_PER_CELL: f64 = 2.0;

/// Tour positions on each side of a new edge's ends whose starts Or-opt
/// scans again after a move. A start's window (the point before its
/// segment through the point after) spans at most four edges, so every
/// window that holds a new edge starts within this many positions of
/// one of its ends.
const WINDOW_REACH: usize = 4;

/// Work done by one [`or_opt`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OrOptWork {
    /// Segment relocations applied.
    pub moves: u64,
    /// Insertion positions scored (both orientations priced).
    pub scored: u64,
}

/// Runs Or-opt to local optimality under the metric `dist`: relocates
/// segments of 1, 2 or 3 consecutive points to a better position (in
/// either orientation). `points[i]` is the position of point `i`.
/// Returns the moves applied and the insertion positions scored.
///
/// For each segment length in turn, starts are visited in tour order;
/// the first start with an improving insertion applies the one a scan of
/// every edge `(u, v)` in tour order after the segment would meet first,
/// and the pass moves on to the next segment length. Passes repeat until
/// one applies no move.
///
/// Only edges that can win are scored. Moving the segment `first..last`
/// between `u` and `v` saves length only if `|u first| + |last v| - |u v|`
/// or `|u last| + |first v| - |u v|` is below the removal gain `g`, so
/// `u` lies within `g + |u v|` of `first` or of `last`, and `|u v|` is at
/// most the longest tour edge `L`. A [`PointGrid`] over `points` (about
/// two points per cell) yields the `u` in the box `g + L` around either
/// end, and each is kept if it lies within `g + |u v|`; the kept offsets
/// are sorted, so the moves, the final order and the length bits are
/// those of the full `O(n)`-per-start scan.
///
/// Only starts that can win are scanned. A start (first point, segment
/// length) whose scan found no improving insertion stays clean, with
/// its removal gain recorded, until a move could give it one: a move
/// that changes its window (the point before its segment through the
/// point after), or one that makes an edge `(u, v)` with `u` within
/// `g + |u v|` of either end. So each move marks for a new scan the
/// starts within four positions of its new directed edges, and those
/// that a [`PointGrid`] box of radius (largest recorded gain + `|u v|`)
/// around each new edge's `u` finds close enough. A pass skips clean
/// starts, so the first start it scans with an improving insertion is
/// the one the restarting scan meets first.
///
/// # Precondition
///
/// `dist(i, j) >= points[i].distance(points[j])` for all `i`, `j`: the
/// metric never undercuts the straight line, as with the straight line
/// itself and obstacle-routed metrics. Debug builds check it, up to
/// rounding, on the tour's edges.
///
/// # Panics
///
/// Panics if `points.len() != tour.order.len()`.
pub fn or_opt<F: Fn(usize, usize) -> f64>(tour: &mut Tour, dist: F, points: &[Point]) -> OrOptWork {
    assert_eq!(
        points.len(),
        tour.order.len(),
        "or_opt needs one point per tour stop"
    );
    let n = tour.order.len();
    let mut work = OrOptWork::default();
    if n < 4 {
        return work;
    }
    debug_assert!(
        never_undercuts(&tour.order, &dist, points),
        "or_opt: the metric undercuts the straight line"
    );
    let grid = PointGrid::new(points, or_opt_cell(points));
    let mut pos_of = vec![0; n];
    let mut edge = vec![0.0; n];
    let mut longest = index_tour(&tour.order, &dist, &mut pos_of, &mut edge);
    let mut clean = CleanStarts::new(n);
    let mut ks: Vec<usize> = Vec::new();
    let mut improved = true;
    while improved {
        improved = false;
        'outer: for seg_len in 1..=3usize {
            if n < seg_len + 3 {
                continue;
            }
            for start in 0..n {
                // Segment occupies positions start..start+seg_len (cyclic).
                let first = tour.order[start];
                if clean.gain[seg_len - 1][first].is_some() {
                    continue;
                }
                let before = tour.order[(start + n - 1) % n];
                let last = tour.order[(start + seg_len - 1) % n];
                let after = tour.order[(start + seg_len) % n];
                let removal_gain = dist(before, first) + dist(last, after) - dist(before, after);
                if removal_gain <= 1e-10 {
                    clean.gain[seg_len - 1][first] = Some(removal_gain);
                    continue;
                }
                // Scan offsets k (edge (u, v) at position base + k) of
                // the edges whose u lies within g + |u v| of either
                // segment end. Offsets from n - seg_len - 1 on are the
                // edges that touch the segment, which the scan skips.
                let base = (start + seg_len) % n;
                let reach = removal_gain + QUERY_PAD;
                ks.clear();
                // A one-point segment has one end.
                for &end in &[first, last][..seg_len.min(2)] {
                    grid.visit_box(points[end], reach + longest, |u| {
                        let pos = pos_of[u];
                        let k = if pos >= base {
                            pos - base
                        } else {
                            pos + n - base
                        };
                        if k + seg_len + 1 < n && dist(end, u) <= reach + edge[pos] {
                            ks.push(k);
                        }
                    });
                }
                ks.sort_unstable();
                ks.dedup();
                for &k in &ks {
                    let pos = (start + seg_len + k) % n;
                    let u = tour.order[pos];
                    let v = tour.order[(pos + 1) % n];
                    work.scored += 1;
                    let fwd = dist(u, first) + dist(last, v) - dist(u, v);
                    let rev = dist(u, last) + dist(first, v) - dist(u, v);
                    let (cost, reversed) = if fwd <= rev {
                        (fwd, false)
                    } else {
                        (rev, true)
                    };
                    if cost < removal_gain - 1e-10 {
                        relocate(&mut tour.order, start, seg_len, pos, reversed);
                        tour.length -= removal_gain - cost;
                        longest = index_tour(&tour.order, &dist, &mut pos_of, &mut edge);
                        // The move's new directed edges leave `before`,
                        // `u`, the segment's points when it was
                        // reversed, and its new last point.
                        let home = pos_of[u];
                        let inner = if reversed { 1..seg_len } else { 0..0 };
                        let tails: Vec<usize> = [pos_of[before], home, (home + seg_len) % n]
                            .into_iter()
                            .chain(inner.map(|k| (home + k) % n))
                            .collect();
                        clean.forget_moved(&tails, &tour.order);
                        let max_gain = clean.max_gain();
                        for &t in &tails {
                            let (tail, len) = (tour.order[t], edge[t]);
                            grid.visit_box(points[tail], max_gain + QUERY_PAD + len, |x| {
                                let least_gain = dist(x, tail) - QUERY_PAD - len;
                                clean.forget_near(x, least_gain, &tour.order, &pos_of);
                            });
                        }
                        work.moves += 1;
                        improved = true;
                        continue 'outer;
                    }
                }
                clean.gain[seg_len - 1][first] = Some(removal_gain);
            }
        }
    }
    work
}

/// Or-opt's starts that are known to have no improving insertion.
struct CleanStarts {
    /// `gain[s - 1][p]` is the removal gain of the segment of `s` points
    /// from point `p` when its last scan found no improving insertion,
    /// or `None` while it must be scanned.
    gain: [Vec<Option<f64>>; 3],
}

impl CleanStarts {
    /// Every start of an `n`-point tour unscanned.
    fn new(n: usize) -> Self {
        CleanStarts {
            gain: std::array::from_fn(|_| vec![None; n]),
        }
    }

    /// The largest recorded gain, or 0 when none is larger.
    fn max_gain(&self) -> f64 {
        self.gain
            .iter()
            .flatten()
            .flatten()
            .fold(0.0, |m, &g| m.max(g))
    }

    /// Marks for a new scan every start within [`WINDOW_REACH`]
    /// positions of the ends of the edges leaving tour positions `tails`.
    fn forget_moved(&mut self, tails: &[usize], order: &[usize]) {
        let n = order.len();
        for &t in tails {
            for k in 0..=2 * WINDOW_REACH + 1 {
                let p = order[(t + k + n - WINDOW_REACH) % n];
                for gains in &mut self.gain {
                    gains[p] = None;
                }
            }
        }
    }

    /// Marks for a new scan every start with an end at point `x` whose
    /// recorded gain is at least `least_gain`.
    fn forget_near(&mut self, x: usize, least_gain: f64, order: &[usize], pos_of: &[usize]) {
        let n = order.len();
        for (s, gains) in self.gain.iter_mut().enumerate() {
            // The start whose first point is `x`, then the one whose last
            // point is.
            for first in [x, order[(pos_of[x] + n - s) % n]] {
                if gains[first].is_some_and(|g| least_gain <= g) {
                    gains[first] = None;
                }
            }
        }
    }
}

/// Whether `|p q|` is at least `len` plus [`QUERY_PAD`], compared
/// squared.
fn beyond(p: Point, q: Point, len: f64) -> bool {
    p.distance_squared(q) >= (len + QUERY_PAD) * (len + QUERY_PAD)
}

/// Whether no edge of the tour `order` is shorter under `dist` than the
/// straight line between its points, beyond half of [`QUERY_PAD`] of
/// rounding.
fn never_undercuts<F: Fn(usize, usize) -> f64>(
    order: &[usize],
    dist: &F,
    points: &[Point],
) -> bool {
    let n = order.len();
    (0..n).all(|p| {
        let (a, b) = (order[p], order[(p + 1) % n]);
        dist(a, b) >= points[a].distance(points[b]) - QUERY_PAD / 2.0
    })
}

/// The grid cell that buckets `points` into about `n / POINTS_PER_CELL`
/// square cells over their bounding box; a flat box (collinear points)
/// gets one row or column of about that many. A box that yields no
/// finite, positive cell (coincident points, an infinite coordinate)
/// gets a unit cell.
fn or_opt_cell(points: &[Point]) -> f64 {
    let target = (points.len() as f64 / POINTS_PER_CELL).max(1.0); // cast-ok: point count to float
    Aabb::from_points(points.iter().copied())
        .map(|b| {
            let (w, h) = (b.width(), b.height());
            (w * h / target).sqrt().max(w.max(h) / target)
        })
        .filter(|cell| cell.is_finite() && *cell > 0.0)
        .unwrap_or(1.0)
}

/// Fills `pos_of[point] = tour position` and `edge[pos]` = the length
/// under `dist` of the edge leaving position `pos`, and returns the
/// longest.
fn index_tour<F: Fn(usize, usize) -> f64>(
    order: &[usize],
    dist: F,
    pos_of: &mut [usize],
    edge: &mut [f64],
) -> f64 {
    let n = order.len();
    let mut longest = 0.0f64;
    for (pos, &u) in order.iter().enumerate() {
        pos_of[u] = pos;
        edge[pos] = dist(u, order[(pos + 1) % n]);
        longest = longest.max(edge[pos]);
    }
    longest
}

/// Whether cyclic position `pos` falls inside the segment starting at
/// `start` of length `len` in a tour of `n` positions.
fn within_cyclic(pos: usize, start: usize, len: usize, n: usize) -> bool {
    let rel = (pos + n - start) % n;
    rel < len
}

/// Removes the cyclic segment `[start, start+len)` and reinserts it after
/// the point currently at cyclic position `after_pos` (which must lie
/// outside the segment), optionally reversed.
fn relocate(order: &mut Vec<usize>, start: usize, len: usize, after_pos: usize, reversed: bool) {
    let n = order.len();
    let mut seg: Vec<usize> = (0..len).map(|k| order[(start + k) % n]).collect();
    if reversed {
        seg.reverse();
    }
    let after_val = order[after_pos];
    // Remove segment values.
    let keep: Vec<usize> = (0..n)
        .filter(|&i| !within_cyclic(i, start, len, n))
        .map(|i| order[i])
        .collect();
    let mut out = Vec::with_capacity(n);
    for v in keep {
        out.push(v);
        if v == after_val {
            out.extend_from_slice(&seg);
        }
    }
    *order = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::nearest_neighbor;
    use crate::tests::line;
    use bc_geom::Point;

    fn scattered(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64;
                Point::new((a * 12.9898).sin() * 100.0, (a * 78.233).cos() * 100.0)
            })
            .collect()
    }

    /// The columns and rows of the key range a `PointGrid` spans over
    /// `pts` at `or_opt_cell`'s cell; keys are `floor(coord / cell)`.
    fn or_opt_dims(pts: &[Point]) -> (f64, f64) {
        let cell = or_opt_cell(pts);
        let b = Aabb::from_points(pts.iter().copied()).expect("points");
        let span = |lo: f64, hi: f64| (hi / cell).floor() - (lo / cell).floor() + 1.0;
        (span(b.min.x, b.max.x), span(b.min.y, b.max.y))
    }

    #[test]
    fn or_opt_cells_stay_linear_in_the_points() {
        let (cols, rows) = or_opt_dims(&scattered(97));
        assert!((25.0..=97.0).contains(&(cols * rows)), "{cols} × {rows}");
        let line: Vec<Point> = (0..50).map(|i| Point::new(f64::from(i), 3.0)).collect();
        let (cols, rows) = or_opt_dims(&line);
        assert!(rows == 1.0 && cols <= 26.0, "{cols} × {rows}");
        let sliver = [
            Point::new(0.0, 0.0),
            Point::new(1000.0, 1e-9),
            Point::new(3.0, 0.0),
        ];
        let (cols, rows) = or_opt_dims(&sliver);
        assert!(cols * rows <= 3.0, "{cols} × {rows}");
        assert_eq!(or_opt_dims(&[Point::new(5.0, 5.0); 20]), (1.0, 1.0));
    }

    #[test]
    fn two_opt_uncrosses_square() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let dist = line(&pts);
        let mut t = Tour::from_order(vec![0, 1, 2, 3], dist); // crossing
        assert!(two_opt(&mut t, dist, &pts));
        assert!((t.length - 4.0).abs() < 1e-9);
        assert!(t.validate(4));
    }

    #[test]
    fn improvements_keep_permutation_and_length_consistent() {
        let pts = scattered(50);
        let dist = line(&pts);
        let mut t = nearest_neighbor(50, 0, dist);
        let before = t.length;
        two_opt(&mut t, dist, &pts);
        or_opt(&mut t, dist, &pts);
        assert!(t.validate(50));
        assert!(t.length <= before + 1e-9);
        assert!(
            (t.recompute_length(dist) - t.length).abs() < 1e-6,
            "cached {} vs recomputed {}",
            t.length,
            t.recompute_length(dist)
        );
    }

    #[test]
    fn two_opt_fixed_point() {
        let pts = scattered(30);
        let dist = line(&pts);
        let mut t = nearest_neighbor(30, 0, dist);
        two_opt(&mut t, dist, &pts);
        // A second run from the local optimum must find nothing.
        assert!(!two_opt(&mut t, dist, &pts));
    }

    #[test]
    fn or_opt_fixed_point() {
        let pts = scattered(30);
        let dist = line(&pts);
        let mut t = nearest_neighbor(30, 0, dist);
        let work = or_opt(&mut t, dist, &pts);
        assert!(work.moves > 0 && work.scored >= work.moves);
        assert_eq!(or_opt(&mut t, dist, &pts).moves, 0);
        assert!(t.validate(30));
    }

    #[test]
    fn tiny_tours_untouched() {
        let pts = scattered(3);
        let dist = line(&pts);
        let mut t = nearest_neighbor(3, 0, dist);
        let len = t.length;
        assert!(!two_opt(&mut t, dist, &pts));
        assert_eq!(or_opt(&mut t, dist, &pts), OrOptWork::default());
        assert_eq!(t.length, len);
    }

    #[test]
    fn relocate_helper_keeps_values() {
        let mut order = vec![0, 1, 2, 3, 4, 5];
        relocate(&mut order, 1, 2, 4, false); // move [1,2] after value at pos 4
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(order, vec![0, 3, 4, 1, 2, 5]);
    }

    #[test]
    fn relocate_reversed() {
        let mut order = vec![0, 1, 2, 3, 4, 5];
        relocate(&mut order, 0, 2, 3, true); // move [0,1] reversed after value 3
        assert_eq!(order, vec![2, 3, 1, 0, 4, 5]);
    }

    #[test]
    fn within_cyclic_wraps() {
        assert!(within_cyclic(0, 4, 3, 5)); // segment {4,0,1}
        assert!(within_cyclic(4, 4, 3, 5));
        assert!(within_cyclic(1, 4, 3, 5));
        assert!(!within_cyclic(2, 4, 3, 5));
        assert!(!within_cyclic(3, 4, 3, 5));
    }
}

//! Exactness of bc-tsp's grid-restricted Or-opt and of its metric read on
//! demand. The full insertion scan Or-opt replaced survives here as a
//! test-local oracle: NN → 2-opt ⇄ that scan must build the same tour,
//! order and length bits, as `solve` on point sets chosen to stress the
//! restriction (ties, duplicates, degenerate bounding boxes, one very long
//! edge) and on an obstacle-routed metric. The dense distance table
//! `solve` once read survives as `table`: the straight line evaluated on
//! demand must give the tour, length bits and Or-opt work of its table.
//! The plans of one plan-sparse-shaped network, whose ~1.3k-anchor tour
//! sees ~150 Or-opt moves, are pinned as goldens.

use bundle_charging::core::context::PlanContext;
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{ChargingPlan, PlannerConfig};
use bundle_charging::geom::visibility::VisibilityRouter;
use bundle_charging::geom::{Aabb, Point, Polygon};
use bundle_charging::tsp::{construct, improve, solve, OrOptWork, SolveConfig, Tour};
use bundle_charging::wsn::deploy;

// ---------------------------------------------------------------------
// The oracles: `bc_tsp::improve::or_opt` before its insertion scan was
// restricted to a grid, copied verbatim with its helpers, and the dense
// distance table bc-tsp once read every metric through.
// ---------------------------------------------------------------------

/// The old `DistanceMatrix::from_fn`: evaluates `f` once per unordered
/// pair into a dense `n × n` table, mirrors it and keeps a zero diagonal.
/// Returns the table's lookup.
fn table(n: usize, f: impl Fn(usize, usize) -> f64) -> impl Fn(usize, usize) -> f64 {
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = f(i, j);
            data[i * n + j] = d;
            data[j * n + i] = d;
        }
    }
    move |i, j| data[i * n + j]
}

/// Runs Or-opt to local optimality: relocates segments of 1, 2 or 3
/// consecutive points to a better position (in either orientation).
/// Returns `true` if any improvement was made.
fn or_opt_full_scan(tour: &mut Tour, dist: &impl Fn(usize, usize) -> f64) -> bool {
    let n = tour.order.len();
    if n < 4 {
        return false;
    }
    let mut any = false;
    let mut improved = true;
    while improved {
        improved = false;
        'outer: for seg_len in 1..=3usize {
            if n < seg_len + 3 {
                continue;
            }
            for start in 0..n {
                // Segment occupies positions start..start+seg_len (cyclic).
                let before = tour.order[(start + n - 1) % n];
                let first = tour.order[start];
                let last = tour.order[(start + seg_len - 1) % n];
                let after = tour.order[(start + seg_len) % n];
                let removal_gain = dist(before, first) + dist(last, after) - dist(before, after);
                if removal_gain <= 1e-10 {
                    continue;
                }
                // Try inserting between every other edge (u, v).
                for k in 0..n {
                    let pos = (start + seg_len + k) % n;
                    let u = tour.order[pos];
                    let v = tour.order[(pos + 1) % n];
                    // Skip edges that touch the segment itself.
                    if within_cyclic(pos, start, seg_len, n)
                        || within_cyclic((pos + 1) % n, start, seg_len, n)
                    {
                        continue;
                    }
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
                        improved = true;
                        any = true;
                        continue 'outer;
                    }
                }
            }
        }
    }
    any
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

/// `solve`'s heuristic path over `n` points with the oracle in Or-opt's
/// place.
fn reference_tour(n: usize, dist: &impl Fn(usize, usize) -> f64) -> Tour {
    let mut tour = construct::nearest_neighbor(n, 0, dist);
    let mut improved = true;
    while improved {
        improved = false;
        if improve::two_opt(&mut tour, dist) {
            improved = true;
        }
        if or_opt_full_scan(&mut tour, dist) {
            improved = true;
        }
    }
    tour
}

/// Solves `points` under `dist` both ways and demands the same tour, bit
/// for bit. Returns the Or-opt moves the pipeline applied.
fn assert_replays(label: &str, dist: impl Fn(usize, usize) -> f64, points: &[Point]) -> u64 {
    assert!(
        points.len() > SolveConfig::default().exact_threshold,
        "{label}: too small for Or-opt"
    );
    let want = reference_tour(points.len(), &dist);
    let (got, work) = solve(points, &dist, &SolveConfig::default());
    assert_eq!(
        got.order, want.order,
        "{label}: tour order differs from the full scan"
    );
    assert_eq!(
        got.length.to_bits(),
        want.length.to_bits(),
        "{label}: tour length bits differ ({} vs {})",
        got.length,
        want.length
    );
    assert!(work.scored >= work.moves, "{label}: {work:?}");
    work.moves
}

/// What two solves must share: the visit order, the length bits and the
/// Or-opt work.
fn key((tour, work): &(Tour, OrOptWork)) -> (&[usize], u64, OrOptWork) {
    (&tour.order, tour.length.to_bits(), *work)
}

// ---------------------------------------------------------------------
// Point families.
// ---------------------------------------------------------------------

/// SplitMix64: a tiny deterministic generator, so the point sets do not
/// depend on any RNG crate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn uniform(n: usize, side: f64, seed: u64) -> Vec<Point> {
    let mut r = Mix(seed);
    (0..n)
        .map(|_| Point::new(r.unit() * side, r.unit() * side))
        .collect()
}

/// `n` points in `k` tight clusters scattered over a `side` square.
fn clustered(n: usize, k: usize, side: f64, seed: u64) -> Vec<Point> {
    let mut r = Mix(seed);
    let centres: Vec<Point> = (0..k)
        .map(|_| Point::new(r.unit() * side, r.unit() * side))
        .collect();
    (0..n)
        .map(|i| {
            let c = centres[i % k];
            let (a, d) = (r.unit() * std::f64::consts::TAU, r.unit() * side * 0.02);
            Point::new(c.x + d * a.cos(), c.y + d * a.sin())
        })
        .collect()
}

/// Points on one horizontal line, at random spacing: a zero-area box,
/// so the grid collapses to one row. 2-opt already leaves the optimal
/// out-and-back tour, so Or-opt only scans.
fn collinear(n: usize, seed: u64) -> Vec<Point> {
    let mut r = Mix(seed);
    (0..n).map(|_| Point::new(r.unit() * 500.0, 20.0)).collect()
}

/// `n / 3` distinct points, each placed three times.
fn duplicated(n: usize, seed: u64) -> Vec<Point> {
    let base = uniform(n.div_ceil(3), 200.0, seed);
    (0..n).map(|i| base[(i * 7) % base.len()]).collect()
}

/// Integer lattice points in a scrambled order: every distance repeats,
/// so the scan's tie-breaking decides the moves.
fn lattice(n: usize, _seed: u64) -> Vec<Point> {
    let mut side = 1;
    while side * side < n {
        side += 1;
    }
    // 7919 is a prime above every n used here, so i -> 7919 i mod n
    // permutes 0..n.
    (0..n)
        .map(|i| {
            let c = (i * 7919) % n;
            Point::new((c % side) as f64 * 10.0, (c / side) as f64 * 10.0)
        })
        .collect()
}

/// Two small clusters 10 km apart: the two bridging edges make the
/// longest tour edge, and so the query radius, enormous.
fn far_pair(n: usize, seed: u64) -> Vec<Point> {
    let mut pts = uniform(n / 2, 80.0, seed);
    pts.extend(
        uniform(n - n / 2, 80.0, seed ^ 0xa5a5)
            .into_iter()
            .map(|p| Point::new(p.x + 10_000.0, p.y + 3_000.0)),
    );
    pts
}

#[test]
fn grid_or_opt_replays_the_full_scan_on_point_families() {
    type Family = fn(usize, u64) -> Vec<Point>;
    // (name, generator, whether Or-opt is expected to move at all)
    let families: [(&str, Family, bool); 6] = [
        ("uniform", |n, s| uniform(n, 300.0, s), true),
        ("clustered", |n, s| clustered(n, 1 + n / 25, 600.0, s), true),
        ("collinear", collinear, false),
        ("duplicated", duplicated, true),
        ("lattice", lattice, true),
        ("far-pair", far_pair, true),
    ];
    let cfg = SolveConfig::default();
    for (name, make, moves_expected) in families {
        let mut moves = 0;
        for (n, seed) in [(11, 1), (12, 2), (29, 3), (64, 4), (150, 5), (300, 6)] {
            let label = format!("{name} n={n} seed={seed}");
            let pts = make(n, seed);
            let line = |i: usize, j: usize| pts[i].distance(pts[j]);
            moves += assert_replays(&label, line, &pts);
            let on_demand = solve(&pts, line, &cfg);
            let tabled = solve(&pts, table(n, line), &cfg);
            assert_eq!(
                key(&on_demand),
                key(&tabled),
                "{label}: the straight line on demand and its table differ"
            );
        }
        assert_eq!(moves > 0, moves_expected, "{name}: {moves} Or-opt moves");
    }
}

#[test]
fn grid_or_opt_replays_the_full_scan_on_submatrix_views() {
    let pts = uniform(300, 400.0, 7);
    let m = table(pts.len(), |i, j| pts[i].distance(pts[j]));
    let pick: Vec<usize> = (0..pts.len()).filter(|i| i % 3 != 1).collect();
    let sub_pts: Vec<Point> = pick.iter().map(|&i| pts[i]).collect();
    let sub = table(pick.len(), |a, b| m(pick[a], pick[b]));
    assert!(assert_replays("submatrix", sub, &sub_pts) > 0);
}

#[test]
fn grid_or_opt_replays_the_full_scan_on_a_routed_metric() {
    let router = VisibilityRouter::new(vec![
        Polygon::rectangle(Point::new(60.0, 20.0), Point::new(90.0, 170.0)),
        Polygon::rectangle(Point::new(140.0, 60.0), Point::new(220.0, 90.0)),
        Polygon::regular(Point::new(150.0, 170.0), 25.0, 6),
    ]);
    let pts: Vec<Point> = clustered(400, 16, 240.0, 11)
        .into_iter()
        .filter(|&p| !router.inside_obstacle(p))
        .take(200)
        .collect();
    assert_eq!(pts.len(), 200);
    let routed = table(pts.len(), |i, j| router.path_length(pts[i], pts[j]));
    let detours = (0..pts.len())
        .flat_map(|i| (0..i).map(move |j| (i, j)))
        .filter(|&(i, j)| routed(i, j) > pts[i].distance(pts[j]) + 1e-9)
        .count();
    assert!(
        detours > 100,
        "the obstacles must bend many legs, got {detours}"
    );
    assert!(assert_replays("routed", routed, &pts) > 0);
}

// ---------------------------------------------------------------------
// Goldens at the scale the restriction targets.
// ---------------------------------------------------------------------

/// FNV-1a over the plan's stops in visit order: each stop contributes its
/// member count, then its member indices, as little-endian `u64`s.
fn stop_hash(plan: &ChargingPlan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: usize| {
        for b in (v as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for stop in &plan.stops {
        eat(stop.bundle.sensors.len());
        for &s in &stop.bundle.sensors {
            eat(s);
        }
    }
    h
}

/// `algorithm stops stop_hash tour_length_bits` of the BC and SC plans of
/// the plan-sparse shape (n = 2000 at paper density in a 1342 m square,
/// r = 10 m, seed 1000), captured from the full-scan Or-opt.
const SPARSE_GOLDEN: [&str; 2] = [
    "BC 1272 7407ae9322cdcd5d 0x40e3ea9974133a91",
    "SC 2000 5cfbbbf26e9ba369 0x40e613f4a7e893e0",
];

#[test]
fn sparse_shaped_bc_and_sc_plans_are_pinned() {
    let net = deploy::uniform(2000, Aabb::square(1342.0), 2.0, 1000);
    let ctx = PlanContext::new(net, PlannerConfig::paper_sim(10.0));
    for (algo, want) in [Algorithm::Bc, Algorithm::Sc]
        .into_iter()
        .zip(SPARSE_GOLDEN)
    {
        let plan = ctx
            .plan(algo)
            .unwrap_or_else(|e| panic!("{algo} plans: {e}"))
            .plan;
        let got = format!(
            "{algo} {} {:016x} {:#018x}",
            plan.stops.len(),
            stop_hash(&plan),
            plan.tour_length().0.to_bits()
        );
        assert_eq!(got, want, "{algo} plan moved off the full-scan golden");
    }
}

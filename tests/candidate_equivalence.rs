//! Exactness of the pair-intersection candidate family. The builder as it
//! was before it covered anchors from each sensor's neighbour list
//! survives here as a test-local oracle: one radius query per sensor for
//! its close pairs, one per anchor for its members, a `HashSet` over the
//! anchor bits and one over the member sets, and the posting-list
//! domination prune. `CandidateFamily::pair_intersection_par` must return
//! the oracle's family exactly (candidates, their order, anchor bits and
//! member lists) at every worker count, on networks of the benchmark's
//! three shapes and on edge networks at five radii.

use std::collections::HashSet;

use bundle_charging::core::{Candidate, CandidateFamily};
use bundle_charging::geom::{Aabb, Point, EPS};
use bundle_charging::wsn::{deploy, Network};

const WORKERS: [usize; 4] = [1, 2, 3, 7];
const RADII_M: [f64; 5] = [3.0, 6.0, 10.0, 18.0, 35.0];

// ---------------------------------------------------------------------
// The oracle: the family builder as it was, made serial.
// ---------------------------------------------------------------------

/// `Disk::circle_intersections` of two radius-`r` circles as it was:
/// none for concentric or distant centres, the foot point for tangent
/// ones, else both crossings.
fn circle_intersections(c0: Point, c1: Point, r: f64) -> Vec<Point> {
    let d = c0.distance(c1);
    if d < EPS {
        return Vec::new();
    }
    let (r0, r1) = (r, r);
    if d > r0 + r1 + EPS || d < (r0 - r1).abs() - EPS {
        return Vec::new();
    }
    let a = (r0 * r0 - r1 * r1 + d * d) / (2.0 * d);
    let h2 = r0 * r0 - a * a;
    let dir = (c1 - c0) / d;
    let base = c0 + dir * a;
    if h2 <= EPS * EPS {
        return vec![base];
    }
    let h = h2.sqrt();
    let off = Point::new(-dir.y, dir.x) * h;
    vec![base + off, base - off]
}

/// Every sensor position, then per sensor `i` the crossings of its circle
/// with the circle of each later sensor among its `2r` hits (in hit
/// order), with bit-identical repeats dropped (first kept).
fn oracle_anchors(net: &Network, r: f64) -> Vec<Point> {
    let mut anchors: Vec<Point> = net.positions().to_vec();
    for i in 0..net.len() {
        let pi = net.sensor(i).pos;
        for j in net.within_radius(pi, 2.0 * r) {
            if j > i {
                anchors.extend(circle_intersections(pi, net.sensor(j).pos, r));
            }
        }
    }
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    anchors.retain(|a| seen.insert((a.x.to_bits(), a.y.to_bits())));
    anchors
}

/// `true` when every element of `a` is in `b`; both sorted ascending.
fn is_sorted_subset(a: &[usize], b: &[usize]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.find(|&y| y >= x) == Some(x))
}

/// The family as it was built: each anchor's members from a radius-`r`
/// query, the first of each member set, then every candidate with a
/// superset elsewhere (more members, or as many and a lower index) tested
/// through its rarest member's posting list and dropped.
fn oracle(net: &Network, r: f64) -> CandidateFamily {
    let mut candidates: Vec<Candidate> = oracle_anchors(net, r)
        .into_iter()
        .filter_map(|anchor| {
            let mut members = net.within_radius(anchor, r);
            members.sort_unstable();
            (!members.is_empty()).then_some(Candidate { members, anchor })
        })
        .collect();
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    candidates.retain(|c| seen.insert(c.members.clone()));

    let sets: Vec<&[usize]> = candidates.iter().map(|c| c.members.as_slice()).collect();
    let mut postings: Vec<Vec<usize>> = vec![Vec::new(); net.len()];
    for (i, members) in sets.iter().enumerate() {
        for &s in *members {
            postings[s].push(i);
        }
    }
    let keep: Vec<bool> = (0..sets.len())
        .map(|i| {
            let mine = sets[i];
            let rarest = mine.iter().map(|&s| &postings[s]).min_by_key(|p| p.len());
            rarest.is_none_or(|holders| {
                !holders.iter().any(|&j| {
                    i != j
                        && (mine.len() < sets[j].len() || (mine.len() == sets[j].len() && i > j))
                        && is_sorted_subset(mine, sets[j])
                })
            })
        })
        .collect();
    let mut flags = keep.iter();
    candidates.retain(|_| flags.next().copied().unwrap_or(false));
    CandidateFamily {
        radius: r,
        candidates,
    }
}

/// The family at every worker count equals the oracle's, anchor bits
/// included (`Point`'s `PartialEq` would let `-0.0` match `0.0`).
fn assert_matches_oracle(net: &Network, r: f64, case: &str) -> CandidateFamily {
    let want = oracle(net, r);
    for workers in WORKERS {
        let got = CandidateFamily::pair_intersection_par(net, r, workers);
        assert_eq!(got, want, "{case}, r = {r}, workers = {workers}");
        let bits = |f: &CandidateFamily| -> Vec<(u64, u64)> {
            f.candidates
                .iter()
                .map(|c| (c.anchor.x.to_bits(), c.anchor.y.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&got),
            bits(&want),
            "{case}, r = {r}, workers = {workers}"
        );
    }
    want
}

// ---------------------------------------------------------------------
// Networks.
// ---------------------------------------------------------------------

fn square(n: usize, side: f64, seed: u64) -> Network {
    deploy::uniform(n, Aabb::square(side), 2.0, seed)
}

fn coords(pts: &[(f64, f64)], field: Aabb) -> Network {
    deploy::from_coords(pts, field, 2.0)
}

/// A field whose grid cell (5% of its diagonal, 3:4 sides) is `cell`.
fn field_with_cell(cell: f64) -> Aabb {
    Aabb::new(Point::ORIGIN, Point::new(12.0 * cell, 16.0 * cell))
}

/// The edge networks at radius `r`, named.
fn edge_networks(r: f64) -> Vec<(&'static str, Network)> {
    let field = Aabb::square(100.0);
    let mut coincident = vec![(50.0, 50.0); 4];
    coincident.extend([(50.0 + 0.7 * r, 50.0), (50.0, 50.0 + 1.3 * r)]);
    coincident.extend([(20.0, 20.0), (20.0, 20.0), (20.0 + r, 20.0)]);
    let collinear: Vec<(f64, f64)> = (0..20)
        .map(|k| (5.0 + 0.45 * r * f64::from(k), 40.0))
        .chain((0..8).map(|k| (70.0, 5.0 + 0.8 * r * f64::from(k))))
        .collect();
    let two_r = 2.0 * r;
    let spaced = coords(
        &[
            (10.0, 10.0),
            (10.0 + two_r, 10.0),
            (10.0, 70.0),
            (10.0 + two_r + 1e-9, 70.0),
            (60.0, 10.0),
            (60.0, 10.0 + two_r - 1e-9),
            (60.0, 60.0),
            (60.0 + two_r * 0.6, 60.0 + two_r * 0.8),
        ],
        field,
    );
    let lattice: Vec<(f64, f64)> = (0..8)
        .flat_map(|i| (0..8).map(move |j| (5.0 * f64::from(i), 5.0 * f64::from(j))))
        .collect();
    let tangent_lattice: Vec<(f64, f64)> = (0..6)
        .flat_map(|i| (0..6).map(move |j| (two_r * f64::from(i), two_r * f64::from(j))))
        .collect();
    let ring: Vec<(f64, f64)> = (0..12)
        .map(|k| {
            let p = Point::new(50.0, 50.0)
                + Point::from_angle(f64::from(k) * std::f64::consts::FRAC_PI_6) * r;
            (p.x, p.y)
        })
        .chain([(50.0, 50.0)])
        .collect();
    let mut far = square(80, 100.0, 21).positions().to_vec();
    far.push(Point::new(1e7, 1e7));
    let far: Vec<(f64, f64)> = far.iter().map(|p| (p.x, p.y)).collect();
    // Cells of exactly 2r (then r): sensors straddle a cell edge, one just
    // below zero, at a computed distance of exactly 2r (then r), where the
    // grid's window decides whether a query lists them.
    let edge_2r = coords(
        &[
            (two_r, 50.0),
            (-1e-15, 50.0),
            (two_r, 90.0),
            (0.0, 90.0),
            (3.0 * two_r, 70.0),
        ],
        field_with_cell(two_r),
    );
    let edge_r = coords(
        &[
            (r, 50.0),
            (-1e-15, 50.0),
            (r, 90.0),
            (0.0, 90.0),
            (2.5 * r, 70.0),
            (r, 50.0 + r),
        ],
        field_with_cell(r),
    );
    let mut odd = vec![(50.0, 50.0), (50.0, 50.0), (50.0, 50.0), (57.0, 50.0)];
    odd.extend((0..12).map(|k| (10.0 + 4.0 * f64::from(k), 20.0)));
    odd.extend([(30.0, 80.0), (30.0, 80.0), (36.0, 86.0), (42.0, 92.0)]);
    vec![
        ("coincident", coords(&coincident, field)),
        ("collinear", coords(&collinear, field)),
        ("2r apart", spaced),
        ("lattice", coords(&lattice, Aabb::square(40.0))),
        (
            "tangent lattice",
            coords(&tangent_lattice, Aabb::square(12.0 * r)),
        ),
        (
            "jitter-free grid",
            deploy::perturbed_grid(9, 9, field, 0.0, 2.0, 5),
        ),
        ("ring", coords(&ring, field)),
        (
            "tight clusters",
            deploy::clusters(80, 4, 0.4 * r, Aabb::square(200.0), 2.0, 4),
        ),
        ("far sensor", coords(&far, field)),
        ("cell edge 2r", edge_2r),
        ("cell edge r", edge_r),
        ("odd", coords(&odd, field)),
        ("uniform dense", square(60, 60.0, 3)),
        ("empty", square(0, 10.0, 0)),
        ("one sensor", coords(&[(5.0, 5.0)], Aabb::square(10.0))),
    ]
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

/// Networks of the benchmark's shapes at r = 10 m: plan-dense (n = 1500
/// in 300 m), plan-sparse (n = 2000 in 1342 m) and campaign (n = 200 in
/// 300 m).
#[test]
fn benchmark_shapes_match_the_oracle() {
    for (case, net) in [
        ("plan-dense", square(1500, 300.0, 1)),
        ("plan-sparse", square(2000, 1342.0, 2)),
        ("campaign a", square(200, 300.0, 3)),
        ("campaign b", square(200, 300.0, 4)),
    ] {
        let fam = assert_matches_oracle(&net, 10.0, case);
        assert!(!fam.is_empty(), "{case}: empty family");
    }
}

#[test]
fn edge_networks_match_the_oracle() {
    for r in RADII_M {
        for (case, net) in edge_networks(r) {
            assert_matches_oracle(&net, r, case);
        }
    }
}

/// The cell-edge networks reach what they are built for: a pair at a
/// computed distance of exactly 2r that the grid's 2r query does not list.
#[test]
fn cell_edge_networks_reach_the_window_edge() {
    for r in RADII_M {
        let (_, net) = edge_networks(r)
            .into_iter()
            .find(|(case, _)| *case == "cell edge 2r")
            .unwrap_or_else(|| unreachable!("the case is listed"));
        let (a, b) = (net.sensor(0).pos, net.sensor(1).pos);
        assert!(
            a.distance_squared(b) <= (2.0 * r) * (2.0 * r) + 1e-12,
            "r = {r}"
        );
        assert!(!net.within_radius(a, 2.0 * r).contains(&1), "r = {r}");
    }
}

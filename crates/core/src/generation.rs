//! Charging bundle generation (the OBG problem, Section IV).
//!
//! Three generators, matching the comparison of Fig. 11:
//!
//! * [`BundleStrategy::Greedy`] — the paper's Algorithm 2: build the
//!   candidate family, then greedily select the candidate covering the
//!   most uncovered sensors (`ln n + 1` approximation, Theorem 2).
//! * [`BundleStrategy::Grid`] — the baseline from He et al.: partition
//!   the field into square cells of side `r * sqrt(2)` (so every cell
//!   fits in a radius-`r` disk) and make each non-empty cell a bundle.
//! * [`BundleStrategy::Optimal`] — exact minimum cover by branch and
//!   bound over the pair-intersection candidate family; falls back to
//!   greedy if the search exceeds its node budget.

use bc_setcover::{exact_cover, greedy_cover, BitSet, Instance};
use bc_units::Meters;
use bc_wsn::Network;

use crate::{Candidate, CandidateFamily, ChargingBundle};

/// Which bundle generator to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BundleStrategy {
    /// Greedy max-coverage selection (Algorithm 2).
    Greedy,
    /// Fixed grid partition with cell side `r * sqrt(2)`.
    Grid,
    /// Exact minimum cover (branch and bound; falls back to greedy on
    /// budget exhaustion).
    Optimal,
}

/// Generates a bundle family covering every sensor with bundles of radius
/// at most `r`.
///
/// Every sensor is assigned to exactly one bundle (the one that first
/// covered it), and each bundle's anchor is recentred to the smallest
/// enclosing disk of its *assigned* members, so `enclosing_radius <= r`
/// always holds on the output.
///
/// Returns an empty vector for an empty network.
///
/// # Panics
///
/// Panics if `r` is not positive and finite.
pub fn generate_bundles(net: &Network, r: Meters, strategy: BundleStrategy) -> Vec<ChargingBundle> {
    assert!(
        r.is_finite() && r > Meters(0.0),
        "bundle radius must be positive"
    );
    if net.is_empty() {
        return Vec::new();
    }
    match strategy {
        BundleStrategy::Greedy => cover_bundles(
            net,
            &crate::context::serial_candidate_family(net, r.0),
            false,
        ),
        BundleStrategy::Optimal => cover_bundles(
            net,
            &crate::context::serial_candidate_family(net, r.0),
            true,
        ),
        BundleStrategy::Grid => grid_bundles(net, r),
    }
}

enum CoverKind {
    Greedy,
    Exact,
}

/// Runs set cover over a (possibly shared) candidate family and
/// materialises the selected candidates as disjoint bundles. The staged
/// pipeline's Cover stage calls this with the family cached on a
/// `PlanContext`, so one build serves every algorithm of a sweep.
pub(crate) fn cover_bundles(
    net: &Network,
    family: &CandidateFamily,
    exact: bool,
) -> Vec<ChargingBundle> {
    let kind = if exact {
        CoverKind::Exact
    } else {
        CoverKind::Greedy
    };
    from_cover(net, family, kind)
}

/// Runs set cover over a candidate family and materialises the selected
/// candidates as disjoint bundles.
fn from_cover(net: &Network, family: &CandidateFamily, kind: CoverKind) -> Vec<ChargingBundle> {
    let n = net.len();
    let sets: Vec<BitSet> = family
        .candidates
        .iter()
        .map(|c| BitSet::from_indices(n, &c.members))
        .collect();
    // Candidate families always cover the network (each sensor is its own
    // anchor); if that invariant were ever broken, fall back to singleton
    // bundles rather than panic — the output must still cover everyone.
    let Ok(inst) = Instance::new(n, sets) else {
        return (0..n)
            .map(|i| ChargingBundle::from_members(vec![i], net))
            .collect();
    };
    let selected = match kind {
        CoverKind::Greedy => greedy_cover(&inst),
        CoverKind::Exact => {
            exact_cover(&inst, Some(5_000_000)).unwrap_or_else(|| greedy_cover(&inst))
        }
    };
    materialise(net, family, &selected)
}

/// Turns selected candidates into disjoint bundles: each sensor joins the
/// first selected candidate containing it; anchors are recentred on the
/// assigned members.
fn materialise(net: &Network, family: &CandidateFamily, selected: &[usize]) -> Vec<ChargingBundle> {
    let n = net.len();
    let mut assigned = vec![false; n];
    let mut bundles = Vec::with_capacity(selected.len());
    for &ci in selected {
        let cand: &Candidate = &family.candidates[ci];
        let members: Vec<usize> = cand
            .members
            .iter()
            .copied()
            .filter(|&s| !assigned[s])
            .collect();
        if members.is_empty() {
            continue;
        }
        for &s in &members {
            assigned[s] = true;
        }
        bundles.push(ChargingBundle::from_members(members, net));
    }
    debug_assert!(
        assigned.iter().all(|&a| a),
        "cover left a sensor unassigned"
    );
    bundles
}

/// Grid-based baseline: cells of side `r * sqrt(2)` anchored at the field
/// origin; every non-empty cell becomes one bundle. The anchor is the
/// smallest-enclosing-disk center of the cell's sensors (which is always
/// feasible since the whole cell fits in a radius-`r` disk).
#[allow(clippy::cast_possible_truncation)] // cell indices are bounded by field-size / cell-side
pub(crate) fn grid_bundles(net: &Network, r: Meters) -> Vec<ChargingBundle> {
    let side = r.0 * std::f64::consts::SQRT_2;
    let field = net.field();
    // BTreeMap iteration is already in cell-key order, so bundle output
    // order is deterministic without a separate sort.
    let mut cells: std::collections::BTreeMap<(i64, i64), Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, p) in net.positions().iter().enumerate() {
        let kx = ((p.x - field.min.x) / side).floor() as i64; // cast-ok: finite cell index
        let ky = ((p.y - field.min.y) / side).floor() as i64; // cast-ok: finite cell index
        cells.entry((kx, ky)).or_default().push(i);
    }
    cells
        .into_values()
        .map(|members| ChargingBundle::from_members(members, net))
        .collect()
}

/// A lower bound on the number of radius-`r` bundles any cover needs:
/// the size of a greedy packing of sensors pairwise more than `2r`
/// apart. Two such sensors can never share a disk of radius `r`, so
/// every cover uses at least one bundle per packed sensor.
///
/// Used to certify the exact generator's optimality in tests and to
/// bound the greedy generator's gap without running the exact search.
pub fn packing_lower_bound(net: &Network, r: Meters) -> usize {
    assert!(
        r.is_finite() && r > Meters(0.0),
        "bundle radius must be positive"
    );
    let mut excluded = vec![false; net.len()];
    let mut count = 0usize;
    for i in 0..net.len() {
        if excluded[i] {
            continue;
        }
        count += 1;
        for j in net.within_radius(net.sensor(i).pos, 2.0 * r.0) {
            excluded[j] = true;
        }
    }
    count
}

/// Checks that a bundle family is a partition of the network's sensors
/// with every bundle radius at most `r`. Used by tests and debug
/// assertions.
pub fn is_valid_partition(bundles: &[ChargingBundle], net: &Network, r: Meters) -> bool {
    let mut seen = vec![false; net.len()];
    for b in bundles {
        if b.is_empty() || b.enclosing_radius > r + Meters(1e-6) {
            return false;
        }
        for &s in &b.sensors {
            if s >= net.len() || seen[s] {
                return false;
            }
            seen[s] = true;
        }
    }
    seen.iter().all(|&s| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_units::Meters;
    use bc_wsn::deploy;

    #[test]
    fn greedy_produces_valid_partition() {
        let net = deploy::uniform(80, Aabb::square(500.0), 2.0, 21);
        let bundles = generate_bundles(&net, Meters(40.0), BundleStrategy::Greedy);
        assert!(is_valid_partition(&bundles, &net, Meters(40.0)));
    }

    #[test]
    fn grid_produces_valid_partition() {
        let net = deploy::uniform(80, Aabb::square(500.0), 2.0, 21);
        let bundles = generate_bundles(&net, Meters(40.0), BundleStrategy::Grid);
        assert!(is_valid_partition(&bundles, &net, Meters(40.0)));
    }

    #[test]
    fn optimal_produces_valid_partition_and_fewest_bundles() {
        let net = deploy::uniform(25, Aabb::square(200.0), 2.0, 4);
        let r = Meters(40.0);
        let greedy = generate_bundles(&net, r, BundleStrategy::Greedy);
        let grid = generate_bundles(&net, r, BundleStrategy::Grid);
        let optimal = generate_bundles(&net, r, BundleStrategy::Optimal);
        assert!(is_valid_partition(&optimal, &net, r));
        assert!(optimal.len() <= greedy.len());
        assert!(optimal.len() <= grid.len());
    }

    #[test]
    fn greedy_within_ln_n_of_optimal() {
        let net = deploy::uniform(30, Aabb::square(300.0), 2.0, 13);
        let r = Meters(50.0);
        let greedy = generate_bundles(&net, r, BundleStrategy::Greedy).len() as f64;
        let optimal = generate_bundles(&net, r, BundleStrategy::Optimal).len() as f64;
        let bound = (30f64).ln() + 1.0;
        assert!(greedy <= bound * optimal + 1e-9);
    }

    #[test]
    fn tiny_radius_gives_singletons() {
        let net = deploy::uniform(20, Aabb::square(1000.0), 2.0, 2);
        let bundles = generate_bundles(&net, Meters(0.5), BundleStrategy::Greedy);
        // At radius 0.5 m in a 1 km field, every sensor is its own bundle
        // (with overwhelming probability under this seed).
        assert_eq!(bundles.len(), 20);
        assert!(bundles.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn huge_radius_gives_one_bundle() {
        let net = deploy::uniform(15, Aabb::square(100.0), 2.0, 7);
        let bundles = generate_bundles(&net, Meters(200.0), BundleStrategy::Greedy);
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].len(), 15);
    }

    #[test]
    fn larger_radius_never_needs_more_greedy_bundles() {
        let net = deploy::uniform(60, Aabb::square(400.0), 2.0, 17);
        let small = generate_bundles(&net, Meters(20.0), BundleStrategy::Greedy).len();
        let large = generate_bundles(&net, Meters(60.0), BundleStrategy::Greedy).len();
        assert!(large <= small);
    }

    #[test]
    fn empty_network() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        for s in [
            BundleStrategy::Greedy,
            BundleStrategy::Grid,
            BundleStrategy::Optimal,
        ] {
            assert!(generate_bundles(&net, Meters(5.0), s).is_empty());
        }
    }

    #[test]
    fn packing_bound_sandwiches_the_optimum() {
        for seed in [1u64, 5, 9] {
            let net = deploy::uniform(25, Aabb::square(250.0), 2.0, seed);
            for r in [Meters(20.0), Meters(40.0), Meters(80.0)] {
                let lb = packing_lower_bound(&net, r);
                let optimal = generate_bundles(&net, r, BundleStrategy::Optimal).len();
                let greedy = generate_bundles(&net, r, BundleStrategy::Greedy).len();
                assert!(lb <= optimal, "seed {seed} r {r}: lb {lb} > opt {optimal}");
                assert!(optimal <= greedy);
            }
        }
    }

    #[test]
    fn packing_bound_tight_for_far_apart_sensors() {
        // Sensors > 2r apart: the packing bound equals n, and so does
        // every cover.
        let net = deploy::from_coords(
            &[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)],
            Aabb::square(100.0),
            2.0,
        );
        assert_eq!(packing_lower_bound(&net, Meters(10.0)), 4);
        assert_eq!(
            generate_bundles(&net, Meters(10.0), BundleStrategy::Greedy).len(),
            4
        );
    }

    #[test]
    fn grid_cells_respect_radius_even_at_boundaries() {
        // Sensors on the exact corners of grid cells.
        let net = deploy::from_coords(
            &[(0.0, 0.0), (14.1, 14.1), (14.2, 14.2), (28.3, 0.1)],
            Aabb::square(100.0),
            2.0,
        );
        let bundles = generate_bundles(&net, Meters(10.0), BundleStrategy::Grid);
        assert!(is_valid_partition(&bundles, &net, Meters(10.0)));
    }
}

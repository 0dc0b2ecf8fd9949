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
//!   greedy if the search exceeds its budget of 5,000,000 nodes, and
//!   counts each fallback as a `plan.cover.exact_aborted` counter.

use bc_setcover::{exact_cover, greedy_cover};
use bc_units::Meters;
use bc_wsn::Network;

use crate::{Candidate, CandidateFamily, ChargingBundle};

/// Search nodes [`BundleStrategy::Optimal`]'s branch and bound may visit
/// before it falls back to the greedy cover.
const EXACT_NODE_BUDGET: u64 = 5_000_000;

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

/// Runs set cover over a (possibly shared) candidate family and
/// materialises the selected candidates as disjoint bundles. The staged
/// pipeline's Cover stage calls this with the family cached on a
/// `PlanContext`, so one build serves every algorithm of a sweep.
pub(crate) fn cover_bundles(
    net: &Network,
    family: &CandidateFamily,
    exact: bool,
) -> Vec<ChargingBundle> {
    let n = net.len();
    let sets: Vec<&[usize]> = family
        .candidates
        .iter()
        .map(|c| c.members.as_slice())
        .collect();
    let selected = if exact {
        exact_cover(n, &sets, Some(EXACT_NODE_BUDGET)).or_else(|| {
            let greedy = greedy_cover(n, &sets);
            if greedy.is_some() {
                // The family covers, so the search ran out of nodes and
                // this "optimal" cover is the greedy one.
                bc_obs::counter(
                    "plan",
                    "cover.exact_aborted",
                    1,
                    &[bc_obs::Field::new("sensors", n)],
                );
            }
            greedy
        })
    } else {
        greedy_cover(n, &sets)
    };
    // Candidate families always cover the network (each sensor is its own
    // anchor); if that invariant were ever broken, fall back to singleton
    // bundles rather than panic — the output must still cover everyone.
    let Some(selected) = selected else {
        return (0..n)
            .map(|i| ChargingBundle::from_members(vec![i], net))
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_units::Meters;
    use bc_wsn::deploy;

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
}

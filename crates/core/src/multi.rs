//! Multiple mobile chargers.
//!
//! The related work the paper builds on (Dai et al.) asks how *many*
//! chargers a large network needs; this module provides the natural
//! multi-charger extension of bundle charging: partition the field among
//! `k` chargers (farthest-point-seeded Lloyd clustering, deterministic),
//! plan each charger's region independently with any of the paper's
//! planners, and report per-charger workloads and the fleet makespan.
//!
//! Splitting trades total energy (k closed tours cover less ground each
//! but overlap less efficiently) against makespan (rounds finish k times
//! faster), which is what keeps dense networks alive under tight
//! recharge deadlines.

use bc_geom::Point;
use bc_units::{Joules, MetersPerSecond, Seconds};
use bc_wsn::{Network, Sensor};

use crate::planner::Algorithm;
use crate::{ChargingPlan, PlanError, PlannerConfig};

/// A fleet plan: one charging plan per charger.
#[derive(Debug, Clone)]
pub struct MultiChargerPlan {
    /// Per-charger plans, indexed by charger.
    pub plans: Vec<ChargingPlan>,
    /// For every sensor of the original network, the charger serving it.
    pub assignment: Vec<usize>,
    /// The sub-networks each plan was computed on (original sensor
    /// indices are recoverable through `assignment`).
    pub regions: Vec<Network>,
}

impl MultiChargerPlan {
    /// Number of chargers.
    pub fn num_chargers(&self) -> usize {
        self.plans.len()
    }

    /// Total operating energy across the fleet.
    pub fn total_energy_j(&self, energy: &bc_wpt::EnergyModel) -> Joules {
        self.plans
            .iter()
            .map(|p| p.metrics(energy).total_energy_j)
            .sum()
    }

    /// Fleet makespan: the slowest charger's mission time at driving
    /// speed `speed_mps`.
    ///
    /// # Panics
    ///
    /// Panics if `speed_mps` is not positive.
    pub fn makespan_s(&self, speed_mps: f64) -> Seconds {
        assert!(speed_mps > 0.0, "speed must be positive");
        let speed = MetersPerSecond(speed_mps);
        self.plans
            .iter()
            .map(|p| p.tour_length() / speed + p.total_dwell())
            .fold(Seconds(0.0), Seconds::max)
    }

    /// Validates every per-charger plan against its region.
    ///
    /// # Errors
    ///
    /// The first failing region's [`crate::PlanError`].
    pub fn validate(&self, model: &bc_wpt::ChargingModel) -> Result<(), crate::PlanError> {
        for (plan, region) in self.plans.iter().zip(&self.regions) {
            plan.validate(region, model)?;
        }
        Ok(())
    }
}

/// Plans a fleet of `k` chargers over the network.
///
/// Sensors are clustered with farthest-point-initialised Lloyd iteration
/// (deterministic: the first seed is the sensor nearest the field
/// center), then each region is planned independently with `algo`.
/// Empty regions (possible when `k` exceeds the number of distinct
/// positions) are dropped.
///
/// # Errors
///
/// The first failing region's [`PlanError`] (invalid configuration or
/// demands).
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn try_plan_fleet(
    net: &Network,
    cfg: &PlannerConfig,
    algo: Algorithm,
    k: usize,
) -> Result<MultiChargerPlan, PlanError> {
    assert!(k > 0, "need at least one charger");
    let n = net.len();
    if n == 0 {
        return Ok(MultiChargerPlan {
            plans: Vec::new(),
            assignment: Vec::new(),
            regions: Vec::new(),
        });
    }
    let k = k.min(n);
    let assignment = cluster(net.positions(), k);

    let mut regions = Vec::with_capacity(k);
    let mut plans = Vec::with_capacity(k);
    let mut final_assignment = vec![0usize; n];
    let mut region_idx = 0usize;
    for c in 0..k {
        let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
        if members.is_empty() {
            continue;
        }
        let sensors: Vec<Sensor> = members.iter().map(|&i| *net.sensor(i)).collect();
        let region = Network::new(sensors, net.field(), net.base());
        let plan = crate::planner::try_run(algo, &region, cfg)?;
        for &i in &members {
            final_assignment[i] = region_idx;
        }
        regions.push(region);
        plans.push(plan);
        region_idx += 1;
    }
    Ok(MultiChargerPlan {
        plans,
        assignment: final_assignment,
        regions,
    })
}

/// Farthest-point-initialised Lloyd clustering into `k` groups.
fn cluster(points: &[Point], k: usize) -> Vec<usize> {
    let n = points.len();
    debug_assert!(k >= 1 && k <= n);
    // Deterministic seeding: start from the point nearest the centroid,
    // then repeatedly take the point farthest from all chosen seeds.
    let centroid = Point::centroid(points.iter().copied()).unwrap_or_else(|| Point::new(0.0, 0.0));
    let first = (0..n)
        .min_by(|&a, &b| {
            points[a]
                .distance_squared(centroid)
                .total_cmp(&points[b].distance_squared(centroid))
        })
        .unwrap_or(0);
    let mut centers = vec![points[first]];
    while centers.len() < k {
        let far = (0..n)
            .max_by(|&a, &b| {
                let da = centers
                    .iter()
                    .map(|c| points[a].distance_squared(*c))
                    .fold(f64::INFINITY, f64::min);
                let db = centers
                    .iter()
                    .map(|c| points[b].distance_squared(*c))
                    .fold(f64::INFINITY, f64::min);
                da.total_cmp(&db)
            })
            .unwrap_or(0);
        centers.push(points[far]);
    }
    // Lloyd iterations.
    let mut assignment = vec![0usize; n];
    for _ in 0..32 {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centers.len())
                .min_by(|&a, &b| {
                    p.distance_squared(centers[a])
                        .total_cmp(&p.distance_squared(centers[b]))
                })
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, center) in centers.iter_mut().enumerate() {
            let members: Vec<Point> = (0..n)
                .filter(|&i| assignment[i] == c)
                .map(|i| points[i])
                .collect();
            if let Some(m) = Point::centroid(members) {
                *center = m;
            }
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn setup() -> (Network, PlannerConfig) {
        (
            deploy::uniform(60, Aabb::square(400.0), 2.0, 15),
            PlannerConfig::paper_sim(30.0),
        )
    }

    #[test]
    fn one_charger_matches_single_planner() {
        let (net, cfg) = setup();
        let fleet = try_plan_fleet(&net, &cfg, Algorithm::Bc, 1).unwrap();
        let single = crate::planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
        assert_eq!(fleet.num_chargers(), 1);
        let e_fleet = fleet.total_energy_j(&cfg.energy);
        let e_single = single.metrics(&cfg.energy).total_energy_j;
        assert!((e_fleet - e_single).abs() < Joules(1e-6));
    }

    #[test]
    fn fleet_plans_are_feasible_and_cover_everyone() {
        let (net, cfg) = setup();
        for k in [2usize, 3, 5] {
            let fleet = try_plan_fleet(&net, &cfg, Algorithm::BcOpt, k).unwrap();
            fleet.validate(&cfg.charging).unwrap();
            assert_eq!(fleet.assignment.len(), 60);
            let served: usize = fleet.regions.iter().map(Network::len).sum();
            assert_eq!(served, 60);
        }
    }

    #[test]
    fn more_chargers_cut_makespan() {
        let (net, cfg) = setup();
        let one = try_plan_fleet(&net, &cfg, Algorithm::Bc, 1)
            .unwrap()
            .makespan_s(1.0);
        let four = try_plan_fleet(&net, &cfg, Algorithm::Bc, 4)
            .unwrap()
            .makespan_s(1.0);
        assert!(four < one, "makespan {four} !< {one}");
    }

    #[test]
    fn assignment_points_at_owning_region() {
        let (net, cfg) = setup();
        let fleet = try_plan_fleet(&net, &cfg, Algorithm::Bc, 3).unwrap();
        for (i, &c) in fleet.assignment.iter().enumerate() {
            let region = &fleet.regions[c];
            assert!(
                region
                    .positions()
                    .iter()
                    .any(|p| p.distance(net.sensor(i).pos) < 1e-9),
                "sensor {i} missing from its region"
            );
        }
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let net = deploy::uniform(3, Aabb::square(100.0), 2.0, 1);
        let cfg = PlannerConfig::paper_sim(20.0);
        let fleet = try_plan_fleet(&net, &cfg, Algorithm::Sc, 10).unwrap();
        assert!(fleet.num_chargers() <= 3);
        fleet.validate(&cfg.charging).unwrap();
    }

    #[test]
    fn empty_network() {
        let net = deploy::uniform(0, Aabb::square(100.0), 2.0, 1);
        let cfg = PlannerConfig::paper_sim(20.0);
        let fleet = try_plan_fleet(&net, &cfg, Algorithm::Bc, 3).unwrap();
        assert_eq!(fleet.num_chargers(), 0);
    }

    #[test]
    fn clustering_is_deterministic() {
        let (net, cfg) = setup();
        let a = try_plan_fleet(&net, &cfg, Algorithm::Bc, 3).unwrap();
        let b = try_plan_fleet(&net, &cfg, Algorithm::Bc, 3).unwrap();
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    #[should_panic(expected = "at least one charger")]
    fn zero_chargers_panics() {
        let (net, cfg) = setup();
        let _ = try_plan_fleet(&net, &cfg, Algorithm::Bc, 0);
    }
}

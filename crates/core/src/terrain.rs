//! Obstacle-aware charger routing.
//!
//! The paper's network model assumes "no obstacles exist and the mobile
//! charger can move in all possible directions", yet its formulation
//! already speaks the more general language: Table I defines
//! `d(l_i, l_j)` as *the shortest path between two charging locations*.
//! This module supplies that generality. A [`Terrain`] holds polygon
//! obstacles (buildings, water, cliffs); RF still propagates over them
//! (charging distances stay Euclidean — radio crosses what wheels
//! cannot), but every tour leg is routed with the visibility-graph
//! shortest path and priced by its real length.
//!
//! [`plan_with_terrain`] runs any planner against the terrain metric and
//! returns the plan together with its [`TerrainRoute`] — the per-leg
//! way-point polylines and the true driving distance.

use bc_geom::visibility::VisibilityRouter;
use bc_geom::{Point, Polygon};
use bc_tsp::solve;
use bc_tsp::tour::cycle_length;
use bc_units::Meters;
use bc_wsn::Network;

use crate::planner::Algorithm;
use crate::{generate_bundles, BundleStrategy, ChargingPlan, Metrics, PlannerConfig, Stop};

/// A field with impassable polygon obstacles.
#[derive(Debug, Clone)]
pub struct Terrain {
    router: VisibilityRouter,
}

impl Terrain {
    /// Creates a terrain from obstacle footprints.
    pub fn new(obstacles: Vec<Polygon>) -> Self {
        Terrain {
            router: VisibilityRouter::new(obstacles),
        }
    }

    /// An obstacle-free terrain (the paper's assumption).
    pub fn open() -> Self {
        Terrain::new(Vec::new())
    }

    /// The obstacle footprints.
    pub fn obstacles(&self) -> &[Polygon] {
        self.router.obstacles()
    }

    /// Shortest driveable distance between two points.
    pub fn distance(&self, a: Point, b: Point) -> f64 {
        self.router.path_length(a, b)
    }

    /// Shortest driveable path between two points (way-points).
    pub fn path(&self, a: Point, b: Point) -> Vec<Point> {
        self.router.shortest_path(a, b).1
    }

    /// Whether a point is inside an obstacle (unusable as an anchor).
    pub fn inside_obstacle(&self, p: Point) -> bool {
        self.router.inside_obstacle(p)
    }
}

/// The driveable realisation of a plan's tour on a terrain.
#[derive(Debug, Clone, PartialEq)]
pub struct TerrainRoute {
    /// Way-point polyline per tour leg (leg `i` runs from stop `i` to
    /// stop `i + 1`, cyclically).
    pub legs: Vec<Vec<Point>>,
    /// Total driving distance over all legs.
    pub length_m: Meters,
}

impl TerrainRoute {
    /// Traces a plan's closed tour over the terrain, routing each leg
    /// once.
    pub fn trace(plan: &ChargingPlan, terrain: &Terrain) -> Self {
        let n = plan.stops.len();
        let mut legs = Vec::with_capacity(n);
        let mut length = 0.0;
        if n >= 2 {
            for i in 0..n {
                let a = plan.stops[i].anchor();
                let b = plan.stops[(i + 1) % n].anchor();
                let (d, path) = terrain.router.shortest_path(a, b);
                length += d;
                legs.push(path);
            }
        }
        TerrainRoute {
            legs,
            length_m: Meters(length),
        }
    }

    /// Plan metrics with the movement term re-priced by the routed
    /// distance (dwell terms unchanged).
    pub fn metrics(&self, plan: &ChargingPlan, energy: &bc_wpt::EnergyModel) -> Metrics {
        let mut m = plan.metrics(energy);
        m.tour_length_m = self.length_m;
        m.move_energy_j = energy.movement_energy(self.length_m);
        m.total_energy_j = m.move_energy_j + m.charge_energy_j;
        m
    }
}

/// Plans a charging tour whose stop order minimises the *routed* tour
/// length, and returns the plan with its terrain route.
///
/// Bundling is unchanged (RF ignores obstacles); anchors that land
/// inside an obstacle are nudged to the nearest free position among the
/// bundle's sensors. BC-OPT's continuous relocation is not applied on
/// terrains (the tangency argument assumes straight legs), so
/// `Algorithm::BcOpt` falls back to BC with a routed tour.
pub fn plan_with_terrain(
    net: &Network,
    cfg: &PlannerConfig,
    terrain: &Terrain,
    algo: Algorithm,
) -> (ChargingPlan, TerrainRoute) {
    // Build stops exactly like the open-field planners do.
    let mut stops: Vec<Stop> = match algo {
        Algorithm::Sc => (0..net.len())
            .map(|i| {
                Stop::for_bundle(
                    crate::ChargingBundle::from_members(vec![i], net),
                    net,
                    &cfg.charging,
                )
            })
            .collect(),
        _ => crate::planner::stops_for_bundles(
            generate_bundles(net, cfg.bundle_radius, BundleStrategy::Greedy),
            net,
            cfg,
        ),
    };

    // Anchors inside obstacles are illegal parking spots: snap to the
    // nearest member sensor outside every obstacle (sensors inside
    // obstacles would be undeployable, so one always exists in practice;
    // fall back to the anchor itself otherwise).
    for stop in &mut stops {
        if terrain.inside_obstacle(stop.anchor()) {
            let members = stop.bundle.sensors.clone();
            let best = members
                .iter()
                .map(|&s| net.sensor(s).pos)
                .filter(|&p| !terrain.inside_obstacle(p))
                .min_by(|a, b| {
                    a.distance_squared(stop.anchor())
                        .total_cmp(&b.distance_squared(stop.anchor()))
                });
            if let Some(p) = best {
                let bundle = crate::ChargingBundle::with_anchor(members, p, net);
                *stop = Stop::for_bundle(bundle, net, &cfg.charging);
            }
        }
    }

    // Order the stops by the routed metric, and also by the Euclidean
    // metric re-priced on the terrain; keep whichever drives less (the
    // local searches can land in different optima, and the Euclidean
    // order is often already good when few legs detour). A routed path is
    // never shorter than the straight line (the disconnected fallback *is*
    // the straight line), so both metrics meet `solve`'s precondition
    // over the anchors. Routing a leg walks the visibility graph, so the
    // routed lengths are tabled, once per unordered pair.
    let anchors: Vec<Point> = stops.iter().map(Stop::anchor).collect();
    let k = anchors.len();
    let mut table = vec![0.0; k * k];
    for i in 0..k {
        for j in (i + 1)..k {
            let d = terrain.distance(anchors[i], anchors[j]);
            table[i * k + j] = d;
            table[j * k + i] = d;
        }
    }
    let routed = |i: usize, j: usize| table[i * k + j];
    let (tour_r, _) = solve(&anchors, routed, &cfg.tsp);
    let (tour_e, _) = solve(&anchors, |i, j| anchors[i].distance(anchors[j]), &cfg.tsp);
    let order = if cycle_length(&tour_r.order, routed) <= cycle_length(&tour_e.order, routed) {
        tour_r.order
    } else {
        tour_e.order
    };
    let plan = ChargingPlan::new(crate::planner::in_tour_order(stops, &order), net.len());
    let route = TerrainRoute::trace(&plan, terrain);
    (plan, route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_units::Seconds;
    use bc_wsn::deploy;

    fn walled_terrain() -> Terrain {
        Terrain::new(vec![Polygon::rectangle(
            Point::new(120.0, 20.0),
            Point::new(180.0, 280.0),
        )])
    }

    /// A uniform deployment with sensors inside obstacles removed (real
    /// deployments cannot place motes inside a building).
    fn deploy_around(n: usize, side: f64, seed: u64, terrain: &Terrain) -> bc_wsn::Network {
        let net = deploy::uniform(n, Aabb::square(side), 2.0, seed);
        let coords: Vec<(f64, f64)> = net
            .sensors()
            .iter()
            .filter(|s| !terrain.inside_obstacle(s.pos))
            .map(|s| (s.pos.x, s.pos.y))
            .collect();
        deploy::from_coords(&coords, Aabb::square(side), 2.0)
    }

    #[test]
    fn open_terrain_matches_euclidean_plan() {
        let net = deploy::uniform(30, Aabb::square(300.0), 2.0, 6);
        let cfg = PlannerConfig::paper_sim(30.0);
        let (plan, route) = plan_with_terrain(&net, &cfg, &Terrain::open(), Algorithm::Bc);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
        assert!((route.length_m - plan.tour_length()).abs() < Meters(1e-6));
    }

    #[test]
    fn obstacles_lengthen_the_route() {
        let terrain = walled_terrain();
        let net = deploy_around(40, 300.0, 6, &terrain);
        let cfg = PlannerConfig::paper_sim(30.0);
        let (plan, route) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
        // The routed length can never undercut the straight-line tour.
        assert!(route.length_m >= plan.tour_length() - Meters(1e-6));
        // Every leg is driveable.
        for leg in &route.legs {
            for w in leg.windows(2) {
                assert!(
                    !terrain
                        .obstacles()
                        .iter()
                        .any(|o| o.blocks(bc_geom::Segment::new(w[0], w[1]))),
                    "leg segment crosses an obstacle"
                );
            }
        }
    }

    #[test]
    fn terrain_aware_order_beats_euclidean_order_on_routed_length() {
        // A big wall: ordering by Euclidean distance zig-zags across it;
        // ordering by routed distance should not be worse.
        let terrain = walled_terrain();
        let net = deploy_around(40, 300.0, 9, &terrain);
        let cfg = PlannerConfig::paper_sim(25.0);
        let (_, routed) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
        // Euclidean-ordered plan, then re-trace over the terrain.
        let naive = crate::planner::try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let naive_route = TerrainRoute::trace(&naive, &terrain);
        assert!(
            routed.length_m <= naive_route.length_m + Meters(1e-6),
            "routed {} vs naive {}",
            routed.length_m,
            naive_route.length_m
        );
    }

    #[test]
    fn trace_routes_each_leg_as_distance_and_path_do() {
        let terrain = walled_terrain();
        let net = deploy_around(40, 300.0, 6, &terrain);
        let cfg = PlannerConfig::paper_sim(30.0);
        let (plan, route) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
        let n = plan.stops.len();
        assert_eq!(route.legs.len(), n);
        let mut length = 0.0;
        for (i, leg) in route.legs.iter().enumerate() {
            let a = plan.stops[i].anchor();
            let b = plan.stops[(i + 1) % n].anchor();
            length += terrain.distance(a, b);
            assert_eq!(*leg, terrain.path(a, b), "leg {i}");
        }
        assert_eq!(route.length_m.0.to_bits(), length.to_bits());
        // Some leg detours, so the wall is in the way.
        assert!(route.legs.iter().any(|leg| leg.len() > 2));
    }

    #[test]
    fn metrics_reprice_movement_only() {
        let terrain = Terrain::new(vec![Polygon::rectangle(
            Point::new(80.0, 0.0),
            Point::new(120.0, 150.0),
        )]);
        let net = deploy_around(20, 200.0, 3, &terrain);
        let cfg = PlannerConfig::paper_sim(25.0);
        let (plan, route) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
        let m = route.metrics(&plan, &cfg.energy);
        assert!((m.charge_time_s - plan.total_dwell()).abs() < Seconds(1e-9));
        assert!((m.tour_length_m - route.length_m).abs() < Meters(1e-9));
        assert!(
            m.total_energy_j >= plan.metrics(&cfg.energy).total_energy_j - bc_units::Joules(1e-6)
        );
    }

    #[test]
    fn anchor_inside_obstacle_is_snapped_out() {
        // Two sensors straddling a thin wall: their SED center falls
        // inside it.
        let net = deploy::from_coords(&[(95.0, 50.0), (125.0, 50.0)], Aabb::square(200.0), 2.0);
        let cfg = PlannerConfig::paper_sim(40.0);
        let terrain = Terrain::new(vec![Polygon::rectangle(
            Point::new(100.0, 0.0),
            Point::new(120.0, 100.0),
        )]);
        let (plan, _) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
        for stop in &plan.stops {
            assert!(!terrain.inside_obstacle(stop.anchor()));
        }
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn sc_variant_runs_on_terrain() {
        let net = deploy_around(15, 200.0, 4, &walled_terrain());
        let cfg = PlannerConfig::paper_sim(20.0);
        let (plan, route) = plan_with_terrain(&net, &cfg, &walled_terrain(), Algorithm::Sc);
        assert_eq!(plan.num_charging_stops(), net.len());
        assert!(route.length_m > Meters(0.0));
    }
}

//! Charging-tour planners: SC, CSS, BC and BC-OPT.
//!
//! All planners share the same contract: they take a [`Network`] and a
//! [`PlannerConfig`] and return a validated-by-construction
//! [`ChargingPlan`] whose stops fully charge every sensor. They run only
//! through the staged pipeline: [`try_run`] for a one-shot plan, or a
//! [`crate::context::PlanContext`] when several plans share a network.
//! The four [`Algorithm`]s mirror the comparison of Section VI-B:
//!
//! * [`Algorithm::Sc`] — TSP over every sensor, charging each at zero
//!   distance (Shi et al., INFOCOM'11, adapted);
//! * [`Algorithm::Css`] — Combine–Skip–Substitute (He et al., TMC'13):
//!   merges tour-adjacent sensors into shared stops and substitutes stop
//!   locations to shorten the tour, but never trades movement for
//!   charging time;
//! * [`Algorithm::Bc`] — greedy bundle generation (Algorithm 2) + TSP
//!   over anchor points;
//! * [`Algorithm::BcOpt`] — BC followed by the Algorithm 3 anchor
//!   relocation driven by the Theorem 4/5 tangency search.
//!
//! This module holds the stage bodies; [`crate::context::stages_for`]
//! composes them into each algorithm's pipeline.

mod bc;
mod bc_opt;
mod css;

pub(crate) use bc::stops_for_bundles;
pub(crate) use bc_opt::optimize_tour_with_workers;
pub(crate) use css::{combine_skip as css_combine_skip, substitute as css_substitute};

use bc_geom::Point;
use bc_tsp::{solve, SolveConfig};
use bc_wsn::Network;

use crate::{ChargingPlan, PlanError, PlannerConfig, Stop};

/// Orders a bag of stops into a closed tour with the TSP pipeline,
/// optionally prepending the network's base station as a zero-dwell
/// way-point, and returns the finished plan.
pub(crate) fn order_into_plan(
    mut stops: Vec<Stop>,
    net: &Network,
    tsp: &SolveConfig,
    include_base: bool,
) -> ChargingPlan {
    if include_base {
        stops.push(Stop::waypoint(net.base()));
    }
    let anchors: Vec<Point> = stops.iter().map(Stop::anchor).collect();
    let tour = solve(&anchors, tsp);
    let mut ordered: Vec<Stop> = Vec::with_capacity(stops.len());
    let mut slots: Vec<Option<Stop>> = stops.into_iter().map(Some).collect();
    for &i in &tour.order {
        debug_assert!(
            slots.get(i).is_some_and(Option::is_some),
            "tour visits each stop once"
        );
        if let Some(stop) = slots.get_mut(i).and_then(Option::take) {
            ordered.push(stop);
        }
    }
    // Start the tour at the base way-point when present, for readability.
    if include_base {
        if let Some(pos) = ordered.iter().position(|s| s.bundle.is_empty()) {
            ordered.rotate_left(pos);
        }
    }
    ChargingPlan::new(ordered, net.len())
}

/// Fallible planner dispatcher: validates the configuration and the
/// network's demands before dispatching, so bad input surfaces as a
/// typed [`PlanError`] instead of a panic or a `NaN`-riddled plan.
///
/// Runs the staged pipeline of [`crate::context::PlanContext`] over a
/// one-shot context; callers planning repeatedly over the same network
/// should hold a `PlanContext` themselves so the cached artifacts are
/// reused across calls.
///
/// # Example
///
/// ```
/// use bc_core::planner::{try_run, Algorithm};
/// use bc_core::PlannerConfig;
/// use bc_wsn::deploy;
/// use bc_geom::Aabb;
///
/// let net = deploy::uniform(30, Aabb::square(500.0), 2.0, 3);
/// let cfg = PlannerConfig::paper_sim(30.0);
/// for algo in Algorithm::ALL {
///     let plan = try_run(algo, &net, &cfg).unwrap();
///     assert!(plan.validate(&net, &cfg.charging).is_ok());
/// }
/// ```
///
/// # Errors
///
/// * [`PlanError::Config`] when [`PlannerConfig::validate`] rejects the
///   configuration;
/// * [`PlanError::InvalidDemand`] when some sensor's demand is negative
///   or not finite.
pub fn try_run(
    algo: Algorithm,
    net: &Network,
    cfg: &PlannerConfig,
) -> Result<ChargingPlan, PlanError> {
    crate::context::PlanContext::new(net.clone(), cfg.clone())
        .plan(algo)
        .map(crate::context::StagedPlan::into_plan)
}

/// The four compared algorithms. `Ord` follows declaration order
/// (Sc < Css < Bc < BcOpt) so the enum can key ordered maps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Algorithm {
    /// Single Charging: one stop per sensor.
    Sc,
    /// Combine–Skip–Substitute.
    Css,
    /// Bundle Charging.
    Bc,
    /// Bundle Charging with tour optimization.
    BcOpt,
}

impl Algorithm {
    /// All algorithms in the order the paper plots them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Sc,
        Algorithm::Css,
        Algorithm::Bc,
        Algorithm::BcOpt,
    ];

    /// The short name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Sc => "SC",
            Algorithm::Css => "CSS",
            Algorithm::Bc => "BC",
            Algorithm::BcOpt => "BC-OPT",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_units::Joules;
    use bc_wsn::deploy;

    #[test]
    fn dispatcher_names() {
        assert_eq!(Algorithm::Sc.name(), "SC");
        assert_eq!(Algorithm::BcOpt.to_string(), "BC-OPT");
        assert_eq!(Algorithm::ALL.len(), 4);
    }

    #[test]
    fn all_planners_validate_on_shared_network() {
        let net = deploy::uniform(40, Aabb::square(600.0), 2.0, 11);
        let cfg = PlannerConfig::paper_sim(40.0);
        for algo in Algorithm::ALL {
            let plan = try_run(algo, &net, &cfg).unwrap();
            plan.validate(&net, &cfg.charging)
                .unwrap_or_else(|e| panic!("{algo}: {e}"));
        }
    }

    #[test]
    fn base_station_waypoint_respected() {
        let net = deploy::uniform(10, Aabb::square(300.0), 2.0, 2);
        let mut cfg = PlannerConfig::paper_sim(30.0);
        cfg.include_base = true;
        let plan = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        assert!(plan.stops[0].bundle.is_empty(), "tour should start at base");
        assert_eq!(plan.num_charging_stops(), 10);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn sc_charges_each_sensor_at_contact_distance() {
        let net = deploy::uniform(25, Aabb::square(500.0), 2.0, 6);
        let cfg = PlannerConfig::paper_sim(10.0);
        let plan = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        assert_eq!(plan.num_charging_stops(), 25);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
        let contact = cfg.charging.charge_time(bc_units::Meters(0.0), Joules(2.0));
        for stop in &plan.stops {
            assert!((stop.dwell - contact).abs() < bc_units::Seconds(1e-9));
        }
        assert!((plan.total_dwell() - contact * 25.0).abs() < bc_units::Seconds(1e-9));
    }

    #[test]
    fn try_run_rejects_bad_config_and_demands() {
        let net = deploy::uniform(8, Aabb::square(200.0), 2.0, 7);
        let bad_cfg = PlannerConfig::paper_sim(f64::NAN);
        for algo in Algorithm::ALL {
            assert!(matches!(
                try_run(algo, &net, &bad_cfg),
                Err(PlanError::Config(_))
            ));
        }
        let cfg = PlannerConfig::paper_sim(30.0);
        // Sensor::new rejects negative demand, so corrupt one post-hoc.
        let mut sensors = net.sensors().to_vec();
        sensors[3].demand = Joules(f64::NAN);
        let bad_net = Network::new(sensors, net.field(), net.base());
        assert!(matches!(
            try_run(Algorithm::Bc, &bad_net, &cfg),
            Err(PlanError::InvalidDemand { .. })
        ));
        assert!(try_run(Algorithm::Bc, &net, &cfg).is_ok());
    }

    #[test]
    fn empty_network_yields_empty_plans() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        let cfg = PlannerConfig::paper_sim(5.0);
        for algo in Algorithm::ALL {
            let plan = try_run(algo, &net, &cfg).unwrap();
            assert_eq!(plan.num_charging_stops(), 0);
            assert!(plan.validate(&net, &cfg.charging).is_ok());
        }
    }
}

//! Bundle Charging (BC): charging stops over a bundle family. The bundles
//! come from greedy Algorithm 2 by default; the Order stage then connects
//! their anchors with a TSP tour.

use bc_wsn::Network;

use crate::config::DwellPolicy;
use crate::{ChargingBundle, PlannerConfig, Stop};

/// Turns a bundle family into charging stops under `cfg.dwell_policy`:
/// the one place the dwell policy is decided. The BC Cover stage feeds it
/// bundles covered from the context's candidate family, and
/// [`crate::terrain::plan_with_terrain`] feeds it freshly generated ones.
pub(crate) fn stops_for_bundles(
    bundles: Vec<ChargingBundle>,
    net: &Network,
    cfg: &PlannerConfig,
) -> Vec<Stop> {
    bundles
        .into_iter()
        .map(|b| match cfg.dwell_policy {
            DwellPolicy::Realized => Stop::for_bundle(b, net, &cfg.charging),
            DwellPolicy::RadiusWorstCase => {
                let dwell = b.worst_case_dwell_time(cfg.bundle_radius, net, &cfg.charging);
                Stop { bundle: b, dwell }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::planner::{try_run, Algorithm};
    use crate::PlannerConfig;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    #[test]
    fn plan_is_feasible() {
        let net = deploy::uniform(60, Aabb::square(600.0), 2.0, 12);
        let cfg = PlannerConfig::paper_sim(40.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        assert!(bc.validate(&net, &cfg.charging).is_ok());
        assert!(bc.num_charging_stops() <= 60);
    }

    #[test]
    fn fewer_stops_than_sc_in_dense_network() {
        let net = deploy::clusters(80, 6, 15.0, Aabb::square(500.0), 2.0, 13);
        let cfg = PlannerConfig::paper_sim(30.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let sc = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        assert!(bc.num_charging_stops() < sc.num_charging_stops());
    }

    #[test]
    fn shorter_tour_than_sc_in_dense_network() {
        let net = deploy::clusters(100, 5, 10.0, Aabb::square(800.0), 2.0, 14);
        let cfg = PlannerConfig::paper_sim(30.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let sc = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        assert!(bc.tour_length() < sc.tour_length());
    }

    #[test]
    fn tiny_radius_degenerates_to_sc_shape() {
        let net = deploy::uniform(20, Aabb::square(1000.0), 2.0, 15);
        let cfg = PlannerConfig::paper_sim(0.1);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        assert_eq!(bc.num_charging_stops(), 20);
    }
}

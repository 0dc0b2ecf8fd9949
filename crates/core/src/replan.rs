//! Incremental replanning under network churn.
//!
//! Deployments change between charging rounds: motes die permanently,
//! new ones are scattered. Recomputing the whole plan is cheap enough at
//! this scale, but churn-local updates preserve tour stability (drivers
//! and schedulers dislike plans that reshuffle completely after every
//! change) and cost `O(stops)` instead of a full OBG + TSP run.
//!
//! Both operations return a *new* `(Network, ChargingPlan)` pair — sensor
//! indices are re-assigned by [`Network::new`], so the plan is rebuilt
//! against the updated indices in the same pass.

use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::{Network, Sensor, SensorId};

use crate::{ChargingBundle, ChargingPlan, PlanError, PlannerConfig, Stop};

/// Removes sensor `sensor_idx` from the network and updates the plan
/// locally: its bundle shrinks (anchor recentred, dwell recomputed) or,
/// if it was a singleton, the stop is dropped from the tour.
///
/// # Errors
///
/// Returns [`PlanError::SensorOutOfBounds`] if `sensor_idx` does not
/// exist in the network.
pub fn remove_sensor(
    net: &Network,
    plan: &ChargingPlan,
    sensor_idx: usize,
    cfg: &PlannerConfig,
) -> Result<(Network, ChargingPlan), PlanError> {
    if sensor_idx >= net.len() {
        return Err(PlanError::SensorOutOfBounds {
            sensor: sensor_idx,
            len: net.len(),
        });
    }
    // New network without the sensor; indices above it shift down one.
    let sensors: Vec<Sensor> = net
        .sensors()
        .iter()
        .filter(|s| s.id.0 != sensor_idx)
        .copied()
        .collect();
    let new_net = Network::new(sensors, net.field(), net.base());
    let remap = |old: usize| -> Option<usize> {
        match old.cmp(&sensor_idx) {
            std::cmp::Ordering::Less => Some(old),
            std::cmp::Ordering::Equal => None,
            std::cmp::Ordering::Greater => Some(old - 1),
        }
    };
    let mut stops = Vec::with_capacity(plan.stops.len());
    for stop in &plan.stops {
        if stop.bundle.is_empty() {
            stops.push(stop.clone());
            continue;
        }
        let members: Vec<usize> = stop.bundle.sensors.iter().filter_map(|&s| remap(s)).collect();
        if members.is_empty() {
            continue; // singleton stop dissolved
        }
        if members.len() == stop.bundle.sensors.len() {
            // Untouched bundle: keep the stop verbatim (indices remapped).
            let bundle = ChargingBundle::with_anchor(members, stop.bundle.anchor, &new_net);
            stops.push(Stop {
                dwell: stop.dwell,
                bundle,
            });
        } else {
            // Lost a member: recentre and recompute the dwell.
            let bundle = ChargingBundle::from_members(members, &new_net);
            stops.push(Stop::for_bundle(bundle, &new_net, &cfg.charging));
        }
    }
    let plan = ChargingPlan::new(stops, new_net.len());
    Ok((new_net, plan))
}

/// Adds a sensor at `pos` with the given demand and updates the plan
/// locally: the sensor joins the existing stop that can absorb it within
/// the bundle radius at the least extra energy, or becomes a new
/// singleton stop spliced into the tour at the cheapest position.
///
/// # Errors
///
/// Returns [`PlanError::InvalidDemand`] if `demand` is negative or not
/// finite (a `NaN` demand would otherwise poison every dwell downstream).
pub fn add_sensor(
    net: &Network,
    plan: &ChargingPlan,
    pos: Point,
    demand: f64,
    cfg: &PlannerConfig,
) -> Result<(Network, ChargingPlan), PlanError> {
    if !demand.is_finite() || demand < 0.0 {
        return Err(PlanError::InvalidDemand {
            value: Joules(demand),
        });
    }
    let mut sensors: Vec<Sensor> = net.sensors().to_vec();
    let new_idx = sensors.len();
    sensors.push(Sensor::new(SensorId(new_idx), pos, demand));
    let new_net = Network::new(sensors, net.field(), net.base());

    // Rebuild stops against the new network (indices are unchanged).
    let mut stops: Vec<Stop> = plan
        .stops
        .iter()
        .map(|s| Stop {
            bundle: ChargingBundle {
                sensors: s.bundle.sensors.clone(),
                anchor: s.bundle.anchor,
                enclosing_radius: s.bundle.enclosing_radius,
            },
            dwell: s.dwell,
        })
        .collect();

    // Option A: join the best absorbing stop.
    let mut best_join: Option<(usize, ChargingBundle, Seconds, Joules)> = None; // (stop, bundle, dwell, extra energy)
    for (si, stop) in stops.iter().enumerate() {
        if stop.bundle.is_empty() {
            continue;
        }
        let mut members = stop.bundle.sensors.clone();
        members.push(new_idx);
        let bundle = ChargingBundle::from_members(members, &new_net);
        if bundle.enclosing_radius > cfg.bundle_radius + Meters(bc_geom::EPS) {
            continue;
        }
        let dwell = bundle.dwell_time(&new_net, &cfg.charging);
        // Anchor may move: both legs and dwell change.
        let n = stops.len();
        let prev = stops[(si + n - 1) % n].anchor();
        let next = stops[(si + 1) % n].anchor();
        let old_legs = prev.distance(stop.anchor()) + stop.anchor().distance(next);
        let new_legs = prev.distance(bundle.anchor) + bundle.anchor.distance(next);
        let extra = cfg.energy.movement_energy(Meters((new_legs - old_legs).max(0.0)))
            + cfg.energy.charging_energy((dwell - stop.dwell).max(Seconds(0.0)));
        if best_join.as_ref().is_none_or(|&(_, _, _, e)| extra < e) {
            best_join = Some((si, bundle, dwell, extra));
        }
    }

    // Option B: a new singleton stop at the cheapest splice position.
    let singleton = ChargingBundle::from_members(vec![new_idx], &new_net);
    let singleton_dwell = singleton.dwell_time(&new_net, &cfg.charging);
    let mut best_splice: Option<(usize, Joules)> = None; // insert before index, extra energy
    if stops.is_empty() {
        best_splice = Some((0, cfg.energy.charging_energy(singleton_dwell)));
    } else {
        let n = stops.len();
        for i in 0..n {
            let prev = stops[(i + n - 1) % n].anchor();
            let next = stops[i].anchor();
            let extra_move = prev.distance(pos) + pos.distance(next) - prev.distance(next);
            let extra = cfg.energy.movement_energy(Meters(extra_move.max(0.0)))
                + cfg.energy.charging_energy(singleton_dwell);
            if best_splice.is_none_or(|(_, e)| extra < e) {
                best_splice = Some((i, extra));
            }
        }
    }

    match (best_join, best_splice) {
        (Some((si, bundle, dwell, join_cost)), Some((_, splice_cost)))
            if join_cost <= splice_cost =>
        {
            stops[si] = Stop { bundle, dwell };
        }
        (Some((si, bundle, dwell, _)), None) => {
            stops[si] = Stop { bundle, dwell };
        }
        (_, Some((at, _))) => {
            stops.insert(
                at,
                Stop {
                    bundle: singleton,
                    dwell: singleton_dwell,
                },
            );
        }
        (None, None) => {
            // The splice option is always constructed above, so this arm
            // is unreachable; degrade gracefully instead of panicking.
            stops.push(Stop {
                bundle: singleton,
                dwell: singleton_dwell,
            });
        }
    }
    let plan = ChargingPlan::new(stops, new_net.len());
    Ok((new_net, plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn setup() -> (Network, PlannerConfig, ChargingPlan) {
        let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 55);
        let cfg = PlannerConfig::paper_sim(30.0);
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        (net, cfg, plan)
    }

    #[test]
    fn remove_keeps_plan_feasible() {
        let (net, cfg, plan) = setup();
        let mut cur = (net, plan);
        for _ in 0..10 {
            let victim = cur.0.len() / 2;
            cur = remove_sensor(&cur.0, &cur.1, victim, &cfg).unwrap();
            cur.1
                .validate(&cur.0, &cfg.charging)
                .expect("plan must stay feasible after removal");
        }
        assert_eq!(cur.0.len(), 30);
    }

    #[test]
    fn remove_down_to_empty() {
        let net = deploy::uniform(3, Aabb::square(100.0), 2.0, 4);
        let cfg = PlannerConfig::paper_sim(20.0);
        let mut cur = (
            net,
            try_run(
                Algorithm::Bc,
                &deploy::uniform(3, Aabb::square(100.0), 2.0, 4),
                &cfg,
            )
            .unwrap(),
        );
        for _ in 0..3 {
            cur = remove_sensor(&cur.0, &cur.1, 0, &cfg).unwrap();
            cur.1.validate(&cur.0, &cfg.charging).unwrap();
        }
        assert_eq!(cur.0.len(), 0);
        assert_eq!(cur.1.num_charging_stops(), 0);
    }

    #[test]
    fn add_keeps_plan_feasible_and_covers_newcomer() {
        let (net, cfg, plan) = setup();
        let mut cur = (net, plan);
        for k in 0..8 {
            let pos = Point::new(30.0 + 30.0 * k as f64, 150.0);
            cur = add_sensor(&cur.0, &cur.1, pos, 2.0, &cfg).unwrap();
            cur.1
                .validate(&cur.0, &cfg.charging)
                .expect("plan must stay feasible after addition");
        }
        assert_eq!(cur.0.len(), 48);
    }

    #[test]
    fn add_nearby_sensor_joins_existing_stop() {
        let (net, cfg, plan) = setup();
        let stops_before = plan.num_charging_stops();
        // Drop the newcomer right on an existing anchor.
        let anchor = plan.stops[0].anchor();
        let (net2, plan2) = add_sensor(&net, &plan, anchor, 2.0, &cfg).unwrap();
        assert_eq!(plan2.num_charging_stops(), stops_before, "should absorb, not split");
        plan2.validate(&net2, &cfg.charging).unwrap();
    }

    #[test]
    fn add_remote_sensor_creates_new_stop() {
        let (net, cfg, plan) = setup();
        let stops_before = plan.num_charging_stops();
        // Far corner, outside every bundle radius.
        let (net2, plan2) = add_sensor(&net, &plan, Point::new(299.0, 1.0), 2.0, &cfg).unwrap();
        // Either absorbed (if a bundle is near the corner) or a new stop;
        // for this seed the corner is isolated.
        assert!(plan2.num_charging_stops() >= stops_before);
        plan2.validate(&net2, &cfg.charging).unwrap();
    }

    #[test]
    fn add_into_empty_plan() {
        let net = deploy::uniform(0, Aabb::square(100.0), 2.0, 0);
        let cfg = PlannerConfig::paper_sim(20.0);
        let plan = ChargingPlan::new(Vec::new(), 0);
        let (net2, plan2) = add_sensor(&net, &plan, Point::new(50.0, 50.0), 2.0, &cfg).unwrap();
        assert_eq!(net2.len(), 1);
        assert_eq!(plan2.num_charging_stops(), 1);
        plan2.validate(&net2, &cfg.charging).unwrap();
    }

    #[test]
    fn churn_stays_near_fresh_plan_quality() {
        let (net, cfg, plan) = setup();
        let mut cur = (net, plan);
        // 6 removals + 6 additions.
        for k in 0..6 {
            cur = remove_sensor(&cur.0, &cur.1, k * 3, &cfg).unwrap();
            let pos = Point::new(20.0 + k as f64 * 45.0, 260.0 - k as f64 * 40.0);
            cur = add_sensor(&cur.0, &cur.1, pos, 2.0, &cfg).unwrap();
        }
        cur.1.validate(&cur.0, &cfg.charging).unwrap();
        let incremental = cur.1.metrics(&cfg.energy).total_energy_j;
        let fresh = try_run(Algorithm::Bc, &cur.0, &cfg)
            .unwrap()
            .metrics(&cfg.energy)
            .total_energy_j;
        assert!(
            incremental <= fresh * 1.35,
            "incremental {incremental} too far above fresh {fresh}"
        );
    }

    #[test]
    fn remove_bad_index_is_a_typed_error() {
        let (net, cfg, plan) = setup();
        let err = remove_sensor(&net, &plan, 999, &cfg).unwrap_err();
        assert_eq!(err, PlanError::SensorOutOfBounds { sensor: 999, len: 40 });
        assert!(err.to_string().contains("999"));
    }

    #[test]
    fn add_bad_demand_is_a_typed_error() {
        let (net, cfg, plan) = setup();
        for bad in [f64::NAN, f64::INFINITY, -2.0] {
            let err = add_sensor(&net, &plan, Point::new(1.0, 1.0), bad, &cfg).unwrap_err();
            assert!(matches!(err, PlanError::InvalidDemand { .. }));
        }
    }
}

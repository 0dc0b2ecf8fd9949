//! Combine–Skip–Substitute (CSS), adapted from He et al., TMC'13.
//!
//! CSS was designed for data mules with a fixed communication range `r`:
//! it starts from the sensor-level TSP tour, *combines* tour-adjacent
//! sensors whose radius-`r` disks admit a common stop, *skips* stops whose
//! sensors are already reachable from other stops, and *substitutes* stop
//! locations with points that shorten the tour while keeping every
//! assigned sensor within range.
//!
//! The key difference from BC-OPT (and the reason CSS trails it in
//! Figs. 12–13) is that CSS optimises *tour length only*: it never weighs
//! the longer charging time a displaced stop causes, because for data
//! collection any point within range is equally good.

use bc_geom::{sed, tangency, Disk, Point, Segment};
use bc_wsn::Network;

use crate::{ChargingBundle, ChargingPlan, PlannerConfig, Stop};

/// The Combine and Skip passes over a sensor-level tour order, returning
/// the surviving stops (unordered). The CSS Cover stage supplies the
/// sensor-level tour from [`bc_tsp::solve`].
pub(crate) fn combine_skip(net: &Network, cfg: &PlannerConfig, tour_order: &[usize]) -> Vec<Stop> {
    let r = cfg.bundle_radius;

    // Stage 1 — Combine: greedily merge consecutive tour sensors while
    // they still fit a radius-r disk.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    for &s in tour_order {
        let mut trial = current.clone();
        trial.push(s);
        let pts: Vec<Point> = trial.iter().map(|&i| net.sensor(i).pos).collect();
        if current.is_empty() || sed::fits_in_radius(&pts, r.0) {
            current = trial;
        } else {
            groups.push(std::mem::take(&mut current));
            current.push(s);
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    let mut bundles: Vec<ChargingBundle> = groups
        .into_iter()
        .map(|g| ChargingBundle::from_members(g, net))
        .collect();

    // Stage 2 — Skip: drop stops whose members are all within range of
    // some other stop, reassigning each member to its nearest such stop.
    // Smallest stops are tried first (cheapest to dissolve).
    let mut order: Vec<usize> = (0..bundles.len()).collect();
    order.sort_by_key(|&i| bundles[i].len());
    let mut removed = vec![false; bundles.len()];
    for &i in &order {
        if bundles.len() - removed.iter().filter(|&&x| x).count() <= 1 {
            break;
        }
        // For every member, find an alternative live stop within r.
        let mut destinations: Vec<(usize, usize)> = Vec::new(); // (sensor, stop)
        let mut ok = true;
        for &s in &bundles[i].sensors {
            let pos = net.sensor(s).pos;
            let mut best: Option<(usize, f64)> = None;
            for (j, b) in bundles.iter().enumerate() {
                if j == i || removed[j] {
                    continue;
                }
                let d = b.anchor.distance(pos);
                if d <= r.0 + bc_geom::EPS && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
            match best {
                Some((j, _)) => destinations.push((s, j)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            removed[i] = true;
            for (s, j) in destinations {
                bundles[j].sensors.push(s);
                let d = net.sensor(s).pos.distance(bundles[j].anchor);
                if d > bundles[j].enclosing_radius.0 {
                    bundles[j].enclosing_radius = bc_units::Meters(d);
                }
            }
        }
    }
    let bundles: Vec<ChargingBundle> = bundles
        .into_iter()
        .zip(removed)
        .filter_map(|(b, dead)| (!dead).then_some(b))
        .collect();

    bundles
        .into_iter()
        .map(|b| Stop::for_bundle(b, net, &cfg.charging))
        .collect()
}

/// Stage 3 — Substitute: slide each stop inside its slack disk to the
/// point minimising the detour through its tour neighbours. Tour length
/// is the only objective (dwell is recomputed but not weighed).
pub(crate) fn substitute(plan: &mut ChargingPlan, net: &Network, cfg: &PlannerConfig) {
    let r = cfg.bundle_radius;
    let n = plan.stops.len();
    if n >= 2 {
        for i in 0..n {
            let prev = plan.stops[(i + n - 1) % n].anchor();
            let next = plan.stops[(i + 1) % n].anchor();
            let members = plan.stops[i].bundle.sensors.clone();
            let pts: Vec<Point> = members.iter().map(|&s| net.sensor(s).pos).collect();
            let disk = sed::smallest_enclosing_disk(&pts);
            let slack = r.0 - disk.radius;
            if slack <= bc_geom::EPS {
                continue;
            }
            let new_anchor = best_point_in_disk(prev, next, &Disk::new(disk.center, slack));
            let bundle = ChargingBundle::with_anchor(members, new_anchor, net);
            plan.stops[i] = Stop::for_bundle(bundle, net, &cfg.charging);
        }
    }
}

/// The point inside `disk` minimising `|a - P| + |P - b|`: the segment's
/// closest approach when it crosses the disk, otherwise the Theorem 4
/// tangency point on the boundary.
fn best_point_in_disk(a: Point, b: Point, disk: &Disk) -> Point {
    let seg = Segment::new(a, b);
    let closest = seg.closest_point(disk.center);
    if closest.distance(disk.center) <= disk.radius {
        return closest;
    }
    tangency::min_focal_sum_on_circle(a, b, disk).point
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    #[test]
    fn plan_is_feasible() {
        let net = deploy::uniform(50, Aabb::square(500.0), 2.0, 31);
        let cfg = PlannerConfig::paper_sim(40.0);
        let plan = try_run(Algorithm::Css, &net, &cfg).unwrap();
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn all_members_within_range_of_stop() {
        let net = deploy::uniform(50, Aabb::square(400.0), 2.0, 32);
        let cfg = PlannerConfig::paper_sim(35.0);
        let plan = try_run(Algorithm::Css, &net, &cfg).unwrap();
        for stop in &plan.stops {
            for &s in &stop.bundle.sensors {
                assert!(
                    stop.bundle.member_distance(s, &net) <= bc_units::Meters(35.0 + 1e-6),
                    "member outside communication range"
                );
            }
        }
    }

    #[test]
    fn shorter_tour_than_sc_in_dense_network() {
        let net = deploy::clusters(80, 6, 12.0, Aabb::square(700.0), 2.0, 33);
        let cfg = PlannerConfig::paper_sim(30.0);
        let sc = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        let c = try_run(Algorithm::Css, &net, &cfg).unwrap();
        assert!(c.tour_length() < sc.tour_length());
    }

    #[test]
    fn best_point_in_disk_on_segment() {
        let d = Disk::new(Point::new(0.0, 0.0), 2.0);
        let p = best_point_in_disk(Point::new(-10.0, 1.0), Point::new(10.0, 1.0), &d);
        // The segment passes through the disk; the best point is on it.
        assert!((p.y - 1.0).abs() < 1e-9);
    }

    #[test]
    fn best_point_in_disk_off_segment() {
        let d = Disk::new(Point::new(0.0, 10.0), 2.0);
        let p = best_point_in_disk(Point::new(-10.0, 0.0), Point::new(10.0, 0.0), &d);
        // Off-segment: boundary tangency pulled toward the segment.
        assert!(p.distance(Point::new(0.0, 8.0)) < 1e-6);
    }

    #[test]
    fn singleton_network() {
        let net = deploy::uniform(1, Aabb::square(100.0), 2.0, 34);
        let cfg = PlannerConfig::paper_sim(10.0);
        let plan = try_run(Algorithm::Css, &net, &cfg).unwrap();
        assert_eq!(plan.num_charging_stops(), 1);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }
}

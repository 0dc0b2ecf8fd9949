//! Cross-stop dwell tightening — exploiting the full Eq. 3 constraint.
//!
//! The BTO formulation's charging constraint is
//! `sum_i p_r(i, j) * t_i >= delta_j`: a sensor may be credited energy
//! from *every* stop of the tour, not only the stop it is assigned to.
//! The paper's planners never exploit this (each bundle's dwell covers
//! its own members in isolation, which is safe but conservative —
//! one-to-many charging leaks energy to every sensor in range of every
//! stop). This module implements the natural extension: given a finished
//! plan, shrink dwell times to the componentwise-minimal fixed point that
//! still satisfies the full cross-credit constraint.
//!
//! The solver is Gauss–Seidel on the constraint system: each pass
//! re-derives every stop's dwell as exactly what its own members still
//! need given all other stops' current dwells, sweeping until a full
//! pass changes nothing. Dwells only ever decrease from the feasible
//! starting point and the result is re-validated under the cross-credit
//! semantics, so the pass is always safe to apply.

use bc_units::{Joules, Meters, Seconds, Watts};
use bc_wpt::ChargingModel;
use bc_wsn::Network;

use crate::{ChargingPlan, PlanError};

/// Outcome of a tightening pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TightenReport {
    /// Gauss–Seidel sweeps executed.
    pub sweeps: usize,
    /// Total dwell before tightening.
    pub dwell_before_s: Seconds,
    /// Total dwell after tightening.
    pub dwell_after_s: Seconds,
}

impl TightenReport {
    /// Fraction of dwell time removed, in `[0, 1)`.
    pub fn saving(&self) -> f64 {
        if self.dwell_before_s.0 <= 0.0 {
            0.0
        } else {
            1.0 - self.dwell_after_s / self.dwell_before_s
        }
    }
}

/// Energy delivered to every sensor by the whole tour under cross-stop
/// crediting, indexed like the network.
pub fn delivered_energy(plan: &ChargingPlan, net: &Network, model: &ChargingModel) -> Vec<Joules> {
    let mut delivered = vec![Joules(0.0); net.len()];
    for stop in &plan.stops {
        if stop.dwell.0 <= 0.0 {
            continue;
        }
        for (j, s) in net.sensors().iter().enumerate() {
            let d = Meters(s.pos.distance(stop.anchor()));
            delivered[j] += model.delivered_energy(d, stop.dwell);
        }
    }
    delivered
}

/// Validates a plan under the cross-credit semantics of Eq. 3: every
/// sensor's *total* received energy meets its demand.
///
/// # Errors
///
/// Returns what [`ChargingPlan::validate`] returns for a member outside
/// the network ([`PlanError::SensorOutOfBounds`]), a sensor in two stops
/// or a sensor in none, else [`PlanError::Undercharged`] for the first
/// failing sensor, with `stop` set to the stop that serves it.
pub fn validate_cross_credit(
    plan: &ChargingPlan,
    net: &Network,
    model: &ChargingModel,
) -> Result<(), PlanError> {
    let assigned_stop = plan.assigned_stops(net.len())?;
    let delivered = delivered_energy(plan, net, model);
    for (j, &e) in delivered.iter().enumerate() {
        let demanded = net.sensor(j).demand;
        if e + Joules(1e-9) < demanded {
            return Err(PlanError::Undercharged {
                stop: assigned_stop[j],
                sensor: j,
                delivered: e,
                demanded,
            });
        }
    }
    Ok(())
}

/// Shrinks the plan's dwell times in place to the minimal fixed point of
/// the cross-credit constraint system, and returns what happened.
///
/// Starts from the plan's (feasible) dwells and sweeps at most
/// `max_sweeps` times; each sweep recomputes every stop's dwell as the
/// exact requirement of its own members given all other dwells. If the
/// tightened plan unexpectedly fails cross-credit validation (it cannot,
/// barring floating-point pathologies), the original dwells are
/// restored.
pub fn tighten_dwells(
    plan: &mut ChargingPlan,
    net: &Network,
    model: &ChargingModel,
    max_sweeps: usize,
) -> TightenReport {
    let before: Vec<Seconds> = plan.stops.iter().map(|s| s.dwell).collect();
    let dwell_before_s: Seconds = before.iter().sum();
    let n_stops = plan.stops.len();

    // Precompute received power per (stop, sensor) pair once.
    let power: Vec<Vec<Watts>> = plan
        .stops
        .iter()
        .map(|stop| {
            net.sensors()
                .iter()
                .map(|s| model.received_power(Meters(s.pos.distance(stop.anchor()))))
                .collect()
        })
        .collect();

    let mut sweeps = 0usize;
    for _ in 0..max_sweeps {
        sweeps += 1;
        let mut changed = false;
        for i in 0..n_stops {
            let members = &plan.stops[i].bundle.sensors;
            let mut needed = Seconds(0.0);
            for &j in members {
                // Energy from every other stop at current dwells.
                let mut credit = Joules(0.0);
                for (k, stop) in plan.stops.iter().enumerate() {
                    if k != i {
                        credit += power[k][j] * stop.dwell;
                    }
                }
                let deficit = (net.sensor(j).demand - credit).max(Joules(0.0));
                let p = power[i][j];
                if p.0 > 0.0 {
                    needed = needed.max(deficit / p);
                } else if deficit.0 > 0.0 {
                    // Unreachable member: keep the original dwell.
                    needed = needed.max(before[i]);
                }
            }
            // Dwells only shrink: never exceed the feasible start value.
            let new_dwell = needed.min(before[i]);
            if (plan.stops[i].dwell - new_dwell).abs() > Seconds(1e-9) {
                plan.stops[i].dwell = new_dwell;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    if validate_cross_credit(plan, net, model).is_err() {
        // Restore: the pass must never break feasibility.
        for (stop, &d) in plan.stops.iter_mut().zip(&before) {
            stop.dwell = d;
        }
        return TightenReport {
            sweeps,
            dwell_before_s,
            dwell_after_s: dwell_before_s,
        };
    }
    TightenReport {
        sweeps,
        dwell_before_s,
        dwell_after_s: plan.stops.iter().map(|s| s.dwell).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use crate::PlannerConfig;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    #[test]
    fn tightening_never_breaks_cross_credit_feasibility() {
        for seed in [1u64, 2, 3] {
            let net = deploy::uniform(60, Aabb::square(300.0), 2.0, seed);
            let cfg = PlannerConfig::paper_sim(25.0);
            let mut plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
            let rep = tighten_dwells(&mut plan, &net, &cfg.charging, 50);
            assert!(validate_cross_credit(&plan, &net, &cfg.charging).is_ok());
            assert!(rep.dwell_after_s <= rep.dwell_before_s + Seconds(1e-9));
        }
    }

    #[test]
    fn tightening_saves_dwell_in_dense_networks() {
        let net = deploy::uniform(150, Aabb::square(200.0), 2.0, 4);
        let cfg = PlannerConfig::paper_sim(20.0);
        let mut plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let rep = tighten_dwells(&mut plan, &net, &cfg.charging, 50);
        assert!(
            rep.saving() > 0.05,
            "expected >5% dwell saving, got {:.1}%",
            100.0 * rep.saving()
        );
    }

    #[test]
    fn original_plan_already_cross_feasible() {
        let net = deploy::uniform(30, Aabb::square(300.0), 2.0, 8);
        let cfg = PlannerConfig::paper_sim(25.0);
        let plan = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        assert!(validate_cross_credit(&plan, &net, &cfg.charging).is_ok());
    }

    #[test]
    fn strict_validation_fails_after_tightening_but_cross_holds() {
        // Tightened dwells typically violate the per-stop worst-case
        // check while satisfying the global constraint — that is the
        // point of the extension.
        let net = deploy::uniform(120, Aabb::square(200.0), 2.0, 5);
        let cfg = PlannerConfig::paper_sim(20.0);
        let mut plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let rep = tighten_dwells(&mut plan, &net, &cfg.charging, 50);
        assert!(rep.saving() > 0.0);
        assert!(validate_cross_credit(&plan, &net, &cfg.charging).is_ok());
        assert!(plan.validate(&net, &cfg.charging).is_err());
    }

    #[test]
    fn delivered_energy_counts_every_stop() {
        let net = deploy::from_coords(&[(0.0, 0.0), (10.0, 0.0)], Aabb::square(20.0), 2.0);
        let cfg = PlannerConfig::paper_sim(1.0);
        let plan = try_run(Algorithm::Sc, &net, &cfg).unwrap();
        let delivered = delivered_energy(&plan, &net, &cfg.charging);
        // Each sensor gets its 2 J from its own stop plus spillover from
        // the other stop 10 m away.
        for &e in &delivered {
            assert!(e > Joules(2.0));
        }
    }

    #[test]
    fn empty_plan_report() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        let cfg = PlannerConfig::paper_sim(5.0);
        let mut plan = ChargingPlan::new(Vec::new(), 0);
        let rep = tighten_dwells(&mut plan, &net, &cfg.charging, 10);
        assert_eq!(rep.saving(), 0.0);
    }
}

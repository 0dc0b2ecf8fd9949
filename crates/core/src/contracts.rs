//! Runtime invariant contracts at the planner/executor boundaries.
//!
//! Each contract mirrors a guarantee the paper proves or assumes:
//!
//! * **Bundle radius** (Definition 2): every bundle's members fit inside
//!   a disk of the generation radius `r`.
//! * **Dwell time** (Eq. 1): a stop dwells exactly as long as its worst
//!   member needs (or at least that long under the conservative
//!   [`DwellPolicy::RadiusWorstCase`] schedule).
//! * **Coverage** (Algorithm 2's set-cover reduction): every sensor is
//!   served by some stop.
//! * **BC-OPT monotonicity** (Theorem 4): anchor relocation never
//!   increases the tour's operating energy over plain BC.
//! * **Energy accounting**: an [`crate::ExecutionReport`]'s total energy
//!   is the sum of its movement and charging components to `1e-9`.
//!
//! The `check_*` functions return a typed [`ContractViolation`] so they
//! can be used in tests and tools; the `debug_assert_*` wrappers compile
//! to nothing in release builds and are wired into
//! [`crate::context::PlanContext::plan`] (and so [`crate::planner::try_run`]),
//! the BC-OPT Tighten stage and the executor, so every debug-mode test
//! run exercises them.

use std::fmt;

use bc_geom::{sed, Point};
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::Network;

use crate::config::DwellPolicy;
use crate::{ChargingPlan, ExecutionReport, PlannerConfig};

/// Absolute slack for dwell and energy comparisons.
const TOL: f64 = 1e-9;

/// A planner or executor boundary invariant does not hold.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractViolation {
    /// A stop's members do not fit inside a generation-radius disk.
    RadiusExceeded {
        /// Index of the stop in visit order.
        stop: usize,
        /// Smallest enclosing radius of the stop's members.
        radius: Meters,
        /// The configured bundle radius `r`.
        limit: Meters,
    },
    /// A stop's dwell differs from what its worst member requires.
    DwellMismatch {
        /// Index of the stop in visit order.
        stop: usize,
        /// The stop's scheduled dwell.
        dwell: Seconds,
        /// Dwell the worst member requires (Eq. 1).
        required: Seconds,
    },
    /// A sensor is not covered by any stop.
    Uncovered {
        /// Index of the first uncovered sensor.
        sensor: usize,
    },
    /// An optimisation pass increased the energy it promises never to.
    OptimizationRegressed {
        /// Operating energy before the pass.
        before: Joules,
        /// Operating energy after the pass.
        after: Joules,
    },
    /// A report's total energy is not movement + charging.
    EnergyAccountingMismatch {
        /// The reported total.
        total: Joules,
        /// Movement + charging as summed from the components.
        sum: Joules,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::RadiusExceeded {
                stop,
                radius,
                limit,
            } => write!(
                f,
                "stop {stop}: members need enclosing radius {radius}, bundle radius is {limit}"
            ),
            ContractViolation::DwellMismatch {
                stop,
                dwell,
                required,
            } => write!(
                f,
                "stop {stop}: dwell {dwell} does not match the worst-member requirement {required}"
            ),
            ContractViolation::Uncovered { sensor } => {
                write!(f, "sensor {sensor} is not covered by any stop")
            }
            ContractViolation::OptimizationRegressed { before, after } => write!(
                f,
                "optimisation increased operating energy from {before} to {after}"
            ),
            ContractViolation::EnergyAccountingMismatch { total, sum } => write!(
                f,
                "report total energy {total} differs from movement + charging = {sum}"
            ),
        }
    }
}

impl std::error::Error for ContractViolation {}

/// Checks that every stop's members fit in a disk of radius `r`.
///
/// The check recomputes the smallest enclosing disk of the *members*
/// rather than trusting `enclosing_radius`: BC-OPT relocates anchors
/// away from the disk center, which legitimately stretches the
/// anchor-to-member distance past `r` while the membership itself still
/// satisfies Definition 2.
///
/// # Errors
///
/// Returns the first [`ContractViolation::RadiusExceeded`] found.
pub fn check_bundle_radii(
    plan: &ChargingPlan,
    net: &Network,
    r: Meters,
) -> Result<(), ContractViolation> {
    for (si, stop) in plan.stops.iter().enumerate() {
        if stop.bundle.is_empty() {
            continue;
        }
        let pts: Vec<Point> = stop
            .bundle
            .sensors
            .iter()
            .map(|&i| net.sensor(i).pos)
            .collect();
        let disk = sed::smallest_enclosing_disk(&pts);
        if disk.radius > r.0 + bc_geom::EPS {
            return Err(ContractViolation::RadiusExceeded {
                stop: si,
                radius: Meters(disk.radius),
                limit: r,
            });
        }
    }
    Ok(())
}

/// Checks the Eq. 1 dwell law: each stop dwells exactly as long as its
/// worst member requires ([`DwellPolicy::Realized`]), or at least that
/// long ([`DwellPolicy::RadiusWorstCase`], which deliberately
/// over-dwells).
///
/// # Errors
///
/// Returns the first [`ContractViolation::DwellMismatch`] found.
pub fn check_dwell_times(
    plan: &ChargingPlan,
    net: &Network,
    cfg: &PlannerConfig,
) -> Result<(), ContractViolation> {
    for (si, stop) in plan.stops.iter().enumerate() {
        if stop.bundle.is_empty() {
            continue;
        }
        let required = stop.bundle.dwell_time(net, &cfg.charging);
        let tol = Seconds(TOL + TOL * required.0.abs());
        let ok = match cfg.dwell_policy {
            DwellPolicy::Realized => (stop.dwell - required).abs() <= tol,
            DwellPolicy::RadiusWorstCase => stop.dwell + tol >= required,
        };
        if !ok {
            return Err(ContractViolation::DwellMismatch {
                stop: si,
                dwell: stop.dwell,
                required,
            });
        }
    }
    Ok(())
}

/// Checks the set-cover postcondition: every sensor of the network is a
/// member of at least one stop.
///
/// # Errors
///
/// Returns [`ContractViolation::Uncovered`] for the first sensor no stop
/// serves.
pub fn check_cover(plan: &ChargingPlan, net: &Network) -> Result<(), ContractViolation> {
    let mut covered = vec![false; net.len()];
    for stop in &plan.stops {
        for &s in &stop.bundle.sensors {
            if let Some(c) = covered.get_mut(s) {
                *c = true;
            }
        }
    }
    match covered.iter().position(|&c| !c) {
        Some(sensor) => Err(ContractViolation::Uncovered { sensor }),
        None => Ok(()),
    }
}

/// Checks the Theorem 4 monotonicity promise of an optimisation pass:
/// `after <= before` up to tolerance.
///
/// # Errors
///
/// Returns [`ContractViolation::OptimizationRegressed`] when the pass
/// increased the energy.
pub fn check_no_regression(before: Joules, after: Joules) -> Result<(), ContractViolation> {
    if after > before + Joules(TOL + TOL * before.0.abs()) {
        return Err(ContractViolation::OptimizationRegressed { before, after });
    }
    Ok(())
}

/// Checks an execution report's energy ledger: total = movement +
/// charging to `1e-9` (relative).
///
/// # Errors
///
/// Returns [`ContractViolation::EnergyAccountingMismatch`] when the
/// ledger does not add up.
pub fn check_report_energy(report: &ExecutionReport) -> Result<(), ContractViolation> {
    let sum = report.move_energy_j + report.charge_energy_j;
    let tol = Joules(TOL + TOL * sum.0.abs());
    if (report.total_energy_j - sum).abs() > tol {
        return Err(ContractViolation::EnergyAccountingMismatch {
            total: report.total_energy_j,
            sum,
        });
    }
    Ok(())
}

/// Composite planner-boundary contract: radius, dwell and coverage.
///
/// # Errors
///
/// Returns the first violation found, in that order.
pub fn check_plan(
    plan: &ChargingPlan,
    net: &Network,
    cfg: &PlannerConfig,
) -> Result<(), ContractViolation> {
    check_bundle_radii(plan, net, cfg.bundle_radius)?;
    check_dwell_times(plan, net, cfg)?;
    check_cover(plan, net)
}

/// Debug-build assertion of [`check_plan`]; free in release builds.
#[inline]
pub fn debug_assert_plan(plan: &ChargingPlan, net: &Network, cfg: &PlannerConfig) {
    if cfg!(debug_assertions) {
        if let Err(v) = check_plan(plan, net, cfg) {
            panic!("planner contract violated: {v}");
        }
    }
}

/// Debug-build assertion of [`check_no_regression`]; free in release
/// builds.
#[inline]
pub fn debug_assert_no_regression(before: Joules, after: Joules) {
    if cfg!(debug_assertions) {
        if let Err(v) = check_no_regression(before, after) {
            panic!("optimisation contract violated: {v}");
        }
    }
}

/// Debug-build assertion of [`check_report_energy`]; free in release
/// builds.
#[inline]
pub fn debug_assert_report_energy(report: &ExecutionReport) {
    if cfg!(debug_assertions) {
        if let Err(v) = check_report_energy(report) {
            panic!("executor contract violated: {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use crate::{ChargingBundle, Stop};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn net_and_cfg() -> (Network, PlannerConfig) {
        (
            deploy::uniform(40, Aabb::square(300.0), 2.0, 11),
            PlannerConfig::paper_sim(25.0),
        )
    }

    #[test]
    fn all_planners_satisfy_plan_contracts() {
        let (net, cfg) = net_and_cfg();
        for algo in Algorithm::ALL {
            let plan = try_run(algo, &net, &cfg).unwrap();
            check_plan(&plan, &net, &cfg).unwrap_or_else(|v| panic!("{algo}: {v}"));
        }
    }

    #[test]
    fn oversized_bundle_is_caught() {
        let (net, cfg) = net_and_cfg();
        // One bundle holding everything in a 300 m field cannot fit r=25.
        let all: Vec<usize> = (0..net.len()).collect();
        let stop = Stop::for_bundle(ChargingBundle::from_members(all, &net), &net, &cfg.charging);
        let plan = ChargingPlan::new(vec![stop], net.len());
        assert!(matches!(
            check_bundle_radii(&plan, &net, cfg.bundle_radius),
            Err(ContractViolation::RadiusExceeded { stop: 0, .. })
        ));
    }

    #[test]
    fn shortened_dwell_is_caught() {
        let (net, cfg) = net_and_cfg();
        let mut plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let i = plan
            .stops
            .iter()
            .position(|s| s.dwell > Seconds(0.0))
            .expect("some charging stop");
        plan.stops[i].dwell = plan.stops[i].dwell * 0.5;
        assert!(matches!(
            check_dwell_times(&plan, &net, &cfg),
            Err(ContractViolation::DwellMismatch { .. })
        ));
    }

    #[test]
    fn worst_case_policy_accepts_over_dwell() {
        let (net, mut cfg) = net_and_cfg();
        cfg.dwell_policy = DwellPolicy::RadiusWorstCase;
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        check_dwell_times(&plan, &net, &cfg).expect("over-dwell is allowed");
    }

    #[test]
    fn dropped_sensor_is_caught() {
        let (net, cfg) = net_and_cfg();
        let mut plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        plan.stops.pop();
        assert!(matches!(
            check_cover(&plan, &net),
            Err(ContractViolation::Uncovered { .. })
        ));
    }

    #[test]
    fn regression_check_orders_energies() {
        check_no_regression(Joules(10.0), Joules(9.0)).expect("improvement passes");
        check_no_regression(Joules(10.0), Joules(10.0)).expect("equality passes");
        let v = check_no_regression(Joules(10.0), Joules(10.1)).unwrap_err();
        assert!(v.to_string().contains("increased"));
    }

    #[test]
    fn violations_display() {
        let v = ContractViolation::Uncovered { sensor: 3 };
        assert!(v.to_string().contains("sensor 3"));
        let v = ContractViolation::EnergyAccountingMismatch {
            total: Joules(2.0),
            sum: Joules(1.0),
        };
        assert!(v.to_string().contains("differs"));
    }
}

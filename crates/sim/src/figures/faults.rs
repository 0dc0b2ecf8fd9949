//! Fault sweep — recovery policies under increasing fault rates.
//!
//! Not a figure of the paper: the paper assumes every planned stop is
//! executed perfectly. This sweep runs the BC-OPT plan through the
//! fault-injecting executor (`bc_core::execute`) at increasing fault
//! rates and compares the three recovery policies on what faults
//! actually cost: extra charger energy over the fault-free tour,
//! recovery latency, and sensors left stranded. A second table runs the
//! multi-round lifetime simulation with the same fault model and
//! reports network availability per policy.
//!
//! Expected shapes: skip-and-continue is cheapest in energy but strands
//! every sensor in a jammed bundle; return-to-base strands the fewest
//! (a base visit resets transient failures) at the highest energy and
//! latency cost; replan-remaining sits between them.

use bc_core::planner::{try_run, Algorithm};
use bc_core::{Executor, FaultModel, PlannerConfig, RecoveryPolicy};
use bc_des::Scenario;
use bc_geom::Aabb;
use bc_wsn::deploy;

use crate::figures::{ExpConfig, DENSE_FIELD_SIDE_M, SIM_DEMAND_J};
use crate::{repeat, Summary, Table};

/// Fault rates swept (probability scale fed to [`FaultModel::with_rate`]).
pub const FAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Sensors per deployment for the per-round executor sweep.
pub const SWEEP_SENSORS: usize = 40;

/// Sensors in the lifetime-with-faults runs (kept smaller: each data
/// point simulates a 12 h horizon).
pub const LIFETIME_SENSORS: usize = 30;

/// Per-round executor outcomes for one seed at one fault rate, indexed
/// like [`RecoveryPolicy::ALL`].
struct RoundOutcome {
    extra_energy_j: [f64; 3],
    latency_s: [f64; 3],
    stranded: [f64; 3],
}

fn round_outcome(seed: u64, rate: f64) -> RoundOutcome {
    let cfg = PlannerConfig::paper_sim(20.0);
    let net = deploy::uniform(
        SWEEP_SENSORS,
        Aabb::square(DENSE_FIELD_SIDE_M),
        SIM_DEMAND_J,
        seed,
    );
    let plan = try_run(Algorithm::BcOpt, &net, &cfg)
        .unwrap_or_else(|e| panic!("fault-sweep planning failed: {e}"));
    let faults = FaultModel::with_rate(seed, rate);
    let mut out = RoundOutcome {
        extra_energy_j: [0.0; 3],
        latency_s: [0.0; 3],
        stranded: [0.0; 3],
    };
    for (i, policy) in RecoveryPolicy::ALL.into_iter().enumerate() {
        // Same plan, same fault schedule: the policies are compared on
        // identical adversity.
        let rep = Executor::new(&net, &cfg)
            .with_policy(policy)
            .execute(&plan, &faults, 0)
            .unwrap_or_else(|e| panic!("{policy} at rate {rate}: {e}"));
        out.extra_energy_j[i] = rep.extra_energy_j.0;
        out.latency_s[i] = rep.recovery_latency_s.0;
        out.stranded[i] = rep.stranded.len() as f64; // cast-ok: stranded count to table column
    }
    out
}

/// Generates the sweep tables: per-round extra energy, recovery latency
/// and stranded sensors for each policy (averaged over `exp.runs`
/// seeds), plus 12 h lifetime availability per policy.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let policy_cols = ["fault_rate", "skip", "replan", "return-to-base"];
    let mut energy = Table::new("faults_extra_energy", &policy_cols);
    let mut latency = Table::new("faults_recovery_latency", &policy_cols);
    let mut stranded = Table::new("faults_stranded_sensors", &policy_cols);
    for rate in FAULT_RATES {
        let outcomes = repeat(exp.runs, exp.base_seed, |seed| round_outcome(seed, rate));
        let col = |f: &dyn Fn(&RoundOutcome) -> [f64; 3], i: usize| {
            Summary::of(&outcomes.iter().map(|o| f(o)[i]).collect::<Vec<_>>()).mean
        };
        energy.push_row(&[
            rate,
            col(&|o| o.extra_energy_j, 0),
            col(&|o| o.extra_energy_j, 1),
            col(&|o| o.extra_energy_j, 2),
        ]);
        latency.push_row(&[
            rate,
            col(&|o| o.latency_s, 0),
            col(&|o| o.latency_s, 1),
            col(&|o| o.latency_s, 2),
        ]);
        stranded.push_row(&[
            rate,
            col(&|o| o.stranded, 0),
            col(&|o| o.stranded, 1),
            col(&|o| o.stranded, 2),
        ]);
    }

    let mut avail = Table::new(
        "faults_lifetime_availability",
        &["fault_rate", "skip", "replan", "return-to-base", "fault_deaths"],
    );
    for rate in FAULT_RATES {
        let runs = exp.runs.min(5); // each run is a 12 h simulated horizon
        let mut row = [rate, 0.0, 0.0, 0.0, 0.0];
        for (i, policy) in RecoveryPolicy::ALL.into_iter().enumerate() {
            let reps = repeat(runs, exp.base_seed, |seed| {
                let net = deploy::uniform(
                    LIFETIME_SENSORS,
                    Aabb::square(DENSE_FIELD_SIDE_M),
                    SIM_DEMAND_J,
                    seed,
                );
                let mut sc = Scenario::paper_sim(net, 20.0, Algorithm::Bc)
                    .with_faults(FaultModel::with_rate(seed, rate), policy);
                sc.horizon_s = bc_units::Seconds(12.0 * 3600.0);
                bc_des::run(&sc).unwrap_or_else(|e| panic!("{policy} lifetime at rate {rate}: {e}"))
            });
            row[1 + i] =
                100.0 * Summary::of(&reps.iter().map(|r| r.availability).collect::<Vec<_>>()).mean;
            if i == 0 {
                row[4] =
                    Summary::of(&reps.iter().map(|r| r.fault_deaths as f64).collect::<Vec<_>>()).mean; // cast-ok: death count to summary
            }
        }
        avail.push_row(&row);
    }

    vec![energy, latency, stranded, avail]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_costs_nothing() {
        let t = tables(&ExpConfig::quick());
        for table in &t[..3] {
            let rates = table.column("fault_rate").unwrap();
            let i = rates.iter().position(|&r| r == 0.0).unwrap();
            for col in ["skip", "replan", "return-to-base"] {
                let v = table.column(col).unwrap()[i];
                assert!(v.abs() < 1e-6, "{}/{col} at rate 0: {v}", table.title);
            }
        }
    }

    #[test]
    fn faults_cost_recovery_time() {
        let t = tables(&ExpConfig::quick());
        let latency = &t[1];
        let skip = latency.column("skip").unwrap();
        assert!(
            *skip.last().unwrap() > 0.0,
            "a 40% fault rate must cost recovery time"
        );
    }

    #[test]
    fn return_to_base_strands_fewest() {
        let t = tables(&ExpConfig::quick());
        let stranded = &t[2];
        let skip = stranded.column("skip").unwrap();
        let rtb = stranded.column("return-to-base").unwrap();
        let last = skip.len() - 1;
        assert!(
            rtb[last] <= skip[last] + 1e-9,
            "RTB strands {} vs skip {}",
            rtb[last],
            skip[last]
        );
    }

    #[test]
    fn sweep_is_deterministic() {
        let exp = ExpConfig { runs: 2, base_seed: 77 };
        let a = tables(&exp);
        let b = tables(&exp);
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.rows, tb.rows, "{} not deterministic", ta.title);
        }
    }
}

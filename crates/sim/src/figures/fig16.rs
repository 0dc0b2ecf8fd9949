//! Fig. 16 — testbed validation (Section VII).
//!
//! Executes SC, BC and BC-OPT on the simulated Powercast testbed (six
//! sensors in a 5 m x 5 m office) across bundle radii and reports the
//! realized energy ledger from the discrete-event rig, not just the
//! planner's prediction. Published shapes: at tiny radii all three match
//! (every bundle is a singleton); as the radius grows BC and BC-OPT cut
//! the tour and save ~8 % / ~13 % total energy around r = 1.2 m, with
//! BC-OPT's tour more than 20 % shorter than SC's.

use bc_core::planner::Algorithm;
use bc_core::{PlanContext, PlannerConfig};
use bc_testbed::{office_network, TestbedRig};

use crate::figures::ExpConfig;
use crate::Table;

/// Radii swept (m) across the office.
pub const RADII: [f64; 6] = [0.25, 0.5, 0.8, 1.2, 1.6, 2.0];

/// Generates the two panels: (a) total energy, (b) tour length, both
/// realized by the discrete-event rig.
///
/// The deployment is fixed (the six published coordinates), so no seed
/// averaging applies; `exp` only controls the optional harvest noise used
/// by the noisy companion columns.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let net = office_network();
    let mut a = Table::new(
        "fig16a_testbed_energy",
        &["radius_m", "SC", "BC", "BC-OPT", "noisy_worst_charge_frac"],
    );
    let mut b = Table::new("fig16b_testbed_tour", &["radius_m", "SC", "BC", "BC-OPT"]);
    for r in RADII {
        let cfg = PlannerConfig::paper_testbed(r);
        let ctx = PlanContext::new(net.clone(), cfg.clone());
        let plan = |algo: Algorithm| {
            ctx.plan(algo)
                .unwrap_or_else(|e| panic!("fig16 {algo}: {e}"))
                .plan
        };
        let sc = plan(Algorithm::Sc);
        let bc = plan(Algorithm::Bc);
        let opt = plan(Algorithm::BcOpt);
        let rig = TestbedRig::new(&net, &cfg);
        let rep_sc = rig.execute(&sc);
        let rep_bc = rig.execute(&bc);
        let rep_opt = rig.execute(&opt);
        // Under 10 % multiplicative harvest noise the charger-side energy
        // is unchanged; what jitters is how close the worst sensor gets
        // to its demand, so that is the reported companion column.
        let noisy = TestbedRig::new(&net, &cfg)
            .with_noise(0.1, exp.base_seed)
            .execute(&opt);
        a.push_row(&[
            r,
            rep_sc.total_energy_j().0,
            rep_bc.total_energy_j().0,
            rep_opt.total_energy_j().0,
            noisy.fraction_charged(),
        ]);
        b.push_row(&[r, rep_sc.driven_m.0, rep_bc.driven_m.0, rep_opt.driven_m.0]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_radius_all_equal() {
        let t = tables(&ExpConfig::quick());
        let energy = &t[0];
        let sc = energy.column("SC").unwrap();
        let bc = energy.column("BC").unwrap();
        // At r = 0.25 m every bundle is a singleton: same stops, so BC's
        // tour equals SC's up to TSP tie-breaking.
        assert!((sc[0] - bc[0]).abs() / sc[0] < 0.05);
    }

    #[test]
    fn bundling_saves_energy_at_moderate_radius() {
        let t = tables(&ExpConfig::quick());
        let energy = &t[0];
        let radii = energy.column("radius_m").unwrap();
        let sc = energy.column("SC").unwrap();
        let opt = energy.column("BC-OPT").unwrap();
        // Around r = 1.2 m, BC-OPT should save a noticeable fraction.
        let i = radii.iter().position(|&r| r == 1.2).unwrap();
        assert!(
            opt[i] < sc[i] * 0.97,
            "BC-OPT {} vs SC {} at 1.2 m",
            opt[i],
            sc[i]
        );
    }

    #[test]
    fn tours_shrink_with_radius() {
        let t = tables(&ExpConfig::quick());
        let tour = &t[1];
        let opt = tour.column("BC-OPT").unwrap();
        assert!(opt.last().unwrap() < opt.first().unwrap());
    }

    #[test]
    fn plans_fully_charge_on_the_rig() {
        let net = office_network();
        for r in RADII {
            let cfg = PlannerConfig::paper_testbed(r);
            let plan = bc_core::planner::try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
            let rep = TestbedRig::new(&net, &cfg).execute(&plan);
            assert!(rep.all_fully_charged(), "undercharge at r = {r}");
        }
    }
}

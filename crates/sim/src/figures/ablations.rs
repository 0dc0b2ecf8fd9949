//! Ablations beyond the paper's figures.
//!
//! Four studies isolating design choices of the system:
//!
//! 1. **TSP pipeline** — how much of BC-OPT's energy win comes from tour
//!    quality (construction only vs +2-opt vs +Or-opt);
//! 2. **Dwell policy** — realized-farthest vs radius-worst-case dwell
//!    for BC (the conservative schedule of Fig. 14's third series);
//! 3. **Cross-stop tightening** — dwell saved by crediting sensors for
//!    energy received from every stop (Eq. 3's full constraint), across
//!    densities;
//! 4. **Sortie budgets** — overhead of splitting the tour into
//!    battery-feasible sorties as the charger's budget shrinks.

use bc_core::planner::{self, Algorithm};
use bc_core::{split_into_sorties, tighten, DwellPolicy, PlannerConfig};
use bc_geom::Aabb;
use bc_wsn::deploy;

use crate::figures::{sweep_point, ExpConfig, DENSE_FIELD_SIDE_M, SIM_DEMAND_J};
use crate::{repeat, Summary, Table};

/// Generates all four ablation tables.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    vec![
        tsp_pipeline(exp),
        dwell_policy(exp),
        tightening(exp),
        sortie_budgets(exp),
    ]
}

/// Ablation 1: the TSP pipeline under BC-OPT (n = 100, r = 30).
fn tsp_pipeline(exp: &ExpConfig) -> Table {
    let mut t = Table::new(
        "ablation_tsp_pipeline",
        &["variant", "tour_m", "total_j"],
    );
    let variants: [(&str, bool, bool); 3] = [
        ("nn_only", false, false),
        ("nn_2opt", true, false),
        ("nn_2opt_oropt", true, true),
    ];
    for (vi, (_, two_opt, or_opt)) in variants.iter().enumerate() {
        let mut cfg = PlannerConfig::paper_sim(30.0);
        cfg.tsp.two_opt = *two_opt;
        cfg.tsp.or_opt = *or_opt;
        cfg.tsp.exact_threshold = 0;
        let s = sweep_point(100, DENSE_FIELD_SIDE_M, Algorithm::BcOpt, &cfg, exp);
        t.push_row(&[vi as f64, s.tour_length_m.mean, s.total_energy_j.mean]); // cast-ok: variant index to table column
    }
    t
}

/// Ablation 2: dwell policy for BC across radii (n = 200).
fn dwell_policy(exp: &ExpConfig) -> Table {
    let mut t = Table::new(
        "ablation_dwell_policy",
        &["radius_m", "realized_charge_s", "worstcase_charge_s", "realized_j", "worstcase_j"],
    );
    for r in [10.0, 30.0, 60.0, 100.0] {
        let cfg = PlannerConfig::paper_sim(r);
        let mut wc = PlannerConfig::paper_sim(r);
        wc.dwell_policy = DwellPolicy::RadiusWorstCase;
        let a = sweep_point(200, DENSE_FIELD_SIDE_M, Algorithm::Bc, &cfg, exp);
        let b = sweep_point(200, DENSE_FIELD_SIDE_M, Algorithm::Bc, &wc, exp);
        t.push_row(&[
            r,
            a.charge_time_s.mean,
            b.charge_time_s.mean,
            a.total_energy_j.mean,
            b.total_energy_j.mean,
        ]);
    }
    t
}

/// Ablation 3: cross-stop dwell tightening savings across densities
/// (r = 25, 200 m field so spillover is meaningful).
fn tightening(exp: &ExpConfig) -> Table {
    let mut t = Table::new(
        "ablation_tightening",
        &["n_sensors", "dwell_before_s", "dwell_after_s", "saving_pct"],
    );
    for n in [50usize, 100, 150] {
        let rows: Vec<(f64, f64)> = repeat(exp.runs, exp.base_seed, |seed| {
            let net = deploy::uniform(n, Aabb::square(200.0), SIM_DEMAND_J, seed);
            let cfg = PlannerConfig::paper_sim(25.0);
            let mut plan = planner::try_run(Algorithm::Bc, &net, &cfg)
                .unwrap_or_else(|e| panic!("tightening ablation planning: {e}"));
            let rep = tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 60);
            (rep.dwell_before_s.0, rep.dwell_after_s.0)
        });
        let before = Summary::of(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let after = Summary::of(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        t.push_row(&[
            n as f64, // cast-ok: sensor count to table column
            before.mean,
            after.mean,
            100.0 * (1.0 - after.mean / before.mean),
        ]);
    }
    t
}

/// Ablation 4: sortie splitting overhead vs charger budget (n = 100,
/// r = 30). Budgets are fractions of the unconstrained tour energy.
fn sortie_budgets(exp: &ExpConfig) -> Table {
    let mut t = Table::new(
        "ablation_sortie_budgets",
        &["budget_fraction", "sorties", "overhead_pct"],
    );
    for frac in [1.0, 0.5, 0.33, 0.25] {
        let rows: Vec<(f64, f64)> = repeat(exp.runs, exp.base_seed, |seed| {
            let net = deploy::uniform(100, Aabb::square(DENSE_FIELD_SIDE_M), SIM_DEMAND_J, seed);
            let cfg = PlannerConfig::paper_sim(30.0);
            let plan = planner::try_run(Algorithm::Bc, &net, &cfg)
                .unwrap_or_else(|e| panic!("sortie ablation planning: {e}"));
            let single = split_into_sorties(&plan, net.base(), &cfg.energy, f64::MAX / 2.0)
                .unwrap_or_else(|e| panic!("unbounded split: {e}"));
            // Floor the budget at the worst singleton sortie.
            let floor = plan
                .stops
                .iter()
                .filter(|s| !s.bundle.is_empty())
                .map(|s| {
                    cfg.energy
                        .total_energy(bc_units::Meters(2.0 * net.base().distance(s.anchor())), s.dwell)
                })
                .fold(bc_units::Joules(0.0), bc_units::Joules::max);
            let budget = (single.total_energy_j * frac).max(floor * 1.01);
            let sp = split_into_sorties(&plan, net.base(), &cfg.energy, budget.0)
                .unwrap_or_else(|e| panic!("budget floored to feasibility: {e}"));
            (
                sp.len() as f64, // cast-ok: sortie count to table column
                100.0 * (sp.total_energy_j / single.total_energy_j - 1.0),
            )
        });
        let sorties = Summary::of(&rows.iter().map(|r| r.0).collect::<Vec<_>>());
        let overhead = Summary::of(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
        t.push_row(&[frac, sorties.mean, overhead.mean]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpConfig {
        ExpConfig {
            runs: 2,
            base_seed: 1000,
        }
    }

    #[test]
    fn tsp_pipeline_monotone_improvement() {
        let t = tsp_pipeline(&quick());
        let tour = t.column("tour_m").unwrap();
        let total = t.column("total_j").unwrap();
        assert!(tour[1] <= tour[0] + 1e-6, "2-opt should shorten the tour");
        // BC-OPT relocates anchors after the TSP pass, so Or-opt can trade
        // a slightly longer tour for cheaper dwells; the end-to-end
        // objective is what must not regress.
        assert!(
            total[2] <= total[1] * 1.005,
            "Or-opt should not cost energy: {} vs {}",
            total[2],
            total[1]
        );
    }

    #[test]
    fn worstcase_dwell_is_an_upper_bound() {
        let t = dwell_policy(&quick());
        let real = t.column("realized_charge_s").unwrap();
        let worst = t.column("worstcase_charge_s").unwrap();
        for i in 0..real.len() {
            assert!(worst[i] >= real[i] - 1e-6);
        }
    }

    #[test]
    fn tightening_saves_more_at_higher_density() {
        let t = tightening(&quick());
        let saving = t.column("saving_pct").unwrap();
        assert!(saving.iter().all(|&s| (0.0..100.0).contains(&s)));
        assert!(
            saving.last().unwrap() > saving.first().unwrap(),
            "denser networks should save more: {saving:?}"
        );
    }

    #[test]
    fn smaller_budgets_need_more_sorties() {
        let t = sortie_budgets(&quick());
        let sorties = t.column("sorties").unwrap();
        let overhead = t.column("overhead_pct").unwrap();
        assert!(sorties.last().unwrap() >= sorties.first().unwrap());
        assert!(overhead.iter().all(|&o| o >= -1e-6));
    }
}

//! Fig. 10 — example 50-node configurations at three bundle radii.
//!
//! The paper's figure draws, for one 50-node network, the BC tour (solid)
//! and the BC-OPT tour (dotted) at a small, medium and large bundle
//! radius, illustrating that (i) at a tiny radius BC-OPT degenerates to
//! SC-like behaviour and (ii) at larger radii the optimized tour cuts
//! corners through the bundles. This module reproduces the quantitative
//! content — stop counts, tour lengths and energies per radius — and can
//! export the tour way-points for plotting.

use bc_core::planner::Algorithm;
use bc_core::{ChargingPlan, PlanContext, PlannerConfig};
use bc_geom::Aabb;
use bc_wsn::{deploy, Network};

use crate::figures::{ExpConfig, DENSE_FIELD_SIDE_M, SIM_DEMAND_J};
use crate::Table;

/// Sensor count of the showcase network.
pub const N_SENSORS: usize = 50;

/// The three showcased radii (small / medium / large).
pub const RADII: [f64; 3] = [5.0, 25.0, 60.0];

/// The fixed showcase network (first seed of the experiment config).
pub fn showcase_network(exp: &ExpConfig) -> Network {
    deploy::uniform(
        N_SENSORS,
        Aabb::square(DENSE_FIELD_SIDE_M),
        SIM_DEMAND_J,
        exp.base_seed,
    )
}

/// Plans BC and BC-OPT on one shared context, so BC-OPT reuses BC's
/// candidate family.
fn bc_and_opt(net: &Network, cfg: &PlannerConfig) -> (ChargingPlan, ChargingPlan) {
    let ctx = PlanContext::new(net.clone(), cfg.clone());
    let plan = |algo: Algorithm| {
        ctx.plan(algo)
            .unwrap_or_else(|e| panic!("fig10 {algo}: {e}"))
            .plan
    };
    (plan(Algorithm::Bc), plan(Algorithm::BcOpt))
}

/// Generates the Fig. 10 comparison table for the showcase network.
///
/// Columns: radius, number of stops, BC tour length, BC-OPT tour length,
/// BC energy, BC-OPT energy.
pub fn tables(exp: &ExpConfig) -> Vec<Table> {
    let net = showcase_network(exp);
    let mut t = Table::new(
        "fig10_configurations",
        &[
            "radius_m",
            "stops",
            "bc_tour_m",
            "bcopt_tour_m",
            "bc_total_j",
            "bcopt_total_j",
        ],
    );
    for r in RADII {
        let cfg = PlannerConfig::paper_sim(r);
        let (bc, opt) = bc_and_opt(&net, &cfg);
        t.push_row(&[
            r,
            bc.num_charging_stops() as f64, // cast-ok: stop count to table column
            bc.tour_length().0,
            opt.tour_length().0,
            bc.metrics(&cfg.energy).total_energy_j.0,
            opt.metrics(&cfg.energy).total_energy_j.0,
        ]);
    }
    vec![t]
}

/// Renders the three showcase configurations as SVG files (the actual
/// Fig. 10 pictures: BC tour solid, BC-OPT dashed, bundle disks and
/// anchors drawn) into `dir`, returning the written paths.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn save_figures(
    exp: &ExpConfig,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let net = showcase_network(exp);
    let style = crate::svg::SvgStyle::default();
    let mut paths = Vec::new();
    for r in RADII {
        let (bc, opt) = bc_and_opt(&net, &PlannerConfig::paper_sim(r));
        let path = dir.join(format!("fig10_r{r:.0}.svg"));
        crate::svg::save_scene(&net, Some(&bc), Some(&opt), &style, &path)?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_radius_behaves_like_sc() {
        let exp = ExpConfig::quick();
        let t = &tables(&exp)[0];
        let stops = t.column("stops").unwrap();
        // At r = 5 m nearly every sensor is its own stop.
        assert!(stops[0] > 40.0);
        // At r = 60 m the tour has collapsed to far fewer stops.
        assert!(stops[2] < stops[0] / 2.0);
    }

    #[test]
    fn optimized_tour_is_never_longer() {
        let exp = ExpConfig::quick();
        let t = &tables(&exp)[0];
        let bc = t.column("bc_tour_m").unwrap();
        let opt = t.column("bcopt_tour_m").unwrap();
        for i in 0..bc.len() {
            assert!(opt[i] <= bc[i] + 1e-6);
        }
    }
}

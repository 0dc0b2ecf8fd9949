//! Site survey workflow: load measured sensor positions from CSV, plan,
//! split into battery-feasible sorties, and export artifacts.
//!
//! A downstream user rarely generates deployments — they measure them.
//! This example writes a survey CSV (standing in for real survey data),
//! loads it back through the I/O module, plans a BC-OPT tour, splits it
//! into sorties for a charger with a finite battery, and exports both
//! the tightened plan's CSV and an SVG rendering.
//!
//! ```text
//! cargo run --release --example site_survey [survey.csv]
//! ```

use bundle_charging::core::{split_into_sorties, tighten};
use bundle_charging::prelude::*;
use bundle_charging::sim::svg;
use bundle_charging::wsn::io;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let out_dir = std::path::PathBuf::from("results");
    std::fs::create_dir_all(&out_dir)?;

    // 1. Obtain the survey file: first CLI argument, or synthesise one.
    let survey_path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            let synthetic = deploy::clusters(90, 7, 18.0, Aabb::square(400.0), 2.0, 31);
            let p = out_dir.join("site_survey_input.csv");
            io::network_to_csv(&synthetic, &p)?;
            println!("no survey given; synthesised {}", p.display());
            p
        }
    };

    // 2. Load it back (10 m field padding around the measured positions).
    let net = io::network_from_csv(&survey_path, 10.0)?;
    println!(
        "loaded {} sensors from {} (field {})",
        net.len(),
        survey_path.display(),
        net.field()
    );

    // 3. Plan and tighten.
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut plan = planner::try_run(Algorithm::BcOpt, &net, &cfg)?;
    plan.validate(&net, &cfg.charging)?;
    let m = plan.metrics(&cfg.energy);
    println!(
        "BC-OPT: {} stops, {:.0} m tour, {:.0} s charging, {:.0} J total",
        m.num_stops, m.tour_length_m.0, m.charge_time_s.0, m.total_energy_j.0
    );
    let trep = tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 50);
    println!(
        "cross-stop tightening saved {:.1}% of dwell time",
        100.0 * trep.saving()
    );

    // 4. Split into sorties for a charger with a 12 kJ battery.
    let budget = 12_000.0;
    match split_into_sorties(&plan, net.base(), &cfg.energy, budget) {
        Ok(sp) => {
            println!(
                "charger battery {budget:.0} J -> {} sortie(s), worst {:.0} J, total {:.0} J",
                sp.len(),
                sp.max_sortie_energy_j().0,
                sp.total_energy_j.0
            );
            for (i, s) in sp.sorties.iter().enumerate() {
                println!(
                    "  sortie {i}: stops {:?}, {:.0} m, {:.0} s dwell, {:.0} J",
                    s.stops, s.distance_m.0, s.dwell_s.0, s.energy_j.0
                );
            }
        }
        Err(e) => println!("cannot split under {budget:.0} J: {e}"),
    }

    // 5. Export artifacts.
    let svg_path = out_dir.join("site_survey_plan.svg");
    svg::save_scene(&net, Some(&plan), None, &svg::SvgStyle::default(), &svg_path)?;
    println!("rendered plan to {}", svg_path.display());
    Ok(())
}

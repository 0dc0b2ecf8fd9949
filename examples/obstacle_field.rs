//! Obstacle-aware charging: routing the charger around buildings.
//!
//! The paper assumes an obstacle-free field, but defines inter-anchor
//! distance as a *shortest path* (Table I). This example exercises that
//! generality: a field with two buildings, sensors deployed around them,
//! and the tour ordered by real driveable distances (visibility-graph
//! shortest paths). RF still crosses the buildings — only the wheels
//! must go around.
//!
//! ```text
//! cargo run --release --example obstacle_field
//! ```

use bundle_charging::core::{plan_with_terrain, planner::Algorithm, Terrain, TerrainRoute};
use bundle_charging::geom::{Point, Polygon};
use bundle_charging::prelude::*;
use bundle_charging::sim::svg;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A long wall nearly splitting the field, plus a square depot.
    let terrain = Terrain::new(vec![
        Polygon::rectangle(Point::new(140.0, 0.0), Point::new(160.0, 240.0)),
        Polygon::rectangle(Point::new(210.0, 260.0), Point::new(250.0, 295.0)),
    ]);

    // Deploy 80 sensors, discarding any that would fall inside a building.
    let raw = deploy::uniform(80, Aabb::square(300.0), 2.0, 19);
    let coords: Vec<(f64, f64)> = raw
        .sensors()
        .iter()
        .filter(|s| !terrain.inside_obstacle(s.pos))
        .map(|s| (s.pos.x, s.pos.y))
        .collect();
    let net = deploy::from_coords(&coords, Aabb::square(300.0), 2.0);
    println!(
        "{} sensors around {} buildings in 300 m x 300 m",
        net.len(),
        terrain.obstacles().len()
    );

    let cfg = PlannerConfig::paper_sim(30.0);

    // Naive: plan ignoring the buildings, then drive the real field.
    let naive = planner::try_run(Algorithm::Bc, &net, &cfg)?;
    let naive_route = TerrainRoute::trace(&naive, &terrain);

    // Terrain-aware: order stops by routed distances from the start.
    let (plan, route) = plan_with_terrain(&net, &cfg, &terrain, Algorithm::Bc);
    plan.validate(&net, &cfg.charging)?;

    println!(
        "straight-line tour (impossible to drive): {:.0} m",
        naive.tour_length().0
    );
    let illegal = naive
        .stops
        .iter()
        .filter(|s| terrain.inside_obstacle(s.anchor()))
        .count();
    println!(
        "naive order, traced over the field:       {:.0} m ({:.0} J; parks {} time(s) INSIDE a building)",
        naive_route.length_m.0,
        naive_route.metrics(&naive, &cfg.energy).total_energy_j.0,
        illegal,
    );
    let legal = plan
        .stops
        .iter()
        .all(|s| !terrain.inside_obstacle(s.anchor()));
    println!(
        "terrain-aware order, actually driven:     {:.0} m ({:.0} J; all stops driveable: {legal})",
        route.length_m.0,
        route.metrics(&plan, &cfg.energy).total_energy_j.0,
    );
    let detour_legs = route.legs.iter().filter(|l| l.len() > 2).count();
    println!("legs that detour around a building:       {detour_legs}");

    let out = std::path::PathBuf::from("results/obstacle_field.svg");
    std::fs::create_dir_all("results")?;
    std::fs::write(
        &out,
        svg::render_terrain_scene(&net, &plan, &terrain, &route, &svg::SvgStyle::default()),
    )?;
    println!("rendered {}", out.display());
    Ok(())
}

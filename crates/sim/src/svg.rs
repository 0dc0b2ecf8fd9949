//! Minimal SVG rendering of networks and charging tours.
//!
//! Fig. 10 of the paper is a picture: sensors, bundle disks, anchor
//! points and the BC / BC-OPT tours. This module renders exactly that
//! (no external dependencies — SVG is plain text), so `repro fig10`
//! can emit the figure itself next to its data table.

use bc_core::ChargingPlan;
use bc_wsn::Network;

/// Styling options for [`render_scene`].
#[derive(Debug, Clone)]
pub struct SvgStyle {
    /// Canvas width/height in pixels (the field is fitted inside).
    pub canvas_px: f64,
    /// Sensor dot radius in pixels.
    pub sensor_px: f64,
    /// Stroke colour of the primary tour.
    pub tour_color: String,
    /// Stroke colour of the secondary tour (dashed), if drawn.
    pub alt_tour_color: String,
}

impl Default for SvgStyle {
    fn default() -> Self {
        SvgStyle {
            canvas_px: 640.0,
            sensor_px: 3.0,
            tour_color: "#1f4e9c".into(),
            alt_tour_color: "#c03a2b".into(),
        }
    }
}

/// Renders a network with up to two plans overlaid (the second dashed),
/// returning the SVG document as a string.
///
/// Bundle disks are drawn for the primary plan's stops; the tours are
/// closed polylines through the stop anchors.
pub fn render_scene(
    net: &Network,
    primary: Option<&ChargingPlan>,
    secondary: Option<&ChargingPlan>,
    style: &SvgStyle,
) -> String {
    let field = net.field();
    let pad = 12.0;
    let scale = (style.canvas_px - 2.0 * pad) / field.width().max(field.height()).max(1e-9);
    let x = |wx: f64| pad + (wx - field.min.x) * scale;
    // SVG y grows downward; flip so the plot reads like the paper's.
    let y = |wy: f64| style.canvas_px - pad - (wy - field.min.y) * scale;

    let mut out = String::new();
    out.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{0}" height="{0}" viewBox="0 0 {0} {0}">"#,
        style.canvas_px
    ));
    out.push('\n');
    out.push_str(&format!(
        r##"<rect x="{x0}" y="{y1}" width="{w}" height="{h}" fill="white" stroke="#888"/>"##,
        x0 = x(field.min.x),
        y1 = y(field.max.y),
        w = field.width() * scale,
        h = field.height() * scale,
    ));
    out.push('\n');

    // Bundle disks + anchors of the primary plan.
    if let Some(plan) = primary {
        for stop in &plan.stops {
            out.push_str(&format!(
                r##"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r:.2}" fill="#1f4e9c10" stroke="#9db6dd" stroke-dasharray="3,3"/>"##,
                cx = x(stop.anchor().x),
                cy = y(stop.anchor().y),
                r = (stop.bundle.enclosing_radius.0 * scale).max(2.0),
            ));
            out.push('\n');
            out.push_str(&format!(
                r##"<path d="M {cx:.2} {cy:.2} m -4 4 l 4 -8 l 4 8 z" fill="#c03a2b"/>"##,
                cx = x(stop.anchor().x),
                cy = y(stop.anchor().y),
            ));
            out.push('\n');
        }
    }

    // Tours.
    for (plan, color, dashed) in [
        (primary, &style.tour_color, false),
        (secondary, &style.alt_tour_color, true),
    ] {
        if let Some(plan) = plan {
            if plan.stops.len() >= 2 {
                let mut d = String::new();
                for (i, stop) in plan.stops.iter().enumerate() {
                    let cmd = if i == 0 { 'M' } else { 'L' };
                    d.push_str(&format!(
                        "{cmd} {:.2} {:.2} ",
                        x(stop.anchor().x),
                        y(stop.anchor().y)
                    ));
                }
                d.push('Z');
                let dash = if dashed {
                    r#" stroke-dasharray="6,4""#
                } else {
                    ""
                };
                out.push_str(&format!(
                    r#"<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>"#
                ));
                out.push('\n');
            }
        }
    }

    // Sensors on top.
    for s in net.sensors() {
        out.push_str(&format!(
            r##"<circle cx="{cx:.2}" cy="{cy:.2}" r="{r}" fill="#2c3e50"/>"##,
            cx = x(s.pos.x),
            cy = y(s.pos.y),
            r = style.sensor_px,
        ));
        out.push('\n');
    }
    out.push_str("</svg>\n");
    out
}

/// Renders a terrain scene: obstacles as filled polygons, the routed
/// tour as a polyline following each leg's way-points, sensors and
/// anchors as in [`render_scene`].
pub fn render_terrain_scene(
    net: &Network,
    plan: &ChargingPlan,
    terrain: &bc_core::Terrain,
    route: &bc_core::TerrainRoute,
    style: &SvgStyle,
) -> String {
    let base = render_scene(net, Some(plan), None, style);
    // Splice obstacle polygons and the routed polyline in before </svg>.
    let field = net.field();
    let pad = 12.0;
    let scale = (style.canvas_px - 2.0 * pad) / field.width().max(field.height()).max(1e-9);
    let x = |wx: f64| pad + (wx - field.min.x) * scale;
    let y = |wy: f64| style.canvas_px - pad - (wy - field.min.y) * scale;
    let mut extra = String::new();
    for obstacle in terrain.obstacles() {
        let pts: Vec<String> = obstacle
            .vertices()
            .iter()
            .map(|v| format!("{:.2},{:.2}", x(v.x), y(v.y)))
            .collect();
        extra.push_str(&format!(
            "<polygon points=\"{}\" fill=\"#4a4a4a66\" stroke=\"#333\"/>\n",
            pts.join(" ")
        ));
    }
    for leg in &route.legs {
        if leg.len() < 2 {
            continue;
        }
        let mut d = String::new();
        for (i, p) in leg.iter().enumerate() {
            let cmd = if i == 0 { 'M' } else { 'L' };
            d.push_str(&format!("{cmd} {:.2} {:.2} ", x(p.x), y(p.y)));
        }
        extra.push_str(&format!(
            "<path d=\"{d}\" fill=\"none\" stroke=\"#0a7d4f\" stroke-width=\"1.8\"/>\n"
        ));
    }
    base.replace("</svg>", &format!("{extra}</svg>"))
}

/// Writes a rendered scene to `path`.
///
/// # Errors
///
/// Propagates any I/O error.
pub fn save_scene(
    net: &Network,
    primary: Option<&ChargingPlan>,
    secondary: Option<&ChargingPlan>,
    style: &SvgStyle,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_scene(net, primary, secondary, style))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_core::planner::{try_run, Algorithm};
    use bc_core::PlannerConfig;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn setup() -> (Network, ChargingPlan, ChargingPlan) {
        let net = deploy::uniform(20, Aabb::square(200.0), 2.0, 3);
        let cfg = PlannerConfig::paper_sim(30.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let opt = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        (net, bc, opt)
    }

    #[test]
    fn renders_all_elements() {
        let (net, bc, opt) = setup();
        let svg = render_scene(&net, Some(&bc), Some(&opt), &SvgStyle::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One dot per sensor.
        assert_eq!(svg.matches(r##"fill="#2c3e50""##).count(), 20);
        // Two tour paths (one dashed).
        assert_eq!(svg.matches("stroke-width=\"1.5\"").count(), 2);
        assert!(svg.contains("stroke-dasharray=\"6,4\""));
        // One anchor triangle per charging stop.
        assert_eq!(
            svg.matches(r##"fill="#c03a2b""##).count(),
            bc.num_charging_stops()
        );
    }

    #[test]
    fn network_only_scene() {
        let (net, _, _) = setup();
        let svg = render_scene(&net, None, None, &SvgStyle::default());
        assert!(svg.contains("<rect"));
        assert!(!svg.contains("stroke-width=\"1.5\""));
    }

    #[test]
    fn coordinates_stay_on_canvas() {
        let (net, bc, _) = setup();
        let style = SvgStyle::default();
        let svg = render_scene(&net, Some(&bc), None, &style);
        for cap in svg.split("cx=\"").skip(1) {
            let v: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!(v >= 0.0 && v <= style.canvas_px, "cx {v} off canvas");
        }
    }

    #[test]
    fn save_creates_file() {
        let (net, bc, _) = setup();
        let path = std::env::temp_dir().join("bc_svg_test/out.svg");
        save_scene(&net, Some(&bc), None, &SvgStyle::default(), &path).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().contains("<svg"));
        let _ = std::fs::remove_file(path);
    }
}

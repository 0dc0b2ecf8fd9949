//! Bundle Charging with tour optimization (BC-OPT, Algorithm 3).
//!
//! Starting from the BC plan, every anchor `C_i` is iteratively relocated
//! toward the chord between its tour neighbours `C_{i-1}` and `C_{i+1}`.
//! For each candidate displacement radius `d` (Algorithm 3's
//! `for d = 0 : max` loop), the best relocated position on the circle
//! `|P - C_i| = d` is the ellipse tangency point of Theorem 4, located by
//! the logarithmic search that Theorem 5's bisector property enables
//! (implemented in [`bc_geom::tangency`]).
//!
//! A relocation is accepted only when it lowers the *total* operating
//! energy: the movement saved on the two adjacent tour legs must exceed
//! the extra charging energy caused by the now-longer worst charging
//! distance (the Eq. 7–8 trade-off, evaluated exactly rather than through
//! the paper's first-order approximation). A radius at which some member
//! would get no power (a law of finite support) offers no relocation.
//!
//! The sweeps run serially on the caller's thread, and a sweep whose
//! answer is already known is skipped (see [`optimize_tour`]). Within a
//! sweep, a radius is searched only when a lower bound on the cost of
//! every point of its circle leaves room to beat the best gain so far
//! (see [`Sweep::cost_floor`]). A search that starts is cut as soon as
//! it has narrowed its answer to an arc whose cost floor leaves no such
//! room (see [`Sweep::arc_floor`] and
//! [`tangency::min_focal_sum_with_cut`]): the search hands over an arc
//! the answer is certain to lie on, so the answer's cost is at least the
//! arc's floor. The radii skipped or cut could not have won, so the plan
//! is the one the unbounded sweep builds, bit for bit.

use std::f64::consts::FRAC_PI_2;

use bc_geom::tangency::{self, AnswerArc, Tangency};
use bc_geom::{Disk, Point, Segment};
use bc_units::{Joules, Meters, Seconds};
use bc_wsn::Network;

use crate::{ChargingBundle, ChargingPlan, PlannerConfig, Stop};

/// Number of displacement radii `d` tried per anchor (Algorithm 3's
/// `for d = 0 : max` discretisation).
const DISTANCE_STEPS: usize = 24;

/// Maximum full sweeps over the tour before stopping.
const MAX_ROUNDS: usize = 8;

/// Applies the Algorithm 3 anchor-relocation sweeps to an ordered plan,
/// in place (the BC-OPT Tighten stage). The rounds are Gauss–Seidel:
/// anchor `i` sees its neighbours' already-relocated positions.
///
/// A stop's sweep is skipped when it would provably repeat. Its
/// evaluations depend only on the stop's members, its fixed SED centre,
/// its two neighbour anchors and `cfg`; its verdict also reads the stop's
/// own anchor and dwell, which only its own relocation changes. So when a
/// sweep left its stop in place and both neighbour anchors still have the
/// bits that sweep saw, the next sweep would return "no relocation" again
/// (the `d_max <= EPS` prune included). Bits, not `==`, because
/// `-0.0 == 0.0`. The plan is therefore the one the unskipped loop builds,
/// bit for bit.
pub(crate) fn optimize_tour(plan: &mut ChargingPlan, net: &Network, cfg: &PlannerConfig) {
    let n = plan.stops.len();
    if n < 2 {
        return;
    }
    let sweeps: Vec<Sweep> = plan
        .stops
        .iter()
        .map(|stop| Sweep::new(stop, net))
        .collect();
    // Per stop, the bits of the neighbour anchors its last sweep saw,
    // kept only while that sweep left the stop in place.
    let mut settled: Vec<Option<[u64; 4]>> = vec![None; n];

    for _round in 0..MAX_ROUNDS {
        // Causal profiling: one child span per Gauss–Seidel round under
        // the owning stage span, carrying the per-round relocation count.
        let mut round_span =
            bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "tighten.round"));
        let mut changed = false;
        let mut relocations = 0u64;
        let mut skipped = 0u64;
        for (i, sweep) in sweeps.iter().enumerate() {
            let prev = plan.stops[(i + n - 1) % n].anchor();
            let next = plan.stops[(i + 1) % n].anchor();
            let seen = [prev.x, prev.y, next.x, next.y].map(f64::to_bits);
            if settled[i] == Some(seen) {
                skipped += 1;
                continue;
            }
            match sweep.best_relocation(&plan.stops[i], prev, next, cfg) {
                Some((anchor, _gain)) => {
                    let sensors = plan.stops[i].bundle.sensors.clone();
                    let bundle = ChargingBundle::with_anchor(sensors, anchor, net);
                    plan.stops[i] = Stop::for_bundle(bundle, net, &cfg.charging);
                    settled[i] = None;
                    changed = true;
                    relocations += 1;
                }
                None => settled[i] = Some(seen),
            }
        }
        if let Some(mut span) = round_span.take() {
            bc_obs::counter("plan", "tighten.relocations", relocations, &[]);
            bc_obs::counter("plan", "tighten.sweeps_skipped", skipped, &[]);
            span.add_field("relocations", relocations);
            span.add_field("changed", changed);
            span.finish();
        }
        if !changed {
            break;
        }
    }
}

/// What one stop's `d`-sweep reads besides its neighbours: all of it is
/// fixed by the stop's members, so it is computed once per tighten.
struct Sweep {
    /// Member positions and demands; each step's dwell is
    /// [`ChargingBundle::dwell_time`] at the step's point, folded from
    /// them in the same order.
    members: Vec<(Point, Joules)>,
    /// Centre of the relocation circles: the members' smallest enclosing
    /// disk's centre, per Theorem 4.
    center: Point,
    /// `A = Σ λ_m |m - c|²` and `B = |Σ λ_m (m - c)|` for convex weights
    /// `λ` over the members (see [`Sweep::reach`]).
    spread: (f64, f64),
    /// The smallest member demand.
    min_demand: Joules,
    /// Every member of positive demand as `(v, |v|, demand)` with
    /// `v = m - c`, for [`Sweep::arc_floor`]. A member that needs no
    /// energy needs no time wherever the stop parks.
    offsets: Vec<(Point, f64, Joules)>,
}

impl Sweep {
    fn new(stop: &Stop, net: &Network) -> Self {
        let sensors = stop.bundle.sensors.iter().map(|&i| net.sensor(i));
        let members: Vec<(Point, Joules)> = sensors.map(|s| (s.pos, s.demand)).collect();
        let pts: Vec<Point> = members.iter().map(|&(pos, _)| pos).collect();
        let center = bc_geom::sed::smallest_enclosing_disk(&pts).center;
        // Barycentric weights of the centre among the (up to) three
        // members farthest from it, where the disk's boundary points sit,
        // keep `B` near 0 and `A` near the radius squared; any convex
        // weights would give a valid bound.
        let mut far = pts;
        far.sort_by(|a, b| {
            b.distance_squared(center)
                .total_cmp(&a.distance_squared(center))
        });
        far.truncate(3);
        let (mut a, mut v) = (0.0, Point::ORIGIN);
        for (m, w) in far.iter().zip(convex_weights(&far, center)) {
            a += w * m.distance_squared(center);
            v += (*m - center) * w;
        }
        let min_demand = members
            .iter()
            .map(|&(_, q)| q)
            .fold(Joules(f64::INFINITY), Joules::min);
        let offsets = members
            .iter()
            .filter(|&&(_, q)| q.0 > 0.0)
            .map(|&(m, q)| (m - center, (m - center).norm(), q))
            .collect();
        Sweep {
            members,
            center,
            spread: (a, v.norm()),
            min_demand,
            offsets,
        }
    }

    /// Evaluates the `d`-sweep for the stop between anchors `prev` and
    /// `next` and returns the best relocated anchor with its energy gain,
    /// or `None` when no relocation beats the current position.
    fn best_relocation(
        &self,
        stop: &Stop,
        prev: Point,
        next: Point,
        cfg: &PlannerConfig,
    ) -> Option<(Point, Joules)> {
        let energy = &cfg.energy;
        let current_legs = prev.distance(stop.anchor()) + stop.anchor().distance(next);
        let current_cost =
            energy.movement_energy(Meters(current_legs)) + energy.charging_energy(stop.dwell);

        // Sweeping past the chord between the neighbours can never help:
        // the movement term is already minimal at the chord's closest
        // approach.
        let d_max = Segment::new(prev, next).distance_to_point(self.center);
        if d_max <= bc_geom::EPS {
            bc_obs::counter("plan", "tighten.anchors_pruned", 1, &[]);
            return None;
        }
        // One span per anchor's d-sweep (they fold by name in the tree
        // recorder).
        let sweep_span =
            bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "tighten.sweep"));
        let focal = FocalSum::new(prev, next, self.center);
        let mut best: Option<(Point, Joules)> = None;
        let (mut searches, mut cut) = (0usize, 0u64);
        for k in 1..=DISTANCE_STEPS {
            // A step wins only with a gain above 1e-9 J and above every
            // earlier winner's, so a circle whose cheapest point cannot
            // clear that bar is not searched (an infinite floor included),
            // and a search stops once the arc its answer lies on cannot.
            let bar = best.map_or(1e-9, |(_, g)| g.0);
            let d = d_max * k as f64 / DISTANCE_STEPS as f64; // cast-ok: sweep-step ratio
            if current_cost.0 - self.cost_floor(&focal, d, cfg) <= bar {
                continue;
            }
            let circle = Disk::new(self.center, d);
            let hopeless =
                |arc: &AnswerArc| current_cost.0 - self.arc_floor(&focal, arc, d, cfg) <= bar;
            let Some(t) = tangency::min_focal_sum_with_cut(prev, next, &circle, hopeless) else {
                cut += 1;
                continue;
            };
            searches += 1;
            let Some(cost) = self.cost_at(&t, cfg) else {
                continue; // a member beyond the law's support
            };
            let gain = current_cost - cost;
            if gain.0 > bar {
                best = Some((t.point, gain));
            }
        }
        if let Some(span) = sweep_span {
            // Work attribution for the tighten hotspot: candidate radii
            // examined, searched or not, the focal-sum evaluations of the
            // tangency searches that ran to their end (Theorem 5's search
            // does a fixed number each), and the searches cut short.
            let as_u64 = |v: usize| u64::try_from(v).unwrap_or(u64::MAX);
            bc_obs::counter("plan", "tighten.candidates", as_u64(DISTANCE_STEPS), &[]);
            bc_obs::counter(
                "plan",
                "tighten.gs_evals",
                as_u64(searches * tangency::EVALS_PER_SEARCH),
                &[],
            );
            bc_obs::counter("plan", "tighten.searches_cut", cut, &[]);
            span.finish();
        }
        best
    }

    /// The cost `E_m F(P) + p_c dwell(P)` of relocating to the tangency
    /// point `P`, or `None` when some member would get no power there (a
    /// law of finite support). The dwell is [`ChargingBundle::dwell_time`]
    /// at `P`, folded from the members in the same order.
    fn cost_at(&self, t: &Tangency, cfg: &PlannerConfig) -> Option<Joules> {
        let (energy, charging) = (&cfg.energy, &cfg.charging);
        let dwell = self
            .members
            .iter()
            .map(|&(pos, demand)| charging.charge_time(Meters(t.point.distance(pos)), demand))
            .fold(Seconds(0.0), Seconds::max);
        dwell
            .is_finite()
            .then(|| energy.movement_energy(Meters(t.focal_sum)) + energy.charging_energy(dwell))
    }

    /// A lower bound, in joules, on the cost `E_m F(P) + p_c dwell(P)` of
    /// every point `P` of the circle `|P - c| = d`: the sum of
    /// [`FocalSum::floor`] and the dwell of the smallest demand over
    /// [`Sweep::reach`], shrunk by a relative `1e-9` so that rounding
    /// never lifts it above a searched step's cost. It is computed in raw
    /// `f64`: a dwell that no point of the circle can finish makes it
    /// infinite rather than panic.
    fn cost_floor(&self, focal: &FocalSum, d: f64, cfg: &PlannerConfig) -> f64 {
        let dwell = if self.min_demand.0 > 0.0 {
            cfg.charging
                .charge_time(Meters(self.reach(d)), self.min_demand)
                .0
        } else {
            0.0
        };
        let (move_cost, draw) = (cfg.energy.move_cost().0, cfg.energy.charge_draw().0);
        (move_cost * focal.floor(d) + draw * dwell) * (1.0 - 1e-9)
    }

    /// A lower bound on the distance from any point `P` of the circle
    /// `|P - c| = d` to its farthest member. For convex weights `λ`,
    /// `max_m |P - m|² ≥ Σ λ_m |P - m|² = d² - 2 (P - c)·Σ λ_m (m - c) + A
    /// ≥ d² + A - 2 d B`, whatever the centre. A one-member stop reads
    /// `d` exactly.
    fn reach(&self, d: f64) -> f64 {
        let (a, b) = self.spread;
        (d * d + a - 2.0 * d * b).max(0.0).sqrt()
    }

    /// A lower bound, in joules, on the cost `E_m F(P) + p_c dwell(P)` of
    /// every point `P = c + d (cos θ, sin θ)` of the circle `|P - c| = d`
    /// with `|θ - arc.theta| <= s = arc.half_width`, made without a trig
    /// call. Write `u = arc.dir`, `u⊥` for `u` turned a quarter left,
    /// and `P_r = arc.point`.
    ///
    /// * Focal sum: `F` is convex, so `F(P) >= F(P_r) + g·(P - P_r)` with
    ///   `g = ∇F(P_r)`. On the arc `P - P_r = d ((cos t - 1) u +
    ///   sin t u⊥)` with `|t| <= s`, and `1 - cos t <= s²/2`,
    ///   `|sin t| <= s` give `F(P) >= F(P_r) - d (s²/2 max(g·u, 0) +
    ///   s |g·u⊥|)`. The chord `|prev next|` also bounds `F`, and a NaN
    ///   gradient (`P_r` on a focus) leaves only the chord.
    /// * Dwell: for a member `m` with `v = m - c`, `ρ = |v|` and
    ///   `a = ∠(u, v)`, every point of the arc is at least
    ///   `max(0, a - s)` from `v`'s direction, so `|P - m|² >= d² + ρ² -
    ///   2 d ρ cos(max(0, a - s))`. When `a > s` is certain (`s < π/2`
    ///   and `u·v <= 0` or `|u×v| > s ρ`, since `a <= s` would give
    ///   `sin a <= s`), `cos a cos s + sin a sin s` is at most
    ///   `cos a + max(-cos a, 0) s²/2 + sin a s`; elsewhere `|ρ - d|` is
    ///   the bound. Received power never grows with distance, so the
    ///   largest charge time over the members at those distances is a
    ///   floor on the dwell; it is infinite only when every point of the
    ///   arc leaves some member beyond the law's support.
    ///
    /// Like [`Sweep::cost_floor`] it is computed in raw `f64` and shrunk
    /// by a relative `1e-9`. The square root of a short distance would
    /// magnify the rounding of `ρ - ρ cos(a - s)`, so that gap gives up
    /// `1e-14 ρ` first, far above its rounding error.
    fn arc_floor(&self, focal: &FocalSum, arc: &AnswerArc, d: f64, cfg: &PlannerConfig) -> f64 {
        let (u, s) = (arc.dir, arc.half_width);
        let g = focal_gradient(arc.point, focal.prev, focal.next);
        let slide = d * (0.5 * s * s * g.dot(u).max(0.0) + s * u.cross(g).abs());
        let focal_floor = focal.chord.max(arc.focal_sum - slide);
        let mut dwell = 0.0_f64;
        for &(v, rho, demand) in &self.offsets {
            let (along, across) = (u.dot(v), u.cross(v).abs());
            let near = if s < FRAC_PI_2 && (along <= 0.0 || across > s * rho) {
                // At least the largest `v·e` over the arc's directions `e`.
                let max_proj = (along + 0.5 * s * s * (-along).max(0.0) + s * across).min(rho);
                let gap = (rho - max_proj - 1e-14 * rho).max(0.0);
                ((rho - d) * (rho - d) + 2.0 * d * gap).sqrt()
            } else {
                (rho - d).abs()
            };
            dwell = dwell.max(cfg.charging.charge_time(Meters(near), demand).0);
        }
        let (move_cost, draw) = (cfg.energy.move_cost().0, cfg.energy.charge_draw().0);
        (move_cost * focal_floor + draw * dwell) * (1.0 - 1e-9)
    }
}

/// Convex weights of `c` among `pts` (one to three points): barycentric
/// in the triangle when it holds `c`, else the closest point of the
/// first two's segment, else all weight on the first point. Weights past
/// `pts.len()` are zero.
fn convex_weights(pts: &[Point], c: Point) -> [f64; 3] {
    if let [p, q, r] = *pts {
        let area = (q - p).cross(r - p);
        let (u, v) = ((q - c).cross(r - c) / area, (r - c).cross(p - c) / area);
        let w = 1.0 - u - v;
        if area != 0.0 && u >= 0.0 && v >= 0.0 && w >= 0.0 {
            return [u, v, w];
        }
    }
    if let [p, q, ..] = *pts {
        let t = (c - p).dot(q - p) / p.distance_squared(q);
        if t.is_finite() {
            let t = t.clamp(0.0, 1.0);
            return [1.0 - t, t, 0.0];
        }
    }
    [1.0, 0.0, 0.0]
}

/// `∇F(p)` for the focal sum `F(P) = |P f1| + |P f2|`: the sum of the unit
/// vectors from the foci to `p` (NaN at a focus).
fn focal_gradient(p: Point, f1: Point, f2: Point) -> Point {
    (p - f1) / p.distance(f1) + (p - f2) / p.distance(f2)
}

/// The focal sum `F(P) = |P prev| + |P next|` of a sweep, about its
/// circles' centre `c`. `F` is convex, so each tangent plane bounds it
/// from below.
struct FocalSum {
    prev: Point,
    next: Point,
    center: Point,
    /// `|prev next|`, the least `F` anywhere.
    chord: f64,
    /// `F(c)`.
    at_center: f64,
    /// `∇F(c)` and its length.
    slope: (Point, f64),
}

impl FocalSum {
    fn new(prev: Point, next: Point, center: Point) -> Self {
        let slope = focal_gradient(center, prev, next);
        FocalSum {
            prev,
            next,
            center,
            chord: prev.distance(next),
            at_center: center.distance(prev) + center.distance(next),
            slope: (slope, slope.norm()),
        }
    }

    /// A lower bound on `F` over the circle `|P - c| = d`: the largest of
    /// the chord `|prev next|`, the tangent plane at `c`, and the tangent
    /// plane at `P0 = c - d ∇F(c)/|∇F(c)|`, where the circle meets `c`'s
    /// steepest descent (over the circle, `∇F·(P - c) ≥ -d |∇F|`). A NaN
    /// plane (a focus at `P0`) drops out of the `max`.
    fn floor(&self, d: f64) -> f64 {
        let (slope, steep) = self.slope;
        let p0 = self.center - slope * (d / steep);
        let g0 = focal_gradient(p0, self.prev, self.next);
        let at_p0 = p0.distance(self.prev) + p0.distance(self.next);
        let tangent_p0 = at_p0 + g0.dot(self.center - p0) - d * g0.norm();
        self.chord.max(self.at_center - d * steep).max(tangent_p0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use bc_geom::Aabb;
    use bc_wpt::ChargingModel;
    use bc_wsn::{deploy, Sensor, SensorId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn never_worse_than_bc() {
        for seed in [1u64, 2, 3, 4, 5] {
            let net = deploy::uniform(50, Aabb::square(800.0), 2.0, seed);
            let cfg = PlannerConfig::paper_sim(40.0);
            let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
            let opt = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
            let e_bc = bc.metrics(&cfg.energy).total_energy_j;
            let e_opt = opt.metrics(&cfg.energy).total_energy_j;
            assert!(
                e_opt <= e_bc + Joules(1e-6),
                "seed {seed}: BC-OPT {e_opt} worse than BC {e_bc}"
            );
        }
    }

    #[test]
    fn stays_feasible_after_optimization() {
        let net = deploy::uniform(60, Aabb::square(600.0), 2.0, 23);
        let cfg = PlannerConfig::paper_sim(50.0);
        let plan = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn relocation_shortens_tour_at_cost_of_dwell() {
        // Three far-apart bundles in a wide triangle: the middle one
        // should slide toward the chord.
        let net = deploy::from_coords(
            &[(0.0, 0.0), (500.0, 300.0), (1000.0, 0.0)],
            Aabb::square(1000.0),
            2.0,
        );
        let cfg = PlannerConfig::paper_sim(10.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let opt = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        assert!(opt.tour_length() < bc.tour_length() - Meters(1.0));
        assert!(opt.total_dwell() > bc.total_dwell());
        assert!(plan_energy(&opt, &cfg) < plan_energy(&bc, &cfg));
        assert!(opt.validate(&net, &cfg.charging).is_ok());
    }

    fn plan_energy(plan: &ChargingPlan, cfg: &PlannerConfig) -> Joules {
        plan.metrics(&cfg.energy).total_energy_j
    }

    #[test]
    fn two_stop_case_moves_anchors_together() {
        // The Section V-B two-bundle discussion: with expensive movement,
        // both anchors slide toward each other.
        let net = deploy::from_coords(&[(0.0, 0.0), (400.0, 0.0)], Aabb::square(1000.0), 2.0);
        let cfg = PlannerConfig::paper_sim(10.0);
        let bc = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        let opt = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        assert!(opt.tour_length() < bc.tour_length());
        assert!(plan_energy(&opt, &cfg) < plan_energy(&bc, &cfg));
    }

    #[test]
    fn single_stop_is_untouched() {
        let net = deploy::from_coords(&[(10.0, 10.0), (12.0, 10.0)], Aabb::square(100.0), 2.0);
        let cfg = PlannerConfig::paper_sim(20.0);
        let plan = try_run(Algorithm::BcOpt, &net, &cfg).unwrap();
        assert_eq!(plan.num_charging_stops(), 1);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    /// The sweep of a stop of `members` (position, demand).
    fn sweep_of(members: &[(Point, f64)]) -> Sweep {
        let sensors = members
            .iter()
            .map(|&(pos, q)| Sensor::new(SensorId(0), pos, q))
            .collect();
        let net = Network::new(sensors, Aabb::square(1000.0), Point::ORIGIN);
        let idx: Vec<usize> = (0..members.len()).collect();
        let stop = Stop {
            bundle: ChargingBundle::from_members(idx, &net),
            dwell: Seconds(0.0),
        };
        Sweep::new(&stop, &net)
    }

    #[test]
    fn arc_floor_never_exceeds_the_cost_of_the_answer() {
        let mut table = PlannerConfig::paper_sim(20.0);
        table.charging = ChargingModel::from_table(
            &[
                (0.0, 0.04),
                (10.0, 0.0225),
                (30.0, 0.01),
                (60.0, 0.004),
                (400.0, 0.0005),
            ],
            1.0,
        );
        let mut linear = PlannerConfig::paper_sim(10.0);
        linear.charging = ChargingModel::linear(0.04, 0.002, 1.0);
        // Each law with the bundle radius its stops are drawn at.
        let laws = [
            ("paper_sim", PlannerConfig::paper_sim(10.0), 10.0),
            ("paper_testbed", PlannerConfig::paper_testbed(1.0), 1.0),
            ("table", table, 20.0),
            ("linear", linear, 10.0),
        ];
        let mut rng = SmallRng::seed_from_u64(33);
        let (mut arcs, mut tight, mut infinite, mut on_focus) = (0usize, 0, 0, 0);
        for (law, cfg, r) in &laws {
            let r = *r;
            for case in 0..10_000 {
                let c0 = Point::new(rng.random_range(-50.0..50.0), rng.random_range(-50.0..50.0));
                let around = |rng: &mut SmallRng, reach: f64| {
                    let (a, t) = (
                        rng.random_range(0.0..std::f64::consts::TAU),
                        rng.random_range(0.0..reach),
                    );
                    c0 + Point::from_angle(a) * t
                };
                let mut members: Vec<(Point, f64)> = (0..rng.random_range(1..7))
                    .map(|_| {
                        // Every fourth member asks for nothing.
                        let q = if rng.random_range(0..4) == 0 {
                            0.0
                        } else {
                            rng.random_range(0.1..3.0)
                        };
                        (around(&mut rng, r), q)
                    })
                    .collect();
                if case % 5 == 0 {
                    // A member at the smallest enclosing disk's centre.
                    let pts: Vec<Point> = members.iter().map(|&(p, _)| p).collect();
                    let centre = bc_geom::sed::smallest_enclosing_disk(&pts).center;
                    members.push((centre, rng.random_range(0.1..3.0)));
                }
                let sweep = sweep_of(&members);
                let d = rng.random_range(0.01..2.5) * r;
                let mut prev = around(&mut rng, 8.0 * r);
                let next = around(&mut rng, 8.0 * r);
                if case % 7 == 0 {
                    // A neighbour anchor on the sweep circle, sometimes at
                    // a coarse sample, where the scan's reference point is
                    // a focus and the focal gradient is NaN.
                    let a = if case % 14 == 0 {
                        f64::from(rng.random_range(0..64_u32)) * (std::f64::consts::TAU / 64.0)
                    } else {
                        rng.random_range(0.0..std::f64::consts::TAU)
                    };
                    prev = sweep.center + Point::from_angle(a) * d;
                }
                let focal = FocalSum::new(prev, next, sweep.center);
                let circle = Disk::new(sweep.center, d);
                let mut seen = Vec::new();
                let t = tangency::min_focal_sum_with_cut(prev, next, &circle, |arc| {
                    seen.push(*arc);
                    false
                })
                .expect("a cut that never fires runs to the end");
                let cost = sweep.cost_at(&t, cfg);
                for arc in &seen {
                    arcs += 1;
                    let floor = sweep.arc_floor(&focal, arc, d, cfg);
                    on_focus += usize::from(focal_gradient(arc.point, prev, next).x.is_nan());
                    match cost {
                        Some(cost) => {
                            assert!(
                                floor <= cost.0,
                                "{law} case {case}: floor {floor} above cost {} on {arc:?}",
                                cost.0
                            );
                            tight += usize::from(floor >= cost.0 * 0.99);
                        }
                        None => infinite += usize::from(floor.is_infinite()),
                    }
                }
            }
        }
        // The floor is close enough to the cost to cut searches, a
        // finite-support law makes some of it infinite, and some arcs'
        // reference points sit on a focus.
        assert!(
            tight * 2 > arcs,
            "{tight} of {arcs} arcs within 1% of their cost"
        );
        assert!(infinite > 0, "no arc had an infinite floor");
        assert!(on_focus > 0, "no arc's reference point was a focus");
    }
}

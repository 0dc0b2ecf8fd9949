//! Exactness of `split_into_sorties`, which extends each split start's
//! segment one stop at a time. The DP it replaced, which summed every
//! candidate segment afresh, survives here as a test-local oracle: both
//! must return the same `Result`, `Debug` text for `Debug` text, so every
//! cut, every float bit and every tie agrees.

use bundle_charging::core::faults::FaultRng;
use bundle_charging::core::planner::{self, Algorithm};
use bundle_charging::core::{
    split_into_sorties, ChargingPlan, PlannerConfig, Sortie, SortieError, SortiePlan,
};
use bundle_charging::geom::{Aabb, Point};
use bundle_charging::units::{Joules, Meters, Seconds};
use bundle_charging::wpt::EnergyModel;
use bundle_charging::wsn::deploy;

/// `split_into_sorties` before its segments were extended incrementally:
/// each candidate segment's legs and dwells summed afresh, each prefix
/// relaxed from its nearest start outward with a strict `<`, and every
/// singleton checked before the DP.
fn split_oracle(
    plan: &ChargingPlan,
    base: Point,
    energy: &EnergyModel,
    budget_j: f64,
) -> Result<SortiePlan, SortieError> {
    if !budget_j.is_finite() || budget_j <= 0.0 {
        return Err(SortieError::InvalidBudget);
    }
    let budget = Joules(budget_j);
    let stops = &plan.stops;
    let k = stops.len();
    if k == 0 {
        return Ok(SortiePlan {
            sorties: Vec::new(),
            base,
            total_energy_j: Joules(0.0),
        });
    }
    let segment = |i: usize, j: usize| -> (Meters, Seconds, Joules) {
        let mut dist = base.distance(stops[i].anchor());
        for w in i..j - 1 {
            dist += stops[w].anchor().distance(stops[w + 1].anchor());
        }
        dist += stops[j - 1].anchor().distance(base);
        let dist = Meters(dist);
        let dwell: Seconds = stops[i..j].iter().map(|s| s.dwell).sum();
        (dist, dwell, energy.total_energy(dist, dwell))
    };
    for i in 0..k {
        let (_, _, e) = segment(i, i + 1);
        if e > budget + Joules(1e-9) {
            return Err(SortieError::StopExceedsBudget {
                stop: i,
                energy_j: e,
                budget_j: budget,
            });
        }
    }
    let mut best = vec![(Joules(f64::INFINITY), usize::MAX); k + 1];
    best[0] = (Joules(0.0), usize::MAX);
    for j in 1..=k {
        for i in (0..j).rev() {
            let (_, _, e) = segment(i, j);
            if e > budget + Joules(1e-9) {
                break;
            }
            let cand = best[i].0 + e;
            if cand < best[j].0 {
                best[j] = (cand, i);
            }
        }
    }
    let mut cuts = Vec::new();
    let mut j = k;
    while j > 0 {
        let i = best[j].1;
        cuts.push((i, j));
        j = i;
    }
    cuts.reverse();
    let sorties: Vec<Sortie> = cuts
        .into_iter()
        .map(|(i, j)| {
            let (distance_m, dwell_s, energy_j) = segment(i, j);
            Sortie {
                stops: i..j,
                distance_m,
                dwell_s,
                energy_j,
            }
        })
        .collect();
    let total = sorties.iter().map(|s| s.energy_j).sum();
    Ok(SortiePlan {
        sorties,
        base,
        total_energy_j: total,
    })
}

/// `suffixes` suffixes of `plan` and a random thinning of each, the
/// shapes recovery leaves.
fn remainders(plan: &ChargingPlan, rng: &mut FaultRng, suffixes: usize) -> Vec<ChargingPlan> {
    let len = plan.stops.len();
    let mut out = Vec::with_capacity(2 * suffixes);
    for i in 0..suffixes {
        let suffix = &plan.stops[i * len / suffixes..];
        let thinned = suffix.iter().filter(|_| rng.unit() < 0.5).cloned();
        out.push(ChargingPlan::new(suffix.to_vec(), 0));
        out.push(ChargingPlan::new(thinned.collect(), 0));
    }
    out
}

/// The smallest budget for which every stop is feasible alone.
fn min_feasible_budget(plan: &ChargingPlan, base: Point, energy: &EnergyModel) -> f64 {
    plan.stops
        .iter()
        .map(|s| {
            energy
                .total_energy(Meters(2.0 * base.distance(s.anchor())), s.dwell)
                .0
        })
        .fold(0.0, f64::max)
}

fn assert_replays(plan: &ChargingPlan, base: Point, energy: &EnergyModel, budget: f64) -> bool {
    let want = split_oracle(plan, base, energy, budget);
    let got = split_into_sorties(plan, base, energy, budget);
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{} stops, budget {budget}",
        plan.stops.len()
    );
    want.is_ok()
}

/// Remainders of BC plans, under budgets from unbounded down to the
/// feasibility floor, and just below it.
#[test]
fn split_replays_the_oracle_on_plan_remainders() {
    const FRACTIONS: [f64; 6] = [1.0, 0.6, 0.35, 0.2, 0.1, 0.0];
    let (mut splits, mut refused) = (0, 0);
    for seed in 0..3u64 {
        let mut rng = FaultRng::new(seed, 1);
        for n in [40, 200] {
            let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
            for r in [5.0, 10.0, 25.0] {
                let cfg = PlannerConfig::paper_sim(r);
                let plan = planner::try_run(Algorithm::Bc, &net, &cfg)
                    .unwrap_or_else(|e| panic!("BC plan: {e}"));
                let (base, energy) = (net.base(), &cfg.energy);
                for rest in remainders(&plan, &mut rng, 6) {
                    let whole = split_oracle(&rest, base, energy, f64::MAX / 2.0)
                        .unwrap_or_else(|e| panic!("unbounded split: {e}"));
                    let floor = min_feasible_budget(&rest, base, energy);
                    let budgets = FRACTIONS
                        .iter()
                        .map(|&f| (whole.total_energy_j.0 * f).max(floor))
                        .chain([f64::MAX / 2.0, floor * (1.0 - 1e-6)]);
                    for budget in budgets {
                        splits += 1;
                        refused += usize::from(!assert_replays(&rest, base, energy, budget));
                    }
                }
            }
        }
    }
    assert!(refused > 0 && refused < splits, "{refused} of {splits}");
}

/// Copies of one stop parked on the base cost the same however they are
/// split, so only the tie rule (the latest start wins) picks the split.
#[test]
fn split_replays_the_oracle_on_ties() {
    let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 77);
    let cfg = PlannerConfig::paper_sim(30.0);
    let plan =
        planner::try_run(Algorithm::Bc, &net, &cfg).unwrap_or_else(|e| panic!("BC plan: {e}"));
    let mut on_base = plan.stops[0].clone();
    on_base.bundle.anchor = net.base();
    let copies = ChargingPlan::new(vec![on_base; 6], 0);
    let whole = split_oracle(&copies, net.base(), &cfg.energy, f64::MAX / 2.0)
        .unwrap_or_else(|e| panic!("unbounded split: {e}"));
    for budget in [f64::MAX / 2.0, whole.total_energy_j.0 / 2.5] {
        assert!(assert_replays(&copies, net.base(), &cfg.energy, budget));
    }
}

/// An empty plan and invalid budgets.
#[test]
fn split_replays_the_oracle_on_edge_cases() {
    let energy = EnergyModel::paper_sim();
    let empty = ChargingPlan::new(Vec::new(), 0);
    assert!(assert_replays(&empty, Point::ORIGIN, &energy, 100.0));
    for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
        assert!(!assert_replays(&empty, Point::ORIGIN, &energy, bad));
    }
}

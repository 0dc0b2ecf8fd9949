//! Sortie splitting under a charger battery budget.
//!
//! The paper treats the mobile charger's energy as unbounded; its
//! reference scenario (Li et al.'s *Qi-ferry*) is the energy-constrained
//! version, where the charger carries a finite battery and must return
//! to the base station to swap/recharge before continuing. This module
//! extends any [`ChargingPlan`] to that setting: the fixed stop order is
//! split into consecutive **sorties**, each departing from and returning
//! to the base station, such that no sortie's energy (driving, including
//! the base legs, plus dwell) exceeds the budget and the added return
//! mileage is minimal.
//!
//! With the visiting order fixed by the underlying planner, the optimal
//! split is the classical route-first / cluster-second dynamic program:
//! `best[j] = min over feasible segments (i..j] of best[i] + cost(i, j)`.
//!
//! Only finite budgets need the split: the sortie-budget ablation
//! (`bc_sim::figures::ablations`) and the `site_survey` example call it.
//! Under an unbounded budget the whole plan is one sortie, since a cut
//! between stops x and y adds |x b| + |b y| − |x y| ≥ 0 of driving
//! through the base b; [`crate::RecoveryPolicy::ReturnToBase`] therefore
//! re-enters a remainder as one sortie without calling this module.

use std::fmt;

use bc_geom::Point;
use bc_units::{Joules, Meters, Seconds};
use bc_wpt::EnergyModel;

use crate::ChargingPlan;

/// One sortie: a contiguous run of stops flown base → stops → base.
#[derive(Debug, Clone, PartialEq)]
pub struct Sortie {
    /// Indices into the original plan's stops, in visit order.
    pub stops: std::ops::Range<usize>,
    /// Driving distance of the sortie including both base legs.
    pub distance_m: Meters,
    /// Total dwell time of the sortie.
    pub dwell_s: Seconds,
    /// Total energy of the sortie.
    pub energy_j: Joules,
}

/// A plan split into battery-feasible sorties.
#[derive(Debug, Clone, PartialEq)]
pub struct SortiePlan {
    /// The sorties in execution order.
    pub sorties: Vec<Sortie>,
    /// The base station all sorties start and end at.
    pub base: Point,
    /// Total energy across sorties.
    pub total_energy_j: Joules,
}

impl SortiePlan {
    /// Number of sorties.
    pub fn len(&self) -> usize {
        self.sorties.len()
    }

    /// `true` when no sorties are needed (empty plan).
    pub fn is_empty(&self) -> bool {
        self.sorties.is_empty()
    }

    /// The worst single-sortie energy, which must be within budget.
    pub fn max_sortie_energy_j(&self) -> Joules {
        self.sorties
            .iter()
            .map(|s| s.energy_j)
            .fold(Joules(0.0), Joules::max)
    }
}

impl fmt::Display for SortiePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SortiePlan({} sorties, {:.1} total, worst {:.1})",
            self.sorties.len(),
            self.total_energy_j,
            self.max_sortie_energy_j()
        )
    }
}

/// Why a plan could not be split.
#[derive(Debug, Clone, PartialEq)]
pub enum SortieError {
    /// A single stop already exceeds the budget even as its own sortie
    /// (base → stop → base plus its dwell).
    StopExceedsBudget {
        /// Index of the offending stop.
        stop: usize,
        /// Energy of the singleton sortie.
        energy_j: Joules,
        /// The budget.
        budget_j: Joules,
    },
    /// The budget is not a positive finite number.
    InvalidBudget,
}

impl fmt::Display for SortieError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SortieError::StopExceedsBudget {
                stop,
                energy_j,
                budget_j,
            } => write!(
                f,
                "stop {stop} needs {:.1} J as a singleton sortie, budget is {:.1} J",
                energy_j.0, budget_j.0
            ),
            SortieError::InvalidBudget => write!(f, "budget must be positive and finite"),
        }
    }
}

impl std::error::Error for SortieError {}

/// Splits `plan` into battery-feasible sorties with minimum total energy,
/// keeping the plan's stop order.
///
/// `budget_j` bounds each sortie's energy (movement including base legs
/// plus dwell). The split is optimal for the fixed order (dynamic
/// program over split points, `O(k^2)` for `k` stops: each start
/// extends its segment one stop at a time, so a segment's legs and
/// dwells are summed once, in tour order).
///
/// # Errors
///
/// [`SortieError::StopExceedsBudget`] if some stop cannot be served even
/// alone; [`SortieError::InvalidBudget`] for a non-positive budget.
pub fn split_into_sorties(
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

    // DP over prefixes: best[j] is the cheapest split of stops[..j] and
    // its last sortie. Starts run in tour order, so best[i] is final
    // before any segment from i relaxes a later prefix.
    let mut best: Vec<(Joules, Option<Sortie>)> = vec![(Joules(f64::INFINITY), None); k + 1];
    best[0].0 = Joules(0.0);
    for i in 0..k {
        // The segment stops[i..j]: base → stop i → … → stop j−1, then home.
        let mut legs = base.distance(stops[i].anchor());
        let mut dwell_s = stops[i].dwell;
        for j in i + 1..=k {
            let last = stops[j - 1].anchor();
            let distance_m = Meters(legs + last.distance(base));
            let energy_j = energy.total_energy(distance_m, dwell_s);
            if energy_j > budget + Joules(1e-9) {
                if j == i + 1 {
                    return Err(SortieError::StopExceedsBudget {
                        stop: i,
                        energy_j,
                        budget_j: budget,
                    });
                }
                break; // longer segments from i only cost more
            }
            let cand = best[i].0 + energy_j;
            // `<=`: on a tie the latest start wins.
            if cand <= best[j].0 {
                let sortie = Sortie {
                    stops: i..j,
                    distance_m,
                    dwell_s,
                    energy_j,
                };
                best[j] = (cand, Some(sortie));
            }
            if let Some(next) = stops.get(j) {
                legs += last.distance(next.anchor());
                dwell_s += next.dwell;
            }
        }
    }

    debug_assert!(
        best[k].0.is_finite(),
        "singleton feasibility guarantees a split"
    );

    // Walk the last sorties back from the full prefix.
    let mut sorties = Vec::new();
    let mut j = k;
    while let Some(sortie) = best[j].1.take() {
        j = sortie.stops.start;
        sorties.push(sortie);
    }
    sorties.reverse();
    // A fold from +0.0, not `sum` (which starts at −0.0): an empty plan
    // costs `Joules(0.0)`.
    let total_energy_j = sorties.iter().fold(Joules(0.0), |sum, s| sum + s.energy_j);
    Ok(SortiePlan {
        sorties,
        base,
        total_energy_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRng;
    use crate::planner::{try_run, Algorithm};
    use crate::PlannerConfig;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn setup() -> (bc_wsn::Network, PlannerConfig, ChargingPlan) {
        let net = deploy::uniform(40, Aabb::square(300.0), 2.0, 77);
        let cfg = PlannerConfig::paper_sim(30.0);
        let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
        (net, cfg, plan)
    }

    /// Under an unbounded budget every remainder of a tour is one sortie:
    /// a cut between consecutive stops x and y adds |x b| + |b y| − |x y|
    /// ≥ 0 of driving through the base b. Beside one plan at a 1e9 J
    /// budget, the remainders here are suffixes of BC plans and random
    /// thinnings of those suffixes, the shapes recovery leaves.
    #[test]
    fn generous_budget_gives_single_sortie() {
        const SUFFIXES: usize = 20;
        let (net, cfg, plan) = setup();
        let sp = split_into_sorties(&plan, net.base(), &cfg.energy, 1e9).unwrap();
        assert_eq!(sp.len(), 1);
        assert_eq!(sp.sorties[0].stops, 0..plan.stops.len());

        for seed in 0..6u64 {
            let mut rng = FaultRng::new(seed, 0);
            for n in [40, 200, 400] {
                let net = deploy::uniform(n, Aabb::square(300.0), 2.0, seed);
                for r in [10.0, 25.0] {
                    let cfg = PlannerConfig::paper_sim(r);
                    let plan = try_run(Algorithm::Bc, &net, &cfg).unwrap();
                    let len = plan.stops.len();
                    for i in 0..SUFFIXES {
                        let suffix = &plan.stops[i * len / SUFFIXES..];
                        let thinned = suffix.iter().filter(|_| rng.unit() < 0.5).cloned();
                        for stops in [suffix.to_vec(), thinned.collect()] {
                            let rest = ChargingPlan::new(stops, 0);
                            let k = rest.stops.len();
                            let sp =
                                split_into_sorties(&rest, net.base(), &cfg.energy, f64::MAX / 2.0)
                                    .unwrap();
                            let got: Vec<_> = sp.sorties.iter().map(|s| s.stops.clone()).collect();
                            let want: Vec<_> = (k > 0).then_some(0..k).into_iter().collect();
                            assert_eq!(got, want, "seed {seed}, n {n}, r {r}, suffix {i}");
                        }
                    }
                }
            }
        }
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

    #[test]
    fn tight_budget_gives_more_sorties_and_respects_it() {
        let (net, cfg, plan) = setup();
        let single = split_into_sorties(&plan, net.base(), &cfg.energy, 1e9).unwrap();
        let budget = (single.total_energy_j.0 / 3.0)
            .max(min_feasible_budget(&plan, net.base(), &cfg.energy) * 1.05);
        let sp = split_into_sorties(&plan, net.base(), &cfg.energy, budget).unwrap();
        assert!(sp.len() >= 2);
        assert!(sp.max_sortie_energy_j() <= Joules(budget + 1e-6));
        // Splitting adds base legs, so the total can only grow.
        assert!(sp.total_energy_j >= single.total_energy_j - Joules(1e-6));
    }

    #[test]
    fn sorties_cover_every_stop_exactly_once() {
        let (net, cfg, plan) = setup();
        let single = split_into_sorties(&plan, net.base(), &cfg.energy, 1e9).unwrap();
        let budget = (single.total_energy_j.0 / 4.0)
            .max(min_feasible_budget(&plan, net.base(), &cfg.energy) * 1.05);
        let sp = split_into_sorties(&plan, net.base(), &cfg.energy, budget).unwrap();
        let mut covered = Vec::new();
        for s in &sp.sorties {
            covered.extend(s.stops.clone());
        }
        let expected: Vec<usize> = (0..plan.stops.len()).collect();
        assert_eq!(covered, expected);
    }

    #[test]
    fn dp_beats_greedy_splitting() {
        // Greedy fills each sortie until the next stop would overflow;
        // the DP must never be worse.
        let (net, cfg, plan) = setup();
        let single = split_into_sorties(&plan, net.base(), &cfg.energy, 1e9).unwrap();
        let budget = (single.total_energy_j.0 / 2.5)
            .max(min_feasible_budget(&plan, net.base(), &cfg.energy) * 1.05);
        let dp = split_into_sorties(&plan, net.base(), &cfg.energy, budget).unwrap();

        // Greedy reference.
        let stops = &plan.stops;
        let seg = |i: usize, j: usize| {
            let mut dist = net.base().distance(stops[i].anchor());
            for w in i..j - 1 {
                dist += stops[w].anchor().distance(stops[w + 1].anchor());
            }
            dist += stops[j - 1].anchor().distance(net.base());
            let dwell: Seconds = stops[i..j].iter().map(|s| s.dwell).sum();
            cfg.energy.total_energy(Meters(dist), dwell).0
        };
        let mut greedy_total = 0.0;
        let mut i = 0;
        while i < stops.len() {
            let mut j = i + 1;
            while j < stops.len() && seg(i, j + 1) <= budget {
                j += 1;
            }
            greedy_total += seg(i, j);
            i = j;
        }
        assert!(dp.total_energy_j.0 <= greedy_total + 1e-6);
    }

    #[test]
    fn impossible_stop_reported() {
        let (net, cfg, plan) = setup();
        let err = split_into_sorties(&plan, net.base(), &cfg.energy, 10.0).unwrap_err();
        assert!(matches!(err, SortieError::StopExceedsBudget { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn invalid_budget_rejected() {
        let (net, cfg, plan) = setup();
        for bad in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                split_into_sorties(&plan, net.base(), &cfg.energy, bad),
                Err(SortieError::InvalidBudget) | Ok(_)
            ));
        }
        assert_eq!(
            split_into_sorties(&plan, net.base(), &cfg.energy, -1.0),
            Err(SortieError::InvalidBudget)
        );
    }

    #[test]
    fn empty_plan_splits_to_nothing() {
        let (net, cfg, _) = setup();
        let empty = ChargingPlan::new(Vec::new(), 0);
        let sp = split_into_sorties(&empty, net.base(), &cfg.energy, 100.0).unwrap();
        assert!(sp.is_empty());
        assert_eq!(sp.total_energy_j, Joules(0.0));
    }
}

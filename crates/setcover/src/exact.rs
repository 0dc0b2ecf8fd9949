//! Exact minimum set cover by branch and bound.
//!
//! This is the "Optimal" bundle-generation baseline of Fig. 11, which the
//! paper obtains "through the exhaustive search". Plain exhaustion over
//! all subsets of the family is hopeless even for modest inputs;
//! branch-and-bound with an element-branching rule and a density lower
//! bound explores the same space implicitly and solves the paper-scale
//! instances in milliseconds.

use std::cmp::Reverse;

use crate::greedy::{greedy_cover, holders};

/// Exact minimum set cover of `0..universe` via branch and bound.
///
/// Branches on the lowest-index uncovered element (every cover must pick
/// one of the sets containing it), prunes with the density lower bound
/// `ceil(uncovered / max_set_size)` and seeds the incumbent with the
/// greedy cover. Each set lists distinct elements.
///
/// `node_budget` caps the number of explored search nodes; when the budget
/// is exhausted the function returns `None` (the caller can fall back to
/// greedy). Passing `None` uses a generous default budget.
///
/// The returned selection is a true optimal cover (minimum cardinality),
/// or `None` when some element is in no set.
///
/// # Panics
///
/// Panics if a set names an element outside the universe.
pub fn exact_cover(
    universe: usize,
    sets: &[&[usize]],
    node_budget: Option<u64>,
) -> Option<Vec<usize>> {
    if universe == 0 {
        return Some(Vec::new());
    }
    let holders = holders(universe, sets)?;
    let mut search = Search {
        sets,
        holders: &holders,
        // Positive: some set holds element 0.
        max_size: sets.iter().map(|s| s.len()).max().unwrap_or(1),
        hold: vec![0; universe],
        remaining: universe,
        chosen: Vec::new(),
        best: greedy_cover(universe, sets)?,
        nodes: 0,
        budget: node_budget.unwrap_or(50_000_000),
        aborted: false,
    };
    search.dfs(0);
    (!search.aborted).then_some(search.best)
}

struct Search<'a> {
    sets: &'a [&'a [usize]],
    holders: &'a [Vec<usize>],
    max_size: usize,
    /// Per element, how many chosen sets hold it; 0 means uncovered.
    hold: Vec<usize>,
    remaining: usize,
    chosen: Vec<usize>,
    best: Vec<usize>,
    nodes: u64,
    budget: u64,
    aborted: bool,
}

impl Search<'_> {
    /// Explores the subtree below `chosen`; every element below `from`
    /// is covered.
    fn dfs(&mut self, from: usize) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.aborted = true;
            return;
        }
        if self.remaining == 0 {
            if self.chosen.len() < self.best.len() {
                self.best = self.chosen.clone();
            }
            return;
        }
        // Density lower bound.
        if self.chosen.len() + self.remaining.div_ceil(self.max_size) >= self.best.len() {
            return;
        }
        // Branch on the first uncovered element; order candidate sets by
        // decreasing marginal gain (stable, so ties keep index order) so
        // good covers are found early.
        let Some(e) = (from..self.hold.len()).find(|&e| self.hold[e] == 0) else {
            // `remaining > 0` guarantees an uncovered element exists.
            return;
        };
        let mut branches: Vec<(usize, usize)> =
            self.holders[e].iter().map(|&i| (self.gain(i), i)).collect();
        branches.sort_by_key(|b| Reverse(b.0));
        for (_, i) in branches {
            self.take(i);
            self.chosen.push(i);
            self.dfs(e + 1);
            self.chosen.pop();
            self.release(i);
            if self.aborted {
                return;
            }
        }
    }

    /// Number of still-uncovered elements in set `i`.
    fn gain(&self, i: usize) -> usize {
        self.sets[i].iter().filter(|&&e| self.hold[e] == 0).count()
    }

    /// Counts set `i`'s elements as held once more.
    fn take(&mut self, i: usize) {
        for &e in self.sets[i] {
            self.hold[e] += 1;
            if self.hold[e] == 1 {
                self.remaining -= 1;
            }
        }
    }

    /// Undoes [`Search::take`] of set `i`.
    fn release(&mut self, i: usize) {
        for &e in self.sets[i] {
            self.hold[e] -= 1;
            if self.hold[e] == 0 {
                self.remaining += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_cover;

    #[test]
    fn beats_greedy_on_adversarial_instance() {
        // Greedy picks the big middle set and then needs 2 more; optimum
        // is the two disjoint halves.
        let sets: [&[usize]; 3] = [&[1, 2, 3, 4], &[0, 1, 2], &[3, 4, 5]];
        let greedy = greedy_cover(6, &sets).unwrap();
        let exact = exact_cover(6, &sets, None).unwrap();
        assert_eq!(exact.len(), 2);
        assert!(exact.len() <= greedy.len());
        assert!(is_cover(6, &sets, &exact));
    }

    #[test]
    fn exact_on_singleton_family() {
        assert_eq!(exact_cover(3, &[&[0, 1, 2]], None).unwrap(), vec![0]);
    }

    #[test]
    fn exact_never_worse_than_greedy_random() {
        // Pseudo-random instances, deterministic from the loop indices.
        for seed in 0..10u64 {
            let universe = 12;
            let mut fam: Vec<Vec<usize>> = Vec::new();
            let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
            let mut rnd = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            for _ in 0..10 {
                let mut s = Vec::new();
                for e in 0..universe {
                    if rnd() % 3 == 0 {
                        s.push(e);
                    }
                }
                fam.push(s);
            }
            // Guarantee coverability.
            fam.push((0..universe).collect());
            let sets: Vec<&[usize]> = fam.iter().map(Vec::as_slice).collect();
            let g = greedy_cover(universe, &sets).unwrap();
            let e = exact_cover(universe, &sets, None).unwrap();
            assert!(e.len() <= g.len(), "seed {seed}");
            assert!(is_cover(universe, &sets, &e), "seed {seed}");
        }
    }

    #[test]
    fn ln_n_guarantee_observed() {
        // On every instance we try, greedy <= (ln n + 1) * exact.
        let sets: [&[usize]; 7] = [
            &[0, 1, 2, 3],
            &[4, 5],
            &[6],
            &[7],
            &[0, 4, 6],
            &[1, 5, 7],
            &[2, 3],
        ];
        let g = greedy_cover(8, &sets).unwrap().len() as f64;
        let e = exact_cover(8, &sets, None).unwrap().len() as f64;
        let bound = (8f64).ln() + 1.0;
        assert!(g <= bound * e + 1e-9);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // A zero node budget aborts before exploring anything.
        let families: Vec<Vec<usize>> = (0..16).map(|i| vec![i, (i + 1) % 16]).collect();
        let sets: Vec<&[usize]> = families.iter().map(Vec::as_slice).collect();
        assert_eq!(exact_cover(16, &sets, Some(0)), None);
    }

    #[test]
    fn empty_universe() {
        assert_eq!(exact_cover(0, &[], None).unwrap(), Vec::<usize>::new());
    }
}

//! Greedy set cover — the selection loop of the paper's Algorithm 2.

use std::cmp::Reverse;

/// For each element of `0..universe`, the indices of the sets holding it
/// in ascending order; `None` when some element is in no set.
///
/// # Panics
///
/// Panics if a set names an element outside the universe.
pub(crate) fn holders(universe: usize, sets: &[&[usize]]) -> Option<Vec<Vec<usize>>> {
    let mut holders = vec![Vec::new(); universe];
    for (i, set) in sets.iter().enumerate() {
        for &e in *set {
            holders[e].push(i);
        }
    }
    holders.iter().all(|h| !h.is_empty()).then_some(holders)
}

/// Greedy minimum set cover: repeatedly selects the set covering the most
/// still-uncovered elements of `0..universe` until all are covered.
///
/// Each set lists distinct elements. Theorem 2 of the paper: this is a
/// `ln n + 1` approximation of the optimal cover. Ties are broken by
/// lowest set index, which makes the result deterministic.
///
/// Every set's count of uncovered elements is kept exact through
/// per-element holder lists, so a pick is one pass over the counts and
/// covering an element costs one decrement per set holding it.
///
/// Returns the indices of the selected sets, in selection order, or
/// `None` when some element is in no set.
///
/// # Panics
///
/// Panics if a set names an element outside the universe.
pub fn greedy_cover(universe: usize, sets: &[&[usize]]) -> Option<Vec<usize>> {
    let holders = holders(universe, sets)?;
    let mut gain: Vec<usize> = sets.iter().map(|s| s.len()).collect();
    let mut covered = vec![false; universe];
    let mut uncovered = universe;
    let mut selected = Vec::new();
    while uncovered > 0 {
        // `min_by_key` keeps the first of equal keys: the lowest index
        // among the largest gains. Every element has a holder, so that
        // gain is positive while anything is uncovered.
        let (best, _) = gain.iter().enumerate().min_by_key(|&(_, &g)| Reverse(g))?;
        for &e in sets[best] {
            if !covered[e] {
                covered[e] = true;
                uncovered -= 1;
                for &h in &holders[e] {
                    gain[h] -= 1;
                }
            }
        }
        selected.push(best);
    }
    Some(selected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_cover;

    #[test]
    fn picks_largest_first() {
        let sets: [&[usize]; 4] = [&[0], &[0, 1, 2], &[3, 4], &[4]];
        let sel = greedy_cover(5, &sets).unwrap();
        assert_eq!(sel[0], 1); // the size-3 set first
        assert!(is_cover(5, &sets, &sel));
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn covers_with_singletons_when_necessary() {
        let sets: [&[usize]; 4] = [&[0], &[1], &[2], &[3]];
        let sel = greedy_cover(4, &sets).unwrap();
        assert_eq!(sel.len(), 4);
        assert!(is_cover(4, &sets, &sel));
    }

    #[test]
    fn classic_greedy_suboptimal_instance() {
        // Universe {0..5}; optimal = {0,1,2},{3,4,5} (2 sets) but greedy
        // may be lured by a size-4 set. Greedy stays within ln n + 1.
        let sets: [&[usize]; 3] = [&[0, 1, 2], &[3, 4, 5], &[1, 2, 3, 4]];
        let sel = greedy_cover(6, &sets).unwrap();
        assert!(is_cover(6, &sets, &sel));
        assert!(sel.len() <= 3);
    }

    #[test]
    fn deterministic_tie_break() {
        assert_eq!(greedy_cover(2, &[&[0, 1], &[0, 1]]), Some(vec![0]));
    }

    #[test]
    fn empty_universe_selects_nothing() {
        assert!(greedy_cover(0, &[]).unwrap().is_empty());
    }

    #[test]
    fn never_selects_a_set_twice() {
        let sets: [&[usize]; 5] = [&[0, 1], &[1, 2], &[2, 3], &[3, 4], &[0, 4]];
        let sel = greedy_cover(5, &sets).unwrap();
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), sel.len());
        assert!(is_cover(5, &sets, &sel));
    }

    #[test]
    fn uncoverable_element_gives_none() {
        let sets: [&[usize]; 2] = [&[0, 1], &[]];
        assert_eq!(greedy_cover(3, &sets), None);
        assert_eq!(holders(3, &sets), None);
        assert_eq!(holders(2, &sets), Some(vec![vec![0], vec![0]]));
    }
}

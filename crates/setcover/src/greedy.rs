//! Greedy set cover — the selection loop of the paper's Algorithm 2.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
/// per-element holder lists, so covering an element costs one decrement
/// per set holding it. The picks come from a max-heap of `(gain, lowest
/// index)` entries updated lazily: gains only fall, so an entry's gain is
/// at least its set's current gain, and the first popped entry whose gain
/// is current is the lowest index among the largest gains. A popped
/// entry whose gain is stale goes back with the current gain, or is
/// dropped once its set covers nothing new.
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
    let mut heap: BinaryHeap<(usize, Reverse<usize>)> = gain
        .iter()
        .enumerate()
        .filter(|&(_, &g)| g > 0)
        .map(|(i, &g)| (g, Reverse(i)))
        .collect();
    let mut covered = vec![false; universe];
    let mut uncovered = universe;
    let mut selected = Vec::new();
    while uncovered > 0 {
        // Every element has a holder, so some set gains while anything
        // is uncovered and the heap cannot run dry first.
        let (g, Reverse(best)) = heap.pop()?;
        if g != gain[best] {
            if gain[best] > 0 {
                heap.push((gain[best], Reverse(best)));
            }
            continue;
        }
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

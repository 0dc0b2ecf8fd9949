//! Exactness of the Cover stage on member lists.
//!
//! `bc_setcover::greedy_cover` keeps every set's count of uncovered
//! elements exact through per-element holder lists. Its oracle here is
//! the literal selection loop of Algorithm 2 that it replaced: recount
//! every set's uncovered members on each pick and keep the first strictly
//! larger count in index order. The two must return the same `Vec`,
//! order included, because `materialise` gives each sensor to the first
//! selected candidate holding it, so the selection order fixes every
//! plan. `exact_cover` must return a cover of the minimum size, found by
//! trying every subset of at most 14 sets.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use bundle_charging::core::CandidateFamily;
use bundle_charging::prelude::*;
use bundle_charging::setcover::{exact_cover, greedy_cover};

/// Algorithm 2's selection loop as the dense greedy ran it: on each pick,
/// count every unused set's uncovered members and take the first set
/// with the strictly largest count. `None` when some element is in no
/// set.
fn greedy_oracle(universe: usize, sets: &[&[usize]]) -> Option<Vec<usize>> {
    let mut uncovered = vec![true; universe];
    let mut left = universe;
    let mut used = vec![false; sets.len()];
    let mut selected = Vec::new();
    while left > 0 {
        let mut best = usize::MAX;
        let mut best_gain = 0usize;
        for (i, s) in sets.iter().enumerate() {
            if used[i] {
                continue;
            }
            let gain = s.iter().filter(|&&e| uncovered[e]).count();
            if gain > best_gain {
                best_gain = gain;
                best = i;
            }
        }
        if best == usize::MAX {
            return None;
        }
        for &e in sets[best] {
            if uncovered[e] {
                uncovered[e] = false;
                left -= 1;
            }
        }
        used[best] = true;
        selected.push(best);
    }
    Some(selected)
}

fn is_cover(universe: usize, sets: &[&[usize]], selection: &[usize]) -> bool {
    let mut covered = vec![false; universe];
    for &i in selection {
        for &e in sets[i] {
            covered[e] = true;
        }
    }
    covered.iter().all(|&c| c)
}

/// The size of the smallest cover, by trying every subset of the sets;
/// `None` when no subset covers.
fn brute_force_min(universe: usize, sets: &[&[usize]]) -> Option<usize> {
    assert!(sets.len() <= 14, "brute force is exponential");
    (0u32..1 << sets.len())
        .map(|mask| {
            (0..sets.len())
                .filter(|&i| mask & (1 << i) != 0)
                .collect::<Vec<usize>>()
        })
        .filter(|chosen| is_cover(universe, sets, chosen))
        .map(|chosen| chosen.len())
        .min()
}

/// A random set system over `0..universe`: sorted distinct sets of a
/// random density, with empty, full and repeated sets mixed in.
fn random_system(rng: &mut SmallRng, universe: usize, count: usize) -> Vec<Vec<usize>> {
    let density = rng.random_range(0.1..0.9);
    let mut sets: Vec<Vec<usize>> = Vec::new();
    while sets.len() < count {
        let set = match rng.random_range(0u32..10) {
            0 => Vec::new(),
            1 => (0..universe).collect(),
            2 if !sets.is_empty() => sets[rng.random_range(0..sets.len())].clone(),
            _ => (0..universe)
                .filter(|_| rng.random_range(0.0..1.0) < density)
                .collect(),
        };
        sets.push(set);
    }
    sets
}

/// A system with a planted cover: a random partition of the universe
/// into 2–4 blocks, shuffled among 2–10 decoys that each take a random
/// share of every block, so greedy can prefer a decoy to a block.
fn planted_system(rng: &mut SmallRng, universe: usize) -> Vec<Vec<usize>> {
    let blocks = rng.random_range(2..=4);
    let mut sets = vec![Vec::new(); blocks];
    for e in 0..universe {
        sets[rng.random_range(0..blocks)].push(e);
    }
    for _ in 0..rng.random_range(2..=10) {
        let keep = rng.random_range(0.3..0.8);
        sets.push(
            (0..universe)
                .filter(|_| rng.random_range(0.0..1.0) < keep)
                .collect(),
        );
    }
    sets.shuffle(rng);
    sets
}

fn as_slices(sets: &[Vec<usize>]) -> Vec<&[usize]> {
    sets.iter().map(Vec::as_slice).collect()
}

fn assert_greedy_matches(universe: usize, sets: &[&[usize]], what: &str) {
    assert_eq!(
        greedy_cover(universe, sets),
        greedy_oracle(universe, sets),
        "{what}"
    );
}

#[test]
fn greedy_replays_the_oracle_on_random_set_systems() {
    let mut rng = SmallRng::seed_from_u64(23);
    let mut uncoverable = 0;
    for case in 0..600 {
        let universe = rng.random_range(1..=40);
        let count = rng.random_range(0..60);
        let fam = random_system(&mut rng, universe, count);
        let sets = as_slices(&fam);
        assert_greedy_matches(universe, &sets, &format!("case {case}"));
        uncoverable += usize::from(greedy_oracle(universe, &sets).is_none());
    }
    assert!(uncoverable > 0, "no case exercised an uncoverable system");
}

#[test]
fn exact_finds_a_minimum_cover_on_random_set_systems() {
    let mut rng = SmallRng::seed_from_u64(24);
    let mut beat_greedy = 0;
    for case in 0..300 {
        let universe = rng.random_range(1..=40);
        let fam = if case % 2 == 0 {
            planted_system(&mut rng, universe)
        } else {
            let count = rng.random_range(0..=14);
            random_system(&mut rng, universe, count)
        };
        let sets = as_slices(&fam);
        let exact = exact_cover(universe, &sets, None);
        match brute_force_min(universe, &sets) {
            Some(min) => {
                let exact = exact.unwrap_or_else(|| panic!("case {case}: no cover found"));
                assert!(is_cover(universe, &sets, &exact), "case {case}");
                assert_eq!(exact.len(), min, "case {case}");
                beat_greedy += usize::from(greedy_cover(universe, &sets).unwrap().len() > min);
            }
            None => assert_eq!(exact, None, "case {case}"),
        }
    }
    assert!(beat_greedy > 0, "no case needed the search to beat greedy");
}

#[test]
fn greedy_replays_the_oracle_on_candidate_families() {
    let odd: Vec<(f64, f64)> = (0..60)
        .map(|i| match i % 3 {
            // Runs of coincident sensors.
            0 => (20.0 + f64::from(i / 6), 20.0),
            // A collinear row.
            1 => (f64::from(i) * 1.5, 50.0),
            _ => (30.0, 10.0 + f64::from(i) * 0.75),
        })
        .collect();
    let nets = [
        // Plan-dense density: the benchmark's n = 1500 in 300 m.
        (
            "plan-dense",
            deploy::uniform(400, Aabb::square(155.0), 2.0, 1),
        ),
        (
            "plan-dense",
            deploy::uniform(400, Aabb::square(155.0), 2.0, 2),
        ),
        // Paper density: 100 sensors per 300 × 300 m².
        ("paper", deploy::uniform(600, Aabb::square(735.0), 2.0, 1)),
        ("paper", deploy::uniform(600, Aabb::square(735.0), 2.0, 2)),
        (
            "clustered",
            deploy::clusters(300, 5, 12.0, Aabb::square(200.0), 2.0, 3),
        ),
        (
            "coincident/collinear",
            deploy::from_coords(&odd, Aabb::square(100.0), 2.0),
        ),
    ];
    for (what, net) in &nets {
        let fam = CandidateFamily::pair_intersection(net, 10.0);
        let sets: Vec<&[usize]> = fam
            .candidates
            .iter()
            .map(|c| c.members.as_slice())
            .collect();
        assert_greedy_matches(net.len(), &sets, what);
    }
}

#[test]
fn a_zero_budget_or_an_uncovered_element_gives_none() {
    let sets: [&[usize]; 3] = [&[0, 1], &[1, 2], &[2, 3]];
    assert_eq!(exact_cover(4, &sets, Some(0)), None);
    assert!(exact_cover(4, &sets, None).is_some());
    // Element 4 is in no set.
    assert_eq!(greedy_cover(5, &sets), None);
    assert_eq!(exact_cover(5, &sets, None), None);
    assert_eq!(greedy_cover(1, &[]), None);
    assert_eq!(exact_cover(1, &[&[]], None), None);
}

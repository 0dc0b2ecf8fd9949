//! Candidate charging-bundle families (the input to OBG set cover).
//!
//! Algorithm 2 of the paper builds, per node, "all potential charging
//! bundle candidates" from its radius-`r` neighbours and keeps those whose
//! smallest enclosing disk fits in `r`. Enumerating every neighbour subset
//! is exponential, so [`CandidateFamily::pair_intersection`] builds the
//! classical exact discretisation of geometric disk cover instead:
//! candidate anchor positions are every sensor position plus every
//! intersection point of the radius-`r` circles around sensor pairs at
//! most `2r` apart. Every *maximal* set of sensors coverable by a
//! radius-`r` disk appears in this family, so greedy and exact set cover
//! over it match cover over the full (exponential) family. The literal
//! per-node enumeration, with a subset-size cap, is the unit-test oracle
//! it is cross-validated against on small instances.
//!
//! The family stores each candidate's members as a sorted index list, a
//! few dozen entries at paper densities, rather than an `n`-bit set. It
//! drops duplicate member sets and then every candidate whose members are
//! a subset of another's. That domination check is local: every superset
//! of a candidate contains the candidate's rarest member, so a sensor →
//! candidate index lists the only candidates it must be tested against.

use bc_geom::{Disk, Point};
use bc_wsn::Network;

/// One candidate bundle: a coverable sensor set plus a feasible anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Member sensor indices into the network: sorted ascending, distinct
    /// and non-empty.
    pub members: Vec<usize>,
    /// A point from which every member is within the generation radius.
    pub anchor: Point,
}

/// A family of candidate bundles over a network, ready for set cover.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateFamily {
    /// The generation radius `r` the family was built for.
    pub radius: f64,
    /// The candidates. Dominated candidates (strict subsets of another
    /// candidate) are removed.
    pub candidates: Vec<Candidate>,
}

impl CandidateFamily {
    /// Builds the pair-intersection candidate family for radius `r`.
    ///
    /// Enumeration costs `O(k * q)`, where `k` is the number of close
    /// pairs and `q` the cost of a radius query. Domination pruning costs
    /// `O(Σ_i p_i * m)`, where `p_i` counts the candidates that share
    /// candidate `i`'s rarest member and `m` is the largest member count.
    /// Both grow only with the local density, thanks to the network's
    /// point grid, not with `n`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite.
    pub fn pair_intersection(net: &Network, r: f64) -> Self {
        Self::pair_intersection_par(net, r, 1)
    }

    /// [`CandidateFamily::pair_intersection`] with the per-sensor circle
    /// intersections, coverage queries and domination checks fanned out
    /// over `workers` scoped threads.
    ///
    /// The output is byte-identical for every worker count (including 1):
    /// each parallel step computes an independent per-index result and
    /// the results are reduced in index order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite.
    pub fn pair_intersection_par(net: &Network, r: f64, workers: usize) -> Self {
        assert!(r.is_finite() && r > 0.0, "bundle radius must be positive");
        let mut fam = Self::from_anchors_par(net, r, &pair_anchors(net, r, workers), workers);
        fam.prune_dominated_par(workers);
        fam
    }

    /// Builds the family induced by an explicit list of anchor positions:
    /// each anchor's candidate covers every sensor within `r` of it. The
    /// coverage queries run in contiguous chunks over `workers` threads;
    /// each chunk reuses one radius-query scratch buffer, and chunks are
    /// flattened in order so the candidate list is identical to the
    /// serial build.
    fn from_anchors_par(net: &Network, r: f64, anchors: &[Point], workers: usize) -> Self {
        const CHUNK: usize = 64;
        let n_chunks = anchors.len().div_ceil(CHUNK);
        let per_chunk: Vec<Vec<Candidate>> = crate::par::par_map(n_chunks, workers, |ci| {
            let mut scratch: Vec<usize> = Vec::new();
            let mut out = Vec::new();
            for &a in &anchors[ci * CHUNK..((ci + 1) * CHUNK).min(anchors.len())] {
                net.within_radius_into(a, r, &mut scratch);
                if scratch.is_empty() {
                    continue;
                }
                scratch.sort_unstable();
                out.push(Candidate {
                    members: scratch.clone(),
                    anchor: a,
                });
            }
            out
        });
        let mut candidates: Vec<Candidate> = Vec::with_capacity(anchors.len());
        for chunk in per_chunk {
            candidates.extend(chunk);
        }
        let mut fam = CandidateFamily {
            radius: r,
            candidates,
        };
        fam.dedup();
        fam
    }

    /// Number of candidates in the family.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when the family is empty (only for empty networks).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Removes duplicate member sets, keeping the first anchor found.
    fn dedup(&mut self) {
        let mut seen: std::collections::HashSet<&[usize]> = std::collections::HashSet::new(); // det-ok: membership-only dedup, never iterated
        let keep: Vec<bool> = self
            .candidates
            .iter()
            .map(|c| seen.insert(&c.members))
            .collect();
        retain_flagged(&mut self.candidates, &keep);
    }

    /// Removes candidates whose member set is a strict subset of another
    /// candidate's — they can never be preferred by a minimum cover. The
    /// per-candidate domination checks fan out over `workers` threads.
    ///
    /// Candidate `i` is dropped when another candidate `j` contains all
    /// of its members and has more members, or as many and a lower index.
    /// Every such `j` contains `i`'s rarest member, so `i` is tested only
    /// against that sensor's posting list (the candidates containing it).
    /// Each keep decision reads only the immutable member lists, so the
    /// parallel run is identical to the serial one.
    fn prune_dominated_par(&mut self, workers: usize) {
        let sets: Vec<&[usize]> = self
            .candidates
            .iter()
            .map(|c| c.members.as_slice())
            .collect();
        let universe = sets
            .iter()
            .filter_map(|m| m.last())
            .max()
            .map_or(0, |&s| s + 1);
        let mut postings: Vec<Vec<usize>> = vec![Vec::new(); universe];
        for (i, members) in sets.iter().enumerate() {
            for &s in *members {
                postings[s].push(i);
            }
        }
        let keep: Vec<bool> = crate::par::par_map(sets.len(), workers, |i| {
            let mine = sets[i];
            let rarest = mine.iter().map(|&s| &postings[s]).min_by_key(|p| p.len());
            rarest.is_none_or(|holders| {
                !holders.iter().any(|&j| {
                    i != j
                        && (mine.len() < sets[j].len() || (mine.len() == sets[j].len() && i > j))
                        && is_sorted_subset(mine, sets[j])
                })
            })
        });
        retain_flagged(&mut self.candidates, &keep);
    }
}

/// The pair-intersection anchors: every sensor position, then the
/// intersections of the radius-`r` circles around each pair within `2r`,
/// with bit-identical repeats dropped (first kept).
fn pair_anchors(net: &Network, r: f64, workers: usize) -> Vec<Point> {
    let n = net.len();
    // Each sensor's intersections are independent, so the loop fans out.
    let per_sensor: Vec<Vec<Point>> = crate::par::par_map(n, workers, |i| {
        let pi = net.sensor(i).pos;
        let mut pts = Vec::new();
        for j in net.within_radius(pi, 2.0 * r) {
            if j <= i {
                continue;
            }
            let di = Disk::new(pi, r);
            let dj = Disk::new(net.sensor(j).pos, r);
            pts.extend(di.circle_intersections(&dj));
        }
        pts
    });
    let mut anchors: Vec<Point> = Vec::new();
    // Every sensor position is a candidate anchor (covers at least
    // itself).
    anchors.extend(net.positions().iter().copied());
    for pts in per_sensor {
        anchors.extend(pts);
    }
    // Identical anchors always induce identical member sets, which
    // the member-set dedup would drop anyway (keeping the first) —
    // dropping them here saves one coverage query per duplicate.
    let mut seen: std::collections::HashSet<(u64, u64)> = std::collections::HashSet::new(); // det-ok: membership-only dedup, never iterated
    anchors.retain(|a| seen.insert((a.x.to_bits(), a.y.to_bits())));
    anchors
}

/// `true` when every element of `a` is in `b`; both sorted ascending.
fn is_sorted_subset(a: &[usize], b: &[usize]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.find(|&y| y >= x) == Some(x))
}

/// Keeps the candidates whose flag is set; `keep` is in candidate order.
fn retain_flagged(candidates: &mut Vec<Candidate>, keep: &[bool]) {
    let mut it = keep.iter();
    candidates.retain(|_| it.next().copied().unwrap_or(false));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::{sed, Aabb};
    use bc_wsn::deploy;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn coverage_union(fam: &CandidateFamily, n: usize) -> usize {
        let mut covered = vec![false; n];
        for c in &fam.candidates {
            for &s in &c.members {
                covered[s] = true;
            }
        }
        covered.iter().filter(|&&c| c).count()
    }

    /// The all-pairs domination check that the posting-list pruning
    /// replaced, kept as its oracle: candidate `i` goes when some other
    /// candidate's member set is a superset with more members, or as
    /// many and a lower index.
    fn prune_all_pairs(fam: &CandidateFamily) -> Vec<Candidate> {
        let sets: Vec<BTreeSet<usize>> = fam
            .candidates
            .iter()
            .map(|c| c.members.iter().copied().collect())
            .collect();
        let dominated = |i: usize| {
            (0..sets.len()).any(|j| {
                i != j
                    && (sets[i].len() < sets[j].len() || (sets[i].len() == sets[j].len() && i > j))
                    && sets[i].is_subset(&sets[j])
            })
        };
        fam.candidates
            .iter()
            .enumerate()
            .filter(|&(i, _)| !dominated(i))
            .map(|(_, c)| c.clone())
            .collect()
    }

    /// The literal reading of Algorithm 2, lines 1–6, kept as an oracle
    /// for the pair-intersection family: enumerates, per node, every
    /// subset of its radius-`r` neighbourhood up to `max_subset` members
    /// and keeps the subsets whose smallest enclosing disk has radius at
    /// most `r`.
    ///
    /// Exponential in the neighbourhood size; intended for small/dense
    /// validation instances only.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite or `max_subset == 0`.
    fn per_node_exhaustive(net: &Network, r: f64, max_subset: usize) -> CandidateFamily {
        assert!(r.is_finite() && r > 0.0, "bundle radius must be positive");
        assert!(max_subset > 0, "subset cap must be positive");
        let n = net.len();
        let mut candidates = Vec::new();
        for i in 0..n {
            // Neighbours within 2r can share a radius-r disk with i.
            let mut nbrs = net.within_radius(net.sensor(i).pos, 2.0 * r);
            nbrs.retain(|&j| j != i);
            // Enumerate subsets of the neighbourhood, always including i.
            let k = nbrs.len().min(16); // hard safety cap on enumeration width
            let nbrs = &nbrs[..k];
            let limit: u32 = 1 << nbrs.len();
            for mask in 0..limit {
                if (mask.count_ones() as usize) + 1 > max_subset {
                    // cast-ok: popcount fits usize
                    continue;
                }
                let mut group = vec![i];
                for (b, &j) in nbrs.iter().enumerate() {
                    if mask & (1 << b) != 0 {
                        group.push(j);
                    }
                }
                let pts: Vec<Point> = group.iter().map(|&j| net.sensor(j).pos).collect();
                let disk = sed::smallest_enclosing_disk(&pts);
                if disk.radius <= r + bc_geom::EPS {
                    group.sort_unstable();
                    candidates.push(Candidate {
                        members: group,
                        anchor: disk.center,
                    });
                }
            }
        }
        let mut fam = CandidateFamily {
            radius: r,
            candidates,
        };
        fam.dedup();
        fam.prune_dominated_par(1);
        fam
    }

    fn assert_members_invariant(fam: &CandidateFamily) {
        for c in &fam.candidates {
            assert!(!c.members.is_empty(), "empty candidate at {:?}", c.anchor);
            assert!(
                c.members.windows(2).all(|w| w[0] < w[1]),
                "members not sorted and distinct: {:?}",
                c.members
            );
        }
    }

    #[test]
    fn every_sensor_appears_in_some_candidate() {
        let net = deploy::uniform(60, Aabb::square(500.0), 2.0, 9);
        let fam = CandidateFamily::pair_intersection(&net, 40.0);
        assert_eq!(coverage_union(&fam, 60), 60);
    }

    #[test]
    fn members_really_fit_radius() {
        let net = deploy::uniform(60, Aabb::square(300.0), 2.0, 5);
        let r = 50.0;
        let fam = CandidateFamily::pair_intersection(&net, r);
        for c in &fam.candidates {
            for &s in &c.members {
                assert!(
                    net.sensor(s).pos.distance(c.anchor) <= r + 1e-6,
                    "sensor {s} outside candidate disk"
                );
            }
        }
    }

    #[test]
    fn pair_family_finds_two_sensor_bundles() {
        // Two sensors 1.8r apart: no single sensor-centred disk covers
        // both, but a pair-intersection anchor does.
        let net = deploy::from_coords(&[(0.0, 0.0), (18.0, 0.0)], Aabb::square(100.0), 2.0);
        let fam = CandidateFamily::pair_intersection(&net, 10.0);
        assert!(
            fam.candidates.iter().any(|c| c.members.len() == 2),
            "missing the pair bundle"
        );
    }

    #[test]
    fn exhaustive_and_pair_agree_on_best_cover_size() {
        let net = deploy::uniform(15, Aabb::square(100.0), 2.0, 3);
        let r = 30.0;
        let pair = CandidateFamily::pair_intersection(&net, r);
        let exh = per_node_exhaustive(&net, r, 15);
        assert_members_invariant(&exh);
        // Both families must offer the same maximum coverage per anchor
        // ... at least, the largest candidate should have equal size.
        let max_pair = pair.candidates.iter().map(|c| c.members.len()).max();
        let max_exh = exh.candidates.iter().map(|c| c.members.len()).max();
        assert_eq!(max_pair, max_exh);
    }

    #[test]
    fn dominated_candidates_removed() {
        let net = deploy::from_coords(&[(0.0, 0.0), (1.0, 0.0)], Aabb::square(10.0), 2.0);
        let fam = CandidateFamily::pair_intersection(&net, 5.0);
        // Both sensors fit one disk; singletons are dominated and pruned.
        assert_eq!(fam.len(), 1);
        assert_eq!(fam.candidates[0].members, [0, 1]);
    }

    #[test]
    fn empty_network_gives_empty_family() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        let fam = CandidateFamily::pair_intersection(&net, 5.0);
        assert!(fam.is_empty());
    }

    #[test]
    fn parallel_enumeration_is_worker_count_independent() {
        let net = deploy::uniform(70, Aabb::square(300.0), 2.0, 11);
        let serial = CandidateFamily::pair_intersection(&net, 35.0);
        for workers in [2usize, 5, 16] {
            let par = CandidateFamily::pair_intersection_par(&net, 35.0, workers);
            assert_eq!(par.len(), serial.len(), "workers={workers}");
            for (a, b) in par.candidates.iter().zip(&serial.candidates) {
                assert_eq!(a.anchor, b.anchor, "workers={workers}");
                assert_eq!(a.members, b.members, "workers={workers}");
            }
        }
    }

    /// The posting-list pruning keeps exactly the all-pairs survivors, in
    /// order, on pair-intersection families: uniform, clustered and grid
    /// deployments plus one with coincident and collinear sensors, at
    /// three radii and two worker counts.
    #[test]
    fn local_pruning_matches_all_pairs_oracle_on_pair_families() {
        let mut odd = vec![(50.0, 50.0), (50.0, 50.0), (50.0, 50.0), (57.0, 50.0)];
        odd.extend((0..12).map(|k| (10.0 + 4.0 * f64::from(k), 20.0)));
        odd.extend((0..6).map(|k| (80.0, 10.0 + 6.0 * f64::from(k))));
        odd.extend([(30.0, 80.0), (30.0, 80.0), (36.0, 86.0), (42.0, 92.0)]);
        let nets = [
            deploy::uniform(90, Aabb::square(120.0), 2.0, 1),
            deploy::uniform(150, Aabb::square(300.0), 2.0, 2),
            deploy::uniform(60, Aabb::square(60.0), 2.0, 3),
            deploy::clusters(120, 4, 12.0, Aabb::square(200.0), 2.0, 4),
            deploy::perturbed_grid(9, 9, Aabb::square(100.0), 3.0, 2.0, 5),
            deploy::from_coords(&odd, Aabb::square(100.0), 2.0),
        ];
        let mut pruned_somewhere = false;
        for (k, net) in nets.iter().enumerate() {
            for r in [6.0, 10.0, 18.0] {
                for workers in [1usize, 3] {
                    let raw = CandidateFamily::from_anchors_par(
                        net,
                        r,
                        &pair_anchors(net, r, workers),
                        workers,
                    );
                    assert_members_invariant(&raw);
                    let want = prune_all_pairs(&raw);
                    let mut got = raw.clone();
                    got.prune_dominated_par(workers);
                    assert_eq!(
                        got.candidates, want,
                        "net {k}, r = {r}, workers = {workers}"
                    );
                    assert_eq!(CandidateFamily::pair_intersection_par(net, r, workers), got);
                    pruned_somewhere |= want.len() < raw.len();
                }
            }
        }
        assert!(pruned_somewhere, "no case exercised the pruning");
    }

    /// Random small set systems — nested chains, runs of equal-size sets
    /// and repeated sets — pruned with and without `dedup` first: the
    /// posting-list pruning keeps exactly the all-pairs survivors.
    #[test]
    fn local_pruning_matches_all_pairs_oracle_on_random_set_systems() {
        let mut rng = SmallRng::seed_from_u64(15);
        for case in 0..300 {
            let universe = rng.random_range(1usize..=12);
            let target = rng.random_range(1usize..=30);
            let mut sets: Vec<Vec<usize>> = Vec::new();
            while sets.len() < target {
                match rng.random_range(0u32..3) {
                    // A nested chain: prefixes of one shuffled universe.
                    0 => {
                        let mut order: Vec<usize> = (0..universe).collect();
                        order.shuffle(&mut rng);
                        for len in 1..=rng.random_range(1..=universe) {
                            sets.push(order[..len].to_vec());
                        }
                    }
                    // Several sets of one size.
                    1 => {
                        let size = rng.random_range(1..=universe);
                        for _ in 0..rng.random_range(2usize..=6) {
                            let mut order: Vec<usize> = (0..universe).collect();
                            order.shuffle(&mut rng);
                            sets.push(order[..size].to_vec());
                        }
                    }
                    // A repeat of an earlier set, or a fresh random one.
                    _ => match sets.len() {
                        0 => sets.push(vec![rng.random_range(0..universe)]),
                        len => sets.push(sets[rng.random_range(0..len)].clone()),
                    },
                }
            }
            sets.shuffle(&mut rng);
            let candidates = sets
                .into_iter()
                .enumerate()
                .map(|(i, mut members)| {
                    members.sort_unstable();
                    Candidate {
                        members,
                        anchor: Point::new(f64::from(case), i as f64),
                    }
                })
                .collect();
            let raw = CandidateFamily {
                radius: 1.0,
                candidates,
            };
            let mut deduped = raw.clone();
            deduped.dedup();
            for fam in [raw, deduped] {
                for workers in [1usize, 3] {
                    let mut got = fam.clone();
                    got.prune_dominated_par(workers);
                    assert_eq!(got.candidates, prune_all_pairs(&fam), "case {case}");
                }
            }
        }
    }

    #[test]
    fn dedup_keeps_the_first_of_each_member_set_in_order() {
        let cand = |members: Vec<usize>, x: f64| Candidate {
            members,
            anchor: Point::new(x, 0.0),
        };
        let mut fam = CandidateFamily {
            radius: 1.0,
            candidates: vec![
                cand(vec![0, 1], 0.0),
                cand(vec![1], 1.0),
                cand(vec![0, 1], 2.0),
                cand(vec![2], 3.0),
                cand(vec![1], 4.0),
            ],
        };
        fam.dedup();
        let anchors: Vec<f64> = fam.candidates.iter().map(|c| c.anchor.x).collect();
        assert_eq!(anchors, [0.0, 1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let net = deploy::uniform(3, Aabb::square(10.0), 2.0, 0);
        let _ = CandidateFamily::pair_intersection(&net, 0.0);
    }
}

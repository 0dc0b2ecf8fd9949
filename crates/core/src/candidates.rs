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
//! The build makes one grid query per sensor, at a little over `2r`.
//! That neighbour list yields the sensor's close pairs, and it holds
//! every member of every anchor on the sensor's circle, so covering an
//! anchor is one scan of it and no further query. Member lists are
//! stored flat, each as a sorted index list a few dozen entries long at
//! paper densities. The build drops every repeated member set, keeping
//! the first, and then every set that a larger one contains. That
//! domination check is local: visiting the sets largest first, a set is
//! tested only against the kept sets that hold its rarest member.

use std::ops::Range;

use bc_geom::grid::AmongQueries;
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

/// What one family build listed, beside the family it kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BuildCounts {
    /// Anchors listed: every sensor position and every circle crossing,
    /// repeats included.
    pub anchors: usize,
    /// Distinct non-empty member sets among the anchors'.
    pub distinct: usize,
}

impl CandidateFamily {
    /// Builds the pair-intersection candidate family for radius `r`.
    ///
    /// Listing costs one grid query per sensor, then `O(a * q)` for `a`
    /// anchors, where `q` is the length of a sensor's neighbour list (the
    /// sensors within a little over `2r`). Deduplication hashes each
    /// member list once. Domination pruning costs `O(Σ_i p_i * m)`, where
    /// `p_i` counts the kept sets larger than distinct set `i` that share
    /// its rarest member and `m` is the largest member count; a 64-bit
    /// member signature skips most of those subset walks. Every term
    /// grows with the local density, thanks to the network's point grid,
    /// not with `n`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite.
    pub fn pair_intersection(net: &Network, r: f64) -> Self {
        Self::pair_intersection_par(net, r, 1)
    }

    /// [`CandidateFamily::pair_intersection`] with the per-sensor pass
    /// fanned out over `workers` scoped threads.
    ///
    /// The output is byte-identical for every worker count (including 1):
    /// the threads take contiguous ranges of sensors, one task per range,
    /// and the ranges' anchors are joined in sensor order before the
    /// serial dedup and pruning.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite.
    pub fn pair_intersection_par(net: &Network, r: f64, workers: usize) -> Self {
        Self::build(net, r, workers).0
    }

    /// [`CandidateFamily::pair_intersection_par`], with what the build
    /// listed.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not positive and finite, or if the network has
    /// more sensors than a `u32` counts.
    pub(crate) fn build(net: &Network, r: f64, workers: usize) -> (Self, BuildCounts) {
        assert!(r.is_finite() && r > 0.0, "bundle radius must be positive");
        assert!(
            u32::try_from(net.len()).is_ok(),
            "a candidate family indexes at most u32::MAX sensors"
        );
        let among = net.among_queries();
        let parts = par_ranges(net.len(), workers, |range| {
            list_anchors(net, &among, r, range)
        });
        let (family, distinct) = Self::keep(r, in_build_order(&parts));
        let counts = BuildCounts {
            anchors: parts.iter().map(|p| p.anchors).sum(),
            distinct,
        };
        (family, counts)
    }

    /// The family kept from sets listed in order, and how many distinct
    /// sets there were: the first of each repeated set, then those that
    /// no larger set contains.
    fn keep<'a>(r: f64, lists: impl Iterator<Item = &'a Sets>) -> (Self, usize) {
        let distinct = Distinct::first_of_each(lists);
        let keep = undominated(&distinct.sets, &distinct.sigs);
        let candidates = distinct
            .sets
            .iter()
            .zip(&distinct.anchors)
            .zip(keep)
            .filter(|&(_, k)| k)
            .map(|((&members, &anchor), _)| Candidate {
                members: members.iter().map(|&s| index(s)).collect(),
                anchor,
            })
            .collect();
        let family = CandidateFamily {
            radius: r,
            candidates,
        };
        (family, distinct.sets.len())
    }

    /// Number of candidates in the family.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// `true` when the family is empty (only for empty networks).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// Ranges per worker: the sensors early in index order pair with more
/// later neighbours, so a worker takes several ranges in turn.
const RANGES_PER_WORKER: usize = 8;

/// Maps `f` over contiguous ranges that split `0..n`, one `par_map` task
/// per range, and returns the results in range order. One worker runs a
/// single range.
fn par_ranges<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = if workers <= 1 {
        1
    } else {
        (workers * RANGES_PER_WORKER).clamp(1, n.max(1))
    };
    let len = n.div_ceil(ranges);
    crate::par::par_map(ranges, workers, |k| {
        f((k * len).min(n)..((k + 1) * len).min(n))
    })
}

/// Member sets stored flat, each beside its anchor, hash and signature:
/// set `k` is `members[starts[k]..starts[k + 1]]`, as 32-bit sensor
/// indices, which halves the build's largest buffer.
#[derive(Debug)]
struct Sets {
    members: Vec<u32>,
    starts: Vec<usize>,
    anchors: Vec<Point>,
    hashes: Vec<u64>,
    sigs: Vec<u64>,
}

impl Default for Sets {
    fn default() -> Self {
        Sets {
            members: Vec::new(),
            starts: vec![0],
            anchors: Vec::new(),
            hashes: Vec::new(),
            sigs: Vec::new(),
        }
    }
}

impl Sets {
    /// Appends a non-empty member set; an empty one is no candidate.
    #[allow(clippy::cast_possible_truncation)] // the build checks that indices fit
    fn push(&mut self, members: &[usize], anchor: Point) {
        if members.is_empty() {
            return;
        }
        let start = self.members.len();
        self.members.extend(members.iter().map(|&s| s as u32)); // cast-ok: below the checked sensor count
        let set = &self.members[start..];
        self.hashes.push(set_hash(set));
        self.sigs.push(signature(set));
        self.starts.push(self.members.len());
        self.anchors.push(anchor);
    }

    fn sets(&self) -> impl Iterator<Item = &[u32]> {
        self.starts.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

/// One sensor range's anchors with their member sets.
#[derive(Debug, Default)]
struct Part {
    /// The sensors' own positions.
    own: Sets,
    /// Their circle crossings.
    crossings: Sets,
    /// Anchors listed, including those that cover no sensor.
    anchors: usize,
}

/// Lists and covers the anchors of the sensors in `range`: each sensor's
/// position, then the crossings of its circle with the circle of every
/// later sensor among its `2r` hits, in hit order.
///
/// One grid query per sensor, at `2r` plus a pad, lists the neighbours.
/// Its hits that the grid's `2r` query lists (within that query's cells
/// and distance test) are exactly that query's hits, in its order. A copy
/// sorted by index covers the sensor's position and each crossing: the
/// grid's radius-`r` test over it gives that query's members, sorted.
///
/// The pad makes the list hold every such member. A crossing lies at most
/// `r` from sensor `i`, or for a tangent pair half their distance, which
/// the pair test lets exceed `2r` by up to `1e-6` (as
/// `sqrt((2r)² + 1e-12) ≤ 2r + 1e-6`). A member lies at most
/// `sqrt(r² + 1e-12) ≤ r + 1e-6` from its anchor. So it lies within
/// `2r + 1.5e-6` of sensor `i`, up to rounding in the crossing, the
/// distance tests and the cell keys, which is a few units in the last
/// place of the coordinates and the radius (about `1e-15` of them). The
/// pad is `2e-6` plus `1e-11` of the larger of the radius and the
/// sensor's coordinates, above both, so the list holds every member for
/// every radius and position. A sensor off the finite plane lists no
/// neighbour and covers nothing, not even itself.
fn list_anchors(net: &Network, among: &AmongQueries, r: f64, range: Range<usize>) -> Part {
    let mut part = Part::default();
    let (mut near, mut close, mut sorted, mut members) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in range {
        let pi = net.sensor(i).pos;
        part.anchors += 1;
        if !pi.is_finite() {
            continue;
        }
        let pad = 2e-6 + 1e-11 * pi.x.abs().max(pi.y.abs()).max(r);
        net.within_radius_into(pi, 2.0 * r + pad, &mut near);
        among.within_radius_into(&near, pi, 2.0 * r, &mut close);
        sorted.clone_from(&near);
        sorted.sort_unstable();
        among.within_radius_into(&sorted, pi, r, &mut members);
        part.own.push(&members, pi);
        let circle = Disk::new(pi, r);
        for &j in &close {
            if j <= i {
                continue;
            }
            for anchor in circle.circle_intersections(&Disk::new(net.sensor(j).pos, r)) {
                part.anchors += 1;
                among.within_radius_into(&sorted, anchor, r, &mut members);
                part.crossings.push(&members, anchor);
            }
        }
    }
    part
}

/// The parts' sets in build order: every sensor position first, then
/// every crossing, each in sensor order.
fn in_build_order(parts: &[Part]) -> impl Iterator<Item = &Sets> {
    parts
        .iter()
        .map(|p| &p.own)
        .chain(parts.iter().map(|p| &p.crossings))
}

/// A hash of a member list (FxHash's multiply-rotate), the same in every
/// process.
fn set_hash(members: &[u32]) -> u64 {
    members.iter().fold(0, |h: u64, &s| {
        (h.rotate_left(5) ^ u64::from(s)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// A 64-bit membership summary: bit `s % 64` for each member `s`. A set
/// contains another only if its signature covers the other's.
fn signature(members: &[u32]) -> u64 {
    members.iter().fold(0, |sig, &s| sig | 1 << (s % 64))
}

/// The first of each distinct member set, in listing order, borrowed
/// from the lists, with its anchor and signature.
struct Distinct<'a> {
    sets: Vec<&'a [u32]>,
    anchors: Vec<Point>,
    sigs: Vec<u64>,
}

impl<'a> Distinct<'a> {
    /// Keeps each set not seen before, through an open-addressing table
    /// of kept positions keyed by the sets' hashes.
    fn first_of_each(lists: impl Iterator<Item = &'a Sets>) -> Self {
        let lists: Vec<&Sets> = lists.collect();
        let total: usize = lists.iter().map(|l| l.hashes.len()).sum();
        let bits = (2 * total).max(2).next_power_of_two().trailing_zeros();
        let mask = (1usize << bits) - 1;
        let mut table = vec![usize::MAX; mask + 1];
        let mut hashes = Vec::new();
        let mut kept = Distinct {
            sets: Vec::new(),
            anchors: Vec::new(),
            sigs: Vec::new(),
        };
        for list in lists {
            for (k, set) in list.sets().enumerate() {
                let h = list.hashes[k];
                // Fibonacci hashing: the product's top bits pick the slot.
                let mut slot =
                    usize::try_from(h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - bits))
                        .unwrap_or(0);
                loop {
                    match table[slot] {
                        usize::MAX => {
                            table[slot] = kept.sets.len();
                            kept.sets.push(set);
                            kept.anchors.push(list.anchors[k]);
                            kept.sigs.push(list.sigs[k]);
                            hashes.push(h);
                            break;
                        }
                        d if hashes[d] == h && kept.sets[d] == set => break,
                        _ => slot = (slot + 1) & mask,
                    }
                }
            }
        }
        kept
    }
}

/// For each of the distinct `sets`, whether no larger one contains it.
/// Equal-sized distinct sets cannot contain each other, so a set's strict
/// supersets are all larger, and the largest of them is contained in
/// nothing: it is kept. A set is therefore dropped exactly when a kept,
/// larger set contains it.
///
/// The sets are visited largest first (a counting sort, stable in
/// index), and each is checked only against the kept sets holding its
/// rarest member, while they are larger. Each sensor's postings list
/// the kept sets holding it, so they too run largest first. A 64-bit
/// signature rules out most non-supersets before the sorted-subset walk.
/// The check is serial: it reads only the few kept sets.
fn undominated(sets: &[&[u32]], sigs: &[u64]) -> Vec<bool> {
    let largest = sets.iter().map(|s| s.len()).max().unwrap_or(0);
    // Positions by descending size, ties in index order.
    let mut at = vec![0usize; largest + 2];
    for set in sets {
        at[largest - set.len() + 1] += 1;
    }
    for k in 1..at.len() {
        at[k] += at[k - 1];
    }
    let mut by_size = vec![0usize; sets.len()];
    for (p, set) in sets.iter().enumerate() {
        let slot = &mut at[largest - set.len()];
        by_size[*slot] = p;
        *slot += 1;
    }
    let universe = sets
        .iter()
        .filter_map(|s| s.last())
        .max()
        .map_or(0, |&s| index(s) + 1);
    let mut postings: Vec<Vec<usize>> = vec![Vec::new(); universe];
    let mut keep = vec![false; sets.len()];
    for p in by_size {
        let mine = sets[p];
        let rarest = mine
            .iter()
            .map(|&s| &postings[index(s)])
            .min_by_key(|h| h.len());
        let dominated = rarest.is_some_and(|holders| {
            holders
                .iter()
                .take_while(|&&q| sets[q].len() > mine.len())
                .any(|&q| sigs[p] & !sigs[q] == 0 && is_sorted_subset(mine, sets[q]))
        });
        if !dominated {
            keep[p] = true;
            for &s in mine {
                postings[index(s)].push(p);
            }
        }
    }
    keep
}

/// A stored sensor index as an index again.
fn index(s: u32) -> usize {
    s as usize // cast-ok: u32 fits usize on every supported target
}

/// `true` when every element of `a` is in `b`; both sorted ascending.
fn is_sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.find(|&y| y >= x) == Some(x))
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

    /// The all-pairs domination check that the local pruning replaced,
    /// kept as its oracle: candidate `i` goes when some other
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
        survivors_of(&CandidateFamily {
            radius: r,
            candidates,
        })
    }

    /// A family's candidates listed in order, as the build lists anchors.
    fn listed(fam: &CandidateFamily) -> Sets {
        let mut sets = Sets::default();
        for c in &fam.candidates {
            sets.push(&c.members, c.anchor);
        }
        sets
    }

    /// The family a list of distinct sets stands for.
    fn family(r: f64, distinct: &Distinct) -> CandidateFamily {
        CandidateFamily {
            radius: r,
            candidates: distinct
                .sets
                .iter()
                .zip(&distinct.anchors)
                .map(|(&members, &anchor)| Candidate {
                    members: members.iter().map(|&s| index(s)).collect(),
                    anchor,
                })
                .collect(),
        }
    }

    /// The build's dedup and larger-first prune, applied to a family's
    /// candidates in order.
    fn survivors_of(fam: &CandidateFamily) -> CandidateFamily {
        CandidateFamily::keep(fam.radius, std::iter::once(&listed(fam))).0
    }

    /// The build's dedup alone: the first candidate of each member set.
    fn deduped(fam: &CandidateFamily) -> CandidateFamily {
        let sets = listed(fam);
        family(fam.radius, &Distinct::first_of_each(std::iter::once(&sets)))
    }

    /// The build's distinct member sets, before pruning, as a family.
    fn distinct_family(net: &Network, r: f64, workers: usize) -> CandidateFamily {
        let among = net.among_queries();
        let parts = par_ranges(net.len(), workers, |range| {
            list_anchors(net, &among, r, range)
        });
        family(r, &Distinct::first_of_each(in_build_order(&parts)))
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

    /// The larger-first pruning keeps exactly the all-pairs survivors, in
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
                    let raw = distinct_family(net, r, workers);
                    assert_members_invariant(&raw);
                    let want = prune_all_pairs(&raw);
                    let got = survivors_of(&raw);
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
    /// and repeated sets — as they are and deduplicated first: the dedup
    /// and larger-first pruning keep exactly the all-pairs survivors.
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
            let deduped = deduped(&raw);
            for fam in [raw, deduped] {
                let got = survivors_of(&fam);
                assert_eq!(got.candidates, prune_all_pairs(&fam), "case {case}");
            }
        }
    }

    #[test]
    fn dedup_keeps_the_first_of_each_member_set_in_order() {
        let cand = |members: Vec<usize>, x: f64| Candidate {
            members,
            anchor: Point::new(x, 0.0),
        };
        let fam = deduped(&CandidateFamily {
            radius: 1.0,
            candidates: vec![
                cand(vec![0, 1], 0.0),
                cand(vec![1], 1.0),
                cand(vec![0, 1], 2.0),
                cand(vec![2], 3.0),
                cand(vec![1], 4.0),
            ],
        });
        let anchors: Vec<f64> = fam.candidates.iter().map(|c| c.anchor.x).collect();
        assert_eq!(anchors, [0.0, 1.0, 3.0]);
    }

    /// The build lists every sensor position and every crossing, repeats
    /// included, and counts the distinct non-empty member sets of a
    /// radius query at each.
    #[test]
    fn build_counts_listed_anchors_and_distinct_sets() {
        let mut odd = vec![(50.0, 50.0), (50.0, 50.0), (57.0, 50.0)];
        odd.extend((0..8).map(|k| (10.0 + 4.0 * f64::from(k), 20.0)));
        for net in [
            deploy::uniform(80, Aabb::square(100.0), 2.0, 6),
            deploy::from_coords(&odd, Aabb::square(100.0), 2.0),
        ] {
            let r = 9.0;
            let mut anchors: Vec<Point> = net.positions().to_vec();
            for i in 0..net.len() {
                let c = Disk::new(net.sensor(i).pos, r);
                for j in net.within_radius(c.center, 2.0 * r) {
                    if j > i {
                        anchors.extend(c.circle_intersections(&Disk::new(net.sensor(j).pos, r)));
                    }
                }
            }
            let distinct: BTreeSet<Vec<usize>> = anchors
                .iter()
                .map(|&a| {
                    let mut m = net.within_radius(a, r);
                    m.sort_unstable();
                    m
                })
                .filter(|m| !m.is_empty())
                .collect();
            for workers in [1usize, 3] {
                let (fam, counts) = CandidateFamily::build(&net, r, workers);
                assert_eq!(counts.anchors, anchors.len(), "workers = {workers}");
                assert_eq!(counts.distinct, distinct.len(), "workers = {workers}");
                assert!(fam.len() < counts.distinct);
            }
        }
    }

    /// With every hash equal, the table probes past each occupied slot
    /// and compares member lists, so the dedup is unchanged.
    #[test]
    fn dedup_survives_colliding_hashes() {
        let mut sets = Sets::default();
        for (k, members) in [&[0, 1][..], &[1], &[0, 1], &[2], &[1], &[0, 1, 2]]
            .into_iter()
            .enumerate()
        {
            sets.push(members, Point::new(k as f64, 0.0));
        }
        let firsts = |sets: &Sets| -> Vec<f64> {
            let distinct = Distinct::first_of_each(std::iter::once(sets));
            distinct.anchors.iter().map(|a| a.x).collect()
        };
        assert_eq!(firsts(&sets), [0.0, 1.0, 3.0, 5.0]);
        sets.hashes.fill(7);
        assert_eq!(firsts(&sets), [0.0, 1.0, 3.0, 5.0]);
    }

    /// Members 64 apart share a signature bit, so the signature passes a
    /// non-superset and the subset walk must reject it.
    #[test]
    fn signature_collisions_fall_through_to_the_subset_walk() {
        let cand = |members: Vec<usize>, x: f64| Candidate {
            members,
            anchor: Point::new(x, 0.0),
        };
        let fam = CandidateFamily {
            radius: 1.0,
            candidates: vec![
                cand(vec![64], 0.0),
                cand(vec![0, 128], 1.0),
                cand(vec![1, 65, 129], 2.0),
                cand(vec![65], 3.0),
            ],
        };
        assert_eq!(signature(&[64]) & !signature(&[0, 128]), 0);
        let got = survivors_of(&fam);
        assert_eq!(got.candidates, prune_all_pairs(&fam));
        assert_eq!(got.len(), 3, "only [65] is dominated");
    }

    /// `Sensor::pos` is a public field, so a network can hold a position
    /// off the finite plane. Such a sensor lists no neighbour and covers
    /// nothing, as a grid query around it would, and an infinite one
    /// never reaches the grid as an infinite query radius. (A far sensor
    /// puts both networks on the one-cell grid, so hits keep index
    /// order.)
    #[test]
    fn a_non_finite_sensor_covers_nothing() {
        let mut sensors = deploy::uniform(60, Aabb::square(100.0), 2.0, 8)
            .sensors()
            .to_vec();
        let mut extra = sensors[0];
        extra.pos = Point::new(1e7, 1e7);
        sensors.push(extra);
        let far = Network::new(sensors.clone(), Aabb::square(100.0), Point::ORIGIN);
        for pos in [Point::new(f64::INFINITY, 5.0), Point::new(f64::NAN, 5.0)] {
            extra.pos = pos;
            sensors.push(extra);
        }
        let off_plane = Network::new(sensors, Aabb::square(100.0), Point::ORIGIN);
        let r = 12.0;
        assert_eq!(
            CandidateFamily::pair_intersection_par(&off_plane, r, 3),
            CandidateFamily::pair_intersection(&far, r)
        );
        let listed = |net: &Network| CandidateFamily::build(net, r, 1).1.anchors;
        assert_eq!(listed(&off_plane), listed(&far) + 2);
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn zero_radius_panics() {
        let net = deploy::uniform(3, Aabb::square(10.0), 2.0, 0);
        let _ = CandidateFamily::pair_intersection(&net, 0.0);
    }
}

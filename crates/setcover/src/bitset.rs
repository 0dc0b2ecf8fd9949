//! A compact dynamic bitset over a fixed universe.

use std::fmt;

/// A fixed-capacity bitset over the universe `0..len`.
///
/// Candidate charging bundles are represented as bitsets over the sensor
/// indices, which makes the greedy and branch-and-bound cover algorithms
/// word-parallel.
///
/// # Example
///
/// ```
/// use bc_setcover::BitSet;
///
/// let mut s = BitSet::new(10);
/// s.insert(3);
/// s.insert(7);
/// assert!(s.contains(3));
/// assert_eq!(s.count(), 2);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// Creates an empty bitset over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Creates a bitset containing the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = BitSet::new(len);
        for &i in indices {
            s.insert(i);
        }
        s
    }

    /// Creates a bitset containing every element of the universe.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Size of the universe (not the number of set bits).
    pub fn universe_len(&self) -> usize {
        self.len
    }

    /// Inserts element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes element `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of bounds ({})", self.len);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Whether element `i` is present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum() // cast-ok: popcount fits usize
    }

    /// Whether no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place set difference (`self &= !other`).
    pub fn subtract(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &BitSet) {
        self.check_same_universe(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Number of elements in the intersection, without allocating.
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        self.check_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize) // cast-ok: popcount fits usize
            .sum()
    }

    /// Whether `self` is a subset of `other`.
    pub fn is_subset_of(&self, other: &BitSet) -> bool {
        self.check_same_universe(other);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Index of the lowest set bit, or `None` when empty.
    pub fn first(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize); // cast-ok: bit index < 64
            }
        }
        None
    }

    /// Iterates over the present elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    fn check_same_universe(&self, other: &BitSet) {
        assert_eq!(
            self.len, other.len,
            "bitsets over different universes ({} vs {})",
            self.len, other.len
        );
    }

    /// Clears any bits beyond the universe in the last word.
    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.len;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a bitset sized to the largest index + 1.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |&m| m + 1);
        BitSet::from_indices(len, &indices)
    }
}

/// Iterator over the set bits of a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize; // cast-ok: bit index < 64
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert_eq!(s.count(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = BitSet::from_indices(5, &[4]);
        assert!(!s.contains(5));
        assert!(!s.contains(100));
    }

    #[test]
    fn full_has_exact_count() {
        for n in [0usize, 1, 63, 64, 65, 128, 200] {
            assert_eq!(BitSet::full(n).count(), n, "n={n}");
        }
    }

    #[test]
    fn union_subtract_intersect() {
        let a = BitSet::from_indices(100, &[1, 2, 3, 70]);
        let b = BitSet::from_indices(100, &[3, 70, 99]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count(), 5);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 2]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 70]);
        assert_eq!(a.intersection_count(&b), 2);
    }

    #[test]
    fn subset_relation() {
        let small = BitSet::from_indices(50, &[10, 20]);
        let big = BitSet::from_indices(50, &[10, 20, 30]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
        assert!(BitSet::new(50).is_subset_of(&small));
    }

    #[test]
    fn first_and_iter_order() {
        let s = BitSet::from_indices(200, &[150, 3, 64, 128]);
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 128, 150]);
        assert_eq!(BitSet::new(10).first(), None);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: BitSet = [5usize, 9, 2].into_iter().collect();
        assert_eq!(s.universe_len(), 10);
        assert_eq!(s.count(), 3);
        let empty: BitSet = std::iter::empty::<usize>().collect();
        assert_eq!(empty.universe_len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        BitSet::new(5).insert(5);
    }

    #[test]
    #[should_panic(expected = "different universes")]
    fn mixed_universes_panic() {
        let mut a = BitSet::new(5);
        a.union_with(&BitSet::new(6));
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", BitSet::from_indices(5, &[1, 3])), "{1, 3}");
        assert_eq!(format!("{:?}", BitSet::new(5)), "{}");
    }
}

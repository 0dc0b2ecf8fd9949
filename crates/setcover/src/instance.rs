//! Validated set-cover instances.

use std::fmt;

use crate::BitSet;

/// A set-cover instance: a universe `0..universe` and a family of subsets.
///
/// Constructed through [`Instance::new`], which validates that the family
/// actually covers the universe — an uncoverable OBG instance would mean a
/// sensor belongs to no candidate bundle, which the bundle generator never
/// produces (every sensor forms at least a singleton bundle).
#[derive(Debug, Clone)]
pub struct Instance {
    universe: usize,
    sets: Vec<BitSet>,
}

/// Error building a set-cover [`Instance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// A set is defined over a different universe size.
    UniverseMismatch {
        /// Index of the offending set.
        set: usize,
        /// Universe the set was built over.
        got: usize,
        /// Universe the instance requires.
        expected: usize,
    },
    /// The union of all sets misses at least one element.
    Uncoverable {
        /// The lowest uncovered element.
        element: usize,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::UniverseMismatch { set, got, expected } => write!(
                f,
                "set {set} is over universe {got}, instance expects {expected}"
            ),
            InstanceError::Uncoverable { element } => {
                write!(f, "element {element} is not covered by any set")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

impl Instance {
    /// Builds a validated instance.
    ///
    /// # Errors
    ///
    /// Returns [`InstanceError::UniverseMismatch`] when a set's universe
    /// differs from `universe`, and [`InstanceError::Uncoverable`] when
    /// some element appears in no set.
    pub fn new(universe: usize, sets: Vec<BitSet>) -> Result<Self, InstanceError> {
        for (i, s) in sets.iter().enumerate() {
            if s.universe_len() != universe {
                return Err(InstanceError::UniverseMismatch {
                    set: i,
                    got: s.universe_len(),
                    expected: universe,
                });
            }
        }
        let mut union = BitSet::new(universe);
        for s in &sets {
            union.union_with(s);
        }
        if union.count() != universe {
            let mut missing = BitSet::full(universe);
            missing.subtract(&union);
            return Err(InstanceError::Uncoverable {
                element: missing.first().unwrap_or(0),
            });
        }
        Ok(Instance { universe, sets })
    }

    /// Size of the universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The set family.
    pub fn sets(&self) -> &[BitSet] {
        &self.sets
    }

    /// Number of sets in the family.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Checks whether the given selection of set indices covers the
    /// universe.
    pub fn is_cover(&self, selection: &[usize]) -> bool {
        let mut covered = BitSet::new(self.universe);
        for &i in selection {
            if i >= self.sets.len() {
                return false;
            }
            covered.union_with(&self.sets[i]);
        }
        covered.count() == self.universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_instance() {
        let inst = Instance::new(
            3,
            vec![
                BitSet::from_indices(3, &[0, 1]),
                BitSet::from_indices(3, &[2]),
            ],
        )
        .unwrap();
        assert_eq!(inst.universe(), 3);
        assert_eq!(inst.num_sets(), 2);
        assert!(inst.is_cover(&[0, 1]));
        assert!(!inst.is_cover(&[0]));
        assert!(!inst.is_cover(&[0, 99]));
    }

    #[test]
    fn uncoverable_detected() {
        let err = Instance::new(3, vec![BitSet::from_indices(3, &[0, 1])]).unwrap_err();
        assert_eq!(err, InstanceError::Uncoverable { element: 2 });
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn universe_mismatch_detected() {
        let err = Instance::new(3, vec![BitSet::from_indices(4, &[0, 1, 2, 3])]).unwrap_err();
        assert!(matches!(
            err,
            InstanceError::UniverseMismatch { set: 0, .. }
        ));
    }

    #[test]
    fn empty_universe_is_trivially_covered() {
        let inst = Instance::new(0, vec![]).unwrap();
        assert!(inst.is_cover(&[]));
    }
}

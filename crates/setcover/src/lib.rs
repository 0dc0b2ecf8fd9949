//! Set-cover substrate for optimal bundle generation.
//!
//! The paper's Optimal Bundle Generation (OBG) problem is exactly minimum
//! set cover over the family of feasible charging bundles (Theorem 1).
//! A set is a slice of distinct elements of the universe `0..universe`,
//! such as a candidate bundle's sorted member list, and both covers read
//! the slices in place:
//!
//! * [`greedy_cover`] — the classical greedy algorithm with the
//!   `ln n + 1` guarantee the paper proves for Algorithm 2;
//! * [`exact_cover`] — branch-and-bound exact minimum cover, the
//!   "Optimal" baseline of Fig. 11.
//!
//! Both return `None` when some element is in no set.
//!
//! # Example
//!
//! ```
//! use bc_setcover::{exact_cover, greedy_cover};
//!
//! let sets: [&[usize]; 4] = [&[0, 1], &[1, 2], &[2, 3], &[0, 1, 2]];
//! let greedy = greedy_cover(4, &sets).unwrap();
//! let exact = exact_cover(4, &sets, None).unwrap();
//! assert!(exact.len() <= greedy.len());
//! assert_eq!(exact.len(), 2); // {0,1,2} + {2,3}
//! assert_eq!(greedy_cover(5, &sets), None); // element 4 is in no set
//! ```

#![warn(missing_docs)]

pub mod exact;
pub mod greedy;

pub use exact::exact_cover;
pub use greedy::greedy_cover;

/// Whether the selected sets cover `0..universe`; test helper.
#[cfg(test)]
pub(crate) fn is_cover(universe: usize, sets: &[&[usize]], selection: &[usize]) -> bool {
    let mut covered = vec![false; universe];
    for &i in selection {
        let Some(set) = sets.get(i) else {
            return false;
        };
        for &e in *set {
            covered[e] = true;
        }
    }
    covered.iter().all(|&c| c)
}

//! # c1p-core: divide-and-conquer consecutive-ones testing
//!
//! The paper's contribution (Annexstein & Swaminathan): `Path-Realization`
//! (Fig. 3) decides C1P by
//!
//! 1. partitioning the atoms into a balanced pair `{A1, A2}` where `A1` is
//!    a connected segment — directly from a *proper-size column* (Case 1),
//!    or, after Tucker's complement transform, from a grown connected
//!    column union (Case 2, reducing to circular-ones);
//! 2. recursively realizing both subensembles;
//! 3. aligning the two realizations with **Whitney switches** — computed on
//!    the **Tutte decompositions** of the realizations — until the GAP/GAC
//!    conditions (Definitions 1–2) hold;
//! 4. merging: splitting the host realization at the *split vertex* `w` and
//!    inserting the segment realization (Theorems 3–6).
//!
//! The solver is exact: it returns a verified witness order for every C1P
//! instance and an evidence-carrying [`Rejection`] otherwise. [`solve`] runs
//! the recursion on the calling thread (Theorem 9: `O(p log p)`);
//! [`parallel::solve_par`] runs the same recursion, forking its independent
//! branches on rayon. Both compose the same modelled PRAM cost (Theorem 9:
//! `O(log² n)` depth). The rejection's evidence atoms feed the `c1p-cert`
//! crate, which shrinks them to a checkable Tucker witness.

pub mod align;
pub mod circular;
pub mod cost;
pub mod flat;
pub mod interval_graphs;
pub mod merge;
pub mod parallel;
pub mod partition;
pub mod realizations;
pub mod solver;
pub mod stats;

pub use flat::{FlatCols, SplitCols};
pub use realizations::{count_realizations, count_realizations_pq};
pub use solver::{solve, solve_with, Config};
pub use stats::SolveStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_fill_mapped_widened() {
        let r = Rejection::at(RejectSite::Merge).fill(3);
        assert_eq!(r.atoms, vec![0, 1, 2]);
        // fill never overwrites existing evidence
        let r = Rejection { site: RejectSite::Merge, atoms: vec![1] }.fill(5);
        assert_eq!(r.atoms, vec![1]);
        let r = r.mapped(&[10, 20, 30]);
        assert_eq!(r.atoms, vec![20]);
        let r = r.widened(2);
        assert_eq!(r.atoms, vec![0, 1]);
        assert_eq!(r.site, RejectSite::Merge);
    }
}

/// The pipeline stage that detected a rejection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectSite {
    /// Step 7: no feasible split vertex / segment orientation survived the
    /// verifying merge.
    Merge,
    /// Section 4: a rigid member admitted neither orientation while
    /// funnelling a chord chain (normally absorbed by the merge fallback).
    Align,
}

/// The instance is not consecutive-ones realizable.
///
/// This is an *evidence-carrying* rejection: `atoms` names a set of atoms
/// whose induced subensemble is already non-C1P — inside the recursion
/// these are subproblem-local ids, mapped outward level by level; by the
/// time a rejection leaves [`solve`]/[`parallel::solve_par`] they are
/// global input atoms. `c1p-cert::extract_witness` shrinks this evidence
/// to a minimal Tucker submatrix witness.
///
/// Evidence stays valid across every divide boundary because each
/// subproblem is a constraint-restriction of its parent; the one exception
/// is the Case-2 Tucker transform (complemented columns, extra atom `r`),
/// where the evidence is widened to the whole pre-transform atom set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Stage that detected the failure.
    pub site: RejectSite,
    /// Sorted atom ids implicating a non-C1P subensemble (empty only while
    /// an error is in flight toward the nearest subproblem boundary).
    pub atoms: Vec<u32>,
}

impl Rejection {
    /// A rejection with no evidence attached yet (filled at the nearest
    /// subproblem boundary via [`Rejection::fill`]).
    pub fn at(site: RejectSite) -> Self {
        Rejection { site, atoms: Vec::new() }
    }

    /// If no evidence was attached yet, implicate all `k` local atoms of
    /// the failing subproblem.
    pub fn fill(mut self, k: usize) -> Self {
        if self.atoms.is_empty() {
            self.atoms = (0..k as u32).collect();
        }
        self
    }

    /// Maps local evidence into the parent's coordinates (`map[local] =
    /// parent`); `map` must be monotone, keeping the atoms sorted.
    pub fn mapped(mut self, map: &[u32]) -> Self {
        for a in &mut self.atoms {
            *a = map[*a as usize];
        }
        debug_assert!(self.atoms.windows(2).all(|w| w[0] < w[1]), "monotone evidence map");
        self
    }

    /// Conservative widening at a Tucker-transform boundary: evidence about
    /// the transformed instance (complements, atom `r`) cannot be mapped
    /// back atom-by-atom, but the whole pre-transform subproblem is known
    /// non-C1P.
    pub fn widened(mut self, k: usize) -> Self {
        self.atoms.clear();
        self.atoms.extend(0..k as u32);
        self
    }
}

/// Evidence-carrying alias kept so `Result<_, NotC1p>` signatures and
/// `Err(NotC1p { .. })` patterns stay readable across the workspace.
pub type NotC1p = Rejection;

//! The certificate format and its solver-independent checker.
//!
//! Trust base of [`verify_witness`]: `c1p-matrix` only — the submatrix is
//! rebuilt from the input positions, its family membership is confirmed by
//! [`classify`]'s exact isomorphism check, and its non-realizability is
//! re-proven by brute force (≤ 8 atoms) or by an exhaustive
//! frontier-propagation search (above). Neither the divide-and-conquer
//! solver nor the PQ-tree is consulted.

use c1p_matrix::tucker::{classify, TuckerFamily};
use c1p_matrix::verify::brute_force_linear;
use c1p_matrix::{Atom, Ensemble};
use std::fmt;

/// A checkable certificate of non-realizability: the submatrix of the
/// input given by `atom_rows × column_ids` is isomorphic to
/// `family`'s generator, which has no consecutive-ones order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuckerWitness {
    /// The claimed obstruction family (with its parameter).
    pub family: TuckerFamily,
    /// Global atom ids of the submatrix rows, sorted ascending.
    pub atom_rows: Vec<Atom>,
    /// Global column indices into the input ensemble, sorted ascending.
    pub column_ids: Vec<u32>,
}

impl fmt::Display for TuckerWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on atoms {:?} via columns {:?}", self.family, self.atom_rows, self.column_ids)
    }
}

/// Why a witness failed to verify (or extraction failed to produce one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// A named atom row is not an input atom, is duplicated, or unsorted.
    BadAtoms,
    /// A named column id is not an input column, is duplicated, or
    /// unsorted.
    BadColumns,
    /// The named submatrix is not isomorphic to the claimed family
    /// (`recognized` reports what, if anything, it *is* isomorphic to).
    NotIsomorphic { claimed: TuckerFamily, recognized: Option<TuckerFamily> },
    /// The refutation search found a realization: the named submatrix is
    /// C1P, so it certifies nothing.
    SubmatrixIsC1p,
    /// The refutation search exceeded its node budget (witness too large
    /// to check exhaustively).
    RefutationBudget,
    /// Extraction: the rejection's evidence restriction (and the full
    /// input) tested C1P — the rejection is stale or the solver mis-fired.
    EvidenceNotRejectable,
    /// Extraction: the shrunken minimal submatrix did not classify into
    /// any family (would contradict Tucker's theorem — internal error).
    Unrecognized,
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadAtoms => write!(f, "witness atom rows are invalid"),
            CertError::BadColumns => write!(f, "witness column ids are invalid"),
            CertError::NotIsomorphic { claimed, recognized } => match recognized {
                Some(r) => write!(f, "submatrix claims {claimed} but is {r}"),
                None => write!(f, "submatrix claims {claimed} but matches no Tucker family"),
            },
            CertError::SubmatrixIsC1p => write!(f, "named submatrix has a realization"),
            CertError::RefutationBudget => write!(f, "refutation search budget exceeded"),
            CertError::EvidenceNotRejectable => write!(f, "rejection evidence is realizable"),
            CertError::Unrecognized => write!(f, "minimal submatrix matches no Tucker family"),
        }
    }
}

impl std::error::Error for CertError {}

/// The submatrix of `ens` named by sorted atom rows × column ids, with
/// atoms renumbered to `0..atom_rows.len()` in order.
pub fn submatrix(
    ens: &Ensemble,
    atom_rows: &[Atom],
    column_ids: &[u32],
) -> Result<Ensemble, CertError> {
    let n = ens.n_atoms();
    let sorted = |xs: &[u32]| xs.windows(2).all(|w| w[0] < w[1]);
    if atom_rows.is_empty()
        || !sorted(atom_rows)
        || atom_rows.last().is_some_and(|&a| a as usize >= n)
    {
        return Err(CertError::BadAtoms);
    }
    if !sorted(column_ids) || column_ids.last().is_some_and(|&c| c as usize >= ens.n_columns()) {
        return Err(CertError::BadColumns);
    }
    Ensemble::from_sorted_columns(atom_rows.len(), ens.restrict_to(atom_rows, column_ids))
        .map_err(|_| CertError::BadColumns)
}

/// Node budget for the refutation search — families up to the sizes any
/// minimal witness reaches in practice refute in a few thousand nodes;
/// this bound is the honesty backstop, not a tuning knob.
const REFUTE_BUDGET: usize = 4_000_000;

/// Checks a witness against the input it claims to refute:
///
/// 1. the named positions form a valid submatrix of `ens`;
/// 2. that submatrix is isomorphic to the claimed Tucker family
///    ([`classify`]'s structural match + exact column-multiset
///    comparison);
/// 3. the submatrix has no consecutive-ones order, re-proven here by an
///    independent exhaustive search.
///
/// A passing witness therefore proves `ens` non-C1P (C1P is closed under
/// taking submatrices) with no trust in any solver.
pub fn verify_witness(ens: &Ensemble, w: &TuckerWitness) -> Result<(), CertError> {
    verify_witness_with_budget(ens, w, REFUTE_BUDGET)
}

/// [`verify_witness`] with an explicit refutation-search node budget — the
/// injection seam that lets tests pin the budget-exhaustion contract
/// (`None` from the search must surface as [`CertError::RefutationBudget`],
/// never masquerade as a verdict either way). Not a stable API.
#[doc(hidden)]
pub fn verify_witness_with_budget(
    ens: &Ensemble,
    w: &TuckerWitness,
    budget: usize,
) -> Result<(), CertError> {
    let sub = submatrix(ens, &w.atom_rows, &w.column_ids)?;
    match classify(&sub) {
        Some(found) if found == w.family => {}
        recognized => {
            return Err(CertError::NotIsomorphic { claimed: w.family, recognized });
        }
    }
    if sub.n_atoms() <= 8 {
        if brute_force_linear(&sub).is_some() {
            return Err(CertError::SubmatrixIsC1p);
        }
        return Ok(());
    }
    // Budget-exhaustion contract (audited at every refute_search call
    // site — this is the only one): `None` is "undecided", which must
    // surface as an error, never be folded into either verdict.
    match refute_search(&sub, budget) {
        Some(true) => Ok(()),
        Some(false) => Err(CertError::SubmatrixIsC1p),
        None => Err(CertError::RefutationBudget),
    }
}

/// Exhaustive frontier search for a realization: atoms are placed left to
/// right; a column with some atoms placed and some not ("open") must
/// contain every subsequently placed atom until it closes, or its block is
/// interrupted for good — so candidates are exactly the unplaced atoms in
/// the intersection of all open columns. Complete, solver-independent,
/// exponential only in pathological inputs (hence the node budget).
///
/// Returns `Some(true)` when the search space is exhausted (non-C1P
/// proven), `Some(false)` when a realization is found, `None` on budget
/// exhaustion.
fn refute_search(ens: &Ensemble, budget: usize) -> Option<bool> {
    refute_search_counted(ens, budget).0
}

/// [`refute_search`] also reporting the nodes expanded — lets tests pin
/// that the bit-parallel candidate kernel preserves the scalar search
/// tree *exactly* (same verdicts at the same node counts, so budget
/// exhaustion fires at identical points).
fn refute_search_counted(ens: &Ensemble, budget: usize) -> (Option<bool>, usize) {
    let n = ens.n_atoms();
    let m = ens.n_columns();
    let width = n.div_ceil(64);
    // bit rows: column c occupies col_bits[c*width..(c+1)*width]
    let mut col_bits = vec![0u64; m * width];
    for (c, col) in ens.columns().iter().enumerate() {
        for &a in col {
            col_bits[c * width + (a as usize >> 6)] |= 1u64 << (a & 63);
        }
    }
    let mut uni = vec![!0u64; width];
    if n & 63 != 0 {
        uni[width - 1] = (1u64 << (n & 63)) - 1;
    }
    let mut search = Search {
        n,
        width,
        col_bits,
        uni,
        memb: ens.atom_memberships(),
        col_len: ens.columns().iter().map(Vec::len).collect(),
        placed_cnt: vec![0usize; m],
        used: vec![0u64; width],
        cand: vec![0u64; (n + 1) * width],
        budget,
    };
    let r = search.dfs(0);
    let expanded = budget - search.budget;
    (
        match r {
            Some(true) => Some(false), // order exists → refutation fails
            Some(false) => Some(true), // exhausted → non-C1P proven
            None => None,
        },
        expanded,
    )
}

/// State of one [`refute_search`] run. The candidate computation is
/// word-parallel: candidates at a node are exactly the unplaced atoms in
/// the intersection of all open columns, i.e. the set bits of
/// `!used ∧ ⋂ open-column rows` — one AND-fold over packed rows instead
/// of a binary search per (atom, open column) pair. Iterating those bits
/// ascending reproduces the scalar `for a in 0..n` loop verbatim, so the
/// search tree (and hence budget consumption) is bit-identical to the
/// scalar reference search kept in the tests.
struct Search {
    n: usize,
    /// Words per row.
    width: usize,
    /// Packed column rows, `width` words each.
    col_bits: Vec<u64>,
    /// All-ones mask over `0..n`.
    uni: Vec<u64>,
    memb: Vec<Vec<u32>>,
    col_len: Vec<usize>,
    placed_cnt: Vec<usize>,
    /// Placed-atom bitset.
    used: Vec<u64>,
    /// Per-depth candidate masks (`width` words per recursion level), so
    /// the DFS allocates nothing per node.
    cand: Vec<u64>,
    budget: usize,
}

impl Search {
    /// `Some(true)` = a realization completes from this prefix.
    fn dfs(&mut self, pos: usize) -> Option<bool> {
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        if pos == self.n {
            return Some(true); // realization found
        }
        let w = self.width;
        let base = pos * w;
        for i in 0..w {
            self.cand[base + i] = self.uni[i] & !self.used[i];
        }
        for c in 0..self.placed_cnt.len() {
            if self.placed_cnt[c] > 0 && self.placed_cnt[c] < self.col_len[c] {
                for i in 0..w {
                    self.cand[base + i] &= self.col_bits[c * w + i];
                }
            }
        }
        for wi in 0..w {
            // this level's mask is fixed before recursing; deeper levels
            // use their own slices, so the snapshot below stays valid
            let mut word = self.cand[base + wi];
            while word != 0 {
                let a = ((wi as u32) << 6 | word.trailing_zeros()) as usize;
                word &= word - 1;
                self.used[a >> 6] |= 1u64 << (a & 63);
                for i in 0..self.memb[a].len() {
                    self.placed_cnt[self.memb[a][i] as usize] += 1;
                }
                let r = self.dfs(pos + 1);
                self.used[a >> 6] &= !(1u64 << (a & 63));
                for i in 0..self.memb[a].len() {
                    self.placed_cnt[self.memb[a][i] as usize] -= 1;
                }
                match r {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
            }
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::tucker;

    /// The scalar search, kept verbatim as the reference the
    /// word-parallel kernel is differential-tested against: same verdict
    /// AND same node count on every input.
    fn scalar_refute_counted(ens: &Ensemble, budget: usize) -> (Option<bool>, usize) {
        struct S<'a> {
            ens: &'a Ensemble,
            memb: Vec<Vec<u32>>,
            col_len: Vec<usize>,
            placed_cnt: Vec<usize>,
            used: Vec<bool>,
            budget: usize,
        }
        impl S<'_> {
            fn dfs(&mut self, pos: usize) -> Option<bool> {
                if self.budget == 0 {
                    return None;
                }
                self.budget -= 1;
                let n = self.ens.n_atoms();
                if pos == n {
                    return Some(true);
                }
                let open: Vec<u32> = (0..self.placed_cnt.len() as u32)
                    .filter(|&c| {
                        self.placed_cnt[c as usize] > 0
                            && self.placed_cnt[c as usize] < self.col_len[c as usize]
                    })
                    .collect();
                for a in 0..n as u32 {
                    if self.used[a as usize] {
                        continue;
                    }
                    if !open.iter().all(|&c| self.ens.column(c as usize).binary_search(&a).is_ok())
                    {
                        continue;
                    }
                    self.used[a as usize] = true;
                    for i in 0..self.memb[a as usize].len() {
                        self.placed_cnt[self.memb[a as usize][i] as usize] += 1;
                    }
                    let r = self.dfs(pos + 1);
                    self.used[a as usize] = false;
                    for i in 0..self.memb[a as usize].len() {
                        self.placed_cnt[self.memb[a as usize][i] as usize] -= 1;
                    }
                    match r {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => return None,
                    }
                }
                Some(false)
            }
        }
        let mut s = S {
            ens,
            memb: ens.atom_memberships(),
            col_len: ens.columns().iter().map(Vec::len).collect(),
            placed_cnt: vec![0usize; ens.n_columns()],
            used: vec![false; ens.n_atoms()],
            budget,
        };
        let r = s.dfs(0);
        let expanded = budget - s.budget;
        (
            match r {
                Some(true) => Some(false),
                Some(false) => Some(true),
                None => None,
            },
            expanded,
        )
    }

    #[test]
    fn bit_kernel_preserves_scalar_search_tree() {
        // verdict AND node count must match on obstructions (refuted),
        // realizable inputs (order found), and truncated budgets (None at
        // the same node) — including multi-word universes (k=70 → 72 atoms)
        let mut inputs: Vec<Ensemble> =
            tucker::small_obstructions().into_iter().map(|(_, e)| e).collect();
        for k in [10usize, 30, 70] {
            inputs.push(tucker::m_i(k));
            inputs.push(tucker::m_ii(k));
            inputs.push(tucker::m_iii(k));
        }
        inputs.push(
            Ensemble::from_sorted_columns(5, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4]]).unwrap(),
        );
        inputs.push(Ensemble::from_sorted_columns(3, vec![]).unwrap());
        for ens in &inputs {
            let full = scalar_refute_counted(ens, REFUTE_BUDGET);
            assert_eq!(refute_search_counted(ens, REFUTE_BUDGET), full);
            // truncate to just before the scalar run's end: both must hit
            // the budget wall at the same node
            if full.1 > 1 {
                let cut = full.1 - 1;
                assert_eq!(refute_search_counted(ens, cut), scalar_refute_counted(ens, cut));
            }
        }
    }

    #[test]
    fn verify_budget_exhaustion_surfaces_as_error() {
        // satellite-1 contract: with the budget shrunk to 1 on a known-bad
        // family too large for the brute-force path, verify must report
        // RefutationBudget — not "verified" and not SubmatrixIsC1p
        let ens = tucker::m_i(30);
        assert!(ens.n_atoms() > 8, "must take the refutation-search path");
        let w = TuckerWitness {
            family: classify(&ens).expect("M_I(30) classifies"),
            atom_rows: (0..ens.n_atoms() as Atom).collect(),
            column_ids: (0..ens.n_columns() as u32).collect(),
        };
        assert_eq!(verify_witness_with_budget(&ens, &w, 1), Err(CertError::RefutationBudget));
        // the default budget decides it, proving the witness itself is fine
        verify_witness(&ens, &w).unwrap();
    }

    #[test]
    fn refute_search_agrees_with_brute_force_small() {
        for (name, ens) in tucker::small_obstructions() {
            assert_eq!(refute_search(&ens, REFUTE_BUDGET), Some(true), "{name}");
        }
        let good =
            Ensemble::from_sorted_columns(5, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4]]).unwrap();
        assert_eq!(refute_search(&good, REFUTE_BUDGET), Some(false));
    }

    #[test]
    fn refute_search_handles_large_families() {
        for k in [10usize, 30, 60] {
            assert_eq!(refute_search(&tucker::m_i(k), REFUTE_BUDGET), Some(true), "M_I({k})");
            assert_eq!(refute_search(&tucker::m_ii(k), REFUTE_BUDGET), Some(true), "M_II({k})");
            assert_eq!(refute_search(&tucker::m_iii(k), REFUTE_BUDGET), Some(true), "M_III({k})");
        }
    }

    #[test]
    fn refute_search_budget_exhaustion_is_none() {
        // the honesty backstop: running out of budget must never decide
        // either way (verify_witness maps it to RefutationBudget)
        assert_eq!(refute_search(&tucker::m_i(30), 1), None);
        assert_eq!(refute_search(&tucker::m_ii(10), 3), None);
    }

    #[test]
    fn verify_accepts_the_identity_witness() {
        for (name, ens) in tucker::small_obstructions() {
            let fam = classify(&ens).unwrap();
            let w = TuckerWitness {
                family: fam,
                atom_rows: (0..ens.n_atoms() as Atom).collect(),
                column_ids: (0..ens.n_columns() as u32).collect(),
            };
            verify_witness(&ens, &w).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn verify_rejects_tampered_witnesses() {
        let ens = tucker::m_iv();
        let good = TuckerWitness {
            family: TuckerFamily::MIV,
            atom_rows: (0..6).collect(),
            column_ids: (0..4).collect(),
        };
        verify_witness(&ens, &good).unwrap();
        // wrong family claim
        let w = TuckerWitness { family: TuckerFamily::MV, ..good.clone() };
        assert!(matches!(
            verify_witness(&ens, &w),
            Err(CertError::NotIsomorphic { recognized: Some(TuckerFamily::MIV), .. })
        ));
        // dropped column: remainder is C1P and matches nothing
        let w = TuckerWitness { column_ids: vec![0, 1, 2], ..good.clone() };
        assert!(verify_witness(&ens, &w).is_err());
        // out-of-range / unsorted positions
        let w = TuckerWitness { atom_rows: vec![0, 1, 2, 3, 4, 9], ..good.clone() };
        assert_eq!(verify_witness(&ens, &w), Err(CertError::BadAtoms));
        let w = TuckerWitness { column_ids: vec![1, 0, 2, 3], ..good };
        assert_eq!(verify_witness(&ens, &w), Err(CertError::BadColumns));
    }

    #[test]
    fn verify_rejects_c1p_submatrix_even_if_shaped_right() {
        // a C1P ensemble whose shape resembles no family: classify fails
        let ens =
            Ensemble::from_sorted_columns(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        let w = TuckerWitness {
            family: TuckerFamily::MI(2),
            atom_rows: vec![0, 1, 2, 3],
            column_ids: vec![0, 1, 2],
        };
        assert!(matches!(verify_witness(&ens, &w), Err(CertError::NotIsomorphic { .. })));
    }
}

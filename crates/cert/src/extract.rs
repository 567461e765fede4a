//! The evidence → witness shrink pipeline.
//!
//! A [`Rejection`] leaves the solver naming a set of atoms whose induced
//! subensemble is already non-C1P. This module shrinks that evidence to a
//! *minimal* non-C1P submatrix — minimal under deletion of any single
//! column or atom — which, by Tucker's theorem, is isomorphic to one of
//! the five obstruction families, and wraps it into a [`TuckerWitness`].
//!
//! The shrink is QuickXplain-style divide-and-conquer deletion (the
//! delta-debugging analogue of the greedy passes in Chauve–Stephen–Tamayo
//! / Maňuch–Rafiey): columns first, then atoms, alternating to a fixpoint,
//! with the Booth–Lueker PQ-tree (`c1p_pqtree::solve`) as the incremental
//! non-C1P oracle — `O(w log m)`-ish oracle calls for a witness of `w`
//! positions instead of the naive `m + n`. The oracle is *only* a search
//! heuristic here: [`verify_witness`](crate::verify_witness) re-checks the
//! final witness without it.

use crate::witness::{submatrix, CertError, TuckerWitness};
use c1p_core::{FlatCols, Rejection};
use c1p_matrix::tucker::classify;
use c1p_matrix::{Atom, Ensemble};

/// Extracts a minimal Tucker witness from a rejection's evidence atoms.
///
/// The evidence is first re-validated against the PQ oracle (falling back
/// to the full atom set if a stale/foreign rejection names a realizable
/// subensemble), then shrunk column-minimal and atom-minimal.
///
/// Errors: [`CertError::EvidenceNotRejectable`] if even the full input is
/// C1P (the rejection does not belong to this ensemble);
/// [`CertError::Unrecognized`] if the minimal submatrix classifies into no
/// family (impossible for a sound oracle, by Tucker's theorem).
pub fn extract_witness(ens: &Ensemble, rej: &Rejection) -> Result<TuckerWitness, CertError> {
    let n = ens.n_atoms();
    let mut oracle = Oracle::new(ens);
    let all_cols: Vec<u32> = (0..ens.n_columns() as u32).collect();
    let mut atoms: Vec<Atom> = rej.atoms.iter().copied().filter(|&a| (a as usize) < n).collect();
    atoms.sort_unstable();
    atoms.dedup();
    if atoms.is_empty() {
        atoms = (0..n as Atom).collect();
    }
    // Validation and first narrowing in one incremental Booth–Lueker
    // pass: reductions are processed column by column, so the moment
    // one fails, the set processed so far is already non-C1P and every
    // unprocessed column can be dropped before any probing starts. The
    // pass walks the columns *interleaved from both ends* (0, m−1, 1,
    // m−2, …): obstruction columns near either end — e.g. appended
    // after a consistent base, the common incremental-data shape — are
    // reached after O(core + distance-to-nearer-end) reductions instead
    // of a full O(p) scan, and the worst case (a core buried mid-list)
    // stays one full pass. `None` means the evidence restriction is
    // realizable (a stale/foreign rejection): fall back to the full
    // atom set, as before.
    let mut cols: Vec<u32> = oracle.alive_cols(&atoms, &all_cols);
    match oracle.failing_subset(&atoms, &cols) {
        Some(kept) => cols = kept,
        None => {
            atoms = (0..n as Atom).collect();
            cols = oracle.alive_cols(&atoms, &all_cols);
            let Some(kept) = oracle.failing_subset(&atoms, &cols) else {
                return Err(CertError::EvidenceNotRejectable);
            };
            cols = kept;
        }
    }
    // atoms uncovered by the surviving columns are all-zero rows of the
    // evidence submatrix: they cannot appear in any minimal core
    let mut covered = vec![false; n];
    for &ci in &cols {
        for &a in ens.column(ci as usize) {
            covered[a as usize] = true;
        }
    }
    atoms.retain(|&a| covered[a as usize]);
    // Cheap pre-narrowing: when the evidence is wide (a top-level merge
    // failure implicates a whole component), repeatedly try to keep one
    // half of the atom range — O(log n) oracle calls of shrinking size vs
    // QuickXplain's full-width probes. Best-effort: the moment neither
    // half alone is non-C1P, the minimal-core search takes over. The
    // live column set shrinks with the window (a column with < 2 atoms
    // in the window constrains nothing in any subwindow), so the probe
    // cost decays geometrically instead of paying O(p) per level.
    cols = oracle.alive_cols(&atoms, &cols);
    while atoms.len() > 8 {
        let mid = atoms.len() / 2;
        if oracle.non_c1p(&atoms[..mid], &cols) {
            atoms.truncate(mid);
        } else if oracle.non_c1p(&atoms[mid..], &cols) {
            atoms.drain(..mid);
        } else {
            break;
        }
        cols = oracle.alive_cols(&atoms, &cols);
    }
    // alternate column- and atom-minimization to a fixpoint (each pass can
    // unlock the other; two or three rounds in practice)
    loop {
        let cols_before = cols.len();
        let atoms_before = atoms.len();
        cols = min_core(cols, &mut |cs| oracle.non_c1p(&atoms, cs));
        // only atoms still covered by the kept columns can matter
        let mut covered = vec![false; n];
        for &ci in &cols {
            for &a in ens.column(ci as usize) {
                covered[a as usize] = true;
            }
        }
        atoms.retain(|&a| covered[a as usize]);
        atoms = min_core(atoms, &mut |ats| oracle.non_c1p(ats, &cols));
        atoms.sort_unstable();
        cols.sort_unstable();
        if cols.len() == cols_before && atoms.len() == atoms_before {
            break;
        }
    }
    let sub = submatrix(ens, &atoms, &cols)?;
    let family = classify(&sub).ok_or(CertError::Unrecognized)?;
    Ok(TuckerWitness { family, atom_rows: atoms, column_ids: cols })
}

/// The shrink oracle: is the restriction of `ens` to `atoms × cols`
/// non-C1P? Decided by the Booth–Lueker PQ-tree.
///
/// One `Oracle` serves every probe of an extraction: the renumbering
/// table, the sorted-subset buffer, and the restricted-column CSR arena
/// are built once and recycled, so a probe allocates nothing beyond the
/// PQ-tree itself (the bisection + QuickXplain passes previously paid a
/// fresh `Vec<Vec<Atom>>` — one heap column *plus a sort* per restricted
/// column — on every call).
struct Oracle<'e> {
    ens: &'e Ensemble,
    /// Subset renumbering (`u32::MAX` = atom absent from the probe).
    place: Vec<u32>,
    /// Sorted copy of the probe's atom subset (probes hand unsorted
    /// slices; renumbering by ascending atom keeps the arena's columns
    /// ascending — any bijection preserves the C1P verdict).
    sorted: Vec<Atom>,
    /// Restricted columns, rebuilt in place each probe.
    arena: FlatCols,
}

impl<'e> Oracle<'e> {
    fn new(ens: &'e Ensemble) -> Oracle<'e> {
        Oracle {
            ens,
            place: vec![u32::MAX; ens.n_atoms()],
            sorted: Vec::new(),
            arena: FlatCols::new(),
        }
    }

    /// Publishes the subset renumbering (`place[a]` = rank of `a` in
    /// the sorted subset) for the duration of one probe. Every user
    /// must pair this with [`Self::clear_subset`] — the pairing is kept
    /// in exactly three short methods so a missed restore cannot hide.
    fn mark_subset(&mut self, atoms: &[Atom]) {
        self.sorted.clear();
        self.sorted.extend_from_slice(atoms);
        self.sorted.sort_unstable();
        for (i, &a) in self.sorted.iter().enumerate() {
            self.place[a as usize] = i as u32;
        }
    }

    /// Restores the `place` table to all-absent (`O(subset)`).
    fn clear_subset(&mut self) {
        for &a in &self.sorted {
            self.place[a as usize] = u32::MAX;
        }
    }

    fn non_c1p(&mut self, atoms: &[Atom], cols: &[u32]) -> bool {
        self.mark_subset(atoms);
        self.arena.clear();
        for &ci in cols {
            for &a in self.ens.column(ci as usize) {
                let p = self.place[a as usize];
                if p != u32::MAX {
                    self.arena.push(p);
                }
            }
            // restrictions below two atoms constrain nothing
            if self.arena.building_len() >= 2 {
                self.arena.finish_col();
            } else {
                self.arena.cancel_col();
            }
        }
        let verdict = c1p_pqtree::solve(atoms.len(), &self.arena).is_none();
        self.clear_subset();
        verdict
    }

    /// One incremental Booth–Lueker pass: reduces `cols` against a
    /// fresh PQ-tree over `atoms`, walking the list interleaved from
    /// both ends, and returns the processed column ids (ascending) the
    /// moment a reduction fails — that subset's restriction to `atoms`
    /// is non-C1P. `None`: every column reduced, the restriction is
    /// C1P.
    fn failing_subset(&mut self, atoms: &[Atom], cols: &[u32]) -> Option<Vec<u32>> {
        self.mark_subset(atoms);
        let m = cols.len();
        let mut tree = c1p_pqtree::PqTree::universal(atoms.len());
        let mut buf: Vec<u32> = Vec::new();
        let mut kept = None;
        for k in 0..m {
            let idx = if k % 2 == 0 { k / 2 } else { m - 1 - k / 2 };
            buf.clear();
            for &a in self.ens.column(cols[idx] as usize) {
                let p = self.place[a as usize];
                if p != u32::MAX {
                    buf.push(p);
                }
            }
            if buf.len() >= 2 && tree.reduce(&buf).is_err() {
                let mut processed: Vec<u32> = (0..=k)
                    .map(|kk| cols[if kk % 2 == 0 { kk / 2 } else { m - 1 - kk / 2 }])
                    .collect();
                processed.sort_unstable();
                kept = Some(processed);
                break;
            }
        }
        self.clear_subset();
        kept
    }

    /// The columns of `cols` whose restriction to `atoms` keeps at
    /// least two atoms — everything else constrains nothing in any
    /// subset of `atoms` and only pads later probes.
    fn alive_cols(&mut self, atoms: &[Atom], cols: &[u32]) -> Vec<u32> {
        self.mark_subset(atoms);
        let (place, ens) = (&self.place, self.ens);
        let out = cols
            .iter()
            .copied()
            .filter(|&ci| {
                let mut kept = 0usize;
                for &a in ens.column(ci as usize) {
                    if place[a as usize] != u32::MAX {
                        kept += 1;
                        if kept == 2 {
                            return true;
                        }
                    }
                }
                false
            })
            .collect();
        self.clear_subset();
        out
    }
}

/// QuickXplain: an inclusion-minimal subset `M ⊆ cand` with `test(M)`
/// true, assuming `test(cand)` is true and `test` is monotone (adding
/// items never turns a passing set failing — non-C1P survives supersets).
/// Every element of the result is necessary: removing any single one makes
/// `test` false.
fn min_core(cand: Vec<u32>, test: &mut dyn FnMut(&[u32]) -> bool) -> Vec<u32> {
    fn qx(
        base: &mut Vec<u32>,
        cand: &[u32],
        has_delta: bool,
        test: &mut dyn FnMut(&[u32]) -> bool,
    ) -> Vec<u32> {
        if has_delta && test(base) {
            return Vec::new();
        }
        if cand.len() == 1 {
            return cand.to_vec();
        }
        let (c1, c2) = cand.split_at(cand.len() / 2);
        let mark = base.len();
        base.extend_from_slice(c1);
        let d2 = qx(base, c2, !c1.is_empty(), test);
        base.truncate(mark);
        base.extend_from_slice(&d2);
        let d1 = qx(base, c1, !d2.is_empty(), test);
        base.truncate(mark);
        let mut out = d1;
        out.extend(d2);
        out
    }
    if cand.is_empty() || test(&[]) {
        return Vec::new();
    }
    let mut base = Vec::with_capacity(cand.len());
    qx(&mut base, &cand, false, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_witness;
    use c1p_matrix::tucker::{self, TuckerFamily};

    #[test]
    fn min_core_finds_planted_core() {
        // test: does the set contain {3, 7, 11}?
        let need = [3u32, 7, 11];
        let mut test = |xs: &[u32]| need.iter().all(|x| xs.contains(x));
        let mut got = min_core((0..40).collect(), &mut test);
        got.sort_unstable();
        assert_eq!(got, need);
    }

    #[test]
    fn extracts_the_generator_from_pure_obstructions() {
        for (name, ens) in tucker::small_obstructions() {
            let rej = c1p_core::solve(&ens).expect_err(&name);
            let w = extract_witness(&ens, &rej).unwrap_or_else(|e| panic!("{name}: {e}"));
            // generators are already minimal: the witness is the whole
            // matrix, and the family matches the planted one
            assert_eq!(w.atom_rows.len(), ens.n_atoms(), "{name}");
            assert_eq!(w.column_ids.len(), ens.n_columns(), "{name}");
            assert_eq!(classify(&ens), Some(w.family), "{name}");
            verify_witness(&ens, &w).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn extracts_from_embedded_obstruction() {
        let emb = tucker::embed_obstruction(&tucker::m_v(), 40, 17, &[(0, 12), (20, 15), (5, 30)]);
        let rej = c1p_core::solve(&emb).unwrap_err();
        let w = extract_witness(&emb, &rej).unwrap();
        verify_witness(&emb, &w).unwrap();
        assert_eq!(w.family, TuckerFamily::MV);
        // the witness found exactly the embedded copy's atoms
        assert_eq!(w.atom_rows, (17..22).collect::<Vec<_>>());
    }

    #[test]
    fn stale_rejection_on_c1p_input_is_an_error() {
        let good =
            Ensemble::from_sorted_columns(5, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4]]).unwrap();
        let fake = Rejection { site: c1p_core::RejectSite::Merge, atoms: vec![0, 1, 2, 3, 4] };
        assert_eq!(extract_witness(&good, &fake), Err(CertError::EvidenceNotRejectable));
    }
}

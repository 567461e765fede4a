//! The ensemble `(A, C)` of the paper's Section 2, and the dense
//! (0,1)-matrix view it abstracts.
//!
//! Conventions used throughout the workspace:
//!
//! * atoms are `0..n_atoms` and are the objects being linearly ordered
//!   (the paper's set `A`; the rows of the abstract's matrix, the STS probes
//!   of Section 1.1);
//! * a *column* is a sorted, duplicate-free subset of the atoms (the paper's
//!   `C ∈ 𝒞`; a clone fingerprint in Section 1.1);
//! * `p` is the sum of column cardinalities — the paper's input-size
//!   parameter for Theorem 9.

use std::fmt;

/// An atom identifier (an element of the paper's set `A`).
pub type Atom = u32;

/// Errors raised while constructing or validating an [`Ensemble`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnsembleError {
    /// A column referenced an atom `>= n_atoms`.
    AtomOutOfRange { column: usize, atom: Atom },
    /// A column listed the same atom twice.
    DuplicateAtom { column: usize, atom: Atom },
    /// A column was not sorted ascending (only from `from_sorted_columns`).
    UnsortedColumn { column: usize },
    /// A dense matrix row had the wrong width.
    RaggedMatrix { row: usize, expected: usize, found: usize },
    /// Parse error for textual matrices.
    Parse { line: usize, message: String },
    /// Decode error for the binary wire format (`io::decode_ensemble` /
    /// `io::decode_verdict`): byte offset of the offending field.
    Wire { offset: usize, message: String },
}

impl fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsembleError::AtomOutOfRange { column, atom } => {
                write!(f, "column {column} references atom {atom} out of range")
            }
            EnsembleError::DuplicateAtom { column, atom } => {
                write!(f, "column {column} lists atom {atom} more than once")
            }
            EnsembleError::UnsortedColumn { column } => {
                write!(f, "column {column} is not sorted ascending")
            }
            EnsembleError::RaggedMatrix { row, expected, found } => {
                write!(f, "matrix row {row} has {found} entries, expected {expected}")
            }
            EnsembleError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            EnsembleError::Wire { offset, message } => {
                write!(f, "wire decode error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for EnsembleError {}

/// The paper's ensemble `(A, 𝒞)`: `n_atoms` atoms plus a collection of
/// columns, each a sorted subset of the atoms.
///
/// ```
/// use c1p_matrix::Ensemble;
/// let ens = Ensemble::from_columns(4, vec![vec![0, 1], vec![1, 2, 3]]).unwrap();
/// assert_eq!(ens.n_atoms(), 4);
/// assert_eq!(ens.n_columns(), 2);
/// assert_eq!(ens.p(), 5); // Σ|C|, Theorem 9's size parameter
/// ```
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Ensemble {
    n_atoms: usize,
    columns: Vec<Vec<Atom>>,
}

impl fmt::Debug for Ensemble {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ensemble(n={}, m={}, p={})", self.n_atoms, self.n_columns(), self.p())
    }
}

impl Ensemble {
    /// An ensemble with `n_atoms` atoms and no columns (every layout works).
    pub fn new(n_atoms: usize) -> Self {
        Ensemble { n_atoms, columns: Vec::new() }
    }

    /// Builds an ensemble from columns given in any order; each column is
    /// sorted and validated (atoms in range, no duplicates).
    pub fn from_columns(
        n_atoms: usize,
        mut columns: Vec<Vec<Atom>>,
    ) -> Result<Self, EnsembleError> {
        for (ci, col) in columns.iter_mut().enumerate() {
            col.sort_unstable();
            for w in col.windows(2) {
                if w[0] == w[1] {
                    return Err(EnsembleError::DuplicateAtom { column: ci, atom: w[0] });
                }
            }
            if let Some(&last) = col.last() {
                if last as usize >= n_atoms {
                    return Err(EnsembleError::AtomOutOfRange { column: ci, atom: last });
                }
            }
        }
        Ok(Ensemble { n_atoms, columns })
    }

    /// Like [`Ensemble::from_columns`] but requires columns pre-sorted
    /// (cheaper; used by generators that already produce sorted intervals).
    pub fn from_sorted_columns(
        n_atoms: usize,
        columns: Vec<Vec<Atom>>,
    ) -> Result<Self, EnsembleError> {
        for (ci, col) in columns.iter().enumerate() {
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(if w[0] == w[1] {
                        EnsembleError::DuplicateAtom { column: ci, atom: w[0] }
                    } else {
                        EnsembleError::UnsortedColumn { column: ci }
                    });
                }
            }
            if let Some(&last) = col.last() {
                if last as usize >= n_atoms {
                    return Err(EnsembleError::AtomOutOfRange { column: ci, atom: last });
                }
            }
        }
        Ok(Ensemble { n_atoms, columns })
    }

    /// Appends a column (sorted + validated). Panics on invalid input;
    /// intended for tests and small fixtures.
    pub fn push_column(&mut self, mut col: Vec<Atom>) {
        col.sort_unstable();
        col.dedup();
        assert!(col.last().is_none_or(|&a| (a as usize) < self.n_atoms), "atom out of range");
        self.columns.push(col);
    }

    /// Drops every column from index `n_cols` on (no-op if there are
    /// already at most `n_cols` columns). The rollback primitive for
    /// append-only consumers: a rejected incremental push restores the
    /// last accepted state by truncating back to the pre-push column
    /// count.
    pub fn truncate_columns(&mut self, n_cols: usize) {
        self.columns.truncate(n_cols);
    }

    /// Moves every column of `other` onto the end of this ensemble,
    /// without copying or re-validating them (`other` already holds the
    /// invariants).
    ///
    /// # Panics
    ///
    /// If the two atom counts differ.
    pub fn append(&mut self, other: Ensemble) {
        assert_eq!(other.n_atoms, self.n_atoms, "appended ensemble must match the atom count");
        self.columns.extend(other.columns);
    }

    /// Number of atoms `n = |A|`.
    #[inline]
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Number of columns `m = |𝒞|`.
    #[inline]
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// `p = Σ_C |C|`, the total number of ones — the size parameter of
    /// Theorem 9.
    pub fn p(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// The paper's density factor `f` with `p = nm/f` (Section 5). Returns
    /// `None` for empty instances.
    pub fn density_factor(&self) -> Option<f64> {
        let p = self.p();
        if p == 0 {
            return None;
        }
        Some((self.n_atoms as f64) * (self.n_columns() as f64) / p as f64)
    }

    /// Read-only access to the columns.
    #[inline]
    pub fn columns(&self) -> &[Vec<Atom>] {
        &self.columns
    }

    /// The `ci`-th column.
    #[inline]
    pub fn column(&self, ci: usize) -> &[Atom] {
        &self.columns[ci]
    }

    /// Inverted index: for each atom, the (ascending) list of column ids
    /// containing it. This is the adjacency of the paper's associated
    /// bipartite graph `B` (Section 3).
    pub fn atom_memberships(&self) -> Vec<Vec<u32>> {
        let mut memb = vec![Vec::new(); self.n_atoms];
        for (ci, col) in self.columns.iter().enumerate() {
            for &a in col {
                memb[a as usize].push(ci as u32);
            }
        }
        memb
    }

    /// Connected components of the associated bipartite graph `B` on
    /// `A ∪ 𝒞` (Section 3: "the vertex set of a component of B induces a
    /// unique subensemble"). Atoms contained in no column form singleton
    /// atom-only components; empty columns belong to no component.
    /// Returns `(atom_sets, column_sets)` per component, in order of each
    /// component's smallest atom, both lists ascending.
    ///
    /// Linear in `n + m + p`: the atom→column adjacency is built in CSR
    /// form (count, prefix-sum, fill), a DFS from ascending start atoms
    /// labels every atom and column, and ascending scans emit the lists.
    /// Only the work tables and one pair of vectors per component are
    /// allocated, and nothing is sorted.
    pub fn components(&self) -> Vec<(Vec<Atom>, Vec<u32>)> {
        const NONE: u32 = u32::MAX;
        let n = self.n_atoms;
        // adj[start[a]..start[a + 1]] = columns containing atom a, ascending
        let mut start = vec![0u32; n + 1];
        for &a in self.columns.iter().flatten() {
            start[a as usize + 1] += 1;
        }
        for a in 0..n {
            start[a + 1] += start[a];
        }
        let mut adj = vec![0u32; start[n] as usize];
        for (ci, col) in self.columns.iter().enumerate() {
            for &a in col {
                adj[start[a as usize] as usize] = ci as u32;
                start[a as usize] += 1;
            }
        }
        // the fill advanced start[a] to atom a's end, which is atom a+1's
        // start: shift back by one slot
        start.copy_within(..n, 1);
        start[0] = 0;

        let mut atom_comp = vec![NONE; n];
        let mut col_comp = vec![NONE; self.columns.len()];
        let mut n_comps = 0u32;
        let mut stack: Vec<Atom> = Vec::new();
        for s in 0..n {
            if atom_comp[s] != NONE {
                continue;
            }
            atom_comp[s] = n_comps;
            stack.push(s as Atom);
            while let Some(a) = stack.pop() {
                for &ci in &adj[start[a as usize] as usize..start[a as usize + 1] as usize] {
                    if col_comp[ci as usize] == NONE {
                        col_comp[ci as usize] = n_comps;
                        for &b in &self.columns[ci as usize] {
                            if atom_comp[b as usize] == NONE {
                                atom_comp[b as usize] = n_comps;
                                stack.push(b);
                            }
                        }
                    }
                }
            }
            n_comps += 1;
        }

        let mut sizes = vec![(0usize, 0usize); n_comps as usize];
        for &c in &atom_comp {
            sizes[c as usize].0 += 1;
        }
        for &c in col_comp.iter().filter(|&&c| c != NONE) {
            sizes[c as usize].1 += 1;
        }
        let mut comps: Vec<(Vec<Atom>, Vec<u32>)> = sizes
            .iter()
            .map(|&(na, nc)| (Vec::with_capacity(na), Vec::with_capacity(nc)))
            .collect();
        for (a, &c) in atom_comp.iter().enumerate() {
            comps[c as usize].0.push(a as Atom);
        }
        for (ci, &c) in col_comp.iter().enumerate() {
            if c != NONE {
                comps[c as usize].1.push(ci as u32);
            }
        }
        comps
    }

    /// Restriction of this ensemble to a subset of atoms (the paper's
    /// *subensemble*, Section 3): atoms are renumbered `0..subset.len()` in
    /// the order given; each column is replaced by its restriction. Columns
    /// whose restriction has fewer than `min_keep` atoms are dropped.
    /// Returns the subensemble plus, per kept column, the original column id.
    pub fn restrict(&self, subset: &[Atom], min_keep: usize) -> (Ensemble, Vec<u32>) {
        let all: Vec<u32> = (0..self.columns.len() as u32).collect();
        let mut cols = Vec::new();
        let mut origin = Vec::new();
        for (ci, col) in self.restrict_to(subset, &all).into_iter().enumerate() {
            if col.len() >= min_keep {
                cols.push(col);
                origin.push(ci as u32);
            }
        }
        (Ensemble { n_atoms: subset.len(), columns: cols }, origin)
    }

    /// Restriction of the *named* columns to a subset of atoms: atoms are
    /// renumbered `0..subset.len()` by their position in `subset` (which
    /// need not be sorted), every named column is kept regardless of its
    /// restricted size, and each output column is sorted. The submatrix
    /// primitive behind `c1p-cert`'s witness checker and shrink oracle;
    /// see [`Ensemble::restrict`] for the all-columns/min-size variant.
    pub fn restrict_to(&self, subset: &[Atom], column_ids: &[u32]) -> Vec<Vec<Atom>> {
        let mut place = vec![u32::MAX; self.n_atoms];
        for (i, &a) in subset.iter().enumerate() {
            place[a as usize] = i as u32;
        }
        column_ids
            .iter()
            .map(|&ci| {
                let mut col: Vec<Atom> = self.columns[ci as usize]
                    .iter()
                    .filter_map(|&a| {
                        let p = place[a as usize];
                        (p != u32::MAX).then_some(p)
                    })
                    .collect();
                col.sort_unstable();
                col
            })
            .collect()
    }

    /// Renumbers atoms by a permutation: atom `a` becomes `perm[a]`.
    /// `perm` must be a permutation of `0..n_atoms`.
    pub fn permute_atoms(&self, perm: &[Atom]) -> Ensemble {
        assert_eq!(perm.len(), self.n_atoms);
        let columns = self
            .columns
            .iter()
            .map(|col| {
                let mut c: Vec<Atom> = col.iter().map(|&a| perm[a as usize]).collect();
                c.sort_unstable();
                c
            })
            .collect();
        Ensemble { n_atoms: self.n_atoms, columns }
    }

    /// Dense matrix view (rows = atoms, columns = columns).
    pub fn to_matrix(&self) -> Matrix01 {
        let mut m = Matrix01::zeros(self.n_atoms, self.columns.len());
        for (ci, col) in self.columns.iter().enumerate() {
            for &a in col {
                m.set(a as usize, ci, true);
            }
        }
        m
    }
}

/// A dense (0,1)-matrix with `n_rows × n_cols` bits, row-major, 64 bits per
/// word. Rows correspond to atoms, columns to the ensemble's columns: the
/// C1P question is "permute the rows so each column's ones are consecutive"
/// (the phrasing of the paper's abstract).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix01 {
    n_rows: usize,
    n_cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl Matrix01 {
    /// All-zeros matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        let words_per_row = n_cols.div_ceil(64).max(1);
        Matrix01 { n_rows, n_cols, words_per_row, bits: vec![0; words_per_row * n_rows] }
    }

    /// Number of rows (atoms).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        let w = self.bits[r * self.words_per_row + c / 64];
        (w >> (c % 64)) & 1 == 1
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        debug_assert!(r < self.n_rows && c < self.n_cols);
        let w = &mut self.bits[r * self.words_per_row + c / 64];
        if v {
            *w |= 1 << (c % 64);
        } else {
            *w &= !(1 << (c % 64));
        }
    }

    /// Flips entry `(r, c)`, returning the new value.
    pub fn flip(&mut self, r: usize, c: usize) -> bool {
        let v = !self.get(r, c);
        self.set(r, c, v);
        v
    }

    /// Total number of ones (`p`).
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Converts to the column-set representation.
    pub fn to_ensemble(&self) -> Ensemble {
        let mut columns = vec![Vec::new(); self.n_cols];
        for r in 0..self.n_rows {
            for (c, column) in columns.iter_mut().enumerate() {
                if self.get(r, c) {
                    column.push(r as Atom);
                }
            }
        }
        Ensemble { n_atoms: self.n_rows, columns }
    }

    /// Builds from rows of 0/1 bytes.
    pub fn from_rows(rows: &[Vec<u8>]) -> Result<Self, EnsembleError> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut m = Matrix01::zeros(n_rows, n_cols);
        for (r, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(EnsembleError::RaggedMatrix {
                    row: r,
                    expected: n_cols,
                    found: row.len(),
                });
            }
            for (c, &v) in row.iter().enumerate() {
                if v != 0 {
                    m.set(r, c, true);
                }
            }
        }
        Ok(m)
    }

    /// The transpose (rows ↔ columns) — switches between the "permute rows"
    /// and "permute columns" phrasings of C1P.
    pub fn transpose(&self) -> Matrix01 {
        let mut t = Matrix01::zeros(self.n_cols, self.n_rows);
        for r in 0..self.n_rows {
            for c in 0..self.n_cols {
                if self.get(r, c) {
                    t.set(c, r, true);
                }
            }
        }
        t
    }
}

impl fmt::Display for Matrix01 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.n_rows {
            for c in 0..self.n_cols {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl fmt::Debug for Matrix01 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix01({}x{})", self.n_rows, self.n_cols)?;
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensemble_basics() {
        let ens = Ensemble::from_columns(5, vec![vec![3, 1], vec![0, 2, 4]]).unwrap();
        assert_eq!(ens.column(0), &[1, 3]);
        assert_eq!(ens.p(), 5);
        assert_eq!(ens.density_factor(), Some(2.0));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = Ensemble::from_columns(3, vec![vec![0, 3]]).unwrap_err();
        assert_eq!(err, EnsembleError::AtomOutOfRange { column: 0, atom: 3 });
    }

    #[test]
    fn rejects_duplicates() {
        let err = Ensemble::from_columns(3, vec![vec![1, 1]]).unwrap_err();
        assert_eq!(err, EnsembleError::DuplicateAtom { column: 0, atom: 1 });
    }

    #[test]
    fn components_split_disjoint_columns() {
        // {0,1} and {2,3} never interact; atom 4 is isolated.
        let ens = Ensemble::from_columns(5, vec![vec![0, 1], vec![2, 3]]).unwrap();
        let comps = ens.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], (vec![0, 1], vec![0]));
        assert_eq!(comps[1], (vec![2, 3], vec![1]));
        assert_eq!(comps[2], (vec![4], vec![]));
    }

    #[test]
    fn restriction_renumbers_and_drops() {
        let ens = Ensemble::from_columns(6, vec![vec![0, 1, 2], vec![4, 5], vec![2, 3]]).unwrap();
        let (sub, origin) = ens.restrict(&[2, 3, 4], 2);
        assert_eq!(sub.n_atoms(), 3);
        // column 2 = {2,3} -> {0,1}; column 0 loses all but atom 2 (dropped);
        // column 1 = {4,5} -> {4}->{2} single, dropped.
        assert_eq!(sub.columns(), &[vec![0, 1]]);
        assert_eq!(origin, vec![2]);
    }

    #[test]
    fn restrict_to_keeps_named_columns_and_renumbers_by_position() {
        let ens = Ensemble::from_columns(6, vec![vec![0, 1, 2], vec![4, 5], vec![2, 3]]).unwrap();
        // unsorted subset: renumbering follows subset position, output sorted
        let cols = ens.restrict_to(&[3, 2, 0], &[0, 2]);
        assert_eq!(cols, vec![vec![1, 2], vec![0, 1]]);
        // named columns are kept even when their restriction is tiny/empty
        let cols = ens.restrict_to(&[0, 1], &[0, 1, 2]);
        assert_eq!(cols, vec![vec![0, 1], vec![], vec![]]);
    }

    #[test]
    fn matrix_round_trip() {
        let ens = Ensemble::from_columns(4, vec![vec![0, 2], vec![1, 2, 3]]).unwrap();
        let m = ens.to_matrix();
        assert_eq!(m.count_ones(), 5);
        assert_eq!(m.to_ensemble(), ens);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn permute_atoms_relabels() {
        let ens = Ensemble::from_columns(3, vec![vec![0, 1]]).unwrap();
        let p = ens.permute_atoms(&[2, 0, 1]);
        assert_eq!(p.columns(), &[vec![0, 2]]);
    }

    #[test]
    fn matrix_display() {
        let m = Matrix01::from_rows(&[vec![1, 0], vec![0, 1]]).unwrap();
        assert_eq!(format!("{m}"), "10\n01\n");
    }
}

//! The paper's motivating workloads.
//!
//! **Physical mapping (Section 1.1).** A clone library is a set of
//! overlapping DNA fragments; each clone is fingerprinted by the set of STS
//! probes it contains. The data is a (0,1)-matrix with `a_{ij} = 1` iff
//! clone `i` contains STS `j`; an STS ordering is consistent iff every
//! clone's fingerprint is consecutive — i.e. the matrix (atoms = STSs,
//! columns = clones) has C1P. The paper cites real experiments with
//! 18 000–25 000 clones and 9 000–15 000 STSs [1, 15]; no data is published
//! with the paper, so [`CloneLibrary`] synthesizes instances of exactly that
//! shape (substitution documented in DESIGN.md §4).
//!
//! **Consecutive retrieval (Section 1.4, Ghosh \[11\]).** Records stored on a
//! linear medium; each query must fetch a consecutive run. Identical
//! combinatorics: atoms = records, columns = queries.

use crate::ensemble::{Atom, Ensemble};
use crate::generate::random_permutation;
use rand::{Rng, RngExt};

/// Parameters of a synthetic clone-library fingerprinting experiment.
#[derive(Debug, Clone, Copy)]
pub struct CloneLibrary {
    /// Number of STS probes (the atoms; paper cites 9 000–15 000).
    pub n_sts: usize,
    /// Number of clones (the columns; paper cites 18 000–25 000).
    pub n_clones: usize,
    /// Mean number of STSs per clone (clone length in probe units).
    pub mean_clone_span: usize,
    /// Scramble the STS labels (true = hide the genome order, the realistic
    /// setting; false = identity labels for debugging).
    pub scramble: bool,
}

impl CloneLibrary {
    /// The shape the paper cites from Alizadeh et al. / Lander: ~18k clones,
    /// ~9k STSs.
    pub fn genome_scale() -> Self {
        CloneLibrary { n_sts: 9_000, n_clones: 18_000, mean_clone_span: 12, scramble: true }
    }

    /// Draws a clean (error-free) fingerprint matrix. Each clone covers a
    /// contiguous run of STSs along the hidden genome; run lengths are
    /// uniform in `[1, 2·mean_clone_span]`.
    ///
    /// Returns `(ensemble, hidden_sts_order)` — the hidden order witnesses
    /// C1P.
    pub fn sample(&self, rng: &mut impl Rng) -> (Ensemble, Vec<Atom>) {
        assert!(self.n_sts > 0);
        let hidden = if self.scramble {
            random_permutation(self.n_sts, rng)
        } else {
            (0..self.n_sts as Atom).collect()
        };
        let max_span = (2 * self.mean_clone_span).clamp(1, self.n_sts);
        let mut cols = Vec::with_capacity(self.n_clones);
        for _ in 0..self.n_clones {
            let len = rng.random_range(1..=max_span);
            let start = rng.random_range(0..=self.n_sts - len);
            let mut col: Vec<Atom> = hidden[start..start + len].to_vec();
            col.sort_unstable();
            cols.push(col);
        }
        let ens = Ensemble::from_sorted_columns(self.n_sts, cols).expect("clones are valid");
        (ens, hidden)
    }
}

/// Parameters of a consecutive-retrieval file-organization instance
/// (Ghosh \[11\]): `n_records` records, `n_queries` queries, each query
/// touching a run of records in the (hidden) optimal storage order.
#[derive(Debug, Clone, Copy)]
pub struct RetrievalWorkload {
    /// Number of records (atoms).
    pub n_records: usize,
    /// Number of query classes (columns).
    pub n_queries: usize,
    /// Maximum records per query.
    pub max_query_size: usize,
}

impl RetrievalWorkload {
    /// Draws a satisfiable instance plus its witness storage order.
    pub fn sample(&self, rng: &mut impl Rng) -> (Ensemble, Vec<Atom>) {
        assert!(self.n_records > 0);
        let hidden = random_permutation(self.n_records, rng);
        let maxq = self.max_query_size.clamp(1, self.n_records);
        let mut cols = Vec::with_capacity(self.n_queries);
        for _ in 0..self.n_queries {
            let len = rng.random_range(1..=maxq);
            let start = rng.random_range(0..=self.n_records - len);
            let mut col: Vec<Atom> = hidden[start..start + len].to_vec();
            col.sort_unstable();
            cols.push(col);
        }
        let ens = Ensemble::from_sorted_columns(self.n_records, cols).expect("queries are valid");
        (ens, hidden)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_linear;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn clone_library_is_c1p() {
        let mut rng = SmallRng::seed_from_u64(42);
        let lib = CloneLibrary { n_sts: 200, n_clones: 500, mean_clone_span: 8, scramble: true };
        let (ens, hidden) = lib.sample(&mut rng);
        assert_eq!(ens.n_atoms(), 200);
        assert_eq!(ens.n_columns(), 500);
        verify_linear(&ens, &hidden).expect("hidden genome order realizes the fingerprints");
    }

    #[test]
    fn genome_scale_matches_paper_shape() {
        let g = CloneLibrary::genome_scale();
        assert!((9_000..=15_000).contains(&g.n_sts));
        assert!((18_000..=25_000).contains(&g.n_clones));
    }

    #[test]
    fn unscrambled_library_uses_identity() {
        let mut rng = SmallRng::seed_from_u64(1);
        let lib = CloneLibrary { n_sts: 50, n_clones: 10, mean_clone_span: 5, scramble: false };
        let (ens, hidden) = lib.sample(&mut rng);
        assert_eq!(hidden, (0..50).collect::<Vec<_>>());
        // every clone is an interval of 0..50 directly
        for col in ens.columns() {
            assert_eq!(col.last().unwrap() - col.first().unwrap() + 1, col.len() as u32);
        }
    }

    #[test]
    fn retrieval_workload_is_c1p() {
        let mut rng = SmallRng::seed_from_u64(9);
        let w = RetrievalWorkload { n_records: 120, n_queries: 300, max_query_size: 10 };
        let (ens, hidden) = w.sample(&mut rng);
        verify_linear(&ens, &hidden).expect("hidden storage order serves all queries");
    }
}

//! Workload generators.
//!
//! The paper reports no datasets, only instance *shapes* (Section 1.1 cites
//! 18 000–25 000 clones and 9 000–15 000 STSs). These generators synthesize
//! instances of controllable shape:
//!
//! * [`planted_c1p`] — guaranteed-C1P instances with a hidden atom order
//!   (the positive workload for every experiment);
//! * [`random_ensemble`] — unconstrained random instances (almost surely not
//!   C1P once dense enough — the negative workload);
//! * [`planted`] / [`planted_k`] / [`planted_reject`] — the seeded standard
//!   workloads shared by the experiment harness (`c1p-bench`) and the
//!   serving load driver (`c1p-engine`), so every traffic generator in the
//!   workspace draws from a single definition.

use crate::ensemble::{Atom, Ensemble};
use crate::tucker::TuckerFamily;
use rand::rngs::SmallRng;
use rand::{Rng, RngExt, SeedableRng};

/// Fisher–Yates shuffle (local helper so we do not depend on `rand::seq`
/// API details).
pub fn shuffle<T>(xs: &mut [T], rng: &mut impl Rng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

/// A random permutation of `0..n`.
pub fn random_permutation(n: usize, rng: &mut impl Rng) -> Vec<Atom> {
    let mut p: Vec<Atom> = (0..n as Atom).collect();
    shuffle(&mut p, rng);
    p
}

/// Shape parameters for [`planted_c1p`].
#[derive(Debug, Clone, Copy)]
pub struct PlantedShape {
    /// Number of atoms `n`.
    pub n_atoms: usize,
    /// Number of columns `m`.
    pub n_columns: usize,
    /// Minimum column length (≥ 1).
    pub min_len: usize,
    /// Maximum column length (≤ n).
    pub max_len: usize,
}

/// Generates a C1P instance by planting intervals in a hidden random atom
/// order and then revealing the columns under scrambled atom names.
///
/// Returns `(ensemble, hidden_order)`; `hidden_order` is a witness
/// realization (the solver should find *some* realization, not necessarily
/// this one).
pub fn planted_c1p(shape: PlantedShape, rng: &mut impl Rng) -> (Ensemble, Vec<Atom>) {
    let PlantedShape { n_atoms, n_columns, min_len, max_len } = shape;
    assert!(n_atoms > 0, "need at least one atom");
    let min_len = min_len.clamp(1, n_atoms);
    let max_len = max_len.clamp(min_len, n_atoms);
    // hidden[i] = atom at position i of the hidden layout.
    let hidden = random_permutation(n_atoms, rng);
    let mut cols = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        let len = rng.random_range(min_len..=max_len);
        let start = rng.random_range(0..=n_atoms - len);
        let mut col: Vec<Atom> = hidden[start..start + len].to_vec();
        col.sort_unstable();
        cols.push(col);
    }
    let ens = Ensemble::from_sorted_columns(n_atoms, cols).expect("planted columns are valid");
    (ens, hidden)
}

/// Generates an unconstrained random ensemble: each entry is 1 with
/// probability `density`. With `density·n ≳ 3` such matrices are almost
/// surely not C1P, giving the rejection workload.
pub fn random_ensemble(
    n_atoms: usize,
    n_columns: usize,
    density: f64,
    rng: &mut impl Rng,
) -> Ensemble {
    let mut cols = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        let mut col = Vec::new();
        for a in 0..n_atoms as Atom {
            if rng.random_range(0.0..1.0) < density {
                col.push(a);
            }
        }
        cols.push(col);
    }
    Ensemble::from_sorted_columns(n_atoms, cols).expect("random columns are valid")
}

/// The standard planted instance used by the scaling experiments and the
/// serving load driver: `m = 2n` interval columns of mean length ≈ 12 (the
/// clone-coverage shape of Section 1.1), deterministic in `(n, seed)`.
///
/// Shared by `c1p-bench`'s workloads and `c1p-engine`'s `load_driver` so
/// every traffic generator in the workspace draws from one definition.
pub fn planted(n: usize, seed: u64) -> Ensemble {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC190u64);
    planted_c1p(
        PlantedShape { n_atoms: n, n_columns: 2 * n, min_len: 2, max_len: 24.min(n.max(3) - 1) },
        &mut rng,
    )
    .0
}

/// A planted instance with every column of length exactly `k` (density
/// factor `f = n/k`), for experiment E7.
pub fn planted_k(n: usize, m: usize, k: usize, seed: u64) -> Ensemble {
    let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
    planted_c1p(PlantedShape { n_atoms: n, n_columns: m, min_len: k, max_len: k }, &mut rng).0
}

/// The standard *rejection* workload: [`planted`]'s shape with one Tucker
/// obstruction (family cycled by `seed`) embedded at a seed-deterministic
/// offset — non-C1P at every size, with the obstruction buried in `2n`
/// satisfiable columns. Returns the ensemble and the planted family.
pub fn planted_reject(n: usize, seed: u64) -> (Ensemble, TuckerFamily) {
    let base = planted(n, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAD5EED);
    let k = 1 + rng.random_range(0..4usize);
    let fam = match seed % 5 {
        0 => TuckerFamily::MI(k),
        1 => TuckerFamily::MII(k),
        2 => TuckerFamily::MIII(k),
        3 => TuckerFamily::MIV,
        _ => TuckerFamily::MV,
    };
    let obs = fam.generate();
    assert!(n >= obs.n_atoms(), "rejection workload needs n >= family size");
    let offset = rng.random_range(0..=n - obs.n_atoms());
    let mut cols = base.columns().to_vec();
    cols.extend(
        obs.columns().iter().map(|c| c.iter().map(|&a| a + offset as Atom).collect::<Vec<_>>()),
    );
    (Ensemble::from_columns(n, cols).expect("embedded columns are valid"), fam)
}

/// A deterministic append-only session workload: `pushes` batches of
/// columns over a fixed atom set, every prefix of which is C1P (each
/// batch *extends* the ensemble — the traffic shape incremental sessions
/// serve). Produced by [`append_stream`] / [`append_stream_reject`];
/// shared by the `c1p-incremental` differential tests, experiment E12 and
/// `load_driver --mode sessions`, so every stream consumer in the
/// workspace draws from one definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendStream {
    /// Atom count fixed at session open.
    pub n_atoms: usize,
    /// The pushes, in arrival order; each is a batch of columns.
    pub pushes: Vec<Vec<Vec<Atom>>>,
}

impl AppendStream {
    /// Total columns across all pushes.
    pub fn n_columns(&self) -> usize {
        self.pushes.iter().map(Vec::len).sum()
    }

    /// The concatenated ensemble after the first `k` pushes (what a
    /// one-shot solve of the prefix sees).
    pub fn prefix_ensemble(&self, k: usize) -> Ensemble {
        let cols: Vec<Vec<Atom>> =
            self.pushes[..k].iter().flat_map(|p| p.iter().cloned()).collect();
        Ensemble::from_columns(self.n_atoms, cols).expect("stream columns are valid")
    }

    /// The full concatenated ensemble.
    pub fn final_ensemble(&self) -> Ensemble {
        self.prefix_ensemble(self.pushes.len())
    }

    /// Push `k` as a standalone delta ensemble (the `PushAtoms` payload).
    pub fn push_ensemble(&self, k: usize) -> Ensemble {
        Ensemble::from_columns(self.n_atoms, self.pushes[k].clone())
            .expect("stream columns are valid")
    }
}

/// The standard accept-only append stream: the atom set is partitioned
/// into `blocks` contiguous independent blocks, each carrying `2·size`
/// planted interval columns under a hidden per-block order; columns
/// arrive block by block (shuffled within a block) in `pushes` batches.
///
/// Every prefix is C1P (planted intervals stay realizable under any
/// subset), components never span blocks, and the stream's *suffix* is
/// block-local — the locality that makes differential re-solve win (a
/// late push touches the last block or two, not the whole ensemble).
/// Deterministic in `(n, blocks, pushes, seed)`.
pub fn append_stream(n: usize, blocks: usize, pushes: usize, seed: u64) -> AppendStream {
    assert!(n > 0 && pushes > 0, "need atoms and at least one push");
    let blocks = blocks.clamp(1, n);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA99E_5D12);
    let mut cols: Vec<Vec<Atom>> = Vec::new();
    let (base, rem) = (n / blocks, n % blocks);
    let mut start = 0usize;
    for b in 0..blocks {
        let size = base + usize::from(b < rem);
        if size == 0 {
            continue;
        }
        let (block, _) = planted_c1p(
            PlantedShape {
                n_atoms: size,
                n_columns: 2 * size,
                min_len: 2.min(size),
                max_len: 12.min(size),
            },
            &mut rng,
        );
        let mut block_cols: Vec<Vec<Atom>> = block
            .columns()
            .iter()
            .map(|c| c.iter().map(|&a| a + start as Atom).collect())
            .collect();
        shuffle(&mut block_cols, &mut rng);
        cols.extend(block_cols);
        start += size;
    }
    // chunk into `pushes` nearly-even batches, early batches one longer
    let total = cols.len();
    let (per, extra) = (total / pushes, total % pushes);
    let mut it = cols.into_iter();
    let pushes: Vec<Vec<Vec<Atom>>> = (0..pushes)
        .map(|i| {
            let take = per + usize::from(i < extra);
            it.by_ref().take(take).collect()
        })
        .collect();
    AppendStream { n_atoms: n, pushes }
}

/// [`append_stream`] with one Tucker obstruction (family cycled by
/// `seed`) confined to a seed-chosen block and spliced into a seed-chosen
/// push: every prefix before that push is C1P, the obstructed push is
/// not, and the stream after a rollback of that push is C1P again.
/// Returns `(stream, reject_push_index, planted_family)`.
pub fn append_stream_reject(
    n: usize,
    blocks: usize,
    pushes: usize,
    seed: u64,
) -> (AppendStream, usize, TuckerFamily) {
    let mut stream = append_stream(n, blocks, pushes, seed);
    let blocks = blocks.clamp(1, n);
    assert!(n / blocks >= 16, "reject embedding needs blocks of >= 16 atoms");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAD5_7BEA);
    let k = 1 + rng.random_range(0..3usize);
    let fam = match seed % 5 {
        0 => TuckerFamily::MI(k),
        1 => TuckerFamily::MII(k),
        2 => TuckerFamily::MIII(k),
        3 => TuckerFamily::MIV,
        _ => TuckerFamily::MV,
    };
    let obs = fam.generate();
    // land the obstruction inside one block so the rejection is
    // component-local (the interesting case for differential re-solve)
    let (base, rem) = (n / blocks, n % blocks);
    let block = rng.random_range(0..blocks);
    let start: usize = (0..block).map(|b| base + usize::from(b < rem)).sum();
    let size = base + usize::from(block < rem);
    let offset = start + rng.random_range(0..=size - obs.n_atoms());
    let push_ix = rng.random_range(0..stream.pushes.len());
    stream.pushes[push_ix].extend(
        obs.columns().iter().map(|c| c.iter().map(|&a| a + offset as Atom).collect::<Vec<_>>()),
    );
    (stream, push_ix, fam)
}

/// Parameters for [`mixed_schedule`], the standard served-traffic shape
/// shared by `c1p-engine`'s `load_driver`, experiment E11 and the
/// `engine_batch` example (one definition, three consumers — so the CI
/// gate and the bench always measure the same workload).
#[derive(Debug, Clone, Copy)]
pub struct MixedSchedule {
    /// Total requests in the schedule.
    pub requests: usize,
    /// Master seed; the schedule is deterministic in it.
    pub seed: u64,
    /// Every `dup_every`-th request replays an earlier fresh instance
    /// (`0` disables duplicates).
    pub dup_every: usize,
    /// Every `reject_every`-th request is a [`planted_reject`]
    /// (`0` disables rejects).
    pub reject_every: usize,
    /// Smallest instance size (≥ 16: the reject embedding needs room).
    pub n_lo: usize,
    /// Largest instance size (inclusive).
    pub n_hi: usize,
}

/// The standard mixed serving workload: fresh planted accepts, fresh
/// planted rejects, and seed-deterministic replays of earlier instances
/// (the traffic a result cache is supposed to absorb).
pub fn mixed_schedule(p: MixedSchedule) -> Vec<Ensemble> {
    let MixedSchedule { requests, seed, dup_every, reject_every, n_lo, n_hi } = p;
    assert!(n_lo >= 16 && n_hi >= n_lo, "reject embedding needs n >= 16");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x10AD_D81E);
    let mut schedule: Vec<Ensemble> = Vec::with_capacity(requests);
    let mut distinct: Vec<usize> = Vec::new(); // indices of fresh instances
    for i in 0..requests {
        if dup_every > 0 && i % dup_every == dup_every - 1 && !distinct.is_empty() {
            let j = distinct[rng.random_range(0..distinct.len())];
            schedule.push(schedule[j].clone());
            continue;
        }
        let n = rng.random_range(n_lo..=n_hi);
        let inst_seed = seed.wrapping_mul(1009).wrapping_add(i as u64);
        let ens = if reject_every > 0 && i % reject_every == reject_every - 1 {
            planted_reject(n, inst_seed).0
        } else {
            planted(n, inst_seed)
        };
        distinct.push(i);
        schedule.push(ens);
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_linear;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn planted_is_realized_by_hidden_order() {
        let mut rng = SmallRng::seed_from_u64(7);
        for n in [1usize, 2, 5, 40, 200] {
            let (ens, hidden) = planted_c1p(
                PlantedShape { n_atoms: n, n_columns: 3 * n, min_len: 1, max_len: (n / 3).max(2) },
                &mut rng,
            );
            verify_linear(&ens, &hidden).expect("hidden order must realize the planted instance");
        }
    }

    #[test]
    fn planted_shape_respected() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: 50, n_columns: 20, min_len: 3, max_len: 7 },
            &mut rng,
        );
        assert_eq!(ens.n_columns(), 20);
        assert!(ens.columns().iter().all(|c| (3..=7).contains(&c.len())));
    }

    #[test]
    fn planted_workloads_are_deterministic_and_shaped() {
        let a = planted(200, 1);
        assert_eq!(a, planted(200, 1));
        assert_eq!(a.n_columns(), 400);
        let e = planted_k(100, 50, 5, 3);
        assert!(e.columns().iter().all(|c| c.len() == 5));
        assert_eq!(e.density_factor(), Some(100.0 / 5.0));
        let (r, fam) = planted_reject(128, 2);
        let (r2, fam2) = planted_reject(128, 2);
        assert_eq!(r, r2);
        assert_eq!(fam, fam2);
        // the planted obstruction is really in there: its restriction to the
        // embedded window classifies back to the family (checked end-to-end
        // by the solver-differential tests in c1p-bench)
        assert!(r.n_columns() > 256, "base columns plus the obstruction's");
    }

    #[test]
    fn mixed_schedule_is_deterministic_with_replays() {
        let p = MixedSchedule {
            requests: 30,
            seed: 5,
            dup_every: 3,
            reject_every: 4,
            n_lo: 32,
            n_hi: 48,
        };
        let a = mixed_schedule(p);
        assert_eq!(a, mixed_schedule(p));
        assert_eq!(a.len(), 30);
        // replays really duplicate earlier entries
        let replayed = a.iter().enumerate().filter(|(i, e)| a[..*i].contains(e)).count();
        assert!(replayed >= 5, "expected replays in the schedule, saw {replayed}");
    }

    #[test]
    fn append_streams_are_deterministic_and_block_local() {
        let s = append_stream(64, 4, 10, 7);
        assert_eq!(s, append_stream(64, 4, 10, 7));
        assert_eq!(s.pushes.len(), 10);
        assert_eq!(s.n_columns(), 2 * 64, "2·size columns per block");
        assert_eq!(s.final_ensemble().n_columns(), s.n_columns());
        // no column crosses a block boundary (blocks of 16 atoms)
        for push in &s.pushes {
            for col in push {
                assert!(!col.is_empty());
                let block = col[0] / 16;
                assert!(col.iter().all(|&a| a / 16 == block), "column {col:?} crosses blocks");
            }
        }
        // nearly-even chunking: sizes differ by at most one
        let sizes: Vec<usize> = s.pushes.iter().map(Vec::len).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(hi - lo <= 1, "{sizes:?}");
    }

    #[test]
    fn append_stream_reject_plants_one_obstruction() {
        let (s, at, fam) = append_stream_reject(64, 4, 8, 3);
        let (s2, at2, fam2) = append_stream_reject(64, 4, 8, 3);
        assert_eq!((&s, at, fam), (&s2, at2, fam2), "deterministic");
        assert!(at < s.pushes.len());
        // the obstructed stream has exactly the base stream plus the
        // obstruction's columns, spliced into push `at`
        let base = append_stream(64, 4, 8, 3);
        assert_eq!(s.n_columns(), base.n_columns() + fam.generate().n_columns());
        for (i, (p, b)) in s.pushes.iter().zip(&base.pushes).enumerate() {
            if i == at {
                assert_eq!(&p[..b.len()], &b[..], "good columns keep their order");
            } else {
                assert_eq!(p, b, "only push {at} gains columns");
            }
        }
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = random_permutation(100, &mut rng);
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..100).collect::<Vec<_>>());
    }
}

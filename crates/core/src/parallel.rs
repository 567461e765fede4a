//! The parallel entries (paper Section 5 / Theorem 9).
//!
//! The recursion tree of `Path-Realization` has `O(log n)` depth with
//! independent siblings. [`solve_par`] and [`solve_component_par`] run
//! the one recursion of [`crate::solver`] under a fork policy resolved
//! here (`Sched`): near the root, the two children of a divide and the
//! components of a Case-2 growth run under `rayon::join`; below the
//! cutoff and the fork depth, and on a 1-thread pool, a subtree runs on
//! its thread exactly as the sequential entries run it. The steps inside
//! a node are sequential. Divide data lives in flat CSR arenas with
//! per-thread scratch pools ([`crate::flat`]) — rayon work-stealing
//! composes with the pools because every worker draws from its own
//! thread-local pool.
//!
//! Verdicts, orders, evidence, the `SolveStats` work counters and the
//! modelled PRAM cost are those of [`crate::solve_with`] on every input
//! and at every thread count (`tests/par_determinism.rs`); only the phase
//! timings depend on the pool. The per-node cost charges are listed in
//! the [`crate::solver`] module docs.
//!
//! [`pool`] and [`with_threads`] build a rayon pool of a fixed size, so
//! the speedup experiments (E3) and the thread-sweep tests can measure
//! and compare 1, 2, 4 and 8 threads.

use crate::cost::log2ceil;
use crate::solver::{component_realized, solve_components};
use crate::stats::SolveStats;
use crate::{Config, Rejection};
use c1p_matrix::{Atom, Ensemble};

/// Builds a dedicated rayon pool with `threads` workers. Measurement
/// loops should build once and `install` per rep — pool construction
/// and teardown (thread spawn/join) otherwise lands inside the timed
/// region.
pub fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build thread pool")
}

/// Runs `f` on a dedicated rayon thread pool with `threads` workers.
/// All rayon parallelism inside `f` is confined to that pool.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    pool(threads).install(f)
}

/// The fork policy of one solve: where the recursion may run independent
/// branches under `rayon::join`, adapted to subproblem size and depth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sched {
    /// Subproblems at or below this many atoms do not fork.
    seq_cutoff: usize,
    /// Recursion depth at or beyond which no new tasks are forked: by
    /// depth `d` the tree already exposes `~2^d` independent branches,
    /// so once that saturates the pool (with a 4× steal-balancing
    /// margin), further forks are pure overhead.
    fork_depth: usize,
}

impl Sched {
    /// The policy of the sequential entries: never fork.
    pub(crate) const NEVER: Sched = Sched { seq_cutoff: usize::MAX, fork_depth: 0 };

    /// Resolves the knobs against the current pool. With
    /// [`Config::AUTO_CUTOFF`] the cutoff targets ~8 leaf tasks per
    /// worker (steal balance without task spam); an explicit cutoff is
    /// honored verbatim. A single-thread pool never forks.
    fn resolve(cfg: &Config, n_root: usize) -> Sched {
        let threads = rayon::current_num_threads();
        let seq_cutoff = if cfg.seq_cutoff == Config::AUTO_CUTOFF {
            if threads <= 1 {
                usize::MAX
            } else {
                (n_root / (threads * 8)).clamp(64, 4096)
            }
        } else {
            cfg.seq_cutoff
        };
        let fork_depth = if threads <= 1 { 0 } else { log2ceil(threads) as usize + 2 };
        Sched { seq_cutoff, fork_depth }
    }

    /// May a subproblem (or a run of Case-2 components) of `k` atoms at
    /// recursion depth `depth` fork?
    pub(crate) fn forks(&self, k: usize, depth: usize) -> bool {
        depth < self.fork_depth && k > self.seq_cutoff
    }
}

/// Parallel C1P solve. Returns the verified witness order (or an
/// evidence-carrying [`Rejection`] in global atom ids) plus statistics
/// whose `cost` field carries the modelled PRAM work/depth.
///
/// Subproblems at or below the resolved sequential cutoff (see
/// [`Config::seq_cutoff`]) do not fork — task overhead dominates below
/// it. Everything but the phase timings equals [`crate::solve_with`]'s.
pub fn solve_par(ens: &Ensemble) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    solve_par_with(ens, &Config::default())
}

/// [`solve_par`] with configuration.
pub fn solve_par_with(ens: &Ensemble, cfg: &Config) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    solve_components(ens, cfg, &Sched::resolve(cfg, ens.n_atoms()))
}

/// The parallel twin of [`crate::solver::solve_component`]: realizes one
/// connected component (sorted global `atoms`, columns in ascending
/// column-id order) on the *current* rayon pool, resolving the PR-3
/// scheduling knobs against the component size. Output order and
/// rejection evidence are bit-identical to the sequential entry for every
/// thread count and cutoff (the `par_determinism` contract), so the
/// incremental solver can route large re-solves here without changing any
/// verdict byte.
pub fn solve_component_par<'a>(
    atoms: &[Atom],
    cols: impl Iterator<Item = &'a [Atom]>,
    cfg: &Config,
) -> Result<Vec<Atom>, Rejection> {
    let sched = Sched::resolve(cfg, atoms.len());
    component_realized(atoms, cols, cfg, &sched, &mut SolveStats::default(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::generate::{planted_c1p, PlantedShape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pool_restricts_thread_count() {
        let inside = with_threads(2, rayon::current_num_threads);
        assert_eq!(inside, 2);
    }

    #[test]
    fn work_runs_inside_pool() {
        use rayon::prelude::*;
        let xs: Vec<u64> = (0..1000).collect();
        let sum: u64 = with_threads(3, || {
            let ys: Vec<u64> = xs.par_iter().map(|&x| x).collect();
            ys.iter().sum()
        });
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn single_thread_pool() {
        let inside = with_threads(1, rayon::current_num_threads);
        assert_eq!(inside, 1);
    }

    #[test]
    fn parallel_agrees_with_sequential() {
        let mut rng = SmallRng::seed_from_u64(99);
        for n in [10usize, 100, 700] {
            let (ens, _) = planted_c1p(
                PlantedShape { n_atoms: n, n_columns: 2 * n, min_len: 2, max_len: n / 3 + 2 },
                &mut rng,
            );
            let (seq, _) = crate::solve_with(&ens, &Config::default());
            let (par, stats) = solve_par(&ens);
            assert_eq!(seq.is_ok(), par.is_ok());
            assert!(par.is_ok(), "planted instance accepted");
            assert!(stats.cost.work > 0);
            assert!(stats.cost.depth > 0);
        }
    }

    #[test]
    fn parallel_rejects_obstructions() {
        for (name, ens) in c1p_matrix::tucker::small_obstructions() {
            let (res, _) = solve_par(&ens);
            let rej = res.expect_err(name.as_str());
            assert!(!rej.atoms.is_empty(), "{name}: rejection carries evidence");
            assert!(rej.atoms.iter().all(|&a| (a as usize) < ens.n_atoms()), "{name}");
        }
    }

    #[test]
    fn seq_cutoff_sweep_agrees() {
        // the cutoff is a scheduling knob; verdicts must not depend on it
        let mut rng = SmallRng::seed_from_u64(17);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: 600, n_columns: 1200, min_len: 2, max_len: 80 },
            &mut rng,
        );
        let bad = c1p_matrix::tucker::embed_obstruction(
            &c1p_matrix::tucker::m_ii(2),
            600,
            123,
            &[(0, 200), (300, 200)],
        );
        for cutoff in [0usize, 4, 64, 256, 4096] {
            let cfg = Config { seq_cutoff: cutoff, ..Config::default() };
            assert!(solve_par_with(&ens, &cfg).0.is_ok(), "cutoff {cutoff}");
            assert!(solve_par_with(&bad, &cfg).0.is_err(), "cutoff {cutoff}");
        }
    }

    #[test]
    fn modelled_depth_is_polylog() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: 4096, n_columns: 8192, min_len: 2, max_len: 600 },
            &mut rng,
        );
        let (res, stats) = solve_par(&ens);
        assert!(res.is_ok());
        let lg = 12u64; // log2(4096)
        assert!(
            stats.cost.depth <= 40 * lg * lg,
            "modelled depth {} should be O(log² n)",
            stats.cost.depth
        );
    }
}

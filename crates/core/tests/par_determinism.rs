//! Thread-sweep determinism for the parallel driver (ISSUE 3).
//!
//! The scheduler (work-stealing pool, adaptive cutoff, parallel divide
//! and fan-out) must be *invisible* in the results: whatever the thread
//! count, `solve_par` must return exactly the order the sequential
//! solver returns on accepts, and the same verdict — with identical
//! evidence — on rejects. Combines are deterministic and sibling
//! results are consumed in a fixed order, so any divergence here means
//! a data race or a scheduling-dependent code path.

use c1p_core::parallel::solve_par;
use c1p_core::{solve, solve_with, Config};
use c1p_matrix::generate::{planted_c1p, PlantedShape};
use c1p_matrix::tucker;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn accepts_agree_with_sequential_across_thread_counts() {
    for (seed, n) in [(11u64, 300usize), (12, 900), (13, 2500)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: n, n_columns: 2 * n, min_len: 2, max_len: n / 3 + 2 },
            &mut rng,
        );
        let (expect, seq) = solve_with(&ens, &Config::default());
        let expect = expect.expect("planted instance accepted");
        for t in THREADS {
            let (got, stats) = c1p_pram::with_threads(t, || solve_par(&ens));
            let got = got.unwrap_or_else(|_| panic!("n={n} t={t}: parallel driver rejected"));
            assert_eq!(got, expect, "n={n} t={t}: order diverged from sequential");
            assert!(stats.cost.work > 0 && stats.cost.depth > 0, "n={n} t={t}");
            // the work counters count each subproblem once, whichever
            // path realizes it
            assert_eq!(stats.subproblems, seq.subproblems, "n={n} t={t}: subproblems");
            assert_eq!(stats.case1, seq.case1, "n={n} t={t}: case1");
            assert_eq!(stats.case2, seq.case2, "n={n} t={t}: case2");
            assert_eq!(stats.base_cases, seq.base_cases, "n={n} t={t}: base_cases");
        }
    }
}

#[test]
fn rejects_agree_with_sequential_across_thread_counts() {
    // planted instances with one embedded Tucker obstruction each
    let cases = [
        (600usize, tucker::m_i(3), 101usize),
        (600, tucker::m_ii(2), 102),
        (600, tucker::m_iii(2), 103),
        (600, tucker::m_iv(), 104),
        (600, tucker::m_v(), 105),
    ];
    for (n, obs, seed) in cases {
        let bad = tucker::embed_obstruction(&obs, n, seed, &[(0, n / 3), (n / 2, n / 3)]);
        let expect = solve(&bad).expect_err("obstruction must be rejected");
        for t in THREADS {
            let (got, _) = c1p_pram::with_threads(t, || solve_par(&bad));
            let rej = got.expect_err("parallel driver must reject");
            assert_eq!(rej.atoms, expect.atoms, "seed {seed} t={t}: evidence diverged");
        }
    }
    // the bare generators, swept too (tiny: exercises the base cases)
    for (name, ens) in tucker::small_obstructions() {
        for t in THREADS {
            let (got, _) = c1p_pram::with_threads(t, || solve_par(&ens));
            assert!(got.is_err(), "{name} t={t}: must reject");
        }
    }
}

#[test]
fn explicit_and_auto_cutoffs_agree() {
    let mut rng = SmallRng::seed_from_u64(77);
    let (ens, _) = planted_c1p(
        PlantedShape { n_atoms: 1200, n_columns: 2400, min_len: 2, max_len: 150 },
        &mut rng,
    );
    let expect = solve(&ens).unwrap();
    for t in [2usize, 4] {
        for cutoff in [0usize, 32, 512, Config::AUTO_CUTOFF] {
            let cfg = Config { seq_cutoff: cutoff, ..Config::default() };
            let (got, _) =
                c1p_pram::with_threads(t, || c1p_core::parallel::solve_par_with(&ens, &cfg));
            assert_eq!(got.unwrap(), expect, "t={t} cutoff={cutoff:#x}");
        }
    }
}

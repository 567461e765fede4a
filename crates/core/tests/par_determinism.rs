//! Thread-sweep determinism for the parallel entries.
//!
//! The scheduler (work-stealing pool, adaptive cutoff, forked divides
//! and component fan-out) must be *invisible* in the results: whatever
//! the thread count, `solve_par` must return exactly the order the
//! sequential solver returns on accepts, and the same verdict — with
//! identical evidence — on rejects. Both run one recursion, so the
//! `SolveStats` work counters and the modelled cost must match too, on
//! accepts and rejects alike. Combines are deterministic and sibling
//! results are consumed in a fixed order, so any divergence here means
//! a data race or a scheduling-dependent code path.

use c1p_core::parallel::{solve_par, solve_par_with, with_threads};
use c1p_core::{solve, solve_with, Config, SolveStats};
use c1p_matrix::generate::{planted_c1p, PlantedShape};
use c1p_matrix::tucker;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Asserts that `got` carries `expect`'s work counters and modelled cost:
/// every `SolveStats` field but the bitmat counter (always 0) and the
/// phase timings.
fn assert_same_counters(got: &SolveStats, expect: &SolveStats, what: &str) {
    let counters = |s: &SolveStats| {
        [
            ("subproblems", s.subproblems),
            ("max_depth", s.max_depth),
            ("case1", s.case1),
            ("case2", s.case2),
            ("base_cases", s.base_cases),
            ("decompositions", s.decompositions),
            ("members", s.members),
            ("fast_merges", s.fast_merges),
            ("csr_divides", s.csr_divides),
        ]
    };
    assert_eq!(counters(got), counters(expect), "{what}: work counters");
    assert_eq!(got.cost, expect.cost, "{what}: modelled cost");
}

/// Planted instances with one embedded Tucker obstruction each, keyed by
/// their embedding seed.
fn obstruction_cases() -> Vec<(usize, c1p_matrix::Ensemble)> {
    let cases = [
        (600usize, tucker::m_i(3), 101usize),
        (600, tucker::m_ii(2), 102),
        (600, tucker::m_iii(2), 103),
        (600, tucker::m_iv(), 104),
        (600, tucker::m_v(), 105),
    ];
    cases
        .into_iter()
        .map(|(n, obs, seed)| {
            (seed, tucker::embed_obstruction(&obs, n, seed, &[(0, n / 3), (n / 2, n / 3)]))
        })
        .collect()
}

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
            let (got, stats) = with_threads(t, || solve_par(&ens));
            let got = got.unwrap_or_else(|_| panic!("n={n} t={t}: parallel driver rejected"));
            assert_eq!(got, expect, "n={n} t={t}: order diverged from sequential");
            assert!(stats.cost.work > 0 && stats.cost.depth > 0, "n={n} t={t}");
            // the work counters count each subproblem once, whichever
            // path realizes it
            assert_eq!(stats.subproblems, seq.subproblems, "n={n} t={t}: subproblems");
            assert_eq!(stats.case1, seq.case1, "n={n} t={t}: case1");
            assert_eq!(stats.case2, seq.case2, "n={n} t={t}: case2");
            assert_eq!(stats.base_cases, seq.base_cases, "n={n} t={t}: base_cases");
            assert_same_counters(&stats, &seq, &format!("n={n} t={t}"));
        }
    }
}

#[test]
fn rejects_agree_with_sequential_across_thread_counts() {
    for (seed, bad) in obstruction_cases() {
        let expect = solve(&bad).expect_err("obstruction must be rejected");
        let (_, seq) = solve_with(&bad, &Config::default());
        for t in THREADS {
            let (got, stats) = with_threads(t, || solve_par(&bad));
            let rej = got.expect_err("parallel driver must reject");
            assert_eq!(rej.atoms, expect.atoms, "seed {seed} t={t}: evidence diverged");
            // the rejecting component counts its work up to the rejection
            assert!(stats.subproblems > 0, "seed {seed} t={t}: a reject counts its work");
            assert_same_counters(&stats, &seq, &format!("reject seed {seed} t={t}"));
        }
    }
    // the bare generators, swept too (tiny: exercises the base cases)
    for (name, ens) in tucker::small_obstructions() {
        for t in THREADS {
            let (got, _) = with_threads(t, || solve_par(&ens));
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
    let (expect, seq) = solve_with(&ens, &Config::default());
    let expect = expect.unwrap();
    for t in [2usize, 4] {
        for cutoff in [0usize, 32, 512, Config::AUTO_CUTOFF] {
            let cfg = Config { seq_cutoff: cutoff, ..Config::default() };
            let (got, stats) = with_threads(t, || solve_par_with(&ens, &cfg));
            assert_eq!(got.unwrap(), expect, "t={t} cutoff={cutoff:#x}");
            assert_same_counters(&stats, &seq, &format!("t={t} cutoff={cutoff:#x}"));
        }
    }
}

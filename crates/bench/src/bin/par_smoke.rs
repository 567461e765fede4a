//! CI smoke test for the parallel driver (the `par-smoke` job).
//!
//! ```text
//! cargo run --release -p c1p-bench --bin par_smoke -- --threads 2,4
//! ```
//!
//! Three checks, all fast enough for every-commit CI:
//!
//! 1. **Determinism sweep** — seeded planted + obstruction instances
//!    (n = 400–1900) solved at each requested thread count; verdict,
//!    witness order or evidence, the `SolveStats` work counters and the
//!    modelled cost must all match the sequential solver exactly. Both
//!    run one recursion, so any divergence means a data race or a
//!    scheduling-dependent code path.
//! 2. **Speedup gate** — a short E3-style run measuring the 4-thread
//!    self-relative speedup of `dc_parallel` at n=2^14, compared to
//!    [`SPEEDUP_FLOOR_4T`]. The floor is a constant of this binary, so
//!    the gate reads the same from any working directory and does not
//!    move when E10 re-records `BENCH_solve.json`; it catches the pool
//!    regressing to serialization, not absolute perf drift.
//! 3. **Align-tail gate** — the fastest of 3 sequential solves of
//!    `planted(2^14, 262)`, one of whose sides decomposes into a rigid
//!    member with a 9,626-edge ring and 18,775 chords, must spend no more
//!    time aligning (`PH_ALIGN`) than decomposing (`PH_DECOMPOSE`). Both
//!    phases are timed in the same solve, so host speed cancels; a `g`
//!    pick that scans the member once per chord (DESIGN.md §14) makes
//!    align about ten times decompose there. Meaningful in release builds
//!    only: a debug build reads align at about 0.7 of decompose even with
//!    the linear pick.
//!
//! Exits nonzero on any mismatch or regression.

use c1p_bench::workloads::planted;
use c1p_bench::{fmt_secs, median_time};
use c1p_core::cost::Cost;
use c1p_core::parallel::with_threads;
use c1p_core::stats::{PH_ALIGN, PH_DECOMPOSE};
use c1p_core::SolveStats;
use c1p_matrix::tucker;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The speedup gate's floor: a 4-thread self-relative speedup below this
/// fails. 0.759 is 85% of the 4-thread speedup one E10 run measured on a
/// 1-thread host (0.893), where the honest ceiling is 1.0; a pool that
/// serializes its work drops well under it on any host, while one run's
/// timing noise on a small host does not.
const SPEEDUP_FLOOR_4T: f64 = 0.759;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: Vec<usize> = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|t| t.trim().parse().expect("--threads takes n,n,…")).collect())
        .unwrap_or_else(|| vec![2, 4]);
    let mut failures = 0usize;

    // 1. determinism sweep
    println!("## determinism sweep (threads {threads:?})");
    let mut checked = 0usize;
    for seed in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(0x5A40_C0DE_u64.wrapping_add(seed));
        let n = 400 + 300 * seed as usize;
        let (ens, _) = c1p_matrix::generate::planted_c1p(
            c1p_matrix::generate::PlantedShape {
                n_atoms: n,
                n_columns: 2 * n,
                min_len: 2,
                max_len: n / 4 + 2,
            },
            &mut rng,
        );
        let (expect, seq) = c1p_core::solve_with(&ens, &c1p_core::Config::default());
        let expect = expect.expect("planted instance accepted");
        for &t in &threads {
            let (got, stats) = with_threads(t, || c1p_core::parallel::solve_par(&ens));
            checked += 1;
            if got.as_ref().ok() != Some(&expect) {
                eprintln!("FAIL: accept seed {seed} n={n} t={t}: order diverged");
                failures += 1;
            }
            if work(&stats) != work(&seq) {
                eprintln!(
                    "FAIL: accept seed {seed} n={n} t={t}: counters {:?} != sequential {:?}",
                    work(&stats),
                    work(&seq)
                );
                failures += 1;
            }
        }
        let bad = tucker::embed_obstruction(
            &tucker::m_iii(2),
            n,
            seed as usize,
            &[(0, n / 3), (n / 2, n / 3)],
        );
        let (expect_rej, seq) = c1p_core::solve_with(&bad, &c1p_core::Config::default());
        let expect_rej = expect_rej.expect_err("obstruction rejected");
        for &t in &threads {
            let (got, stats) = with_threads(t, || c1p_core::parallel::solve_par(&bad));
            checked += 1;
            if work(&stats) != work(&seq) {
                eprintln!(
                    "FAIL: reject seed {seed} t={t}: counters {:?} != sequential {:?}",
                    work(&stats),
                    work(&seq)
                );
                failures += 1;
            }
            match got {
                Err(rej) if rej.atoms == expect_rej.atoms => {}
                Err(_) => {
                    eprintln!("FAIL: reject seed {seed} t={t}: evidence diverged");
                    failures += 1;
                }
                Ok(_) => {
                    eprintln!("FAIL: reject seed {seed} t={t}: accepted an obstruction");
                    failures += 1;
                }
            }
        }
    }
    println!("checked {checked} (instance × thread-count) combinations");

    // 2. speedup gate
    println!("\n## speedup gate (dc_parallel, n=2^14, 1 vs 4 threads)");
    let ens = planted(1 << 14, 1);
    let (t1, ok1) =
        median_time(3, || with_threads(1, || c1p_core::parallel::solve_par(&ens).0.is_ok()));
    let (t4, ok4) =
        median_time(3, || with_threads(4, || c1p_core::parallel::solve_par(&ens).0.is_ok()));
    assert!(ok1 && ok4);
    let speedup = t1.as_secs_f64() / t4.as_secs_f64();
    let floor = SPEEDUP_FLOOR_4T;
    println!(
        "t1 {} | t4 {} | speedup {speedup:.2}x | floor {floor:.2}x",
        fmt_secs(t1),
        fmt_secs(t4)
    );
    if speedup < floor {
        eprintln!("FAIL: 4-thread self-relative speedup {speedup:.2}x < floor {floor:.2}x");
        failures += 1;
    }

    // 3. align-tail gate
    println!("\n## align-tail gate (solve_with, planted(2^14, 262), fastest of 3)");
    let ens = planted(1 << 14, 262);
    let cfg = c1p_core::Config::default();
    let (wall, stats) = (0..3)
        .map(|_| {
            let t0 = std::time::Instant::now();
            let (out, stats) = c1p_core::solve_with(&ens, &cfg);
            assert!(out.is_ok(), "planted instance accepted");
            (t0.elapsed(), stats)
        })
        .min_by_key(|&(wall, _)| wall)
        .expect("three solves");
    let align = std::time::Duration::from_nanos(stats.phase_ns[PH_ALIGN]);
    let decompose = std::time::Duration::from_nanos(stats.phase_ns[PH_DECOMPOSE]);
    println!(
        "solve {} | align {} | decompose {}",
        fmt_secs(wall),
        fmt_secs(align),
        fmt_secs(decompose)
    );
    if align > decompose {
        eprintln!(
            "FAIL: align {} exceeds decompose {} in the same solve",
            fmt_secs(align),
            fmt_secs(decompose)
        );
        failures += 1;
    }

    if failures > 0 {
        eprintln!("\npar_smoke: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("\npar_smoke: all checks passed");
}

/// The `SolveStats` work counters and the modelled cost: everything the
/// parallel entries must share with the sequential one.
fn work(s: &SolveStats) -> ([usize; 9], Cost) {
    let counters = [
        s.subproblems,
        s.max_depth,
        s.case1,
        s.case2,
        s.base_cases,
        s.decompositions,
        s.members,
        s.fast_merges,
        s.csr_divides,
    ];
    (counters, s.cost)
}

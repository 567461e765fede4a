//! End-to-end solver benchmarks (E10): divide-and-conquer vs the
//! Booth–Lueker baseline, accept and reject paths, and the
//! certified-rejection pipeline.

use c1p_bench::workloads::{planted, planted_reject};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("solve_planted");
    g.sample_size(10);
    for k in [10usize, 12, 14] {
        let n = 1 << k;
        let ens = planted(n, 1);
        let cols = ens.columns().to_vec();
        g.throughput(Throughput::Elements(ens.p() as u64));
        g.bench_with_input(BenchmarkId::new("dc", n), &ens, |b, e| {
            b.iter(|| c1p_core::solve(e).is_ok())
        });
        g.bench_with_input(BenchmarkId::new("pqtree", n), &cols, |b, cols| {
            b.iter(|| c1p_pqtree::solve(n, cols).is_some())
        });
        g.bench_with_input(BenchmarkId::new("dc_parallel", n), &ens, |b, e| {
            b.iter(|| c1p_core::parallel::solve_par(e).0.is_ok())
        });
    }
    g.finish();

    // The divide step on the live representation, isolated — rerun this
    // group before/after a change to the split path to see its effect
    // without whole-solver noise.
    let mut g = c.benchmark_group("split");
    g.sample_size(20);
    for k in [12usize, 14] {
        let n = 1 << k;
        let ens = planted(n, 1);
        let sub =
            c1p_core::solver::SubProblem { n, cols: c1p_core::FlatCols::from_cols(ens.columns()) };
        let a1: Vec<u32> = (0..(n / 2) as u32).collect();
        g.throughput(Throughput::Elements(ens.p() as u64));
        g.bench_with_input(BenchmarkId::new("prepare", n), &sub, |b, s| {
            b.iter(|| c1p_core::solver::prepare_split(s, &a1).sub1.n)
        });
    }
    g.finish();

    let mut g = c.benchmark_group("solve_reject");
    g.sample_size(10);
    for n in [256usize, 2048] {
        // obstruction embedded mid-instance: rejection path
        let emb = c1p_matrix::tucker::embed_obstruction(
            &c1p_matrix::tucker::m_iv(),
            n,
            n / 2,
            &[(0, n / 3), (n / 3, n / 3), (2 * n / 3, n / 4)],
        );
        g.bench_with_input(BenchmarkId::new("dc", n), &emb, |b, e| {
            b.iter(|| c1p_core::solve(e).is_err())
        });
        let cols = emb.columns().to_vec();
        g.bench_with_input(BenchmarkId::new("pqtree", n), &cols, |b, cols| {
            b.iter(|| c1p_pqtree::solve(n, cols).is_none())
        });
    }
    g.finish();

    // The certificate pipeline on the standard rejection workload:
    // plain reject vs reject + witness extraction vs the independent
    // checker alone. The extraction overhead is the price of a checkable
    // answer (DESIGN.md §7); E10 records the same split into
    // BENCH_solve.json.
    let mut g = c.benchmark_group("certify");
    g.sample_size(10);
    for k in [10usize, 12, 14] {
        let n = 1 << k;
        // two planted families: constant-size M_IV (seed 3) and the
        // parameterized M_I(k) (seed 5), whose witness size varies —
        // E10 additionally medians across all five families
        for (fam_label, seed) in [("m_iv", 3u64), ("m_i", 5)] {
            let (emb, _) = planted_reject(n, seed);
            g.bench_with_input(BenchmarkId::new(format!("reject_plain_{fam_label}"), n), &emb, {
                |b, e| b.iter(|| c1p_core::solve(e).is_err())
            });
            g.bench_with_input(
                BenchmarkId::new(format!("reject_certified_{fam_label}"), n),
                &emb,
                |b, e| {
                    b.iter(|| {
                        let rej = c1p_core::solve(e).unwrap_err();
                        c1p_cert::extract_witness(e, &rej).unwrap().family
                    })
                },
            );
            let rej = c1p_core::solve(&emb).unwrap_err();
            let witness = c1p_cert::extract_witness(&emb, &rej).unwrap();
            g.bench_with_input(
                BenchmarkId::new(format!("verify_witness_{fam_label}"), n),
                &emb,
                |b, e| b.iter(|| c1p_cert::verify_witness(e, &witness).is_ok()),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);

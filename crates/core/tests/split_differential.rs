//! Differential tests for the flat-CSR divide path.
//!
//! Two layers of evidence that the CSR rewrite preserved the seed
//! semantics exactly:
//!
//! 1. `prepare_split` is compared column-by-column against the seed's
//!    nested-vec divide (kept below as this test's private reference),
//!    including its `sort_unstable` — which the monotone-renumbering
//!    argument says is the identity on already-sorted projections, and
//!    these tests confirm it.
//! 2. The whole solver is compared against the independent Booth–Lueker
//!    baseline (`c1p-pqtree`) on random ensembles — accept and reject
//!    paths — plus exhaustive small instances.

use c1p_core::solver::{prepare_split, SubProblem};
use c1p_core::FlatCols;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

// ---------------------------------------------------------------------
// the reference: the seed's nested-vec divide, including the per-level
// `sort_unstable` the CSR path proved redundant
// ---------------------------------------------------------------------

/// Nested-vec subproblem (the seed representation).
struct NaiveSub {
    n: usize,
    cols: Vec<Vec<u32>>,
}

/// One split column: segment part, host part, crossing class
/// (0 = type a, 1 = type b, 2 = type c).
struct NaiveSplitColumn {
    seg_part: Vec<u32>,
    host_part: Vec<u32>,
    ty: u8,
}

/// The seed's `prepare_split`: per-column heap vectors, then projection
/// with a sort per kept column.
fn naive_prepare_split(sub: &NaiveSub, a1: &[u32]) -> (Vec<NaiveSplitColumn>, NaiveSub, NaiveSub) {
    let k = sub.n;
    let mut in_a1 = vec![false; k];
    for &a in a1 {
        in_a1[a as usize] = true;
    }
    let a2: Vec<u32> = (0..k as u32).filter(|&a| !in_a1[a as usize]).collect();
    let mut split_cols: Vec<NaiveSplitColumn> = Vec::with_capacity(sub.cols.len());
    for col in &sub.cols {
        let (mut seg_part, mut host_part) = (Vec::new(), Vec::new());
        for &a in col {
            if in_a1[a as usize] {
                seg_part.push(a);
            } else {
                host_part.push(a);
            }
        }
        let ty = if host_part.is_empty() || seg_part.is_empty() {
            2
        } else if seg_part.len() == a1.len() {
            0
        } else {
            1
        };
        split_cols.push(NaiveSplitColumn { seg_part, host_part, ty });
    }
    let project = |atoms: &[u32], seg_side: bool| -> NaiveSub {
        let mut place = vec![u32::MAX; atoms.iter().map(|&a| a as usize + 1).max().unwrap_or(0)];
        for (i, &a) in atoms.iter().enumerate() {
            place[a as usize] = i as u32;
        }
        let mut cols = Vec::new();
        for sc in &split_cols {
            let part = if seg_side { &sc.seg_part } else { &sc.host_part };
            if part.len() >= 2 && part.len() < atoms.len() {
                let mut local: Vec<u32> = part.iter().map(|&a| place[a as usize]).collect();
                local.sort_unstable();
                cols.push(local);
            }
        }
        NaiveSub { n: atoms.len(), cols }
    };
    let sub1 = project(a1, true);
    let sub2 = project(&a2, false);
    (split_cols, sub1, sub2)
}

// ---------------------------------------------------------------------
// layer 1: the divide against the seed's nested-vec semantics
// ---------------------------------------------------------------------

fn random_subproblem(rng: &mut SmallRng, max_n: usize, max_m: usize) -> SubProblem {
    let n = rng.random_range(3..=max_n);
    let m = rng.random_range(1..=max_m);
    let mut cols = FlatCols::new();
    for _ in 0..m {
        let len = rng.random_range(2..=n);
        let start = rng.random_range(0..=n - len);
        // a random sorted subset: interval or scattered mask
        if rng.random_range(0..2usize) == 0 {
            cols.push_col(start as u32..(start + len) as u32);
        } else {
            let picked: Vec<u32> =
                (0..n as u32).filter(|_| rng.random_range(0..3usize) == 0).collect();
            if picked.len() >= 2 {
                cols.push_col(picked);
            } else {
                cols.push_col([0, n as u32 - 1]);
            }
        }
    }
    SubProblem { n, cols }
}

#[test]
fn flat_divide_matches_seed_semantics() {
    for seed in 0..400u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let sub = random_subproblem(&mut rng, 24, 8);
        let n = sub.n;
        // random proper A1 (nonempty, not everything)
        let a1: Vec<u32> = loop {
            let cut: Vec<u32> =
                (0..n as u32).filter(|_| rng.random_range(0..2usize) == 0).collect();
            if !cut.is_empty() && cut.len() < n {
                break cut;
            }
        };
        let nested = NaiveSub { n, cols: sub.cols.iter().map(|c| c.to_vec()).collect() };
        let (ref_split, ref_sub1, ref_sub2) = naive_prepare_split(&nested, &a1);
        let got = prepare_split(&sub, &a1);
        assert_eq!(got.a1, a1, "seed {seed}");
        assert_eq!(got.split_cols.len(), ref_split.len(), "seed {seed}");
        for (ci, sc) in ref_split.iter().enumerate() {
            assert_eq!(got.split_cols.seg(ci), sc.seg_part.as_slice(), "seed {seed} col {ci}");
            assert_eq!(got.split_cols.host(ci), sc.host_part.as_slice(), "seed {seed} col {ci}");
            // CrossType discriminants: A=0, B=1, C=2 (naive.ty encoding)
            assert_eq!(got.split_cols.ty(ci) as u8, sc.ty, "seed {seed} col {ci}");
        }
        assert_eq!(got.sub1.n, ref_sub1.n, "seed {seed}");
        assert_eq!(got.sub2.n, ref_sub2.n, "seed {seed}");
        let got_cols1: Vec<Vec<u32>> = got.sub1.cols.iter().map(|c| c.to_vec()).collect();
        let got_cols2: Vec<Vec<u32>> = got.sub2.cols.iter().map(|c| c.to_vec()).collect();
        assert_eq!(got_cols1, ref_sub1.cols, "seed {seed}: segment projection differs");
        assert_eq!(got_cols2, ref_sub2.cols, "seed {seed}: host projection differs");
    }
}

/// Asserts `prepare_split` matches the seed's nested-vec divide, field by
/// field.
fn check_divide(sub: &SubProblem, a1: &[u32], what: &str) {
    let nested = NaiveSub { n: sub.n, cols: sub.cols.iter().map(|c| c.to_vec()).collect() };
    let (ref_split, ref_sub1, ref_sub2) = naive_prepare_split(&nested, a1);
    let got = prepare_split(sub, a1);
    assert_eq!(got.a1, a1, "{what}");
    assert_eq!(got.a1.len() + got.a2.len(), sub.n, "{what}");
    assert_eq!(got.split_cols.len(), ref_split.len(), "{what}");
    for (ci, sc) in ref_split.iter().enumerate() {
        assert_eq!(got.split_cols.seg(ci), sc.seg_part.as_slice(), "{what} col {ci}");
        assert_eq!(got.split_cols.host(ci), sc.host_part.as_slice(), "{what} col {ci}");
        assert_eq!(got.split_cols.ty(ci) as u8, sc.ty, "{what} col {ci}");
    }
    let got_cols1: Vec<Vec<u32>> = got.sub1.cols.iter().map(|c| c.to_vec()).collect();
    let got_cols2: Vec<Vec<u32>> = got.sub2.cols.iter().map(|c| c.to_vec()).collect();
    assert_eq!((got.sub1.n, got.sub2.n), (ref_sub1.n, ref_sub2.n), "{what}");
    assert_eq!(got_cols1, ref_sub1.cols, "{what}: segment projection differs");
    assert_eq!(got_cols2, ref_sub2.cols, "{what}: host projection differs");
}

/// A random sorted subset of `from` with `len` atoms (clamped to `from`).
fn pick(rng: &mut SmallRng, from: &[u32], len: usize) -> Vec<u32> {
    let len = len.min(from.len());
    let mut out: Vec<u32> = Vec::with_capacity(len);
    // selection sampling keeps the output ascending without a sort
    let mut need = len;
    for (i, &a) in from.iter().enumerate() {
        if rng.random_range(0..from.len() - i) < need {
            out.push(a);
            need -= 1;
        }
    }
    out
}

/// Columns of the shapes the one-pass divide must get right: all of `A1`
/// (type A), `A1` plus some host atoms, entirely inside one side (type C,
/// including all of `A2`), one atom on a side (a singleton restriction,
/// dropped from that side's projection), and scattered crossings.
fn edge_columns(rng: &mut SmallRng, a1: &[u32], a2: &[u32], m: usize) -> FlatCols {
    let mut cols = FlatCols::new();
    let merge = |x: &[u32], y: &[u32]| -> Vec<u32> {
        let mut c: Vec<u32> = x.iter().chain(y).copied().collect();
        c.sort_unstable();
        c
    };
    while cols.n_cols() < m {
        let (h1, h2) = (rng.random_range(0..=a1.len()), rng.random_range(0..=a2.len()));
        let col = match rng.random_range(0..8u32) {
            0 => a1.to_vec(),
            1 => merge(a1, &pick(rng, a2, h2)),
            2 => pick(rng, a1, h1),
            3 => pick(rng, a2, h2),
            4 => a2.to_vec(),
            5 => merge(&pick(rng, a1, 1), &pick(rng, a2, h2)),
            6 => merge(&pick(rng, a1, h1), &pick(rng, a2, 1)),
            _ => merge(&pick(rng, a1, h1), &pick(rng, a2, h2)),
        };
        if col.len() >= 2 {
            cols.push_col(col);
        }
    }
    cols
}

#[test]
fn divide_edge_shapes_match_the_oracle() {
    let mut case = 0u64;
    for k in [3usize, 4, 5, 17, 64, 255, 1024, 4096] {
        for side in 0..4u32 {
            case += 1;
            let mut rng = SmallRng::seed_from_u64(0xED6E ^ case);
            let all: Vec<u32> = (0..k as u32).collect();
            // |A1| = 1, |A2| = 1, a random cut, a contiguous block
            let a1: Vec<u32> = match side {
                0 => pick(&mut rng, &all, 1),
                1 => {
                    let out = rng.random_range(0..k as u32);
                    all.iter().copied().filter(|&a| a != out).collect()
                }
                2 => {
                    let len = rng.random_range(1..k);
                    pick(&mut rng, &all, len)
                }
                _ => {
                    let len = rng.random_range(1..k);
                    let lo = rng.random_range(0..=k - len) as u32;
                    (lo..lo + len as u32).collect()
                }
            };
            let a2: Vec<u32> =
                all.iter().copied().filter(|a| a1.binary_search(a).is_err()).collect();
            // many columns on small sizes, fewer on large ones
            let m = if k <= 255 { 600 } else { 24 };
            let cols = edge_columns(&mut rng, &a1, &a2, m);
            check_divide(&SubProblem { n: k, cols }, &a1, &format!("k {k} side {side}"));
        }
    }
}

// ---------------------------------------------------------------------
// layer 2: whole-solver differential vs Booth–Lueker
// ---------------------------------------------------------------------

fn mask_ensemble(rng: &mut SmallRng, max_n: usize, max_m: usize) -> c1p_matrix::Ensemble {
    let n = rng.random_range(2..=max_n);
    let m = rng.random_range(0..=max_m);
    let cols: Vec<Vec<u32>> = (0..m)
        .map(|_| {
            let mask = rng.random_range(1u64..(1 << n));
            (0..n as u32).filter(|&a| mask >> a & 1 == 1).collect()
        })
        .collect();
    c1p_matrix::Ensemble::from_columns(n, cols).unwrap()
}

#[test]
fn solver_matches_pqtree_on_random_accept_and_reject() {
    let mut accepts = 0usize;
    let mut rejects = 0usize;
    for seed in 0..600u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ seed);
        let ens = mask_ensemble(&mut rng, 10, 7);
        let dc = c1p_core::solve(&ens);
        let pq = c1p_pqtree::solve(ens.n_atoms(), ens.columns());
        assert_eq!(dc.is_ok(), pq.is_some(), "seed {seed}:\n{}", ens.to_matrix());
        if let Ok(o) = &dc {
            accepts += 1;
            c1p_matrix::verify_linear(&ens, o).unwrap();
        } else {
            rejects += 1;
        }
    }
    // both paths must actually be exercised for the test to mean anything
    assert!(accepts > 50, "too few accepts ({accepts}) — workload drifted");
    assert!(rejects > 50, "too few rejects ({rejects}) — workload drifted");
}

#[test]
fn solver_matches_pqtree_on_planted_with_noise() {
    for seed in 0..120u64 {
        let mut rng = SmallRng::seed_from_u64(0xA150 ^ seed);
        let n = rng.random_range(16..=160);
        let (ens, _) = c1p_matrix::generate::planted_c1p(
            c1p_matrix::generate::PlantedShape {
                n_atoms: n,
                n_columns: 2 * n,
                min_len: 2,
                max_len: (n / 3).max(2),
            },
            &mut rng,
        );
        // clean planted: must accept
        assert!(c1p_core::solve(&ens).is_ok(), "seed {seed}: clean planted rejected");
        // flip a handful of random entries; whatever the verdict, it must
        // match the PQ-tree baseline
        let mut mat = ens.to_matrix();
        for _ in 0..4 {
            let r = rng.random_range(0..mat.n_rows());
            let c = rng.random_range(0..mat.n_cols());
            mat.flip(r, c);
        }
        let noisy = mat.to_ensemble();
        let pq = c1p_pqtree::solve(noisy.n_atoms(), noisy.columns()).is_some();
        let pure = c1p_core::solve(&noisy).is_ok();
        assert_eq!(pure, pq, "seed {seed}: pure divide-and-conquer vs pqtree");
    }
}

#[test]
fn solver_matches_brute_force_exhaustively() {
    // every ≤ 3-column ensemble over 4 atoms
    let n = 4usize;
    let masks = 1u32 << n;
    for c1 in 0..masks {
        for c2 in 0..masks {
            for c3 in [0u32, 0b0110, 0b1011] {
                let cols: Vec<Vec<u32>> = [c1, c2, c3]
                    .iter()
                    .map(|&m| (0..n as u32).filter(|&a| m >> a & 1 == 1).collect())
                    .collect();
                let ens = c1p_matrix::Ensemble::from_columns(n, cols).unwrap();
                let dc = c1p_core::solve(&ens).is_ok();
                let brute = c1p_matrix::verify::brute_force_linear(&ens).is_some();
                assert_eq!(dc, brute, "mismatch:\n{}", ens.to_matrix());
            }
        }
    }
}

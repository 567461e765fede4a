//! `Ensemble::components` against a union-find reference on random
//! ensembles with isolated atoms, empty columns and duplicate columns.

use c1p_matrix::{Atom, Ensemble};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// Unions the atoms of every column, then lists components in order of
/// their smallest atom; a nonempty column belongs to its first atom's
/// component, an empty one to none.
fn union_find_components(ens: &Ensemble) -> Vec<(Vec<Atom>, Vec<u32>)> {
    let n = ens.n_atoms();
    let mut parent: Vec<usize> = (0..n).collect();
    for col in ens.columns() {
        for w in col.windows(2) {
            let (ra, rb) = (find(&mut parent, w[0] as usize), find(&mut parent, w[1] as usize));
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    let mut slot = vec![usize::MAX; n];
    let mut comps: Vec<(Vec<Atom>, Vec<u32>)> = Vec::new();
    for a in 0..n {
        let r = find(&mut parent, a);
        if slot[r] == usize::MAX {
            slot[r] = comps.len();
            comps.push((Vec::new(), Vec::new()));
        }
        comps[slot[r]].0.push(a as Atom);
    }
    for (ci, col) in ens.columns().iter().enumerate() {
        if let Some(&a) = col.first() {
            let r = find(&mut parent, a as usize);
            comps[slot[r]].1.push(ci as u32);
        }
    }
    comps
}

/// Sparse random columns over `n` atoms, so many atoms stay isolated and
/// the graph splits into several components; some columns are empty and
/// some repeat an earlier one.
fn random_ensemble(rng: &mut SmallRng) -> Ensemble {
    let n = rng.random_range(1..=200usize);
    let m = rng.random_range(0..=n);
    let mut cols: Vec<Vec<Atom>> = Vec::with_capacity(m);
    for _ in 0..m {
        let col = match rng.random_range(0..8u32) {
            0 => Vec::new(),
            1 if !cols.is_empty() => cols[rng.random_range(0..cols.len())].clone(),
            _ => {
                let len = rng.random_range(1..=n.min(6));
                let mut c: Vec<Atom> = (0..len).map(|_| rng.random_range(0..n) as Atom).collect();
                c.sort_unstable();
                c.dedup();
                c
            }
        };
        cols.push(col);
    }
    Ensemble::from_columns(n, cols).unwrap()
}

#[test]
fn components_match_union_find() {
    let (mut isolated, mut empty, mut dup) = (0usize, 0usize, 0usize);
    for seed in 0..500u64 {
        let mut rng = SmallRng::seed_from_u64(0xC0C0 ^ seed);
        let ens = random_ensemble(&mut rng);
        let got = ens.components();
        assert_eq!(got, union_find_components(&ens), "seed {seed}: {ens:?}");
        isolated += got.iter().filter(|(atoms, cols)| atoms.len() == 1 && cols.is_empty()).count();
        empty += ens.columns().iter().filter(|c| c.is_empty()).count();
        let cols = ens.columns();
        dup += (1..cols.len()).filter(|&i| cols[..i].contains(&cols[i])).count();
    }
    // the shapes the test is about must actually occur
    assert!(isolated > 500, "too few isolated atoms ({isolated})");
    assert!(empty > 200, "too few empty columns ({empty})");
    assert!(dup > 200, "too few duplicate columns ({dup})");
}

#[test]
fn components_of_degenerate_ensembles() {
    assert!(Ensemble::new(0).components().is_empty());
    let ens = Ensemble::from_columns(3, vec![vec![], vec![], vec![1]]).unwrap();
    assert_eq!(ens.components(), vec![(vec![0], vec![]), (vec![1], vec![2]), (vec![2], vec![])]);
    let ens = Ensemble::from_columns(4, vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![]]).unwrap();
    assert_eq!(ens.components(), vec![(vec![0, 2], vec![1]), (vec![1, 3], vec![0, 2])]);
}

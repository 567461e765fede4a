//! Determinism of the served path: batch order, chunking and the
//! engine thread count must not change a single bit of any verdict or
//! its evidence.

use c1p_engine::{Engine, EngineConfig, Verdict};
use c1p_matrix::generate::{planted, planted_reject};
use c1p_matrix::Ensemble;

/// A mixed schedule with duplicates and both verdict classes. `n > 64`
/// instances exercise the large/parallel path under the lowered cutoff.
fn schedule() -> Vec<Ensemble> {
    let mut s = Vec::new();
    for seed in 0..6u64 {
        s.push(planted(40 + 13 * seed as usize, seed));
        s.push(planted_reject(48 + 9 * seed as usize, seed).0);
    }
    s.push(planted(120, 17));
    s.push(planted_reject(130, 18).0);
    // duplicates, some column-permuted
    s.push(s[0].clone());
    s.push(s[3].clone());
    let perm =
        Ensemble::from_columns(s[1].n_atoms(), s[1].columns().iter().rev().cloned().collect())
            .unwrap();
    s.push(perm);
    s
}

fn engine_with(threads: usize) -> Engine {
    // cutoff below the largest instances so both solve paths participate
    Engine::new(EngineConfig { threads, small_cutoff: 64, ..EngineConfig::default() })
}

fn solve_all_one_batch(threads: usize, reqs: &[Ensemble]) -> Vec<Verdict> {
    engine_with(threads)
        .solve_batch(reqs)
        .into_iter()
        .map(|r| r.expect("no admission failures in this schedule"))
        .collect()
}

#[test]
fn batch_order_and_chunking_do_not_change_verdicts() {
    let reqs = schedule();
    let baseline = solve_all_one_batch(1, &reqs);
    // reversed submission order
    let reversed_reqs: Vec<Ensemble> = reqs.iter().rev().cloned().collect();
    let mut reversed = solve_all_one_batch(1, &reversed_reqs);
    reversed.reverse();
    assert_eq!(baseline, reversed, "batch order changed a verdict");
    // chunked into small batches on a fresh engine (cache warm across chunks)
    let engine = engine_with(1);
    let mut chunked = Vec::new();
    for chunk in reqs.chunks(5) {
        chunked.extend(engine.solve_batch(chunk).into_iter().map(|r| r.unwrap()));
    }
    assert_eq!(baseline, chunked, "chunking changed a verdict");
    // singles
    let engine = engine_with(1);
    let singles: Vec<Verdict> = reqs.iter().map(|e| engine.solve(e).unwrap()).collect();
    assert_eq!(baseline, singles, "single-solve path changed a verdict");
}

#[test]
fn thread_count_does_not_change_verdicts() {
    let reqs = schedule();
    let t1 = solve_all_one_batch(1, &reqs);
    for threads in [2, 4] {
        let tn = solve_all_one_batch(threads, &reqs);
        assert_eq!(t1, tn, "thread count {threads} changed a verdict");
    }
}

#[test]
fn wire_projection_round_trips_real_verdicts() {
    use c1p_matrix::io::{decode_verdict, encode_verdict};
    let engine = engine_with(1);
    for req in schedule().iter().take(6) {
        let v = engine.solve(req).unwrap();
        let wire = v.to_wire();
        assert_eq!(decode_verdict(&encode_verdict(&wire)).unwrap(), wire);
    }
}

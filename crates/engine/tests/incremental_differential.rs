//! The incremental-session contract: every push verdict — witness order,
//! rejection evidence, Tucker witness — is **bit-identical** to a one-shot
//! `solve_certified` of the concatenated ensemble, for accept-only
//! streams, reject-at-k streams, and interleaved sessions, swept across
//! 1/2/4/8-thread pools and auto/explicit cutoffs with both the
//! sequential and the parallel component-re-solve routes.

use c1p_cert::{solve_certified, CertifiedRejection};
use c1p_core::Config;
use c1p_engine::{Engine, EngineConfig, Verdict};
use c1p_incremental::IncrementalSolver;
use c1p_matrix::generate::{append_stream, append_stream_reject, AppendStream};
use c1p_matrix::{Atom, Ensemble};

/// The one-shot reference verdict for an accepted prefix + push.
fn one_shot(n: usize, cols: &[Vec<Atom>]) -> Result<Vec<Atom>, CertifiedRejection> {
    solve_certified(&Ensemble::from_columns(n, cols.to_vec()).unwrap())
}

/// Drives `stream` through a fresh solver configured by `(cfg,
/// par_cutoff)` under an explicitly sized pool, asserting every verdict
/// against the one-shot reference. Returns the per-push verdicts so
/// sweeps can additionally be compared against each other.
fn drive(
    stream: &AppendStream,
    threads: usize,
    cfg: Config,
    par_cutoff: usize,
) -> Vec<Result<Vec<Atom>, (c1p_core::Rejection, c1p_cert::TuckerWitness)>> {
    let n = stream.n_atoms;
    let pool = c1p_core::parallel::pool(threads);
    let mut inc = IncrementalSolver::with_config(n, cfg, par_cutoff);
    let mut accepted: Vec<Vec<Atom>> = Vec::new();
    let mut out = Vec::new();
    for (k, push) in stream.pushes.iter().enumerate() {
        let delta = stream.push_ensemble(k);
        let got = pool.install(|| inc.push(&delta));
        let mut concat = accepted.clone();
        concat.extend(push.iter().cloned());
        let expect = one_shot(n, &concat);
        match (&got, &expect) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "push {k}: accept order differs from one-shot");
                accepted = concat;
            }
            (Err(g), Err(e)) => {
                assert_eq!(g.rejection, e.rejection, "push {k}: rejection evidence differs");
                assert_eq!(g.witness, e.witness, "push {k}: Tucker witness differs");
            }
            _ => panic!(
                "push {k}: verdict class mismatch (incremental {:?} vs one-shot {:?})",
                got.is_ok(),
                expect.is_ok()
            ),
        }
        out.push(got.map_err(|c| (c.rejection, c.witness)));
    }
    // the final state is exactly the accepted concatenation
    assert_eq!(inc.ensemble(), &Ensemble::from_columns(n, accepted).unwrap());
    out
}

#[test]
fn accept_only_streams_bit_identical_across_threads_and_cutoffs() {
    for seed in [1u64, 2] {
        let stream = append_stream(96, 6, 6, seed);
        // reference sweep point: 1 thread, default config, sequential route
        let base = drive(&stream, 1, Config::default(), usize::MAX);
        for threads in [2usize, 4, 8] {
            for (cfg, par_cutoff) in [
                (Config::default(), usize::MAX), // sequential re-solves
                (Config::default(), 0),          // parallel route, auto cutoff
                (Config { seq_cutoff: 64, ..Config::default() }, 0), // explicit cutoff
            ] {
                let got = drive(&stream, threads, cfg, par_cutoff);
                assert_eq!(
                    got, base,
                    "seed {seed}: sweep point ({threads} threads, cutoff \
                     {:?}, par_cutoff {par_cutoff}) diverged",
                    cfg.seq_cutoff
                );
            }
        }
    }
}

#[test]
fn reject_at_k_streams_certify_identically_and_roll_back() {
    // seeds 0..5 cycle through all five Tucker families
    for seed in 0..5u64 {
        let (stream, at, _) = append_stream_reject(96, 6, 6, seed);
        for (threads, par_cutoff) in [(1usize, usize::MAX), (4, 0)] {
            let verdicts = drive(&stream, threads, Config::default(), par_cutoff);
            for (k, v) in verdicts.iter().enumerate() {
                assert_eq!(
                    v.is_err(),
                    k == at,
                    "seed {seed}: push {k} verdict class (reject planted at {at})"
                );
            }
            // the rejected push's witness really checks against the
            // concatenation it spoke about
            let (_, witness) = verdicts[at].as_ref().unwrap_err();
            let mut cols: Vec<Vec<Atom>> =
                stream.pushes[..at].iter().flat_map(|p| p.iter().cloned()).collect();
            cols.extend(stream.pushes[at].iter().cloned());
            let concat = Ensemble::from_columns(stream.n_atoms, cols).unwrap();
            c1p_cert::verify_witness(&concat, witness).unwrap();
        }
    }
}

#[test]
fn interleaved_engine_sessions_stay_isolated_and_agree_with_one_shot() {
    // two sessions advanced alternately on one engine, swept over pool
    // sizes: verdicts must be identical across sweeps and each session
    // must answer exactly as a one-shot solve of its own concatenation
    let a = append_stream(80, 5, 4, 11);
    let (b, b_at, _) = append_stream_reject(64, 4, 4, 12);
    let mut sweeps: Vec<Vec<Verdict>> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let engine = Engine::new(EngineConfig { threads, ..EngineConfig::default() });
        let sa = engine.open_session(a.n_atoms).unwrap();
        let sb = engine.open_session(b.n_atoms).unwrap();
        let mut verdicts = Vec::new();
        let mut a_accepted: Vec<Vec<Atom>> = Vec::new();
        let mut b_accepted: Vec<Vec<Atom>> = Vec::new();
        for k in 0..4 {
            for (sess, stream, accepted, reject_at) in
                [(sa, &a, &mut a_accepted, None), (sb, &b, &mut b_accepted, Some(b_at))]
            {
                let v = engine.session_push(sess, &stream.push_ensemble(k)).unwrap();
                let mut concat = accepted.clone();
                concat.extend(stream.pushes[k].iter().cloned());
                match one_shot(stream.n_atoms, &concat) {
                    Ok(order) => {
                        assert_eq!(v, Verdict::C1p { order }, "push {k}");
                        assert_ne!(reject_at, Some(k));
                        *accepted = concat;
                    }
                    Err(cert) => {
                        assert_eq!(
                            v,
                            Verdict::NotC1p { rejection: cert.rejection, witness: cert.witness },
                            "push {k}"
                        );
                        assert_eq!(reject_at, Some(k));
                    }
                }
                verdicts.push(v);
            }
        }
        // sealing returns the final accepted orders
        let fa = engine.seal_session(sa).unwrap();
        let fb = engine.seal_session(sb).unwrap();
        assert_eq!(fa, Verdict::C1p { order: one_shot(a.n_atoms, &a_accepted).unwrap() });
        assert_eq!(fb, Verdict::C1p { order: one_shot(b.n_atoms, &b_accepted).unwrap() });
        verdicts.push(fa);
        verdicts.push(fb);
        sweeps.push(verdicts);
    }
    for (i, s) in sweeps.iter().enumerate().skip(1) {
        assert_eq!(s, &sweeps[0], "thread sweep point {i} diverged");
    }
}

/// A planted stream whose block 5 (atoms 1280–1535) needs the cyclic host
/// alignment: its top-level Case-2 merge must put the host's two crossing
/// restrictions at opposite ends of the host arc. Every push must be
/// accepted, the session's final order must be the one-shot `solve`
/// order, and `solve_par` must return that order at 1, 2 and 4 threads.
#[test]
fn cyclic_host_alignment_stream_is_accepted_everywhere() {
    let stream = append_stream(2048, 8, 32, 483122);
    let n = stream.n_atoms;
    let mut inc = IncrementalSolver::new(n);
    for k in 0..stream.pushes.len() {
        if let Err(cert) = inc.push(&stream.push_ensemble(k)) {
            panic!("push {k} rejected: {:?}", cert.rejection);
        }
    }
    let all = Ensemble::from_columns(n, stream.pushes.concat()).unwrap();
    let expect = c1p_core::solve(&all).expect("the planted stream is C1P");
    assert_eq!(inc.order(), expect.as_slice(), "session order differs from one-shot solve");
    for threads in [1usize, 2, 4] {
        let (got, _) =
            c1p_core::parallel::with_threads(threads, || c1p_core::parallel::solve_par(&all));
        assert_eq!(got.expect("solve_par accepts"), expect, "{threads} threads");
    }
}

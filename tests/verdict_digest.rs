//! Pinned verdict digest: one FNV-1a value over every byte a solve hands
//! out on a fixed seeded corpus.
//!
//! Folded per instance, in corpus order:
//!
//! * `solve_with`'s order, or its rejection site and evidence atoms plus
//!   the certified Tucker witness extracted from that rejection;
//! * `solve_with`'s `SolveStats` work counters (not the phase timings or
//!   the modelled cost);
//! * the same verdict bytes from `solve_par`.
//!
//! The corpus is planted and planted-reject instances up to n = 2^11, the
//! fresh instances of a 200-request slice of the mixed serving schedule,
//! and the final ensembles of two `append_stream(2048, 8, 32, s)` session
//! streams. It runs in about 5 s in a debug build.
//!
//! A change that claims "verdict bytes unchanged" (a faster divide, a
//! leaner component pass, a merged recursion driver) must leave
//! [`PINNED`] as it is. A change that means to alter verdicts or work
//! counters updates it and says why.

use c1p::cert::certify_rejection;
use c1p::matrix::generate::{
    append_stream, mixed_schedule, planted, planted_reject, MixedSchedule,
};
use c1p::matrix::Ensemble;
use c1p::{Config, Rejection, SolveStats};

/// The digest of the corpus below.
const PINNED: u64 = 1_729_166_650_237_561_861;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// A length-prefixed list, so adjacent lists cannot alias.
    fn list(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn verdict(&mut self, ens: &Ensemble, res: Result<Vec<u32>, Rejection>) {
        match res {
            Ok(order) => {
                self.u64(1);
                self.list(&order);
            }
            Err(rej) => {
                self.u64(2);
                self.bytes(format!("{:?}", rej.site).as_bytes());
                self.list(&rej.atoms);
                let w = certify_rejection(ens, rej).witness;
                self.bytes(w.family.to_string().as_bytes());
                self.list(&w.atom_rows);
                self.list(&w.column_ids);
            }
        }
    }

    fn stats(&mut self, s: &SolveStats) {
        for x in [
            s.subproblems,
            s.max_depth,
            s.case1,
            s.case2,
            s.base_cases,
            s.decompositions,
            s.members,
            s.fast_merges,
            s.bitmat_divides,
            s.csr_divides,
        ] {
            self.u64(x as u64);
        }
    }
}

fn corpus() -> Vec<Ensemble> {
    let mut out = Vec::new();
    for (n, seeds) in [(16usize, 0..8u64), (64, 0..4), (256, 0..2), (512, 0..1), (2048, 0..1)] {
        for s in seeds {
            out.push(planted(n, s));
            out.push(planted_reject(n, s).0);
        }
    }
    // every third request replays an earlier one byte for byte; only the
    // fresh instances are solved
    let schedule = mixed_schedule(MixedSchedule {
        requests: 200,
        seed: 34,
        dup_every: 3,
        reject_every: 4,
        n_lo: 48,
        n_hi: 160,
    });
    out.extend(schedule.into_iter().enumerate().filter(|(i, _)| i % 3 != 2).map(|(_, e)| e));
    for s in 1..=2 {
        out.push(append_stream(2048, 8, 32, s).final_ensemble());
    }
    out
}

#[test]
fn verdicts_match_the_pinned_digest() {
    let mut h = Fnv::new();
    let cfg = Config::default();
    for ens in corpus() {
        let (res, stats) = c1p::solve_with(&ens, &cfg);
        h.verdict(&ens, res);
        h.stats(&stats);
        h.verdict(&ens, c1p::solve_par(&ens).0);
    }
    assert_eq!(
        h.0, PINNED,
        "verdict digest moved: an order, rejection, witness or work counter changed"
    );
}

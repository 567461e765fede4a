//! # c1p-bench: the experiment harness
//!
//! One generator + table printer per experiment in DESIGN.md §5 (E1–E9);
//! the `experiments` binary drives them, README.md's "Experiments"
//! section summarizes the outcomes, and E10–E13 record theirs in the
//! repository's `BENCH_*.json` files. Criterion microbenches (E10) live
//! under `benches/`.

pub mod models;
pub mod tables;
pub mod workloads;

use std::time::{Duration, Instant};

/// Runs `f` `reps` times and returns the median wall-clock duration.
pub fn median_time<R>(reps: usize, mut f: impl FnMut() -> R) -> (Duration, R) {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed());
        out = Some(r);
    }
    times.sort_unstable();
    (times[times.len() / 2], out.unwrap())
}

/// Seconds as a compact human string.
pub fn fmt_secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

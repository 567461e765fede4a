//! Phase-timing + allocation probe for the divide-and-conquer solver.
//!
//! ```text
//! cargo run --release -p c1p-bench --bin phase_probe [log2_n] [reps] [seed]
//! ```
//!
//! `reps` (default 1) solves the same instance that many times and
//! reports the fastest run, its allocations included: the first solve
//! starts with empty buffer pools, so with `reps > 1` the reported solve
//! is usually a warm one. `seed` (default 1) picks the instance,
//! `planted(2^log2_n, seed)`: `phase_probe 14 3 262` probes the instance
//! of `par_smoke`'s align-tail gate, one of whose sides decomposes into a
//! large rigid member (DESIGN.md §14).
//!
//! Prints the same per-phase breakdown the request tracer emits as
//! `solve/<phase>` spans: the phase names come from
//! [`c1p_core::stats::PHASE_NAMES`] and the timings from
//! `SolveStats::phase_ns` — one accounting shared by offline probing and
//! live tracing (the name-stability rule in DESIGN.md §13).

use c1p_bench::workloads::planted;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// power-of-two size-class histogram (count, bytes) — where the traffic is
static CLASS_N: [AtomicU64; 32] = [const { AtomicU64::new(0) }; 32];
static CLASS_B: [AtomicU64; 32] = [const { AtomicU64::new(0) }; 32];

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let class = (64 - (layout.size() | 1).leading_zeros()).min(31) as usize;
        CLASS_N[class].fetch_add(1, Ordering::Relaxed);
        CLASS_B[class].fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

/// A reading of the allocation counters: blocks, bytes, and the
/// size-class histogram.
#[derive(Clone, Copy)]
struct AllocCounts {
    blocks: u64,
    bytes: u64,
    classes: [(u64, u64); 32],
}

impl AllocCounts {
    fn now() -> Self {
        AllocCounts {
            blocks: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
            classes: std::array::from_fn(|c| {
                (CLASS_N[c].load(Ordering::Relaxed), CLASS_B[c].load(Ordering::Relaxed))
            }),
        }
    }

    /// What was allocated between `before` and this reading.
    fn since(self, before: AllocCounts) -> Self {
        AllocCounts {
            blocks: self.blocks - before.blocks,
            bytes: self.bytes - before.bytes,
            classes: std::array::from_fn(|c| {
                (self.classes[c].0 - before.classes[c].0, self.classes[c].1 - before.classes[c].1)
            }),
        }
    }
}

fn main() {
    let log2_n: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(14);
    let cfg = c1p_core::Config::default();
    // best-of-N (default 1): the minimum is the least scheduler-disturbed
    // sample, the right statistic on a busy shared host
    let reps: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(1).max(1);
    let seed: u64 = std::env::args().nth(3).and_then(|a| a.parse().ok()).unwrap_or(1);
    let ens = planted(1 << log2_n, seed);
    // each solve counts its own allocations
    let solve_once = || {
        let a0 = AllocCounts::now();
        let t0 = std::time::Instant::now();
        let (o, stats) = c1p_core::solve_with(&ens, &cfg);
        let dt = t0.elapsed();
        (o, stats, dt, AllocCounts::now().since(a0))
    };
    let (mut o, mut stats, mut dt, mut allocs) = solve_once();
    for _ in 1..reps {
        let (oi, si, di, ai) = solve_once();
        if di < dt {
            (o, stats, dt, allocs) = (oi, si, di, ai);
        }
    }
    eprintln!(
        "solve: {dt:?} ok={} subproblems={} depth={} decompositions={}",
        o.is_ok(),
        stats.subproblems,
        stats.max_depth,
        stats.decompositions
    );
    eprintln!(
        "case1={} case2={} fast_merges={} members={} divides={}",
        stats.case1, stats.case2, stats.fast_merges, stats.members, stats.csr_divides
    );
    eprintln!("allocations: {} ({:.1} MB total)", allocs.blocks, allocs.bytes as f64 / 1e6);
    if std::env::var_os("PHASE_PROBE_ALLOC_HIST").is_some() {
        for (c, &(n, b)) in allocs.classes.iter().enumerate() {
            if n > 0 {
                eprintln!("  ≤2^{c:<2} B: {n:>9} allocs {:>9.1} MB", b as f64 / 1e6);
            }
        }
    }
    let total_ns: u64 = stats.phase_ns.iter().sum();
    for (name, &ns) in c1p_core::stats::PHASE_NAMES.iter().zip(&stats.phase_ns) {
        let pct = if total_ns > 0 { ns as f64 * 100.0 / total_ns as f64 } else { 0.0 };
        eprintln!("phase {name:<9} {:>10.3} ms  {pct:>5.1}%", ns as f64 / 1e6);
    }
    eprintln!(
        "phase total   {:>10.3} ms of {:.3} ms wall ({:.1}% attributed)",
        total_ns as f64 / 1e6,
        dt.as_secs_f64() * 1e3,
        if dt.as_nanos() > 0 { total_ns as f64 * 100.0 / dt.as_nanos() as f64 } else { 0.0 }
    );
}

//! Allocation-count regression test for the *parallel* driver — the
//! sibling of `alloc_count.rs` (which pins the sequential path).
//!
//! The forking path adds per-fork overhead on top of the CSR divide:
//! task bookkeeping, per-branch counters and per-worker scratch pools.
//! All of that is O(subproblems), not O(p · levels): the budget below
//! fails loudly if per-column heap traffic creeps into the divide under
//! forks or the fan-out starts cloning columns. Measured after a warm-up run so one-time pool and
//! thread-local initialization stays out of the count.

use c1p_core::parallel::{solve_par, with_threads};
use c1p_core::Config;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: Counting = Counting;

#[test]
fn parallel_path_stays_allocation_lean() {
    let n = 4096;
    let m = 2 * n;
    let mut rng = SmallRng::seed_from_u64(0xC190 ^ 2);
    let (ens, _) = c1p_matrix::generate::planted_c1p(
        c1p_matrix::generate::PlantedShape { n_atoms: n, n_columns: m, min_len: 2, max_len: 24 },
        &mut rng,
    );
    // force real forking even on a single-core host: explicit cutoff,
    // 4-worker pool (paranoid off so debug and release measure alike)
    let cfg = Config { paranoid: false, seq_cutoff: 256 };
    with_threads(4, || {
        let (order, _) = c1p_core::parallel::solve_par_with(&ens, &cfg);
        assert!(order.is_ok(), "warm-up solve must accept");
        let before = ALLOCS.load(Ordering::Relaxed);
        let (order, stats) = c1p_core::parallel::solve_par_with(&ens, &cfg);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(order.is_ok(), "planted instance must be accepted");
        let budget = 120 * m as u64;
        assert!(
            allocs < budget,
            "solve_par allocated {allocs} blocks (> {budget}) across {} subproblems — \
             did per-column heap traffic creep into the parallel divide or fan-out?",
            stats.subproblems
        );
    });
    // the default driver (auto cutoff, ambient pool) must stay lean too
    let (_, _) = solve_par(&ens);
    let before = ALLOCS.load(Ordering::Relaxed);
    let (order, _) = solve_par(&ens);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(order.is_ok());
    assert!(allocs < 120 * m as u64, "default solve_par allocated {allocs} blocks");
}

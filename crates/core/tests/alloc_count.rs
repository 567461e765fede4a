//! Allocation-count regression test for the flat-CSR divide path.
//!
//! The seed's nested `Vec<Vec<u32>>` subproblems allocated ~155 heap
//! blocks per column on a planted instance (measured at n=4096, m=2n:
//! ~1.27M allocations). The CSR arenas cut that to ~54 per column
//! (~0.44M). This test pins the budget at 100 per column — roughly
//! midway — so a regression back to per-column-per-level heap traffic
//! fails loudly while normal drift doesn't.

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
fn divide_path_stays_allocation_lean() {
    let n = 4096;
    let m = 2 * n;
    let mut rng = SmallRng::seed_from_u64(0xC190 ^ 1);
    let (ens, _) = c1p_matrix::generate::planted_c1p(
        c1p_matrix::generate::PlantedShape { n_atoms: n, n_columns: m, min_len: 2, max_len: 24 },
        &mut rng,
    );
    // paranoid verification allocates per subproblem and is debug-only
    // noise — turn it off so debug and release measure the same solver.
    let cfg = Config { paranoid: false, ..Config::default() };
    let before = ALLOCS.load(Ordering::Relaxed);
    let (order, stats) = c1p_core::solve_with(&ens, &cfg);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(order.is_ok(), "planted instance must be accepted");
    let budget = 100 * m as u64;
    assert!(
        allocs < budget,
        "solve allocated {allocs} blocks (> {budget}) across {} subproblems — did \
         per-column heap traffic creep back into the divide path?",
        stats.subproblems
    );
}

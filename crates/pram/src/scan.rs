//! Parallel prefix scan and compaction — the workhorse primitives the
//! paper's Step 7 invokes ("may require a prefix scan … easily computed
//! within resource bounds").
//!
//! The implementation is the classic two-pass chunked scan: per-chunk local
//! sums in parallel, a (short) scan across chunk sums, then per-chunk
//! prefixes in parallel. Modelled PRAM cost: `O(n)` work, `O(log n)` depth.

use crate::cost::{log2ceil, Cost};
use rayon::prelude::*;

/// Minimum elements per rayon task; below this, run sequentially.
const CHUNK: usize = 1 << 14;

/// Exclusive prefix sum: `out[i] = Σ_{j<i} xs[j]`, plus the total and the
/// modelled cost.
pub fn prefix_sum(xs: &[u64]) -> (Vec<u64>, u64, Cost) {
    let n = xs.len();
    let cost = Cost::of(n as u64, 1 + log2ceil(n));
    if n == 0 {
        return (Vec::new(), 0, cost);
    }
    if n <= CHUNK {
        let mut out = Vec::with_capacity(n);
        let mut acc = 0u64;
        for &x in xs {
            out.push(acc);
            acc += x;
        }
        return (out, acc, cost);
    }
    let n_chunks = n.div_ceil(CHUNK);
    let sums: Vec<u64> = (0..n_chunks)
        .into_par_iter()
        .map(|c| xs[c * CHUNK..((c + 1) * CHUNK).min(n)].iter().sum())
        .collect();
    let mut offsets = Vec::with_capacity(n_chunks);
    let mut acc = 0u64;
    for &s in &sums {
        offsets.push(acc);
        acc += s;
    }
    let mut out = vec![0u64; n];
    out.par_chunks_mut(CHUNK).enumerate().for_each(|(c, chunk)| {
        let mut local = offsets[c];
        let base = c * CHUNK;
        for (i, slot) in chunk.iter_mut().enumerate() {
            *slot = local;
            local += xs[base + i];
        }
    });
    (out, acc, cost)
}

/// Parallel stable compaction: keeps elements where `keep` is true,
/// preserving order. Modelled cost: scan + scatter = `O(n)` work,
/// `O(log n)` depth.
pub fn compact<T: Copy + Send + Sync>(xs: &[T], keep: &[bool]) -> (Vec<T>, Cost) {
    assert_eq!(xs.len(), keep.len());
    let flags: Vec<u64> = keep.par_iter().with_min_len(CHUNK).map(|&k| k as u64).collect();
    let (pos, total, scan_cost) = prefix_sum(&flags);
    let mut out = vec![None; total as usize];
    // scatter (each target written once — safe to parallelize by source chunks)
    let out_ptr = SyncPtr(out.as_mut_ptr());
    xs.par_iter().enumerate().with_min_len(CHUNK).for_each(|(i, &x)| {
        if keep[i] {
            // SAFETY: pos is strictly increasing on kept indices, so each
            // target slot is written by exactly one source index.
            unsafe { out_ptr.write(pos[i] as usize, Some(x)) };
        }
    });
    let out: Vec<T> = out.into_iter().map(|o| o.expect("every slot written")).collect();
    let cost = scan_cost.seq(Cost::step(xs.len() as u64));
    (out, cost)
}

/// A raw pointer that may be shared across [`compact`]'s parallel
/// scatter tasks; callers guarantee disjoint target indices.
struct SyncPtr<T>(*mut T);
// SAFETY: the one field is a pointer whose targets other threads write
// (and drop the previous value of) through `write`, so `T` must be
// `Send`; `write`'s contract keeps those writes disjoint.
unsafe impl<T: Send> Sync for SyncPtr<T> {}
// SAFETY: as for `Sync`: moving the pointer to another thread only
// lets that thread write `T` values through it.
unsafe impl<T: Send> Send for SyncPtr<T> {}
impl<T> SyncPtr<T> {
    /// Writes `v` at offset `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the pointed-to allocation and written
    /// by at most one thread.
    unsafe fn write(&self, i: usize, v: T) {
        unsafe { *self.0.add(i) = v };
    }
}

/// Parallel map with unit cost per element: `O(n)` work, `O(1)` depth.
pub fn par_map<T: Send + Sync, U: Send>(
    xs: &[T],
    f: impl Fn(&T) -> U + Send + Sync,
) -> (Vec<U>, Cost) {
    let out: Vec<U> = xs.par_iter().with_min_len(CHUNK).map(f).collect();
    (out, Cost::step(xs.len() as u64))
}

/// Parallel max-by-key reduction. `O(n)` work, `O(log n)` depth.
pub fn par_max_by_key<T: Copy + Send + Sync, K: Ord + Send>(
    xs: &[T],
    key: impl Fn(&T) -> K + Send + Sync,
) -> (Option<T>, Cost) {
    let out = xs
        .par_iter()
        .with_min_len(CHUNK)
        .map(|x| (key(x), x))
        .max_by(|a, b| a.0.cmp(&b.0))
        .map(|(_, &x)| x);
    (out, Cost::of(xs.len() as u64, 1 + log2ceil(xs.len())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_sum_small() {
        let (out, total, cost) = prefix_sum(&[3, 1, 4, 1, 5]);
        assert_eq!(out, vec![0, 3, 4, 8, 9]);
        assert_eq!(total, 14);
        assert_eq!(cost.work, 5);
        assert!(cost.depth >= 1);
    }

    #[test]
    fn prefix_sum_empty() {
        let (out, total, _) = prefix_sum(&[]);
        assert!(out.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn prefix_sum_large_matches_sequential() {
        let xs: Vec<u64> = (0..100_000u64).map(|i| i % 7).collect();
        let (out, total, _) = prefix_sum(&xs);
        let mut acc = 0;
        for i in 0..xs.len() {
            assert_eq!(out[i], acc, "mismatch at {i}");
            acc += xs[i];
        }
        assert_eq!(total, acc);
    }

    #[test]
    fn compact_keeps_order() {
        let xs: Vec<u32> = (0..1000).collect();
        let keep: Vec<bool> = xs.iter().map(|x| x % 3 == 0).collect();
        let (out, _) = compact(&xs, &keep);
        let expect: Vec<u32> = xs.iter().copied().filter(|x| x % 3 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_applies() {
        let (out, cost) = par_map(&[1, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(cost, Cost::step(3));
    }

    #[test]
    fn max_by_key_finds_max() {
        let (m, _) = par_max_by_key(&[3u32, 9, 2, 9, 1], |&x| x);
        assert_eq!(m, Some(9));
        let (none, _) = par_max_by_key::<u32, u32>(&[], |&x| x);
        assert_eq!(none, None);
    }
}

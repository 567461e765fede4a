//! Flat CSR column storage for subproblems (DESIGN.md §3).
//!
//! The divide step of `Path-Realization` creates `O(log n)` levels of
//! subproblems, and every level re-materializes every column. With a
//! nested `Vec<Vec<u32>>` representation that is one heap allocation
//! per column per level — `O(m log n)` small allocations of the exact
//! kind the paper's PRAM accounting assumes away (the divide is "a
//! constant number of scans"). This module stores each subproblem's
//! columns as one CSR arena: an `offsets` array plus a single `data`
//! array, so a divide is one pass over the entries into arenas sized up
//! front and recycled through a per-thread pool.
//!
//! **Sortedness invariant:** every column is strictly ascending. All
//! builders in the solver map sorted columns through *monotone*
//! renumberings (`place[a] < place[b]` whenever both are kept and
//! `a < b`), so sortedness is preserved structurally and never needs a
//! per-level re-sort; debug builds assert it on every finished column.

use crate::align::CrossType;
use std::cell::RefCell;

/// Columns in CSR form: column `i` is `data[offsets[i]..offsets[i+1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatCols {
    offsets: Vec<u32>,
    data: Vec<u32>,
}

// A derived `Default` would leave `offsets` empty, violating the
// "offsets always holds at least the leading 0" invariant every accessor
// leans on (`n_cols` would underflow on a defaulted value). `SubProblem`
// derives `Default`, so this constructor is reachable from public API.
impl Default for FlatCols {
    fn default() -> Self {
        FlatCols::new()
    }
}

impl FlatCols {
    /// An empty collection.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// An empty collection with room for `cols` columns over `entries`
    /// total atoms: no reallocation while building within those bounds.
    /// Buffers come from the per-thread recycling pool, and a recycled
    /// buffer smaller than asked for is grown to the full request first.
    pub fn with_capacity(cols: usize, entries: usize) -> Self {
        let mut offsets = take_u32(cols + 1);
        offsets.push(0);
        FlatCols { offsets, data: take_u32(entries) }
    }

    /// Builds from an iterator of slice-likes (test/interop helper).
    pub fn from_cols<C: AsRef<[u32]>>(cols: impl IntoIterator<Item = C>) -> Self {
        let mut out = FlatCols::new();
        for c in cols {
            out.push_col(c.as_ref().iter().copied());
        }
        out
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_cols() == 0
    }

    /// Total entry count `p = Σ |col|`.
    #[inline]
    pub fn total_len(&self) -> usize {
        self.data.len()
    }

    /// Raw CSR view `(offsets, data)` — lent to the Case-2 growth
    /// ([`crate::partition`]), which walks the column→atom slices
    /// without copying.
    #[inline]
    pub(crate) fn raw_csr(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.data)
    }

    /// Column `i` as a slice.
    #[inline]
    pub fn col(&self, i: usize) -> &[u32] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of column `i` without forming the slice.
    #[inline]
    pub fn col_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates the columns as slices.
    pub fn iter(&self) -> FlatColsIter<'_> {
        FlatColsIter { cols: self, i: 0 }
    }

    /// Appends one column from an iterator of atoms.
    pub fn push_col(&mut self, col: impl IntoIterator<Item = u32>) {
        self.data.extend(col);
        self.finish_col();
    }

    /// Appends a single atom to the column currently being built (pair
    /// with [`finish_col`](Self::finish_col) / [`cancel_col`](Self::cancel_col)).
    #[inline]
    pub fn push(&mut self, atom: u32) {
        self.data.push(atom);
    }

    /// Start offset of the in-progress column. `offsets` is never empty
    /// by construction, but degenerate shapes (0-column arenas handed
    /// through `from_raw`, defaulted values) must not be able to panic
    /// here even if that invariant is ever violated upstream.
    #[inline]
    fn building_start(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0) as usize
    }

    /// Atoms pushed to the in-progress column so far.
    #[inline]
    pub fn building_len(&self) -> usize {
        self.data.len() - self.building_start()
    }

    /// Seals the in-progress column.
    #[inline]
    pub fn finish_col(&mut self) {
        debug_assert!(
            self.data[self.building_start()..].windows(2).all(|w| w[0] < w[1]),
            "columns must stay strictly ascending (monotone renumbering invariant)"
        );
        self.offsets.push(self.data.len() as u32);
    }

    /// Appends a block of atoms to the column currently being built.
    #[inline]
    pub fn extend_building(&mut self, atoms: &[u32]) {
        self.data.extend_from_slice(atoms);
    }

    /// Appends atoms from an iterator to the column being built.
    #[inline]
    pub fn extend_building_from(&mut self, atoms: impl IntoIterator<Item = u32>) {
        self.data.extend(atoms);
    }

    /// Discards the in-progress column (e.g. it shrank below two atoms).
    #[inline]
    pub fn cancel_col(&mut self) {
        let start = self.building_start();
        self.data.truncate(start);
    }

    /// Removes all columns, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.data.clear();
    }

    /// Assembles from prebuilt CSR parts — the divides compute `offsets`
    /// and fill `data` at the computed positions, then hand both over
    /// wholesale. `offsets` must start at 0, be non-decreasing, and end
    /// at `data.len()`; every column must obey the sortedness invariant.
    /// The two end conditions are checked always (the divide's unchecked
    /// writes rely on the leading 0), the rest in debug builds.
    pub fn from_raw(mut offsets: Vec<u32>, data: Vec<u32>) -> Self {
        if offsets.is_empty() {
            // 0-column degenerate shape: normalize to the canonical empty
            // arena instead of producing a value whose accessors underflow
            debug_assert!(data.is_empty(), "data without offsets");
            offsets.push(0);
        }
        assert!(
            offsets[0] == 0 && offsets[offsets.len() - 1] as usize == data.len(),
            "CSR offsets must start at 0 and end at data.len()"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let out = FlatCols { offsets, data };
        #[cfg(debug_assertions)]
        for col in out.iter() {
            debug_assert!(
                col.windows(2).all(|w| w[0] < w[1]),
                "columns must stay strictly ascending (monotone renumbering invariant)"
            );
        }
        out
    }
}

/// Slice iterator over a [`FlatCols`].
pub struct FlatColsIter<'a> {
    cols: &'a FlatCols,
    i: usize,
}

impl<'a> Iterator for FlatColsIter<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        (self.i < self.cols.n_cols()).then(|| {
            let c = self.cols.col(self.i);
            self.i += 1;
            c
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.cols.n_cols() - self.i;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for FlatColsIter<'_> {}

impl<'a> IntoIterator for &'a FlatCols {
    type Item = &'a [u32];
    type IntoIter = FlatColsIter<'a>;

    fn into_iter(self) -> FlatColsIter<'a> {
        self.iter()
    }
}

// ---------------------------------------------------------------------
// split columns
// ---------------------------------------------------------------------

/// The per-column split of one divide step, in CSR form: column `i`'s
/// entry holds its segment part (atoms in `A1`) followed by its host
/// part (atoms in `A2`), both in ascending order, with the boundary in
/// `seg_len` and the crossing classification in `ty`. Replaces the
/// former `Vec<SplitColumn>`-of-`Vec`s (two heap columns per input
/// column per level).
#[derive(Debug, Clone, Default)]
pub struct SplitCols {
    pub(crate) parts: FlatCols,
    pub(crate) seg_len: Vec<u32>,
    pub(crate) ty: Vec<CrossType>,
}

impl SplitCols {
    /// Pre-sized builder state (pool-backed, like [`FlatCols`]); test
    /// scaffolding with [`Self::finish_parts_col`].
    #[cfg(test)]
    pub(crate) fn with_capacity(cols: usize, entries: usize) -> Self {
        SplitCols {
            parts: FlatCols::with_capacity(cols, entries),
            seg_len: take_u32(cols),
            ty: take_ty(cols),
        }
    }

    /// Number of split columns (same as the parent subproblem's).
    #[inline]
    pub fn len(&self) -> usize {
        self.seg_len.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment-side part of column `i` (subproblem-local atoms).
    #[inline]
    pub fn seg(&self, i: usize) -> &[u32] {
        &self.parts.col(i)[..self.seg_len[i] as usize]
    }

    /// The host-side part of column `i`.
    #[inline]
    pub fn host(&self, i: usize) -> &[u32] {
        &self.parts.col(i)[self.seg_len[i] as usize..]
    }

    /// Crossing classification of column `i`.
    #[inline]
    pub fn ty(&self, i: usize) -> CrossType {
        self.ty[i]
    }

    /// Assembles from prebuilt CSR parts, as both divides build them.
    /// Takes the raw offsets/data rather than a [`FlatCols`] because a
    /// parts column (segment half followed by host half) deliberately
    /// violates the whole-column ordering invariant
    /// [`FlatCols::from_raw`] checks; each *half* must be ascending
    /// (debug-checked below).
    pub(crate) fn from_raw(
        mut offsets: Vec<u32>,
        data: Vec<u32>,
        seg_len: Vec<u32>,
        ty: Vec<CrossType>,
    ) -> Self {
        if offsets.is_empty() {
            debug_assert!(data.is_empty(), "data without offsets");
            offsets.push(0);
        }
        debug_assert!(
            offsets.first() == Some(&0)
                && offsets.last().copied().unwrap_or(0) as usize == data.len()
        );
        let parts = FlatCols { offsets, data };
        debug_assert_eq!(parts.n_cols(), seg_len.len());
        debug_assert_eq!(parts.n_cols(), ty.len());
        let out = SplitCols { parts, seg_len, ty };
        #[cfg(debug_assertions)]
        for ci in 0..out.len() {
            debug_assert!(out.seg(ci).windows(2).all(|w| w[0] < w[1]));
            debug_assert!(out.host(ci).windows(2).all(|w| w[0] < w[1]));
        }
        out
    }

    /// Seals the in-progress parts column whose first `seg_len` atoms are
    /// the segment part (test scaffolding: the divides build through
    /// [`Self::from_raw`]). The two halves are each ascending; their
    /// concatenation deliberately is not, so this bypasses
    /// [`FlatCols::finish_col`]'s whole-column ordering assertion.
    #[cfg(test)]
    pub(crate) fn finish_parts_col(&mut self, seg_len: usize, ty: CrossType) {
        debug_assert!({
            let col = &self.parts.data[self.parts.building_start()..];
            col[..seg_len].windows(2).all(|w| w[0] < w[1])
                && col[seg_len..].windows(2).all(|w| w[0] < w[1])
        });
        self.parts.offsets.push(self.parts.data.len() as u32);
        self.seg_len.push(seg_len as u32);
        self.ty.push(ty);
    }
}

// ---------------------------------------------------------------------
// buffer recycling
// ---------------------------------------------------------------------

/// Per-thread freelists for the arena buffers behind [`FlatCols`] and
/// [`SplitCols`]. Every divide materializes child arenas and drops them
/// when its subtree completes — with plain `Vec`s that is ~10 round
/// trips through the allocator per divide, dominating the solver's
/// allocation count. Dropping an arena instead parks its buffers here
/// and the next divide on the thread adopts them.
///
/// Two tiers per type: buffers up to [`RECYCLE_CAP_ELEMS`] elements park
/// on a long freelist (the bulk of the recursion), while the handful of
/// top-level arenas above it go to a short big-buffer list bounded by
/// [`BIG_POOL_VECS`] entries and [`BIG_POOL_TOTAL_ELEMS`] total retained
/// elements. Without the big tier every solve re-mmaps and re-faults the
/// multi-megabyte root arenas, which costs more wall time than all the
/// small allocations combined.
macro_rules! buf_pool {
    ($take:ident, $recycle:ident, $pool:ident, $big:ident, $t:ty) => {
        thread_local! {
            static $pool: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
            static $big: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
        }

        pub(crate) fn $take(cap: usize) -> Vec<$t> {
            let mut v = if cap > RECYCLE_CAP_ELEMS {
                // LIFO matches the recursion: the largest arena drops
                // last and is wanted first on the next solve
                $big.with(|p| p.borrow_mut().pop())
            } else {
                $pool.with(|p| p.borrow_mut().pop())
            }
            .unwrap_or_default();
            v.clear();
            // on the now-empty vector this guarantees `capacity >= cap`:
            // the promise `FlatCols::with_capacity` makes and the
            // divide's pre-sized writes rely on. Exact, because `reserve`
            // would double a buffer that is just short, and as the pool
            // hands the same buffers back, pooled capacity would ratchet
            // up to twice the largest request.
            v.reserve_exact(cap);
            v
        }

        pub(crate) fn $recycle(v: Vec<$t>) {
            if v.capacity() == 0 {
                return;
            }
            if v.capacity() > RECYCLE_CAP_ELEMS {
                $big.with(|p| {
                    let mut pool = p.borrow_mut();
                    let held: usize = pool.iter().map(|b| b.capacity()).sum();
                    if pool.len() < BIG_POOL_VECS && held + v.capacity() <= BIG_POOL_TOTAL_ELEMS {
                        pool.push(v);
                    }
                });
                return;
            }
            $pool.with(|p| {
                let mut pool = p.borrow_mut();
                if pool.len() < 128 {
                    pool.push(v);
                }
            });
        }
    };
}

const RECYCLE_CAP_ELEMS: usize = 1 << 16;
/// Max entries on each big-buffer freelist.
const BIG_POOL_VECS: usize = 8;
/// Max total elements retained across one big-buffer freelist.
const BIG_POOL_TOTAL_ELEMS: usize = 1 << 22;

buf_pool!(take_u32, recycle_u32, BUF_U32, BIG_U32, u32);
buf_pool!(take_ty, recycle_ty, BUF_TY, BIG_TY, CrossType);

impl Drop for FlatCols {
    fn drop(&mut self) {
        recycle_u32(std::mem::take(&mut self.offsets));
        recycle_u32(std::mem::take(&mut self.data));
    }
}

impl Drop for SplitCols {
    fn drop(&mut self) {
        recycle_u32(std::mem::take(&mut self.seg_len));
        recycle_ty(std::mem::take(&mut self.ty));
        // parts is a FlatCols — its own drop recycles the arena
    }
}

// ---------------------------------------------------------------------
// scratch pool
// ---------------------------------------------------------------------

/// Reusable per-thread working memory for the divide step: the `A1`
/// membership bitmap, the local renumbering table, and a position
/// table. All are `u32::MAX`/`false`-initialized and restored by their
/// users before release (`O(touched)` cleanup, never `O(capacity)`).
#[derive(Debug, Default)]
pub struct Scratch {
    /// Membership bitmap over subproblem-local atoms.
    pub mark: Vec<bool>,
    /// Local renumbering (`u32::MAX` = absent). The divide packs the
    /// atom's side into the low bit: `idx << 1 | (a ∈ A1)`.
    pub place: Vec<u32>,
    /// Order positions (`u32::MAX` = absent).
    pub pos: Vec<u32>,
    /// Staging buffer (e.g. a column's host part while its segment part
    /// streams into the arena). Left empty between uses.
    pub tmp: Vec<u32>,
    /// Merge span-classification buffers (`merge.rs`): type-b columns
    /// with their host spans, type-a spans, type-c spans, candidate
    /// split vertices, and the forbidden-interval list. Cleared at each
    /// use, so unlike the tables above they carry no cleanliness
    /// invariant.
    pub type_b: Vec<(usize, u32, u32)>,
    /// Type-a host spans (see `type_b`).
    pub type_a: Vec<(u32, u32)>,
    /// Type-c host spans (see `type_b`).
    pub type_c: Vec<(u32, u32)>,
    /// Candidate split vertices (see `type_b`).
    pub cand: Vec<u32>,
    /// Forbidden split intervals (see `type_b`).
    pub forbidden: Vec<(u32, u32)>,
}

impl Scratch {
    /// Grows all tables to cover `n` slots.
    fn reserve(&mut self, n: usize) {
        if self.mark.len() < n {
            self.mark.resize(n, false);
            self.place.resize(n, u32::MAX);
            self.pos.resize(n, u32::MAX);
        }
    }

    #[cfg(debug_assertions)]
    fn assert_clean(&self) {
        debug_assert!(self.mark.iter().all(|&m| !m), "mark bitmap returned dirty");
        debug_assert!(self.place.iter().all(|&p| p == u32::MAX), "place table returned dirty");
        debug_assert!(self.pos.iter().all(|&p| p == u32::MAX), "pos table returned dirty");
        debug_assert!(self.tmp.is_empty(), "tmp buffer returned nonempty");
    }
}

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a pooled [`Scratch`] covering at least `n` slots.
/// Reentrant (recursive calls get distinct scratches) and
/// rayon-compatible (the pool is thread-local; a stolen task pulls from
/// its worker's pool). Users must leave the tables clean — debug builds
/// verify this on return to the pool.
pub fn with_scratch<R>(n: usize, f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut s = SCRATCH_POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    s.reserve(n);
    let out = f(&mut s);
    #[cfg(debug_assertions)]
    s.assert_clean();
    SCRATCH_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < 64 {
            pool.push(s);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let mut fc = FlatCols::new();
        fc.push_col([1, 3, 5]);
        fc.push_col([] as [u32; 0]);
        fc.push_col([0, 2]);
        assert_eq!(fc.n_cols(), 3);
        assert_eq!(fc.total_len(), 5);
        assert_eq!(fc.col(0), &[1, 3, 5]);
        assert_eq!(fc.col(1), &[] as &[u32]);
        assert_eq!(fc.col(2), &[0, 2]);
        assert_eq!(fc.iter().collect::<Vec<_>>(), vec![&[1, 3, 5][..], &[][..], &[0, 2][..]]);
    }

    #[test]
    fn incremental_build_with_cancel() {
        let mut fc = FlatCols::with_capacity(2, 4);
        fc.push(4);
        fc.push(7);
        assert_eq!(fc.building_len(), 2);
        fc.finish_col();
        fc.push(9);
        fc.cancel_col(); // too small, roll back
        fc.push(1);
        fc.push(2);
        fc.finish_col();
        assert_eq!(fc.n_cols(), 2);
        assert_eq!(fc.col(0), &[4, 7]);
        assert_eq!(fc.col(1), &[1, 2]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut fc = FlatCols::from_cols([[0u32, 1].as_slice(), [2, 3].as_slice()]);
        let cap = fc.data.capacity();
        fc.clear();
        assert_eq!(fc.n_cols(), 0);
        assert_eq!(fc.total_len(), 0);
        assert_eq!(fc.data.capacity(), cap);
    }

    #[test]
    fn from_cols_matches_nested() {
        let nested: Vec<Vec<u32>> = vec![vec![0, 5, 9], vec![1, 2]];
        let fc = FlatCols::from_cols(&nested);
        for (i, col) in nested.iter().enumerate() {
            assert_eq!(fc.col(i), col.as_slice());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_column_panics_in_debug() {
        let mut fc = FlatCols::new();
        fc.push_col([3, 1]);
    }

    #[test]
    fn default_is_the_canonical_empty_arena() {
        // a derived Default would leave `offsets` empty and every
        // accessor would underflow/panic; the manual impl must match new()
        let fc = FlatCols::default();
        assert_eq!(fc.n_cols(), 0);
        assert!(fc.is_empty());
        assert_eq!(fc.total_len(), 0);
        assert_eq!(fc.building_len(), 0);
        assert_eq!(fc.iter().count(), 0);
        let mut fc = FlatCols::default();
        fc.push(0);
        fc.push(1);
        fc.finish_col();
        assert_eq!(fc.col(0), &[0, 1]);
        let sc = SplitCols::default();
        assert_eq!(sc.len(), 0);
        assert_eq!(sc.parts.n_cols(), 0);
    }

    #[test]
    fn from_raw_zero_columns() {
        // a divide can legitimately produce a 0-column side; both raw
        // constructors must normalize empty offsets
        let fc = FlatCols::from_raw(Vec::new(), Vec::new());
        assert_eq!(fc.n_cols(), 0);
        let fc = FlatCols::from_raw(vec![0], Vec::new());
        assert_eq!(fc.n_cols(), 0);
        let sc = SplitCols::from_raw(Vec::new(), Vec::new(), Vec::new(), Vec::new());
        assert_eq!(sc.len(), 0);
    }

    #[test]
    fn all_singleton_columns_cancel_to_empty() {
        // every column shrinks below two atoms → all cancelled; the arena
        // must come out empty and stay usable
        let mut fc = FlatCols::new();
        for a in 0..4u32 {
            fc.push(a);
            fc.cancel_col();
        }
        assert_eq!(fc.n_cols(), 0);
        assert_eq!(fc.total_len(), 0);
        fc.push_col([0, 1]);
        assert_eq!(fc.col(0), &[0, 1]);
    }

    #[test]
    fn one_atom_universe_shapes() {
        // a 1-atom universe admits only singleton (dropped) or empty
        // columns; finishing/cancelling empty columns must be panic-free
        let mut fc = FlatCols::with_capacity(0, 0);
        fc.finish_col(); // empty column: windows(2) over an empty slice
        assert_eq!(fc.n_cols(), 1);
        assert_eq!(fc.col(0), &[] as &[u32]);
        fc.cancel_col();
        assert_eq!(fc.building_len(), 0);
        let mut sc = SplitCols::with_capacity(1, 1);
        sc.parts.push(0);
        sc.finish_parts_col(1, CrossType::C);
        assert_eq!(sc.seg(0), &[0]);
        assert_eq!(sc.host(0), &[] as &[u32]);
    }

    #[test]
    fn pooled_take_honours_the_full_request() {
        // a recycled 10-slot buffer asked for 15 must come back with 15
        recycle_u32(Vec::with_capacity(10));
        assert!(take_u32(15).capacity() >= 15);
        recycle_ty(Vec::with_capacity(10));
        assert!(take_ty(15).capacity() >= 15);
    }

    #[test]
    fn scratch_reuses_and_reserves() {
        let first_ptr = with_scratch(10, |s| {
            assert!(s.mark.len() >= 10);
            assert!(s.place.iter().all(|&p| p == u32::MAX));
            s.mark.as_ptr() as usize
        });
        let second_ptr = with_scratch(5, |s| s.mark.as_ptr() as usize);
        // same thread, no interleaving: the pool hands back the same buffer
        assert_eq!(first_ptr, second_ptr);
    }

    #[test]
    fn scratch_is_reentrant() {
        with_scratch(4, |outer| {
            outer.mark[0] = true;
            with_scratch(4, |inner| {
                assert!(!inner.mark[0], "nested scratch must be distinct");
            });
            outer.mark[0] = false;
        });
    }
}

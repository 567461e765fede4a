//! `Path-Realization` (paper Fig. 3): the divide-and-conquer solver.
//!
//! Steps per recursive call (numbering as in the paper):
//!
//! * **Step 0** — `|A| ≤ 2`: any order realizes the ensemble.
//! * **Step 1** — trivial columns never enter subproblems (restrictions
//!   below two atoms are dropped); the distinguished edge `e` is structural
//!   in our Tutte trees, so the complete column need not be materialized.
//! * **Step 2** — the divide: Case 1 (proper-size column) or Case 2
//!   (Tucker transform + connected growth), then two recursive calls.
//! * **Steps 3–5** — decompose each returned realization (`c1p-tutte`),
//!   classify chords (type a/b/c), take minimal decompositions.
//! * **Step 6** — compute the Whitney switches ([`crate::align`]).
//! * **Step 7** — merge at a feasible split vertex ([`crate::merge`]);
//!   Case 2 additionally cuts the merged cycle at the transform atom `r`.
//!
//! `realize` is the one recursive procedure behind every entry. It forks
//! at two points only, the two children of a divide and the components
//! of a Case-2 growth, and only where the fork policy (`parallel::Sched`)
//! allows: [`solve_with`] and [`solve_component`] never fork, while the
//! entries in [`crate::parallel`] fork near the root. Every node composes
//! its [`SolveStats`] counters and its modelled PRAM [`Cost`] the same way
//! under either policy, so both are independent of the pool. The per-node
//! charges follow the paper's Section 5:
//!
//! * divide (proper column or transform + growth): `O(p)` work,
//!   `O(log n)` depth (tree contraction \[16\] / hooking);
//! * Tutte decomposition: `O((n+m) log log n)` work, `O(log n)` depth
//!   (Fussell–Ramachandran–Thurimella \[10\]; DESIGN.md §4: we run the
//!   specialised decomposition and charge the cited bound);
//! * type identification: `O(p)` work, `O(1)` depth;
//! * minimal decomposition + switches: `O(n+m)` work, `O(log n)` depth
//!   (Euler tours \[17\]);
//! * merge scan: `O(p)` work, `O(log n)` depth (prefix scan);
//! * a base case: `O(p + k)` work and depth (a sequential run).
//!
//! Sibling subtrees join with `Cost::par` (work adds, depth maxes).
//! Experiment E2 checks the composed totals against Theorem 9's
//! `O(log² n)` time and `p log log n / log n` processor bounds.
//!
//! Subproblem columns live in flat CSR arenas ([`FlatCols`], DESIGN.md
//! §3): the divide is one branch-free pass over the entries, driven by a
//! per-thread [`Scratch`](crate::flat::Scratch) table, with no
//! per-column heap traffic and no per-level re-sorting (sortedness is
//! preserved through monotone renumberings and asserted in debug).

use crate::align::{align_host_cyclic, align_side1, align_side2, Aligned, ChordInfo, CrossType};
use crate::cost::{log2ceil, Cost};
use crate::flat::{take_ty, take_u32, with_scratch, FlatCols, SplitCols};
use crate::merge::{merge, MergeMode};
use crate::parallel::Sched;
use crate::partition::{grow_segment, proper_column, tucker_transform, Growth};
use crate::stats::{SolveStats, PH_ALIGN, PH_DECOMPOSE, PH_MERGE, PH_PARTITION, PH_PREPARE};
use crate::{NotC1p, RejectSite, Rejection};
use c1p_matrix::{verify_linear, Atom, Ensemble};
use c1p_tutte::TutteTree;

// Per-solve phase timing: two `Instant::now()` reads around the phase
// body, accumulated into the `SolveStats` already threaded through the
// recursion (plain u64 adds — no atomics, no globals, so concurrent
// solves never mix their timings). `stats.phase_ns` is indexed by the
// `PH_*` constants; `c1p_core::stats::PHASE_NAMES` is the label contract.
macro_rules! phase {
    ($stats:ident, $ix:ident, $e:expr) => {{
        let __t0 = std::time::Instant::now();
        let __r = $e;
        $stats.phase_ns[$ix] += __t0.elapsed().as_nanos() as u64;
        __r
    }};
}

// Variant for a phase whose body itself records a nested phase (align
// wraps the Tutte decomposition): the nested accumulation observed across
// the call is subtracted so the phase buckets stay disjoint and their sum
// stays bounded by the solve's wall time on the sequential path.
macro_rules! phase_excluding {
    ($stats:ident, $ix:ident, $nested:ident, $e:expr) => {{
        let __n0 = $stats.phase_ns[$nested];
        let __t0 = std::time::Instant::now();
        let __r = $e;
        let __spent = __t0.elapsed().as_nanos() as u64;
        let __inner = $stats.phase_ns[$nested] - __n0;
        $stats.phase_ns[$ix] += __spent.saturating_sub(__inner);
        __r
    }};
}

/// A subproblem: `n` local atoms (`0..n`) and restricted columns (sorted
/// atom lists, each with ≥ 2 atoms) in one CSR arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubProblem {
    /// Local atom count.
    pub n: usize,
    /// Columns over local atoms.
    pub cols: FlatCols,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Verify every intermediate realization (O(p log n) extra work);
    /// always on in debug builds.
    pub paranoid: bool,
    /// Parallel entries only: subproblems at or below this many atoms
    /// do not fork their children (task overhead dominates below it).
    /// `0` removes the size cutoff — though the scheduler's fork-depth
    /// limit (`log2(threads) + 2`; see `parallel::Sched`) still stops
    /// forking once the tree saturates the pool. [`Config::AUTO_CUTOFF`]
    /// (the default) sizes the cutoff from the instance and the current
    /// pool at entry. The sequential entries never fork, and no counter
    /// or modelled cost depends on this knob.
    pub seq_cutoff: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { paranoid: cfg!(debug_assertions), seq_cutoff: Config::AUTO_CUTOFF }
    }
}

impl Config {
    /// Sentinel for [`Config::seq_cutoff`]: auto-tune from
    /// `rayon::current_num_threads()` and the root instance size.
    pub const AUTO_CUTOFF: usize = usize::MAX;
}

/// Decides C1P for `ens`; returns a verified witness order of the atoms,
/// or an evidence-carrying [`Rejection`] in global atom ids.
pub fn solve(ens: &Ensemble) -> Result<Vec<Atom>, Rejection> {
    solve_with(ens, &Config::default()).0
}

/// [`solve`] with explicit configuration; also returns run statistics,
/// including the modelled PRAM cost. Runs on the calling thread: it
/// never forks onto a rayon pool.
pub fn solve_with(ens: &Ensemble, cfg: &Config) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    solve_components(ens, cfg, &Sched::NEVER)
}

/// The component loop of every whole-ensemble entry: solves each
/// connected component independently, in order, and concatenates
/// (isolated atoms ride along as singleton components). The first
/// rejection ends the solve.
pub(crate) fn solve_components(
    ens: &Ensemble,
    cfg: &Config,
    sched: &Sched,
) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    let mut stats = SolveStats::default();
    let mut order: Vec<Atom> = Vec::with_capacity(ens.n_atoms());
    for (atoms, col_ids) in ens.components() {
        let cols = col_ids.iter().map(|&ci| ens.column(ci as usize));
        // fragment verification deferred: the whole-order verify_linear
        // below covers every component in one pass
        match component_realized(&atoms, cols, cfg, sched, &mut stats, false) {
            Ok(part) => order.extend(part),
            Err(rej) => return (Err(rej), stats),
        }
    }
    // The witness is always validated: soundness does not depend on any
    // solver internals.
    verify_linear(ens, &order).expect("internal error: produced order failed verification");
    (Ok(order), stats)
}

/// Solves one connected component in isolation: `atoms` is the (sorted)
/// component atom set in *global* ids, `cols` its columns in ascending
/// column-id order (restrictions below two atoms are dropped internally,
/// exactly as the whole-ensemble driver does). Returns the realized order
/// and rejection evidence in global atom ids.
///
/// This is the loop body of [`solve_with`] — the incremental solver
/// (`c1p-incremental`) calls it per re-solved component, so a differential
/// re-solve is bit-identical to a from-scratch [`solve`] by construction,
/// not by test alone. The returned fragment is span-verified against the
/// component's own columns before it is handed out. Never forks.
pub fn solve_component<'a>(
    atoms: &[Atom],
    cols: impl Iterator<Item = &'a [Atom]>,
    cfg: &Config,
) -> Result<Vec<Atom>, Rejection> {
    component_realized(atoms, cols, cfg, &Sched::NEVER, &mut SolveStats::default(), true)
}

/// One component under the fork policy `sched`, with the caller's
/// statistics threaded through and fragment verification made optional:
/// external entries always verify (their callers splice the fragment
/// unseen), while [`solve_components`] skips it — its whole-order
/// `verify_linear` already covers every component.
pub(crate) fn component_realized<'a>(
    atoms: &[Atom],
    cols: impl Iterator<Item = &'a [Atom]>,
    cfg: &Config,
    sched: &Sched,
    stats: &mut SolveStats,
    verify_fragment: bool,
) -> Result<Vec<Atom>, Rejection> {
    let sub = build_sub(atoms, cols);
    match realize(&sub, cfg, sched, stats, 0) {
        Ok((local, cost)) => {
            stats.cost = stats.cost.par(cost); // components are independent
            if verify_fragment {
                verify_spans(&sub, &local);
            }
            Ok(local.iter().map(|&i| atoms[i as usize]).collect())
        }
        // component-local evidence → global atom ids
        Err(rej) => Err(rej.fill(sub.n).mapped(atoms)),
    }
}

/// Re-indexes columns onto a local atom set: a connected component of an
/// ensemble, or of a transformed subproblem. `atoms` and each column must
/// be sorted ascending (the [`Ensemble`] invariant) and every column must
/// lie inside `atoms`, so the local columns come out sorted without
/// re-sorting. Columns below two atoms are dropped.
fn build_sub<'a>(atoms: &[u32], cols: impl Iterator<Item = &'a [u32]>) -> SubProblem {
    let max = atoms.iter().copied().max().map_or(0, |m| m as usize + 1);
    with_scratch(max, |s| {
        for (i, &a) in atoms.iter().enumerate() {
            s.place[a as usize] = i as u32;
        }
        let mut out = FlatCols::new();
        for col in cols.filter(|c| c.len() >= 2) {
            out.push_col(col.iter().map(|&a| {
                debug_assert_ne!(s.place[a as usize], u32::MAX, "column atom in the atom set");
                s.place[a as usize]
            }));
        }
        for &a in atoms {
            s.place[a as usize] = u32::MAX;
        }
        SubProblem { n: atoms.len(), cols: out }
    })
}

/// The recursive Path-Realization procedure: an order of the local atoms
/// realizing all columns, and the modelled PRAM cost of the subtree.
/// Counters and phase times accumulate into `stats`; `sched` decides
/// where the independent branches run under `rayon::join`.
pub(crate) fn realize(
    sub: &SubProblem,
    cfg: &Config,
    sched: &Sched,
    stats: &mut SolveStats,
    depth: usize,
) -> Result<(Vec<u32>, Cost), NotC1p> {
    stats.subproblems += 1;
    stats.max_depth = stats.max_depth.max(depth);
    let k = sub.n;
    let p = sub.cols.total_len();
    // Step 0, modelled as the paper's small-subproblem sequential run
    if k <= 2 {
        stats.base_cases += 1;
        return Ok(((0..k as u32).collect(), Cost::of((p + k) as u64, (p + k) as u64)));
    }
    // Step 2: the divide (scan / transform / growth)
    let divide_cost = Cost::of(p.max(1) as u64, log2ceil(k));
    if let Some(ci) = phase!(stats, PH_PARTITION, proper_column(sub)) {
        stats.case1 += 1;
        let (order, cost) =
            split_and_merge(sub, sub.cols.col(ci), MergeMode::Linear, cfg, sched, stats, depth)?;
        Ok((order, divide_cost.seq(cost)))
    } else {
        stats.case2 += 1;
        let t = phase!(stats, PH_PARTITION, tucker_transform(sub));
        // Failures inside the transformed instance cannot be mapped back
        // atom-by-atom (complemented columns, extra atom r): widen the
        // evidence to this subproblem's whole atom set.
        let (cyclic, cost) = match phase!(stats, PH_PARTITION, grow_segment(&t)) {
            Growth::Segment(a1) => {
                split_and_merge(&t, &a1, MergeMode::Cyclic, cfg, sched, stats, depth)
            }
            // trivially decomposes: concatenate independent solutions
            Growth::Components(comps) => realize_comps(&t, &comps, cfg, sched, stats, depth, depth),
        }
        .map_err(|e| e.widened(k))?;
        // cut the cycle at r = k (paper Step 7 Case 2)
        let order = cut_at_r(&cyclic, k);
        if cfg.paranoid {
            verify_spans(sub, &order);
        }
        Ok((order, divide_cost.seq(cost).seq(Cost::of(k as u64, 1))))
    }
}

/// Shared Case-1/Case-2 body: split on `a1`, recurse (a fork point),
/// align, merge.
fn split_and_merge(
    sub: &SubProblem,
    a1: &[u32],
    mode: MergeMode,
    cfg: &Config,
    sched: &Sched,
    stats: &mut SolveStats,
    depth: usize,
) -> Result<(Vec<u32>, Cost), NotC1p> {
    stats.csr_divides += 1;
    let data = phase!(stats, PH_PREPARE, prepare_split(sub, a1));
    // Child evidence (child-local atoms with a non-C1P restriction) maps
    // injectively into this subproblem; each child is a constraint
    // restriction of it, so the mapped evidence stays valid.
    let child = |side: &SubProblem, atoms: &[u32], stats: &mut SolveStats| {
        realize(side, cfg, sched, stats, depth + 1).map_err(|e| e.fill(side.n).mapped(atoms))
    };
    let ((order1, cost1), (order2, cost2)) = join(
        sched.forks(sub.n, depth),
        stats,
        |s| child(&data.sub1, &data.a1, s),
        |s| child(&data.sub2, &data.a2, s),
    )?;
    // A merge failure implicates the whole subproblem.
    let order = combine(&data, &order1, &order2, mode, stats).map_err(|e| e.fill(sub.n))?;
    Ok((order, cost1.par(cost2).seq(combine_cost(sub))))
}

/// The independent components of a Case-2 growth over the transformed
/// instance `t`, realized in order at `depth + 1` and concatenated (a
/// fork point). Where `sched` allows, the list forks in halves, and
/// `level` counts those halvings from `depth` on; the larger components
/// then migrate to idle workers by stealing.
fn realize_comps(
    t: &SubProblem,
    comps: &[(Vec<u32>, Vec<u32>)],
    cfg: &Config,
    sched: &Sched,
    stats: &mut SolveStats,
    depth: usize,
    level: usize,
) -> Result<(Vec<u32>, Cost), NotC1p> {
    let n_atoms: usize = comps.iter().map(|(atoms, _)| atoms.len()).sum();
    if comps.len() > 1 && sched.forks(n_atoms, level) {
        let (left, right) = comps.split_at(comps.len() / 2);
        let ((mut order, cost1), (order2, cost2)) = join(
            true,
            stats,
            |s| realize_comps(t, left, cfg, sched, s, depth, level + 1),
            |s| realize_comps(t, right, cfg, sched, s, depth, level + 1),
        )?;
        order.extend(order2);
        return Ok((order, cost1.par(cost2)));
    }
    let mut order = Vec::with_capacity(n_atoms);
    let mut cost = Cost::ZERO;
    for (atoms, col_ids) in comps {
        let csub = build_sub(atoms, col_ids.iter().map(|&ci| t.cols.col(ci as usize)));
        let (local, c) = realize(&csub, cfg, sched, stats, depth + 1)?;
        cost = cost.par(c);
        order.extend(local.iter().map(|&i| atoms[i as usize]));
    }
    Ok((order, cost))
}

/// Runs two independent branches, under `rayon::join` when `fork` and
/// otherwise in order on this thread. A forked branch counts into its own
/// [`SolveStats`], absorbed where the sequential order would have run it:
/// the second branch's only once the first succeeded. So the counters do
/// not depend on the policy.
fn join<A: Send, B: Send>(
    fork: bool,
    stats: &mut SolveStats,
    first: impl FnOnce(&mut SolveStats) -> Result<A, NotC1p> + Send,
    second: impl FnOnce(&mut SolveStats) -> Result<B, NotC1p> + Send,
) -> Result<(A, B), NotC1p> {
    if !fork {
        let a = first(stats)?;
        return Ok((a, second(stats)?));
    }
    let (mut s1, mut s2) = (SolveStats::default(), SolveStats::default());
    let (a, b) = rayon::join(|| first(&mut s1), || second(&mut s2));
    stats.absorb(&s1);
    let a = a?;
    stats.absorb(&s2);
    Ok((a, b?))
}

/// The modelled cost of one combine, charged per Section 5: decompose
/// \[10\] (Step 3), type identification (Step 4), minimal decomposition
/// and switches \[17\] (Steps 5–6), merge scan (Step 7).
fn combine_cost(sub: &SubProblem) -> Cost {
    let (k, m, p) = (sub.n, sub.cols.n_cols(), sub.cols.total_len().max(1) as u64);
    let lg = log2ceil(k);
    let lglg = log2ceil(lg as usize).max(1);
    Cost::of((k + m) as u64 * lglg, lg)
        .seq(Cost::step(p))
        .seq(Cost::of((k + m) as u64, lg))
        .seq(Cost::of(p, lg))
}

/// Everything the combine step needs, precomputed before recursion.
pub struct SplitData {
    /// Segment atoms (subproblem-local, sorted).
    pub a1: Vec<u32>,
    /// Host atoms.
    pub a2: Vec<u32>,
    /// Per-column split + crossing type.
    pub split_cols: SplitCols,
    /// Segment subproblem.
    pub sub1: SubProblem,
    /// Host subproblem.
    pub sub2: SubProblem,
}

/// The divide: split columns across `{A1, A2}` and classify (Step 2 +
/// Step 4's type identification) in one branch-free pass over the
/// entries.
///
/// The scratch `place` table packs each atom's side and its index within
/// that side (`place[a] = idx << 1 | (a ∈ A1)`), so an entry costs one
/// table load. Every entry is then written to both of its candidate
/// slots — the parts arena (segment part) and the host staging buffer,
/// and both side projections — and one cursor advances by the side bit;
/// a slot written for the other side is overwritten by a later entry or
/// lies past the final length. The arenas are sized up front from `p`
/// and `m`, so the inner loop has no data-dependent branch and no
/// capacity check. The monotone `place` renumbering keeps every output
/// column sorted, so no level re-sorts.
///
/// Public so benches can measure the divide in isolation; not a stable
/// API.
pub fn prepare_split(sub: &SubProblem, a1: &[u32]) -> SplitData {
    let k = sub.n;
    let (offsets, data) = sub.cols.raw_csr();
    let m = offsets.len() - 1;
    // the finished columns tile `data[..p]` (`offsets[0] == 0` is a
    // `FlatCols` invariant); an unfinished column's atoms stay out
    let p = offsets[m] as usize;
    let data = &data[..p];
    debug_assert!(k < 1 << 31, "side index must fit beside the side bit");
    with_scratch(k, |s| {
        for (i, &a) in a1.iter().enumerate() {
            s.place[a as usize] = (i as u32) << 1 | 1;
        }
        let mut a2: Vec<u32> = Vec::with_capacity(k - a1.len());
        for a in 0..k as u32 {
            if s.place[a as usize] == u32::MAX {
                s.place[a as usize] = (a2.len() as u32) << 1;
                a2.push(a);
            }
        }
        let (k1, k2) = (a1.len(), a2.len());
        debug_assert!(k1 > 0 && k2 > 0, "partition must be proper");
        let max_len = offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0);
        s.tmp.reserve(max_len);
        // a parts column has its input column's length: same offsets
        let mut parts_off = take_u32(m + 1);
        parts_off.extend_from_slice(offsets);
        let mut parts = take_u32(p);
        let mut seg_len = take_u32(m);
        let mut ty = take_ty(m);
        let (mut offs1, mut offs2) = (take_u32(m + 1), take_u32(m + 1));
        offs1.push(0);
        offs2.push(0);
        let (mut data1, mut data2) = (take_u32(p), take_u32(p));
        let (parts_ptr, stage_ptr) = (parts.as_mut_ptr(), s.tmp.as_mut_ptr());
        let (d1_ptr, d2_ptr) = (data1.as_mut_ptr(), data2.as_mut_ptr());
        let place = &s.place;
        let (mut c1, mut c2) = (0usize, 0usize);
        for ci in 0..m {
            let (lo, hi) = (offsets[ci] as usize, offsets[ci + 1] as usize);
            let mut sn = 0usize;
            for (j, &a) in data[lo..hi].iter().enumerate() {
                let packed = place[a as usize];
                let hn = j - sn;
                // SAFETY: `sn + hn = j < hi - lo`, so the parts slot
                // `lo + sn < hi <= p` and the staging slot `hn < max_len`,
                // both within the reserved capacities. `c1` (`c2`) sums
                // the kept segment (host) part lengths of earlier
                // columns, so it is at most `lo`, and `c1 + sn < hi <= p`
                // bounds the projection slots the same way.
                unsafe {
                    parts_ptr.add(lo + sn).write(a);
                    stage_ptr.add(hn).write(a);
                    d1_ptr.add(c1 + sn).write(packed >> 1);
                    d2_ptr.add(c2 + hn).write(packed >> 1);
                }
                sn += (packed & 1) as usize;
            }
            let hn = hi - lo - sn;
            // SAFETY: the host part fills parts slots `lo + sn..hi`, in
            // bounds as above; the staging buffer is a separate
            // allocation, so the ranges cannot overlap.
            unsafe { std::ptr::copy_nonoverlapping(stage_ptr, parts_ptr.add(lo + sn), hn) };
            seg_len.push(sn as u32);
            ty.push(if sn == 0 || hn == 0 {
                CrossType::C
            } else if sn == k1 {
                CrossType::A
            } else {
                CrossType::B
            });
            // side projections keep restrictions with ≥ 2 atoms that do
            // not cover the whole side
            if sn >= 2 && sn < k1 {
                c1 += sn;
                offs1.push(c1 as u32);
            }
            if hn >= 2 && hn < k2 {
                c2 += hn;
                offs2.push(c2 as u32);
            }
        }
        // SAFETY: every parts slot `0..p` holds its column's segment or
        // host atom, and each kept projection column's slots were last
        // written by its own entries (a later stray write lands at or past
        // the next column's start, which that column rewrites first).
        unsafe {
            parts.set_len(p);
            data1.set_len(c1);
            data2.set_len(c2);
        }
        // restore scratch (O(k): every atom was touched)
        s.place[..k].fill(u32::MAX);
        SplitData {
            a1: a1.to_vec(),
            a2,
            split_cols: SplitCols::from_raw(parts_off, parts, seg_len, ty),
            sub1: SubProblem { n: k1, cols: FlatCols::from_raw(offs1, data1) },
            sub2: SubProblem { n: k2, cols: FlatCols::from_raw(offs2, data2) },
        }
    })
}

/// The combine: Steps 3–7 (decompose, align, merge). Each side's alignment
/// yields a small set of candidate re-arrangements (Section 4's switches);
/// every pair is checked by the verifying merge.
pub(crate) fn combine(
    data: &SplitData,
    order1: &[u32],
    order2: &[u32],
    mode: MergeMode,
    stats: &mut SolveStats,
) -> Result<Vec<u32>, NotC1p> {
    let SplitData { a1, a2, split_cols, .. } = data;
    // Identity fast path: the recursive orders are already realizations
    // of their side restrictions, and in practice they usually satisfy
    // the GAP/GAC junction conditions as-is. Trying them costs one O(p)
    // merge scan and skips Steps 3–6 (decompose + funnel) entirely when
    // it lands; the merge's own candidate checks (and the top-level
    // witness verification) keep this a pure scheduling shortcut.
    let id_seg: Vec<u32> = order1.iter().map(|&x| a1[x as usize]).collect();
    let id_host: Vec<u32> = order2.iter().map(|&x| a2[x as usize]).collect();
    if let Ok(m) = phase!(stats, PH_MERGE, merge(&id_seg, &id_host, split_cols, mode)) {
        stats.fast_merges += 1;
        return Ok(m);
    }
    // Host-side-first funnel: align the host side alone and try each
    // candidate against the identity segment order. Misalignment often
    // sits on one side only, and a hit here skips the segment side's
    // decomposition entirely. Trying extra pairs is sound and cannot
    // flip a verdict: the merge verifies every candidate against the
    // split columns, so a pair that merges is a realization either way,
    // and a truly non-C1P junction fails all pairs no matter the order.
    let (host, host_cands) = phase_excluding!(stats, PH_ALIGN, PH_DECOMPOSE, {
        let host = Side::decompose(a2, order2, split_cols, false, stats);
        let cands = host.candidates(align_side2);
        (host, cands)
    });
    let host_only = phase!(stats, PH_MERGE, {
        host_cands.iter().find_map(|host| merge(&id_seg, host, split_cols, mode).ok())
    });
    if let Some(m) = host_only {
        stats.fast_merges += 1;
        return Ok(m);
    }
    let seg_cands = phase_excluding!(
        stats,
        PH_ALIGN,
        PH_DECOMPOSE,
        Side::decompose(a1, order1, split_cols, true, stats).candidates(align_side1)
    );
    let merged = phase!(stats, PH_MERGE, {
        host_cands.iter().find_map(|host| {
            seg_cands.iter().find_map(|seg| merge(seg, host, split_cols, mode).ok())
        })
    });
    if let Some(m) = merged {
        return Ok(m);
    }
    if mode == MergeMode::Linear {
        return Err(NotC1p::at(RejectSite::Merge));
    }
    // Cyclic fallback (module docs of `crate::align`): host candidates
    // with the crossing restrictions at both host ends, tried only once
    // every pairing above has failed, so no order accepted above changes.
    let cyclic_cands = phase!(stats, PH_ALIGN, host.candidates(align_host_cyclic));
    phase!(stats, PH_MERGE, {
        cyclic_cands
            .iter()
            .filter(|host| !host_cands.contains(host))
            .find_map(|host| {
                std::iter::once(&id_seg)
                    .chain(&seg_cands)
                    .find_map(|seg| merge(seg, host, split_cols, mode).ok())
            })
            .ok_or(NotC1p::at(RejectSite::Merge))
    })
}

/// Step 7, Case 2: cut the merged cycle at the transform atom `r = k` —
/// a rotation done with two block copies.
pub(crate) fn cut_at_r(cyclic: &[u32], k: usize) -> Vec<u32> {
    debug_assert_eq!(cyclic.len(), k + 1, "cycle covers the transformed atom set");
    let rpos = cyclic.iter().position(|&a| a == k as u32).expect("r on the cycle");
    let mut order = Vec::with_capacity(k);
    order.extend_from_slice(&cyclic[rpos + 1..]);
    order.extend_from_slice(&cyclic[..rpos]);
    order
}

/// One side of a divide after Steps 3–4: the gp-realization's chords,
/// built from the side's recursive order, and their Tutte decomposition.
/// Kept whole so the side can be aligned more than one way (Steps 5–6)
/// without decomposing it again.
struct Side<'a> {
    /// The side's subproblem-local atoms.
    atoms: &'a [u32],
    /// The side's recursive order (indices into `atoms`).
    order: &'a [u32],
    infos: Vec<ChordInfo>,
    /// `None` when no chord crosses: nothing constrains the junction.
    tree: Option<TutteTree>,
}

impl<'a> Side<'a> {
    /// Steps 3–4 for the segment side (`seg_side`) or the host side.
    fn decompose(
        atoms: &'a [u32],
        order: &'a [u32],
        split_cols: &SplitCols,
        seg_side: bool,
        stats: &mut SolveStats,
    ) -> Side<'a> {
        let max = atoms.iter().map(|&a| a as usize + 1).max().unwrap_or(0);
        let infos = with_scratch(max, |s| {
            // pos[subproblem-local atom] = position in this side's order
            for (i, &x) in order.iter().enumerate() {
                s.pos[atoms[x as usize] as usize] = i as u32;
            }
            let chords = side_chords(split_cols, seg_side, &s.pos);
            for &a in atoms {
                s.pos[a as usize] = u32::MAX;
            }
            chords
        });
        let tree = infos.iter().any(|i| i.ty != CrossType::C).then(|| {
            let spans: Vec<(u32, u32)> = infos.iter().map(|i| i.span).collect();
            let tree = phase!(
                stats,
                PH_DECOMPOSE,
                c1p_tutte::decompose(atoms.len(), &spans).expect("valid spans")
            );
            stats.decompositions += 1;
            stats.members += tree.n_members();
            tree
        });
        Side { atoms, order, infos, tree }
    }

    /// Steps 5–6: the distinct candidate orders `align` yields, composed
    /// back into sequences of subproblem-local atoms.
    fn candidates(
        &self,
        align: for<'t> fn(&'t TutteTree, &[ChordInfo]) -> Vec<Aligned<'t>>,
    ) -> Vec<Vec<u32>> {
        let (atoms, order) = (self.atoms, self.order);
        let Some(tree) = &self.tree else {
            // nothing constrains the junction; keep the recursive order
            return vec![order.iter().map(|&x| atoms[x as usize]).collect()];
        };
        let mut out: Vec<Vec<u32>> = Vec::new();
        for cand in &align(tree, &self.infos) {
            // composed[i] = original order position at new position i
            let seq: Vec<u32> =
                cand.compose().iter().map(|&p| atoms[order[p as usize] as usize]).collect();
            if !out.contains(&seq) {
                out.push(seq);
            }
        }
        out
    }
}

/// The chords of one side's gp-realization: every column restriction
/// with ≥ 2 atoms (decomposition fidelity: they pin the polygon
/// re-linkings), plus crossing restrictions of 1 atom (they must still
/// reach the split vertex). `pos` maps a side atom to its position in
/// the side's order.
fn side_chords(split_cols: &SplitCols, seg_side: bool, pos: &[u32]) -> Vec<ChordInfo> {
    let mut infos: Vec<ChordInfo> = Vec::new();
    for ci in 0..split_cols.len() {
        let part = if seg_side { split_cols.seg(ci) } else { split_cols.host(ci) };
        if part.is_empty() {
            continue;
        }
        let ty = split_cols.ty(ci);
        if part.len() == 1 && ty == CrossType::C {
            continue;
        }
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &a in part {
            let p = pos[a as usize];
            lo = lo.min(p);
            hi = hi.max(p);
        }
        debug_assert_eq!(
            (hi - lo + 1) as usize,
            part.len(),
            "recursive order must realize the restriction"
        );
        infos.push(ChordInfo { span: (lo, hi + 1), ty });
    }
    infos
}

/// Span check: `order` realizes the subproblem. O(p); used by the
/// paranoid mode and unconditionally on component fragments handed to
/// external callers ([`solve_component`]).
pub(crate) fn verify_spans(sub: &SubProblem, order: &[u32]) {
    let mut pos = vec![u32::MAX; sub.n];
    for (i, &a) in order.iter().enumerate() {
        pos[a as usize] = i as u32;
    }
    for col in sub.cols.iter() {
        let mut lo = u32::MAX;
        let mut hi = 0;
        for &a in col {
            lo = lo.min(pos[a as usize]);
            hi = hi.max(pos[a as usize]);
        }
        assert_eq!(
            (hi - lo + 1) as usize,
            col.len(),
            "realization invariant violated for {col:?} in {order:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::io::fig2_matrix;
    use c1p_matrix::tucker;
    use c1p_matrix::verify::brute_force_linear;

    fn ens(n: usize, cols: Vec<Vec<Atom>>) -> Ensemble {
        Ensemble::from_columns(n, cols).unwrap()
    }

    #[test]
    fn trivial_instances() {
        assert_eq!(solve(&ens(0, vec![])), Ok(vec![]));
        assert_eq!(solve(&ens(1, vec![vec![0]])), Ok(vec![0]));
        assert!(solve(&ens(2, vec![vec![0, 1]])).is_ok());
        assert!(solve(&ens(5, vec![])).is_ok());
    }

    #[test]
    fn simple_intervals() {
        let e = ens(5, vec![vec![0, 1, 2], vec![2, 3], vec![3, 4]]);
        let order = solve(&e).expect("C1P");
        verify_linear(&e, &order).unwrap();
    }

    #[test]
    fn rejects_cycle() {
        let e = ens(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]);
        let rej = solve(&e).unwrap_err();
        // evidence: the restriction to the named atoms is itself non-C1P
        assert!(!rej.atoms.is_empty());
        let (sub, _) = e.restrict(&rej.atoms, 2);
        assert!(brute_force_linear(&sub).is_none(), "evidence must stay non-C1P");
    }

    #[test]
    fn fig2_running_example() {
        let e = fig2_matrix();
        let order = solve(&e).expect("the paper's Fig. 2 matrix is C1P");
        verify_linear(&e, &order).unwrap();
    }

    #[test]
    fn rejects_all_tucker() {
        for (name, e) in tucker::small_obstructions() {
            let rej = solve(&e).expect_err(&format!("{name} must be rejected"));
            assert!(!rej.atoms.is_empty(), "{name}: rejection carries evidence");
            assert!(rej.atoms.iter().all(|&a| (a as usize) < e.n_atoms()), "{name}");
            if e.n_atoms() <= 8 {
                let (sub, _) = e.restrict(&rej.atoms, 2);
                assert!(brute_force_linear(&sub).is_none(), "{name}: evidence non-C1P");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_small() {
        // exhaustive 4-atom, 2-column instances
        for n in [3usize, 4] {
            let masks = 1usize << n;
            for c1 in 0..masks {
                for c2 in 0..masks {
                    let cols: Vec<Vec<Atom>> = [c1, c2]
                        .iter()
                        .map(|&m| (0..n as Atom).filter(|&a| m >> a & 1 == 1).collect())
                        .collect();
                    let e = ens(n, cols);
                    let got = solve(&e).is_ok();
                    let expect = brute_force_linear(&e).is_some();
                    assert_eq!(got, expect, "mismatch on {:?}", e.to_matrix());
                }
            }
        }
        // A 10-atom instance whose top-level Case 2 needs the host's two
        // crossing restrictions at opposite ends of the host arc (the
        // cyclic host alignment in `align`). Every column order must agree
        // with brute force; the verdict does not depend on column order.
        let cols: [&[Atom]; 6] = [
            &[1, 3, 9],
            &[1, 5, 7],
            &[2, 6, 8],
            &[1, 2, 3, 5, 6, 7, 9],
            &[5, 6, 7],
            &[0, 2, 4, 5, 6, 7, 8],
        ];
        let expect = brute_force_linear(&ens(10, cols.iter().map(|c| c.to_vec()).collect()));
        assert!(expect.is_some(), "the 10-atom instance is C1P");
        let mut perm: Vec<usize> = (0..cols.len()).collect();
        let mut orders = std::collections::HashSet::new();
        for_each_permutation(&mut perm, cols.len(), &mut |p| {
            orders.insert(p.to_vec());
            let e = ens(10, p.iter().map(|&i| cols[i].to_vec()).collect());
            let got = solve(&e).unwrap_or_else(|r| panic!("column order {p:?} rejected: {r:?}"));
            verify_linear(&e, &got).unwrap();
        });
        assert_eq!(orders.len(), 720, "every column order is tried");
    }

    /// Heap's algorithm: calls `f` once per permutation of `items[..k]`.
    fn for_each_permutation(items: &mut [usize], k: usize, f: &mut dyn FnMut(&[usize])) {
        if k <= 1 {
            f(items);
            return;
        }
        for_each_permutation(items, k - 1, f);
        for i in 0..k - 1 {
            items.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
            for_each_permutation(items, k - 1, f);
        }
    }

    #[test]
    fn cut_at_r_rotates() {
        // r = 4 in the middle
        assert_eq!(cut_at_r(&[2, 0, 4, 3, 1], 4), vec![3, 1, 2, 0]);
    }

    #[test]
    fn cut_at_r_at_front() {
        assert_eq!(cut_at_r(&[3, 1, 2, 0], 3), vec![1, 2, 0]);
    }

    #[test]
    fn cut_at_r_at_back() {
        assert_eq!(cut_at_r(&[1, 2, 0, 3], 3), vec![1, 2, 0]);
    }

    #[test]
    fn cut_at_r_two_atoms() {
        assert_eq!(cut_at_r(&[2, 0, 1], 2), vec![0, 1]);
        assert_eq!(cut_at_r(&[0, 1, 2], 2), vec![0, 1]);
    }

    #[test]
    fn prepare_split_partitions_and_classifies() {
        // 6 atoms, A1 = {1, 3, 4}: check parts, projections, types
        let sub = SubProblem {
            n: 6,
            cols: FlatCols::from_cols([
                [1u32, 3].as_slice(),    // inside A1 → C
                [0, 2].as_slice(),       // inside A2 → C
                [1, 2, 3, 4].as_slice(), // seg {1,3,4} = all of A1 → A
                [2, 3].as_slice(),       // proper crossing → B
            ]),
        };
        let data = prepare_split(&sub, &[1, 3, 4]);
        assert_eq!(data.a2, vec![0, 2, 5]);
        assert_eq!(data.split_cols.seg(0), &[1, 3]);
        assert_eq!(data.split_cols.host(0), &[] as &[u32]);
        assert_eq!(data.split_cols.ty(0), CrossType::C);
        assert_eq!(data.split_cols.ty(1), CrossType::C);
        assert_eq!(data.split_cols.seg(2), &[1, 3, 4]);
        assert_eq!(data.split_cols.host(2), &[2]);
        assert_eq!(data.split_cols.ty(2), CrossType::A);
        assert_eq!(data.split_cols.seg(3), &[3]);
        assert_eq!(data.split_cols.host(3), &[2]);
        assert_eq!(data.split_cols.ty(3), CrossType::B);
        // sub1 keeps only column 0 projected onto A1-local ids {1→0, 3→1}
        assert_eq!(data.sub1.cols.iter().collect::<Vec<_>>(), vec![&[0u32, 1][..]]);
        // sub2 keeps only column 1 projected onto A2-local ids {0→0, 2→1}
        assert_eq!(data.sub2.cols.iter().collect::<Vec<_>>(), vec![&[0u32, 1][..]]);
    }
}

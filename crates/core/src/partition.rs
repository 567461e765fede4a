//! The divide step (paper Section 3.2): choosing the balanced connected
//! segment `A1`.
//!
//! **Case 1** — a *proper-size* column exists (`|A|/3 ≤ |C| ≤ 2|A|/3`):
//! take `A1 = C`. A column is trivially connected and always a segment.
//!
//! **Case 2** — all columns are small (`< |A|/3`) or large (`> 2|A|/3`):
//! apply Tucker's complement transform (add atom `r`, complement the large
//! columns) so every column becomes small and the problem turns circular;
//! then grow a connected union of columns past `|A'|/3` atoms. Because each
//! column is small the union lands in a balanced window, and a connected
//! union of arcs of a cycle is an arc — a segment. When every connected
//! component is smaller than the window, the instance "trivially
//! decomposes" into independent subproblems.
//!
//! Everything here is allocation-lean: the transform streams into one
//! CSR arena, and the growth labels atoms/columns with component ids so
//! the (sorted) atom sets fall out of a single `0..k` scan instead of
//! per-component sorts.

use crate::flat::FlatCols;
use crate::solver::SubProblem;

/// Finds a proper-size column: `|A|/3 ≤ |C| ≤ 2|A|/3` (paper Case 1).
pub fn proper_column(sub: &SubProblem) -> Option<usize> {
    let k = sub.n;
    (0..sub.cols.n_cols()).find(|&ci| {
        let len = sub.cols.col_len(ci);
        3 * len >= k && 3 * len <= 2 * k
    })
}

/// The transformed instance of Case 2 over `k + 1` atoms (`r = k`), per
/// column: the kept-or-complemented atom set (columns reduced below two
/// atoms are dropped).
///
/// Rejection-evidence note: the transform is *not* a constraint
/// restriction of its input (columns are complemented and the atom `r`
/// is invented), so [`crate::Rejection`] evidence produced inside the
/// transformed recursion cannot be mapped back atom-by-atom; the callers
/// in `solver.rs`/`parallel.rs` widen it to the whole pre-transform atom
/// set via [`crate::Rejection::widened`] instead.
pub fn tucker_transform(sub: &SubProblem) -> SubProblem {
    let k = sub.n;
    let r = k as u32;
    // exact arena size in one O(m) pass over the column lengths
    let mut entries = 0usize;
    for ci in 0..sub.cols.n_cols() {
        let len = sub.cols.col_len(ci);
        entries += if 3 * len <= 2 * k { len } else { k - len + 1 };
    }
    let mut cols = FlatCols::with_capacity(sub.cols.n_cols(), entries);
    crate::flat::with_scratch(k, |s| {
        // s.mark doubles as the "present" bitmap; restored per column
        for col in sub.cols.iter() {
            if 3 * col.len() <= 2 * k {
                // small column (Case-2 precondition: actually < k/3) — keep
                if col.len() >= 2 {
                    cols.push_col(col.iter().copied());
                }
                continue;
            }
            for &a in col {
                s.mark[a as usize] = true;
            }
            // complement stays ascending; r = k lands last
            cols.extend_building_from((0..k as u32).filter(|&a| !s.mark[a as usize]));
            cols.push(r);
            if cols.building_len() >= 2 {
                cols.finish_col();
            } else {
                cols.cancel_col();
            }
            for &a in col {
                s.mark[a as usize] = false;
            }
        }
    });
    SubProblem { n: k + 1, cols }
}

/// Result of the Case-2 growth.
pub enum Growth {
    /// A connected column union with `|A'|/3 < |A1|`, sorted ascending.
    Segment(Vec<u32>),
    /// Every connected component is small: the transformed instance
    /// decomposes into these independent components
    /// `(atom sets, column index sets)`; isolated atoms form singleton
    /// components.
    Components(Vec<(Vec<u32>, Vec<u32>)>),
}

/// Grows a connected set of columns of the transformed instance until its
/// atom union exceeds `|A'|/3` (paper Section 3.2's tree-contraction step,
/// done here by BFS over the column–atom bipartite graph, on a CSR
/// atom→columns adjacency).
pub fn grow_segment(sub: &SubProblem) -> Growth {
    GROW_SCRATCH.with(|cell| grow_body(sub.n, &sub.cols, &mut cell.borrow_mut()))
}

/// Reused working memory for [`grow_segment`]: the adjacency arrays and BFS
/// state are rebuilt on every Case-2 divide, so pooling them per thread
/// turns six allocations per call (one of them `O(p)`) into none after
/// warm-up. Contents are garbage between calls — every field is
/// re-lengthed and rewritten by `grow_body` before use.
#[derive(Default)]
struct GrowScratch {
    adj_off: Vec<u32>,
    adj: Vec<u32>,
    cursor: Vec<u32>,
    col_comp: Vec<u32>,
    atom_comp: Vec<u32>,
    queue: std::collections::VecDeque<u32>,
}

thread_local! {
    static GROW_SCRATCH: std::cell::RefCell<GrowScratch> =
        std::cell::RefCell::new(GrowScratch::default());
}

fn grow_body(k: usize, sub_cols: &FlatCols, s: &mut GrowScratch) -> Growth {
    let GrowScratch { adj_off, adj, cursor, col_comp, atom_comp, queue } = s;
    let (off, atoms) = sub_cols.raw_csr();
    let m = off.len() - 1;
    const UNSEEN: u32 = u32::MAX;
    let col = |ci: usize| &atoms[off[ci] as usize..off[ci + 1] as usize];

    // Incremental union-find growth: columns ascending, each column unions
    // its atoms into one set. The first column that pushes a set past
    // `k/3` names a connected union of already-processed columns — in the
    // common case it is already balanced (Case 2's small columns add
    // `< k/3` atoms at a time) and the call ends having touched only a
    // prefix of the entries, instead of paying the full atom→column
    // adjacency build the BFS below needs.
    let parent = atom_comp; // role change: union-find parent, re-lengthed
    parent.clear();
    parent.extend(0..k as u32);
    let size = cursor; // role change: set size at each root
    size.clear();
    size.resize(k, 1);
    let mut crossed = None;
    for ci in 0..m {
        let c = col(ci);
        let Some((&a0, rest)) = c.split_first() else { continue };
        let mut r = find(parent, a0);
        for &a in rest {
            let ra = find(parent, a);
            if ra != r {
                let (big, small) =
                    if size[r as usize] >= size[ra as usize] { (r, ra) } else { (ra, r) };
                parent[small as usize] = big;
                size[big as usize] += size[small as usize];
                r = big;
            }
        }
        if 3 * size[r as usize] as usize > k {
            crossed = Some(r);
            break;
        }
    }
    match crossed {
        Some(r) if 3 * (size[r as usize] as usize) <= 2 * k => {
            // collect the grown atoms sorted via one ascending scan
            let a1: Vec<u32> = (0..k as u32).filter(|&a| find(parent, a) == r).collect();
            debug_assert_eq!(a1.len(), size[r as usize] as usize);
            Growth::Segment(a1)
        }
        Some(_) => {
            // overshoot: one column glued several near-window sets (only
            // possible when a column violates Case 2's `< k/3` bound, or
            // merges many sets at once). The BFS re-grows atom-by-atom,
            // which cannot overshoot a balanced window.
            grow_bfs(k, off, atoms, adj_off, adj, size, col_comp, parent, queue)
        }
        None => {
            // no set crossed the window: the union-find sets ARE the
            // connected components; emit them keyed by first column
            let root_comp = col_comp; // role change: root atom → comp index
            root_comp.clear();
            root_comp.resize(k, UNSEEN);
            let mut components: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
            for ci in 0..m {
                match col(ci).first() {
                    Some(&a0) => {
                        let r = find(parent, a0) as usize;
                        if root_comp[r] == UNSEEN {
                            root_comp[r] = components.len() as u32;
                            components.push((Vec::new(), Vec::new()));
                        }
                        components[root_comp[r] as usize].1.push(ci as u32);
                    }
                    // an empty column is its own (atomless) component
                    None => components.push((Vec::new(), vec![ci as u32])),
                }
            }
            // isolated atoms become singleton components
            for a in 0..k as u32 {
                match root_comp[find(parent, a) as usize] {
                    UNSEEN => components.push((vec![a], Vec::new())),
                    comp => components[comp as usize].0.push(a),
                }
            }
            Growth::Components(components)
        }
    }
}

/// Path-halving find for the growth's union-find pass.
#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// The original adjacency-building BFS growth — now only the fallback for
/// the rare union-find overshoot. Grows atom-by-atom, so every window
/// check moves by less than one column's worth of atoms and the first
/// crossing is balanced by construction.
#[cold]
#[allow(clippy::too_many_arguments)]
fn grow_bfs(
    k: usize,
    off: &[u32],
    atoms: &[u32],
    adj_off: &mut Vec<u32>,
    adj: &mut Vec<u32>,
    cursor: &mut Vec<u32>,
    col_comp: &mut Vec<u32>,
    atom_comp: &mut Vec<u32>,
    queue: &mut std::collections::VecDeque<u32>,
) -> Growth {
    let m = off.len() - 1;
    let p = atoms.len();
    const UNSEEN: u32 = u32::MAX;
    let col = |ci: usize| &atoms[off[ci] as usize..off[ci + 1] as usize];
    // CSR adjacency atom → columns (counting pass + placement pass)
    adj_off.clear();
    adj_off.resize(k + 1, 0);
    for &a in atoms {
        adj_off[a as usize + 1] += 1;
    }
    for i in 0..k {
        adj_off[i + 1] += adj_off[i];
    }
    // every slot of adj[..p] is written by the placement pass, so stale
    // words from the previous call never escape — no zero fill needed
    if adj.len() < p {
        adj.resize(p, 0);
    }
    let adj = &mut adj[..p];
    cursor.clear();
    cursor.extend_from_slice(adj_off);
    for ci in 0..m {
        for &a in col(ci) {
            adj[cursor[a as usize] as usize] = ci as u32;
            cursor[a as usize] += 1;
        }
    }
    // BFS per component, labeling atoms and columns with component ids
    col_comp.clear();
    col_comp.resize(m, UNSEEN);
    atom_comp.clear();
    atom_comp.resize(k, UNSEEN);
    queue.clear();
    let mut comp_cols: Vec<Vec<u32>> = Vec::new();
    for start in 0..m {
        if col_comp[start] != UNSEEN {
            continue;
        }
        let comp = comp_cols.len() as u32;
        let mut cols: Vec<u32> = Vec::new();
        let mut n_atoms = 0usize;
        queue.push_back(start as u32);
        col_comp[start] = comp;
        while let Some(ci) = queue.pop_front() {
            cols.push(ci);
            for &a in col(ci as usize) {
                if atom_comp[a as usize] == UNSEEN {
                    atom_comp[a as usize] = comp;
                    n_atoms += 1;
                    for &cj in &adj[adj_off[a as usize] as usize..adj_off[a as usize + 1] as usize]
                    {
                        if col_comp[cj as usize] == UNSEEN {
                            col_comp[cj as usize] = comp;
                            queue.push_back(cj);
                        }
                    }
                }
            }
            if 3 * n_atoms > k {
                // collect the grown atoms sorted via one ascending scan
                let a1: Vec<u32> =
                    (0..k as u32).filter(|&a| atom_comp[a as usize] == comp).collect();
                debug_assert_eq!(a1.len(), n_atoms);
                return Growth::Segment(a1);
            }
        }
        comp_cols.push(cols);
    }
    // isolated atoms become singleton components
    let mut components: Vec<(Vec<u32>, Vec<u32>)> =
        comp_cols.into_iter().map(|cols| (Vec::new(), cols)).collect();
    for a in 0..k as u32 {
        match atom_comp[a as usize] {
            UNSEEN => components.push((vec![a], Vec::new())),
            comp => components[comp as usize].0.push(a),
        }
    }
    Growth::Components(components)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(n: usize, cols: &[&[u32]]) -> SubProblem {
        SubProblem { n, cols: FlatCols::from_cols(cols) }
    }

    #[test]
    fn proper_column_window() {
        let s = sub(9, &[&[0, 1], &[0, 1, 2], &[0, 1, 2, 3, 4, 5, 6]]);
        // sizes 2 (too small: 6 < 9), 3 (9 ∈ [9, 18] ✓), 7 (21 > 18)
        assert_eq!(proper_column(&s), Some(1));
        let none = sub(9, &[&[0, 1], &[0, 1, 2, 3, 4, 5, 6]]);
        assert_eq!(proper_column(&none), None);
    }

    #[test]
    fn transform_complements_large() {
        let s = sub(6, &[&[0, 1, 2, 3, 4], &[0, 1]]);
        let t = tucker_transform(&s);
        assert_eq!(t.n, 7);
        assert_eq!(t.cols, FlatCols::from_cols([[5u32, 6].as_slice(), &[0, 1]]));
    }

    #[test]
    fn transform_drops_trivial_complements() {
        // full column complements to {r} alone → dropped
        let s = sub(5, &[&[0, 1, 2, 3, 4]]);
        let t = tucker_transform(&s);
        assert!(t.cols.is_empty());
    }

    #[test]
    fn growth_finds_window() {
        // chain of overlapping pairs over 9 atoms: grows to > 3 atoms
        let s = sub(9, &[&[0, 1], &[1, 2], &[2, 3], &[5, 6], &[7, 8]]);
        match grow_segment(&s) {
            Growth::Segment(a1) => {
                assert!(3 * a1.len() > 9, "window: {a1:?}");
                assert!(a1.len() < 9);
                // connected: must be a prefix chain {0,1,2,...}
                assert!(a1.windows(2).all(|w| w[1] == w[0] + 1));
            }
            Growth::Components(_) => panic!("expected a segment"),
        }
    }

    #[test]
    fn growth_reports_components() {
        // all components have ≤ 2 atoms over 9: nothing crosses 3
        let s = sub(9, &[&[0, 1], &[3, 4], &[6, 7]]);
        match grow_segment(&s) {
            Growth::Segment(_) => panic!("components expected"),
            Growth::Components(comps) => {
                // three column components + isolated atoms 2, 5, 8
                assert_eq!(comps.len(), 6);
                let sizes: Vec<usize> = comps.iter().map(|(a, _)| a.len()).collect();
                assert_eq!(sizes.iter().sum::<usize>(), 9);
            }
        }
    }

    #[test]
    fn growth_component_atoms_are_sorted() {
        // shared atoms discovered out of order must still come out sorted
        let s = sub(10, &[&[4, 7], &[2, 7], &[0, 9]]);
        match grow_segment(&s) {
            Growth::Segment(_) => panic!("components expected"),
            Growth::Components(comps) => {
                for (atoms, _) in &comps {
                    assert!(atoms.windows(2).all(|w| w[0] < w[1]), "unsorted: {atoms:?}");
                }
            }
        }
    }
}

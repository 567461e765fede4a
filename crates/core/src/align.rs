//! Computing the Whitney switches (paper Section 4).
//!
//! The recursion hands back two realizations; before merging they must be
//! re-arranged within their 2-isomorphism classes so the GAP/GAC conditions
//! hold. All available switches are exposed by the Tutte decomposition
//! (Theorem 2): polygons may permute their edges freely, rigid members only
//! reflect, markers only re-orient. The case algorithms of Section 4.1
//! *funnel* a chord's attachment along a decomposition-tree chain:
//!
//! * in every **polygon**, re-link the ring so the chain edge sits on the
//!   correct side of the entry edge (a Whitney re-linking — always legal);
//! * in every **rigid** member, the chain edge must share the required
//!   perimeter vertex with the entry edge; the only freedom is the
//!   member's reflection (a marker re-orientation). Failing both
//!   orientations is the paper's "halt: not path-graphic";
//! * **bonds** are transparent (every edge touches both member vertices).
//!
//! The funnel runs **top-down** tracking the member's composition
//! direction and the *side* (left/right boundary of the member's
//! expansion) the chain must exit through — this is what makes the chains
//! of two different leaves meet head-to-head at their junction.
//!
//! `align_side1` implements Section 4.2.1 (Cases A and B: type-b chords to
//! the path ends); `align_side2` implements Section 4.2.2 (Case C: crossing
//! chords funnelled to a common split vertex, using the paper's
//! nearest-to-the-root constraining edge `g`). Both return *candidate*
//! arrangements; the merge verifies each against every column, so
//! soundness never rests on the funnel geometry.
//!
//! A cyclic (GAC) merge has one more shape: the host arc meets the
//! segment at both of its ends, so two crossing restrictions of the host
//! may have to sit at *opposite* host ends, which `align_side2`'s common
//! split vertex cannot express. `align_host_cyclic` aligns the host the
//! way `align_side1` aligns a segment (crossing chords, type a treated
//! as type b, to the two path ends). **Rule:** the solver tries these
//! candidates only after every `align_side1`/`align_side2` pairing has
//! failed to merge. An instance the older candidates accept therefore
//! keeps its exact order, and with it every snapshot, cache entry and
//! sealed order built from that order.

use crate::{NotC1p, RejectSite};
use c1p_tutte::{
    minimal_subtree, Arrangement, EdgeRef, MemberId, MemberKind, MemberShape, TutteTree,
};
use std::borrow::Cow;

/// Crossing classification of a column with respect to a partition
/// `{A1, A2}` (paper Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossType {
    /// `A1 ⊆ C`, crossing: the chord spans the whole inserted segment.
    A,
    /// Crossing with a proper, nonempty part in each side.
    B,
    /// Not crossing (entirely inside one side).
    C,
}

/// A chord of one side's gp-realization: its span in that side's order
/// plus its crossing type.
#[derive(Debug, Clone, Copy)]
pub struct ChordInfo {
    /// `(lo, hi)`: the column occupies order positions `lo..hi`.
    pub span: (u32, u32),
    /// Crossing classification.
    pub ty: CrossType,
}

/// Which boundary of a member's expansion the chain must exit through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// One aligned tree + arrangement, ready to compose. The tree starts
/// borrowed from the decomposition and is only deep-cloned on the first
/// polygon re-linking (most candidates never mutate it).
pub struct Aligned<'t> {
    tree: Cow<'t, TutteTree>,
    arr: Arrangement,
}

impl Aligned<'_> {
    /// Composes into the new sequence of original order positions.
    pub fn compose(&self) -> Vec<u32> {
        c1p_tutte::compose(&self.tree, &self.arr)
    }
}

/// Section 4.2.1 — candidates satisfying GAP condition (1): every type-b
/// chord of the segment realization reaches an end vertex of the path.
pub fn align_side1<'t>(tree: &'t TutteTree, infos: &[ChordInfo]) -> Vec<Aligned<'t>> {
    align_to_ends(tree, &pick(infos, |t| t == CrossType::B))
}

/// The host side of a cyclic (GAC) merge, aligned like a segment: every
/// crossing chord (type a treated as type b) reaches an end vertex of the
/// host path. On the cycle the host arc meets the segment at *both* of its
/// ends, so crossing restrictions may need opposite ends — a shape
/// [`align_side2`]'s common split vertex cannot produce.
pub fn align_host_cyclic<'t>(tree: &'t TutteTree, infos: &[ChordInfo]) -> Vec<Aligned<'t>> {
    align_to_ends(tree, &pick(infos, |t| t != CrossType::C))
}

/// Cases A and B of Section 4.2.1 over the chords `ends`: one nested
/// family is funnelled to either path end, two families to distinct ends.
fn align_to_ends<'t>(tree: &'t TutteTree, ends: &[u32]) -> Vec<Aligned<'t>> {
    let mut out = Vec::new();
    if ends.is_empty() {
        out.push(identity(tree));
        return out;
    }
    let marked = marked_members(tree, ends);
    let mt = minimal_subtree(tree, &marked);
    match mt.leaves.len() {
        1 => {
            // Case A: one nested family — funnel its chain to either path
            // end (the merge tries both segment orientations, so one side
            // suffices; we emit both for robustness).
            for side in [Side::Right, Side::Left] {
                let mut cand = identity(tree);
                if funnel_from_root(&mut cand, mt.leaves[0], ends, side).is_ok() {
                    out.push(cand);
                }
            }
        }
        2 => {
            // Case B: the two families to distinct path ends.
            let mut cand = identity(tree);
            if funnel_two_chains(&mut cand, mt.leaves[0], mt.leaves[1], ends, true).is_ok() {
                out.push(cand);
            }
        }
        _ => {} // Theorem 7: >2 nested families — no candidate survives
    }
    if out.is_empty() {
        // fall back to the unaligned tree; the merge will reject it if the
        // conditions genuinely fail
        out.push(identity(tree));
    }
    out
}

/// Section 4.2.2 — candidates satisfying GAP/GAC condition (2): crossing
/// chords funnelled to a common split vertex.
pub fn align_side2<'t>(tree: &'t TutteTree, infos: &[ChordInfo]) -> Vec<Aligned<'t>> {
    let crossing: Vec<u32> = pick(infos, |t| t != CrossType::C);
    let mut out = Vec::new();
    if crossing.is_empty() {
        out.push(identity(tree));
        return out;
    }
    let marked = marked_members(tree, &crossing);
    let mt = minimal_subtree(tree, &marked);
    match mt.leaves.len() {
        1 => {
            let leaf = mt.leaves[0];
            let path = tree.path_to_root(leaf); // leaf … root
                                                // the paper's g: nearest-to-root constraining edge on the path
            let mut g_pick = None;
            'search: for idx in (1..path.len()).rev() {
                let m = path[idx];
                let down_edge = edge_toward_child(tree, m, path[idx - 1]);
                if let Some(g) = constraining_edge(tree, m, down_edge, infos) {
                    g_pick = Some((m, g));
                    break 'search;
                }
            }
            match g_pick {
                Some((gm, g)) => {
                    for side in [Side::Right, Side::Left] {
                        let mut cand = identity(tree);
                        if funnel_to_shared(&mut cand, leaf, &crossing, gm, g, side).is_ok() {
                            out.push(cand);
                        }
                        if tree.members[gm as usize].kind() != MemberKind::Bond {
                            break; // sides only differ for bond anchors
                        }
                    }
                }
                None => {
                    // Theorem 8's "no further alignment needed" — but the
                    // chain itself must still be stacked so the nested
                    // family shares an endpoint: funnel within the family
                    // to the topmost crossing member, both sides.
                    let top = topmost_crossing(tree, &path, &crossing);
                    for side in [Side::Right, Side::Left] {
                        let mut cand = identity(tree);
                        if funnel_chain_sided(&mut cand, top, leaf, &crossing, side).is_ok() {
                            out.push(cand);
                        }
                    }
                }
            }
        }
        2 => {
            let mut cand = identity(tree);
            if funnel_two_chains(&mut cand, mt.leaves[0], mt.leaves[1], &crossing, false).is_ok() {
                out.push(cand);
            }
        }
        _ => {} // Theorem 8: >2 nested families
    }
    if out.is_empty() {
        out.push(identity(tree));
    }
    out
}

fn pick(infos: &[ChordInfo], f: impl Fn(CrossType) -> bool) -> Vec<u32> {
    infos.iter().enumerate().filter(|(_, i)| f(i.ty)).map(|(k, _)| k as u32).collect()
}

fn identity(tree: &TutteTree) -> Aligned<'_> {
    Aligned { tree: Cow::Borrowed(tree), arr: Arrangement::identity(tree) }
}

/// Where a chord *effectively* lives for alignment purposes. The paper
/// removes parallel non-path edges before decomposing (Section 4.2), so a
/// chord stored in a parallel-group bond hanging off a rigid's chord
/// position acts as a chord of the rigid itself, attached at that
/// position's marker edge.
fn effective_loc(tree: &TutteTree, c: u32) -> (MemberId, EdgeRef) {
    let m = tree.chord_member[c as usize];
    if tree.members[m as usize].kind() == MemberKind::Bond {
        if let Some((p, v)) = tree.members[m as usize].parent {
            if let MemberShape::Rigid { chords, .. } = &tree.members[p as usize].shape {
                if chords.iter().any(|&(_, _, e)| e == EdgeRef::Virt(v)) {
                    return (p, EdgeRef::Virt(v));
                }
            }
        }
    }
    (m, EdgeRef::Chord(c))
}

fn marked_members(tree: &TutteTree, chords: &[u32]) -> Vec<MemberId> {
    let mut v: Vec<MemberId> = chords.iter().map(|&c| effective_loc(tree, c).0).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The effective chord edge of some marked chord inside member `m`.
fn chord_edge_in(tree: &TutteTree, marked: &[u32], m: MemberId) -> EdgeRef {
    marked
        .iter()
        .copied()
        .find_map(|c| {
            let (em, edge) = effective_loc(tree, c);
            (em == m).then_some(edge)
        })
        .expect("member holds a marked chord")
}

/// The topmost member on `path` (leaf…root) containing a crossing chord.
fn topmost_crossing(tree: &TutteTree, path: &[MemberId], crossing: &[u32]) -> MemberId {
    for &m in path.iter().rev() {
        if crossing.iter().any(|&c| effective_loc(tree, c).0 == m) {
            return m;
        }
    }
    path[0]
}

// ---------------------------------------------------------------------
// geometry helpers
// ---------------------------------------------------------------------

/// Where an edge attaches inside a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Attach {
    /// Bond edges: both member vertices.
    Everywhere,
    /// A ring edge at index `i` (vertices `{i, i+1 mod t}`).
    Ring(u32),
    /// A rigid chord with perimeter vertices `{a, b}`.
    Chord(u32, u32),
}

impl Attach {
    fn vertices(self, ring_len: u32) -> Option<(u32, u32)> {
        match self {
            Attach::Everywhere => None,
            Attach::Ring(i) => Some((i, (i + 1) % ring_len)),
            Attach::Chord(a, b) => Some((a, b)),
        }
    }

    fn touches(self, v: u32, ring_len: u32) -> bool {
        match self.vertices(ring_len) {
            None => true,
            Some((a, b)) => a == v || b == v,
        }
    }
}

fn attach_of(tree: &TutteTree, m: MemberId, edge: EdgeRef) -> Attach {
    match &tree.members[m as usize].shape {
        MemberShape::Bond { .. } => Attach::Everywhere,
        MemberShape::Polygon { ring } => {
            let i = ring.iter().position(|&e| e == edge).expect("edge on polygon ring") as u32;
            Attach::Ring(i)
        }
        MemberShape::Rigid { ring, chords } => {
            if let Some(i) = ring.iter().position(|&e| e == edge) {
                Attach::Ring(i as u32)
            } else {
                let &(a, b, _) =
                    chords.iter().find(|&&(_, _, c)| c == edge).expect("edge on rigid");
                Attach::Chord(a, b)
            }
        }
    }
}

fn ring_len(tree: &TutteTree, m: MemberId) -> u32 {
    match &tree.members[m as usize].shape {
        MemberShape::Bond { .. } => 0,
        MemberShape::Polygon { ring } => ring.len() as u32,
        MemberShape::Rigid { ring, .. } => ring.len() as u32,
    }
}

/// The edge inside `m` leading down toward child member `c`.
fn edge_toward_child(tree: &TutteTree, m: MemberId, c: MemberId) -> EdgeRef {
    let (p, v) = tree.members[c as usize].parent.expect("child has a parent");
    debug_assert_eq!(p, m, "c must be m's direct child");
    EdgeRef::Virt(v)
}

/// The entry (parent-side) edge of `m`.
fn entry_edge(tree: &TutteTree, m: MemberId) -> EdgeRef {
    match tree.members[m as usize].parent {
        Some((_, v)) => EdgeRef::Virt(v),
        None => EdgeRef::E,
    }
}

/// The boundary vertex of member `m`'s expansion (entered at `entry` with
/// direction `dir`) on the given side. Only meaningful for ring members.
fn boundary_vertex(tree: &TutteTree, m: MemberId, entry: EdgeRef, dir: bool, side: Side) -> u32 {
    let t = ring_len(tree, m);
    let Attach::Ring(i) = attach_of(tree, m, entry) else {
        panic!("entry must be a ring edge");
    };
    // dir = false: expansion walks successors of entry: left boundary is
    // vertex i+1, right boundary vertex i. dir = true mirrors.
    match (side, dir) {
        (Side::Right, false) | (Side::Left, true) => i,
        (Side::Left, false) | (Side::Right, true) => (i + 1) % t,
    }
}

/// Re-links a polygon so `mover` becomes the ring predecessor (`before ==
/// true`) or successor of `anchor`.
fn polygon_place(tree: &mut TutteTree, m: MemberId, anchor: EdgeRef, mover: EdgeRef, before: bool) {
    if anchor == mover {
        return;
    }
    let MemberShape::Polygon { ring } = &mut tree.members[m as usize].shape else {
        panic!("polygon expected");
    };
    let mi = ring.iter().position(|&e| e == mover).expect("mover on ring");
    ring.remove(mi);
    let ai = ring.iter().position(|&e| e == anchor).expect("anchor on ring");
    if before {
        ring.insert(ai, mover);
    } else {
        ring.insert(ai + 1, mover);
    }
}

// ---------------------------------------------------------------------
// the oriented funnel
// ---------------------------------------------------------------------

/// Walks one chain downward from `top` (which must be an ancestor-or-self
/// of `leaf`), arranging every member so the chain exits through the
/// required boundary. `side` is the requirement at `top`'s expansion; the
/// leaf chord is any marked chord in `leaf`.
///
/// `dir_at_top` is `top`'s composition direction under the current
/// arrangement.
fn funnel_chain(
    cand: &mut Aligned<'_>,
    top: MemberId,
    dir_at_top: bool,
    mut side: Side,
    leaf: MemberId,
    marked: &[u32],
) -> Result<(), NotC1p> {
    // materialize the chain top → leaf
    let mut chain: Vec<MemberId> = Vec::new();
    {
        let mut cur = leaf;
        loop {
            chain.push(cur);
            if cur == top {
                break;
            }
            cur = cand.tree.members[cur as usize].parent.expect("top is an ancestor").0;
        }
        chain.reverse();
    }
    let mut dir = dir_at_top;
    for w in 0..chain.len() {
        let m = chain[w];
        let entry = entry_edge(&cand.tree, m);
        let down: EdgeRef = if w + 1 < chain.len() {
            edge_toward_child(&cand.tree, m, chain[w + 1])
        } else {
            // the leaf: any marked chord effectively here
            chord_edge_in(&cand.tree, marked, m)
        };
        match cand.tree.members[m as usize].kind() {
            MemberKind::Bond => {
                // transparent; the next member keeps direction and side
            }
            MemberKind::Polygon => {
                // place down on the required side of entry
                let before = (side == Side::Right) != dir;
                polygon_place(cand.tree.to_mut(), m, entry, down, before);
                // side and dir propagate unchanged into the child
            }
            MemberKind::Rigid => {
                let t = ring_len(&cand.tree, m);
                let at_down = attach_of(&cand.tree, m, down);
                let mut req = boundary_vertex(&cand.tree, m, entry, dir, side);
                if !at_down.touches(req, t) {
                    // reflect the member by re-orienting its entry marker
                    flip_entry(cand, m, &mut dir);
                    req = boundary_vertex(&cand.tree, m, entry, dir, side);
                    if !at_down.touches(req, t) {
                        return Err(NotC1p::at(RejectSite::Align));
                    }
                }
                // descend: which side of the child's expansion is `req`?
                if w + 1 < chain.len() || matches!(down, EdgeRef::Virt(_)) {
                    if let Attach::Ring(j) = at_down {
                        let right_vertex = (j + 1) % t;
                        side = if (req == right_vertex) != dir { Side::Right } else { Side::Left };
                    }
                    // chord-position virt (group bond below): side-agnostic
                }
            }
        }
    }
    Ok(())
}

/// Toggles the reflection of member `m` (its entry marker's orientation, or
/// the global direction at the root), updating `dir` in place.
fn flip_entry(cand: &mut Aligned<'_>, m: MemberId, dir: &mut bool) {
    match cand.tree.members[m as usize].parent {
        Some((_, v)) => cand.arr.virt_flip[v as usize] = !cand.arr.virt_flip[v as usize],
        None => cand.arr.root_flip = !cand.arr.root_flip,
    }
    *dir = !*dir;
}

/// Case A driver: funnel `leaf`'s chain so it exits the whole realization
/// at the `side` path end.
fn funnel_from_root(
    cand: &mut Aligned<'_>,
    leaf: MemberId,
    marked: &[u32],
    side: Side,
) -> Result<(), NotC1p> {
    let root = cand.tree.root;
    funnel_chain(cand, root, cand.arr.root_flip, side, leaf, marked)
}

/// Side-2's Case C with a constraining edge `g` in ancestor `gm`: the
/// chain from `leaf` must share a vertex with `g` inside `gm`.
fn funnel_to_shared(
    cand: &mut Aligned<'_>,
    leaf: MemberId,
    marked: &[u32],
    gm: MemberId,
    g: EdgeRef,
    bond_side: Side,
) -> Result<(), NotC1p> {
    let dir_gm = dir_of(cand, gm);
    match cand.tree.members[gm as usize].kind() {
        MemberKind::Bond => {
            // g touches both bond vertices; the caller tries both sides.
            if gm == leaf {
                return Ok(());
            }
            let next = child_on_path(&cand.tree, gm, leaf);
            funnel_chain(cand, next, dir_gm, bond_side, leaf, marked)
        }
        MemberKind::Polygon => unreachable!("constraining edges live in bonds/rigids"),
        MemberKind::Rigid => {
            let t = ring_len(&cand.tree, gm);
            if gm == leaf {
                // both chords fixed in the same rigid: nothing to arrange
                return Ok(());
            }
            let down = edge_toward_child(&cand.tree, gm, child_on_path(&cand.tree, gm, leaf));
            let at_down = attach_of(&cand.tree, gm, down);
            let at_g = attach_of(&cand.tree, gm, g);
            // shared vertex of the chain edge and g
            let (da, db) = at_down.vertices(t).expect("rigid edges have vertices");
            let s = if at_g.touches(da, t) {
                da
            } else if at_g.touches(db, t) {
                db
            } else {
                return Err(NotC1p::at(RejectSite::Align));
            };
            // descend with the side implied by s on the down edge
            let side = match at_down {
                Attach::Ring(j) => {
                    let right_vertex = (j + 1) % t;
                    if (s == right_vertex) != dir_gm {
                        Side::Right
                    } else {
                        Side::Left
                    }
                }
                _ => Side::Right, // chord-position virt: group bond below (leaf)
            };
            let next = child_on_path(&cand.tree, gm, leaf);
            funnel_chain(cand, next, dir_gm, side, leaf, marked)
        }
    }
}

/// Funnel within a single nested family: stack the chain between the
/// topmost crossing member and the leaf so all endpoints meet (`side`
/// picks which end of the top member's expansion they meet at).
fn funnel_chain_sided(
    cand: &mut Aligned<'_>,
    top: MemberId,
    leaf: MemberId,
    marked: &[u32],
    side: Side,
) -> Result<(), NotC1p> {
    let dir = dir_of(cand, top);
    if top == leaf {
        return Ok(()); // single member: structure is fixed; the scan decides
    }
    // the top member holds crossing chords; treat the topmost one as the
    // anchor g
    let g = marked.iter().copied().find_map(|c| {
        let (em, edge) = effective_loc(&cand.tree, c);
        (em == top).then_some(edge)
    });
    match g {
        Some(g) => funnel_to_shared(cand, leaf, marked, top, g, side),
        None => {
            let next = child_on_path(&cand.tree, top, leaf);
            funnel_chain(cand, next, dir, side, leaf, marked)
        }
    }
}

/// Two chains meeting: either at distinct path ends (`to_ends == true`,
/// side-1 Case B) or head-to-head at their LCA (side-2 two families).
fn funnel_two_chains(
    cand: &mut Aligned<'_>,
    leaf1: MemberId,
    leaf2: MemberId,
    marked: &[u32],
    to_ends: bool,
) -> Result<(), NotC1p> {
    let lca = lowest_common(&cand.tree, leaf1, leaf2);
    let root = cand.tree.root;
    if to_ends {
        // members strictly above the LCA must be bonds (both path endpoints
        // ride the same marker), and e must be parallel to the chain
        let mut cur = lca;
        while cur != root {
            let (p, _) = cand.tree.members[cur as usize].parent.unwrap();
            if cand.tree.members[p as usize].kind() != MemberKind::Bond {
                return Err(NotC1p::at(RejectSite::Align));
            }
            cur = p;
        }
    }
    let x1 = down_or_chord(&cand.tree, lca, leaf1, marked);
    let x2 = down_or_chord(&cand.tree, lca, leaf2, marked);
    // arrange the LCA and derive each branch's exit side
    let t = ring_len(&cand.tree, lca);
    let mut dir = dir_of(cand, lca);
    let side_of = |at: Attach, junction: u32, dir: bool| -> Side {
        match at {
            Attach::Ring(j) => {
                if (junction == (j + 1) % t) != dir {
                    Side::Right
                } else {
                    Side::Left
                }
            }
            _ => Side::Right, // chord attachments are side-agnostic
        }
    };
    let (side1, side2) = match cand.tree.members[lca as usize].kind() {
        MemberKind::Bond => (Side::Right, Side::Left), // every edge touches both vertices
        MemberKind::Polygon => {
            let entry = entry_edge(&cand.tree, lca);
            if to_ends {
                // x1 at the left end, x2 at the right end of the expansion
                polygon_place(cand.tree.to_mut(), lca, entry, x1, dir);
                polygon_place(cand.tree.to_mut(), lca, entry, x2, !dir);
                (Side::Left, Side::Right)
            } else {
                // head-to-head: x2 directly after x1; junction between them
                polygon_place(cand.tree.to_mut(), lca, x1, x2, dir);
                (Side::Right, Side::Left)
            }
        }
        MemberKind::Rigid => {
            let a1 = attach_of(&cand.tree, lca, x1);
            let a2 = attach_of(&cand.tree, lca, x2);
            if to_ends {
                let entry = entry_edge(&cand.tree, lca);
                let mut lv = boundary_vertex(&cand.tree, lca, entry, dir, Side::Left);
                let mut rv = boundary_vertex(&cand.tree, lca, entry, dir, Side::Right);
                if !(a1.touches(lv, t) && a2.touches(rv, t)) {
                    flip_entry(cand, lca, &mut dir);
                    lv = boundary_vertex(&cand.tree, lca, entry, dir, Side::Left);
                    rv = boundary_vertex(&cand.tree, lca, entry, dir, Side::Right);
                    if !(a1.touches(lv, t) && a2.touches(rv, t)) {
                        return Err(NotC1p::at(RejectSite::Align));
                    }
                }
                (side_of(a1, lv, dir), side_of(a2, rv, dir))
            } else {
                // head-to-head: the two chain edges share the junction vertex
                let (v1, v2) = a1.vertices(t).expect("rigid edge");
                let s = if a2.touches(v1, t) {
                    v1
                } else if a2.touches(v2, t) {
                    v2
                } else {
                    return Err(NotC1p::at(RejectSite::Align));
                };
                (side_of(a1, s, dir), side_of(a2, s, dir))
            }
        }
    };
    for (x, leaf, side) in [(x1, leaf1, side1), (x2, leaf2, side2)] {
        let EdgeRef::Virt(v) = x else {
            continue; // a chord of the LCA sits at the junction already
        };
        let child = cand.tree.virt_child[v as usize];
        if child == leaf || cand.tree.path_to_root(leaf).contains(&child) {
            let dir_child = dir_of(cand, child);
            funnel_chain(cand, child, dir_child, side, leaf, marked)?;
        }
        // otherwise x is a parallel-group bond below the LCA: side-agnostic
    }
    Ok(())
}

/// Chain edge at `m` toward `leaf`: the chord itself when `m == leaf`.
fn down_or_chord(tree: &TutteTree, m: MemberId, leaf: MemberId, marked: &[u32]) -> EdgeRef {
    if m == leaf {
        chord_edge_in(tree, marked, m)
    } else {
        edge_toward_child(tree, m, child_on_path(tree, m, leaf))
    }
}

/// `m`'s direct child on the path toward descendant `d`.
fn child_on_path(tree: &TutteTree, m: MemberId, d: MemberId) -> MemberId {
    let path = tree.path_to_root(d); // d … m … root
    let pos = path.iter().position(|&x| x == m).expect("m is an ancestor of d");
    assert!(pos > 0, "d must be a strict descendant");
    path[pos - 1]
}

/// Composition direction of member `m` under the candidate's arrangement.
fn dir_of(cand: &Aligned<'_>, m: MemberId) -> bool {
    let mut dir = cand.arr.root_flip;
    for &x in cand.tree.path_to_root(m).iter().rev().skip(1) {
        let (_, v) = cand.tree.members[x as usize].parent.unwrap();
        dir ^= cand.arr.virt_flip[v as usize];
    }
    dir
}

/// The deepest common ancestor of two members.
fn lowest_common(tree: &TutteTree, a: MemberId, b: MemberId) -> MemberId {
    let pa = tree.path_to_root(a);
    let pb = tree.path_to_root(b);
    let mut lca = tree.root;
    let mut ia = pa.len();
    let mut ib = pb.len();
    while ia > 0 && ib > 0 && pa[ia - 1] == pb[ib - 1] {
        lca = pa[ia - 1];
        ia -= 1;
        ib -= 1;
    }
    lca
}

/// The paper's `g`-selection for Section 4.2.2: a chord of `m` (or of a
/// parallel-group bond hanging off `m`) that constrains the split vertex —
/// a type-b chord; a type-a chord that does *not* span the downward edge;
/// or a type-c chord that *does* span it.
///
/// One pass over the member's own edge lists, so the pick is linear in
/// the member plus the group bonds it carries: a rigid's candidates are
/// its `chords` entries, whose perimeter positions are stored with them
/// (ring edges never constrain), and the first constraining entry in
/// `chords` order is `g`.
fn constraining_edge(
    tree: &TutteTree,
    m: MemberId,
    down_edge: EdgeRef,
    infos: &[ChordInfo],
) -> Option<EdgeRef> {
    match &tree.members[m as usize].shape {
        MemberShape::Bond { edges } => {
            // A bond chord spans exactly the carrier content the chain runs
            // through. Type-b chords must touch the split vertex and type-c
            // chords must not contain it, so both pin the junction to the
            // bond boundary; type-a chords span any interior vertex and
            // constrain nothing.
            edges
                .iter()
                .copied()
                .find(|&e| carries_any(tree, m, e, |c| infos[c as usize].ty != CrossType::A))
        }
        MemberShape::Polygon { .. } => None,
        MemberShape::Rigid { chords, .. } => {
            let di = match attach_of(tree, m, down_edge) {
                Attach::Ring(j) => j,
                Attach::Chord(a, _) => a,
                Attach::Everywhere => unreachable!(),
            };
            chords
                .iter()
                .find(|&&(a, b, e)| {
                    let spans_down = a <= di && di < b;
                    carries_any(tree, m, e, |c| match infos[c as usize].ty {
                        CrossType::A => !spans_down,
                        CrossType::B => true,
                        CrossType::C => spans_down,
                    })
                })
                .map(|&(_, _, e)| e)
        }
    }
}

/// Does edge `e` of member `m` carry an input chord satisfying `f`? An
/// edge carries itself if it is a chord, and every chord of the
/// parallel-group bond below it if it is a marker to one.
fn carries_any(tree: &TutteTree, m: MemberId, e: EdgeRef, f: impl Fn(u32) -> bool) -> bool {
    match e {
        EdgeRef::Chord(c) => f(c),
        EdgeRef::Virt(v) if tree.virt_parent[v as usize] == m => {
            match &tree.members[tree.virt_child[v as usize] as usize].shape {
                MemberShape::Bond { edges } => {
                    edges.iter().any(|&e| matches!(e, EdgeRef::Chord(c) if f(c)))
                }
                _ => false,
            }
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::generate::{planted_c1p, PlantedShape};
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// The entries-based `g`-selection that [`constraining_edge`]
    /// replaced, kept as its reference: it lists every chord-bearing edge
    /// of `member.edges()` (ring first, then chords) with the chords it
    /// carries, and locates each entry with `attach_of`, a scan of the
    /// member per entry.
    fn constraining_edge_reference(
        tree: &TutteTree,
        m: MemberId,
        down_edge: EdgeRef,
        infos: &[ChordInfo],
    ) -> Option<EdgeRef> {
        let member = &tree.members[m as usize];
        let mut entries: Vec<(EdgeRef, Vec<u32>)> = Vec::new();
        for e in member.edges() {
            match e {
                EdgeRef::Chord(c) => entries.push((e, vec![c])),
                EdgeRef::Virt(v) => {
                    let child = tree.virt_child[v as usize];
                    if child != m && tree.members[child as usize].kind() == MemberKind::Bond {
                        let chords: Vec<u32> = tree.members[child as usize]
                            .edges()
                            .into_iter()
                            .filter_map(|e| match e {
                                EdgeRef::Chord(c) => Some(c),
                                _ => None,
                            })
                            .collect();
                        if !chords.is_empty() && tree.virt_parent[v as usize] == m {
                            entries.push((e, chords));
                        }
                    }
                }
                _ => {}
            }
        }
        if entries.is_empty() {
            return None;
        }
        match member.kind() {
            MemberKind::Bond => entries
                .iter()
                .find(|(_, cs)| cs.iter().any(|&c| infos[c as usize].ty != CrossType::A))
                .map(|&(e, _)| e),
            MemberKind::Polygon => None,
            MemberKind::Rigid => {
                let di = match attach_of(tree, m, down_edge) {
                    Attach::Ring(j) => j,
                    Attach::Chord(a, _) => a,
                    Attach::Everywhere => unreachable!(),
                };
                let spans_down = |a: u32, b: u32| a <= di && di < b;
                for (e, cs) in &entries {
                    let Attach::Chord(a, b) = attach_of(tree, m, *e) else { continue };
                    for &c in cs {
                        match infos[c as usize].ty {
                            CrossType::B => return Some(*e),
                            CrossType::A if !spans_down(a, b) => return Some(*e),
                            CrossType::C if spans_down(a, b) => return Some(*e),
                            _ => {}
                        }
                    }
                }
                None
            }
        }
    }

    /// One side's chords: the columns of a seeded planted instance as
    /// spans in its hidden order, each given a crossing type skewed to
    /// type c (about 90% c, 7% a, 3% b) so the first constraining chord
    /// of a member tends to sit late in its chord list.
    fn skewed_side(rng: &mut SmallRng) -> (usize, Vec<ChordInfo>) {
        let n = rng.random_range(8..=480usize);
        let shape = PlantedShape { n_atoms: n, n_columns: n, min_len: 2, max_len: n / 4 + 2 };
        let (ens, hidden) = planted_c1p(shape, rng);
        let mut pos = vec![0u32; n];
        for (i, &a) in hidden.iter().enumerate() {
            pos[a as usize] = i as u32;
        }
        let infos = ens
            .columns()
            .iter()
            .map(|col| {
                let lo = col.iter().map(|&a| pos[a as usize]).min().expect("nonempty column");
                let ty = match rng.random_range(0..100u32) {
                    0..90 => CrossType::C,
                    90..97 => CrossType::A,
                    _ => CrossType::B,
                };
                ChordInfo { span: (lo, lo + col.len() as u32), ty }
            })
            .collect();
        (n, infos)
    }

    /// The linear pick returns the reference's `g` for every member that
    /// has a child, given the marker to that child as the downward edge.
    #[test]
    fn constraining_edge_matches_the_entries_scan() {
        let mut rng = SmallRng::seed_from_u64(422);
        let (mut compared, mut rigid_late, mut bond_picks) = (0usize, 0usize, 0usize);
        for _ in 0..400 {
            let (n, infos) = skewed_side(&mut rng);
            let spans: Vec<(u32, u32)> = infos.iter().map(|i| i.span).collect();
            let tree = c1p_tutte::decompose(n, &spans).expect("planted spans are valid");
            for member in &tree.members {
                let Some((m, v)) = member.parent else { continue };
                let down = EdgeRef::Virt(v);
                let got = constraining_edge(&tree, m, down, &infos);
                let want = constraining_edge_reference(&tree, m, down, &infos);
                assert_eq!(got, want, "member {m}, down edge {down:?}, n = {n}");
                compared += 1;
                match (&tree.members[m as usize].shape, got) {
                    (MemberShape::Rigid { chords, .. }, Some(g)) if g != chords[0].2 => {
                        rigid_late += 1
                    }
                    (MemberShape::Bond { .. }, Some(_)) => bond_picks += 1,
                    _ => {}
                }
            }
        }
        eprintln!(
            "{compared} picks compared: {rigid_late} rigid past the first chord, {bond_picks} bond"
        );
        assert!(rigid_late > 0, "no rigid pick past the first chord exercised");
        assert!(bond_picks > 0, "no bond pick exercised");
    }
}

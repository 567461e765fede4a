//! Run instrumentation: the counters behind experiment E8 (recursion
//! structure) and the PRAM cost accounting of experiment E2.

use crate::cost::Cost;

/// Stable names for the solver's wall-clock phases, in pipeline order.
///
/// These labels are an API contract shared by the offline `phase_probe`
/// diagnostic and the live tracer's `solve/<phase>` span names: renaming
/// an entry breaks trace consumers, so new phases are appended, and a
/// name is removed only together with the phase it measures.
pub const PHASE_NAMES: [&str; N_PHASES] = ["partition", "prepare", "decompose", "align", "merge"];

/// Number of instrumented solver phases (`PHASE_NAMES.len()`).
pub const N_PHASES: usize = 5;

/// Index of the partition phase (proper-column search, Tucker transform,
/// segment growth) in [`SolveStats::phase_ns`].
pub const PH_PARTITION: usize = 0;
/// Index of the recursion-prep phase (split materialization).
pub const PH_PREPARE: usize = 1;
/// Index of the Tutte decomposition phase (Steps 3/4).
pub const PH_DECOMPOSE: usize = 2;
/// Index of the alignment phase (Step 5).
pub const PH_ALIGN: usize = 3;
/// Index of the merge phase (Step 6 + final splice).
pub const PH_MERGE: usize = 4;

/// Counters collected across one solve.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Recursive calls (subproblems realized).
    pub subproblems: usize,
    /// Deepest recursion level reached (paper: `O(log n)`).
    pub max_depth: usize,
    /// Case-1 divides (proper-size column found).
    pub case1: usize,
    /// Case-2 divides (Tucker transform + growth).
    pub case2: usize,
    /// `|A| ≤ 2` base cases.
    pub base_cases: usize,
    /// Tutte decompositions computed (Steps 3/4).
    pub decompositions: usize,
    /// Total members across all decompositions.
    pub members: usize,
    /// Combines settled by the identity fast path (recursive orders
    /// merged as-is; Steps 3–6 skipped entirely).
    pub fast_merges: usize,
    /// Always 0: kept for callers that read it by name. The solver has
    /// one subproblem representation, and [`Self::csr_divides`] counts
    /// every divide (DESIGN.md §14).
    pub bitmat_divides: usize,
    /// Divides executed (`prepare_split` calls).
    pub csr_divides: usize,
    /// Wall-clock nanoseconds spent per solver phase, indexed by the
    /// `PH_*` constants / [`PHASE_NAMES`]. Every level is timed, forking
    /// or not. Where the solve never forks, the phases are disjoint
    /// intervals of one thread, so their sum is bounded by the solve's
    /// wall time; where it forks, the entries sum CPU time across
    /// branches and may exceed it. The only field that depends on the
    /// pool.
    pub phase_ns: [u64; N_PHASES],
    /// Modelled PRAM cost, composed per node of the recursion by every
    /// entry (sibling subtrees and components join with `Cost::par`).
    /// It does not depend on the pool or the fork policy. On a rejection
    /// it covers the components realized before the rejecting one.
    pub cost: Cost,
}

impl SolveStats {
    /// Merges a forked branch's counters into this one (the recursion's
    /// fork points absorb each branch where the sequential order would
    /// have run it).
    pub fn absorb(&mut self, other: &SolveStats) {
        self.subproblems += other.subproblems;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.case1 += other.case1;
        self.case2 += other.case2;
        self.base_cases += other.base_cases;
        self.decompositions += other.decompositions;
        self.members += other.members;
        self.fast_merges += other.fast_merges;
        self.csr_divides += other.csr_divides;
        for (mine, theirs) in self.phase_ns.iter_mut().zip(other.phase_ns.iter()) {
            *mine += theirs;
        }
        // costs are composed explicitly per node by the recursion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_and_maxes() {
        let mut a = SolveStats { subproblems: 2, max_depth: 3, case1: 1, ..Default::default() };
        let mut b = SolveStats { subproblems: 5, max_depth: 2, case2: 4, ..Default::default() };
        a.phase_ns[PH_PARTITION] = 10;
        b.phase_ns[PH_PARTITION] = 7;
        b.phase_ns[PH_MERGE] = 3;
        a.absorb(&b);
        assert_eq!(a.subproblems, 7);
        assert_eq!(a.max_depth, 3);
        assert_eq!(a.case1, 1);
        assert_eq!(a.case2, 4);
        assert_eq!(a.phase_ns, [17, 0, 0, 0, 3]);
    }

    #[test]
    fn phase_names_match_slot_constants() {
        assert_eq!(PHASE_NAMES.len(), N_PHASES);
        assert_eq!(PHASE_NAMES[PH_PARTITION], "partition");
        assert_eq!(PHASE_NAMES[PH_PREPARE], "prepare");
        assert_eq!(PHASE_NAMES[PH_DECOMPOSE], "decompose");
        assert_eq!(PHASE_NAMES[PH_ALIGN], "align");
        assert_eq!(PHASE_NAMES[PH_MERGE], "merge");
    }
}

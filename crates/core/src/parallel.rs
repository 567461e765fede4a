//! The parallel driver (paper Section 5 / Theorem 9).
//!
//! The recursion tree of `Path-Realization` has `O(log n)` depth with
//! independent siblings, so the two recursive calls run under
//! `rayon::join`; within a level the divide and combine steps use the
//! PRAM primitives of `c1p-pram` where data sizes warrant it. Divide
//! data lives in flat CSR arenas with per-thread scratch pools
//! ([`crate::flat`]) — rayon work-stealing composes with the pools
//! because every worker draws from its own thread-local pool.
//!
//! Alongside wall-clock execution the driver composes a **modelled PRAM
//! cost** ([`c1p_pram::Cost`]): sequential steps add work and depth,
//! sibling recursions join with `Cost::par` (work adds, depth maxes).
//! Per-step charges follow the paper's Section 5 accounting:
//!
//! * divide (transform, connected growth): `O(p)` work, `O(log n)` depth
//!   (tree contraction \[16\] / hooking);
//! * Tutte decomposition: `O((n+m) log log n)` work, `O(log n)` depth
//!   (Fussell–Ramachandran–Thurimella \[10\] — see DESIGN.md §4: we run the
//!   specialised decomposition and charge the cited bound);
//! * type identification: `O(p)` work, `O(1)` depth;
//! * minimal decomposition + switches: `O(n+m)` work, `O(log n)` depth
//!   (Euler tours \[17\]);
//! * merge scan: `O(p)` work, `O(log n)` depth (prefix scan).
//!
//! Experiment E2 checks the composed totals against Theorem 9's
//! `O(log² n)` time and `p log log n / log n` processor bounds.

use crate::merge::MergeMode;
use crate::partition::{grow_segment, proper_column, tucker_transform, Growth};
use crate::solver::{
    combine, component_sub, cut_at_r, prepare_split, prepare_split_par, realize, SubProblem,
};
use crate::stats::SolveStats;
use crate::{Config, NotC1p, Rejection};
use c1p_matrix::{verify_linear, Atom, Ensemble};
use c1p_pram::cost::log2ceil;
use c1p_pram::Cost;

/// Subproblems whose CSR arena holds at least this many entries run the
/// two-pass parallel divide ([`prepare_split_par`]); lighter ones use
/// the single sequential scan (the parallel version's extra pass and
/// task overhead only amortize on heavy levels).
const PAR_DIVIDE_MIN_ENTRIES: usize = 1 << 14;

/// Resolved scheduling parameters for one driver run (ISSUE 3's
/// depth- and size-adaptive granularity control).
#[derive(Debug, Clone, Copy)]
struct Sched {
    /// Subproblems at or below this many atoms run sequentially.
    seq_cutoff: usize,
    /// Recursion depth at or beyond which no new tasks are forked: by
    /// depth `d` the tree already exposes `~2^d` independent branches,
    /// so once that saturates the pool (with a 4× steal-balancing
    /// margin), further forks are pure overhead.
    fork_depth: usize,
}

impl Sched {
    /// Resolves the knobs against the current pool. With
    /// [`Config::AUTO_CUTOFF`] the cutoff targets ~8 leaf tasks per
    /// worker (steal balance without task spam); an explicit cutoff is
    /// honored verbatim. A single-thread pool short-circuits the whole
    /// driver to the sequential solver.
    fn resolve(cfg: &Config, n_root: usize) -> Sched {
        let threads = rayon::current_num_threads();
        let seq_cutoff = if cfg.seq_cutoff == Config::AUTO_CUTOFF {
            if threads <= 1 {
                usize::MAX
            } else {
                (n_root / (threads * 8)).clamp(64, 4096)
            }
        } else {
            cfg.seq_cutoff
        };
        let fork_depth = if threads <= 1 { 0 } else { log2ceil(threads) as usize + 2 };
        Sched { seq_cutoff, fork_depth }
    }

    /// May this recursion level still fork new tasks?
    fn may_fork(&self, depth: usize) -> bool {
        depth < self.fork_depth
    }
}

/// Parallel C1P solve. Returns the verified witness order (or an
/// evidence-carrying [`Rejection`] in global atom ids) plus statistics
/// whose `cost` field carries the modelled PRAM work/depth.
///
/// Subproblems at or below the resolved sequential cutoff (see
/// [`Config::seq_cutoff`]) run sequentially — task overhead dominates
/// below it; the modelled cost still accounts them.
pub fn solve_par(ens: &Ensemble) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    solve_par_with(ens, &Config::default())
}

/// [`solve_par`] with configuration.
pub fn solve_par_with(ens: &Ensemble, cfg: &Config) -> (Result<Vec<Atom>, Rejection>, SolveStats) {
    let sched = Sched::resolve(cfg, ens.n_atoms());
    let mut stats = SolveStats::default();
    let mut order: Vec<Atom> = Vec::with_capacity(ens.n_atoms());
    let mut cost = Cost::ZERO;
    for (atoms, col_ids) in ens.components() {
        let sub = component_sub(
            &atoms,
            col_ids.iter().map(|&ci| ens.column(ci as usize)).filter(|c| c.len() >= 2),
        );
        match realize_par(&sub, cfg, &sched, 0) {
            Ok((local, branch_stats, branch_cost)) => {
                stats.absorb(&branch_stats);
                cost = cost.par(branch_cost); // components are independent
                order.extend(local.iter().map(|&i| atoms[i as usize]));
            }
            Err(rej) => {
                stats.cost = cost;
                // component-local evidence → global atom ids
                return (Err(rej.fill(sub.n).mapped(&atoms)), stats);
            }
        }
    }
    stats.cost = cost;
    verify_linear(ens, &order).expect("internal error: parallel order failed verification");
    (Ok(order), stats)
}

/// The parallel twin of [`crate::solver::solve_component`]: realizes one
/// connected component (sorted global `atoms`, columns in ascending
/// column-id order) on the *current* rayon pool, resolving the PR-3
/// scheduling knobs against the component size. Output order and
/// rejection evidence are bit-identical to the sequential entry for every
/// thread count and cutoff (the `par_determinism` contract), so the
/// incremental solver can route large re-solves here without changing any
/// verdict byte.
pub fn solve_component_par<'a>(
    atoms: &[Atom],
    cols: impl Iterator<Item = &'a [Atom]>,
    cfg: &Config,
) -> Result<Vec<Atom>, Rejection> {
    let sched = Sched::resolve(cfg, atoms.len());
    let sub = component_sub(atoms, cols.filter(|c| c.len() >= 2));
    match realize_par(&sub, cfg, &sched, 0) {
        Ok((local, _, _)) => {
            crate::solver::verify_spans(&sub, &local);
            Ok(local.iter().map(|&i| atoms[i as usize]).collect())
        }
        Err(rej) => Err(rej.fill(sub.n).mapped(atoms)),
    }
}

type ParResult = Result<(Vec<u32>, SolveStats, Cost), NotC1p>;

fn realize_par(sub: &SubProblem, cfg: &Config, sched: &Sched, depth: usize) -> ParResult {
    let mut stats = SolveStats::default();
    let k = sub.n;
    let p: usize = sub.cols.total_len();
    let lg = log2ceil(k.max(2));
    stats.max_depth = depth;
    // base cases and sequential subtrees are counted by `realize` itself;
    // only the forking path below counts its own subproblem
    if k <= 2 || (cfg.pq_base_threshold > 0 && k <= cfg.pq_base_threshold) {
        // base case; modelled as the paper's small-subproblem sequential run
        let order = realize(sub, cfg, &mut stats, depth)?;
        return Ok((order, stats, Cost::of((p + k) as u64, (p + k) as u64)));
    }
    if k <= sched.seq_cutoff || !sched.may_fork(depth) {
        let order = realize(sub, cfg, &mut stats, depth)?;
        // charge the modelled parallel cost of the subtree conservatively:
        // O(p log k) work across O(log k) levels of O(log k)-depth steps
        let cost = Cost::of((p.max(1) as u64) * lg.max(1), lg * lg.max(1));
        return Ok((order, stats, cost));
    }
    stats.subproblems += 1;
    let divide_cost = Cost::of(p.max(1) as u64, lg); // scan / transform / growth
    if let Some(ci) = proper_column(sub) {
        stats.case1 += 1;
        let (order, cost) =
            split_par(sub, sub.cols.col(ci), MergeMode::Linear, cfg, sched, depth, &mut stats)?;
        Ok((order, stats, divide_cost.seq(cost)))
    } else {
        stats.case2 += 1;
        let t = tucker_transform(sub);
        // Transform boundary: evidence about the transformed instance is
        // widened to this subproblem's whole atom set (see `realize`).
        let (cyclic, cost) = match grow_segment(&t) {
            Growth::Segment(a1) => {
                split_par(&t, &a1, MergeMode::Cyclic, cfg, sched, depth, &mut stats)
                    .map_err(|e| e.widened(k))?
            }
            Growth::Components(comps) => {
                // independent components: fan out across the pool
                let results = realize_comps_par(&comps, &t, cfg, sched, depth);
                let mut order = Vec::with_capacity(t.n);
                let mut cost = Cost::ZERO;
                for ((atoms, _), res) in comps.iter().zip(results) {
                    let (local, bstats, bcost) = res.map_err(|e| e.widened(k))?;
                    stats.absorb(&bstats);
                    cost = cost.par(bcost);
                    order.extend(local.iter().map(|&i| atoms[i as usize]));
                }
                (order, cost)
            }
        };
        let order = cut_at_r(&cyclic, k);
        Ok((order, stats, divide_cost.seq(cost).seq(Cost::of(k as u64, 1))))
    }
}

/// Case-2 fan-out: realizes every independent component of the
/// transformed instance, forking the component list in halves (larger
/// components migrate to idle workers via stealing). Results stay in
/// component order.
fn realize_comps_par(
    comps: &[(Vec<u32>, Vec<u32>)],
    t: &SubProblem,
    cfg: &Config,
    sched: &Sched,
    depth: usize,
) -> Vec<ParResult> {
    if comps.len() <= 1 || !sched.may_fork(depth) {
        return comps
            .iter()
            .map(|(atoms, col_ids)| {
                let csub = component_sub(atoms, col_ids.iter().map(|&ci| t.cols.col(ci as usize)));
                realize_par(&csub, cfg, sched, depth + 1)
            })
            .collect();
    }
    let mid = comps.len() / 2;
    let (mut left, right) = rayon::join(
        || realize_comps_par(&comps[..mid], t, cfg, sched, depth + 1),
        || realize_comps_par(&comps[mid..], t, cfg, sched, depth + 1),
    );
    left.extend(right);
    left
}

#[allow(clippy::too_many_arguments)]
fn split_par(
    sub: &SubProblem,
    a1: &[u32],
    mode: MergeMode,
    cfg: &Config,
    sched: &Sched,
    depth: usize,
    stats: &mut SolveStats,
) -> Result<(Vec<u32>, Cost), NotC1p> {
    // the divide itself runs parallel on heavy levels (top of the tree)
    stats.csr_divides += 1;
    let data = if sub.cols.total_len() >= PAR_DIVIDE_MIN_ENTRIES && rayon::current_num_threads() > 1
    {
        prepare_split_par(sub, a1)
    } else {
        prepare_split(sub, a1)
    };
    let (r1, r2) = rayon::join(
        || realize_par(&data.sub1, cfg, sched, depth + 1),
        || realize_par(&data.sub2, cfg, sched, depth + 1),
    );
    // child-local evidence → this subproblem's coordinates (see
    // `split_and_merge` in solver.rs for why the mapping stays valid)
    let (order1, s1, c1) = r1.map_err(|e| e.fill(data.sub1.n).mapped(&data.a1))?;
    let (order2, s2, c2) = r2.map_err(|e| e.fill(data.sub2.n).mapped(&data.a2))?;
    stats.absorb(&s1);
    stats.absorb(&s2);
    let order = combine(&data, &order1, &order2, mode, stats, true).map_err(|e| e.fill(sub.n))?;
    let k = sub.n;
    let m = sub.cols.n_cols();
    let p: usize = sub.cols.total_len();
    let lg = log2ceil(k.max(2));
    let lglg = log2ceil(lg as usize).max(1);
    // combine charges per Section 5 (decompose [10], types, switches [17],
    // merge scan)
    let combine_cost = Cost::of(((k + m) as u64) * lglg, lg) // Step 3
        .seq(Cost::step(p.max(1) as u64)) // Step 4
        .seq(Cost::of((k + m) as u64, lg)) // Steps 5–6
        .seq(Cost::of(p.max(1) as u64, lg)); // Step 7
    Ok((order, c1.par(c2).seq(combine_cost)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::generate::{planted_c1p, PlantedShape};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_agrees_with_sequential() {
        let mut rng = SmallRng::seed_from_u64(99);
        for n in [10usize, 100, 700] {
            let (ens, _) = planted_c1p(
                PlantedShape { n_atoms: n, n_columns: 2 * n, min_len: 2, max_len: n / 3 + 2 },
                &mut rng,
            );
            let (seq, _) = crate::solve_with(&ens, &Config::default());
            let (par, stats) = solve_par(&ens);
            assert_eq!(seq.is_ok(), par.is_ok());
            assert!(par.is_ok(), "planted instance accepted");
            assert!(stats.cost.work > 0);
            assert!(stats.cost.depth > 0);
        }
    }

    #[test]
    fn parallel_rejects_obstructions() {
        for (name, ens) in c1p_matrix::tucker::small_obstructions() {
            let (res, _) = solve_par(&ens);
            let rej = res.expect_err(name.as_str());
            assert!(!rej.atoms.is_empty(), "{name}: rejection carries evidence");
            assert!(rej.atoms.iter().all(|&a| (a as usize) < ens.n_atoms()), "{name}");
        }
    }

    #[test]
    fn seq_cutoff_sweep_agrees() {
        // the cutoff is a scheduling knob; verdicts must not depend on it
        let mut rng = SmallRng::seed_from_u64(17);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: 600, n_columns: 1200, min_len: 2, max_len: 80 },
            &mut rng,
        );
        let bad = c1p_matrix::tucker::embed_obstruction(
            &c1p_matrix::tucker::m_ii(2),
            600,
            123,
            &[(0, 200), (300, 200)],
        );
        for cutoff in [0usize, 4, 64, 256, 4096] {
            let cfg = Config { seq_cutoff: cutoff, ..Config::default() };
            assert!(solve_par_with(&ens, &cfg).0.is_ok(), "cutoff {cutoff}");
            assert!(solve_par_with(&bad, &cfg).0.is_err(), "cutoff {cutoff}");
        }
    }

    #[test]
    fn modelled_depth_is_polylog() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (ens, _) = planted_c1p(
            PlantedShape { n_atoms: 4096, n_columns: 8192, min_len: 2, max_len: 600 },
            &mut rng,
        );
        let (res, stats) = solve_par(&ens);
        assert!(res.is_ok());
        let lg = 12u64; // log2(4096)
        assert!(
            stats.cost.depth <= 40 * lg * lg,
            "modelled depth {} should be O(log² n)",
            stats.cost.depth
        );
    }
}

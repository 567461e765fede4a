//! # c1p-incremental: streaming sessions with differential re-solve
//!
//! The divide-and-conquer stack answers one ensemble per call; real
//! session traffic *extends* an ensemble a few columns at a time and wants
//! a fresh verdict after every extension — the workload where incremental
//! reduction classically wins (Booth–Lueker's one-REDUCE-per-column loop),
//! and where Raffinot's cut-or-swap dynamic C1P analysis and the
//! Tucker-pattern extraction of Chauve–Stephen–Tamayo (PAPERS.md) show
//! that both acceptance and *certified* rejection can be maintained under
//! updates.
//!
//! [`IncrementalSolver`] holds a live decomposition of the accepted
//! ensemble into connected components of its bipartite atom–column graph —
//! exactly the seam `c1p_core::solve` already splits on — with one solved
//! order fragment cached per component. A [`push`](IncrementalSolver::push)
//! of new columns:
//!
//! 1. groups the components its ≥ 2-atom columns touch (a column glues the
//!    components of all its atoms together);
//! 2. re-solves only the merged groups, in ascending min-atom order,
//!    through [`c1p_core::solver::solve_component`] (or its parallel twin
//!    for large groups) — every untouched component keeps its cached
//!    fragment;
//! 3. on success, commits and returns the concatenated witness order; on
//!    failure, certifies the rejection with
//!    [`c1p_cert::certify_rejection`] against the tentatively extended
//!    ensemble and **rolls back** — the session stays at its last accepted
//!    state, byte for byte (columns truncated, components, order and
//!    stream hash untouched).
//!
//! Because step 2 runs the *same* component-solve code path the one-shot
//! driver runs over the same component content, every verdict — accept
//! order, rejection evidence, and Tucker witness — is bit-identical to
//! `c1p_cert::solve_certified` on the concatenated prefix, by construction
//! (and pinned by `crates/engine/tests/incremental_differential.rs` across
//! thread counts and cutoffs). The win is locality: a push that touches
//! `k` of `K` components costs the re-solve of those `k` plus an `O(n)`
//! splice, not a full re-solve (experiment E12 records the ratio).

use c1p_cert::{certify_rejection, CertifiedRejection};
use c1p_core::parallel::solve_component_par;
use c1p_core::solver::solve_component;
use c1p_core::{Config, Rejection};
use c1p_matrix::{Atom, Ensemble};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Outcome of one push: accepted with the new full witness order, or
/// rejected with a checkable certificate (the session rolled back).
pub type PushVerdict = Result<Vec<Atom>, CertifiedRejection>;

/// Why a durably-logged push failed to replay
/// ([`IncrementalSolver::replay_accepted`]). Either way the solver is
/// left exactly at its pre-call state — a failed replay leaves no trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The recorded post-push stream hash does not match what applying
    /// this delta would produce: the log disagrees with its own record
    /// of history, so nothing was applied.
    HashMismatch {
        /// The hash the log recorded.
        expected: u64,
        /// The hash replaying the delta would actually produce.
        actual: u64,
    },
    /// The delta was logged as accepted but the solver rejects it now —
    /// impossible for an intact log (verdicts are deterministic), so the
    /// log is damaged. The push was rolled back.
    Rejected,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::HashMismatch { expected, actual } => write!(
                f,
                "recorded stream hash {expected:#018x} but replay produces {actual:#018x}"
            ),
            ReplayError::Rejected => {
                write!(f, "a push logged as accepted is rejected on replay")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Counters over a session's lifetime ([`IncrementalSolver::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Pushes attempted (accepted + rejected).
    pub pushes: u64,
    /// Pushes rejected (and rolled back).
    pub rejected_pushes: u64,
    /// Component groups re-solved across all accepted/rejected pushes.
    pub components_resolved: u64,
    /// Components whose cached fragment was reused, summed per push.
    pub components_reused: u64,
    /// Total atoms in re-solved groups (the differential work actually
    /// paid, comparable against `pushes × n_atoms` for full re-solves).
    pub atoms_resolved: u64,
}

/// One live *materialized* component of the accepted ensemble — always
/// ≥ 2 atoms (a merged group is glued by a ≥ 2-atom column). Atoms never
/// touched by a column stay **implicit singletons**: `comp_key[a] == a`
/// with no map entry, fragment `[a]`, no columns — so a fresh session
/// costs two `O(n_atoms)` u32 vectors, not one heap component per atom.
struct Comp {
    /// Sorted global atom ids.
    atoms: Vec<Atom>,
    /// Ascending global ids of the component's columns with ≥ 2 atoms
    /// (smaller restrictions constrain nothing and are dropped by the
    /// solver anyway).
    col_ids: Vec<u32>,
    /// The solved fragment, in global atom ids.
    order: Vec<Atom>,
}

/// A live incremental C1P session. See the crate docs for the contract;
/// the short version: `push` gives the verdict `solve_certified` would
/// give on the concatenation of everything accepted so far plus the push,
/// a rejected push leaves no trace, and only touched components are
/// re-solved.
pub struct IncrementalSolver {
    cfg: Config,
    /// Groups with more atoms than this take the parallel component
    /// driver (runs on the current rayon pool); `usize::MAX` keeps every
    /// re-solve sequential. Either route is verdict-identical.
    par_cutoff: usize,
    n_atoms: usize,
    /// The accepted ensemble (every pushed column, including the < 2-atom
    /// ones that never constrain a solve).
    ens: Ensemble,
    /// `comp_key[a]` = key (min atom) of the component containing atom
    /// `a`; `comp_key[a] == a` with no `comps` entry = implicit singleton.
    comp_key: Vec<u32>,
    /// Materialized (≥ 2-atom) components keyed by min atom — merged with
    /// the implicit singletons in ascending key order, this is exactly
    /// the component order `c1p_core::solve` concatenates in.
    comps: BTreeMap<u32, Comp>,
    /// Atoms covered by materialized components (so live component count
    /// stays O(1): `n_atoms - materialized_atoms + comps.len()`).
    materialized_atoms: usize,
    /// Cached concatenated witness order of the accepted state.
    order: Vec<Atom>,
    /// Running FNV-1a hash of the accepted column stream (order-sensitive,
    /// append-only — the "canonical prefix hash" the rollback property
    /// tests pin: replaying an accepted stream verbatim reproduces it).
    hash: u64,
    stats: IncrementalStats,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_fold_col(mut h: u64, col: &[Atom]) -> u64 {
    h = fnv_fold(h, col.len() as u64);
    for &a in col {
        h = fnv_fold(h, a as u64);
    }
    h
}

/// The stream hash of a fresh session over `n_atoms` atoms — what
/// [`IncrementalSolver::stream_hash`] reports before any push. The public
/// fold (with [`fold_stream_hash`]) lets a *remote* client mirror the
/// server's stream hash push by push, which is the client side of the
/// recovered-hash handshake: after an ambiguous lost ack, compare the
/// server's reported hash against the locally folded one to decide
/// whether the push applied.
pub fn initial_stream_hash(n_atoms: usize) -> u64 {
    fnv_fold(FNV_OFFSET, n_atoms as u64)
}

/// Folds one accepted delta into stream hash `h`, exactly as
/// [`IncrementalSolver::push`] does on accept (rejected pushes fold
/// nothing). See [`initial_stream_hash`] for the handshake this enables.
pub fn fold_stream_hash(mut h: u64, delta: &Ensemble) -> u64 {
    for col in delta.columns() {
        h = fnv_fold_col(h, col);
    }
    h
}

/// Sparse union-find over component keys (absent key = root); unions keep
/// the *smaller* key as root, so a group's root is its min atom. Finds
/// compress the walked path onto the root, so a replay that pushes a
/// whole log at once stays near-linear in its column count.
fn find(parent: &mut HashMap<u32, u32>, k: u32) -> u32 {
    let mut root = k;
    while let Some(&p) = parent.get(&root) {
        root = p;
    }
    let mut cur = k;
    while cur != root {
        cur = parent.insert(cur, root).expect("non-root keys have a parent");
    }
    root
}

impl IncrementalSolver {
    /// A fresh session over `n_atoms` atoms, no columns accepted yet
    /// (every atom its own component; the witness order is the identity,
    /// matching a one-shot solve of the empty ensemble).
    pub fn new(n_atoms: usize) -> IncrementalSolver {
        IncrementalSolver::with_config(n_atoms, Config::default(), usize::MAX)
    }

    /// [`IncrementalSolver::new`] with an explicit solver configuration
    /// and parallel routing cutoff: re-solved groups with more atoms than
    /// `par_cutoff` run [`c1p_core::parallel::solve_component_par`] on the
    /// current rayon pool (install the session's pushes on a pool to use
    /// it); smaller groups — and everything when `par_cutoff` is
    /// `usize::MAX` — run sequentially. Verdicts are identical either way.
    pub fn with_config(n_atoms: usize, cfg: Config, par_cutoff: usize) -> IncrementalSolver {
        IncrementalSolver {
            cfg,
            par_cutoff,
            n_atoms,
            ens: Ensemble::new(n_atoms),
            comp_key: (0..n_atoms as u32).collect(),
            comps: BTreeMap::new(),
            materialized_atoms: 0,
            order: (0..n_atoms as u32).collect(),
            hash: fnv_fold(FNV_OFFSET, n_atoms as u64),
            stats: IncrementalStats::default(),
        }
    }

    /// Atom count fixed at session open.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// The accepted ensemble (what a one-shot solve of this session's
    /// state would be handed).
    pub fn ensemble(&self) -> &Ensemble {
        &self.ens
    }

    /// The current witness order of the accepted state — identical to
    /// `c1p_core::solve(self.ensemble())`'s answer.
    pub fn order(&self) -> &[Atom] {
        &self.order
    }

    /// Order-sensitive hash of the accepted column stream. Two sessions
    /// that accepted the same columns in the same order agree; a rejected
    /// push leaves it untouched.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    /// Live component count (implicit singleton atoms included).
    pub fn n_components(&self) -> usize {
        self.n_atoms - self.materialized_atoms + self.comps.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Validates and pushes a batch of columns (any order, unsorted
    /// entries fine — [`Ensemble::from_columns`] rules). A validation
    /// error leaves the session untouched and is *not* a verdict.
    pub fn push_columns(
        &mut self,
        cols: Vec<Vec<Atom>>,
    ) -> Result<PushVerdict, c1p_matrix::EnsembleError> {
        let delta = Ensemble::from_columns(self.n_atoms, cols)?;
        Ok(self.push(&delta))
    }

    /// Replays durably-logged *accepted* columns: the write-ahead-log
    /// recovery entry point. `delta` may be one logged push or the
    /// concatenation of many; its columns are moved into the session, not
    /// copied. The recorded post-push stream hash is checked **before**
    /// anything is applied (the hash folds only the column stream, so the
    /// post-state is computable up front); a mismatch refuses the delta
    /// with the solver untouched. A delta that hashes right but no longer
    /// accepts (impossible for an intact log — verdicts are
    /// deterministic) is rolled back without certifying the rejection and
    /// reported as [`ReplayError::Rejected`].
    ///
    /// On success the session state — order, stream hash, ensemble and
    /// components — is bit-identical to the state that acknowledged the
    /// last logged push, whether the log is replayed push by push or in
    /// one call: each component is solved from the same atoms and the
    /// same ascending column ids either way, and C1P is hereditary, so
    /// an accepted concatenation certifies every prefix. Only
    /// [`IncrementalSolver::stats`] differs (one push instead of many).
    pub fn replay_accepted(
        &mut self,
        delta: Ensemble,
        recorded_hash: u64,
    ) -> Result<(), ReplayError> {
        assert_eq!(delta.n_atoms(), self.n_atoms, "replay must match the session atom count");
        let tentative = fold_stream_hash(self.hash, &delta);
        if tentative != recorded_hash {
            return Err(ReplayError::HashMismatch { expected: recorded_hash, actual: tentative });
        }
        let m0 = self.ens.n_columns();
        self.ens.append(delta);
        match self.resolve_appended(m0) {
            Ok(()) => {
                debug_assert_eq!(self.hash, recorded_hash, "push folds the same hash");
                Ok(())
            }
            Err(_) => {
                self.ens.truncate_columns(m0);
                Err(ReplayError::Rejected)
            }
        }
    }

    /// Pushes a batch of new columns and returns the verdict for the
    /// extended ensemble: the witness order `solve_certified` would
    /// return on the concatenation, or its certified rejection — in which
    /// case the session rolls back to the pre-push state.
    ///
    /// # Panics
    ///
    /// If `delta.n_atoms()` differs from the session's atom count (the
    /// serving layer checks this at admission; in-process callers own the
    /// invariant).
    pub fn push(&mut self, delta: &Ensemble) -> PushVerdict {
        assert_eq!(delta.n_atoms(), self.n_atoms, "push must match the session atom count");
        let m0 = self.ens.n_columns();
        // tentatively extend; rollback = truncate back to m0
        for col in delta.columns() {
            self.ens.push_column(col.clone());
        }
        match self.resolve_appended(m0) {
            Ok(()) => Ok(self.order.clone()),
            Err(rej) => {
                // certify against the tentatively extended ensemble — the
                // exact input one-shot extraction would see — then roll
                // every trace of the push back
                let cert = certify_rejection(&self.ens, rej);
                self.ens.truncate_columns(m0);
                Err(cert)
            }
        }
    }

    /// Re-solves the components touched by the columns appended from
    /// index `m0` on and commits them. On a rejection nothing is
    /// committed: the tentatively extended ensemble is left for the
    /// caller to certify against and truncate.
    fn resolve_appended(&mut self, m0: usize) -> Result<(), Rejection> {
        self.stats.pushes += 1;
        let new_cols = &self.ens.columns()[m0..];
        // group the touched components: each new column unions the
        // components of its atoms
        let mut parent: HashMap<u32, u32> = HashMap::new();
        let mut touched: BTreeSet<u32> = BTreeSet::new();
        for col in new_cols {
            if col.len() < 2 {
                continue;
            }
            let mut root = find(&mut parent, self.comp_key[col[0] as usize]);
            touched.insert(self.comp_key[col[0] as usize]);
            for &a in &col[1..] {
                let key = self.comp_key[a as usize];
                touched.insert(key);
                let r = find(&mut parent, key);
                if r != root {
                    let (lo, hi) = (root.min(r), root.max(r));
                    parent.insert(hi, lo);
                    root = lo;
                }
            }
        }
        // groups keyed by root (= min atom of the merged group): member
        // component keys ascending, then the group's new column ids
        let mut groups: BTreeMap<u32, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for &k in &touched {
            groups.entry(find(&mut parent, k)).or_default().0.push(k);
        }
        for (i, col) in new_cols.iter().enumerate() {
            if col.len() < 2 {
                continue;
            }
            let root = find(&mut parent, self.comp_key[col[0] as usize]);
            groups.get_mut(&root).expect("new column's group exists").1.push((m0 + i) as u32);
        }
        // re-solve each merged group, first failure (in min-atom order)
        // wins — exactly the order the one-shot component loop fails in
        let mut staged: Vec<(u32, Vec<u32>, Comp)> = Vec::with_capacity(groups.len());
        for (&root, (keys, new_ids)) in &groups {
            let mut atoms: Vec<Atom> = Vec::new();
            let mut col_ids: Vec<u32> = Vec::new();
            for k in keys {
                match self.comps.get(k) {
                    Some(c) => {
                        atoms.extend_from_slice(&c.atoms);
                        col_ids.extend_from_slice(&c.col_ids);
                    }
                    None => atoms.push(*k), // implicit singleton {k}
                }
            }
            atoms.sort_unstable();
            col_ids.sort_unstable();
            col_ids.extend_from_slice(new_ids);
            let cols = col_ids.iter().map(|&ci| self.ens.column(ci as usize));
            let res = if atoms.len() > self.par_cutoff {
                solve_component_par(&atoms, cols, &self.cfg)
            } else {
                solve_component(&atoms, cols, &self.cfg)
            };
            match res {
                Ok(fragment) => {
                    staged.push((root, keys.clone(), Comp { atoms, col_ids, order: fragment }))
                }
                Err(rej) => {
                    self.stats.rejected_pushes += 1;
                    self.stats.components_resolved += (staged.len() + 1) as u64;
                    return Err(rej);
                }
            }
        }
        // commit
        let touched_total: usize = groups.values().map(|(keys, _)| keys.len()).sum();
        self.stats.components_resolved += staged.len() as u64;
        self.stats.components_reused += (self.n_components() - touched_total) as u64;
        for (root, keys, comp) in staged {
            for k in keys {
                if let Some(old) = self.comps.remove(&k) {
                    self.materialized_atoms -= old.atoms.len();
                }
            }
            for &a in &comp.atoms {
                self.comp_key[a as usize] = root;
            }
            self.stats.atoms_resolved += comp.atoms.len() as u64;
            self.materialized_atoms += comp.atoms.len();
            self.comps.insert(root, comp);
        }
        for col in &self.ens.columns()[m0..] {
            self.hash = fnv_fold_col(self.hash, col);
        }
        // splice: materialized fragments and implicit singletons share
        // one ascending key order, walked in a single O(n) merge
        self.order.clear();
        let mut comp_iter = self.comps.iter().peekable();
        for a in 0..self.n_atoms as u32 {
            if let Some(&(&k, comp)) = comp_iter.peek() {
                if k == a {
                    self.order.extend_from_slice(&comp.order);
                    comp_iter.next();
                    continue;
                }
            }
            if self.comp_key[a as usize] == a {
                self.order.push(a);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::verify_linear;

    #[test]
    fn empty_session_matches_one_shot_identity() {
        let inc = IncrementalSolver::new(5);
        assert_eq!(inc.order(), &[0, 1, 2, 3, 4]);
        assert_eq!(inc.order().to_vec(), c1p_core::solve(&Ensemble::new(5)).unwrap());
        assert_eq!(inc.n_components(), 5);
    }

    #[test]
    fn public_fold_mirrors_the_solver_hash_push_by_push() {
        // the client side of the recovered-hash handshake: folding
        // accepted deltas locally must track stream_hash exactly, and a
        // rejected push must leave both sides untouched
        let mut inc = IncrementalSolver::new(6);
        let mut mirror = initial_stream_hash(6);
        assert_eq!(mirror, inc.stream_hash());
        for cols in
            [vec![vec![0u32, 1], vec![1, 2]], vec![vec![3, 4]], vec![vec![2, 3], vec![4, 5]]]
        {
            let delta = Ensemble::from_columns(6, cols).unwrap();
            let folded = fold_stream_hash(mirror, &delta);
            assert!(inc.push(&delta).is_ok());
            mirror = folded;
            assert_eq!(mirror, inc.stream_hash(), "fold must track every accepted push");
        }
        // force a rejection: {0,2} against the chain 0-1-2 plus {1,3}… use
        // a known non-C1P extension: columns pairing all three of 0,1,2
        let reject =
            Ensemble::from_columns(6, vec![vec![0, 1], vec![1, 2], vec![0, 2], vec![0, 1, 2, 3]])
                .unwrap();
        if inc.push(&reject).is_err() {
            assert_eq!(mirror, inc.stream_hash(), "rejected pushes fold nothing");
        }
    }

    #[test]
    fn pushes_agree_with_one_shot_and_reuse_components() {
        let mut inc = IncrementalSolver::new(8);
        // two independent blocks {0..4} and {4..8}
        let a = inc.push_columns(vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap().unwrap();
        let ens1 = Ensemble::from_columns(8, vec![vec![0, 1], vec![1, 2], vec![2, 3]]).unwrap();
        assert_eq!(a, c1p_core::solve(&ens1).unwrap());
        verify_linear(inc.ensemble(), inc.order()).unwrap();
        // extending the *other* block must not re-solve the first
        let before = inc.stats();
        let b = inc.push_columns(vec![vec![4, 5, 6], vec![6, 7]]).unwrap().unwrap();
        let after = inc.stats();
        assert_eq!(after.components_resolved - before.components_resolved, 1);
        assert!(after.components_reused > 0);
        let mut cols = ens1.columns().to_vec();
        cols.extend([vec![4, 5, 6], vec![6, 7]]);
        let ens2 = Ensemble::from_columns(8, cols).unwrap();
        assert_eq!(b, c1p_core::solve(&ens2).unwrap());
    }

    #[test]
    fn rejected_push_rolls_back_everything() {
        let mut inc = IncrementalSolver::new(6);
        inc.push_columns(vec![vec![0, 1], vec![1, 2]]).unwrap().unwrap();
        let (hash, order, ens) = (inc.stream_hash(), inc.order().to_vec(), inc.ensemble().clone());
        // the 3-cycle {0,1},{1,2},{0,2} is Tucker's M_I(1): push {0,2}
        // plus an unrelated good column — the whole push must roll back
        let cert = inc.push_columns(vec![vec![0, 2], vec![3, 4]]).unwrap().unwrap_err();
        assert!(!cert.rejection.atoms.is_empty());
        // the witness matches one-shot extraction on the concatenation
        let mut cols = ens.columns().to_vec();
        cols.extend([vec![0, 2], vec![3, 4]]);
        let concat = Ensemble::from_columns(6, cols).unwrap();
        let one_shot = c1p_cert::solve_certified(&concat).unwrap_err();
        assert_eq!(cert.rejection, one_shot.rejection);
        assert_eq!(cert.witness, one_shot.witness);
        c1p_cert::verify_witness(&concat, &cert.witness).unwrap();
        // rollback: state byte-identical to before the push
        assert_eq!(inc.stream_hash(), hash);
        assert_eq!(inc.order(), &order[..]);
        assert_eq!(inc.ensemble(), &ens);
        assert_eq!(inc.stats().rejected_pushes, 1);
        // and the session keeps accepting afterwards
        inc.push_columns(vec![vec![3, 4]]).unwrap().unwrap();
    }

    #[test]
    fn trivial_columns_are_accepted_without_resolves() {
        let mut inc = IncrementalSolver::new(4);
        let order = inc.push_columns(vec![vec![], vec![2]]).unwrap().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(inc.stats().components_resolved, 0);
        assert_eq!(inc.ensemble().n_columns(), 2, "trivial columns still recorded");
        // ... and still hash (replay equivalence depends on them)
        let mut twin = IncrementalSolver::new(4);
        assert_ne!(twin.stream_hash(), inc.stream_hash());
        twin.push_columns(vec![vec![], vec![2]]).unwrap().unwrap();
        assert_eq!(twin.stream_hash(), inc.stream_hash());
    }

    #[test]
    fn replay_reproduces_state_and_refuses_divergent_logs() {
        // record a two-push history on one session ...
        let mut live = IncrementalSolver::new(8);
        let d1 = Ensemble::from_columns(8, vec![vec![0, 1], vec![1, 2]]).unwrap();
        let d2 = Ensemble::from_columns(8, vec![vec![4, 5, 6]]).unwrap();
        live.push(&d1).unwrap();
        let h1 = live.stream_hash();
        live.push(&d2).unwrap();
        let h2 = live.stream_hash();
        // ... and replay it on a twin: state must be bit-identical
        let mut twin = IncrementalSolver::new(8);
        twin.replay_accepted(d1.clone(), h1).unwrap();
        twin.replay_accepted(d2.clone(), h2).unwrap();
        assert_eq!(twin.stream_hash(), live.stream_hash());
        assert_eq!(twin.order(), live.order());
        assert_eq!(twin.ensemble(), live.ensemble());
        // ... or in one call on the concatenation, checked against the
        // last recorded hash: the same state from a single push
        let mut once = IncrementalSolver::new(8);
        let mut both = d1.clone();
        both.append(d2);
        once.replay_accepted(both, h2).unwrap();
        assert_eq!(once.stream_hash(), live.stream_hash());
        assert_eq!(once.order(), live.order());
        assert_eq!(once.ensemble(), live.ensemble());
        assert_eq!(once.n_components(), live.n_components());
        assert_eq!(once.stats().pushes, 1);
        // a wrong recorded hash refuses without touching the session
        let mut cold = IncrementalSolver::new(8);
        let err = cold.replay_accepted(d1, h1 ^ 1).unwrap_err();
        assert_eq!(err, ReplayError::HashMismatch { expected: h1 ^ 1, actual: h1 });
        assert_eq!(cold.ensemble().n_columns(), 0, "refused replay leaves no trace");
        assert_eq!(cold.stats().pushes, 0);
        // a delta that hashes right but rejects reports log damage and
        // rolls back (forge the hash the bad delta would produce)
        let bad = Ensemble::from_columns(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let mut probe = IncrementalSolver::new(3);
        let mut forged = probe.stream_hash();
        for col in bad.columns() {
            forged = fnv_fold_col(forged, col);
        }
        assert_eq!(probe.replay_accepted(bad, forged), Err(ReplayError::Rejected));
        assert_eq!(probe.ensemble().n_columns(), 0, "rejected replay rolled back");
    }

    #[test]
    #[should_panic(expected = "atom count")]
    fn mismatched_push_panics() {
        let mut inc = IncrementalSolver::new(4);
        let _ = inc.push(&Ensemble::new(5));
    }

    #[test]
    fn validation_errors_leave_no_trace() {
        let mut inc = IncrementalSolver::new(4);
        let err = inc.push_columns(vec![vec![0, 9]]).unwrap_err();
        assert!(matches!(err, c1p_matrix::EnsembleError::AtomOutOfRange { .. }));
        assert_eq!(inc.ensemble().n_columns(), 0);
        assert_eq!(inc.stats().pushes, 0);
    }
}

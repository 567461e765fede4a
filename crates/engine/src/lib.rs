//! # c1p-engine: a batched, caching C1P solve service
//!
//! The solver stack (`c1p-core` + `c1p-cert`) answers one instance per
//! call, paying a cold solve and — for the parallel driver — per-call pool
//! context every time. This crate turns it into a *served* workload
//! (ROADMAP north star; Raffinot and Chauve–Stephen–Tamayo both frame C1P
//! testing as a repeated-query primitive over evolving instance families):
//!
//! * **one shared pool** — [`Engine::new`] builds the work-stealing pool
//!   once; every request, batch and recovery runs `install`ed on it, so
//!   scheduling state is resolved per engine, not per call;
//! * **batching** — [`Engine::solve_batch`] solves whatever batch its
//!   caller hands it (`c1pd`'s shard workers drain their mailbox into
//!   one; queue depth and batch size are the front end's admission
//!   knobs). Small instances (≤ [`EngineConfig::small_cutoff`] atoms)
//!   fan out *across* the pool — each solved sequentially, many at once —
//!   while large instances take the forking solver path one at a time
//!   ([`c1p_core::parallel`]'s `solve_par`), which parallelizes *within*
//!   the instance;
//! * **caching** — results are keyed by the hash-consed canonical ensemble
//!   encoding (the documented rule: column order is canonicalized, atom
//!   numbering is not — see DESIGN.md §8) in a byte-budgeted LRU; the
//!   engine always solves the canonical form, so hot and cold answers are
//!   byte-identical, and identical in-flight requests coalesce onto one
//!   computation that eviction can never drop;
//! * **certified verdicts** — every answer is checkable: accepts carry a
//!   witness order, rejects a Tucker certificate
//!   ([`c1p_cert::verify_witness`]-checkable without trusting the engine);
//! * **incremental sessions** — [`Engine::open_session`] /
//!   [`Engine::session_push`] / [`Engine::seal_session`] serve append-only
//!   streams through `c1p_incremental::IncrementalSolver`: each push
//!   re-solves only the components it touches (on the shared pool for
//!   large groups), answers bit-identically to a one-shot solve of the
//!   concatenation, rolls back rejected pushes, and a sealed session
//!   feeds its canonical verdict into the result cache. Sessions are
//!   admission-controlled ([`EngineConfig::max_sessions`],
//!   [`EngineConfig::max_session_columns`]) and idle-evicted
//!   ([`EngineConfig::session_idle_ms`]). See DESIGN.md §9.
//!
//! The wire front-end (`c1pd`, a std-only TCP server speaking the
//! length-prefixed [`proto`] frames) and its closed-loop traffic generator
//! (`load_driver`) live in the `c1p-net` crate. DESIGN.md §8 specifies
//! the formats and policies.

mod cache;
mod canonical;
pub mod proto;
pub mod snapshot;
pub mod trace;
pub mod wal;

use c1p_cert::TuckerWitness;
use c1p_core::{Rejection, SolveStats};
use c1p_incremental::IncrementalSolver;
use c1p_matrix::io::WireVerdict;
use c1p_matrix::{Atom, Ensemble};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Engine configuration. `Default` is sized for a mixed small-instance
/// service on the current host.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads of the shared pool; `0` = host parallelism.
    pub threads: usize,
    /// LRU result-cache budget in bytes. `0` disables caching (in-flight
    /// coalescing still works — it lives outside the cache).
    pub cache_bytes: usize,
    /// Instances with at most this many atoms are solved sequentially and
    /// batched across the pool; larger ones take the forking solver path
    /// individually.
    pub small_cutoff: usize,
    /// Admission control: instances with more atoms than this are rejected
    /// with [`EngineError::TooLarge`].
    pub max_atoms: usize,
    /// Admission control: concurrently open incremental sessions beyond
    /// this count are refused with [`EngineError::Overloaded`].
    pub max_sessions: usize,
    /// Sessions untouched for longer than this many milliseconds are
    /// evicted by the lazy sweep that runs on every session operation and
    /// stats snapshot (an abandoned session cannot pin memory forever).
    pub session_idle_ms: u64,
    /// Admission control: a push that would grow a session beyond this
    /// many accepted columns is refused with [`EngineError::SessionFull`].
    pub max_session_columns: usize,
    /// Admission control: per-session memory budget in accounted bytes
    /// (base per-atom vectors plus every accepted column); opens and
    /// pushes over it are refused with [`EngineError::SessionOverBudget`].
    /// Worst-case session memory is `max_sessions × max_session_bytes`.
    pub max_session_bytes: usize,
    /// Durability directory (DESIGN.md §10). `Some` turns on per-session
    /// write-ahead logs (every accepted push is appended and fsynced
    /// before it is acknowledged), boot-time recovery of live sessions,
    /// lazy resume of idle-evicted sessions, and cache snapshots. `None`
    /// (the default) keeps the engine purely in-memory.
    pub wal_dir: Option<std::path::PathBuf>,
    /// Milliseconds between periodic cache snapshots (requires
    /// [`EngineConfig::wal_dir`]); `0` disables the background snapshot
    /// thread — [`Engine::flush_durability`] still writes one on demand.
    pub snapshot_interval_ms: u64,
    /// Test-only crash-injection hook (`--wal-fault-after`): the N-th WAL
    /// append process-wide writes a torn record prefix, syncs it, and
    /// aborts the process. `0` disables. Exists so the crash harness can
    /// deterministically die *mid-append*; never set it in production.
    pub wal_fault_after: u64,
    /// Scheduled WAL-append faults (chaos testing): unlike the one-shot
    /// [`EngineConfig::wal_fault_after`] abort, these fire repeatedly and
    /// *within* the process — each hit panics the pushing thread instead
    /// of killing the process, so a supervised shard worker dies, is
    /// respawned, and recovers its sessions from disk. Empty (the
    /// default) costs nothing on the push path.
    pub wal_faults: WalFaultPlan,
}

/// Deterministic schedule of injected WAL-append faults
/// ([`EngineConfig::wal_faults`]). The countdowns live *inside the plan*
/// (shared by every clone), not inside any one engine: a supervised
/// respawn clones the config, so the rebuilt engine resumes the schedule
/// where the dead one left off instead of resetting its phase. Without
/// that, a seed whose phase lands on the first append would tear the
/// retried push after every respawn, forever — a deterministic livelock.
/// `seed` staggers each schedule's first hit so torn and failed appends
/// interleave instead of colliding.
#[derive(Debug, Clone, Default)]
pub struct WalFaultPlan {
    /// Every N-th append writes a torn record prefix (syncs it, then
    /// panics without acknowledging). `0` disables.
    pub torn_every: u64,
    /// Every N-th append refuses outright (panics before writing a
    /// byte). `0` disables.
    pub fail_every: u64,
    /// Staggers the schedules' phases deterministically.
    pub seed: u64,
    /// Shared countdowns (torn, failed); each reloads to its `every`
    /// after firing. Private so every plan goes through
    /// [`WalFaultPlan::new`] with coherent phases.
    counters: std::sync::Arc<(AtomicU64, AtomicU64)>,
}

impl WalFaultPlan {
    /// Builds a plan with seed-staggered first hits. `0` disables a
    /// schedule.
    pub fn new(torn_every: u64, fail_every: u64, seed: u64) -> WalFaultPlan {
        let plan = WalFaultPlan { torn_every, fail_every, seed, counters: Default::default() };
        plan.counters.0.store(plan.phase(torn_every, 1), Ordering::Relaxed);
        plan.counters.1.store(plan.phase(fail_every, 2), Ordering::Relaxed);
        plan
    }

    /// `true` when no fault is scheduled (the production state).
    pub fn is_empty(&self) -> bool {
        self.torn_every == 0 && self.fail_every == 0
    }

    /// Advances the torn-append countdown; `true` means this append must
    /// tear.
    fn torn_now(&self) -> bool {
        self.torn_every > 0 && self.counters.0.fetch_sub(1, Ordering::Relaxed) == 1 && {
            self.counters.0.store(self.torn_every, Ordering::Relaxed);
            true
        }
    }

    /// Advances the failed-append countdown; `true` means this append
    /// must refuse.
    fn fail_now(&self) -> bool {
        self.fail_every > 0 && self.counters.1.fetch_sub(1, Ordering::Relaxed) == 1 && {
            self.counters.1.store(self.fail_every, Ordering::Relaxed);
            true
        }
    }

    /// First-hit countdown for schedule `k`: a seed-dependent phase in
    /// `1..=every`, so independent schedules do not all fire on the same
    /// append.
    fn phase(&self, every: u64, k: u64) -> u64 {
        if every == 0 {
            return 0;
        }
        let mut x = self.seed ^ (k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        (x % every) + 1
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache_bytes: 64 << 20,
            small_cutoff: 2048,
            max_atoms: 1 << 22,
            max_sessions: 64,
            session_idle_ms: 300_000,
            max_session_columns: 1 << 20,
            max_session_bytes: 32 << 20,
            wal_dir: None,
            snapshot_interval_ms: 0,
            wal_fault_after: 0,
            wal_faults: WalFaultPlan::default(),
        }
    }
}

/// Why the engine refused (not failed to solve) a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A capacity limit is reached: [`EngineConfig::max_sessions`] here,
    /// or a front end's in-flight queue cap (`c1pd`'s `--max-queue`).
    Overloaded,
    /// The instance exceeds [`EngineConfig::max_atoms`].
    TooLarge {
        /// Atoms in the rejected instance.
        n_atoms: usize,
        /// The configured limit.
        max_atoms: usize,
    },
    /// The engine is shutting down (or an in-flight owner panicked).
    ShuttingDown,
    /// No open session with this id (never opened, sealed, or evicted).
    NoSuchSession {
        /// The id the caller presented.
        id: u64,
    },
    /// A push whose atom count differs from the session's (sessions fix
    /// their atom set at open).
    SessionMismatch {
        /// The session's atom count.
        session_atoms: usize,
        /// The push's atom count.
        push_atoms: usize,
    },
    /// A push that would grow the session past
    /// [`EngineConfig::max_session_columns`].
    SessionFull {
        /// Accepted columns plus the refused push's.
        columns: usize,
        /// The configured limit.
        max_columns: usize,
    },
    /// An open or push that would grow the session past
    /// [`EngineConfig::max_session_bytes`] of accounted memory.
    SessionOverBudget {
        /// Accounted bytes after the refused operation.
        bytes: usize,
        /// The configured budget.
        max_bytes: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Overloaded => write!(f, "submission queue full"),
            EngineError::TooLarge { n_atoms, max_atoms } => {
                write!(f, "instance has {n_atoms} atoms, over the {max_atoms}-atom limit")
            }
            EngineError::ShuttingDown => write!(f, "engine is shutting down"),
            EngineError::NoSuchSession { id } => write!(f, "no open session {id}"),
            EngineError::SessionMismatch { session_atoms, push_atoms } => write!(
                f,
                "push has {push_atoms} atoms but the session was opened with {session_atoms}"
            ),
            EngineError::SessionFull { columns, max_columns } => {
                write!(f, "session would hold {columns} columns, over the {max_columns} limit")
            }
            EngineError::SessionOverBudget { bytes, max_bytes } => {
                write!(f, "session would hold {bytes} bytes, over the {max_bytes}-byte budget")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A solved request: both sides are checkable without trusting the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// C1P: a witness atom order ([`c1p_matrix::verify_linear`]-checkable).
    C1p {
        /// The witness order.
        order: Vec<Atom>,
    },
    /// Not C1P: the solver's evidence plus the extracted Tucker
    /// certificate ([`c1p_cert::verify_witness`]-checkable).
    NotC1p {
        /// Evidence-carrying rejection (atom-space; column-order free).
        rejection: Rejection,
        /// The minimal Tucker submatrix witness, in request coordinates.
        witness: TuckerWitness,
    },
}

impl Verdict {
    /// Is this an accept?
    pub fn is_c1p(&self) -> bool {
        matches!(self, Verdict::C1p { .. })
    }

    /// The wire-format projection (drops the internal rejection evidence;
    /// clients re-verify the certificate instead of trusting it).
    pub fn to_wire(&self) -> WireVerdict {
        match self {
            Verdict::C1p { order } => WireVerdict::Accept { order: order.clone() },
            Verdict::NotC1p { witness, .. } => WireVerdict::Reject {
                family: witness.family,
                atom_rows: witness.atom_rows.clone(),
                column_ids: witness.column_ids.clone(),
            },
        }
    }
}

/// A point-in-time statistics snapshot ([`Engine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Requests accepted into [`Engine::solve`]/[`Engine::solve_batch`].
    pub requests: u64,
    /// `solve_batch` invocations (a single [`Engine::solve`] counts one).
    pub batches: u64,
    /// Result-cache hits.
    pub hits: u64,
    /// Cold solves (cache misses that became the computing owner).
    pub misses: u64,
    /// Requests that found their instance already in flight and waited for
    /// the owner instead of recomputing.
    pub coalesced: u64,
    /// Requests refused with [`EngineError::Overloaded`]: session opens
    /// over [`EngineConfig::max_sessions`] here; `c1pd` adds the solves
    /// its front end refuses at the queue cap.
    pub overloaded: u64,
    /// Small instances fanned out across the pool.
    pub batched_small: u64,
    /// Large instances routed through the forking solver path.
    pub large_direct: u64,
    /// Entries evicted from the result cache.
    pub evictions: u64,
    /// Entries inserted into the result cache.
    pub insertions: u64,
    /// Verdicts too large for the cache budget (never inserted).
    pub uncacheable: u64,
    /// Current result-cache entry count.
    pub cache_entries: u64,
    /// Current result-cache footprint in accounted bytes.
    pub cache_bytes: u64,
    /// Incremental sessions opened.
    pub sessions_opened: u64,
    /// Sessions sealed (their canonical verdict fed to the cache).
    pub sessions_sealed: u64,
    /// Sessions evicted by the idle sweep.
    pub sessions_evicted: u64,
    /// Session pushes attempted (accepted + rejected verdicts).
    pub session_pushes: u64,
    /// Session pushes that returned a rejection verdict (and rolled back).
    pub session_rejects: u64,
    /// Currently open sessions.
    pub open_sessions: u64,
    /// Accepted pushes appended to a write-ahead log.
    pub wal_appends: u64,
    /// WAL fsyncs issued (one per durable append; the fsync happens
    /// before the push is acknowledged).
    pub wal_fsyncs: u64,
    /// Sessions rebuilt from their WAL — at boot or by lazy resume of an
    /// idle-evicted session.
    pub recovered_sessions: u64,
    /// WAL files refused during recovery and moved aside (checksum, hash
    /// or replay mismatch — never silently dropped).
    pub quarantined_wals: u64,
    /// Wall time spent rebuilding sessions from their WALs, in
    /// microseconds: the boot pass (every log at once, on the pool — its
    /// wall time, not a per-log sum) plus every lazy resume.
    pub recovery_us: u64,
    /// Cache snapshots written (periodic + on-demand flushes).
    pub snapshot_writes: u64,
    /// Cache hits served by entries loaded from a snapshot — the proof a
    /// restart answered hot.
    pub warm_start_hits: u64,
    /// WAL appends deliberately broken by the [`EngineConfig::wal_faults`]
    /// chaos plan (torn prefixes and refused writes). Always 0 outside
    /// chaos runs.
    pub wal_faults_injected: u64,
}

impl EngineStats {
    /// Adds `other`'s values into `self`, field by field. A sharded
    /// front-end answers `GetStats` with the sum over its per-shard
    /// engines; gauges (`cache_entries`, `cache_bytes`, `open_sessions`)
    /// sum too — the fleet-wide footprint is what the caller is sizing.
    pub fn absorb(&mut self, other: &EngineStats) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.overloaded += other.overloaded;
        self.batched_small += other.batched_small;
        self.large_direct += other.large_direct;
        self.evictions += other.evictions;
        self.insertions += other.insertions;
        self.uncacheable += other.uncacheable;
        self.cache_entries += other.cache_entries;
        self.cache_bytes += other.cache_bytes;
        self.sessions_opened += other.sessions_opened;
        self.sessions_sealed += other.sessions_sealed;
        self.sessions_evicted += other.sessions_evicted;
        self.session_pushes += other.session_pushes;
        self.session_rejects += other.session_rejects;
        self.open_sessions += other.open_sessions;
        self.wal_appends += other.wal_appends;
        self.wal_fsyncs += other.wal_fsyncs;
        self.recovered_sessions += other.recovered_sessions;
        self.quarantined_wals += other.quarantined_wals;
        self.recovery_us += other.recovery_us;
        self.snapshot_writes += other.snapshot_writes;
        self.warm_start_hits += other.warm_start_hits;
        self.wal_faults_injected += other.wal_faults_injected;
    }

    /// Hit fraction among cache lookups that finished (hits + cold solves).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Renders the snapshot as a flat JSON object (the `Stats` frame body).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"batches\": {}, \"hits\": {}, \"misses\": {}, \
             \"coalesced\": {}, \"overloaded\": {}, \"batched_small\": {}, \
             \"large_direct\": {}, \"evictions\": {}, \"insertions\": {}, \
             \"uncacheable\": {}, \"cache_entries\": {}, \"cache_bytes\": {}, \
             \"sessions_opened\": {}, \"sessions_sealed\": {}, \
             \"sessions_evicted\": {}, \"session_pushes\": {}, \
             \"session_rejects\": {}, \"open_sessions\": {}, \
             \"wal_appends\": {}, \"wal_fsyncs\": {}, \
             \"recovered_sessions\": {}, \"quarantined_wals\": {}, \
             \"recovery_us\": {}, \
             \"snapshot_writes\": {}, \"warm_start_hits\": {}, \
             \"wal_faults_injected\": {}, \
             \"hit_rate\": {:.4}}}",
            self.requests,
            self.batches,
            self.hits,
            self.misses,
            self.coalesced,
            self.overloaded,
            self.batched_small,
            self.large_direct,
            self.evictions,
            self.insertions,
            self.uncacheable,
            self.cache_entries,
            self.cache_bytes,
            self.sessions_opened,
            self.sessions_sealed,
            self.sessions_evicted,
            self.session_pushes,
            self.session_rejects,
            self.open_sessions,
            self.wal_appends,
            self.wal_fsyncs,
            self.recovered_sessions,
            self.quarantined_wals,
            self.recovery_us,
            self.snapshot_writes,
            self.warm_start_hits,
            self.wal_faults_injected,
            self.hit_rate(),
        )
    }
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    overloaded: AtomicU64,
    batched_small: AtomicU64,
    large_direct: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_sealed: AtomicU64,
    sessions_evicted: AtomicU64,
    session_pushes: AtomicU64,
    session_rejects: AtomicU64,
    wal_appends: AtomicU64,
    wal_fsyncs: AtomicU64,
    recovered_sessions: AtomicU64,
    quarantined_wals: AtomicU64,
    recovery_us: AtomicU64,
    snapshot_writes: AtomicU64,
    wal_faults_injected: AtomicU64,
}

/// One in-flight computation; waiters block on the condvar, the owner
/// fills exactly once. Lives in the pending map, *not* the cache, so
/// eviction can never touch it.
#[derive(Default)]
struct InFlight {
    state: Mutex<Option<Result<Verdict, EngineError>>>,
    cv: Condvar,
}

impl InFlight {
    fn wait(&self) -> Result<Verdict, EngineError> {
        let mut g = self.state.lock().expect("in-flight lock");
        while g.is_none() {
            g = self.cv.wait(g).expect("in-flight wait");
        }
        g.as_ref().expect("filled").clone()
    }

    fn fill(&self, r: Result<Verdict, EngineError>) {
        let mut g = self.state.lock().expect("in-flight lock");
        if g.is_none() {
            *g = Some(r);
        }
        self.cv.notify_all();
    }
}

/// One live incremental session (engine side): the solver, the idle
/// clock, and the memory account. Each session has its own lock, so a
/// slow push serializes only its own session, never its neighbours.
struct SessionState {
    inc: IncrementalSolver,
    last_touch: Instant,
    /// Accounted bytes: the base per-atom vectors plus every accepted
    /// column (a budget, not an audit — same spirit as the result cache).
    bytes: usize,
    /// The session's write-ahead log ([`EngineConfig::wal_dir`] set);
    /// every accepted push is appended and fsynced here *before* the
    /// verdict is returned. Idle eviction drops this handle but leaves
    /// the file — the session stays resumable (lazy replay on the next
    /// push or seal).
    wal: Option<wal::WalWriter>,
}

/// Accounted memory of one accepted column (payload + `Vec` overhead).
fn column_account(col: &[Atom]) -> usize {
    24 + 4 * col.len()
}

/// Accounted base memory of a session over `n_atoms` atoms (the two
/// per-atom u32 vectors of the incremental solver).
fn session_base_account(n_atoms: usize) -> usize {
    8 * n_atoms
}

struct Inner {
    cfg: EngineConfig,
    pool: rayon::ThreadPool,
    cache: Mutex<cache::ResultCache>,
    pending: Mutex<HashMap<Arc<[u8]>, Arc<InFlight>>>,
    sessions: Mutex<HashMap<u64, Arc<Mutex<SessionState>>>>,
    session_seq: AtomicU64,
    stats: Counters,
    /// Countdown for the [`EngineConfig::wal_fault_after`] crash hook
    /// (process-wide across sessions; `0` when the hook is off).
    wal_fault_countdown: AtomicU64,
    /// Snapshot-thread control: `true` stops the thread; the condvar
    /// doubles as its interval timer.
    snap_stop: Mutex<bool>,
    snap_cv: Condvar,
}

/// The multi-tenant solve engine. Cheap to share behind an [`Arc`]; all
/// entry points take `&self`.
pub struct Engine {
    inner: Arc<Inner>,
    snapshotter: Option<thread::JoinHandle<()>>,
}

impl Engine {
    /// Builds the engine: one shared pool and an empty cache. With
    /// [`EngineConfig::wal_dir`] set this
    /// is also *recovery*: the cache snapshot is loaded (warm start) and
    /// every live session WAL in the directory is replayed back into an
    /// open session — a damaged file is quarantined and counted, never
    /// trusted and never deleted.
    pub fn new(cfg: EngineConfig) -> Engine {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(cfg.threads)
            .build()
            .expect("engine pool construction");
        let inner = Arc::new(Inner {
            cache: Mutex::new(cache::ResultCache::new(cfg.cache_bytes)),
            pending: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
            session_seq: AtomicU64::new(0),
            stats: Counters::default(),
            wal_fault_countdown: AtomicU64::new(cfg.wal_fault_after),
            snap_stop: Mutex::new(false),
            snap_cv: Condvar::new(),
            pool,
            cfg,
        });
        if inner.cfg.wal_dir.is_some() {
            recover_durable_state(&inner);
        }
        let snapshotter = if inner.cfg.wal_dir.is_some() && inner.cfg.snapshot_interval_ms > 0 {
            let inner = Arc::clone(&inner);
            Some(
                thread::Builder::new()
                    .name("c1p-engine-snapshotter".into())
                    .spawn(move || snapshot_loop(&inner))
                    .expect("spawn snapshot thread"),
            )
        } else {
            None
        };
        Engine { inner, snapshotter }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.inner.cfg
    }

    /// Solves one instance through the cache, synchronously.
    pub fn solve(&self, req: &Ensemble) -> Result<Verdict, EngineError> {
        self.solve_batch(std::slice::from_ref(req)).pop().expect("one result per request")
    }

    /// Solves a batch: small instances fan out across the shared pool,
    /// large ones run the forking solver path one at a time; duplicate
    /// instances inside the batch are deduplicated through the cache
    /// machinery. `results[i]` answers `reqs[i]`.
    pub fn solve_batch(&self, reqs: &[Ensemble]) -> Vec<Result<Verdict, EngineError>> {
        solve_batch_on(&self.inner, reqs, &[])
    }

    /// [`Engine::solve_batch`] with per-request span recorders:
    /// `traces[i]` (when present) receives `cache` / `coalesce` / `solve`
    /// (+ `solve/<phase>` children) events for `reqs[i]`. `traces` may be
    /// shorter than `reqs`; missing entries are unsampled.
    pub fn solve_batch_traced(
        &self,
        reqs: &[Ensemble],
        traces: &[Option<Arc<trace::ReqTrace>>],
    ) -> Vec<Result<Verdict, EngineError>> {
        solve_batch_on(&self.inner, reqs, traces)
    }

    /// Opens an incremental session over a fixed atom set. The session
    /// starts at the empty accepted state (verdict: the identity order)
    /// and grows through [`Engine::session_push`]; admission control
    /// refuses opens beyond [`EngineConfig::max_sessions`] live sessions
    /// ([`EngineError::Overloaded`]) or atom counts beyond
    /// [`EngineConfig::max_atoms`] ([`EngineError::TooLarge`]).
    pub fn open_session(&self, n_atoms: usize) -> Result<u64, EngineError> {
        self.sweep_idle_sessions();
        if n_atoms > self.inner.cfg.max_atoms {
            return Err(EngineError::TooLarge { n_atoms, max_atoms: self.inner.cfg.max_atoms });
        }
        let base = session_base_account(n_atoms);
        if base > self.inner.cfg.max_session_bytes {
            return Err(EngineError::SessionOverBudget {
                bytes: base,
                max_bytes: self.inner.cfg.max_session_bytes,
            });
        }
        let mut sessions = self.inner.sessions.lock().expect("sessions lock");
        if sessions.len() >= self.inner.cfg.max_sessions {
            self.inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Overloaded);
        }
        let id = self.inner.session_seq.fetch_add(1, Ordering::Relaxed) + 1;
        // durable opens write (and fsync) the WAL header before the open
        // is acknowledged — a session id on the wire implies a log on disk
        let wal = self.inner.cfg.wal_dir.as_ref().map(|dir| {
            wal::WalWriter::create(dir, id, n_atoms as u64)
                .expect("WAL create (durability directory must stay writable)")
        });
        // large re-solved groups take the forking solver path on the
        // shared pool, mirroring the batch path's small/large routing
        let inc = IncrementalSolver::with_config(
            n_atoms,
            c1p_core::Config::default(),
            self.inner.cfg.small_cutoff,
        );
        sessions.insert(
            id,
            Arc::new(Mutex::new(SessionState {
                inc,
                last_touch: Instant::now(),
                bytes: base,
                wal,
            })),
        );
        self.inner.stats.sessions_opened.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Pushes a batch of columns into a session and returns the verdict
    /// for the extended ensemble — bit-identical to what
    /// [`Engine::solve`] would answer for the concatenation. A
    /// [`Verdict::NotC1p`] means the push was rolled back: the session
    /// stays at its last accepted state and keeps serving.
    pub fn session_push(&self, id: u64, delta: &Ensemble) -> Result<Verdict, EngineError> {
        self.session_push_traced(id, delta, None)
    }

    /// [`Engine::session_push`] with an optional span recorder: records
    /// `solve` around the incremental re-solve and `wal` around the
    /// append+fsync that makes an accepted push durable.
    pub fn session_push_traced(
        &self,
        id: u64,
        delta: &Ensemble,
        trace: Option<&trace::ReqTrace>,
    ) -> Result<Verdict, EngineError> {
        self.sweep_idle_sessions();
        let sess = {
            let sessions = self.inner.sessions.lock().expect("sessions lock");
            sessions.get(&id).cloned()
        };
        let sess = match sess {
            Some(s) => s,
            // idle-evicted durable sessions are resumable, not gone:
            // rebuild from the WAL before refusing with NoSuchSession
            None => self.resume_session(id)?,
        };
        let mut st = sess.lock().expect("session lock");
        // Re-check membership now that the session lock is held: a
        // concurrent seal or idle sweep may have removed the session in
        // the window between the map lookup and the lock — pushing into a
        // detached solver would fake-accept columns the server already
        // discarded. (No deadlock: seal releases the map lock before
        // taking a session lock, and the sweep only try_locks.)
        {
            let sessions = self.inner.sessions.lock().expect("sessions lock");
            if !sessions.get(&id).is_some_and(|live| Arc::ptr_eq(live, &sess)) {
                return Err(EngineError::NoSuchSession { id });
            }
        }
        if delta.n_atoms() != st.inc.n_atoms() {
            return Err(EngineError::SessionMismatch {
                session_atoms: st.inc.n_atoms(),
                push_atoms: delta.n_atoms(),
            });
        }
        let columns = st.inc.ensemble().n_columns() + delta.n_columns();
        if columns > self.inner.cfg.max_session_columns {
            return Err(EngineError::SessionFull {
                columns,
                max_columns: self.inner.cfg.max_session_columns,
            });
        }
        let delta_bytes: usize = delta.columns().iter().map(|c| column_account(c)).sum();
        if st.bytes + delta_bytes > self.inner.cfg.max_session_bytes {
            return Err(EngineError::SessionOverBudget {
                bytes: st.bytes + delta_bytes,
                max_bytes: self.inner.cfg.max_session_bytes,
            });
        }
        st.last_touch = Instant::now();
        let solve_at = trace.map(|t| t.now_us());
        let result = self.inner.pool.install(|| st.inc.push(delta));
        if let (Some(t), Some(at)) = (trace, solve_at) {
            t.record("solve", at);
        }
        self.inner.stats.session_pushes.fetch_add(1, Ordering::Relaxed);
        Ok(match result {
            Ok(order) => {
                st.bytes += delta_bytes; // rejected pushes roll back, accepted ones account
                                         // durable before acknowledged: the record (delta + the
                                         // post-push stream hash) is on disk and fsynced before the
                                         // accept verdict leaves this function — a crash at any
                                         // later instant replays to exactly this state. Rejected
                                         // pushes are rolled back and never logged.
                let hash = st.inc.stream_hash();
                let wal_at = trace.map(|t| t.now_us());
                if let Some(w) = st.wal.as_mut() {
                    if self.inner.cfg.wal_fault_after > 0
                        && self.inner.wal_fault_countdown.fetch_sub(1, Ordering::Relaxed) == 1
                    {
                        w.append_torn_and_abort(delta, hash);
                    }
                    // the chaos schedule panics *without acknowledging*:
                    // the push applied in memory but was never durable, so
                    // the supervisor must discard this engine and rebuild
                    // from the WAL (which recovers to the pre-push state)
                    let plan = &self.inner.cfg.wal_faults;
                    if !plan.is_empty() {
                        if plan.torn_now() {
                            self.inner.stats.wal_faults_injected.fetch_add(1, Ordering::Relaxed);
                            w.append_torn(delta, hash);
                            panic!("chaos: injected torn WAL append (session {id})");
                        }
                        if plan.fail_now() {
                            self.inner.stats.wal_faults_injected.fetch_add(1, Ordering::Relaxed);
                            panic!("chaos: injected failed WAL append (session {id})");
                        }
                    }
                    w.append(delta, hash)
                        .expect("WAL append (durability directory must stay writable)");
                    self.inner.stats.wal_appends.fetch_add(1, Ordering::Relaxed);
                    self.inner.stats.wal_fsyncs.fetch_add(1, Ordering::Relaxed);
                    if let (Some(t), Some(at)) = (trace, wal_at) {
                        t.record("wal", at);
                    }
                }
                Verdict::C1p { order }
            }
            Err(cert) => {
                self.inner.stats.session_rejects.fetch_add(1, Ordering::Relaxed);
                Verdict::NotC1p { rejection: cert.rejection, witness: cert.witness }
            }
        })
    }

    /// Seals a session: returns its final (always accepting — rejected
    /// pushes never stick) verdict, feeds the result cache under the
    /// canonical encoding of the accepted ensemble, and closes the
    /// session. A later [`Engine::solve`] of the same ensemble — or any
    /// column permutation of it — is a cache hit.
    ///
    /// The returned verdict keeps the session contract (bit-identical to
    /// one-shot `solve_certified` on the accepted stream), while the
    /// cache is fed with a solve of the *canonical form* — preserving the
    /// engine-wide "hot and cold answers are byte-identical" invariant
    /// (DESIGN.md §8) at the cost of one canonical solve per seal, paid
    /// off the push hot path and skipped when the key is already cached.
    pub fn seal_session(&self, id: u64) -> Result<Verdict, EngineError> {
        let sess = {
            let mut sessions = self.inner.sessions.lock().expect("sessions lock");
            sessions.remove(&id)
        };
        let sess = match sess {
            Some(s) => s,
            // an idle-evicted durable session can be sealed directly: the
            // resume re-registers it, so remove it again before sealing
            None => {
                let sess = self.resume_session(id)?;
                self.inner.sessions.lock().expect("sessions lock").remove(&id);
                sess
            }
        };
        let mut st = sess.lock().expect("session lock");
        let verdict = Verdict::C1p { order: st.inc.order().to_vec() };
        let canon = canonical::canonicalize(st.inc.ensemble());
        let key: Arc<[u8]> = canon.key.into();
        // Feed through the solve path's cache → coalesce → compute
        // machinery: an already-cached key costs a lookup, a key another
        // request is computing right now is joined instead of re-solved,
        // and only a genuinely cold key pays the canonical solve.
        let _ = self.inner.pool.install(|| solve_canonical(&self.inner, &key, &canon.ens, None));
        // the WAL dies last: a crash anywhere before this unlink leaves a
        // replayable log and an unacknowledged seal the client repeats
        if let Some(w) = st.wal.take() {
            w.remove().expect("WAL unlink (durability directory must stay writable)");
        }
        self.inner.stats.sessions_sealed.fetch_add(1, Ordering::Relaxed);
        Ok(verdict)
    }

    /// The server side of the recovered-hash handshake: reports a
    /// session's accepted stream hash and column count without touching
    /// its state. Resumes an idle-evicted durable session exactly like a
    /// push would, so a client whose shard just restarted can ask "which
    /// of my pushes survived?" and replay precisely the unacked suffix.
    pub fn session_status(&self, id: u64) -> Result<(u64, u64), EngineError> {
        self.sweep_idle_sessions();
        let sess = {
            let sessions = self.inner.sessions.lock().expect("sessions lock");
            sessions.get(&id).cloned()
        };
        let sess = match sess {
            Some(s) => s,
            None => self.resume_session(id)?,
        };
        let mut st = sess.lock().expect("session lock");
        st.last_touch = Instant::now();
        Ok((st.inc.stream_hash(), st.inc.ensemble().n_columns() as u64))
    }

    /// Rebuilds an idle-evicted durable session from its WAL (the lazy
    /// path behind [`Engine::session_push`] / [`Engine::seal_session`]).
    /// Damage quarantines the file and reports [`EngineError::NoSuchSession`]
    /// — to the client the session is gone, but the bytes are preserved
    /// and the incident is counted.
    fn resume_session(&self, id: u64) -> Result<Arc<Mutex<SessionState>>, EngineError> {
        let Some(dir) = self.inner.cfg.wal_dir.as_deref() else {
            return Err(EngineError::NoSuchSession { id });
        };
        let path = wal::wal_path(dir, id);
        let mut sessions = self.inner.sessions.lock().expect("sessions lock");
        // the map is re-checked under the lock: a racing resume may have
        // already won, and its session must not be rebuilt twice
        if let Some(sess) = sessions.get(&id) {
            return Ok(Arc::clone(sess));
        }
        if !path.exists() {
            return Err(EngineError::NoSuchSession { id });
        }
        if sessions.len() >= self.inner.cfg.max_sessions {
            self.inner.stats.overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(EngineError::Overloaded);
        }
        let recovered =
            recover_logs(&self.inner, &[(id, path.clone())]).pop().expect("one result per log");
        adopt_recovered(&self.inner, &mut sessions, id, &path, recovered)
            .ok_or(EngineError::NoSuchSession { id })
    }

    /// Evicts sessions idle past [`EngineConfig::session_idle_ms`]; runs
    /// lazily on every session operation and stats snapshot. Sessions
    /// mid-push are busy, not idle (their lock is held), and are skipped.
    fn sweep_idle_sessions(&self) {
        let idle = Duration::from_millis(self.inner.cfg.session_idle_ms);
        let mut sessions = self.inner.sessions.lock().expect("sessions lock");
        let before = sessions.len();
        sessions.retain(|_, sess| match sess.try_lock() {
            Ok(st) => st.last_touch.elapsed() <= idle,
            Err(_) => true, // busy ⇒ not idle
        });
        let evicted = (before - sessions.len()) as u64;
        if evicted > 0 {
            self.inner.stats.sessions_evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A point-in-time statistics snapshot.
    pub fn stats(&self) -> EngineStats {
        self.sweep_idle_sessions();
        let s = &self.inner.stats;
        let (entries, bytes, evictions, insertions, uncacheable, warm_start_hits) = {
            let c = self.inner.cache.lock().expect("cache lock");
            (
                c.entries() as u64,
                c.bytes() as u64,
                c.evictions,
                c.insertions,
                c.uncacheable,
                c.warm_start_hits,
            )
        };
        let open_sessions = self.inner.sessions.lock().expect("sessions lock").len() as u64;
        EngineStats {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            hits: s.hits.load(Ordering::Relaxed),
            misses: s.misses.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            overloaded: s.overloaded.load(Ordering::Relaxed),
            batched_small: s.batched_small.load(Ordering::Relaxed),
            large_direct: s.large_direct.load(Ordering::Relaxed),
            evictions,
            insertions,
            uncacheable,
            cache_entries: entries,
            cache_bytes: bytes,
            sessions_opened: s.sessions_opened.load(Ordering::Relaxed),
            sessions_sealed: s.sessions_sealed.load(Ordering::Relaxed),
            sessions_evicted: s.sessions_evicted.load(Ordering::Relaxed),
            session_pushes: s.session_pushes.load(Ordering::Relaxed),
            session_rejects: s.session_rejects.load(Ordering::Relaxed),
            open_sessions,
            wal_appends: s.wal_appends.load(Ordering::Relaxed),
            wal_fsyncs: s.wal_fsyncs.load(Ordering::Relaxed),
            recovered_sessions: s.recovered_sessions.load(Ordering::Relaxed),
            quarantined_wals: s.quarantined_wals.load(Ordering::Relaxed),
            recovery_us: s.recovery_us.load(Ordering::Relaxed),
            snapshot_writes: s.snapshot_writes.load(Ordering::Relaxed),
            warm_start_hits,
            wal_faults_injected: s.wal_faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Forces all durable state to disk *now*: WAL records are already
    /// fsynced per-append, so this writes one cache snapshot (when
    /// [`EngineConfig::wal_dir`] is set, independent of the periodic
    /// interval). Graceful shutdown calls this after the last frame is
    /// drained; it is also the deterministic snapshot trigger for tests.
    pub fn flush_durability(&self) {
        write_snapshot_now(&self.inner);
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        {
            let mut stop = self.inner.snap_stop.lock().expect("snapshot stop lock");
            *stop = true;
        }
        self.inner.snap_cv.notify_all();
        if let Some(h) = self.snapshotter.take() {
            let _ = h.join();
        }
    }
}

/// Boot-time recovery (wal_dir set): warm-start the cache from the live
/// snapshot, then rebuild every session whose WAL survives verification —
/// all logs at once on the engine pool, committed in ascending session
/// id. Damaged files — snapshot or WAL — are quarantined and counted; the
/// engine always comes up, at worst cold and with fewer sessions.
fn recover_durable_state(inner: &Inner) {
    let dir = inner.cfg.wal_dir.as_deref().expect("caller checked wal_dir");
    std::fs::create_dir_all(dir).expect("durability directory creation");
    // an inherited snapshot may predate the last clean fsync of this
    // directory; make its rename durable before trusting warm hits to it
    snapshot::fsync_existing(dir);
    match snapshot::load(dir) {
        Ok(None) => {}
        Ok(Some(entries)) => {
            let mut cache = inner.cache.lock().expect("cache lock");
            for (key, verdict) in entries {
                cache.insert_warm(key.into(), &verdict);
            }
        }
        Err(damage) => quarantine_counted(inner, &snapshot::snapshot_path(dir), &damage.reason),
    }
    let logs = wal::scan_dir(dir).expect("durability directory scan");
    let recovered = recover_logs(inner, &logs);
    let mut sessions = inner.sessions.lock().expect("sessions lock");
    let mut max_id = 0u64;
    for ((id, path), rec) in logs.iter().zip(recovered) {
        max_id = max_id.max(*id);
        adopt_recovered(inner, &mut sessions, *id, path, rec);
    }
    // ids never repeat across process generations while a log (or a live
    // recovered session) could still carry the old one
    let seq = inner.session_seq.load(Ordering::Relaxed).max(max_id);
    inner.session_seq.store(seq, Ordering::Relaxed);
}

/// Rebuilds the listed session logs on the engine pool, all at once, and
/// adds the wall time to `recovery_us`. Results come back in input order.
fn recover_logs(
    inner: &Inner,
    logs: &[(u64, PathBuf)],
) -> Vec<Result<wal::Recovered, wal::WalDamage>> {
    use rayon::prelude::*;
    let cfg = c1p_core::Config::default();
    let par_cutoff = inner.cfg.small_cutoff;
    let t0 = Instant::now();
    let recovered = inner.pool.install(|| {
        logs.par_iter().map(|(_, path)| wal::recover_file(path, &cfg, par_cutoff)).collect()
    });
    inner.stats.recovery_us.fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
    recovered
}

/// Commits one recovered log (boot and lazy resume alike): reopens its
/// writer and registers the session, or — when the log names another
/// session or failed recovery — quarantines the file and returns `None`.
fn adopt_recovered(
    inner: &Inner,
    sessions: &mut HashMap<u64, Arc<Mutex<SessionState>>>,
    id: u64,
    path: &Path,
    recovered: Result<wal::Recovered, wal::WalDamage>,
) -> Option<Arc<Mutex<SessionState>>> {
    let rec = match recovered {
        Ok(rec) if rec.session == id => rec,
        Ok(rec) => {
            let reason = format!("header names session {} (expected {id})", rec.session);
            quarantine_counted(inner, path, &reason);
            return None;
        }
        Err(damage) => {
            quarantine_counted(inner, path, &damage.reason);
            return None;
        }
    };
    let writer =
        wal::WalWriter::reopen(path).expect("WAL reopen (durability directory must stay writable)");
    let bytes = session_base_account(rec.solver.n_atoms())
        + rec.solver.ensemble().columns().iter().map(|c| column_account(c)).sum::<usize>();
    let sess = Arc::new(Mutex::new(SessionState {
        inc: rec.solver,
        last_touch: Instant::now(),
        bytes,
        wal: Some(writer),
    }));
    sessions.insert(id, Arc::clone(&sess));
    inner.stats.recovered_sessions.fetch_add(1, Ordering::Relaxed);
    Some(sess)
}

/// Moves a damaged durable file (WAL or snapshot) aside, logs why, and
/// counts it in `quarantined_wals`.
fn quarantine_counted(inner: &Inner, path: &Path, reason: &str) {
    eprintln!("c1p-engine: quarantining {}: {reason}", path.display());
    let _ = wal::quarantine(path);
    inner.stats.quarantined_wals.fetch_add(1, Ordering::Relaxed);
}

/// Writes one cache snapshot if (and only if) a durability directory is
/// configured. Shared by the periodic thread, graceful shutdown, and
/// [`Engine::flush_durability`].
fn write_snapshot_now(inner: &Inner) {
    let Some(dir) = inner.cfg.wal_dir.as_deref() else {
        return;
    };
    let entries = inner.cache.lock().expect("cache lock").snapshot_entries();
    let refs: Vec<(&[u8], &Verdict)> = entries.iter().map(|(k, v)| (&**k, v)).collect();
    snapshot::write(dir, &refs).expect("snapshot write (durability directory must stay writable)");
    inner.stats.snapshot_writes.fetch_add(1, Ordering::Relaxed);
}

/// The periodic snapshot thread: one snapshot per interval,
/// unconditionally, plus a final one at engine drop (so a clean exit
/// never loses warm state). Writing even when nothing changed keeps the
/// counter's meaning simple — after any cache change, two increments of
/// `snapshot_writes` *guarantee* a snapshot containing it is on disk
/// (the crash harness leans on exactly that to sequence its kills).
fn snapshot_loop(inner: &Inner) {
    let interval = Duration::from_millis(inner.cfg.snapshot_interval_ms.max(1));
    loop {
        let stopped = {
            let stop = inner.snap_stop.lock().expect("snapshot stop lock");
            let (stop, _) = inner.snap_cv.wait_timeout(stop, interval).expect("snapshot wait");
            *stop
        };
        write_snapshot_now(inner);
        if stopped {
            return;
        }
    }
}

enum Prep {
    Fail(EngineError),
    Go { uniq_ix: usize, col_of: Vec<u32> },
}

fn solve_batch_on(
    inner: &Inner,
    reqs: &[Ensemble],
    traces: &[Option<Arc<trace::ReqTrace>>],
) -> Vec<Result<Verdict, EngineError>> {
    inner.stats.batches.fetch_add(1, Ordering::Relaxed);
    inner.stats.requests.fetch_add(reqs.len() as u64, Ordering::Relaxed);
    // canonicalize + dedupe (first-occurrence order keeps runs deterministic)
    let mut key_ix: HashMap<Arc<[u8]>, usize> = HashMap::new();
    let mut uniq: Vec<(Arc<[u8]>, Ensemble)> = Vec::new();
    // the first occurrence's recorder follows the solve; within-batch
    // duplicates get a `coalesce` span over the wait instead
    let mut uniq_trace: Vec<Option<Arc<trace::ReqTrace>>> = Vec::new();
    let mut dup_waits: Vec<(Arc<trace::ReqTrace>, u64)> = Vec::new();
    let mut preps: Vec<Prep> = Vec::with_capacity(reqs.len());
    for (req_ix, req) in reqs.iter().enumerate() {
        let trace = traces.get(req_ix).cloned().flatten();
        if req.n_atoms() > inner.cfg.max_atoms {
            preps.push(Prep::Fail(EngineError::TooLarge {
                n_atoms: req.n_atoms(),
                max_atoms: inner.cfg.max_atoms,
            }));
            continue;
        }
        let c = canonical::canonicalize(req);
        let key: Arc<[u8]> = c.key.into();
        let uniq_ix = match key_ix.get(&key) {
            Some(&ix) => {
                // within-batch duplicate: rides the first occurrence's solve
                inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = trace {
                    let start = t.now_us();
                    dup_waits.push((t, start));
                }
                ix
            }
            None => {
                let ix = uniq.len();
                key_ix.insert(Arc::clone(&key), ix);
                uniq.push((key, c.ens));
                uniq_trace.push(trace);
                ix
            }
        };
        preps.push(Prep::Go { uniq_ix, col_of: c.col_of });
    }
    // solve the unique canonical instances on the shared pool
    let solved: Vec<Result<Verdict, EngineError>> = inner.pool.install(|| {
        use rayon::prelude::*;
        let cutoff = inner.cfg.small_cutoff;
        let mut out: Vec<Option<Result<Verdict, EngineError>>> = vec![None; uniq.len()];
        let small: Vec<usize> =
            (0..uniq.len()).filter(|&i| uniq[i].1.n_atoms() <= cutoff).collect();
        if !small.is_empty() {
            inner.stats.batched_small.fetch_add(small.len() as u64, Ordering::Relaxed);
            let fanned: Vec<(usize, Result<Verdict, EngineError>)> = small
                .par_iter()
                .map(|&i| {
                    (i, solve_canonical(inner, &uniq[i].0, &uniq[i].1, uniq_trace[i].as_deref()))
                })
                .collect();
            for (i, r) in fanned {
                out[i] = Some(r);
            }
        }
        for (i, (key, ens)) in uniq.iter().enumerate() {
            if ens.n_atoms() > cutoff {
                inner.stats.large_direct.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(solve_canonical(inner, key, ens, uniq_trace[i].as_deref()));
            }
        }
        out.into_iter().map(|o| o.expect("every unique instance solved")).collect()
    });
    // duplicates waited exactly as long as the pool took to settle them
    for (t, start) in dup_waits {
        t.record("coalesce", start);
    }
    // remap canonical verdicts into each request's column coordinates
    preps
        .into_iter()
        .map(|p| match p {
            Prep::Fail(e) => Err(e),
            Prep::Go { uniq_ix, col_of } => {
                solved[uniq_ix].clone().map(|v| canonical::remap(v, &col_of))
            }
        })
        .collect()
}

/// Removes the pending entry and — if the owner never filled it (panic
/// unwinding through the solve) — poisons waiters with `ShuttingDown`
/// instead of leaving them blocked forever.
struct OwnerGuard<'a> {
    inner: &'a Inner,
    key: &'a Arc<[u8]>,
    flight: &'a InFlight,
}

impl Drop for OwnerGuard<'_> {
    fn drop(&mut self) {
        self.flight.fill(Err(EngineError::ShuttingDown)); // no-op if already filled
        self.inner.pending.lock().expect("pending lock").remove(self.key);
    }
}

/// Cache → coalesce → compute, for one canonical instance. Runs inside the
/// engine pool. A sampled request's recorder sees `cache` (the lookup),
/// then either `coalesce` (joined another request's in-flight solve) or
/// `solve` with the per-phase breakdown as `solve/<phase>` children.
fn solve_canonical(
    inner: &Inner,
    key: &Arc<[u8]>,
    canon: &Ensemble,
    trace: Option<&trace::ReqTrace>,
) -> Result<Verdict, EngineError> {
    let cache_at = trace.map(|t| t.now_us());
    let cached = inner.cache.lock().expect("cache lock").get(key);
    if let (Some(t), Some(at)) = (trace, cache_at) {
        t.record("cache", at);
    }
    if let Some(v) = cached {
        inner.stats.hits.fetch_add(1, Ordering::Relaxed);
        return Ok(v);
    }
    enum Role {
        Owner(Arc<InFlight>),
        Waiter(Arc<InFlight>),
    }
    let role = {
        let mut pending = inner.pending.lock().expect("pending lock");
        match pending.get(key) {
            Some(fl) => Role::Waiter(Arc::clone(fl)),
            None => {
                let fl = Arc::new(InFlight::default());
                pending.insert(Arc::clone(key), Arc::clone(&fl));
                Role::Owner(fl)
            }
        }
    };
    match role {
        Role::Waiter(fl) => {
            inner.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            let wait_at = trace.map(|t| t.now_us());
            let r = fl.wait();
            if let (Some(t), Some(at)) = (trace, wait_at) {
                t.record("coalesce", at);
            }
            r
        }
        Role::Owner(fl) => {
            inner.stats.misses.fetch_add(1, Ordering::Relaxed);
            let guard = OwnerGuard { inner, key, flight: &fl };
            let solve_at = trace.map(|t| t.now_us());
            let (verdict, stats) = compute(canon, &inner.cfg);
            if let (Some(t), Some(start)) = (trace, solve_at) {
                let end = t.now_us();
                t.record_span("solve", start, end);
                // lay the phase breakdown end-to-end inside the solve
                // span; on the parallel path summed CPU time can exceed
                // the wall interval and is truncated at the solve end
                let mut cursor = start;
                for (ix, name) in trace::SOLVE_PHASE_SPANS.iter().enumerate() {
                    let next = (cursor + stats.phase_ns[ix] / 1_000).min(end);
                    t.record_span(name, cursor, next);
                    cursor = next;
                }
            }
            inner.cache.lock().expect("cache lock").insert(Arc::clone(key), &verdict);
            fl.fill(Ok(verdict.clone()));
            drop(guard); // unpends; waiters already satisfied
            Ok(verdict)
        }
    }
}

/// The actual solve, in canonical column space. Small instances run the
/// sequential certified solver; large ones the forking solver path (we
/// are already `install`ed on the engine pool). Returns the run's
/// counters alongside the verdict for phase attribution.
fn compute(canon: &Ensemble, cfg: &EngineConfig) -> (Verdict, SolveStats) {
    let (res, stats) = if canon.n_atoms() <= cfg.small_cutoff {
        c1p_cert::solve_certified_with(canon)
    } else {
        c1p_cert::solve_par_certified_with(canon)
    };
    let verdict = match res {
        Ok(order) => Verdict::C1p { order },
        Err(c) => Verdict::NotC1p { rejection: c.rejection, witness: c.witness },
    };
    (verdict, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::io::fig2_matrix;

    #[test]
    fn oversized_instances_rejected_everywhere() {
        let engine =
            Engine::new(EngineConfig { threads: 1, max_atoms: 4, ..EngineConfig::default() });
        let ens = fig2_matrix(); // 8 atoms
        let expect = EngineError::TooLarge { n_atoms: 8, max_atoms: 4 };
        assert_eq!(engine.solve(&ens).unwrap_err(), expect);
    }

    #[test]
    fn sessions_push_seal_and_feed_the_cache() {
        let engine = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
        let ens = fig2_matrix();
        let id = engine.open_session(ens.n_atoms()).unwrap();
        let verdict = engine.session_push(id, &ens).unwrap();
        assert!(verdict.is_c1p());
        let sealed = engine.seal_session(id).unwrap();
        assert_eq!(verdict, sealed);
        // the session contract: sealed == one-shot on the accepted stream
        assert_eq!(sealed, Verdict::C1p { order: c1p_cert::solve_certified(&ens).unwrap() });
        assert_eq!(
            engine.seal_session(id).unwrap_err(),
            EngineError::NoSuchSession { id },
            "sealing closes the session"
        );
        // seal fed the cache with the *canonical* solve: a later solve of
        // the same ensemble hits, and stays byte-identical to what a cold
        // engine would answer (the §8 hot == cold invariant)
        let solved = engine.solve(&ens).unwrap();
        let cold = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() })
            .solve(&ens)
            .unwrap();
        assert_eq!(solved, cold, "session-seeded hit == cold solve, byte for byte");
        let stats = engine.stats();
        // the seal-time canonical solve is the one miss; the later solve
        // of the same ensemble is a pure hit
        assert_eq!((stats.hits, stats.misses), (1, 1), "seal fed the cache");
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_sealed, 1);
        assert_eq!(stats.session_pushes, 1);
        assert_eq!(stats.open_sessions, 0);
    }

    #[test]
    fn session_admission_and_mismatch_paths() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            max_sessions: 1,
            max_atoms: 16,
            max_session_columns: 2,
            ..EngineConfig::default()
        });
        assert_eq!(
            engine.open_session(17).unwrap_err(),
            EngineError::TooLarge { n_atoms: 17, max_atoms: 16 }
        );
        let id = engine.open_session(8).unwrap();
        assert_eq!(engine.open_session(8).unwrap_err(), EngineError::Overloaded);
        assert_eq!(
            engine.session_push(id, &Ensemble::new(9)).unwrap_err(),
            EngineError::SessionMismatch { session_atoms: 8, push_atoms: 9 }
        );
        assert_eq!(
            engine.session_push(id, &fig2_matrix()).unwrap_err(),
            EngineError::SessionFull { columns: 7, max_columns: 2 },
        );
        assert_eq!(
            engine.session_push(77, &Ensemble::new(8)).unwrap_err(),
            EngineError::NoSuchSession { id: 77 }
        );
    }

    #[test]
    fn session_byte_budget_bounds_opens_and_pushes() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            max_session_bytes: 200,
            ..EngineConfig::default()
        });
        // base account of a 100-atom session alone busts a 200-byte budget
        assert!(matches!(
            engine.open_session(100).unwrap_err(),
            EngineError::SessionOverBudget { bytes: 800, max_bytes: 200 }
        ));
        // a small session admits, then a push over the remaining budget is
        // refused — and the refusal leaves the session serving
        let id = engine.open_session(8).unwrap(); // base 64 bytes
        let fat = fig2_matrix(); // 7 columns ≥ 24 bytes each
        assert!(matches!(
            engine.session_push(id, &fat).unwrap_err(),
            EngineError::SessionOverBudget { .. }
        ));
        let small = Ensemble::from_columns(8, vec![vec![0, 1]]).unwrap(); // 32 bytes
        assert!(engine.session_push(id, &small).unwrap().is_c1p());
        assert!(engine.seal_session(id).unwrap().is_c1p());
    }

    #[test]
    fn idle_sessions_are_evicted_and_rejects_roll_back() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            session_idle_ms: 30,
            ..EngineConfig::default()
        });
        let id = engine.open_session(3).unwrap();
        // M_I(1): the 3-cycle rejects; the session survives at the
        // accepted (empty) state
        let delta = Ensemble::from_columns(3, vec![vec![0, 1], vec![1, 2], vec![0, 2]]).unwrap();
        let v = engine.session_push(id, &delta).unwrap();
        assert!(!v.is_c1p());
        let ok = engine.session_push(id, &Ensemble::new(3)).unwrap();
        assert_eq!(ok, Verdict::C1p { order: vec![0, 1, 2] }, "rolled back to empty");
        assert_eq!(engine.stats().session_rejects, 1);
        // idle out
        std::thread::sleep(std::time::Duration::from_millis(80));
        assert_eq!(
            engine.session_push(id, &Ensemble::new(3)).unwrap_err(),
            EngineError::NoSuchSession { id }
        );
        let stats = engine.stats();
        assert_eq!(stats.sessions_evicted, 1);
        assert_eq!(stats.open_sessions, 0);
    }

    #[test]
    fn batch_mixes_failures_and_verdicts_positionally() {
        let engine =
            Engine::new(EngineConfig { threads: 1, max_atoms: 10, ..EngineConfig::default() });
        let small = fig2_matrix();
        let big = Ensemble::new(11);
        let results = engine.solve_batch(&[small.clone(), big, small]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EngineError::TooLarge { .. })));
        assert_eq!(results[0], results[2]);
        // the duplicate deduped: one miss, and the duplicate resolved
        // inside the same batch without a second solve
        let stats = engine.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits + stats.coalesced, 1);
    }
}

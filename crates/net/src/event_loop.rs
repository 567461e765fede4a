//! The event-driven sharded server: one readiness thread multiplexing
//! every socket over `poll(2)`, N supervised shard workers each owning
//! an engine.
//!
//! ```text
//!            poll(2)                       mpsc per shard
//!  sockets ──────────► event-loop thread ─────────────────► shard worker 0..N
//!     ▲                    │    ▲                                │
//!     │   outbox flush     │    │  events + wake pipe            │ Engine
//!     └────────────────────┘    └────────────────────────────────┘
//! ```
//!
//! **Sharding.** Each worker owns an [`Engine`] whose LRU covers a
//! consistent-hash slice of canonical keys: solves route by
//! [`route_hash`]/[`pick_shard`] (invariant under column permutation —
//! the same quotient the cache key takes), so one instance always lands
//! on the same shard and shards never contend on a cache lock. Sessions
//! pin to the shard that opened them; the public handle encodes the
//! shard (`public = local·shards + shard`, locals start at 1, so public
//! handles are collision-free and `handle % shards` recovers the owner).
//! With `--wal-dir`, a lone shard logs in the directory itself and N > 1
//! shards log under `<dir>/shard-i`; [`check_wal_layout`] refuses a
//! directory laid out for another shard count.
//!
//! **Ordering.** The protocol promises one response per request, in
//! request order, per connection. Shards complete out of order, so every
//! accepted frame gets a per-connection sequence number and replies are
//! released strictly in sequence; early completions park in a BTreeMap.
//!
//! **Back-pressure.** Responses queue in a bounded per-connection
//! [`Outbox`]; write interest is registered only while it is nonempty. A
//! reader that lets the outbox cross `--outbox-kb` is disconnected with
//! one best-effort `Overloaded` ("slow reader") frame. A peer that
//! stalls mid-frame past `--read-timeout-ms` gets an exact `Timeout`
//! error frame, then the connection closes; idle connections *between*
//! frames cost one pollfd and nothing else. Admission: over `max_conns`
//! connections are refused with `Overloaded`, frames over the byte cap
//! answer `TooLarge` and close, and solves beyond
//! [`EventLoopOpts::max_queue`] requests in flight answer `Overloaded`
//! without ever reaching a shard (counted with the engines' own
//! refusals in `GetStats` and `c1pd_overloaded_total`).
//!
//! **Supervision** (DESIGN.md §12). A shard worker that panics — an
//! injected chaos kill, an injected WAL fault, or a real bug — does not
//! take the server down. The worker runs under `catch_unwind` and its
//! last act is posting `WorkerDown`; the event loop then (1) answers
//! every request in flight on that shard with an exact `Unavailable`
//! error — a request is *never* silently dropped — and (2) respawns the
//! worker, which rebuilds its engine from its WAL directory off the
//! event thread: the same boot-time recovery a process restart runs,
//! exercised within one process lifetime. Sessions whose last accepted
//! push was fsynced recover exactly; the in-memory state the panic tore
//! dies with the old engine. A shard whose replacements die three times
//! in a row without completing a single job is marked permanently
//! degraded and answers `Unavailable` thereafter. The global in-flight
//! map doubles as a request-deadline reaper: with a deadline configured,
//! a request whose reply was lost (a dropped chaos reply, a worker death
//! race) is answered `Unavailable` when its budget expires, and the late
//! completion — if it ever arrives — is dropped by map absence, so a
//! reply is sent exactly once.
//!
//! **Fault injection.** When [`EventLoopOpts::fault`] is armed, every
//! connection's reads and writes go through [`FaultyIo`] and each worker
//! consults the plan's kill/reply schedules — see [`crate::fault`]. An
//! empty plan costs one branch per I/O pass.
//!
//! **Shutdown.** When `stop` flips: stop accepting, let mid-frame
//! connections finish the frame they started, answer everything already
//! dispatched, flush outboxes, then `flush_durability` on every shard —
//! all bounded by `drain`.

use crate::conn::{FrameReader, Outbox, PullError};
use crate::fault::{FaultPlan, FaultyIo, ReplyFault};
use crate::metrics::Metrics;
use crate::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::trace::{Finishing, TraceBuilder, TraceConfig, Tracer};
use crate::{engine_error, open_reply, pick_shard, route_hash, session_reply};
use c1p_engine::proto::{decode_msg, encode_msg, ErrorCode, Msg, ShardHealth};
use c1p_engine::trace::ReqTrace;
use c1p_engine::{Engine, EngineConfig, EngineError, EngineStats};
use c1p_matrix::Ensemble;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Consecutive zero-job worker deaths before a shard is given up on.
const MAX_ZERO_JOB_DEATHS: u32 = 3;

/// Server configuration (the `c1pd` flag surface).
#[derive(Debug, Clone)]
pub struct EventLoopOpts {
    /// Shard (engine) count; each shard is one worker thread + engine.
    pub shards: usize,
    /// Connection cap; excess connections get one `Overloaded` frame.
    pub max_conns: usize,
    /// Frame byte cap; over-cap frames get one `TooLarge` frame, then
    /// the connection closes.
    pub max_frame: usize,
    /// Mid-frame stall budget (`--read-timeout-ms`): a connection whose
    /// partial frame makes no progress for this long gets one `Timeout`
    /// error frame and is closed. `None` disables the reaper. Idle
    /// connections *between* frames are never timed out.
    pub read_timeout: Option<Duration>,
    /// Per-connection outbox byte cap (`--outbox-kb`): a reader that
    /// falls this far behind gets one `Overloaded` ("slow reader")
    /// frame and is disconnected.
    pub outbox_limit: usize,
    /// Admission control (`--max-queue`): a solve arriving while this
    /// many requests are in flight across all shards is answered
    /// `Overloaded` without reaching a shard.
    pub max_queue: usize,
    /// Most jobs a shard worker drains from its mailbox into one engine
    /// batch (`--max-batch`).
    pub max_batch: usize,
    /// Request tracing policy (`--trace-sample`/`--slow-ms`/
    /// `--trace-seed`/`--trace-ring`); `sample_every == 0` disables.
    pub trace: TraceConfig,
    /// Per-shard engine configuration. `wal_dir` is the base directory:
    /// one shard logs in it directly, N > 1 shards under
    /// `<wal_dir>/shard-i`.
    pub engine_cfg: EngineConfig,
    /// Graceful-shutdown budget: drain connections, then flush.
    pub drain: Duration,
    /// Chaos schedule for socket/mailbox faults and worker kills
    /// (WAL-append faults ride in `engine_cfg.wal_faults`). The empty
    /// plan — the default — injects nothing and costs one branch.
    pub fault: Arc<FaultPlan>,
    /// Server-side request deadline: a dispatched request still
    /// unanswered after this long is answered `Unavailable` by the
    /// reaper (its late reply, if any, is dropped). `None` disables the
    /// reaper; chaos plans that drop replies need it, or the dropped
    /// request would hang its connection slot forever.
    pub request_deadline: Option<Duration>,
}

impl Default for EventLoopOpts {
    fn default() -> EventLoopOpts {
        EventLoopOpts {
            shards: 1,
            max_conns: 64,
            max_frame: c1p_engine::proto::DEFAULT_MAX_FRAME,
            read_timeout: Some(Duration::from_millis(250)),
            outbox_limit: 8 << 20,
            max_queue: 4096,
            max_batch: 64,
            trace: TraceConfig::default(),
            engine_cfg: EngineConfig::default(),
            drain: Duration::from_secs(30),
            fault: Arc::new(FaultPlan::none()),
            request_deadline: None,
        }
    }
}

/// A sampled request's span recorder riding along with its [`Job`]: the
/// shared [`ReqTrace`] plus the enqueue offset (the `queue` span start).
type JobTrace = Option<(Arc<ReqTrace>, u64)>;

/// One unit of work for a shard worker.
enum Job {
    Solve { conn: u64, seq: u64, id: u64, ens: Ensemble, trace: JobTrace },
    Open { conn: u64, seq: u64, id: u64, n_atoms: u64, trace: JobTrace },
    Session { conn: u64, seq: u64, msg: Msg, local: u64, public: u64, trace: JobTrace },
}

impl Job {
    fn trace(&self) -> &JobTrace {
        match self {
            Job::Solve { trace, .. } | Job::Open { trace, .. } | Job::Session { trace, .. } => {
                trace
            }
        }
    }
}

/// A finished job on its way back to the event loop.
struct Completion {
    conn: u64,
    seq: u64,
    reply: Msg,
}

/// Everything a worker can tell the event loop (posted under one mutex,
/// drained each iteration; the wake pipe signals "look now").
enum Event {
    /// A job finished; `reply` releases when its sequence is next.
    Done(Completion),
    /// A respawned worker finished rebuilding its engine — swap it in.
    WorkerUp { shard: usize, engine: Arc<Engine> },
    /// A worker panicked. `jobs_done` = jobs it completed since spawn
    /// (0 ⇒ it died before doing anything — the degradation signal).
    WorkerDown { shard: usize, jobs_done: u64 },
}

/// Pushes one event, riding over a poisoned lock: supervision must keep
/// working precisely when other threads are panicking.
fn push_event(events: &Mutex<Vec<Event>>, ev: Event) {
    match events.lock() {
        Ok(mut q) => q.push(ev),
        Err(poisoned) => poisoned.into_inner().push(ev),
    }
}

/// Drains all queued events (same poison tolerance).
fn take_events(events: &Mutex<Vec<Event>>) -> Vec<Event> {
    match events.lock() {
        Ok(mut q) => std::mem::take(&mut *q),
        Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
    }
}

/// Rings the wake pipe. One byte must actually land, so `Interrupted`
/// retries; `WouldBlock` means the pipe already holds pending wakeups
/// and the event loop will drain it regardless — safe to drop.
fn ring(wake: &UnixStream) {
    loop {
        match (&*wake).write(&[1u8]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            _ => return,
        }
    }
}

/// The event-loop's supervision handle on one shard.
struct ShardCtl {
    /// Job channel to the live worker; `None` while degraded.
    tx: Option<mpsc::Sender<Job>>,
    /// `false` between a worker's death and its replacement's
    /// `WorkerUp` (the replacement is rebuilding its engine).
    up: bool,
    /// Permanently down: respawns kept dying before completing a job.
    degraded: bool,
    /// Consecutive deaths with `jobs_done == 0`.
    zero_job_deaths: u32,
}

/// One dispatched request awaiting its shard reply, keyed globally by
/// `(conn, seq)`. Single-settlement: whoever removes the entry —
/// completion, worker-death sweep, or deadline reaper — owns sending
/// the one reply and balancing the queue gauges; a late completion
/// finding no entry is dropped.
struct Pending {
    shard: usize,
    /// Request id, echoed in an `Unavailable` frame if one is needed.
    id: u64,
    t0: Instant,
    /// Trace context when the request is sampled; settles with the
    /// reply, whichever path sends it.
    trace: Option<TraceBuilder>,
}

/// Per-connection event-loop state.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    outbox: Outbox,
    /// Next sequence number to assign to an accepted frame.
    next_seq: u64,
    /// Sequence whose reply is released next.
    next_send: u64,
    /// Replies completed ahead of `next_send`, with the trace context
    /// that finishes once the reply's bytes leave the socket.
    parked: BTreeMap<u64, (Msg, Option<Finishing>)>,
    /// One entry per frame pushed onto the outbox, in order: the flush
    /// pass pops as many entries as frames it flushed and finishes the
    /// `Some` ones. Dropped (traces lost) when the connection dies with
    /// frames still queued — a dead peer never reads them anyway.
    finishing: VecDeque<Option<Finishing>>,
    /// Frames dispatched to shards and not yet completed.
    inflight: usize,
    /// No more reads: EOF, poisoned stream, or a policy close.
    read_closed: bool,
    /// Close once the outbox, parked map and inflight count drain.
    closing: bool,
    /// Immediate close: write this best-effort farewell frame (possibly
    /// empty) directly and drop the connection without waiting for the
    /// outbox — the slow-reader and poisoned-stream path.
    kill: Option<Vec<u8>>,
}

impl Conn {
    fn new(stream: TcpStream, max_frame: usize) -> Conn {
        Conn {
            stream,
            reader: FrameReader::new(max_frame),
            outbox: Outbox::default(),
            next_seq: 0,
            next_send: 0,
            parked: BTreeMap::new(),
            finishing: VecDeque::new(),
            inflight: 0,
            read_closed: false,
            closing: false,
            kill: None,
        }
    }

    fn idle(&self) -> bool {
        self.inflight == 0 && self.parked.is_empty() && self.outbox.is_empty()
    }
}

/// Runs the event-loop server on `listener` until `stop` flips. Returns
/// the per-shard engines (stats drained, durability flushed) so callers
/// — tests, benches — can inspect them.
///
/// `metrics` is shared so the caller can watch the registry live; pass a
/// fresh one otherwise. A WAL directory is used as found: run
/// [`check_wal_layout`] first to refuse one laid out for another shard
/// count.
pub fn serve(
    listener: TcpListener,
    opts: &EventLoopOpts,
    stop: &AtomicBool,
    metrics: &Arc<Metrics>,
) -> io::Result<Vec<Arc<Engine>>> {
    assert!(opts.shards >= 1, "at least one shard");
    assert_eq!(metrics.shards.len(), opts.shards, "metrics registry sized for the shard count");
    let tracer = Tracer::new(opts.trace, opts.shards);
    listener.set_nonblocking(true)?;
    let cfgs: Vec<EngineConfig> =
        (0..opts.shards).map(|i| shard_cfg(&opts.engine_cfg, i, opts.shards)).collect();
    // every shard directory exists before any shard recovers, so a crash
    // mid-boot cannot leave a partial layout that the next boot refuses
    for dir in cfgs.iter().filter_map(|c| c.wal_dir.as_ref()) {
        std::fs::create_dir_all(dir)?;
    }
    let engines: Vec<Arc<Engine>> = cfgs.into_iter().map(|c| Arc::new(Engine::new(c))).collect();
    let events: Mutex<Vec<Event>> = Mutex::new(Vec::new());
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;

    let max_batch = opts.max_batch.max(1);
    // clone the wake pipe up front so every worker is guaranteed to spawn
    // (a failure mid-spawn would leave senders alive and the scope stuck)
    let wakes: Vec<UnixStream> =
        (0..opts.shards).map(|_| wake_tx.try_clone()).collect::<io::Result<_>>()?;
    let engines = std::thread::scope(|scope| {
        let mut ctls: Vec<ShardCtl> = Vec::with_capacity(opts.shards);
        for (shard, wake) in wakes.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel();
            spawn_worker(
                scope,
                shard,
                rx,
                Some(Arc::clone(&engines[shard])),
                shard_cfg(&opts.engine_cfg, shard, opts.shards),
                WorkerEnv {
                    events: &events,
                    wake,
                    plan: Arc::clone(&opts.fault),
                    metrics: Arc::clone(metrics),
                    shards: opts.shards,
                    max_batch,
                },
            );
            ctls.push(ShardCtl { tx: Some(tx), up: true, degraded: false, zero_job_deaths: 0 });
        }
        // dropping the ctls (done inside event_loop when it returns)
        // ends the workers; the scope joins them before we flush below
        event_loop(
            scope, &listener, opts, stop, metrics, &tracer, engines, ctls, &wake_tx, wake_rx,
            &events,
        )
    })?;
    for e in &engines {
        e.flush_durability();
    }
    Ok(engines)
}

/// The shard-`i` engine configuration: same knobs; a lone shard logs in
/// `wal_dir` itself, N > 1 shards each under `<wal_dir>/shard-i`.
fn shard_cfg(base: &EngineConfig, shard: usize, shards: usize) -> EngineConfig {
    let mut cfg = base.clone();
    if shards > 1 {
        cfg.wal_dir = base.wal_dir.as_ref().map(|d| d.join(format!("shard-{shard}")));
    }
    cfg
}

/// Refuses a WAL directory laid out for another shard count. Every shard
/// engine creates its directory at boot, so the layout records the count
/// it was written with: session logs at the top level for one shard,
/// exactly `shard-0` … `shard-(N-1)` for N > 1. Booting on another count
/// would leave the sessions logged there unreachable (public session
/// handles encode the shard count), so the error names the entry that
/// shows the mismatch. A missing or fresh directory passes.
pub fn check_wal_layout(dir: &Path, shards: usize) -> io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        r => r?,
    };
    let refuse = |path: PathBuf, why: String| {
        let msg = format!("{} {why}, but --shards is {shards}", path.display());
        Err(io::Error::new(io::ErrorKind::InvalidInput, msg))
    };
    let mut shard_dirs = Vec::new();
    for entry in entries {
        let name = entry?.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") {
            if shards == 1 {
                return refuse(dir.join(name), "belongs to a sharded layout".into());
            }
            shard_dirs.push(name);
        } else if shards > 1 && name.starts_with("session-") && name.ends_with(".wal") {
            return refuse(dir.join(name), "is a 1-shard session log".into());
        }
    }
    if shard_dirs.is_empty() {
        return Ok(());
    }
    let expected: Vec<String> = (0..shards).map(|i| format!("shard-{i}")).collect();
    if let Some(extra) = shard_dirs.iter().find(|d| !expected.contains(d)) {
        return refuse(dir.join(extra), "is outside the shard range".into());
    }
    match expected.into_iter().find(|d| !shard_dirs.contains(d)) {
        Some(missing) => refuse(
            dir.join(missing),
            format!("is missing from a {}-shard layout", shard_dirs.len()),
        ),
        None => Ok(()),
    }
}

/// Everything a worker thread owns besides its job channel and engine.
struct WorkerEnv<'scope> {
    events: &'scope Mutex<Vec<Event>>,
    wake: UnixStream,
    plan: Arc<FaultPlan>,
    metrics: Arc<Metrics>,
    shards: usize,
    max_batch: usize,
}

/// Spawns one supervised shard worker. `engine: None` means "rebuild
/// from the WAL first" — the respawn path: recovery runs on the worker
/// thread, never the event thread, and announces itself with `WorkerUp`.
/// Any panic — injected kill, injected WAL fault, engine bug, even a
/// panic inside `Engine::new` recovery — is caught and reported as
/// `WorkerDown` with the number of jobs this incarnation completed.
fn spawn_worker<'scope>(
    scope: &'scope Scope<'scope, '_>,
    shard: usize,
    rx: mpsc::Receiver<Job>,
    engine: Option<Arc<Engine>>,
    cfg: EngineConfig,
    env: WorkerEnv<'scope>,
) {
    scope.spawn(move || {
        let mut jobs_done = 0u64;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let engine = match engine {
                Some(e) => e,
                None => {
                    let e = Arc::new(Engine::new(cfg));
                    push_event(env.events, Event::WorkerUp { shard, engine: Arc::clone(&e) });
                    ring(&env.wake);
                    e
                }
            };
            worker_loop(shard, &rx, &engine, &env, &mut jobs_done)
        }));
        if result.is_err() {
            // the receiver died with the loop: in-flight and queued jobs
            // are lost, and the event loop answers for them
            push_event(env.events, Event::WorkerDown { shard, jobs_done });
            ring(&env.wake);
        }
    });
}

/// A shard worker: drain the queue in batches, funnel solves through
/// `solve_batch` so the engine's batching/coalescing still amortizes,
/// run open/push/seal in arrival order, post completions, ring the wake
/// pipe. Consults the fault plan's kill and reply schedules; panics from
/// the engine (injected WAL faults) propagate to the supervisor.
fn worker_loop(
    shard: usize,
    rx: &mpsc::Receiver<Job>,
    engine: &Arc<Engine>,
    env: &WorkerEnv<'_>,
    jobs_done: &mut u64,
) {
    let chaos = !env.plan.is_empty();
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        };
        if chaos && env.plan.kill_now() {
            env.metrics.faults_injected_total.inc();
            panic!("chaos: injected shard worker kill (shard {shard})");
        }
        let mut batch = vec![first];
        while batch.len() < env.max_batch {
            match rx.try_recv() {
                Ok(job) => batch.push(job),
                Err(_) => break,
            }
        }
        // queue spans end at dequeue; the mailbox span runs from there to
        // the moment the job actually executes (batch solve start for
        // solves, in-order execution for opens and session ops)
        let mailbox_at: Vec<Option<u64>> = batch
            .iter()
            .map(|j| {
                j.trace().as_ref().map(|(t, enq)| {
                    t.record("queue", *enq);
                    t.now_us()
                })
            })
            .collect();
        // each solve moves its ensemble into the engine batch, leaving
        // an empty one behind in the job, which only its reply needs now
        let mut solves: Vec<Ensemble> = Vec::new();
        let mut solve_traces: Vec<Option<Arc<ReqTrace>>> = Vec::new();
        for (j, mb) in batch.iter_mut().zip(&mailbox_at) {
            if let Job::Solve { ens, trace, .. } = j {
                solves.push(std::mem::replace(ens, Ensemble::new(0)));
                solve_traces.push(trace.as_ref().map(|(t, _)| {
                    t.record("mailbox", mb.expect("traced job has a mailbox mark"));
                    Arc::clone(t)
                }));
            }
        }
        let mut verdicts = if solves.is_empty() {
            Vec::new()
        } else {
            engine.solve_batch_traced(&solves, &solve_traces)
        }
        .into_iter();
        let mut done: Vec<Completion> = Vec::with_capacity(batch.len());
        for (job, mb) in batch.into_iter().zip(mailbox_at) {
            let completion = match job {
                Job::Solve { conn, seq, id, .. } => {
                    let reply = match verdicts.next().expect("one verdict per solve") {
                        Ok(verdict) => Msg::Verdict { id, verdict: verdict.to_wire() },
                        Err(e) => engine_error(id, e),
                    };
                    Completion { conn, seq, reply }
                }
                Job::Open { conn, seq, id, n_atoms, trace } => {
                    if let Some((t, _)) = &trace {
                        t.record("mailbox", mb.expect("traced job has a mailbox mark"));
                    }
                    let reply = match engine.open_session(n_atoms as usize) {
                        // locals start at 1, so publics are nonzero and
                        // collision-free across shards
                        Ok(local) => open_reply(id, local * env.shards as u64 + shard as u64),
                        Err(e) => engine_error(id, e),
                    };
                    Completion { conn, seq, reply }
                }
                Job::Session { conn, seq, msg, local, public, trace } => {
                    let t = trace.as_ref().map(|(t, _)| {
                        t.record("mailbox", mb.expect("traced job has a mailbox mark"));
                        &**t
                    });
                    let reply = session_reply(engine, &msg, local, public, t);
                    Completion { conn, seq, reply }
                }
            };
            *jobs_done += 1;
            done.push(completion);
        }
        // mailbox faults: a dropped reply is simply never posted (the
        // deadline reaper answers for it); a delayed one holds this batch
        let posted = if chaos {
            done.into_iter()
                .filter_map(|c| match env.plan.reply_fault() {
                    None => Some(c),
                    Some(ReplyFault::Delay(d)) => {
                        env.metrics.faults_injected_total.inc();
                        std::thread::sleep(d);
                        Some(c)
                    }
                    Some(ReplyFault::Drop) => {
                        env.metrics.faults_injected_total.inc();
                        None
                    }
                })
                .collect()
        } else {
            done
        };
        for c in posted {
            push_event(env.events, Event::Done(c));
        }
        ring(&env.wake);
    }
}

/// Encodes one message as a ready-to-write frame.
fn frame_of(msg: &Msg) -> Vec<u8> {
    let payload = encode_msg(msg);
    let mut frame = Vec::with_capacity(payload.len() + 4);
    c1p_engine::proto::write_frame(&mut frame, &payload).expect("vec write cannot fail");
    frame
}

/// The exact error frame for a request whose shard cannot answer.
fn unavailable(id: u64, shard: usize, why: &str) -> Msg {
    Msg::Error {
        id,
        code: ErrorCode::Unavailable,
        message: format!("shard {shard} {why}; safe to retry"),
    }
}

/// Best-effort `Overloaded` frame to a refused connection (the accepted
/// socket is still blocking — the write is tiny).
fn refuse(stream: TcpStream) {
    let mut w = io::BufWriter::new(stream);
    let msg = Msg::Error {
        id: 0,
        code: ErrorCode::Overloaded,
        message: "connection limit reached".into(),
    };
    let _ = w.write_all(&frame_of(&msg));
    let _ = w.flush();
}

/// Best-effort full write of a farewell frame to a (nonblocking) socket:
/// short writes continue where they left off and `Interrupted` retries,
/// so a farewell is never truncated by transient conditions; a hard
/// error or `WouldBlock` abandons it — the peer is leaving anyway.
/// (A bare `write()` here once sent partial frames under signal load.)
fn write_farewell(stream: &mut impl Write, frame: &[u8]) {
    let mut off = 0;
    while off < frame.len() {
        match stream.write(&frame[off..]) {
            Ok(0) => return,
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Queues `reply` for `seq`, releasing every reply that is now in order,
/// and applies the outbox cap (the slow-reader disconnect). A sampled
/// request's trace parks with its reply; when the reply is released onto
/// the outbox its `flush` span starts and a [`Finishing`] queues up for
/// the flush pass to settle once the bytes actually leave the socket.
fn deliver(
    conn: &mut Conn,
    seq: u64,
    reply: Msg,
    t0: Instant,
    trace: Option<TraceBuilder>,
    metrics: &Metrics,
    outbox_limit: usize,
) {
    let latency_us = t0.elapsed().as_micros().min(u64::MAX as u128) as u64;
    metrics.frame_latency_us.observe_us(latency_us);
    let fin = trace.map(|b| {
        let error = matches!(reply, Msg::Error { .. });
        Finishing { b, latency_us, error, flush_start_us: 0 }
    });
    conn.parked.insert(seq, (reply, fin));
    while let Some((msg, mut fin)) = conn.parked.remove(&conn.next_send) {
        let frame = frame_of(&msg);
        metrics.outbox_bytes.add(frame.len() as i64);
        conn.outbox.push_frame(&frame);
        if let Some(f) = fin.as_mut() {
            f.flush_start_us = f.b.req.now_us();
        }
        conn.finishing.push_back(fin);
        conn.next_send += 1;
    }
    if conn.outbox.len() > outbox_limit && conn.kill.is_none() {
        // the peer stopped draining its socket: there is no way to flush
        // the backlog, so drop it, say why (best effort), and close
        metrics.slow_reader_disconnects_total.inc();
        conn.read_closed = true;
        conn.kill = Some(frame_of(&Msg::Error {
            id: 0,
            code: ErrorCode::Overloaded,
            message: format!("outbox exceeded {outbox_limit} bytes: slow reader disconnected"),
        }));
    }
}

/// Hands `job` to its shard if the shard can take it, recording the
/// request in the global in-flight map; a degraded or mid-death shard
/// answers `Unavailable` immediately instead — never a hang.
#[allow(clippy::too_many_arguments)]
fn send_job(
    conn: &mut Conn,
    conn_id: u64,
    seq: u64,
    t0: Instant,
    rid: u64,
    shard: usize,
    job: Job,
    trace: Option<TraceBuilder>,
    ctls: &[ShardCtl],
    pending: &mut HashMap<(u64, u64), Pending>,
    metrics: &Metrics,
    outbox_limit: usize,
) {
    let sent = match &ctls[shard].tx {
        // send fails only when the receiver is gone: the worker died and
        // its WorkerDown is still in the queue
        Some(tx) if !ctls[shard].degraded => tx.send(job).is_ok(),
        _ => false,
    };
    if sent {
        conn.inflight += 1;
        metrics.queue_depth.inc();
        metrics.shards[shard].queue_depth.inc();
        metrics.shards[shard].jobs_total.inc();
        pending.insert((conn_id, seq), Pending { shard, id: rid, t0, trace });
    } else {
        metrics.degraded_replies_total.inc();
        deliver(
            conn,
            seq,
            unavailable(rid, shard, "is unavailable"),
            t0,
            trace,
            metrics,
            outbox_limit,
        );
    }
}

/// Routes one complete frame: inline answers (stats, metrics, traces,
/// health, admission and decode errors) deliver immediately; solves and
/// session ops become shard jobs.
#[allow(clippy::too_many_arguments)]
fn dispatch(
    conn: &mut Conn,
    conn_id: u64,
    payload: &[u8],
    opts: &EventLoopOpts,
    metrics: &Metrics,
    engines: &[Arc<Engine>],
    retired: &[EngineStats],
    ctls: &[ShardCtl],
    pending: &mut HashMap<(u64, u64), Pending>,
    rr_open: &mut usize,
    tracer: &Tracer,
) {
    let t0 = Instant::now();
    metrics.frames_read_total.inc();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    let shards = opts.shards as u64;
    let outbox_limit = opts.outbox_limit;
    // trace epoch = frame arrival; the decode span covers id derivation
    // (a payload hash) plus the decode itself, starting at offset ~0
    let mut tb = tracer.begin(payload);
    let decoded = decode_msg(payload);
    // admission starts where decode ends; each branch closes it once its
    // admission verdict (cap checks, shard choice) is in
    let adm = tb.as_ref().map_or(0, |b| {
        b.req.record("decode", 0);
        b.req.now_us()
    });
    match decoded {
        Ok(Msg::Solve { id, ens }) => {
            // the atom cap first (TooLarge wins even with a full queue),
            // then — beyond max_queue in-flight jobs — Overloaded,
            // without either touching a shard
            if let Some(b) = tb.as_mut() {
                b.id = id;
                b.kind = "solve";
            }
            if ens.n_atoms() > opts.engine_cfg.max_atoms {
                let e = EngineError::TooLarge {
                    n_atoms: ens.n_atoms(),
                    max_atoms: opts.engine_cfg.max_atoms,
                };
                if let Some(b) = tb.as_ref() {
                    b.req.record("admission", adm);
                }
                deliver(conn, seq, engine_error(id, e), t0, tb, metrics, outbox_limit);
            } else if metrics.queue_depth.get() >= opts.max_queue as i64 {
                metrics.queue_refusals_total.inc();
                if let Some(b) = tb.as_ref() {
                    b.req.record("admission", adm);
                }
                deliver(
                    conn,
                    seq,
                    engine_error(id, EngineError::Overloaded),
                    t0,
                    tb,
                    metrics,
                    outbox_limit,
                );
            } else {
                let shard = pick_shard(route_hash(&ens), opts.shards);
                let jt = tb.as_mut().map(|b| {
                    b.shard = shard;
                    b.req.record("admission", adm);
                    (Arc::clone(&b.req), b.req.now_us())
                });
                let job = Job::Solve { conn: conn_id, seq, id, ens, trace: jt };
                send_job(
                    conn,
                    conn_id,
                    seq,
                    t0,
                    id,
                    shard,
                    job,
                    tb,
                    ctls,
                    pending,
                    metrics,
                    outbox_limit,
                );
            }
        }
        Ok(Msg::OpenSession { id, n_atoms }) => {
            // round-robin over the shards still willing to take work
            let mut shard = None;
            for k in 0..opts.shards {
                let s = (*rr_open + k) % opts.shards;
                if !ctls[s].degraded && ctls[s].tx.is_some() {
                    shard = Some(s);
                    *rr_open = s + 1;
                    break;
                }
            }
            if let Some(b) = tb.as_mut() {
                b.id = id;
                b.kind = "open";
                b.req.record("admission", adm);
            }
            match shard {
                Some(shard) => {
                    let jt = tb.as_mut().map(|b| {
                        b.shard = shard;
                        (Arc::clone(&b.req), b.req.now_us())
                    });
                    let job = Job::Open { conn: conn_id, seq, id, n_atoms, trace: jt };
                    send_job(
                        conn,
                        conn_id,
                        seq,
                        t0,
                        id,
                        shard,
                        job,
                        tb,
                        ctls,
                        pending,
                        metrics,
                        outbox_limit,
                    );
                }
                None => {
                    metrics.degraded_replies_total.inc();
                    deliver(
                        conn,
                        seq,
                        Msg::Error {
                            id,
                            code: ErrorCode::Unavailable,
                            message: "every shard is degraded".into(),
                        },
                        t0,
                        tb,
                        metrics,
                        outbox_limit,
                    );
                }
            }
        }
        Ok(msg @ (Msg::PushAtoms { .. } | Msg::SealSession { .. } | Msg::QuerySession { .. })) => {
            let (id, public) = match &msg {
                Msg::PushAtoms { id, session, .. }
                | Msg::SealSession { id, session }
                | Msg::QuerySession { id, session } => (*id, *session),
                _ => unreachable!(),
            };
            // a served QuerySession is a client reconciling after a
            // retry — the server-observable measure of client retries
            if matches!(msg, Msg::QuerySession { .. }) {
                metrics.retries_total.inc();
            }
            // public = local·shards + shard (locals start at 1); a bogus
            // handle decodes to some shard whose engine answers NoSession
            let shard = (public % shards) as usize;
            let local = public / shards;
            let jt = tb.as_mut().map(|b| {
                b.id = id;
                b.kind = "session";
                b.shard = shard;
                b.req.record("admission", adm);
                (Arc::clone(&b.req), b.req.now_us())
            });
            let job = Job::Session { conn: conn_id, seq, msg, local, public, trace: jt };
            send_job(
                conn,
                conn_id,
                seq,
                t0,
                id,
                shard,
                job,
                tb,
                ctls,
                pending,
                metrics,
                outbox_limit,
            );
        }
        Ok(Msg::Ping { id }) => {
            // health is answered from the event thread so it reflects
            // what the dispatcher itself believes — a Pong can arrive
            // while every shard is down
            let wal = crate::wal_health(opts.engine_cfg.wal_dir.as_deref());
            let shards = ctls
                .iter()
                .map(|c| ShardHealth { live: c.up && !c.degraded, degraded: c.degraded })
                .collect();
            deliver(conn, seq, Msg::Pong { id, wal, shards }, t0, tb, metrics, outbox_limit);
        }
        Ok(Msg::GetStats) => {
            let json = metrics.engine_totals(&shard_stats(engines, retired)).to_json();
            deliver(conn, seq, Msg::Stats { json }, t0, tb, metrics, outbox_limit);
        }
        Ok(Msg::GetMetrics) => {
            let text = metrics.render(&shard_stats(engines, retired));
            deliver(conn, seq, Msg::Metrics { text }, t0, tb, metrics, outbox_limit);
        }
        Ok(Msg::GetTraces) => {
            // answered from the event thread, like GetMetrics: the dump
            // is a snapshot of the per-shard retention rings
            deliver(conn, seq, Msg::Traces { jsonl: tracer.dump() }, t0, tb, metrics, outbox_limit);
        }
        Ok(_) => deliver(
            conn,
            seq,
            Msg::Error {
                id: 0,
                code: ErrorCode::Malformed,
                message: "unexpected message kind for a server".into(),
            },
            t0,
            tb,
            metrics,
            outbox_limit,
        ),
        Err(e) => {
            metrics.malformed_frames_total.inc();
            deliver(
                conn,
                seq,
                Msg::Error { id: 0, code: ErrorCode::Malformed, message: e.to_string() },
                t0,
                tb,
                metrics,
                outbox_limit,
            );
        }
    }
}

/// Each shard's engine counters: its live engine plus every engine
/// supervision retired on that shard. Safe even while a shard is down:
/// `stats()` takes only the cache and session-map locks, and the two
/// injected panic sites (worker kill, WAL append) hold neither.
fn shard_stats(engines: &[Arc<Engine>], retired: &[EngineStats]) -> Vec<EngineStats> {
    engines
        .iter()
        .zip(retired)
        .map(|(e, r)| {
            let mut s = e.stats();
            s.absorb(r);
            s
        })
        .collect()
}

/// Settles one in-flight entry with an `Unavailable` error: balances the
/// queue gauges and, if the connection is still open, delivers the frame
/// (keeping per-connection ordering intact).
fn settle_unavailable(
    key: (u64, u64),
    p: Pending,
    why: &str,
    conns: &mut HashMap<u64, Conn>,
    metrics: &Metrics,
    outbox_limit: usize,
) {
    metrics.queue_depth.dec();
    metrics.shards[p.shard].queue_depth.dec();
    if let Some(conn) = conns.get_mut(&key.0) {
        conn.inflight -= 1;
        deliver(conn, key.1, unavailable(p.id, p.shard, why), p.t0, p.trace, metrics, outbox_limit);
    }
}

/// The readiness loop proper. Owns the sockets; never blocks on any of
/// them. Returns when `stop` has flipped and every connection drained
/// (or the drain deadline passed). Owns the engine vector because
/// supervision swaps rebuilt engines in; the final vector is returned.
#[allow(clippy::too_many_arguments)]
fn event_loop<'scope>(
    scope: &'scope Scope<'scope, '_>,
    listener: &TcpListener,
    opts: &EventLoopOpts,
    stop: &AtomicBool,
    metrics: &Arc<Metrics>,
    tracer: &Tracer,
    mut engines: Vec<Arc<Engine>>,
    mut ctls: Vec<ShardCtl>,
    wake_tx: &UnixStream,
    wake_rx: UnixStream,
    events: &'scope Mutex<Vec<Event>>,
) -> io::Result<Vec<Arc<Engine>>> {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut pending: HashMap<(u64, u64), Pending> = HashMap::new();
    // counters of engines retired by supervision, folded into stats and
    // metrics renders — restarts must not zero a shard's history
    let mut retired: Vec<EngineStats> = vec![Default::default(); opts.shards];
    let mut ids: Vec<u64> = Vec::new();
    let mut next_conn = 0u64;
    let mut rr_open = 0usize;
    let mut drain_deadline: Option<Instant> = None;
    let chaos = !opts.fault.is_empty();
    let max_batch = opts.max_batch.max(1);
    loop {
        if drain_deadline.is_none() && stop.load(Ordering::Acquire) {
            drain_deadline = Some(Instant::now() + opts.drain);
        }
        let draining = drain_deadline.is_some();
        if draining && conns.is_empty() {
            break;
        }
        if let Some(deadline) = drain_deadline {
            if Instant::now() >= deadline {
                for (_, c) in conns.drain() {
                    metrics.connections_open.dec();
                    metrics.disconnects_total.inc();
                    metrics.outbox_bytes.add(-(c.outbox.len() as i64));
                }
                break;
            }
        }

        // one pollfd per socket, rebuilt per iteration (cheap at this
        // scale, and it keeps interest exactly in sync with state)
        ids.clear();
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 2);
        fds.push(PollFd::new(if draining { -1 } else { listener.as_raw_fd() }, POLLIN));
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        for (&id, c) in conns.iter() {
            let mut interest = 0i16;
            if !c.read_closed {
                interest |= POLLIN;
            }
            if !c.outbox.is_empty() {
                interest |= POLLOUT;
            }
            ids.push(id);
            fds.push(PollFd::new(c.stream.as_raw_fd(), interest));
        }
        poll_fds(&mut fds, 50)?;

        // drain the wake pipe (level-triggered: one byte per worker batch)
        if fds[1].ready(POLLIN) {
            let mut sink = [0u8; 256];
            loop {
                match (&wake_rx).read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
        }

        // worker events (checked every iteration — the lock is cheap)
        for ev in take_events(events) {
            match ev {
                Event::Done(c) => {
                    // single settlement: no map entry ⇒ this reply was
                    // already answered (reaped or swept) — drop it
                    let Some(p) = pending.remove(&(c.conn, c.seq)) else { continue };
                    metrics.queue_depth.dec();
                    metrics.shards[p.shard].queue_depth.dec();
                    if let Some(conn) = conns.get_mut(&c.conn) {
                        conn.inflight -= 1;
                        deliver(conn, c.seq, c.reply, p.t0, p.trace, metrics, opts.outbox_limit);
                    }
                }
                Event::WorkerUp { shard, engine } => {
                    // fold the dead engine's final counters into the
                    // shard's retired history — but not its gauges: the
                    // replacement re-opens recovered sessions and re-fills
                    // its cache, so carrying those forward double-counts
                    let mut fin = engines[shard].stats();
                    fin.cache_entries = 0;
                    fin.cache_bytes = 0;
                    fin.open_sessions = 0;
                    retired[shard].absorb(&fin);
                    // the old (possibly poisoned) engine drops here; its
                    // background threads join on a clean shutdown flag
                    engines[shard] = engine;
                    ctls[shard].up = true;
                }
                Event::WorkerDown { shard, jobs_done } => {
                    ctls[shard].up = false;
                    ctls[shard].tx = None;
                    // every request on the dead shard gets an exact
                    // Unavailable — in the channel, mid-job, or with a
                    // reply lost in the unwind, none of them will answer
                    let dead: Vec<(u64, u64)> =
                        pending.iter().filter(|(_, p)| p.shard == shard).map(|(k, _)| *k).collect();
                    for key in dead {
                        let p = pending.remove(&key).expect("key collected above");
                        metrics.degraded_replies_total.inc();
                        settle_unavailable(
                            key,
                            p,
                            "restarted mid-request",
                            &mut conns,
                            metrics,
                            opts.outbox_limit,
                        );
                    }
                    ctls[shard].zero_job_deaths =
                        if jobs_done == 0 { ctls[shard].zero_job_deaths + 1 } else { 0 };
                    if ctls[shard].degraded {
                        continue;
                    }
                    if ctls[shard].zero_job_deaths >= MAX_ZERO_JOB_DEATHS {
                        ctls[shard].degraded = true;
                        eprintln!(
                            "c1pd: shard {shard} degraded: {MAX_ZERO_JOB_DEATHS} consecutive \
                             workers died before completing a job"
                        );
                        continue;
                    }
                    metrics.shard_restarts_total.inc();
                    eprintln!(
                        "c1pd: shard {shard} worker died after {jobs_done} job(s); \
                         respawning with WAL recovery"
                    );
                    let (tx, rx) = mpsc::channel();
                    ctls[shard].tx = Some(tx);
                    spawn_worker(
                        scope,
                        shard,
                        rx,
                        None, // rebuild from the shard's WAL on the worker thread
                        shard_cfg(&opts.engine_cfg, shard, opts.shards),
                        WorkerEnv {
                            events,
                            wake: wake_tx.try_clone()?,
                            plan: Arc::clone(&opts.fault),
                            metrics: Arc::clone(metrics),
                            shards: opts.shards,
                            max_batch,
                        },
                    );
                }
            }
        }

        // request-deadline reaper: a dispatched request whose reply was
        // lost (dropped by chaos, raced by a death) is answered instead
        // of hanging; its late reply is dropped by map absence
        if let Some(budget) = opts.request_deadline {
            let expired: Vec<(u64, u64)> =
                pending.iter().filter(|(_, p)| p.t0.elapsed() >= budget).map(|(k, _)| *k).collect();
            for key in expired {
                let p = pending.remove(&key).expect("key collected above");
                metrics.deadline_expired_total.inc();
                settle_unavailable(
                    key,
                    p,
                    "did not answer within the request deadline",
                    &mut conns,
                    metrics,
                    opts.outbox_limit,
                );
            }
        }

        // accept burst
        if !draining && fds[0].ready(POLLIN) {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if conns.len() >= opts.max_conns {
                            metrics.connections_refused_total.inc();
                            refuse(stream);
                            continue;
                        }
                        stream.set_nodelay(true).ok();
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        metrics.connections_accepted_total.inc();
                        metrics.connections_open.inc();
                        conns.insert(next_conn, Conn::new(stream, opts.max_frame));
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        eprintln!("c1pd: accept failed: {e}");
                        break;
                    }
                }
            }
        }

        // readable sockets: reassemble, dispatch every complete frame
        for (ix, &id) in ids.iter().enumerate() {
            let ready = fds[ix + 2].ready(POLLIN);
            let Some(conn) = conns.get_mut(&id) else { continue };
            if conn.read_closed || !ready {
                continue;
            }
            let pull = {
                let Conn { reader, stream, .. } = conn;
                if chaos {
                    let mut fio = FaultyIo::new(&mut *stream, &opts.fault);
                    let r = reader.pull(&mut fio);
                    metrics.faults_injected_total.add(fio.injected);
                    r
                } else {
                    reader.pull(stream)
                }
            };
            match pull {
                Ok(pull) => {
                    metrics.bytes_read_total.add(pull.bytes);
                    for payload in pull.frames {
                        dispatch(
                            conn,
                            id,
                            &payload,
                            opts,
                            metrics,
                            &engines,
                            &retired,
                            &ctls,
                            &mut pending,
                            &mut rr_open,
                            tracer,
                        );
                    }
                    if pull.eof {
                        conn.read_closed = true;
                        conn.closing = true;
                    }
                }
                Err(PullError::Oversize(o)) => {
                    // admission control, not line noise: answer with an
                    // exact TooLarge frame, then close (the stream
                    // position is unrecoverable)
                    metrics.oversize_frames_total.inc();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.read_closed = true;
                    conn.closing = true;
                    deliver(
                        conn,
                        seq,
                        Msg::Error {
                            id: 0,
                            code: ErrorCode::TooLarge,
                            message: format!(
                                "frame of {} bytes exceeds the {}-byte cap",
                                o.len, o.cap
                            ),
                        },
                        Instant::now(),
                        // oversize frames never surface a payload to hash
                        // a trace id from; they go untraced
                        None,
                        metrics,
                        opts.outbox_limit,
                    );
                }
                Err(PullError::Io(e)) => {
                    if e.kind() != io::ErrorKind::ConnectionReset {
                        eprintln!("c1pd: connection {id}: {e}");
                    }
                    conn.read_closed = true;
                    conn.kill = Some(Vec::new());
                }
            }
        }

        // slow-loris reaper: a partial frame making no progress past the
        // budget gets an exact Timeout frame, then the connection closes
        if let Some(budget) = opts.read_timeout {
            for conn in conns.values_mut() {
                if conn.read_closed || conn.kill.is_some() {
                    continue;
                }
                if conn.reader.stalled_since().is_some_and(|since| since.elapsed() >= budget) {
                    metrics.read_timeout_disconnects_total.inc();
                    conn.read_closed = true;
                    conn.kill = Some(frame_of(&Msg::Error {
                        id: 0,
                        code: ErrorCode::Timeout,
                        message: format!(
                            "stalled mid-frame past the {} ms read-timeout budget",
                            budget.as_millis()
                        ),
                    }));
                }
            }
        }

        // drain sweep: at a frame boundary with nothing in flight, a
        // draining server closes the connection (mid-frame connections
        // get to finish the frame they started)
        if draining {
            for conn in conns.values_mut() {
                if !conn.reader.mid_frame() && conn.inflight == 0 && conn.parked.is_empty() {
                    conn.read_closed = true;
                    conn.closing = true;
                }
            }
        }

        // flush outboxes (opportunistic first try, POLLOUT next time)
        for conn in conns.values_mut() {
            if conn.outbox.is_empty() || conn.kill.is_some() {
                continue;
            }
            let Conn { outbox, stream, .. } = conn;
            let flushed = if chaos {
                let mut fio = FaultyIo::new(&mut *stream, &opts.fault);
                let r = outbox.flush(&mut fio);
                metrics.faults_injected_total.add(fio.injected);
                r
            } else {
                outbox.flush(stream)
            };
            match flushed {
                Ok((bytes, frames)) => {
                    metrics.bytes_written_total.add(bytes);
                    metrics.frames_written_total.add(frames);
                    metrics.outbox_bytes.add(-(bytes as i64));
                    // a trace finishes when its reply's last byte leaves
                    // the socket: pop one entry per fully-flushed frame
                    for _ in 0..frames {
                        if let Some(Some(f)) = conn.finishing.pop_front() {
                            tracer.finish(f, metrics);
                        }
                    }
                }
                Err(_) => {
                    conn.read_closed = true;
                    conn.kill = Some(Vec::new());
                }
            }
        }

        // close pass
        conns.retain(|_, conn| {
            if let Some(farewell) = conn.kill.take() {
                if !farewell.is_empty() {
                    write_farewell(&mut conn.stream, &farewell);
                }
                metrics.connections_open.dec();
                metrics.disconnects_total.inc();
                metrics.outbox_bytes.add(-(conn.outbox.len() as i64));
                return false;
            }
            if conn.closing && conn.idle() {
                metrics.connections_open.dec();
                metrics.disconnects_total.inc();
                return false;
            }
            true
        });
    }
    drop(ctls); // drops the job senders: ends the workers; scope joins them
    Ok(engines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts one byte per call and fails every other
    /// call with `Interrupted` — the adversarial schedule any blocking
    /// write path must survive byte-for-byte.
    struct InterruptingWriter {
        got: Vec<u8>,
        calls: usize,
    }

    impl Write for InterruptingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "signal"));
            }
            if buf.is_empty() {
                return Ok(0);
            }
            self.got.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn farewell_survives_interrupts_and_short_writes() {
        let frame: Vec<u8> = (0..100u8).collect();
        let mut w = InterruptingWriter { got: Vec::new(), calls: 0 };
        write_farewell(&mut w, &frame);
        assert_eq!(w.got, frame, "every byte must land despite EINTR + 1-byte writes");
    }

    #[test]
    fn farewell_gives_up_on_hard_errors_without_panicking() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        write_farewell(&mut Broken, &[1, 2, 3]); // must simply return
    }

    #[test]
    fn wal_layout_records_the_shard_count() {
        let dir = std::env::temp_dir().join(format!("c1pd-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let refused = |shards: usize| {
            let e = check_wal_layout(&dir, shards).expect_err("layout mismatch");
            assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
            e.to_string()
        };
        // missing and fresh directories pass at any count
        check_wal_layout(&dir, 1).unwrap();
        std::fs::create_dir_all(&dir).unwrap();
        check_wal_layout(&dir, 3).unwrap();
        // a 1-shard layout: logs at the top level
        std::fs::write(dir.join("session-4.wal"), b"").unwrap();
        check_wal_layout(&dir, 1).unwrap();
        assert!(refused(2).contains("session-4.wal"));
        std::fs::remove_file(dir.join("session-4.wal")).unwrap();
        // a 2-shard layout: exactly shard-0 and shard-1
        for i in 0..2 {
            std::fs::create_dir(dir.join(format!("shard-{i}"))).unwrap();
        }
        check_wal_layout(&dir, 2).unwrap();
        assert!(refused(1).contains("shard-"));
        assert!(refused(3).contains("shard-2"), "a missing shard is named");
        std::fs::create_dir(dir.join("shard-2")).unwrap();
        assert!(refused(2).contains("shard-2"), "an extra shard is named");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

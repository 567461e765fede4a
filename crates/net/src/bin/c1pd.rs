//! `c1pd` — the std-only TCP front-end of the solve engine.
//!
//! ```text
//! c1pd [--addr 127.0.0.1:9119] [--port-file PATH] [--threads N]
//!      [--cache-mb MB] [--max-batch N] [--small-cutoff N]
//!      [--max-queue N] [--max-atoms N] [--max-conns N] [--max-frame-mb MB]
//!      [--max-sessions N] [--session-idle-ms MS] [--max-session-mb MB]
//!      [--wal-dir DIR] [--snapshot-ms MS] [--wal-fault-after N]
//!      [--shards N] [--read-timeout-ms MS] [--outbox-kb KB]
//!      [--chaos-seed N] [--chaos-socket-every N] [--chaos-kill-every N]
//!      [--chaos-drop-every N] [--chaos-delay-every N]
//!      [--chaos-wal-torn-every N] [--chaos-wal-fail-every N]
//!      [--request-deadline-ms MS]
//!      [--trace-sample N] [--slow-ms MS] [--trace-seed N] [--trace-ring N]
//! ```
//!
//! Speaks the length-prefixed frame protocol of `c1p_engine::proto`: one
//! response per request, in order, per connection — `Verdict`/`Error` for
//! `Solve`, `SessionVerdict`/`Error` for `OpenSession`/`PushAtoms`/
//! `SealSession`, `Stats` for `GetStats`, and a plain-text metrics dump
//! for `GetMetrics` (DESIGN.md §11 documents the stable series names).
//!
//! The server is `c1p_net::event_loop`: one readiness thread multiplexing
//! every socket over `poll(2)`, and `--shards N` (default 1) supervised
//! engines, each owning a consistent-hash slice of canonical keys. It
//! serves on unix hosts only; elsewhere `c1pd` exits 2.
//!
//! The command line is strict (`c1p_net::flags`): an unknown or repeated
//! flag, a value flag given no value, or a non-numeric number exits 2
//! before anything binds, so a misspelt `--wal-dir` cannot start a
//! server without durability. The retired `--event-loop` switch is an
//! unknown flag too.
//!
//! Admission control answers with exact error frames, never a silent
//! drop: frame size (`TooLarge`, then close), connection count and
//! in-flight depth (`--max-queue`, `Overloaded`), a mid-frame stall past
//! `--read-timeout-ms` (`Timeout`, then close; 0 disables), and a reader
//! whose outbox crosses `--outbox-kb` (`Overloaded`, then close). Bind
//! to port 0 for an ephemeral port; the chosen address is printed on
//! stdout (`c1pd listening on ...`) and, with `--port-file`, the bare
//! port is written to the given path for scripts.
//!
//! **Durability** (DESIGN.md §10): `--wal-dir DIR` turns on per-session
//! write-ahead logs (accepted pushes fsynced before acknowledgement),
//! boot-time recovery of live sessions, lazy resume of idle-evicted
//! ones, and — with `--snapshot-ms` — periodic cache snapshots for warm
//! starts. One shard logs in `DIR` itself; with `--shards N` > 1, shard
//! `i` logs under `DIR/shard-i`. A `DIR` laid out for another shard
//! count is refused at startup (exit 2, naming the entry that shows
//! it). `--wal-fault-after N` is the crash harness's test hook: the
//! N-th append dies mid-write. On SIGTERM/SIGINT the server shuts down
//! gracefully: it stops accepting, drains each connection's in-flight
//! frame (answering it), writes a final snapshot, and exits 0 — WALs
//! need no extra flush because every append was already fsynced.
//!
//! **Chaos** (DESIGN.md §12): the `--chaos-*` flags arm a seeded
//! deterministic fault plan. `--chaos-socket-every N` injects a socket
//! fault (error / short read / delay / disconnect) roughly every N-th
//! read and write; `--chaos-kill-every N` panics a shard worker every
//! N-th job batch (it is respawned with WAL recovery);
//! `--chaos-drop-every` / `--chaos-delay-every` drop or delay shard
//! replies; `--chaos-wal-torn-every` / `--chaos-wal-fail-every` tear or
//! refuse WAL appends. `--request-deadline-ms` answers any request still
//! unanswered after MS milliseconds with `Unavailable` (defaulted to
//! 2000 when replies can be dropped, so nothing hangs). Same seed + same
//! schedule ⇒ the same faults fire at the same points.
//!
//! **Tracing** (DESIGN.md §13): `--trace-sample N` head-samples one
//! request in N (0, the default, turns tracing off entirely); while
//! tracing is on, error replies and requests slower than `--slow-ms`
//! (default 100) are always retained — tail-sampling — and slow ones
//! also log one stderr line. Retained traces live in per-shard rings of
//! `--trace-ring` (default 256) entries, are dumped as JSONL by a
//! `GetTraces` frame, and stamp the latency histogram's buckets with
//! exemplar trace ids. `--trace-seed` makes both the content-derived
//! trace ids and the sampling verdicts reproducible.

#[cfg(unix)]
use {
    c1p_engine::proto::DEFAULT_MAX_FRAME,
    c1p_engine::EngineConfig,
    c1p_net::event_loop::{self, EventLoopOpts},
    c1p_net::fault::FaultPlan,
    c1p_net::flags::Flags,
    c1p_net::metrics::Metrics,
    std::io::{self, Write},
    std::net::TcpListener,
    std::sync::atomic::{AtomicBool, Ordering},
    std::sync::Arc,
    std::time::Duration,
};

/// Set by the signal handler; polled by the event loop.
#[cfg(unix)]
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_handlers() {
    // std-only signal(2): the handler just flips an AtomicBool, which is
    // async-signal-safe. SIGINT = 2, SIGTERM = 15.
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("c1pd: the server needs poll(2) and runs on unix hosts only");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    let mut f = Flags::new("c1pd", std::env::args().skip(1).collect());
    let addr = f.value("--addr").unwrap_or_else(|| "127.0.0.1:9119".to_string());
    let port_file = f.value("--port-file");
    let wal_dir = f.value("--wal-dir").map(std::path::PathBuf::from);
    let mut num = |name: &str, default: usize| f.num(name, default as u64) as usize;
    let defaults = EngineConfig::default();
    let server_defaults = EventLoopOpts::default();

    // chaos plan: one seed staggers every schedule
    let socket_every = num("--chaos-socket-every", 0) as u64;
    let drop_every = num("--chaos-drop-every", 0) as u64;
    let chaos = FaultPlan::seeded(num("--chaos-seed", 1) as u64)
        .with_read_every(socket_every)
        .with_write_every(socket_every)
        .with_kill_every(num("--chaos-kill-every", 0) as u64)
        .with_drop_every(drop_every)
        .with_delay_every(num("--chaos-delay-every", 0) as u64);
    let wal_faults =
        chaos.wal(num("--chaos-wal-torn-every", 0) as u64, num("--chaos-wal-fail-every", 0) as u64);

    let cfg = EngineConfig {
        threads: num("--threads", 0),
        cache_bytes: num("--cache-mb", defaults.cache_bytes >> 20) << 20,
        small_cutoff: num("--small-cutoff", defaults.small_cutoff),
        max_atoms: num("--max-atoms", defaults.max_atoms),
        max_sessions: num("--max-sessions", defaults.max_sessions),
        session_idle_ms: num("--session-idle-ms", defaults.session_idle_ms as usize) as u64,
        max_session_columns: defaults.max_session_columns,
        max_session_bytes: num("--max-session-mb", defaults.max_session_bytes >> 20) << 20,
        wal_dir,
        snapshot_interval_ms: num("--snapshot-ms", 0) as u64,
        wal_fault_after: num("--wal-fault-after", 0) as u64,
        wal_faults,
    };
    let shards = num("--shards", 1).max(1);
    let deadline_ms = num("--request-deadline-ms", 0) as u64;
    let read_timeout_ms = num("--read-timeout-ms", 250);
    let mut opts = EventLoopOpts {
        shards,
        max_conns: num("--max-conns", server_defaults.max_conns),
        max_frame: num("--max-frame-mb", DEFAULT_MAX_FRAME >> 20) << 20,
        // 0 disables the mid-frame stall reaper (idle between frames is
        // never reaped)
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms as u64)),
        outbox_limit: num("--outbox-kb", server_defaults.outbox_limit >> 10) << 10,
        max_queue: num("--max-queue", server_defaults.max_queue),
        max_batch: num("--max-batch", server_defaults.max_batch),
        trace: c1p_net::trace::TraceConfig {
            sample_every: num("--trace-sample", 0) as u64,
            slow_us: num("--slow-ms", 100) as u64 * 1000,
            seed: num("--trace-seed", 1) as u64,
            ring_cap: num("--trace-ring", 256),
        },
        engine_cfg: cfg,
        drain: Duration::from_secs(30),
        fault: Arc::new(chaos),
        request_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
    };
    f.finish();

    if let Some(dir) = &opts.engine_cfg.wal_dir {
        if let Err(e) = event_loop::check_wal_layout(dir, shards) {
            eprintln!("c1pd: refusing --wal-dir: {e}");
            std::process::exit(2);
        }
    }
    // dropped replies would hang their requests without a reaper
    if opts.request_deadline.is_none() && drop_every > 0 {
        opts.request_deadline = Some(Duration::from_millis(2000));
        eprintln!("c1pd: --chaos-drop-every set; defaulting --request-deadline-ms to 2000");
    }
    install_signal_handlers();
    let listener =
        TcpListener::bind(&addr).unwrap_or_else(|e| panic!("c1pd: cannot bind {addr}: {e}"));
    let local = listener.local_addr().expect("bound socket has an address");
    println!("c1pd listening on {local}");
    io::stdout().flush().ok();
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", local.port()))
            .unwrap_or_else(|e| panic!("c1pd: cannot write {path}: {e}"));
    }

    let metrics = Arc::new(Metrics::new(shards));
    event_loop::serve(listener, &opts, &SHUTDOWN, &metrics)
        .unwrap_or_else(|e| panic!("c1pd: event loop failed: {e}"));
    eprintln!("c1pd: shutdown complete");
}

//! `load_driver` — closed-loop traffic generator and client-side verifier
//! for `c1pd`.
//!
//! ```text
//! load_driver --addr 127.0.0.1:PORT [--requests 500] [--conns 4]
//!             [--seed 1] [--dup-every 3] [--reject-every 4]
//!             [--n-lo 48] [--n-hi 160] [--expect-hits]
//!             [--open-loop] [--idle-conns K] [--expect-metrics]
//!             [--expect-traces]
//! load_driver --addr 127.0.0.1:PORT --dump-metrics
//! load_driver --addr 127.0.0.1:PORT --dump-traces
//! load_driver --addr 127.0.0.1:PORT --mode sessions
//!             [--streams 8] [--pushes 6] [--blocks 4] [--conns 4]
//!             [--seed 1] [--reject-every 3] [--n-lo 64] [--n-hi 192]
//! load_driver --mode crash --server PATH/TO/c1pd --wal-dir DIR
//!             [--cycles 5] [--streams 6] [--pushes 8] [--blocks 4]
//!             [--seed 1] [--reject-every 3] [--n-lo 64] [--n-hi 160]
//!             [--snapshot-ms 50] [--fault-every 2]
//! load_driver --mode chaos --server PATH/TO/c1pd [--wal-dir DIR]
//!             [--shards 2] [--streams 8] [--pushes 6] [--blocks 4]
//!             [--solves 60] [--seed 1] [--reject-every 3]
//!             [--n-lo 64] [--n-hi 160] [--kill-every 6] [--drop-every 5]
//!             [--socket-every 17] [--delay-every 11] [--wal-torn-every 7]
//!             [--deadline-ms 400] [--expect-metrics]
//!             [--trace-sample N] [--slow-ms MS] [--expect-traces]
//! ```
//!
//! Each mode accepts exactly the flags listed for it (`--mode solve` names
//! the default mode). An unknown or repeated flag, a stray argument, a
//! value flag given no value, a non-numeric number or an unknown mode
//! exits 2 before anything connects or spawns, so a misspelt gate flag
//! fails the run instead of silently dropping its gate.
//!
//! **Solve mode** (default) generates a deterministic mixed accept/reject
//! schedule from the shared workload generator
//! (`c1p_matrix::generate::mixed_schedule` — the same definition
//! experiment E11 and the `engine_batch` example use), with every
//! `--dup-every`-th request replaying an earlier instance so the server's
//! cache has something to hit. `--conns` closed-loop connections
//! round-robin the schedule. `--open-loop` switches each connection to
//! pipelining: a writer thread streams its whole share of the schedule
//! without waiting while the reader verifies responses in order — the
//! protocol's in-order guarantee is what makes the pairing sound — so
//! the server's admission and batching face real concurrent depth
//! (latency percentiles are not reported in this mode; throughput is).
//! `--idle-conns K` parks K extra connections that send nothing for the
//! whole run, the event-loop scalability case a thread-per-connection
//! server pays a blocked thread for. `--expect-metrics` fetches the
//! plain-text `GetMetrics` dump afterwards and fails unless every
//! stable series name is present and the load-exercised counters are
//! nonzero. `--dump-metrics` skips the load entirely: it prints the
//! live server's text dump to stdout and exits — the scrape path for
//! shells and dashboards. `--dump-traces` does the same for the server's
//! retained request traces (one JSONL object per line, via `GetTraces`),
//! and `--expect-traces` fails the run unless the server retained at
//! least one trace whose spans cover the whole request lifecycle
//! (decode → admission → queue → mailbox → cache → solve with ≥ 3
//! solver phases → flush); the server must be running with
//! `--trace-sample`. The latency summary is always cross-checked
//! against the server's histogram: bucket counts must be cumulative and
//! their +Inf total must equal `_count`, which must cover every request
//! the driver completed.
//!
//! **The stream modes** — sessions, crash and chaos — replay the same
//! seeded append streams (`c1p_matrix::generate::append_stream{,_reject}`,
//! built by [`PlanSpec::plans`]) through the
//! `OpenSession`/`PushAtoms`/`SealSession` frames: every
//! `--reject-every`-th stream carries one planted Tucker obstruction,
//! whose push must come back rejected (and rolled back server-side)
//! while every other verdict accepts. All three audit through one
//! checker, [`StreamCheck`]: it mirrors each session with an incremental
//! Booth–Lueker reducer (`c1p_pqtree::Reducer`) to predict every verdict
//! independently, verifies each served verdict against the concatenated
//! instance, and gates the sealed order on **bit-identical agreement
//! with an in-process one-shot solve** of the accepted concatenation.
//! The modes differ only in transport and in what they count besides.
//!
//! **Session mode** drives the streams over plain connections (one
//! [`Link`] per `--conns`); a protocol error abandons that stream.
//!
//! **Crash mode** is the durability harness (DESIGN.md §10): the driver
//! spawns `c1pd` itself (`--server` names the binary) on a shared
//! `--wal-dir`, drives session streams part-way, and crashes the server
//! at seeded points — `kill -9` between acknowledged operations on most
//! cycles, and on every `--fault-every`-th cycle a *mid-WAL-append*
//! abort via the server's `--wal-fault-after` hook (the torn record must
//! be truncated, never replayed). Each restart is audited: zero
//! quarantined WALs, every live session recovered, and the first solve
//! of the warm-start probe instance served from the snapshot
//! (`warm_start_hits` ≥ 1). Un-acknowledged pushes are retried — the
//! fsync-before-ack ordering makes that exact, not heuristic — and at
//! the end every stream must seal bit-identically to a one-shot
//! in-process solve of its accepted concatenation.
//!
//! **Chaos mode** is the fault-injection harness (DESIGN.md §12): the
//! driver spawns `c1pd` with a seeded fault plan — worker
//! kills, dropped/delayed shard replies, socket faults, torn WAL
//! appends — and drives mixed solve + session traffic at it through the
//! self-healing `c1p_net::client`. The assertions are absolute: every
//! verdict that settles verifies client-side and agrees with the
//! incremental PQ mirror; every sealed order whose reply arrived is
//! bit-identical to a one-shot in-process solve; no operation exceeds
//! its client deadline (a hang is a hard failure); and the server's
//! metrics must show the chaos actually happened — injected faults,
//! at least one supervised shard restart, and session recovery from the
//! WAL within one process lifetime.
//!
//! Every response is checked **client-side, without trusting the server**:
//! accepts must pass `verify_linear` against the concatenated instance,
//! rejects must carry a Tucker certificate that `c1p_cert::verify_witness`
//! confirms; both must agree with the in-process prediction. Exits
//! nonzero on any protocol error, verification failure, verdict
//! disagreement, or (with `--expect-hits`) a zero cache-hit count.

use c1p_cert::{verify_witness, TuckerWitness};
use c1p_engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
use c1p_matrix::generate::{
    append_stream, append_stream_reject, mixed_schedule, AppendStream, MixedSchedule,
};
use c1p_matrix::io::WireVerdict;
use c1p_matrix::{verify_linear, Atom, Ensemble};
use c1p_net::client::{Client, ClientError, PushOutcome, RetryPolicy, SealOutcome};
use c1p_net::flags::Flags;
use c1p_pqtree::Reducer;
use std::fmt::Display;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn main() {
    let mut f = Flags::new("load_driver", std::env::args().skip(1).collect());
    match f.value("--mode").as_deref() {
        None | Some("solve") => solve_main(f),
        Some("sessions") => sessions_main(f),
        Some("crash") => crash_main(f),
        Some("chaos") => chaos_main(f),
        Some(other) => {
            f.usage(&format!("unknown --mode {other:?} (solve, sessions, crash or chaos)"))
        }
    }
}

// ---------------------------------------------------------------------
// tally and shared gates
// ---------------------------------------------------------------------

/// The counts every mode keeps.
#[derive(Default)]
struct Tally {
    protocol_errors: AtomicU64,
    verify_failures: AtomicU64,
    disagreements: AtomicU64,
    completed: AtomicU64,
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn get(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

impl Tally {
    /// Prints the failure counts, then the mode's own `extra` field.
    fn report(&self, extra: &str) {
        println!(
            "protocol errors {} | verify failures {} | disagreements {} | {extra}",
            get(&self.protocol_errors),
            get(&self.verify_failures),
            get(&self.disagreements),
        );
    }

    /// The gates every mode shares: no protocol error, every operation
    /// settled (when the mode knows how many it sent), no failed
    /// client-side verification and no disagreement. Each mode adds its
    /// own gates after these.
    fn passes(&self, expected_ops: Option<u64>) -> bool {
        let mut ok = true;
        let missing = expected_ops.is_some_and(|n| get(&self.completed) != n);
        if missing || get(&self.protocol_errors) > 0 {
            eprintln!("FAIL: protocol errors or missing responses");
            ok = false;
        }
        if get(&self.verify_failures) > 0 {
            eprintln!("FAIL: client-side verification failures");
            ok = false;
        }
        if get(&self.disagreements) > 0 {
            eprintln!("FAIL: verdict disagreement with the in-process solve or the PQ mirror");
            ok = false;
        }
        ok
    }
}

/// Exits 1 unless `ok`; prints the mode's success line otherwise.
fn conclude(ok: bool, success: &str) {
    if !ok {
        std::process::exit(1);
    }
    println!("{success}");
}

/// Whether a served verdict checks out without the solver: an order by
/// `verify_linear`, a rejection by its Tucker witness.
fn verifies(ens: &Ensemble, verdict: &WireVerdict) -> bool {
    match verdict {
        WireVerdict::Accept { order } => verify_linear(ens, order).is_ok(),
        WireVerdict::Reject { family, atom_rows, column_ids } => {
            let witness = TuckerWitness {
                family: *family,
                atom_rows: atom_rows.clone(),
                column_ids: column_ids.clone(),
            };
            verify_witness(ens, &witness).is_ok()
        }
    }
}

/// Client-side check of a one-shot verdict: it must verify and agree
/// with the expected answer. Returns whether both held.
fn check_verdict(ens: &Ensemble, expect_c1p: bool, verdict: &WireVerdict, tally: &Tally) -> bool {
    let verified = verifies(ens, verdict);
    let agrees = matches!(verdict, WireVerdict::Accept { .. }) == expect_c1p;
    if !verified {
        bump(&tally.verify_failures);
    }
    if !agrees {
        bump(&tally.disagreements);
    }
    verified && agrees
}

/// `latency p50 …us p90 …us p99 …us` over round trips in µs.
fn percentiles(mut us: Vec<u64>) -> String {
    us.sort_unstable();
    let pct =
        |p: f64| if us.is_empty() { 0 } else { us[((us.len() - 1) as f64 * p).round() as usize] };
    let [p50, p90, p99] = [0.50, 0.90, 0.99].map(pct);
    format!("latency p50 {p50}us p90 {p90}us p99 {p99}us")
}

// ---------------------------------------------------------------------
// the plain link
// ---------------------------------------------------------------------

/// One plain framed connection that never retries or reconnects, so a
/// transport failure lands in the caller's counts instead of being
/// papered over. Every mode but chaos talks through it; chaos mode uses
/// the retrying `c1p_net::client::Client`.
struct Link {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Round trip of every completed [`Link::call`], in µs.
    rtts_us: Vec<u64>,
}

impl Link {
    fn connect(addr: &str) -> std::io::Result<Link> {
        Link::over(TcpStream::connect(addr)?)
    }

    fn over(stream: TcpStream) -> std::io::Result<Link> {
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Link { reader, writer: BufWriter::new(stream), rtts_us: Vec::new() })
    }

    /// A second link on the same socket (the open-loop writer's).
    fn try_clone(&self) -> std::io::Result<Link> {
        Link::over(self.writer.get_ref().try_clone()?)
    }

    /// Writes pre-encoded frames and flushes.
    fn send(&mut self, frames: &[u8]) -> bool {
        self.writer.write_all(frames).and_then(|()| self.writer.flush()).is_ok()
    }

    /// The next reply; `None` on EOF, a transport error or an
    /// undecodable frame.
    fn recv(&mut self) -> Option<Msg> {
        decode_msg(&read_frame(&mut self.reader, DEFAULT_MAX_FRAME).ok()??).ok()
    }

    /// One request, one reply.
    fn call(&mut self, msg: &Msg) -> Option<Msg> {
        let t0 = Instant::now();
        write_frame(&mut self.writer, &encode_msg(msg)).and_then(|()| self.writer.flush()).ok()?;
        let reply = self.recv()?;
        self.rtts_us.push(t0.elapsed().as_micros() as u64);
        Some(reply)
    }
}

/// One request over a fresh link: the one-shot probes' exchange.
fn ask(addr: &str, msg: &Msg) -> Option<Msg> {
    Link::connect(addr).ok()?.call(msg)
}

/// Retries a one-shot probe up to 10 times, 50 ms apart: under chaos
/// mode's socket faults a failed probe connection proves nothing about
/// the server.
fn retried<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..10 {
        if let Some(v) = probe() {
            return Some(v);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

fn fetch_metrics(addr: &str) -> Option<String> {
    match ask(addr, &Msg::GetMetrics)? {
        Msg::Metrics { text } => Some(text),
        _ => None,
    }
}

fn fetch_traces(addr: &str) -> Option<String> {
    match ask(addr, &Msg::GetTraces)? {
        Msg::Traces { jsonl } => Some(jsonl),
        _ => None,
    }
}

/// Queries the server's stats frame and scans one integer field out of
/// the JSON (the driver carries no JSON parser by design).
fn fetch_stat(addr: &str, key: &str) -> Option<i64> {
    let Msg::Stats { json } = ask(addr, &Msg::GetStats)? else {
        return None;
    };
    let quoted = format!("\"{key}\":");
    let rest = json[json.find(&quoted)? + quoted.len()..].trim_start();
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Polls a stats counter until it reaches `min` (10s cap).
fn wait_stat_at_least(addr: &str, key: &str, min: i64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if fetch_stat(addr, key).unwrap_or(-1) >= min {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Prints the server's durability counters (zeros on a non-durable server).
fn print_durability(addr: &str) {
    let stat = |key: &str| fetch_stat(addr, key).unwrap_or(-1);
    println!(
        "durability: wal appends {} | wal fsyncs {} | recovered sessions {} | \
         quarantined wals {} | snapshot writes {} | warm-start hits {}",
        stat("wal_appends"),
        stat("wal_fsyncs"),
        stat("recovered_sessions"),
        stat("quarantined_wals"),
        stat("snapshot_writes"),
        stat("warm_start_hits"),
    );
}

/// Solves the warm-start probe over a fresh link and checks the verdict
/// client-side.
fn solve_probe(addr: &str, probe: &Ensemble, tally: &Tally) -> bool {
    match ask(addr, &Msg::Solve { id: 1, ens: probe.clone() }) {
        Some(Msg::Verdict { id: 1, verdict }) => check_verdict(probe, true, &verdict, tally),
        _ => false,
    }
}

/// Runs `drive(c)` for every connection `c` on its own thread and
/// concatenates what they return (round trips).
fn fan_out(conns: usize, drive: impl Fn(usize) -> Vec<u64> + Sync) -> Vec<u64> {
    std::thread::scope(|scope| {
        let drive = &drive;
        let threads: Vec<_> = (0..conns).map(|c| scope.spawn(move || drive(c))).collect();
        threads.into_iter().flat_map(|t| t.join().expect("driver thread panicked")).collect()
    })
}

// ---------------------------------------------------------------------
// solve mode
// ---------------------------------------------------------------------

fn solve_main(mut f: Flags) {
    let addr = f.required("--addr", "HOST:PORT");
    let dump_metrics = f.switch("--dump-metrics");
    let dump_traces = f.switch("--dump-traces");
    let requests = f.num("--requests", 500) as usize;
    let conns = (f.num("--conns", 4) as usize).max(1);
    let seed = f.num("--seed", 1);
    let dup_every = f.num("--dup-every", 3) as usize;
    let reject_every = f.num("--reject-every", 4) as usize;
    let n_lo = f.num("--n-lo", 48) as usize;
    let n_hi = f.num("--n-hi", 160) as usize;
    let expect_hits = f.switch("--expect-hits");
    let expect_metrics = f.switch("--expect-metrics");
    let expect_traces = f.switch("--expect-traces");
    let open_loop = f.switch("--open-loop");
    let idle_conns = f.num("--idle-conns", 0) as usize;
    f.finish();

    if dump_metrics || dump_traces {
        // scrape-and-print: fetch one dump frame and exit
        let (dump, frame) = if dump_metrics {
            (fetch_metrics(&addr), "GetMetrics")
        } else {
            (fetch_traces(&addr), "GetTraces")
        };
        let Some(dump) = dump else {
            eprintln!("FAIL: could not fetch the {frame} dump");
            std::process::exit(1);
        };
        print!("{dump}");
        return;
    }

    // deterministic schedule (shared definition: c1p_matrix::generate) +
    // in-process expected verdicts
    let schedule =
        mixed_schedule(MixedSchedule { requests, seed, dup_every, reject_every, n_lo, n_hi });
    let expected: Vec<bool> = schedule.iter().map(|e| c1p_core::solve(e).is_ok()).collect();
    let accepts = expected.iter().filter(|&&b| b).count();
    println!(
        "load_driver: {requests} requests ({accepts} accept / {} reject expected), \
         {conns} connection(s){}{}, seed {seed}",
        requests - accepts,
        if open_loop { " open-loop" } else { "" },
        if idle_conns > 0 { format!(" + {idle_conns} idle") } else { String::new() },
    );

    // idle connections: opened first, held for the whole run, never
    // written to — an event loop carries them for the cost of a pollfd,
    // a thread-per-connection server for a blocked thread each
    let idle: Vec<Link> = (0..idle_conns)
        .map(|i| {
            Link::connect(&addr).unwrap_or_else(|e| panic!("load_driver: idle connection {i}: {e}"))
        })
        .collect();

    let tally = Tally::default();
    let t0 = Instant::now();
    let latencies =
        fan_out(conns, |c| drive_solves(&addr, c, conns, &schedule, &expected, open_loop, &tally));
    let wall = t0.elapsed().as_secs_f64();

    let hits = fetch_stat(&addr, "hits").unwrap_or(-1);
    let completed = get(&tally.completed);
    let rate = completed as f64 / wall.max(1e-9);
    if open_loop {
        // pipelined sends make per-request round-trips meaningless;
        // throughput is the number that matters here
        println!("completed {completed}/{requests} in {wall:.2}s ({rate:.0} req/s, open loop)");
    } else {
        let lat = percentiles(latencies);
        println!("completed {completed}/{requests} in {wall:.2}s ({rate:.0} req/s) | {lat}");
    }
    drop(idle);
    tally.report(&format!("server cache hits {hits}"));
    print_durability(&addr);

    let mut ok = tally.passes(Some(requests as u64));
    if expect_hits && hits <= 0 {
        eprintln!("FAIL: expected a nonzero server cache hit count, got {hits}");
        ok = false;
    }
    ok &= !expect_metrics || check_metrics(&addr, expect_hits, &[]);
    // the percentiles above are client-side clocks; the server's own
    // histogram must account for (at least) every request served
    ok &= check_latency_agreement(&addr, completed);
    ok &= !expect_traces || check_traces(&addr, false);
    conclude(ok, "load_driver: all checks passed");
}

/// Sends connection `c`'s round-robin share of the schedule and checks
/// every reply against the in-process verdict. Closed loop waits for each
/// reply and returns the round trips. Open loop has a writer thread
/// pipeline the whole share while this thread reads the replies back in
/// order — the protocol's per-connection in-order guarantee makes the
/// pairing exact — and returns no round trips, which mean nothing when
/// requests queue behind each other in the socket.
fn drive_solves(
    addr: &str,
    c: usize,
    conns: usize,
    schedule: &[Ensemble],
    expected: &[bool],
    open_loop: bool,
    tally: &Tally,
) -> Vec<u64> {
    let mut link =
        Link::connect(addr).unwrap_or_else(|e| panic!("load_driver: cannot connect {addr}: {e}"));
    let share: Vec<usize> = (c..schedule.len()).step_by(conns).collect();
    let request = |i: usize| Msg::Solve { id: i as u64, ens: schedule[i].clone() };
    let writer = open_loop.then(|| {
        // pre-encode the whole share so the writer thread owns plain
        // bytes and the socket sees back-to-back frames
        let mut burst = Vec::new();
        for &i in &share {
            write_frame(&mut burst, &encode_msg(&request(i))).expect("Vec write cannot fail");
        }
        let mut tx = link.try_clone().expect("clone stream");
        std::thread::spawn(move || tx.send(&burst))
    });
    for &i in &share {
        match if open_loop { link.recv() } else { link.call(&request(i)) } {
            Some(Msg::Verdict { id, verdict }) if id == i as u64 => {
                check_verdict(&schedule[i], expected[i], &verdict, tally);
                bump(&tally.completed);
            }
            Some(other) => {
                eprintln!("unexpected response to request {i}: {other:?}");
                bump(&tally.protocol_errors);
            }
            None => {
                bump(&tally.protocol_errors);
                break;
            }
        }
    }
    if writer.is_some_and(|w| !w.join().expect("writer thread panicked")) {
        bump(&tally.protocol_errors);
    }
    link.rtts_us
}

/// The `--expect-metrics` gate: fetches the plain-text dump and checks
/// (a) every stable series name renders — the name set is the contract —
/// and (b) the counters this load necessarily exercised are nonzero.
/// `extra` names more series the caller's load must have moved (chaos
/// mode adds its fault/supervision counters).
fn check_metrics(addr: &str, expect_hits: bool, extra: &[&str]) -> bool {
    let Some(dump) = retried(|| fetch_metrics(addr)) else {
        eprintln!("FAIL: could not fetch the GetMetrics dump");
        return false;
    };
    let mut ok = true;
    for name in c1p_net::metrics::STABLE_NAMES {
        if !dump.lines().any(|l| l.starts_with(name)) {
            eprintln!("FAIL: stable metric {name} missing from the dump");
            ok = false;
        }
    }
    let mut exercised = vec![
        "c1pd_requests_total",
        "c1pd_connections_accepted_total",
        "c1pd_frames_read_total",
        "c1pd_frames_written_total",
        "c1pd_bytes_read_total",
        "c1pd_bytes_written_total",
        "c1pd_frame_latency_us_count",
        "c1pd_shard_jobs_total{shard=\"0\"}",
    ];
    if expect_hits {
        exercised.push("c1pd_cache_hits_total");
    }
    exercised.extend_from_slice(extra);
    for series in exercised {
        match c1p_net::metrics::scrape(&dump, series) {
            Some(v) if v > 0.0 => {}
            got => {
                eprintln!("FAIL: metric {series} should be nonzero after this load, got {got:?}");
                ok = false;
            }
        }
    }
    if ok {
        let names = c1p_net::metrics::STABLE_NAMES.len();
        println!("metrics: all {names} stable series present and exercised");
    }
    ok
}

/// The `--expect-traces` gate: the server must have retained at least
/// one trace, and across the retained set every lifecycle span name must
/// appear, with at least 3 solver phase children. Chaos runs must also
/// have tail-sampled at least one slow or error trace — the retention
/// policy's whole point.
fn check_traces(addr: &str, chaos: bool) -> bool {
    let Some(jsonl) = retried(|| fetch_traces(addr)) else {
        eprintln!("FAIL: could not fetch the GetTraces dump");
        return false;
    };
    let lines: Vec<&str> = jsonl.lines().filter(|l| !l.is_empty()).collect();
    if lines.is_empty() {
        eprintln!("FAIL: no retained traces (is the server running with --trace-sample?)");
        return false;
    }
    let mut ok = true;
    let mut seen = std::collections::HashSet::new();
    for l in &lines {
        for chunk in l.split("{\"name\":\"").skip(1) {
            if let Some(end) = chunk.find('"') {
                seen.insert(chunk[..end].to_string());
            }
        }
    }
    for name in ["request", "decode", "admission", "queue", "mailbox", "cache", "solve", "flush"] {
        if !seen.contains(name) {
            eprintln!("FAIL: lifecycle span {name:?} absent from every retained trace");
            ok = false;
        }
    }
    let phases = seen.iter().filter(|n| n.starts_with("solve/")).count();
    if phases < 3 {
        eprintln!("FAIL: expected >= 3 solver phase spans across the traces, saw {phases}");
        ok = false;
    }
    let tail_kept = |l: &&str| l.contains("\"keep\":\"slow\"") || l.contains("\"keep\":\"error\"");
    if chaos && !lines.iter().any(tail_kept) {
        eprintln!("FAIL: a chaos run should tail-sample at least one slow/error trace");
        ok = false;
    }
    if ok {
        println!("traces: {} retained, {} distinct span names", lines.len(), seen.len());
    }
    ok
}

/// The latency-agreement check: the server's `c1pd_frame_latency_us`
/// histogram must be internally consistent (cumulative buckets whose
/// +Inf total equals `_count`) and must account for at least every
/// request this driver completed (`>=`, not `==`: the driver's own
/// stats/metrics probes are frames too).
fn check_latency_agreement(addr: &str, completed: u64) -> bool {
    let Some(dump) = retried(|| fetch_metrics(addr)) else {
        eprintln!("FAIL: could not fetch metrics for the latency agreement check");
        return false;
    };
    let mut cumulative: Vec<u64> = Vec::new();
    for l in dump.lines() {
        if let Some(rest) = l.strip_prefix("c1pd_frame_latency_us_bucket{le=") {
            // `"4"} 123` or `"4"} 123 # {trace_id="…"}` — value is the
            // first token after the label block
            let Some(v) = rest
                .split_once("} ")
                .and_then(|(_, v)| v.split_whitespace().next())
                .and_then(|t| t.parse::<u64>().ok())
            else {
                eprintln!("FAIL: unparseable latency bucket line: {l}");
                return false;
            };
            cumulative.push(v);
        }
    }
    let Some(&inf) = cumulative.last() else {
        eprintln!("FAIL: no frame latency buckets in the metrics dump");
        return false;
    };
    let mut ok = true;
    if cumulative.windows(2).any(|w| w[0] > w[1]) {
        eprintln!("FAIL: latency buckets are not cumulative: {cumulative:?}");
        ok = false;
    }
    let count =
        c1p_net::metrics::scrape(&dump, "c1pd_frame_latency_us_count").map_or(-1, |v| v as i64);
    if inf as i64 != count {
        eprintln!("FAIL: +Inf bucket {inf} disagrees with histogram count {count}");
        ok = false;
    }
    if count < completed as i64 {
        eprintln!(
            "FAIL: server histogram counted {count} frames but the driver completed {completed}"
        );
        ok = false;
    }
    if ok {
        println!(
            "latency histogram agrees: {count} server observations cover \
             {completed} completed requests"
        );
    }
    ok
}

// ---------------------------------------------------------------------
// the stream auditor, shared by the sessions, crash and chaos modes
// ---------------------------------------------------------------------

/// One deterministic session stream plus what the client expects of it.
struct StreamPlan {
    stream: AppendStream,
    /// Push index that must come back rejected (`None` = accept-only).
    reject_at: Option<usize>,
}

/// The seeded stream workload a stream mode reads from its flags.
struct PlanSpec {
    streams: usize,
    pushes: usize,
    blocks: usize,
    seed: u64,
    reject_every: usize,
    n_lo: usize,
    n_hi: usize,
}

impl PlanSpec {
    /// Reads the workload flags; the modes differ only in these
    /// defaults and in the least `--pushes` they take.
    fn from_flags(f: &mut Flags, streams: u64, pushes: u64, min_pushes: usize, n_hi: u64) -> Self {
        let spec = PlanSpec {
            streams: (f.num("--streams", streams) as usize).max(1),
            pushes: (f.num("--pushes", pushes) as usize).max(min_pushes),
            blocks: (f.num("--blocks", 4) as usize).max(1),
            seed: f.num("--seed", 1),
            reject_every: f.num("--reject-every", 3) as usize,
            n_lo: f.num("--n-lo", 64) as usize,
            n_hi: f.num("--n-hi", n_hi) as usize,
        };
        if spec.n_lo < 16 * spec.blocks || spec.n_hi < spec.n_lo {
            f.usage("a planted reject needs 16 × --blocks <= --n-lo <= --n-hi");
        }
        spec
    }

    /// Stream `s` gets seed `seed·2609 + s` and
    /// `n_lo + (stream seed · 31) mod (n_hi − n_lo + 1)` atoms, and every
    /// `reject_every`-th stream is planted with a reject. CI jobs replay
    /// these exact streams, so the formula is part of the contract.
    fn plans(&self) -> Vec<StreamPlan> {
        (0..self.streams)
            .map(|s| {
                let stream_seed = self.seed.wrapping_mul(2609).wrapping_add(s as u64);
                let span = self.n_hi - self.n_lo + 1;
                let n = self.n_lo + (stream_seed as usize).wrapping_mul(31) % span;
                if self.reject_every > 0 && s % self.reject_every == self.reject_every - 1 {
                    let (stream, at, _) =
                        append_stream_reject(n, self.blocks, self.pushes, stream_seed);
                    StreamPlan { stream, reject_at: Some(at) }
                } else {
                    let stream = append_stream(n, self.blocks, self.pushes, stream_seed);
                    StreamPlan { stream, reject_at: None }
                }
            })
            .collect()
    }
}

/// The client-side audit of one session stream: its plan, the prefix
/// the server accepted so far, and an incremental Booth–Lueker mirror
/// that predicts every verdict without the solver.
struct StreamCheck<'p> {
    plan: &'p StreamPlan,
    accepted: Vec<Vec<Atom>>,
    mirror: Reducer,
    /// The mirror's verdict on the push in flight (`true` = accept).
    predicted: bool,
}

impl<'p> StreamCheck<'p> {
    fn new(plan: &'p StreamPlan) -> Self {
        let mirror = Reducer::new(plan.stream.n_atoms);
        StreamCheck { plan, accepted: Vec::new(), mirror, predicted: true }
    }

    fn n(&self) -> usize {
        self.plan.stream.n_atoms
    }

    /// Feeds push `k` to the mirror; returns the delta to send and the
    /// predicted verdict (`true` = accept).
    fn push(&mut self, k: usize) -> (Ensemble, bool) {
        let plan = self.plan;
        self.predicted =
            plan.stream.pushes[k].iter().fold(true, |ok, col| self.mirror.push(col) & ok);
        (plan.stream.push_ensemble(k), self.predicted)
    }

    /// Audits the server's answer to push `k`, then commits it. An
    /// Accept's order must pass `verify_linear` and a Reject's witness
    /// `verify_witness`, both against the accepted prefix plus push `k`;
    /// a verdict that differs from the mirror's prediction, or lands on
    /// the wrong side of the planted reject, is a disagreement. A push
    /// the retry handshake proved applied (`RecoveredAccepted`) brings
    /// no verdict to verify, so it gets the disagreement check alone. An
    /// accepted push joins the prefix; a rejected one was rolled back
    /// server-side, so the mirror is rebuilt from the prefix.
    fn settle(&mut self, k: usize, outcome: PushOutcome, tally: &Tally) {
        let plan = self.plan;
        let push = &plan.stream.pushes[k];
        let accepted = !matches!(outcome, PushOutcome::Verdict(WireVerdict::Reject { .. }));
        if accepted != self.predicted || accepted == (plan.reject_at == Some(k)) {
            bump(&tally.disagreements);
        }
        if let PushOutcome::Verdict(verdict) = &outcome {
            let concat = [&self.accepted[..], &push[..]].concat();
            let concat = Ensemble::from_columns(self.n(), concat).expect("stream columns valid");
            if !verifies(&concat, verdict) {
                bump(&tally.verify_failures);
            }
        }
        if accepted {
            self.accepted.extend_from_slice(push);
        } else {
            self.rollback();
        }
    }

    /// Rebuilds the mirror from the accepted prefix: after a rejected
    /// push, and after a push whose reply never came (crash mode
    /// retries it).
    fn rollback(&mut self) {
        self.mirror = Reducer::new(self.n());
        for col in &self.accepted {
            self.mirror.push(col);
        }
    }

    fn accepted_ensemble(&self) -> Ensemble {
        Ensemble::from_columns(self.n(), self.accepted.clone()).expect("stream columns valid")
    }

    /// Audits a sealed order: it must equal a one-shot in-process solve
    /// of the accepted concatenation, bit for bit.
    fn seal(&self, order: &[Atom], tally: &Tally) {
        if !c1p_core::solve(&self.accepted_ensemble()).is_ok_and(|expect| expect == order) {
            bump(&tally.disagreements);
        }
    }
}

/// A session stream driven over a plain [`Link`] (session and crash
/// mode): the audit plus how far the server has got. Crash mode keeps
/// it across server generations; the session handle survives restarts,
/// because recovery rebuilds the session under the same id.
struct SessionStream<'p> {
    check: StreamCheck<'p>,
    session: Option<u64>,
    next_push: usize,
    sealed: bool,
}

/// Why [`SessionStream::drive`] stopped before the seal.
enum Halt {
    /// The acknowledged-operation budget ran out.
    Budget,
    /// No reply: the connection died.
    Died,
    /// An illegal reply, already counted as a protocol error.
    Protocol,
}

impl<'p> SessionStream<'p> {
    fn new(plan: &'p StreamPlan) -> Self {
        SessionStream { check: StreamCheck::new(plan), session: None, next_push: 0, sealed: false }
    }

    /// Opens the session if it has no handle yet, sends the remaining
    /// pushes and seals, auditing every verdict; each acknowledged
    /// operation spends one unit of `budget`. A push that gets no legal
    /// reply is rolled back out of the mirror, to be retried.
    fn drive(
        &mut self,
        link: &mut Link,
        ids: &mut u64,
        budget: &mut usize,
        tally: &Tally,
    ) -> Result<(), Halt> {
        let mut op = |make: &dyn Fn(u64) -> Msg, legal: &dyn Fn(u64, &WireVerdict) -> bool| {
            if *budget == 0 {
                return Err(Halt::Budget);
            }
            *ids += 1;
            match link.call(&make(*ids)).ok_or(Halt::Died)? {
                Msg::SessionVerdict { id, session, verdict }
                    if id == *ids && legal(session, &verdict) =>
                {
                    *budget -= 1;
                    bump(&tally.completed);
                    Ok((session, verdict))
                }
                other => {
                    eprintln!("unexpected reply to request {}: {other:?}", *ids);
                    bump(&tally.protocol_errors);
                    Err(Halt::Protocol)
                }
            }
        };
        let session = match self.session {
            Some(session) => session,
            None => {
                // the open ack's verdict is the empty state: an elided
                // identity order (see the proto docs)
                let n_atoms = self.check.n() as u64;
                let empty = |_: u64, v: &WireVerdict| *v == WireVerdict::Accept { order: vec![] };
                let (session, _) = op(&|id| Msg::OpenSession { id, n_atoms }, &empty)?;
                *self.session.insert(session)
            }
        };
        let ours = |s: u64, _: &WireVerdict| s == session;
        while self.next_push < self.check.plan.stream.pushes.len() {
            let k = self.next_push;
            let (delta, _) = self.check.push(k);
            let push = |id| Msg::PushAtoms { id, session, delta: delta.clone() };
            match op(&push, &ours) {
                Ok((_, verdict)) => self.check.settle(k, PushOutcome::Verdict(verdict), tally),
                Err(halt) => {
                    self.check.rollback();
                    return Err(halt);
                }
            }
            self.next_push += 1;
        }
        let sealed =
            |s: u64, v: &WireVerdict| s == session && matches!(v, WireVerdict::Accept { .. });
        if let (_, WireVerdict::Accept { order }) =
            op(&|id| Msg::SealSession { id, session }, &sealed)?
        {
            self.check.seal(&order, tally);
        }
        self.sealed = true;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// session mode
// ---------------------------------------------------------------------

fn sessions_main(mut f: Flags) {
    let addr = f.required("--addr", "HOST:PORT");
    let spec = PlanSpec::from_flags(&mut f, 8, 6, 1, 192);
    let conns = (f.num("--conns", 4) as usize).max(1).min(spec.streams);
    f.finish();
    let plans = spec.plans();
    let rejects = plans.iter().filter(|p| p.reject_at.is_some()).count();
    println!(
        "load_driver: {} session stream(s) × {} pushes ({rejects} with a planted reject), \
         {conns} connection(s), seed {}",
        spec.streams, spec.pushes, spec.seed
    );

    let tally = Tally::default();
    let t0 = Instant::now();
    let latencies = fan_out(conns, |c| {
        let mut link = Link::connect(&addr)
            .unwrap_or_else(|e| panic!("load_driver: cannot connect {addr}: {e}"));
        let (mut ids, mut unlimited) = ((c as u64) << 32, usize::MAX);
        for plan in plans.iter().skip(c).step_by(conns) {
            // a stream that breaks is abandoned, so one fault does not
            // cascade into bogus disagreements on every later push
            let drive = SessionStream::new(plan).drive(&mut link, &mut ids, &mut unlimited, &tally);
            if let Err(Halt::Died) = drive {
                eprintln!("connection lost mid-stream; abandoning stream");
                bump(&tally.protocol_errors);
            }
        }
        link.rtts_us
    });
    let wall = t0.elapsed().as_secs_f64();

    let sealed = fetch_stat(&addr, "sessions_sealed").unwrap_or(-1);
    let completed = get(&tally.completed);
    let expected_ops = (spec.streams * (spec.pushes + 2)) as u64; // open + pushes + seal
    println!(
        "completed {completed}/{expected_ops} session ops in {wall:.2}s ({:.0} ops/s) | {}",
        completed as f64 / wall.max(1e-9),
        percentiles(latencies),
    );
    tally.report(&format!("server sessions sealed {sealed}"));
    print_durability(&addr);

    let mut ok = tally.passes(Some(expected_ops));
    if sealed != spec.streams as i64 {
        eprintln!("FAIL: expected {} sealed sessions on the server, got {sealed}", spec.streams);
        ok = false;
    }
    conclude(ok, "load_driver: all session checks passed");
}

// ---------------------------------------------------------------------
// crash mode
// ---------------------------------------------------------------------

/// Starts `c1pd` for crash and chaos mode: an ephemeral loopback port
/// read back from `port_file`, a 2-thread pool, stdout discarded, then
/// `flags`. Returns the child and its address.
fn spawn_server(bin: &str, port_file: &Path, flags: &[(&str, &dyn Display)]) -> (Child, String) {
    let _ = std::fs::remove_file(port_file);
    let mut cmd = Command::new(bin);
    cmd.args(["--addr", "127.0.0.1:0", "--threads", "2", "--port-file"]).arg(port_file);
    for (flag, value) in flags {
        cmd.arg(flag).arg(value.to_string());
    }
    let child =
        cmd.stdout(Stdio::null()).spawn().unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    (child, format!("127.0.0.1:{}", wait_port(port_file)))
}

/// Polls the bare-port file a spawned `c1pd --port-file` writes.
fn wait_port(path: &Path) -> u16 {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(port) = std::fs::read_to_string(path).ok().and_then(|s| s.trim().parse().ok()) {
            return port;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("server did not write {} within 30s", path.display());
}

fn crash_main(mut f: Flags) {
    let server = f.required("--server", "PATH (the c1pd binary)");
    let wal_dir = f.value("--wal-dir").map_or_else(
        || std::env::temp_dir().join(format!("c1p-crash-{}", std::process::id())),
        PathBuf::from,
    );
    let cycles = (f.num("--cycles", 5) as usize).max(2);
    let spec = PlanSpec::from_flags(&mut f, 6, 8, 2, 160);
    let snapshot_ms = f.num("--snapshot-ms", 50);
    let fault_every = f.num("--fault-every", 2) as usize;
    f.finish();
    std::fs::create_dir_all(&wal_dir).expect("create --wal-dir");

    // the driver never dies, so its streams — not the server — are the
    // arbiter of what was accepted
    let plans = spec.plans();
    let mut streams: Vec<SessionStream> = plans.iter().map(SessionStream::new).collect();
    // the warm-start probe: solved cold in cycle 0, snapshotted, and from
    // every restart on its first solve must be served warm
    let probe = append_stream(spec.n_lo, spec.blocks, 2, spec.seed ^ 0x9e37).final_ensemble();
    let seed = spec.seed as usize;
    let tally = Tally::default();
    let (mut anomalies, mut kills, mut faults) = (0u64, 0usize, 0usize);
    let mut anomaly = |msg: String| {
        eprintln!("FAIL: {msg}");
        anomalies += 1;
    };
    println!(
        "load_driver crash: {} stream(s) × {} pushes over {cycles} cycle(s), wal dir {}, seed {}",
        spec.streams,
        spec.pushes,
        wal_dir.display(),
        spec.seed
    );

    for cycle in 0..cycles {
        let last = cycle + 1 == cycles;
        // every --fault-every-th crash dies mid-WAL-append instead of
        // between acknowledged operations
        let fault = !last && fault_every > 0 && cycle % fault_every == fault_every - 1;
        let fault_after = if fault { 1 + seed.wrapping_add(13 * cycle) % 4 } else { 0 }; // 0 = off
        let (mut child, addr) = spawn_server(
            &server,
            &wal_dir.join(format!("port-{cycle}")),
            &[
                ("--wal-dir", &wal_dir.display()),
                ("--snapshot-ms", &snapshot_ms),
                ("--wal-fault-after", &fault_after),
            ],
        );

        // restart audits: nothing quarantined, every live session back,
        // and the probe answered from the snapshot-warmed cache
        let quarantined = fetch_stat(&addr, "quarantined_wals").unwrap_or(-1);
        if quarantined != 0 {
            anomaly(format!("cycle {cycle}: {quarantined} quarantined WAL(s) after restart"));
        }
        if cycle > 0 {
            let live = streams.iter().filter(|s| s.session.is_some() && !s.sealed).count() as i64;
            let recovered = fetch_stat(&addr, "recovered_sessions").unwrap_or(-1);
            if recovered < live {
                anomaly(format!("cycle {cycle}: recovered {recovered} of {live} live session(s)"));
            }
        }
        if !solve_probe(&addr, &probe, &tally) {
            anomaly(format!("cycle {cycle}: warm-start probe solve failed"));
        }
        // baseline for the pre-kill snapshot gate: a snapshot write may be
        // in flight with a cache image read *before* the probe landed, so
        // the gate below waits for two increments past this point — the
        // second one provably started after the probe was cached
        let snap_base = fetch_stat(&addr, "snapshot_writes").unwrap_or(0).max(0);
        if cycle > 0 && fetch_stat(&addr, "warm_start_hits").unwrap_or(-1) < 1 {
            anomaly(format!("cycle {cycle}: first probe solve after restart was not warm"));
        }

        // drive: unbounded on fault cycles (the server picks the crash
        // instant) and on the last cycle (everything must finish); a
        // seeded acknowledged-operation budget otherwise
        let budget = if last || fault {
            usize::MAX
        } else {
            2 + seed.wrapping_mul(31).wrapping_add(17 * cycle) % 6
        };
        let conn_died = drive_crash_cycle(&addr, &mut streams, budget, &tally);

        if last {
            if conn_died || !streams.iter().all(|s| s.sealed) {
                anomaly("final cycle did not seal every stream".into());
            }
            print_durability(&addr);
            child.kill().ok();
        } else if fault && conn_died {
            faults += 1; // the server aborted itself mid-append
        } else {
            if conn_died {
                anomaly(format!("cycle {cycle}: connection died without an injected fault"));
            }
            // make sure a snapshot that *postdates the probe solve* exists
            // before the kill, so the next boot warm-starts the probe
            if !wait_stat_at_least(&addr, "snapshot_writes", snap_base + 2) {
                anomaly(format!("cycle {cycle}: no post-probe snapshot written before kill"));
            }
            child.kill().ok(); // SIGKILL: no goodbye, that is the point
            kills += 1;
        }
        child.wait().ok();
    }

    let sealed = streams.iter().filter(|s| s.sealed).count();
    println!(
        "crash cycles {cycles} ({kills} kill -9, {faults} mid-append fault) | \
         ops acked {} | sealed {sealed}/{}",
        get(&tally.completed),
        spec.streams
    );
    tally.report(&format!("audit anomalies {anomalies}"));
    let ok = tally.passes(None) && anomalies == 0;
    if !ok {
        eprintln!("FAIL: crash-recovery audit failed");
    }
    conclude(ok, "load_driver: all crash-recovery checks passed");
}

/// Drives every unsealed stream in order over one link, spending at most
/// `budget` acknowledged operations. Returns `true` if the connection
/// died (the injected mid-append fault fired — or the server vanished
/// unexpectedly, which the caller flags).
fn drive_crash_cycle(
    addr: &str,
    streams: &mut [SessionStream],
    budget: usize,
    tally: &Tally,
) -> bool {
    let Ok(mut link) = Link::connect(addr) else {
        return true;
    };
    let (mut ids, mut budget) = (0, budget);
    for st in streams.iter_mut().filter(|s| !s.sealed) {
        if let Err(halt) = st.drive(&mut link, &mut ids, &mut budget, tally) {
            return matches!(halt, Halt::Died);
        }
    }
    false
}

// ---------------------------------------------------------------------
// chaos mode
// ---------------------------------------------------------------------

/// Counts that only chaos mode keeps, alongside the shared [`Tally`].
#[derive(Default)]
struct ChaosTally {
    /// Operations that exceeded the client deadline — each one is a
    /// request that effectively hung. The gate is zero.
    hangs: AtomicU64,
    /// Pushes whose verdict frame was lost but whose application was
    /// proven by the recovered-hash handshake.
    recovered_pushes: AtomicU64,
    /// Seals that applied with the reply lost (order re-derived and
    /// verified via `Solve`).
    lost_seals: AtomicU64,
}

impl ChaosTally {
    /// Counts an operation the client gave up on: past its deadline it
    /// hung, anything else is a protocol error.
    fn failed(&self, what: &str, e: &ClientError, tally: &Tally) {
        if let ClientError::DeadlineExceeded { .. } = e {
            bump(&self.hangs);
        } else {
            eprintln!("{what}: {e}");
            bump(&tally.protocol_errors);
        }
    }
}

fn chaos_main(mut f: Flags) {
    let server = f.required("--server", "PATH (the c1pd binary)");
    let wal_dir = f.value("--wal-dir").map_or_else(
        || std::env::temp_dir().join(format!("c1p-chaos-{}", std::process::id())),
        PathBuf::from,
    );
    let shards = (f.num("--shards", 2) as usize).max(1);
    let spec = PlanSpec::from_flags(&mut f, 8, 6, 2, 160);
    let solves = (f.num("--solves", 60) as usize).max(1);
    let kill_every = f.num("--kill-every", 6);
    let drop_every = f.num("--drop-every", 5);
    let socket_every = f.num("--socket-every", 17);
    let delay_every = f.num("--delay-every", 11);
    let wal_torn_every = f.num("--wal-torn-every", 7);
    let deadline_ms = f.num("--deadline-ms", 400);
    let expect_metrics = f.switch("--expect-metrics");
    let trace_sample = f.num("--trace-sample", 0);
    let slow_ms = f.num("--slow-ms", 100);
    let expect_traces = f.switch("--expect-traces");
    f.finish();
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create --wal-dir");

    // the same deterministic plans session mode replays — chaos changes
    // the transport, never the workload
    let plans = spec.plans();
    let seed = spec.seed;
    let (mut child, addr) = spawn_server(
        &server,
        &wal_dir.join("port"),
        &[
            ("--shards", &shards),
            ("--wal-dir", &wal_dir.display()),
            ("--chaos-seed", &seed),
            ("--chaos-kill-every", &kill_every),
            ("--chaos-drop-every", &drop_every),
            ("--chaos-socket-every", &socket_every),
            ("--chaos-delay-every", &delay_every),
            ("--chaos-wal-torn-every", &wal_torn_every),
            ("--request-deadline-ms", &deadline_ms),
            ("--trace-sample", &trace_sample),
            ("--slow-ms", &slow_ms),
            ("--trace-seed", &seed),
        ],
    );
    println!(
        "load_driver chaos: {} stream(s) × {} pushes + {solves} solve(s) against \
         {shards} shard(s); kill/{kill_every} drop/{drop_every} socket/{socket_every} \
         delay/{delay_every} wal-torn/{wal_torn_every}, deadline {deadline_ms}ms, seed {seed}",
        spec.streams, spec.pushes
    );

    let tally = Tally::default();
    let chaos = ChaosTally::default();
    let t0 = Instant::now();
    let client_retries = std::thread::scope(|scope| {
        let streams = scope.spawn(|| drive_chaos_streams(&addr, &plans, &tally, &chaos, seed));
        let singles = scope.spawn(|| drive_chaos_solves(&addr, solves, seed, &tally, &chaos));
        streams.join().expect("sessions thread panicked")
            + singles.join().expect("solves thread panicked")
    });
    let wall = t0.elapsed();

    let hangs = get(&chaos.hangs);
    let expected_ops = (spec.streams * (spec.pushes + 2) + solves) as u64;
    println!(
        "completed {}/{expected_ops} ops in {:.2}s | client retries {client_retries} \
         ({} pushes recovered by handshake, {} seals re-derived)",
        get(&tally.completed),
        wall.as_secs_f64(),
        get(&chaos.recovered_pushes),
        get(&chaos.lost_seals),
    );
    tally.report(&format!("hangs {hangs}"));

    // the chaos must be real: scrape the proof before killing the server
    let mut ok = true;
    let scrape = |dump: &str, name: &str| c1p_net::metrics::scrape(dump, name).unwrap_or(-1.0);
    match retried(|| fetch_metrics(&addr)) {
        Some(dump) => {
            let injected = scrape(&dump, "c1pd_faults_injected_total");
            let restarts = scrape(&dump, "c1pd_shard_restarts_total");
            println!(
                "server: faults injected {injected} | shard restarts {restarts} | \
                 swept replies {} | deadline reaps {} | handshake queries {}",
                scrape(&dump, "c1pd_degraded_replies_total"),
                scrape(&dump, "c1pd_deadline_expired_total"),
                scrape(&dump, "c1pd_retries_total"),
            );
            if injected < 1.0 {
                eprintln!("FAIL: the fault plan never fired — this was not a chaos run");
                ok = false;
            }
            if restarts < 1.0 {
                eprintln!("FAIL: no supervised shard restart happened");
                ok = false;
            }
            // read from the retried dump: `GetStats` reports the same sum,
            // but one unretried connection can meet an injected fault
            let recovered = scrape(&dump, "c1pd_recovered_sessions_total");
            if recovered < 1.0 {
                eprintln!("FAIL: no session was recovered from the WAL after a restart");
                ok = false;
            }
            println!("server: sessions recovered from WAL after restarts: {recovered}");
        }
        None => {
            eprintln!("FAIL: could not scrape the server after the run");
            ok = false;
        }
    }
    let chaos_series = [
        "c1pd_faults_injected_total",
        "c1pd_retries_total",
        "c1pd_shard_restarts_total",
        "c1pd_degraded_replies_total",
        "c1pd_deadline_expired_total",
    ];
    ok &= !expect_metrics || check_metrics(&addr, false, &chaos_series);
    ok &= !expect_traces || check_traces(&addr, true);
    child.kill().ok();
    child.wait().ok();
    let _ = std::fs::remove_dir_all(&wal_dir);

    ok &= tally.passes(Some(expected_ops));
    if hangs > 0 {
        eprintln!("FAIL: {hangs} operation(s) outlived the client deadline");
        ok = false;
    }
    conclude(ok, "load_driver: all chaos checks passed");
}

/// The chaos retry policy: a deadline far above any injected stall so a
/// `DeadlineExceeded` can only mean a genuine hang, and a tight backoff
/// so the run stays fast.
fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(60),
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        seed,
    }
}

/// Streams every session plan through the self-healing client, auditing
/// each with a [`StreamCheck`]. Returns the client's transport retry
/// count.
fn drive_chaos_streams(
    addr: &str,
    plans: &[StreamPlan],
    tally: &Tally,
    chaos: &ChaosTally,
    seed: u64,
) -> u64 {
    let mut client = Client::new(addr, chaos_policy(seed ^ 0xC1A0));
    'plans: for (s, plan) in plans.iter().enumerate() {
        let mut check = StreamCheck::new(plan);
        let mut session = match client.open_session(check.n()) {
            Ok(session) => session,
            Err(e) => {
                chaos.failed(&format!("stream {s}: open failed"), &e, tally);
                continue;
            }
        };
        bump(&tally.completed);
        for k in 0..plan.stream.pushes.len() {
            let (delta, _) = check.push(k);
            match session.push(&delta) {
                Ok(outcome) => {
                    bump(&tally.completed);
                    if let PushOutcome::RecoveredAccepted = outcome {
                        bump(&chaos.recovered_pushes);
                    }
                    check.settle(k, outcome, tally);
                }
                Err(e) => {
                    chaos.failed(&format!("stream {s} push {k}"), &e, tally);
                    continue 'plans;
                }
            }
        }
        match session.seal() {
            Ok(SealOutcome::Order(order)) => {
                bump(&tally.completed);
                check.seal(&order, tally);
            }
            Ok(SealOutcome::LostButSealed) => {
                bump(&tally.completed);
                bump(&chaos.lost_seals);
                // the reply is unrecoverable but the order is not: solve
                // the accepted concatenation and verify the answer
                let fin = check.accepted_ensemble();
                match client.solve(&fin) {
                    Ok(verdict) => {
                        check_verdict(&fin, true, &verdict, tally);
                    }
                    Err(e) => chaos.failed(&format!("stream {s}: post-seal solve"), &e, tally),
                }
            }
            Err(e) => chaos.failed(&format!("stream {s} seal"), &e, tally),
        }
    }
    client.retries()
}

/// Runs the mixed solve schedule through a retrying client, verifying
/// every verdict client-side. Returns the client's transport retry count.
fn drive_chaos_solves(
    addr: &str,
    solves: usize,
    seed: u64,
    tally: &Tally,
    chaos: &ChaosTally,
) -> u64 {
    let schedule = mixed_schedule(MixedSchedule {
        requests: solves,
        seed: seed ^ 0x50_1f,
        dup_every: 3,
        reject_every: 4,
        n_lo: 48,
        n_hi: 128,
    });
    let mut client = Client::new(addr, chaos_policy(seed ^ 0x50_1f));
    for (i, ens) in schedule.iter().enumerate() {
        match client.solve(ens) {
            Ok(verdict) => {
                bump(&tally.completed);
                check_verdict(ens, c1p_core::solve(ens).is_ok(), &verdict, tally);
            }
            Err(e) => chaos.failed(&format!("solve {i}"), &e, tally),
        }
    }
    client.retries()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// incr-smoke's streams: `--mode sessions --streams 12 --pushes 6
    /// --seed 3271` with the session-mode defaults.
    fn smoke_spec() -> PlanSpec {
        PlanSpec {
            streams: 12,
            pushes: 6,
            blocks: 4,
            seed: 3271,
            reject_every: 3,
            n_lo: 64,
            n_hi: 192,
        }
    }

    /// Smoke stream 11: 92 atoms, 6 pushes, the reject planted at push 4.
    fn reject_plan() -> StreamPlan {
        let plan = smoke_spec().plans().swap_remove(11);
        assert_eq!(plan.reject_at, Some(PLANTED));
        plan
    }

    const PLANTED: usize = 4;

    /// What an honest server answers to push `k` on top of `check`'s
    /// accepted prefix.
    fn honest(check: &StreamCheck, k: usize) -> WireVerdict {
        let concat = [&check.accepted[..], &check.plan.stream.pushes[k][..]].concat();
        let concat = Ensemble::from_columns(check.n(), concat).unwrap();
        match c1p_cert::solve_certified(&concat) {
            Ok(order) => WireVerdict::Accept { order },
            Err(cert) => WireVerdict::Reject {
                family: cert.witness.family,
                atom_rows: cert.witness.atom_rows,
                column_ids: cert.witness.column_ids,
            },
        }
    }

    /// A checker whose pushes `0..k` were answered honestly.
    fn settled_up_to<'p>(plan: &'p StreamPlan, k: usize, tally: &Tally) -> StreamCheck<'p> {
        let mut check = StreamCheck::new(plan);
        for j in 0..k {
            check.push(j);
            let verdict = honest(&check, j);
            check.settle(j, PushOutcome::Verdict(verdict), tally);
        }
        check
    }

    /// `[verify failures, disagreements]`.
    fn counts(tally: &Tally) -> [u64; 2] {
        [get(&tally.verify_failures), get(&tally.disagreements)]
    }

    #[test]
    fn plan_builder_replays_the_incr_smoke_streams() {
        let got: Vec<(usize, Option<usize>)> =
            smoke_spec().plans().iter().map(|p| (p.stream.n_atoms, p.reject_at)).collect();
        let want = [
            (138, None),
            (169, None),
            (71, Some(5)),
            (102, None),
            (133, None),
            (164, Some(0)),
            (66, None),
            (97, None),
            (128, Some(0)),
            (159, None),
            (190, None),
            (92, Some(4)),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn an_honest_stream_settles_and_seals_without_a_count() {
        let plan = reject_plan();
        let tally = Tally::default();
        let check = settled_up_to(&plan, plan.stream.pushes.len(), &tally);
        let order = c1p_core::solve(&check.accepted_ensemble()).unwrap();
        check.seal(&order, &tally);
        assert_eq!(counts(&tally), [0, 0]);
        // every push but the planted one joined the prefix
        let kept = plan.stream.n_columns() - plan.stream.pushes[PLANTED].len();
        assert_eq!(check.accepted.len(), kept);
    }

    #[test]
    fn an_accept_whose_order_fails_verify_linear_is_a_verify_failure() {
        let plan = reject_plan();
        let tally = Tally::default();
        let mut check = settled_up_to(&plan, 1, &tally);
        assert!(check.push(1).1);
        let WireVerdict::Accept { mut order } = honest(&check, 1) else { panic!("push 1 accepts") };
        order.pop();
        check.settle(1, PushOutcome::Verdict(WireVerdict::Accept { order }), &tally);
        assert_eq!(counts(&tally), [1, 0]);
    }

    #[test]
    fn an_accept_on_the_planted_reject_push_is_a_disagreement() {
        let plan = reject_plan();
        let tally = Tally::default();
        let mut check = settled_up_to(&plan, PLANTED, &tally);
        assert!(!check.push(PLANTED).1);
        let order = (0..check.n() as Atom).collect();
        check.settle(PLANTED, PushOutcome::Verdict(WireVerdict::Accept { order }), &tally);
        // no order realizes a non-C1P concatenation, so it fails to verify too
        assert_eq!(counts(&tally), [1, 1]);
    }

    #[test]
    fn a_reject_whose_witness_does_not_verify_is_a_verify_failure() {
        let plan = reject_plan();
        let tally = Tally::default();
        let mut check = settled_up_to(&plan, PLANTED, &tally);
        check.push(PLANTED);
        let WireVerdict::Reject { family, atom_rows, mut column_ids } = honest(&check, PLANTED)
        else {
            panic!("the planted push rejects")
        };
        // a minimal witness minus a column is C1P: nothing to refute
        column_ids.pop();
        let verdict = WireVerdict::Reject { family, atom_rows, column_ids };
        check.settle(PLANTED, PushOutcome::Verdict(verdict), &tally);
        assert_eq!(counts(&tally), [1, 0]);
    }

    #[test]
    fn a_reject_on_a_push_that_should_accept_is_a_disagreement() {
        let plan = reject_plan();
        let tally = Tally::default();
        let planted = {
            let mut check = settled_up_to(&plan, PLANTED, &Tally::default());
            check.push(PLANTED);
            honest(&check, PLANTED)
        };
        let mut check = StreamCheck::new(&plan);
        check.push(0);
        check.settle(0, PushOutcome::Verdict(planted), &tally);
        // a C1P concatenation has no Tucker witness either
        assert_eq!(counts(&tally), [1, 1]);
    }

    #[test]
    fn the_mirror_and_the_planted_index_are_each_checked() {
        // the plan misplaces its planted reject: an honest accept of push
        // 0 agrees with the mirror but lands on the planted index
        let mut plan = reject_plan();
        plan.reject_at = Some(0);
        let tally = Tally::default();
        settled_up_to(&plan, 1, &tally);
        assert_eq!(counts(&tally), [0, 1]);
        // the plan forgets its planted reject: an accept of that push
        // agrees with the plan but not with the mirror
        plan.reject_at = None;
        let tally = Tally::default();
        let mut check = settled_up_to(&plan, PLANTED, &tally);
        check.push(PLANTED);
        check.settle(PLANTED, PushOutcome::RecoveredAccepted, &tally);
        assert_eq!(counts(&tally), [0, 1]);
    }

    #[test]
    fn a_recovered_push_commits_with_the_disagreement_check_alone() {
        let plan = reject_plan();
        let tally = Tally::default();
        let mut check = StreamCheck::new(&plan);
        check.push(0);
        check.settle(0, PushOutcome::RecoveredAccepted, &tally);
        assert_eq!(counts(&tally), [0, 0]);
        assert_eq!(check.accepted, plan.stream.pushes[0]);
    }

    #[test]
    fn after_a_reject_the_next_honest_push_is_predicted_to_accept() {
        let plan = reject_plan();
        let tally = Tally::default();
        let mut check = settled_up_to(&plan, PLANTED + 1, &tally);
        assert_eq!(counts(&tally), [0, 0]);
        assert!(check.push(PLANTED + 1).1);
    }

    #[test]
    fn a_seal_that_differs_from_the_one_shot_solve_is_a_disagreement() {
        let plan = reject_plan();
        let tally = Tally::default();
        let check = settled_up_to(&plan, plan.stream.pushes.len(), &tally);
        let mut order = c1p_core::solve(&check.accepted_ensemble()).unwrap();
        order.reverse();
        check.seal(&order, &tally);
        assert_eq!(counts(&tally), [0, 1]);
    }
}

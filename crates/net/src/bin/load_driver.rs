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
//! **Session mode** replays deterministic append streams
//! (`c1p_matrix::generate::append_stream{,_reject}`) through the
//! `OpenSession`/`PushAtoms`/`SealSession` frames: every `--reject-every`-th
//! stream carries one planted Tucker obstruction, whose push must come
//! back rejected (and rolled back server-side) while every other verdict
//! accepts. The client mirrors each session with an incremental
//! Booth–Lueker reducer (`c1p_pqtree::Reducer`) to predict every verdict
//! independently, and gates the sealed order on **bit-identical agreement
//! with an in-process one-shot solve** of the accepted concatenation.
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
use c1p_matrix::generate::{append_stream, append_stream_reject, mixed_schedule, MixedSchedule};
use c1p_matrix::io::WireVerdict;
use c1p_matrix::{verify_linear, Atom, Ensemble};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn num_flag(args: &[String], name: &str, default: u64) -> u64 {
    flag(args, name).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| panic!("{name} takes a number, got {v:?}"))
    })
}

#[derive(Default)]
struct Tally {
    protocol_errors: AtomicU64,
    verify_failures: AtomicU64,
    disagreements: AtomicU64,
    completed: AtomicU64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flag(&args, "--mode").as_deref() {
        Some("sessions") => return sessions_main(&args),
        Some("crash") => return crash_main(&args),
        Some("chaos") => return chaos_main(&args),
        _ => {}
    }
    let addr = flag(&args, "--addr").expect("--addr HOST:PORT is required");
    if args.iter().any(|a| a == "--dump-metrics") {
        // scrape-and-print: fetch one GetMetrics frame and exit
        match fetch_metrics(&addr) {
            Some(dump) => {
                print!("{dump}");
                return;
            }
            None => {
                eprintln!("FAIL: could not fetch the GetMetrics dump");
                std::process::exit(1);
            }
        }
    }
    if args.iter().any(|a| a == "--dump-traces") {
        // print the server's retained traces as JSONL and exit
        match fetch_traces(&addr) {
            Some(jsonl) => {
                print!("{jsonl}");
                return;
            }
            None => {
                eprintln!("FAIL: could not fetch the GetTraces dump");
                std::process::exit(1);
            }
        }
    }
    let requests = num_flag(&args, "--requests", 500) as usize;
    let conns = (num_flag(&args, "--conns", 4) as usize).max(1);
    let seed = num_flag(&args, "--seed", 1);
    let dup_every = num_flag(&args, "--dup-every", 3) as usize;
    let reject_every = num_flag(&args, "--reject-every", 4) as usize;
    let n_lo = num_flag(&args, "--n-lo", 48) as usize;
    let n_hi = num_flag(&args, "--n-hi", 160) as usize;
    let expect_hits = args.iter().any(|a| a == "--expect-hits");
    let expect_metrics = args.iter().any(|a| a == "--expect-metrics");
    let expect_traces = args.iter().any(|a| a == "--expect-traces");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let idle_conns = num_flag(&args, "--idle-conns", 0) as usize;

    // deterministic schedule (shared definition: c1p_matrix::generate) +
    // in-process expected verdicts
    let schedule =
        mixed_schedule(MixedSchedule { requests, seed, dup_every, reject_every, n_lo, n_hi });
    let expected: Vec<bool> = schedule.iter().map(|e| c1p_core::solve(e).is_ok()).collect();
    println!(
        "load_driver: {} requests ({} accept / {} reject expected), {} connection(s){}{}, seed {}",
        requests,
        expected.iter().filter(|&&b| b).count(),
        expected.iter().filter(|&&b| !b).count(),
        conns,
        if open_loop { " open-loop" } else { "" },
        if idle_conns > 0 { format!(" + {idle_conns} idle") } else { String::new() },
        seed,
    );

    // idle connections: opened first, held for the whole run, never
    // written to — an event loop carries them for the cost of a pollfd,
    // a thread-per-connection server for a blocked thread each
    let idle: Vec<TcpStream> = (0..idle_conns)
        .map(|i| {
            let s = TcpStream::connect(&addr)
                .unwrap_or_else(|e| panic!("load_driver: idle connection {i}: {e}"));
            s.set_nodelay(true).ok();
            s
        })
        .collect();

    let tally = Arc::new(Tally::default());
    let schedule = Arc::new(schedule);
    let expected = Arc::new(expected);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let (schedule, expected, tally, addr) =
            (Arc::clone(&schedule), Arc::clone(&expected), Arc::clone(&tally), addr.clone());
        handles.push(std::thread::spawn(move || {
            if open_loop {
                drive_connection_open_loop(c, conns, &addr, &schedule, &expected, &tally)
            } else {
                drive_connection(c, conns, &addr, &schedule, &expected, &tally)
            }
        }));
    }
    let mut latencies_us: Vec<u64> = Vec::with_capacity(requests);
    for h in handles {
        latencies_us.extend(h.join().expect("driver thread panicked"));
    }
    let wall = t0.elapsed();

    // engine-side stats over a fresh connection
    let hits = fetch_stat(&addr, "\"hits\":").unwrap_or(-1);
    let completed = tally.completed.load(Ordering::Relaxed);
    let protocol_errors = tally.protocol_errors.load(Ordering::Relaxed);
    let verify_failures = tally.verify_failures.load(Ordering::Relaxed);
    let disagreements = tally.disagreements.load(Ordering::Relaxed);

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let ix = ((latencies_us.len() - 1) as f64 * p).round() as usize;
        latencies_us[ix]
    };
    if open_loop {
        // pipelined sends make per-request round-trips meaningless;
        // throughput is the number that matters here
        println!(
            "completed {completed}/{requests} in {:.2}s ({:.0} req/s, open loop)",
            wall.as_secs_f64(),
            completed as f64 / wall.as_secs_f64().max(1e-9),
        );
    } else {
        println!(
            "completed {completed}/{requests} in {:.2}s ({:.0} req/s) | \
             latency p50 {}us p90 {}us p99 {}us",
            wall.as_secs_f64(),
            completed as f64 / wall.as_secs_f64().max(1e-9),
            pct(0.50),
            pct(0.90),
            pct(0.99),
        );
    }
    drop(idle);
    println!(
        "protocol errors {protocol_errors} | verify failures {verify_failures} | \
         disagreements {disagreements} | server cache hits {hits}"
    );
    print_durability(&addr);

    let mut failed = false;
    if completed != requests as u64 || protocol_errors > 0 {
        eprintln!("FAIL: protocol errors or missing responses");
        failed = true;
    }
    if verify_failures > 0 {
        eprintln!("FAIL: client-side verification failures");
        failed = true;
    }
    if disagreements > 0 {
        eprintln!("FAIL: verdict disagreement with in-process solve");
        failed = true;
    }
    if expect_hits && hits <= 0 {
        eprintln!("FAIL: expected a nonzero server cache hit count, got {hits}");
        failed = true;
    }
    if expect_metrics && !check_metrics(&addr, expect_hits, &[]) {
        failed = true;
    }
    // the percentiles above are client-side clocks; the server's own
    // histogram must account for (at least) every request served
    if !check_latency_agreement(&addr, completed) {
        failed = true;
    }
    if expect_traces && !check_traces(&addr, false) {
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("load_driver: all checks passed");
}

/// The `--expect-metrics` gate: fetches the plain-text dump and checks
/// (a) every stable series name renders — the name set is the contract —
/// and (b) the counters this load necessarily exercised are nonzero.
/// `extra` names more series the caller's load must have moved (chaos
/// mode adds its fault/supervision counters).
fn check_metrics(addr: &str, expect_hits: bool, extra: &[&str]) -> bool {
    let Some(dump) = fetch_metrics_retry(addr, 10) else {
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
        println!("metrics: all {} stable series present and exercised", dump.lines().count());
    }
    ok
}

/// [`fetch_metrics`] with retries — chaos mode's socket faults can kill
/// the scrape connection itself, which proves nothing about the server.
fn fetch_metrics_retry(addr: &str, attempts: usize) -> Option<String> {
    for _ in 0..attempts {
        if let Some(dump) = fetch_metrics(addr) {
            return Some(dump);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    None
}

/// Fetches the plain-text metrics dump over a fresh connection.
fn fetch_metrics(addr: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &encode_msg(&Msg::GetMetrics)).ok()?;
    writer.flush().ok()?;
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).ok()??;
    match decode_msg(&payload) {
        Ok(Msg::Metrics { text }) => Some(text),
        _ => None,
    }
}

/// Fetches the JSONL trace dump over a fresh connection.
fn fetch_traces(addr: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &encode_msg(&Msg::GetTraces)).ok()?;
    writer.flush().ok()?;
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).ok()??;
    match decode_msg(&payload) {
        Ok(Msg::Traces { jsonl }) => Some(jsonl),
        _ => None,
    }
}

/// [`fetch_traces`] with retries, for the same reason as
/// [`fetch_metrics_retry`]: a chaos-faulted scrape connection proves
/// nothing about the server.
fn fetch_traces_retry(addr: &str, attempts: usize) -> Option<String> {
    for _ in 0..attempts {
        if let Some(jsonl) = fetch_traces(addr) {
            return Some(jsonl);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    None
}

/// The `--expect-traces` gate: the server must have retained at least
/// one trace, and across the retained set every lifecycle span name must
/// appear, with at least 3 solver phase children. Chaos runs must also
/// have tail-sampled at least one slow or error trace — the retention
/// policy's whole point.
fn check_traces(addr: &str, chaos: bool) -> bool {
    let Some(jsonl) = fetch_traces_retry(addr, 10) else {
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
    if chaos
        && !lines
            .iter()
            .any(|l| l.contains("\"keep\":\"slow\"") || l.contains("\"keep\":\"error\""))
    {
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
    let Some(dump) = fetch_metrics_retry(addr, 10) else {
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
    if cumulative.is_empty() {
        eprintln!("FAIL: no frame latency buckets in the metrics dump");
        return false;
    }
    let mut ok = true;
    if cumulative.windows(2).any(|w| w[0] > w[1]) {
        eprintln!("FAIL: latency buckets are not cumulative: {cumulative:?}");
        ok = false;
    }
    let inf = *cumulative.last().expect("nonempty") as i64;
    let count =
        c1p_net::metrics::scrape(&dump, "c1pd_frame_latency_us_count").map_or(-1, |v| v as i64);
    if inf != count {
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

/// One open-loop connection: a writer thread pipelines the connection's
/// whole round-robin share without waiting for responses; this thread
/// reads them back and verifies each against its request — the
/// protocol's per-connection in-order guarantee makes the pairing exact.
/// Returns no latencies (round-trips are meaningless when requests
/// queue behind each other in the socket).
fn drive_connection_open_loop(
    conn_ix: usize,
    conns: usize,
    addr: &str,
    schedule: &[Ensemble],
    expected: &[bool],
    tally: &Tally,
) -> Vec<u64> {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("load_driver: cannot connect {addr}: {e}"));
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let share: Vec<usize> = (conn_ix..schedule.len()).step_by(conns).collect();

    // pre-encode the whole share into one buffer so the writer thread
    // owns plain bytes (no borrow of the schedule crosses the spawn) and
    // the socket sees back-to-back frames with no encode gaps between
    let mut burst = Vec::new();
    for &i in &share {
        let req = Msg::Solve { id: i as u64, ens: schedule[i].clone() };
        write_frame(&mut burst, &encode_msg(&req)).expect("Vec write cannot fail");
    }
    let writer_stream = reader.get_ref().try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || {
        let mut w = BufWriter::new(writer_stream);
        w.write_all(&burst).and_then(|()| w.flush()).is_ok()
    });

    for &i in &share {
        let payload = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => p,
            _ => {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        match decode_msg(&payload) {
            Ok(Msg::Verdict { id, verdict }) if id == i as u64 => {
                check_verdict(&schedule[i], expected[i], &verdict, tally);
                tally.completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Msg::Error { id, code, message }) => {
                eprintln!("server error for request {id}: {code:?}: {message}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            other => {
                eprintln!("unexpected response for request {i}: {other:?}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    if !writer.join().expect("writer thread panicked") {
        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    Vec::new()
}

/// One closed-loop connection: sends its round-robin share of the
/// schedule, verifying every response. Returns per-request latencies.
fn drive_connection(
    conn_ix: usize,
    conns: usize,
    addr: &str,
    schedule: &[Ensemble],
    expected: &[bool],
    tally: &Tally,
) -> Vec<u64> {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("load_driver: cannot connect {addr}: {e}"));
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut latencies = Vec::new();
    for i in (conn_ix..schedule.len()).step_by(conns) {
        let ens = &schedule[i];
        let t0 = Instant::now();
        let req = Msg::Solve { id: i as u64, ens: ens.clone() };
        if write_frame(&mut writer, &encode_msg(&req)).and_then(|()| writer.flush()).is_err() {
            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            break;
        }
        let payload = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => p,
            _ => {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
        };
        latencies.push(t0.elapsed().as_micros() as u64);
        match decode_msg(&payload) {
            Ok(Msg::Verdict { id, verdict }) if id == i as u64 => {
                check_verdict(ens, expected[i], &verdict, tally);
                tally.completed.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Msg::Error { id, code, message }) => {
                eprintln!("server error for request {id}: {code:?}: {message}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            other => {
                eprintln!("unexpected response for request {i}: {other:?}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    latencies
}

/// Client-side verification: the server's word is never taken for it.
fn check_verdict(ens: &Ensemble, expect_c1p: bool, verdict: &WireVerdict, tally: &Tally) {
    match verdict {
        WireVerdict::Accept { order } => {
            if !expect_c1p {
                tally.disagreements.fetch_add(1, Ordering::Relaxed);
            }
            if verify_linear(ens, order).is_err() {
                tally.verify_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
        WireVerdict::Reject { family, atom_rows, column_ids } => {
            if expect_c1p {
                tally.disagreements.fetch_add(1, Ordering::Relaxed);
            }
            let witness = TuckerWitness {
                family: *family,
                atom_rows: atom_rows.clone(),
                column_ids: column_ids.clone(),
            };
            if verify_witness(ens, &witness).is_err() {
                tally.verify_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

// ---------------------------------------------------------------------
// session mode
// ---------------------------------------------------------------------

/// One deterministic session stream plus what the client expects of it.
struct StreamPlan {
    stream: c1p_matrix::generate::AppendStream,
    /// Push index that must come back rejected (`None` = accept-only).
    reject_at: Option<usize>,
}

fn sessions_main(args: &[String]) {
    let addr = flag(args, "--addr").expect("--addr HOST:PORT is required");
    let streams = (num_flag(args, "--streams", 8) as usize).max(1);
    let pushes = (num_flag(args, "--pushes", 6) as usize).max(1);
    let blocks = (num_flag(args, "--blocks", 4) as usize).max(1);
    let conns = (num_flag(args, "--conns", 4) as usize).max(1).min(streams);
    let seed = num_flag(args, "--seed", 1);
    let reject_every = num_flag(args, "--reject-every", 3) as usize;
    let n_lo = num_flag(args, "--n-lo", 64) as usize;
    let n_hi = num_flag(args, "--n-hi", 192) as usize;
    assert!(n_lo >= 16 * blocks, "reject embedding needs blocks of >= 16 atoms");
    assert!(n_hi >= n_lo);

    // deterministic plans: stream s gets a seed-derived size and stream
    let plans: Vec<StreamPlan> = (0..streams)
        .map(|s| {
            let stream_seed = seed.wrapping_mul(2609).wrapping_add(s as u64);
            // deterministic size without an RNG dependency here
            let n = n_lo + (stream_seed as usize).wrapping_mul(31) % (n_hi - n_lo + 1);
            if reject_every > 0 && s % reject_every == reject_every - 1 {
                let (stream, at, _) = append_stream_reject(n, blocks, pushes, stream_seed);
                StreamPlan { stream, reject_at: Some(at) }
            } else {
                StreamPlan {
                    stream: append_stream(n, blocks, pushes, stream_seed),
                    reject_at: None,
                }
            }
        })
        .collect();
    let rejects = plans.iter().filter(|p| p.reject_at.is_some()).count();
    println!(
        "load_driver: {streams} session stream(s) × {pushes} pushes ({rejects} with a planted \
         reject), {conns} connection(s), seed {seed}"
    );

    let tally = Arc::new(Tally::default());
    let plans = Arc::new(plans);
    let t0 = Instant::now();
    let mut handles = Vec::new();
    for c in 0..conns {
        let (plans, tally, addr) = (Arc::clone(&plans), Arc::clone(&tally), addr.clone());
        handles.push(std::thread::spawn(move || drive_streams(c, conns, &addr, &plans, &tally)));
    }
    let mut latencies_us: Vec<u64> = Vec::new();
    for h in handles {
        latencies_us.extend(h.join().expect("driver thread panicked"));
    }
    let wall = t0.elapsed();

    let sealed = fetch_stat(&addr, "\"sessions_sealed\":").unwrap_or(-1);
    let completed = tally.completed.load(Ordering::Relaxed);
    let protocol_errors = tally.protocol_errors.load(Ordering::Relaxed);
    let verify_failures = tally.verify_failures.load(Ordering::Relaxed);
    let disagreements = tally.disagreements.load(Ordering::Relaxed);
    let expected_ops = (streams * (pushes + 2)) as u64; // open + pushes + seal

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        latencies_us[((latencies_us.len() - 1) as f64 * p).round() as usize]
    };
    println!(
        "completed {completed}/{expected_ops} session ops in {:.2}s ({:.0} ops/s) | \
         latency p50 {}us p90 {}us p99 {}us",
        wall.as_secs_f64(),
        completed as f64 / wall.as_secs_f64().max(1e-9),
        pct(0.50),
        pct(0.90),
        pct(0.99),
    );
    println!(
        "protocol errors {protocol_errors} | verify failures {verify_failures} | \
         disagreements {disagreements} | server sessions sealed {sealed}"
    );
    print_durability(&addr);

    let mut failed = false;
    if completed != expected_ops || protocol_errors > 0 {
        eprintln!("FAIL: protocol errors or missing responses");
        failed = true;
    }
    if verify_failures > 0 {
        eprintln!("FAIL: client-side verification failures");
        failed = true;
    }
    if disagreements > 0 {
        eprintln!("FAIL: verdict disagreement with the client-side mirror / one-shot solve");
        failed = true;
    }
    if sealed != streams as i64 {
        eprintln!("FAIL: expected {streams} sealed sessions on the server, got {sealed}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("load_driver: all session checks passed");
}

/// Drives this connection's round-robin share of the streams, one full
/// session each (open → pushes → seal), verifying every verdict
/// client-side. Returns per-operation latencies.
fn drive_streams(
    conn_ix: usize,
    conns: usize,
    addr: &str,
    plans: &[StreamPlan],
    tally: &Tally,
) -> Vec<u64> {
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| panic!("load_driver: cannot connect {addr}: {e}"));
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut latencies = Vec::new();
    let mut req_id = (conn_ix as u64) << 32;
    let mut rpc = |msg: &Msg, latencies: &mut Vec<u64>| -> Option<Msg> {
        let t0 = Instant::now();
        if write_frame(&mut writer, &encode_msg(msg)).and_then(|()| writer.flush()).is_err() {
            tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let payload = match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => p,
            _ => {
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        latencies.push(t0.elapsed().as_micros() as u64);
        match decode_msg(&payload) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("undecodable response: {e}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    };
    'plans: for plan in plans.iter().skip(conn_ix).step_by(conns) {
        let n = plan.stream.n_atoms;
        // open (the ack's verdict is the empty state: an elided identity
        // order — see the proto docs)
        req_id += 1;
        let session = match rpc(&Msg::OpenSession { id: req_id, n_atoms: n as u64 }, &mut latencies)
        {
            Some(Msg::SessionVerdict { id, session, verdict: WireVerdict::Accept { order } })
                if id == req_id && order.is_empty() =>
            {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                session
            }
            other => {
                eprintln!("unexpected OpenSession response: {other:?}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        // pushes, with a client-side incremental PQ mirror
        let mut accepted: Vec<Vec<Atom>> = Vec::new();
        let mut mirror = c1p_pqtree::Reducer::new(n);
        for (k, push) in plan.stream.pushes.iter().enumerate() {
            let delta = Ensemble::from_columns(n, push.clone()).expect("stream columns valid");
            let mut predicted_ok = true;
            for col in push {
                predicted_ok &= mirror.push(col);
            }
            req_id += 1;
            let resp =
                rpc(&Msg::PushAtoms { id: req_id, session, delta: delta.clone() }, &mut latencies);
            let Some(Msg::SessionVerdict { id, session: s2, verdict }) = resp else {
                // mirror and server are now out of step: abandon the
                // whole stream so one fault doesn't cascade into bogus
                // disagreements on every later push
                eprintln!("unexpected PushAtoms response; abandoning stream");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                continue 'plans;
            };
            if id != req_id || s2 != session {
                eprintln!("mismatched PushAtoms echo; abandoning stream");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                continue 'plans;
            }
            tally.completed.fetch_add(1, Ordering::Relaxed);
            // the concatenation this verdict speaks about
            let mut cols = accepted.clone();
            cols.extend(push.iter().cloned());
            let concat = Ensemble::from_columns(n, cols).expect("stream columns valid");
            match verdict {
                WireVerdict::Accept { order } => {
                    if verify_linear(&concat, &order).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if !predicted_ok || plan.reject_at == Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    accepted.extend(push.iter().cloned());
                }
                WireVerdict::Reject { family, atom_rows, column_ids } => {
                    let witness = TuckerWitness { family, atom_rows, column_ids };
                    if verify_witness(&concat, &witness).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if predicted_ok || plan.reject_at != Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    // server rolled back; rebuild the spent mirror from
                    // the accepted prefix
                    mirror = c1p_pqtree::Reducer::new(n);
                    for col in &accepted {
                        mirror.push(col);
                    }
                }
            }
        }
        // seal: the final order must agree bit-identically with a
        // one-shot in-process solve of the accepted concatenation
        req_id += 1;
        match rpc(&Msg::SealSession { id: req_id, session }, &mut latencies) {
            Some(Msg::SessionVerdict { id, verdict: WireVerdict::Accept { order }, .. })
                if id == req_id =>
            {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                let fin =
                    Ensemble::from_columns(n, accepted.clone()).expect("stream columns valid");
                match c1p_core::solve(&fin) {
                    Ok(expect) if expect == order => {}
                    _ => {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            other => {
                eprintln!("unexpected SealSession response: {other:?}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    latencies
}

// ---------------------------------------------------------------------
// crash mode
// ---------------------------------------------------------------------

/// One stream's client-side truth across server crashes: the driver never
/// dies, so this — not the server — is the arbiter of what was accepted.
struct CrashStream {
    plan: StreamPlan,
    /// The server-issued session handle (survives restarts: recovery
    /// rebuilds the session under the same id from its WAL header).
    session: Option<u64>,
    next_push: usize,
    accepted: Vec<Vec<Atom>>,
    /// The incremental Booth–Lueker mirror predicting every verdict.
    mirror: c1p_pqtree::Reducer,
    sealed: bool,
}

impl CrashStream {
    /// Rebuilds the mirror from the accepted prefix — used after a
    /// rejected push (server rolled back) and after a crash mid-push
    /// (the attempted columns were fed to the mirror but never acked).
    fn rebuild_mirror(&mut self) {
        self.mirror = c1p_pqtree::Reducer::new(self.plan.stream.n_atoms);
        for col in &self.accepted {
            self.mirror.push(col);
        }
    }
}

fn crash_main(args: &[String]) {
    let server_bin = flag(args, "--server").expect("--server PATH (the c1pd binary) is required");
    let wal_dir = flag(args, "--wal-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("c1p-crash-{}", std::process::id())));
    std::fs::create_dir_all(&wal_dir).expect("create --wal-dir");
    let cycles = (num_flag(args, "--cycles", 5) as usize).max(2);
    let streams_n = (num_flag(args, "--streams", 6) as usize).max(1);
    let pushes = (num_flag(args, "--pushes", 8) as usize).max(2);
    let blocks = (num_flag(args, "--blocks", 4) as usize).max(1);
    let seed = num_flag(args, "--seed", 1);
    let reject_every = num_flag(args, "--reject-every", 3) as usize;
    let n_lo = num_flag(args, "--n-lo", 64) as usize;
    let n_hi = num_flag(args, "--n-hi", 160) as usize;
    let snapshot_ms = num_flag(args, "--snapshot-ms", 50);
    let fault_every = num_flag(args, "--fault-every", 2) as usize;
    assert!(n_lo >= 16 * blocks, "reject embedding needs blocks of >= 16 atoms");
    assert!(n_hi >= n_lo);

    let mut streams: Vec<CrashStream> = (0..streams_n)
        .map(|s| {
            let stream_seed = seed.wrapping_mul(2609).wrapping_add(s as u64);
            let n = n_lo + (stream_seed as usize).wrapping_mul(31) % (n_hi - n_lo + 1);
            let plan = if reject_every > 0 && s % reject_every == reject_every - 1 {
                let (stream, at, _) = append_stream_reject(n, blocks, pushes, stream_seed);
                StreamPlan { stream, reject_at: Some(at) }
            } else {
                StreamPlan {
                    stream: append_stream(n, blocks, pushes, stream_seed),
                    reject_at: None,
                }
            };
            let mirror = c1p_pqtree::Reducer::new(plan.stream.n_atoms);
            CrashStream {
                plan,
                session: None,
                next_push: 0,
                accepted: Vec::new(),
                mirror,
                sealed: false,
            }
        })
        .collect();

    // the warm-start probe: solved cold in cycle 0, snapshotted, and from
    // every restart on its first solve must be served warm
    let probe = append_stream(n_lo, blocks, 2, seed ^ 0x9e37).final_ensemble();

    let tally = Tally::default();
    let mut anomalies = 0u64;
    let mut kills = 0usize;
    let mut faults = 0usize;
    println!(
        "load_driver crash: {streams_n} stream(s) × {pushes} pushes over {cycles} cycle(s), \
         wal dir {}, seed {seed}",
        wal_dir.display()
    );

    for cycle in 0..cycles {
        let last = cycle + 1 == cycles;
        // every --fault-every-th crash dies mid-WAL-append instead of
        // between acknowledged operations
        let fault = !last && fault_every > 0 && cycle % fault_every == fault_every - 1;
        let fault_after = 1 + (seed as usize).wrapping_add(13 * cycle) % 4;
        let port_file = wal_dir.join(format!("port-{cycle}"));
        let _ = std::fs::remove_file(&port_file);
        let mut cmd = std::process::Command::new(&server_bin);
        cmd.arg("--addr")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .arg("--wal-dir")
            .arg(&wal_dir)
            .arg("--snapshot-ms")
            .arg(snapshot_ms.to_string())
            .arg("--threads")
            .arg("2")
            .stdout(std::process::Stdio::null());
        if fault {
            cmd.arg("--wal-fault-after").arg(fault_after.to_string());
        }
        let mut child = cmd.spawn().unwrap_or_else(|e| panic!("cannot spawn {server_bin}: {e}"));
        let addr = format!("127.0.0.1:{}", wait_port(&port_file));

        // restart audits: nothing quarantined, every live session back,
        // and the probe answered from the snapshot-warmed cache
        let quarantined = fetch_stat(&addr, "\"quarantined_wals\":").unwrap_or(-1);
        if quarantined != 0 {
            eprintln!("FAIL: cycle {cycle}: {quarantined} quarantined WAL(s) after restart");
            anomalies += 1;
        }
        if cycle > 0 {
            let live = streams.iter().filter(|s| s.session.is_some() && !s.sealed).count() as i64;
            let recovered = fetch_stat(&addr, "\"recovered_sessions\":").unwrap_or(-1);
            if recovered < live {
                eprintln!("FAIL: cycle {cycle}: recovered {recovered} of {live} live session(s)");
                anomalies += 1;
            }
        }
        if !solve_probe(&addr, &probe, &tally) {
            eprintln!("FAIL: cycle {cycle}: warm-start probe solve failed");
            anomalies += 1;
        }
        // baseline for the pre-kill snapshot gate: a snapshot write may be
        // in flight with a cache image read *before* the probe landed, so
        // the gate below waits for two increments past this point — the
        // second one provably started after the probe was cached
        let snap_base = fetch_stat(&addr, "\"snapshot_writes\":").unwrap_or(0).max(0);
        if cycle > 0 {
            let warm = fetch_stat(&addr, "\"warm_start_hits\":").unwrap_or(-1);
            if warm < 1 {
                eprintln!("FAIL: cycle {cycle}: first probe solve after restart was not warm");
                anomalies += 1;
            }
        }

        // drive: unbounded on fault cycles (the server picks the crash
        // instant) and on the last cycle (everything must finish); a
        // seeded acknowledged-operation budget otherwise
        let budget = if last || fault {
            usize::MAX
        } else {
            2 + (seed as usize).wrapping_mul(31).wrapping_add(17 * cycle) % 6
        };
        let conn_died = drive_crash_cycle(&addr, &mut streams, budget, &tally);

        if last {
            let all_sealed = streams.iter().all(|s| s.sealed);
            if !all_sealed || conn_died {
                eprintln!("FAIL: final cycle did not seal every stream");
                anomalies += 1;
            }
            print_durability(&addr);
            child.kill().ok();
            child.wait().ok();
        } else if fault && conn_died {
            faults += 1; // the server aborted itself mid-append
            child.wait().ok();
        } else {
            if conn_died {
                eprintln!("FAIL: cycle {cycle}: connection died without an injected fault");
                anomalies += 1;
            }
            // make sure a snapshot that *postdates the probe solve* exists
            // before the kill, so the next boot warm-starts the probe
            if !wait_stat_at_least(&addr, "\"snapshot_writes\":", snap_base + 2) {
                eprintln!("FAIL: cycle {cycle}: no post-probe snapshot written before kill");
                anomalies += 1;
            }
            child.kill().ok(); // SIGKILL: no goodbye, that is the point
            child.wait().ok();
            kills += 1;
        }
    }

    let completed = tally.completed.load(Ordering::Relaxed);
    let protocol_errors = tally.protocol_errors.load(Ordering::Relaxed);
    let verify_failures = tally.verify_failures.load(Ordering::Relaxed);
    let disagreements = tally.disagreements.load(Ordering::Relaxed);
    let sealed = streams.iter().filter(|s| s.sealed).count();
    println!(
        "crash cycles {cycles} ({kills} kill -9, {faults} mid-append fault) | \
         ops acked {completed} | sealed {sealed}/{streams_n}"
    );
    println!(
        "protocol errors {protocol_errors} | verify failures {verify_failures} | \
         disagreements {disagreements} | audit anomalies {anomalies}"
    );
    if protocol_errors > 0 || verify_failures > 0 || disagreements > 0 || anomalies > 0 {
        eprintln!("FAIL: crash-recovery audit failed");
        std::process::exit(1);
    }
    println!("load_driver: all crash-recovery checks passed");
}

/// Drives every unfinished stream in order, spending at most `budget`
/// acknowledged operations. Returns `true` if the connection died (the
/// injected mid-append fault fired — or the server vanished unexpectedly,
/// which the caller flags).
fn drive_crash_cycle(
    addr: &str,
    streams: &mut [CrashStream],
    mut budget: usize,
    tally: &Tally,
) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return true;
    };
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let mut req_id = 0u64;
    let mut rpc = |msg: &Msg| -> Option<Msg> {
        // unlike the other modes, a failed exchange here is *expected*
        // (that is what a crash looks like) — the caller classifies it
        if write_frame(&mut writer, &encode_msg(msg)).and_then(|()| writer.flush()).is_err() {
            return None;
        }
        match read_frame(&mut reader, DEFAULT_MAX_FRAME) {
            Ok(Some(p)) => decode_msg(&p).ok(),
            _ => None,
        }
    };
    for st in streams.iter_mut().filter(|s| !s.sealed) {
        let n = st.plan.stream.n_atoms;
        if st.session.is_none() {
            if budget == 0 {
                return false;
            }
            req_id += 1;
            match rpc(&Msg::OpenSession { id: req_id, n_atoms: n as u64 }) {
                Some(Msg::SessionVerdict { id, session, .. }) if id == req_id => {
                    st.session = Some(session);
                    tally.completed.fetch_add(1, Ordering::Relaxed);
                    budget -= 1;
                }
                None => return true,
                other => {
                    eprintln!("unexpected OpenSession response: {other:?}");
                    tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        let session = st.session.expect("opened above");
        while st.next_push < st.plan.stream.pushes.len() {
            if budget == 0 {
                return false;
            }
            let k = st.next_push;
            let push = st.plan.stream.pushes[k].clone();
            let delta = Ensemble::from_columns(n, push.clone()).expect("stream columns valid");
            let mut predicted_ok = true;
            for col in &push {
                predicted_ok &= st.mirror.push(col);
            }
            req_id += 1;
            let resp = rpc(&Msg::PushAtoms { id: req_id, session, delta: delta.clone() });
            let Some(Msg::SessionVerdict { id, session: s2, verdict }) = resp else {
                // crash mid-push: the record was torn (or never written),
                // so the push is NOT durable — recovery must agree, and
                // this same push is retried next cycle
                st.rebuild_mirror();
                return true;
            };
            if id != req_id || s2 != session {
                eprintln!("mismatched PushAtoms echo");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            tally.completed.fetch_add(1, Ordering::Relaxed);
            budget -= 1;
            let mut cols = st.accepted.clone();
            cols.extend(push.iter().cloned());
            let concat = Ensemble::from_columns(n, cols).expect("stream columns valid");
            match verdict {
                WireVerdict::Accept { order } => {
                    if verify_linear(&concat, &order).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if !predicted_ok || st.plan.reject_at == Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    st.accepted.extend(push.iter().cloned());
                }
                WireVerdict::Reject { family, atom_rows, column_ids } => {
                    let witness = TuckerWitness { family, atom_rows, column_ids };
                    if verify_witness(&concat, &witness).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if predicted_ok || st.plan.reject_at != Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    st.rebuild_mirror();
                }
            }
            st.next_push += 1;
        }
        if budget == 0 {
            return false;
        }
        // seal: bit-identical to a one-shot in-process solve of the
        // accepted concatenation — the acceptance criterion, verbatim
        req_id += 1;
        match rpc(&Msg::SealSession { id: req_id, session }) {
            Some(Msg::SessionVerdict { id, verdict: WireVerdict::Accept { order }, .. })
                if id == req_id =>
            {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                budget -= 1;
                let fin =
                    Ensemble::from_columns(n, st.accepted.clone()).expect("stream columns valid");
                match c1p_core::solve(&fin) {
                    Ok(expect) if expect == order => {}
                    _ => {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                }
                st.sealed = true;
            }
            None => return true,
            other => {
                eprintln!("unexpected SealSession response: {other:?}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return false;
            }
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

fn chaos_main(args: &[String]) {
    let server_bin = flag(args, "--server").expect("--server PATH (the c1pd binary) is required");
    let wal_dir = flag(args, "--wal-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("c1p-chaos-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create --wal-dir");
    let shards = (num_flag(args, "--shards", 2) as usize).max(1);
    let streams_n = (num_flag(args, "--streams", 8) as usize).max(1);
    let pushes = (num_flag(args, "--pushes", 6) as usize).max(2);
    let blocks = (num_flag(args, "--blocks", 4) as usize).max(1);
    let solves = (num_flag(args, "--solves", 60) as usize).max(1);
    let seed = num_flag(args, "--seed", 1);
    let reject_every = num_flag(args, "--reject-every", 3) as usize;
    let n_lo = num_flag(args, "--n-lo", 64) as usize;
    let n_hi = num_flag(args, "--n-hi", 160) as usize;
    let kill_every = num_flag(args, "--kill-every", 6);
    let drop_every = num_flag(args, "--drop-every", 5);
    let socket_every = num_flag(args, "--socket-every", 17);
    let delay_every = num_flag(args, "--delay-every", 11);
    let wal_torn_every = num_flag(args, "--wal-torn-every", 7);
    let deadline_ms = num_flag(args, "--deadline-ms", 400);
    let expect_metrics = args.iter().any(|a| a == "--expect-metrics");
    let trace_sample = num_flag(args, "--trace-sample", 0);
    let slow_ms = num_flag(args, "--slow-ms", 100);
    let expect_traces = args.iter().any(|a| a == "--expect-traces");
    assert!(n_lo >= 16 * blocks, "reject embedding needs blocks of >= 16 atoms");
    assert!(n_hi >= n_lo);

    // the same deterministic plans session mode replays — chaos changes
    // the transport, never the workload
    let plans: Vec<StreamPlan> = (0..streams_n)
        .map(|s| {
            let stream_seed = seed.wrapping_mul(2609).wrapping_add(s as u64);
            let n = n_lo + (stream_seed as usize).wrapping_mul(31) % (n_hi - n_lo + 1);
            if reject_every > 0 && s % reject_every == reject_every - 1 {
                let (stream, at, _) = append_stream_reject(n, blocks, pushes, stream_seed);
                StreamPlan { stream, reject_at: Some(at) }
            } else {
                StreamPlan {
                    stream: append_stream(n, blocks, pushes, stream_seed),
                    reject_at: None,
                }
            }
        })
        .collect();

    let port_file = wal_dir.join("port");
    let mut child = std::process::Command::new(&server_bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--shards")
        .arg(shards.to_string())
        .arg("--wal-dir")
        .arg(&wal_dir)
        .arg("--threads")
        .arg("2")
        .arg("--chaos-seed")
        .arg(seed.to_string())
        .arg("--chaos-kill-every")
        .arg(kill_every.to_string())
        .arg("--chaos-drop-every")
        .arg(drop_every.to_string())
        .arg("--chaos-socket-every")
        .arg(socket_every.to_string())
        .arg("--chaos-delay-every")
        .arg(delay_every.to_string())
        .arg("--chaos-wal-torn-every")
        .arg(wal_torn_every.to_string())
        .arg("--request-deadline-ms")
        .arg(deadline_ms.to_string())
        .arg("--trace-sample")
        .arg(trace_sample.to_string())
        .arg("--slow-ms")
        .arg(slow_ms.to_string())
        .arg("--trace-seed")
        .arg(seed.to_string())
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("cannot spawn {server_bin}: {e}"));
    let addr = format!("127.0.0.1:{}", wait_port(&port_file));
    println!(
        "load_driver chaos: {streams_n} stream(s) × {pushes} pushes + {solves} solve(s) against \
         {shards} shard(s); kill/{kill_every} drop/{drop_every} socket/{socket_every} \
         delay/{delay_every} wal-torn/{wal_torn_every}, deadline {deadline_ms}ms, seed {seed}"
    );

    let tally = Arc::new(Tally::default());
    let chaos = Arc::new(ChaosTally::default());
    let plans = Arc::new(plans);
    let t0 = Instant::now();
    let sessions_thread = {
        let (plans, tally, chaos, addr) =
            (Arc::clone(&plans), Arc::clone(&tally), Arc::clone(&chaos), addr.clone());
        std::thread::spawn(move || drive_chaos_streams(&addr, &plans, &tally, &chaos, seed))
    };
    let solves_thread = {
        let (tally, chaos, addr) = (Arc::clone(&tally), Arc::clone(&chaos), addr.clone());
        std::thread::spawn(move || drive_chaos_solves(&addr, solves, seed, &tally, &chaos))
    };
    let client_retries = sessions_thread.join().expect("sessions thread panicked")
        + solves_thread.join().expect("solves thread panicked");
    let wall = t0.elapsed();

    let completed = tally.completed.load(Ordering::Relaxed);
    let protocol_errors = tally.protocol_errors.load(Ordering::Relaxed);
    let verify_failures = tally.verify_failures.load(Ordering::Relaxed);
    let disagreements = tally.disagreements.load(Ordering::Relaxed);
    let hangs = chaos.hangs.load(Ordering::Relaxed);
    let recovered_pushes = chaos.recovered_pushes.load(Ordering::Relaxed);
    let lost_seals = chaos.lost_seals.load(Ordering::Relaxed);
    let expected_ops = (streams_n * (pushes + 2) + solves) as u64;
    println!(
        "completed {completed}/{expected_ops} ops in {:.2}s | client retries {client_retries} \
         ({recovered_pushes} pushes recovered by handshake, {lost_seals} seals re-derived)",
        wall.as_secs_f64(),
    );
    println!(
        "protocol errors {protocol_errors} | verify failures {verify_failures} | \
         disagreements {disagreements} | hangs {hangs}"
    );

    // the chaos must be real: scrape the proof before killing the server
    let mut failed = false;
    let scrape = |dump: &str, name: &str| c1p_net::metrics::scrape(dump, name).unwrap_or(-1.0);
    match fetch_metrics_retry(&addr, 10) {
        Some(dump) => {
            let injected = scrape(&dump, "c1pd_faults_injected_total");
            let restarts = scrape(&dump, "c1pd_shard_restarts_total");
            let swept = scrape(&dump, "c1pd_degraded_replies_total");
            let reaped = scrape(&dump, "c1pd_deadline_expired_total");
            let queries = scrape(&dump, "c1pd_retries_total");
            println!(
                "server: faults injected {injected} | shard restarts {restarts} | \
                 swept replies {swept} | deadline reaps {reaped} | handshake queries {queries}"
            );
            if injected < 1.0 {
                eprintln!("FAIL: the fault plan never fired — this was not a chaos run");
                failed = true;
            }
            if restarts < 1.0 {
                eprintln!("FAIL: no supervised shard restart happened");
                failed = true;
            }
            // read from the retried dump: `GetStats` reports the same sum,
            // but one unretried connection can meet an injected fault
            let recovered = scrape(&dump, "c1pd_recovered_sessions_total");
            if recovered < 1.0 {
                eprintln!("FAIL: no session was recovered from the WAL after a restart");
                failed = true;
            }
            println!("server: sessions recovered from WAL after restarts: {recovered}");
        }
        None => {
            eprintln!("FAIL: could not scrape the server after the run");
            failed = true;
        }
    }
    if expect_metrics
        && !check_metrics(
            &addr,
            false,
            &[
                "c1pd_faults_injected_total",
                "c1pd_retries_total",
                "c1pd_shard_restarts_total",
                "c1pd_degraded_replies_total",
                "c1pd_deadline_expired_total",
            ],
        )
    {
        failed = true;
    }
    if expect_traces && !check_traces(&addr, true) {
        failed = true;
    }
    child.kill().ok();
    child.wait().ok();
    let _ = std::fs::remove_dir_all(&wal_dir);

    if completed != expected_ops || protocol_errors > 0 {
        eprintln!("FAIL: protocol errors or unsettled operations");
        failed = true;
    }
    if verify_failures > 0 {
        eprintln!("FAIL: client-side verification failures");
        failed = true;
    }
    if disagreements > 0 {
        eprintln!("FAIL: verdict disagreement with the PQ mirror / in-process solve");
        failed = true;
    }
    if hangs > 0 {
        eprintln!("FAIL: {hangs} operation(s) outlived the client deadline");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("load_driver: all chaos checks passed");
}

/// The chaos retry policy: a deadline far above any injected stall so a
/// `DeadlineExceeded` can only mean a genuine hang, and a tight backoff
/// so the run stays fast.
fn chaos_policy(seed: u64) -> c1p_net::client::RetryPolicy {
    c1p_net::client::RetryPolicy {
        deadline: std::time::Duration::from_secs(60),
        base: std::time::Duration::from_millis(2),
        cap: std::time::Duration::from_millis(50),
        seed,
    }
}

/// Streams every session plan through the self-healing client, predicting
/// each verdict with the incremental PQ mirror and gating seals on the
/// in-process solve. Returns the client's transport retry count.
fn drive_chaos_streams(
    addr: &str,
    plans: &[StreamPlan],
    tally: &Tally,
    chaos: &ChaosTally,
    seed: u64,
) -> u64 {
    use c1p_net::client::{Client, ClientError, PushOutcome, SealOutcome};
    let mut client = Client::new(addr, chaos_policy(seed ^ 0xC1A0));
    for (s, plan) in plans.iter().enumerate() {
        let n = plan.stream.n_atoms;
        let mut mirror = c1p_pqtree::Reducer::new(n);
        let mut accepted: Vec<Vec<Atom>> = Vec::new();
        let mut session = match client.open_session(n) {
            Ok(session) => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                session
            }
            Err(ClientError::DeadlineExceeded { .. }) => {
                chaos.hangs.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Err(e) => {
                eprintln!("stream {s}: open failed: {e}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let mut abandoned = false;
        for k in 0..plan.stream.pushes.len() {
            let push = plan.stream.pushes[k].clone();
            let delta = Ensemble::from_columns(n, push.clone()).expect("stream columns valid");
            let mut predicted_ok = true;
            for col in &push {
                predicted_ok &= mirror.push(col);
            }
            let mut cols = accepted.clone();
            cols.extend(push.iter().cloned());
            let concat = Ensemble::from_columns(n, cols).expect("stream columns valid");
            match session.push(&delta) {
                Ok(PushOutcome::Verdict(WireVerdict::Accept { order })) => {
                    tally.completed.fetch_add(1, Ordering::Relaxed);
                    if verify_linear(&concat, &order).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if !predicted_ok || plan.reject_at == Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    accepted.extend(push.iter().cloned());
                }
                Ok(PushOutcome::Verdict(WireVerdict::Reject { family, atom_rows, column_ids })) => {
                    tally.completed.fetch_add(1, Ordering::Relaxed);
                    let witness = TuckerWitness { family, atom_rows, column_ids };
                    if verify_witness(&concat, &witness).is_err() {
                        tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    if predicted_ok || plan.reject_at != Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    // server rolled back; resync the mirror to match
                    mirror = c1p_pqtree::Reducer::new(n);
                    for col in &accepted {
                        mirror.push(col);
                    }
                }
                Ok(PushOutcome::RecoveredAccepted) => {
                    // the handshake proved application; the lost frame's
                    // witness is gone, but acceptance itself must agree
                    tally.completed.fetch_add(1, Ordering::Relaxed);
                    chaos.recovered_pushes.fetch_add(1, Ordering::Relaxed);
                    if !predicted_ok || plan.reject_at == Some(k) {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    accepted.extend(push.iter().cloned());
                }
                Err(ClientError::DeadlineExceeded { .. }) => {
                    chaos.hangs.fetch_add(1, Ordering::Relaxed);
                    abandoned = true;
                    break;
                }
                Err(e) => {
                    eprintln!("stream {s} push {k}: {e}");
                    tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    abandoned = true;
                    break;
                }
            }
        }
        if abandoned {
            continue;
        }
        let fin = Ensemble::from_columns(n, accepted.clone()).expect("stream columns valid");
        match session.seal() {
            Ok(SealOutcome::Order(order)) => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                // the acceptance criterion, verbatim: a delivered seal is
                // bit-identical to the fault-free one-shot solve
                match c1p_core::solve(&fin) {
                    Ok(expect) if expect == order => {}
                    _ => {
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Ok(SealOutcome::LostButSealed) => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                chaos.lost_seals.fetch_add(1, Ordering::Relaxed);
                // the reply is unrecoverable but the order is not: solve
                // the accepted concatenation and verify the witness
                match client.solve(&fin) {
                    Ok(WireVerdict::Accept { order }) => {
                        if verify_linear(&fin, &order).is_err() {
                            tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Ok(other) => {
                        eprintln!("stream {s}: post-seal solve rejected: {other:?}");
                        tally.disagreements.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ClientError::DeadlineExceeded { .. }) => {
                        chaos.hangs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("stream {s}: post-seal solve failed: {e}");
                        tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(ClientError::DeadlineExceeded { .. }) => {
                chaos.hangs.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("stream {s} seal: {e}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
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
    use c1p_net::client::{Client, ClientError};
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
            Ok(WireVerdict::Accept { order }) => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                if verify_linear(ens, &order).is_err() {
                    tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                }
                if c1p_core::solve(ens).is_err() {
                    tally.disagreements.fetch_add(1, Ordering::Relaxed);
                }
            }
            Ok(WireVerdict::Reject { family, atom_rows, column_ids }) => {
                tally.completed.fetch_add(1, Ordering::Relaxed);
                let witness = TuckerWitness { family, atom_rows, column_ids };
                if verify_witness(ens, &witness).is_err() {
                    tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                }
                if c1p_core::solve(ens).is_ok() {
                    tally.disagreements.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(ClientError::DeadlineExceeded { .. }) => {
                chaos.hangs.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!("solve {i}: {e}");
                tally.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    client.retries()
}

/// Solves the warm-start probe and verifies the witness. Returns false on
/// any protocol or verification failure.
fn solve_probe(addr: &str, probe: &Ensemble, tally: &Tally) -> bool {
    let Ok(stream) = TcpStream::connect(addr) else {
        return false;
    };
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = BufWriter::new(stream);
    let msg = Msg::Solve { id: 1, ens: probe.clone() };
    if write_frame(&mut writer, &encode_msg(&msg)).and_then(|()| writer.flush()).is_err() {
        return false;
    }
    let Ok(Some(payload)) = read_frame(&mut reader, DEFAULT_MAX_FRAME) else {
        return false;
    };
    match decode_msg(&payload) {
        Ok(Msg::Verdict { id: 1, verdict: WireVerdict::Accept { order } }) => {
            if verify_linear(probe, &order).is_err() {
                tally.verify_failures.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            true
        }
        _ => false,
    }
}

/// Polls the bare-port file a spawned `c1pd --port-file` writes.
fn wait_port(path: &std::path::Path) -> u16 {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(s) = std::fs::read_to_string(path) {
            if let Ok(port) = s.trim().parse() {
                return port;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server did not write {} within 30s", path.display());
}

/// Polls a stats counter until it reaches `min` (10s cap).
fn wait_stat_at_least(addr: &str, key: &str, min: i64) -> bool {
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while Instant::now() < deadline {
        if fetch_stat(addr, key).unwrap_or(-1) >= min {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    false
}

/// Prints the server's durability counters (zeros on a non-durable server).
fn print_durability(addr: &str) {
    let get = |key: &str| fetch_stat(addr, key).unwrap_or(-1);
    println!(
        "durability: wal appends {} | wal fsyncs {} | recovered sessions {} | \
         quarantined wals {} | snapshot writes {} | warm-start hits {}",
        get("\"wal_appends\":"),
        get("\"wal_fsyncs\":"),
        get("\"recovered_sessions\":"),
        get("\"quarantined_wals\":"),
        get("\"snapshot_writes\":"),
        get("\"warm_start_hits\":"),
    );
}

/// Queries the server's stats frame and scans one integer field out of the
/// JSON (the driver carries no JSON parser by design, matching par_smoke).
fn fetch_stat(addr: &str, key: &str) -> Option<i64> {
    let stream = TcpStream::connect(addr).ok()?;
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &encode_msg(&Msg::GetStats)).ok()?;
    writer.flush().ok()?;
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).ok()??;
    match decode_msg(&payload).ok()? {
        Msg::Stats { json } => {
            let at = json.find(key)?;
            let rest = json[at + key.len()..].trim_start();
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        }
        _ => None,
    }
}

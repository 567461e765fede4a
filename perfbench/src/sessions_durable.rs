//! `sessions_durable`: a closed loop over one connection to `c1pd
//! --wal-dir <fresh directory>`. Each stream, `append_stream(2048, 8, 32,
//! seed)`, is opened, pushed and sealed; every push is fdatasync'd before
//! it is acknowledged. Then four sessions of 512 records each are left
//! open, the server is killed with `kill -9` and restarted on the same
//! directory, and `recovery_s` runs until every session answers
//! `QuerySession` with the stream hash and column count the client
//! folded. One connection, because concurrent fdatasyncs make the tail
//! latency swing far more than the pushes themselves.

use crate::report::{mean, median, Fail, Measured, Report};
use crate::server::{unexpected, Conn, Server, Stats};
use crate::Args;
use c1p::engine::proto::{decode_msg, encode_msg, Msg};
use c1p::engine::wal::{recover_file, scan_dir};
use c1p::incremental::{fold_stream_hash, initial_stream_hash};
use c1p::matrix::generate::append_stream;
use c1p::matrix::io::WireVerdict;
use c1p::matrix::{verify_linear, Atom, Ensemble};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `append_stream` shape: atoms, independent atom blocks, pushes.
const N: usize = 2048;
const ATOM_BLOCKS: usize = 8;
const PUSHES: usize = 32;
/// Streams per second on the reference host (2 vCPUs); sizes the work.
const NOMINAL_RATE: f64 = 13.0;
/// Sessions left open at the crash, and records in each.
const OPEN_SESSIONS: usize = 4;
const OPEN_RECORDS: usize = 512;
/// Server starts per run (`setup_s` is their median).
const STARTS: usize = 3;
/// Crash-and-restart cycles per run (`recovery_s` is their mean).
const RESTARTS: usize = 5;
/// Request ids of the three phases start here, so traces can tell them apart.
const MEASURED_ID: u64 = 1 << 40;
const OPEN_ID: u64 = 2 << 40;

/// One session's stream with everything the client checks it against.
struct Stream {
    deltas: Vec<Ensemble>,
    /// `c1p::solve` of the concatenation: the sealed order must equal it.
    /// `None` when the library wrongly rejects it (a broken invariant).
    expected: Option<Vec<Atom>>,
}

fn stream(seed: u64, pushes: usize, r: &mut Report) -> Stream {
    let s = append_stream(N, ATOM_BLOCKS, pushes, seed);
    let deltas = (0..pushes).map(|k| s.push_ensemble(k)).collect();
    let expected = match c1p::solve(&s.final_ensemble()) {
        Ok(order) => Some(order),
        Err(rej) => {
            r.wrong(format!(
                "c1p::solve rejects append_stream({N}, {ATOM_BLOCKS}, {pushes}, {seed}), \
                 which is C1P by construction (site {:?})",
                rej.site
            ));
            None
        }
    };
    Stream { deltas, expected }
}

/// Client-side view of one open session.
struct Session {
    handle: u64,
    /// The accepted columns so far, to verify each push's order against.
    ens: Ensemble,
    /// `fold_stream_hash` chain over the accepted deltas.
    hash: u64,
}

/// A connection with a request-id counter and per-kind round-trip times.
/// A connection that fails is replaced before the next request.
struct Client {
    conn: Conn,
    port: u16,
    next_id: u64,
    open_ms: Vec<f64>,
    push_ms: Vec<f64>,
    seal_ms: Vec<f64>,
}

impl Client {
    fn new(server: &mut Server, first_id: u64) -> Client {
        let (conn, port) = (server.connect(), server.port());
        Client { conn, port, next_id: first_id, open_ms: vec![], push_ms: vec![], seal_ms: vec![] }
    }

    /// One request-reply exchange; the reply must echo the request id.
    fn call(&mut self, msg: Msg) -> (Result<Msg, String>, Msg, f64) {
        let t = Instant::now();
        let reply = self
            .conn
            .send(&encode_msg(&msg))
            .and_then(|()| self.conn.recv())
            .map_err(|e| e.to_string())
            .and_then(|b| decode_msg(&b).map_err(|e| e.to_string()));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if reply.is_err() {
            if let Ok(conn) = Conn::connect(self.port) {
                self.conn = conn;
            }
        }
        (reply, msg, ms)
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn open(&mut self, r: &mut Report) -> Option<Session> {
        let id = self.id();
        let (reply, _, ms) = self.call(Msg::OpenSession { id, n_atoms: N as u64 });
        self.open_ms.push(ms);
        match reply {
            Ok(Msg::SessionVerdict { id: rid, session, .. }) if rid == id => {
                r.op(Ok(()));
                Some(Session {
                    handle: session,
                    ens: Ensemble::new(N),
                    hash: initial_stream_hash(N),
                })
            }
            other => {
                r.op(Err(unexpected(&format!("OpenSession {id}"), other)));
                None
            }
        }
    }

    /// Clears the round-trip times recorded so far.
    fn reset_times(&mut self) {
        self.open_ms.clear();
        self.push_ms.clear();
        self.seal_ms.clear();
    }

    /// Pushes one delta; the verdict must accept with an order that
    /// passes `verify_linear` over every column accepted so far. Returns
    /// whether the push succeeded; after a failure the session's state on
    /// the server is unknown, so the caller abandons it.
    fn push(&mut self, s: &mut Session, delta: Ensemble, r: &mut Report) -> bool {
        let id = self.id();
        let (reply, msg, ms) = self.call(Msg::PushAtoms { id, session: s.handle, delta });
        self.push_ms.push(ms);
        let Msg::PushAtoms { delta, .. } = msg else { unreachable!("sent a push") };
        s.hash = fold_stream_hash(s.hash, &delta);
        for col in delta.columns() {
            s.ens.push_column(col.clone());
        }
        let outcome =
            match reply {
                Ok(Msg::SessionVerdict {
                    id: rid, verdict: WireVerdict::Accept { order }, ..
                }) if rid == id => verify_linear(&s.ens, &order).map_err(|v| {
                    Fail::Wrong(format!("push {id}: order fails verify_linear: {v:?}"))
                }),
                other => Err(unexpected(&format!("push {id}"), other)),
            };
        let ok = outcome.is_ok();
        r.op(outcome);
        ok
    }

    /// Seals; the final order must be bit-identical to `expected`, or,
    /// without one, pass `verify_linear`.
    fn seal(&mut self, s: Session, expected: Option<&[Atom]>, r: &mut Report) {
        let id = self.id();
        let (reply, _, ms) = self.call(Msg::SealSession { id, session: s.handle });
        self.seal_ms.push(ms);
        r.op(match reply {
            Ok(Msg::SessionVerdict { id: rid, verdict: WireVerdict::Accept { order }, .. })
                if rid == id =>
            {
                let ok = expected.map_or(verify_linear(&s.ens, &order).is_ok(), |e| order == e);
                ok.then_some(()).ok_or_else(|| {
                    Fail::Wrong(format!("seal {id}: the order differs from the one-shot solve's"))
                })
            }
            other => Err(unexpected(&format!("seal {id}"), other)),
        });
    }

    /// Opens, pushes and seals every stream.
    fn run_streams(&mut self, streams: &[Stream], r: &mut Report) {
        for st in streams {
            let Some(mut s) = self.open(r) else { continue };
            if st.deltas.iter().all(|d| self.push(&mut s, d.clone(), r)) {
                self.seal(s, st.expected.as_deref(), r);
            }
        }
    }
}

/// Starts a server on `wal` and runs the warm-up stream; returns it, its
/// connection, and the seconds from spawn to the end of the warm-up.
fn start(
    a: &Args,
    wal: &Path,
    flags: &[&str],
    warmup: &Stream,
    r: &mut Report,
) -> (Server, Client, f64) {
    let t = Instant::now();
    let wal_flag = wal.to_str().expect("UTF-8 temp path");
    let flags: Vec<&str> =
        ["--wal-dir", wal_flag].into_iter().chain(flags.iter().copied()).collect();
    let mut server = Server::spawn(&a.c1pd, &a.tmp, &flags);
    drop(server.ready());
    let mut c = Client::new(&mut server, 0);
    c.run_streams(std::slice::from_ref(warmup), r);
    let dt = t.elapsed().as_secs_f64();
    c.reset_times();
    (server, c, dt)
}

fn wal_dir(a: &Args, n: usize) -> PathBuf {
    a.tmp.join(format!("wal-{n}"))
}

/// Leaves [`OPEN_SESSIONS`] sessions of [`OPEN_RECORDS`] records each open.
fn leave_open(c: &mut Client, seed: u64, r: &mut Report) -> Vec<Session> {
    c.next_id = OPEN_ID;
    let mut open = Vec::new();
    for k in 0..OPEN_SESSIONS {
        let st = stream(seed.wrapping_add(k as u64), OPEN_RECORDS, r);
        let Some(mut s) = c.open(r) else { continue };
        if st.deltas.into_iter().all(|d| c.push(&mut s, d, r)) {
            open.push(s);
        }
    }
    open
}

/// Restarts the server on its WAL directory; returns the seconds from
/// spawn until every open session answered `QuerySession` with the hash
/// and column count the client folded.
fn restart(a: &Args, flags: &[&str], open: &[Session], r: &mut Report) -> (Server, f64) {
    let t = Instant::now();
    let mut server = Server::spawn(&a.c1pd, &a.tmp, flags);
    let mut c = Client::new(&mut server, OPEN_ID << 1);
    for s in open {
        let id = c.id();
        let (reply, _, _) = c.call(Msg::QuerySession { id, session: s.handle });
        let columns = s.ens.n_columns() as u64;
        r.op(match reply {
            Ok(Msg::SessionStatus { id: rid, stream_hash, columns: cols, .. }) if rid == id => {
                (stream_hash == s.hash && cols == columns).then_some(()).ok_or_else(|| {
                    Fail::Wrong(format!(
                        "session {}: recovered hash {stream_hash:#x} over {cols} columns, \
                         the client folded {:#x} over {columns}",
                        s.handle, s.hash
                    ))
                })
            }
            other => Err(unexpected(&format!("QuerySession {id}"), other)),
        });
    }
    (server, t.elapsed().as_secs_f64())
}

/// Checks the invariants of a recovered server: every session open at
/// the crash recovered, no log quarantined.
fn check_recovered(server: &mut Server, open_at_crash: f64, r: &mut Report) -> (f64, f64) {
    let st = server.ready().stats();
    let (recovered, quarantined) = (st["recovered_sessions"], st["quarantined_wals"]);
    r.check(recovered == open_at_crash, || {
        format!("{recovered} sessions recovered, {open_at_crash} open at the crash")
    });
    r.check(quarantined == 0.0, || format!("{quarantined} WAL files quarantined"));
    (recovered, quarantined)
}

/// fdatasyncs per acknowledged push, which must be exactly 1.
fn fsyncs_per_push(before: &Stats, after: &Stats, r: &mut Report) -> f64 {
    let d = |k: &str| after[k] - before[k];
    let per = d("wal_fsyncs") / d("session_pushes");
    r.check(per == 1.0 && d("session_rejects") == 0.0, || {
        format!("{per} fdatasyncs per push over {} pushes", d("session_pushes"))
    });
    per
}

pub fn run(a: &Args) -> Report {
    let k = ((a.seconds as f64 * NOMINAL_RATE).round() as usize).max(4);
    let mut r = Report::default();
    let streams: Vec<Stream> = (0..k as u64)
        .map(|i| stream(a.seed.wrapping_mul(7919).wrapping_add(i), PUSHES, &mut r))
        .collect();
    let warmup = stream(a.seed ^ 0x3A11_5EED, PUSHES, &mut r);
    let open_seed = a.seed.wrapping_mul(7919).wrapping_add(1 << 20);
    if a.trace {
        traced(a, &streams[..k.div_ceil(2)], &warmup, open_seed, &mut r);
        return r;
    }
    let mut setups = Vec::new();
    let mut current = None;
    for n in 0..STARTS {
        drop(current.take());
        let (s, c, dt) = start(a, &wal_dir(a, n), &[], &warmup, &mut r);
        setups.push(dt);
        current = Some((s, c));
    }
    let (mut server, mut c) = current.expect("at least one start");
    let before = c.conn.stats();
    c.next_id = MEASURED_ID;
    let mut measured = Measured::default();
    let t = Instant::now();
    c.run_streams(&streams, &mut r);
    let pushes = std::mem::take(&mut c.push_ms);
    measured.add(pushes.len(), t.elapsed().as_secs_f64(), &pushes);
    let rss = server.rss_peak_mb();
    let open = leave_open(&mut c, open_seed, &mut r);
    let at_crash = c.conn.stats();
    fsyncs_per_push(&before, &at_crash, &mut r);
    r.median_metric("setup_s", &setups, "s");
    measured.report(&mut r);
    r.metric("rss_peak_mb", rss, "MB");
    let wal = wal_dir(a, STARTS - 1);
    let flags = ["--wal-dir", wal.to_str().expect("UTF-8 temp path")];
    let mut recoveries = Vec::new();
    for _ in 0..RESTARTS {
        server.crash();
        let (s, dt) = restart(a, &flags, &open, &mut r);
        server = s;
        recoveries.push(dt);
    }
    check_recovered(&mut server, at_crash["open_sessions"], &mut r);
    r.mean_metric("recovery_s", &recoveries, "s");
    r
}

/// The traced run: the untraced pass, then the same streams against a
/// `c1pd` that records every request's spans, then the crash and one
/// restart, plus in-process `recover_file` on copies of the logs as they
/// stood at the crash.
fn traced(a: &Args, streams: &[Stream], warmup: &Stream, open_seed: u64, r: &mut Report) {
    let (plain, mut c, _) = start(a, &wal_dir(a, 0), &[], warmup, r);
    c.next_id = MEASURED_ID;
    c.run_streams(streams, r);
    let untraced_p50 = median(&c.push_ms);
    plain.crash();
    let wal = wal_dir(a, 1);
    let ring =
        (streams.len() * (PUSHES + 2) + OPEN_SESSIONS * (OPEN_RECORDS + 1) + 256).to_string();
    let tracing = ["--trace-sample", "1", "--trace-ring", ring.as_str()];
    let (server, mut c, _) = start(a, &wal, &tracing, warmup, r);
    let before = c.conn.stats();
    c.next_id = MEASURED_ID;
    let failed_before = r.failed();
    c.run_streams(streams, r);
    let after = c.conn.stats();
    let pushes = std::mem::take(&mut c.push_ms);
    let traces: Vec<_> = c
        .conn
        .traces()
        .into_iter()
        .filter(|t| t.kind == "session" && (MEASURED_ID..OPEN_ID).contains(&t.id))
        .filter(|t| t.span_us("solve").is_some())
        .collect();
    let traced = format!("{} of {} pushes left a trace", traces.len(), pushes.len());
    // a push that failed, already counted, need not have left one
    if r.failed() == failed_before {
        r.check(traces.len() == pushes.len(), || traced);
    } else {
        r.note(traced);
    }
    let span = |name: &str| {
        mean(&traces.iter().filter_map(|t| t.span_us(name)).map(|v| v as f64).collect::<Vec<_>>())
    };
    r.metric("client.push_rtt_ms", mean(&pushes), "ms");
    r.metric("client.open_rtt_ms", mean(&c.open_ms), "ms");
    r.metric("client.seal_rtt_ms", mean(&c.seal_ms), "ms");
    r.metric("incremental.solve_us", span("solve"), "us");
    r.metric("wal.append_us", span("wal"), "us");
    let per_push = fsyncs_per_push(&before, &after, r);
    r.metric("engine.wal_fsyncs_per_push", per_push, "count");
    let open = leave_open(&mut c, open_seed, r);
    let open_at_crash = c.conn.stats()["open_sessions"];
    let copy = a.tmp.join("wal-at-crash");
    std::fs::create_dir_all(&copy).expect("WAL copy directory");
    let logs = scan_dir(&wal).expect("scan WAL directory");
    for (_, path) in &logs {
        std::fs::copy(path, copy.join(path.file_name().expect("WAL file name"))).expect("copy WAL");
    }
    server.crash();
    let flags: Vec<&str> =
        ["--wal-dir", wal.to_str().expect("UTF-8 temp path")].into_iter().chain(tracing).collect();
    let (mut server, _) = restart(a, &flags, &open, r);
    let (recovered, quarantined) = check_recovered(&mut server, open_at_crash, r);
    r.metric("engine.recovered_sessions", recovered, "count");
    r.metric("engine.quarantined_wals", quarantined, "count");
    let (mut ms, mut records) = (0.0, 0u64);
    for (_, path) in scan_dir(&copy).expect("scan WAL copies") {
        let t = Instant::now();
        let rec = recover_file(
            &path,
            &c1p::core_alg::Config::default(),
            c1p::EngineConfig::default().small_cutoff,
        );
        ms += t.elapsed().as_secs_f64() * 1e3;
        match rec {
            Ok(rec) => records += rec.records,
            Err(e) => r.wrong(format!("in-process recovery of {}: {}", path.display(), e.reason)),
        }
    }
    r.metric("wal.recover_ms_per_record", ms / records.max(1) as f64, "ms");
    r.metric("trace.overhead_pct", (median(&pushes) - untraced_p50) / untraced_p50 * 100.0, "%");
}

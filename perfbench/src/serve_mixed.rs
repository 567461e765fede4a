//! `serve_mixed`: a closed loop over two connections to `c1pd` with its
//! defaults (default front end, pool sized to the host, 64 MB result
//! cache). Traffic is `mixed_schedule` with n in [48, 160]: every 3rd
//! request replays an earlier one, so about a third hit the cache, and
//! every 4th fresh one is a planted reject. The distinct instances fit in
//! the cache, so nothing is evicted. Solving is a minority of the
//! server's time here; framing, queueing and the front end are the rest.
//!
//! A run is split over several server lifetimes, each with a schedule of
//! its own: started and warmed up (`setup_s`), its share of the measured
//! requests, then killed and restarted cold a few times (`recovery_s`).
//! Every metric thus samples the whole run, not only its end, and no
//! lifetime holds more distinct results than the cache does.

use crate::report::{mean, median, Fail, Measured, Report};
use crate::server::{unexpected, Conn, Server};
use crate::Args;
use c1p::cert::{verify_witness, TuckerWitness};
use c1p::engine::proto::{decode_msg, encode_msg, Msg};
use c1p::matrix::generate::{mixed_schedule, MixedSchedule};
use c1p::matrix::io::{encode_ensemble, WireVerdict};
use c1p::matrix::{verify_linear, Ensemble};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const CONNS: usize = 2;
/// Requests per second on the reference host (2 vCPUs); sizes the work.
const NOMINAL_RATE: f64 = 1800.0;
/// Warm-up requests after each start, from a schedule of their own.
const WARMUP: usize = 256;
/// Server lifetimes per run, at least (`setup_s` is the median of their
/// starts, `rss_peak_mb` of their peaks).
const LIFETIMES: usize = 3;
/// Measured requests one lifetime serves at most. Two in three are
/// distinct, and the default cache holds about 19k results of n <= 160
/// (about 3.5 kB each), so 24k requests leave a sixth of it free.
const LIFETIME_REQUESTS: usize = 24_000;
/// Requests re-sent to a restarted (cold) server to time its recovery:
/// the tail of the lifetime's schedule, whose results the lost cache held.
const RECOVERY_BATCH: usize = 1024;
/// Restarts after each lifetime (`recovery_s` is the mean of all).
const RESTARTS: usize = 3;
/// How long a solve reply may take; the p90 is about 2 ms. Past it the
/// request is unanswered and the pass sends nothing more: once a solve
/// panics the engine's batcher thread, `c1pd` answers no further solve.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Request ids of warm-up traffic start here, so traces can tell it apart.
const WARMUP_ID: u64 = 1 << 40;

struct Request {
    msg: Msg,
    /// The planted verdict: `true` for a C1P instance.
    accept: bool,
}

impl Request {
    fn ens(&self) -> &Ensemble {
        match &self.msg {
            Msg::Solve { ens, .. } => ens,
            _ => unreachable!("requests are solves"),
        }
    }

    fn id(&self) -> u64 {
        match self.msg {
            Msg::Solve { id, .. } => id,
            _ => unreachable!("requests are solves"),
        }
    }
}

/// The schedule as solve requests with ids from `first_id`, each with its
/// planted verdict (replays inherit the verdict of what they replay).
fn requests(requests: usize, seed: u64, first_id: u64) -> Vec<Request> {
    let schedule = mixed_schedule(MixedSchedule {
        requests,
        seed,
        dup_every: 3,
        reject_every: 4,
        n_lo: 48,
        n_hi: 160,
    });
    let mut seen: HashMap<Vec<u8>, bool> = HashMap::new();
    schedule
        .into_iter()
        .enumerate()
        .map(|(i, ens)| {
            let accept = *seen.entry(encode_ensemble(&ens)).or_insert(i % 4 != 3);
            Request { msg: Msg::Solve { id: first_id + i as u64, ens }, accept }
        })
        .collect()
}

/// Client-side timings of one pass, per request (traced passes only use
/// all of them).
#[derive(Default)]
struct Pass {
    rtt_ms: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
    linear_ms: Vec<f64>,
    witness_ms: Vec<f64>,
    outcomes: Vec<Result<(), Fail>>,
    wall_s: f64,
}

impl Pass {
    fn absorb(&mut self, o: Pass) {
        self.rtt_ms.extend(o.rtt_ms);
        self.encode_us.extend(o.encode_us);
        self.decode_us.extend(o.decode_us);
        self.linear_ms.extend(o.linear_ms);
        self.witness_ms.extend(o.witness_ms);
        self.outcomes.extend(o.outcomes);
    }

    /// Requests answered with a verified verdict.
    fn completed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    fn account(&mut self, r: &mut Report) {
        for o in self.outcomes.drain(..) {
            r.op(o);
        }
    }
}

/// Sends `reqs` over the [`CONNS`] closed-loop connections (request
/// `i` on connection `i % CONNS`) and verifies every reply. After a lost
/// reply the rest of `reqs` is not sent and counts as unanswered.
fn drive(conns: &mut [Conn], reqs: &[Request]) -> Pass {
    let t = Instant::now();
    let lost = &AtomicBool::new(false);
    let mut pass = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut p = Pass::default();
                    for req in reqs.iter().skip(c).step_by(CONNS) {
                        if lost.load(Ordering::Relaxed) {
                            let why = format!("request {}: not sent after a lost reply", req.id());
                            p.outcomes.push(Err(Fail::Unanswered(why)));
                        } else if !one(conn, req, &mut p) {
                            lost.store(true, Ordering::Relaxed);
                        }
                    }
                    p
                })
            })
            .collect();
        let mut all = Pass::default();
        for h in handles {
            all.absorb(h.join().expect("client thread panicked"));
        }
        all
    });
    pass.wall_s = t.elapsed().as_secs_f64();
    pass
}

fn connect(server: &mut Server) -> Vec<Conn> {
    (0..CONNS)
        .map(|_| {
            let mut conn = server.connect();
            conn.set_reply_timeout(REPLY_TIMEOUT).expect("set the reply timeout");
            conn
        })
        .collect()
}

/// One request-reply exchange, verified. Returns whether a reply came.
fn one(conn: &mut Conn, req: &Request, p: &mut Pass) -> bool {
    let t0 = Instant::now();
    let payload = encode_msg(&req.msg);
    let t1 = Instant::now();
    let reply = conn.send(&payload).and_then(|()| conn.recv());
    let answered = reply.is_ok();
    let t2 = Instant::now();
    let msg =
        reply.map_err(|e| e.to_string()).and_then(|b| decode_msg(&b).map_err(|e| e.to_string()));
    let t3 = Instant::now();
    p.rtt_ms.push((t3 - t0).as_secs_f64() * 1e3);
    p.encode_us.push((t1 - t0).as_secs_f64() * 1e6);
    p.decode_us.push((t3 - t2).as_secs_f64() * 1e6);
    let outcome = match msg {
        Ok(Msg::Verdict { id, verdict }) if id == req.id() => {
            let t = Instant::now();
            let v = check(req, &verdict);
            let dt = t.elapsed().as_secs_f64() * 1e3;
            match verdict {
                WireVerdict::Accept { .. } => p.linear_ms.push(dt),
                WireVerdict::Reject { .. } => p.witness_ms.push(dt),
            }
            v.map_err(Fail::Wrong)
        }
        other => Err(unexpected(&format!("request {}", req.id()), other)),
    };
    p.outcomes.push(outcome);
    answered
}

/// Verifies a verdict without trusting the server.
fn check(req: &Request, verdict: &WireVerdict) -> Result<(), String> {
    let ens = req.ens();
    match verdict {
        WireVerdict::Accept { order } if req.accept => verify_linear(ens, order)
            .map_err(|v| format!("request {}: order fails verify_linear: {v:?}", req.id())),
        WireVerdict::Reject { family, atom_rows, column_ids } if !req.accept => {
            let w = TuckerWitness {
                family: *family,
                atom_rows: atom_rows.clone(),
                column_ids: column_ids.clone(),
            };
            verify_witness(ens, &w)
                .map_err(|e| format!("request {}: witness fails verify_witness: {e:?}", req.id()))
        }
        _ => Err(format!("request {}: verdict disagrees with the planted one", req.id())),
    }
}

/// Starts a server and warms it up; returns it, its connections, and
/// the seconds from spawn to the end of the warm-up.
fn start(a: &Args, flags: &[&str], warmup: &[Request], r: &mut Report) -> (Server, Vec<Conn>, f64) {
    let t = Instant::now();
    let mut server = Server::spawn(&a.c1pd, &a.tmp, flags);
    drop(server.ready());
    let mut conns = connect(&mut server);
    drive(&mut conns, warmup).account(r);
    (server, conns, t.elapsed().as_secs_f64())
}

pub fn run(a: &Args) -> Report {
    let total = ((a.seconds as f64 * NOMINAL_RATE) as usize).max(1000);
    let lifetimes = total.div_ceil(LIFETIME_REQUESTS).max(LIFETIMES);
    let per = total.div_ceil(lifetimes);
    let parts: Vec<Vec<Request>> =
        (0..lifetimes as u64).map(|l| requests(per, a.seed.wrapping_add(l << 32), 0)).collect();
    let warmup = requests(WARMUP, a.seed ^ 0x5EED_3A11, WARMUP_ID);
    let mut r = Report::default();
    if a.trace {
        traced(a, &parts[0][..per / 2], &warmup, &mut r);
        return r;
    }
    let (mut setups, mut rss, mut recoveries) = (Vec::new(), Vec::new(), Vec::new());
    let mut measured = Measured::default();
    for part in &parts {
        let (mut server, mut conns, dt) = start(a, &[], &warmup, &mut r);
        setups.push(dt);
        let mut pass = drive(&mut conns, part);
        let completed = pass.completed();
        measured.add(completed, pass.wall_s, &pass.rtt_ms);
        pass.account(&mut r);
        rss.push(server.rss_peak_mb());
        let stats = (completed == part.len()).then(|| server.ready().stats());
        if let Some(stats) = stats.filter(|s| s["evictions"] > 0.0) {
            r.note(format!(
                "{} cache evictions: the distinct instances no longer fit the cache ({} bytes held)",
                stats["evictions"], stats["cache_bytes"]
            ));
        }
        let tail = &part[per.saturating_sub(RECOVERY_BATCH)..];
        for _ in 0..RESTARTS {
            server.crash();
            let t = Instant::now();
            server = Server::spawn(&a.c1pd, &a.tmp, &[]);
            drive(&mut connect(&mut server), tail).account(&mut r);
            recoveries.push(t.elapsed().as_secs_f64());
        }
    }
    r.median_metric("setup_s", &setups, "s");
    measured.report(&mut r);
    r.median_metric("rss_peak_mb", &rss, "MB");
    r.mean_metric("recovery_s", &recoveries, "s");
    r
}

/// The traced run: the untraced pass, then the same requests against a
/// `c1pd` that records every request's spans, read back with
/// `GetTraces`, plus engine counters from `GetStats` and client spans.
fn traced(a: &Args, reqs: &[Request], warmup: &[Request], r: &mut Report) {
    let (plain, mut conns, _) = start(a, &[], warmup, r);
    let mut untraced = drive(&mut conns, reqs);
    untraced.account(r);
    plain.crash();
    let ring = (reqs.len() + warmup.len() + 64).to_string();
    let tracing = ["--trace-sample", "1", "--trace-ring", ring.as_str()];
    let (mut server, mut conns, _) = start(a, &tracing, warmup, r);
    let before = server.ready().stats();
    let mut pass = drive(&mut conns, reqs);
    let all_completed = pass.completed() == reqs.len();
    pass.account(r);
    let mut conn = server.ready();
    let after = conn.stats();
    let traces: Vec<_> =
        conn.traces().into_iter().filter(|t| t.kind == "solve" && t.id < WARMUP_ID).collect();
    let traced = format!("{} of {} requests left a trace", traces.len(), reqs.len());
    // a request that failed, already counted, need not have left one
    if all_completed {
        r.check(traces.len() == reqs.len(), || traced);
    } else {
        r.note(traced);
    }
    let d = |k: &str| after[k] - before[k];
    let span = |name: &str| {
        mean(&traces.iter().filter_map(|t| t.span_us(name)).map(|v| v as f64).collect::<Vec<_>>())
    };
    r.metric("client.rtt_ms", mean(&pass.rtt_ms), "ms");
    r.metric("engine.proto_encode_us", mean(&pass.encode_us), "us");
    r.metric("engine.proto_decode_us", mean(&pass.decode_us), "us");
    r.metric("matrix.verify_linear_ms", mean(&pass.linear_ms), "ms");
    r.metric("cert.verify_witness_ms", mean(&pass.witness_ms), "ms");
    r.metric("net.decode_us", span("decode"), "us");
    r.metric("net.flush_us", span("flush"), "us");
    let self_us: Vec<f64> = traces.iter().map(|t| t.self_us() as f64).collect();
    r.metric("net.request_self_us", mean(&self_us), "us");
    r.metric("engine.queue_us", span("queue"), "us");
    r.metric("engine.cache_us", span("cache"), "us");
    for counter in ["hits", "misses", "batches", "coalesced"] {
        r.metric(&format!("engine.{counter}"), d(counter), "count");
    }
    r.metric("engine.cache_hit_ratio", d("hits") / (d("hits") + d("misses")), "ratio");
    r.metric("engine.batch_size", d("requests") / d("batches"), "count");
    r.metric("core.solve_us", span("solve"), "us");
    for name in c1p::core_alg::stats::PHASE_NAMES {
        r.metric(&format!("core.phase.{name}_us"), span(&format!("solve/{name}")), "us");
    }
    let p50 = median(&untraced.rtt_ms);
    r.metric("trace.overhead_pct", (median(&pass.rtt_ms) - p50) / p50 * 100.0, "%");
}

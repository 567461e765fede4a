//! End-to-end request tracing: ids, sampling, retention rings, JSONL
//! (DESIGN.md §13).
//!
//! The engine side ([`c1p_engine::trace`]) records spans; this module
//! decides *which* requests get a recorder and *which* finished traces
//! are worth keeping:
//!
//! * **Trace ids are content-derived.** `splitmix64(fnv1a(payload) ^
//!   seed)`, with [`c1p_matrix::io::fnv1a`] — a function of the request
//!   bytes and the server's `--trace-seed`, not of arrival time or
//!   connection identity. The same seeded request carries the same id
//!   whatever the shard count, which is what makes the
//!   cross-shard-count stability test (and debugging across
//!   deployments) possible.
//! * **Head-sampling is deterministic.** A request is head-sampled iff
//!   `splitmix64(trace_id ^ seed) % sample_every == 0`; `--trace-sample
//!   0` disables tracing entirely and every hook collapses to an
//!   `Option::None` check.
//! * **Tail-sampling keeps the interesting ones.** While tracing is on,
//!   *every* request records spans; at finish, error replies and
//!   requests slower than `--slow-ms` are always retained, others only
//!   if head-sampled. Slow traces also go to a stderr log line.
//! * **Retention is ring-buffered per shard, two-tiered.** When a ring
//!   is full, the oldest head-sampled entry is evicted first; tail-kept
//!   (slow/error) entries are only displaced by newer entries once no
//!   head-sampled ones remain, and an incoming head sample is dropped
//!   rather than displacing them. Evicting a trace clears any latency
//!   histogram exemplar naming it, so exemplars always point at a
//!   retrievable trace.

use crate::metrics::Metrics;
use c1p_engine::trace::ReqTrace;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Tracing knobs, carried in `EventLoopOpts::trace`.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Head-sample one request in `sample_every`; `0` disables tracing.
    pub sample_every: u64,
    /// Requests slower than this (decode start → outbox flush) are
    /// tail-sampled and logged to stderr regardless of head-sampling.
    pub slow_us: u64,
    /// Seed for trace-id derivation and the head-sampling hash.
    pub seed: u64,
    /// Retained traces per shard ring.
    pub ring_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { sample_every: 0, slow_us: 100_000, seed: 1, ring_cap: 256 }
    }
}

/// SplitMix64 finalizer — decorrelates the structured FNV output. The
/// crate's one seeded mixer: fault schedules and the retry client's
/// jitter draw from it too.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The deterministic, content-derived trace id of a request payload.
pub fn trace_id_for(payload: &[u8], seed: u64) -> u64 {
    splitmix64(c1p_matrix::io::fnv1a(payload) ^ seed)
}

/// Why a trace was retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    /// Won the 1-in-N head-sampling lottery.
    Head,
    /// Exceeded the `--slow-ms` budget (tail-sampled; protected).
    Slow,
    /// Finished with an error reply (tail-sampled; protected).
    Error,
}

impl Keep {
    fn as_str(self) -> &'static str {
        match self {
            Keep::Head => "head",
            Keep::Slow => "slow",
            Keep::Error => "error",
        }
    }
}

/// A live request's trace context, created at frame arrival and carried
/// through the pending map to the reply path.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    /// The shared span recorder (engine hooks record into it).
    pub req: Arc<ReqTrace>,
    /// Content-derived trace id.
    pub trace_id: u64,
    /// Client-chosen request id (0 until decode names one).
    pub id: u64,
    /// Request kind label (`solve`, `open`, `session`, `inline`).
    pub kind: &'static str,
    /// Ring the finished trace lands in (owning shard; 0 for inline
    /// replies and admission rejects).
    pub shard: usize,
    /// Head-sampling verdict, precomputed at `begin`.
    pub head_sampled: bool,
}

/// Everything the flush pass needs to finish a trace once its reply
/// frame has left the socket.
#[derive(Debug)]
pub struct Finishing {
    /// The request's trace context.
    pub b: TraceBuilder,
    /// Service latency (parse → reply queued) — the value the latency
    /// histogram observed; the exemplar must land in the same bucket.
    pub latency_us: u64,
    /// The reply was an `Error` frame.
    pub error: bool,
    /// `flush` span start: when the reply was queued on the outbox.
    pub flush_start_us: u64,
}

/// One retained trace: the pre-rendered JSONL line plus what eviction
/// and the exemplar invariant need.
#[derive(Debug)]
struct Retained {
    trace_id: u64,
    keep: Keep,
    line: String,
}

/// Stable ordering rank for lifecycle span names — ties on `start_us`
/// (common for zero-length spans) sort in pipeline order, keeping the
/// rendered span sequence deterministic across runs and shard counts.
fn rank(name: &str) -> usize {
    const ORDER: [&str; 15] = [
        "request",
        "decode",
        "admission",
        "queue",
        "mailbox",
        "cache",
        "coalesce",
        "solve",
        "solve/partition",
        "solve/prepare",
        "solve/decompose",
        "solve/align",
        "solve/merge",
        "wal",
        "flush",
    ];
    ORDER.iter().position(|&n| n == name).unwrap_or(ORDER.len())
}

/// Parent of a span, by name: solver phases nest under `solve`,
/// everything else under the implicit `request` root.
fn parent_of(name: &str) -> &'static str {
    if name.starts_with("solve/") {
        "solve"
    } else {
        "request"
    }
}

/// The per-server tracer: sampling policy + per-shard retention rings.
#[derive(Debug)]
pub struct Tracer {
    cfg: TraceConfig,
    rings: Vec<Mutex<VecDeque<Retained>>>,
}

impl Tracer {
    /// A tracer with one ring per shard.
    pub fn new(cfg: TraceConfig, shards: usize) -> Tracer {
        Tracer { cfg, rings: (0..shards.max(1)).map(|_| Mutex::new(VecDeque::new())).collect() }
    }

    /// Whether any request gets a recorder at all.
    pub fn enabled(&self) -> bool {
        self.cfg.sample_every > 0
    }

    /// The policy this tracer runs.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Starts a trace for a raw frame payload: derives the id, rolls the
    /// head-sampling dice, and stamps the epoch. `None` when tracing is
    /// off — the caller threads the `Option` through and never branches
    /// again.
    pub fn begin(&self, payload: &[u8]) -> Option<TraceBuilder> {
        if !self.enabled() {
            return None;
        }
        let trace_id = trace_id_for(payload, self.cfg.seed);
        Some(TraceBuilder {
            req: Arc::new(ReqTrace::new()),
            trace_id,
            id: 0,
            kind: "inline",
            shard: 0,
            head_sampled: splitmix64(trace_id ^ self.cfg.seed)
                .is_multiple_of(self.cfg.sample_every),
        })
    }

    /// Finishes a trace after its reply bytes hit the socket: records
    /// the `flush` span, applies the retention policy, renders the JSONL
    /// line into the owning shard's ring, maintains the exemplar
    /// invariant, and emits the stderr slow log.
    pub fn finish(&self, f: Finishing, metrics: &Metrics) {
        f.b.req.record("flush", f.flush_start_us);
        let total_us = f.b.req.now_us();
        let keep = if f.error {
            Keep::Error
        } else if total_us >= self.cfg.slow_us {
            Keep::Slow
        } else if f.b.head_sampled {
            Keep::Head
        } else {
            metrics.traces_dropped_total.inc();
            return;
        };
        let line = render_jsonl(&f, keep, total_us);
        if keep == Keep::Slow {
            eprintln!(
                "c1pd: slow request trace_id={:016x} kind={} id={} total_us={total_us} \
                 (over the {}us budget; retained for GetTraces)",
                f.b.trace_id, f.b.kind, f.b.id, self.cfg.slow_us
            );
        }
        let ring_ix = f.b.shard % self.rings.len();
        let stored = {
            let mut ring = self.rings[ring_ix].lock().expect("trace ring lock");
            push_two_tier(
                &mut ring,
                self.cfg.ring_cap.max(1),
                Retained { trace_id: f.b.trace_id, keep, line },
            )
        };
        match stored {
            Push::Stored { evicted } => {
                for id in evicted {
                    metrics.frame_latency_us.clear_exemplar(id);
                }
                metrics.traces_retained_total.inc();
                metrics.frame_latency_us.attach_exemplar(f.latency_us, f.b.trace_id);
            }
            Push::RejectedIncoming => {
                // ring full of protected tail-kept traces: the head
                // sample loses, and never gets an exemplar
                metrics.traces_dropped_total.inc();
            }
        }
    }

    /// Drains nothing, copies everything: the JSONL dump served by
    /// `GetTraces` — shard rings in order, oldest first within each.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for ring in &self.rings {
            for r in ring.lock().expect("trace ring lock").iter() {
                out.push_str(&r.line);
                out.push('\n');
            }
        }
        out
    }

    /// The retained trace ids, per ring (test/driver helper).
    pub fn retained_ids(&self) -> Vec<Vec<u64>> {
        self.rings
            .iter()
            .map(|r| r.lock().expect("trace ring lock").iter().map(|e| e.trace_id).collect())
            .collect()
    }
}

enum Push {
    Stored { evicted: Vec<u64> },
    RejectedIncoming,
}

/// Two-tier ring insert: head-sampled entries evict oldest-first; slow /
/// error entries are protected and only displaced (oldest-first) by
/// newer entries once no head-sampled entry remains.
fn push_two_tier(ring: &mut VecDeque<Retained>, cap: usize, r: Retained) -> Push {
    let mut evicted = Vec::new();
    if ring.len() >= cap {
        if let Some(pos) = ring.iter().position(|e| e.keep == Keep::Head) {
            evicted.push(ring.remove(pos).expect("position in bounds").trace_id);
        } else if r.keep != Keep::Head {
            evicted.push(ring.pop_front().expect("nonempty full ring").trace_id);
        } else {
            return Push::RejectedIncoming;
        }
    }
    ring.push_back(r);
    Push::Stored { evicted }
}

/// Renders one finished trace as a JSONL object. Spans are sorted by
/// `(start_us, rank)` and carry their parent by name; the `request` root
/// (offset 0 → total) is synthesized first.
fn render_jsonl(f: &Finishing, keep: Keep, total_us: u64) -> String {
    let mut spans = f.b.req.take();
    spans.sort_by_key(|s| (s.start_us, rank(s.name)));
    let mut line = String::with_capacity(256 + spans.len() * 64);
    let _ = write!(
        line,
        "{{\"trace_id\":\"{:016x}\",\"id\":{},\"kind\":\"{}\",\"keep\":\"{}\",\
         \"error\":{},\"shard\":{},\"total_us\":{},\"spans\":[\
         {{\"name\":\"request\",\"parent\":null,\"start_us\":0,\"end_us\":{}}}",
        f.b.trace_id,
        f.b.id,
        f.b.kind,
        keep.as_str(),
        f.error,
        f.b.shard,
        total_us,
        total_us,
    );
    for s in &spans {
        let _ = write!(
            line,
            ",{{\"name\":\"{}\",\"parent\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
            s.name,
            parent_of(s.name),
            s.start_us,
            s.end_us.min(total_us),
        );
    }
    line.push_str("]}");
    line
}

/// Projects a rendered JSONL trace line onto its shard-count-invariant
/// structure: `trace_id kind span>parent ...`. Physical timings and the
/// owning shard differ between servers run with different `--shards`;
/// the id, kind, span names, parents, and order do not — this is the
/// byte-stable projection the cross-shard-count test compares
/// (DESIGN.md §13).
pub fn structure(line: &str) -> Option<String> {
    let field = |key: &str, from: &str| -> Option<String> {
        let at = from.find(&format!("\"{key}\":"))?;
        let rest = &from[at + key.len() + 3..];
        let rest = rest.strip_prefix('"').unwrap_or(rest);
        let end = rest.find(['"', ',', '}'])?;
        Some(rest[..end].to_string())
    };
    let tid = field("trace_id", line)?;
    let kind = field("kind", line)?;
    let mut out = format!("{tid} {kind}");
    for chunk in line.split("{\"name\":\"").skip(1) {
        let name_end = chunk.find('"')?;
        let name = &chunk[..name_end];
        let parent = field("parent", chunk).unwrap_or_else(|| "null".into());
        let _ = write!(out, " {name}>{parent}");
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(sample_every: u64, slow_us: u64, cap: usize) -> Tracer {
        Tracer::new(TraceConfig { sample_every, slow_us, seed: 7, ring_cap: cap }, 1)
    }

    fn finishing(t: &Tracer, payload: &[u8], error: bool) -> Finishing {
        let b = t.begin(payload).expect("tracing on");
        let start = b.req.now_us();
        b.req.record("decode", start);
        Finishing { b, latency_us: 10, error, flush_start_us: 0 }
    }

    #[test]
    fn trace_ids_are_content_derived_and_seeded() {
        assert_eq!(trace_id_for(b"abc", 1), trace_id_for(b"abc", 1));
        assert_ne!(trace_id_for(b"abc", 1), trace_id_for(b"abc", 2));
        assert_ne!(trace_id_for(b"abc", 1), trace_id_for(b"abd", 1));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let t1 = tracer(4, u64::MAX, 64);
        let t2 = tracer(4, u64::MAX, 64);
        let verdicts: Vec<bool> =
            (0..200u32).map(|i| t1.begin(&i.to_le_bytes()).unwrap().head_sampled).collect();
        let again: Vec<bool> =
            (0..200u32).map(|i| t2.begin(&i.to_le_bytes()).unwrap().head_sampled).collect();
        assert_eq!(verdicts, again, "same seed, same payloads, same verdicts");
        let hits = verdicts.iter().filter(|&&v| v).count();
        assert!(hits > 10 && hits < 150, "1-in-4 sampling wildly off: {hits}/200");
        let other = Tracer::new(
            TraceConfig { sample_every: 4, slow_us: u64::MAX, seed: 8, ring_cap: 64 },
            1,
        );
        let reseeded: Vec<bool> =
            (0..200u32).map(|i| other.begin(&i.to_le_bytes()).unwrap().head_sampled).collect();
        assert_ne!(verdicts, reseeded, "a different seed picks a different subset");
    }

    #[test]
    fn sample_every_zero_disables_tracing() {
        let t = tracer(0, 0, 64);
        assert!(!t.enabled());
        assert!(t.begin(b"x").is_none());
    }

    #[test]
    fn ring_overflow_keeps_newest_and_all_tail_kept() {
        let m = Metrics::new(1);
        // sample everything, nothing is slow: all Head entries
        let t = tracer(1, u64::MAX, 3);
        for i in 0..5u32 {
            t.finish(finishing(&t, &i.to_le_bytes(), false), &m);
        }
        let ids = t.retained_ids().remove(0);
        assert_eq!(ids.len(), 3, "ring capped");
        let newest = trace_id_for(&4u32.to_le_bytes(), 7);
        assert_eq!(*ids.last().unwrap(), newest, "newest survives");
        // two protected error traces displace head entries, never each other
        let e1 = finishing(&t, b"err-1", true);
        let (e1_id, e2_id) = (e1.b.trace_id, trace_id_for(b"err-2", 7));
        t.finish(e1, &m);
        t.finish(finishing(&t, b"err-2", true), &m);
        // flood with head samples: the errors must survive
        for i in 10..30u32 {
            t.finish(finishing(&t, &i.to_le_bytes(), false), &m);
        }
        let ids = t.retained_ids().remove(0);
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&e1_id) && ids.contains(&e2_id), "tail-kept evicted: {ids:x?}");
        // a ring of only protected entries rejects incoming head samples
        t.finish(finishing(&t, b"err-3", true), &m);
        let before = t.retained_ids().remove(0);
        assert!(before.iter().all(|id| *id != trace_id_for(&99u32.to_le_bytes(), 7)));
        t.finish(finishing(&t, &99u32.to_le_bytes(), false), &m);
        assert_eq!(t.retained_ids().remove(0), before, "head sample displaced a protected trace");
        // but a newer protected entry displaces the oldest protected one
        t.finish(finishing(&t, b"err-4", true), &m);
        let ids = t.retained_ids().remove(0);
        assert!(!ids.contains(&e1_id), "oldest tail-kept should rotate out");
        assert!(ids.contains(&trace_id_for(b"err-4", 7)));
    }

    #[test]
    fn exemplars_always_point_at_a_retained_trace() {
        let m = Metrics::new(1);
        let t = tracer(1, u64::MAX, 2);
        for i in 0..20u32 {
            t.finish(finishing(&t, &i.to_le_bytes(), i % 3 == 0), &m);
            let dump = m.render(&[]);
            let retained: Vec<u64> = t.retained_ids().remove(0);
            for l in dump.lines().filter(|l| l.contains("trace_id=\"")) {
                let hex = l.split("trace_id=\"").nth(1).unwrap().split('"').next().unwrap();
                let id = u64::from_str_radix(hex, 16).unwrap();
                assert!(
                    retained.contains(&id),
                    "exemplar {id:x} not retained (have {retained:x?})"
                );
            }
        }
        assert!(m.traces_retained_total.get() > 0);
    }

    #[test]
    fn jsonl_has_root_parents_and_sorted_spans() {
        let m = Metrics::new(1);
        let t = tracer(1, u64::MAX, 8);
        let b = t.begin(b"payload").unwrap();
        b.req.record_span("solve", 10, 50);
        b.req.record_span("solve/partition", 10, 20);
        b.req.record_span("decode", 0, 2);
        t.finish(Finishing { b, latency_us: 50, error: false, flush_start_us: 50 }, &m);
        let dump = t.dump();
        let line = dump.lines().next().unwrap();
        assert!(line.contains("\"name\":\"request\",\"parent\":null"));
        assert!(line.contains("\"name\":\"solve/partition\",\"parent\":\"solve\""));
        assert!(line.contains("\"name\":\"decode\",\"parent\":\"request\""));
        let decode_at = line.find("\"decode\"").unwrap();
        let solve_at = line.find("\"solve\"").unwrap();
        let part_at = line.find("\"solve/partition\"").unwrap();
        assert!(decode_at < solve_at && solve_at < part_at, "spans out of order: {line}");
        let s = structure(line).unwrap();
        assert!(
            s.ends_with(
                "inline request>null decode>request solve>request solve/partition>solve \
                 flush>request"
            ),
            "structure projection: {s}"
        );
    }
}

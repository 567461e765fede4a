//! First-class serving telemetry: a stable-name registry of atomic
//! counters, gauges and log-bucketed latency histograms.
//!
//! Design rules (DESIGN.md §11):
//!
//! * **Names are API.** Every exported series carries one of the names in
//!   [`STABLE_NAMES`]; renaming one is a breaking change to every
//!   dashboard and CI gate scraping the dump, so names are declared once,
//!   here, and tests pin that the rendered text contains all of them.
//!   The convention follows the related repos' `*_cache_*` telemetry:
//!   monotone counters end in `_total`, instantaneous values do not, and
//!   histograms expand to `_bucket{le="..."}`/`_sum`/`_count` series.
//! * **Two transports, one truth.** The same snapshot backs both the
//!   `GetStats` JSON frame (engine counters, summed across shards) and
//!   the plain-text [`Metrics::render`] dump (engine counters *plus* the
//!   front-end's own series) — a scraper and a wire client can never
//!   disagree about what the server did.
//! * **Engine counters are folded in, not duplicated.** The engine
//!   already counts cache/WAL/snapshot/session events
//!   ([`c1p_engine::EngineStats`]); the registry renders those under
//!   stable `c1pd_*` names at snapshot time instead of double-counting
//!   them on the hot path.
//!
//! The front-end's own series (connections, frames, bytes, queue depth,
//! per-frame latency, per-shard job counts) are plain relaxed atomics —
//! one `fetch_add` per event, no locks, shared freely across the event
//! loop and its shard workers.

use c1p_engine::EngineStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (goes up and down).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets: powers of two from 1 µs up to
/// 2^21 µs (~2.1 s); anything slower lands in `+Inf`.
pub const HIST_BUCKETS: usize = 22;

/// A log2-bucketed latency histogram over microseconds. Observation is
/// two relaxed `fetch_add`s and a `leading_zeros` — cheap enough for
/// every frame.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS + 1], // [le 2^0 .. le 2^21, +Inf]
    /// Per-bucket exemplar: the most recent *retained* trace id whose
    /// observation landed in the bucket (`0` = none — trace ids are
    /// splitmix64 outputs, so a real zero id is vanishingly unlikely and
    /// merely loses its exemplar slot). The tracer clears a slot when the
    /// trace it names is evicted, keeping the exemplar → retained-trace
    /// invariant (DESIGN.md §13).
    exemplars: [AtomicU64; HIST_BUCKETS + 1],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Bucket index for an observation of `us` microseconds.
fn bucket_ix(us: u64) -> usize {
    let ix = if us <= 1 { 0 } else { (64 - (us - 1).leading_zeros()) as usize };
    ix.min(HIST_BUCKETS)
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        self.buckets[bucket_ix(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Stamps `trace_id` as the exemplar of the bucket an observation of
    /// `us` lands in (the observation itself was already counted by
    /// [`Histogram::observe_us`] — retention is decided later than
    /// observation, so the two are separate calls).
    pub fn attach_exemplar(&self, us: u64, trace_id: u64) {
        self.exemplars[bucket_ix(us)].store(trace_id, Ordering::Relaxed);
    }

    /// Clears every exemplar slot naming `trace_id` (called when the
    /// trace is evicted from its ring, so dangling ids never render).
    pub fn clear_exemplar(&self, trace_id: u64) {
        for e in &self.exemplars {
            let _ = e.compare_exchange(trace_id, 0, Ordering::Relaxed, Ordering::Relaxed);
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, in microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Renders the cumulative `_bucket`/`_sum`/`_count` series. Buckets
    /// with an exemplar append ` # {trace_id="<hex>"}` — the trace is
    /// retrievable via `GetTraces` as long as the suffix renders.
    fn render(&self, name: &str, out: &mut String) {
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if i < HIST_BUCKETS {
                let _ = write!(out, "{name}_bucket{{le=\"{}\"}} {cum}", 1u64 << i);
            } else {
                let _ = write!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
            }
            let ex = self.exemplars[i].load(Ordering::Relaxed);
            if ex != 0 {
                let _ = write!(out, " # {{trace_id=\"{ex:016x}\"}}");
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{name}_sum {}", self.sum_us());
        let _ = writeln!(out, "{name}_count {}", self.count());
    }
}

/// Per-shard series (labelled `{shard="i"}` in the dump).
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Jobs dispatched to this shard's worker.
    pub jobs_total: Counter,
    /// Jobs currently queued or running on this shard.
    pub queue_depth: Gauge,
}

/// The front-end's own registry. One instance per server; shared by the
/// event loop and every shard worker.
#[derive(Debug)]
pub struct Metrics {
    /// Connections accepted.
    pub connections_accepted_total: Counter,
    /// Connections refused at the `--max-conns` limit.
    pub connections_refused_total: Counter,
    /// Currently open connections.
    pub connections_open: Gauge,
    /// Connections closed for any reason (EOF, error, policy).
    pub disconnects_total: Counter,
    /// Connections dropped because their outbox exceeded the byte cap.
    pub slow_reader_disconnects_total: Counter,
    /// Connections dropped because a partial frame stalled past the
    /// `--read-timeout-ms` budget.
    pub read_timeout_disconnects_total: Counter,
    /// Complete request frames parsed.
    pub frames_read_total: Counter,
    /// Response frames fully written.
    pub frames_written_total: Counter,
    /// Payload + prefix bytes read off sockets.
    pub bytes_read_total: Counter,
    /// Payload + prefix bytes written to sockets.
    pub bytes_written_total: Counter,
    /// Frames whose payload failed to decode.
    pub malformed_frames_total: Counter,
    /// Frames whose declared length exceeded the frame cap.
    pub oversize_frames_total: Counter,
    /// Requests currently in flight across all shards (dispatch → reply).
    pub queue_depth: Gauge,
    /// Solves refused at the front end's `max_queue` cap, before any
    /// engine saw them. Not a series of its own:
    /// [`Metrics::engine_totals`] adds it to the engines' `overloaded`.
    pub queue_refusals_total: Counter,
    /// Bytes currently parked in connection outboxes.
    pub outbox_bytes: Gauge,
    /// Frame service latency: complete request parsed → response queued.
    pub frame_latency_us: Histogram,
    /// Faults injected by the front-end's chaos plan (socket read/write
    /// faults, shard kills, dropped/delayed replies). Engine-side WAL
    /// fault injections are folded in at render time.
    pub faults_injected_total: Counter,
    /// Client retries observed server-side: `QuerySession` handshake
    /// frames served. A well-behaved client only sends one after a
    /// connection-level failure, so this counts retry reconciliations.
    pub retries_total: Counter,
    /// Shard workers respawned after a panic or injected kill.
    pub shard_restarts_total: Counter,
    /// `Unavailable` error frames sent because the owning shard was
    /// down, degraded, or mid-restart.
    pub degraded_replies_total: Counter,
    /// Requests answered `Unavailable` because they outlived the
    /// `--request-deadline-ms` budget (reply lost to a fault or a dead
    /// shard, and reaped instead of hanging).
    pub deadline_expired_total: Counter,
    /// Traces retained in the ring buffers (head-sampled + tail-kept).
    pub traces_retained_total: Counter,
    /// Finished traces discarded by the sampling policy.
    pub traces_dropped_total: Counter,
    /// Per-shard series, indexed by shard id.
    pub shards: Vec<ShardMetrics>,
    /// Registry construction time — the `c1pd_uptime_seconds` epoch.
    start: Instant,
}

/// Every stable series name the dump exports (histograms listed by base
/// name; the rendered form appends `_bucket`/`_sum`/`_count`, labelled
/// series append `{shard="i"}`). Tests and CI gates iterate this list —
/// adding a metric means adding its name here, and renaming one fails
/// the `stable_names` test.
pub const STABLE_NAMES: &[&str] = &[
    // engine-derived (folded from `EngineStats` at render time)
    "c1pd_requests_total",
    "c1pd_batches_total",
    "c1pd_cache_hits_total",
    "c1pd_cache_misses_total",
    "c1pd_cache_evictions_total",
    "c1pd_cache_insertions_total",
    "c1pd_cache_uncacheable_total",
    "c1pd_cache_entries",
    "c1pd_cache_bytes",
    "c1pd_coalesced_total",
    "c1pd_overloaded_total",
    "c1pd_batched_small_total",
    "c1pd_large_direct_total",
    "c1pd_sessions_opened_total",
    "c1pd_sessions_sealed_total",
    "c1pd_sessions_evicted_total",
    "c1pd_session_pushes_total",
    "c1pd_session_rejects_total",
    "c1pd_open_sessions",
    "c1pd_wal_appends_total",
    "c1pd_wal_fsyncs_total",
    "c1pd_recovered_sessions_total",
    "c1pd_quarantined_wals_total",
    "c1pd_snapshot_writes_total",
    "c1pd_warm_start_hits_total",
    "c1pd_recovery_seconds_total",
    // front-end
    "c1pd_connections_accepted_total",
    "c1pd_connections_refused_total",
    "c1pd_connections_open",
    "c1pd_disconnects_total",
    "c1pd_slow_reader_disconnects_total",
    "c1pd_read_timeout_disconnects_total",
    "c1pd_frames_read_total",
    "c1pd_frames_written_total",
    "c1pd_bytes_read_total",
    "c1pd_bytes_written_total",
    "c1pd_malformed_frames_total",
    "c1pd_oversize_frames_total",
    "c1pd_queue_depth",
    "c1pd_outbox_bytes",
    "c1pd_frame_latency_us",
    // chaos / supervision (front-end counters; `faults_injected_total`
    // also folds the engine's injected-WAL-fault count at render time)
    "c1pd_faults_injected_total",
    "c1pd_retries_total",
    "c1pd_shard_restarts_total",
    "c1pd_degraded_replies_total",
    "c1pd_deadline_expired_total",
    // build / process identity + tracing (DESIGN.md §13)
    "c1pd_build_info",
    "c1pd_uptime_seconds",
    "c1pd_traces_retained_total",
    "c1pd_traces_dropped_total",
    "c1pd_shard_jobs_total",
    "c1pd_shard_queue_depth",
    "c1pd_shard_cache_hits_total",
];

/// `# TYPE` classification for a series name (histograms are rendered by
/// [`Histogram::render`] and typed at the base name).
fn type_of(name: &str) -> &'static str {
    if name.ends_with("_total") {
        "counter"
    } else if name.ends_with("_us") {
        "histogram"
    } else {
        "gauge"
    }
}

/// `# HELP` text: the series name read out loud — mechanical, but every
/// line parses and no series ships without one.
fn help_of(name: &str) -> String {
    name.strip_prefix("c1pd_").unwrap_or(name).replace('_', " ")
}

impl Metrics {
    /// A registry for a server with `shards` shard workers.
    pub fn new(shards: usize) -> Metrics {
        Metrics {
            connections_accepted_total: Counter::default(),
            connections_refused_total: Counter::default(),
            connections_open: Gauge::default(),
            disconnects_total: Counter::default(),
            slow_reader_disconnects_total: Counter::default(),
            read_timeout_disconnects_total: Counter::default(),
            frames_read_total: Counter::default(),
            frames_written_total: Counter::default(),
            bytes_read_total: Counter::default(),
            bytes_written_total: Counter::default(),
            malformed_frames_total: Counter::default(),
            oversize_frames_total: Counter::default(),
            queue_depth: Gauge::default(),
            queue_refusals_total: Counter::default(),
            outbox_bytes: Gauge::default(),
            frame_latency_us: Histogram::default(),
            faults_injected_total: Counter::default(),
            retries_total: Counter::default(),
            shard_restarts_total: Counter::default(),
            degraded_replies_total: Counter::default(),
            deadline_expired_total: Counter::default(),
            traces_retained_total: Counter::default(),
            traces_dropped_total: Counter::default(),
            shards: (0..shards.max(1)).map(|_| ShardMetrics::default()).collect(),
            start: Instant::now(),
        }
    }

    /// The server-wide engine counters behind both `GetStats` and the
    /// `c1pd_*` engine series: the per-shard snapshots summed, plus the
    /// front end's queue-cap refusals in `overloaded`, so each refusal
    /// counts exactly once.
    pub fn engine_totals(&self, per_shard: &[EngineStats]) -> EngineStats {
        let mut sum = EngineStats::default();
        for s in per_shard {
            sum.absorb(s);
        }
        sum.overloaded += self.queue_refusals_total.get();
        sum
    }

    /// Renders the full plain-text dump: `# HELP`/`# TYPE` comments plus
    /// one `name value` line per series, engine counters folded in from
    /// the per-shard stats snapshots (`per_shard[i]` = shard `i`'s
    /// engine).
    pub fn render(&self, per_shard: &[EngineStats]) -> String {
        let sum = self.engine_totals(per_shard);
        let mut out = String::with_capacity(8192);
        let head = |out: &mut String, name: &str| {
            let _ = writeln!(out, "# HELP {name} {}", help_of(name));
            let _ = writeln!(out, "# TYPE {name} {}", type_of(name));
        };
        let c = |out: &mut String, name: &str, v: u64| {
            head(out, name);
            let _ = writeln!(out, "{name} {v}");
        };
        let g = |out: &mut String, name: &str, v: i64| {
            head(out, name);
            let _ = writeln!(out, "{name} {v}");
        };
        c(&mut out, "c1pd_requests_total", sum.requests);
        c(&mut out, "c1pd_batches_total", sum.batches);
        c(&mut out, "c1pd_cache_hits_total", sum.hits);
        c(&mut out, "c1pd_cache_misses_total", sum.misses);
        c(&mut out, "c1pd_cache_evictions_total", sum.evictions);
        c(&mut out, "c1pd_cache_insertions_total", sum.insertions);
        c(&mut out, "c1pd_cache_uncacheable_total", sum.uncacheable);
        c(&mut out, "c1pd_cache_entries", sum.cache_entries);
        c(&mut out, "c1pd_cache_bytes", sum.cache_bytes);
        c(&mut out, "c1pd_coalesced_total", sum.coalesced);
        c(&mut out, "c1pd_overloaded_total", sum.overloaded);
        c(&mut out, "c1pd_batched_small_total", sum.batched_small);
        c(&mut out, "c1pd_large_direct_total", sum.large_direct);
        c(&mut out, "c1pd_sessions_opened_total", sum.sessions_opened);
        c(&mut out, "c1pd_sessions_sealed_total", sum.sessions_sealed);
        c(&mut out, "c1pd_sessions_evicted_total", sum.sessions_evicted);
        c(&mut out, "c1pd_session_pushes_total", sum.session_pushes);
        c(&mut out, "c1pd_session_rejects_total", sum.session_rejects);
        c(&mut out, "c1pd_open_sessions", sum.open_sessions);
        c(&mut out, "c1pd_wal_appends_total", sum.wal_appends);
        c(&mut out, "c1pd_wal_fsyncs_total", sum.wal_fsyncs);
        c(&mut out, "c1pd_recovered_sessions_total", sum.recovered_sessions);
        c(&mut out, "c1pd_quarantined_wals_total", sum.quarantined_wals);
        c(&mut out, "c1pd_snapshot_writes_total", sum.snapshot_writes);
        c(&mut out, "c1pd_warm_start_hits_total", sum.warm_start_hits);
        head(&mut out, "c1pd_recovery_seconds_total");
        let _ = writeln!(out, "c1pd_recovery_seconds_total {:.6}", sum.recovery_us as f64 / 1e6);
        c(&mut out, "c1pd_connections_accepted_total", self.connections_accepted_total.get());
        c(&mut out, "c1pd_connections_refused_total", self.connections_refused_total.get());
        g(&mut out, "c1pd_connections_open", self.connections_open.get());
        c(&mut out, "c1pd_disconnects_total", self.disconnects_total.get());
        c(&mut out, "c1pd_slow_reader_disconnects_total", self.slow_reader_disconnects_total.get());
        c(
            &mut out,
            "c1pd_read_timeout_disconnects_total",
            self.read_timeout_disconnects_total.get(),
        );
        c(&mut out, "c1pd_frames_read_total", self.frames_read_total.get());
        c(&mut out, "c1pd_frames_written_total", self.frames_written_total.get());
        c(&mut out, "c1pd_bytes_read_total", self.bytes_read_total.get());
        c(&mut out, "c1pd_bytes_written_total", self.bytes_written_total.get());
        c(&mut out, "c1pd_malformed_frames_total", self.malformed_frames_total.get());
        c(&mut out, "c1pd_oversize_frames_total", self.oversize_frames_total.get());
        g(&mut out, "c1pd_queue_depth", self.queue_depth.get());
        g(&mut out, "c1pd_outbox_bytes", self.outbox_bytes.get());
        head(&mut out, "c1pd_frame_latency_us");
        self.frame_latency_us.render("c1pd_frame_latency_us", &mut out);
        c(
            &mut out,
            "c1pd_faults_injected_total",
            self.faults_injected_total.get() + sum.wal_faults_injected,
        );
        c(&mut out, "c1pd_retries_total", self.retries_total.get());
        c(&mut out, "c1pd_shard_restarts_total", self.shard_restarts_total.get());
        c(&mut out, "c1pd_degraded_replies_total", self.degraded_replies_total.get());
        c(&mut out, "c1pd_deadline_expired_total", self.deadline_expired_total.get());
        head(&mut out, "c1pd_build_info");
        // the `mode` label is API; the event loop is the only server
        let _ = writeln!(
            out,
            "c1pd_build_info{{version=\"{}\",mode=\"event-loop\"}} 1",
            env!("CARGO_PKG_VERSION"),
        );
        g(&mut out, "c1pd_uptime_seconds", self.start.elapsed().as_secs() as i64);
        c(&mut out, "c1pd_traces_retained_total", self.traces_retained_total.get());
        c(&mut out, "c1pd_traces_dropped_total", self.traces_dropped_total.get());
        head(&mut out, "c1pd_shard_jobs_total");
        for (i, sh) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "c1pd_shard_jobs_total{{shard=\"{i}\"}} {}", sh.jobs_total.get());
        }
        head(&mut out, "c1pd_shard_queue_depth");
        for (i, sh) in self.shards.iter().enumerate() {
            let _ =
                writeln!(out, "c1pd_shard_queue_depth{{shard=\"{i}\"}} {}", sh.queue_depth.get());
        }
        head(&mut out, "c1pd_shard_cache_hits_total");
        for (i, s) in per_shard.iter().enumerate() {
            let _ = writeln!(out, "c1pd_shard_cache_hits_total{{shard=\"{i}\"}} {}", s.hits);
        }
        out
    }
}

/// Scans one series value out of a rendered dump (test/CI helper — the
/// scrapers in this workspace carry no text-format parser beyond this).
/// For histograms pass the `_count`/`_sum` form; for labelled series the
/// full `name{label}` prefix. `# HELP`/`# TYPE` comment lines are
/// skipped, and only the first value token is parsed, so bucket lines
/// carrying an exemplar suffix scrape like any other. Values parse as
/// `f64`: counters render as integers, `_seconds` series fractionally.
pub fn scrape(dump: &str, series: &str) -> Option<f64> {
    dump.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let rest = l.strip_prefix(series)?;
        let rest = rest.strip_prefix(' ')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises every metric in the registry to a nonzero value and
    /// checks the render reflects it — the mechanics behind the
    /// "every metric nonzero-exercised by at least one test" gate (the
    /// serving integration tests cover the realistic paths).
    #[test]
    fn every_registered_series_renders_nonzero_when_exercised() {
        let m = Metrics::new(2);
        m.connections_accepted_total.inc();
        m.connections_refused_total.inc();
        m.connections_open.inc();
        m.disconnects_total.inc();
        m.slow_reader_disconnects_total.inc();
        m.read_timeout_disconnects_total.inc();
        m.frames_read_total.add(3);
        m.frames_written_total.add(3);
        m.bytes_read_total.add(100);
        m.bytes_written_total.add(100);
        m.malformed_frames_total.inc();
        m.oversize_frames_total.inc();
        m.queue_depth.inc();
        m.outbox_bytes.add(64);
        m.frame_latency_us.observe_us(37);
        m.faults_injected_total.inc();
        m.retries_total.inc();
        m.shard_restarts_total.inc();
        m.degraded_replies_total.inc();
        m.deadline_expired_total.inc();
        m.traces_retained_total.inc();
        m.traces_dropped_total.inc();
        for sh in &m.shards {
            sh.jobs_total.inc();
            sh.queue_depth.inc();
        }
        let engine = EngineStats {
            requests: 1,
            batches: 1,
            hits: 1,
            misses: 1,
            evictions: 1,
            insertions: 1,
            uncacheable: 1,
            cache_entries: 1,
            cache_bytes: 1,
            coalesced: 1,
            overloaded: 1,
            batched_small: 1,
            large_direct: 1,
            sessions_opened: 1,
            sessions_sealed: 1,
            sessions_evicted: 1,
            session_pushes: 1,
            session_rejects: 1,
            open_sessions: 1,
            wal_appends: 1,
            wal_fsyncs: 1,
            recovered_sessions: 1,
            quarantined_wals: 1,
            recovery_us: 1,
            snapshot_writes: 1,
            warm_start_hits: 1,
            wal_faults_injected: 1,
        };
        let dump = m.render(&[engine, EngineStats::default()]);
        for name in STABLE_NAMES {
            let probe = match *name {
                "c1pd_frame_latency_us" => scrape(&dump, "c1pd_frame_latency_us_count"),
                "c1pd_shard_jobs_total" => scrape(&dump, "c1pd_shard_jobs_total{shard=\"0\"}"),
                "c1pd_shard_queue_depth" => scrape(&dump, "c1pd_shard_queue_depth{shard=\"1\"}"),
                "c1pd_shard_cache_hits_total" => {
                    scrape(&dump, "c1pd_shard_cache_hits_total{shard=\"0\"}")
                }
                "c1pd_build_info" => scrape(
                    &dump,
                    &format!(
                        "c1pd_build_info{{version=\"{}\",mode=\"event-loop\"}}",
                        env!("CARGO_PKG_VERSION")
                    ),
                ),
                // a fresh registry has zero whole seconds of uptime;
                // presence is the contract, monotonicity is the OS's
                "c1pd_uptime_seconds" => {
                    assert!(scrape(&dump, name).is_some(), "{name} missing from dump");
                    continue;
                }
                _ => scrape(&dump, name),
            };
            let v = probe.unwrap_or_else(|| panic!("{name} missing from dump"));
            assert!(v > 0.0, "{name} rendered zero after being exercised");
        }
    }

    /// Every exported series is preceded by `# HELP` and `# TYPE`
    /// comments a Prometheus text-format scrape parses cleanly, and
    /// `scrape` skips them.
    #[test]
    fn render_emits_help_and_type_comments_for_every_series() {
        let m = Metrics::new(1);
        let dump = m.render(&[EngineStats::default()]);
        for name in STABLE_NAMES {
            assert!(dump.contains(&format!("# TYPE {name} ")), "{name} has no # TYPE line");
            assert!(dump.contains(&format!("# HELP {name} ")), "{name} has no # HELP line");
        }
        assert!(dump.contains("# TYPE c1pd_requests_total counter"));
        assert!(dump.contains("# TYPE c1pd_queue_depth gauge"));
        assert!(dump.contains("# TYPE c1pd_frame_latency_us histogram"));
        // comments never shadow values
        assert_eq!(scrape(&dump, "c1pd_requests_total"), Some(0.0));
    }

    /// Exemplars render as a ` # {trace_id="..."}` suffix on the exact
    /// bucket the latency landed in, survive scraping, and clear when
    /// their trace is evicted.
    #[test]
    fn exemplars_attach_render_and_clear() {
        let h = Histogram::default();
        h.observe_us(3); // le 4 bucket
        h.attach_exemplar(3, 0xabcd);
        let mut out = String::new();
        h.render("lat", &mut out);
        assert!(out.contains("lat_bucket{le=\"4\"} 1 # {trace_id=\"000000000000abcd\"}"));
        assert_eq!(scrape(&out, "lat_bucket{le=\"4\"}"), Some(1.0), "exemplar breaks scraping");
        // a newer retained trace in the same bucket replaces the exemplar
        h.observe_us(4);
        h.attach_exemplar(4, 0xbeef);
        out.clear();
        h.render("lat", &mut out);
        assert!(out.contains("lat_bucket{le=\"4\"} 2 # {trace_id=\"000000000000beef\"}"));
        // eviction clears only the slot naming the evicted trace
        h.clear_exemplar(0xabcd); // stale id: no-op
        h.clear_exemplar(0xbeef);
        out.clear();
        h.render("lat", &mut out);
        assert!(!out.contains("trace_id"), "cleared exemplar still renders: {out}");
    }

    /// Engine-side injected WAL faults and front-end injections land in
    /// the same `c1pd_faults_injected_total` series — one number tells a
    /// chaos gate how much havoc the run actually exercised.
    #[test]
    fn faults_injected_folds_engine_wal_faults_into_the_frontend_count() {
        let m = Metrics::new(1);
        m.faults_injected_total.add(3);
        let engine = EngineStats { wal_faults_injected: 2, ..EngineStats::default() };
        let dump = m.render(&[engine]);
        assert_eq!(scrape(&dump, "c1pd_faults_injected_total"), Some(5.0));
    }

    #[test]
    fn stable_names_all_appear_even_on_an_idle_server() {
        let m = Metrics::new(1);
        let dump = m.render(&[EngineStats::default()]);
        for name in STABLE_NAMES {
            assert!(
                dump.lines().any(|l| l.starts_with(name)),
                "{name} absent from an idle dump — the name set is the contract"
            );
        }
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_log2() {
        let h = Histogram::default();
        h.observe_us(0); // le 1
        h.observe_us(1); // le 1
        h.observe_us(2); // le 2
        h.observe_us(3); // le 4
        h.observe_us(1024); // le 1024
        h.observe_us(u64::MAX); // +Inf
        assert_eq!(h.count(), 6);
        let mut out = String::new();
        h.render("lat", &mut out);
        assert!(out.contains("lat_bucket{le=\"1\"} 2"));
        assert!(out.contains("lat_bucket{le=\"2\"} 3"));
        assert!(out.contains("lat_bucket{le=\"4\"} 4"));
        assert!(out.contains("lat_bucket{le=\"1024\"} 5"));
        assert!(out.contains("lat_bucket{le=\"+Inf\"} 6"));
        assert!(out.contains("lat_count 6"));
    }

    #[test]
    fn scrape_reads_exact_series_only() {
        let dump = "a_total 5\na_total_more 7\nb{shard=\"1\"} 9\nc_seconds_total 0.074000\n";
        assert_eq!(scrape(dump, "a_total"), Some(5.0));
        assert_eq!(scrape(dump, "b{shard=\"1\"}"), Some(9.0));
        assert_eq!(scrape(dump, "c_seconds_total"), Some(0.074));
        assert_eq!(scrape(dump, "missing"), None);
    }
}

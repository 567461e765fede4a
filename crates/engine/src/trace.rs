//! Request-scoped span recording (DESIGN.md §13).
//!
//! A [`ReqTrace`] is one request's clock: a monotonic epoch captured when
//! the frame is first seen, plus an append-only list of named
//! [`SpanEvent`]s recorded as microsecond offsets from that epoch. The
//! front end creates one per sampled request and threads an
//! `Option<Arc<ReqTrace>>` through its shard mailbox and the engine
//! (batch → cache → solve → WAL), so every layer records into the same
//! timeline without knowing who else does. `None` means "not sampled"
//! and every hook degrades to a no-op — the zero-cost-when-off contract.
//!
//! Span *names* are a stable contract shared with the offline tooling
//! (`phase_probe`) and trace consumers; see
//! [`c1p_core::stats::PHASE_NAMES`] for the solver phases and DESIGN.md
//! §13 for the lifecycle set. Parenting is by name, not by nesting
//! discipline: `solve/<phase>` spans are children of `solve`, everything
//! else is a child of the implicit `request` root.

use std::sync::Mutex;
use std::time::Instant;

/// Span names for the solver phase breakdown, parallel to
/// [`c1p_core::stats::PHASE_NAMES`] (same order, `solve/` prefix). These
/// are children of the `solve` span; keep both lists in lockstep.
pub const SOLVE_PHASE_SPANS: [&str; c1p_core::stats::N_PHASES] =
    ["solve/partition", "solve/prepare", "solve/decompose", "solve/align", "solve/merge"];

/// One named interval on a request's timeline, in microsecond offsets
/// from the owning [`ReqTrace`]'s epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stable span name (lifecycle stage or `solve/<phase>`).
    pub name: &'static str,
    /// Start offset from the trace epoch, microseconds.
    pub start_us: u64,
    /// End offset from the trace epoch, microseconds (`>= start_us`).
    pub end_us: u64,
}

/// One request's span recorder. Cheap to clone via `Arc`; interior
/// mutability keeps the recording hooks `&self` so the trace can be
/// shared across the front-end thread, the shard worker, and the rayon
/// pool without ceremony.
#[derive(Debug)]
pub struct ReqTrace {
    epoch: Instant,
    events: Mutex<Vec<SpanEvent>>,
}

impl Default for ReqTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl ReqTrace {
    /// Starts a trace with its epoch at "now" — call before decoding the
    /// frame so the `decode` span starts at offset ~0.
    pub fn new() -> Self {
        ReqTrace { epoch: Instant::now(), events: Mutex::new(Vec::with_capacity(16)) }
    }

    /// Current offset from the epoch, microseconds.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Records a span that started at `start_us` and ends now.
    pub fn record(&self, name: &'static str, start_us: u64) {
        let end = self.now_us();
        self.record_span(name, start_us, end);
    }

    /// Records a fully specified span (used for synthesized children,
    /// e.g. the solver phase breakdown laid end-to-end inside `solve`).
    pub fn record_span(&self, name: &'static str, start_us: u64, end_us: u64) {
        let mut ev = self.events.lock().expect("trace events lock");
        ev.push(SpanEvent { name, start_us, end_us: end_us.max(start_us) });
    }

    /// Takes the recorded events out (called once, at finish).
    pub fn take(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace events lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_span_names_mirror_core_phase_names() {
        for (span, phase) in SOLVE_PHASE_SPANS.iter().zip(c1p_core::stats::PHASE_NAMES.iter()) {
            assert_eq!(*span, format!("solve/{phase}"));
        }
    }

    #[test]
    fn records_monotone_offsets() {
        let t = ReqTrace::new();
        let s = t.now_us();
        t.record("decode", s);
        t.record_span("solve/partition", 10, 12);
        let ev = t.take();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "decode");
        assert!(ev[0].end_us >= ev[0].start_us);
        assert_eq!(ev[1], SpanEvent { name: "solve/partition", start_us: 10, end_us: 12 });
        assert!(t.take().is_empty(), "take drains");
    }

    #[test]
    fn record_span_clamps_inverted_intervals() {
        let t = ReqTrace::new();
        t.record_span("flush", 20, 5);
        let ev = t.take();
        assert_eq!(ev[0].start_us, 20);
        assert_eq!(ev[0].end_us, 20);
    }
}

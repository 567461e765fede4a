//! The self-healing client: deadline budgets, exponential backoff with
//! decorrelated jitter, and a recovered-hash handshake that makes
//! session pushes **idempotent across retries**.
//!
//! The problem it solves is the classic ambiguous-ack window: a client
//! writes a `PushAtoms` frame and the connection dies before the verdict
//! arrives. Was the push applied? Blind resend risks double-applying the
//! columns (the stream is append-only — a duplicate is a different,
//! wrong instance); giving up loses an acknowledged-durable push. Two
//! server facts close the window exactly:
//!
//! 1. The engine folds every **accepted** push into a session stream
//!    hash (FNV-1a over the column stream — `c1p_incremental`), and a
//!    **rejected** push folds nothing. The client mirrors the fold with
//!    [`fold_stream_hash`], so after reconnecting it can ask the server
//!    (`QuerySession` → `SessionStatus`) which side of the push the
//!    authoritative state is on: `hash == pre-push` means the push never
//!    applied (resend is safe), `hash == post-push` means it applied and
//!    only the reply was lost. Anything else is real divergence and is
//!    reported, never papered over.
//! 2. The fsync-before-ack WAL ordering (DESIGN.md §10) means the
//!    recovered hash reflects exactly the durable prefix — the handshake
//!    is sound even when the loss was a shard crash, not just a dropped
//!    packet.
//!
//! Retry policy: only **connection-level** failures (socket errors, lost
//! frames, `ErrorCode::Unavailable` from a supervised-but-down shard)
//! are retried; semantic errors (`Malformed`, `TooLarge`, `NoSession`,
//! …) surface immediately. Every operation runs under one deadline
//! budget; sleeps use exponential backoff with decorrelated jitter
//! (`sleep = min(cap, rand(base, prev * 3))`) so a thundering herd of
//! retrying clients decorrelates instead of re-synchronizing.

use c1p_engine::proto::{
    decode_msg, encode_msg, read_frame, write_frame, ErrorCode, Msg, DEFAULT_MAX_FRAME,
};
use c1p_incremental::{fold_stream_hash, initial_stream_hash};
use c1p_matrix::io::WireVerdict;
use c1p_matrix::Ensemble;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry/backoff knobs for one [`Client`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total wall-clock budget for one logical operation, reconnects,
    /// handshakes and sleeps included. When it runs out the operation
    /// fails with [`ClientError::DeadlineExceeded`] — a chaos run
    /// asserts no request ever outlives this.
    pub deadline: Duration,
    /// First backoff sleep (and the jitter floor).
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed: two clients with different seeds decorrelate; the
    /// same seed replays the same sleep schedule (deterministic tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            deadline: Duration::from_secs(10),
            base: Duration::from_millis(5),
            cap: Duration::from_millis(500),
            seed: 1,
        }
    }
}

/// How a logical operation ultimately failed (transport failures are
/// retried internally and only surface as `DeadlineExceeded`).
#[derive(Debug)]
pub enum ClientError {
    /// The deadline budget ran out before a conclusive reply. The last
    /// transport-level error is carried for diagnosis.
    DeadlineExceeded {
        /// Operation name (`"push"`, `"seal"`, …).
        op: &'static str,
        /// Last underlying failure before the budget expired.
        last: String,
    },
    /// A semantic server error — not retryable by definition.
    Server {
        /// The wire error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The reply decoded but was not a legal response to the request.
    Protocol(String),
    /// The recovered-hash handshake found server state that is neither
    /// pre-push nor post-push: the session has genuinely diverged from
    /// the client's mirror. Never retried — this is a correctness bug
    /// surfacing, exactly what a chaos gate wants loud.
    StateDiverged {
        /// The session handle.
        session: u64,
        /// What the server recovered.
        server_hash: u64,
        /// The client's hash before the ambiguous push.
        expected_pre: u64,
        /// The client's hash after the ambiguous push.
        expected_post: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::DeadlineExceeded { op, last } => {
                write!(f, "{op}: deadline exceeded (last error: {last})")
            }
            ClientError::Server { code, message } => write!(f, "server error {code:?}: {message}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::StateDiverged { session, server_hash, expected_pre, expected_post } => {
                write!(
                    f,
                    "session {session} diverged: server hash {server_hash:#x} is neither \
                     pre-push {expected_pre:#x} nor post-push {expected_post:#x}"
                )
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A push's outcome once retries settle.
#[derive(Debug)]
pub enum PushOutcome {
    /// The server's verdict arrived (possibly after safe resends).
    Verdict(WireVerdict),
    /// The handshake proved the push **was** applied, but the verdict
    /// frame itself was lost to a fault. The session state is exactly
    /// post-push; only the witness order is missing (re-derivable by a
    /// `Solve` of the accepted concatenation, which the seal returns
    /// anyway).
    RecoveredAccepted,
}

/// A seal's outcome once retries settle.
#[derive(Debug)]
pub enum SealOutcome {
    /// The sealed witness order.
    Order(Vec<u32>),
    /// The handshake found the session gone — the seal applied and the
    /// reply was lost. The order is recoverable via [`Client::solve`] of
    /// the accepted concatenation (a cache hit: sealing inserted it).
    LostButSealed,
}

/// What one transport exchange produced (internal).
enum Exchange {
    Reply(Msg),
    /// Connection-level failure; whether the request reached the server
    /// is unknown.
    Lost(String),
    /// The server said `Unavailable` — the owning shard is down or the
    /// request outlived the server-side deadline. Equally ambiguous:
    /// the reaper answers for requests that may have already applied.
    Unavailable(String),
}

/// A reconnecting frame client with retry and backoff. One instance ==
/// one logical connection; it transparently re-dials after failures.
pub struct Client {
    addr: String,
    policy: RetryPolicy,
    conn: Option<(BufReader<TcpStream>, BufWriter<TcpStream>)>,
    next_id: u64,
    rng: u64,
    prev_sleep: Duration,
    retries: u64,
}

impl Client {
    /// A client for `addr` (dialed lazily on first use).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        let seed = policy.seed;
        Client {
            addr: addr.into(),
            policy,
            conn: None,
            next_id: 0,
            rng: seed | 1,
            prev_sleep: Duration::ZERO,
            retries: 0,
        }
    }

    /// Transport retries performed so far (reconnect-and-resend or
    /// handshake rounds) — the client-side mirror of the server's
    /// `c1pd_retries_total`.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// splitmix64 step — the jitter source.
    fn rand(&mut self) -> u64 {
        let z = crate::trace::splitmix64(self.rng);
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z
    }

    /// Sleeps the next decorrelated-jitter interval, truncated to the
    /// remaining budget. Returns `false` when the budget is exhausted.
    fn backoff(&mut self, deadline: Instant) -> bool {
        let base = self.policy.base.max(Duration::from_micros(100));
        let lo = base.as_micros() as u64;
        let hi = (self.prev_sleep.as_micros() as u64).saturating_mul(3).max(lo + 1);
        let us = lo + self.rand() % (hi - lo);
        let sleep = Duration::from_micros(us).min(self.policy.cap);
        self.prev_sleep = sleep;
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep(sleep.min(deadline - now));
        Instant::now() < deadline
    }

    fn dial(&mut self) -> std::io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((reader, BufWriter::new(stream)));
        Ok(())
    }

    /// One request/reply round: dial if needed, write, read, decode.
    /// Any socket-level failure drops the connection and comes back as
    /// [`Exchange::Lost`] — the caller decides whether resending is safe.
    fn exchange(&mut self, msg: &Msg) -> Exchange {
        if let Err(e) = self.dial() {
            return Exchange::Lost(format!("connect: {e}"));
        }
        let (reader, writer) = self.conn.as_mut().expect("dialed above");
        if let Err(e) = write_frame(writer, &encode_msg(msg)).and_then(|()| writer.flush()) {
            self.conn = None;
            return Exchange::Lost(format!("write: {e}"));
        }
        let frame = match read_frame(reader, DEFAULT_MAX_FRAME) {
            Ok(Some(f)) => f,
            Ok(None) => {
                self.conn = None;
                return Exchange::Lost("connection closed before the reply".into());
            }
            Err(e) => {
                self.conn = None;
                return Exchange::Lost(format!("read: {e}"));
            }
        };
        match decode_msg(&frame) {
            Ok(Msg::Error { code: ErrorCode::Unavailable, message, .. }) => {
                Exchange::Unavailable(message)
            }
            Ok(m) => Exchange::Reply(m),
            Err(e) => {
                self.conn = None;
                Exchange::Lost(format!("undecodable reply: {e}"))
            }
        }
    }

    /// Retries `msg` until a conclusive reply, for requests that are
    /// naturally idempotent (`Solve`, `Ping`, `QuerySession`, `GetStats`
    /// — resending can at worst repeat read-only or pure work).
    fn call_idempotent(
        &mut self,
        op: &'static str,
        msg: &Msg,
        deadline: Instant,
    ) -> Result<Msg, ClientError> {
        loop {
            let last = match self.exchange(msg) {
                Exchange::Reply(Msg::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message })
                }
                Exchange::Reply(m) => return Ok(m),
                Exchange::Lost(e) | Exchange::Unavailable(e) => e,
            };
            self.retries += 1;
            if !self.backoff(deadline) {
                return Err(ClientError::DeadlineExceeded { op, last });
            }
        }
    }

    /// Solves one instance with retry (pure request — blind resend is
    /// always safe).
    pub fn solve(&mut self, ens: &Ensemble) -> Result<WireVerdict, ClientError> {
        let deadline = Instant::now() + self.policy.deadline;
        let id = self.next_id();
        match self.call_idempotent("solve", &Msg::Solve { id, ens: ens.clone() }, deadline)? {
            Msg::Verdict { id: rid, verdict } if rid == id => Ok(verdict),
            other => Err(ClientError::Protocol(format!("expected Verdict, got {other:?}"))),
        }
    }

    /// Fetches the server's retained request traces as JSONL (one trace
    /// object per line, oldest first per shard ring; empty when tracing
    /// is off). Pure read — retrying is always safe.
    pub fn traces(&mut self) -> Result<String, ClientError> {
        let deadline = Instant::now() + self.policy.deadline;
        match self.call_idempotent("traces", &Msg::GetTraces, deadline)? {
            Msg::Traces { jsonl } => Ok(jsonl),
            other => Err(ClientError::Protocol(format!("expected Traces, got {other:?}"))),
        }
    }

    /// Health-checks the server with retry.
    pub fn ping(&mut self) -> Result<Msg, ClientError> {
        let deadline = Instant::now() + self.policy.deadline;
        let id = self.next_id();
        match self.call_idempotent("ping", &Msg::Ping { id }, deadline)? {
            m @ Msg::Pong { .. } => Ok(m),
            other => Err(ClientError::Protocol(format!("expected Pong, got {other:?}"))),
        }
    }

    /// Opens a session, returning its handle. Ambiguously-lost opens are
    /// simply re-sent: a duplicate open leaks an empty orphan session,
    /// which the server's idle sweep reclaims — no state is corrupted.
    pub fn open_session(&mut self, n_atoms: usize) -> Result<SessionClient<'_>, ClientError> {
        let deadline = Instant::now() + self.policy.deadline;
        let id = self.next_id();
        let msg = Msg::OpenSession { id, n_atoms: n_atoms as u64 };
        match self.call_idempotent("open", &msg, deadline)? {
            Msg::SessionVerdict { id: rid, session, verdict: WireVerdict::Accept { order } }
                if rid == id && order.is_empty() =>
            {
                Ok(SessionClient {
                    client: self,
                    session,
                    hash: initial_stream_hash(n_atoms),
                    columns: 0,
                })
            }
            other => {
                Err(ClientError::Protocol(format!("expected an empty-state ack, got {other:?}")))
            }
        }
    }
}

/// One open session driven through the self-healing client. Tracks the
/// engine's stream hash push-by-push (the [`fold_stream_hash`] mirror),
/// which is what makes retries exact rather than hopeful.
pub struct SessionClient<'a> {
    client: &'a mut Client,
    session: u64,
    hash: u64,
    columns: u64,
}

impl SessionClient<'_> {
    /// The server-issued public session handle.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// The client-side mirror of the engine's stream hash.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    /// Accepted columns so far (mirror of the server's count).
    pub fn columns(&self) -> u64 {
        self.columns
    }

    /// Asks the server what it believes about this session, with retry.
    /// `Ok(None)` means the session does not exist (`NoSession`) — which
    /// after an ambiguous seal is the *success* signal.
    fn query(&mut self, deadline: Instant) -> Result<Option<(u64, u64)>, ClientError> {
        let id = self.client.next_id();
        let msg = Msg::QuerySession { id, session: self.session };
        match self.client.call_idempotent("query-session", &msg, deadline) {
            Ok(Msg::SessionStatus { id: rid, session, stream_hash, columns })
                if rid == id && session == self.session =>
            {
                Ok(Some((stream_hash, columns)))
            }
            Ok(other) => {
                Err(ClientError::Protocol(format!("expected SessionStatus, got {other:?}")))
            }
            Err(ClientError::Server { code: ErrorCode::NoSession, .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Pushes `delta`, surviving lost connections, downed shards and
    /// dropped replies without ever double-applying. The ambiguous-ack
    /// window is resolved by the recovered-hash handshake described in
    /// the module docs.
    pub fn push(&mut self, delta: &Ensemble) -> Result<PushOutcome, ClientError> {
        let deadline = Instant::now() + self.client.policy.deadline;
        let pre = self.hash;
        let post = fold_stream_hash(pre, delta);
        loop {
            let id = self.client.next_id();
            let msg = Msg::PushAtoms { id, session: self.session, delta: delta.clone() };
            let last = match self.client.exchange(&msg) {
                Exchange::Reply(Msg::SessionVerdict { id: rid, session, verdict })
                    if rid == id && session == self.session =>
                {
                    if matches!(verdict, WireVerdict::Accept { .. }) {
                        self.hash = post;
                        self.columns += delta.n_columns() as u64;
                    }
                    return Ok(PushOutcome::Verdict(verdict));
                }
                Exchange::Reply(Msg::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message })
                }
                Exchange::Reply(other) => {
                    return Err(ClientError::Protocol(format!(
                        "expected SessionVerdict, got {other:?}"
                    )))
                }
                Exchange::Lost(e) | Exchange::Unavailable(e) => e,
            };
            // Ambiguous: the push may or may not have applied. Back off,
            // then ask the server which world we are in before resending.
            self.client.retries += 1;
            if !self.client.backoff(deadline) {
                return Err(ClientError::DeadlineExceeded { op: "push", last });
            }
            match self.query(deadline)? {
                Some((h, _cols)) if h == post => {
                    // applied; only the verdict frame was lost
                    self.hash = post;
                    self.columns += delta.n_columns() as u64;
                    return Ok(PushOutcome::RecoveredAccepted);
                }
                Some((h, _cols)) if h == pre => {
                    // never applied (or applied-and-rejected, which
                    // folds nothing and rolls back — either way the
                    // stream is at `pre` and resending is exact)
                }
                Some((h, _)) => {
                    return Err(ClientError::StateDiverged {
                        session: self.session,
                        server_hash: h,
                        expected_pre: pre,
                        expected_post: post,
                    })
                }
                None => {
                    return Err(ClientError::Server {
                        code: ErrorCode::NoSession,
                        message: format!("session {} vanished mid-stream", self.session),
                    })
                }
            }
        }
    }

    /// Seals the session. An ambiguously-lost seal is resolved the same
    /// way: if the handshake finds the session gone, the seal applied
    /// (sealing removes it) and only the reply was lost.
    pub fn seal(mut self) -> Result<SealOutcome, ClientError> {
        let deadline = Instant::now() + self.client.policy.deadline;
        loop {
            let id = self.client.next_id();
            let msg = Msg::SealSession { id, session: self.session };
            let last = match self.client.exchange(&msg) {
                Exchange::Reply(Msg::SessionVerdict {
                    id: rid,
                    session,
                    verdict: WireVerdict::Accept { order },
                }) if rid == id && session == self.session => return Ok(SealOutcome::Order(order)),
                Exchange::Reply(Msg::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message })
                }
                Exchange::Reply(other) => {
                    return Err(ClientError::Protocol(format!(
                        "expected a sealed Accept, got {other:?}"
                    )))
                }
                Exchange::Lost(e) | Exchange::Unavailable(e) => e,
            };
            self.client.retries += 1;
            if !self.client.backoff(deadline) {
                return Err(ClientError::DeadlineExceeded { op: "seal", last });
            }
            match self.query(deadline)? {
                None => return Ok(SealOutcome::LostButSealed),
                Some((h, _)) if h == self.hash => {} // still open: resend
                Some((h, _)) => {
                    return Err(ClientError::StateDiverged {
                        session: self.session,
                        server_hash: h,
                        expected_pre: self.hash,
                        expected_post: self.hash,
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_decorrelated_bounded_and_deadline_capped() {
        let mut c = Client::new(
            "127.0.0.1:1",
            RetryPolicy {
                deadline: Duration::from_millis(50),
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
                seed: 7,
            },
        );
        let deadline = Instant::now() + Duration::from_millis(50);
        let mut sleeps = Vec::new();
        for _ in 0..6 {
            assert!(c.backoff(deadline));
            sleeps.push(c.prev_sleep);
        }
        for s in &sleeps {
            assert!(*s >= Duration::from_micros(200), "below base: {s:?}");
            assert!(*s <= Duration::from_millis(2), "above cap: {s:?}");
        }
        // decorrelated jitter must not produce a constant schedule
        assert!(sleeps.windows(2).any(|w| w[0] != w[1]));
        // an expired deadline refuses to sleep
        let past = Instant::now() - Duration::from_millis(1);
        assert!(!c.backoff(past));
    }

    #[test]
    fn same_seed_replays_the_same_jitter_schedule() {
        let mk = |seed| {
            let mut c = Client::new("127.0.0.1:1", RetryPolicy { seed, ..RetryPolicy::default() });
            (0..8).map(|_| c.rand()).collect::<Vec<_>>()
        };
        assert_eq!(mk(3), mk(3));
        assert_ne!(mk(3), mk(4));
    }

    #[test]
    fn shared_hash_helpers_keep_their_pinned_values() {
        // trace ids, socket-fault schedules and retry jitter all draw on
        // `trace::splitmix64` and `c1p_matrix::io::fnv1a`: a change to
        // either would move recorded trace ids and replayed chaos runs
        assert_eq!(crate::trace::trace_id_for(b"abc", 1), 0x9fdb_bdeb_ae79_8d2d);
        let plan = crate::fault::FaultPlan::seeded(7).with_read_every(3);
        let reads: Vec<String> = (0..64)
            .map(|_| match plan.read_fault() {
                None => ".".into(),
                Some(crate::fault::SocketFault::Error) => "E".into(),
                Some(crate::fault::SocketFault::Disconnect) => "D".into(),
                Some(crate::fault::SocketFault::Short(n)) => format!("S{n}"),
                Some(crate::fault::SocketFault::Delay(d)) => format!("Y{}", d.as_millis()),
            })
            .collect();
        assert_eq!(
            reads.join(" "),
            ". . S63 . . S49 . . E . . Y4 . . Y4 . . Y4 . . Y1 . . Y3 . . D . . E . . S8 . . \
             S23 . . D . . D . . Y2 . . S62 . . Y2 . . S27 . . E . . E . . E ."
        );
        let mut c = Client::new("127.0.0.1:1", RetryPolicy { seed: 42, ..RetryPolicy::default() });
        let jitter = [c.rand(), c.rand(), c.rand()];
        assert_eq!(jitter, [0xba69_ec90_eb4f_ef88, 0x9cde_9885_2e60_034b, 0x6ec6_24aa_8568_5867]);
    }

    #[test]
    fn connect_failure_is_retried_until_the_deadline_then_reported() {
        // port 1 on localhost refuses connections; the client must keep
        // retrying within the budget and fail with DeadlineExceeded, not
        // hang or panic
        let mut c = Client::new(
            "127.0.0.1:1",
            RetryPolicy {
                deadline: Duration::from_millis(30),
                base: Duration::from_micros(200),
                cap: Duration::from_millis(2),
                seed: 1,
            },
        );
        let ens = Ensemble::from_sorted_columns(4, vec![vec![0, 1]]).unwrap();
        let t0 = Instant::now();
        match c.solve(&ens) {
            Err(ClientError::DeadlineExceeded { op: "solve", .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "must not hang");
        assert!(c.retries() > 0, "retries must be counted");
    }
}

//! The `c1pd` framing protocol: length-prefixed frames over any byte
//! stream, with message payloads built on the `c1p_matrix::io` wire format.
//!
//! ```text
//! frame    := len u32 LE | payload (len bytes)
//! payload  := tag u8 | body
//!   0x01 Solve          { id u64 LE, ensemble wire bytes }
//!   0x02 Verdict        { id u64 LE, verdict wire bytes }
//!   0x03 Error          { id u64 LE, code u8, utf-8 message }
//!   0x04 GetStats       { }
//!   0x05 Stats          { utf-8 JSON }
//!   0x06 OpenSession    { id u64 LE, n_atoms u64 LE }
//!   0x07 PushAtoms      { id u64 LE, session u64 LE, delta ensemble wire bytes }
//!   0x08 SealSession    { id u64 LE, session u64 LE }
//!   0x09 SessionVerdict { id u64 LE, session u64 LE, verdict wire bytes }
//!   0x0A GetMetrics     { }
//!   0x0B Metrics        { utf-8 text dump }
//!   0x0C Ping           { id u64 LE }
//!   0x0D Pong           { id u64 LE, wal u8, n_shards u32 LE, flags u8 × n_shards }
//!   0x0E QuerySession   { id u64 LE, session u64 LE }
//!   0x0F SessionStatus  { id u64 LE, session u64 LE, stream_hash u64 LE, columns u64 LE }
//!   0x10 GetTraces      { }
//!   0x11 Traces         { utf-8 JSONL dump }
//! ```
//!
//! Session flow: `OpenSession` answers with a `SessionVerdict` naming the
//! fresh session handle (verdict: an accept with an *empty* order — the
//! empty state's witness is the identity, elided so opening a huge atom
//! set cannot amplify a 17-byte request into a multi-MB reply);
//! every `PushAtoms` answers with the verdict for the extended ensemble —
//! a reject means the push was rolled back server-side; `SealSession`
//! answers with the final accepted verdict and closes the handle. Pushes
//! embed their delta as a wire ensemble whose `n_atoms` must equal the
//! session's. Unknown/expired handles answer `Error` with
//! [`ErrorCode::NoSession`].
//!
//! The frame length is capped ([`DEFAULT_MAX_FRAME`], configurable at the
//! server) *before* any allocation, so a hostile peer cannot make the
//! server reserve gigabytes with a five-byte message. Request ids are
//! chosen by the client and echoed verbatim; the server answers every
//! frame in order, one response per request.

use c1p_matrix::io::{decode_ensemble, decode_verdict, encode_ensemble, encode_verdict};
use c1p_matrix::io::{ReadError, ReadErrorKind, Reader, WireVerdict};
use c1p_matrix::{Ensemble, EnsembleError};
use std::fmt;
use std::io::{self, Read, Write};

/// Default cap on one frame (64 MiB) — admission control at the byte layer.
pub const DEFAULT_MAX_FRAME: usize = 64 << 20;

const TAG_SOLVE: u8 = 0x01;
const TAG_VERDICT: u8 = 0x02;
const TAG_ERROR: u8 = 0x03;
const TAG_GET_STATS: u8 = 0x04;
const TAG_STATS: u8 = 0x05;
const TAG_OPEN_SESSION: u8 = 0x06;
const TAG_PUSH_ATOMS: u8 = 0x07;
const TAG_SEAL_SESSION: u8 = 0x08;
const TAG_SESSION_VERDICT: u8 = 0x09;
const TAG_GET_METRICS: u8 = 0x0A;
const TAG_METRICS: u8 = 0x0B;
const TAG_PING: u8 = 0x0C;
const TAG_PONG: u8 = 0x0D;
const TAG_QUERY_SESSION: u8 = 0x0E;
const TAG_SESSION_STATUS: u8 = 0x0F;
const TAG_GET_TRACES: u8 = 0x10;
const TAG_TRACES: u8 = 0x11;

/// Why a request failed, as sent on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded.
    Malformed = 1,
    /// Admission control rejected the request (queue, connection or
    /// session-count limit).
    Overloaded = 2,
    /// The instance exceeds a server size limit (atoms, session columns,
    /// or the frame byte cap).
    TooLarge = 3,
    /// The engine failed internally (e.g. it is shutting down).
    Internal = 4,
    /// The named session does not exist (never opened, sealed, or
    /// idle-evicted).
    NoSession = 5,
    /// The peer stalled mid-frame past the server's read-timeout budget
    /// (`c1pd --read-timeout-ms`); the connection is closed after this
    /// frame. Idle connections *between* frames are never timed out.
    Timeout = 6,
    /// The shard that owned this request died with it in flight (or its
    /// reply was lost past the request deadline); whether the request
    /// applied is unknown. Solves are pure and safe to retry blindly;
    /// session pushes should run the recovered-hash handshake
    /// (`QuerySession`) before replaying.
    Unavailable = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Overloaded),
            3 => Some(ErrorCode::TooLarge),
            4 => Some(ErrorCode::Internal),
            5 => Some(ErrorCode::NoSession),
            6 => Some(ErrorCode::Timeout),
            7 => Some(ErrorCode::Unavailable),
            _ => None,
        }
    }
}

/// Write-ahead-log directory health as reported in a [`Msg::Pong`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalHealth {
    /// The server runs without durability (`--wal-dir` unset).
    Disabled = 0,
    /// The durability directory accepted a probe write.
    Writable = 1,
    /// The durability directory refused a probe write — accepted pushes
    /// can no longer be made durable.
    Unwritable = 2,
}

impl WalHealth {
    fn from_u8(v: u8) -> Option<WalHealth> {
        match v {
            0 => Some(WalHealth::Disabled),
            1 => Some(WalHealth::Writable),
            2 => Some(WalHealth::Unwritable),
            _ => None,
        }
    }
}

/// One shard's liveness as reported in a [`Msg::Pong`]. Encoded as one
/// byte: bit 0 = live, bit 1 = degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHealth {
    /// A worker thread currently owns this shard (it may still be
    /// rebuilding its engine after a restart).
    pub live: bool,
    /// The shard lost a worker at least once and has not yet finished
    /// recovering, or was retired after repeated instant deaths.
    pub degraded: bool,
}

impl ShardHealth {
    fn to_byte(self) -> u8 {
        (self.live as u8) | ((self.degraded as u8) << 1)
    }

    fn from_byte(b: u8) -> Option<ShardHealth> {
        if b > 3 {
            return None;
        }
        Some(ShardHealth { live: b & 1 != 0, degraded: b & 2 != 0 })
    }
}

/// One protocol message (the payload of one frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Client → server: decide C1P for the ensemble.
    Solve {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The instance.
        ens: Ensemble,
    },
    /// Server → client: the verdict for request `id`.
    Verdict {
        /// Echo of the request id.
        id: u64,
        /// Witness order or Tucker certificate.
        verdict: WireVerdict,
    },
    /// Server → client: request `id` failed.
    Error {
        /// Echo of the request id (0 when no request could be attributed).
        id: u64,
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Client → server: request an engine statistics snapshot.
    GetStats,
    /// Server → client: statistics snapshot as a JSON object.
    Stats {
        /// The snapshot.
        json: String,
    },
    /// Client → server: open an incremental session over `n_atoms` atoms.
    OpenSession {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// Atom count, fixed for the session's lifetime.
        n_atoms: u64,
    },
    /// Client → server: extend a session by a batch of columns.
    PushAtoms {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The session handle from the `OpenSession` response.
        session: u64,
        /// The pushed columns (its `n_atoms` must equal the session's).
        delta: Ensemble,
    },
    /// Client → server: seal a session (final verdict, handle closed).
    SealSession {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The session handle.
        session: u64,
    },
    /// Server → client: the verdict for a session operation.
    SessionVerdict {
        /// Echo of the request id.
        id: u64,
        /// The session handle (fresh for `OpenSession` responses).
        session: u64,
        /// Verdict for the session's (tentatively extended) ensemble.
        verdict: WireVerdict,
    },
    /// Client → server: request the plain-text metrics dump (the same
    /// counters as `GetStats`, plus the front-end's own series, under
    /// the stable names documented in DESIGN.md §11).
    GetMetrics,
    /// Server → client: the metrics dump, one `name value` line per
    /// series.
    Metrics {
        /// The dump.
        text: String,
    },
    /// Client → server: health probe. Answered from `c1pd`'s event
    /// thread, so a wedged shard worker cannot block the reply.
    Ping {
        /// Client-chosen id echoed in the response.
        id: u64,
    },
    /// Server → client: liveness report for a [`Msg::Ping`].
    Pong {
        /// Echo of the request id.
        id: u64,
        /// Durability-directory writability (probed at ping time).
        wal: WalHealth,
        /// Per-shard liveness, indexed by shard.
        shards: Vec<ShardHealth>,
    },
    /// Client → server: the recovered-hash handshake — ask a session for
    /// its accepted stream hash and column count. Triggers lazy WAL
    /// resume exactly like a push, so a retrying client can interrogate a
    /// session whose shard just restarted.
    QuerySession {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// The session handle.
        session: u64,
    },
    /// Client → server: request the retained request traces (DESIGN.md
    /// §13). Answered inline from the event thread, like `GetMetrics`.
    GetTraces,
    /// Server → client: the retained traces as JSONL — one trace object
    /// per line, newest last, drained across all shard rings.
    Traces {
        /// The JSONL dump (possibly empty when sampling is off).
        jsonl: String,
    },
    /// Server → client: answer to a [`Msg::QuerySession`].
    SessionStatus {
        /// Echo of the request id.
        id: u64,
        /// The session handle.
        session: u64,
        /// Order-sensitive FNV hash of the accepted column stream — what
        /// `IncrementalSolver::stream_hash` reports server-side.
        stream_hash: u64,
        /// Accepted column count.
        columns: u64,
    },
}

/// Structured decode failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// Payload ended before the field being read.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// Unknown error code.
    BadCode(u8),
    /// Embedded ensemble/verdict failed to decode.
    Wire(EnsembleError),
    /// A text field was not UTF-8.
    BadUtf8,
    /// A fixed-size message carried extra bytes after its payload.
    Trailing(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "payload truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::BadCode(c) => write!(f, "unknown error code {c}"),
            ProtoError::Wire(e) => write!(f, "embedded wire payload: {e}"),
            ProtoError::BadUtf8 => write!(f, "text field is not valid UTF-8"),
            ProtoError::Trailing(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<EnsembleError> for ProtoError {
    fn from(e: EnsembleError) -> Self {
        ProtoError::Wire(e)
    }
}

impl From<ReadError> for ProtoError {
    fn from(e: ReadError) -> Self {
        match e.kind {
            ReadErrorKind::Truncated(_) => ProtoError::Truncated,
            ReadErrorKind::Trailing(n) => ProtoError::Trailing(n),
            ReadErrorKind::Invalid(_) => ProtoError::Wire(e.into()),
        }
    }
}

/// Encodes a message into a frame payload (no length prefix).
pub fn encode_msg(msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match msg {
        Msg::Solve { id, ens } => {
            out.push(TAG_SOLVE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&encode_ensemble(ens));
        }
        Msg::Verdict { id, verdict } => {
            out.push(TAG_VERDICT);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&encode_verdict(verdict));
        }
        Msg::Error { id, code, message } => {
            out.push(TAG_ERROR);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*code as u8);
            out.extend_from_slice(message.as_bytes());
        }
        Msg::GetStats => out.push(TAG_GET_STATS),
        Msg::Stats { json } => {
            out.push(TAG_STATS);
            out.extend_from_slice(json.as_bytes());
        }
        Msg::OpenSession { id, n_atoms } => {
            out.push(TAG_OPEN_SESSION);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&n_atoms.to_le_bytes());
        }
        Msg::PushAtoms { id, session, delta } => {
            out.push(TAG_PUSH_ATOMS);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&encode_ensemble(delta));
        }
        Msg::SealSession { id, session } => {
            out.push(TAG_SEAL_SESSION);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
        }
        Msg::SessionVerdict { id, session, verdict } => {
            out.push(TAG_SESSION_VERDICT);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&encode_verdict(verdict));
        }
        Msg::GetMetrics => out.push(TAG_GET_METRICS),
        Msg::Metrics { text } => {
            out.push(TAG_METRICS);
            out.extend_from_slice(text.as_bytes());
        }
        Msg::Ping { id } => {
            out.push(TAG_PING);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Msg::Pong { id, wal, shards } => {
            out.push(TAG_PONG);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*wal as u8);
            out.extend_from_slice(&(shards.len() as u32).to_le_bytes());
            out.extend(shards.iter().map(|s| s.to_byte()));
        }
        Msg::QuerySession { id, session } => {
            out.push(TAG_QUERY_SESSION);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
        }
        Msg::GetTraces => out.push(TAG_GET_TRACES),
        Msg::Traces { jsonl } => {
            out.push(TAG_TRACES);
            out.extend_from_slice(jsonl.as_bytes());
        }
        Msg::SessionStatus { id, session, stream_hash, columns } => {
            out.push(TAG_SESSION_STATUS);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&session.to_le_bytes());
            out.extend_from_slice(&stream_hash.to_le_bytes());
            out.extend_from_slice(&columns.to_le_bytes());
        }
    }
    out
}

/// Decodes a frame payload. Never panics on malformed input.
///
/// One trailing-bytes rule covers every message: bytes after the last
/// field are [`ProtoError::Trailing`]. It outranks a bad value in that
/// last field (a `Pong` flag byte), never an earlier one.
pub fn decode_msg(payload: &[u8]) -> Result<Msg, ProtoError> {
    let mut r = Reader::new(payload);
    let tag = r.u8("tag")?;
    let text = |b: &[u8]| String::from_utf8(b.to_vec()).map_err(|_| ProtoError::BadUtf8);
    let msg = match tag {
        TAG_SOLVE => Ok(Msg::Solve { id: r.u64_le("id")?, ens: decode_ensemble(r.rest())? }),
        TAG_VERDICT => Ok(Msg::Verdict { id: r.u64_le("id")?, verdict: decode_verdict(r.rest())? }),
        TAG_ERROR => {
            let id = r.u64_le("id")?;
            let code = r.u8("error code")?;
            let code = ErrorCode::from_u8(code).ok_or(ProtoError::BadCode(code))?;
            Ok(Msg::Error { id, code, message: text(r.rest())? })
        }
        TAG_GET_STATS => Ok(Msg::GetStats),
        TAG_STATS => Ok(Msg::Stats { json: text(r.rest())? }),
        TAG_OPEN_SESSION => {
            Ok(Msg::OpenSession { id: r.u64_le("id")?, n_atoms: r.u64_le("n_atoms")? })
        }
        TAG_PUSH_ATOMS => Ok(Msg::PushAtoms {
            id: r.u64_le("id")?,
            session: r.u64_le("session")?,
            delta: decode_ensemble(r.rest())?,
        }),
        TAG_SEAL_SESSION => {
            Ok(Msg::SealSession { id: r.u64_le("id")?, session: r.u64_le("session")? })
        }
        TAG_SESSION_VERDICT => Ok(Msg::SessionVerdict {
            id: r.u64_le("id")?,
            session: r.u64_le("session")?,
            verdict: decode_verdict(r.rest())?,
        }),
        TAG_GET_METRICS => Ok(Msg::GetMetrics),
        TAG_METRICS => Ok(Msg::Metrics { text: text(r.rest())? }),
        TAG_PING => Ok(Msg::Ping { id: r.u64_le("id")? }),
        TAG_PONG => {
            let id = r.u64_le("id")?;
            let wal = r.u8("wal health")?;
            let wal = WalHealth::from_u8(wal).ok_or(ProtoError::BadCode(wal))?;
            let n = r.u32_le("shard count")? as usize;
            // no `?` on the flags: the trailing-bytes rule goes first
            r.take(n, "shard flags")?
                .iter()
                .map(|&b| ShardHealth::from_byte(b).ok_or(ProtoError::BadCode(b)))
                .collect::<Result<_, _>>()
                .map(|shards| Msg::Pong { id, wal, shards })
        }
        TAG_QUERY_SESSION => {
            Ok(Msg::QuerySession { id: r.u64_le("id")?, session: r.u64_le("session")? })
        }
        TAG_SESSION_STATUS => Ok(Msg::SessionStatus {
            id: r.u64_le("id")?,
            session: r.u64_le("session")?,
            stream_hash: r.u64_le("stream hash")?,
            columns: r.u64_le("columns")?,
        }),
        TAG_GET_TRACES => Ok(Msg::GetTraces),
        TAG_TRACES => Ok(Msg::Traces { jsonl: text(r.rest())? }),
        other => return Err(ProtoError::BadTag(other)),
    };
    r.expect_end()?;
    msg
}

/// Writes one frame (length prefix + payload). The caller flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame. Returns `Ok(None)` on clean EOF (no bytes of a new
/// frame read); frames over `max_len` are rejected before allocation.
pub fn read_frame(r: &mut impl Read, max_len: usize) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // distinguish clean EOF from a truncated prefix
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated frame length"));
        }
        got += n;
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_len}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::io::fig2_matrix;
    use c1p_matrix::tucker::TuckerFamily;

    fn round_trip(msg: &Msg) {
        let payload = encode_msg(msg);
        assert_eq!(&decode_msg(&payload).unwrap(), msg);
        // and through the framing layer
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = io::Cursor::new(buf);
        let read = read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap().unwrap();
        assert_eq!(&decode_msg(&read).unwrap(), msg);
        assert_eq!(read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap(), None, "clean EOF");
    }

    #[test]
    fn all_message_kinds_round_trip() {
        round_trip(&Msg::Solve { id: 7, ens: fig2_matrix() });
        round_trip(&Msg::Verdict { id: 7, verdict: WireVerdict::Accept { order: vec![1, 0, 2] } });
        round_trip(&Msg::Verdict {
            id: u64::MAX,
            verdict: WireVerdict::Reject {
                family: TuckerFamily::MI(2),
                atom_rows: vec![0, 1, 2, 3],
                column_ids: vec![4, 5, 6, 7],
            },
        });
        round_trip(&Msg::Error {
            id: 3,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        });
        round_trip(&Msg::GetStats);
        round_trip(&Msg::Stats { json: "{\"hits\": 3}".into() });
        round_trip(&Msg::OpenSession { id: 9, n_atoms: 1 << 14 });
        round_trip(&Msg::PushAtoms { id: 10, session: 3, delta: fig2_matrix() });
        round_trip(&Msg::SealSession { id: 11, session: u64::MAX });
        round_trip(&Msg::SessionVerdict {
            id: 12,
            session: 3,
            verdict: WireVerdict::Accept { order: vec![0, 2, 1] },
        });
        round_trip(&Msg::Error {
            id: 13,
            code: ErrorCode::Timeout,
            message: "stalled mid-frame".into(),
        });
        round_trip(&Msg::GetMetrics);
        round_trip(&Msg::Metrics { text: "c1pd_cache_hits_total 3\n".into() });
        round_trip(&Msg::Error {
            id: 14,
            code: ErrorCode::Unavailable,
            message: "shard 2 restarting".into(),
        });
        round_trip(&Msg::Ping { id: 15 });
        round_trip(&Msg::Pong { id: 15, wal: WalHealth::Disabled, shards: vec![] });
        round_trip(&Msg::Pong {
            id: 16,
            wal: WalHealth::Writable,
            shards: vec![
                ShardHealth { live: true, degraded: false },
                ShardHealth { live: false, degraded: true },
                ShardHealth { live: true, degraded: true },
            ],
        });
        round_trip(&Msg::QuerySession { id: 17, session: u64::MAX });
        round_trip(&Msg::SessionStatus {
            id: 18,
            session: 3,
            stream_hash: 0xdead_beef_cafe_f00d,
            columns: 42,
        });
        round_trip(&Msg::GetTraces);
        round_trip(&Msg::Traces { jsonl: String::new() });
        round_trip(&Msg::Traces {
            jsonl: "{\"trace_id\":\"00000000000000ff\",\"spans\":[]}\n".into(),
        });
    }

    #[test]
    fn get_traces_polices_trailing_bytes() {
        let mut payload = encode_msg(&Msg::GetTraces);
        payload.push(0);
        assert_eq!(decode_msg(&payload), Err(ProtoError::Trailing(1)));
        let text = encode_msg(&Msg::Traces { jsonl: "x".into() });
        assert_eq!(decode_msg(&text).unwrap(), Msg::Traces { jsonl: "x".into() });
        assert_eq!(decode_msg(&[TAG_TRACES, 0xFF]), Err(ProtoError::BadUtf8));
    }

    #[test]
    fn health_and_handshake_frames_reject_truncation_and_trailing_bytes() {
        for msg in [
            Msg::Ping { id: 1 },
            Msg::Pong {
                id: 2,
                wal: WalHealth::Unwritable,
                shards: vec![
                    ShardHealth { live: true, degraded: false },
                    ShardHealth { live: true, degraded: true },
                ],
            },
            Msg::QuerySession { id: 3, session: 9 },
            Msg::SessionStatus { id: 4, session: 9, stream_hash: 7, columns: 5 },
        ] {
            let payload = encode_msg(&msg);
            for cut in 0..payload.len() {
                assert!(decode_msg(&payload[..cut]).is_err(), "{msg:?} cut at {cut}");
            }
            let mut extra = payload.clone();
            extra.push(0);
            assert!(
                matches!(decode_msg(&extra), Err(ProtoError::Trailing(1))),
                "{msg:?} must police trailing bytes"
            );
        }
        // unknown wal-health and shard-flag bytes are BadCode, not panics
        let mut pong = encode_msg(&Msg::Pong { id: 1, wal: WalHealth::Writable, shards: vec![] });
        pong[9] = 9;
        assert_eq!(decode_msg(&pong), Err(ProtoError::BadCode(9)));
        let mut pong = encode_msg(&Msg::Pong {
            id: 1,
            wal: WalHealth::Writable,
            shards: vec![ShardHealth { live: true, degraded: false }],
        });
        *pong.last_mut().unwrap() = 0xF0;
        assert_eq!(decode_msg(&pong), Err(ProtoError::BadCode(0xF0)));
    }

    #[test]
    fn get_metrics_polices_trailing_bytes() {
        assert_eq!(decode_msg(&[TAG_GET_METRICS, 9]), Err(ProtoError::Trailing(1)));
    }

    #[test]
    fn session_frames_reject_truncation_and_trailing_bytes() {
        for msg in [
            Msg::OpenSession { id: 1, n_atoms: 64 },
            Msg::PushAtoms { id: 2, session: 1, delta: fig2_matrix() },
            Msg::SealSession { id: 3, session: 1 },
            Msg::SessionVerdict {
                id: 4,
                session: 1,
                verdict: WireVerdict::Accept { order: vec![1, 0] },
            },
        ] {
            let payload = encode_msg(&msg);
            for cut in 0..payload.len() {
                assert!(decode_msg(&payload[..cut]).is_err(), "{msg:?} cut at {cut}");
            }
        }
        // the fixed-size session frames police trailing bytes exactly
        let mut open = encode_msg(&Msg::OpenSession { id: 1, n_atoms: 64 });
        open.push(0);
        assert_eq!(decode_msg(&open), Err(ProtoError::Trailing(1)));
        let mut seal = encode_msg(&Msg::SealSession { id: 1, session: 2 });
        seal.extend_from_slice(&[0, 0]);
        assert_eq!(decode_msg(&seal), Err(ProtoError::Trailing(2)));
        // a corrupted embedded delta surfaces as a Wire error with offset
        let mut push = encode_msg(&Msg::PushAtoms { id: 2, session: 1, delta: fig2_matrix() });
        push.truncate(push.len() - 1);
        assert!(matches!(decode_msg(&push), Err(ProtoError::Wire(EnsembleError::Wire { .. }))));
    }

    #[test]
    fn oversize_frames_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut io::Cursor::new(buf), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_and_payloads_error_cleanly() {
        let mut cursor = io::Cursor::new(vec![5u8, 0]);
        assert!(read_frame(&mut cursor, 1024).is_err(), "truncated length prefix");
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        buf.truncate(5);
        assert!(read_frame(&mut io::Cursor::new(buf), 1024).is_err(), "truncated payload");
        for cut in 0..9 {
            let payload = encode_msg(&Msg::Solve { id: 1, ens: fig2_matrix() });
            assert!(decode_msg(&payload[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_msg(&[]).is_err());
        assert!(decode_msg(&[0x7f]).is_err());
        // a known tag with extra bytes is a Trailing error, not BadTag
        assert_eq!(decode_msg(&[TAG_GET_STATS, 0, 0]), Err(ProtoError::Trailing(2)));
    }
}

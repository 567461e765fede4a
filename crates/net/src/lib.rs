//! `c1p-net` — the serving layer: an event-driven sharded TCP front-end
//! for the C1P engine and the metrics registry it exports.
//!
//! The crate exists because at the scale ROADMAP names, the accept/read
//! path — not the solver — is the ceiling: a blocked thread per idle
//! connection is pure overhead on a small host, and one shared engine
//! means one shared cache lock. The answer here is classic and std-only
//! (the workspace is offline/vendored — no tokio, no mio):
//!
//! * [`poll`] — a raw `poll(2)` shim, one `extern "C"` declaration, the
//!   same trick `c1pd` already uses for `signal(2)`.
//! * [`conn`] — per-socket frame reassembly (a frame may arrive a byte
//!   per wakeup) and a bounded outbox with explicit back-pressure.
//! * [`event_loop`] — one readiness thread multiplexing every socket,
//!   dispatching complete frames to N shard workers, each owning an
//!   [`Engine`] whose LRU covers a consistent-hash slice of canonical
//!   keys ([`route_hash`] + [`pick_shard`]). It is `c1pd`'s only server;
//!   it needs `poll(2)`, so it and `c1pd` serve on unix hosts only, while
//!   the rest of the crate stays portable.
//! * [`metrics`] — the stable-name counter/histogram registry exported
//!   over `GetStats`/`GetMetrics` frames.
//! * [`fault`] — seeded deterministic fault injection (chaos testing):
//!   socket, mailbox and WAL-append fault schedules, zero-cost when
//!   empty, driving the shard supervision in [`event_loop`].
//! * [`client`] — the self-healing client: deadline budgets, backoff
//!   with decorrelated jitter, and the recovered-hash handshake that
//!   makes session pushes idempotent across retries.
//! * [`flags`] — the strict command line `c1pd` and `load_driver`
//!   share: any argument a program does not read exits 2.
//!
//! The server speaks the `c1p_engine::proto` frame protocol unchanged:
//! one response per request, in order, per connection — the event loop
//! re-establishes that order with per-connection sequence numbers when
//! shards complete out of order.

pub mod client;
pub mod conn;
#[cfg(unix)]
pub mod event_loop;
pub mod fault;
pub mod flags;
pub mod metrics;
pub mod poll;
pub mod trace;

use c1p_engine::proto::{ErrorCode, Msg};
use c1p_engine::trace::ReqTrace;
use c1p_engine::{Engine, EngineError};
use c1p_matrix::Ensemble;

/// Shard-routing hash of an instance: invariant under column permutation,
/// exactly the quotient the engine's cache key takes (canonicalization
/// sorts columns lexicographically and leaves atoms untouched — see
/// `c1p_engine::canonical`). Two requests with the same canonical key
/// always hash alike, so they land on the same shard and its LRU can
/// coalesce them; requests differing in atom numbering spread out.
///
/// Per-column FNV-1a folded with a wrapping sum: the sum commutes, the
/// per-column hash does not.
pub fn route_hash(ens: &Ensemble) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut acc = (ens.n_atoms() as u64).wrapping_mul(FNV_PRIME) ^ FNV_OFFSET;
    for col in ens.columns() {
        let mut h = FNV_OFFSET;
        for &atom in col {
            for b in atom.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        // length disambiguates [] vs [0] (FNV of nothing vs something)
        h = (h ^ col.len() as u64).wrapping_mul(FNV_PRIME);
        acc = acc.wrapping_add(h);
    }
    acc
}

/// Rendezvous (highest-random-weight) shard choice: every key ranks all
/// shards and takes the max, so changing the shard count reshuffles only
/// the keys whose winner changed — no modulo avalanche.
pub fn pick_shard(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut best = 0usize;
    let mut best_w = 0u64;
    for s in 0..shards {
        // splitmix64 over (key hash ⊕ shard id) as the weight
        let mut w = hash ^ (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        w = (w ^ (w >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        w = (w ^ (w >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        w ^= w >> 31;
        if s == 0 || w > best_w {
            best = s;
            best_w = w;
        }
    }
    best
}

/// Maps an [`EngineError`] onto the wire error frame (the serving tests
/// compare these byte for byte with in-process replies).
pub fn engine_error(id: u64, e: EngineError) -> Msg {
    let code = match e {
        EngineError::Overloaded => ErrorCode::Overloaded,
        EngineError::TooLarge { .. }
        | EngineError::SessionFull { .. }
        | EngineError::SessionOverBudget { .. } => ErrorCode::TooLarge,
        EngineError::ShuttingDown => ErrorCode::Internal,
        EngineError::NoSuchSession { .. } => ErrorCode::NoSession,
        EngineError::SessionMismatch { .. } => ErrorCode::Malformed,
    };
    Msg::Error { id, code, message: e.to_string() }
}

/// Serves one `PushAtoms`/`SealSession`/`QuerySession` request against
/// `engine`, with the session handle already translated to the
/// engine-local id `local`; the reply carries `public` as its handle
/// (public ids interleave shard-local ones — see [`event_loop`]).
/// `PushAtoms` solve/WAL work is recorded into `trace` when sampled
/// (seal and query reuse the untraced engine paths — their lifecycle
/// spans come from the front end).
pub fn session_reply(
    engine: &Engine,
    msg: &Msg,
    local: u64,
    public: u64,
    trace: Option<&ReqTrace>,
) -> Msg {
    match *msg {
        Msg::PushAtoms { id, ref delta, .. } => {
            match engine.session_push_traced(local, delta, trace) {
                Ok(verdict) => {
                    Msg::SessionVerdict { id, session: public, verdict: verdict.to_wire() }
                }
                Err(e) => engine_error(id, e),
            }
        }
        Msg::SealSession { id, .. } => match engine.seal_session(local) {
            Ok(verdict) => Msg::SessionVerdict { id, session: public, verdict: verdict.to_wire() },
            Err(e) => engine_error(id, e),
        },
        Msg::QuerySession { id, .. } => match engine.session_status(local) {
            Ok((stream_hash, columns)) => {
                Msg::SessionStatus { id, session: public, stream_hash, columns }
            }
            Err(e) => engine_error(id, e),
        },
        _ => Msg::Error {
            id: 0,
            code: ErrorCode::Malformed,
            message: "unexpected message kind for a server".into(),
        },
    }
}

/// Probes the durability directory for a [`Msg::Pong`]: a tiny write
/// (created and removed) answers "can accepted pushes still be made
/// durable right now?" — `Disabled` when the server runs without a WAL.
pub fn wal_health(dir: Option<&std::path::Path>) -> c1p_engine::proto::WalHealth {
    use c1p_engine::proto::WalHealth;
    let Some(dir) = dir else {
        return WalHealth::Disabled;
    };
    let probe = dir.join(".health-probe");
    match std::fs::write(&probe, b"ok") {
        Ok(()) => {
            let _ = std::fs::remove_file(&probe);
            WalHealth::Writable
        }
        Err(_) => WalHealth::Unwritable,
    }
}

/// The `OpenSession` reply: the empty state's witness is the identity —
/// elided (empty order) so a 17-byte open cannot amplify into a multi-MB
/// reply at large `n_atoms`.
pub fn open_reply(id: u64, public: u64) -> Msg {
    Msg::SessionVerdict {
        id,
        session: public,
        verdict: c1p_matrix::io::WireVerdict::Accept { order: Vec::new() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c1p_matrix::Ensemble;
    use rand::{RngExt, SeedableRng, StdRng};

    fn random_ensemble(rng: &mut StdRng, n_atoms: usize, n_cols: usize) -> Ensemble {
        let mut ens = Ensemble::new(n_atoms);
        for _ in 0..n_cols {
            let len = rng.random_range(1..=n_atoms.min(6));
            let mut col: Vec<u32> = (0..n_atoms as u32).collect();
            for i in 0..len {
                let j = rng.random_range(i..n_atoms);
                col.swap(i, j);
            }
            col.truncate(len);
            ens.push_column(col);
        }
        ens
    }

    #[test]
    fn route_hash_is_column_permutation_invariant() {
        let mut rng = StdRng::seed_from_u64(0xC1F0);
        for _ in 0..50 {
            let ens = random_ensemble(&mut rng, 12, 8);
            let mut cols: Vec<Vec<u32>> = ens.columns().to_vec();
            // rotate + swap: a nontrivial permutation of the columns
            cols.rotate_left(3);
            let last = cols.len() - 1;
            cols.swap(0, last);
            let permuted = Ensemble::from_sorted_columns(ens.n_atoms(), cols).unwrap();
            assert_eq!(route_hash(&ens), route_hash(&permuted));
        }
    }

    #[test]
    fn route_hash_distinguishes_atom_count_and_content() {
        let a = Ensemble::from_sorted_columns(8, vec![vec![0, 1]]).unwrap();
        let b = Ensemble::from_sorted_columns(9, vec![vec![0, 1]]).unwrap();
        let c = Ensemble::from_sorted_columns(8, vec![vec![0, 2]]).unwrap();
        assert_ne!(route_hash(&a), route_hash(&b));
        assert_ne!(route_hash(&a), route_hash(&c));
        // empty column vs singleton atom 0: length folding keeps them apart
        let d = Ensemble::from_sorted_columns(8, vec![vec![], vec![0, 1]]).unwrap();
        assert_ne!(route_hash(&a), route_hash(&d));
    }

    #[test]
    fn pick_shard_is_stable_and_spreads() {
        let mut counts = [0usize; 4];
        for k in 0..4096u64 {
            let s = pick_shard(k.wrapping_mul(0x9e3779b97f4a7c15), 4);
            assert_eq!(s, pick_shard(k.wrapping_mul(0x9e3779b97f4a7c15), 4), "deterministic");
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 4096 / 8, "shard {s} got {c}/4096 — rendezvous should spread evenly");
        }
        // single shard degenerates to 0
        assert_eq!(pick_shard(123, 1), 0);
    }

    #[test]
    fn rendezvous_moves_few_keys_when_a_shard_is_added() {
        let moved = (0..4096u64)
            .filter(|k| {
                let h = k.wrapping_mul(0x9e3779b97f4a7c15);
                let before = pick_shard(h, 4);
                let after = pick_shard(h, 5);
                before != after && after != 4
            })
            .count();
        // growing 4 → 5 shards may move keys *to* the new shard, but
        // must not reshuffle keys among the old ones
        assert_eq!(moved, 0, "{moved} keys changed owner among surviving shards");
    }
}

//! Retry-idempotency under chaos, end to end: a fault-plan-configured
//! `c1pd` drops shard replies and kills workers while the self-healing
//! client streams session pushes at it. The properties under test
//! (DESIGN.md §12):
//!
//! * **no double-apply** — every ambiguous ack resolves through the
//!   recovered-stream-hash handshake; a push applied twice would fold
//!   the hash twice and the handshake would report divergence, so the
//!   suite finishing without `StateDiverged` *is* the proof;
//! * **bit-identical seals** — a sealed order that *arrives* equals the
//!   fault-free ground truth (`c1p_core::solve` of the final
//!   concatenation) byte for byte, across seeds and shard counts; a
//!   seal whose reply was lost recovers an order that must still verify
//!   as a witness for exactly the accepted stream;
//! * **supervised restarts recover sessions** — an injected worker
//!   kill restarts the shard in-process, WAL recovery restores the
//!   session, and the stream finishes as if nothing happened.

#![cfg(unix)]

use c1p_engine::proto::{
    decode_msg, encode_msg, read_frame, write_frame, Msg, WalHealth, DEFAULT_MAX_FRAME,
};
use c1p_matrix::generate::append_stream;
use c1p_matrix::io::WireVerdict;
use c1p_net::client::{Client, PushOutcome, RetryPolicy, SealOutcome};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static SEQ: AtomicU32 = AtomicU32::new(0);

/// A live `c1pd` child on an ephemeral port; killed on drop.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra_args: &[&str]) -> Server {
        let port_file = std::env::temp_dir().join(format!(
            "c1pd-chaos-{}-{}.port",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_c1pd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--threads", "1"])
            .args(extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn c1pd");
        let t0 = Instant::now();
        let port = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(p) = s.trim().parse::<u16>() {
                    break p;
                }
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "c1pd never wrote its port");
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&port_file);
        Server { child, addr: format!("127.0.0.1:{port}") }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One raw (non-retrying) request/response — for metrics scrapes, which
/// the event thread answers inline and chaos never touches.
fn rpc(addr: &str, msg: &Msg) -> Msg {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    write_frame(&mut writer, &encode_msg(msg)).expect("write frame");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream);
    let payload =
        read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read frame").expect("server answers");
    decode_msg(&payload).expect("decodable response")
}

/// A generous client budget: chaos stalls individual exchanges, but CI
/// must never flake on a slow runner.
fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        deadline: Duration::from_secs(60),
        base: Duration::from_millis(2),
        cap: Duration::from_millis(50),
        seed,
    }
}

/// Streams `stream` through one session with the retry client and seals,
/// asserting the core idempotency properties along the way. Returns the
/// sealed order and the transport retries the client performed.
fn drive_stream(addr: &str, seed: u64) -> (Vec<u32>, u64) {
    let stream = append_stream(40, 3, 5, seed);
    let expected = c1p_core::solve(&stream.final_ensemble()).expect("append streams are C1P");
    let mut client = Client::new(addr, policy(seed));
    let mut session = client.open_session(stream.n_atoms).expect("open session");
    for k in 0..stream.pushes.len() {
        match session.push(&stream.push_ensemble(k)).expect("push settles") {
            PushOutcome::Verdict(WireVerdict::Accept { .. }) | PushOutcome::RecoveredAccepted => {}
            PushOutcome::Verdict(other) => panic!("push {k} rejected an append stream: {other:?}"),
        }
    }
    match session.seal().expect("seal settles") {
        // a seal whose reply arrived must be bit-identical to fault-free
        SealOutcome::Order(order) => {
            assert_eq!(order, expected, "sealed order differs from the fault-free ground truth");
            (order, client.retries())
        }
        // the seal applied but its reply was lost: the order is still
        // recoverable — sealing inserted the concatenation in the cache.
        // The cache may hand back the witness in the opposite (equally
        // valid) orientation, so this path verifies rather than compares.
        SealOutcome::LostButSealed => {
            let order = match client.solve(&stream.final_ensemble()).expect("solve after seal") {
                WireVerdict::Accept { order } => order,
                other => panic!("post-seal solve rejected: {other:?}"),
            };
            c1p_matrix::verify::verify_linear(&stream.final_ensemble(), &order)
                .expect("recovered order must be a valid witness for the accepted stream");
            (order, client.retries())
        }
    }
}

#[test]
fn dropped_replies_never_double_apply_across_seeds_and_shard_counts() {
    for (seed, shards) in [(11u64, "1"), (29u64, "3")] {
        // every 3rd shard reply is dropped; the 250 ms server deadline
        // turns each loss into an exact Unavailable instead of a hang,
        // and the client's hash handshake disambiguates applied vs not
        let server = Server::start(&[
            "--shards",
            shards,
            "--chaos-seed",
            "7",
            "--chaos-drop-every",
            "3",
            "--request-deadline-ms",
            "250",
        ]);
        let (_, retries) = drive_stream(&server.addr, seed);
        assert!(
            retries > 0,
            "seed {seed}, {shards} shard(s): dropping a third of replies must force retries"
        );
        // the server counts handshake rounds too: QuerySession frames
        let dump = match rpc(&server.addr, &Msg::GetMetrics) {
            Msg::Metrics { text } => text,
            other => panic!("expected Metrics, got {other:?}"),
        };
        let served = c1p_net::metrics::scrape(&dump, "c1pd_retries_total").expect("stable name");
        assert!(served > 0.0, "the server must have served the handshake queries");
        let injected =
            c1p_net::metrics::scrape(&dump, "c1pd_faults_injected_total").expect("stable name");
        assert!(injected > 0.0, "the drop schedule must actually have fired");
    }
}

#[test]
fn injected_worker_kills_are_supervised_and_sessions_recover_from_the_wal() {
    let wal = std::env::temp_dir().join(format!(
        "c1pd-chaos-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal);
    std::fs::create_dir_all(&wal).expect("wal dir");
    // every 4th job batch panics its worker; supervision respawns it and
    // the respawned engine recovers the session from <wal>/shard-i, all
    // within this one process lifetime
    let server = Server::start(&[
        "--shards",
        "2",
        "--wal-dir",
        wal.to_str().expect("utf-8 temp dir"),
        "--chaos-seed",
        "3",
        "--chaos-kill-every",
        "4",
        "--request-deadline-ms",
        "2000",
    ]);
    for seed in [5u64, 17] {
        let (_, retries) = drive_stream(&server.addr, seed);
        // not asserted per-stream: a lucky schedule may dodge the kills
        let _ = retries;
    }
    let dump = match rpc(&server.addr, &Msg::GetMetrics) {
        Msg::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    let restarts =
        c1p_net::metrics::scrape(&dump, "c1pd_shard_restarts_total").expect("stable name");
    assert!(restarts >= 1.0, "kill-every-4 over two streams must restart at least one worker");
    let swept =
        c1p_net::metrics::scrape(&dump, "c1pd_degraded_replies_total").expect("stable name");
    assert!(swept >= 1.0, "a killed batch's requests must be answered Unavailable, not dropped");
    drop(server);
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn ping_reports_shard_liveness_and_wal_health() {
    let server = Server::start(&["--shards", "3"]);
    let mut client = Client::new(&server.addr, policy(1));
    match client.ping().expect("ping") {
        Msg::Pong { wal, shards, .. } => {
            assert_eq!(wal, WalHealth::Disabled, "no --wal-dir: durability is off, not broken");
            assert_eq!(shards.len(), 3);
            for (i, s) in shards.iter().enumerate() {
                assert!(s.live && !s.degraded, "shard {i} should be live on a fresh server");
            }
        }
        other => panic!("expected Pong, got {other:?}"),
    }
}

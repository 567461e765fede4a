//! Admission control over real TCP: every refusal path of `c1pd` must
//! answer with an *exact* error frame — right id echo, right
//! [`ErrorCode`] — rather than silently dropping the connection. Covers
//! the queue-depth, instance-size, connection-count and frame-size
//! limits, plus the session error codes. Every test runs twice: against
//! the default 1-shard server (the unsuffixed tests) and with
//! `--shards 2` (`_event_loop`, a name kept from when the event loop was
//! the second of two servers), because refusals must not depend on the
//! shard count.

use c1p_engine::proto::{
    decode_msg, encode_msg, read_frame, write_frame, ErrorCode, Msg, DEFAULT_MAX_FRAME,
};
use c1p_matrix::io::fig2_matrix;
use c1p_matrix::Ensemble;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A live `c1pd` child on an ephemeral port; killed on drop.
struct Server {
    child: Child,
    addr: String,
}

static PORT_FILE_SEQ: AtomicU32 = AtomicU32::new(0);

/// The sharded variant's extra flags (2 shards so the sharded paths
/// participate in every refusal).
const EVENT_LOOP: &[&str] = &["--shards", "2"];

impl Server {
    fn start(mode: &[&str], extra_args: &[&str]) -> Server {
        let port_file = std::env::temp_dir().join(format!(
            "c1pd-admission-{}-{}.port",
            std::process::id(),
            PORT_FILE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_c1pd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(["--threads", "1"])
            .args(mode)
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

    fn connect(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("connect to c1pd")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One request/response round trip over an existing connection.
fn rpc(stream: &TcpStream, msg: &Msg) -> Msg {
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    write_frame(&mut writer, &encode_msg(msg)).expect("write frame");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("read frame")
        .expect("server must answer, not drop");
    decode_msg(&payload).expect("decodable response")
}

fn expect_error(got: Msg, id: u64, code: ErrorCode) {
    match got {
        Msg::Error { id: got_id, code: got_code, message } => {
            assert_eq!((got_id, got_code), (id, code), "error frame mismatch: {message}");
            assert!(!message.is_empty(), "error frames carry a human-readable detail");
        }
        other => panic!("expected an Error frame ({code:?}), got {other:?}"),
    }
}

fn queue_depth_and_instance_size(mode: &[&str]) {
    let server = Server::start(mode, &["--max-queue", "0", "--max-atoms", "4"]);
    let conn = server.connect();
    // over the atom limit: TooLarge wins (checked at submit admission)
    expect_error(rpc(&conn, &Msg::Solve { id: 7, ens: fig2_matrix() }), 7, ErrorCode::TooLarge);
    // within the atom limit but a zero-capacity queue: Overloaded
    let tiny = Ensemble::from_columns(3, vec![vec![0, 1]]).unwrap();
    expect_error(rpc(&conn, &Msg::Solve { id: 8, ens: tiny }), 8, ErrorCode::Overloaded);
    // the connection survives both refusals, and the queue-cap refusal
    // is counted exactly once in both the stats and the metrics dump
    let json = match rpc(&conn, &Msg::GetStats) {
        Msg::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    assert!(json.contains("\"overloaded\": 1,"), "GetStats must count the refusal: {json}");
    let text = match rpc(&conn, &Msg::GetMetrics) {
        Msg::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    assert_eq!(c1p_net::metrics::scrape(&text, "c1pd_overloaded_total"), Some(1.0));
}

fn connection_limit(mode: &[&str]) {
    let server = Server::start(mode, &["--max-conns", "1"]);
    let held = server.connect();
    // make sure the first connection is fully registered server-side
    assert!(matches!(rpc(&held, &Msg::GetStats), Msg::Stats { .. }));
    let refused = server.connect();
    let mut reader = BufReader::new(refused.try_clone().expect("clone"));
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("refused connection still gets a frame")
        .expect("one Overloaded frame");
    expect_error(decode_msg(&payload).unwrap(), 0, ErrorCode::Overloaded);
    assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("clean close"), None);
    // releasing the held connection frees the slot (poll: the server
    // decrements its counter after the handler thread unwinds)
    drop(held);
    let t0 = Instant::now();
    loop {
        let again = server.connect();
        let mut reader = BufReader::new(again.try_clone().expect("clone"));
        let mut writer = BufWriter::new(again.try_clone().expect("clone"));
        write_frame(&mut writer, &encode_msg(&Msg::GetStats)).expect("write");
        writer.flush().expect("flush");
        let reply = read_frame(&mut reader, DEFAULT_MAX_FRAME)
            .expect("read")
            .map(|p| decode_msg(&p).expect("decodable"));
        match reply {
            Some(Msg::Stats { .. }) => break,
            _ => {
                assert!(t0.elapsed() < Duration::from_secs(30), "slot never freed");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn oversized_frames(mode: &[&str]) {
    let server = Server::start(mode, &["--max-frame-mb", "1"]);
    let conn = server.connect();
    // a hostile 2 MiB length prefix with no payload behind it: the server
    // must refuse on the declared length alone, with an exact error frame
    let mut writer = BufWriter::new(conn.try_clone().expect("clone"));
    writer.write_all(&(2u32 << 20).to_le_bytes()).expect("write length");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("server answers before closing")
        .expect("one TooLarge frame");
    expect_error(decode_msg(&payload).unwrap(), 0, ErrorCode::TooLarge);
    // then the connection closes (the stream position is unrecoverable)
    assert_eq!(read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("clean close"), None);
}

fn malformed_and_session_errors(mode: &[&str]) {
    let server = Server::start(mode, &["--max-atoms", "64"]);
    let conn = server.connect();
    // undecodable payload: Malformed, connection survives
    let mut writer = BufWriter::new(conn.try_clone().expect("clone"));
    write_frame(&mut writer, &[0x7f, 1, 2, 3]).expect("write");
    writer.flush().expect("flush");
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("frame");
    expect_error(decode_msg(&payload).unwrap(), 0, ErrorCode::Malformed);
    // session ops against a handle that does not exist: NoSession
    expect_error(
        rpc(&conn, &Msg::PushAtoms { id: 3, session: 99, delta: Ensemble::new(4) }),
        3,
        ErrorCode::NoSession,
    );
    expect_error(rpc(&conn, &Msg::SealSession { id: 4, session: 99 }), 4, ErrorCode::NoSession);
    // opening over the atom limit: TooLarge
    expect_error(rpc(&conn, &Msg::OpenSession { id: 5, n_atoms: 65 }), 5, ErrorCode::TooLarge);
    // a push whose atom count disagrees with its session: Malformed
    let session = match rpc(&conn, &Msg::OpenSession { id: 6, n_atoms: 8 }) {
        Msg::SessionVerdict { id: 6, session, .. } => session,
        other => panic!("expected a SessionVerdict, got {other:?}"),
    };
    expect_error(
        rpc(&conn, &Msg::PushAtoms { id: 7, session, delta: Ensemble::new(9) }),
        7,
        ErrorCode::Malformed,
    );
    // ...and the session survives the refused push
    assert!(matches!(
        rpc(&conn, &Msg::SealSession { id: 8, session }),
        Msg::SessionVerdict { id: 8, .. }
    ));
}

#[test]
fn queue_depth_and_instance_size_answer_exact_error_frames() {
    queue_depth_and_instance_size(&[]);
}

#[test]
fn queue_depth_and_instance_size_answer_exact_error_frames_event_loop() {
    queue_depth_and_instance_size(EVENT_LOOP);
}

#[test]
fn connection_limit_refuses_with_one_overloaded_frame_then_eof() {
    connection_limit(&[]);
}

#[test]
fn connection_limit_refuses_with_one_overloaded_frame_then_eof_event_loop() {
    connection_limit(EVENT_LOOP);
}

#[test]
fn oversized_frames_answer_too_large_then_close() {
    oversized_frames(&[]);
}

#[test]
fn oversized_frames_answer_too_large_then_close_event_loop() {
    oversized_frames(EVENT_LOOP);
}

#[test]
fn malformed_payloads_and_session_errors_name_their_codes() {
    malformed_and_session_errors(&[]);
}

#[test]
fn malformed_payloads_and_session_errors_name_their_codes_event_loop() {
    malformed_and_session_errors(EVENT_LOOP);
}

//! The `--read-timeout-ms` stall budget: a peer that stalls *mid-frame*
//! past the budget gets one exact `Timeout` error frame, then the close
//! — while a peer that is merely idle *between* frames is never reaped,
//! no matter how long it sits. Each check runs against the default
//! 1-shard server (`_legacy`, a name kept from the thread-per-connection
//! server it used to cover) and a 2-shard one (`_event_loop`).

use c1p_engine::proto::{
    decode_msg, encode_msg, read_frame, write_frame, ErrorCode, Msg, DEFAULT_MAX_FRAME,
};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static SEQ: AtomicU32 = AtomicU32::new(0);

struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra_args: &[&str]) -> Server {
        let port_file = std::env::temp_dir().join(format!(
            "c1pd-loris-{}-{}.port",
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

    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(&self.addr).expect("connect to c1pd");
        s.set_nodelay(true).ok();
        s
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

const BUDGET_MS: u64 = 150;

/// A stalled partial frame must be answered with the exact `Timeout`
/// error frame — code, id and message — and then the connection closes.
fn stalled_mid_frame_gets_exact_timeout(mode: &[&str], partial: &[u8]) {
    let server = Server::start(&[mode, &["--read-timeout-ms", "150"]].concat());
    let mut conn = server.connect();
    conn.write_all(partial).expect("partial frame");
    conn.flush().expect("flush");
    // no further bytes: the reaper must fire after the budget
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let t0 = Instant::now();
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("server answers before closing")
        .expect("one Timeout frame, not a silent drop");
    assert!(
        t0.elapsed() >= Duration::from_millis(BUDGET_MS / 2),
        "reaped too early — idle time must be allowed up to the budget"
    );
    match decode_msg(&payload).expect("decodable") {
        Msg::Error { id, code, message } => {
            assert_eq!(id, 0);
            assert_eq!(code, ErrorCode::Timeout);
            assert_eq!(
                message,
                format!("stalled mid-frame past the {BUDGET_MS} ms read-timeout budget"),
                "both modes promise this exact message"
            );
        }
        other => panic!("expected the Timeout error frame, got {other:?}"),
    }
    // then EOF: the stream position is unrecoverable
    assert_eq!(
        read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("clean close"),
        None,
        "connection must close after the Timeout frame"
    );
}

#[test]
fn stalled_length_prefix_times_out_legacy() {
    stalled_mid_frame_gets_exact_timeout(&[], &[0x08, 0x00]);
}

#[test]
fn stalled_length_prefix_times_out_event_loop() {
    stalled_mid_frame_gets_exact_timeout(&["--shards", "2"], &[0x08, 0x00]);
}

#[test]
fn stalled_payload_times_out_legacy() {
    // a complete prefix declaring 8 bytes, then only one of them
    stalled_mid_frame_gets_exact_timeout(&[], &[0x08, 0x00, 0x00, 0x00, 0x04]);
}

#[test]
fn stalled_payload_times_out_event_loop() {
    stalled_mid_frame_gets_exact_timeout(&["--shards", "2"], &[0x08, 0x00, 0x00, 0x00, 0x04]);
}

/// Idle *between* frames is not a stall: a connection that sits silent
/// for several budgets must still be served afterwards.
fn idle_between_frames_is_never_reaped(mode: &[&str]) {
    let server = Server::start(&[mode, &["--read-timeout-ms", "150"]].concat());
    let conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = conn;
    std::thread::sleep(Duration::from_millis(4 * BUDGET_MS));
    let mut f = Vec::new();
    write_frame(&mut f, &encode_msg(&Msg::GetStats)).expect("vec write");
    writer.write_all(&f).expect("write after long idle");
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("idle connections stay connected");
    assert!(matches!(decode_msg(&payload), Ok(Msg::Stats { .. })));
}

#[test]
fn idle_between_frames_survives_legacy() {
    idle_between_frames_is_never_reaped(&[]);
}

#[test]
fn idle_between_frames_survives_event_loop() {
    idle_between_frames_is_never_reaped(&["--shards", "2"]);
}

/// `--read-timeout-ms 0` disables the reaper entirely: a partial frame
/// may stall indefinitely (bounded here by a few budgets) and then
/// complete normally.
fn zero_budget_disables_the_reaper(mode: &[&str]) {
    let server = Server::start(&[mode, &["--read-timeout-ms", "0"]].concat());
    let mut conn = server.connect();
    let mut f = Vec::new();
    write_frame(&mut f, &encode_msg(&Msg::GetStats)).expect("vec write");
    conn.write_all(&f[..2]).expect("partial prefix");
    conn.flush().expect("flush");
    std::thread::sleep(Duration::from_millis(3 * BUDGET_MS));
    conn.write_all(&f[2..]).expect("rest of the frame");
    let mut reader = BufReader::new(conn);
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)
        .expect("read")
        .expect("disabled reaper must let the frame complete");
    assert!(matches!(decode_msg(&payload), Ok(Msg::Stats { .. })));
}

#[test]
fn zero_budget_disables_reaper_legacy() {
    zero_budget_disables_the_reaper(&[]);
}

#[test]
fn zero_budget_disables_reaper_event_loop() {
    zero_budget_disables_the_reaper(&["--shards", "2"]);
}

//! Crash recovery over a real `c1pd` process: SIGKILL mid-stream, the
//! mid-append fault hook, and graceful SIGTERM — in every case the next
//! process generation must recover the durable state exactly (sessions
//! seal bit-identical to a one-shot solve, snapshots warm the cache) and
//! never quarantine an honestly-written log. A generation started with
//! another shard count must refuse the directory instead of booting
//! without its sessions.

use c1p_cert::solve_certified;
use c1p_engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
use c1p_matrix::generate::{append_stream, AppendStream};
use c1p_matrix::io::WireVerdict;
use c1p_matrix::{Atom, Ensemble};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

static SEQ: AtomicU32 = AtomicU32::new(0);

fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "c1pd-crash-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("test dir");
    d
}

/// A durable `c1pd` generation over `wal_dir`; SIGKILLed on drop unless
/// already reaped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(wal_dir: &Path, extra_args: &[&str]) -> Server {
        let port_file = wal_dir.join(format!("port-{}", SEQ.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_c1pd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--threads", "2"])
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

    /// SIGKILL: the process gets no chance to flush anything.
    fn kill9(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::mem::forget(self);
    }

    /// SIGTERM, then the exit status of the graceful shutdown.
    fn terminate(mut self) -> std::process::ExitStatus {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("spawn kill")
            .success();
        assert!(ok, "kill -TERM failed");
        let status = self.child.wait().expect("wait for c1pd");
        std::mem::forget(self);
        status
    }

    /// Waits for the child to die on its own (the injected fault aborts).
    fn reap(mut self) {
        let t0 = Instant::now();
        loop {
            if self.child.try_wait().expect("try_wait").is_some() {
                std::mem::forget(self);
                return;
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "fault never fired");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One round trip; `Err` when the server died under the request.
fn try_rpc(stream: &TcpStream, msg: &Msg) -> io::Result<Msg> {
    let mut writer = BufWriter::new(stream.try_clone()?);
    write_frame(&mut writer, &encode_msg(msg))?;
    writer.flush()?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
    decode_msg(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn rpc(stream: &TcpStream, msg: &Msg) -> Msg {
    try_rpc(stream, msg).expect("server must answer")
}

/// Scans one integer counter out of the `Stats` frame's flat JSON.
fn stat(server: &Server, key: &str) -> i64 {
    let conn = server.connect();
    let Msg::Stats { json } = rpc(&conn, &Msg::GetStats) else {
        panic!("expected a Stats frame");
    };
    let needle = format!("\"{key}\":");
    let at = json.find(&needle).unwrap_or_else(|| panic!("{key} missing in {json}"));
    let digits: String = json[at + needle.len()..]
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("integer stat")
}

fn open(conn: &TcpStream, n_atoms: usize) -> u64 {
    match rpc(conn, &Msg::OpenSession { id: 1, n_atoms: n_atoms as u64 }) {
        Msg::SessionVerdict { session, .. } => session,
        other => panic!("expected a SessionVerdict, got {other:?}"),
    }
}

fn push_accept(conn: &TcpStream, session: u64, delta: Ensemble) {
    match rpc(conn, &Msg::PushAtoms { id: 2, session, delta }) {
        Msg::SessionVerdict { verdict: WireVerdict::Accept { .. }, .. } => {}
        other => panic!("expected an accepted push, got {other:?}"),
    }
}

/// Seals and asserts the order equals a one-shot `solve_certified` of the
/// stream's full column set.
fn seal_and_check(conn: &TcpStream, session: u64, stream: &AppendStream) {
    let cols: Vec<Vec<Atom>> = stream.pushes.iter().flatten().cloned().collect();
    let expect = solve_certified(&Ensemble::from_columns(stream.n_atoms, cols).unwrap())
        .expect("accept-only stream");
    match rpc(conn, &Msg::SealSession { id: 3, session }) {
        Msg::SessionVerdict { verdict: WireVerdict::Accept { order }, .. } => {
            assert_eq!(order, expect, "seal after recovery differs from one-shot")
        }
        other => panic!("expected a sealed Accept, got {other:?}"),
    }
}

#[test]
fn sigkill_mid_stream_recovers_and_seals_bit_identical() {
    let dir = tdir("kill9");
    let stream = append_stream(72, 4, 6, 31);
    let split = 3;

    let gen0 = Server::start(&dir, &[]);
    let conn = gen0.connect();
    let session = open(&conn, stream.n_atoms);
    for k in 0..split {
        push_accept(&conn, session, stream.push_ensemble(k));
    }
    drop(conn);
    gen0.kill9(); // every acked push was fsynced; nothing else survives

    let gen1 = Server::start(&dir, &[]);
    assert_eq!(stat(&gen1, "recovered_sessions"), 1, "the session is back at boot");
    assert_eq!(stat(&gen1, "quarantined_wals"), 0, "an honest log is never quarantined");
    let conn = gen1.connect();
    for k in split..stream.pushes.len() {
        push_accept(&conn, session, stream.push_ensemble(k));
    }
    seal_and_check(&conn, session, &stream);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_append_fault_loses_only_the_unacked_push() {
    let dir = tdir("fault");
    let stream = append_stream(64, 4, 5, 37);

    // the 2nd WAL append dies mid-write: push 0 is acked and durable,
    // push 1 is torn on disk and the client provably holds no ack for it
    let gen0 = Server::start(&dir, &["--wal-fault-after", "2"]);
    let conn = gen0.connect();
    let session = open(&conn, stream.n_atoms);
    push_accept(&conn, session, stream.push_ensemble(0));
    let died = try_rpc(&conn, &Msg::PushAtoms { id: 9, session, delta: stream.push_ensemble(1) });
    assert!(died.is_err(), "the faulted append must abort before acknowledging");
    drop(conn);
    gen0.reap();

    // recovery truncates the torn record; the retry is exact, not guessed
    let gen1 = Server::start(&dir, &[]);
    assert_eq!(stat(&gen1, "recovered_sessions"), 1);
    assert_eq!(stat(&gen1, "quarantined_wals"), 0, "a torn tail is a truncation, not damage");
    let conn = gen1.connect();
    for k in 1..stream.pushes.len() {
        push_accept(&conn, session, stream.push_ensemble(k));
    }
    seal_and_check(&conn, session, &stream);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_gracefully_and_the_next_boot_starts_warm() {
    let dir = tdir("term");
    let probe = append_stream(72, 4, 3, 41).final_ensemble();

    let gen0 = Server::start(&dir, &[]);
    let conn = gen0.connect();
    assert!(matches!(rpc(&conn, &Msg::Solve { id: 1, ens: probe.clone() }), Msg::Verdict { .. }));
    drop(conn);
    let status = gen0.terminate();
    assert!(status.success(), "graceful shutdown exits 0, got {status}");

    // the shutdown-time snapshot warms the restarted cache: the very
    // first solve of the same instance is a hit attributed to it
    let gen1 = Server::start(&dir, &[]);
    let conn = gen1.connect();
    assert!(matches!(rpc(&conn, &Msg::Solve { id: 2, ens: probe }), Msg::Verdict { .. }));
    assert_eq!(stat(&gen1, "warm_start_hits"), 1, "first post-restart solve answered warm");
    assert_eq!(stat(&gen1, "misses"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_wal_dir_laid_out_for_another_shard_count_is_refused() {
    let dir = tdir("layout");
    let stream = append_stream(48, 3, 3, 43);

    // one shard logs at the top level of --wal-dir
    let gen0 = Server::start(&dir, &[]);
    let conn = gen0.connect();
    let session = open(&conn, stream.n_atoms);
    push_accept(&conn, session, stream.push_ensemble(0));
    drop(conn);
    gen0.kill9();

    // a 2-shard server would look for logs under shard-i and strand the
    // acknowledged session: it must refuse to boot, naming the log
    let mut child = Command::new(env!("CARGO_BIN_EXE_c1pd"))
        .args(["--addr", "127.0.0.1:0", "--wal-dir"])
        .arg(&dir)
        .args(["--shards", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn c1pd");
    let t0 = Instant::now();
    while child.try_wait().expect("try_wait").is_none() {
        if t0.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("c1pd booted on a WAL dir laid out for 1 shard");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect c1pd output");
    assert_eq!(out.status.code(), Some(2), "a layout mismatch exits 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&format!("session-{session}.wal")), "names the log: {stderr}");

    // the refusal touched nothing: the 1-shard server still recovers it
    let gen1 = Server::start(&dir, &[]);
    assert_eq!(stat(&gen1, "recovered_sessions"), 1);
    let conn = gen1.connect();
    for k in 1..stream.pushes.len() {
        push_accept(&conn, session, stream.push_ensemble(k));
    }
    seal_and_check(&conn, session, &stream);
    let _ = std::fs::remove_dir_all(&dir);
}

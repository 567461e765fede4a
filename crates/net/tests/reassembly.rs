//! Cross-wakeup frame reassembly over a real socket: a seeded fuzz
//! feeds every frame type 1–3 bytes per write, so the length prefix and
//! every payload straddle many reads, and the verdicts must come back
//! byte-identical to whole-frame delivery. Reassembly lives in
//! [`c1p_net::conn::FrameReader`]; each check runs against the default
//! 1-shard server (`_legacy`, a name kept from the thread-per-connection
//! server it used to cover) and a 2-shard one (`_event_loop`), plus the
//! nastiest truncation: EOF in the middle of a length prefix.

use c1p_engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
use c1p_matrix::generate::{append_stream, planted, planted_reject};
use c1p_matrix::Ensemble;
use rand::{RngExt, SeedableRng, StdRng};
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
            "c1pd-reasm-{}-{}.port",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(env!("CARGO_BIN_EXE_c1pd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            // dribbled writes must never trip the stall reaper: the
            // budget measures peer silence, and this peer is merely slow
            .args(["--threads", "1", "--read-timeout-ms", "10000"])
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

/// A deterministic request mix covering every client→server frame type:
/// solves (accept + reject + duplicate), a full session lifecycle, a
/// stats and a metrics probe, and one undecodable payload.
fn request_mix(session: u64) -> Vec<Vec<u8>> {
    let st = append_stream(24, 2, 2, 5);
    let msgs = vec![
        Msg::Solve { id: 0, ens: planted(20, 1) },
        Msg::Solve { id: 1, ens: planted_reject(24, 2).0 },
        Msg::OpenSession { id: 2, n_atoms: st.n_atoms as u64 },
        Msg::Solve { id: 3, ens: planted(20, 1) }, // duplicate: cache hit path
        Msg::GetStats,
        Msg::PushAtoms { id: 4, session, delta: st.push_ensemble(0) },
        Msg::GetMetrics,
        Msg::PushAtoms { id: 5, session, delta: st.push_ensemble(1) },
        Msg::Solve { id: 6, ens: planted(28, 3) },
        Msg::SealSession { id: 7, session },
    ];
    let mut frames: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut f = Vec::new();
            write_frame(&mut f, &encode_msg(m)).expect("vec write");
            f
        })
        .collect();
    // an undecodable payload (bad tag): Malformed, connection survives
    let mut bad = Vec::new();
    write_frame(&mut bad, &[0x7f, 9, 9, 9]).expect("vec write");
    frames.push(bad);
    frames
}

/// Sends every frame and collects the decoded replies, with `chunked`
/// controlling delivery: whole frames per write, or 1–3 bytes per write
/// with periodic pauses so the server demonstrably wakes up mid-frame.
fn run(server: &Server, session: u64, chunked: Option<&mut StdRng>) -> Vec<Msg> {
    let frames = request_mix(session);
    let conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = conn;
    let mut replies = Vec::new();
    match chunked {
        None => {
            for f in &frames {
                writer.write_all(f).expect("write frame");
            }
        }
        Some(rng) => {
            let all: Vec<u8> = frames.concat();
            let mut at = 0;
            let mut writes = 0u32;
            while at < all.len() {
                let take = rng.random_range(1usize..=3).min(all.len() - at);
                writer.write_all(&all[at..at + take]).expect("dribble");
                at += take;
                writes += 1;
                // occasional pauses force the bytes onto the wire in
                // separate segments (nodelay) and the server through
                // genuinely partial reads
                if writes.is_multiple_of(40) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }
    for _ in 0..frames.len() {
        let payload =
            read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("one reply per frame");
        replies.push(decode_msg(&payload).expect("decodable reply"));
    }
    replies
}

/// Replies to the deterministic mix must match between chunked and whole
/// delivery: byte-identical for everything except the live stats/metrics
/// snapshots, which must still agree in kind.
fn assert_equivalent(whole: &[Msg], dribbled: &[Msg]) {
    assert_eq!(whole.len(), dribbled.len());
    for (i, (a, b)) in whole.iter().zip(dribbled).enumerate() {
        match (a, b) {
            (Msg::Stats { .. }, Msg::Stats { .. }) => {}
            (Msg::Metrics { .. }, Msg::Metrics { .. }) => {}
            _ => assert_eq!(
                encode_msg(a),
                encode_msg(b),
                "reply {i} differs between whole-frame and dribbled delivery: {a:?} vs {b:?}"
            ),
        }
    }
}

/// `session` is the handle the server's first `OpenSession` hands out:
/// `1·shards + 0` under the public-id interleaving (engine-local ids
/// start at 1). A fresh server per run keeps the handle, the cache state
/// and every reply deterministic.
fn dribble_fuzz(mode: &[&str], session: u64) {
    let whole = run(&Server::start(mode), session, None);
    // sanity: the mix exercised real verdicts (the open/push/seal
    // replies are SessionVerdicts), not just errors
    assert!(whole.iter().any(|m| matches!(m, Msg::Verdict { .. })));
    assert!(whole
        .iter()
        .any(|m| matches!(m, Msg::SessionVerdict { verdict: c1p_matrix::io::WireVerdict::Accept { order }, .. } if !order.is_empty())));
    assert!(whole.iter().any(|m| matches!(m, Msg::Error { .. })));
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(0xD21B_B1E0 ^ seed);
        let dribbled = run(&Server::start(mode), session, Some(&mut rng));
        assert_equivalent(&whole, &dribbled);
    }
}

#[test]
fn dribbled_frames_reassemble_identically_legacy() {
    dribble_fuzz(&[], 1);
}

#[test]
fn dribbled_frames_reassemble_identically_event_loop() {
    dribble_fuzz(&["--shards", "2"], 2);
}

fn truncated_prefix(mode: &[&str]) {
    let server = Server::start(mode);
    // a connection that dies two bytes into its length prefix must not
    // wedge the server or leak a reply; the next connection works fine
    {
        let mut conn = server.connect();
        conn.write_all(&[0x10, 0x00]).expect("partial prefix");
        // EOF mid-prefix (drop) — server side sees a truncated frame
    }
    // and one that dies mid-payload
    {
        let mut conn = server.connect();
        let mut f = Vec::new();
        write_frame(&mut f, &encode_msg(&Msg::GetStats)).expect("vec write");
        conn.write_all(&f[..f.len() - 1]).expect("partial body");
    }
    let conn = server.connect();
    let mut reader = BufReader::new(conn.try_clone().expect("clone"));
    let mut writer = conn;
    let mut f = Vec::new();
    write_frame(&mut f, &encode_msg(&Msg::GetStats)).expect("vec write");
    writer.write_all(&f).expect("write");
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("reply");
    assert!(
        matches!(decode_msg(&payload), Ok(Msg::Stats { .. })),
        "server must stay healthy after truncated peers"
    );
    // solve still works end to end too
    let ens = Ensemble::from_columns(6, vec![vec![0, 1], vec![1, 2]]).unwrap();
    let mut f = Vec::new();
    write_frame(&mut f, &encode_msg(&Msg::Solve { id: 9, ens })).expect("vec write");
    writer.write_all(&f).expect("write");
    let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("reply");
    assert!(matches!(decode_msg(&payload), Ok(Msg::Verdict { id: 9, .. })));
}

#[test]
fn truncated_length_prefix_never_wedges_legacy() {
    truncated_prefix(&[]);
}

#[test]
fn truncated_length_prefix_never_wedges_event_loop() {
    truncated_prefix(&["--shards", "2"]);
}

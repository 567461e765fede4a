//! The sharded server over real TCP: every reply byte-identical to the
//! one an in-process engine computes; sessions spread across shards
//! without changing a single verdict; pipelined requests answered
//! strictly in order; durability counters visible in the metrics dump.

use c1p_engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
use c1p_engine::{Engine, EngineConfig};
use c1p_matrix::generate::{append_stream, mixed_schedule, AppendStream, MixedSchedule};
use c1p_matrix::io::WireVerdict;
use c1p_matrix::Ensemble;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
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
            "c1pd-elserve-{}-{}.port",
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

/// Runs the schedule through one server, returning the raw encoded reply
/// payload per request — the unit of the bit-identical comparison.
fn run_schedule(server: &Server, schedule: &[Ensemble]) -> Vec<Vec<u8>> {
    let conn = server.connect();
    let mut writer = BufWriter::new(conn.try_clone().expect("clone"));
    let mut reader = BufReader::new(conn);
    schedule
        .iter()
        .enumerate()
        .map(|(i, ens)| {
            let req = Msg::Solve { id: i as u64, ens: ens.clone() };
            write_frame(&mut writer, &encode_msg(&req)).expect("write");
            writer.flush().expect("flush");
            read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("reply")
        })
        .collect()
}

/// The oracle is one in-process engine answering the same schedule: a
/// 3-shard server splits the cache and routes duplicates by canonical
/// key, and none of that may change a byte of any reply.
#[test]
fn event_loop_verdicts_are_bit_identical_to_legacy() {
    let schedule = mixed_schedule(MixedSchedule {
        requests: 60,
        seed: 41,
        dup_every: 3,
        reject_every: 4,
        n_lo: 24,
        n_hi: 72,
    });
    let sharded = Server::start(&["--shards", "3"]);
    let served = run_schedule(&sharded, &schedule);
    let engine = Engine::new(EngineConfig { threads: 1, ..EngineConfig::default() });
    assert_eq!(served.len(), schedule.len());
    for (i, (ens, got)) in schedule.iter().zip(&served).enumerate() {
        let id = i as u64;
        let reply = match engine.solve(ens) {
            Ok(verdict) => Msg::Verdict { id, verdict: verdict.to_wire() },
            Err(e) => c1p_net::engine_error(id, e),
        };
        assert!(matches!(reply, Msg::Verdict { .. }), "request {i}: {reply:?}");
        assert_eq!(got, &encode_msg(&reply), "request {i}: served and in-process replies differ");
    }
}

#[test]
fn pipelined_requests_come_back_in_request_order() {
    let server = Server::start(&["--shards", "4"]);
    let schedule = mixed_schedule(MixedSchedule {
        requests: 48,
        seed: 7,
        dup_every: 5,
        reject_every: 3,
        n_lo: 24,
        n_hi: 64,
    });
    let conn = server.connect();
    // write every frame before reading anything: the shards will finish
    // out of order, the connection must not
    let mut writer = BufWriter::new(conn.try_clone().expect("clone"));
    for (i, ens) in schedule.iter().enumerate() {
        let req = Msg::Solve { id: i as u64, ens: ens.clone() };
        write_frame(&mut writer, &encode_msg(&req)).expect("write");
    }
    writer.flush().expect("flush");
    let mut reader = BufReader::new(conn);
    for i in 0..schedule.len() {
        let payload = read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("reply");
        match decode_msg(&payload).expect("decodable") {
            Msg::Verdict { id, .. } => assert_eq!(id, i as u64, "reply out of request order"),
            other => panic!("expected a Verdict for request {i}, got {other:?}"),
        }
    }
}

#[test]
fn sessions_spread_across_shards_and_seal_correctly() {
    let server = Server::start(&["--shards", "3"]);
    let conn = server.connect();
    // more sessions than shards: round-robin opens must hand out distinct
    // public handles that route back to their owning shard on every push
    let streams: Vec<AppendStream> = (0..6).map(|s| append_stream(48, 3, 4, 1000 + s)).collect();
    let mut handles = Vec::new();
    for (s, st) in streams.iter().enumerate() {
        match rpc(&conn, &Msg::OpenSession { id: s as u64, n_atoms: st.n_atoms as u64 }) {
            Msg::SessionVerdict { id, session, .. } => {
                assert_eq!(id, s as u64);
                handles.push(session);
            }
            other => panic!("open {s}: {other:?}"),
        }
    }
    let distinct: std::collections::HashSet<u64> = handles.iter().copied().collect();
    assert_eq!(distinct.len(), handles.len(), "public session handles must be collision-free");

    // interleave pushes round-robin across all sessions
    let max_pushes = streams.iter().map(|s| s.pushes.len()).max().unwrap();
    for p in 0..max_pushes {
        for (s, st) in streams.iter().enumerate() {
            if p >= st.pushes.len() {
                continue;
            }
            let msg = Msg::PushAtoms {
                id: (100 + p * 10 + s) as u64,
                session: handles[s],
                delta: st.push_ensemble(p),
            };
            match rpc(&conn, &msg) {
                Msg::SessionVerdict { verdict: WireVerdict::Accept { .. }, .. } => {}
                other => panic!("push {p} of stream {s}: {other:?}"),
            }
        }
    }
    // seal each and check the order against an in-process one-shot solve
    for (s, st) in streams.iter().enumerate() {
        let reply = rpc(&conn, &Msg::SealSession { id: (900 + s) as u64, session: handles[s] });
        let order = match reply {
            Msg::SessionVerdict { verdict: WireVerdict::Accept { order }, .. } => order,
            other => panic!("seal {s}: {other:?}"),
        };
        let expected = c1p_core::solve(&st.final_ensemble()).expect("append streams are C1P");
        assert_eq!(order, expected, "stream {s}: sealed order differs from one-shot solve");
    }
}

#[test]
fn metrics_dump_carries_durability_counters() {
    let wal = std::env::temp_dir().join(format!(
        "c1pd-elserve-wal-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&wal);
    std::fs::create_dir_all(&wal).expect("wal dir");
    let wal_s: PathBuf = wal.clone();
    let server =
        Server::start(&["--shards", "2", "--wal-dir", wal_s.to_str().expect("utf-8 temp dir")]);
    let conn = server.connect();
    // one durable session push per shard: WAL appends and fsyncs happen
    let st = append_stream(32, 2, 3, 9);
    for s in 0..2u64 {
        let session = match rpc(&conn, &Msg::OpenSession { id: s, n_atoms: st.n_atoms as u64 }) {
            Msg::SessionVerdict { session, .. } => session,
            other => panic!("open: {other:?}"),
        };
        match rpc(&conn, &Msg::PushAtoms { id: 10 + s, session, delta: st.push_ensemble(0) }) {
            Msg::SessionVerdict { .. } => {}
            other => panic!("push: {other:?}"),
        }
    }
    let dump = match rpc(&conn, &Msg::GetMetrics) {
        Msg::Metrics { text } => text,
        other => panic!("expected a Metrics frame, got {other:?}"),
    };
    // the PR 6 durability counters must be visible — and live — in the
    // text dump, summed across shards
    for series in ["c1pd_wal_appends_total", "c1pd_wal_fsyncs_total", "c1pd_session_pushes_total"] {
        let v = c1p_net::metrics::scrape(&dump, series)
            .unwrap_or_else(|| panic!("{series} missing from the dump"));
        assert!(v > 0.0, "{series} should be nonzero after durable pushes, got {v}");
    }
    for series in ["c1pd_quarantined_wals_total", "c1pd_recovered_sessions_total"] {
        assert_eq!(
            c1p_net::metrics::scrape(&dump, series),
            Some(0.0),
            "{series} must render (as zero) on a healthy first boot"
        );
    }
    // per-shard series carry the shard label for every shard
    assert!(dump.contains("c1pd_shard_jobs_total{shard=\"0\"}"));
    assert!(dump.contains("c1pd_shard_jobs_total{shard=\"1\"}"));
    drop(server);
    let _ = std::fs::remove_dir_all(&wal);
}

#[test]
fn get_stats_sums_engine_counters_across_shards() {
    let server = Server::start(&["--shards", "3"]);
    let conn = server.connect();
    let schedule = mixed_schedule(MixedSchedule {
        requests: 24,
        seed: 3,
        dup_every: 2,
        reject_every: 5,
        n_lo: 16,
        n_hi: 48,
    });
    for (i, ens) in schedule.iter().enumerate() {
        match rpc(&conn, &Msg::Solve { id: i as u64, ens: ens.clone() }) {
            Msg::Verdict { .. } => {}
            other => panic!("solve {i}: {other:?}"),
        }
    }
    let json = match rpc(&conn, &Msg::GetStats) {
        Msg::Stats { json } => json,
        other => panic!("expected Stats, got {other:?}"),
    };
    // 24 solves hit *some* shard each; the summed requests counter must
    // see all of them even though no single shard did
    let requests = json
        .split("\"requests\":")
        .nth(1)
        .and_then(|s| s.trim_start().split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse::<u64>().ok())
        .expect("requests counter in stats json");
    assert_eq!(requests, 24, "summed stats must count every request across shards");
}

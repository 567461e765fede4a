//! Trace semantics over real TCP: a live `c1pd` with sampling on must
//! hand back, via `GetTraces`, a complete span tree for a solve —
//! decode → admission → queue → mailbox → cache → solve (with every
//! solver phase laid end-to-end inside it) → flush — with monotone,
//! non-overlapping children that sum to no more than the root. And the
//! *structure* of that trace (trace id, kind, span names, parents,
//! order) must be byte-identical between a 1-shard and a 2-shard server
//! for the same seeded request, even though physical timings and the
//! owning shard differ (the cross-shard-count contract in DESIGN.md
//! §13). The `_legacy` test runs the default 1-shard server; its name is
//! kept from the thread-per-connection server it used to cover.

use c1p_engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
use c1p_matrix::io::fig2_matrix;
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

const EVENT_LOOP: &[&str] = &["--shards", "2"];

/// Sampling on for every frame, fixed seed so trace ids are
/// reproducible across shard counts.
const TRACING: &[&str] = &["--trace-sample", "1", "--trace-seed", "7"];

impl Server {
    fn start(mode: &[&str], extra_args: &[&str]) -> Server {
        let port_file = std::env::temp_dir().join(format!(
            "c1pd-trace-{}-{}.port",
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

/// A span parsed back out of a rendered JSONL trace line.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    parent: String,
    start_us: u64,
    end_us: u64,
}

/// Minimal field extraction from the fixed JSONL the tracer renders —
/// the format is ours end to end, so no general JSON parser is needed.
fn field(key: &str, from: &str) -> Option<String> {
    let at = from.find(&format!("\"{key}\":"))?;
    let rest = &from[at + key.len() + 3..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}'])?;
    Some(rest[..end].to_string())
}

fn spans_of(line: &str) -> Vec<Span> {
    line.split("{\"name\":\"")
        .skip(1)
        .map(|chunk| {
            let name = chunk[..chunk.find('"').expect("span name")].to_string();
            Span {
                name,
                parent: field("parent", chunk).expect("span parent"),
                start_us: field("start_us", chunk).expect("span start").parse().expect("u64"),
                end_us: field("end_us", chunk).expect("span end").parse().expect("u64"),
            }
        })
        .collect()
}

/// Runs one seeded solve against a fresh server and returns the rendered
/// JSONL line of its trace.
fn solve_trace_line(mode: &[&str]) -> String {
    let server = Server::start(mode, TRACING);
    let conn = server.connect();
    let reply = rpc(&conn, &Msg::Solve { id: 11, ens: fig2_matrix() });
    assert!(matches!(reply, Msg::Verdict { id: 11, .. }), "solve must succeed, got {reply:?}");
    let jsonl = match rpc(&conn, &Msg::GetTraces) {
        Msg::Traces { jsonl } => jsonl,
        other => panic!("expected Traces, got {other:?}"),
    };
    jsonl
        .lines()
        .find(|l| l.contains("\"kind\":\"solve\""))
        .expect("the sampled solve must be retained")
        .to_string()
}

/// The complete lifecycle for a solve: every span the pipeline promises,
/// with a valid tree shape — monotone spans inside their parents, the
/// solver phases non-overlapping and summing to at most the solve
/// span, everything bounded by the root.
fn solve_span_tree_is_complete_and_wellformed(mode: &[&str]) {
    let line = solve_trace_line(mode);
    let total_us: u64 = field("total_us", &line).expect("total_us").parse().expect("u64");
    let spans = spans_of(&line);
    let get = |name: &str| -> &Span {
        spans.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("missing span {name}"))
    };

    // every promised lifecycle stage is present, root first
    assert_eq!(spans[0].name, "request", "root span leads the line");
    assert_eq!(spans[0].parent, "null");
    for name in ["decode", "admission", "queue", "mailbox", "cache", "solve", "flush"] {
        assert_eq!(get(name).parent, "request", "{name} parents to the root");
    }
    let phases: Vec<&Span> = spans.iter().filter(|s| s.name.starts_with("solve/")).collect();
    assert_eq!(
        phases.len(),
        c1p_core::stats::PHASE_NAMES.len(),
        "every solver phase reported: {line}"
    );
    for p in &phases {
        assert_eq!(p.parent, "solve", "{} parents to the solve span", p.name);
    }

    // tree shape: monotone spans, children inside parents, root == total
    let root = get("request");
    assert_eq!((root.start_us, root.end_us), (0, total_us));
    for s in &spans {
        assert!(s.start_us <= s.end_us, "span {} runs backwards: {line}", s.name);
        assert!(s.end_us <= total_us, "span {} escapes the root: {line}", s.name);
    }
    let solve = get("solve").clone();
    let mut cursor = solve.start_us;
    let mut phase_sum = 0;
    for p in &phases {
        assert!(p.start_us >= cursor, "phase {} overlaps its predecessor: {line}", p.name);
        assert!(p.end_us <= solve.end_us, "phase {} escapes the solve span: {line}", p.name);
        cursor = p.end_us;
        phase_sum += p.end_us - p.start_us;
    }
    assert!(phase_sum <= solve.end_us - solve.start_us, "phases sum past their parent: {line}");

    // the lifecycle is physically sequential: each stage starts no
    // earlier than the one before it
    let mut last = 0;
    for name in ["decode", "admission", "queue", "mailbox", "cache", "solve", "flush"] {
        let s = get(name);
        assert!(s.start_us >= last, "{name} starts before its predecessor: {line}");
        last = s.start_us;
    }
}

#[test]
fn solve_span_tree_legacy() {
    solve_span_tree_is_complete_and_wellformed(&[]);
}

#[test]
fn solve_span_tree_event_loop() {
    solve_span_tree_is_complete_and_wellformed(EVENT_LOOP);
}

/// The cross-shard-count contract: the same seeded request produces the
/// same trace id (ids are content-derived) and the same structural
/// projection — span names, parents, order — at 1 and 2 shards, byte for
/// byte.
#[test]
fn trace_structure_is_stable_across_modes() {
    let one = solve_trace_line(&[]);
    let two = solve_trace_line(EVENT_LOOP);
    let a = c1p_net::trace::structure(&one).expect("1-shard line projects");
    let b = c1p_net::trace::structure(&two).expect("2-shard line projects");
    assert_eq!(a, b, "1 shard:\n{one}\n2 shards:\n{two}");
}

/// Exemplars rendered into the metrics text must point at trace ids the
/// server actually retained — over TCP, not just in the unit harness.
#[test]
fn metrics_exemplars_reference_retained_traces() {
    let server = Server::start(EVENT_LOOP, TRACING);
    let conn = server.connect();
    assert!(matches!(
        rpc(&conn, &Msg::Solve { id: 3, ens: fig2_matrix() }),
        Msg::Verdict { id: 3, .. }
    ));
    let text = match rpc(&conn, &Msg::GetMetrics) {
        Msg::Metrics { text } => text,
        other => panic!("expected Metrics, got {other:?}"),
    };
    let jsonl = match rpc(&conn, &Msg::GetTraces) {
        Msg::Traces { jsonl } => jsonl,
        other => panic!("expected Traces, got {other:?}"),
    };
    let retained: Vec<String> = jsonl.lines().filter_map(|l| field("trace_id", l)).collect();
    assert!(!retained.is_empty(), "sampling at 1-in-1 must retain traces");
    let mut exemplars = 0;
    for line in text.lines() {
        if let Some(at) = line.find("trace_id=\"") {
            let rest = &line[at + 10..];
            let tid = &rest[..rest.find('"').expect("closing quote")];
            assert!(retained.iter().any(|r| r == tid), "exemplar {tid} points at a dropped trace");
            exemplars += 1;
        }
    }
    assert!(exemplars > 0, "latency histogram must carry exemplars after a solve");
}

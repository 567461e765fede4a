//! Driving an unmodified `c1pd`: spawning it on an ephemeral loopback
//! port, detecting readiness through its port file and a `Ping`, killing
//! and reaping it on every exit path, and a blocking client connection
//! over the `c1p::engine::proto` frames.

use crate::report::{json_str, json_u64, parse_flat_json, Fail};
use c1p::engine::proto::{decode_msg, encode_msg, read_frame, write_frame, Msg};
use std::collections::BTreeMap;
use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Largest reply frame accepted (a `GetTraces` dump of a whole run).
const MAX_REPLY: usize = 1 << 30;
/// How long `c1pd` may take to write its port file and answer a `Ping`.
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long any reply may take by default. A `GetTraces` dump of a whole
/// run and a boot-time WAL replay stay far below it; it bounds a run in
/// which `c1pd` stops answering.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

static SPAWNS: AtomicU64 = AtomicU64::new(0);

/// A running `c1pd`, killed with SIGKILL and reaped when dropped.
pub struct Server {
    child: Child,
    port: u16,
    log: PathBuf,
}

impl Server {
    /// Spawns `bin --addr 127.0.0.1:0 --port-file <tmp>/… <flags>` and
    /// returns once the port file names the bound port. Recovery (with
    /// `--wal-dir`) may still be running; [`Server::ready`] waits for it.
    pub fn spawn(bin: &Path, tmp: &Path, flags: &[&str]) -> Server {
        let n = SPAWNS.fetch_add(1, Ordering::Relaxed);
        let port_file = tmp.join(format!("c1pd-{n}.port"));
        let log = tmp.join(format!("c1pd-{n}.log"));
        let mut cmd = Command::new(bin);
        cmd.args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log).expect("c1pd log file"))
            // a panic backtrace would load the binary's debug info and
            // inflate the peak RSS; the panic message is logged either way
            .env_remove("RUST_BACKTRACE")
            .env_remove("RUST_LIB_BACKTRACE");
        die_with_parent(&mut cmd);
        let child = cmd.spawn().unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut s = Server { child, port: 0, log };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(port) = text.strip_suffix('\n').and_then(|p| p.parse().ok()) {
                    s.port = port;
                    return s;
                }
            }
            s.assert_alive();
            assert!(Instant::now() < deadline, "c1pd wrote no port file in {READY_TIMEOUT:?}");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Connects and exchanges a `Ping`: the server is accepting and its
    /// engine is built (boot-time WAL recovery included).
    pub fn ready(&mut self) -> Conn {
        let mut c = self.connect();
        match c.call(&Msg::Ping { id: 1 }) {
            Ok(Msg::Pong { id: 1, .. }) => c,
            other => panic!("c1pd answered Ping with {other:?}; log: {}", self.log_tail()),
        }
    }

    pub fn port(&self) -> u16 {
        self.port
    }

    pub fn connect(&mut self) -> Conn {
        Conn::connect(self.port)
            .unwrap_or_else(|e| panic!("cannot connect to c1pd: {e}; log: {}", self.log_tail()))
    }

    /// Peak resident set of the server process so far, in MB.
    pub fn rss_peak_mb(&self) -> f64 {
        crate::report::vm_hwm_mb(&self.child.id().to_string())
    }

    /// `kill -9`, then reap.
    pub fn crash(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn assert_alive(&mut self) {
        if let Ok(Some(status)) = self.child.try_wait() {
            panic!("c1pd exited early ({status}); log: {}", self.log_tail());
        }
    }

    fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        text.lines().rev().take(5).collect::<Vec<_>>().join(" | ")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Prints every panic recorded in the server logs under `tmp` to stderr.
pub fn print_logs(tmp: &Path) {
    let Ok(dir) = std::fs::read_dir(tmp) else { return };
    let mut logs: Vec<PathBuf> = dir
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "log"))
        .collect();
    logs.sort();
    for log in logs {
        let text = std::fs::read_to_string(&log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        // a panic's message is the line after "panicked at"
        let panics = lines.iter().enumerate().filter(|(_, l)| l.contains("panicked at"));
        for (i, _) in panics {
            for line in &lines[i..(i + 2).min(lines.len())] {
                eprintln!("{}: {line}", log.display());
            }
        }
    }
}

/// Has the kernel SIGKILL the child if this process dies first, so a
/// benchmark killed from outside leaves no server behind. Servers are
/// spawned from the main thread only: the signal follows the spawning
/// thread's exit.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
    }
    const PR_SET_PDEATHSIG: std::os::raw::c_int = 1;
    const SIGKILL: std::os::raw::c_ulong = 9;
    // SAFETY: the closure runs between fork and exec and makes a single
    // async-signal-safe system call, allocating nothing.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

/// One client connection; every request waits for its reply.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: BufWriter<TcpStream>,
}

impl Conn {
    pub fn connect(port: u16) -> io::Result<Conn> {
        let s = TcpStream::connect(("127.0.0.1", port))?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { r: BufReader::new(s.try_clone()?), w: BufWriter::new(s) })
    }

    /// Replaces the default reply timeout; a reply later than `d` fails
    /// its request.
    pub fn set_reply_timeout(&mut self, d: Duration) -> io::Result<()> {
        self.r.get_ref().set_read_timeout(Some(d))
    }

    /// Sends one encoded frame payload.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.w, payload)?;
        self.w.flush()
    }

    /// Receives one frame payload; a closed connection is an error.
    pub fn recv(&mut self) -> io::Result<Vec<u8>> {
        read_frame(&mut self.r, MAX_REPLY)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "c1pd closed the connection")
        })
    }

    pub fn call(&mut self, msg: &Msg) -> io::Result<Msg> {
        self.send(&encode_msg(msg))?;
        decode_msg(&self.recv()?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// The engine counters of a `GetStats` reply.
    pub fn stats(&mut self) -> Stats {
        match self.call(&Msg::GetStats) {
            Ok(Msg::Stats { json }) => parse_flat_json(&json),
            other => panic!("c1pd answered GetStats with {other:?}"),
        }
    }

    /// The retained traces of a `GetTraces` reply.
    pub fn traces(&mut self) -> Vec<Trace> {
        match self.call(&Msg::GetTraces) {
            Ok(Msg::Traces { jsonl }) => jsonl.lines().filter_map(Trace::parse).collect(),
            other => panic!("c1pd answered GetTraces with {other:?}"),
        }
    }
}

/// Classifies a reply to `what` that is not the expected one: an error
/// frame or a lost reply leaves the request unanswered; anything else is
/// a wrong answer.
pub fn unexpected(what: &str, reply: Result<Msg, String>) -> Fail {
    match reply {
        Ok(Msg::Error { code, message, .. }) => {
            Fail::Unanswered(format!("{what}: error frame {code:?}: {message}"))
        }
        Err(e) => Fail::Unanswered(format!("{what}: {e}")),
        Ok(other) => Fail::Wrong(format!("{what}: unexpected reply {other:?}")),
    }
}

/// Engine counters from a `GetStats` reply, by name.
pub type Stats = BTreeMap<String, f64>;

/// One retained request trace: its kind, total duration and spans.
#[derive(Debug)]
pub struct Trace {
    pub kind: String,
    /// The client's request id.
    pub id: u64,
    pub total_us: u64,
    /// `(name, start_us, end_us)`, excluding the root `request` span.
    pub spans: Vec<(String, u64, u64)>,
}

impl Trace {
    fn parse(line: &str) -> Option<Trace> {
        let spans = line
            .split("{\"name\":\"")
            .skip(2) // the header, then the root `request` span
            .map(|s| {
                Some((
                    s[..s.find('"')?].to_string(),
                    json_u64(s, "start_us")?,
                    json_u64(s, "end_us")?,
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Trace {
            kind: json_str(line, "kind")?.to_string(),
            id: json_u64(line, "id")?,
            total_us: json_u64(line, "total_us")?,
            spans,
        })
    }

    /// Duration of the first span called `name`, if any.
    pub fn span_us(&self, name: &str) -> Option<u64> {
        self.spans.iter().find(|s| s.0 == name).map(|s| s.2 - s.1)
    }

    /// The request span's self time: its duration minus the part of it
    /// that its direct children (every span outside `solve/`) cover.
    pub fn self_us(&self) -> u64 {
        let mut iv: Vec<(u64, u64)> =
            self.spans.iter().filter(|s| !s.0.starts_with("solve/")).map(|s| (s.1, s.2)).collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0, 0);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        self.total_us.saturating_sub(covered)
    }
}

//! The repository benchmark: three workloads over the `c1p` library and
//! the `c1pd` server, each run either untraced (end-to-end metrics) or
//! traced (per-layer metrics). `run.py` beside this package builds this
//! binary and `c1pd` from source and runs it; `BENCHMARK.json` at the
//! repository root records why each workload exists.
//!
//! ```text
//! perfbench --workload solve_large|serve_mixed|sessions_durable
//!           --seed N --seconds S --trace 0|1 --c1pd PATH
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed. Each run
//! does a fixed amount of work, sized from `--seconds` so that it takes
//! about that long on a 2-vCPU host; it does not stop on a timer, so that
//! peak memory and cache occupancy do not move when speed does. Every
//! reply is verified client-side. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod report;
mod serve_mixed;
mod server;
mod sessions_durable;
mod solve_large;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts allocations while [`COUNTING`] is set — in the traced run only,
/// so the untraced run pays one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` contract is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns its result and the
/// number of allocations made by every thread meanwhile.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

/// Command-line settings shared by every workload.
pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub c1pd: PathBuf,
    /// Scratch directory for port files, logs and WAL directories.
    pub tmp: PathBuf,
}

/// A scratch directory inside the working directory, removed on drop.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // the shared parent goes too once no other run is using it
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Host-wide CPU time `(stolen by the hypervisor, total)`, in ticks.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload solve_large|serve_mixed|sessions_durable \
         --seed N --seconds S --trace 0|1 --c1pd PATH"
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn num(args: &[String], name: &str) -> u64 {
    let v = flag(args, name).unwrap_or_else(|| usage(&format!("{name} is required")));
    v.parse().unwrap_or_else(|_| usage(&format!("{name} takes a whole number, got {v:?}")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(path) = flag(&args, "--probe") {
        // a fresh process timing its own start-up (see solve_large)
        solve_large::probe(Path::new(path));
        return;
    }
    let workload = flag(&args, "--workload").unwrap_or_else(|| usage("--workload is required"));
    let run: fn(&Args) -> report::Report = match workload {
        "solve_large" => solve_large::run,
        "serve_mixed" => serve_mixed::run,
        "sessions_durable" => sessions_durable::run,
        other => usage(&format!("unknown workload {other:?}")),
    };
    let trace = match num(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let c1pd = PathBuf::from(flag(&args, "--c1pd").unwrap_or_else(|| usage("--c1pd is required")));
    let tmp = std::env::current_dir()
        .expect("working directory")
        .join(".perfbench_tmp")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", tmp.display()));
    let cleanup = TmpDir(tmp.clone());
    let a = Args {
        seed: num(&args, "--seed"),
        seconds: num(&args, "--seconds").max(1),
        trace,
        c1pd,
        tmp,
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (steal0, total0) = cpu_ticks();
    let mut report = run(&a);
    let (steal1, total1) = cpu_ticks();
    let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    report.note(format!("host CPU time stolen by the hypervisor during the run: {steal_pct:.1}%"));
    println!("# workload {workload}, seed {}, nproc {threads}, traced {}", a.seed, a.trace);
    report.print();
    if report.failed() > 0 {
        server::print_logs(&a.tmp);
    }
    if !report.correct() {
        drop(cleanup); // `exit` runs no destructors
        std::process::exit(1);
    }
}

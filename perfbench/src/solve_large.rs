//! `solve_large`: one library caller in a closed loop, solving eight
//! fixed instances at n = 2^14 in turn with `c1p::solve_par_certified` on
//! the global pool (nproc threads): six planted accepts and two planted
//! rejects. The solver's phases, the Tutte decomposition and certificate
//! extraction do all the work; no network, cache or WAL code runs.

use crate::report::{mean, median, Fail, Measured, Report};
use crate::Args;
use c1p::cert::verify_witness;
use c1p::matrix::generate::{planted, planted_reject};
use c1p::matrix::io::{decode_ensemble, encode_ensemble};
use c1p::matrix::{verify_linear, Atom, Ensemble};
use c1p::CertifiedRejection;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

const N: usize = 1 << 14;
/// The instance cycle, `true` = planted accept: six accepts, two rejects.
const CYCLE: [bool; 8] = [true, true, true, false, true, true, true, false];
/// `planted(2^14, s)` seeds of the accepts. The set is fixed and `--seed`
/// only picks where in the cycle the measured loop starts: solve time
/// varies several-fold between instances, so eight seed-drawn instances
/// would make the run-to-run spread mostly a matter of which instances
/// were drawn. Seed 262 is the slowest of 40 seeds surveyed (its align
/// phase takes about 4x that of the others); it is in the set so the
/// tail of the align cost is always measured.
const ACCEPT_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 262];
/// `planted_reject(2^14, s)` seeds of the rejects.
const REJECT_SEEDS: [u64; 2] = [1, 2];
/// Solves per second on the reference host (2 vCPUs); sizes the work.
const NOMINAL_RATE: f64 = 5.3;
/// At least 13 cycles (104 solves), so the p90 has ten samples beyond it.
const MIN_CYCLES: usize = 13;
/// Fresh processes started per run to time start-up and restart.
const PROBES: usize = 3;
/// Exit code of a probe process whose solve fails verification.
const PROBE_WRONG: i32 = 3;

struct Instance {
    ens: Ensemble,
    accept: bool,
}

/// The cycle.
fn instances() -> Vec<Instance> {
    let mut accepts = ACCEPT_SEEDS.iter().map(|&s| Instance { ens: planted(N, s), accept: true });
    let mut rejects =
        REJECT_SEEDS.iter().map(|&s| Instance { ens: planted_reject(N, s).0, accept: false });
    CYCLE
        .iter()
        .map(|&a| if a { accepts.next() } else { rejects.next() }.expect("one seed per slot"))
        .collect()
}

/// Cycle positions in warm-up order: the first accept and the first
/// reject, then the rest.
fn warmup_order(insts: &[Instance]) -> Vec<usize> {
    let first = |accept: bool| insts.iter().position(|i| i.accept == accept).expect("both kinds");
    let warm = [first(true), first(false)];
    warm.into_iter().chain((0..insts.len()).filter(|k| !warm.contains(k))).collect()
}

type Outcome = Result<Vec<Atom>, CertifiedRejection>;

/// Client-side verification: an order must pass `verify_linear`, a
/// rejection's Tucker witness must pass `verify_witness`, and the verdict
/// must match the planted one.
fn verify(inst: &Instance, out: &Outcome) -> Result<(), String> {
    match (out, inst.accept) {
        (Ok(order), true) => {
            verify_linear(&inst.ens, order).map_err(|v| format!("order fails verify_linear: {v:?}"))
        }
        (Err(cert), false) => verify_witness(&inst.ens, &cert.witness)
            .map_err(|e| format!("witness fails verify_witness: {e:?}")),
        (Ok(_), false) => Err("a planted reject was accepted".into()),
        (Err(_), true) => Err("a planted accept was rejected".into()),
    }
}

/// The measured closed loop: `cycles` passes over the instance set from
/// position `start`. Returns the latencies (ms) and the seconds spent
/// inside solve calls.
fn measure(insts: &[Instance], start: usize, cycles: usize, r: &mut Report) -> (Vec<f64>, f64) {
    let mut lat = Vec::new();
    let mut busy = 0.0;
    for inst in insts.iter().cycle().skip(start).take(cycles * insts.len()) {
        let t = Instant::now();
        let out = c1p::solve_par_certified(std::hint::black_box(&inst.ens));
        let dt = t.elapsed().as_secs_f64();
        busy += dt;
        lat.push(dt * 1e3);
        r.op(verify(inst, &out).map_err(Fail::Wrong));
    }
    (lat, busy)
}

pub fn run(a: &Args) -> Report {
    let insts = instances();
    let start = (a.seed % CYCLE.len() as u64) as usize;
    let cycles =
        ((a.seconds as f64 * NOMINAL_RATE / CYCLE.len() as f64).round() as usize).max(MIN_CYCLES);
    let mut r = Report::default();
    let probes = (!a.trace).then(|| start_probes(a, &insts, &mut r));
    // this process's own warm-up, untimed: one accept and one reject
    for &k in &warmup_order(&insts)[..2] {
        r.op(verify(&insts[k], &c1p::solve_par_certified(&insts[k].ens)).map_err(Fail::Wrong));
    }
    let Some(probes) = probes else {
        traced(&insts, start, cycles.div_ceil(2), &mut r);
        return r;
    };
    let (lat, busy) = measure(&insts, start, cycles, &mut r);
    let mut measured = Measured::default();
    measured.add(lat.len(), busy, &lat);
    r.median_metric("setup_s", &probes.setup, "s");
    measured.report(&mut r);
    r.metric("rss_peak_mb", crate::report::vm_hwm_mb("self"), "MB");
    r.mean_metric("recovery_s", &probes.restart, "s");
    r
}

struct Probes {
    /// First program call to the end of warm-up, per fresh process.
    setup: Vec<f64>,
    /// Process start to the last verified answer, per fresh process.
    restart: Vec<f64>,
}

/// Starts [`PROBES`] fresh processes, one after the other. Each plays a
/// restarted caller: it loads from disk the cycle a killed caller was
/// solving and answers all of it. The child times its first program call
/// to the end of its warm-up (`setup_s`); the parent times process start
/// to the last verified answer (`recovery_s`).
fn start_probes(a: &Args, insts: &[Instance], r: &mut Report) -> Probes {
    let dir = a.tmp.join("probe");
    std::fs::create_dir_all(&dir).expect("probe directory");
    for (i, k) in warmup_order(insts).into_iter().enumerate() {
        let kind = if insts[k].accept { "accept" } else { "reject" };
        std::fs::write(dir.join(format!("{i}-{kind}")), encode_ensemble(&insts[k].ens))
            .expect("write probe input");
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut p = Probes { setup: Vec::new(), restart: Vec::new() };
    for _ in 0..PROBES {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .arg("--probe")
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn probe process");
        let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        let mut next = || lines.next().and_then(Result::ok).unwrap_or_default();
        let setup = next();
        let answered = next();
        let restart = t.elapsed().as_secs_f64();
        let status = child.wait().expect("wait for probe process");
        let ok = status.success() && answered == "answered";
        match setup.strip_prefix("setup ").and_then(|s| s.parse::<f64>().ok()) {
            Some(s) if ok => {
                p.setup.push(s);
                p.restart.push(restart);
                r.op(Ok(()));
            }
            _ => {
                let why = format!("probe process failed ({status}): {setup:?} {answered:?}");
                let wrong = status.code() == Some(PROBE_WRONG);
                r.op(Err(if wrong { Fail::Wrong(why) } else { Fail::Unanswered(why) }));
            }
        }
    }
    if p.setup.is_empty() {
        r.wrong("no probe process finished".into());
        p = Probes { setup: vec![0.0], restart: vec![0.0] };
    }
    p
}

/// The `--probe DIR` child: solves and verifies every instance file in
/// `DIR` in name order, printing `setup <seconds>` (first solve call to
/// the end of the second) and then `answered` after the last.
pub fn probe(dir: &Path) {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("probe directory")
        .map(|e| e.expect("probe directory entry").path())
        .collect();
    files.sort();
    let insts: Vec<Instance> = files
        .iter()
        .map(|f| Instance {
            ens: decode_ensemble(&std::fs::read(f).expect("probe input")).expect("probe decode"),
            accept: f.to_string_lossy().ends_with("accept"),
        })
        .collect();
    let t = Instant::now();
    for (i, inst) in insts.iter().enumerate() {
        if let Err(why) = verify(inst, &c1p::solve_par_certified(&inst.ens)) {
            eprintln!("perfbench probe: {why}");
            std::process::exit(PROBE_WRONG);
        }
        if i == 1 {
            println!("setup {}", t.elapsed().as_secs_f64());
        }
    }
    println!("answered");
}

/// The traced run: an untraced pass, then the same work with spans
/// around `solve_par`, `certify_rejection` and the verifiers, solver
/// counters from `SolveStats`, and allocation counts.
fn traced(insts: &[Instance], start: usize, cycles: usize, r: &mut Report) {
    let (plain, _) = measure(insts, start, cycles, r);
    let names = c1p::core_alg::stats::PHASE_NAMES;
    let mut lat = Vec::new();
    let (mut solve_ms, mut certify_ms, mut linear_ms, mut witness_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut phase_ms = vec![Vec::new(); names.len()];
    let mut counts = [(); 6].map(|_| Vec::new());
    for inst in insts.iter().cycle().skip(start).take(cycles * insts.len()) {
        let ((out, stats, solve, certify), allocs) = crate::count_allocs(|| {
            let t = Instant::now();
            let (res, stats) = c1p::solve_par(std::hint::black_box(&inst.ens));
            let solve = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let out = res.map_err(|rej| c1p::certify_rejection(&inst.ens, rej));
            let certify = out.is_err().then(|| t.elapsed().as_secs_f64() * 1e3);
            (out, stats, solve, certify)
        });
        lat.push(solve + certify.unwrap_or(0.0));
        solve_ms.push(solve);
        certify_ms.extend(certify);
        for (v, ns) in phase_ms.iter_mut().zip(stats.phase_ns) {
            v.push(ns as f64 / 1e6);
        }
        let c = [
            stats.subproblems,
            stats.decompositions,
            stats.fast_merges,
            stats.bitmat_divides,
            stats.csr_divides,
            allocs as usize,
        ];
        for (v, x) in counts.iter_mut().zip(c) {
            v.push(x as f64);
        }
        let t = Instant::now();
        let verdict = verify(inst, &out);
        let dt = t.elapsed().as_secs_f64() * 1e3;
        if out.is_ok() { &mut linear_ms } else { &mut witness_ms }.push(dt);
        r.op(verdict.map_err(Fail::Wrong));
    }
    r.metric("core.solve_par_ms", mean(&solve_ms), "ms");
    for (name, v) in names.iter().zip(&phase_ms) {
        r.metric(&format!("core.phase.{name}_ms"), mean(v), "ms");
    }
    let count_names =
        ["subproblems", "decompositions", "fast_merges", "bitmat_divides", "csr_divides", "allocs"];
    for (name, v) in count_names.iter().zip(&counts) {
        r.metric(&format!("core.{name}"), mean(v), "count");
    }
    r.metric("cert.certify_ms", mean(&certify_ms), "ms");
    r.metric("matrix.verify_linear_ms", mean(&linear_ms), "ms");
    r.metric("cert.verify_witness_ms", mean(&witness_ms), "ms");
    let p50 = median(&plain);
    r.metric("trace.overhead_pct", (median(&lat) - p50) / p50 * 100.0, "%");
}

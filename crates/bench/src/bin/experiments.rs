//! The experiment driver: prints the table of every experiment E1–E13
//! and rewrites the `BENCH_*.json` records of E10–E13 (summarized in
//! README.md's "Experiments" section).
//!
//! ```text
//! cargo run --release -p c1p-bench --bin experiments -- all
//! cargo run --release -p c1p-bench --bin experiments -- e1 e3 e9
//! cargo run --release -p c1p-bench --bin experiments -- e5 --full   # genome scale
//! ```
//!
//! Unknown ids are rejected (exit status 2) before any experiment runs.

use c1p_bench::models::{annexstein_swaminathan, booth_lueker, chen_yesha, klein, Shape};
use c1p_bench::tables::Table;
use c1p_bench::workloads::{planted, planted_k};
use c1p_bench::{fmt_secs, median_time};
use c1p_core::cost::log2ceil;
use c1p_core::parallel::pool;
use c1p_core::Config;
use c1p_matrix::biology::CloneLibrary;
use c1p_matrix::noise;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Every experiment id, in run order for `all`.
const EXPERIMENTS: [&str; 13] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let mut picked: Vec<&str> =
        args.iter().map(String::as_str).filter(|&a| a != "--full").collect();
    // Check every id before running any: a typo must fail the run (and
    // any CI step around it) instead of silently running nothing.
    let unknown: Vec<&str> =
        picked.iter().copied().filter(|&a| a != "all" && !EXPERIMENTS.contains(&a)).collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment {} (known: {}, all; flag: --full)",
            unknown.join(" "),
            EXPERIMENTS.join(" ")
        );
        std::process::exit(2);
    }
    if picked.is_empty() || picked.contains(&"all") {
        picked = EXPERIMENTS.to_vec();
    }
    for e in picked {
        match e {
            "e1" => e1(),
            "e2" => e2(),
            "e3" => e3(),
            "e4" => e4(),
            "e5" => e5(full),
            "e6" => e6(),
            "e7" => e7(),
            "e8" => e8(),
            "e9" => e9(),
            "e10" => e10(),
            "e11" => e11(),
            "e12" => e12(),
            "e13" => e13(),
            other => unreachable!("experiment id {other} passed validation"),
        }
        println!();
    }
}

/// E1 — Theorem 9 (sequential): total time vs `p log p`.
fn e1() {
    println!("## E1 — sequential time is O(p log p) (Theorem 9)\n");
    let mut t = Table::new(&["n", "m", "p", "time", "t / (p·lg p) [ns]", "t(2n)/t(n)"]);
    let mut prev: Option<f64> = None;
    for k in 10..=16 {
        let n = 1usize << k;
        let ens = planted(n, 1);
        let p = ens.p();
        let (dt, _) = median_time(3, || c1p_core::solve(&ens).is_ok());
        let secs = dt.as_secs_f64();
        let norm = secs * 1e9 / (p as f64 * (p as f64).log2());
        let ratio = prev.map_or("-".to_string(), |pv| format!("{:.2}", secs / pv));
        prev = Some(secs);
        t.row(vec![
            n.to_string(),
            ens.n_columns().to_string(),
            p.to_string(),
            fmt_secs(dt),
            format!("{norm:.2}"),
            ratio,
        ]);
    }
    t.print();
    println!("\nThe normalized column should be ~flat (doubling n slightly-more-than-doubles t).");
}

/// E2 — Theorem 9 (parallel): modelled PRAM depth/work/processors.
fn e2() {
    println!("## E2 — modelled PRAM cost vs Theorem 9 (O(log² n) time, p·lglg n/lg n procs)\n");
    let mut t = Table::new(&[
        "n",
        "p",
        "depth",
        "depth/lg²n",
        "work",
        "procs=work/depth",
        "paper bound p·lglg/lg",
    ]);
    for k in [10usize, 12, 14, 16] {
        let n = 1 << k;
        let ens = planted(n, 2);
        let p = ens.p() as f64;
        let (res, stats) = c1p_core::parallel::solve_par(&ens);
        assert!(res.is_ok());
        let lg = log2ceil(n) as f64;
        let lglg = (log2ceil(log2ceil(n) as usize) as f64).max(1.0);
        let depth = stats.cost.depth as f64;
        let procs = stats.cost.work as f64 / depth.max(1.0);
        t.row(vec![
            n.to_string(),
            (p as u64).to_string(),
            (depth as u64).to_string(),
            format!("{:.2}", depth / (lg * lg)),
            stats.cost.work.to_string(),
            format!("{procs:.0}"),
            format!("{:.0}", p * lglg / lg),
        ]);
    }
    t.print();
    println!(
        "\ndepth/lg²n should stay bounded; implied processors should track the paper's bound."
    );
}

/// E3 — wall-clock self-relative speedup under rayon.
fn e3() {
    println!("## E3 — multicore speedup (rayon execution of the recursion tree)\n");
    let n = 1 << 16;
    let ens = planted(n, 3);
    println!("instance: n={n}, m={}, p={}\n", ens.n_columns(), ens.p());
    let mut t = Table::new(&["threads", "time", "speedup"]);
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let pool = pool(threads); // built outside the timed region
        let (dt, ok) =
            median_time(3, || pool.install(|| c1p_core::parallel::solve_par(&ens).0.is_ok()));
        assert!(ok);
        let secs = dt.as_secs_f64();
        let speedup = base.map_or(1.0, |b: f64| b / secs);
        if base.is_none() {
            base = Some(secs);
        }
        t.row(vec![threads.to_string(), fmt_secs(dt), format!("{speedup:.2}x")]);
    }
    t.print();
    let host = std::thread::available_parallelism().map_or(1, |v| v.get());
    println!(
        "\nSelf-relative speedup, physically capped by min(threads, {host} hardware threads).\n\
         Sibling recursion and the Case-2 component fan-out run on the work-stealing pool\n\
         (DESIGN.md §6); every step inside a node (divide, Tutte decompose, alignment\n\
         funnel, merge) is sequential, and the root's steps set the Amdahl ceiling."
    );
}

/// E4 — Section 1.3 comparison: modelled processors/work of prior PRAM
/// algorithms at our sizes.
fn e4() {
    println!("## E4 — work-efficiency vs prior parallel algorithms (modelled, Section 1.3)\n");
    let mut t =
        Table::new(&["n", "algorithm", "time bound", "processors", "work = p×t", "work vs ours"]);
    for &n in &[1024usize, 16_384, 262_144] {
        let s = Shape { n: n as f64, m: 2.0 * n as f64, p: 24.0 * n as f64 };
        let ours = annexstein_swaminathan(s, false);
        for (name, m) in [
            ("this paper", ours),
            ("Klein [13]", klein(s)),
            ("Chen–Yesha [7]", chen_yesha(s)),
            ("Booth–Lueker [6] (seq)", booth_lueker(s)),
        ] {
            t.row(vec![
                n.to_string(),
                name.to_string(),
                format!("{:.0}", m.time),
                format!("{:.2e}", m.processors),
                format!("{:.2e}", m.work()),
                format!("{:.1}x", m.work() / ours.work()),
            ]);
        }
    }
    t.print();
    println!(
        "\nThe paper's claim: sublinear processors ⇒ lowest work among the parallel solutions."
    );
}

/// E5 — physical mapping at the paper's cited genome scale (Section 1.1).
fn e5(full: bool) {
    println!("## E5 — physical mapping workload (Section 1.1 shapes)\n");
    let shapes: Vec<(usize, usize)> = if full {
        vec![(1_000, 2_000), (3_000, 6_000), (9_000, 18_000), (15_000, 25_000)]
    } else {
        vec![(1_000, 2_000), (3_000, 6_000), (9_000, 18_000)]
    };
    let mut t = Table::new(&["STSs", "clones", "p", "D&C", "PQ-tree", "parallel (all cores)"]);
    for (n_sts, n_clones) in shapes {
        let mut rng = SmallRng::seed_from_u64(n_sts as u64);
        let lib = CloneLibrary { n_sts, n_clones, mean_clone_span: 12, scramble: true };
        let (ens, _) = lib.sample(&mut rng);
        let (t_dc, ok1) = median_time(3, || c1p_core::solve(&ens).is_ok());
        let cols = ens.columns().to_vec();
        let (t_pq, ok2) = median_time(3, || c1p_pqtree::solve(ens.n_atoms(), &cols).is_some());
        let (t_par, ok3) = median_time(3, || c1p_core::parallel::solve_par(&ens).0.is_ok());
        assert!(ok1 && ok2 && ok3);
        t.row(vec![
            n_sts.to_string(),
            n_clones.to_string(),
            ens.p().to_string(),
            fmt_secs(t_dc),
            fmt_secs(t_pq),
            fmt_secs(t_par),
        ]);
    }
    t.print();
    println!("\n(--full adds the 15k×25k upper end of the paper's cited range.)");
}

/// E6 — error sensitivity: rejection rates under the Section 1.1 error
/// model.
fn e6() {
    println!("## E6 — error detection (Section 1.1: false ±, chimerism)\n");
    let n = 600;
    let trials = 40;
    let mut t = Table::new(&["errors injected", "false+", "false-", "chimeric"]);
    for count in [1usize, 2, 4, 8] {
        let mut rej = [0usize; 3];
        for trial in 0..trials {
            let ens = planted(n, 100 + trial as u64);
            let mut rng = SmallRng::seed_from_u64(trial as u64 * 31 + count as u64);
            let noisy = [
                noise::false_positives(&ens, count, &mut rng),
                noise::false_negatives(&ens, count, &mut rng),
                noise::chimerize(&ens, count, &mut rng),
            ];
            for (i, e) in noisy.iter().enumerate() {
                if c1p_core::solve(e).is_err() {
                    rej[i] += 1;
                }
            }
        }
        t.row(vec![
            count.to_string(),
            format!("{:.0}%", 100.0 * rej[0] as f64 / trials as f64),
            format!("{:.0}%", 100.0 * rej[1] as f64 / trials as f64),
            format!("{:.0}%", 100.0 * rej[2] as f64 / trials as f64),
        ]);
    }
    t.print();
    println!(
        "\nEach cell: % of corrupted libraries rejected (no consistent map). False positives\n\
         are detected almost always; deletions can keep the data consistent."
    );
}

/// E7 — the dense-instance processor refinement of Theorem 9.
fn e7() {
    println!("## E7 — density refinement: f = nm/p vs the p/lg n processor bound\n");
    let n = 1 << 12;
    let mut t = Table::new(&[
        "k (col size)",
        "f = n/k",
        "f ≤ lg n/lglg n?",
        "p",
        "modelled procs",
        "p/lg n",
        "p·lglg/lg n",
    ]);
    let lg = log2ceil(n) as f64;
    let lglg = (log2ceil(log2ceil(n) as usize) as f64).max(1.0);
    for k in [2usize, 32, 512, n / 3, n / 2] {
        let m = (4 * n / k).max(32);
        let ens = planted_k(n, m, k, 7);
        let p = ens.p() as f64;
        let f = ens.density_factor().unwrap_or(0.0);
        let (_, stats) = c1p_core::parallel::solve_par(&ens);
        let procs = stats.cost.work as f64 / (stats.cost.depth as f64).max(1.0);
        t.row(vec![
            k.to_string(),
            format!("{f:.0}"),
            (f <= lg / lglg).to_string(),
            (p as u64).to_string(),
            format!("{procs:.0}"),
            format!("{:.0}", p / lg),
            format!("{:.0}", p * lglg / lg),
        ]);
    }
    t.print();
    println!("\nDense instances (small f) fit the tighter p/lg n bound, as Theorem 9 refines.");
}

/// E8 — recursion structure (Section 5's O(log n) depth).
fn e8() {
    println!("## E8 — recursion structure of Path-Realization\n");
    let mut t = Table::new(&[
        "n",
        "max depth",
        "lg n",
        "subproblems",
        "case 1",
        "case 2",
        "decompositions",
        "members",
    ]);
    for k in [8usize, 10, 12, 14, 16] {
        let n = 1 << k;
        let ens = planted(n, 5);
        let (res, stats) = c1p_core::solve_with(&ens, &Config::default());
        assert!(res.is_ok());
        t.row(vec![
            n.to_string(),
            stats.max_depth.to_string(),
            k.to_string(),
            stats.subproblems.to_string(),
            stats.case1.to_string(),
            stats.case2.to_string(),
            stats.decompositions.to_string(),
            stats.members.to_string(),
        ]);
    }
    t.print();
    println!("\nmax depth should track lg n up to a constant (balanced Case-1/Case-2 divides).");
}

/// E9 — head-to-head against Booth–Lueker across sizes.
fn e9() {
    println!("## E9 — divide-and-conquer vs the Booth–Lueker baseline\n");
    let mut t = Table::new(&["n", "p", "D&C", "PQ-tree", "D&C / PQ"]);
    for k in [10usize, 12, 14, 16] {
        let n = 1 << k;
        let ens = planted(n, 9);
        let cols = ens.columns().to_vec();
        let (t_dc, _) = median_time(3, || c1p_core::solve(&ens).is_ok());
        let (t_pq, _) = median_time(3, || c1p_pqtree::solve(ens.n_atoms(), &cols).is_some());
        t.row(vec![
            n.to_string(),
            ens.p().to_string(),
            fmt_secs(t_dc),
            fmt_secs(t_pq),
            format!("{:.1}x", t_dc.as_secs_f64() / t_pq.as_secs_f64()),
        ]);
    }
    t.print();
    println!(
        "\nThe paper expects the sequential D&C to trail the linear-time baseline by a log\n\
         factor (O(p log p) vs O(p)); its value is the parallel structure (E2/E3)."
    );
}

/// E10 — machine-readable solver benchmarks: writes `BENCH_solve.json`
/// (ns/op per solver, for the divide step, and for the certify
/// pipeline: plain reject vs reject + Tucker-witness extraction vs the
/// independent witness check) so the perf trajectory across PRs stays
/// diffable. See DESIGN.md §6–§7.
fn e10() {
    use c1p_bench::workloads::planted_reject;
    use c1p_core::solver::prepare_split;
    use c1p_core::FlatCols;
    use std::fmt::Write as _;

    println!("## E10 — BENCH_solve.json (machine-readable solver timings)\n");
    let reps = 5;
    let mut entries: Vec<String> = Vec::new();
    for k in [10usize, 12, 14] {
        let n = 1 << k;
        let ens = planted(n, 1);
        let p = ens.p();
        let cols = ens.columns().to_vec();
        let (t_dc, _) = median_time(reps, || c1p_core::solve(&ens).is_ok());
        let (t_par, _) = median_time(reps, || c1p_core::parallel::solve_par(&ens).0.is_ok());
        let (t_pq, _) = median_time(reps, || c1p_pqtree::solve(n, &cols).is_some());
        // the divide step alone
        let flat = c1p_core::solver::SubProblem { n, cols: FlatCols::from_cols(&cols) };
        let a1: Vec<u32> = (0..(n / 2) as u32).collect();
        let (t_split_flat, _) = median_time(reps, || prepare_split(&flat, &a1).sub1.n);
        // the certify pipeline, median across all five Tucker families
        // (planted_reject cycles the family by seed), so the recorded cost
        // covers the parameterized families, not just constant-size M_IV
        let mut t_rejects = Vec::new();
        let mut t_certifies = Vec::new();
        let mut t_verifies = Vec::new();
        for seed in 1..=5u64 {
            let (bad, _) = planted_reject(n, seed);
            let (t, _) = median_time(3, || c1p_core::solve(&bad).is_err());
            t_rejects.push(t);
            let (t, _) = median_time(3, || {
                let rej = c1p_core::solve(&bad).unwrap_err();
                c1p_cert::extract_witness(&bad, &rej).unwrap().atom_rows.len()
            });
            t_certifies.push(t);
            let witness = {
                let rej = c1p_core::solve(&bad).unwrap_err();
                c1p_cert::extract_witness(&bad, &rej).unwrap()
            };
            let (t, _) = median_time(3, || c1p_cert::verify_witness(&bad, &witness).is_ok());
            t_verifies.push(t);
        }
        let family_median = |ts: &mut Vec<std::time::Duration>| {
            ts.sort_unstable();
            ts[ts.len() / 2]
        };
        let t_reject = family_median(&mut t_rejects);
        let t_certify = family_median(&mut t_certifies);
        let t_verify = family_median(&mut t_verifies);
        let mut e = String::new();
        write!(
            e,
            "  {{\"n\": {n}, \"m\": {}, \"p\": {p}, \"ns_per_op\": {{\
             \"dc\": {}, \"dc_parallel\": {}, \"pqtree\": {}, \"split_flat\": {}, \
             \"reject_plain\": {}, \"reject_certified\": {}, \"verify_witness\": {}}}}}",
            ens.n_columns(),
            t_dc.as_nanos(),
            t_par.as_nanos(),
            t_pq.as_nanos(),
            t_split_flat.as_nanos(),
            t_reject.as_nanos(),
            t_certify.as_nanos(),
            t_verify.as_nanos(),
        )
        .unwrap();
        println!(
            "n={n}: dc {} | dc_parallel {} | pqtree {} | split {}",
            fmt_secs(t_dc),
            fmt_secs(t_par),
            fmt_secs(t_pq),
            fmt_secs(t_split_flat),
        );
        println!(
            "        reject {} | reject+witness {} | verify_witness {}",
            fmt_secs(t_reject),
            fmt_secs(t_certify),
            fmt_secs(t_verify),
        );
        entries.push(e);
    }
    // Thread sweep: self-relative speedup of the parallel driver on the
    // work-stealing pool. Recorded
    // with the host's hardware thread count — self-relative speedup is
    // physically capped by min(threads, host_threads), so the numbers
    // are only comparable across hosts through that cap.
    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    let n = 1 << 14;
    let ens = planted(n, 1);
    let sweep = [1usize, 2, 4, 8];
    let mut dc_par_ns: Vec<(usize, u128)> = Vec::new();
    for &t in &sweep {
        let pool = pool(t); // pool construction outside the timed region
        let (dt, ok) =
            median_time(3, || pool.install(|| c1p_core::parallel::solve_par(&ens).0.is_ok()));
        assert!(ok);
        dc_par_ns.push((t, dt.as_nanos()));
    }
    let speedup_at = |v: &[(usize, u128)], t: usize| {
        v[0].1 as f64 / v.iter().find(|&&(tt, _)| tt == t).unwrap().1.max(1) as f64
    };
    let fmt_sweep = |v: &[(usize, u128)]| {
        v.iter().map(|(t, ns)| format!("\"t{t}\": {ns}")).collect::<Vec<_>>().join(", ")
    };
    let fmt_speedups = |v: &[(usize, u128)]| {
        v[1..]
            .iter()
            .map(|&(t, _)| format!("\"t{t}\": {:.3}", speedup_at(v, t)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("\nthread sweep (host has {host_threads} hardware thread(s)):");
    for &(t, ns) in &dc_par_ns {
        println!(
            "  dc_parallel n={n} threads={t}: {} ({:.2}x)",
            fmt_secs(std::time::Duration::from_nanos(ns as u64)),
            speedup_at(&dc_par_ns, t),
        );
    }
    let thread_sweep = format!(
        "{{\"host_threads\": {host_threads}, \
         \"note\": \"self-relative: t1 time / tN time, same binary and host; \
         physically capped by min(N, host_threads) — on a 1-core container the \
         honest ceiling is 1.0\", \
         \"dc_parallel_ns_at_16384\": {{{}}}, \
         \"dc_parallel_speedup\": {{{}}}}}",
        fmt_sweep(&dc_par_ns),
        fmt_speedups(&dc_par_ns),
    );
    // The whole-solver baseline measured on the seed's nested-vec
    // representation (same workload, same machine class) before the
    // flat-CSR rewrite landed; kept verbatim so the speedup claim stays
    // auditable after the naive solver itself is gone.
    let seed_baseline = "{\"commit\": \"pre-flat-CSR seed + manifests\", \
         \"dc_ns_at_16384\": 589322000, \"dc_pq_base_ns_at_16384\": 440531000, \
         \"dc_parallel_ns_at_16384\": 604725000, \"pqtree_ns_at_16384\": 180850000}";
    let json = format!(
        "{{\n\"workload\": \"planted(n, seed=1), m = 2n interval columns; \
         reject_*/verify use planted_reject(n, seeds 1-5: one per Tucker family)\",\n\
         \"note\": \"medians of {reps} reps (certify pipeline: 3 reps, then the \
         median across the five families); split_flat measures one top-level divide; \
         reject_certified = solve + Tucker-witness extraction, verify_witness = \
         the independent checker alone; thread_sweep records self-relative \
         dc_parallel speedups; \
         see DESIGN.md §6-§7\",\n\
         \"seed_nested_vec_baseline\": {seed_baseline},\n\
         \"thread_sweep\": {thread_sweep},\n\
         \"results\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_solve.json", &json).expect("write BENCH_solve.json");
    println!("\nwrote BENCH_solve.json");
}

/// Drives `schedule` through a live in-process event-loop server with
/// `shards` shards over loopback TCP and returns closed-loop requests/s.
/// `idle` extra connections are opened first and held silent for the
/// whole run; each costs the loop one pollfd per wakeup.
fn served_rps(shards: usize, conns: usize, idle: usize, schedule: &[c1p_matrix::Ensemble]) -> f64 {
    use c1p_engine::proto::{encode_msg, read_frame, write_frame, Msg, DEFAULT_MAX_FRAME};
    use c1p_net::event_loop::EventLoopOpts;
    use c1p_net::metrics::Metrics;
    use std::io::{BufReader, BufWriter, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let opts = EventLoopOpts {
        shards,
        max_conns: conns + idle + 8,
        drain: Duration::from_secs(5),
        ..EventLoopOpts::default()
    };
    let metrics = Arc::new(Metrics::new(shards));
    let server = std::thread::spawn(move || {
        c1p_net::event_loop::serve(listener, &opts, stop, &metrics).map(|_| ())
    });

    let idle_conns: Vec<TcpStream> =
        (0..idle).map(|_| TcpStream::connect(addr).expect("idle connect")).collect();
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for c in 0..conns {
            let share: Vec<&c1p_matrix::Ensemble> =
                schedule.iter().skip(c).step_by(conns).collect();
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream.set_nodelay(true).ok();
                let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
                let mut reader = BufReader::new(stream);
                for (i, ens) in share.iter().enumerate() {
                    let req = Msg::Solve { id: i as u64, ens: (*ens).clone() };
                    write_frame(&mut writer, &encode_msg(&req)).expect("write");
                    writer.flush().expect("flush");
                    read_frame(&mut reader, DEFAULT_MAX_FRAME).expect("read").expect("reply");
                }
            });
        }
    });
    let wall = t0.elapsed();
    drop(idle_conns);
    stop.store(true, Ordering::Release);
    server.join().expect("server thread").expect("server exits cleanly");
    schedule.len() as f64 / wall.as_secs_f64().max(1e-9)
}

/// E11 — machine-readable serving benchmarks: writes `BENCH_serve.json`
/// (engine throughput, closed-loop latency percentiles, cache hit rate,
/// cold-vs-hot speedup at n=2^12, a self-relative batch-size sweep, and
/// a live shard x connection sweep over loopback TCP, plus the 4-shard,
/// 4-connection cell again under 1000 held-open idle connections),
/// host_threads-annotated so the numbers stay honest on a 1-core recorder.
/// See DESIGN.md §8 and §11.
fn e11() {
    use c1p_bench::workloads::planted;
    use c1p_engine::{Engine, EngineConfig};
    use c1p_matrix::generate::{mixed_schedule, MixedSchedule};

    println!("## E11 — BENCH_serve.json (engine serving benchmarks)\n");
    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());

    // 1. cold vs hot at n = 2^12 (the acceptance gate's >= 10x claim):
    //    fresh engine per cold rep so every cold solve is really cold.
    let big = planted(1 << 12, 1);
    let mut colds = Vec::new();
    let hot_engine = Engine::new(EngineConfig::default());
    for _ in 0..3 {
        let engine = Engine::new(EngineConfig::default());
        let (t, ok) = median_time(1, || engine.solve(&big).unwrap().is_c1p());
        assert!(ok);
        colds.push(t);
    }
    colds.sort_unstable();
    let t_cold = colds[1];
    hot_engine.solve(&big).unwrap(); // warm
    let (t_hot, _) = median_time(5, || hot_engine.solve(&big).unwrap().is_c1p());
    let hit_speedup = t_cold.as_secs_f64() / t_hot.as_secs_f64().max(1e-9);
    println!(
        "cache at n=4096: cold {} | hot {} | speedup {hit_speedup:.0}x",
        fmt_secs(t_cold),
        fmt_secs(t_hot),
    );

    // 2. a served schedule: 2000 small mixed requests with replays — the
    //    one shared definition (`mixed_schedule`) the load_driver and the
    //    engine_batch example also draw from, so the CI gate and this
    //    bench measure the same workload shape.
    let schedule = mixed_schedule(MixedSchedule {
        requests: 2000,
        seed: 0x5E11,
        dup_every: 3,
        reject_every: 4,
        n_lo: 40,
        n_hi: 140,
    });

    // closed loop (batch = 1): per-request latency percentiles
    let engine = Engine::new(EngineConfig::default());
    let mut lat_us: Vec<u64> = Vec::with_capacity(schedule.len());
    let t0 = std::time::Instant::now();
    for e in &schedule {
        let t = std::time::Instant::now();
        engine.solve(e).unwrap();
        lat_us.push(t.elapsed().as_micros() as u64);
    }
    let closed_wall = t0.elapsed();
    lat_us.sort_unstable();
    let pct = |p: f64| lat_us[((lat_us.len() - 1) as f64 * p).round() as usize];
    let (p50, p90, p99) = (pct(0.5), pct(0.9), pct(0.99));
    let closed_rps = schedule.len() as f64 / closed_wall.as_secs_f64();
    let closed_stats = engine.stats();
    println!(
        "closed loop: {} req in {} ({closed_rps:.0} req/s) | p50 {p50}us p90 {p90}us p99 {p99}us | hit rate {:.0}%",
        schedule.len(),
        fmt_secs(closed_wall),
        100.0 * closed_stats.hit_rate(),
    );

    // session mix: deterministic append streams through the engine's
    // incremental sessions (open → pushes → seal), reported as session
    // ops/s alongside the solve throughput above
    let session_engine = Engine::new(EngineConfig::default());
    let streams: Vec<_> = (0..24u64)
        .map(|s| c1p_matrix::generate::append_stream(64 + (s as usize % 3) * 48, 4, 6, 0x5E55 + s))
        .collect();
    let t0 = std::time::Instant::now();
    let mut session_ops = 0u64;
    for stream in &streams {
        let id = session_engine.open_session(stream.n_atoms).expect("session admitted");
        session_ops += 1;
        for k in 0..stream.pushes.len() {
            let v = session_engine.session_push(id, &stream.push_ensemble(k)).expect("push ok");
            assert!(v.is_c1p(), "accept-only stream");
            session_ops += 1;
        }
        session_engine.seal_session(id).expect("seal ok");
        session_ops += 1;
    }
    let session_wall = t0.elapsed();
    let session_ops_s = session_ops as f64 / session_wall.as_secs_f64().max(1e-9);
    let session_stats = session_engine.stats();
    println!(
        "session mix: {} streams, {session_ops} ops in {} ({session_ops_s:.0} ops/s) | \
         sealed {} | cache insertions {}",
        streams.len(),
        fmt_secs(session_wall),
        session_stats.sessions_sealed,
        session_stats.insertions,
    );

    // batch-size sweep (fresh engine each, same schedule): self-relative
    // batching gain from dedupe + shared-pool amortization
    let mut sweep: Vec<(usize, u128)> = Vec::new();
    for batch in [1usize, 8, 64] {
        let engine = Engine::new(EngineConfig::default());
        let t0 = std::time::Instant::now();
        for chunk in schedule.chunks(batch) {
            for r in engine.solve_batch(chunk) {
                r.unwrap();
            }
        }
        sweep.push((batch, t0.elapsed().as_nanos()));
    }
    let gain = sweep[0].1 as f64 / sweep[2].1.max(1) as f64;
    for &(b, ns) in &sweep {
        println!(
            "batch={b:<3} {} ({:.0} req/s)",
            fmt_secs(std::time::Duration::from_nanos(ns as u64)),
            schedule.len() as f64 * 1e9 / ns as f64,
        );
    }
    println!("self-relative batch-64 gain over batch-1: {gain:.2}x");

    // shard x connection sweep over real loopback TCP. On a small host
    // the cells are self-relative — what they isolate is front-end
    // overhead, not parallel speedup.
    println!("\nserved sweep (live loopback, {} requests per cell):", schedule.len());
    let mut served: Vec<(usize, usize, f64)> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        for &conns in &[1usize, 4, 16] {
            let rps = served_rps(shards, conns, 0, &schedule);
            println!("  shards={shards} conns={conns:<3} {rps:>8.0} req/s");
            served.push((shards, conns, rps));
        }
    }

    // 1000 idle connections held open for the whole run, against the
    // same 4-shard, 4-connection cell without them from this run: poll(2)
    // rescans every idle fd on every wakeup, so the ratio is the cost an
    // epoll backend would remove
    let idle_el = served_rps(4, 4, 1000, &schedule);
    let busy_el = served.iter().find(|&&(s, c, _)| (s, c) == (4, 4)).expect("4x4 cell").2;
    let idle_ratio = idle_el / busy_el.max(1e-9);
    println!(
        "4 shards, 4 conns: {busy_el:.0} req/s alone | {idle_el:.0} req/s with 1000 idle conns \
         ({idle_ratio:.2}x)"
    );

    let served_json = served
        .iter()
        .map(|&(shards, conns, rps)| {
            format!("{{\"shards\": {shards}, \"conns\": {conns}, \"rps\": {rps:.1}}}")
        })
        .collect::<Vec<_>>()
        .join(",\n  ");

    let sweep_json =
        sweep.iter().map(|(b, ns)| format!("\"batch{b}\": {ns}")).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n\"workload\": \"mixed_schedule(requests 2000, seed 0x5E11, dup_every 3, \
         reject_every 4, n in [40,140]) — the shared c1p_matrix::generate definition \
         the load_driver CI gate uses; cache gate uses planted(4096, seed 1)\",\n\
         \"note\": \"recorded on a {host_threads}-thread host — throughput and the \
         batch sweep are self-relative, single-host numbers; on a 1-core container \
         cross-request parallel speedup is physically impossible, so gains reflect \
         dedupe, caching and pool amortization only; the served sweep \
         isolates front-end overhead, not parallelism; see DESIGN.md §8 and §11\",\n\
         \"host_threads\": {host_threads},\n\
         \"cache\": {{\"cold_ns_at_4096\": {}, \"hot_ns_at_4096\": {}, \
         \"hit_speedup\": {hit_speedup:.1}}},\n\
         \"closed_loop\": {{\"requests\": {}, \"throughput_rps\": {closed_rps:.1}, \
         \"latency_us\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}, \
         \"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}}},\n\
         \"batch_sweep_ns\": {{{sweep_json}}},\n\
         \"batch64_gain_over_batch1\": {gain:.3},\n\
         \"served_sweep\": {{\"requests\": {}, \"note\": \"live c1pd event loop over \
         loopback TCP, closed loop\", \"cells\": [\n  \
         {served_json}\n]}},\n\
         \"idle_1k\": {{\"idle_conns\": 1000, \"active_conns\": 4, \"shards\": 4, \
         \"rps\": {idle_el:.1}, \"no_idle_rps\": {busy_el:.1}, \
         \"ratio\": {idle_ratio:.3}}},\n\
         \"session_mix\": {{\"streams\": {}, \"pushes_per_stream\": 6, \
         \"ops\": {session_ops}, \"ops_per_s\": {session_ops_s:.1}, \
         \"wall_ns\": {}, \"workload\": \"append_stream(n in {{64,112,160}}, \
         blocks 4, pushes 6, seeds 0x5E55+s) through open/push/seal\"}}\n}}\n",
        t_cold.as_nanos(),
        t_hot.as_nanos(),
        schedule.len(),
        closed_stats.hits,
        closed_stats.misses,
        closed_stats.hit_rate(),
        schedule.len(),
        streams.len(),
        session_wall.as_nanos(),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");
}

/// E12 — machine-readable incremental-session benchmarks: writes
/// `BENCH_incr.json`. Measures the tentpole claim: pushing a 1%-suffix
/// into a warm incremental session vs a full one-shot re-solve of the
/// concatenation, at n = 2^12..2^14 on the block-local append-stream
/// workload — plus the honest counter-case of a single-component
/// instance, where the suffix touches everything and the differential
/// path degenerates to a full re-solve. host_threads-annotated (the
/// recording box is 1-core; the speedup is pure component locality, not
/// parallelism). See DESIGN.md §9.
fn e12() {
    use c1p_bench::workloads::append_stream;
    use c1p_incremental::IncrementalSolver;
    use std::fmt::Write as _;

    println!("## E12 — BENCH_incr.json (incremental push vs full re-solve)\n");
    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    let reps = 3;
    let mut entries: Vec<String> = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    for k in [12usize, 13, 14] {
        let n = 1 << k;
        let blocks = n / 256;
        // 100 pushes over m = 2n columns: the last push is exactly the 1%
        // suffix, block-local by stream construction
        let stream = append_stream(n, blocks, 100, 1);
        let full = stream.final_ensemble();
        let suffix_cols = stream.pushes[99].len();
        let (t_full, ok) = median_time(reps, || c1p_cert::solve_certified(&full).is_ok());
        assert!(ok);
        // incremental: warm a session with the 99% prefix (one untimed
        // push), then time the 1% suffix push; fresh session per rep so
        // every timed push really is the first sight of the suffix
        let prefix: Vec<Vec<u32>> =
            stream.pushes[..99].iter().flat_map(|p| p.iter().cloned()).collect();
        let mut t_incrs = Vec::new();
        for _ in 0..reps {
            let mut inc = IncrementalSolver::new(n);
            inc.push_columns(prefix.clone()).unwrap().unwrap();
            let delta = stream.push_ensemble(99);
            let t0 = std::time::Instant::now();
            let verdict = inc.push(&delta);
            let dt = t0.elapsed();
            assert!(verdict.is_ok());
            t_incrs.push(dt);
        }
        t_incrs.sort_unstable();
        let t_incr = t_incrs[t_incrs.len() / 2];
        // the honest counter-case: one giant component (planted), where
        // the 1% suffix touches everything
        let single = planted(n, 1);
        let m = single.n_columns();
        let cut = m - m / 100;
        let head: Vec<Vec<u32>> = single.columns()[..cut].to_vec();
        let tail: Vec<Vec<u32>> = single.columns()[cut..].to_vec();
        let mut t_singles = Vec::new();
        for _ in 0..reps {
            let mut inc = IncrementalSolver::new(n);
            inc.push_columns(head.clone()).unwrap().unwrap();
            let t0 = std::time::Instant::now();
            let verdict = inc.push_columns(tail.clone()).unwrap();
            let dt = t0.elapsed();
            assert!(verdict.is_ok());
            t_singles.push(dt);
        }
        t_singles.sort_unstable();
        let t_single = t_singles[t_singles.len() / 2];
        let speedup = t_full.as_secs_f64() / t_incr.as_secs_f64().max(1e-9);
        worst_speedup = worst_speedup.min(speedup);
        println!(
            "n={n} ({blocks} blocks): full re-solve {} | 1% suffix push {} ({speedup:.1}x) | \
             single-component suffix push {} ({:.1}x)",
            fmt_secs(t_full),
            fmt_secs(t_incr),
            fmt_secs(t_single),
            t_full.as_secs_f64() / t_single.as_secs_f64().max(1e-9),
        );
        let mut e = String::new();
        write!(
            e,
            "  {{\"n\": {n}, \"m\": {}, \"blocks\": {blocks}, \"suffix_columns\": {suffix_cols}, \
             \"full_resolve_ns\": {}, \"incr_push_ns\": {}, \"speedup\": {speedup:.2}, \
             \"single_component_push_ns\": {}}}",
            full.n_columns(),
            t_full.as_nanos(),
            t_incr.as_nanos(),
            t_single.as_nanos(),
        )
        .unwrap();
        entries.push(e);
    }
    let json = format!(
        "{{\n\"workload\": \"append_stream(n, blocks = n/256, pushes = 100, seed 1): the \
         timed push is the block-local 1% suffix; full_resolve = solve_certified of the \
         concatenation; single_component_push uses planted(n, 1) (one giant component) as \
         the honest worst case where differential re-solve degenerates to a full solve\",\n\
         \"note\": \"medians of {reps} reps; recorded on a {host_threads}-thread host — \
         the speedup is component locality (re-solve only touched blocks + O(n) splice), \
         not parallelism, and holds on 1 core; acceptance gate: speedup >= 5 at n = 2^14; \
         see DESIGN.md §9\",\n\
         \"host_threads\": {host_threads},\n\
         \"min_speedup\": {worst_speedup:.2},\n\
         \"results\": [\n{}\n]\n}}\n",
        entries.join(",\n")
    );
    std::fs::write("BENCH_incr.json", &json).expect("write BENCH_incr.json");
    println!("\nwrote BENCH_incr.json");
    // The ISSUE-5 acceptance gate, enforced (not just recorded): the CI
    // incr-smoke job runs this experiment, so a change that loses
    // component locality fails the build instead of self-reporting.
    // Measured headroom is ~4x (19-53x across sizes), so timer noise on
    // a loaded 1-core host cannot plausibly trip it.
    assert!(
        worst_speedup >= 5.0,
        "acceptance gate: 1%-suffix incremental push must be >= 5x a full \
         re-solve at every size (worst measured {worst_speedup:.1}x)"
    );
}

/// E13 — machine-readable durability benchmarks: writes
/// `BENCH_durable.json`. Measures what the WAL costs and what recovery
/// buys: median per-push ack latency with and without the
/// fsync-before-ack write-ahead log (same seeded stream, same engine),
/// and WAL recovery time as a function of log length (records and
/// bytes): the hash chain is checked at every record, then the whole
/// stream is solved once, so record count should barely matter.
/// host_threads-annotated; the fsync premium is storage-bound, so the
/// absolute numbers describe the recording box's disk, not the solver.
/// See DESIGN.md §10.
fn e13() {
    use c1p_bench::workloads::append_stream;
    use c1p_engine::{wal, Engine, EngineConfig};
    use std::fmt::Write as _;
    use std::time::Instant;

    println!("## E13 — BENCH_durable.json (WAL ack latency + recovery time)\n");
    let host_threads = std::thread::available_parallelism().map_or(1, |v| v.get());
    let dir = std::env::temp_dir().join(format!("c1p-e13-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reps = 3;
    let n = 2048usize;
    let blocks = n / 256;

    // ── ack latency: the same 64-push stream, acked with and without a
    // fsynced WAL append between verdict and acknowledgement
    let pushes = 64usize;
    let stream = append_stream(n, blocks, pushes, 5);
    let mut ack = Vec::new(); // (mode, median per-push ns)
    for (mode, wal_dir) in [("no_fsync", None), ("fsync", Some(dir.clone()))] {
        let mut meds = Vec::new();
        for _ in 0..reps {
            let cfg =
                EngineConfig { threads: 2, wal_dir: wal_dir.clone(), ..EngineConfig::default() };
            let engine = Engine::new(cfg);
            let id = engine.open_session(n).expect("open");
            let mut ts = Vec::new();
            for k in 0..pushes {
                let delta = stream.push_ensemble(k);
                let t0 = Instant::now();
                engine.session_push(id, &delta).expect("accept-only stream");
                ts.push(t0.elapsed());
            }
            ts.sort_unstable();
            meds.push(ts[ts.len() / 2]);
            engine.seal_session(id).expect("seal"); // retires the WAL
        }
        meds.sort_unstable();
        ack.push((mode, meds[meds.len() / 2].as_nanos()));
    }
    let premium = ack[1].1 as f64 / (ack[0].1 as f64).max(1.0);
    println!(
        "per-push ack latency (median of {pushes} pushes, n={n}): \
         {} ns without WAL | {} ns with fsync-before-ack ({premium:.1}x)",
        ack[0].1, ack[1].1
    );

    // ── recovery time vs WAL length: an unsealed log's hash chain checked
    // at every record, then one solve of the whole stream (the boot path)
    let mut recovery: Vec<String> = Vec::new();
    for records in [16usize, 64, 256, 512] {
        let stream = append_stream(n, blocks, records, 7);
        let cfg =
            EngineConfig { threads: 2, wal_dir: Some(dir.clone()), ..EngineConfig::default() };
        let engine = Engine::new(cfg);
        let id = engine.open_session(n).expect("open");
        for k in 0..records {
            engine.session_push(id, &stream.push_ensemble(k)).expect("accept-only stream");
        }
        drop(engine); // vanish unsealed: the WAL stays behind
        let path = wal::wal_path(&dir, id);
        let wal_bytes = std::fs::metadata(&path).expect("wal written").len();
        let mut ts = Vec::new();
        for _ in 0..reps {
            let t0 = Instant::now();
            let rec = wal::recover_file(&path, &Config::default(), 2048)
                .expect("an honest log always recovers");
            ts.push(t0.elapsed());
            assert_eq!(rec.records, records as u64, "every acked push replayed");
            assert!(!rec.truncated_tail);
        }
        ts.sort_unstable();
        let t = ts[ts.len() / 2];
        println!("recovery of {records:>3} records ({wal_bytes:>7} B): {}", fmt_secs(t));
        let mut e = String::new();
        write!(
            e,
            "  {{\"records\": {records}, \"wal_bytes\": {wal_bytes}, \
             \"recover_ns\": {}}}",
            t.as_nanos()
        )
        .unwrap();
        recovery.push(e);
        std::fs::remove_file(&path).expect("retire the measured log");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n\"workload\": \"append_stream(n = 2048, blocks = 8, seed 5/7): ack latency is \
         the median session_push round trip over 64 pushes, with wal_dir unset vs set \
         (append + fsync before the verdict is returned); recovery is wal::recover_file \
         of an unsealed log: every record's recorded stream hash checked, then one solve \
         of the whole stream\",\n\
         \"note\": \"medians of {reps} reps; recorded on a {host_threads}-thread host — \
         the fsync premium is storage latency (device + filesystem), not solver time, \
         and recovery is one solve of the same 4096 columns however they were pushed, \
         so it barely depends on record count; see DESIGN.md §10\",\n\
         \"host_threads\": {host_threads},\n\
         \"ack_latency\": [\n  {{\"mode\": \"{}\", \"push_ns\": {}}},\n  \
         {{\"mode\": \"{}\", \"push_ns\": {}}}\n],\n\
         \"fsync_premium\": {premium:.2},\n\
         \"recovery\": [\n{}\n]\n}}\n",
        ack[0].0,
        ack[0].1,
        ack[1].0,
        ack[1].1,
        recovery.join(",\n")
    );
    std::fs::write("BENCH_durable.json", &json).expect("write BENCH_durable.json");
    println!("\nwrote BENCH_durable.json");
}

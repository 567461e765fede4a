#!/usr/bin/env python3
"""Builds `c1pd` and the benchmark binary from source, runs one workload,
and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 16 --trace 0

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`), offline, leaving every crate manifest untouched. The
result line holds every `end_to_end` metric of BENCHMARK.json with
`--trace 0` and every `per_layer` one with `--trace 1`; a per-layer metric
the workload does not exercise is reported as 0 with a note saying why.
Exits non-zero when the build or the run fails, printing no result, and
when a reply fails verification, printing the result marked incorrect.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run is killed, and fails, if it has not finished by then.
RUN_TIMEOUT_S = 170

# Why a workload leaves some per-layer metrics unmeasured.
UNMEASURED = {
    "solve_large": "in-process library calls only: no c1pd, network, engine, "
    "session or WAL code runs, and solver phases are reported in ms",
    "serve_mixed": "one-shot solves of at most 160 atoms only: no sessions or "
    "WAL, and no in-process 2^14 solve",
    "sessions_durable": "session pushes only: the incremental solver records "
    "no per-phase spans, and no one-shot solve or cache lookup runs",
}


def die_with_parent():
    """Has the kernel SIGKILL the child if this process dies first."""
    if sys.platform.startswith("linux"):
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def build(args, env):
    r = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args, env=env)
    if r.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {a.workload!r}")
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build(["--manifest-path", os.path.join(ROOT, "Cargo.toml"), "-p", "c1p-net", "--bin", "c1pd"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)

    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--c1pd", os.path.join(target, "release", "c1pd")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.splitlines()
    if not lines:
        sys.exit(f"perfbench: the run printed nothing (exit {proc.returncode})")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(lines[-1])
        sys.exit("perfbench: a reply failed verification or an invariant broke; see above")
    if proc.returncode != 0:
        sys.exit(f"perfbench: the run failed (exit {proc.returncode})")

    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        sys.exit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(extra)}")
    unmeasured = []
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and a.trace:
            unmeasured.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got is None or got["unit"] != m["unit"]:
            sys.exit(f"perfbench: metric {m['name']} missing or not in {m['unit']}: {got}")
    if unmeasured:
        print(f"# reported as 0, not measured on {a.workload} ({UNMEASURED[a.workload]}): "
              + ", ".join(unmeasured))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""Benchmark of dsmkit: one workload, one seed, one run.

    python3 perfbench/run.py --workload {sweep,solve,certify,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout (dsmkit is imported from ``src/``).
Every process it starts has the BLAS and OpenMP pools limited to one
thread.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (setup_s, throughput,
latency_ms_p50, peak_rss_mb); with ``--trace 1`` it holds the per-layer
metrics of a separate traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "solve", "certify", "cli")

#: fresh interpreters whose set-up times are pooled with the worker's own
SETUP_PROBES = 4
IMPORT_PROBES = 3
DEADLINE_S = 170.0

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def bench_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def worker_cmd(args, outdir, *extra):
    trace_file = os.path.join(BENCH, "out", f"trace-{args.workload}-seed{args.seed}.json")
    return [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--outdir", outdir, "--root", ROOT, "--trace-file", trace_file, *extra]


def run_child(cmd, env, deadline):
    """Run a child to completion; returns (spawn time, stdout lines).

    The child gets its own process group, so that on a timeout the CLI
    processes it started are killed with it.
    """
    t0 = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"benchmark process exceeded the time limit: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise SystemExit(f"benchmark process failed with code {proc.returncode}: {' '.join(cmd)}")
    return t0, out.splitlines()


def setup_time(t0, lines):
    """Set-up wall time of a fresh process, scaled to the reference speed (see worker.py)."""
    fields = dict(line.split(None, 1) for line in lines if line.startswith(("READY ", "SCALE ")))
    if len(fields) != 2:
        raise SystemExit("benchmark process did not report the end of its set-up")
    return (float(fields["READY"]) - t0) * float(fields["SCALE"])


def import_times(env, deadline):
    """Median dsmkit and scipy import times of fresh interpreters, from -X importtime."""
    dsm, sci = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dsmkit.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise SystemExit(f"import probe failed: {proc.stderr[-500:]}")
        d, s = tracing.parse_importtime(proc.stderr)
        dsm.append(d)
        sci.append(s)
    return statistics.median(dsm), statistics.median(sci)


def reference_percentile(lat_ms):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    n = len(lat_ms)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None or n < 40:
        return None
    q = sorted(lat_ms)[min(n - 1, math.ceil(n * best / 100) - 1)]
    return best, q


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "dsmkit", "__init__.py")):
        print(f"error: no dsmkit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = bench_env()
    outdir = os.path.join(BENCH, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        # set-up probes before and after the timed run, so that they fall in different
        # stretches of a shared machine's load
        probe = lambda: setup_time(*run_child(worker_cmd(args, outdir, "--setup-only"), env, deadline))
        probes = 0 if args.trace else SETUP_PROBES
        setup = [probe() for _ in range(probes // 2)]
        t0, lines = run_child(worker_cmd(args, outdir), env, deadline)
        setup.append(setup_time(t0, lines))
        setup += [probe() for _ in range(probes - probes // 2)]
        res = json.loads(lines[-1])
        imports = import_times(env, deadline) if args.trace else None
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    info = res["info"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"threads {info['threads']} nproc {info['nproc']} numpy {info['numpy']} "
          f"scipy {info['scipy']} blas {info['blas']} git {git_sha()}")
    print(f"rounds {res['rounds']} of {res['ops_per_round']} operations; "
          f"attempted {res['attempted']} failed {res['failed']} wrong {res['n_errors']}")
    for err in res["errors"]:
        print(f"WRONG {err}", file=sys.stderr)

    lat_ms = [v / 1e6 for v in res["lat_ns"]]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli.import_ms"], metrics["cli.import_scipy_ms"] = imports
        print(f"traced spans {res['spans']} written to perfbench/out/trace-{args.workload}-seed{args.seed}.json; "
              f"tracing overhead {metrics['trace.overhead_pct']:.1f}%")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        op_ms = [v / 1e6 for v in res["op_ns"]]
        ref = reference_percentile(lat_ms)
        if ref:
            print(f"reference: p{ref[0]} unscaled latency {ref[1]:.4f} ms over {len(lat_ms)} samples")
        else:
            print(f"reference: median only, {len(lat_ms)} samples")
        print(f"calibration kernel: median {res['calibration_ns'] / 1e6:.3f} ms "
              f"(reference {res['calibration_ref_ns'] / 1e6:.3f} ms)")
        print(f"setup samples (s, reference speed): {' '.join(f'{s:.4f}' for s in setup)}")
        by_kind = {}
        for kind, ms in zip(res["kinds"], op_ms):
            by_kind.setdefault(kind, []).append(ms)
        print("median repetition by kind (reference-speed ms, count): " + ", ".join(
            f"{k} {statistics.median(v):.4g} x{len(v)}"
            for k, v in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1]))))
        out = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput": {"value": len(op_ms) / (res["round_ns"] / 1e9), "unit": "ops/s"},
            "latency_ms_p50": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": res["n_errors"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

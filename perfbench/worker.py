"""One workload process: set-up, then whole rounds of timed operations.

Started by run.py with the BLAS/OpenMP pools already limited to one
thread.  Prints ``READY <unix time>`` when set-up ends and
``SCALE <factor to the reference speed>`` after it, then (unless
``--setup-only``) one JSON line with the raw figures of the run.

The machine's speed changes by up to 1.5x for tens of seconds at a time
(see README.md), so every time is also scaled to a reference speed: a
fixed calibration kernel that does not touch dsmkit is timed right before
each repetition of an operation, and the repetition is scaled by
``CALIBRATION_REF_NS`` over the kernel's time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

import tracing
import workloads as wl
from checks import CheckError


#: the calibration kernel's wall time at the reference speed
CALIBRATION_REF_NS = 2_500_000

_CAL_RNG = np.random.default_rng(0)
_CAL_SYM = _CAL_RNG.standard_normal((96, 96))
_CAL_SYM = _CAL_SYM + _CAL_SYM.T
_CAL_MAT = _CAL_RNG.standard_normal((160, 160))
_CAL_VEC = _CAL_RNG.standard_normal(16) + 1j * _CAL_RNG.standard_normal(16)
_EIGH = np.linalg.eigh  # bound before tracing can wrap numpy.linalg


def calibration_ns():
    """Wall time of the calibration kernel: LAPACK, BLAS, small numpy calls and a Python loop."""
    t0 = time.perf_counter_ns()
    _EIGH(_CAL_SYM)
    _CAL_MAT @ _CAL_MAT
    s = 0
    for i in range(10_000):
        s += i * i
    for _ in range(300):
        np.vdot(_CAL_VEC, _CAL_VEC)
    return time.perf_counter_ns() - t0


def build_info():
    cfg = np.show_config(mode="dicts")["Build Dependencies"]
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{cfg['blas'].get('name')} {cfg['blas'].get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


class Tally:
    """Outcomes and wall times of the operations of one phase, by position in the round."""

    def __init__(self, n_ops):
        self.scaled_ns = [[] for _ in range(n_ops)]  # every repetition, at the reference speed
        self.failed_at = [False] * n_ops
        self.lat_ns: list[int] = []  # every repetition of every completed operation, unscaled
        self.calibration_ns: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rounds = 0

    def op_ns(self):
        """Each operation's median repetition, at the reference speed."""
        return [statistics.median(v) for v in self.scaled_ns]

    def round_ns(self):
        """Wall time of one round at the reference speed."""
        return sum(self.op_ns())

    def completed_ns(self):
        return [t for t, f in zip(self.op_ns(), self.failed_at) if not f]


def run_rounds(ops, seconds, tally, tracer=None, on_output=None):
    """Repeat whole rounds until ``seconds`` have passed (at least one round)."""
    deadline = time.perf_counter() + seconds
    while True:
        for i, op in enumerate(ops):
            err = None
            tally.calibration_ns.append(calibration_ns())
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                out = op.call()
            except Exception:  # a raising program call is a wrong output, reported below
                err = traceback.format_exc(limit=3)
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
            tally.attempted += 1
            tally.scaled_ns[i].append(dt * CALIBRATION_REF_NS / tally.calibration_ns[-1])
            if err is None:
                try:
                    if op.check(out):
                        tally.failed += 1
                        tally.failed_at[i] = True
                        continue
                except CheckError as exc:
                    err = str(exc)
            if err is not None:
                tally.errors.append(f"{op.kind}: {err}")
                continue
            tally.lat_ns.append(dt)
            if on_output is not None:
                on_output(out)
        tally.rounds += 1
        if time.perf_counter() >= deadline:
            return tally


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--trace-file", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    runner = None
    if args.workload == "cli":
        runner = wl.CliRunner(args.root, dict(os.environ), args.outdir)
    ops = wl.build(args.workload, args.seed, runner)
    print(f"READY {time.time()!r}", flush=True)
    print(f"SCALE {CALIBRATION_REF_NS / statistics.median(calibration_ns() for _ in range(5))!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"info": build_info(), "ops_per_round": len(ops)}
    if not args.trace:
        tally = run_rounds(ops, args.seconds, Tally(len(ops)))
    else:
        # untraced rounds first, then traced ones: their ratio is the tracing overhead
        base = run_rounds(ops, args.seconds / 2, Tally(len(ops)))
        tracer = tracing.Tracer()
        if runner is not None:
            # each CLI process traces itself and dumps its figures for this one to merge
            spans = os.path.join(args.outdir, "spans.json")
            runner.prefix = [sys.executable, os.path.join(os.path.dirname(__file__), "tracing.py"),
                             spans, "--"]

            def on_output(out):
                tracer.merge(spans)
                tracer.counters["io.bytes_out"] += out["bytes_out"]

            tally = run_rounds(ops, args.seconds / 2, Tally(len(ops)), on_output=on_output)
        else:
            uninstall = tracing.install(tracer)
            try:
                tally = run_rounds(ops, args.seconds / 2, Tally(len(ops)), tracer)
            finally:
                uninstall()
        layers = tracing.layer_metrics(tracer, tally.attempted)
        layers["trace.overhead_pct"] = 100.0 * (tally.round_ns() / base.round_ns() - 1.0)
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        tracer.dump(args.trace_file)
        tally.errors += base.errors
        tally.failed += base.failed
        tally.attempted += base.attempted

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors[:20],
        n_errors=len(tally.errors),
        rounds=tally.rounds,
        lat_ns=tally.lat_ns,
        op_ns=tally.completed_ns(),
        calibration_ns=statistics.median(tally.calibration_ns),
        calibration_ref_ns=CALIBRATION_REF_NS,
        kinds=[op.kind for op, f in zip(ops, tally.failed_at) if not f],
        round_ns=tally.round_ns(),
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

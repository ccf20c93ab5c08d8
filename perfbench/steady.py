"""Steadiness of the benchmark: repeat runs and print each metric's spread beside its bound.

    python3 perfbench/steady.py [--workloads sweep,solve,certify,cli] [--seeds 1-10]
                                [--sets 2] [--trace]

Runs ``run.py`` once per set, workload and seed, one run at a time, with
BENCHMARK.json's run length.  The sets run one after the other, the second
with the workloads in reverse order.  For every set and end-to-end metric
it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the metric's bound.  A spread above the bound fails, and one above a third
of the bound is flagged; setup_s is reported but neither (its bound applies
to medians only).  It then compares each set's median with the first
set's: a change larger than the bound, in either direction, fails.  The
share of failed operations must be the same in every run of a workload.
With ``--trace`` each seed is run traced twice and every per-layer count
must repeat exactly.  Raw figures go to ``perfbench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["wall_s"] = wall
    return res


def spread_table(runs, bounds):
    """Print one set's medians and quartiles; returns (medians, ok, flagged)."""
    ok, flagged, medians = True, False, {}
    print(f"{'metric':<18} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in runs]
        med = medians[name] = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = ""
        if name != "setup_s" and spread > bound:
            flag, ok = "  ABOVE THE BOUND", False
        elif name != "setup_s" and spread > bound / 3:
            flag, flagged = "  above a third of the bound", True
        print(f"{name:<18} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {bound:6.2f}{flag}")
    return medians, ok, flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    sets = 1 if args.trace else args.sets
    raw = [{} for _ in range(sets)]
    ok, flagged = True, False
    for k in range(sets):
        for wname in workloads if k % 2 == 0 else workloads[::-1]:
            runs = []
            for seed in seeds:
                res = run_once(wname, seed, seconds, args.trace)
                runs.append(res)
                if args.trace:
                    again = run_once(wname, seed, seconds, True)
                    for name, m in res["metrics"].items():
                        if m["unit"] == "count" and m["value"] != again["metrics"][name]["value"]:
                            ok = False
                            print(f"{wname} seed {seed}: {name} {m['value']} then "
                                  f"{again['metrics'][name]['value']}")
                print(f"set {k + 1} {wname} seed {seed}: wall {res['wall_s']:.1f} s correct {res['correct']} "
                      f"attempted {res['attempted']} failed {res['failed']}", flush=True)
            raw[k][wname] = runs
            ok &= all(r["correct"] for r in runs)
            if args.trace:
                continue
            print(f"set {k + 1} {wname}:")
            _, set_ok, set_flagged = spread_table(runs, bounds)
            ok &= set_ok
            flagged |= set_flagged

    for wname in workloads:
        runs = [r for k in range(sets) for r in raw[k][wname]]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        ok &= len(shares) == 1
        print(f"{wname}: failed share {'same in every run' if len(shares) == 1 else 'DIFFERS'}: "
              f"{sorted(float(s) for s in shares)}")
        for k in range(1, sets):
            for name, bound in bounds.items():
                first = statistics.median(r["metrics"][name]["value"] for r in raw[0][wname])
                now = statistics.median(r["metrics"][name]["value"] for r in raw[k][wname])
                change = now / first - 1.0
                agree = abs(change) <= bound
                ok &= agree
                print(f"{wname} {name}: set {k + 1} median {now:.5g} against set 1 {first:.5g}: "
                      f"{change:+.3f} (bound {bound:.2f}){'' if agree else '  DISAGREE'}")

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1)
    print(f"raw figures: {path}")
    print("NOT STEADY" if not ok else "STEADY, some spreads above a third of the bound" if flagged else "STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

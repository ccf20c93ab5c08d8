"""Per-layer tracing from outside the package.

``install`` replaces the public functions of every dsmkit module, in every
dsmkit namespace that holds them (so ``dsmkit.dsm.pinv`` is traced as a
``linalg`` call), with wrappers that record a span (layer, name, start,
end, parent).  The public functions of ``numpy.linalg`` form the
``lapack`` layer and ``scipy.optimize.minimize`` is traced as part of
``oracle``.  Spans are recorded only while ``Tracer.active`` is set, so
the benchmark's own checks stay out of the figures.  A span's self time
is its duration minus the time covered by its child spans.

Run as a script, this module is the traced entry point of one CLI
process: ``python tracing.py SPANS.json -- <dsmkit arguments>``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

DSMKIT_MODULES = ("linalg", "maps", "dsm", "pencil", "oracle", "io", "cli")

#: numpy.linalg functions grouped by the LAPACK kernel they run
LAPACK_GROUPS = {
    "eig": ("eig", "eigvals"),
    "eigh": ("eigh", "eigvalsh"),
    "svd": ("svd", "pinv"),
}

PER_LAYER = (
    ("linalg.calls", "count"), ("linalg.self_ms", "ms"),
    ("linalg.pinv.calls", "count"), ("linalg.null_projector.calls", "count"),
    ("linalg.svd_split.calls", "count"),
    ("lapack.calls", "count"), ("lapack.self_ms", "ms"),
    ("lapack.eig.calls", "count"), ("lapack.eigh.calls", "count"), ("lapack.svd.calls", "count"),
    ("maps.self_ms", "ms"), ("dsm.self_ms", "ms"),
    ("pencil.eta.calls", "count"), ("pencil.eta.self_ms", "ms"),
    ("pencil.experiment_table.self_ms", "ms"), ("pencil.experiment_table.row_errors", "count"),
    ("pencil.gen_eigpair.self_ms", "ms"), ("pencil.reconstruct.self_ms", "ms"),
    ("oracle.calls", "count"), ("oracle.self_ms", "ms"),
    ("oracle.minimize.calls", "count"), ("oracle.minimize.nit", "count"),
    ("oracle.lstsq.cols", "count"),
    ("io.self_ms", "ms"), ("io.bytes_out", "bytes"),
    ("cli.import_ms", "ms"), ("cli.import_scipy_ms", "ms"), ("cli.main_self_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Spans in memory plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []  # (layer, name, start_ns, end_ns, parent index)
        self.active = False
        self._stack: list[int] = []
        self.counters: dict = defaultdict(int)

    def wrap(self, layer, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append((layer, name, 0, 0, parent))
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.spans[idx] = (layer, name, t0, t1, parent)
            if hook is not None:
                hook(tracer, parent, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def parent_layer(self, parent):
        return self.spans[parent][0] if parent >= 0 else None

    def dump(self, path):
        """Write the spans and the counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counters": dict(self.counters), "spans": self.spans}, fh)
            fh.write("\n")

    def merge(self, path):
        """Add the spans and counters a traced child process dumped."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for k, v in doc["counters"].items():
            self.counters[k] += v
        base = len(self.spans)
        self.spans += [(l, n, t0, t1, p + base if p >= 0 else -1) for l, n, t0, t1, p in doc["spans"]]

    def calls_and_self_ns(self):
        """Calls and self time per (layer, name), worked out from the spans."""
        child_ns = [0] * len(self.spans)
        for _, _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: dict = defaultdict(int)
        self_ns: dict = defaultdict(int)
        for (layer, name, t0, t1, _), child in zip(self.spans, child_ns):
            calls[layer, name] += 1
            self_ns[layer, name] += t1 - t0 - child
        return calls, self_ns


def _minimize_hook(tracer, parent, args, out):
    tracer.counters["oracle.minimize.nit"] += int(getattr(out, "nit", 0))


def _solve_cols_hook(tracer, parent, args, out):
    if tracer.parent_layer(parent) == "oracle" and args and getattr(args[0], "ndim", 0) == 2:
        tracer.counters["oracle.lstsq.cols"] += int(args[0].shape[1])


def _rows_hook(tracer, parent, args, out):
    tracer.counters["pencil.experiment_table.row_errors"] += sum(1 for r in out if r["error"])


def install(tracer):
    """Wrap every traced function; returns a function that undoes it."""
    import importlib

    import numpy
    import scipy.optimize

    import dsmkit

    undo = []
    wrappers = {}
    namespaces = [dsmkit] + [importlib.import_module(f"dsmkit.{m}") for m in DSMKIT_MODULES]
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            mod = getattr(obj, "__module__", "") or ""
            if not mod.startswith("dsmkit."):
                continue
            if obj not in wrappers:
                hook = _rows_hook if obj.__name__ == "experiment_table" else None
                wrappers[obj] = tracer.wrap(mod.split(".")[1], obj.__name__, obj, hook)
            undo.append((ns, name, obj))
            setattr(ns, name, wrappers[obj])
    for name in numpy.linalg.__all__:
        obj = getattr(numpy.linalg, name)
        if callable(obj) and not inspect.isclass(obj):
            hook = _solve_cols_hook if name in ("lstsq", "pinv") else None
            undo.append((numpy.linalg, name, obj))
            setattr(numpy.linalg, name, tracer.wrap("lapack", name, obj, hook))
    undo.append((scipy.optimize, "minimize", scipy.optimize.minimize))
    scipy.optimize.minimize = tracer.wrap("oracle", "minimize", scipy.optimize.minimize, _minimize_hook)

    def uninstall():
        for ns, name, obj in reversed(undo):
            setattr(ns, name, obj)

    return uninstall


def layer_metrics(tracer, ops):
    """Per-operation figures for every metric of PER_LAYER that the tracer measures."""
    fig = defaultdict(float)
    calls, self_ns = tracer.calls_and_self_ns()
    for (layer, name), v in calls.items():
        fig[f"{layer}.calls"] += v
        fig[f"{layer}.{name}.calls"] += v
    for (layer, name), v in self_ns.items():
        fig[f"{layer}.self_ms"] += v / 1e6
        fig[f"{layer}.{name}.self_ms"] += v / 1e6
    for group, names in LAPACK_GROUPS.items():
        fig[f"lapack.{group}.calls"] = sum(fig[f"lapack.{n}.calls"] for n in names)
    for what in ("calls", "self_ms"):
        fig[f"pencil.eta.{what}"] = fig[f"pencil.eta_sd.{what}"] + fig[f"pencil.eta_s.{what}"]
    fig["pencil.reconstruct.self_ms"] = fig["pencil.reconstruct_perturbation.self_ms"]
    fig["cli.main_self_ms"] = fig["cli.main.self_ms"]
    fig.update(tracer.counters)
    return {metric: fig[metric] / ops for metric, _ in PER_LAYER}


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(dsmkit import ms, scipy import ms) from ``python -X importtime`` output.

    Children print before their parent, one indent level deeper, so a
    reverse pass sees each module's parent first.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, int(cum), name.strip()))
    dsm_us = sum(c for lvl, c, nm in rows if lvl == 0 and nm.split(".")[0] == "dsmkit")
    scipy_us = 0
    path: list[str] = []
    for level, cum, name in reversed(rows):
        del path[level:]
        path.append(name)
        parent = path[level - 1] if level > 0 else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cum
    return dsm_us / 1e3, scipy_us / 1e3


def main(argv):
    """Traced entry point of one CLI process."""
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <dsmkit arguments>")
    import dsmkit.cli

    tracer = Tracer()
    uninstall = install(tracer)
    tracer.active = True
    try:
        code = dsmkit.cli.main(cli_args)
    finally:
        tracer.active = False
        uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

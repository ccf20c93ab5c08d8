"""Golden corpus: seeded problems through every solver, evaluator and CLI subcommand.

Each case names a call, stores its inputs and stores the output the package
gave for them.  ``tests/test_golden.py`` re-runs every case from the stored
inputs and compares: numbers to 1e-12 relative (arrays norm-wise), and
verdicts, flags, reasons, warnings, messages and dictionary keys exactly.
The relative residuals of ``verify_solution`` (``interp_resid``,
``adjoint_resid``, ``structure_dev``) are already divided by the data scale,
so they are compared to 1e-12 absolute, and ``min_eig`` to 1e-12 of the
largest number in its record.

Rewrite the corpus, after an intended change of output, with

    PYTHONPATH=src:tests python tests/golden/generate.py

and say in CHANGES.md which records changed and why.  The inputs are drawn
from seeded generators once and stored, so the corpus does not depend on
later changes to the test helpers or to the generators of the package:
a rewrite re-evaluates every stored case on its stored inputs, keeps its
stored output unless that output has changed, prints the ids that changed
with every mismatch (path, new value, old value) under each, and draws fresh
inputs only for ids that are not stored yet.  The input of
a ``cli/verify/*`` case is not drawn: it is the document its source case
(``VERIFY_SOURCES``) prints in the rewritten corpus.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS = os.path.join(HERE, "corpus.json")
RTOL = 1e-12
#: verify_solution's residuals, already relative to the data scale
RELATIVE_RESIDUALS = frozenset({"interp_resid", "adjoint_resid", "structure_dev"})


# ---------------------------------------------------------------------------
# encoding


def encode(v):
    """A JSON-able form of a result, an input or a part of either."""
    if isinstance(v, enum.Enum):
        return v.value
    if v is None or isinstance(v, str):
        return v
    if isinstance(v, np.ndarray):
        a = np.asarray(v, dtype=complex)
        return {"shape": list(a.shape), "re": a.real.ravel().tolist(), "im": a.imag.ravel().tolist()}
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, (complex, np.complexfloating)):
        return {"complex": [float(v.real), float(v.imag)]}
    if isinstance(v, (frozenset, set)):
        return sorted(v)
    if isinstance(v, dict):
        return {str(k): encode(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode(x) for x in v]
    if dataclasses.is_dataclass(v):
        return {"type": type(v).__name__, **{f.name: encode(getattr(v, f.name)) for f in dataclasses.fields(v)}}
    raise TypeError(f"cannot encode {type(v).__name__}")


def decode(v):
    """Arrays and complex numbers back from ``encode``; everything else as stored."""
    if isinstance(v, dict):
        if set(v) == {"shape", "re", "im"}:
            return (np.array(v["re"]) + 1j * np.array(v["im"])).reshape(v["shape"])
        if set(v) == {"complex"}:
            return complex(*v["complex"])
        return {k: decode(x) for k, x in v.items()}
    if isinstance(v, list):
        return [decode(x) for x in v]
    return v


# ---------------------------------------------------------------------------
# the calls


def _problem(a):
    from dsmkit import DsmProblem

    return DsmProblem(a["x1"], a["x2"], a["y"], a["z"], a["w1"], a["w2"])


def _pencil(a):
    from dsmkit import PHPencil

    return PHPencil(a["J"], a["R"], a["E"], a["B"], a["S"])


def _cli(argv, files):
    """Run the CLI in this process; exit code and JSON output.

    Each entry of ``files`` (a document, or a vector) is written to a file of
    its name, and an argument ``@name`` stands for that file's path.
    """
    from dsmkit.cli import main
    from dsmkit.io import save_json, vector_to_doc

    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, value in files.items():
            paths[name] = os.path.join(tmp, f"{name}.json")
            save_json(paths[name], value if isinstance(value, dict) else vector_to_doc(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(tok[1:], tok) if tok.startswith("@") else tok for tok in argv])
    text = out.getvalue()
    return {"code": code, "doc": json.loads(text) if text.startswith("{") else None}


def _run(call, a):
    import dsmkit as d

    if call == "map_min":
        return d.map_min(a["family"], a["x"], a["y"])
    if call == "map_two_sided":
        return d.map_two_sided(a["x"], a["y"], a["z"], a["w"])
    if call == "map_characterize":
        return d.map_characterize(a["family"], a["x"], a["y"], a["params"])
    if call == "dsm_solve":
        return d.dsm_solve(a["family"], _problem(a))
    if call == "dsm_characterize":
        return d.dsm_characterize(a["family"], _problem(a), a["K"], a["R"])
    if call == "dsm_characterize_type2":
        return d.dsm_characterize_type2(_problem(a), a["Z"], a["K"], a["G"], a["R"])
    if call == "dsdm_type1":
        return d.dsdm_type1(d.Type1Problem(a["X"], a["Y"], a["Z"], a["W"]), anti=a["anti"])
    if call == "dsdm_type1_vec":
        return d.dsdm_type1_vec(a["x"], a["y"], a["z"], a["w"], anti=a["anti"])
    if call == "dsdm_type2":
        return d.dsdm_type2(_problem(a), anti=a["anti"])
    if call == "jordan_lie_reduce":
        return d.jordan_lie_reduce(d.ScalarProduct(a["M"], a["form"], a["algebra"]), _problem(a))
    if call == "gen_pencil":
        return d.gen_pencil(a["n"], a["m"], a["seed"], r_rank=a["r_rank"], b_rank=a["b_rank"])
    if call == "gen_eigpair":
        return d.gen_eigpair(_pencil(a), a["seed"], a["blocks"], lam=a["lam"])
    if call in ("eta_s", "eta_sd"):
        ep = d.EigenPair(a["lam"], a["u1"], a["u2"], a["u3"])
        return getattr(d, call)(_pencil(a), ep, a["blocks"])
    if call == "oracle_least_norm":
        return d.oracle_least_norm([tuple(c) for c in a["constraints"]], a["structure"])
    if call == "oracle_min_structured":
        problem = d.Type1Problem(a["X"], a["Y"], a["Z"], a["W"]) if "X" in a else _problem(a)
        return d.oracle_min_structured(problem, a["family"])
    if call == "oracle_eta":
        ep = d.EigenPair(a["lam"], a["u1"], a["u2"], a["u3"])
        return d.oracle_eta(_pencil(a), ep, a["blocks"], a["variant"])
    if call == "cli":
        return _cli(a["argv"], a["files"])
    raise ValueError(f"unknown call {call!r}")


def evaluate(call, args):
    """The encoded output of one case: its result, or the error it raised."""
    from dsmkit.errors import DsmkitError

    try:
        return encode(_run(call, decode(args)))
    except (DsmkitError, ValueError) as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


# ---------------------------------------------------------------------------
# comparison


def _numbers(v):
    if isinstance(v, dict):
        if set(v) == {"shape", "re", "im"}:
            yield from (abs(t) for t in v["re"] + v["im"])
        else:
            for x in v.values():
                yield from _numbers(x)
    elif isinstance(v, list):
        for x in v:
            yield from _numbers(x)
    elif isinstance(v, float) and math.isfinite(v):
        yield abs(v)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(b):
        return math.isnan(a)
    if math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def mismatches(new, old, path="", scale=None):
    """Where ``new`` differs from the stored ``old``: a list of (path, new, old)."""
    if scale is None:
        scale = max(_numbers(old), default=0.0)
    if isinstance(old, dict) and set(old) == {"shape", "re", "im"}:
        if not (isinstance(new, dict) and set(new) == set(old) and new["shape"] == old["shape"]):
            return [(path, new, old)]
        a = np.array(new["re"]) + 1j * np.array(new["im"])
        b = np.array(old["re"]) + 1j * np.array(old["im"])
        unit = np.max(np.abs(b), initial=0.0) or 1.0
        ok = np.linalg.norm((a - b) / unit) <= RTOL * np.linalg.norm(b / unit)
        return [] if ok else [(path, "array differs", float(np.linalg.norm(a - b)))]
    if isinstance(old, dict) and set(old) == {"complex"}:
        if not (isinstance(new, dict) and set(new) == {"complex"}):
            return [(path, new, old)]
        a, b = complex(*new["complex"]), complex(*old["complex"])
        return [] if abs(a - b) <= RTOL * abs(b) else [(path, a, b)]
    if isinstance(old, dict):
        if not isinstance(new, dict) or list(new) != list(old):
            return [(path + ".keys", list(new) if isinstance(new, dict) else new, list(old))]
        return [m for k in old for m in mismatches(new[k], old[k], f"{path}.{k}", scale)]
    if isinstance(old, list):
        if not isinstance(new, list) or len(new) != len(old):
            return [(path, new, old)]
        return [m for i, (x, y) in enumerate(zip(new, old)) for m in mismatches(x, y, f"{path}[{i}]", scale)]
    if isinstance(old, float) and not isinstance(new, bool) and isinstance(new, (int, float)):
        key = path.rsplit(".", 1)[-1]
        if key in RELATIVE_RESIDUALS:
            tol = RTOL
        elif key == "min_eig":
            tol = RTOL * scale
        else:
            tol = RTOL * abs(old)
        return [] if _close(float(new), old, tol) else [(path, new, old)]
    return [] if type(new) is type(old) and new == old else [(path, new, old)]


# ---------------------------------------------------------------------------
# the cases


def _cases():
    from helpers import (
        crandn,
        dsm_instance,
        dsm_instance_psd_spectrum,
        fix_compat,
        map_instance,
        two_sided_instance,
        type1_instance,
        type1_vec_instance,
        type2_instance,
    )

    from dsmkit import DsmProblem, ScalarProduct, gen_eigpair, gen_pencil
    from dsmkit.io import pencil_to_doc
    from dsmkit.maps import StructureFamily as F

    cases = []

    def add(name, call, **args):
        cases.append((name, call, args))

    def dsm_args(p):
        return dict(x1=p.x1, x2=p.x2, y=p.y, z=p.z, w1=p.w1, w2=p.w2)

    # map_min: every family, feasible at three sizes, infeasible where the family has a condition
    rng = np.random.default_rng(7001)
    opposite = {
        F.HERMITIAN: None, F.SKEW_HERMITIAN: None, F.SKEW_SYMMETRIC: None,
        F.PSD: F.NSD, F.NSD: F.PSD, F.DISSIPATIVE: F.ANTI_DISSIPATIVE, F.ANTI_DISSIPATIVE: F.DISSIPATIVE,
    }
    for family in F:
        for n in (1, 3, 8):
            x, y = map_instance(family, rng, n)
            add(f"map_min/{family.value}/n{n}", "map_min", family=family.value, x=x, y=y)
        if family in opposite:
            other = opposite[family]
            x, y = map_instance(other, rng, 3) if other else (crandn(rng, 3), crandn(rng, 3))
            add(f"map_min/{family.value}/infeasible", "map_min", family=family.value, x=x, y=y)
    for family in (F.DISSIPATIVE, F.ANTI_DISSIPATIVE):
        x, y = crandn(rng, 4), crandn(rng, 4)
        y = y - (np.vdot(x, y).real / np.vdot(x, x).real) * x  # Re(x*y) = 0
        add(f"map_min/{family.value}/boundary", "map_min", family=family.value, x=x, y=y)
    g = crandn(rng, 4, 4)
    dmat = (g - g.conj().T) + 0.5 * g @ g.conj().T  # dissipative: D + D* >= 0
    x = crandn(rng, 4)
    add("map_min/anti-dissipative/dissipative-image", "map_min", family="anti-dissipative", x=x, y=dmat @ x)
    add("map_min/psd/zero-x", "map_min", family="psd", x=np.zeros(3, complex), y=crandn(rng, 3))
    add("map_min/hermitian/scaled-1e-100", "map_min", family="hermitian",
        x=1e-100 * map_instance(F.HERMITIAN, rng, 3)[0], y=1e-100 * crandn(rng, 3))

    # map_two_sided
    rng = np.random.default_rng(7002)
    for n, m in ((1, 1), (3, 2), (8, 3)):
        x, y, z, w = two_sided_instance(rng, n, m)
        add(f"map_two_sided/n{n}m{m}", "map_two_sided", x=x, y=y, z=z, w=w)
        add(f"map_two_sided/n{n}m{m}/inconsistent", "map_two_sided", x=x, y=y, z=z, w=w + crandn(rng, m))
    add("map_two_sided/dimension-clash", "map_two_sided",
        x=crandn(rng, 2), y=crandn(rng, 3), z=crandn(rng, 2), w=crandn(rng, 2))

    # dsm_solve: six families, generic and exact, infeasible through either condition
    rng = np.random.default_rng(7003)
    conditional = {F.HERMITIAN, F.SKEW_HERMITIAN, F.SKEW_SYMMETRIC, F.PSD, F.NSD}
    for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD):
        for n, m in ((1, 1), (3, 2), (8, 3)):
            for exact in (False, True):
                p = dsm_instance(family, rng, n, m, exact=exact)
                tag = "exact" if exact else "generic"
                add(f"dsm_solve/{family.value}/n{n}m{m}/{tag}", "dsm_solve", family=family.value, **dsm_args(p))
        p = dsm_instance(family, rng, 3, 2)
        broken = DsmProblem(p.x1, p.x2, p.y + crandn(rng, 3), p.z, p.w1, p.w2)
        add(f"dsm_solve/{family.value}/incompatible", "dsm_solve", family=family.value, **dsm_args(broken))
        if family in conditional:
            other = {F.PSD: F.NSD, F.NSD: F.PSD}.get(family, F.SYMMETRIC)
            q = dsm_instance(other, rng, 3, 2)
            if other is F.SYMMETRIC:  # generic w1 breaks the symmetry condition
                w1 = crandn(rng, 3)
                y = fix_compat(np.concatenate([q.x1, q.x2]), np.concatenate([w1, q.w2]), q.z, q.y)
                q = DsmProblem(q.x1, q.x2, y, q.z, w1, q.w2)
            add(f"dsm_solve/{family.value}/infeasible", "dsm_solve", family=family.value, **dsm_args(q))
    for n, m in ((3, 2), (8, 3)):
        p = dsm_instance_psd_spectrum(rng, n, m)
        add(f"dsm_solve/psd/n{n}m{m}/spectrum", "dsm_solve", family="psd", **dsm_args(p))
        q = DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
        add(f"dsm_solve/nsd/n{n}m{m}/spectrum", "dsm_solve", family="nsd", **dsm_args(q))
    p = dsm_instance(F.HERMITIAN, rng, 3, 2)
    add("dsm_solve/hermitian/zero-w1", "dsm_solve", family="hermitian",
        **dsm_args(DsmProblem(p.x1, p.x2, p.y, p.z, np.zeros(3, complex), p.w2)))

    # dsdm_type1 on matrix data, plain and reflected, anti off and on
    rng = np.random.default_rng(7004)
    for n, m, definite in ((3, 1, True), (3, 2, True), (4, 2, False)):
        q, _ = type1_instance(rng, n, m, definite=definite)
        for tag, (y, w) in (("data", (q.Y, q.W)), ("reflected", (-q.Y, -q.W))):
            for anti in (False, True):
                add(f"dsdm_type1/n{n}m{m}/{'definite' if definite else 'skew'}/{tag}/anti{int(anti)}",
                    "dsdm_type1", X=q.X, Y=y, Z=q.Z, W=w, anti=anti)

    # dsdm_type1_vec
    rng = np.random.default_rng(7005)
    for n in (1, 3, 8):
        x, y, z, w = type1_vec_instance(rng, n)
        for tag, data in (("data", (x, y, z, w)), ("incompatible", (x, y, z, w + x)), ("reflected", (x, -y, z, -w))):
            for anti in (False, True):
                add(f"dsdm_type1_vec/n{n}/{tag}/anti{int(anti)}", "dsdm_type1_vec",
                    x=data[0], y=data[1], z=data[2], w=data[3], anti=anti)
    x, y, z, w = type1_vec_instance(rng, 3)
    add("dsdm_type1_vec/not-colinear", "dsdm_type1_vec", x=x, y=y, z=crandn(rng, 3), w=w, anti=False)

    # dsdm_type2
    rng = np.random.default_rng(7006)
    for n, m in ((1, 1), (3, 2), (8, 3)):
        ps = {
            "generic": type2_instance(rng, n, m),
            "exact": type2_instance(rng, n, m, exact=True),
            "paper-exact": type2_instance(rng, n, m, paper_exact_only=True),
        }
        p = ps["generic"]
        w1 = p.w1 - (2.0 * np.vdot(p.z, p.w1).real / np.vdot(p.z, p.z).real) * p.z  # Re(z*w1) < 0
        y = fix_compat(np.concatenate([p.x1, p.x2]), np.concatenate([w1, p.w2]), p.z, p.y)
        ps["negative"] = DsmProblem(p.x1, p.x2, y, p.z, w1, p.w2)
        ps["reflected"] = DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
        for tag, q in ps.items():
            for anti in (False, True):
                add(f"dsdm_type2/n{n}m{m}/{tag}/anti{int(anti)}", "dsdm_type2", anti=anti, **dsm_args(q))

    # jordan_lie_reduce: both forms and both algebras, for a symmetric-type and a skew-type M
    rng = np.random.default_rng(7007)
    n, m = 4, 2
    sigma = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    jmat = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]).astype(complex)
    for mname, mm in (("sigma", sigma), ("J", jmat)):
        for form in ("sesquilinear", "bilinear"):
            for algebra in ("jordan", "lie"):
                target = ScalarProduct(mm, form, algebra).target_family()
                r = dsm_instance(target, rng, n, m)
                lift = mm.conj().T
                q = DsmProblem(r.x1, r.x2, lift @ r.y, lift @ r.z, r.w1, r.w2)
                add(f"jordan_lie_reduce/{mname}/{form}/{algebra}", "jordan_lie_reduce",
                    M=mm, form=form, algebra=algebra, **dsm_args(q))
    for form in ("sesquilinear", "bilinear"):
        q = dsm_instance(F.SYMMETRIC, rng, n, m)
        add(f"jordan_lie_reduce/J/{form}/lie/generic", "jordan_lie_reduce",
            M=jmat, form=form, algebra="lie", **dsm_args(q))

    # the three characterize evaluators
    rng = np.random.default_rng(7008)

    def structured(family, k):
        h = crandn(rng, k, k)
        return {
            F.HERMITIAN: h + h.conj().T, F.SKEW_HERMITIAN: h - h.conj().T,
            F.SYMMETRIC: h + h.T, F.SKEW_SYMMETRIC: h - h.T,
        }.get(family, h @ h.conj().T)

    def dissipative_params(x, y, k, sign=1.0):
        zz, gg, low = crandn(rng, k, k), crandn(rng, k, k), crandn(rng, k, k)
        q = 2.0 * sign * y + zz.conj().T @ x
        kk = np.outer(q, q.conj()) / (4.0 * abs(np.vdot(x, y).real)) + low @ low.conj().T
        return {"Z": zz, "K": kk, "G": gg - gg.conj().T}

    for family in F:
        for n in (1, 3):
            x, y = map_instance(family, rng, n)
            if family is F.UNSTRUCTURED:
                params = {"Z": crandn(rng, n, n)}
            elif family in (F.DISSIPATIVE, F.ANTI_DISSIPATIVE):
                params = dissipative_params(x, y, n, -1.0 if family is F.ANTI_DISSIPATIVE else 1.0)
            else:
                params = {"K" if family in (F.PSD, F.NSD) else "H": structured(family, n)}
            add(f"map_characterize/{family.value}/n{n}", "map_characterize",
                family=family.value, x=x, y=y, params=params)
    x, y = map_instance(F.PSD, rng, 3)
    add("map_characterize/psd/indefinite-K", "map_characterize", family="psd", x=x, y=y,
        params={"K": structured(F.HERMITIAN, 3)})
    x, y = map_instance(F.HERMITIAN, rng, 3)
    add("map_characterize/hermitian/missing-H", "map_characterize", family="hermitian", x=x, y=y, params={})
    for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD, F.NSD):
        for n, m in ((1, 1), (3, 2)):
            p = dsm_instance(family, rng, n, m)
            add(f"dsm_characterize/{family.value}/n{n}m{m}", "dsm_characterize", family=family.value,
                K=structured(family, n), R=crandn(rng, n, m), **dsm_args(p))
    p = dsm_instance(F.NSD, rng, 3, 2)
    add("dsm_characterize/nsd/indefinite-K", "dsm_characterize", family="nsd",
        K=structured(F.HERMITIAN, 3), R=crandn(rng, 3, 2), **dsm_args(p))
    for n, m in ((1, 1), (3, 2), (5, 3)):
        p = type2_instance(rng, n, m)
        params = dissipative_params(p.z, p.w1, n)
        add(f"dsm_characterize_type2/n{n}m{m}", "dsm_characterize_type2",
            Z=params["Z"], K=params["K"], G=params["G"], R=crandn(rng, n, m), **dsm_args(p))
    p = type2_instance(rng, 3, 2)
    add("dsm_characterize_type2/shifted-K", "dsm_characterize_type2", Z=crandn(rng, 3, 3),
        K=np.zeros((3, 3), complex), G=np.zeros((3, 3), complex), R=crandn(rng, 3, 2), **dsm_args(p))

    # eta_sd / eta_s on every selection, at a drawn eigenpair and at a random vector
    selections = {
        "eta_sd": ("JR", "RB", "RE", "JRE", "JRB", "REB", "JREB", "JB", "EB", "JEB", "JE"),
        "eta_s": ("JB", "RB", "EB", "JEB", "JR"),
    }
    pencils = {"full": gen_pencil(4, 2, 7009), "low-rank": gen_pencil(4, 2, 7010, r_rank=2, b_rank=1)}
    rng = np.random.default_rng(7011)
    for call, names in selections.items():
        for blocks in names:
            pname = "full" if blocks in ("JR", "RB", "RE", "JRE", "JRB", "REB", "JREB") else "low-rank"
            pen = pencils[pname]
            pdoc = {k: getattr(pen, k) for k in "JREBS"}
            ep = gen_eigpair(pen, 11, blocks, lam=0.7j)
            add(f"{call}/{blocks}/{pname}/drawn", call, blocks=blocks, lam=ep.lam,
                u1=ep.u1, u2=ep.u2, u3=ep.u3, **pdoc)
            add(f"{call}/{blocks}/{pname}/random", call, blocks=blocks, lam=-1.3j,
                u1=crandn(rng, 4), u2=crandn(rng, 4), u3=np.zeros(2, complex), **pdoc)

    # the generators: pencils of several ranks, and an eigenpair for every selection at a fixed and
    # a drawn lambda (RB on two pencils and several seeds: each seed is one row of an RB sweep)
    gens = {
        "full": dict(n=4, m=2, seed=7014, r_rank=None, b_rank=None),
        "low-rank": dict(n=4, m=2, seed=7015, r_rank=2, b_rank=1),
        "wide-B": dict(n=3, m=4, seed=7016, r_rank=None, b_rank=None),
        "n8": dict(n=8, m=3, seed=7017, r_rank=4, b_rank=None),
    }
    for pname, kw in gens.items():
        add(f"gen_pencil/{pname}", "gen_pencil", **kw)
    gpens = {pname: {k: getattr(gen_pencil(**kw), k) for k in "JREBS"} for pname, kw in gens.items()}
    for blocks in ("JR", "JE", "JB", "RE", "RB", "EB", "JRE", "JRB", "REB", "JEB", "JREB"):
        pname = "full" if blocks in ("RB", "JRB", "REB", "JREB", "JE") else "low-rank"
        for ltag, lam in (("fixed", 0.7j), ("drawn", None)):
            add(f"gen_eigpair/{blocks}/{pname}/{ltag}", "gen_eigpair", seed=12, blocks=blocks, lam=lam,
                **gpens[pname])
    for seed in (20, 21, 22):
        for ltag, lam in (("fixed", -1.1j), ("drawn", None)):
            add(f"gen_eigpair/RB/n8/{ltag}/seed{seed}", "gen_eigpair", seed=seed, blocks="RB", lam=lam, **gpens["n8"])
    add("gen_eigpair/JB/full/nonsingular-R", "gen_eigpair", seed=12, blocks="JB", lam=None, **gpens["full"])
    add("gen_eigpair/JR/wide-B/trivial-kernel", "gen_eigpair", seed=12, blocks="JR", lam=None, **gpens["wide-B"])

    # the oracles: least-norm on one- and two-sided data, every family of oracle_min_structured, and
    # oracle_eta on selections with and without R, exact and on the cone
    rng = np.random.default_rng(7018)

    def member(family, k):
        h = crandn(rng, k, k)
        return {F.HERMITIAN: h + h.conj().T, F.SKEW_HERMITIAN: h - h.conj().T,
                F.SYMMETRIC: h + h.T, F.SKEW_SYMMETRIC: h - h.T}.get(family, h)

    for family in (F.UNSTRUCTURED, F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC):
        for n in (3, 8):
            d0, x, z = member(family, n), crandn(rng, n), crandn(rng, n)
            add(f"oracle_least_norm/{family.value}/n{n}", "oracle_least_norm", structure=family.value,
                constraints=[("mul", x, d0 @ x), ("adj", z, d0.conj().T @ z)])
    x, y, z, w = two_sided_instance(rng, 3, 2)
    add("oracle_least_norm/two-sided", "oracle_least_norm", structure=None,
        constraints=[("mul", x, y), ("adj", z, w)])
    add("oracle_least_norm/two-sided/inconsistent", "oracle_least_norm", structure=None,
        constraints=[("mul", x, y), ("adj", z, w + crandn(rng, 2))])
    add("oracle_least_norm/hermitian/not-square", "oracle_least_norm", structure="hermitian",
        constraints=[("mul", x, y), ("adj", z, w)])
    x = crandn(rng, 4, 2)
    add("oracle_least_norm/one-sided/two-columns", "oracle_least_norm", structure=None,
        constraints=[("mul", x[:, 0], crandn(rng, 3)), ("mul", x[:, 1], crandn(rng, 3))])
    for family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC, F.PSD):
        for n, m in ((3, 2), (8, 3)):
            p = dsm_instance(family, rng, n, m)
            add(f"oracle_min_structured/{family.value}/n{n}m{m}", "oracle_min_structured",
                family=family.value, **dsm_args(p))
    p = dsm_instance(F.PSD, rng, 3, 2)
    add("oracle_min_structured/nsd/n3m2", "oracle_min_structured", family="nsd",
        **dsm_args(DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)))
    for n, m in ((3, 2), (8, 3)):
        p = type2_instance(rng, n, m)
        add(f"oracle_min_structured/dissipative/n{n}m{m}", "oracle_min_structured", family="dissipative",
            **dsm_args(p))
        add(f"oracle_min_structured/anti-dissipative/n{n}m{m}", "oracle_min_structured",
            family="anti-dissipative", **dsm_args(DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)))
    for n, m in ((4, 1), (6, 2)):
        q, _ = type1_instance(rng, n, m)
        add(f"oracle_min_structured/type1/dissipative/n{n}m{m}", "oracle_min_structured",
            family="dissipative", X=q.X, Y=q.Y, Z=q.Z, W=q.W)
        add(f"oracle_min_structured/type1/anti-dissipative/n{n}m{m}", "oracle_min_structured",
            family="anti-dissipative", X=q.X, Y=-q.Y, Z=q.Z, W=-q.W)
    opens = {"n4": gen_pencil(4, 2, 7019, r_rank=2, b_rank=1), "n8": gen_pencil(8, 3, 7020, r_rank=4, b_rank=2)}
    for variant, names in (("sd", ("JR", "RE", "JRE", "JREB", "RB", "JB", "JEB")), ("s", ("JB", "EB", "JEB", "JR"))):
        for pname, pen in opens.items():
            pdoc = {k: getattr(pen, k) for k in "JREBS"}
            for blocks in names:
                ep = gen_eigpair(pen, 13, blocks, lam=0.7j)
                add(f"oracle_eta/{variant}/{blocks}/{pname}", "oracle_eta", blocks=blocks, variant=variant,
                    lam=ep.lam, u1=ep.u1, u2=ep.u2, u3=ep.u3, **pdoc)
    pdoc = {k: getattr(opens["n4"], k) for k in "JREBS"}
    add("oracle_eta/s/JEB/n4/inadmissible", "oracle_eta", blocks="JEB", variant="s", lam=0.7j,
        u1=crandn(rng, 4), u2=crandn(rng, 4), u3=np.zeros(2, complex), **pdoc)
    add("oracle_eta/sd/JREB/n4/u3-nonzero", "oracle_eta", blocks="JREB", variant="sd", lam=0.7j,
        u1=crandn(rng, 4), u2=crandn(rng, 4), u3=crandn(rng, 2), **pdoc)

    # the CLI: map solve for every kind, feasible and infeasible; backerr; verify
    rng = np.random.default_rng(7012)

    def solve_argv(family, two_sided):
        argv = ["map", "solve", "--family", family, "--x", "@x", "--y", "@y"]
        return argv + (["--z", "@z", "--w", "@w"] if two_sided else [])

    def cli_solve(name, family, x, y, z=None, w=None):
        files = {"x": x, "y": y} if z is None else {"x": x, "y": y, "z": z, "w": w}
        add(name, "cli", argv=solve_argv(family, z is not None), files=files)

    def flat(p):
        return p.x, p.y, p.z, p.w

    x, y = map_instance(F.HERMITIAN, rng, 3)
    cli_solve("cli/map-min/hermitian", "hermitian", x, y)
    x, y = map_instance(F.PSD, rng, 3)
    cli_solve("cli/map-min/psd", "psd", x, y)
    cli_solve("cli/map-min/nsd/infeasible", "nsd", x, y)
    x, y = map_instance(F.DISSIPATIVE, rng, 3)
    cli_solve("cli/map-min/anti-dissipative/infeasible", "anti-dissipative", x, y)
    x, y, z, w = two_sided_instance(rng, 3, 2)
    cli_solve("cli/map-two-sided", "unstructured", x, y, z, w)
    cli_solve("cli/map-two-sided/infeasible", "unstructured", x, y, z, w + crandn(rng, 2))
    x, y, z, w = type1_vec_instance(rng, 3)
    cli_solve("cli/dsdm-type1", "dissipative", x, y, z, w)
    cli_solve("cli/dsdm-type1/anti", "anti-dissipative", x, -y, z, -w)
    cli_solve("cli/dsdm-type1/infeasible", "anti-dissipative", x, y, z, w)
    p = type2_instance(rng, 2, 1, exact=True)
    cli_solve("cli/dsdm-type2", "dissipative", *flat(p))
    cli_solve("cli/dsdm-type2/anti", "anti-dissipative", p.x, -p.y, p.z, -p.w)
    cli_solve("cli/dsdm-type2/infeasible", "anti-dissipative", *flat(p))
    p = dsm_instance(F.HERMITIAN, rng, 3, 2, exact=True)
    cli_solve("cli/dsm/hermitian", "hermitian", *flat(p))
    p = dsm_instance(F.PSD, rng, 2, 1, exact=True)
    cli_solve("cli/dsm/psd", "psd", *flat(p))
    cli_solve("cli/dsm/nsd/infeasible", "nsd", *flat(p))
    cli_solve("cli/dsm/psd/incompatible", "psd", p.x, p.y + crandn(rng, 2), p.z, p.w)
    cli_solve("cli/dsm/hermitian/square", "hermitian", crandn(rng, 2), crandn(rng, 2), crandn(rng, 2), crandn(rng, 2))

    pen = gen_pencil(3, 2, 7013)
    pdoc = pencil_to_doc(pen)
    back = ["backerr", "--pencil", "@pencil", "--lambda", "0.5i", "--blocks", "JREB", "--variant", "sd"]
    add("cli/backerr/seeded", "cli", argv=back + ["--seed", "7"], files={"pencil": pdoc})
    u = np.concatenate([crandn(rng, 6), np.zeros(2, complex)])
    back_s = ["backerr", "--pencil", "@pencil", "--lambda=-1.1i", "--variant", "s"]
    add("cli/backerr/given-u", "cli", argv=back_s + ["--blocks", "RB", "--u", "@u"], files={"pencil": pdoc, "u": u})
    add("cli/backerr/prior-work", "cli", argv=back_s + ["--blocks", "JR", "--seed", "7"], files={"pencil": pdoc})

    for name in VERIFY_SOURCES:  # ``build`` gives each its input
        add(name, "cli", argv=["verify", "--result", "@result"], files={"result": None})
    return cases


#: the case whose printed document each ``cli/verify/*`` case re-checks (``tampered`` with one entry altered)
VERIFY_SOURCES = {
    "cli/verify/map-min": "cli/map-min/hermitian",
    "cli/verify/map-two-sided": "cli/map-two-sided",
    "cli/verify/dsdm-type1": "cli/dsdm-type1",
    "cli/verify/dsdm-type1-anti": "cli/dsdm-type1/anti",
    "cli/verify/dsdm-type2": "cli/dsdm-type2",
    "cli/verify/dsdm-type2-anti": "cli/dsdm-type2/anti",
    "cli/verify/dsm": "cli/dsm/hermitian",
    "cli/verify/dsm-psd": "cli/dsm/psd",
    "cli/verify/backerr": "cli/backerr/seeded",
    "cli/verify/tampered": "cli/dsm/hermitian",
}


def verify_input(name, source_out):
    """The document a ``cli/verify/*`` case re-checks: what its source case printed, as stored."""
    doc = json.loads(json.dumps(source_out["doc"]))
    if name == "cli/verify/tampered":
        doc["solution"]["H1"]["re"][0][0] += 0.25
    return doc


def build(stored=()):
    """The corpus, and the ids of the stored cases whose output (or ``verify`` input) has changed.

    A case already in ``stored`` keeps its stored inputs,
    and its stored output unless ``mismatches`` finds a change; every other
    case is encoded from the inputs ``_cases`` draws now.  A ``cli/verify/*``
    case takes its input from the output its source case has in the new
    corpus (``VERIFY_SOURCES``), so it never re-checks a stale document.
    """
    old = {case["id"]: case for case in stored}
    corpus, changed, done = [], [], {}
    for name, call, args in _cases():
        args = encode(args)
        if name in VERIFY_SOURCES:
            args["files"]["result"] = verify_input(name, done[VERIFY_SOURCES[name]]["out"])
        case = old.get(name)
        if case is None:
            case = {"id": name, "call": call, "args": args, "out": evaluate(call, args)}
        else:
            if name in VERIFY_SOURCES:
                case = dict(case, args=args)
            out = evaluate(call, case["args"])
            if case["args"] != old[name]["args"] or mismatches(out, case["out"]):
                changed.append(name)
                case = dict(case, out=out)
        corpus.append(case)
        done[name] = case
    return corpus, changed


def load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(HERE))  # tests/, for helpers
    stored = load() if os.path.exists(CORPUS) else []
    corpus, changed = build(stored)
    ids = [c["id"] for c in corpus]
    assert len(ids) == len(set(ids)), "case ids must be unique"
    before = {c["id"]: c for c in stored}
    after = dict(zip(ids, corpus))
    for tag, names in (("changed", changed), ("new", [i for i in ids if i not in before]),
                       ("dropped", sorted(set(before) - set(ids)))):
        for name in names:
            print(f"{tag}: {name}")
            if tag == "changed":  # what moved: (path, new, old) of each number, flag or message
                for path, now, was in mismatches(after[name]["out"], before[name]["out"]) or [(".args", "changed", "")]:
                    moved = f"moved by {was:.3e}, norm-wise" if now == "array differs" else f"{now!r} (was {was!r})"
                    print(f"    {path}: {moved}")
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=0)
        fh.write("\n")
    print(f"wrote {CORPUS} ({len(corpus)} cases)")

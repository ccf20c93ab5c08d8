"""The four workloads: their inputs, the timed call of each operation and its check.

A workload is built from a seed into one *round*: a list of operations in
a fixed, seeded, interleaved order.  A run repeats whole rounds, so every
run attempts the same mix and the share of failed operations is the same
in every run.  Each operation's ``call`` is the only timed part; its
``check`` compares the output with the case the benchmark built (see
``checks.py``) and returns True when the operation failed because of a
known fault, raising ``CheckError`` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import checks as ck
from checks import BILINEAR, crandn, fro, require

import dsmkit
from dsmkit import cli as dcli
from dsmkit import io as dio
from dsmkit import oracle as doracle

WORKLOADS = ("sweep", "solve", "certify", "cli")

#: the sweep's lambda grid: 25 points alternating between +[0.3, 2]i and -[0.3, 2]i
LAMBDAS = [(-1) ** k * 1j * (0.3 + 1.7 * k / 24) for k in range(25)]

#: seed of the 1e160-scaled problems, which do not depend on --seed
HUGE_SEED = 160
HUGE_SCALE = 1e160

#: seed of certify's type-2 oracle problems, which do not depend on --seed: that
#: oracle's cost is heavy-tailed in the data (per-problem CV 0.6-1.3 in L-BFGS
#: evaluations at n = 3), so a few seeded draws would move certify by more than any bound
TYPE2_SEED = 2

#: certify's round: sd-eta oracle problems per block selection, and type-2 oracle problems
CERTIFY_SD_PER_BLOCKS = 16
CERTIFY_TYPE2 = 2

#: seed of solve's n = 512 problems, which do not depend on --seed: they set the
#: workload's throughput, and the psd call's eigvals on a rank-one matrix takes
#: 350-400 ms for most data but 550-670 ms for some
LARGE_SEED = 512


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind, self.call, self.check = kind, call, check


def _ok(check):
    """Wrap a check that returns nothing into one that reports 'not failed'."""
    def run(out):
        check(out)
        return False
    return run


# ---------------------------------------------------------------------------
# random structured data


def family_matrix(rng, family: str, n: int, rank: int = 2):
    """A random member of the family (the cone families have low-rank PSD parts)."""
    if family in ("psd", "nsd", "dissipative", "anti-dissipative"):
        g = crandn(rng, n, rank)
        k = g @ g.conj().T
        if family in ("psd", "nsd"):
            return k if family == "psd" else -k
        a = crandn(rng, n, n)
        return (k if family == "dissipative" else -k) + (a - a.conj().T)
    return ck.random_in_family(rng, family, n)


def _break_one_sided(family, x, y):
    """Data that no member of the family maps x to (a necessary condition fails)."""
    if family == "hermitian":
        return y + 1j * x  # x*y gets imaginary part ||x||^2
    if family == "skew-hermitian":
        return y + x  # x*y gets real part ||x||^2
    if family == "skew-symmetric":
        return y + x.conj()  # x^T y gets ||x||^2
    return -y  # psd/nsd/dissipative: the sign of x*y (or Re x*y) flips


def _break_two_block(family, x, y, z, w, n):
    """Make a doubly structured problem infeasible through the condition on z*w1."""
    w = w.copy()
    if family == "hermitian":
        w[:n] += 1j * z
    elif family == "skew-hermitian":
        w[:n] += z
    elif family == "skew-symmetric":
        w[:n] += z.conj()
    elif family in ("psd", "nsd"):
        w[:n] = -w[:n]
    elif family == "dissipative":
        w[:n] -= (2 * abs(np.vdot(z, w[:n]).real) / np.vdot(z, z).real + 1) * z
    elif family == "anti-dissipative":
        w[:n] += (2 * abs(np.vdot(z, w[:n]).real) / np.vdot(z, z).real + 1) * z
    else:  # symmetric has no structural condition: break x*w = y*z
        y = y + z
    return y, w


def two_block_case(rng, family, n, m, mode="feasible"):
    """Data (x, y, z, w) made from a known Delta = [Delta1 Delta2], Delta1 in the family."""
    d = np.hstack([family_matrix(rng, family, n), crandn(rng, n, m)])
    z = crandn(rng, n)
    x = crandn(rng, n + m)
    if mode == "exact":  # x1 colinear with z (with conj(z) for the bilinear families)
        x[:n] = (0.7 - 0.4j) * (z.conj() if family in BILINEAR else z)
    y, w = d @ x, d.conj().T @ z
    if mode == "infeasible":
        y, w = _break_two_block(family, x, y, z, w, n)
    return {"kind": "dsm", "family": family, "n": n, "x": x, "y": y, "z": z, "w": w,
            "feasible": mode != "infeasible", "true_norm": fro(d)}


def one_sided_case(rng, family, n, mode="feasible"):
    d = family_matrix(rng, family, n)
    x = crandn(rng, n)
    y = d @ x
    if mode == "infeasible":
        y = _break_one_sided(family, x, y)
    return {"kind": "one-sided", "family": family, "x": x, "y": y,
            "feasible": mode != "infeasible", "true_norm": fro(d)}


def two_sided_case(rng, n, m, mode="feasible"):
    d = crandn(rng, n, m)
    x, z = crandn(rng, m), crandn(rng, n)
    y, w = d @ x, d.conj().T @ z
    if mode == "infeasible":
        y = y + z  # x*w = y*z fails
    return {"kind": "two-sided", "family": "unstructured", "x": x, "y": y, "z": z, "w": w,
            "feasible": mode != "infeasible", "true_norm": fro(d)}


def type1_case(rng, n, mode="feasible"):
    """Square dissipative data with X, Z of two columns and range(X) = range(Z)."""
    d = family_matrix(rng, "dissipative", n)
    xm = crandn(rng, n, 2)
    zm = xm @ crandn(rng, 2, 2)
    ym, wm = d @ xm, d.conj().T @ zm
    if mode == "infeasible":
        ym = -ym  # X*Y + Y*X becomes negative semidefinite and nonzero
    return {"kind": "type1", "family": "dissipative", "x": xm, "y": ym, "z": zm, "w": wm,
            "feasible": mode != "infeasible", "true_norm": fro(d)}


def type1_vec_case(rng, n, mode="feasible"):
    d = family_matrix(rng, "dissipative", n)
    x = crandn(rng, n)
    z = (0.6 + 0.8j) * 1.7 * x
    y, w = d @ x, d.conj().T @ z
    if mode == "infeasible":
        y, w = -y, -w  # Re(x*y) < 0
    return {"kind": "type1", "family": "dissipative", "x": x, "y": y, "z": z, "w": w,
            "feasible": mode != "infeasible", "true_norm": fro(d)}


def jordan_case(rng, n, m, form, algebra, mode="feasible"):
    """Delta1 in the Jordan or Lie algebra of a unitary M: diag(+-1) (sesquilinear)
    or the symplectic J (bilinear), so that M Delta1 lies in a base family."""
    if form == "sesquilinear":
        mm = np.diag(np.where(np.arange(n) % 2 == 0, 1.0, -1.0)).astype(complex)
        fam = "hermitian" if algebra == "jordan" else "skew-hermitian"
    else:
        h = n // 2
        mm = np.zeros((n, n), dtype=complex)
        mm[:h, h:] = np.eye(h)
        mm[h:, :h] = -np.eye(h)
        fam = "skew-symmetric" if algebra == "jordan" else "symmetric"
    d1 = mm.conj().T @ ck.random_in_family(rng, fam, n)
    d = np.hstack([d1, crandn(rng, n, m)])
    x, z = crandn(rng, n + m), crandn(rng, n)
    y, w = d @ x, d.conj().T @ z
    if mode == "infeasible":
        y = y + z
    eps = 1 if algebra == "jordan" else -1
    return {"kind": "dsm", "family": "unstructured", "n": n, "x": x, "y": y, "z": z, "w": w,
            "feasible": mode != "infeasible", "true_norm": fro(d),
            "adjoint": (mm, eps, form == "bilinear"), "sp": (mm, form, algebra)}


def huge_case(rng):
    """A feasible Hermitian problem with every vector scaled by 1e160."""
    case = two_block_case(rng, "hermitian", 16, 4)
    for key in "xyzw":
        case[key] = case[key] * HUGE_SCALE
    return case


# ---------------------------------------------------------------------------
# solver outputs in one shape


def _problem(case):
    n, x, w = case["n"], case["x"], case["w"]
    return dsmkit.DsmProblem(x[:n], x[n:], case["y"], case["z"], w[:n], w[n:])


def _from_dsm(sol):
    return {"feasible": sol.feasible, "H": sol.H if sol.feasible else None,
            "lower": sol.norm_lower, "upper": sol.norm_upper, "exact": sol.exact}


def _from_map(sol):
    return {"feasible": sol.feasible, "H": sol.minimizer, "lower": sol.min_norm,
            "upper": sol.min_norm, "exact": sol.feasible and not sol.boundary}


def _from_type1(sol):
    return {"feasible": sol.feasible, "H": sol.minimizer, "lower": sol.min_norm,
            "upper": sol.min_norm, "exact": sol.exact}


def solver_call(case, solver):
    """The timed call of one mapping solver on ``case``; returns the raw solution."""
    fam = case["family"]
    x, y, z, w = case["x"], case["y"], case.get("z"), case.get("w")
    if solver == "dsm_solve":
        return lambda: dsmkit.dsm_solve(fam, _problem(case))
    if solver == "dsdm_type2":
        return lambda: dsmkit.dsdm_type2(_problem(case), anti=fam == "anti-dissipative")
    if solver == "dsdm_type1":
        return lambda: dsmkit.dsdm_type1(dsmkit.Type1Problem(x, y, z, w))
    if solver == "dsdm_type1_vec":
        return lambda: dsmkit.dsdm_type1_vec(x, y, z, w)
    if solver == "map_min":
        return lambda: dsmkit.map_min(fam, x, y)
    if solver == "map_two_sided":
        return lambda: dsmkit.map_two_sided(x, y, z, w)
    if solver == "jordan_lie_reduce":
        mm, form, algebra = case["sp"]
        return lambda: dsmkit.jordan_lie_reduce(dsmkit.ScalarProduct(mm, form, algebra), _problem(case))
    raise ValueError(solver)


def normalize(solver, sol):
    if solver in ("map_min", "map_two_sided"):
        return _from_map(sol)
    if solver in ("dsdm_type1", "dsdm_type1_vec"):
        return _from_type1(sol)
    return _from_dsm(sol)


def solve_op(case, solver, rng, known_fault=False):
    """One solver call; ``known_fault`` marks the 1e160 problems counted as failed."""
    def check(sol):
        out = normalize(solver, sol)
        if known_fault and not out["feasible"]:
            return True
        ck.check_mapping(case, out, rng)
        return False
    label = f"{solver}:{case['family']}:n{case.get('n', case['x'].shape[0])}"
    return Op(label, solver_call(case, solver), check)


# ---------------------------------------------------------------------------
# solve


DSM_FAMILIES = ("hermitian", "skew-hermitian", "symmetric", "skew-symmetric", "psd", "nsd")
MAP_FAMILIES = ("unstructured", "hermitian", "skew-hermitian", "symmetric", "skew-symmetric",
                "psd", "nsd", "dissipative", "anti-dissipative")
ALWAYS_FEASIBLE = ("unstructured", "symmetric")


def build_solve(seed):
    """76 solver calls: 19 infeasible, 2 at 1e160 scale, 5 at n = 512, the rest at n = 16.

    At n = 16 the best-of-round times fall in clusters: early rejects of
    infeasible data (~0.07 ms), map_min and map_two_sided (~0.14 ms), the
    linear dsm_solve families, dsdm_type1_vec and dsdm_type2 (~0.3 ms), and
    the psd/nsd, type-1, anti type-2 and Jordan/Lie calls (0.4-0.6 ms).
    The counts put the median in the middle of the ~0.3 ms cluster, with
    as many calls below that cluster as above it, so that no step between
    two kinds of call sits at the median.
    """
    rng = np.random.default_rng(seed)
    crng = np.random.default_rng(seed + 1)  # tangent directions for the minimality checks
    n, m, big_n, big_m = 16, 4, 512, 128
    ops = []
    for fam in DSM_FAMILIES:
        modes = ("feasible", "feasible", "exact", "infeasible")
        if fam in ("psd", "nsd"):
            modes += ("feasible",)
        for mode in modes:
            ops.append(solve_op(two_block_case(rng, fam, n, m, mode), "dsm_solve", crng))
    for fam, modes in (("dissipative", ("feasible", "feasible", "infeasible")),
                       ("anti-dissipative", ("feasible", "feasible", "feasible", "infeasible"))):
        for mode in modes:
            ops.append(solve_op(two_block_case(rng, fam, n, m, mode), "dsdm_type2", crng))
    for mode in ("feasible", "feasible", "feasible", "feasible", "infeasible"):
        ops.append(solve_op(type1_case(rng, n, mode), "dsdm_type1", crng))
    for mode in ("feasible", "feasible", "infeasible"):
        ops.append(solve_op(type1_vec_case(rng, n, mode), "dsdm_type1_vec", crng))
        ops.append(solve_op(two_sided_case(rng, n, n, mode), "map_two_sided", crng))
    for fam in MAP_FAMILIES:
        modes = ("feasible",) + (() if fam in ALWAYS_FEASIBLE else ("infeasible",))
        for mode in modes:
            ops.append(solve_op(one_sided_case(rng, fam, n, mode), "map_min", crng))
    for form, algebra in (("sesquilinear", "jordan"), ("sesquilinear", "lie"),
                          ("bilinear", "jordan"), ("bilinear", "lie")):
        for _ in range(2):
            ops.append(solve_op(jordan_case(rng, n, m, form, algebra), "jordan_lie_reduce", crng))
    ops.append(solve_op(jordan_case(rng, n, m, "bilinear", "lie", "infeasible"), "jordan_lie_reduce", crng))
    huge = np.random.default_rng(HUGE_SEED)
    for _ in range(2):
        ops.append(solve_op(huge_case(huge), "dsm_solve", crng, known_fault=True))
    big = np.random.default_rng(LARGE_SEED)
    for fam in ("psd", "hermitian", "symmetric"):
        ops.append(solve_op(two_block_case(big, fam, big_n, big_m), "dsm_solve", crng))
    ops.append(solve_op(two_block_case(big, "dissipative", big_n, big_m), "dsdm_type2", crng))
    ops.append(solve_op(two_sided_case(big, big_n, big_n), "map_two_sided", crng))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# sweep


def pencil_dict(P):
    return {"J": P.J, "R": P.R, "E": P.E, "B": P.B, "S": P.S}


SWEEP_TABLES = (("JREB", "sd"), ("JRB", "sd"), ("JRE", "sd"), ("JEB", "s"), ("RB", "sd"))


def sweep_op(P, blocks, variant, ep_seed, check_row):
    lams = LAMBDAS
    eta = dsmkit.eta_sd if variant == "sd" else dsmkit.eta_s

    def check(rows):
        ck.check_rows(rows, lams)
        # rebuild one row: the eigenvector as experiment_table draws it, then the blocks
        lam = lams[check_row]
        if blocks == "RB":
            ep = dsmkit.gen_eigpair(P, ep_seed + check_row, blocks, lam=lam)
        else:
            first = dsmkit.gen_eigpair(P, ep_seed, blocks, lam=lams[0])
            ep = dsmkit.EigenPair(lam, first.u1, first.u2, first.u3)
        res = eta(P, ep, blocks)
        row = rows[check_row]
        for end in ("eta_lower", "eta_upper"):
            require(getattr(res, end) == row[end], "row_repeatable", f"{end} {row[end]!r}")
        ck.check_rebuilt_row(pencil_dict(P), res.H1, res.H2, lam, ep.u, blocks, variant,
                             res.eta_lower, res.eta_upper, res.exact)
        base = (res.eta_lower, res.eta_upper)
        c = 2.5 * np.exp(0.7j)
        r = eta(P, ep.scaled(c), blocks)
        ck.check_scaling(base, (r.eta_lower, r.eta_upper), 1.0, "eta_vs_u_scale")
        s = 2.5
        sp = dsmkit.PHPencil(s * P.J, s * P.R, s * P.E, s * P.B, s * P.S)
        r = eta(sp, ep, blocks)
        ck.check_scaling(base, (r.eta_lower, r.eta_upper), s, "eta_vs_pencil_scale")
        return False

    call = lambda: dsmkit.experiment_table(P, lams, ep_seed, blocks, variant=variant)
    return Op(f"experiment_table:{blocks}:{variant}", call, check)


def build_sweep(seed):
    rng = np.random.default_rng(seed)
    ops = []
    for blocks, variant in SWEEP_TABLES:
        P = dsmkit.gen_pencil(256, 64, int(rng.integers(2**31)), r_rank=128)
        ops.append(sweep_op(P, blocks, variant, int(rng.integers(2**31)), int(rng.integers(25))))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# certify


CERT_TOL = 1e-8
DESCENT_TOL = 1e-6  # the descent oracles end on a penalty or step tolerance


def _check_oracle_delta(case, delta, norm):
    require(abs(fro(delta) - norm) <= CERT_TOL * norm, "oracle_norm", f"{norm!r} != ||Delta||")
    # a descent oracle's point may be worse than the generating matrix, so drop that bound
    ck.check_mapping(dict(case, true_norm=float("inf")),
                     {"feasible": True, "H": delta, "lower": norm, "upper": norm, "exact": False}, None)


def certify_mapping_op(case, solver, oracle, rng):
    """Closed form, then the oracle on the same data, then the comparison."""
    closed = solver_call(case, solver)
    fam = case["family"]
    if oracle == "least_norm":
        run_oracle = lambda: doracle.oracle_least_norm([("mul", case["x"], case["y"])], fam)
    elif solver == "dsdm_type1":
        q = lambda: dsmkit.Type1Problem(case["x"], case["y"], case["z"], case["w"])
        run_oracle = lambda: doracle.oracle_min_structured(q(), fam)
    else:
        run_oracle = lambda: doracle.oracle_min_structured(_problem(case), fam)
    exact_oracle = fam in ck.LINEAR

    def call():
        return closed(), run_oracle()

    def check(res):
        sol, (delta, norm) = res
        out = normalize(solver, sol)
        ck.check_mapping(case, out, rng)
        _check_oracle_delta(case, delta, norm)
        tol = CERT_TOL if exact_oracle else DESCENT_TOL
        require(norm >= out["lower"] * (1 - tol), "oracle_vs_lower", f"{norm!r} < {out['lower']!r}")
        if exact_oracle:  # a global minimum undercuts every feasible point
            require(norm <= out["upper"] * (1 + tol), "oracle_vs_upper", f"{norm!r} > {out['upper']!r}")
        if out["exact"]:
            require(norm >= out["upper"] * (1 - tol), "oracle_vs_exact", f"{norm!r} < {out['upper']!r}")
            if exact_oracle:
                require(abs(norm - out["upper"]) <= tol * out["upper"], "oracle_matches",
                        f"{norm!r} != {out['upper']!r}")
        return False

    return Op(f"certify:{solver}:{fam}", call, check)


def certify_eta_op(P, ep, blocks, variant):
    eta = dsmkit.eta_sd if variant == "sd" else dsmkit.eta_s
    pd = pencil_dict(P)

    def call():
        return eta(P, ep, blocks), doracle.oracle_eta(P, ep, blocks, variant)

    def check(res):
        closed, orc = res
        ck.check_bounds(closed.eta_lower, closed.eta_upper)
        ck.check_rebuilt_row(pd, closed.H1, closed.H2, ep.lam, ep.u, blocks, variant,
                             closed.eta_lower, closed.eta_upper, closed.exact)
        exact_oracle = variant == "s"
        tol = CERT_TOL if exact_oracle else DESCENT_TOL
        require(orc.converged, "oracle_converged", f"residual {orc.constraint_residual:.3e}")
        pb = orc.perturbation
        norm = ck.check_perturbation(pd, pb.dJ, pb.dR, pb.dE, pb.dB, ep.lam, ep.u, blocks, variant, tol)
        require(abs(norm - orc.value) <= CERT_TOL * orc.value, "oracle_norm", f"{orc.value!r}")
        require(orc.value >= closed.eta_lower * (1 - tol), "oracle_vs_lower",
                f"{orc.value!r} < {closed.eta_lower!r}")
        if closed.exact:
            require(orc.value >= closed.eta_upper * (1 - tol), "oracle_vs_exact",
                    f"{orc.value!r} < {closed.eta_upper!r}")
            if exact_oracle:
                require(abs(orc.value - closed.eta_upper) <= tol * closed.eta_upper, "oracle_matches",
                        f"{orc.value!r} != {closed.eta_upper!r}")
        return False

    return Op(f"certify:eta_{variant}:{blocks}", call, check)


def build_certify(seed):
    rng = np.random.default_rng(seed)
    crng = np.random.default_rng(seed + 1)
    ops = []
    for fam in ("hermitian", "skew-hermitian", "symmetric", "skew-symmetric"):
        for mode in ("feasible", "exact"):
            ops.append(certify_mapping_op(two_block_case(rng, fam, 8, 2, mode), "dsm_solve", "min", crng))
    for fam in ("unstructured", "hermitian", "skew-hermitian", "symmetric", "skew-symmetric"):
        ops.append(certify_mapping_op(one_sided_case(rng, fam, 16), "map_min", "least_norm", crng))
    for mode in ("feasible", "exact"):
        ops.append(certify_mapping_op(two_block_case(rng, "psd", 4, 1, mode), "dsm_solve", "min", crng))
    for _ in range(2):
        ops.append(certify_mapping_op(type1_case(rng, 4), "dsdm_type1", "min", crng))
    fixed = np.random.default_rng(TYPE2_SEED)
    for _ in range(CERTIFY_TYPE2):
        ops.append(certify_mapping_op(two_block_case(fixed, "dissipative", 3, 1), "dsdm_type2", "min", crng))
    for blocks in ("JREB", "JRB", "JR"):
        for _ in range(CERTIFY_SD_PER_BLOCKS):
            P = dsmkit.gen_pencil(3, 1, int(rng.integers(2**31)))
            ep = dsmkit.gen_eigpair(P, int(rng.integers(2**31)), blocks)
            ops.append(certify_eta_op(P, ep, blocks, "sd"))
    for blocks in ("JEB", "EB", "RB"):
        P = dsmkit.gen_pencil(4, 1, int(rng.integers(2**31)), r_rank=None if blocks == "RB" else 2)
        ep = dsmkit.gen_eigpair(P, int(rng.integers(2**31)), blocks)
        ops.append(certify_eta_op(P, ep, blocks, "s"))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# cli


def _save_vectors(d, prefix, case):
    names = {}
    for key in ("x", "y", "z", "w"):
        if case.get(key) is not None:
            names[key] = os.path.join(d, f"{prefix}_{key}.json")
            dio.save_json(names[key], dio.vector_to_doc(case[key]))
    return names


def _in_process(argv, path):
    """Run dsmkit.cli.main in this process and store its JSON output (an input of verify)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dcli.main(argv)
    if code != 0:
        raise RuntimeError(f"input generation failed: dsmkit {' '.join(argv)} -> {code}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())


def _mats(doc, *names):
    return [dio.matrix_from_doc(doc[k], k) for k in names]


class CliRunner:
    """Runs one CLI command in a fresh interpreter started with ``prefix``."""

    def __init__(self, root, env, outdir):
        self.root, self.env, self.outdir = root, env, outdir
        self.prefix = [sys.executable, "-m", "dsmkit.cli"]

    def run(self, argv, outputs=()):
        proc = subprocess.run(self.prefix + argv, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        written = sum(os.path.getsize(p) for p in outputs if os.path.exists(p))
        return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
                "bytes_out": len(proc.stdout.encode()) + written}


def build_cli(seed, runner):
    rng = np.random.default_rng(seed)
    crng = np.random.default_rng(seed + 1)
    d = runner.outdir
    n, m = 64, 16
    pseed = int(rng.integers(2**31))
    P = dsmkit.gen_pencil(n, m, pseed, r_rank=n // 2)
    pencil_path = os.path.join(d, "pencil.json")
    dio.save_json(pencil_path, dio.pencil_to_doc(P))
    ep_seed = int(rng.integers(2**31))
    lam = "0.7i"

    one = one_sided_case(rng, "hermitian", n)
    one_files = _save_vectors(d, "one", one)
    two = two_sided_case(rng, n, n)
    two_files = _save_vectors(d, "two", two)
    dsm = two_block_case(rng, "psd", n, m)
    dsm_files = _save_vectors(d, "dsm", dsm)
    bad = two_block_case(rng, "psd", n, m, "infeasible")
    bad_files = _save_vectors(d, "bad", bad)

    # documents for verify, made by the program itself during set-up
    small_dsm = two_block_case(rng, "hermitian", 12, 4, "exact")
    sd_files = _save_vectors(d, "vdsm", small_dsm)
    small_map = one_sided_case(rng, "hermitian", 16)
    sm_files = _save_vectors(d, "vmap", small_map)
    docs = {k: os.path.join(d, f"result_{k}.json") for k in ("backerr", "dsm", "map")}
    _in_process(["backerr", "--pencil", pencil_path, "--lambda", "1.3i", "--blocks", "JRB",
                 "--variant", "sd", "--seed", str(ep_seed + 1)], docs["backerr"])
    _in_process(["map", "solve", "--family", "hermitian", "--x", sd_files["x"], "--y", sd_files["y"],
                 "--z", sd_files["z"], "--w", sd_files["w"]], docs["dsm"])
    _in_process(["map", "solve", "--family", "hermitian", "--x", sm_files["x"], "--y", sm_files["y"]],
                docs["map"])

    def vec_args(files):
        out = []
        for key in ("x", "y", "z", "w"):
            if key in files:
                out += [f"--{key}", files[key]]
        return out

    def expect(code):
        def check(res):
            require(res["code"] == code, "exit_code", f"{res['code']} (want {code}): {res['stderr'][-300:]}")
        return check

    def map_check(case, family, code=0):
        def check(res):
            expect(code)(res)
            doc = json.loads(res["stdout"])
            require(doc["feasible"] == case["feasible"], "verdict", str(doc["feasible"]))
            if not case["feasible"]:
                return
            sol = doc["solution"]
            h = np.hstack(_mats(sol, "H1", "H2")) if "H1" in sol else _mats(sol, "delta")[0]
            norms = doc["norms"]
            out = {"feasible": True, "H": h, "lower": norms["lower"], "upper": norms["upper"],
                   "exact": norms["exact"]}
            ck.check_mapping(dict(case, family=family), out, crng)
            require(doc["residuals"]["ok"], "residuals_ok")
        return check

    gen_out = os.path.join(d, "gen.json")

    def gen_check(res):
        expect(0)(res)
        with open(gen_out, encoding="utf-8") as fh:
            doc = json.load(fh)
        blk = dict(zip("JREBS", _mats(doc, "J", "R", "E", "B", "S")))
        require(blk["J"].shape == (n, n) and blk["S"].shape == (m, m), "pencil_shape")
        ck.check_pencil_blocks(blk)

    def validate_check(res):
        expect(0)(res)
        lines = res["stdout"].split()
        require(len(lines) == 12 and all(v == "pass" for v in lines[1::2]), "validate", res["stdout"])

    def backerr_check(res):
        expect(0)(res)
        doc = json.loads(res["stdout"])
        b = doc["bounds"]
        u = dio.vector_from_doc(doc["problem"]["u"], "u")
        h1, h2 = _mats(b, "H1", "H2")
        ck.check_rebuilt_row(pencil_dict(P), h1, h2, 0.7j, u, "JREB", "sd",
                             b["eta_lower"], b["eta_upper"], b["exact"])

    sweep_lams = [0.4, -0.9, 1.3, -1.6, 1.9]
    csv_out = os.path.join(d, "sweep.csv")

    def sweep_check(res):
        expect(0)(res)
        with open(csv_out, encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        require(lines[0].startswith("lambda,eta_lower,eta_upper,finite"), "csv_header", lines[0])
        require(len(lines) == 1 + len(sweep_lams), "csv_rows", str(len(lines)))
        for line, want in zip(lines[1:], sweep_lams):
            lam, lo, up, fin = line.split(",")[:4]
            require(float(lam[:-1]) == want, "csv_lambda", lam)
            require(fin == "true", "csv_finite", line)
            ck.check_bounds(float(lo), float(up))

    def verify_check(res):
        expect(0)(res)
        require(json.loads(res["stdout"])["ok"] is True, "verify_ok", res["stdout"][:300])

    specs = [
        ("pencil-gen", ["pencil", "gen", "--n", str(n), "--m", str(m), "--seed", str(pseed), "-o", gen_out],
         [gen_out], gen_check),
        ("pencil-validate", ["pencil", "validate", pencil_path], [], validate_check),
        ("backerr", ["backerr", "--pencil", pencil_path, "--lambda", lam, "--blocks", "JREB",
                     "--variant", "sd", "--seed", str(ep_seed)], [], backerr_check),
        ("backerr-sweep", ["backerr", "sweep", "--pencil", pencil_path, "--lambdas",
                           ",".join(f"{v!r}i" for v in sweep_lams), "--blocks", "JRB", "--variant", "sd",
                           "--seed", str(ep_seed), "--csv", csv_out], [csv_out], sweep_check),
        ("map-one-sided", ["map", "solve", "--family", "hermitian"] + vec_args(one_files), [],
         map_check(one, "hermitian")),
        ("map-two-sided", ["map", "solve", "--family", "unstructured"] + vec_args(two_files), [],
         map_check(two, "unstructured")),
        ("map-dsm", ["map", "solve", "--family", "psd"] + vec_args(dsm_files), [], map_check(dsm, "psd")),
        ("map-dsm-infeasible", ["map", "solve", "--family", "psd"] + vec_args(bad_files), [],
         map_check(bad, "psd", code=2)),
        ("verify-backerr", ["verify", "--result", docs["backerr"]], [], verify_check),
        ("verify-dsm", ["verify", "--result", docs["dsm"]], [], verify_check),
        ("verify-map-min", ["verify", "--result", docs["map"]], [], verify_check),
    ]
    ops = [Op(f"cli:{label}", (lambda a=argv, o=outs: runner.run(a, o)), _ok(check))
           for label, argv, outs, check in specs]
    return [ops[i] for i in rng.permutation(len(ops))]


def build(name, seed, cli_runner=None):
    if name == "sweep":
        return build_sweep(seed)
    if name == "solve":
        return build_solve(seed)
    if name == "certify":
        return build_certify(seed)
    if name == "cli":
        return build_cli(seed, cli_runner)
    raise ValueError(f"unknown workload {name!r}")

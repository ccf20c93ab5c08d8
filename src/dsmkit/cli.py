"""Command-line interface.

Exit codes: 0 success (feasible), 1 usage/IO/validation error,
2 mathematically infeasible — scripts can tell the cases apart.
Commands:

  dsmkit map solve --family F --x X.json --y Y.json [--z Z.json --w W.json]
  dsmkit pencil gen --n N --m M [--seed S] -o out.json
  dsmkit pencil validate FILE
  dsmkit backerr --pencil P.json --lambda 0.5i --blocks JREB --variant sd [--u U.json | --seed S]
  dsmkit backerr sweep --pencil P.json --lambdas l1,l2,... --blocks B --variant sd --csv out.csv
  dsmkit verify --result R.json

The environment variable DSMKIT_SEED supplies the default seed.

Each command imports only the modules it needs, so a process pays for no
other: every command loads ``maps`` (the --family choices) and ``io``;
``map solve`` adds ``dsm``; ``pencil`` and ``backerr`` add ``pencil``;
``verify`` adds ``dsm`` for a mapping document, plus ``oracle`` when its
norm is claimed exact, and ``pencil`` for a backerr document.  Every JSON
document is printed on one line by ``json.dumps`` (see ``io``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import io as io_mod
from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DsmkitError
from .maps import FAMILIES, StructureFamily

if TYPE_CHECKING:
    from .pencil import BackwardErrorBounds, EigenPair, PHPencil


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(args) -> int:
    """--seed, else DSMKIT_SEED, else 0; a DSMKIT_SEED that is not an integer is an error."""
    value = os.environ.get("DSMKIT_SEED", "0") if args.seed is None else args.seed
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"DSMKIT_SEED must be an integer, got {value!r}") from None


def _build_parser() -> _Parser:
    top = _Parser(prog="dsmkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--tol-rank", type=float, default=None, help="relative SVD rank threshold")
    top.add_argument("--tol-psd", type=float, default=None, help="eigenvalue floor factor")
    top.add_argument("--tol-residual", type=float, default=None, help="relative residual tolerance")
    sub = top.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="structured mapping solvers")
    map_sub = p_map.add_subparsers(dest="map_command", required=True)
    p_solve = map_sub.add_parser("solve", help="solve a mapping problem from JSON vectors")
    p_solve.add_argument("--family", required=True,
                         choices=[f.value for f in StructureFamily])
    p_solve.add_argument("--x", required=True, metavar="X.json")
    p_solve.add_argument("--y", required=True, metavar="Y.json")
    p_solve.add_argument("--z", metavar="Z.json")
    p_solve.add_argument("--w", metavar="W.json")

    p_pencil = sub.add_parser("pencil", help="generate / validate structured pencils")
    pencil_sub = p_pencil.add_subparsers(dest="pencil_command", required=True)
    p_gen = pencil_sub.add_parser("gen", help="generate a random structured pencil")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", required=True)
    p_val = pencil_sub.add_parser("validate", help="check the pencil invariants")
    p_val.add_argument("file")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pencil", required=True, metavar="P.json")
    common.add_argument("--blocks", required=True, help="perturbed blocks, e.g. JREB")
    common.add_argument("--variant", choices=["s", "sd"], default="sd")
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--u", metavar="U.json", help="eigenvector file (2n+m entries)")
    p_back = sub.add_parser("backerr", parents=[common], help="eigenpair backward errors")
    p_back.add_argument("--lambda", dest="lam", metavar="0.5i", help="purely imaginary eigenvalue")
    # `backerr sweep ...` is routed to this hidden leaf by main()
    p_sweep = sub.add_parser("backerr-sweep", parents=[common])
    p_sweep.add_argument("--lambdas", required=True, help="comma-separated list, e.g. 0.1i,0.5i")
    p_sweep.add_argument("--csv", required=True, metavar="OUT.csv")

    p_verify = sub.add_parser("verify", help="re-audit a result document")
    p_verify.add_argument("--result", required=True, metavar="R.json")
    return top


def _tol_from_args(args) -> ToleranceConfig:
    """--tol-NAME overrides the field NAME_tol of the default configuration."""
    kw = {f"{name}_tol": getattr(args, f"tol_{name}") for name in ("rank", "psd", "residual")}
    kw = {key: value for key, value in kw.items() if value is not None}
    return ToleranceConfig(**kw) if kw else DEFAULT_TOL


def _doc_header(kind: str, seed=None) -> dict:
    doc = {"tool": io_mod.TOOL_NAME, "version": io_mod.TOOL_VERSION, "kind": kind}
    if seed is not None:
        doc["seed"] = seed
    return doc


def _emit(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True))


def _problem(kind: str, x, y, z, w):
    """The problem of a two-sided result: square data for dsdm-type1, else x and w split at n = dim(y)."""
    from .dsm import DsmProblem, Type1Problem

    if kind == "dsdm-type1":
        return Type1Problem(x, y, z, w)
    n = y.shape[0]
    return DsmProblem(x[:n], x[n:], y, z, w[:n], w[n:])


def _cmd_map_solve(args, cfg: ToleranceConfig) -> int:
    from .dsm import DsmSolution, Type1Solution, dsdm_type1, dsdm_type2, dsm_solve, verify_solution
    from .maps import map_min, map_two_sided

    family = StructureFamily(args.family)
    x = io_mod.vector_from_doc(io_mod.load_json(args.x), "x")
    y = io_mod.vector_from_doc(io_mod.load_json(args.y), "y")
    if (args.z is None) != (args.w is None):
        print("error: --z and --w must be given together", file=sys.stderr)
        return 1
    problem_echo = {"family": family.value, "x": io_mod.vector_to_doc(x), "y": io_mod.vector_to_doc(y)}

    if args.z is None:
        kind, data = "map-min", (x, y)
        sol = map_min(family, x, y, cfg)
    else:
        z = io_mod.vector_from_doc(io_mod.load_json(args.z), "z")
        w = io_mod.vector_from_doc(io_mod.load_json(args.w), "w")
        problem_echo["z"] = io_mod.vector_to_doc(z)
        problem_echo["w"] = io_mod.vector_to_doc(w)
        data = (x, y, z, w)
        m = x.shape[0] - y.shape[0]
        dissipative = FAMILIES[family].cone == "dissipative"
        if family is StructureFamily.UNSTRUCTURED:
            kind, sol = "map-two-sided", map_two_sided(x, y, z, w, cfg)
        elif m < 0 or (m == 0 and not dissipative):
            need = "dim(x) must be >= dim(y)" if dissipative else "the doubly structured families need dim(x) > dim(y)"
            print(f"error: {need}", file=sys.stderr)
            return 1
        elif dissipative:
            kind = "dsdm-type1" if m == 0 else "dsdm-type2"
            solve = dsdm_type1 if m == 0 else dsdm_type2
            sol = solve(_problem(kind, *data), cfg, anti=FAMILIES[family].reflects is not None)
        else:
            kind, sol = "dsm", dsm_solve(family, _problem("dsm", *data), cfg)

    doc = _doc_header(kind)
    doc["problem"] = problem_echo
    doc["feasible"] = sol.feasible
    if not sol.feasible:
        doc["reason"] = sol.reason
        _emit(doc)
        return 2
    if isinstance(sol, DsmSolution):
        delta = sol.H
        doc["norms"] = {"lower": sol.norm_lower, "upper": sol.norm_upper, "exact": sol.exact}
        doc["solution"] = {"H1": io_mod.matrix_to_doc(sol.H1), "H2": io_mod.matrix_to_doc(sol.H2)}
        doc["sufficiency_note"] = sol.sufficiency_note
    else:
        delta = sol.minimizer
        exact = sol.exact if isinstance(sol, Type1Solution) else not sol.boundary
        doc["norms"] = {"lower": sol.min_norm, "upper": sol.min_norm, "exact": exact}
        doc["solution"] = {"delta": io_mod.matrix_to_doc(delta)}
    if kind == "map-min":
        doc["boundary"] = sol.boundary
    if hasattr(sol, "warnings"):
        doc["warnings"] = sol.warnings
    doc["residuals"] = verify_solution(delta, data, family, cfg).as_dict()
    _emit(doc)
    return 0


def _cmd_pencil_gen(args, cfg: ToleranceConfig) -> int:
    from . import pencil as pencil_mod

    seed = _seed(args)
    p = pencil_mod.gen_pencil(args.n, args.m, seed)
    rep = p.validate(cfg)
    if not all(rep.values()):
        print(f"error: generated pencil failed validation: {rep}", file=sys.stderr)
        return 1
    doc = io_mod.pencil_to_doc(p)
    doc["seed"] = seed
    io_mod.save_json(args.output, doc)
    print(f"wrote {args.output}")
    return 0


def _cmd_pencil_validate(args, cfg: ToleranceConfig) -> int:
    p = io_mod.pencil_from_doc(io_mod.load_json(args.file))
    rep = p.validate(cfg)
    for key, ok in rep.items():
        print(f"{key}: {'pass' if ok else 'FAIL'}")
    return 0 if all(rep.values()) else 1


def _eigpair(p: PHPencil, lam: complex, uvec: np.ndarray, cfg: ToleranceConfig) -> EigenPair:
    """The eigenpair of a stacked vector u = [u1; u2; u3] of length 2n + m."""
    from .pencil import EigenPair

    n, m = p.n, p.m
    if uvec.shape[0] != 2 * n + m:
        raise DsmkitError(f"u must have length 2n+m = {2 * n + m}, got {uvec.shape[0]}")
    return EigenPair(lam, uvec[:n], uvec[n : 2 * n], uvec[2 * n :], cfg)


def _bounds_doc(res: BackwardErrorBounds) -> dict:
    from .pencil import blocks_to_string

    doc = {
        "finite": res.finite,
        "eta_lower": res.eta_lower,
        "eta_upper": res.eta_upper,
        "exact": res.exact,
        "variant": res.variant,
        "blocks": blocks_to_string(res.blocks),
        "lambda": io_mod.format_imaginary(res.lam),
        "conditions": {k: bool(v) for k, v in res.conditions_report.items()},
        "warnings": res.warnings,
    }
    if res.finite:
        doc["H1"] = io_mod.matrix_to_doc(res.H1)
        doc["H2"] = io_mod.matrix_to_doc(res.H2)
    return doc


def _cmd_backerr(args, cfg: ToleranceConfig) -> int:
    from . import pencil as pencil_mod

    p = io_mod.pencil_from_doc(io_mod.load_json(args.pencil))
    blocks = pencil_mod.parse_blocks(args.blocks)
    pencil_mod._formula_variant(blocks, args.variant)  # an unsupported selection raises here

    if args.command == "backerr-sweep":
        lams = [io_mod.parse_imaginary(tok) for tok in args.lambdas.split(",") if tok.strip()]
        rows = pencil_mod.experiment_table(p, lams, _seed(args), blocks, cfg, variant=args.variant)
        with io_mod.open_output(args.csv) as fh:
            fh.write(io_mod.sweep_rows_to_csv(rows))
        print(f"wrote {args.csv} ({len(rows)} rows)")
        return 0

    if args.lam is None:
        print("error: --lambda is required for a single evaluation", file=sys.stderr)
        return 1
    lam = io_mod.parse_imaginary(args.lam)
    if lam == 0:
        print("error: lambda must be nonzero", file=sys.stderr)
        return 1
    seed = None if args.u is not None else _seed(args)
    if seed is None:
        ep = _eigpair(p, lam, io_mod.vector_from_doc(io_mod.load_json(args.u), "u"), cfg)
    else:
        ep = pencil_mod.gen_eigpair(p, seed, blocks, cfg, lam=lam)
    compute = pencil_mod.eta_sd if args.variant == "sd" else pencil_mod.eta_s
    res = compute(p, ep, blocks, cfg)
    doc = _doc_header("backerr", seed=seed)
    doc["problem"] = {
        "pencil": io_mod.pencil_to_doc(p),
        "u": io_mod.vector_to_doc(ep.u),
        "lambda": io_mod.format_imaginary(lam),
        "blocks": pencil_mod.blocks_to_string(blocks),
        "variant": args.variant,
    }
    doc["bounds"] = _bounds_doc(res)
    _emit(doc)
    return 0


def _same_bound(value: float, stored: float, cfg: ToleranceConfig) -> bool:
    """A recomputed bound equals the stored one to residual_tol relative; two infinite bounds are equal."""
    if math.isinf(value) or math.isinf(stored):
        return value == stored
    return abs(value - stored) <= cfg.residual_tol * abs(stored)


def _object(doc: dict, name: str) -> dict:
    """The field ``name`` of a result document, which must be an object: missing, a ``KeyError``; of another
    type, a ``ValueError``."""
    value = doc[name]
    if not isinstance(value, dict):
        raise ValueError(f"result document field {name!r} is not an object")
    return value


def _cmd_verify(args, cfg: ToleranceConfig) -> int:
    doc = io_mod.load_json(args.result)
    if not isinstance(doc, dict) or "kind" not in doc:
        print("error: result document missing 'kind'", file=sys.stderr)
        return 1
    kind = doc["kind"]
    report = None
    extra: dict = {}
    try:
        problem = _object(doc, "problem")
        if kind in ("map-min", "map-two-sided", "dsdm-type1", "dsm", "dsdm-type2"):
            family = StructureFamily(problem["family"])
            x = io_mod.vector_from_doc(problem["x"], "x")
            y = io_mod.vector_from_doc(problem["y"], "y")
            solution = _object(doc, "solution")
            if "delta" in solution:
                delta = io_mod.matrix_from_doc(solution["delta"], "delta")
            else:
                delta = np.hstack([io_mod.matrix_from_doc(solution[b], b) for b in ("H1", "H2")])
            if kind == "map-min":
                data = (x, y)
            else:
                z = io_mod.vector_from_doc(problem["z"], "z")
                w = io_mod.vector_from_doc(problem["w"], "w")
                data = (x, y, z, w)
            from .dsm import verify_solution

            report = verify_solution(delta, data, family, cfg)
            ok = report.ok
            oracle_norm = None
            norms = _object(doc, "norms") if "norms" in doc else {}
            if ok and norms.get("exact"):
                from . import oracle as oracle_mod  # only the exact-norm re-check needs an oracle

                if kind == "map-two-sided":
                    _, oracle_norm = oracle_mod.oracle_least_norm([("mul", x, y), ("adj", z, w)], cfg=cfg)
                elif kind != "map-min":
                    _, oracle_norm = oracle_mod.oracle_min_structured(_problem(kind, *data), family, cfg=cfg)
                elif FAMILIES[family].cone is None:
                    _, oracle_norm = oracle_mod.oracle_least_norm([("mul", x, y)], family, cfg=cfg)
            if oracle_norm is not None:
                # the minimum lies within the oracle's certified gap below oracle_norm, and so must the claim
                extra["oracle_norm"] = oracle_norm
                gap = oracle_mod.GAP_FACTOR * cfg.residual_tol * oracle_norm
                ok = ok and abs(float(norms["upper"]) - oracle_norm) <= gap
        elif kind == "backerr":
            from . import pencil as pencil_mod

            p = io_mod.pencil_from_doc(problem["pencil"])
            uvec = io_mod.vector_from_doc(problem["u"], "u")
            lam = io_mod.parse_imaginary(problem["lambda"])
            blocks = pencil_mod.parse_blocks(problem["blocks"])
            ep = _eigpair(p, lam, uvec, cfg)
            compute = pencil_mod.eta_sd if problem["variant"] == "sd" else pencil_mod.eta_s
            res = compute(p, ep, blocks, cfg)
            stored = _object(doc, "bounds")
            ok = (
                res.finite == stored["finite"]
                and res.exact == stored["exact"]
                and _same_bound(res.eta_lower, stored["eta_lower"], cfg)
                and _same_bound(res.eta_upper, stored["eta_upper"], cfg)
            )
            if res.finite and ok:
                pencil_mod.reconstruct_perturbation(p, ep, blocks, res, cfg)
            extra = {"recomputed_lower": res.eta_lower, "recomputed_upper": res.eta_upper}
        else:
            print(f"error: unknown result kind {kind!r}", file=sys.stderr)
            return 1
    except KeyError as exc:
        print(f"error: result document missing field {exc}", file=sys.stderr)
        return 1

    out = {"kind": kind, "ok": bool(ok)}
    if report is not None:
        out["residuals"] = report.as_dict()
    out.update(extra)
    _emit(out)
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:2] == ["backerr", "sweep"]:
        argv = ["backerr-sweep"] + argv[2:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _tol_from_args(args)
    try:
        if args.command == "map":
            return _cmd_map_solve(args, cfg)
        if args.command == "pencil":
            if args.pencil_command == "gen":
                return _cmd_pencil_gen(args, cfg)
            return _cmd_pencil_validate(args, cfg)
        if args.command in ("backerr", "backerr-sweep"):
            return _cmd_backerr(args, cfg)
        if args.command == "verify":
            return _cmd_verify(args, cfg)
        parser.error(f"unknown command {args.command}")
    except (OSError, DsmkitError, ValueError) as exc:  # bad input or path: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())

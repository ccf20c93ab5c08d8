"""Uncompressed reference for the oracles: every problem solved on all coefficients of Delta.

``dsmkit.oracle`` solves each problem on the span of its data (the lemma of
its module docstring), so a solve has a fixed small size.  Here the same
problems are solved over the basis of the whole unknown, n x n or
n x (n + m), with the oracle's own least-norm solve and barrier method, as
the oracles did before the compression.  The two must agree within the
certified gap ``GAP_FACTOR * residual_tol``.  Test code only: one barrier
step costs O(n^6).
"""

from dataclasses import replace

import numpy as np

from dsmkit.config import DEFAULT_TOL
from dsmkit.dsm import Type1Problem
from dsmkit.linalg import as_complex
from dsmkit.maps import FAMILIES, LINEAR_FAMILIES, _reflect
from dsmkit.maps import StructureFamily as F
from dsmkit.oracle import _affine, _assemble, _barrier, _full_basis, _stacked, family_basis
from dsmkit.pencil import PerturbationBlocks, mapping_data, parse_blocks


def least_norm(constraints, structure, shape, split=None):
    """``oracle_least_norm`` on the whole basis: (Delta, norm)."""
    constraints = [(k, as_complex(v).reshape(-1), as_complex(r).reshape(-1)) for k, v, r in constraints]
    rows, cols = shape
    if structure in (None, F.UNSTRUCTURED) and split is None:
        basis = _full_basis(rows, cols)
    else:
        blk = split if split is not None else cols
        basis = _stacked((family_basis(structure, rows), 0, 1.0), (_full_basis(rows, cols - blk), blk, 1.0))
    theta, _, _ = _affine(basis, constraints, DEFAULT_TOL)
    return _assemble(basis, theta), float(np.linalg.norm(theta))


def min_structured(problem, family, cfg=DEFAULT_TOL):
    """``oracle_min_structured`` on the whole basis: (Delta, norm)."""
    family = F(family)
    if FAMILIES[family].reflects is not None:
        names = ("Y", "W") if isinstance(problem, Type1Problem) else ("y", "w1", "w2")
        return _reflect(family, lambda base, **yw: min_structured(replace(problem, **yw), base, cfg),
                        **{name: getattr(problem, name) for name in names})
    if isinstance(problem, Type1Problem):
        n = problem.X.shape[0]
        cone = basis = _full_basis(n, n)
        constraints = ([("mul", *c) for c in zip(problem.X.T, problem.Y.T)]
                       + [("adj", *c) for c in zip(problem.Z.T, problem.W.T)])
    else:
        p = problem
        constraints = [("mul", p.x, p.y), ("adj", p.z, p.w)]
        if family in LINEAR_FAMILIES:
            return least_norm(constraints, family, (p.n, p.n + p.m), split=p.n)
        cone = family_basis(F.HERMITIAN, p.n) if family is F.PSD else _full_basis(p.n, p.n)
        basis = _stacked((cone, 0, 1.0), (_full_basis(p.n, p.m), p.n, 1.0))
    theta0, _, null = _affine(basis, constraints, cfg)
    theta, _ = _barrier(theta0, null, (0, cone), cfg)
    return _assemble(basis, theta), float(np.linalg.norm(theta))


def eta(P, ep, blocks, variant, cfg=DEFAULT_TOL):
    """``oracle_eta`` on the whole basis of every selected block: (value, lower, perturbation)."""
    blocks = parse_blocks(blocks) if isinstance(blocks, str) else frozenset(blocks)
    n, m = P.n, P.m
    _, y, _, w = mapping_data(P, ep)
    factor = {"J": 1.0, "R": -1.0, "E": ep.lam}
    bases = {name: family_basis(F.SKEW_HERMITIAN if name == "J" else F.HERMITIAN, n)
             for name in "JRE" if name in blocks}
    parts = [(b, 0, factor[name]) for name, b in bases.items()]
    cols = n
    if "B" in blocks:
        bases["B"] = _full_basis(n, m)
        parts.append((bases["B"], n, 1.0))
        cols += m
    basis = _stacked(*parts)
    x = np.concatenate([ep.u2, np.zeros(cols - n, dtype=complex)])
    constraints = [("mul", x, y), ("adj", ep.u1, w[:cols])]
    if variant == "sd" and "R" in blocks:
        theta0, _, null = _affine(basis, constraints, cfg)
        first = bases["J"].shape[0] if "J" in bases else 0
        theta, lower = _barrier(theta0, null, (first, bases["R"]), cfg)
    else:
        theta, _, _ = _affine(basis, constraints, cfg)
        lower = float(np.linalg.norm(theta))
    out = {name: np.zeros((n, m if name == "B" else n), dtype=complex) for name in "JREB"}
    ends = np.cumsum([b.shape[0] for b in bases.values()])[:-1]
    for (name, b), t in zip(bases.items(), np.split(theta, ends)):
        out[name] = _assemble(b, t)
    pert = PerturbationBlocks(out["J"], out["R"], out["E"], out["B"])
    return pert.norm(), lower, pert

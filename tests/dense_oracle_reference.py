"""Dense reference for the oracle's linear layer: every basis element an n x n matrix.

The exact oracles expand the unknown over a real basis of its structure class
and take a least-norm solve.  ``dsmkit.oracle`` builds each basis by one rule
from the family table (``family_basis``); here the same basis is a list of
n x n matrices, built by the loops that define it, and every constraint
column is a product ``B v`` or ``B* v``.  The element order and values must
match ``family_basis`` exactly, and the solves to rounding.  The eigenpair
constraints are written block by block, as ``oracle_eta`` wrote them before
it took them from the mapping data.  Test code only: the basis takes O(n^4)
memory.
"""

import math

import numpy as np

from dsmkit.linalg import as_complex
from dsmkit.maps import StructureFamily as F


def family_basis(family, n):
    family = F(family)
    out = []
    s = 1.0 / math.sqrt(2.0)

    def e(j, k, val=1.0):
        mat = np.zeros((n, n), dtype=complex)
        mat[j, k] = val
        return mat

    if family is F.UNSTRUCTURED:
        for j in range(n):
            for k in range(n):
                out.append(e(j, k))
                out.append(e(j, k, 1j))
    elif family in (F.HERMITIAN, F.SKEW_HERMITIAN):
        for j in range(n):
            out.append(e(j, j))
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) + e(k, j)))
                out.append(s * (e(j, k, 1j) - e(k, j, 1j)))
        if family is F.SKEW_HERMITIAN:
            out = [1j * b for b in out]
    elif family is F.SYMMETRIC:
        for j in range(n):
            out.append(e(j, j))
            out.append(e(j, j, 1j))
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) + e(k, j)))
                out.append(s * (e(j, k, 1j) + e(k, j, 1j)))
    elif family is F.SKEW_SYMMETRIC:
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) - e(k, j)))
                out.append(s * (e(j, k, 1j) - e(k, j, 1j)))
    else:
        raise ValueError(f"{family.value} is not a linear class")
    return out


def rect_basis(rows, cols):
    out = []
    for j in range(rows):
        for k in range(cols):
            mat = np.zeros((rows, cols), dtype=complex)
            mat[j, k] = 1.0
            out.append(mat)
            out.append(1j * mat)
    return out


def _embed(block, shape, col0):
    out = np.zeros(shape, dtype=complex)
    out[:, col0 : col0 + block.shape[1]] = block
    return out


def _apply(delta, kind, vec):
    return delta @ vec if kind == "mul" else delta.conj().T @ vec


def _solve(basis, constraints):
    """lstsq over the real-stacked constraint columns; returns sum theta_b B_b and theta."""
    rows_a, rhs = [], []
    for kind, v, r in constraints:
        block = np.stack([_apply(b, kind, v) for b in basis], axis=1)
        rows_a += [block.real, block.imag]
        rhs += [r.real, r.imag]
    theta = np.linalg.lstsq(np.vstack(rows_a), np.concatenate(rhs), rcond=None)[0]
    return sum(t * b for t, b in zip(theta, basis)), theta


def least_norm(constraints, structure, shape, split=None):
    """``oracle_least_norm`` on the dense basis: (Delta, norm)."""
    constraints = [(k, as_complex(v).reshape(-1), as_complex(r).reshape(-1)) for k, v, r in constraints]
    rows, cols = shape
    if structure in (None, F.UNSTRUCTURED) and split is None:
        basis = rect_basis(rows, cols)
    else:
        blk = split if split is not None else cols
        basis = [_embed(b, shape, 0) for b in family_basis(structure, rows)]
        basis += [_embed(b, shape, blk) for b in rect_basis(rows, cols - blk)]
    delta, theta = _solve(basis, constraints)
    return delta, float(np.linalg.norm(theta))


def eta_blocks(P, ep, blocks, dR=None):
    """The least-norm dJ, dR, dE, dB of the eigenpair equations on the dense basis.

    Rows: (dJ - dR + lam dE) u2 = y1 + ..., its adjoint on u1, and, with B
    selected, dB* u1 = B* u1 + S u3, each block's columns written out.  With
    ``dR`` given, dR is fixed and moves to the right-hand side (the
    semidefinite search's elimination of the other blocks); otherwise dR is
    solved for with the rest when R is selected.
    """
    n, m = P.n, P.m
    lam = ep.lam
    solve_r = "R" in blocks and dR is None
    fixed_r = np.zeros((n, n), dtype=complex) if dR is None else dR
    bases = []
    if "J" in blocks:
        bases += [("J", b) for b in family_basis(F.SKEW_HERMITIAN, n)]
    if solve_r:
        bases += [("R", b) for b in family_basis(F.HERMITIAN, n)]
    if "E" in blocks:
        bases += [("E", b) for b in family_basis(F.HERMITIAN, n)]
    if "B" in blocks:
        bases += [("B", b) for b in rect_basis(n, m)]
    cols = []
    for kind, bmat in bases:
        if kind == "J":
            r1, r2 = bmat @ ep.u2, -(bmat @ ep.u1)
        elif kind == "R":
            r1, r2 = -(bmat @ ep.u2), -(bmat @ ep.u1)
        elif kind == "E":
            r1, r2 = lam * (bmat @ ep.u2), -lam * (bmat @ ep.u1)
        else:
            r1 = np.zeros(n, dtype=complex)
            r2 = np.zeros(n, dtype=complex)
        r3 = bmat.conj().T @ ep.u1 if kind == "B" else np.zeros(m, dtype=complex)
        cols.append(np.concatenate([r1, r2, r3]) if "B" in blocks else np.concatenate([r1, r2]))
    a_c = np.stack(cols, axis=1)
    y1 = (P.J - P.R + lam * P.E) @ ep.u2 + P.B @ ep.u3
    w1 = -(P.J + P.R + lam * P.E) @ ep.u1
    parts = [y1 + fixed_r @ ep.u2, w1 + fixed_r @ ep.u1]
    if "B" in blocks:
        parts.append(P.B.conj().T @ ep.u1 + P.S @ ep.u3)
    b_c = np.concatenate(parts)
    theta = np.linalg.lstsq(
        np.vstack([a_c.real, a_c.imag]), np.concatenate([b_c.real, b_c.imag]), rcond=None
    )[0]
    out = {
        "J": np.zeros((n, n), dtype=complex),
        "R": np.zeros((n, n), dtype=complex) if solve_r else fixed_r,
        "E": np.zeros((n, n), dtype=complex),
        "B": np.zeros((n, m), dtype=complex),
    }
    for t, (kind, bmat) in zip(theta, bases):
        out[kind] = out[kind] + t * bmat
    return out

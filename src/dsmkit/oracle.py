"""Independent numerical ground truth for the mapping solvers.

Two regimes, matching the geometry of the feasible sets:

* linear-variety problems (no cone constraint) are solved exactly by
  real-vectorization: expand the unknown over an orthonormal real basis
  of the structure class and take the minimum-norm solution of the
  stacked linear constraints.  The result is a true global minimum up to
  solver precision.
* cone-constrained problems (semidefinite or dissipative blocks) are
  minimized by seeded multi-restart descent over the free parameters of
  the solution-set characterization, with semidefinite parameters kept
  feasible by eigenvalue clipping or Gram factorization.  Every iterate
  is feasible, so the returned value is an upper bound on the true
  minimum; test assertions are one-sided accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .dsm import DsmProblem, Type1Problem
from .errors import DegenerateInputError, InconsistentConstraintsError
from .linalg import as_complex, fro, herm_skew_parts, null_projector, pinv, svd_split
from .maps import LINEAR_FAMILIES, StructureFamily
from .pencil import EigenPair, PHPencil, PerturbationBlocks, parse_blocks

__all__ = [
    "OracleBudget",
    "family_basis",
    "oracle_least_norm",
    "oracle_min_structured",
    "OracleEtaResult",
    "oracle_eta",
    "VerificationReport",
    "verify_solution",
]


@dataclass(frozen=True)
class OracleBudget:
    max_iterations: int = 400
    step_tolerance: float = 1e-14
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations <= 0 or self.restarts <= 0 or self.step_tolerance <= 0:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = OracleBudget()


# ---------------------------------------------------------------------------
# real-vectorized exact least-norm solves


def family_basis(family: StructureFamily, n: int) -> list[np.ndarray]:
    """Orthonormal real basis of the family subspace of C^{n x n}.

    Orthonormal under the real inner product Re(trace(B* A)), so the
    Euclidean norm of a coefficient vector equals the Frobenius norm of
    the matrix it represents.
    """
    family = StructureFamily(family)
    out: list[np.ndarray] = []
    s = 1.0 / math.sqrt(2.0)

    def e(j, k, val=1.0):
        mat = np.zeros((n, n), dtype=complex)
        mat[j, k] = val
        return mat

    if family is StructureFamily.UNSTRUCTURED:
        for j in range(n):
            for k in range(n):
                out.append(e(j, k))
                out.append(e(j, k, 1j))
    elif family in (StructureFamily.HERMITIAN, StructureFamily.SKEW_HERMITIAN):
        for j in range(n):
            out.append(e(j, j))
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) + e(k, j)))
                out.append(s * (e(j, k, 1j) - e(k, j, 1j)))
        if family is StructureFamily.SKEW_HERMITIAN:
            out = [1j * b for b in out]
    elif family is StructureFamily.SYMMETRIC:
        for j in range(n):
            out.append(e(j, j))
            out.append(e(j, j, 1j))
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) + e(k, j)))
                out.append(s * (e(j, k, 1j) + e(k, j, 1j)))
    elif family is StructureFamily.SKEW_SYMMETRIC:
        for j in range(n):
            for k in range(j + 1, n):
                out.append(s * (e(j, k) - e(k, j)))
                out.append(s * (e(j, k, 1j) - e(k, j, 1j)))
    else:
        raise ValueError(f"{family.value} is not a linear class")
    return out


def _rect_basis(rows: int, cols: int) -> list[np.ndarray]:
    out = []
    for j in range(rows):
        for k in range(cols):
            mat = np.zeros((rows, cols), dtype=complex)
            mat[j, k] = 1.0
            out.append(mat)
            out.append(1j * mat)
    return out


def _embed(block: np.ndarray, shape: tuple[int, int], col0: int) -> np.ndarray:
    out = np.zeros(shape, dtype=complex)
    out[:, col0 : col0 + block.shape[1]] = block
    return out


def _apply_constraint(delta: np.ndarray, kind: str, vec: np.ndarray) -> np.ndarray:
    if kind == "mul":
        return delta @ vec
    if kind == "adj":
        return delta.conj().T @ vec
    raise ValueError(f"unknown constraint kind {kind!r}")


def oracle_least_norm(
    constraints,
    structure: StructureFamily | None = None,
    shape: tuple[int, int] | None = None,
    split: int | None = None,
    cfg: ToleranceConfig = DEFAULT_TOL,
):
    """Exact minimum-Frobenius-norm solution of linear matrix constraints.

    ``constraints`` is a list of ("mul", x, y) for Delta x = y and
    ("adj", z, w) for Delta* z = w.  ``structure`` restricts Delta (or,
    when ``split`` is given, its leading ``split`` columns, the trailing
    block staying unstructured) to a linear family.  Inconsistent
    constraints raise ``InconsistentConstraintsError``.

    Returns (Delta, norm); the norm is a global minimum to solver
    precision since this is an exact vectorized least-norm solve.
    """
    constraints = [(k, as_complex(v).reshape(-1), as_complex(r).reshape(-1)) for k, v, r in constraints]
    if shape is None:
        kind, v, r = constraints[0]
        shape = (r.shape[0], v.shape[0]) if kind == "mul" else (v.shape[0], r.shape[0])
    rows, cols = shape

    if structure in (None, StructureFamily.UNSTRUCTURED) and split is None:
        basis = _rect_basis(rows, cols)
    else:
        structure = StructureFamily(structure)
        if structure not in LINEAR_FAMILIES:
            raise ValueError(f"{structure.value} is not a linear class; use the descent oracle")
        blk = split if split is not None else cols
        if blk != rows:
            raise ValueError("the structured block must be square")
        basis = [_embed(b, shape, 0) for b in family_basis(structure, rows)]
        if cols > blk:
            basis += [_embed(b, shape, blk) for b in _rect_basis(rows, cols - blk)]

    rows_a = []
    rhs = []
    for kind, v, r in constraints:
        cols_c = [_apply_constraint(b, kind, v) for b in basis]
        block = np.stack(cols_c, axis=1)  # len(r) x nbasis complex
        rows_a.append(block.real)
        rows_a.append(block.imag)
        rhs.append(r.real)
        rhs.append(r.imag)
    a = np.vstack(rows_a)
    b = np.concatenate(rhs)
    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = fro(a @ theta - b)
    if resid > cfg.residual_tol * max(1.0, fro(b)) * 100:
        raise InconsistentConstraintsError(f"constraints inconsistent (residual {resid:.3e})")
    delta = sum(t * mat for t, mat in zip(theta, basis))
    return delta, float(np.linalg.norm(theta))


# ---------------------------------------------------------------------------
# cone-constrained descent oracles


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _psd_clip(a: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(_herm(a))
    return (vecs * np.maximum(eigs, 0.0)) @ vecs.conj().T


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _oracle_dsm_psd(p: DsmProblem, budget: OracleBudget, cfg: ToleranceConfig):
    """Projected gradient over the PSD free parameter K, R eliminated exactly."""
    zd = pinv(p.z, cfg)
    x2d = pinv(p.x2, cfg)
    pz = null_projector(p.z, cfg)
    px2 = null_projector(p.x2, cfg)
    h1 = np.outer(p.w1, p.w1.conj()) / np.vdot(p.z, p.w1)
    h2 = np.outer(p.y - h1 @ p.x1, x2d) + np.outer(p.w2, zd).conj().T @ px2
    x1x2d = np.outer(p.x1, x2d)

    def assemble(k):
        pkp = pz @ k @ pz
        d1 = h1 + pkp
        c = h2 - pkp @ x1x2d
        d2 = c - pz @ c @ px2  # optimal R folded in
        return d1, d2

    def value(k):
        d1, d2 = assemble(k)
        return fro(d1) ** 2 + fro(d2) ** 2

    def grad(k):
        d1, d2 = assemble(k)
        g = 2.0 * (pz @ d1 @ pz) - 2.0 * (pz @ d2 @ x1x2d.conj().T @ pz)
        return (g + g.conj().T) / 2.0

    lip = 2.0 * (1.0 + fro(x1x2d) ** 2) + 1.0
    step = 1.0 / lip
    rng = np.random.default_rng(budget.seed)
    best_k, best_v = None, math.inf
    for restart in range(budget.restarts):
        k = np.zeros((p.n, p.n), dtype=complex)
        if restart > 0:
            g0 = _crandn(rng, p.n, p.n)
            k = g0 @ g0.conj().T / p.n
        v_prev = value(k)
        for _ in range(budget.max_iterations):
            k = _psd_clip(k - step * grad(k))
            v = value(k)
            if abs(v_prev - v) <= budget.step_tolerance * max(1.0, v):
                break
            v_prev = v
        if v_prev < best_v:
            best_v, best_k = v_prev, k
    d1, d2 = assemble(best_k)
    return np.hstack([d1, d2]), math.sqrt(best_v)


def _oracle_type1(q: Type1Problem, budget: OracleBudget, cfg: ToleranceConfig, anti: bool):
    """Descent over the free block of the square dissipative characterization."""
    if anti:
        delta, norm = _oracle_type1(Type1Problem(q.X, -q.Y, q.Z, -q.W), budget, cfg, False)
        return -delta, norm
    n = q.X.shape[0]
    sx = svd_split(q.X, cfg)
    u1, u2 = sx.U1, sx.U2
    xd = pinv(q.X, cfg)
    zd = pinv(q.Z, cfg)
    yxd = q.Y @ xd
    wzd = q.W @ zd
    a11 = u1.conj().T @ yxd @ u1
    a12 = u1.conj().T @ wzd.conj().T @ u2
    a21 = u2.conj().T @ yxd @ u1
    m_h = yxd + yxd.conj().T
    core = pinv(u1.conj().T @ m_h @ u1, cfg)
    jgram = 0.5 * (u2.conj().T @ (yxd + wzd) @ u1) @ core @ (u2.conj().T @ (yxd + wzd) @ u1).conj().T
    k = u2.shape[1]
    const = fro(a11) ** 2 + fro(a12) ** 2 + fro(a21) ** 2

    rng = np.random.default_rng(budget.seed)
    best_p, best_fs, best_v = None, None, math.inf
    for restart in range(budget.restarts):
        pmat = np.zeros((k, k), dtype=complex)
        fs = np.zeros((k, k), dtype=complex)
        if restart > 0 and k > 0:
            g0 = _crandn(rng, k, k)
            pmat = g0 @ g0.conj().T / max(k, 1)
            fs0 = _crandn(rng, k, k)
            fs = (fs0 - fs0.conj().T) / 2.0
        v_prev = const + fro(jgram + pmat) ** 2 + fro(fs) ** 2
        for _ in range(budget.max_iterations):
            pmat = _psd_clip(pmat - 0.25 * 2.0 * (jgram + pmat))
            fs = fs - 0.25 * 2.0 * fs
            v = const + fro(jgram + pmat) ** 2 + fro(fs) ** 2
            if abs(v_prev - v) <= budget.step_tolerance * max(1.0, v):
                break
            v_prev = v
        if v_prev < best_v:
            best_v, best_p, best_fs = v_prev, pmat, fs
    fblock = jgram + best_p + best_fs
    u = np.hstack([u1, u2])
    top = np.hstack([a11, a12])
    bot = np.hstack([a21, fblock])
    delta = u @ np.vstack([top, bot]) @ u.conj().T
    return delta, math.sqrt(best_v)


def _skew(g: np.ndarray) -> np.ndarray:
    return (g - g.conj().T) / 2.0


def _oracle_type2(p: DsmProblem, budget: OracleBudget, cfg: ToleranceConfig, anti: bool):
    """L-BFGS over the rectangular dissipative characterization parameters.

    Parameters: t = Z* z (complex n-vector), a Gram factor for the PSD
    slack, and a skew generator; the arbitrary column parameter R is
    eliminated exactly at every evaluation.
    """
    if anti:
        refl = DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2)
        delta, norm = _oracle_type2(refl, budget, cfg, False)
        return -delta, norm
    n = p.n
    rho = np.vdot(p.z, p.w1).real
    if rho <= 0:
        raise DegenerateInputError("descent oracle needs Re(z*w1) > 0")
    zd = pinv(p.z, cfg)
    x2d = pinv(p.x2, cfg)
    pz = null_projector(p.z, cfg)
    px2 = null_projector(p.x2, cfg)
    w1zd = np.outer(p.w1, zd)
    ztx1 = (zd @ p.x1).item()
    h1 = w1zd.conj().T + pz @ w1zd
    h2 = (
        np.outer(p.y, x2d)
        - w1zd.conj().T @ np.outer(p.x1, x2d)
        - ztx1 * (pz @ np.outer(p.w1, x2d))
        + np.outer(p.w2, zd).conj().T @ px2
    )
    x1x2d = np.outer(p.x1, x2d)

    nt = 2 * n
    ng = 2 * n * n

    def unpack(theta):
        t = theta[:nt:2] + 1j * theta[1:nt:2]
        lg = (theta[nt : nt + ng : 2] + 1j * theta[nt + 1 : nt + ng : 2]).reshape(n, n)
        gf = (theta[nt + ng :: 2] + 1j * theta[nt + ng + 1 :: 2]).reshape(n, n)
        return t, lg, _skew(gf)

    def assemble(theta):
        t, lg, gs = unpack(theta)
        q = 2.0 * p.w1 + t
        kmat = np.outer(q, q.conj()) / (4.0 * rho) + lg @ lg.conj().T
        pkp = pz @ kmat @ pz
        pgp = pz @ gs @ pz
        tz = np.outer(pz @ t, zd)
        d1 = h1 + tz + pkp - pgp
        c = h2 - tz @ x1x2d - pkp @ x1x2d + pgp @ x1x2d
        d2 = c - pz @ c @ px2  # optimal R folded in
        return d1, d2

    def fun(theta):
        d1, d2 = assemble(theta)
        return fro(d1) ** 2 + fro(d2) ** 2

    rng = np.random.default_rng(budget.seed)
    dim = nt + 2 * ng
    starts = []
    t0 = np.zeros(dim)
    t0[:nt:2] = (-2.0 * p.w1).real
    t0[1:nt:2] = (-2.0 * p.w1).imag
    starts.append(t0)
    for _ in range(budget.restarts - 1):
        starts.append(rng.standard_normal(dim) * 0.5)
    import scipy.optimize  # deferred: the import costs more than most CLI calls

    best_theta, best_v = None, math.inf
    for s in starts:
        res = scipy.optimize.minimize(
            fun, s, method="L-BFGS-B", options={"maxiter": budget.max_iterations}
        )
        if res.fun < best_v:
            best_v, best_theta = float(res.fun), res.x
    d1, d2 = assemble(best_theta)
    return np.hstack([d1, d2]), math.sqrt(best_v)


def oracle_min_structured(
    problem,
    family: StructureFamily,
    budget: OracleBudget = DEFAULT_BUDGET,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    anti: bool = False,
):
    """Numerically minimize the Frobenius norm over the structured feasible set.

    Linear families get the exact vectorized solve; semidefinite and
    dissipative families run seeded multi-restart descent over the
    characterization's free parameters.  Returns (Delta, norm); for the
    descent families the norm is an upper bound on the true minimum.
    """
    if isinstance(problem, Type1Problem):
        return _oracle_type1(problem, budget, cfg, anti)
    if not isinstance(problem, DsmProblem):
        raise TypeError("problem must be a DsmProblem or Type1Problem")
    p = problem
    family = StructureFamily(family)
    if family in LINEAR_FAMILIES:
        constraints = [("mul", p.x, p.y), ("adj", p.z, p.w)]
        return oracle_least_norm(constraints, family, shape=(p.n, p.n + p.m), split=p.n, cfg=cfg)
    if family is StructureFamily.PSD:
        return _oracle_dsm_psd(p, budget, cfg)
    if family is StructureFamily.NSD:
        delta, norm = _oracle_dsm_psd(p.reflected(), budget, cfg)
        return np.hstack([-delta[:, : p.n], delta[:, p.n :]]), norm
    if family is StructureFamily.DISSIPATIVE:
        return _oracle_type2(p, budget, cfg, anti=False)
    if family is StructureFamily.ANTI_DISSIPATIVE:
        return _oracle_type2(p, budget, cfg, anti=True)
    raise ValueError(f"unsupported family {family}")


# ---------------------------------------------------------------------------
# backward-error oracle


@dataclass
class OracleEtaResult:
    value: float
    perturbation: PerturbationBlocks
    converged: bool
    constraint_residual: float


def _block_parameterization(P: PHPencil, ep: EigenPair, blocks):
    """Constraint matrix over the non-R block parameters.

    Unknowns: dJ (skew basis), dE (Hermitian basis), dB (full basis,
    when selected).  Constraint rows: the square-block equations
    (dJ - dR + lam dE) u2 = y1 + dR u2-side handled through the rhs, its
    adjoint on u1, and the B-column equation dB* u1 = B* u1.
    """
    n, m = P.n, P.m
    lam = ep.lam
    bases = []
    labels = []
    if "J" in blocks:
        for bmat in family_basis(StructureFamily.SKEW_HERMITIAN, n):
            bases.append(("J", bmat))
    if "E" in blocks:
        for bmat in family_basis(StructureFamily.HERMITIAN, n):
            bases.append(("E", bmat))
    if "B" in blocks:
        for bmat in _rect_basis(n, m):
            bases.append(("B", bmat))
    cols = []
    for kind, bmat in bases:
        if kind == "J":
            r1 = bmat @ ep.u2
            r2 = -(bmat @ ep.u1)  # (dJ)* u1
            r3 = np.zeros(m, dtype=complex)
        elif kind == "E":
            r1 = lam * (bmat @ ep.u2)
            r2 = -lam * (bmat @ ep.u1)  # (lam dE)* u1
            r3 = np.zeros(m, dtype=complex)
        else:
            r1 = np.zeros(n, dtype=complex)
            r2 = np.zeros(n, dtype=complex)
            r3 = bmat.conj().T @ ep.u1
        col = np.concatenate([r1, r2, r3]) if "B" in blocks else np.concatenate([r1, r2])
        cols.append(col)
    a_c = np.stack(cols, axis=1) if cols else np.zeros((2 * n + (m if "B" in blocks else 0), 0), dtype=complex)
    a = np.vstack([a_c.real, a_c.imag])
    return bases, a


def _rhs(P: PHPencil, ep: EigenPair, blocks, dR: np.ndarray) -> np.ndarray:
    """Right-hand side of the block constraints given the R perturbation."""
    lam = ep.lam
    y1 = (P.J - P.R + lam * P.E) @ ep.u2 + P.B @ ep.u3
    w1 = -(P.J + P.R + lam * P.E) @ ep.u1
    r1 = y1 + dR @ ep.u2
    r2 = w1 + dR @ ep.u1
    parts = [r1, r2]
    if "B" in blocks:
        parts.append(P.B.conj().T @ ep.u1 + P.S @ ep.u3)
    b_c = np.concatenate(parts)
    return np.concatenate([b_c.real, b_c.imag])


def _assemble_blocks(bases, theta, n, m):
    dJ = np.zeros((n, n), dtype=complex)
    dE = np.zeros((n, n), dtype=complex)
    dB = np.zeros((n, m), dtype=complex)
    for t, (kind, bmat) in zip(theta, bases):
        if kind == "J":
            dJ += t * bmat
        elif kind == "E":
            dE += t * bmat
        else:
            dB += t * bmat
    return dJ, dE, dB


def oracle_eta(
    P: PHPencil,
    ep: EigenPair,
    blocks,
    variant: str,
    budget: OracleBudget = DEFAULT_BUDGET,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> OracleEtaResult:
    """Minimize the stacked-block perturbation norm over (L - dL)(lam) u = 0.

    The objective is ``sqrt(sum of ||d_block||_F^2)`` over the selected
    blocks, the same size convention the backward-error formulas use.
    Without an R perturbation (and for variant "s") the constraints are
    linear in the structured blocks and the solve is exact.  For the
    semidefinite variant the R block is parameterized as G G* and an
    outer quasi-Newton search over G drives a penalty on the remaining
    (linearly eliminated) constraint residual to zero.  The returned
    value is an upper bound on the true backward error once
    ``converged`` is set.
    """
    blocks = parse_blocks(blocks) if isinstance(blocks, str) else frozenset(blocks)
    n, m = P.n, P.m
    lam = ep.lam
    if lam == 0:
        raise DegenerateInputError("lambda must be nonzero imaginary")
    bscale = max(1.0, fro(P.assemble()[0]) * fro(ep.u))
    # rows of (L - dL)(lam) u = 0 that no selected block can influence are
    # pure data conditions; reject inadmissible eigenpairs loudly
    if fro(ep.u3) > cfg.residual_tol * bscale * 100:
        raise InconsistentConstraintsError("u3 != 0: backward error is infinite")
    if "B" not in blocks:
        row3 = P.B.conj().T @ ep.u1 + P.S @ ep.u3
        if fro(row3) > cfg.residual_tol * bscale * 100:
            raise InconsistentConstraintsError(
                f"B* u1 + S u3 != 0 with no B perturbation (residual {fro(row3):.3e})"
            )
    if "R" in blocks and variant == "s":
        return _oracle_eta_linear_with_r(P, ep, blocks, cfg, bscale)

    bases, a = _block_parameterization(P, ep, blocks)
    a_pinv = np.linalg.pinv(a) if a.shape[1] else a.T
    proj_out = np.eye(a.shape[0]) - a @ a_pinv
    zero_r = np.zeros((n, n), dtype=complex)

    if "R" not in blocks:
        b = _rhs(P, ep, blocks, zero_r)
        theta = a_pinv @ b
        resid = fro(a @ theta - b)
        if resid > cfg.residual_tol * bscale * 100:
            raise InconsistentConstraintsError(
                f"eigenpair not admissible for {''.join(sorted(blocks))} (residual {resid:.3e})"
            )
        dJ, dE, dB = _assemble_blocks(bases, theta, n, m)
        pert = PerturbationBlocks(dJ=dJ, dR=zero_r, dE=dE, dB=dB)
        return OracleEtaResult(pert.norm(), pert, True, float(resid))

    # semidefinite variant with an R block: outer search over the Gram factor.
    # f(G) = ||G G*||^2 + ||theta(G)||^2 + mu * ||(I - A A+) b(G)||^2 with the
    # non-R blocks eliminated exactly through the precomputed pseudoinverse;
    # the gradient is assembled analytically through W = G G*.
    kc = a.shape[0] // 2  # complex constraint rows

    def split_val(gvec):
        g = (gvec[: 2 * n * n : 2] + 1j * gvec[1 : 2 * n * n : 2]).reshape(n, n)
        dR = g @ g.conj().T
        b = _rhs(P, ep, blocks, dR)
        theta = a_pinv @ b
        pen = fro(proj_out @ b)
        return g, dR, theta, pen

    def fun(gvec, mu):
        g = (gvec[: 2 * n * n : 2] + 1j * gvec[1 : 2 * n * n : 2]).reshape(n, n)
        w = g @ g.conj().T
        b = _rhs(P, ep, blocks, w)
        theta = a_pinv @ b
        pvec = proj_out @ b
        val = fro(w) ** 2 + float(theta @ theta) + mu * float(pvec @ pvec)
        g_b = 2.0 * (a_pinv.T @ theta) + 2.0 * mu * pvec
        gc = g_b[:kc] + 1j * g_b[kc:]
        grad_w = 2.0 * w + _herm(np.outer(gc[:n], ep.u2.conj()) + np.outer(gc[n : 2 * n], ep.u1.conj()))
        grad_g = 2.0 * (grad_w @ g)
        out = np.empty_like(gvec)
        out[0::2] = grad_g.real.reshape(-1)
        out[1::2] = grad_g.imag.reshape(-1)
        return val, out

    rng = np.random.default_rng(budget.seed)
    # warm start from the claimed solution when the caller has one: use the
    # Hermitian part of the forced square block as a generic PSD seed
    y1 = (P.J - P.R + lam * P.E) @ ep.u2
    w1v = -(P.J + P.R + lam * P.E) @ ep.u1
    seed_dr = _psd_clip(
        -(herm_skew_parts(np.outer(y1, pinv(ep.u2, cfg)) + np.outer(w1v, pinv(ep.u1, cfg)).conj().T @ null_projector(ep.u2, cfg))[0])
    )
    eigs, vecs = np.linalg.eigh((seed_dr + seed_dr.conj().T) / 2.0)
    g_seed = (vecs * np.sqrt(np.maximum(eigs, 0.0))) @ vecs.conj().T
    starts = [g_seed]
    for _ in range(budget.restarts - 1):
        starts.append(_crandn(rng, n, n) * 0.3)

    import scipy.optimize  # deferred: the import costs more than most CLI calls

    best = None
    for g0 in starts:
        gvec = np.empty(2 * n * n)
        gvec[0::2] = g0.real.reshape(-1)
        gvec[1::2] = g0.imag.reshape(-1)
        for mu in (1e4, 1e6, 1e8, 1e10, 1e12, 1e14):
            res = scipy.optimize.minimize(
                fun, gvec, args=(mu,), method="L-BFGS-B", jac=True,
                options={"maxiter": budget.max_iterations, "ftol": 1e-18, "gtol": 1e-14},
            )
            gvec = res.x
        g, dR, theta, pen = split_val(gvec)
        val = math.sqrt(fro(dR) ** 2 + float(theta @ theta))
        if best is None or (pen, val) < (best[3], best[0]):
            best = (val, gvec, theta, pen)
    val, gvec, theta, pen = best
    g, dR, theta, pen = split_val(gvec)
    dJ, dE, dB = _assemble_blocks(bases, theta, n, m)
    pert = PerturbationBlocks(dJ=dJ, dR=dR, dE=dE, dB=dB)
    converged = pen <= 1e-7 * bscale
    return OracleEtaResult(pert.norm(), pert, bool(converged), float(pen))


def _oracle_eta_linear_with_r(P, ep, blocks, cfg, bscale):
    """Variant "s" with an R block: dR Hermitian enters linearly."""
    n, m = P.n, P.m
    lam = ep.lam
    bases = []
    if "J" in blocks:
        bases += [("J", b) for b in family_basis(StructureFamily.SKEW_HERMITIAN, n)]
    bases += [("R", b) for b in family_basis(StructureFamily.HERMITIAN, n)]
    if "E" in blocks:
        bases += [("E", b) for b in family_basis(StructureFamily.HERMITIAN, n)]
    if "B" in blocks:
        bases += [("B", b) for b in _rect_basis(n, m)]
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
        col = np.concatenate([r1, r2, r3]) if "B" in blocks else np.concatenate([r1, r2])
        cols.append(col)
    a_c = np.stack(cols, axis=1)
    a = np.vstack([a_c.real, a_c.imag])
    b = _rhs(P, ep, blocks, np.zeros((n, n), dtype=complex))
    theta, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = fro(a @ theta - b)
    if resid > cfg.residual_tol * bscale * 100:
        raise InconsistentConstraintsError(f"inconsistent constraints (residual {resid:.3e})")
    dJ = np.zeros((n, n), dtype=complex)
    dR = np.zeros((n, n), dtype=complex)
    dE = np.zeros((n, n), dtype=complex)
    dB = np.zeros((n, m), dtype=complex)
    for t, (kind, bmat) in zip(theta, bases):
        if kind == "J":
            dJ += t * bmat
        elif kind == "R":
            dR += t * bmat
        elif kind == "E":
            dE += t * bmat
        else:
            dB += t * bmat
    pert = PerturbationBlocks(dJ=dJ, dR=dR, dE=dE, dB=dB)
    return OracleEtaResult(pert.norm(), pert, True, float(resid))


# ---------------------------------------------------------------------------
# residual audits


@dataclass
class VerificationReport:
    interp_resid: float
    adjoint_resid: float
    structure_dev: float
    min_eig: float | None
    ok: bool
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "interp_resid": self.interp_resid,
            "adjoint_resid": self.adjoint_resid,
            "structure_dev": self.structure_dev,
            "min_eig": self.min_eig,
            "ok": self.ok,
            **self.details,
        }


def verify_solution(
    delta,
    problem,
    family: StructureFamily,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Residual audit of a claimed solution against its problem data.

    Reports relative interpolation residuals for both constraints, the
    structure deviation of the square block, and (for cone families) the
    relevant extreme eigenvalue.  ``ok`` is the conjunction of all
    per-item tolerance checks.
    """
    delta = as_complex(delta, "delta")
    family = StructureFamily(family)
    z = w = None
    if isinstance(problem, DsmProblem):
        x, y, z, w = problem.x, problem.y, problem.z, problem.w
        nsq = problem.n
    elif isinstance(problem, Type1Problem):
        x, y, z, w = problem.X, problem.Y, problem.Z, problem.W
        nsq = problem.X.shape[0]
    elif len(problem) == 2:
        x, y = (as_complex(v) for v in problem)
        nsq = delta.shape[0]
    else:
        x, y, z, w = (as_complex(v) for v in problem)
        nsq = delta.shape[0]
    d1 = delta[:, :nsq]

    scale_x = max(1.0, fro(delta) * fro(x) + fro(y))
    r1 = fro(delta @ x - y) / scale_x
    if z is not None:
        scale_z = max(1.0, fro(delta) * fro(z) + fro(w))
        r2 = fro(delta.conj().T @ z - w) / scale_z
    else:
        r2 = 0.0

    min_eig: float | None = None
    sd = max(1.0, fro(d1))
    if family is StructureFamily.HERMITIAN:
        dev = fro(d1 - d1.conj().T) / sd
    elif family is StructureFamily.SKEW_HERMITIAN:
        dev = fro(d1 + d1.conj().T) / sd
    elif family is StructureFamily.SYMMETRIC:
        dev = fro(d1 - d1.T) / sd
    elif family is StructureFamily.SKEW_SYMMETRIC:
        dev = fro(d1 + d1.T) / sd
    elif family in (StructureFamily.PSD, StructureFamily.NSD):
        dev = fro(d1 - d1.conj().T) / sd
        eigs = np.linalg.eigvalsh((d1 + d1.conj().T) / 2.0)
        min_eig = float(eigs[0]) if family is StructureFamily.PSD else float(-eigs[-1])
    elif family in (StructureFamily.DISSIPATIVE, StructureFamily.ANTI_DISSIPATIVE):
        dev = 0.0
        hh = (d1 + d1.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(hh)
        min_eig = float(eigs[0]) if family is StructureFamily.DISSIPATIVE else float(-eigs[-1])
    else:
        dev = 0.0

    tol = cfg.residual_tol * 100
    ok = r1 <= tol and r2 <= tol and dev <= tol
    if min_eig is not None:
        ok = ok and min_eig >= -cfg.psd_tol * sd * 100
    return VerificationReport(r1, r2, dev, min_eig, bool(ok))

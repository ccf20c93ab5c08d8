"""Independent numerical ground truth for the mapping solvers.

Two regimes, matching the geometry of the feasible sets:

* linear-variety problems (no cone constraint) are solved exactly by
  real-vectorization: expand the unknown over an orthonormal real basis
  of the structure class and take the minimum-norm solution of the
  stacked linear constraints.  The result is a true global minimum up to
  solver precision.  Each basis element has at most two nonzero entries
  and is kept as those entries (``family_basis``), so the constraint
  matrix is filled by fancy indexing in time and memory of its own size.
* cone-constrained problems (semidefinite or dissipative blocks) are
  minimized by seeded multi-restart descent over the free parameters of
  the solution-set characterization, with semidefinite parameters kept
  feasible by eigenvalue clipping or Gram factorization.  Every iterate
  is feasible, so the returned value is an upper bound on the true
  minimum; test assertions are one-sided accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .dsm import DsmProblem, Type1Problem
from .errors import DegenerateInputError, InconsistentConstraintsError
from .linalg import as_complex, fro, herm_skew_parts, null_projector, pinv, svd_split
from .maps import _REFLECTED, LINEAR_FAMILIES, StructureFamily, _deviation, _reflect
from .pencil import EigenPair, PHPencil, PerturbationBlocks, _crandn, mapping_data, parse_blocks

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


def _elements(first, second, coefs):
    """Elements a E_first + b E_second, one per position pair and (a, b) in ``coefs``.

    ``first`` and ``second`` are (row, column) index arrays; the elements of
    one position pair are adjacent, in the order of ``coefs``.
    """
    nv = len(coefs)
    r = np.repeat(np.stack([first[0], second[0]], axis=1), nv, axis=0)
    k = np.repeat(np.stack([first[1], second[1]], axis=1), nv, axis=0)
    c = np.tile(np.array(coefs, dtype=complex), (len(first[0]), 1))
    return r, k, c


def _full_basis(rows: int, cols: int):
    """E_jk and i E_jk for every entry of C^{rows x cols}, row by row, in sparse form."""
    pos = np.divmod(np.arange(rows * cols), cols)
    return _elements(pos, pos, [(1.0, 0.0), (1j, 0.0)])


def family_basis(family: StructureFamily, n: int):
    """Orthonormal real basis of the family subspace of C^{n x n}, in sparse form.

    Every element has at most two nonzero entries, so the basis is returned
    as index arrays and coefficients ``(r, k, c)``, each of shape (d, 2):
    element b is ``c[b, 0] E_{r[b, 0] k[b, 0]} + c[b, 1] E_{r[b, 1] k[b, 1]}``,
    with ``c[b, 1] = 0`` for a one-entry element.  Orthonormal under the real
    inner product Re(trace(B* A)), so the Euclidean norm of a coefficient
    vector equals the Frobenius norm of the matrix it represents.  Order:
    every entry row by row (unstructured), or the diagonal, then the pairs
    (j, k), j < k, row by row; the real element of a position comes before
    the imaginary one.
    """
    family = StructureFamily(family)
    if family is StructureFamily.UNSTRUCTURED:
        return _full_basis(n, n)
    s = 1.0 / math.sqrt(2.0)
    diag = (np.arange(n), np.arange(n))
    upper = np.triu_indices(n, 1)
    lower = upper[::-1]
    if family in (StructureFamily.HERMITIAN, StructureFamily.SKEW_HERMITIAN):
        parts = [_elements(diag, diag, [(1.0, 0.0)]), _elements(upper, lower, [(s, s), (1j * s, -1j * s)])]
    elif family is StructureFamily.SYMMETRIC:
        parts = [_elements(diag, diag, [(1.0, 0.0), (1j, 0.0)]), _elements(upper, lower, [(s, s), (1j * s, 1j * s)])]
    elif family is StructureFamily.SKEW_SYMMETRIC:
        parts = [_elements(upper, lower, [(s, -s), (1j * s, -1j * s)])]
    else:
        raise ValueError(f"{family.value} is not a linear class")
    r, k, c = (np.concatenate(a) for a in zip(*parts))
    return r, k, 1j * c if family is StructureFamily.SKEW_HERMITIAN else c


def _stacked(*parts):
    """One basis from parts (basis, first column, factor), in order."""
    return tuple(
        np.concatenate(a) for a in zip(*((r, k + col0, factor * c) for (r, k, c), col0, factor in parts))
    )


def _real(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a.real, a.imag])


def _system(basis, constraints, shape):
    """Real constraint matrix and right-hand side for sum_b theta_b B_b.

    The complex rows are those of the constraints in order: B_b v for
    ("mul", v, r) and B_b* v for ("adj", v, r), built by fancy indexing from
    the (at most two) entries of each element.  All real parts come before
    all imaginary parts.
    """
    r, k, c = basis
    b = np.arange(c.shape[0])
    if any(kind not in ("mul", "adj") for kind, *_ in constraints):
        raise ValueError("constraint kinds are 'mul' and 'adj'")
    sizes = [shape[0] if kind == "mul" else shape[1] for kind, *_ in constraints]
    a = np.zeros((sum(sizes), b.shape[0]), dtype=complex)
    row0 = 0
    for (kind, v, _), size in zip(constraints, sizes):
        out, at, coef = (r, k, c) if kind == "mul" else (k, r, c.conj())
        a[row0 + out[:, 0], b] = coef[:, 0] * v[at[:, 0]]
        a[row0 + out[:, 1], b] += coef[:, 1] * v[at[:, 1]]
        row0 += size
    return _real(a), _real(np.concatenate([rhs for *_, rhs in constraints]))


def _assemble(basis, theta: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The matrix sum_b theta_b B_b."""
    r, k, c = basis
    out = np.zeros(shape, dtype=complex)
    np.add.at(out, (r.ravel(), k.ravel()), (theta[:, None] * c).ravel())
    return out


def _least_norm(basis, constraints, shape):
    """Least-norm real coefficients meeting the constraints, and the residual norm."""
    a, b = _system(basis, constraints, shape)
    theta = np.linalg.lstsq(a, b, rcond=None)[0]
    return theta, fro(a @ theta - b)


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
        basis = _full_basis(rows, cols)
    else:
        structure = StructureFamily(structure)
        if structure not in LINEAR_FAMILIES:
            raise ValueError(f"{structure.value} is not a linear class; use the descent oracle")
        blk = split if split is not None else cols
        if blk != rows:
            raise ValueError("the structured block must be square")
        basis = _stacked((family_basis(structure, rows), 0, 1.0), (_full_basis(rows, cols - blk), blk, 1.0))

    theta, resid = _least_norm(basis, constraints, shape)
    if resid > cfg.residual_tol * max(1.0, fro(np.concatenate([r for *_, r in constraints]))) * 100:
        raise InconsistentConstraintsError(f"constraints inconsistent (residual {resid:.3e})")
    return _assemble(basis, theta, shape), float(np.linalg.norm(theta))


# ---------------------------------------------------------------------------
# cone-constrained descent oracles


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _psd_clip(a: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(_herm(a))
    return (vecs * np.maximum(eigs, 0.0)) @ vecs.conj().T


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


def _oracle_type1(q: Type1Problem, budget: OracleBudget, cfg: ToleranceConfig):
    """Descent over the free block of the square dissipative characterization."""
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


def _oracle_type2(p: DsmProblem, budget: OracleBudget, cfg: ToleranceConfig):
    """L-BFGS over the rectangular dissipative characterization parameters.

    Parameters: t = Z* z (complex n-vector), a Gram factor for the PSD
    slack, and a skew generator; the arbitrary column parameter R is
    eliminated exactly at every evaluation.
    """
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
        return t, lg, (gf - gf.conj().T) / 2.0

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
):
    """Numerically minimize the Frobenius norm over the structured feasible set.

    Linear families get the exact vectorized solve; semidefinite and
    dissipative families run seeded multi-restart descent over the
    characterization's free parameters.  NSD and anti-dissipative problems
    go through the reflection rule ``maps._reflect``: the PSD and
    dissipative problems of the data (x, -y, z, -w), negated.  A
    ``Type1Problem`` (square matrix data) gets the (anti-)dissipative
    oracle.  Returns (Delta, norm); for the descent families the norm is an
    upper bound on the true minimum.
    """
    if not isinstance(problem, (DsmProblem, Type1Problem)):
        raise TypeError("problem must be a DsmProblem or Type1Problem")
    family = StructureFamily(family)
    if family in _REFLECTED:
        names = ("Y", "W") if isinstance(problem, Type1Problem) else ("y", "w1", "w2")
        return _reflect(
            family, lambda base, **yw: oracle_min_structured(replace(problem, **yw), base, budget, cfg),
            **{name: getattr(problem, name) for name in names},
        )
    if isinstance(problem, Type1Problem):
        return _oracle_type1(problem, budget, cfg)
    p = problem
    if family in LINEAR_FAMILIES:
        constraints = [("mul", p.x, p.y), ("adj", p.z, p.w)]
        return oracle_least_norm(constraints, family, shape=(p.n, p.n + p.m), split=p.n, cfg=cfg)
    if family is StructureFamily.PSD:
        return _oracle_dsm_psd(p, budget, cfg)
    if family is StructureFamily.DISSIPATIVE:
        return _oracle_type2(p, budget, cfg)
    raise ValueError(f"unsupported family {family}")


# ---------------------------------------------------------------------------
# backward-error oracle


@dataclass
class OracleEtaResult:
    value: float
    perturbation: PerturbationBlocks
    converged: bool
    constraint_residual: float


def _eta_system(P: PHPencil, ep: EigenPair, y: np.ndarray, w: np.ndarray, blocks, linear_r: bool):
    """Sparse bases and constraints of the block equations of (L - dL)(lam) u = 0.

    The square blocks enter as D = dJ - dR + lam dE, so with the mapping data
    (x, y, z, w) of the eigenpair the equations read D u2 = y, D* u1 = w1 and,
    when B is selected, dB* u1 = w2: constraints on [D dB] with x = [u2; 0]
    and z = u1.  Returns the basis of each block solved linearly (dR only
    when ``linear_r``), their stacked basis, the constraints and the shape.
    """
    n = P.n
    factor = {"J": 1.0, "R": -1.0, "E": ep.lam}
    bases = {}
    for name in "JRE":
        if name in blocks and (name != "R" or linear_r):
            fam = StructureFamily.SKEW_HERMITIAN if name == "J" else StructureFamily.HERMITIAN
            bases[name] = family_basis(fam, n)
    parts = [(basis, 0, factor[name]) for name, basis in bases.items()]
    cols = n
    if "B" in blocks:
        bases["B"] = _full_basis(n, P.m)
        parts.append((bases["B"], n, 1.0))
        cols += P.m
    x = np.concatenate([ep.u2, np.zeros(cols - n, dtype=complex)])
    constraints = [("mul", x, y), ("adj", ep.u1, w[:cols])]
    return bases, _stacked(*parts), constraints, (n, cols)


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
    if ep.lam == 0:
        raise DegenerateInputError("lambda must be nonzero imaginary")
    _, y, _, w = mapping_data(P, ep)
    # ||L|| ||u|| with ||L||^2 = ||M||^2 = 2 ||J - R||^2 + 2 ||B||^2 + ||S||^2, no unit floor
    rt2 = math.sqrt(2.0)
    bscale = math.hypot(rt2 * fro(P.J - P.R), rt2 * fro(P.B), fro(P.S)) * fro(ep.u)
    # rows of (L - dL)(lam) u = 0 that no selected block can influence are
    # pure data conditions; reject inadmissible eigenpairs loudly
    if fro(ep.u3) > cfg.residual_tol * bscale * 100:
        raise InconsistentConstraintsError("u3 != 0: backward error is infinite")
    if "B" not in blocks and fro(w[n:]) > cfg.residual_tol * bscale * 100:
        raise InconsistentConstraintsError(
            f"B* u1 + S u3 != 0 with no B perturbation (residual {fro(w[n:]):.3e})"
        )
    linear = variant == "s" or "R" not in blocks
    bases, basis, constraints, shape = _eta_system(P, ep, y, w, blocks, linear)

    def perturbation(theta, dR=None):
        """The blocks of a coefficient vector; a given dR is not among them."""
        out = {name: np.zeros((n, m if name == "B" else n), dtype=complex) for name in "JREB"}
        if dR is not None:
            out["R"] = dR
        ends = np.cumsum([b[2].shape[0] for b in bases.values()])[:-1]
        for (name, b), t in zip(bases.items(), np.split(theta, ends)):
            out[name] = _assemble(b, t, out[name].shape)
        return PerturbationBlocks(out["J"], out["R"], out["E"], out["B"])

    if linear:
        theta, resid = _least_norm(basis, constraints, shape)
        if resid > cfg.residual_tol * bscale * 100:
            raise InconsistentConstraintsError(
                f"eigenpair not admissible for {''.join(sorted(blocks))} (residual {resid:.3e})"
            )
        pert = perturbation(theta)
        return OracleEtaResult(pert.norm(), pert, True, float(resid))

    # semidefinite variant with an R block: outer search over the Gram factor.
    # f(G) = ||G G*||^2 + ||theta(G)||^2 + mu * ||(I - A A+) b(G)||^2 with the
    # non-R blocks eliminated exactly through the precomputed pseudoinverse;
    # the gradient is assembled analytically through W = G G*.
    a, b0 = _system(basis, constraints, shape)
    a_pinv = np.linalg.pinv(a) if a.shape[1] else a.T
    proj_out = np.eye(a.shape[0]) - a @ a_pinv
    kc = a.shape[0] // 2  # complex constraint rows
    pad = np.zeros(kc - 2 * n, dtype=complex)

    def rhs(dr: np.ndarray) -> np.ndarray:
        """b(dR): the rows D u2 = y and D* u1 = w1 gain dR u2 and dR u1."""
        return b0 + _real(np.concatenate([dr @ ep.u2, dr @ ep.u1, pad]))

    def split_val(gvec):
        g = (gvec[: 2 * n * n : 2] + 1j * gvec[1 : 2 * n * n : 2]).reshape(n, n)
        dR = g @ g.conj().T
        b = rhs(dR)
        theta = a_pinv @ b
        pen = fro(proj_out @ b)
        return g, dR, theta, pen

    def fun(gvec, mu):
        g = (gvec[: 2 * n * n : 2] + 1j * gvec[1 : 2 * n * n : 2]).reshape(n, n)
        dr = g @ g.conj().T
        b = rhs(dr)
        theta = a_pinv @ b
        pvec = proj_out @ b
        val = fro(dr) ** 2 + float(theta @ theta) + mu * float(pvec @ pvec)
        g_b = 2.0 * (a_pinv.T @ theta) + 2.0 * mu * pvec
        gc = g_b[:kc] + 1j * g_b[kc:]
        grad_w = 2.0 * dr + _herm(np.outer(gc[:n], ep.u2.conj()) + np.outer(gc[n : 2 * n], ep.u1.conj()))
        grad_g = 2.0 * (grad_w @ g)
        out = np.empty_like(gvec)
        out[0::2] = grad_g.real.reshape(-1)
        out[1::2] = grad_g.imag.reshape(-1)
        return val, out

    rng = np.random.default_rng(budget.seed)
    # warm start from the claimed solution when the caller has one: use the
    # Hermitian part of the forced square block as a generic PSD seed
    seed_dr = _psd_clip(
        -(herm_skew_parts(np.outer(y, pinv(ep.u2, cfg)) + np.outer(w[:n], pinv(ep.u1, cfg)).conj().T @ null_projector(ep.u2, cfg))[0])
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
    pert = perturbation(theta, dR)
    converged = pen <= 1e-7 * bscale
    return OracleEtaResult(pert.norm(), pert, bool(converged), float(pen))


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
    elif isinstance(problem, Type1Problem):
        x, y, z, w = problem.X, problem.Y, problem.Z, problem.W
    elif len(problem) == 2:
        x, y = (as_complex(v) for v in problem)
    else:
        x, y, z, w = (as_complex(v) for v in problem)
    d1 = delta[:, : delta.shape[0]]  # the square block; Delta has n rows in every problem

    scale_x = max(1.0, fro(delta) * fro(x) + fro(y))
    r1 = fro(delta @ x - y) / scale_x
    if z is not None:
        scale_z = max(1.0, fro(delta) * fro(z) + fro(w))
        r2 = fro(delta.conj().T @ z - w) / scale_z
    else:
        r2 = 0.0

    min_eig: float | None = None
    sd = max(1.0, fro(d1))
    dev = _deviation(family, d1) / sd
    if family not in LINEAR_FAMILIES:  # the cones: the extreme eigenvalue of the Hermitian part
        eigs = np.linalg.eigvalsh((d1 + d1.conj().T) / 2.0)
        positive = family in (StructureFamily.PSD, StructureFamily.DISSIPATIVE)
        min_eig = float(eigs[0]) if positive else float(-eigs[-1])

    tol = cfg.residual_tol * 100
    ok = r1 <= tol and r2 <= tol and dev <= tol
    if min_eig is not None:
        ok = ok and min_eig >= -cfg.psd_tol * sd * 100
    return VerificationReport(r1, r2, dev, min_eig, bool(ok))

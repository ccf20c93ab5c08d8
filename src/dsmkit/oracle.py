"""Independent numerical ground truth for the mapping solvers.

Every problem here is a least-norm problem over an affine set: expand the
unknown over an orthonormal real basis of its structure class
(``family_basis``, one dense array), so the Frobenius norm of Delta is the
Euclidean norm of its coefficients theta and the interpolation constraints
are real linear rows, one array product each.

* Linear-variety problems (no cone) are solved exactly by the minimum-norm
  solution of the stacked rows.  The returned norm is the global minimum to
  solver precision.
* Cone problems add one Hermitian block that must be positive semidefinite:
  Delta1 for psd, Delta1 + Delta1* for the dissipative problems, dR for the
  semidefinite backward error.  They are convex (``_barrier``; Boyd &
  Vandenberghe, *Convex Optimization*, 2004): the equalities are eliminated
  exactly, and every answer comes with a dual bound that certifies that the
  norm of the returned feasible point exceeds the minimum by at most
  ``GAP_FACTOR * residual_tol`` relative.  Where the free directions move
  the block (after its fixed corner is removed) in every Hermitian
  direction and the minimum is the zero block, one linear solve gives the
  point and a second its KKT multiplier, whose semidefinite part is the
  certificate (Sec. 5.5.3): the semidefinite backward errors, whose minimal
  dR has rank one, are solved so.  Every other cone problem runs a log-det
  barrier method (Sec. 11): damped Newton steps with backtracking follow
  the central path (Sec. 9.2); when t grows at a centred point, the next
  step reuses all that depends on the point.  Nothing is started from, or
  parametrized by, the closed forms these problems check.

Every oracle is one call of one solve path, ``_solve_on_span``: compress to
the span of the data (``_compressed``), one least-norm solve and audit, the
cone solve (``_barrier``), and the lift back.  So a solve has a fixed small size
whatever n is; after Mackey, Mackey and Tisseur (SIMAX 2008), whose minimal
structured mappings are built from the data vectors alone.

**Lemma.**  Write Delta = [Delta1 Delta2] with Delta1 square and structured,
constrained by rows Delta v = r ("mul") and Delta* v = r ("adj").  Let V hold
every vector that meets Delta1 from either side (the r of "mul" rows, the v
of "adj" rows, and the leading parts of the other two), closed under
conjugation for the symmetric and skew-symmetric classes, and let W hold the
trailing parts of the v of "mul" rows and of the r of "adj" rows.  Let P and
S be the orthogonal projectors onto V and W.  If Delta is feasible, so is
(P Delta1 P, P Delta2 S), and its norm is no larger.

*Proof.*  P fixes every vector of V and S every vector of W, so
P Delta1 P v1 + P Delta2 S v2 = P (Delta1 v1 + Delta2 v2) = P r = r for a
"mul" row, and (P Delta1 P)* v = P Delta1* v = P r1 = r1,
(P Delta2 S)* v = S Delta2* v = S r2 = r2 for an "adj" row.  P is Hermitian,
and real for the bilinear classes, so P Delta1 P keeps every linear class,
and P C P is positive semidefinite when C is: the psd and dissipative cones
are kept, as is dR >= 0, since dJ, dR and dE all act through D = dJ - dR +
lam dE on the same vectors.  P and S are orthogonal projectors, so no
Frobenius norm grows.  Hence the minimum is attained at Delta1 = Q A Q*,
Delta2 = Q B S* for orthonormal bases Q of V and S of W: a problem in the
coefficients of A and B, of order dim V <= 4 for one pair of mapping vectors
(8 with conjugates, 4k for k columns), whatever n is.

The cone problems then shrink once more, to the row space of the map from
the free coefficients to the cone block.  The equalities leave theta =
theta0 + N phi, N orthonormal and orthogonal to theta0, and the block is
C(phi) = C0 + M(phi) with M linear; the minimum over phi is attained in
(ker M)^perp.  *Proof.*  Split phi = phi1 + phi2 with phi2 in ker M: then
C(phi) = C(phi1) and ||theta||^2 = ||theta0||^2 + ||phi1||^2 + ||phi2||^2,
so phi2 = 0 keeps the point feasible and lowers its norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .dsm import _AUDIT_FACTOR, DsmProblem, Type1Problem, _replaced
from .errors import CertificationError, DegenerateInputError, DimensionMismatchError, InconsistentConstraintsError
from .linalg import _kept, _semidefinite, as_complex, fro, svd_range
from .maps import FAMILIES, _LINEAR, StructureFamily, _reflect

if TYPE_CHECKING:
    from .pencil import EigenPair, PerturbationBlocks, PHPencil

__all__ = [
    "GAP_FACTOR",
    "family_basis",
    "oracle_least_norm",
    "oracle_min_structured",
    "OracleEtaResult",
    "oracle_eta",
]


# ---------------------------------------------------------------------------
# real-vectorized exact least-norm solves


def _read_only(basis: np.ndarray) -> np.ndarray:
    """A basis made read-only, so that a cached basis cannot be changed."""
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=64)
def _full_basis(rows: int, cols: int) -> np.ndarray:
    """E_jk and i E_jk for every entry of C^{rows x cols}, row by row (cached, read-only)."""
    size = rows * cols
    units = np.eye(size).reshape(size, 1, rows, cols) * np.array([1.0, 1j])[:, None, None]
    return _read_only(units.reshape(2 * size, rows, cols))


def family_basis(family: StructureFamily, n: int) -> np.ndarray:
    """Orthonormal real basis of the family subspace of C^{n x n}: a (d, n, n) array, element b at [b].

    One rule reads the family's (form, sign) from ``maps.FAMILIES``: each
    element is E + sign E^T (bilinear) or E + E* (sesquilinear, times i for
    the skew sign), normalised, for E = E_jk and i E_jk with j <= k, and the
    elements that cancel are dropped; no form gives every E_jk and i E_jk.
    Orthonormal under the real inner product Re(trace(B* A)), so the
    Euclidean norm of a coefficient vector equals the Frobenius norm of the
    matrix it represents.  Order: every entry row by row (unstructured), or
    the diagonal, then the pairs (j, k), j < k, row by row; the real element
    of a position comes before the imaginary one.  Dense, since every oracle
    solves on the span of its data, of order at most 8 per pair of mapping
    vectors whatever n is (the lemma above).  The array is read-only: one
    basis per (family, n) is cached and shared by every caller.
    """
    return _family_basis(StructureFamily(family), n)


@functools.lru_cache(maxsize=64)
def _family_basis(family: StructureFamily, n: int) -> np.ndarray:
    spec = FAMILIES[family]
    if spec.cone is not None:
        raise ValueError(f"{family.value} is not a linear class")
    if spec.form is None:
        return _full_basis(n, n)
    rows, cols = (np.concatenate([np.arange(n), at]) for at in np.triu_indices(n, 1))  # diagonal, then j < k
    e = _full_basis(n, n).reshape(n, n, 2, n, n)[rows, cols].reshape(2 * rows.size, n, n)
    sesquilinear = spec.form == "sesquilinear"
    b = e + (1 if sesquilinear else spec.sign) * (e.conj() if sesquilinear else e).swapaxes(1, 2)
    size = np.linalg.norm(b.reshape(b.shape[0], n * n), axis=1)
    b = b[size > 0.0] / size[size > 0.0, None, None]
    return _read_only(1j * b if sesquilinear and spec.sign < 0 else b)


def _stacked(*parts) -> np.ndarray:
    """One basis from parts (basis, first column, factor), in order, each placed from its first column."""
    rows = parts[0][0].shape[1]
    out = np.zeros((sum(b.shape[0] for b, *_ in parts), rows, max(col0 + b.shape[2] for b, col0, _ in parts)), complex)
    at = 0
    for b, col0, factor in parts:
        out[at : at + b.shape[0], :, col0 : col0 + b.shape[2]] = factor * b
        at += b.shape[0]
    return out


def _real(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a.real, a.imag])


def _system(basis, constraints):
    """Real constraint matrix and right-hand side for sum_b theta_b B_b.

    The complex rows are those of the constraints in order: B_b v for
    ("mul", v, r) and B_b* v for ("adj", v, r).  All real parts come before
    all imaginary parts.
    """
    a = np.concatenate([basis @ v if kind == "mul" else v @ basis.conj() for kind, v, _ in constraints], axis=1)
    return np.ascontiguousarray(_real(a.T)), _real(np.concatenate([rhs for *_, rhs in constraints]))


def _assemble(basis, theta: np.ndarray) -> np.ndarray:
    """The matrix sum_b theta_b B_b."""
    d, rows, cols = basis.shape
    return (theta @ basis.reshape(d, rows * cols)).reshape(rows, cols)


def _audit(resid: float, scale: float, what: str, cfg: ToleranceConfig) -> None:
    """The one inconsistency audit: raise unless resid <= ``_AUDIT_FACTOR * residual_tol * scale``.

    ``scale`` is the data's: ||(y, w)||, the right-hand sides of the rows, or ||L|| ||u|| for an eigenpair.
    """
    if resid > _AUDIT_FACTOR * cfg.residual_tol * scale:
        raise InconsistentConstraintsError(f"{what} (residual {resid:.3e})")


# ---------------------------------------------------------------------------
# compression onto the span of the data (the lemma of the module docstring)


def _compress(vectors, n: int, cfg: ToleranceConfig, real: bool = False) -> np.ndarray:
    """Orthonormal columns Q, n rows, whose span holds every vector of ``vectors``.

    Each nonzero vector is scaled to unit norm first, so that no vector is
    lost to the scale of another, and a thin SVD keeps the singular values
    above ``rank_tol`` times the largest.  With ``real`` the span is closed
    under conjugation and Q is real.  Q is the identity when the span is all
    of C^n, and one unit vector when every vector is zero: any Q whose span
    holds the data will do.
    """
    cols = [v / size for v in vectors if (size := fro(v)) > 0.0]
    if not cols:
        return np.eye(n)[:, :1]
    a = np.stack(cols, axis=1)
    if real:
        a = np.concatenate([a.real, a.imag], axis=1)
    q = svd_range(a, cfg)
    return np.eye(n) if q.shape[1] == n else q


def _compressed(constraints, split: int, cfg: ToleranceConfig, real: bool = False):
    """The constraints on [A1 A2] for Delta = [Q A1 Q*, Q A2 S*], Delta1 the leading ``split`` columns.

    Q spans the vectors that meet Delta1 from either side and the row side
    of Delta2 (closed under conjugation with ``real``); S spans the column
    side of Delta2.  With ``split`` 0 the whole Delta is Q A2 S*.  Returns Q,
    S, the compressed constraints and the norm of the parts of the
    right-hand sides outside the spans, which the residual of every
    compressed Delta misses: the residual of the lift is exactly the
    compressed residual and this norm, added in quadrature.
    """
    rows = [r if kind == "mul" else v for kind, v, r in constraints]
    cols = [v if kind == "mul" else r for kind, v, r in constraints]
    q = _compress(rows + [c[:split] for c in cols], rows[0].shape[0], cfg, real)
    s = _compress([c[split:] for c in cols], cols[0].shape[0] - split, cfg)

    def coords(basis, v):
        c = basis.conj().T @ v
        return c, fro(v - basis @ c)

    def column(v):
        (a, out_a), (b, out_b) = coords(q, v[:split]) if split else (v[:0], 0.0), coords(s, v[split:])
        return np.concatenate([a, b]), math.hypot(out_a, out_b)

    reduced, outside = [], []
    for kind, v, r in constraints:
        (vc, _), (rc, out) = (column(v), coords(q, r)) if kind == "mul" else (coords(q, v), column(r))
        reduced.append((kind, vc, rc))
        outside.append(out)
    return q, s, reduced, math.hypot(*outside)


def _solve_on_span(constraints, split: int, parts, cone: int | None, cfg: ToleranceConfig, scale: float | None = None,
                   what: str = "constraints inconsistent"):
    """The one solve of every oracle: the least-norm Delta = [D1 D2] meeting ``constraints``.

    The leading ``split`` columns D1 are sum_i f_i D1_i over ``parts``
    (family_i, f_i), each D1_i in its linear family, and the Hermitian part
    of D1_cone must be semidefinite when ``cone`` is not None; the trailing
    block D2 is unstructured, and the norm is that of (D1_1, D1_2, ..., D2).
    Compress to the span of the data (``_compressed``), solve (``_affine``),
    audit against ``scale`` (by default the norm of the right-hand sides)
    with the message ``what`` (``_audit``), solve on a cone
    (``_barrier``) and lift back.  Returns the D1_i, D2, the norm, a lower
    bound on the least norm (the norm without a cone) and the residual of
    the lift, compressed and outside parts in quadrature.
    """
    real = any(FAMILIES[family].form == "bilinear" for family, _ in parts)  # (skew-)symmetric: a real basis
    q, s, reduced, outside = _compressed(constraints, split, cfg, real)
    r = q.shape[1] if split else 0  # the order of the compressed square block
    bases = [family_basis(family, r) for family, _ in parts]
    trailing = _full_basis(q.shape[1], s.shape[1])
    basis = _stacked(*((b, 0, factor) for b, (_, factor) in zip(bases, parts)), (trailing, r, 1.0))
    theta, resid, null = _affine(basis, reduced, cfg)
    resid = math.hypot(resid, outside)
    _audit(resid, fro(np.concatenate([rhs for *_, rhs in constraints])) if scale is None else scale, what, cfg)
    sizes = [b.shape[0] for b in bases]
    theta, lower = (theta, None) if cone is None else _barrier(theta, null, (sum(sizes[:cone]), bases[cone]), cfg)
    *coefs, rest = np.split(theta, np.cumsum(sizes))
    square = [q @ _assemble(b, t) @ q.conj().T for b, t in zip(bases, coefs)]
    trailing = q @ _assemble(trailing, rest) @ s.conj().T
    norm = float(np.linalg.norm(theta))
    return square, trailing, norm, norm if lower is None else lower, resid


def oracle_least_norm(constraints, structure: StructureFamily | None = None, cfg: ToleranceConfig = DEFAULT_TOL):
    """Exact minimum-Frobenius-norm solution of linear matrix constraints.

    ``constraints`` is a list of ("mul", x, y) for Delta x = y and
    ("adj", z, w) for Delta* z = w.  ``structure`` restricts Delta, which
    must then be square, to a linear family.  No constraint, one that
    gives Delta other rows (the y of "mul", the z of "adj") or columns (the
    x of "mul", the w of "adj") than constraint 0, or a structured Delta
    that is not square raises ``DimensionMismatchError``; inconsistent ones raise
    ``InconsistentConstraintsError``.

    Returns (Delta, norm); the norm is a global minimum to solver
    precision since this is an exact vectorized least-norm solve, on the
    span of the data (``_solve_on_span``).
    """
    constraints = [(k, as_complex(v, f"constraint {i}: v").reshape(-1), as_complex(r, f"constraint {i}: r").reshape(-1))
                   for i, (k, v, r) in enumerate(constraints)]
    if not constraints:
        raise DimensionMismatchError("at least one constraint is needed")
    if any(kind not in ("mul", "adj") for kind, *_ in constraints):
        raise ValueError("constraint kinds are 'mul' and 'adj'")
    shapes = [(r.size, v.size) if kind == "mul" else (v.size, r.size) for kind, v, r in constraints]
    rows, cols = shapes[0]
    for i, (m, n) in enumerate(shapes):
        if (m, n) != (rows, cols):
            raise DimensionMismatchError(f"constraint {i} gives Delta {m} x {n}, constraint 0 {rows} x {cols}")
    parts, split = [], 0
    structure = StructureFamily(StructureFamily.UNSTRUCTURED if structure is None else structure)
    spec = FAMILIES[structure]
    if spec.cone is not None:
        raise ValueError(f"{structure.value} is not a linear class; use oracle_min_structured")
    if spec.form is not None:
        if rows != cols:
            raise DimensionMismatchError(f"the structured block must be square, got Delta {rows} x {cols}")
        parts, split = [(structure, 1.0)], cols
    square, trailing, norm, _, _ = _solve_on_span(constraints, split, parts, None, cfg)
    return square[0] if parts else trailing, norm


# ---------------------------------------------------------------------------
# cone-constrained least-norm solves: the zero block in closed form, or a log-det barrier method

#: a cone solve (closed form or barrier) ends once its certified gap, ||theta||^2 minus a
#: lower bound on the least ||theta||^2, is at most ``GAP_FACTOR * residual_tol`` of
#: ||theta||^2: the true minimum then lies within ``GAP_FACTOR * residual_tol``
#: (relative) below the norm it returns
GAP_FACTOR = 100.0
# t's growth and the centring test, from a table measured with a halving line search (CHANGES.md):
# (200, 1.0) took 11 Newton steps per path against 18 at (50, 0.1); larger pairs took fewer but
# failed some solves, (500, 1.0) one in 16 800 certify operations and (200, 2.0) about 2 %
_T_GROWTH = 200.0  # factor of the barrier weight t once a point is centred
_CENTRED = 1.0  # squared Newton decrement below which a point counts as centred
_NEWTON_STEPS = 300  # Newton steps allowed to one barrier solve
_SMALLEST_STEP = 1e-12  # a line search that must go below this step has stalled
_PHASE_ONE_RADIUS = 1e6  # phase I searches phi within this multiple of ||theta0|| + ||C(0)||


def _affine(basis, constraints, cfg: ToleranceConfig):
    """Least-norm coefficients theta0 meeting the constraints, the residual norm, and an
    orthonormal basis N of the directions they leave free (theta0 is orthogonal to N)."""
    a, b = _system(basis, constraints)
    u, s, vt = np.linalg.svd(a)  # full matrices: the trailing rows of V* span the free directions
    rank = int(np.count_nonzero(s > cfg.rank_tol * s.max(initial=0.0)))
    theta0 = vt[:rank].T @ ((u[:, :rank].T @ b) / s[:rank])
    return theta0, fro(a @ theta0 - b), vt[rank:].T


def _hermitian_parts(basis) -> np.ndarray:
    """(B_b + B_b*) / 2 for every element of a square basis, one row-major k^2 row each."""
    d, k, _ = basis.shape
    return ((basis + basis.conj().swapaxes(1, 2)) / 2.0).reshape(d, k * k)


def _cholesky(c: np.ndarray) -> np.ndarray | None:
    """The Cholesky factor of a Hermitian c, or None when c is not positive definite."""
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        return None


def _central_path(c0, flat, x, t, done, radius=None):
    """Newton steps along the central path of F(x) = t f(x) - logdet C(x), C(x) = c0 + (x @ flat).reshape(k, k).

    Row j of ``flat`` is the k x k Hermitian M_j, row-major, so C is affine
    in x.  C must be positive definite at the start x, and stays so: each
    step is a damped Newton step along the direction dx, a backtracking
    (Armijo) line search on F from s = 1, halving (Sec. 9.2).  With
    C(x + s dx) = L (I + s D) L^*, a step with 1 + s lambda_min(D) <= 0
    leaves the domain, seen from the eigenvalues of D that the step has
    already taken; the Cholesky factor at the point it accepts proves that
    point strictly feasible and serves the next step.  Once the squared
    Newton decrement is below ``_CENTRED``, t grows by ``_T_GROWTH`` and x
    stays: the next step reuses everything that depends on x alone (L^-1,
    kron, w, the barrier's gradient and Hessian).  f(x) = ||x||^2; given a
    ``radius`` (phase I), f(x) is the last coordinate s = x[-1] instead,
    and the barrier -log(radius^2 - ||p||^2) of the ball around the origin
    for the other coordinates p joins F, so the path stays bounded.

    With L the Cholesky factor of C(x), kron = L^-1 (x) conj(L^-1) maps a
    row-major M to L^-1 M L^-*, so the rows w_j = L^-1 M_j L^-* are
    ``flat @ kron.T``; the gradient of -logdet C at x is gb_j = -tr w_j and
    its Hessian hb = Re(w w*).  Before each step
    ``done(x, t, dx, kron, w, dw, eigs)`` is asked, with the Newton
    direction dx, dw = L^-1 M(dx) L^-* (row-major) and its eigenvalues eigs,
    ascending; the path returns x when it answers True and raises
    ``CertificationError`` after ``_NEWTON_STEPS`` steps.
    """
    k = c0.shape[0]

    def objective(x):
        return float(x @ x) if radius is None else x[-1]

    def value(x):
        """F(x) and the Cholesky factor of C(x), or (inf, None) outside the domain."""
        factor = _cholesky(c0 + (x @ flat).reshape(k, k))
        room = math.inf if radius is None else radius**2 - float(x[:-1] @ x[:-1])
        if factor is None or room <= 0.0:
            return math.inf, None
        ball = 0.0 if radius is None else math.log(room)
        return t * objective(x) - ball - 2.0 * np.log(np.diagonal(factor).real).sum(), factor

    fx, factor = value(x)
    if factor is None:
        raise CertificationError("the barrier's start is not strictly feasible: the cone block is ill-conditioned")
    eye = np.eye(x.size if radius is None else x.size - 1)
    for _ in range(_NEWTON_STEPS):
        if factor is not None:  # x has moved: what depends on x alone, kept while only t grows
            li = np.linalg.inv(factor)
            kron = (li[:, None, :, None] * li.conj()[None, :, None, :]).reshape(k * k, k * k)
            w = flat @ kron.T
            gb = -w[:, :: k + 1].real.sum(axis=1)
            wr = w.view(np.float64)  # Re(w w*) from the real view of the rows: the Hessian of -logdet C
            hb = wr @ wr.T
            factor = None
        if radius is None:
            grad = gb + 2.0 * t * x
            hess = hb + 2.0 * t * eye
        else:
            p = x[:-1]
            room = radius**2 - float(p @ p)
            grad = gb + np.append(2.0 * p / room, t)
            hess = hb.copy()
            hess[:-1, :-1] += 2.0 * eye / room + 4.0 * np.outer(p, p) / room**2
        dx = np.linalg.solve(hess, -grad)
        dw = dx @ w  # C(x + s dx) = L (I + s D) L^*, D = L^-1 M(dx) L^-*
        eigs = np.linalg.eigvalsh(dw.reshape(k, k))
        if done(x, t, dx, kron, w, dw, eigs):
            return x
        decrement = float(-grad @ dx)
        if decrement <= _CENTRED:
            fx += (_T_GROWTH - 1.0) * t * objective(x)  # F at the grown t, the same x
            t *= _T_GROWTH
            continue
        step = 1.0  # steps with 1 + s lambda_min(D) <= 0 leave the domain: no Cholesky needed to see it
        while step * eigs[0] <= -1.0 or (new := value(y := x + step * dx))[0] > fx - 0.25 * step * decrement:
            step /= 2.0
            if step < _SMALLEST_STEP:
                raise CertificationError("barrier line search stalled: the cone block is singular on the constraints")
        x, (fx, factor) = y, new
    raise CertificationError(f"barrier method did not finish in {_NEWTON_STEPS} Newton steps")


def _barrier(theta0, null, cone, cfg: ToleranceConfig):
    """Minimize ||theta|| over theta = theta0 + N phi with one Hermitian block semidefinite.

    ``cone`` is (first, basis): the elements first, first + 1, ... of theta
    span a square block in ``basis``, and its Hermitian part
    C(phi) = C0 + sum_j phi_j M_j must be positive semidefinite.  If C0 is
    semidefinite, theta0 (the least-norm point of the whole affine set) is
    the answer.  Otherwise phi is restricted to the row space of the cone
    map phi -> M(phi) = sum_j phi_j M_j: with V an orthonormal basis of
    (ker M)^perp (a thin SVD of the real view of the M_j), phi = V psi.
    This is exact: theta0 is orthogonal to N, so ||theta||^2 = ||theta0||^2
    + ||phi||^2, and a part of phi in ker M leaves C(phi) unchanged and only
    adds to the norm.  Every direction left moves C, so the Newton systems
    have barrier curvature in all of them.  The problem in psi (called phi
    again below) is scaled to ||theta0|| = 1 and solved on the Schur
    complement S of the directions of the block that no M_j moves
    (``_schur_complement``): a block whose conditioning does not collapse
    where the data fix a small corner of C, as the constraint Delta x = y
    fixes x* C x = x* y.  S(phi) = T* C(phi) T for a fixed T, so C(phi) >= 0
    implies S(phi) >= 0 and a dual bound for S bounds the minimum over C.
    The rank rule may drop directions that the M_j move by rounding or by
    up to ``rank_tol`` of their norm: S is taken only where that move is
    negligible against the corner, and the returned phi is checked on C.

    * Where the p directions move S, of order k, in every Hermitian
      direction (p = k^2) and its minimum is the zero block S(phi) = 0, one
      linear solve gives phi and a second the KKT multiplier Z
      (``_zero_block``).  This is the semidefinite backward error's case:
      its minimal dR has rank one (y y* / x*y), and the corner holds it.
    * Otherwise, with fewer directions (the type-2 problems) or a minimum
      of higher rank (a Z that is not semidefinite), ``_central_path`` runs
      two phases.  Phase I minimizes s over (phi, s) with C(phi) + s I
      positive definite, from phi = 0 and s = -2 lambda_min(C0), until
      s < 0; the point is then pulled back along the ray to the origin, to
      twice the parameter where the ray enters the cone, since phase I may
      run far out in directions that raise every eigenvalue.  Phase I stays
      on C: on S the M_j may span the identity, whose direction then
      carries no curvature in phase I's Newton systems.  Phase II follows
      the central path of t ||phi||^2 - logdet S(phi).  Each is a damped
      Newton step with backtracking (Sec. 9.2): s = 1, halved until the
      Armijo test holds; the Cholesky factor at the point it accepts proves
      that point strictly feasible and serves the next step, and a step at
      a grown t reuses the factorization and all that follows from it.

    The certificate is weak duality: for every Z >= 0,

        min ||theta||^2 >= ||theta0||^2 - <Z, C0> - ||M*(Z)||^2 / 4,

    M*(Z)_j = <Z, M_j>, here for S (its S0 and T* M_j T: a Z_S >= 0 for S
    is the Z = T Z_S T* >= 0 for C, with the same <Z, C0> and M*(Z)).  In
    the closed form Z is the semidefinite part of the multiplier, and the
    bound is ||theta||^2 when the multiplier is semidefinite.  In phase II
    Z is a multiple, the best one in closed form, of the dual point of the
    current Newton step dphi, S^-1 - S^-1 M(dphi) S^-1 (of S^-1 where that
    is not semidefinite).  Either stops once ||theta||^2 minus its bound is
    at most ``GAP_FACTOR * residual_tol`` of ||theta||^2, and returns the
    feasible theta with the square root of the bound, a lower bound on the
    least ||theta|| (||theta0|| when theta0 is the answer).  C(phi) must
    have no eigenvalue below ``-psd_tol`` times the scale of its terms,
    ||C0|| + ||M(phi)||, so that the zero block is in the cone: a closed-form
    phi that fails this goes to the barrier.  No strictly feasible phi
    (phase I's s stays >= 0 while its gap k / t falls below ``residual_tol``
    of ||C0||), no certified gap within ``_NEWTON_STEPS`` steps, a singular
    matrix in any barrier step (the Newton solve, the pull-back's Cholesky
    factor), or a barrier point that fails the check on C raises
    ``CertificationError``.
    """
    first, basis = cone
    k = basis.shape[1]
    parts = _hermitian_parts(basis)
    rows = slice(first, first + parts.shape[0])
    c0 = (theta0[rows] @ parts).reshape(k, k)
    eig0 = float(np.linalg.eigvalsh(c0)[0])
    unit = float(np.linalg.norm(theta0))  # the problem is homogeneous in (theta0, phi)
    if eig0 >= -cfg.psd_tol * fro(c0):  # theta0 minimizes over the whole affine set and is feasible
        return theta0, unit
    c0, eig0, scale = c0 / unit, eig0 / unit, fro(c0) / unit
    flat = null[rows].T @ parts

    def in_cone(phi):  # the scale of C0 + M(phi) is that of its terms: the zero block is in the cone
        move = (phi @ flat).reshape(k, k)
        return _semidefinite(c0 + move, fro(c0) + fro(move), cfg)

    try:
        v = svd_range(np.concatenate([flat.real, flat.imag], axis=1), cfg)
        flat, null = v.T @ flat, null @ v
        block = _schur_complement(c0, flat, cfg)
        found = _zero_block(*block, cfg)
        if found is None or not in_cone(found[1]):
            found = _phase_two(*block, _phase_one(c0, flat, eig0, scale, cfg), cfg)
            if not in_cone(found[1]):
                raise CertificationError("the barrier's point leaves the cone: a dropped direction moves the block")
    except np.linalg.LinAlgError as err:
        raise CertificationError(f"barrier step failed: {err}") from err
    bound, phi = found
    return theta0 + unit * (null @ phi), unit * math.sqrt(bound)


def _schur_complement(c0, flat, cfg: ToleranceConfig):
    """The cone block on the complement of the directions that no M_j moves (``_barrier``).

    U0 holds the right singular vectors of the stacked M_j that ``svd_range``'s rule drops, U1 the
    rest.  In the basis [U1 U0] C0 is [[C11, B], [B*, A]], and S(phi) = T* C(phi) T with
    T = U1 - U0 A^-1 B*: S0 = T* C0 T = C11 - B A^-1 B*, and the M_j become T* M_j T.  A
    congruence keeps semidefiniteness, so C(phi) >= 0 implies S(phi) >= 0 for every phi: S's
    feasible set holds C's, and a dual bound for S is one for C.  Where every M_j maps U0 to zero
    exactly, T* M_j T = U1* M_j U1 and S(phi) is C(phi)'s Schur complement over its fixed corner A:
    C(phi) is positive definite exactly when A and S(phi) are, and logdet C = logdet A + logdet S,
    so the feasible set and the central path are C's.  S is far better conditioned than C where A
    is small against the rest of the block.  The M_j move A by at most ||phi|| times the largest
    dropped singular value, so the corner counts as fixed only where that value is below
    ``residual_tol`` times A's least eigenvalue; ``_barrier`` checks the returned phi on C all the
    same.  Returns S0 and the rows of the T* M_j T (row-major), or (c0, flat) when every direction
    moves or the corner is not fixed (A not positive definite among them).
    """
    k = c0.shape[0]
    _, sv, vh = np.linalg.svd(flat.reshape(-1, k))  # descending: the moved directions lead
    r = int(np.count_nonzero(_kept(sv, cfg)))
    c = vh @ c0 @ vh.conj().T  # [[C11, B], [B*, A]]
    # the M_j move A by at most ||phi|| sv[r]: only where that is negligible against A is the corner fixed
    if r == k or not sv[r] < cfg.residual_tol * np.linalg.eigvalsh(c[r:, r:])[0]:
        return c0, flat
    factor = np.linalg.cholesky(c[r:, r:])
    g = np.linalg.solve(factor, c[r:, :r])  # L^-1 B*, so that B A^-1 B* = g* g
    th = vh[:r] - np.linalg.solve(factor.conj().T, g).conj().T @ vh[r:]  # T* = U1* - B A^-1 U0*
    kron = (th[:, None, :, None] * th.conj()[None, :, None, :]).reshape(r * r, k * k)  # M -> T* M T
    return c[:r, :r] - g.conj().T @ g, flat @ kron.T


def _zero_block(s0, flat, cfg: ToleranceConfig):
    """The minimum where it is the zero block S(phi) = 0, certified: (bound, phi), or None (``_barrier``).

    Only where the p directions span every Hermitian k x k matrix (p = k^2), so that M is invertible
    in the orthonormal real coordinates of ``family_basis(HERMITIAN, k)`` (<Z, M> is the dot product
    of the coordinates): phi solves M(phi) = -S0 and the multiplier Z solves M*(Z) = 2 phi, the
    stationarity of the Lagrangian ||phi||^2 - <Z, S(phi)>, with S(phi) Z = 0 (Boyd & Vandenberghe
    2004, Sec. 5.5.3).  The psd part Z+ of Z gives the weak-duality bound 1 - <Z+, S0> -
    ||M*(Z+)||^2 / 4, which is 1 + ||phi||^2 when Z >= 0; phi is returned when the bound is within
    ``GAP_FACTOR * residual_tol`` of it.
    """
    k = s0.shape[0]
    if flat.shape[0] != k * k:
        return None
    basis = family_basis(StructureFamily.HERMITIAN, k)

    def coords(rows):  # Re tr(B_b* H) for every element B_b, of every row-major H of ``rows``
        return (rows.reshape(-1, k * k) @ basis.reshape(k * k, k * k).conj().T).real

    a, g0 = coords(flat).T, coords(s0)[0]  # column j of a holds M_j
    try:
        phi = np.linalg.solve(a, -g0)
        z = np.linalg.solve(a.T, 2.0 * phi)
    except np.linalg.LinAlgError:
        return None
    eigs, u = np.linalg.eigh(_assemble(basis, z))
    zp = coords((u * np.maximum(eigs, 0.0)) @ u.conj().T)[0]
    m = a.T @ zp  # M*(Z+)
    bound, upper = 1.0 - float(zp @ g0) - float(m @ m) / 4.0, 1.0 + float(phi @ phi)
    return (bound, phi) if upper - bound <= GAP_FACTOR * cfg.residual_tol * upper else None


def _phase_one(c0, flat, eig0: float, scale: float, cfg: ToleranceConfig) -> np.ndarray:
    """A phi with C(phi) positive definite, pulled back towards the origin (``_barrier``)."""
    k = c0.shape[0]

    def feasible(x, t, *_):
        if x[-1] < 0.0:
            return True
        if k / t <= cfg.residual_tol * scale:
            raise CertificationError("no strictly feasible point: the cone block is singular on the constraint set")
        return False

    ext = np.concatenate([flat, np.eye(k).reshape(1, -1)])
    start = np.append(np.zeros(flat.shape[0]), -2.0 * eig0)
    phi = _central_path(c0, ext, start, k / start[-1], feasible, _PHASE_ONE_RADIUS * (1.0 + scale))[:-1]
    # C(lam phi) = (1 - lam) C0 + lam C(phi) is definite for lam > mu / (mu - 1), with mu < 0
    # the least eigenvalue of L^-1 C0 L^-* and C(phi) = L L^*
    li = np.linalg.inv(np.linalg.cholesky(c0 + (phi @ flat).reshape(k, k)))
    mu = float(np.linalg.eigvalsh(li @ c0 @ li.conj().T)[0])
    lam = min(1.0, 2.0 * mu / (mu - 1.0))
    return lam * phi if _cholesky(c0 + lam * (phi @ flat).reshape(k, k)) is not None else phi


def _phase_two(c0, flat, phi, cfg: ToleranceConfig):
    """Phase II from a strictly feasible phi: a certified lower bound on min ||theta||^2 and the
    feasible phi within the gap of it (``_barrier``)."""
    k = c0.shape[0]
    bound, ident = 1.0, np.eye(k).ravel()

    def certified(x, t, dx, kron, w, dw, eigs):
        nonlocal bound
        shifted = ident if eigs[-1] > 1.0 else ident - dw  # t L^* Z L, I when I - D is not semidefinite
        # t <Z, M_j> = <t L^* Z L, w_j>, from w: the equal -gb - hb dx cancels terms of
        # size cond(C)^2 near the boundary
        m = (w @ shifted.conj()).real  # t M*(Z)
        a = float(np.vdot(shifted, kron @ c0.ravel()).real)  # t <Z, C0>
        upper = 1.0 + float(x @ x)
        bound = 1.0 + (a * a / float(m @ m) if a < 0.0 else 0.0)
        return upper - bound <= GAP_FACTOR * cfg.residual_tol * upper

    phi = _central_path(c0, flat, phi, k / (1.0 + float(phi @ phi)), certified)
    return bound, phi


def oracle_min_structured(problem, family: StructureFamily, cfg: ToleranceConfig = DEFAULT_TOL):
    """Minimum Frobenius norm over the structured feasible set, and a point attaining it.

    One call of ``_solve_on_span`` for every family: exact for the linear
    families, and on a cone for psd (Delta1 semidefinite) and dissipative
    (Delta1 + Delta1* semidefinite).  A ``Type1Problem`` is the whole square
    Delta, one "mul" row per column of X and one "adj" row per column of Z,
    and is dissipative or anti-dissipative only.  NSD and anti-dissipative
    problems go through the reflection rule ``maps._reflect``: the PSD and
    dissipative problems of the data (x, -y, z, -w), negated.

    Returns (Delta, norm), norm = ||Delta||_F of the feasible Delta returned.
    For the cone families the true minimum lies within ``GAP_FACTOR *
    residual_tol`` (relative) below norm, certified by a dual bound; a
    problem without a strictly feasible point, or whose gap cannot be
    certified, raises ``CertificationError``.  Nothing is started from, or
    parametrized by, the closed-form solutions it checks.
    """
    if not isinstance(problem, (DsmProblem, Type1Problem)):
        raise TypeError("problem must be a DsmProblem or Type1Problem")
    family = StructureFamily(family)
    spec = FAMILIES[family]
    if spec.reflects is not None:
        names = ("Y", "W") if isinstance(problem, Type1Problem) else ("y", "w", "w1", "w2")
        return _reflect(
            family, lambda base, **yw: oracle_min_structured(_replaced(problem, **yw), base, cfg),
            **{name: getattr(problem, name) for name in names},
        )
    if isinstance(problem, Type1Problem):
        if spec.cone != "dissipative":  # anti-dissipative is reflected above
            raise ValueError("a Type1Problem takes the dissipative and anti-dissipative families only")
        n = problem.X.shape[0]
        constraints = [("mul", *c) for c in zip(problem.X.T, problem.Y.T)]
        constraints += [("adj", *c) for c in zip(problem.Z.T, problem.W.T)]
    else:
        n = problem.n
        constraints = [("mul", problem.x, problem.y), ("adj", problem.z, problem.w)]
    # Delta1 in the linear family of its row; the cone block: Delta1 for psd, Delta1 + Delta1* for dissipative
    part = _LINEAR[spec.form, spec.sign]
    (d1,), d2, norm, _, _ = _solve_on_span(constraints, n, [(part, 1.0)], None if spec.cone is None else 0, cfg)
    return np.concatenate([d1, d2], axis=1), norm


# ---------------------------------------------------------------------------
# backward-error oracle


@dataclass
class OracleEtaResult:
    """``value`` is the norm of ``perturbation``; the backward error lies in [lower, value]."""

    value: float
    perturbation: PerturbationBlocks
    converged: bool
    constraint_residual: float
    lower: float


def oracle_eta(
    P: PHPencil,
    ep: EigenPair,
    blocks,
    variant: str,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> OracleEtaResult:
    """Minimize the stacked-block perturbation norm over (L - dL)(lam) u = 0.

    The objective is ``sqrt(sum of ||d_block||_F^2)`` over the selected
    blocks, the same size convention the backward-error formulas use.  The
    square blocks enter as D = dJ - dR + lam dE, so with the mapping data
    (x, y, z, w) of the eigenpair the equations read D u2 = y, D* u1 = w1
    and, when B is selected, dB* u1 = w2: constraints on [D dB] with
    x = [u2; 0] and z = u1, one call of ``_solve_on_span``.  It is exact
    without an R block and for variant "s"; for variant "sd" dR must also
    be positive semidefinite, a cone; any other variant raises ``ValueError``.

    ``value`` is the norm of the returned feasible perturbation and
    ``lower`` a dual bound below the true backward error, equal to
    ``value`` on the exact path and capped at it on the cone (a zero gap
    can round the bound an ulp above ``value``); ``value`` exceeds ``lower``
    by at most ``GAP_FACTOR * residual_tol`` (relative), and ``converged``
    says so.  An inadmissible eigenpair raises
    ``InconsistentConstraintsError``; an R block that cannot be made
    positive definite on the constraint set, or a gap that cannot be
    certified, raises ``CertificationError``.
    """
    from .pencil import PerturbationBlocks, mapping_data, parse_blocks  # only this oracle needs the pencil layer

    blocks = parse_blocks(blocks)
    if variant not in ("s", "sd"):
        raise ValueError(f"variant must be 's' or 'sd', got {variant!r}")
    n, m = P.n, P.m
    if ep.lam == 0:
        raise DegenerateInputError("lambda must be nonzero imaginary")
    _, y, _, w = mapping_data(P, ep)
    # ||L|| ||u|| with ||L||^2 = ||M||^2 = 2 ||J - R||^2 + 2 ||B||^2 + ||S||^2, no unit floor
    rt2 = math.sqrt(2.0)
    bscale = math.hypot(rt2 * fro(P.J - P.R), rt2 * fro(P.B), fro(P.S)) * fro(ep.u)
    # rows of (L - dL)(lam) u = 0 that no selected block can influence are
    # pure data conditions; reject inadmissible eigenpairs loudly
    _audit(fro(ep.u3), bscale, "u3 != 0: backward error is infinite", cfg)
    if "B" not in blocks:
        _audit(fro(w[n:]), bscale, "B* u1 + S u3 != 0 with no B perturbation", cfg)
    cols = n + m if "B" in blocks else n
    x = np.concatenate([ep.u2, np.zeros(cols - n, dtype=complex)])
    parts = {"J": (StructureFamily.SKEW_HERMITIAN, 1.0), "R": (StructureFamily.HERMITIAN, -1.0),
             "E": (StructureFamily.HERMITIAN, ep.lam)}
    names = [name for name in "JRE" if name in blocks]
    cone = names.index("R") if variant == "sd" and "R" in blocks else None  # the cone: dR >= 0
    square, db, _, lower, resid = _solve_on_span(
        [("mul", x, y), ("adj", ep.u1, w[:cols])], n, [parts[name] for name in names], cone, cfg,
        bscale, f"eigenpair not admissible for {''.join(sorted(blocks))}",
    )
    out = dict(zip(names, square), B=db if "B" in blocks else np.zeros((n, m), dtype=complex))
    pert = PerturbationBlocks(*(out.get(name, np.zeros((n, n), dtype=complex)) for name in "JREB"))
    value = pert.norm()
    return OracleEtaResult(value, pert, True, resid, value if cone is None else min(lower, value))

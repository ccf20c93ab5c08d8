"""Doubly structured mapping solvers.

A doubly structured mapping problem asks for Delta = [Delta1  Delta2],
with Delta1 square and constrained to a structure family, such that
``Delta x = y`` and ``Delta* z = w``.  The solvers below return the
structured base solution H = [H1  H2], a bracket on the minimal
Frobenius norm, and an exactness flag raised when one of the sufficient
conditions certifies that H itself is the minimizer.

Norm bracket convention: ``norm_lower`` is the provable lower bound
(||H1||_F, from dropping the nonnegative column-block infimum term) and
``norm_upper = ||[H1 H2]||_F`` is the norm of the returned feasible
point.  When an exactness condition fires both ends collapse to the true
minimum.

The vector solvers return each block as a ``linalg.Factored`` of two
columns (H1 is map_min's Delta1 on (z, +-w1) or their conjugates; H2 is
(y - H1 x1) x2+ + (z+)* (P_x2 w2)*) and take the bracket from its Gram
cores, so a solve costs O(n + m) and forms no n x n array.  Reading H1, H2
forms that block once, in O(n^2) (O(n m) for H2); H is [H1 H2], formed by one
product of the stacked factors on each read.  ``jordan_lie_reduce`` lifts by
applying M* to the left factors, O(n^2).  ``dsdm_type1`` takes thin SVDs of
its n x m matrix data and returns ``minimizer`` and ``gram`` as factors of
at most 3m columns, for O(n m^2) in all.

The negated families go through the one reflection rule of ``maps``
(``_reflect``): nsd is psd, and ``anti=True`` is the dissipative problem,
on (x, -y, z, -w) with the result negated.
"""

from __future__ import annotations

import copy
import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConstraintViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    NotColinearError,
    StructureError,
)
from .linalg import DenseOnRead, Factored, _colinear_coeff, _pinv_vec, _range_factors, _semidefinite, as_complex, fro
from .maps import FAMILIES, _LINEAR, StructureFamily, _deviation, _incompatible, _label, _min_factors, _nonzero_vec
from .maps import _project, _reflect, _require, _require_structure, _sandwich, _shifted_psd, _violation

__all__ = [
    "DsmProblem",
    "DsmSolution",
    "DSM_FAMILIES",
    "dsm_solve",
    "dsm_characterize",
    "Type1Problem",
    "Type1Solution",
    "dsdm_type1",
    "dsdm_type1_vec",
    "dsdm_type2",
    "dsm_characterize_type2",
    "ScalarProduct",
    "jordan_lie_reduce",
]

#: structure families accepted by dsm_solve: those with a form
DSM_FAMILIES = tuple(family for family, spec in FAMILIES.items() if spec.form is not None)


@dataclass(frozen=True)
class DsmProblem:
    """Data (x, y, z, w), x = [x1; x2] and w = [w1; w2] split at n: validated once, frozen with n, m, x, w, _norms."""

    x1: np.ndarray
    x2: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self) -> None:
        attrs = vars(self)  # frozen: set through the instance dict
        attrs.update({name: as_complex(attrs[name], name).reshape(-1) for name in ("x1", "x2", "y", "z", "w1", "w2")})
        n, m = self.x1.shape[0], self.x2.shape[0]
        shapes = (n, self.y.shape[0], self.z.shape[0], self.w1.shape[0])
        if shapes != (n, n, n, n) or self.w2.shape[0] != m:
            raise DimensionMismatchError(
                f"inconsistent dimensions: x1/y/z/w1 sizes {shapes}, x2 {m}, w2 {self.w2.shape[0]}"
            )
        attrs.update(n=n, m=m, x=np.concatenate([self.x1, self.x2]), w=np.concatenate([self.w1, self.w2]))
        attrs["_norms"] = {name: fro(attrs[name]) for name in ("x1", "x2", "y", "z", "w1", "x", "w")}


def _replaced(data, **arrays):
    """``replace(data, **arrays)`` for arrays derived from data's, not validated again; ``_norms`` carries over."""
    out = copy.copy(data)
    vars(out).update(arrays)
    return out


@dataclass
class DsmSolution:
    """A doubly structured solve: the blocks H1, H2 are held as ``Factored`` and formed on first read.

    The bracket was taken from the factors, so a caller that reads only the
    norms and verdicts never forms an n x n array.
    """

    family: StructureFamily
    feasible: bool
    H1: np.ndarray | None = DenseOnRead()
    H2: np.ndarray | None = DenseOnRead()
    norm_lower: float = float("inf")
    norm_upper: float = float("inf")
    exact: bool = False
    sufficiency_note: str = "never"
    reason: str = ""
    diagnostics: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def H(self) -> np.ndarray | None:
        """[H1 H2], None without a solution: a fresh array on each read, one product of the blocks' stacked factors."""
        h1, h2 = vars(self)["H1"], vars(self)["H2"]
        if h1 is None or h2 is None:
            return None
        if isinstance(h1, Factored) and isinstance(h2, Factored):
            return h1.beside(h2).dense()
        return np.hstack([self.H1, self.H2])


def _h2(p: DsmProblem, h1x1: np.ndarray) -> Factored:
    """Column block H2 = (y - H1 x1) x2+ + (w2 z+)* P_x2 = (y - H1 x1) x2+ + (z+)* (P_x2 w2)*."""
    f = [p.y - h1x1, _pinv_vec(p.z, p._norms["z"]).conj()]
    return Factored.outer_sum(f, [_pinv_vec(p.x2, p._norms["x2"]), _project(p.x2, p._norms["x2"], p.w2).conj()])


def _rank_one_rightmost(a: np.ndarray, x: np.ndarray, na: float, nx: float) -> tuple[float, float]:
    """Rightmost real part of the spectrum and of the numerical range of ``a x*``, for na = ||a||, nx = ||x||.

    The spectrum of the rank-one matrix is {x*a, 0, ..., 0}.  Its Hermitian
    part (a x* + x a*)/2 is zero off span{a, x} and acts on it as a 2 x 2
    matrix with trace Re(x*a) and determinant -(||a||^2 ||x||^2 - |x*a|^2)/4,
    so its largest eigenvalue is (Re(x*a) + sqrt(||a||^2 ||x||^2 - Im(x*a)^2))/2.
    The vectors are normalised first and 1 - |cos|^2 is taken as a residual
    norm, so neither overflow nor cancellation enters.
    """
    if na == 0.0 or nx == 0.0:
        return 0.0, 0.0
    ah, xh = a / na, x / nx
    s = np.vdot(xh, ah)
    if x.shape[0] == 1:  # no complement: the only eigenvalue is x*a
        return s.real * na * nx, s.real * na * nx
    r2 = fro(ah - s * xh) ** 2  # = 1 - |s|^2
    h = math.sqrt(s.real**2 + r2)
    top = (s.real + h) / 2.0 if s.real >= 0.0 else r2 / (2.0 * (h - s.real))
    return max(s.real, 0.0) * na * nx, top * na * nx


def _check_degenerate(family: StructureFamily, p: DsmProblem) -> None:
    if p._norms["z"] == 0.0:
        raise DegenerateInputError("z must be nonzero")
    if p._norms["w1"] == 0.0:
        raise DegenerateInputError("w1 must be nonzero")
    if p._norms["x2"] == 0.0:
        raise DegenerateInputError("x2 must be nonzero (the column-block construction needs it)")
    if FAMILIES[family].cone is not None and fro(p.w2) == 0.0:
        raise DegenerateInputError("w2 must be nonzero for the semidefinite and dissipative families")


def dsm_solve(
    family: StructureFamily,
    p: DsmProblem,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> DsmSolution:
    """Solve the doubly structured mapping problem for one structure family.

    Feasibility is the family's iff-condition: compatibility x*w = y*z
    plus the structural condition on z*w1 (real / imaginary / positive /
    z^T w1 = 0).  The NSD family is the PSD problem on (x, -y, z, -w),
    negated (``maps._reflect``).

    Exactness fires when x1 is colinear with z (conjugated z for the
    bilinear families), or, for the PSD family only, when every
    eigenvalue of the rank-one diagnostic matrix
    ``M = y x1* - (w1* x1 / z* w1) w1 x1* = a x1*`` has nonpositive real part;
    ``diagnostics["left_spectrum_factors"]`` holds (a, x1).
    """
    family = StructureFamily(family)
    if FAMILIES[family].form is None:
        raise ValueError(f"dsm_solve supports {[f.value for f in DSM_FAMILIES]}, got {family.value}")
    return _dsm_solve(family, p, cfg)


def _dsm_solve(family: StructureFamily, p: DsmProblem, cfg: ToleranceConfig) -> DsmSolution:
    """The one solve of ``dsm_solve``, ``dsdm_type2`` (the family without a form) and ``jordan_lie_reduce``."""
    spec, nrm = FAMILIES[family], p._norms
    if spec.reflects is not None:  # on the negated data, not validated again
        return _reflect(family, lambda base, **yw: _dsm_solve(base, _replaced(p, **yw), cfg),
                        y=p.y, w=p.w, w1=p.w1, w2=p.w2)
    _check_degenerate(family, p)
    if why := _incompatible(p.x, p.y, p.z, p.w, nrm, cfg):
        return DsmSolution(family, False, reason=why)
    if spec.form is None:
        return _type2(p, cfg)
    if why := _violation(spec, p.z, p.w1, cfg.residual_tol * nrm["z"] * nrm["w1"], ("z", "w1")):
        return DsmSolution(family, False, reason=why)

    # Delta1* = sign Delta1 (or Delta1^T = sign Delta1), so Delta1* z = w1 is map_min's Delta1 z = sign w1 (conjugated)
    bilinear = spec.form == "bilinear"
    z, w1 = (p.z.conj(), p.w1.conj()) if bilinear else (p.z, p.w1)
    h1 = Factored.outer_sum(*_min_factors(spec, z, spec.sign * w1, nrm["z"]))
    h2 = _h2(p, h1 @ p.x1)
    exact = _colinear_coeff(z, p.x1, nrm["x1"], cfg)[1]
    note = ("x1 colinear with conj(z)" if bilinear else "x1 colinear with z") if exact else "never"
    diagnostics: dict = {}
    warnings: list[str] = []
    if spec.cone == "psd":
        zw1 = np.vdot(p.z, p.w1)
        a = p.y - (np.vdot(p.w1, p.x1) / zw1) * p.w1
        na = fro(a)
        rightmost, herm_right = _rank_one_rightmost(a, p.x1, na, nrm["x1"])
        diagnostics["left_spectrum_factors"] = (a, p.x1)
        diagnostics["rightmost_real_part"] = rightmost
        floor = cfg.psd_tol * na * nrm["x1"]  # ||a x1*||_F, with no unit floor: the verdict is scale-free
        # The certifiable condition is the Hermitian part of the diagnostic
        # matrix in the left half-plane (equivalently its numerical range):
        # the trace-sign argument needs it, the spectrum alone is not enough.
        diagnostics["rightmost_numerical_range"] = herm_right
        if not exact and herm_right <= floor:
            exact = True
            note = "diagnostic matrix numerical range in closed left half-plane"
        elif not exact and rightmost <= floor:
            warnings.append(
                "diagnostic matrix has left spectrum but indefinite Hermitian part: "
                "minimality of the returned point is not certified"
            )

    h1_norm = h1.norm()
    upper = math.hypot(h1_norm, h2.norm())
    lower = upper if exact else h1_norm
    return DsmSolution(
        family,
        True,
        H1=h1,
        H2=h2,
        norm_lower=lower,
        norm_upper=upper,
        exact=exact,
        sufficiency_note=note,
        diagnostics=diagnostics,
        warnings=warnings,
    )


def dsm_characterize(
    family: StructureFamily,
    p: DsmProblem,
    K,
    R,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Evaluate the solution-set characterization H + H~(K, R).

    K carries the family structure (Hermitian / skew-Hermitian /
    symmetric / skew-symmetric / PSD) and R is an arbitrary n x m matrix.
    The perturbation terms are ``H1~ = P K P`` and
    ``H2~ = P_z R P_x2 - (P K P) x1 x2+``, where P is the projector pair
    of the family (P_z on both sides for the sesquilinear families,
    transposed conjugate projectors for the bilinear ones).  NSD is the PSD
    evaluation on (x, -y, z, -w), negated; R is reflected with the data, so
    it enters every family's set as ``P_z R P_x2``.
    """
    family = StructureFamily(family)
    K = as_complex(K, "K")
    R = as_complex(R, "R")
    if K.shape != (p.n, p.n):
        raise ConstraintViolationError("K_shape", f"K must be {p.n}x{p.n}, got {K.shape}")
    if R.shape != (p.n, p.m):
        raise ConstraintViolationError("R_shape", f"R must be {p.n}x{p.m}, got {R.shape}")
    return _dsm_characterize(family, p, K, R, cfg)


def _dsm_characterize(family: StructureFamily, p: DsmProblem, K, R, cfg: ToleranceConfig) -> np.ndarray:
    """``dsm_characterize`` on validated K, R: a negated family's reflection (R negated too) is not validated again."""
    spec = FAMILIES[family]
    if spec.reflects is not None:
        return _reflect(
            family,
            lambda base, R, **yw: _dsm_characterize(base, _replaced(p, **yw), K, R, cfg),
            y=p.y, w=p.w, w1=p.w1, w2=p.w2, R=R,
        )

    _require_structure(family, "K", K, cfg)
    sol = dsm_solve(family, p, cfg)
    if not sol.feasible:
        raise DegenerateInputError(f"infeasible problem: {sol.reason}")

    h1t = _sandwich(p.z, K, p.z.conj() if spec.form == "bilinear" else p.z)  # P_conj(z)^T = P_z
    return np.hstack([sol.H1 + h1t, sol.H2 + _h2_tilde(p, h1t, R)])


def _h2_tilde(p: DsmProblem, h1t: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Column-block perturbation ``P_z R P_x2 - H1~ x1 x2+`` that keeps ``Delta x = y``."""
    return _sandwich(p.z, R, p.x2) - np.outer(h1t @ p.x1, _pinv_vec(p.x2, p._norms["x2"]))


# ---------------------------------------------------------------------------
# dissipative mappings


@dataclass(frozen=True)
class Type1Problem:
    """Matrix data for the square dissipative two-sided problem; validated once, frozen with ``_norms``."""

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    W: np.ndarray

    def __post_init__(self) -> None:
        attrs = vars(self)  # frozen: set through the instance dict
        for name in "XYZW":
            a = as_complex(attrs[name], name)
            attrs[name] = a[:, None] if a.ndim == 1 else a
        if self.X.ndim != 2 or {self.Y.shape, self.Z.shape, self.W.shape} != {self.X.shape}:
            raise DimensionMismatchError("X, Y, Z, W must all share one n x m shape")
        attrs["_norms"] = {name: fro(attrs[name]) for name in "XYZW"}


@dataclass
class Type1Solution:
    """A square dissipative solve; ``minimizer`` and ``gram`` are held as ``Factored`` and formed on first read."""

    feasible: bool
    minimizer: np.ndarray | None = DenseOnRead()
    min_norm: float = float("inf")
    gram: np.ndarray | None = DenseOnRead()
    exact: bool = False
    hypothesis_ok: bool = True
    reason: str = ""
    conditions: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def dsdm_type1(
    q: Type1Problem,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    anti: bool = False,
) -> Type1Solution:
    """Square dissipative mapping: Delta + Delta* >= 0, Delta X = Y, Delta* Z = W.

    Hypotheses checked (violations downgrade to a warning and clear
    ``exact``; the formulas stay evaluable): range(X) = range(Z), and the
    kernel of ``U1*(YX+ + (YX+)*)U1`` contained in the kernel of
    ``U2*(YX+ + WZ+)U1``.  Feasibility is the four-condition test
    YX+X = Y, WZ+Z = W, X*W = Y*Z, X*Y + Y*X >= 0.

    With U1, U2 orthonormal bases of range(X) and its complement, the
    minimizer is ``YX+ + (WZ+)* - (WZ+)* XX+ + P_Z U2 J U2* P_X``, with
    ``J = 1/2 A (U1* M U1)^+ A*``, ``M = YX+ + (YX+)*`` and
    ``A = U2*(YX+ + WZ+)U1``.  U2 enters only through U2 U2* = I - XX+, so
    ``gram`` is the n x n U2 J U2*, Hermitian psd, free of the choice of U2
    and exactly 0 when rank X = n.
    Everything is formed from thin factors YX+ = G U1* and WZ+ = K Uz*
    (``linalg._range_factors``); the core U1* M U1 has rank by its
    eigenvalues above ``rank_tol * 2||G||``, the scale of the G it is formed
    from.  ``minimizer`` (n x k times k x n, k <= 3m) and ``gram`` (k <= m)
    are returned as ``Factored`` blocks with their norms taken from the
    factors, so the cost is O(n m^2); reading one forms it, in O(n^2 m).
    ``anti=True`` asks for Delta + Delta* <= 0 through ``maps._reflect``.
    """
    if anti:
        return _reflect(
            StructureFamily.ANTI_DISSIPATIVE, lambda _, **yw: dsdm_type1(_replaced(q, **yw), cfg), Y=q.Y, W=q.W
        )

    u1, v1, g = _range_factors(q.X, q.Y, cfg)
    uz, vz, kz = _range_factors(q.Z, q.W, cfg)
    u1h, uzh = u1.conj().T, uz.conj().T
    uz_u1 = uzh @ u1
    ng, nk = fro(g), fro(kz)

    warnings: list[str] = []
    conditions: dict = {}
    conditions["equal_ranks"] = u1.shape[1] == uz.shape[1]
    # ||XX+ - ZZ+||^2 = ||(I - XX+) Uz||^2 + ||(I - ZZ+) U1||^2, with ||XX+|| = sqrt(rank X)
    range_gap = math.hypot(fro(uz - u1 @ uz_u1.conj().T), fro(u1 - uz @ uz_u1))
    conditions["aligned_ranges"] = range_gap <= cfg.residual_tol * math.sqrt(u1.shape[1])
    c = u1h @ g
    ev, vecs = np.linalg.eigh(c + c.conj().T)  # the core U1* M U1
    kept = np.abs(ev) > cfg.rank_tol * 2.0 * ng
    tu1 = g + kz @ uz_u1  # (YX+ + WZ+) U1
    a = tu1 - u1 @ (u1h @ tu1) if u1.shape[1] < len(u1) else np.zeros_like(tu1)  # U2 U2* T U1; U2 may be empty
    # a may cancel to rounding, so its scale is that of the two terms it sums
    conditions["kernel_condition"] = fro(a @ vecs[:, ~kept]) <= cfg.residual_tol * (ng + nk)
    hypothesis_ok = all(conditions[k] for k in ("equal_ranks", "aligned_ranges", "kernel_condition"))
    if not hypothesis_ok:
        bad = [k for k in conditions if not conditions[k]]
        warnings.append(f"hypothesis violated ({', '.join(bad)}); result not certified")

    # the m x m products of the pairs (X, Y) and (Z, W), each scaled to norm 1, cannot overflow
    nx, ny, nz, nw = (q._norms[name] for name in "XYZW")
    sx, sz = max(nx, ny) or 1.0, max(nz, nw) or 1.0
    xh, yh, z, w = q.X.conj().T / sx, q.Y.conj().T / sx, q.Z / sz, q.W / sz
    xy = xh @ yh.conj().T
    checks = {
        "YXdX": fro(q.Y - (q.Y @ v1) @ v1.conj().T) <= cfg.residual_tol * ny,
        "WZdZ": fro(q.W - (q.W @ vz) @ vz.conj().T) <= cfg.residual_tol * nw,
        "XW_eq_YZ": fro(xh @ w - yh @ z) <= cfg.residual_tol * max((nx / sx) * (nw / sz), (ny / sx) * (nz / sz)),
        "XY_plus_YX_psd": _semidefinite(xy + xy.conj().T, (nx / sx) * (ny / sx), cfg),
    }
    conditions.update(checks)
    if not all(checks.values()):
        bad = [k for k, v in checks.items() if not v]
        return Type1Solution(
            False,
            reason=f"infeasible: {', '.join(bad)}",
            hypothesis_ok=hypothesis_ok,
            conditions=conditions,
            warnings=warnings,
        )

    b = a @ vecs[:, kept]
    bh = b.conj().T
    bd = b / (2.0 * ev[kept])  # gram = 1/2 A core+ A* = bd b*
    gram = Factored(bd, b.conj())
    k_u1 = kz.conj().T @ u1  # (WZ+)* U1 = Uz k_u1
    # YX+ + (WZ+)* (I - XX+) + (I - ZZ+) gram = [G | Uz | bd] [U1*; K* - k_u1 U1* - Uz* bd b*; b*]
    mini = Factored(np.hstack([g, uz, bd]), np.vstack([u1h, kz.conj().T - k_u1 @ u1h - (uzh @ bd) @ bh, bh]).T)
    norm_identity = ng**2 + nk**2 - fro(k_u1) ** 2 + gram.norm() ** 2
    return Type1Solution(
        True,
        minimizer=mini,
        min_norm=mini.norm(),
        gram=gram,
        exact=hypothesis_ok,
        hypothesis_ok=hypothesis_ok,
        conditions=conditions,
        warnings=warnings,
        diagnostics={"norm_identity_sq": norm_identity, "rank": u1.shape[1]},
    )


def dsdm_type1_vec(
    x,
    y,
    z,
    w,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    anti: bool = False,
) -> Type1Solution:
    """``dsdm_type1`` on the one-column data (x, y, z, w), with z colinear with x.

    The input contract of the vector case: every input nonzero and Re(x*y)
    bounded away from zero (``DegenerateInputError`` otherwise), and
    z = alpha x (``NotColinearError`` otherwise).  The result is
    ``dsdm_type1``'s, with ``conditions['colinear']`` and
    ``diagnostics['alpha']`` added; on one column X*Y + Y*X = 2 Re(x*y), so
    the solver is feasible iff x*w = y*z and Re(x*y) > 0.  ``anti=True``
    asks for Delta + Delta* <= 0.
    """
    (x, nx), (y, ny), (w, nw), (z, nz) = (_nonzero_vec(v, name) for v, name in ((x, "x"), (y, "y"), (w, "w"), (z, "z")))
    alpha, colinear = _colinear_coeff(x, z, nz, cfg)
    if not colinear:
        raise NotColinearError(f"z is not colinear with x (residual {fro(z - alpha * x):.3e})")
    if abs(np.vdot(x, y).real) <= cfg.residual_tol * nx * ny:
        raise DegenerateInputError("Re(x*y) vanishes; the vector-case formulas are undefined")
    cols = {"X": x[:, None], "Y": y[:, None], "Z": z[:, None], "W": w[:, None]}  # validated: a Type1Problem as is
    q = _replaced(object.__new__(Type1Problem), **cols, _norms={"X": nx, "Y": ny, "Z": nz, "W": nw})

    sol = dsdm_type1(q, cfg, anti=anti)
    sol.conditions = {"colinear": True, **sol.conditions}
    sol.diagnostics["alpha"] = alpha
    return sol


def _type2_pieces(p: DsmProblem, sign: float) -> tuple[Factored, Factored]:
    """The blocks (H1, H2) for sign = +1 and the feasible point (H1^, H2^) for sign = -1, as factors.

    H1 = (w1 z+)* + sign P_z w1 z+, and H2 is dsm_solve's column block
    (y - H1 x1) x2+ + (w2 z+)* P_x2.
    """
    zd = _pinv_vec(p.z, p._norms["z"])
    h1 = Factored.outer_sum([zd.conj(), sign * _project(p.z, p._norms["z"], p.w1)], [p.w1.conj(), zd])
    return h1, _h2(p, h1 @ p.x1)


def dsdm_type2(
    p: DsmProblem,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    anti: bool = False,
) -> DsmSolution:
    """Rectangular dissipative mapping: Delta1 + Delta1* >= 0 on the square block.

    Feasible iff x*w = y*z and Re(z*w1) >= 0.  The returned feasible
    point is [H1^ H2^] with ``H1^ = (w1 z+)* - P_z w1 z+`` (always
    dissipative when Re(z*w1) >= 0).  Exactness fires when y is colinear
    with z and z is orthogonal to x1.  ``anti=True`` asks for
    Delta1 + Delta1* <= 0 through ``maps._reflect``.
    """
    return _dsm_solve(StructureFamily.ANTI_DISSIPATIVE if anti else StructureFamily.DISSIPATIVE, p, cfg)


def _type2(p: DsmProblem, cfg: ToleranceConfig) -> DsmSolution:
    """``dsdm_type2`` past the test of x*w = y*z: the Re(z*w1) test, then the feasible point and its bracket."""
    nrm = p._norms
    tol = cfg.residual_tol * (nrm["z"] * nrm["w1"])
    if why := _violation(FAMILIES[StructureFamily.DISSIPATIVE], p.z, p.w1, tol, ("z", "w1")):
        return DsmSolution(StructureFamily.DISSIPATIVE, False, reason=why)

    h1_hat, h2_hat = _type2_pieces(p, -1.0)
    rew = np.vdot(p.z, p.w1).real
    warnings = []
    if rew <= tol:
        warnings.append("Re(z*w1) ~ 0: boundary case, characterization unavailable")

    beta, y_colinear = _colinear_coeff(p.z, p.y, nrm["y"], cfg)
    orth = abs(np.vdot(p.z, p.x1)) <= cfg.residual_tol * nrm["z"] * nrm["x1"]
    _, w1_colinear = _colinear_coeff(p.z, p.w1, nrm["w1"], cfg)
    # Exactness needs w1 colinear with z on top of the y/x1 conditions: the
    # square block's one-sided dissipative minimum is only pinned to the
    # closed form in that case (off the colinear case a coordinated choice
    # of the free parameters undercuts it; see the solver notes).
    exact = y_colinear and orth and w1_colinear
    if y_colinear and orth and not w1_colinear:
        warnings.append(
            "sufficient conditions hold only up to the square block: minimality "
            "of the returned point is not certified (w1 not colinear with z)"
        )
    upper = math.hypot(h1_hat.norm(), h2_hat.norm())
    lower = upper if exact else max(nrm["y"] / nrm["x"], nrm["w"] / nrm["z"])  # x2 and z are nonzero
    return DsmSolution(
        StructureFamily.DISSIPATIVE,
        True,
        H1=h1_hat,
        H2=h2_hat,
        norm_lower=lower,
        norm_upper=upper,
        exact=exact,
        sufficiency_note=(
            "y, w1 colinear with z and z orthogonal to x1" if exact else "never"
        ),
        diagnostics={"beta": beta, "re_zw1": rew},
        warnings=warnings,
    )


def dsm_characterize_type2(
    p: DsmProblem,
    Z,
    K,
    G,
    R,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Evaluate the rectangular dissipative characterization at (Z, K, G, R).

    Constraints: G skew-Hermitian, K PSD, and
    ``K - (2 w1 + Z* z)(2 w1 + Z* z)* / (4 Re(z*w1)) >= 0``.
    """
    Z = as_complex(Z, "Z")
    K = as_complex(K, "K")
    G = as_complex(G, "G")
    R = as_complex(R, "R")
    n, m = p.n, p.m
    for name, mat, shape in (("Z", Z, (n, n)), ("K", K, (n, n)), ("G", G, (n, n)), ("R", R, (n, m))):
        if mat.shape != shape:
            raise ConstraintViolationError(f"{name}_shape", f"{name} must be {shape}, got {mat.shape}")
    _require_structure(StructureFamily.SKEW_HERMITIAN, "G", G, cfg)
    _require_structure(StructureFamily.PSD, "K", K, cfg)
    if np.vdot(p.z, p.w1).real <= 0:
        raise DegenerateInputError("characterization requires Re(z*w1) > 0")
    _require(_shifted_psd(K, Z, p.z, p.w1, cfg), "K_shifted_psd", "K - (2w1+Z*z)(2w1+Z*z)*/(4Re(z*w1)) must be PSD")

    h1, h2 = _type2_pieces(p, 1.0)
    # H1~ = P_z Z* z z+ + P_z (K - G) P_z, and H2~ = P_z R P_x2 - H1~ x1 x2+
    zp = _project(p.z, p._norms["z"], (p.z.conj() @ Z).conj())
    h1t = np.outer(zp, _pinv_vec(p.z, p._norms["z"])) + _sandwich(p.z, K - G, p.z)
    return np.hstack([h1.dense() + h1t, h2.dense() + _h2_tilde(p, h1t, R)])


# ---------------------------------------------------------------------------
# Jordan/Lie scalar-product reduction


@dataclass
class ScalarProduct:
    """Orthosymmetric scalar product given by a unitary matrix M.

    ``form`` is "bilinear" (adjoint M^-1 A^T M) or "sesquilinear"
    (adjoint M^-1 A* M); ``algebra`` selects the Jordan (+) or Lie (-)
    algebra of matrices that are self- or skew-adjoint.  M is tested for
    unitarity and (skew-)symmetry under ``cfg``.
    """

    M: np.ndarray
    form: str
    algebra: str
    cfg: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, cfg: ToleranceConfig) -> None:
        self._cfg = cfg
        self.M = as_complex(self.M, "M")
        if self.M.ndim != 2 or self.M.shape[0] != self.M.shape[1]:
            raise DimensionMismatchError("M must be square")
        if self.form not in ("bilinear", "sesquilinear"):
            raise ValueError("form must be 'bilinear' or 'sesquilinear'")
        if self.algebra not in ("jordan", "lie"):
            raise ValueError("algebra must be 'jordan' or 'lie'")
        # ||M*M - I|| against ||M||^2, the scale of M*M (n when M is unitary)
        gap, nm = fro(self.M.conj().T @ self.M - np.eye(self.M.shape[0])), fro(self.M)
        if gap > cfg.residual_tol * nm**2:
            raise StructureError(f"M must be unitary (||M*M - I|| = {gap:.3e})")
        plain, skew = _LINEAR[self.form, 1], _LINEAR[self.form, -1]
        if _deviation(plain, self.M) <= cfg.residual_tol * nm:  # ``_in_family`` of a linear family, at ||M||
            self.sigma = 1
        elif _deviation(skew, self.M) <= cfg.residual_tol * nm:
            self.sigma = -1
        else:
            raise StructureError(f"M must be {_label(plain)}/{_label(skew)}")

    @property
    def epsilon(self) -> int:
        return 1 if self.algebra == "jordan" else -1

    def target_family(self) -> StructureFamily:
        """Base family that M * Delta1 lands in.

        For A in the algebra, (M A)^(*/T) = sigma * epsilon * (M A), so the
        sign product is the sign of the linear family of M's form.
        """
        return _LINEAR[self.form, self.sigma * self.epsilon]

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        inner = a.T if self.form == "bilinear" else a.conj().T
        return self.M.conj().T @ inner @ self.M


def jordan_lie_reduce(
    sp: ScalarProduct,
    p: DsmProblem,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> DsmSolution:
    """Solve the mapping problem with Delta1 in a Jordan/Lie algebra of ``sp``.

    Multiplying by M turns the algebra constraint into one of the four
    base families, so the reduced problem with data (x, M y, M z, w) is
    solved there and the solution lifted back by M*, applied to the left
    factors of H1 and H2 in O(n^2).  Since M is unitary the reported norms
    coincide with the reduced problem's norms.  M is tested again under
    ``cfg`` when ``sp`` was built under another.
    """
    if cfg != sp._cfg:  # the test costs a dense product M*M, so it runs once per tolerance
        sp = replace(sp, cfg=cfg)
    family = sp.target_family()
    if sp.M.shape[0] != p.n:
        raise DimensionMismatchError(f"M is {sp.M.shape[0]}x{sp.M.shape[0]} but the problem has n = {p.n}")
    my, mz = as_complex(sp.M @ p.y, "M y"), as_complex(sp.M @ p.z, "M z")
    sol = _dsm_solve(family, _replaced(p, y=my, z=mz, _norms={**p._norms, "y": fro(my), "z": fro(mz)}), cfg)
    if sol.feasible:
        sol.H1, sol.H2 = (vars(sol)[name].adjoint_lmul(sp.M) for name in ("H1", "H2"))
    sol.diagnostics["reduced_family"] = family.value
    sol.diagnostics["algebra"] = sp.algebra
    sol.diagnostics["form"] = sp.form
    return sol

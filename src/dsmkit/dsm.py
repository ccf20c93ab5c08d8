"""Doubly structured mapping solvers.

A doubly structured mapping problem asks for Delta = [Delta1  Delta2],
with Delta1 square and constrained to a structure family, such that
``Delta x = y`` and ``Delta* z = w``.  With x = [x1; x2] and w = [w1; w2]
it splits in two, as in the construction from data vectors of Mackey,
Mackey and Tisseur (SIMAX 2008), and each part is a problem of ``maps``:

- Delta1* z = w1 is a one-sided structured mapping, since Delta1* is in
  the family whenever Delta1 is, for every family here.  So Delta1 is the
  adjoint of a member of ``maps``' solution set for (z, w1): H1 adjoins
  its minimal map, a characterization adjoins its characterization.
- Delta2 is then the unstructured two-sided mapping of
  (x2, y - Delta1 x1, z, w2): H2 is its minimal map (``maps._two_sided``),
  and a characterization adds P_z R P_x2.

So the problem is feasible iff x*w = y*z and (z, w1) is feasible for the
family.  The solvers return H = [H1  H2], a bracket on the minimal
Frobenius norm, and an exactness flag raised when one of the sufficient
conditions certifies that H itself is the minimizer.

Norm bracket convention: ``norm_lower`` is the provable lower bound
(||H1||_F, from dropping the nonnegative column-block infimum term) and
``norm_upper = ||[H1 H2]||_F`` is the norm of the returned feasible
point.  When an exactness condition fires both ends collapse to the true
minimum.

The vector solvers return each block as a ``linalg.Factored`` of two
columns and take the bracket from its Gram cores, so a solve costs
O(n + m) and forms no n x n array.  Reading H1, H2 forms that block once,
in O(n^2) (O(n m) for H2); H is [H1 H2], formed by one product of the
stacked factors on each read.  ``jordan_lie_reduce`` lifts by applying M*
to the left factors, O(n^2).  ``dsdm_type1`` takes thin SVDs of its n x m
matrix data and returns ``minimizer`` and ``gram`` as factors of at most
3m columns, for O(n m^2) in all.

Every solver and characterization here checks the caller's data once
(``_refusal``), reflects once by the rule of ``maps`` (``_reflect``: nsd is
psd, and ``anti=True`` the dissipative problem, on (x, -y, z, -w) with the
result negated), then builds on the base family with no second check.

``verify_solution`` audits a claimed solution against the data of these
problems (residuals, structure deviation, the cone's extreme eigenvalue).
It lives next to them so that a CLI solve can audit its result without
loading the oracles.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConstraintViolationError,
    DegenerateInputError,
    DimensionMismatchError,
    NotColinearError,
    StructureError,
)
from .linalg import DenseOnRead, Factored, _colinear_coeff, _range_factors, _semidefinite, as_complex, fro
from .maps import FAMILIES, _LINEAR, StructureFamily, _deviation, _incompatible, _label, _member, _min_factors
from .maps import _nonzero_vecs, _reflect, _sandwich, _two_sided, _violation

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
    "VerificationReport",
    "verify_solution",
]

#: residuals up to this multiple of ``residual_tol`` (relative to the data's
#: scale), and in ``verify_solution`` eigenvalues down to this multiple of
#: ``-psd_tol`` times ||Delta1||, count as zero: a solution sums O(n) rounded
#: terms per entry, and a check must pass every correct one while rejecting
#: any error far above rounding
_AUDIT_FACTOR = 100.0

#: structure families accepted by dsm_solve: those with a form
DSM_FAMILIES = tuple(family for family, spec in FAMILIES.items() if spec.form is not None)


class _Norms(dict):
    """The norms of a problem's data ``arrays`` by name, each taken (``fro``) on its first read and kept.

    It holds the arrays, not the problem, so that a problem and its norms form no reference cycle."""

    __slots__ = ("_arrays",)

    def __init__(self, arrays: dict, taken=()) -> None:
        super().__init__(taken)
        self._arrays = arrays

    def __missing__(self, name: str) -> float:
        self[name] = value = fro(self._arrays[name])
        return value


@dataclass(frozen=True)
class DsmProblem:
    """Data (x, y, z, w), x = [x1; x2] and w = [w1; w2] split at n: validated once, frozen with n, m, x, w, _norms.

    ``_norms`` takes each data norm on first read, so a norm no formula reads is never taken."""

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
        attrs["_norms"] = _Norms({name: attrs[name] for name in ("x1", "x2", "y", "z", "w1", "w2", "x", "w")})


def _replaced(data, **arrays):
    """``replace(data, **arrays)`` for arrays derived from data's, not validated again; ``_norms`` carries over."""
    out = object.__new__(type(data))
    vars(out).update(vars(data), **arrays)
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
        return None if h1 is None or h2 is None else h1.beside(h2).dense()


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
    if FAMILIES[family].cone is not None and p._norms["w2"] == 0.0:
        raise DegenerateInputError("w2 must be nonzero for the semidefinite and dissipative families")


def _dsm_family(family) -> StructureFamily:
    """``family`` as a ``StructureFamily`` that has a form, as ``dsm_solve`` and ``dsm_characterize`` take it."""
    family = StructureFamily(family)
    if FAMILIES[family].form is None:
        raise ValueError(f"dsm_solve supports {[f.value for f in DSM_FAMILIES]}, got {family.value}")
    return family


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
    return _dsm_solve(_dsm_family(family), p, cfg)


def _refusal(family: StructureFamily, p: DsmProblem, cfg: ToleranceConfig) -> str:
    """The one check of the solve and the characterizations: raise if degenerate, else why infeasible, or ""."""
    _check_degenerate(family, p)
    nrm = p._norms
    return _incompatible(p.x, p.y, p.z, p.w, nrm, cfg) or _violation(
        FAMILIES[family], p.z, p.w1, cfg.residual_tol * (nrm["z"] * nrm["w1"]), ("z", "w1"))


def _dsm_solve(family: StructureFamily, p: DsmProblem, cfg: ToleranceConfig) -> DsmSolution:
    """The one solve of ``dsm_solve``, ``dsdm_type2`` and ``jordan_lie_reduce``: checked, reflected, built.

    H1 is the adjoint of the family's minimal map of z to w1 (``maps._min_factors``) and H2 the
    minimal two-sided map of (x2, y - H1 x1, z, w2); the families differ in their exactness rules
    and lower bounds only.
    """
    if why := _refusal(family, p, cfg):
        return DsmSolution(family, False, reason=why)
    return _reflect(family, lambda base, **yw: _built(base, _replaced(p, **yw), cfg), y=p.y, w=p.w, w1=p.w1, w2=p.w2)


def _built(family: StructureFamily, p: DsmProblem, cfg: ToleranceConfig) -> DsmSolution:
    """``_dsm_solve``'s solution on feasible data of a base family, checked by the caller."""
    spec, nrm = FAMILIES[family], p._norms
    h1 = Factored.outer_sum(*_min_factors(spec, p.z, p.w1, nrm["z"])).adjoint()
    h2 = _two_sided(p.x2, p.y - h1 @ p.x1, p.z, p.w2, nrm["x2"], nrm["z"])
    diagnostics: dict = {}
    warnings: list[str] = []
    if spec.cone == "dissipative":
        rew = np.vdot(p.z, p.w1).real
        if rew <= cfg.residual_tol * (nrm["z"] * nrm["w1"]):
            warnings.append("Re(z*w1) ~ 0: boundary case, characterization unavailable")
        beta, y_colinear = _colinear_coeff(p.z, p.y, nrm["y"], cfg)
        orth = abs(np.vdot(p.z, p.x1)) <= cfg.residual_tol * nrm["z"] * nrm["x1"]
        # Exactness needs w1 colinear with z on top of the y/x1 conditions: the
        # square block's one-sided dissipative minimum is only pinned to the
        # closed form in that case (off the colinear case a coordinated choice
        # of the free parameters undercuts it; see the solver notes).
        exact = y_colinear and orth and _colinear_coeff(p.z, p.w1, nrm["w1"], cfg)[1]
        if y_colinear and orth and not exact:
            warnings.append(
                "sufficient conditions hold only up to the square block: minimality "
                "of the returned point is not certified (w1 not colinear with z)"
            )
        note = "y, w1 colinear with z and z orthogonal to x1"
        diagnostics = {"beta": beta, "re_zw1": rew}
        lower = max(nrm["y"] / nrm["x"], nrm["w"] / nrm["z"])  # x2 and z are nonzero
    else:
        bilinear = spec.form == "bilinear"
        exact = _colinear_coeff(p.z.conj() if bilinear else p.z, p.x1, nrm["x1"], cfg)[1]
        note = "x1 colinear with conj(z)" if bilinear else "x1 colinear with z"
        lower = h1.norm()
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

    upper = math.hypot(h1.norm(), h2.norm())
    return DsmSolution(
        family,
        True,
        H1=h1,
        H2=h2,
        norm_lower=upper if exact else lower,
        norm_upper=upper,
        exact=exact,
        sufficiency_note=note if exact else "never",
        diagnostics=diagnostics,
        warnings=warnings,
    )


def _free_matrices(p: DsmProblem, **named) -> list[np.ndarray]:
    """The free matrices of a characterization, each validated once where it enters: R n x m, the others n x n."""
    out = []
    for name, a in named.items():
        a, shape = as_complex(a, name), (p.n, p.m if name == "R" else p.n)
        if a.shape != shape:
            raise ConstraintViolationError(f"{name}_shape", f"{name} must be {shape[0]}x{shape[1]}, got {a.shape}")
        out.append(a)
    return out


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
    Delta1 is the adjoint of ``maps.map_characterize`` for (z, w1) at K*,
    H1 + P K P with P the projector pair of the family (P_z on both sides
    for the sesquilinear families, P_z K P_conj(z) for the bilinear ones),
    and Delta2 is the two-sided map of (x2, y - Delta1 x1, z, w2) plus
    P_z R P_x2.  The data are checked once, as ``dsm_solve`` checks them;
    NSD's Delta1 is the PSD one of (z, -w1), negated.
    """
    family = _dsm_family(family)
    K, R = _free_matrices(p, K=K, R=R)
    return _dsm_characterize(family, p, {"K": K.conj().T}, R, cfg)  # Delta1* = D carries K as K*


def _dsm_characterize(family: StructureFamily, p: DsmProblem, params: dict, R: np.ndarray,
                      cfg: ToleranceConfig) -> np.ndarray:
    """Both characterizations on validated free matrices, checked once (``_refusal``).

    Delta1 = D* for D the member of ``maps``' solution set for (z, w1) at
    ``params`` (``maps._member``, which checks the free matrices and refuses
    the dissipative boundary), reflected once; Delta2 = H2(Delta1) + P_z R P_x2.
    """
    if why := _refusal(family, p, cfg):
        raise DegenerateInputError(f"infeasible problem: {why}")
    nrm = p._norms
    d1 = _reflect(family, lambda base, w1: _member(base, p.z, w1, nrm["z"], nrm["w1"], params, cfg, ("z", "w1")),
                  w1=p.w1).conj().T
    d2 = _two_sided(p.x2, p.y - d1 @ p.x1, p.z, p.w2, nrm["x2"], nrm["z"]).dense() + _sandwich(p.z, R, p.x2)
    return np.hstack([d1, d2])


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

    The input contract of the vector case: inputs of one length
    (``DimensionMismatchError``), nonzero and with Re(x*y) bounded away from
    zero (``DegenerateInputError``), and z = alpha x (``NotColinearError``).
    The result is ``dsdm_type1``'s, with ``conditions['colinear']`` and
    ``diagnostics['alpha']`` added; on one column X*Y + Y*X = 2 Re(x*y), so
    the solver is feasible iff x*w = y*z and Re(x*y) > 0.  ``anti=True``
    asks for Delta + Delta* <= 0.
    """
    (x, nx), (y, ny), (w, nw), (z, nz) = _nonzero_vecs(x=x, y=y, w=w, z=z)
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


def dsdm_type2(
    p: DsmProblem,
    cfg: ToleranceConfig = DEFAULT_TOL,
    *,
    anti: bool = False,
) -> DsmSolution:
    """Rectangular dissipative mapping: Delta1 + Delta1* >= 0 on the square block.

    Feasible iff x*w = y*z and Re(z*w1) >= 0.  The returned feasible
    point is [H1^ H2^], with ``H1^ = (w1 z+)* - P_z w1 z+`` the adjoint of
    ``maps``' minimal dissipative map of z to w1 (dissipative when
    Re(z*w1) >= 0) and H2^ the two-sided map of what is left.  Exactness
    fires when y and w1 are colinear with z and z is orthogonal to x1.
    ``anti=True`` asks for Delta1 + Delta1* <= 0 through ``maps._reflect``.
    """
    return _dsm_solve(StructureFamily.ANTI_DISSIPATIVE if anti else StructureFamily.DISSIPATIVE, p, cfg)


def dsm_characterize_type2(
    p: DsmProblem,
    Z,
    K,
    G,
    R,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Evaluate the rectangular dissipative characterization at (Z, K, G, R).

    Delta1 is the adjoint of ``maps.map_characterize``'s dissipative member
    for (z, w1) at (Z, K, G): ``(w1 z+)* + P_z w1 z+ + P_z Z* z z+ +
    P_z (K - G) P_z``.  Constraints: G skew-Hermitian, K PSD,
    ``K - (2 w1 + Z* z)(2 w1 + Z* z)* / (4 Re(z*w1)) >= 0``, and Re(z*w1)
    off the boundary, above ``residual_tol ||z|| ||w1||``.  Delta2 is as
    in ``dsm_characterize``.
    """
    Z, K, G, R = _free_matrices(p, Z=Z, K=K, G=G, R=R)
    return _dsm_characterize(StructureFamily.DISSIPATIVE, p, {"Z": Z, "K": K, "G": G}, R, cfg)


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
    norms = _Norms({**p._norms._arrays, "y": my, "z": mz}, {k: v for k, v in p._norms.items() if k not in ("y", "z")})
    sol = _dsm_solve(family, _replaced(p, y=my, z=mz, _norms=norms), cfg)
    if sol.feasible:
        sol.H1, sol.H2 = (vars(sol)[name].adjoint_lmul(sp.M) for name in ("H1", "H2"))
    sol.diagnostics["reduced_family"] = family.value
    sol.diagnostics["algebra"] = sp.algebra
    sol.diagnostics["form"] = sp.form
    return sol


# ---------------------------------------------------------------------------
# residual audits


@dataclass
class VerificationReport:
    interp_resid: float
    adjoint_resid: float
    structure_dev: float
    min_eig: float | None
    ok: bool

    def as_dict(self) -> dict:
        return asdict(self)


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
    spec = FAMILIES[family]
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

    # each residual relative to the data's own scale; ||Delta v - r|| <= ||Delta|| ||v|| + ||r||,
    # so a zero scale means a zero residual
    def relative(resid: float, scale: float) -> float:
        return resid / scale if scale > 0.0 else 0.0

    r1 = relative(fro(delta @ x - y), fro(delta) * fro(x) + fro(y))
    r2 = 0.0 if z is None else relative(fro(delta.conj().T @ z - w), fro(delta) * fro(z) + fro(w))
    sd = fro(d1)
    dev = relative(_deviation(family, d1), sd)
    min_eig: float | None = None
    if spec.cone is not None:  # the extreme eigenvalue of the Hermitian part, the largest for a negated cone
        eigs = np.linalg.eigvalsh((d1 + d1.conj().T) / 2.0)
        min_eig = float(eigs[0]) if spec.reflects is None else float(-eigs[-1])

    ok = max(r1, r2, dev) <= _AUDIT_FACTOR * cfg.residual_tol
    if min_eig is not None:
        ok = ok and min_eig >= -_AUDIT_FACTOR * cfg.psd_tol * sd
    return VerificationReport(r1, r2, dev, min_eig, bool(ok))

"""One-sided structured mapping solvers and the two-sided unstructured solver.

Every solver answers the same three questions for its matrix family:
does a matrix taking x to y exist, what does the whole solution set look
like, and which member has minimal Frobenius norm.  Feasibility verdicts
are returned on the solution object rather than raised, so callers can
route infeasible problems without exception handling; genuinely malformed
input (zero vectors, shape clashes) raises.

Every minimal mapping is a sum of at most a few outer products of the data
vectors, so the solvers return it as a ``linalg.Factored`` block F G^T with
F, G of at most four columns, and take its norm from their Gram cores.  A
projector acts as a vector update, ``P_v a = a - v (v+ a)``, so a solve
costs O(n): no n x n array is formed until ``minimizer`` is read, which
forms it once, in O(n^2).  The characterizations evaluate a dense free
matrix and so work on dense blocks.

The negated families (nsd, anti-dissipative) follow one reflection rule,
``_reflect``, here and in ``dsm`` and ``oracle``: Delta is in -S iff -Delta
is in S, so the problem (x, y, z, w) in -S is the problem (x, -y, z, -w) in
S with its result negated.  No solver codes a negated family itself.

Every family is one row of ``FAMILIES``: the form its members are symmetric
in (sesquilinear, Delta* = sign Delta; bilinear, Delta^T = sign Delta; or
none), the sign, and an optional cone on the Hermitian part (psd, Delta >= 0;
dissipative, Delta + Delta* >= 0), after the scalar-product view of Mackey,
Mackey and Tisseur (SIMAX 2008).  A negated family records the family it
reflects and shares that family's row.  Feasibility (``_violation``), the
minimal factors, membership, the oracle's basis and the scalar-product
reduction all read the row, so a new family is one row of the table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    ConstraintViolationError,
    DegenerateInputError,
    DimensionMismatchError,
)
from .linalg import DenseOnRead, Factored, _pinv_vec, _semidefinite, as_complex, fro

__all__ = ["StructureFamily", "MapSolution", "map_min", "map_two_sided", "map_characterize"]


class StructureFamily(str, enum.Enum):
    UNSTRUCTURED = "unstructured"
    HERMITIAN = "hermitian"
    SKEW_HERMITIAN = "skew-hermitian"
    SYMMETRIC = "symmetric"
    SKEW_SYMMETRIC = "skew-symmetric"
    PSD = "psd"
    NSD = "nsd"
    DISSIPATIVE = "dissipative"
    ANTI_DISSIPATIVE = "anti-dissipative"


@dataclass(frozen=True)
class FamilySpec:
    """A structure family as (form, sign, cone), plus the family it reflects."""

    form: str | None  # "sesquilinear": Delta* = sign Delta; "bilinear": Delta^T = sign Delta; None: no symmetry
    sign: int
    cone: str | None  # "psd": Delta >= 0; "dissipative": Delta + Delta* >= 0; None: no cone
    reflects: StructureFamily | None = None  # Delta is in this family iff -Delta is in ``reflects``


#: the one family table: every other family set and every per-family rule is read from it
FAMILIES = MappingProxyType({
    StructureFamily.UNSTRUCTURED: FamilySpec(None, 1, None),
    StructureFamily.HERMITIAN: FamilySpec("sesquilinear", 1, None),
    StructureFamily.SKEW_HERMITIAN: FamilySpec("sesquilinear", -1, None),
    StructureFamily.SYMMETRIC: FamilySpec("bilinear", 1, None),
    StructureFamily.SKEW_SYMMETRIC: FamilySpec("bilinear", -1, None),
    StructureFamily.PSD: FamilySpec("sesquilinear", 1, "psd"),
    StructureFamily.NSD: FamilySpec("sesquilinear", 1, "psd", reflects=StructureFamily.PSD),
    StructureFamily.DISSIPATIVE: FamilySpec(None, 1, "dissipative"),
    StructureFamily.ANTI_DISSIPATIVE: FamilySpec(None, 1, "dissipative", reflects=StructureFamily.DISSIPATIVE),
})
#: the linear family of each (form, sign); a cone family's members lie in the one of its row
_LINEAR = {(spec.form, spec.sign): family for family, spec in FAMILIES.items() if spec.cone is None}
#: families whose solution set is a (real-)linear variety
LINEAR_FAMILIES = frozenset(_LINEAR.values())


@dataclass
class MapSolution:
    """A one- or two-sided solve; ``minimizer`` is held as a ``Factored`` block and formed on first read."""

    family: StructureFamily
    feasible: bool
    minimizer: np.ndarray | None = DenseOnRead()
    min_norm: float = float("inf")
    free_param_shapes: dict[str, str] = field(default_factory=dict)
    reason: str = ""
    #: dissipative boundary Re(x*y) ~ 0: feasible, minimality not certified
    boundary: bool = False


def _nonzero_vec(v, name: str) -> tuple[np.ndarray, float]:
    v = as_complex(v, name).reshape(-1)
    nv = fro(v)
    if nv == 0.0:
        raise DegenerateInputError(f"{name} must be nonzero")
    return v, nv


#: the sign conditions of the base families' reasons, as the negated family states them
_REFLECTED_REASONS = {
    "x*y not real positive": "x*y not real negative",
    "Re(x*y) negative": "Re(x*y) positive",
    "z*w1 not positive": "z*w1 not negative",
    "Re(z*w1) negative": "Re(z*w1) positive",
}


def _reflected_reason(reason: str) -> str:
    """A base family's reason as the negated family states it, at the caller's (negated) value."""
    head, sep, value = reason.partition(" (")
    if head not in _REFLECTED_REASONS:
        return reason  # conditions that reflection leaves alone, e.g. the gap of x*w = y*z
    number = value.rstrip(")")
    # 0 - v, not -v: a part that cancels to zero is +0 for the caller's data as for the negated data
    negated = 0.0 - (complex(number) if number.endswith("j") else float(number))
    return f"{_REFLECTED_REASONS[head]}{sep}{negated:.3e})"


def _reflect(family: StructureFamily, solve, **data):
    """The one reflection rule: solve ``family`` in -S as its base family S, negated.

    Delta x = y and Delta* z = w with Delta in -S hold iff (-Delta) x = -y and
    (-Delta)* z = -w with -Delta in S.  ``solve(base, **negated)`` runs the
    base family's solver with every array of ``data`` (the caller's y and w
    parts, and a free block that must enter both sets alike) negated.  Its
    result is negated: an array, the first entry of a
    (Delta, norm) pair, or the blocks ``minimizer``/``gram``/``H1``/``H2`` of
    a solution, whose ``family`` becomes ``family``: a ``Factored`` block by
    negating its left factor, O(n), an array in place.  An infeasible
    solution's reason states the negated family's condition at the caller's value.
    """
    out = solve(FAMILIES[family].reflects, **{name: -v for name, v in data.items()})
    if isinstance(out, np.ndarray):
        return -out
    if isinstance(out, tuple):
        return (-out[0],) + out[1:]
    if hasattr(out, "family"):
        out.family = family
    if not out.feasible:
        out.reason = _reflected_reason(out.reason)
    for name in ("minimizer", "gram", "H1", "H2"):  # the blocks as held: the base solver's own, fresh
        held = vars(out).get(name)
        if isinstance(held, Factored):
            setattr(out, name, -held)
        elif held is not None:
            np.negative(held, out=held)
    return out


def _project(v: np.ndarray, nv: float, a: np.ndarray) -> np.ndarray:
    """``P_v a = a - v (v+ a)`` for a nonzero vector v of norm ``nv`` and a vector or matrix a, without P_v.

    O(n) for a vector a; a matrix a is the dense K of a characterization."""
    vh = v / nv
    return a - np.multiply.outer(vh, vh.conj() @ a)


def _sandwich(left: np.ndarray | None, k: np.ndarray, right: np.ndarray | None) -> np.ndarray:
    """``P_left K P_right`` for a dense K, as two rank-one updates; a side given as None is the identity."""
    if left is not None:
        k = _project(left, fro(left), k)
    if right is not None:
        k = _project(right.conj(), fro(right), k.T).T  # K P_r = (P_r^T K^T)^T and P_r^T = P_conj(r)
    return k


def _min_factors(spec: FamilySpec, x: np.ndarray, y: np.ndarray, nx: float):
    """Factors (F, G) of the minimal Delta with ``Delta x = y``: Delta = sum_i F_i G_i^T, for ``nx`` = ||x||.

    ``spec`` is a base family's row (no reflection); feasibility is the caller's to check.
    """
    if spec.cone == "psd":  # y y* / (x*y)
        return [y], [y.conj() / np.vdot(x, y)]
    xd = _pinv_vec(x, nx)  # the row x+ as a vector
    if spec.cone == "dissipative":  # y x+ - (y x+)* P_x
        return [y, -xd.conj()], [xd, _project(x, nx, y).conj()]
    if spec.form is None:
        return [y], [xd]
    if spec.form == "sesquilinear":
        # y x+ +- (y x+)* - (x+ y) x x+ = (P_x y) x+ +- (x+)* y*
        return [_project(x, nx, y), spec.sign * xd.conj()], [xd, y.conj()]
    # y x+ +- (y x+)^T -+ (x^T y)(x+)^T x+ = (y -+ (x^T y)(x+)^T) x+ +- (x+)^T y^T
    return [y - spec.sign * (x @ y) * xd, spec.sign * xd], [xd, y]


def _violation(spec: FamilySpec, u: np.ndarray, v: np.ndarray, tol: float, names=("x", "y")) -> str:
    """Why a base family's condition on s = u*v (u^T v for the bilinear form) fails; "" when it holds.

    Delta u = v with Delta in the family needs s = u* Delta u real (sesquilinear,
    sign +1) or imaginary (sign -1), u^T v = 0 (bilinear, sign -1), s real
    and positive (psd) or Re(s) >= 0 (dissipative); ``tol`` is the zero of
    ``ToleranceConfig``'s rule.  ``names`` are u and v as the reason states them.
    """
    a, b = names
    if spec.form == "bilinear":  # u^T Delta u = sign u^T Delta u: 0 for the skew sign
        t = u @ v
        return f"{a}^T {b} != 0 ({t:.3e})" if spec.sign < 0 and abs(t) > tol else ""
    if spec.form is None and spec.cone is None:
        return ""
    s = np.vdot(u, v)
    if spec.cone == "psd":
        if abs(s.imag) > tol or s.real <= tol:
            # the one-sided and the doubly structured solvers word it apart; the golden corpus pins both
            return f"{a}*{b} not {'real positive' if a == 'x' else 'positive'} ({s:.3e})"
    elif spec.cone == "dissipative":
        if s.real < -tol:
            return f"Re({a}*{b}) negative ({s.real:.3e})"
    elif spec.sign > 0:
        if abs(s.imag) > tol:
            return f"{a}*{b} not real (Im = {s.imag:.3e})"
    elif abs(s.real) > tol:
        return f"{a}*{b} not imaginary (Re = {s.real:.3e})"
    return ""


def _label(family: StructureFamily) -> str:
    return family.value.replace("hermitian", "Hermitian")


def _free_params(family: StructureFamily, n: int) -> dict[str, str]:
    """The free matrices of a base family's solution set by name, as ``map_characterize`` takes them."""
    spec = FAMILIES[family]
    if spec.cone == "dissipative":
        return {
            "Z": f"any complex {n}x{n}",
            "K": f"Hermitian PSD {n}x{n} with K - (2y+Z*x)(2y+Z*x)*/(4Re(x*y)) PSD",
            "G": f"skew-Hermitian {n}x{n}",
        }
    if spec.cone == "psd":
        return {"K": f"Hermitian PSD {n}x{n}"}
    if spec.form is None:
        return {"Z": f"any complex {n}x{n}"}
    return {"H": f"{'complex ' if spec.form == 'bilinear' else ''}{_label(family)} {n}x{n}"}


def map_min(
    family: StructureFamily,
    x,
    y,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> MapSolution:
    """Minimal Frobenius-norm Delta with ``Delta x = y`` in the given family.

    Feasibility conditions by family (s = ||x|| ||y||):
      unstructured    always
      hermitian       x*y real:  |Im(x*y)| <= tol s
      skew-hermitian  x*y imaginary:  |Re(x*y)| <= tol s
      symmetric       always
      skew-symmetric  x^T y = 0
      psd             x*y real and positive
      dissipative     Re(x*y) >= 0 (boundary Re ~ 0 flagged: the returned
                      minimizer is feasible but minimality is not certified)
    nsd / anti-dissipative go through ``_reflect``: the psd / dissipative
    problem on (x, -y), negated.
    """
    family = StructureFamily(family)
    (x, nx), (y, ny) = _nonzero_vec(x, "x"), _nonzero_vec(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatchError(f"x and y must share a dimension, got {x.shape} vs {y.shape}")
    return _map_min(family, x, y, nx, ny, cfg)


def _map_min(family: StructureFamily, x: np.ndarray, y: np.ndarray, nx: float, ny: float, cfg: ToleranceConfig):
    """``map_min`` on validated x, y of norms nx, ny: a negated family's reflection solves on -y, not validated."""
    spec = FAMILIES[family]
    if spec.reflects is not None:
        return _reflect(family, lambda base, y: _map_min(base, x, y, nx, ny, cfg), y=y)

    tol = cfg.residual_tol * (nx * ny)
    if why := _violation(spec, x, y, tol):
        return MapSolution(family, False, reason=why)
    delta = Factored.outer_sum(*_min_factors(spec, x, y, nx))
    boundary = spec.cone == "dissipative" and abs(np.vdot(x, y).real) <= tol
    return MapSolution(
        family, True, minimizer=delta, min_norm=delta.norm(), free_param_shapes=_free_params(family, x.shape[0]),
        boundary=boundary,
    )


def _incompatible(x, y, z, w, norms, cfg: ToleranceConfig) -> str:
    """Why x*w = y*z, which Delta x = y and Delta* z = w need, fails, "" if it holds; ``norms`` by vector name."""
    gap = np.vdot(x, w) - np.vdot(y, z)
    if abs(gap) <= cfg.residual_tol * max(norms["x"] * norms["w"], norms["y"] * norms["z"]):
        return ""
    return f"x*w != y*z (gap {abs(gap):.3e})"


def map_two_sided(x, y, z, w, cfg: ToleranceConfig = DEFAULT_TOL) -> MapSolution:
    """Minimal-norm unstructured Delta with ``Delta x = y`` and ``Delta* z = w``.

    x, w live in C^m and y, z in C^n; Delta is n x m.  Feasible iff
    x*w = y*z, in which case the minimizer is
    ``y x+ + (w z+)* - (w z+)* x x+ = y x+ + (z+)* (P_x w)*`` and the solution set adds
    ``P_z R P_x`` over arbitrary R.
    """
    (x, nx), (y, ny), (z, nz), (w, nw) = (_nonzero_vec(v, name) for v, name in ((x, "x"), (y, "y"), (z, "z"), (w, "w")))
    if x.shape != w.shape or y.shape != z.shape:
        raise DimensionMismatchError(
            f"need x, w in C^m and y, z in C^n; got {x.shape}, {w.shape}, {y.shape}, {z.shape}"
        )
    n, m = y.shape[0], x.shape[0]
    if why := _incompatible(x, y, z, w, {"x": nx, "y": ny, "z": nz, "w": nw}, cfg):
        return MapSolution(StructureFamily.UNSTRUCTURED, False, reason=why)
    # y x+ + (w z+)* P_x = y x+ + (z+)* (P_x w)*
    delta = Factored.outer_sum([y, _pinv_vec(z, nz).conj()], [_pinv_vec(x, nx), _project(x, nx, w).conj()])
    return MapSolution(
        StructureFamily.UNSTRUCTURED,
        True,
        minimizer=delta,
        min_norm=delta.norm(),
        free_param_shapes={"R": f"any complex {n}x{m}, entering as P_z R P_x"},
    )


def _require(cond: bool, name: str, message: str) -> None:
    if not cond:
        raise ConstraintViolationError(name, message)


def _deviation(family: StructureFamily, a: np.ndarray) -> float:
    """||a - sign a*|| or ||a - sign a^T||, the distance of a square a from the family's symmetry (0 with no form)."""
    spec = FAMILIES[family]
    if spec.form is None:
        return 0.0
    return fro(a - spec.sign * (a.T if spec.form == "bilinear" else a.conj().T))


def _in_family(family: StructureFamily, a: np.ndarray, cfg: ToleranceConfig) -> bool:
    """a is in the family: its symmetry to ``residual_tol`` and its cone to ``psd_tol``, of ||a||.

    The cone is read on the Hermitian part, of -a for a negated family.
    """
    spec, scale = FAMILIES[family], fro(a)
    if _deviation(family, a) > cfg.residual_tol * scale:
        return False
    return spec.cone is None or _semidefinite(a if spec.reflects is None else -a, scale, cfg)


def _require_structure(family: StructureFamily, name: str, a: np.ndarray, cfg: ToleranceConfig) -> None:
    """Raise ``ConstraintViolationError`` (e.g. ``K_skew_symmetric``) unless ``_in_family(family, a)``."""
    label = "positive semidefinite" if FAMILIES[family].cone == "psd" else _label(family)
    _require(_in_family(family, a, cfg), f"{name}_{family.value.replace('-', '_')}", f"{name} must be {label}")


def _shifted_psd(k: np.ndarray, zmat: np.ndarray, v: np.ndarray, b: np.ndarray, cfg: ToleranceConfig) -> bool:
    """K - q q* / (4 Re(v*b)) is semidefinite, for q = 2b + Z*v and Re(v*b) > 0.

    The scale is taken before q cancels: ||K|| + (2||b|| + ||Z|| ||v||)^2 / (4 Re(v*b)).
    """
    re = np.vdot(v, b).real
    q = 2.0 * b + (v.conj() @ zmat).conj()
    scale = fro(k) + (2.0 * fro(b) + fro(zmat) * fro(v)) ** 2 / (4.0 * re)
    return _semidefinite(k - np.outer(q, q.conj()) / (4.0 * re), scale, cfg)


def map_characterize(
    family: StructureFamily,
    x,
    y,
    params: dict[str, np.ndarray],
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Evaluate the family's solution-set characterization at given free matrices.

    ``params`` supplies the free matrices by name: H for the four
    symmetry families, Z for unstructured, K for psd/nsd, and (Z, K, G)
    for the dissipative families.  Constraint violations raise
    ``ConstraintViolationError`` naming the failing condition.
    """
    family = StructureFamily(family)
    (x, nx), (y, ny) = _nonzero_vec(x, "x"), _nonzero_vec(y, "y")
    return _map_characterize(family, x, y, nx, ny, params, cfg)


def _map_characterize(family: StructureFamily, x, y, nx: float, ny: float, params, cfg: ToleranceConfig) -> np.ndarray:
    """``map_characterize`` on validated x, y of norms nx, ny: a negated family's reflection is not validated again."""
    spec = FAMILIES[family]
    if spec.reflects is not None:
        return _reflect(family, lambda base, y: _map_characterize(base, x, y, nx, ny, params, cfg), y=y)

    base = _map_min(family, x, y, nx, ny, cfg)
    if not base.feasible:
        raise DegenerateInputError(f"infeasible problem: {base.reason}")
    if base.boundary:
        raise DegenerateInputError("characterization undefined on the boundary Re(x*y) ~ 0")

    n = x.shape[0]

    def param(name: str) -> np.ndarray:
        if name not in params:
            raise ConstraintViolationError(name, f"missing free parameter {name!r}")
        p = as_complex(params[name], name)
        if p.shape != (n, n):
            raise ConstraintViolationError(name, f"{name} must be {n}x{n}, got {p.shape}")
        return p

    if spec.cone != "dissipative":
        if spec.form is None:
            return base.minimizer + _sandwich(None, param("Z"), x)
        name = "H" if spec.cone is None else "K"  # a symmetry family's H, psd's K
        h = param(name)
        _require_structure(family, name, h, cfg)
        return base.minimizer + _sandwich(x.conj() if spec.form == "bilinear" else x, h, x)  # P_x^T = P_conj(x)
    z, k, g = param("Z"), param("K"), param("G")
    _require_structure(StructureFamily.SKEW_HERMITIAN, "G", g, cfg)
    _require_structure(StructureFamily.PSD, "K", k, cfg)
    _require(_shifted_psd(k, z, x, y, cfg), "K_shifted_psd", "K - (2y+Z*x)(2y+Z*x)*/(4Re(x*y)) must be PSD")
    # y x+ + (y x+)* P_x + x x+ Z P_x + P_x (K + G) P_x, with (y x+)* P_x = (x+)* (P_x y)*
    xd = _pinv_vec(x, nx)
    g_cols = [xd, _project(x, nx, y).conj(), _project(x.conj(), nx, xd @ z)]
    return Factored.outer_sum([y, xd.conj(), x], g_cols).dense() + _sandwich(x, k + g, x)

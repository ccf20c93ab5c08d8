"""Dense reference for the mapping solvers: the closed forms written with projectors.

Each function evaluates the same closed form as its namesake in ``dsmkit``,
but the way the formulas read on paper: with n x n projectors
``null_projector`` (below), dense outer products and matrix products.  The feasibility
tests, exactness conditions and diagnostics are those of the solvers, so a
solver and its reference must agree on every verdict, flag and message and on
every block to rounding.  Test code only; the O(n^3) products make it slow.

One scalar is evaluated as the solvers now do, because the earlier form
fails at the data scales the comparison runs: the psd exactness floor takes
||a|| ||x1|| with no unit floor (fro of the diagnostic matrix a x1* overflows
at data x 1e100 and turned the floor into inf, and a floor of 1 passed every
point as exact at data x 1e-100).  ``dsdm_type1_vec`` keeps the vector-case
formula, which ``dsmkit`` now evaluates as ``dsdm_type1`` on one column; its
conditions and reason are the formula's own, not the solver's.
Every zero test takes the scale of ``ToleranceConfig``'s rule, with no unit
floor and no underflow guard, as the solvers do.

The negated families keep their own reflection here, written out where it is
used: nsd/anti-dissipative ``map_min`` on (x, -y), ``dsm_solve`` and
``dsm_characterize`` nsd through the sign change (x1, w1) -> (-x1, -w1) with
H1 negated, and ``dsdm_type2`` anti on (y, w) -> (-y, -w).  An infeasible
negated problem states its own condition at the caller's value.
"""

import numpy as np

from dsmkit import DEFAULT_TOL, DsmProblem, DsmSolution, MapSolution, Type1Solution
from dsmkit.dsm import _check_degenerate, _rank_one_rightmost
from dsmkit.errors import ConstraintViolationError, DegenerateInputError, NotColinearError
from dsmkit.linalg import _as_column, _colinear_coeff, as_complex, fro, pinv
from dsmkit.maps import StructureFamily as F
from dsmkit.maps import _nonzero_vec, _require, _require_structure

TOL = 1e-10  # residual_tol and psd_tol of the default configuration
BASE = {F.NSD: F.PSD, F.ANTI_DISSIPATIVE: F.DISSIPATIVE}


def min_eig_herm(a):
    """Smallest eigenvalue of the Hermitian part of a square matrix."""
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2.0)[0])


def null_projector(x, cfg=DEFAULT_TOL):
    """Orthogonal projector onto the orthogonal complement of range(x).

    Returns ``I - x @ pinv(x)``: Hermitian, idempotent, annihilates x.
    For x = 0 this is the identity.
    """
    x = _as_column(as_complex(x))
    n = x.shape[0]
    return np.eye(n, dtype=complex) - x @ pinv(x, cfg)


def map_min(family, x, y):
    family = F(family)
    x, _ = _nonzero_vec(x, "x")
    y, _ = _nonzero_vec(y, "y")
    if family in BASE:
        inner = map_min(BASE[family], x, -y)
        inner.family = family
        if inner.feasible:
            inner.minimizer = -inner.minimizer
        else:
            s = np.vdot(x, y)
            nsd = family is F.NSD
            inner.reason = f"x*y not real negative ({s:.3e})" if nsd else f"Re(x*y) positive ({s.real:.3e})"
        return inner
    n = x.shape[0]
    s = np.vdot(x, y)
    tol = TOL * (fro(x) * fro(y))
    xd = pinv(x)
    yxd = np.outer(y, xd)
    xxd = np.outer(x, xd)
    px = null_projector(x)
    boundary = False
    if family is F.UNSTRUCTURED:
        delta = yxd
        free = {"Z": f"any complex {n}x{n}"}
    elif family is F.HERMITIAN:
        if abs(s.imag) > tol:
            return MapSolution(family, False, reason=f"x*y not real (Im = {s.imag:.3e})")
        delta = yxd + yxd.conj().T - (xd @ y) * xxd
        free = {"H": f"Hermitian {n}x{n}"}
    elif family is F.SKEW_HERMITIAN:
        if abs(s.real) > tol:
            return MapSolution(family, False, reason=f"x*y not imaginary (Re = {s.real:.3e})")
        delta = yxd - yxd.conj().T - (xd @ y) * xxd
        free = {"H": f"skew-Hermitian {n}x{n}"}
    elif family is F.SYMMETRIC:
        delta = yxd + yxd.T - xxd.T @ yxd
        free = {"H": f"complex symmetric {n}x{n}"}
    elif family is F.SKEW_SYMMETRIC:
        if abs(x @ y) > tol:
            return MapSolution(family, False, reason=f"x^T y != 0 ({x @ y:.3e})")
        delta = yxd - yxd.T + xxd.T @ yxd
        free = {"H": f"complex skew-symmetric {n}x{n}"}
    elif family is F.PSD:
        if abs(s.imag) > tol or s.real <= tol:
            return MapSolution(family, False, reason=f"x*y not real positive ({s:.3e})")
        delta = np.outer(y, y.conj()) / s
        free = {"K": f"Hermitian PSD {n}x{n}"}
    else:
        if s.real < -tol:
            return MapSolution(family, False, reason=f"Re(x*y) negative ({s.real:.3e})")
        delta = yxd - yxd.conj().T @ px
        boundary = abs(s.real) <= tol
        free = {
            "Z": f"any complex {n}x{n}",
            "K": f"Hermitian PSD {n}x{n} with K - (2y+Z*x)(2y+Z*x)*/(4Re(x*y)) PSD",
            "G": f"skew-Hermitian {n}x{n}",
        }
    return MapSolution(family, True, delta, fro(delta), free, boundary=boundary)


def map_two_sided(x, y, z, w):
    x, y, z, w = (_nonzero_vec(v, name)[0] for v, name in ((x, "x"), (y, "y"), (z, "z"), (w, "w")))
    n, m = y.shape[0], x.shape[0]
    gap = np.vdot(x, w) - np.vdot(y, z)
    if abs(gap) > TOL * max(fro(x) * fro(w), fro(y) * fro(z)):
        return MapSolution(F.UNSTRUCTURED, False, reason=f"x*w != y*z (gap {abs(gap):.3e})")
    xd = pinv(x)
    wzd = np.outer(w, pinv(z))
    delta = np.outer(y, xd) + wzd.conj().T - wzd.conj().T @ np.outer(x, xd)
    return MapSolution(
        F.UNSTRUCTURED, True, delta, fro(delta), {"R": f"any complex {n}x{m}, entering as P_z R P_x"}
    )


def map_characterize(family, x, y, params):
    """The solution-set formulas with projectors; parameter checks as in the solver."""
    family = F(family)
    x, _ = _nonzero_vec(x, "x")
    y, _ = _nonzero_vec(y, "y")
    if family in BASE:
        return -map_characterize(BASE[family], x, -y, params)
    base = map_min(family, x, y)
    if not base.feasible:
        raise DegenerateInputError(f"infeasible problem: {base.reason}")
    px = null_projector(x)
    p = {k: as_complex(v) for k, v in params.items()}
    if family is F.UNSTRUCTURED:
        return base.minimizer + p["Z"] @ px
    if family in (F.HERMITIAN, F.SKEW_HERMITIAN):
        return base.minimizer + px @ p["H"] @ px
    if family in (F.SYMMETRIC, F.SKEW_SYMMETRIC):
        return base.minimizer + px.T @ p["H"] @ px
    if family is F.PSD:
        return base.minimizer + px @ p["K"] @ px
    z, k, g = p["Z"], p["K"], p["G"]
    q = 2.0 * y + z.conj().T @ x
    re = np.vdot(x, y).real
    shifted = k - np.outer(q, q.conj()) / (4.0 * re)
    scale = fro(k) + (2.0 * fro(y) + fro(z) * fro(x)) ** 2 / (4.0 * re)  # before q cancels
    _require(min_eig_herm(shifted) >= -TOL * scale, "K_shifted_psd", "")
    xd = pinv(x)
    yxd = np.outer(y, xd)
    xxd = np.outer(x, xd)
    return yxd + yxd.conj().T @ px + xxd @ z @ px + px @ k @ px + px @ g @ px


def _base_h1(family, z, w1):
    zd = pinv(z)
    w1zd = np.outer(w1, zd)
    zzd = np.outer(z, zd)
    if family is F.HERMITIAN:
        return w1zd + w1zd.conj().T - (zd @ w1) * zzd
    if family is F.SKEW_HERMITIAN:
        return -w1zd + w1zd.conj().T + (zd @ w1) * zzd
    if family is F.PSD:
        return np.outer(w1, w1.conj()) / np.vdot(z, w1)
    zb, w1b = z.conj(), w1.conj()
    zbd = pinv(zb)
    w1zbd = np.outer(w1b, zbd)
    zzbd = np.outer(zb, zbd)
    if family is F.SYMMETRIC:
        return w1zbd + w1zbd.T - zzbd.T @ w1zbd
    return -w1zbd + w1zbd.T + zzbd.T @ w1zbd


def _h2_from_h1(p, h1):
    w2zd = np.outer(p.w2, pinv(p.z))
    return np.outer(p.y - h1 @ p.x1, pinv(p.x2)) + w2zd.conj().T @ null_projector(p.x2)


def dsm_solve(family, p):
    family = F(family)
    _check_degenerate(family, p)
    if family is F.NSD:
        inner = dsm_solve(F.PSD, DsmProblem(-p.x1, p.x2, p.y, p.z, -p.w1, p.w2))
        inner.family = family
        if inner.feasible:
            inner.H1 = -inner.H1
        elif inner.reason.startswith("z*w1"):
            inner.reason = f"z*w1 not negative ({np.vdot(p.z, p.w1):.3e})"
        return inner
    compat = np.vdot(p.x, p.w) - np.vdot(p.y, p.z)
    if abs(compat) > TOL * max(fro(p.x) * fro(p.w), fro(p.y) * fro(p.z)):
        return DsmSolution(family, False, reason=f"x*w != y*z (gap {abs(compat):.3e})")
    tol = TOL * fro(p.z) * fro(p.w1)
    s, t = np.vdot(p.z, p.w1), p.z @ p.w1
    ok, why = {
        F.HERMITIAN: (abs(s.imag) <= tol, f"z*w1 not real (Im = {s.imag:.3e})"),
        F.SKEW_HERMITIAN: (abs(s.real) <= tol, f"z*w1 not imaginary (Re = {s.real:.3e})"),
        F.SYMMETRIC: (True, ""),
        F.SKEW_SYMMETRIC: (abs(t) <= tol, f"z^T w1 != 0 ({t:.3e})"),
        F.PSD: (abs(s.imag) <= tol and s.real > tol, f"z*w1 not positive ({s:.3e})"),
    }[family]
    if not ok:
        return DsmSolution(family, False, reason=why)
    h1 = _base_h1(family, p.z, p.w1)
    h2 = _h2_from_h1(p, h1)
    target = p.z if family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.PSD) else p.z.conj()
    _, exact = _colinear_coeff(target, p.x1, fro(p.x1), DEFAULT_TOL)
    note = "x1 colinear with z" if exact else "never"
    if family in (F.SYMMETRIC, F.SKEW_SYMMETRIC) and exact:
        note = "x1 colinear with conj(z)"
    diagnostics, warnings = {}, []
    if family is F.PSD:
        a = p.y - (np.vdot(p.w1, p.x1) / np.vdot(p.z, p.w1)) * p.w1
        rightmost, herm_right = _rank_one_rightmost(a, p.x1, fro(a), fro(p.x1))
        diagnostics["left_spectrum_factors"] = (a, p.x1)
        diagnostics["rightmost_real_part"] = rightmost
        # ||a|| ||x1||, not fro(a x1*): the entries of a x1* overflow when squared at 1e100 scale
        floor = TOL * fro(a) * fro(p.x1)
        diagnostics["rightmost_numerical_range"] = herm_right
        if not exact and herm_right <= floor:
            exact = True
            note = "diagnostic matrix numerical range in closed left half-plane"
        elif not exact and rightmost <= floor:
            warnings.append(
                "diagnostic matrix has left spectrum but indefinite Hermitian part: "
                "minimality of the returned point is not certified"
            )
    upper = float(np.sqrt(fro(h1) ** 2 + fro(h2) ** 2))
    lower = upper if exact else fro(h1)
    return DsmSolution(family, True, h1, h2, lower, upper, exact, note, "", diagnostics, warnings)


def dsm_characterize(family, p, K, R):
    family = F(family)
    K, R = as_complex(K), as_complex(R)
    if family is F.NSD:
        refl = dsm_characterize(F.PSD, DsmProblem(-p.x1, p.x2, p.y, p.z, -p.w1, p.w2), K, R)
        return np.hstack([-refl[:, : p.n], refl[:, p.n:]])
    _require_structure(family, "K", K, DEFAULT_TOL)
    sol = dsm_solve(family, p)
    if not sol.feasible:
        raise DegenerateInputError(f"infeasible problem: {sol.reason}")
    pz = null_projector(p.z)
    px2 = null_projector(p.x2)
    if family in (F.SYMMETRIC, F.SKEW_SYMMETRIC):
        pzb = null_projector(p.z.conj())
        h1t = pzb.T @ K @ pzb
    else:
        h1t = pz @ K @ pz
    h2t = pz @ R @ px2 - h1t @ np.outer(p.x1, pinv(p.x2))
    return np.hstack([sol.H1 + h1t, sol.H2 + h2t])


def dsdm_type1_vec(x, y, z, w, anti=False):
    x, y, z, w = (as_complex(v).reshape(-1) for v in (x, y, z, w))
    alpha = np.vdot(x, z) / np.vdot(x, x)
    if alpha == 0 or fro(z - alpha * x) > TOL * fro(z):
        raise NotColinearError("z is not colinear with x")
    if anti:
        inner = dsdm_type1_vec(x, -y, z, -w)
        if inner.feasible:
            inner.minimizer, inner.gram = -inner.minimizer, -inner.gram
        return inner
    s = np.vdot(x, y)
    if abs(s.real) <= TOL * fro(x) * fro(y):
        raise DegenerateInputError("Re(x*y) vanishes")
    conditions = {"colinear": True, "re_xy_positive": s.real > 0}
    gap = np.vdot(x, w) - np.vdot(y, z)
    conditions["XW_eq_YZ"] = abs(gap) <= TOL * max(fro(x) * fro(w), fro(y) * fro(z))
    if not (conditions["re_xy_positive"] and conditions["XW_eq_YZ"]):
        bad = [k for k, v in conditions.items() if not v]
        return Type1Solution(
            False, reason=f"infeasible: {', '.join(bad)}", conditions=conditions, diagnostics={"alpha": alpha}
        )
    px = null_projector(x)
    v = y + (alpha.conjugate() / abs(alpha) ** 2) * w
    gram = np.outer(v, v.conj()) / (4.0 * s.real)
    wzd = np.outer(w, pinv(z))
    mini = np.outer(y, pinv(x)) + wzd.conj().T @ px + px @ gram @ px
    return Type1Solution(
        True, mini, fro(mini), px @ gram @ px, True, conditions=conditions, diagnostics={"alpha": alpha}
    )


def _type2_pieces(p):
    zd = pinv(p.z)
    pz = null_projector(p.z)
    px2 = null_projector(p.x2)
    x2d = pinv(p.x2)
    w1zd = np.outer(p.w1, zd)
    w2zd = np.outer(p.w2, zd)
    ztx1 = (zd @ p.x1).item()
    h1 = w1zd.conj().T + pz @ w1zd
    h2 = (
        np.outer(p.y, x2d)
        - w1zd.conj().T @ np.outer(p.x1, x2d)
        - ztx1 * (pz @ np.outer(p.w1, x2d))
        + w2zd.conj().T @ px2
    )
    h1_hat = w1zd.conj().T - pz @ w1zd
    h2_hat = h2 + 2.0 * ztx1 * (pz @ np.outer(p.w1, x2d))
    return h1, h2, h1_hat, h2_hat


def dsdm_type2(p, anti=False):
    if anti:
        inner = dsdm_type2(DsmProblem(p.x1, p.x2, -p.y, p.z, -p.w1, -p.w2))
        inner.family = F.ANTI_DISSIPATIVE
        if inner.feasible:
            inner.H1, inner.H2 = -inner.H1, -inner.H2
        elif inner.reason.startswith("Re(z*w1)"):
            inner.reason = f"Re(z*w1) positive ({np.vdot(p.z, p.w1).real:.3e})"
        return inner
    compat = np.vdot(p.x, p.w) - np.vdot(p.y, p.z)
    if abs(compat) > TOL * max(fro(p.x) * fro(p.w), fro(p.y) * fro(p.z)):
        return DsmSolution(F.DISSIPATIVE, False, reason=f"x*w != y*z (gap {abs(compat):.3e})")
    rew = np.vdot(p.z, p.w1).real
    sscale = fro(p.z) * fro(p.w1)
    if rew < -TOL * sscale:
        return DsmSolution(F.DISSIPATIVE, False, reason=f"Re(z*w1) negative ({rew:.3e})")
    _, _, h1_hat, h2_hat = _type2_pieces(p)
    warnings = []
    if rew <= TOL * sscale:
        warnings.append("Re(z*w1) ~ 0: boundary case, characterization unavailable")
    beta, y_colinear = _colinear_coeff(p.z, p.y, fro(p.y), DEFAULT_TOL)
    orth = abs(np.vdot(p.z, p.x1)) <= TOL * fro(p.z) * fro(p.x1)
    _, w1_colinear = _colinear_coeff(p.z, p.w1, fro(p.w1), DEFAULT_TOL)
    exact = y_colinear and orth and w1_colinear
    if y_colinear and orth and not w1_colinear:
        warnings.append(
            "sufficient conditions hold only up to the square block: minimality "
            "of the returned point is not certified (w1 not colinear with z)"
        )
    upper = float(np.sqrt(fro(h1_hat) ** 2 + fro(h2_hat) ** 2))
    lower = upper if exact else max(fro(p.y) / fro(p.x), fro(p.w) / fro(p.z))
    note = "y, w1 colinear with z and z orthogonal to x1" if exact else "never"
    return DsmSolution(
        F.DISSIPATIVE, True, h1_hat, h2_hat, lower, upper, exact, note, "",
        {"beta": beta, "re_zw1": rew}, warnings,
    )


def dsm_characterize_type2(p, Z, K, G, R):
    Z, K, G, R = (as_complex(a) for a in (Z, K, G, R))
    q = 2.0 * p.w1 + Z.conj().T @ p.z
    re = np.vdot(p.z, p.w1).real
    shifted = K - np.outer(q, q.conj()) / (4.0 * re)
    if min_eig_herm(shifted) < -TOL * (fro(K) + (2.0 * fro(p.w1) + fro(Z) * fro(p.z)) ** 2 / (4.0 * re)):
        raise ConstraintViolationError("K_shifted_psd", "")
    h1, h2, _, _ = _type2_pieces(p)
    zd = pinv(p.z)
    pz = null_projector(p.z)
    px2 = null_projector(p.x2)
    zzd = np.outer(p.z, zd)
    x1x2d = np.outer(p.x1, pinv(p.x2))
    h1t = pz @ Z.conj().T @ zzd + pz @ K @ pz - pz @ G @ pz
    h2t = -pz @ Z.conj().T @ zzd @ x1x2d - pz @ K @ pz @ x1x2d + pz @ G @ pz @ x1x2d + pz @ R @ px2
    return np.hstack([h1 + h1t, h2 + h2t])

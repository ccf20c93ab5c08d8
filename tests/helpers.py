"""Shared random-instance builders for the test suite.

Every builder takes an explicit numpy Generator so tests stay
deterministic, and engineers the exact feasibility margins the solvers
test for (compatibility identity, structural condition on z*w1,
colinearity for the exactness paths).
"""

import numpy as np

from dense_reference import null_projector
from dsmkit import DsmProblem, Type1Problem, pinv
from dsmkit.maps import StructureFamily as F


def crandn(rng, *shape):
    out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return out if shape else complex(out)


def fix_compat(x, w, z, y):
    """Shift y along z so that x*w = y*z exactly (up to rounding)."""
    return y + ((np.conj(np.vdot(x, w)) - np.vdot(z, y)) / np.vdot(z, z)) * z


def structural_w1(family, rng, z, w1, margin=0.4):
    """Adjust w1 so the family's condition on z*w1 holds with a margin."""
    s = np.vdot(z, w1)
    nz = np.vdot(z, z).real
    if family in (F.HERMITIAN, F.PSD, F.NSD):
        w1 = w1 - (1j * s.imag / nz) * z
        re = np.vdot(z, w1).real
        if family is F.PSD and re < margin:
            w1 = w1 + ((margin + 0.1) - re) / nz * z
        if family is F.NSD and re > -margin:
            w1 = w1 - (re + margin + 0.1) / nz * z
    elif family is F.SKEW_HERMITIAN:
        w1 = w1 - (s.real / nz) * z
    elif family is F.SKEW_SYMMETRIC:
        # correct along conj(z): z^T (w1 + t conj(z)) = z^T w1 + t ||z||^2
        w1 = w1 - ((z @ w1) / nz) * z.conj()
    return w1


def dsm_instance(family, rng, n, m, exact=False):
    """Random feasible DsmProblem for one of the six structure families."""
    z = crandn(rng, n)
    w1 = structural_w1(family, rng, z, crandn(rng, n))
    x2 = crandn(rng, m)
    w2 = crandn(rng, m)
    y = crandn(rng, n)
    if exact:
        alpha = crandn(rng)
        target = z.conj() if family in (F.SYMMETRIC, F.SKEW_SYMMETRIC) else z
        x1 = alpha * target
    else:
        x1 = crandn(rng, n)
    x = np.concatenate([x1, x2])
    w = np.concatenate([w1, w2])
    y = fix_compat(x, w, z, y)
    return DsmProblem(x1, x2, y, z, w1, w2)


def dsm_instance_psd_spectrum(rng, n, m):
    """Feasible PSD instance exact through the diagnostic-matrix condition.

    x1 is drawn freely (not colinear with z) and y is arranged so the
    rank-one diagnostic matrix has its numerical range in the left
    half-plane (y - (w1*x1 / z*w1) w1 = -t x1 with t > 0), which is the
    certifiable version of the left-spectrum sufficient condition.
    Compatibility is restored through w2 so the y-structure survives.
    """
    z = crandn(rng, n)
    w1 = structural_w1(F.PSD, rng, z, crandn(rng, n))
    x1 = crandn(rng, n)
    x2 = crandn(rng, m)
    w2 = crandn(rng, m)
    t = abs(crandn(rng)) + 0.1
    y = (np.vdot(w1, x1) / np.vdot(z, w1)) * w1 - t * x1
    gap = np.vdot(y, z) - np.vdot(np.concatenate([x1, x2]), np.concatenate([w1, w2]))
    w2 = w2 + (gap / np.vdot(x2, x2).real) * x2
    return DsmProblem(x1, x2, y, z, w1, w2)


def type1_instance(rng, n, m, definite=True):
    """Feasible square dissipative instance built from a random member."""
    s = crandn(rng, n, n)
    s = s - s.conj().T
    g = crandn(rng, n, n)
    member = s + 0.5 * (g @ g.conj().T) if definite else s
    x = crandn(rng, n, m)
    z = x.copy()
    return Type1Problem(x, member @ x, z, member.conj().T @ z), member


def type1_vec_instance(rng, n, feasible=True):
    """Vector data with z colinear to x and Re(x*y) > 0."""
    x = crandn(rng, n)
    alpha = crandn(rng)
    z = alpha * x
    y = crandn(rng, n)
    re = np.vdot(x, y).real
    if feasible and re < 0.3:
        y = y + (0.5 - re) / np.vdot(x, x).real * x
    w = crandn(rng, n)
    w = w + ((np.vdot(y, z) - np.vdot(x, w)) / np.vdot(x, x)) * x
    return x, y, z, w


def type2_instance(rng, n, m, exact=False, paper_exact_only=False):
    """Feasible rectangular dissipative instance.

    exact=True builds the certifiably exact case (y and w1 colinear with
    z, z orthogonal to x1); paper_exact_only=True keeps w1 free so only
    the paper's broader sufficient condition holds.
    """
    z = crandn(rng, n)
    nz = np.vdot(z, z).real
    if exact or paper_exact_only:
        x1 = null_projector(z) @ crandn(rng, n)
        if np.linalg.norm(x1) <= 1e-10:  # n = 1 leaves projector noise
            x1 = np.zeros(n, dtype=complex)
        y = crandn(rng) * z
    else:
        x1 = crandn(rng, n)
        y = crandn(rng, n)
    if exact:
        gamma = crandn(rng)
        if gamma.real < 0.3:
            gamma = gamma + (0.5 - gamma.real)
        w1 = gamma * z
    else:
        w1 = crandn(rng, n)
        re = np.vdot(z, w1).real
        if re < 0.3:
            w1 = w1 + (0.5 - re) / nz * z
    x2 = crandn(rng, m)
    w2 = crandn(rng, m)
    gap = np.vdot(y, z) - np.vdot(np.concatenate([x1, x2]), np.concatenate([w1, w2]))
    w2 = w2 + (gap / np.vdot(x2, x2).real) * x2
    return DsmProblem(x1, x2, y, z, w1, w2)


def two_sided_instance(rng, n, m):
    """Consistent data for the unstructured two-sided problem."""
    x = crandn(rng, m)
    y = crandn(rng, n)
    z = crandn(rng, n)
    w = crandn(rng, m)
    w = w + ((np.vdot(y, z) - np.vdot(x, w)).conjugate() / np.vdot(x, x).real).conjugate() * x
    return x, y, z, w


def map_instance(family, rng, n):
    """Feasible one-sided mapping data for map_min."""
    x = crandn(rng, n)
    y = crandn(rng, n)
    s = np.vdot(x, y)
    nx = np.vdot(x, x).real
    if family is F.HERMITIAN:
        y = y - (1j * s.imag / nx) * x
    elif family is F.SKEW_HERMITIAN:
        y = y - (s.real / nx) * x
    elif family is F.SKEW_SYMMETRIC:
        y = y - ((x @ y) / (x @ x)) * x
    elif family is F.PSD:
        y = y - (1j * s.imag / nx) * x
        re = np.vdot(x, y).real
        if re < 0.3:
            y = y + (0.5 - re) / nx * x
    elif family is F.NSD:
        y = y - (1j * s.imag / nx) * x
        re = np.vdot(x, y).real
        if re > -0.3:
            y = y - (re + 0.5) / nx * x
    elif family is F.DISSIPATIVE:
        re = s.real
        if re < 0.3:
            y = y + (0.5 - re) / nx * x
    elif family is F.ANTI_DISSIPATIVE:
        re = s.real
        if re > -0.3:
            y = y - (re + 0.5) / nx * x
    return x, y


def map_params(family, rng, x, y, n):
    """Admissible free matrices of map_characterize for the family at feasible data x, y of length n."""
    if family is F.UNSTRUCTURED:
        return {"Z": crandn(rng, n, n)}
    if family in (F.HERMITIAN, F.SKEW_HERMITIAN, F.SYMMETRIC, F.SKEW_SYMMETRIC):
        h = crandn(rng, n, n)
        if family is F.HERMITIAN:
            h = h + h.conj().T
        elif family is F.SKEW_HERMITIAN:
            h = h - h.conj().T
        elif family is F.SYMMETRIC:
            h = h + h.T
        else:
            h = h - h.T
        return {"H": h}
    if family in (F.PSD, F.NSD):
        g = crandn(rng, n, n)
        return {"K": g @ g.conj().T}
    z = crandn(rng, n, n)
    g = crandn(rng, n, n)
    g = g - g.conj().T
    l = crandn(rng, n, n)
    sgn = -1.0 if family is F.ANTI_DISSIPATIVE else 1.0
    q = 2 * (sgn * y) + z.conj().T @ x
    k = np.outer(q, q.conj()) / (4 * abs(np.vdot(x, y).real)) + l @ l.conj().T
    return {"Z": z, "K": k, "G": g}


def semidefinite_by_eigs(a, tol=1e-10):
    """A Hermitian a has no eigenvalue below -tol times its largest in modulus."""
    eigs = np.linalg.eigvalsh(a)
    return bool(eigs[0] >= -tol * np.abs(eigs).max())


def block_semidefinite(b, c, d, tol=1e-10):
    """[[B, C*], [C, D]] is semidefinite by the three conditions of the block lemma.

    B is semidefinite; ker(B) lies in ker(C), tested through the projector
    I - B+ B; and the generalized Schur complement D - C B+ C* is semidefinite.
    """
    bd = pinv(b)
    kernel = np.linalg.norm(c @ (np.eye(b.shape[0]) - bd @ b)) <= tol * np.linalg.norm(c)
    schur = d - c @ bd @ c.conj().T
    return semidefinite_by_eigs(b, tol) and kernel and semidefinite_by_eigs((schur + schur.conj().T) / 2, tol)


def _arg(args, kwargs, i, name, default):
    return kwargs.get(name, args[i] if len(args) > i else default)


def watch_linalg(monkeypatch):
    """Record (name, operand shape, full, how) of every np.linalg call but the norms.

    Every LAPACK-backed entry point is watched; a norm is one pass over the
    data, not a factorization.  ``full`` is true for an SVD that forms full
    U and V (numpy's default), false for every other call.  ``how`` is what
    a factorization forms: a QR's mode ("reduced" forms Q, "raw" only the
    reflectors), an SVD's ``compute_uv`` (False: singular values only), and
    None for every other call.
    """
    seen = []

    def watch(name, fn):
        def wrapped(*args, **kwargs):
            how = None
            if name == "qr":
                how = _arg(args, kwargs, 1, "mode", "reduced")
            elif name == "svd":
                how = bool(_arg(args, kwargs, 2, "compute_uv", True))
            full = name == "svd" and how and _arg(args, kwargs, 1, "full_matrices", True)
            seen.extend((name, a.shape, bool(full), how) for a in args if getattr(a, "ndim", 0) >= 2)
            return fn(*args, **kwargs)
        return wrapped

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type) and "norm" not in name:
            monkeypatch.setattr(np.linalg, name, watch(name, fn))
    return seen


def _spoil(a, value):
    """A copy of the array a, in its own dtype, whose last entry is ``value``."""
    a = np.array(a)
    a.flat[-1] = value
    return a


#: every form in which a caller can pass a non-finite entry, each applied to a finite complex array
NON_FINITE = {
    "nan-real-part": lambda a: _spoil(a, complex(np.nan, 0.0)),
    "nan-imag-part": lambda a: _spoil(a, complex(0.0, np.nan)),
    "inf-real-part": lambda a: _spoil(a, complex(np.inf, 1.0)),
    "-inf-real-part": lambda a: _spoil(a, complex(-np.inf, 1.0)),
    "inf-imag-part": lambda a: _spoil(a, complex(1.0, np.inf)),
    "-inf-imag-part": lambda a: _spoil(a, complex(1.0, -np.inf)),
    "real-dtype-nan": lambda a: _spoil(a.real, np.nan),
    "real-dtype-inf": lambda a: _spoil(a.real, -np.inf),
    "python-list": lambda a: _spoil(a, complex(0.0, np.nan)).tolist(),
}

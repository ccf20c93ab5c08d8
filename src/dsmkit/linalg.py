"""Complex linear-algebra primitives shared by every solver.

All matrices are plain ``numpy`` arrays of dtype complex128.  Vectors are
1-d arrays; a vector ``x`` used as a matrix is the column ``x[:, None]``.
The Moore-Penrose pseudoinverse of a column vector x is the row
``x* / ||x||^2``, so ``pinv`` covers both cases uniformly (vectors
without an SVD); the mapping solvers keep vector data factored (see
``maps``).  A range is spanned by a thin orthonormal basis, not an n x n
projector: ``svd_range`` for an n x m matrix in O(n m^2), ``psd_range``
for a psd matrix of rank r in O(n r^2) (pivoted Cholesky, thin QR), and
``_range_factors`` for a map y x+ with the basis of range(x).
Boundary rule: a caller's array is validated (``as_complex``) once, where it
enters a public entry point, and not again once derived by an exact operation
(negation, conjugation, slicing, reshape); a new product that can overflow
(``jordan_lie_reduce``'s M y, M z) is.  Each data norm is taken once per call.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import DimensionMismatchError, NonFiniteEntriesError

__all__ = [
    "as_complex",
    "fro",
    "pinv",
    "herm_skew_parts",
    "min_eig_herm",
    "svd_range",
    "psd_range",
]


def as_complex(a, name: str = "array") -> np.ndarray:
    """Validate and convert input to a finite complex128 array in one pass: once per caller array (boundary rule)."""
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise NonFiniteEntriesError(f"{name} contains NaN/Inf entries")
    return out


def fro(a) -> float:
    """Frobenius norm (2-norm for vectors).

    A contiguous complex array is read as its float64 view, one dot
    product of twice the length; numpy's complex path reads the real and
    imaginary parts as two strided views, which at 1024 x 1024 costs
    about 2.5x, and its checks cost more than the sum on short vectors.
    """
    a = np.asarray(a)
    if a.dtype.char == "D" and a.dtype.isnative and a.flags.c_contiguous:
        x = a.reshape(-1).view(np.float64)
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(a))


def _as_column(x: np.ndarray) -> np.ndarray:
    return x[:, None] if x.ndim == 1 else x


def pinv(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    Singular values below ``rank_tol * sigma_max`` are treated as zero.
    The zero matrix maps to the zero matrix of transposed shape.  A single
    row or column has the one singular value ||a||, so its pseudoinverse
    is ``a* / ||a||^2`` without an SVD; it is evaluated as
    ``(a / ||a||)* / ||a||``, which neither overflows nor underflows where
    ``||a||^2`` would.
    """
    a = _as_column(as_complex(a))
    if 1 not in a.shape:
        return np.linalg.pinv(a, rcond=cfg.rank_tol)
    na = fro(a)
    if na == 0.0:
        return np.zeros(a.shape[::-1], dtype=complex)
    return _pinv_vec(a, na).T


def _pinv_vec(x: np.ndarray, nx: float) -> np.ndarray:
    """``pinv`` of a nonzero vector x of norm ``nx`` as a vector, (x / ||x||)* / ||x||, without squaring ||x||."""
    return (x / nx).conj() / nx


def herm_skew_parts(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a square matrix into Hermitian + skew-Hermitian parts.

    The parts are orthogonal in the Frobenius inner product, so
    ``||A||_F^2 = ||A_H||_F^2 + ||A_S||_F^2``.
    """
    a = as_complex(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"square matrix required, got shape {a.shape}")
    ah = (a + a.conj().T) / 2.0
    return ah, a - ah


def min_eig_herm(a) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix."""
    ah, _ = herm_skew_parts(a)
    if ah.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(ah)[0])


def _semidefinite(a, scale: float, cfg: ToleranceConfig, definite: bool = False) -> bool:
    """The Hermitian part of a is positive semidefinite: no eigenvalue below ``-psd_tol * scale``.

    ``definite=True`` asks for every eigenvalue above ``psd_tol * scale``.
    ``scale`` is the norms of the inputs that formed a (see ``ToleranceConfig``).
    """
    ah = (a + a.conj().T) / 2.0  # as ``min_eig_herm`` takes it, without validating the library's own a again
    lo, bound = (float(np.linalg.eigvalsh(ah)[0]) if ah.shape[0] else 0.0), cfg.psd_tol * scale
    return lo > bound if definite else lo >= -bound


def _colinear_coeff(target: np.ndarray, v: np.ndarray, nv: float, cfg: ToleranceConfig) -> tuple[complex, bool]:
    """(alpha, colinear): the least-squares alpha of v ~ alpha target, and ||v - alpha target|| <= residual_tol ||v||.

    ``nv`` is ||v||.  A zero target gives (0, False); a zero v is colinear, with alpha = 0.
    """
    denom = np.vdot(target, target)
    if denom == 0:
        return 0j, False
    alpha = np.vdot(target, v) / denom
    return alpha, bool(fro(v - alpha * target) <= cfg.residual_tol * nv)


def svd_range(x, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (n x r) of range(x), x an n x m matrix, from its thin SVD in O(n m^2).

    r counts the singular values above ``rank_tol`` times the largest (``pinv``'s
    rule), so the zero matrix has the empty n x 0 basis; a real x has a real basis.
    """
    u, s, _ = np.linalg.svd(x, full_matrices=False)
    return u[:, _kept(s, cfg)]


def _kept(s: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Which singular values count, along the last axis: those above ``rank_tol`` times the largest."""
    return s > cfg.rank_tol * s.max(-1, initial=0.0, keepdims=True)


def _range_factors(x: np.ndarray, y: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL):
    """(U, V, G) with x = U S V* truncated by ``svd_range``'s rule and G = y V S^-1, in O(n m^2).

    Then pinv(x) = V S^-1 U*, so y pinv(x) = G U* and x pinv(x) = U U*: the
    map y x+ and the projector onto range(x) in thin factors.
    """
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    keep = _kept(s, cfg)
    v = vh[keep].conj().T
    return u[:, keep], v, (y @ v) / s[keep]


def psd_range(a, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (n x r) of range(a), a Hermitian psd of rank r, in O(n r^2).

    A pivoted Cholesky a = L L* (Higham 2002, 10.3) stops once the largest
    remaining diagonal is at most ``rank_tol * ||a||``, the scale of the a it
    is formed from (``ToleranceConfig``); a thin QR of the n x r L follows.
    """
    a = as_complex(a)
    n = a.shape[0]
    floor = cfg.rank_tol * fro(a)
    d = a.diagonal().real.copy()  # the diagonal of the Schur complement left after k steps
    lt = np.empty((n, n), dtype=complex)  # row j is column j of L
    k = 0
    while k < n and d.max() > floor:
        p = int(np.argmax(d))
        row = (a[p].conj() - lt[:k, p].conj() @ lt[:k]) / math.sqrt(d[p])
        lt[k] = row
        d -= row.real ** 2 + row.imag ** 2
        d[p] = 0.0  # eliminated; rounding must not make it a pivot again
        k += 1
    return np.linalg.qr(lt[:k].T)[0]

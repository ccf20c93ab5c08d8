"""Complex linear-algebra primitives shared by every solver.

All matrices are plain ``numpy`` arrays of dtype complex128.  Vectors are
1-d arrays; a vector ``x`` used as a matrix is the column ``x[:, None]``.
The Moore-Penrose pseudoinverse of a column vector x is the row
``x* / ||x||^2``, so ``pinv`` covers both cases uniformly (vectors
without an SVD); the mapping solvers keep vector data factored and return
``Factored`` blocks Delta = F C G^T, formed densely only when read (see
``maps``).  A range is spanned by a thin orthonormal basis, not an n x n
projector: ``svd_range`` for an n x m matrix in O(n m^2), and
``_range_factors`` for a map y x+ with the basis of range(x).  The
complement of a range is applied, not spanned: ``_complement_map`` takes
one Householder factorization, O(n m^2) for an n x m matrix or O(n r^2)
for the n x r pivoted Cholesky factor of a psd matrix of rank r
(``_psd_factor``), forms no Q or U, and projects a vector through its
reflectors in O(n m) or O(n r).
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
    "Factored",
    "DenseOnRead",
    "as_complex",
    "fro",
    "pinv",
    "herm_skew_parts",
    "min_eig_herm",
    "svd_range",
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


def _psd_factor(a: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """An n x r factor L of full column rank with a ~ L L*, for a Hermitian psd a of numerical rank r, in O(n r^2).

    A pivoted Cholesky (Higham 2002, 10.3) stops once the largest remaining
    diagonal is at most ``rank_tol * ||a||``, the scale of the a it is formed
    from (``ToleranceConfig``), so r is a's numerical rank and range(L) its range.
    """
    n = a.shape[0]
    floor = cfg.rank_tol * fro(a)
    d = a.diagonal().real.copy()  # the diagonal of the Schur complement left after k steps
    xt = np.empty((n, n), dtype=complex)  # row j is conj(column j of L), so that step k reads row p of a as it is
    sq = np.empty(2 * n)
    k = 0
    while k < n:
        p = int(d.argmax())
        if not d[p] > floor:
            break
        row = np.dot(xt[:k, p].conj(), xt[:k], out=xt[k])
        np.subtract(a[p], row, out=row)
        row /= math.sqrt(d[p])
        np.square(row.view(np.float64), out=sq)  # |row|^2, as its real and imaginary parts
        d -= sq[::2]
        d -= sq[1::2]
        d[p] = 0.0  # eliminated; rounding must not make it a pivot again
        k += 1
    return np.conjugate(xt[:k], out=xt[:k]).T


def _complement_map(x: np.ndarray, cfg: ToleranceConfig | None = None):
    """(r, project): the rank r of an n x m x and project(g) = g - Q Q* g for Q an orthonormal basis of range(x).

    One Householder QR of x (geqrf, ``np.linalg.qr(mode="raw")``), k = min(n, m)
    reflectors, in O(n m^2); project applies them to a vector, c = Q* g, then
    Q to c with its part in range(x) removed, in O(n k), and no Q is formed.
    With ``cfg``, r counts the singular values of the k x m triangle T (those
    of x) above ``rank_tol`` times the largest, ``svd_range``'s rule, and a
    dropped direction is kept out through T's left singular vectors, which
    are computed only then: range(x) = Q_k range(T).  Without it, x has full
    column rank, r = m, and a square x is not factored.  project is None
    when range(x) is all of C^n, and the identity when r = 0.
    """
    n, m = x.shape
    if cfg is None and m == n:
        return n, None
    h, tau = np.linalg.qr(x, mode="raw")  # h is the transposed LAPACK array: row i holds column i
    k, u = len(tau), None
    r = m
    if cfg is not None:
        t = np.triu(h[:, :k].T)
        r = int(_kept(np.linalg.svd(t, compute_uv=False), cfg).sum())
        if 0 < r < k:
            u = np.linalg.svd(t, full_matrices=False)[0][:, :r]  # T's kept left singular vectors
    if r == n:
        return r, None
    if r == 0:
        return r, np.copy
    v = np.ascontiguousarray(h[:k])  # row i from entry i on is reflector i: 1 (implicit in geqrf), then its tail
    np.fill_diagonal(v, 1.0)
    taus, conj = tau.tolist(), tau.conj().tolist()

    def project(g: np.ndarray) -> np.ndarray:
        c = _reflect(v, conj, g.copy(), range(k))  # Q* g = H_k* ... H_1* g
        if u is None:
            c[:k] = 0.0
        else:
            c[:k] -= u @ (u.conj().T @ c[:k])
        return _reflect(v, taus, c, range(k - 1, -1, -1))

    return r, project


def _reflect(v: np.ndarray, taus: list, c: np.ndarray, order: range) -> np.ndarray:
    """c with H_i = I - tau_i v_i v_i* applied in place for i in ``order``, v_i row i of v from entry i on."""
    for i in order:
        w, y = v[i, i:], c[i:]
        y -= (taus[i] * np.vdot(w, y)) * w
    return c


def _ct(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _norm(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """Frobenius norms over the last ``axes`` axes, one per row of a stack: ``fro`` of each row.

    Each row is one 1 x N by N x 1 product of a stack, so it has the bits it has alone;
    the 2-D product (B, n) @ (n,) would change its last bits with B."""
    x = np.ascontiguousarray(a).reshape(a.shape[: a.ndim - axes] + (1, -1)).view(np.float64)
    return np.sqrt((x @ x.swapaxes(-1, -2))[..., 0, 0])


#: a Gram diagonal entry (a factor's squared norm) outside this range is taken again from scaled factors
_GRAM_RANGE = (2.0**-968, 2.0**968)


def _grams(f: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conj(F* F) = F^T conj(F) and G* G, each one product (``np.dot``: the BLAS product of ``@``, called for less)."""
    return np.dot(f.T, f.conj()), np.dot(g.conj().T, g)


def _core_norm(fa: np.ndarray, b: np.ndarray, c: np.ndarray | None) -> float:
    """||F C G^T|| from fa = conj(F* F) and b = G* G: the root of sum_ij (C* A C)_ij B_ij = vdot(conj(C* A C), B)."""
    if c is not None:
        fa = c.T @ fa @ c.conj()  # conj(C* A C)
    return math.sqrt(max(np.vdot(fa, b).real, 0.0))


def _unit_columns(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a with every column scaled by a power of two to a largest |entry| in [0.5, 1), the exponents): exact.

    The scale is applied in two halves, so that neither overflows for a subnormal column."""
    e = np.frexp(np.abs(a).max(axis=0, initial=0.0))[1]
    return a * np.ldexp(1.0, -(e // 2)) * np.ldexp(1.0, e // 2 - e), e


class Factored:
    """A low-rank block Delta = F C G^T held as thin factors, formed densely only on request.

    F is n x k, G is m x l and the core C is k x l, or None for the identity
    (k = l, Delta = sum_i f_i g_i^T).  Every minimal mapping of ``maps`` and
    ``dsm`` is such a sum with k <= 4, and a square block of ``pencil`` is
    F C F*, G = conj(F).  Negation and a left multiplication act on F alone,
    ``@`` applies Delta to a vector in O((n + m) k), and ``dense()`` forms
    Delta by one product on its first call and keeps it.

    The Frobenius norm is taken in one of two ways, neither of which forms
    an n x m array.  ``norm()`` takes it from the Gram cores A = F* F and
    B = G* G, ||Delta||^2 = sum_ij (C* A C)_ij B_ij, in O((n + m) k^2) with no
    LAPACK call: the terms of the mapping solvers' closed forms are
    orthogonal in the Frobenius inner product, so that sum does not cancel.
    ``part_norms`` takes the norms of a stack of F C F* and of their
    Hermitian and skew parts from a QR core, which keeps a small part
    accurate where a difference of Gram terms would not, at one QR per row
    (at n = 16, k = 2, one thread: about 16 us against 3 us for one Gram
    product).  A block
    made with ``norm=``, a norm its maker took that way, reports that norm.
    """

    __slots__ = ("F", "G", "C", "_dense", "_norm")

    def __init__(self, F: np.ndarray, G: np.ndarray, C: np.ndarray | None = None, norm: float | None = None) -> None:
        self.F, self.G, self.C = F, G, C
        self._dense: np.ndarray | None = None
        self._norm = norm

    @classmethod
    def outer_sum(cls, f: list[np.ndarray], g: list[np.ndarray]) -> "Factored":
        """``sum_i f_i g_i^T`` for two lists of vectors of equal length."""
        return cls(np.array(f).T, np.array(g).T)

    @staticmethod
    def part_norms(F: np.ndarray, C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """||K||, ||herm K||, ||skew K|| (Frobenius) of K = F C F*, for every row of a stack.

        With a thin QR F = QR, Q has orthonormal columns, so K and both its
        parts have the norms of R C R* and its parts: a core of at most 6 x 6.
        Unlike a difference of Gram traces this keeps a small part accurate.
        """
        R = np.linalg.qr(F, mode="r")
        K = R @ C @ _ct(R)
        hh = (K + _ct(K)) / 2.0
        return tuple(_norm(np.stack([K, hh, K - hh], axis=1), 2).T)

    def __neg__(self) -> "Factored":
        return Factored(-self.F, self.G, self.C, self._norm)

    def adjoint_lmul(self, m: np.ndarray) -> "Factored":
        """``m* Delta`` for an n x n m, in O(n^2 k): m* F = conj(m^T conj(F)), without forming m*."""
        return Factored((m.T @ self.F.conj()).conj(), self.G, self.C)

    def beside(self, other: "Factored") -> "Factored":
        """[Delta Other] as one block: [F C, F' C'] times the block diagonal [G 0; 0 G']^T, one product to form."""
        g = np.zeros((self.G.shape[0] + other.G.shape[0], self.G.shape[1] + other.G.shape[1]), dtype=complex)
        g[: self.G.shape[0], : self.G.shape[1]] = self.G
        g[self.G.shape[0]:, self.G.shape[1]:] = other.G
        return Factored(np.hstack([b.F if b.C is None else b.F @ b.C for b in (self, other)]), g)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``Delta v`` for a vector v, in O((n + m) k)."""
        t = self.G.T @ v
        return self.F @ (t if self.C is None else self.C @ t)

    def norm(self) -> float:
        """||Delta||_F from the Gram cores, computed once.

        A Gram core with a diagonal entry outside [2^-968, 2^968] (a factor
        whose squared norm underflows or overflows though Delta's does not,
        or a zero factor) is taken again from factors scaled exactly, column
        by column, to a largest entry in [0.5, 1), the scales moved into C.
        The first Gram cores are formed with overflow ignored: a diagonal
        entry is a sum of squares, so it overflows to inf, never to NaN,
        and fails the range test without a warning.
        """
        if self._norm is None:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a diagonal of inf, tested below
                fa, b = _grams(self.F, self.G)
            d = fa.diagonal().real.tolist() + b.diagonal().real.tolist()  # the factors' squared norms
            if d and min(d) >= _GRAM_RANGE[0] and max(d) <= _GRAM_RANGE[1]:
                self._norm = _core_norm(fa, b, self.C)
            else:
                self._norm = self._rescaled_norm()
        return self._norm

    def _rescaled_norm(self) -> float:
        f, ef = _unit_columns(self.F)
        g, eg = _unit_columns(self.G)
        shift = ef[:, None] + eg[None, :]  # F C G^T = f (2^ef_i C_ij 2^eg_j) g^T
        c = np.eye(len(ef), dtype=complex) if self.C is None else self.C
        live = (c != 0) & f.any(0)[:, None] & g.any(0)[None, :]  # a zero column has no scale
        top = shift[live].max(initial=0)
        with np.errstate(under="ignore"):  # a core entry far below the largest one counts as zero
            core = _core_norm(*_grams(f, g), c * np.ldexp(1.0, shift - top))
        return float(np.ldexp(core, top))

    def dense(self) -> np.ndarray:
        """Delta as an n x m array, formed by one product on the first call and kept."""
        if self._dense is None:
            self._dense = (self.F if self.C is None else self.F @ self.C) @ self.G.T
        return self._dense


class DenseOnRead:
    """A dataclass field that holds a ``Factored`` or an array (or None) and reads as the array.

    A ``Factored`` forms its dense matrix on the first read and returns the
    same array on every later one.  ``vars(obj)[name]`` is the value as held.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the field's default
        held = obj.__dict__[self.name]
        return held.dense() if isinstance(held, Factored) else held

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value

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
an n x m matrix, or the n x r pivoted Cholesky factor of a psd matrix of
rank r (``_psd_factor``), scales it by a power of two to unit norm and
forms its m x m Gram matrix in O(n m^2).  One Cholesky of the Gram matrix
less a small multiple of its trace certifies full column rank and a
condition number below 1.4e4; a vector is then projected by the
seminormal equations with one refinement step, two m x m solves, and no
basis is formed.  Where the certificate fails, one orthonormal basis Q
of range(x) is formed, and a vector g is projected as g - Q (Q* g).
Boundary rule: a caller's array is validated (``as_complex``) once, where it
enters a public entry point, and not again once derived by an exact operation
(negation, conjugation, slicing, reshape); a new product that can overflow
(``jordan_lie_reduce``'s M y, M z) is.  Each data norm is taken once per call.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import NonFiniteEntriesError

__all__ = [
    "Factored",
    "DenseOnRead",
    "as_complex",
    "fro",
    "pinv",
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


def _semidefinite(a, scale: float, cfg: ToleranceConfig, definite: bool = False) -> bool:
    """The Hermitian part of a is positive semidefinite: no eigenvalue below ``-psd_tol * scale``.

    ``definite=True`` asks for every eigenvalue above ``psd_tol * scale``.
    ``scale`` is the norms of the inputs that formed a (see ``ToleranceConfig``).
    """
    ah = (a + a.conj().T) / 2.0
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


#: the Gram path's shift, relative to tr(G): a shifted Cholesky that succeeds certifies cond(x) <= 1.4e4
_GRAM_SHIFT = 1e-8
#: below this Frobenius norm, x's sum of squares may have lost digits to underflow: no Gram path
_GRAM_TINY = 2.0**-500


def _complement_map(x: np.ndarray, cfg: ToleranceConfig | None = None):
    """(r, project): the rank r of an n x m x and project(g) = g - Q Q* g for Q an orthonormal basis of range(x).

    Where 0 < m < n, x is first tried on the Gram path (``_gram_complement``):
    one m x m Cholesky that certifies x well conditioned, after which r = m
    with no SVD and project solves the seminormal equations, two m x m solves
    per vector.  Where the certificate fails (x rank-deficient,
    ill-conditioned, zero, square or wide), Q is formed in O(n m^2): with
    ``cfg`` it is ``svd_range(x, cfg)``, so r counts the singular values
    above ``rank_tol`` times the largest; without it, x has full column rank,
    r = m, Q is that of one reduced QR of x, and a square x is not factored.
    project is None when range(x) is all of C^n, and the identity when r = 0.
    """
    n, m = x.shape
    if cfg is None and m == n:
        return n, None
    if 0 < m < n:
        project = _gram_complement(x, cfg)
        if project is not None:
            return m, project
    q = np.linalg.qr(x)[0] if cfg is None else svd_range(x, cfg)
    r = q.shape[1]
    if r == n:
        return r, None
    if r == 0:
        return r, np.copy
    qh = q.conj().T
    return r, lambda g: g - q @ (qh @ g)


def _gram_complement(x: np.ndarray, cfg: ToleranceConfig | None):
    """project(g) = g - x G^-1 x* g, G = x* x, for an n x m x (0 < m < n) that one Cholesky certifies; else None.

    x is scaled by a power of two to x^ with ||x^|| in [0.5, 1), exactly, so
    that G = x^* x^ neither overflows nor underflows for data up to 1e+-150.
    The certificate is one Cholesky of G - d tr(G) I, d = ``_GRAM_SHIFT``.
    G is formed with an error E1, ||E1|| <= gamma_n tr(G), and a Cholesky that
    succeeds has factored that matrix up to a Hermitian E2 with ||E2|| <=
    gamma_(m+1) tr(G) (Higham 2002, 10.1), so lambda_min(G) >= (d - gamma_(n+m+2))
    tr(G), and with sigma_max(x)^2 <= tr(G):

        sigma_min(x) / sigma_max(x) >= sqrt(d / 2) > rank_tol,

    under the guards (n + m + 2) eps <= d / 4 and rank_tol^2 <= d / 2.  So
    ``svd_range``'s rule keeps every direction, the rank is m with no SVD,
    and cond(x) <= sqrt(2 / d) = 1.4e4.  project solves G c = x^* g by
    ``np.linalg.solve`` and removes x^ c, then takes one step of the same
    form on what is left (corrected seminormal equations, Bjorck 1996, 2.8):
    the first step's relative error is about cond(x)^2 eps <= 2e-8, the
    correction's about its square, so project agrees with the projector of
    an orthonormal basis to about cond(x) eps.  d = 1e-8 keeps that margin
    while every x of cond(x) up to about 1e4 / sqrt(m) takes this path.  A
    failed Cholesky (x rank-deficient, ill-conditioned or zero), a norm out
    of range or a failed guard returns None, and ``_complement_map`` forms Q.
    """
    n, m = x.shape
    if (n + m + 2) * np.finfo(float).eps > _GRAM_SHIFT / 4:
        return None
    if cfg is not None and cfg.rank_tol**2 > _GRAM_SHIFT / 2:
        return None
    nx = fro(x)
    if not _GRAM_TINY < nx < math.inf:
        return None
    xh = x * math.ldexp(1.0, -math.frexp(nx)[1])
    xs = xh.conj().T
    gram = xs @ xh
    shifted = gram.copy()
    shifted.flat[:: m + 1] -= _GRAM_SHIFT * gram.trace().real
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return None

    def project(g: np.ndarray) -> np.ndarray:
        p = g - xh @ np.linalg.solve(gram, xs @ g)
        return p - xh @ np.linalg.solve(gram, xs @ p)

    return project


def _ct(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of every matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _norm(a: np.ndarray, axes: int = 1) -> np.ndarray:
    """Frobenius norms over the last ``axes`` axes, one per row of a stack: ``fro`` of each row.

    Each row is one 1 x N by N x 1 product of a stack, so it has the bits it has alone;
    the 2-D product (B, n) @ (n,) would change its last bits with B."""
    x = np.ascontiguousarray(a).reshape(a.shape[: a.ndim - axes] + (1, -1)).view(np.float64)
    return np.sqrt((x @ x.swapaxes(-1, -2))[..., 0, 0])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i* b_i for every row i of two stacks of vectors, as stacked products (see ``_norm``)."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _nonzero(x: np.ndarray) -> np.ndarray:
    """x as a divisor: 1 where x = 0."""
    return x + (x == 0)


def _pinv_cols(x: np.ndarray, nx: np.ndarray) -> np.ndarray:
    """The columns (x+)* = x / ||x||^2 of a stack of vectors of norms ``nx`` (zero for x = 0), without squaring."""
    nx = _nonzero(nx)[:, None]
    return x / nx / nx


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
    Hermitian and skew parts for F given in coordinates of an orthonormal
    basis, by forming the small F C F*, which keeps a small part accurate
    where a difference of Gram terms would not.  A block made with
    ``norm=``, a norm its maker took that way, reports that norm.
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
        """||K||, ||herm K||, ||skew K|| (Frobenius) of K = F C F*, for every row of a stack of short F.

        F is k x w with k small: the coordinates of a block's factor in an
        orthonormal basis Q (``pencil``'s eight products, k <= 8), so Q K Q*
        has the norms of K and of its parts.  K is formed, k x k, which
        keeps a small part accurate where a difference of Gram terms would not.
        """
        K = F @ C @ _ct(F)
        hh = np.conjugate(K.swapaxes(-1, -2))
        hh += K
        hh /= 2.0
        nk, nh = _norm(K, 2), _norm(hh, 2)
        K -= hh
        return nk, nh, _norm(K, 2)

    def __neg__(self) -> "Factored":
        return Factored(-self.F, self.G, self.C, self._norm)

    def adjoint_lmul(self, m: np.ndarray) -> "Factored":
        """``m* Delta`` for an n x n m, in O(n^2 k): m* F = conj(m^T conj(F)), without forming m*."""
        return Factored((m.T @ self.F.conj()).conj(), self.G, self.C)

    def adjoint(self) -> "Factored":
        """``Delta* = conj(G) C* F*``, in O((n + m) k): the factors conjugated and swapped, the norm kept."""
        return Factored(self.G.conj(), self.F.conj(), None if self.C is None else self.C.conj().T, self._norm)

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

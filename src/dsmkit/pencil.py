"""Port-Hamiltonian pencil model and structure-preserving eigenpair backward errors.

The pencil is L(z) = M + zN with

    M = [[0,      J - R,  B],          N = [[0,  E, 0],
         [(J-R)*, 0,      0],               [-E*, 0, 0],
         [B*,     0,      S]]               [0,   0, 0]]

where J is skew-Hermitian, R Hermitian PSD, E Hermitian, S Hermitian
positive definite.  For a purely imaginary eigenvalue candidate lambda
and a vector u = [u1; u2; u3], the backward error eta is the smallest
size of a perturbation of the selected blocks making (lambda, u) an
exact eigenpair.  Sizes follow the blockwise convention
``||[dJ dR dE dB]||_F`` (stacked selected blocks).

Two perturbation classes are supported: variant "s" keeps only the
symmetry structures (dJ skew-Hermitian, dR and dE Hermitian), variant
"sd" additionally keeps dR positive semidefinite.  Combinations without
an R perturbation make the variants coincide and "sd" delegates to "s".

Every selection solves a square block H1 and a column block H2 = dB.  One
rule splits H1: its Hermitian part Hh is -dR, and its skew part Hs (all
of H1 without R) is dJ + lam dE at least cost, dJ = Hs/d and
dE = conj(lam) Hs/d with d = [J] + [E] |lam|^2 (``_split``).
``eta_upper`` = sqrt([R] ||Hh||^2 + ||Hs||^2/d + [B] ||H2||^2) is the norm
of that perturbation, which ``reconstruct_perturbation`` builds and checks.

Evaluation keeps the rank structure.  All mapping data are vectors, so
the square block is H1 = F C F* with F of at most six columns (the
rank-one factors of the formula; projectors act as vector updates
P_x v = v - x (x+ v)) and the column block is H2 = u1 (u1+ B).  Every
vector of the formulas is a combination of eight products of the
eigenvector, V = [u1 u2 J u1 R u1 E u1 J u2 R u2 E u2], with weights
affine in lambda (ty = J u2 - R u2 + lam E u2, w1 = -(J + R + lam E) u1)
or taken from inner products of such vectors: minimal mappings are built
from the data vectors alone.  So the blocks are applied to each
eigenvector once, in O(n^2), and one Householder QR V = Q R_V, O(n 64),
gives the coordinates R_V a of every combination V a in the orthonormal
basis Q, min(n, 8) numbers with its norm and inner products.  One core,
``_solve``, runs on coordinates only and takes a stack of rows (lambda,
eigenvector): O(1) per row whatever n, a few stacked numpy calls for the
whole stack, and the norms of H1 and its parts from the small F C F* of
the coordinates (``linalg.Factored.part_norms``), without forming any
n x n matrix.  A row has the same bits in any stack (last-axis sums and
stacked LAPACK, no 2-D matrix-vector product), so ``experiment_table``
equals ``eta_sd``/``eta_s``, a stack of one that returns H1 = Q F C F* Q*
and H2 = u1 (u1+ B) as ``linalg.Factored`` blocks carrying the norms its
bounds took: O(n) per call after the block products, and O(n^2) only
when H1 or H2 is read.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    BoundsOverflowError,
    DegenerateInputError,
    DsmkitError,
    DimensionMismatchError,
    GenerationError,
    HypothesisViolationError,
    NonFiniteEntriesError,
    ReconstructionError,
    StructureError,
)
from .linalg import DenseOnRead, Factored, _ct, _norm, _semidefinite, as_complex, fro
from .linalg import _complement_map, _dot, _kept, _nonzero, _pinv_cols, _psd_factor
from .maps import StructureFamily, _in_family

__all__ = [
    "PHPencil",
    "EigenPair",
    "parse_blocks",
    "blocks_to_string",
    "VALID_BLOCK_COMBOS",
    "ETA_SD_COMBOS",
    "ETA_S_COMBOS",
    "BackwardErrorBounds",
    "PerturbationBlocks",
    "mapping_data",
    "eta_sd",
    "eta_s",
    "gen_pencil",
    "gen_eigpair",
    "experiment_table",
    "reconstruct_perturbation",
]


#: rejection margins of the eigenpair generators, not tolerances: a draw is kept only when
#: R u1 (or R u2) exceeds ``_DRAW_NONZERO`` of ||R|| ||u||, and for RB when X*Y is Hermitian to
#: ``_DRAW_NONZERO`` and -X*Y has its least eigenvalue above ``_DRAW_DEFINITE`` of ||X*Y||
_DRAW_NONZERO = 1e-8
_DRAW_DEFINITE = 5e-2


def _is_imaginary(lam: complex, cfg: ToleranceConfig) -> bool:
    """|Re(lambda)| <= residual_tol |lambda|: zero counts as imaginary."""
    return abs(lam.real) <= cfg.residual_tol * abs(lam)


def _layout(square: np.ndarray, e: np.ndarray, b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (2n+m)-square blocks M = [[0, A, B], [A*, 0, 0], [B*, 0, S]] and N = [[0, E, 0], [-E*, 0, 0], [0, 0, 0]]."""
    n, m = b.shape
    M = np.zeros((2 * n + m, 2 * n + m), dtype=complex)
    M[:n, n : 2 * n] = square
    M[n : 2 * n, :n] = square.conj().T
    M[:n, 2 * n :] = b
    M[2 * n :, :n] = b.conj().T
    M[2 * n :, 2 * n :] = s
    N = np.zeros_like(M)
    N[:n, n : 2 * n] = e
    N[n : 2 * n, :n] = -e.conj().T
    return M, N


@dataclass
class PHPencil:
    """Structured pencil blocks.  ``validate`` checks the symmetry invariants."""

    J: np.ndarray
    R: np.ndarray
    E: np.ndarray
    B: np.ndarray
    S: np.ndarray

    def __post_init__(self) -> None:
        self.J = as_complex(self.J, "J")
        self.R = as_complex(self.R, "R")
        self.E = as_complex(self.E, "E")
        self.B = as_complex(self.B, "B")
        if self.B.ndim == 1:
            self.B = self.B[:, None]
        self.S = as_complex(self.S, "S")
        n = self.J.shape[0]
        m = self.S.shape[0]
        if (
            self.J.shape != (n, n)
            or self.R.shape != (n, n)
            or self.E.shape != (n, n)
            or self.B.shape != (n, m)
            or self.S.shape != (m, m)
        ):
            raise DimensionMismatchError(
                f"block shapes inconsistent: J{self.J.shape} R{self.R.shape} "
                f"E{self.E.shape} B{self.B.shape} S{self.S.shape}"
            )

    @property
    def n(self) -> int:
        return self.J.shape[0]

    @property
    def m(self) -> int:
        return self.S.shape[0]

    def validate(self, cfg: ToleranceConfig = DEFAULT_TOL) -> dict[str, bool]:
        """Per-invariant report, scale-free: J skew-Hermitian, R PSD, E Hermitian, S PD."""
        rep = {
            "J_skew_hermitian": _in_family(StructureFamily.SKEW_HERMITIAN, self.J, cfg),
            "R_hermitian": _in_family(StructureFamily.HERMITIAN, self.R, cfg),
            "E_hermitian": _in_family(StructureFamily.HERMITIAN, self.E, cfg),
            "S_hermitian": _in_family(StructureFamily.HERMITIAN, self.S, cfg),
        }
        rep["R_psd"] = rep["R_hermitian"] and _semidefinite(self.R, fro(self.R), cfg)
        rep["S_pd"] = rep["S_hermitian"] and _semidefinite(self.S, fro(self.S), cfg, definite=True)
        return rep

    def assemble(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (M, N) of the pencil L(z) = M + zN, size (2n+m)."""
        return _layout(self.J - self.R, self.E, self.B, self.S)


@dataclass
class EigenPair:
    """Candidate eigenpair: purely imaginary lambda and u = [u1; u2; u3].

    lambda must be finite, is validated to satisfy |Re| <= residual_tol *
    |lambda| under ``cfg`` and then projected exactly onto the imaginary axis.
    """

    lam: complex
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    cfg: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, cfg: ToleranceConfig) -> None:
        lam = complex(self.lam)
        if not cmath.isfinite(lam):
            raise NonFiniteEntriesError(f"lambda must be finite, got {lam}")
        if not _is_imaginary(lam, cfg):
            raise StructureError(f"lambda must be purely imaginary, got {lam}")
        self.lam = 1j * lam.imag
        self.u1 = as_complex(self.u1, "u1").reshape(-1)
        self.u2 = as_complex(self.u2, "u2").reshape(-1)
        self.u3 = as_complex(self.u3, "u3").reshape(-1)
        if self.u1.shape != self.u2.shape:
            raise DimensionMismatchError("u1 and u2 must have equal length")
        if fro(self.u) == 0.0:
            raise DegenerateInputError("u must be nonzero")

    @property
    def u(self) -> np.ndarray:
        return np.concatenate([self.u1, self.u2, self.u3])

    def scaled(self, c: complex) -> "EigenPair":
        return EigenPair(self.lam, c * self.u1, c * self.u2, c * self.u3)


VALID_BLOCK_COMBOS = frozenset(
    frozenset(s)
    for s in ("JR", "JE", "JB", "RE", "RB", "EB", "JRE", "JRB", "REB", "JEB", "JREB")
)
ETA_SD_COMBOS = frozenset(frozenset(s) for s in ("JR", "RB", "RE", "JRE", "JRB", "REB", "JREB"))
ETA_S_COMBOS = frozenset(frozenset(s) for s in ("JB", "RB", "EB", "JEB"))
_DELEGATED = frozenset(frozenset(s) for s in ("JB", "EB", "JEB"))  # no R block: u1 in ker R
_KERNEL_B = frozenset(frozenset(s) for s in ("JR", "RE", "JRE"))  # no B block: u1 in ker B*
_EXACT_SD = frozenset(frozenset(s) for s in ("JR", "JRB", "RB"))


def parse_blocks(blocks: str | Iterable[str]) -> frozenset[str]:
    """The selection named by a string such as "JREB", in any case, or by an iterable of its letters.

    Raises ``ValueError`` unless it is one of ``VALID_BLOCK_COMBOS``.
    """
    letters = frozenset(str(b).upper() for b in blocks)
    if letters not in VALID_BLOCK_COMBOS:
        valid = ", ".join(sorted(blocks_to_string(b) for b in VALID_BLOCK_COMBOS))
        shown = blocks if isinstance(blocks, str) else "".join(sorted(letters))
        raise ValueError(f"invalid block selection {shown!r}; valid: {valid}")
    return letters


def blocks_to_string(blocks: frozenset[str]) -> str:
    return "".join(b for b in "JREB" if b in blocks)


@dataclass
class BackwardErrorBounds:
    """Bounds on eta; the blocks H1, H2 are held as ``Factored`` and formed on first read."""

    finite: bool
    eta_lower: float
    eta_upper: float
    H1: np.ndarray | None = DenseOnRead()
    H2: np.ndarray | None = DenseOnRead()
    alpha: complex | None = None
    conditions_report: dict[str, bool] = field(default_factory=dict)
    exact: bool = False
    variant: str = "sd"
    blocks: frozenset[str] = frozenset()
    lam: complex = 0j
    warnings: list[str] = field(default_factory=list)


@dataclass
class PerturbationBlocks:
    dJ: np.ndarray
    dR: np.ndarray
    dE: np.ndarray
    dB: np.ndarray

    def norm(self) -> float:
        return math.sqrt(
            fro(self.dJ) ** 2 + fro(self.dR) ** 2 + fro(self.dE) ** 2 + fro(self.dB) ** 2
        )

    def delta_mn(self, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Assemble (dM, dN) in the pencil's block layout."""
        return _layout(self.dJ - self.dR, self.dE, self.dB, np.zeros((m, m), dtype=complex))


def mapping_data(P: PHPencil, ep: EigenPair):
    """Reduce the eigenpair equation to two-sided mapping data (x, y, z, w).

    x = [u2; u3], y = (J - R + lam E) u2 + B u3, z = u1,
    w = [-(J + R + lam E) u1;  B* u1 + S u3].
    """
    if ep.u1.shape[0] != P.n or ep.u3.shape[0] != P.m:
        raise DimensionMismatchError(
            f"eigenpair dims ({ep.u1.shape[0]}, {ep.u3.shape[0]}) do not match pencil ({P.n}, {P.m})"
        )
    lam = ep.lam
    x = np.concatenate([ep.u2, ep.u3])
    y = (P.J - P.R + lam * P.E) @ ep.u2 + P.B @ ep.u3
    z = ep.u1.copy()
    w = np.concatenate([-(P.J + P.R + lam * P.E) @ ep.u1, P.B.conj().T @ ep.u1 + P.S @ ep.u3])
    return x, y, z, w


#: the eight vectors of an eigenvector that eta reads, in the order of ``_Products.vecs``
_VECTORS = ("u1", "u2", "Ju1", "Ru1", "Eu1", "Ju2", "Ru2", "Eu2")


@dataclass
class _Products:
    """The pencil's blocks applied to a stack of eigenvectors, a row each: all that eta needs of u.

    ``vecs`` holds the eight n-vectors of ``_VECTORS`` of each eigenvector, in that order, and
    ``coords`` their coordinates: one Householder QR V = Q R_V of V = [u1 u2 J u1 R u1 E u1 J u2 R u2 E u2]
    (n x 8) gives Q with orthonormal columns, so a combination V a has the norm and inner products of its
    coordinates R_V a, k = min(n, 8) numbers; ``coords[:, j]`` is column j of R_V and ``norms[:, j]`` its
    norm.  Every vector of eta is such a combination, so the core (``_solve``) reads coordinates only.  Every
    field but the block norms has a row per eigenvector.  u is scaled by a power of two to a norm in
    [0.5, 1).  That is exact in floating point and changes no result, because H1 and H2 are homogeneous of
    degree zero in u, and it keeps every inner product of two vectors far from overflow and underflow.
    Nothing here depends on lambda, so a sweep with a fixed eigenvector computes it once.
    """

    vecs: np.ndarray  # (rows, 8, n)
    coords: np.ndarray  # (rows, 8, k)
    norms: np.ndarray  # (rows, 8): ||u1||, ..., ||E u2|| from the coordinates
    basis: np.ndarray | None  # Q, (rows, n, k), when asked for: a caller that forms H1 in C^n
    Bu1: np.ndarray  # B* u1
    u3_zero: np.ndarray
    alpha: np.ndarray  # u2 ~ alpha u1, and whether it holds with alpha != 0
    colinear: np.ndarray
    nJ: float
    nR: float
    nE: float
    nB: float


def _block_norms(P: PHPencil, blocks=None) -> tuple[float, float, float, float]:
    """||J||, ||R||, ||E||, ||B||: what the predicates of eta take as the data's scale, for the selection ``blocks``.

    Every selection reads ||R||, only RB ||J|| and ||E|| (isotropy) and only JR, RE, JRE ||B|| (ker B*): a norm
    no predicate of ``blocks`` reads is not taken, and is nan.  ``blocks=None`` takes all four."""
    rb, kb = blocks in (None, frozenset("RB")), blocks is None or blocks in _KERNEL_B
    return fro(P.J) if rb else math.nan, fro(P.R), fro(P.E) if rb else math.nan, fro(P.B) if kb else math.nan


def _products(P: PHPencil, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray, cfg: ToleranceConfig,
              norms=None, basis: bool = False) -> _Products:
    """The products of the eigenvectors [u1; u2; u3], one per row; ``norms`` (``_block_norms``) saves four n^2 passes.

    Each block is applied as M @ U[..., None], one matrix-vector product per row, and the QR of V is one
    stacked LAPACK call, so a row has the bits of its stack of one; 2-D products of n x 2 would change their
    last bits with the width.  ``basis`` asks for Q too: the same factorization, so R has the same bits."""
    if u1.shape[-1] != P.n or u3.shape[-1] != P.m:
        raise DimensionMismatchError(
            f"eigenpair dims ({u1.shape[-1]}, {u3.shape[-1]}) do not match pencil ({P.n}, {P.m})"
        )
    n3, unorm = _norm(u3), _norm(np.concatenate([u1, u2, u3], axis=-1))
    s = np.ldexp(1.0, -np.frexp(unorm)[1])[:, None]
    vecs = np.empty((len(u1), 8, P.n), dtype=complex)
    vecs[:, 0], vecs[:, 1] = s * u1, s * u2
    for j, M in ((2, P.J), (3, P.R), (4, P.E)):
        vecs[:, j :: 3] = (M @ vecs[:, :2, :, None])[..., 0]  # M u1 and M u2
    V = vecs.swapaxes(1, 2)
    q, r = np.linalg.qr(V) if basis else (None, np.linalg.qr(V, mode="r"))
    coords = np.ascontiguousarray(r.swapaxes(1, 2))
    cu1, cu2, nrm = coords[:, 0], coords[:, 1], _norm(coords)
    d = _dot(cu1, cu1)  # alpha by least squares, as ``linalg._colinear_coeff``: zero for u1 = 0
    alpha = _dot(cu1, cu2) / _nonzero(d)
    colinear = (d != 0) & (alpha != 0) & (_norm(cu2 - alpha[:, None] * cu1) <= cfg.residual_tol * nrm[:, 1])
    Bu1 = (P.B.conj().T @ vecs[:, 0, :, None])[..., 0]
    return _Products(vecs, coords, nrm, q, Bu1, n3 <= cfg.residual_tol * unorm, alpha, colinear,
                     *(norms or _block_norms(P)))


def _select(vs: list[_Products], rows) -> _Products:
    """The ``rows`` of several stacks of products laid end to end, as one stack."""
    fields = zip(*(vars(v).values() for v in vs))
    return _Products(*(np.concatenate(f)[rows] if np.ndim(f[0]) else f[0] for f in fields))


def _per_row(c, rows: int) -> list:
    """``c`` (one value, or one per eigenvector or row of a stack) as a list of one entry per row."""
    c = np.asarray(c).ravel().tolist()
    return c * rows if len(c) == 1 else c


def _anti_dissipative_h1(u1, u2, n1, n2, alpha, ty, w1, report: dict, warnings: list):
    """Factors (F, C), H1 = F C F*, of the square-block minimizer for the semidefinite variant.

    H1 = ty u2+ + (u1+)* (P_u2 w1)* + P_u2 g (P_u2 g)* / (4 Re(u2* ty)) with
    the Gram vector g = ty + (alpha/|alpha|^2) w1, where
    P_u2 w = w - u2 (u2+ w) never forms the projector: F stacks the at
    most three left and three right rank-one factors and C = [[0, I], [0, 0]].
    The Gram term needs R u2 != 0 (otherwise the denominator vanishes); in
    that boundary case it is dropped, which keeps interpolation and
    dissipativity but no longer certifies minimality.  The rows share one
    eigenvector; a row with Re(u2* ty) >= 0 gets zero Gram columns.  Every
    vector is given, and F returned, in the coordinates of ``_Products``.
    """
    u2h = u2 / _nonzero(n2)[:, None]

    def proj(w):
        return w - u2h * _dot(u2h, w)[:, None]

    left, right = [ty, _pinv_cols(u1, n1)], [_pinv_cols(u2, n2), proj(w1)]
    rexy = _dot(u2, ty).real[:, None]
    if (report["R_u2_nonzero"] & report["u2_colinear_u1"]).all():
        g = proj(ty + (alpha / abs(alpha) ** 2)[:, None] * w1) * (rexy < 0)
        left.append(g)
        right.append(g / (4.0 * np.where(rexy < 0, rexy, 1.0)))
    elif not report["R_u2_nonzero"].all():
        warnings.append("R u2 = 0: Gram term dropped, minimality not certified")
    F = np.empty(ty.shape + (2 * len(left),), dtype=complex)
    for j, col in enumerate(left + right):
        F[..., j] = col
    return F, np.eye(2 * len(left), k=len(left), dtype=complex)[None]  # one core for every row


def _weight(blocks: frozenset[str], lam):
    """d = [J] + [E] |lam|^2, elementwise for an array of lambda: the split rule (``_split``) costs ||Hs||^2/d."""
    return float("J" in blocks) + float("E" in blocks) * np.abs(lam) ** 2


def _split(blocks: frozenset[str], lam) -> tuple:
    """(cJ, cE, d = ``_weight``): dJ = cJ Hs, dE = cE Hs is dJ + lam dE = Hs at least cost ||Hs||^2/d.

    d = 0 (neither J nor E) gives zero weights."""
    d = _weight(blocks, lam)
    w = np.where(d > 0, d, np.inf)
    return float("J" in blocks) / w, float("E" in blocks) * np.conj(lam) / w, d


def _bounds(blocks: frozenset[str], variant: str, lams, h1n, hhn, hsn, h2n) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bounds from the norms of H1, its parts and H2: one rule for every selection and row.

    upper^2 = [R] ||Hh||^2 + ||Hs||^2/d + ||H2||^2 (all of H1 is Hs without R; d = 0 weighs Hs
    by 1) and, for "sd", lower^2 = ||H1||^2 / max(1, d) + ||H2||^2; "s" is exact.
    """
    hh2, hs2 = (hhn**2, hsn**2) if "R" in blocks else (0.0, h1n**2)
    d = _weight(blocks, lams)
    up = np.sqrt(hh2 + hs2 / _nonzero(d) + h2n**2)
    if variant == "s":
        return up, up
    return np.sqrt((hh2 + hs2) / np.maximum(1.0, d) + h2n**2), up


_NOT_NEGATIVE_DEFINITE = "X*Y must be Hermitian negative definite for the RB formula"
_OVERFLOW = "backward-error bounds overflow the floating-point range (|lambda| = {:.3g})"


#: the core's results for a stack of rows (``_solve``), a list each but F, C and norm: ``side``, the names
#: of the side conditions, all that an infinite row reports; ``report``, every verdict by name; ``finite``,
#: the side conditions hold; ``failed``, None or the ``DsmkitError`` of a finite row that has no bounds (an
#: RB "sd" row whose X*Y is not negative definite, or bounds that overflow: checked first, since an
#: overflow can also fail the X*Y test); the bounds (of a finite row), ``exact``, ``alpha`` and
#: ``warnings``; and H1 = Q F C F* Q* for the basis Q of the coordinates (C[0] for every row when C holds
#: one core), with ``norm`` = ||H1|| as the bounds took it
_Rows = namedtuple("_Rows", "side report finite failed lower upper exact alpha warnings F C norm")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is a verdict or bound of inf or nan, tested below
def _solve(blocks: frozenset[str], variant: str, lams: np.ndarray, v: _Products, cfg: ToleranceConfig) -> _Rows:
    """Bounds, verdicts and the factors of H1 for a stack of rows, each one eigenvector at one lambda.

    ``lams`` holds the B imaginary lambda; ``v`` holds the products (``_products``) of one eigenvector, which
    every row shares, or of B, one per row.  Every vector the formulas use is a combination of the eight of
    ``_VECTORS``, ty = J u2 - R u2 + lam E u2 and w1 = -(J u1 + R u1 + lam E u1) affine in lambda, so the core
    runs on their coordinates (``_Products``), k = min(n, 8) numbers per vector: the SVD of the k x 2
    coordinates of X = [u2 u1], and the norms of H1 and its parts from the k x k F C F*
    (``Factored.part_norms``), all stacked (see ``linalg._norm``).  A row costs O(1) whatever n: all O(n)
    work is the products, once per eigenvector.  H1 = Q F C F* Q* for the basis Q of the coordinates, F of
    at most six columns, with one width in every row: a factor a row lacks (a rank-one X, no Gram term) is a
    zero column.  ``variant`` is "s" for the symmetry-only formulas (also for the selections that eta_sd
    delegates) and "sd" otherwise.
    """
    tol, rows = cfg.residual_tol, len(lams)
    cu1, cu2, cJu1, cRu1, cEu1, cJu2, cRu2, cEu2 = v.coords.swapaxes(0, 1)
    n1, n2, _, nRu1, _, _, nRu2, _ = v.norms.T
    rb = blocks == frozenset("RB")
    report: dict = {"u3_zero": v.u3_zero}
    if rb:
        iso = _dot(cu1, cJu1) + lams * _dot(cu1, cEu1)
        report["u1_isotropic"] = abs(iso) <= tol * (v.nJ + abs(lams) * v.nE) * n1**2
        if variant == "sd":
            report["R_u1_nonzero"] = nRu1 > tol * v.nR * n1
    elif variant == "s":
        report["R_u1_zero"] = nRu1 <= tol * v.nR * n1
    elif blocks in _KERNEL_B:
        report["B_adj_u1_zero"] = _norm(v.Bu1) <= tol * v.nB * n1
    side = list(report)  # an infinite row reports these verdicts only
    ty = cJu2 - cRu2 + lams[:, None] * cEu2
    w1 = -(cJu1 + cRu1 + lams[:, None] * cEu1)
    h2n = _norm(v.Bu1) / _nonzero(n1) if "B" in blocks else 0.0
    warnings: list[str] = []
    alpha, refused = _per_row(v.alpha, rows), np.zeros(rows, dtype=bool)

    if variant == "s" or rb:
        X = np.stack([cu2, cu1], axis=-1)
        Y = np.stack([ty, w1 if rb else -w1], axis=-1)
        # the thin SVD of X by svd_range's rank rule; a dropped direction is a zero column, not cut
        u, s, vh = np.linalg.svd(X, full_matrices=False)
        keep = _kept(s, cfg)[..., None, :]
        U, V = u * keep, _ct(vh) * keep
        YV = Y @ V
        G = YV / np.where(keep, s[..., None, :], 1.0)  # Y X+ = G U*
        report["interp_YXdX"] = _norm(Y - YV @ _ct(V), 2) <= tol * _norm(Y, 2)
        xy = _ct(X) @ Y
    if variant == "s":
        # H1 = Y X+ +- (Y X+)* - X X+ Y X+ = [U G] [[-U*G, +-I], [I, 0]] [U G]*
        sign = 1.0 if rb else -1.0
        report["cross_gram"] = _norm(xy - sign * _ct(xy), 2) <= tol * _norm(xy, 2)
        report["u2_colinear_u1"] = v.colinear
        F = np.concatenate([np.broadcast_to(U, G.shape), G], axis=-1)
        r = G.shape[-1]  # min(n, 2)
        C = np.zeros((rows, 2 * r, 2 * r), dtype=complex)
        C[:, :r, :r], C[:, :r, r:], C[:, r:, :r] = -(_ct(U) @ G), sign * np.eye(r), np.eye(r)
        exact = report["interp_YXdX"] & report["cross_gram"]
    elif rb:
        nxy = _norm(xy, 2)
        negdef = (_norm(xy - _ct(xy), 2) <= tol * nxy) & (
            np.linalg.eigvalsh(-(xy + _ct(xy)) / 2.0)[:, 0] > cfg.psd_tol * nxy)
        report["XY_negative_definite"] = negdef
        refused = ~negdef
        # H1 = Y (Y*X)^-1 Y*; a refused row inverts I instead, so that no row stops the stack
        F, C = Y, np.linalg.inv(np.where(negdef[:, None, None], _ct(xy), np.eye(2)))
        exact, alpha = report["interp_YXdX"], [None] * rows
    else:
        report["u2_colinear_u1"] = v.colinear
        report["R_u2_nonzero"] = nRu2 > tol * v.nR * n2
        if ((abs(abs(v.alpha) - 1.0) > tol) & v.colinear).any():  # |alpha| against 1
            warnings.append("colinearity factor is not unit-modulus; the Gram-vector weighting "
                            "is only certified for |alpha| = 1")
        F, C = _anti_dissipative_h1(cu1, cu2, n1, n2, v.alpha, ty, w1, report, warnings)
        exact = blocks in _EXACT_SD and report["u2_colinear_u1"] & report["R_u2_nonzero"]

    finite = np.ones(rows, dtype=bool)
    for name in side:
        finite &= report[name]
    norms = Factored.part_norms(F, C)
    lo, up = _bounds(blocks, variant, lams, *norms, h2n)
    # |lam|^2 or a sum of squares beyond the range: a refused row has no bounds, and its verdict rests on ||X*Y||
    bounded = np.isfinite(lo) & np.isfinite(up)
    overflow = finite & ~(np.where(refused, np.isfinite(nxy), bounded) if rb and variant == "sd" else bounded)
    failed = [None] * rows
    if overflow.any() or (refused & finite).any():
        failed = [BoundsOverflowError(_OVERFLOW.format(abs(lam))) if o
                  else HypothesisViolationError(_NOT_NEGATIVE_DEFINITE) if r and f else None
                  for lam, o, r, f in zip(lams, overflow, refused, finite)]
    report = {name: _per_row(c, rows) for name, c in report.items()}
    return _Rows(side, report, finite.tolist(), failed, lo.tolist(), up.tolist(), _per_row(exact, rows), alpha,
                 warnings, F, C, norms[0])


def _formula_variant(blocks: frozenset[str], variant: str) -> str:
    """The formulas a selection uses: eta_sd delegates the selections without R to eta_s."""
    if variant == "sd" and blocks in _DELEGATED:
        return "s"
    if blocks not in (ETA_SD_COMBOS if variant == "sd" else ETA_S_COMBOS):
        raise ValueError(f"eta_{variant}({blocks_to_string(blocks)}) is classical prior work; not implemented")
    return variant


def _eta(P: PHPencil, ep: EigenPair, blocks, variant: str, cfg: ToleranceConfig) -> BackwardErrorBounds:
    """eta_s/eta_sd: the core on a stack of one row, with H1 and H2 as factors (O(n^2) only when read).

    H1's left factor is Q F (n x 6), for the basis Q of the coordinates."""
    blocks = parse_blocks(blocks)
    formulas = _formula_variant(blocks, variant)
    if ep.lam == 0:
        raise DegenerateInputError("lambda must be nonzero imaginary")
    v = _products(P, ep.u1[None], ep.u2[None], ep.u3[None], cfg, _block_norms(P, blocks), basis=True)
    out = _solve(blocks, formulas, np.array([ep.lam]), v, cfg)
    if out.failed[0] is not None:
        raise out.failed[0]
    report = {name: c[0] for name, c in out.report.items() if out.finite[0] or name in out.side}
    if not out.finite[0]:
        return BackwardErrorBounds(False, math.inf, math.inf, conditions_report=report, variant=variant, blocks=blocks,
                                   lam=ep.lam)
    f = v.basis[0] @ out.F[0]
    return BackwardErrorBounds(
        True, out.lower[0], out.upper[0], Factored(f, f.conj(), out.C[0], norm=float(out.norm[0])),  # bounds' norm
        Factored(_pinv_cols(v.vecs[:, 0], v.norms[:, 0]).T * float("B" in blocks), v.Bu1.conj().T),  # u1 u1+ B
        out.alpha[0], report, out.exact[0], variant, blocks, ep.lam, out.warnings)


def eta_sd(
    P: PHPencil,
    ep: EigenPair,
    blocks,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> BackwardErrorBounds:
    """Semidefinite-structure-preserving eigenpair backward error bounds.

    Supported selections: JR, RB, RE, JRE, JRB, REB, JREB (plus JB, EB,
    JEB, which carry no semidefinite block and delegate to ``eta_s``).
    Finiteness conditions by selection:

      JREB, JRB, REB   u3 = 0
      JR, RE, JRE      u3 = 0 and B* u1 = 0
      RB               u3 = 0, u1*(J + lam E) u1 = 0, R u1 != 0

    ``eta_upper`` is the norm of the perturbation of the module's one split
    rule, and ``eta_lower`` = sqrt(||H1||^2 / max(1, d) + [B] ||H2||^2).
    Exact selections (lower = upper): JR, JRB, RB.  The others return a
    bracket.  Infinite cases come back with ``finite=False`` and +inf
    sentinels rather than raising, so sweeps never abort.
    """
    return _eta(P, ep, blocks, "sd", cfg)


def eta_s(
    P: PHPencil,
    ep: EigenPair,
    blocks,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> BackwardErrorBounds:
    """Symmetry-structure-preserving eigenpair backward error.

    Supported selections: JB, RB, EB, JEB (the remaining combinations
    are classical results outside this package).  All four are exact
    formulas built from a two-column structured interpolation with
    X = [u2 u1] and Y = [ty -w1] (JB, EB, JEB; skew-Hermitian square
    block) or Y = [ty w1] (RB; Hermitian square block).
    """
    return _eta(P, ep, blocks, "s", cfg)


# ---------------------------------------------------------------------------
# random instances


def _crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """re + 1j im for Gaussian re, then im, filled in place: the bits of the sum, with no temporaries."""
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = rng.standard_normal(shape), rng.standard_normal(shape)
    return out


def gen_pencil(
    n: int,
    m: int,
    seed: int,
    r_rank: int | None = None,
    b_rank: int | None = None,
) -> PHPencil:
    """Deterministic random structured pencil (NumPy PCG64 stream of ``seed``).

    J = A - A*, E = C + C*, R = G G* (rank controlled by ``r_rank``),
    S = F F* + I, B dense (rank controlled by ``b_rank``).  The same
    seed always yields the bit-identical pencil.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    rng = np.random.default_rng(seed)
    a = _crandn(rng, n, n)
    c = _crandn(rng, n, n)
    g = _crandn(rng, n, r_rank if r_rank is not None else n)
    f = _crandn(rng, m, m)
    b = _crandn(rng, n, m)
    if b_rank is not None and b_rank < min(n, m):
        b = _crandn(rng, n, b_rank) @ _crandn(rng, b_rank, m)
    return PHPencil(
        J=a - a.conj().T,
        R=g @ g.conj().T,
        E=c + c.conj().T,
        B=b,
        S=f @ f.conj().T + np.eye(m),
    )


def _random_lam(rng: np.random.Generator) -> complex:
    """lambda of uniformly drawn modulus in [0.3, 2.0] on a random half of the imaginary axis."""
    return 1j * rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])


#: a table's rows go through the core in stacks of ``_CORE_ROWS``: the core's numpy calls serve a stack
#: together, at a few microseconds each whatever its rows, and it holds about 5 kB per row whatever n
#: (coordinates, and the 8 x 8 F C F* of ``Factored.part_norms``), so about 256 kB a stack.  RB rows also
#: go through the generator in stacks of at most ``_STACK_BYTES``, at about ``_ROW_BYTES`` per row and unit
#: of n: some 24 complex n-vectors (the eight products and the QR's copy of them, or in a probe pass G, h G
#: and one product of ``_PROBE_BLOCK`` columns)
_CORE_ROWS = 50
_STACK_BYTES = 4 << 20
_ROW_BYTES = 24 * 16
_PROBE_BLOCK = 8  # Gaussian probes drawn and applied to h together, as one matrix product
_PROBES = 32  # probes at one lambda before the eigh fallback
_MAX_TRIES = 500


def _probe(P: PHPencil, lams: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h G, q = g* h g) for probe blocks G (rows, n, probes), h = (J + lam E)/i at each row's lambda.

    Each row is a slice of (n, n) @ (rows, n, probes) products, with the bits of its block alone."""
    HG = P.E @ G
    HG *= lams[:, None, None]
    HG += P.J @ G
    HG *= -1j  # the bits of division by 1j
    return HG, np.einsum("kij,kij->kj", G.conj(), HG).real


def _isotropic_vector(h: np.ndarray, eigs: np.ndarray, vecs: np.ndarray, rng: np.random.Generator,
                      cfg: ToleranceConfig) -> np.ndarray | None:
    """Random u with u* h u = 0 for Hermitian h = vecs diag(eigs) vecs*, mixing +/- eigenspaces.

    Eigenvalues within ``rank_tol`` of ||h||_2 count as zero.
    """
    floor = cfg.rank_tol * np.abs(eigs).max()
    pos, neg = eigs > floor, eigs < -floor
    if not (pos.any() and neg.any()):
        return None
    vp = vecs[:, pos] @ _crandn(rng, int(pos.sum()))
    vn = vecs[:, neg] @ _crandn(rng, int(neg.sum()))
    qp = np.vdot(vp, h @ vp).real
    qn = np.vdot(vn, h @ vn).real
    return vp * math.sqrt(-qn / qp) + vn


def _gen_rb(P: PHPencil, rngs: list, lams: list, cfg: ToleranceConfig, max_tries: int,
            norms) -> tuple[list, _Products | None]:
    """RB eigenpairs and their products for a stack of rows: row i draws from ``rngs[i]`` at ``lams[i]`` (None: random).

    u1 and u2 are isotropic for h = (J + lam E)/i, each a + t b from Gaussian probes with q(a) > 0 > q(b),
    q(g) = g* h g: the probes come in blocks of ``_PROBE_BLOCK`` until q has taken each sign twice, and
    q(a + t b) = q(b) t^2 + 2 Re(a* h b) t + q(a) has roots of opposite signs, one of them picked at
    random.  A row whose ``_PROBES`` probes give fewer than two of one sign (h semidefinite, or its
    inertia too lopsided) takes one ``eigh`` of h (``_isotropic_vector``), which its later tries at a
    fixed lambda share.  A draw is kept when it is isotropic to ``residual_tol`` (|u* h u| against
    ||h u|| ||u||), R u1 != 0, and X*Y, with X = [u2 u1] and Y = [ty w1], is Hermitian and negative
    definite with margin: the formula inverts X*Y, and near-singular instances have near-infinite errors.

    The rows advance in lockstep rounds of one try each, and each phase of a round is one stacked pass
    over the pending rows: each probe block (``_probe``), the products that eta takes (``_products``)
    and the tests.  Row i consumes ``rngs[i]`` as it would alone (its lambda, probe blocks until both
    signs are found, one ``random()`` per pair), and has the bits it has in a stack of one.  Returns
    ``(out, v)``: ``out[i]`` is (lambda, u1, u2) or row i's ``GenerationError``; v stacks the products
    of the drawn rows in row order.
    """
    n, tol, out = P.n, cfg.residual_tol, [None] * len(rngs)
    spectra = [None] * len(rngs)  # spectra[i]: (h, eigs, vecs) once probing has failed at a fixed lambda
    chunks, drawn, seen, pending = [], {}, 0, list(range(len(rngs)))  # drawn[i]: row i's row in the chunks
    for _ in range(max_tries):  # lockstep rounds: every pending row makes its next try
        lam_t = {i: lams[i] if lams[i] is not None else _random_lam(rngs[i]) for i in pending}
        lt = {i: 1j * complex(lam_t[i]).imag for i in pending}
        probing = [i for i in pending if spectra[i] is None]
        signs = {i: ([], []) for i in probing}  # the first two probes with q > 0, and with q < 0: (g, h g, q)
        for _ in range(_PROBES // _PROBE_BLOCK):
            if not probing:
                break
            G = np.stack([_crandn(rngs[i], n, _PROBE_BLOCK) for i in probing])
            HG, q = _probe(P, np.array([lt[i] for i in probing]), G)
            for r, i in enumerate(probing):
                for j, qj in enumerate(q[r].tolist()):
                    side = signs[i][qj < 0.0]
                    if qj and len(side) < 2:
                        side.append((G[r, :, j], HG[r, :, j], qj))
            probing = [i for i in probing if min(map(len, signs[i])) < 2]
        pairs = {}
        for i in pending:
            if i in signs and i not in probing:
                pairs[i] = []
                for (a, _, qa), (b, hb, qb) in zip(*signs[i]):
                    beta = np.vdot(a, hb).real
                    # the root of larger modulus, free of cancellation; the other is q(a) / (q(b) t)
                    big = -(beta + math.copysign(math.hypot(beta, math.sqrt(qa) * math.sqrt(-qb)), beta)) / qb
                    pairs[i].append(a + (big if rngs[i].random() < 0.5 else qa / (qb * big)) * b)
                continue
            if spectra[i] is None:
                h = (P.J + lt[i] * P.E) / 1j
                spectra[i] = (h, *np.linalg.eigh(h))
            pair = [_isotropic_vector(*spectra[i], rngs[i], cfg) for _ in range(2)]
            if lams[i] is None:
                spectra[i] = None  # the next try draws another lambda
            if pair[0] is not None:
                pairs[i] = pair
            elif lams[i] is not None:  # a random lambda tries another
                out[i] = GenerationError("(J + lam E)/i is semidefinite; no isotropic vectors exist")
        if pairs:
            live = list(pairs)
            u1, u2 = (np.array([pairs[i][j] for i in live]) for j in (0, 1))
            v = _products(P, u1, u2, np.zeros((len(live), P.m), dtype=complex), cfg, norms)
            lt_live = np.array([lt[i] for i in live])[:, None]
            cu1, cu2, cJu1, cRu1, cEu1, cJu2, cRu2, cEu2 = v.coords.swapaxes(0, 1)  # the tests read coordinates
            U, HU = np.stack([cu1, cu2]), np.stack([cJu1 + lt_live * cEu1, cJu2 + lt_live * cEu2])  # i h u
            xy = _ct(np.stack([cu2, cu1], axis=-1)) @ np.stack([HU[1] - cRu2, -(HU[0] + cRu1)], axis=-1)
            nxy = _norm(xy, 2)
            ok = ((abs(_dot(U, HU)) <= tol * _norm(HU) * _norm(U)).all(0)
                  & (_norm(cRu1) > _DRAW_NONZERO * v.nR * _norm(cu1))
                  & (_norm(xy - _ct(xy), 2) <= _DRAW_NONZERO * nxy)
                  & (np.linalg.eigvalsh(-(xy + _ct(xy)) / 2.0)[:, 0] > _DRAW_DEFINITE * nxy))
            for r in np.flatnonzero(ok):
                out[live[r]], drawn[live[r]] = (lam_t[live[r]], u1[r], u2[r]), seen + r
            chunks.append(v)
            seen += len(live)
        pending = [i for i in pending if out[i] is None]
        if not pending:
            break
    for i in pending:
        out[i] = GenerationError(f"no admissible eigenpair found in {max_tries} tries")
    return out, _select(chunks, [drawn[i] for i in sorted(drawn)]) if chunks else None


def gen_eigpair(
    P: PHPencil,
    seed: int,
    admissible_for,
    cfg: ToleranceConfig = DEFAULT_TOL,
    max_tries: int = _MAX_TRIES,
    lam: complex | None = None,
) -> EigenPair:
    """Random eigenpair candidate satisfying the side conditions of a selection.

    lambda gets a uniformly drawn modulus in [0.3, 2.0] with random sign
    (or the caller's ``lam``).  u3 = 0 always.  u2 = alpha u1 with a
    unit-modulus random phase alpha, except for the RB selection, where u1
    and u2 are drawn independently in the isotropic set of (J + lam E)/i,
    each from two Gaussian probes of opposite sign in O(n^2) with no
    decomposition, and the definiteness condition is enforced by rejection:
    the draw is a stack of one of the table's generator (``_gen_rb``), so it
    equals the row its seed gives in any table.  A lambda where probing
    finds one sign only takes one ``eigh`` of (J + lam E)/i instead; a
    semidefinite one raises ``GenerationError`` when ``lam`` is fixed.  For
    ker B* (JR, RE, JRE) and ker R (JB, EB, JEB), u1 = g - Q (Q* g) for a
    Gaussian g in C^n and an orthonormal basis Q of range(B) or of range(R):
    a standard Gaussian on the kernel.  One map per call, so once per table
    (``linalg._complement_map``), takes B itself, or the n x r pivoted
    Cholesky factor of R (``linalg._psd_factor``), scaled by a power of two
    to unit norm, and forms its Gram matrix in O(n m^2) or O(n r^2).  One
    Cholesky of the Gram matrix less a small multiple of its trace
    certifies full column rank, and each try then removes g's part in the
    range by the seminormal equations with one refinement step, with no Q
    formed: two m x m or r x r solves and four products in O(n m) or
    O(n r).  Where the certificate fails (a rank-deficient or
    ill-conditioned B or factor), Q is formed: ``svd_range`` of B, or one
    reduced QR of the factor.  A trivial kernel raises ``GenerationError``,
    as do ``max_tries`` rejected draws.
    """
    blocks = parse_blocks(admissible_for)
    rng = np.random.default_rng(seed)
    if blocks == frozenset("RB"):
        (drawn,), _ = _gen_rb(P, [rng], [lam], cfg, max_tries, _block_norms(P, blocks))
        if isinstance(drawn, DsmkitError):
            raise drawn
        return EigenPair(*drawn, np.zeros(P.m, dtype=complex), cfg)
    n = P.n
    u3 = np.zeros(P.m, dtype=complex)

    kernel_B = blocks in _KERNEL_B
    kernel_R = blocks in _DELEGATED
    needs_Ru2 = "R" in blocks  # RB has returned above

    project = None  # g -> g - Q Q* g, Q an orthonormal basis of range(B) or range(R); None: u1 = g
    if kernel_B:
        r, project = _complement_map(P.B, cfg)
        if r == n:
            raise GenerationError("B* has trivial kernel; the selection's side condition is unsatisfiable")
    if kernel_R:
        r, project = _complement_map(_psd_factor(P.R, cfg))
        if r == n:
            raise GenerationError("R is nonsingular; ker(R) is trivial for this selection")
    nR = fro(P.R) if needs_Ru2 else 0.0

    for attempt in range(max_tries):
        lam_t = lam if lam is not None else _random_lam(rng)
        g = _crandn(rng, n)
        u1 = g if project is None else project(g)
        if fro(u1) <= cfg.residual_tol * fro(g):
            continue
        alpha = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        u2 = alpha * u1
        if needs_Ru2 and fro(P.R @ u2) <= _DRAW_NONZERO * nR * fro(u2):
            continue
        return EigenPair(lam_t, u1, u2, u3, cfg)
    raise GenerationError(f"no admissible eigenpair found in {max_tries} tries")


def experiment_table(
    P: PHPencil,
    lambdas,
    ep_seed: int,
    blocks,
    cfg: ToleranceConfig = DEFAULT_TOL,
    variant: str = "sd",
) -> list[dict]:
    """Backward-error bounds over a sweep of imaginary lambda values.

    Keeps one eigenvector fixed across the sweep when the selection's side
    conditions do not depend on lambda; it is drawn once, at the first
    admissible lambda, and a failed draw is the error of every such row.
    Its products and their coordinates (``_products``) are taken once, in
    O(n^2), and each row then costs O(1) in the core (``_solve``).  The RB
    selection draws a new one per row, the one ``gen_eigpair`` draws with
    seed ``ep_seed + i``, in O(n^2) with no decomposition: the rows of a
    stack are drawn together (``_gen_rb``), each phase one stacked pass,
    and ``_solve`` reuses the products the generator has formed.  The block
    norms are taken once per table.  The rows go through the core in stacks
    of ``_CORE_ROWS``, and RB rows through the generator in stacks of at
    most ``_STACK_BYTES``; the core's results are kept as columns and made
    rows at the end, so the table's peak memory is its output's and one
    stack's.  The rows equal ``eta_sd``/``eta_s`` on the same eigenpair bit
    for bit.  Row-level failures (lambda = 0 or not finite, infinite eta,
    generation failure or any other ``DsmkitError``) are recorded in the
    row, never raised; an unsupported selection or variant raises
    ``ValueError`` first.
    """
    blocks = parse_blocks(blocks)
    if variant not in ("s", "sd"):
        raise ValueError(f"variant must be 's' or 'sd', got {variant!r}")
    formulas = _formula_variant(blocks, variant)
    norms, rb = _block_norms(P, blocks), blocks == frozenset("RB")
    lams = [complex(lam) for lam in lambdas]
    errors = ["lambda must be finite" if not cmath.isfinite(lam) else "" if lam != 0 and _is_imaginary(lam, cfg)
              else "lambda must be nonzero purely imaginary" for lam in lams]
    v = None
    if not rb and "" in errors:
        try:
            ep = gen_eigpair(P, ep_seed, blocks, cfg, lam=lams[errors.index("")])
            v = _products(P, ep.u1[None], ep.u2[None], ep.u3[None], cfg, norms)
            v.vecs = ep = None  # the table keeps the coordinates only
        except DsmkitError as exc:  # one draw: its failure is every row's
            errors = [error or str(exc) for error in errors]
    # the core's results, a list each, made rows at the end: the table holds one stack of the core at a time
    finite, lower, upper, conditions = ([value] * len(lams) for value in (False, math.inf, math.inf, ""))
    texts = {}  # one conditions string per distinct set of verdicts
    step = min(_CORE_ROWS, _STACK_BYTES // (_ROW_BYTES * P.n) or 1) if rb else _CORE_ROWS
    for start in range(0, len(lams), step):
        live = [i for i in range(start, min(start + step, len(lams))) if not errors[i]]
        if rb and live:
            drawn, v = _gen_rb(P, [np.random.default_rng(ep_seed + i) for i in live], [lams[i] for i in live],
                               cfg, _MAX_TRIES, norms)
            for i, d in zip(live, drawn):
                if isinstance(d, DsmkitError):  # row-level failures are data, not aborts
                    errors[i] = str(d)
            live = [i for i in live if not errors[i]]
        if not live:
            continue
        out = _solve(blocks, formulas, np.array([1j * lams[i].imag for i in live]), v, cfg)
        for j, i in enumerate(live):
            text = ";".join(f"{name}={c[j]}" for name, c in out.report.items() if out.finite[j] or name in out.side)
            if out.failed[j] is not None:
                errors[i] = str(out.failed[j])
                continue
            conditions[i] = texts.setdefault(text, text)
            if out.finite[j]:
                finite[i], lower[i], upper[i] = True, out.lower[j], out.upper[j]
        del out
    return [{"lam": lam, "finite": f, "eta_lower": lo, "eta_upper": up, "conditions": c, "error": e}
            for lam, f, lo, up, c, e in zip(lams, finite, lower, upper, conditions, errors)]


def reconstruct_perturbation(
    P: PHPencil,
    ep: EigenPair,
    blocks,
    solution: BackwardErrorBounds,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> PerturbationBlocks:
    """Split the solved square block into per-block perturbations and verify.

    dR = -(herm part Hh of H1) when R is selected (otherwise H1 must be
    skew-Hermitian, all of it Hs), dJ + lam dE = Hs with the weights of
    ``_split`` and dB = H2 when B is selected.  The result must annihilate
    (L - dL)(lam) u and have the norm ``eta_upper``; failures raise
    ``ReconstructionError``.
    """
    blocks = parse_blocks(blocks)
    if not solution.finite:
        raise ReconstructionError("cannot reconstruct from an infinite backward error")
    n, m = P.n, P.m
    lam = ep.lam
    h1 = solution.H1
    hh = (h1 + h1.conj().T) / 2.0
    hs = h1 - hh
    if "R" not in blocks:
        if fro(hh) > cfg.residual_tol * fro(h1):
            raise ReconstructionError("square block has a Hermitian part but R is not selected")
        hh, hs = np.zeros((n, n), dtype=complex), h1
    dR = -hh
    cJ, cE, d = _split(blocks, lam)
    if not d and fro(hs) > cfg.residual_tol * fro(h1):
        raise ReconstructionError("square block has a skew part but neither J nor E is selected")
    dJ, dE = cJ * hs, cE * hs
    dB = solution.H2 if "B" in blocks else np.zeros((n, m), dtype=complex)

    out = PerturbationBlocks(dJ=dJ, dR=dR, dE=dE, dB=dB)
    # invariants
    checks = {
        "dJ_skew": _in_family(StructureFamily.SKEW_HERMITIAN, dJ, cfg),
        "dR_herm": _in_family(StructureFamily.HERMITIAN, dR, cfg),
        "dE_herm": _in_family(StructureFamily.HERMITIAN, dE, cfg),
    }
    if solution.variant == "sd":
        checks["dR_psd"] = _semidefinite(dR, fro(dR), cfg)
    bad = [k for k, v in checks.items() if not v]
    if bad:
        raise ReconstructionError(f"perturbation invariants failed: {', '.join(bad)}")

    M, N = P.assemble()
    dM, dN = out.delta_mn(n, m)
    resid = ((M - dM) + lam * (N - dN)) @ ep.u
    # the scale of the data, with no floor: a small pencil is held to the same relative residual
    scale = (fro(M) + abs(lam) * fro(N) + fro(dM) + abs(lam) * fro(dN)) * fro(ep.u)
    if fro(resid) > cfg.residual_tol * scale:
        raise ReconstructionError(
            f"(L - dL)(lambda) u residual too large: {fro(resid):.3e} (scale {scale:.3e})"
        )
    if abs(out.norm() - solution.eta_upper) > cfg.residual_tol * solution.eta_upper:
        raise ReconstructionError(f"reconstructed norm {out.norm():.12e} != eta_upper {solution.eta_upper:.12e}")
    return out

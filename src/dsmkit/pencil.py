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
P_x v = v - x (x+ v)) and the column block is H2 = u1 (u1+ B).  Their
norms come from a thin QR of F and a core of at most 6 x 6
(``linalg.Factored.part_norms``), without forming any n x n matrix, and
the H1 that ``eta_*`` returns carries that norm.  One core, ``_solve``,
takes a stack of rows (lambda, eigenvector): the blocks are applied to
each eigenvector once (J u1, R u1, E u1, J u2, R u2, E u2, B* u1), then
a few stacked numpy calls serve the whole stack.  A row has the same
bits in any stack (last-axis sums and stacked LAPACK, no 2-D
matrix-vector product), so ``experiment_table``, in stacks of a fixed
memory budget, equals ``eta_sd``/``eta_s``, a stack of one that returns
H1 = F C F* and H2 = u1 (u1+ B) as ``linalg.Factored`` blocks: O(n) per
call after the block products, and O(n^2) only when H1 or H2 is read.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    DegenerateInputError,
    DsmkitError,
    DimensionMismatchError,
    GenerationError,
    HypothesisViolationError,
    ReconstructionError,
    StructureError,
)
from .linalg import DenseOnRead, Factored, _ct, _norm, _semidefinite, as_complex, fro, herm_skew_parts
from .linalg import _complement_map, _kept, _psd_factor
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

    lambda is validated to satisfy |Re| <= residual_tol * |lambda| under
    ``cfg`` and then projected exactly onto the imaginary axis.
    """

    lam: complex
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    cfg: InitVar[ToleranceConfig] = DEFAULT_TOL

    def __post_init__(self, cfg: ToleranceConfig) -> None:
        lam = complex(self.lam)
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


@dataclass
class _Products:
    """The pencil's blocks applied to a stack of eigenvectors, a row each: all that eta needs of u.

    Every field but the block norms has a row per eigenvector.  u is scaled by a power of two to a norm in
    [0.5, 1).  That is exact in floating point and changes no result, because H1 and H2 are homogeneous of
    degree zero in u, and it keeps every inner product of two vectors far from overflow and underflow.
    Nothing here depends on lambda, so a sweep with a fixed eigenvector computes it once.
    """

    u1: np.ndarray
    u2: np.ndarray
    Ju1: np.ndarray
    Ru1: np.ndarray
    Eu1: np.ndarray
    Ju2: np.ndarray
    Ru2: np.ndarray
    Eu2: np.ndarray
    Bu1: np.ndarray  # B* u1
    u3_zero: np.ndarray
    alpha: np.ndarray  # u2 ~ alpha u1, and whether it holds with alpha != 0
    colinear: np.ndarray
    nJ: float
    nR: float
    nE: float
    nB: float


def _block_norms(P: PHPencil) -> tuple[float, float, float, float]:
    """||J||, ||R||, ||E||, ||B||: what the predicates of eta take as the data's scale."""
    return fro(P.J), fro(P.R), fro(P.E), fro(P.B)


def _products(P: PHPencil, u1: np.ndarray, u2: np.ndarray, u3: np.ndarray, cfg: ToleranceConfig,
              norms=None) -> _Products:
    """The products of the eigenvectors [u1; u2; u3], one per row; ``norms`` (``_block_norms``) saves four n^2 passes.

    Each block is applied as M @ U[..., None], one matrix-vector product per row, so a row has the bits of
    ``M @ u`` in any stack; 2-D products of n x 2 would change their last bits with the width."""
    if u1.shape[-1] != P.n or u3.shape[-1] != P.m:
        raise DimensionMismatchError(
            f"eigenpair dims ({u1.shape[-1]}, {u3.shape[-1]}) do not match pencil ({P.n}, {P.m})"
        )
    n3 = _norm(u3)
    unorm = np.hypot(np.hypot(_norm(u1), _norm(u2)), n3)
    s = np.ldexp(1.0, -np.frexp(unorm)[1])[:, None]
    u1, u2, k = s * u1, s * u2, len(u1)
    u = np.concatenate([u1, u2])[..., None]
    Ju, Ru, Eu = ((M @ u)[..., 0] for M in (P.J, P.R, P.E))
    d = _dot(u1, u1)  # alpha by least squares, as ``linalg._colinear_coeff``: zero for u1 = 0
    alpha = _dot(u1, u2) / np.where(d != 0, d, 1.0)
    colinear = (d != 0) & (alpha != 0) & (_norm(u2 - alpha[:, None] * u1) <= cfg.residual_tol * _norm(u2))
    return _Products(u1, u2, Ju[:k], Ru[:k], Eu[:k], Ju[k:], Ru[k:], Eu[k:], (P.B.conj().T @ u1[..., None])[..., 0],
                     n3 <= cfg.residual_tol * unorm, alpha, colinear, *(norms or _block_norms(P)))


def _select(vs: list[_Products], rows) -> _Products:
    """The ``rows`` of several stacks of products laid end to end, as one stack."""
    fields = zip(*(vars(v).values() for v in vs))
    return _Products(*(np.concatenate(f)[rows] if np.ndim(f[0]) else f[0] for f in fields))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i* b_i for every row i of two stacks of vectors, as stacked products (see ``_norm``)."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _per_row(c, rows: int) -> list:
    """``c`` (one value, or one per eigenvector or row of a stack) as a list of one entry per row."""
    c = np.ravel(c).tolist()
    return c * rows if len(c) == 1 else c


def _pinv_cols(x: np.ndarray, nx: np.ndarray) -> np.ndarray:
    """The columns (x+)* = x / ||x||^2 of a stack of vectors of norms ``nx`` (zero for x = 0), without squaring."""
    nx = np.where(nx > 0, nx, 1.0)[:, None]
    return x / nx / nx


def _anti_dissipative_h1(v: _Products, n1, ty, w1, cfg, report: dict, warnings: list):
    """Factors (F, C), H1 = F C F*, of the square-block minimizer for the semidefinite variant.

    H1 = ty u2+ + (u1+)* (P_u2 w1)* + P_u2 g (P_u2 g)* / (4 Re(u2* ty)) with
    the Gram vector g = ty + (alpha/|alpha|^2) w1, where
    P_u2 w = w - u2 (u2+ w) never forms the projector: F stacks the at
    most three left and three right rank-one factors and C = [[0, I], [0, 0]].
    The Gram term needs R u2 != 0 (otherwise the denominator vanishes); in
    that boundary case it is dropped, which keeps interpolation and
    dissipativity but no longer certifies minimality.  The rows share one
    eigenvector; a row with Re(u2* ty) >= 0 gets zero Gram columns.
    """
    u2, n2 = v.u2, _norm(v.u2)
    report["R_u2_nonzero"] = _norm(v.Ru2) > cfg.residual_tol * v.nR * n2
    if ((abs(abs(v.alpha) - 1.0) > cfg.residual_tol) & report["u2_colinear_u1"]).any():  # |alpha| against 1
        warnings.append("colinearity factor is not unit-modulus; the Gram-vector weighting "
                        "is only certified for |alpha| = 1")
    u2h = u2 / np.where(n2 > 0, n2, 1.0)[:, None]

    def proj(w):
        return w - u2h * _dot(u2h, w)[:, None]

    left, right = [ty, _pinv_cols(v.u1, n1)], [_pinv_cols(u2, n2), proj(w1)]
    rexy = _dot(u2, ty).real[:, None]
    if (report["R_u2_nonzero"] & report["u2_colinear_u1"]).all():
        g = proj(ty + (v.alpha / abs(v.alpha) ** 2)[:, None] * w1) * (rexy < 0)
        left.append(g)
        right.append(g / (4.0 * np.where(rexy < 0, rexy, 1.0)))
    elif not report["R_u2_nonzero"].all():
        warnings.append("R u2 = 0: Gram term dropped, minimality not certified")
    k = len(left)
    C = np.zeros((2 * k, 2 * k), dtype=complex)
    C[:k, k:] = np.eye(k)
    F = np.empty(ty.shape + (2 * k,), dtype=complex)
    for j, col in enumerate(left + right):
        F[..., j] = col
    return F, C[None]  # one core for every row


def _split(blocks: frozenset[str], lam) -> tuple:
    """(cJ, cE, d = [J] + [E] |lam|^2): dJ = cJ Hs, dE = cE Hs is dJ + lam dE = Hs at least cost ||Hs||^2/d.

    Elementwise for an array of lambda; d = 0 (neither J nor E) gives zero weights."""
    j, e = float("J" in blocks), float("E" in blocks)
    d = j + e * np.abs(lam) ** 2
    w = np.where(d > 0, d, np.inf)
    return j / w, e * np.conj(lam) / w, d


def _bounds(blocks: frozenset[str], variant: str, lams, h1n, hhn, hsn, h2n) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper bounds from the norms of H1, its parts and H2: one rule for every selection and row.

    upper^2 = [R] ||Hh||^2 + ||Hs||^2/d + ||H2||^2 (all of H1 is Hs without R; d = 0 weighs Hs
    by 1) and, for "sd", lower^2 = ||H1||^2 / max(1, d) + ||H2||^2; "s" is exact.
    """
    hh2, hs2 = (hhn**2, hsn**2) if "R" in blocks else (0.0, h1n**2)
    d = _split(blocks, lams)[2]
    up = np.sqrt(hh2 + hs2 / np.where(d > 0, d, 1.0) + h2n**2)
    if variant == "s":
        return up, up
    return np.sqrt((hh2 + hs2) / np.maximum(1.0, d) + h2n**2), up


def _solve(blocks: frozenset[str], variant: str, lams: np.ndarray, v: _Products, cfg: ToleranceConfig):
    """Bounds, verdicts and the factors of H1 for a stack of rows, each one eigenvector at one lambda.

    ``lams`` holds the B imaginary lambda; ``v`` holds the products (``_products``) of one eigenvector, which
    every row shares, or of B, one per row.  Returns ``(results, F, C, nK)``: ``results[i]`` is row i's
    ``BackwardErrorBounds`` without H1 and H2 (an infinite row keeps only its side conditions) or its
    ``DsmkitError``, its H1 is F[i] C[i] F[i]* (C[0] when C holds one core for all rows), F of at most six
    columns, and nK[i] is ||H1|| as the bounds took it (``Factored.part_norms``).  ty = J u2 - R u2 + lam E u2
    and w1 = -(J u1 + R u1 + lam E u1) are affine in lambda, so given ``v`` a row costs O(n): vector updates,
    an SVD of n x 2 per eigenvector and a thin QR of F, all stacked (see ``linalg._norm``).  F has one width
    in every row: a factor a row lacks (a rank-one X, no Gram term) is a zero column.  ``variant`` is "s" for
    the symmetry-only formulas (also for the selections that eta_sd delegates) and "sd" otherwise.
    """
    tol = cfg.residual_tol
    n1 = _norm(v.u1)
    rb = blocks == frozenset("RB")
    report: dict = {"u3_zero": v.u3_zero}
    if rb:
        iso = _dot(v.u1, v.Ju1) + lams * _dot(v.u1, v.Eu1)
        report["u1_isotropic"] = abs(iso) <= tol * (v.nJ + abs(lams) * v.nE) * n1**2
        if variant == "sd":
            report["R_u1_nonzero"] = _norm(v.Ru1) > tol * v.nR * n1
    elif variant == "s":
        report["R_u1_zero"] = _norm(v.Ru1) <= tol * v.nR * n1
    elif blocks in _KERNEL_B:
        report["B_adj_u1_zero"] = _norm(v.Bu1) <= tol * v.nB * n1
    pre = list(report)  # an infinite row reports these verdicts only
    ty = v.Ju2 - v.Ru2 + lams[:, None] * v.Eu2
    w1 = -(v.Ju1 + v.Ru1 + lams[:, None] * v.Eu1)
    h2n = _norm(v.Bu1) / np.where(n1 > 0, n1, 1.0) if "B" in blocks else 0.0
    warnings: list[str] = []
    alpha, refused = _per_row(v.alpha, len(lams)), np.zeros(lams.shape, dtype=bool)

    if variant == "s" or rb:
        X = np.stack([v.u2, v.u1], axis=-1)
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
        C = np.zeros(lams.shape + (2 * r, 2 * r), dtype=complex)
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
        exact, alpha = report["interp_YXdX"], [None] * len(lams)
    else:
        report["u2_colinear_u1"] = v.colinear
        F, C = _anti_dissipative_h1(v, n1, ty, w1, cfg, report, warnings)
        exact = blocks in _EXACT_SD and report["u2_colinear_u1"] & report["R_u2_nonzero"]

    norms = Factored.part_norms(F, C)
    lo, up = _bounds(blocks, variant, lams, *norms, h2n)
    lo, up, exact = lo.tolist(), up.tolist(), _per_row(exact, len(lams))
    cols = {k: _per_row(c, len(lams)) for k, c in report.items()}
    results: list = []
    for i, lam in enumerate(lams.tolist()):
        if not all(cols[k][i] for k in pre):
            results.append(BackwardErrorBounds(False, math.inf, math.inf, variant=variant, blocks=blocks, lam=lam,
                                               conditions_report={k: cols[k][i] for k in pre}))
        elif refused[i]:
            results.append(HypothesisViolationError("X*Y must be Hermitian negative definite for the RB formula"))
        else:
            results.append(BackwardErrorBounds(True, lo[i], up[i], alpha=alpha[i], exact=exact[i], variant=variant,
                                               conditions_report={k: c[i] for k, c in cols.items()}, blocks=blocks,
                                               lam=lam, warnings=list(warnings)))
    return results, F, C, norms[0]


def _formula_variant(blocks: frozenset[str], variant: str) -> str:
    """The formulas a selection uses: eta_sd delegates the selections without R to eta_s."""
    if variant == "sd" and blocks in _DELEGATED:
        return "s"
    if blocks not in (ETA_SD_COMBOS if variant == "sd" else ETA_S_COMBOS):
        raise ValueError(f"eta_{variant}({blocks_to_string(blocks)}) is classical prior work; not implemented")
    return variant


def _eta(P: PHPencil, ep: EigenPair, blocks, variant: str, cfg: ToleranceConfig) -> BackwardErrorBounds:
    """eta_s/eta_sd: the core on a stack of one row, with H1 and H2 as factors (O(n^2) only when read)."""
    blocks = parse_blocks(blocks)
    formulas = _formula_variant(blocks, variant)
    if ep.lam == 0:
        raise DegenerateInputError("lambda must be nonzero imaginary")
    v = _products(P, ep.u1[None], ep.u2[None], ep.u3[None], cfg)
    (out,), F, C, nk = _solve(blocks, formulas, np.array([ep.lam]), v, cfg)
    if isinstance(out, DsmkitError):
        raise out
    out.variant = variant
    if out.finite:
        out.H1 = Factored(F[0], F[0].conj(), C[0], norm=float(nk[0]))  # the norm its bounds were taken from
        out.H2 = Factored(_pinv_cols(v.u1, _norm(v.u1)).T * float("B" in blocks), v.Bu1.conj().T)  # u1 u1+ B
    return out


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


#: a table's rows go through the core in stacks of at most ``_STACK_BYTES``, at about ``_ROW_BYTES`` per
#: row and unit of n (some 24 complex n-vectors: the products, ty, w1, the factors of H1 and temporaries;
#: an RB probe pass holds as many, G, h G and one product of ``_PROBE_BLOCK`` columns each)
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
            U, HU = np.stack([v.u1, v.u2]), np.stack([v.Ju1 + lt_live * v.Eu1, v.Ju2 + lt_live * v.Eu2])  # i h u
            xy = _ct(np.stack([v.u2, v.u1], axis=-1)) @ np.stack([HU[1] - v.Ru2, -(HU[0] + v.Ru1)], axis=-1)
            nxy = _norm(xy, 2)
            ok = ((abs(_dot(U, HU)) <= tol * _norm(HU) * _norm(U)).all(0)
                  & (_norm(v.Ru1) > _DRAW_NONZERO * v.nR * _norm(v.u1))
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
    a standard Gaussian on the kernel.  Q is held as the Householder
    reflectors of one factorization per call, so once per table
    (``linalg._complement_map``): of B itself in O(n m^2), or of the n x r
    pivoted Cholesky factor of R in O(n r^2) (``linalg._psd_factor``).  No Q
    or U is formed, and each try projects g through the reflectors in O(n m)
    or O(n r).  A trivial kernel raises ``GenerationError``, as do
    ``max_tries`` rejected draws.
    """
    blocks = parse_blocks(admissible_for)
    rng = np.random.default_rng(seed)
    if blocks == frozenset("RB"):
        (drawn,), _ = _gen_rb(P, [rng], [lam], cfg, max_tries, _block_norms(P))
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
    The RB selection draws a new one per row, the one ``gen_eigpair`` draws
    with seed ``ep_seed + i``, in O(n^2) with no decomposition: the rows of
    a stack are drawn together (``_gen_rb``), each phase one stacked pass,
    and ``_solve`` reuses the products the generator has formed.  The block
    norms are taken once per table, and the rows go through the generator
    and ``_solve`` in stacks of at most ``_STACK_BYTES``, so the table's
    peak memory does not grow with the number of lambda.  The rows equal ``eta_sd``/``eta_s`` on the same
    eigenpair bit for bit.  Row-level failures (lambda = 0, infinite eta,
    generation failure or any other ``DsmkitError``) are recorded in the
    row, never raised; an unsupported selection or variant raises
    ``ValueError`` first.
    """
    blocks = parse_blocks(blocks)
    if variant not in ("s", "sd"):
        raise ValueError(f"variant must be 's' or 'sd', got {variant!r}")
    formulas = _formula_variant(blocks, variant)
    norms = _block_norms(P)
    rb = blocks == frozenset("RB")
    rows = [{"lam": lam, "finite": False, "eta_lower": math.inf, "eta_upper": math.inf, "conditions": "",
             "error": "" if lam != 0 and _is_imaginary(lam, cfg) else "lambda must be nonzero purely imaginary"}
            for lam in map(complex, lambdas)]
    todo, v = [i for i, row in enumerate(rows) if not row["error"]], None
    if todo and not rb:
        try:
            ep = gen_eigpair(P, ep_seed, blocks, cfg, lam=rows[todo[0]]["lam"])
            v = _products(P, ep.u1[None], ep.u2[None], ep.u3[None], cfg, norms)
        except DsmkitError as exc:  # one draw: its failure is every row's
            for i in todo:
                rows[i]["error"] = str(exc)
            todo = []
    step = _STACK_BYTES // (_ROW_BYTES * P.n) or 1
    for start in range(0, len(todo), step):
        chunk = todo[start : start + step]
        if rb:
            drawn, v = _gen_rb(P, [np.random.default_rng(ep_seed + i) for i in chunk], [rows[i]["lam"] for i in chunk],
                               cfg, _MAX_TRIES, norms)
            for i, d in zip(chunk, drawn):
                if isinstance(d, DsmkitError):  # row-level failures are data, not aborts
                    rows[i]["error"] = str(d)
        live = [i for i in chunk if not rows[i]["error"]]
        if not live:
            continue
        lams = np.array([1j * rows[i]["lam"].imag for i in live])
        for i, res in zip(live, _solve(blocks, formulas, lams, v, cfg)[0]):
            if isinstance(res, DsmkitError):
                rows[i]["error"] = str(res)
            else:
                rows[i].update(finite=res.finite, eta_lower=res.eta_lower, eta_upper=res.eta_upper,
                               conditions=";".join(f"{k}={c}" for k, c in res.conditions_report.items()))
    return rows


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
    hh, hs = herm_skew_parts(h1)
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

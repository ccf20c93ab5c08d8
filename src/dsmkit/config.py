"""Tolerance settings shared by every solver and audit."""

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances, and the one rule by which every verdict reads them.

    A quantity counts as zero when it is at most ``tol * scale``, where
    ``scale`` is the norms of the inputs that formed it, taken before any
    cancellation: ||X|| ||Y|| for X*Y + Y*X, ||Y|| for Y X+ X - Y,
    ||K|| + (2||w1|| + ||Z|| ||z||)^2 / (4 Re z*w1) for the shifted K of the
    dissipative characterization.  There is no floor, so a zero scale
    accepts only zero, and every verdict is the same for s * (data) as for
    the data.

    rank_tol      singular values below ``rank_tol * sigma_max`` count as zero
                  (ranks, pseudoinverses, the eigenspaces of isotropic draws),
                  and so do a Cholesky pivot of a psd a up to ``rank_tol * ||a||``
                  and an eigenvalue of the type-1 core G*U1 + U1*G up to
                  ``rank_tol * 2||G||``
    psd_tol       semidefiniteness: no eigenvalue of the Hermitian part below
                  ``-psd_tol * scale`` (``linalg._semidefinite``; a family's cone in
                  ``maps._in_family``), definiteness: above ``psd_tol * scale``
    residual_tol  every other zero test: interpolation and identity residuals,
                  a family's symmetry (``maps._in_family``), colinearity
                  (``linalg._colinear_coeff``), ``maps._violation``'s sign conditions
                  such as x*y real, and imaginary lambda; the oracle's audits
                  and certified gaps read it times a named factor
    """

    rank_tol: float = 1e-12
    psd_tol: float = 1e-10
    residual_tol: float = 1e-10

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be strictly positive")


DEFAULT_TOL = ToleranceConfig()

"""Exception types shared across the package."""


class DsmkitError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(DsmkitError, ValueError):
    """Shapes of the supplied matrices/vectors are inconsistent."""


class NonFiniteEntriesError(DsmkitError, ValueError):
    """Input contains NaN or Inf entries."""


class StructureError(DsmkitError, ValueError):
    """A matrix violates a required symmetry/definiteness structure."""


class DegenerateInputError(DsmkitError, ValueError):
    """An input that the solver formulas require to be nonzero is zero."""


class NotColinearError(DsmkitError, ValueError):
    """Two vectors required to be colinear are not, within tolerance."""


class ConstraintViolationError(DsmkitError, ValueError):
    """A free parameter violates the admissibility constraints.

    Carries ``constraint``, the name of the failing condition.
    """

    def __init__(self, constraint: str, message: str = ""):
        self.constraint = constraint
        super().__init__(message or f"constraint violated: {constraint}")


class HypothesisViolationError(DsmkitError, ValueError):
    """A sufficient condition fails in a way that leaves the formula undefined."""


class GenerationError(DsmkitError, RuntimeError):
    """Random instance generation exhausted its retry budget."""


class ReconstructionError(DsmkitError, RuntimeError):
    """A reconstructed perturbation failed its verification audit."""


class InconsistentConstraintsError(DsmkitError, ValueError):
    """A linear constraint system admits no solution."""


class BoundsOverflowError(DsmkitError, OverflowError):
    """A result of finite data lies beyond the floating-point range."""


class CertificationError(DsmkitError, RuntimeError):
    """A convex oracle found no strictly feasible point or could not certify its duality gap."""


class IoFormatError(DsmkitError, ValueError):
    """A serialized document is malformed.  Carries the offending field name."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(message or f"malformed document field: {field}")

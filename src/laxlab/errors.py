"""Exception hierarchy shared by all laxlab modules.

Two broad families matter to callers: usage problems (bad arguments,
unsupported options) and numerical problems discovered mid-computation
(singular tau, divergent integral, drifting invariants).  The CLI maps
them to distinct exit codes.
"""


class LaxlabError(Exception):
    """Base class for all library errors."""


class UsageError(LaxlabError):
    """Malformed or unsupported arguments (CLI exit code 2)."""


class NumericalError(LaxlabError):
    """A computation failed numerically (CLI exit code 3)."""


class DimensionError(UsageError):
    """Matrix dimensions do not match the operation's requirements."""


class SymmetryError(UsageError):
    """Input violates a required (skew-)symmetry."""


class DomainError(UsageError):
    """Argument outside the supported domain."""


class EmptyDomainError(UsageError):
    """An integration domain with no interior was supplied."""


class DegenerateFlagError(NumericalError):
    """A leading Pfaffian vanished (or went nonpositive) during skew-Borel."""


class SingularTauError(NumericalError):
    """A tau function vanished where a ratio or log-derivative is needed."""


class SingularMatrixError(NumericalError):
    """Rank-deficient input to a factorization that requires invertibility."""


class DepthError(UsageError):
    """Not enough moments stored for the requested block or its jets."""


class DivergenceError(NumericalError):
    """A requested moment/integral does not converge."""


class StabilityError(NumericalError):
    """An integrator's conserved quantity drifted beyond tolerance."""


class PrecisionError(NumericalError):
    """A result cannot meet its accuracy budget."""


class UnderflowError(NumericalError):
    """A probability underflowed below the usable range."""

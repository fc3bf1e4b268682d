"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


class InfeasibleInstance(ValueError):
    """Instance data admits no feasible point (e.g. energy demand above caps)."""


class PolicyConstructionError(ValueError):
    """No admissible step-size parameters could be constructed."""


class StrongConvexityRequired(ValueError):
    """Accelerated parameters requested on a block with zero curvature modulus."""


class UnsupportedSampling(ValueError):
    """A sampling kind the package does not know."""


class ProjectionDidNotConverge(RuntimeError):
    """Cyclic projection hit its iteration cap; the intersection may be empty."""


class InvariantViolation(RuntimeError):
    """Two computations of one quantity disagree, or a computed quantity
    lacks a property it has by construction: a numerical fault, not bad
    input."""


class SolverDivergence(RuntimeError):
    """Non-finite iterates detected.  Carries the last valid trace row."""

    def __init__(self, message, last_record=None):
        super().__init__(message)
        self.last_record = last_record


class InsufficientData(ValueError):
    """Too few trace points for a rate fit."""

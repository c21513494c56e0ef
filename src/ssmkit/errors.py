"""Exception types shared across the toolkit."""


class SsmKitError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SsmKitError, ValueError):
    """Input outside the mathematical domain of an operation."""


class TrajectoryOverflowError(DomainError):
    """Trajectory samples overflow the float range at the motor shaft."""


class NoSolutionError(SsmKitError):
    """A geometric subproblem has no real solution for the given data."""


class DegenerateInputError(SsmKitError):
    """Input configuration makes the requested solve ill-posed."""


class DegenerateAxesError(DegenerateInputError):
    """Two rotation axes are parallel where distinct axes are required."""


class DegenerateGeometryError(SsmKitError):
    """Mechanism geometry is degenerate for the requested construction."""


class UnreachableError(SsmKitError):
    """Target pose is outside the reachable set of the mechanism."""


class InvalidLogError(SsmKitError):
    """Telemetry log violates a structural invariant."""


class InsufficientDataError(SsmKitError):
    """Not enough qualifying data to build the requested result."""


class RankDeficientError(SsmKitError):
    """Regression data cannot separate the model parameters."""


class DegenerateRangeError(SsmKitError):
    """Normalization range of a signal is numerically zero."""


class MisalignedTracesError(SsmKitError):
    """Two traces that must share timestamps do not."""

"""Exception types shared across the package."""


class MatmineError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveJacobian(MatmineError):
    """det F <= 0: the deformation state is inadmissible."""


class NotPositiveDefinite(MatmineError):
    """A matrix that must be symmetric positive definite is not."""


class DegenerateDirection(MatmineError):
    """A direction vector with (near-)zero length cannot be normalized."""


class InvalidMaterialParameters(MatmineError):
    """Constitutive parameters violate their admissibility constraints."""


class EmptyDataSet(MatmineError):
    """An operation that needs at least one data tuple received none."""


class AsymmetricStressTarget(MatmineError):
    """F^-1 P is too far from symmetric to be a valid training target."""


class NoFeasibleRestart(MatmineError):
    """Every training restart failed (non-finite loss or constraint violation)."""


class NewtonDivergence(MatmineError):
    """A Newton solve failed to converge within its iteration budget."""


class FirstStepDivergence(NewtonDivergence):
    """The very first load step diverged; the setup itself is suspect."""


class ZeroMean(MatmineError):
    """The scatter statistic is undefined for a sample with zero mean."""


class UnknownGeometry(MatmineError):
    """Requested macro geometry name is not registered."""


class MaxIterationsExceeded(MatmineError):
    """The mining loop hit its iteration cap without terminating naturally."""


class InvalidConfig(MatmineError):
    """A run-configuration file has unknown or malformed entries."""


class FormatVersionMismatch(MatmineError):
    """A file's format-version header is missing or unsupported."""


class CorruptRecord(MatmineError):
    """A data file record failed to parse.

    Carries the 1-based line number in ``line_no`` when known.
    """

    def __init__(self, message, line_no=None):
        super().__init__(message if line_no is None
                         else f"line {line_no}: {message}")
        self.line_no = line_no

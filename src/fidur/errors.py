"""Exception types shared across the package."""


class FidurError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FidurError):
    """A value fails its type invariants (state, observable, or fixture payload)."""


class DimensionMismatch(FidurError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitian(ValidationError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPSD(ValidationError):
    """A matrix required to be positive semidefinite has genuinely negative eigenvalues."""


class NoConvergence(FidurError):
    """The eigensolver failed to converge."""


class IndexOutOfRange(FidurError):
    """An outcome index lies outside [0, dim)."""


class DomainError(FidurError):
    """A scalar argument lies outside its admissible interval."""

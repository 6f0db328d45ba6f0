"""Exception hierarchy for the dilation toolkit."""


class IsodilationError(Exception):
    """Base class for all errors raised by this package."""


class HermitianityError(IsodilationError):
    """A matrix claimed to be Hermitian deviates from its adjoint beyond tolerance."""


class NotPsdError(IsodilationError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""


class ConvergenceError(IsodilationError):
    """An iterative kernel exhausted its budget without meeting its stopping criterion."""


class WindowExhaustedError(IsodilationError):
    """A truncated computation has no rows/columns left that are exact."""


class WeightRuleError(IsodilationError):
    """A shift weight rule has invalid parameters or produces nonpositive weights."""


class NotInvertibleError(IsodilationError):
    """An operator required to be invertible is singular beyond tolerance."""


class IllDefinedFormError(IsodilationError):
    """A quotient sesquilinear form does not vanish on the kernel it must ignore."""


class NotNegativeError(IsodilationError):
    """An operator required to be negative semidefinite has a positive eigenvalue."""


class DimensionError(IsodilationError):
    """Incompatible dimensions in a block assembly or comparison."""


class PreconditionError(IsodilationError):
    """The input operator fails the classification gates of every construction path."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class SpecError(IsodilationError):
    """Base class for operator-spec file problems."""

    def __init__(self, message, errors=None):
        super().__init__(message)
        self.errors = list(errors) if errors else [message]


class SpecParseError(SpecError):
    """The spec file is not well-formed structured text."""


class SpecValidationError(SpecError):
    """The spec file is well-formed but violates the schema or semantic rules."""


class UnknownDemoError(SpecError):
    """Requested demo name is not in the built-in catalog."""

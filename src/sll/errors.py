"""Exception hierarchy shared by all sll modules."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(AlgebraError):
    """Operands belong to different parent rings, or an argument lies
    outside the domain an operation is defined on."""


class PreconditionError(AlgebraError):
    """A documented precondition failed.  ``part`` names the offending
    piece of the input (e.g. ``"constant"``, ``"linear"``, ``"quadratic"``)
    when that is meaningful."""

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part


class ValidationError(AlgebraError):
    """Malformed external input (JSON documents, CLI arguments)."""


class InternalInvariantError(AlgebraError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class SmoothShortCircuit(Exception):
    """Control-flow signal: the hypersurface is smooth, so normal-form
    reduction is unnecessary.  Not an error.

    Raised when a linear coefficient of the defining series is a unit.  A
    unit constant term is not this signal: `normal_form` raises
    PreconditionError for it, and `classify_local_ring` returns Smooth.
    """

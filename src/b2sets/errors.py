"""Exception types shared across the package."""


class B2SetsError(Exception):
    """Base class for all package errors."""


class InternalVerificationFailure(B2SetsError):
    """A freshly constructed object failed its own invariant check."""


class EmptyConstruction(B2SetsError):
    """The requested parameters produce an empty lattice, hence no elements."""


class ResourceCap(B2SetsError):
    """An enumeration exceeded its configured budget."""


class ParameterError(B2SetsError, ValueError):
    """A parameter combination violates a documented precondition."""

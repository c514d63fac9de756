"""Exception types shared across the package."""


class MonormError(Exception):
    """Base class for errors raised by this package."""


class DomainError(MonormError, ValueError):
    """An argument lies outside the effective domain of an operation."""


class SpaceMismatchError(MonormError, ValueError):
    """A function was paired with a measure space it does not live on."""


class BracketError(MonormError, RuntimeError):
    """Doubling/halving failed to bracket a monotone predicate boundary."""


class OracleScaleError(MonormError, ValueError):
    """A brute-force oracle was asked to search an infeasibly large space."""


class InstanceError(MonormError, ValueError):
    """An instance file is malformed or fails validation."""


class PreconditionError(MonormError, ValueError):
    """A documented precondition of an operation does not hold."""


class PostconditionError(MonormError, RuntimeError):
    """A computed result fails the property it is documented to have."""

"""Exception types shared across the package."""


class MinflowError(Exception):
    """Base class for all library errors."""


class DomainError(MinflowError, ValueError):
    """An argument lies outside an operation's documented domain."""


class ConstructionError(MinflowError):
    """A requested object cannot be built (e.g. a non-prolongable seed)."""


class ResourceError(MinflowError):
    """A configured cap was exceeded.

    `partial` carries whatever progress was made before the cap hit,
    when that is meaningful (e.g. codes found so far during enumeration).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class IntegrityError(MinflowError):
    """An internal consistency check failed, e.g. a fiber census grew
    from one level to the next."""


class UndeterminedError(MinflowError):
    """A coordinate of a partial point was queried outside its determined
    range; extend the address digits to determine more coordinates."""


class AmbiguityError(MinflowError):
    """A word admits more than one substitution parse (window too short)."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class NoParseError(MinflowError):
    """A word admits no substitution parse at all (it is inadmissible)."""


class PreconditionError(MinflowError):
    """A documented operation precondition was not met."""

"""Exception types shared across the package."""


class PointLineError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PointLineError, ValueError):
    """An argument lies outside the operation's stated domain."""


class TooFewPoints(DomainError):
    """The operation needs at least two points."""


class DuplicatePoint(DomainError):
    """A point set contained the same point twice."""


class InvalidCutoff(DomainError):
    """A scan's cutoff outside [1, MAX_CUTOFF], or its c_max above MAX_CUTOFF."""


class Unresolved(PointLineError):
    """Interval enclosures still overlap at the refinement limit."""


class PointFormatError(PointLineError, ValueError):
    """A point-set file does not conform to the JSON format."""

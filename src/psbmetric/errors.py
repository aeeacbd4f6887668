"""Exception types raised across the package."""


class PsbmError(Exception):
    """Base class for every error this package raises deliberately."""


class InvalidArgument(PsbmError, ValueError):
    """An argument outside its domain, such as a radius <= 0 or a count < 1.
    Also a ValueError, so code that catches ValueError still catches it."""


class UnknownPoint(PsbmError):
    """A point argument is not part of the carrier (or candidate set)."""


class UnknownBuiltin(PsbmError):
    """No builtin space, map, or comparison function under that name."""


class InfeasibleExhaustive(PsbmError):
    """Exhaustive enumeration requested on a non-finite carrier."""


class ParseError(PsbmError):
    """Malformed space-file or breakpoint input."""


class IncompleteTable(PsbmError):
    """A tabulated metric leaves some ordered triple undefined."""


class NegativeValue(PsbmError):
    """A distance table entry is negative."""


class DistanceOverflow(PsbmError):
    """A float that a metric rule, the contraction inequality's powers and
    means, or a reported axiom violation needs lies beyond the float range.
    Comparisons never raise it."""


class EmptySubfamily(PsbmError):
    """Cover-witness search over an empty subfamily."""


class WrongSpaceShape(PsbmError):
    """Case-table reproduction needs a two-isolated-points-plus-ray space."""


class InvalidExponents(PsbmError):
    """Interpolation exponents must each lie in (0,1) and sum below 1."""


class NotAFixedPoint(PsbmError):
    """Uniqueness check received a claimed point the map does not fix."""

"""Comparison helpers shared by every module.

Distance values stay plain Python ints whenever a space is defined by an
integer table or evaluated at integer points, and comparisons are then exact.
As soon as a float enters, comparisons fall back to a relative tolerance for
equality and a strictness margin for strict inequalities.
"""

REL_TOL = 1e-9
STRICT_MARGIN = 1e-12


def exact(a, b) -> bool:
    return type(a) is int and type(b) is int


def _scale(a, b) -> float:
    return max(1.0, abs(a), abs(b))


def values_equal(a, b) -> bool:
    if exact(a, b):
        return a == b
    return abs(a - b) <= REL_TOL * _scale(a, b)


def leq(a, b) -> bool:
    """a <= b, with float slack so round-off never flags a true inequality.

    A plain a <= b (exact across int and float) is true at once. The slack
    test agrees, since the slack is far wider than the rounding of b, save
    where it breaks: -inf + inf is nan, and ints beyond the float range
    overflow.
    """
    if a <= b:
        return True
    return not exact(a, b) and a <= b + REL_TOL * _scale(a, b)


def strictly_less(a, b) -> bool:
    """a < b; floats must clear the boundary by the strictness margin.

    A failed plain a < b (or a nan) is false at once: the margin only
    lowers the bound, by far more than the rounding of b.
    """
    if not a < b:
        return False
    return exact(a, b) or a < b - STRICT_MARGIN * _scale(a, b)


def points_close(x, y, tol: float) -> bool:
    """Point identity for orbit convergence.

    Labels and integer-valued points compare exactly; a pair involving a float
    is close when within tol.
    """
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= tol
    return x == y


def point_sort_key(p):
    """Total order over mixed numeric/label points, for normalized output:
    numbers first, by value (Python compares ints and floats exactly, so
    ints beyond the float range sort too), then labels by their text."""
    if isinstance(p, (int, float)) and not isinstance(p, bool):
        return (0, p)
    return (1, str(p))


def point_label(p) -> str:
    return p if isinstance(p, str) else repr(p)

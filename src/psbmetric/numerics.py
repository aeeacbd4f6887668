"""Point order and labels, and the exact decision for a computed bound.

Python compares ints and floats exactly and never overflows doing so, so
two distance values are compared with a plain `==`, `<=` or `<`. Only a
computed side can round or overflow: the rectangle's t * (S(p,p,s) +
S(q,q,s) + S(r,r,s)) - S(s,s,s) and a ball's cut r + S(c,c,c). Their
callers compare the float result first and fall back to `exact_value` only
when that result lies within `rounding_bound` of the other side, is not
finite, or raised OverflowError (adaptive-precision predicates, Shewchuk
1997). Integer operands stay in exact integer arithmetic throughout.
`finite_span` is the one test that a list of values is finite and has a
span, for the certificate's block bounds and the quintic row spans.
"""

import math
import sys
from fractions import Fraction


def rounding_bound(operands):
    """(relative, absolute): a float expression of at most four operations
    on nonnegative `operands`, such as t * (a + b + c) - o, is off from its
    exact value by at most relative * m + absolute, m being the sum of the
    values it adds and subtracts. (0, 0) when every operand is an int; nan
    when one is negative or not finite, so that every comparison fails.
    Four roundings stay below 4 * 2^-53 * m, plus 2^-1075 for a subnormal
    product (Higham 2002); 2^-50 and 2^-1070 also cover the rounding of m,
    of the bound and of its subtraction from the float result."""
    if all(type(x) is int for x in operands):
        return 0, 0
    if all(0 <= x < math.inf for x in operands):
        return 2.0 ** -50, 2.0 ** -1070
    return math.nan, math.nan


def _sign(x):
    """x when it is not finite, else its sign: the two agree wherever an
    infinite operand decides the sum or product that x enters."""
    return x if not -math.inf < x < math.inf else (x > 0) - (x < 0)


def exact_value(scale, terms, offset=0):
    """scale * (sum of terms) - offset on the true values of its operands:
    a Fraction when every operand is finite; otherwise the value in the
    extended reals (inf or -inf), or nan where that is undefined, as for
    inf - inf or inf * 0. A Fraction compares exactly with ints and floats."""
    if all(-math.inf < x < math.inf for x in (scale, offset, *terms)):
        # In ints over one common denominator: a float's is a power of two.
        (ns, ds), (no, do), *ratios = [x.as_integer_ratio() for x in (scale, offset, *terms)]
        d = math.lcm(*[den for _, den in ratios])
        total = sum(n * (d // den) for n, den in ratios)
        return Fraction(ns * total * do - no * ds * d, ds * d * do)
    infinite = [t for t in terms if not -math.inf < t < math.inf]
    total = sum(infinite) if infinite else _sign(sum(map(Fraction, terms)))
    return _sign(scale) * total - (0 if -math.inf < offset < math.inf else offset)


def finite_span(values):
    """(min(values), max(values)) of a list when both lie within
    +-sys.float_info.max and no value is nan, else None, also when min, max
    or sum raises (an empty list, an int beyond the float range among
    floats). A plain sum finds a nan: it is nan when a value is, and
    otherwise only with an infinite value, which the ends rule out. It need
    not be finite: finite values whose sum overflows get a span."""
    try:
        total, lo, hi = sum(values), min(values), max(values)
    except (ValueError, OverflowError, TypeError):
        return None
    return (lo, hi) if total == total and -sys.float_info.max <= lo and hi <= sys.float_info.max else None


def point_sort_key(p):
    """Total order over mixed numeric/label points, for normalized output:
    numbers first, by value (Python compares ints and floats exactly, so
    ints beyond the float range sort too), then labels by their text."""
    if isinstance(p, (int, float)) and not isinstance(p, bool):
        return (0, p)
    return (1, str(p))


def point_label(p) -> str:
    return p if isinstance(p, str) else repr(p)

"""Comparison functions and their property checks.

Every comparison function here is piecewise affine on [0, inf): the
builtins and the interpolants of breakpoint files. Two classes matter:
Boyd-Wong (zero at zero, strictly below the identity, upper semicontinuous)
and Matkowski (nondecreasing with iterates tending to zero). Each property
is decided exactly from the pieces, and a failure names a float witness at
which it holds for the exact function.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ParseError, UnknownBuiltin

BOYD_WONG = "boyd-wong"
MATKOWSKI = "matkowski"


@dataclass(frozen=True)
class ComparisonFn:
    """fn(v) = max(0, y0 + (v - x0) * slope) on the line of the piece holding v.

    `pieces` is a tuple of (start, ((x0, y0), (x1, y1)), closed), with starts
    rising from 0 and x0 < x1. A piece holds the open interval up to the next
    start (the last reaches inf); the first also holds 0 and every v < 0. A
    later start b belongs to its own piece when `closed`, else to the one
    before. A nan input gives nan.
    """

    name: str
    pieces: tuple
    kind: str | None = None

    def __post_init__(self):
        # One bisect over the cuts picks the line for v. A start b held by the piece before cuts at
        # the least float or int above b, so that v < cut exactly when v <= b.
        cuts = tuple(b if closed else min(math.nextafter(b, math.inf), math.floor(b) + 1)
                     for b, _, closed in self.pieces[1:])
        lines = tuple((x0, y0, (y1 - y0) / (x1 - x0)) for _, ((x0, y0), (x1, y1)), _ in self.pieces)
        object.__setattr__(self, "_cuts", cuts)
        object.__setattr__(self, "_lines", lines)

    def __call__(self, v):
        x0, y0, slope = self._lines[bisect_right(self._cuts, v)]
        y = y0 + (v - x0) * slope
        return 0.0 if y < 0 else y

    def _piece(self, span):
        """k when a list with span = _span(values) reads off piece k's line,
        else None: both ends of span pick piece k and its line is >= 0 at
        both (a nan there fails the test). The rounded map v -> y0 + (v - x0)
        * slope is monotone, so every value between them lands on that piece
        at a value >= 0, which the clamp leaves as it is; a nan inside gives
        nan on any line. A list of floats whose ends pass reads every value
        without raising; an int beyond the float range between them raises
        at the same value, with the same error, as fn called value by value.
        `contraction._rhs` is its one caller."""
        if span is not None:
            try:
                k = bisect_right(self._cuts, span[0])
                y_lo, y_hi = self._line(k, span)
                if k == bisect_right(self._cuts, span[1]) and y_lo >= 0 and y_hi >= 0:
                    return k
            except (TypeError, ArithmeticError):
                pass
        return None

    def _line(self, k, values) -> list:
        """The values of piece k's line at values, unclamped."""
        x0, y0, slope = self._lines[k]
        return [y0 + (v - x0) * slope for v in values]


def _span(values):
    """(min(values), max(values)), or None when values is empty or either raises."""
    if values:
        try:
            return min(values), max(values)
        except (TypeError, ArithmeticError):
            pass
    return None


_ORIGIN = (0.0, 0.0)
_BUILTINS = {
    # 0.9 t up to 1 (inclusive), 0.5 t above.
    "paper_tau": (((0.0, (_ORIGIN, (1.0, 0.9)), True), (1.0, (_ORIGIN, (1.0, 0.5)), False)), BOYD_WONG),
    "half": (((0.0, (_ORIGIN, (1.0, 0.5)), True),), MATKOWSKI),
    "identity": (((0.0, (_ORIGIN, (1.0, 1.0)), True),), None),
}


def builtin_comparison(name: str) -> ComparisonFn:
    if name not in _BUILTINS:
        raise UnknownBuiltin(f"no builtin comparison function named {name!r}")
    return ComparisonFn(name, *_BUILTINS[name])


def piecewise_linear(breakpoints, kind: str | None = None, name: str = "piecewise") -> ComparisonFn:
    """Linear interpolation through (x, y) breakpoints, extended by the
    first/last segment slope outside their range and clamped at zero."""
    # + 0.0 turns a y of -0.0 into 0.0, so that no value comes out as -0.0.
    pts = [(float(x), float(y) + 0.0) for x, y in breakpoints]
    if len(pts) < 2:
        raise ParseError("need at least two breakpoints")
    xs = [x for x, _ in pts]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ParseError("breakpoint x values must be strictly increasing")
    if any(y < 0 for _, y in pts):
        raise ParseError("breakpoint y values must be nonnegative")
    segments = list(zip(pts, pts[1:]))
    for i, ((x0, y0), (x1, y1)) in enumerate(segments):
        if not math.isfinite(x1 - x0) or not math.isfinite((y1 - y0) / (x1 - x0)):
            raise ParseError(f"breakpoints {i} and {i + 1}, {[x0, y0]} and {[x1, y1]}: "
                             "the segment's width or slope overflows the float range")
    # Segment i holds [x_i, x_(i+1)); the first also holds everything left
    # of it and the last everything right of it.
    first = bisect_right(xs[1:-1], 0.0)
    pieces = tuple((xs[i] if i > first else 0.0, segments[i], True) for i in range(first, len(segments)))
    return ComparisonFn(name, pieces, kind)


def _finite_number(value, where: str) -> float:
    """value as a float, if it is a JSON number (not a bool) in the float range."""
    if type(value) not in (int, float) or not -math.inf < value < math.inf:
        raise ParseError(f"{where}: {value!r} is not a finite number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: {value!r} is not a finite number") from None


def load_piecewise(text: str, kind: str | None = None, name: str = "piecewise") -> ComparisonFn:
    """Breakpoints from a JSON array of [x, y] pairs of finite numbers."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list) or any(
        not isinstance(bp, (list, tuple)) or len(bp) != 2 for bp in data
    ):
        raise ParseError("expected a JSON array of [x, y] pairs")
    breakpoints = [
        (_finite_number(x, f"breakpoint {i} x"), _finite_number(y, f"breakpoint {i} y"))
        for i, (x, y) in enumerate(data)
    ]
    return piecewise_linear(breakpoints, kind=kind, name=name)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witness: object = None
    detail: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    fn_name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        return {c.name: c for c in self.checks}[name]

    def to_dict(self) -> dict:
        return {"fn": self.fn_name, "passed": self.passed, "checks": [asdict(c) for c in self.checks]}


# Exact values: a line's own points are exact floats, its other values Fractions.


def _slope(line):
    (x0, y0), (x1, y1) = line
    return (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))


def _at(line, t):
    (x0, y0), (x1, y1) = line
    if t == x0 or t == x1:
        return y0 if t == x0 else y1
    return Fraction(y0) + (Fraction(t) - Fraction(x0)) * _slope(line)


def _clamp(y):
    return y if y > 0 else 0.0


def _exact(fn, t):
    """fn(t) for a float t >= 0, on the line that evaluation picks."""
    return _clamp(_at(fn.pieces[bisect_right(fn._cuts, t)][1], t))


def _spans(fn):
    """(lo, hi, line) per piece; the last hi is inf."""
    starts = [start for start, _, _ in fn.pieces]
    return list(zip(starts, starts[1:] + [math.inf], (line for _, line, _ in fn.pieces)))


def _breakpoints(fn):
    """(b, fn(b-), fn(b), fn(b+), span before b, span from b) per start b; the
    span before 0 is the one from 0."""
    spans = _spans(fn)
    for (b, line, closed), before, after in zip(fn.pieces, spans[:1] + spans, spans):
        left, right = _clamp(_at(before[2], b)), _clamp(_at(line, b))
        yield b, left, right if closed else left, right, before, after


def _float_in(lo, hi, holds=lambda t: True):
    """A float w in (lo, hi) with holds(w), else None; lo and hi are floats. It tries the middle (lo + 1
    and its doublings when hi is inf) and the floats at the ends: enough if holds marks a part touching
    one of them."""
    middles = [lo / 2 + hi / 2 if hi < math.inf else lo + 1.0]
    while hi == math.inf and middles[-1] < hi:
        middles.append(middles[-1] * 2)
    ends = [math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    return next((w for w in middles[:1] + ends + middles[1:] if lo < w < hi and holds(w)), None)


def _check_zero_at_zero(fn):
    value = _exact(fn, 0.0)
    return PropertyCheck("zero-at-zero", value == 0, None if value == 0 else 0, f"fn(0) = {value}")


def _below_on_span(lo, hi, line) -> bool:
    """line(t) < t on (lo, hi), touching the identity at most at an end."""
    start = _at(line, lo)
    if hi == math.inf:
        return start < lo and _slope(line) <= 1 or start <= lo and _slope(line) < 1
    end = _at(line, hi)
    return start <= lo and end <= hi and (start < lo or end < hi)


def _check_below_identity(fn):
    w = next((b for b, _, value, _, _, _ in _breakpoints(fn) if 0 < b <= value), None)
    bad = None if w is not None else next((span for span in _spans(fn) if not _below_on_span(*span)), None)
    if bad:
        lo, hi, line = bad
        w = _float_in(lo, hi, lambda t: _at(line, t) >= t)
    if w is None:
        return PropertyCheck("below-identity", not bad, None, "fn(t) >= t only between adjacent floats" if bad else "")
    return PropertyCheck("below-identity", False, w, f"fn({w}) >= {w}")


def _check_monotone(fn):
    falls = False
    for b, left, value, right, (lo, _, _), (_, hi, line) in _breakpoints(fn):
        if left > value:
            pair = _float_in(lo, b, lambda t: _exact(fn, t) > value), b
        elif value > right:
            pair = b, _float_in(b, hi, lambda t: _exact(fn, t) < value)
        elif line[1][1] < line[0][1] and right > 0:
            # Falling while positive, whether or not clamped at 0 later.
            a = _float_in(b, hi, lambda t: _at(line, t) > 0)
            pair = a, a and _float_in(a, hi)
        else:
            continue
        if None in pair:
            # Too few floats inside the spans: try the ends of the spans around b as well.
            ends = sorted({w for w in (lo, b, *pair, hi) if w is not None and w < math.inf})
            pair = next(((x, y) for x, y in combinations(ends, 2) if _exact(fn, x) > _exact(fn, y)), pair)
        if None not in pair:
            return PropertyCheck("monotone", False, pair, f"fn({pair[0]}) > fn({pair[1]})")
        falls = True  # with no float pair here; a later fall may have one
    if falls:
        return PropertyCheck("monotone", False, None, "fn falls only between adjacent floats")
    return PropertyCheck("monotone", True)


def _check_usc(fn):
    for b, left, value, right, _, _ in _breakpoints(fn):
        if value < max(left, right):
            return PropertyCheck("usc", False, b, f"fn({b}) = {value} is below a one-sided limit, {max(left, right)}")
    return PropertyCheck("usc", True)


def _check_iterate_decay(fn, below, monotone):
    """Matkowski's condition, given the below-identity and monotone verdicts."""
    t = below.witness
    if not below.passed and (monotone.passed or t is not None and _exact(fn, t) == t):
        return PropertyCheck("iterate-decay", False, t, f"fn({t}) >= {t} and fn is nondecreasing or fixes "
                                                        f"{t}, so the iterates from {t} stay at or above {t}")
    if not below.passed:
        return PropertyCheck("iterate-decay", False, None, f"undecided without monotonicity: {below.detail}")
    # Below the identity the iterates fall; they stall only at a jump b with
    # fn(b+) = b and a rising piece on its right.
    for b, _, _, right, _, (_, _, ((_, y0), (_, y1))) in _breakpoints(fn):
        if 0 < b == right and y1 > y0:
            return PropertyCheck("iterate-decay", False, b, f"fn({b}+) = {b} on a rising piece: iterates tend to {b}")
    return PropertyCheck("iterate-decay", True)


def check_boyd_wong_properties(fn: ComparisonFn, grid=None) -> ComparisonReport:
    """Zero at zero, below the identity and upper semicontinuous, each
    decided exactly. `grid` is ignored; it stays for callers that pass one."""
    return ComparisonReport(fn.name, (_check_zero_at_zero(fn), _check_below_identity(fn), _check_usc(fn)))


def check_matkowski_properties(fn: ComparisonFn, grid=None) -> ComparisonReport:
    """Nondecreasing with iterates tending to zero, plus the below-identity
    and zero-at-zero consequences, each decided exactly. `grid` is ignored."""
    monotone, below = _check_monotone(fn), _check_below_identity(fn)
    return ComparisonReport(fn.name, (monotone, _check_iterate_decay(fn, below, monotone), below,
                                      _check_zero_at_zero(fn)))

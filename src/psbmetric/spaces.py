"""Carriers, triple-distance evaluators, and axiom checking.

A space bundles a carrier (explicit finite point list, or isolated points
plus truncated real intervals), a three-argument distance, and a relaxation
coefficient t >= 1. Validity against an axiom set is a checked property, not
a construction guarantee, so deliberately broken tables are representable
for counterexample work. Every axiom verdict compares true values (see
numerics).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from operator import and_, eq, getitem, not_
from typing import Callable, Iterator

from .errors import (
    DistanceOverflow,
    IncompleteTable,
    InfeasibleExhaustive,
    InvalidArgument,
    NegativeValue,
    ParseError,
    PsbmError,
    UnknownBuiltin,
    UnknownPoint,
)
from .numerics import exact_value, finite_span, point_label, point_sort_key, rounding_bound

Point = int | float | str

DEFAULT_SAMPLE_COUNT = 32
DEFAULT_REGION_BOUND = 64


# --------------------------------------------------------------------------
# Carriers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteCarrier:
    """Explicit finite point list, duplicates rejected."""

    points: tuple

    def __post_init__(self):
        if not self.points:
            raise InvalidArgument("carrier must contain at least one point")
        if len(set(self.points)) != len(self.points):
            raise InvalidArgument("carrier points must be distinct")


@dataclass(frozen=True)
class RegionCarrier:
    """Isolated points plus real intervals.

    Intervals are (lo, hi) pairs with hi = None for an unbounded ray;
    sampling and witness searches truncate unbounded ends at `bound`.
    """

    isolated: tuple = ()
    intervals: tuple = ()
    bound: int | float = DEFAULT_REGION_BOUND

    def truncated_intervals(self, cap=None):
        cap = self.bound if cap is None else min(cap, self.bound)
        spans = []
        for lo, hi in self.intervals:
            hi = cap if hi is None else min(hi, cap)
            if hi >= lo:
                spans.append((lo, hi))
        return spans


Carrier = FiniteCarrier | RegionCarrier


# --------------------------------------------------------------------------
# Triple metrics
# --------------------------------------------------------------------------

class _Pointwise:
    """plane and row by the metric's own pointwise calls, made in (q, r)
    order: an error is the one met at the first (q, r) that raises (and
    none when qs or rs is empty)."""

    def plane(self, p, qs: list, rs: list) -> list:
        """[[self(p, q, r) for r in rs] for q in qs]."""
        return [[self(p, q, r) for r in rs] for q in qs]

    def row(self, p, q, rs: list) -> list:
        """[self(p, q, r) for r in rs]: the plane of the one q."""
        return self.plane(p, (q,), rs)[0]

    def row_spans(self, qs: list, rs: list):
        """None: no bound on a row short of making it."""
        return None


@dataclass(frozen=True)
class TabulatedMetric(_Pointwise):
    """Distance given by an explicit value per ordered triple of points,
    stored as rows: rows[i][j][k] = S(points[i], points[j], points[k]).
    Its planes and rows are pointwise calls."""

    points: tuple
    rows: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(self.points)})

    def __call__(self, p, q, r):
        index = self._index
        try:
            return self.rows[index[p]][index[q]][index[r]]
        except KeyError:
            x = next(x for x in (p, q, r) if x not in index)
            raise UnknownPoint(f"point {point_label(x)} is not in the carrier") from None

    @property
    def table(self) -> dict:
        """The value per ordered triple, as a new dict in carrier order."""
        return {
            (p, q, r): self.rows[i][j][k]
            for (i, p), (j, q), (k, r) in itertools.product(enumerate(self.points), repeat=3)
        }


@dataclass(frozen=True)
class RuleMetric(_Pointwise):
    """Distance given by a named analytic rule, with an optional plane rule:
    plane_rule(p, qs, rs) must equal [[rule(p, q, r) for r in rs] for q in
    qs] in every value and type whenever it returns. It may raise where the
    pointwise calls do not (a power taken ahead of the branch that needs
    it, a check of a whole row): on any error, and with no plane rule, the
    plane is made by pointwise calls. A plane holds len(qs) * len(rs)
    values.

    The optional span rule bounds the rows of a plane without making them:
    span_rule(qs, rs) returns None or a function of p, which returns None
    or (lows, highs), two lists of finite values aligned with qs, or
    raises. When it returns them, plane(p, qs, rs) returns (raises
    nothing) and lows[i] <= v <= highs[i] for each value v of its row i.
    On any error, and with no span rule, there is no bound (see
    `row_spans`)."""

    name: str
    rule: Callable
    plane_rule: Callable | None = None
    span_rule: Callable | None = None

    def __call__(self, p, q, r):
        try:
            return self.rule(p, q, r)
        except OverflowError:
            labels = ", ".join(point_label(x) for x in (p, q, r))
            raise DistanceOverflow(f"{self.name}({labels}) overflows the float range") from None

    def plane(self, p, qs: list, rs: list) -> list:
        """[[self(p, q, r) for r in rs] for q in qs], from the plane rule
        when it returns."""
        if self.plane_rule is not None:
            try:
                return self.plane_rule(p, qs, rs)
            except Exception:
                pass
        return super().plane(p, qs, rs)

    def row_spans(self, qs: list, rs: list):
        """The span rule's function of p for (qs, rs), which may also give
        None or raise for a p: no bound on that plane. None with no span
        rule, or when it gives none for (qs, rs) or raises."""
        if self.span_rule is None:
            return None
        try:
            return self.span_rule(qs, rs)
        except Exception:
            return None


def quintic(p, q, r):
    """Fifth-power distance: p^5 when all equal, 2(p^5+r^5) when p=q only,
    p^5+q^5+r^5 otherwise. Integer points stay in exact integer arithmetic;
    a float power or sum beyond the float range raises OverflowError."""
    if p == q == r:
        d = p ** 5
    elif p == q:
        d = 2 * (p ** 5 + r ** 5)
    else:
        d = p ** 5 + q ** 5 + r ** 5
    if abs(d) == math.inf:
        raise OverflowError("a fifth-power distance overflows the float range")
    return d


def _row_ends(p5, base, lo, hi):
    """The least and greatest sums of a quintic plane's row whose r^5 lie
    in [lo, hi]: 2(p^5 + r^5) in the row of q = p (base None) and base +
    r^5, base = p^5 + q^5, in any other, added as quintic adds them. Float
    addition is monotone, so every sum of the row lies between the two.
    OverflowError unless -inf < low <= high < inf (nan, which min and max
    may return, included)."""
    if base is None:
        low, high = 2 * (p5 + lo), 2 * (p5 + hi)
    else:
        low, high = base + lo, base + hi
    if not -math.inf < low <= high < math.inf:
        raise OverflowError("a fifth-power distance overflows the float range")
    return low, high


def _quintic_plane(p, qs, rs):
    """[[quintic(p, q, r) for r in rs] for q in qs] with p^5 taken once, the
    r^5 once per plane and p^5 + q^5 once per q; the sums add left to right,
    as quintic's do. A row whose `_row_ends` with the least and the greatest
    r^5 raise OverflowError raises it, also where quintic does not, and
    RuleMetric.plane then makes the plane by pointwise calls."""
    p5 = p ** 5
    r5s = [r ** 5 for r in rs]
    lo, hi = (min(r5s), max(r5s)) if r5s else (0, 0)
    plane = []
    for q in qs:
        if p == q:
            _row_ends(p5, None, lo, hi)
            row = [p5 if q == r else 2 * (p5 + r5) for r, r5 in zip(rs, r5s)]
        else:
            base = p5 + q ** 5
            _row_ends(p5, base, lo, hi)
            row = [base + r5 for r5 in r5s]
        plane.append(row)
    return plane


# An int of at most this size, and the sum of four such, is a float exactly.
_EXACT_INT = 2 ** 51


def _quintic_row_spans(qs, rs):
    """A function of p giving (lows, highs), the least and greatest value
    of each row of _quintic_plane(p, qs, rs), each O(1) after an O(len(qs)
    + len(rs)) pass per p; None when qs or rs is empty or a fifth power of
    qs or rs fails `_exact_powers`. The fifth powers of qs and rs, and
    their check, are made once for every p (the grid walk's qs and rs are
    one list). The function gives None when p^5 fails `_exact_powers` or a
    bound is not finite. A row of q != p spans (p^5 + q^5) + the least and
    the greatest r^5, and the row of q = p spans p^5 at r = p and 2(p^5 +
    r^5) at the r != p. Each bound is a value of the row, so their least
    and greatest are those of the plane; with finite bounds every value is
    finite, so RuleMetric.plane raises nothing.

    The bounds hold because rounded addition and doubling are monotone in
    each operand. That needs one arithmetic: an int sum is exact and a
    mixed one rounded, and the two are not monotone against each other
    (2^53 + 1 + 0 is 2^53 + 1, and 2^53 + 1 + 0.0 is 2^53). Under
    `_exact_powers`, every int sum of up to four fifth powers is a float
    exactly, so each value and bound is the one float arithmetic gives."""
    r5s = [r ** 5 for r in rs]
    q5s = r5s if qs is rs else [q ** 5 for q in qs]
    if not (q5s and r5s and _exact_powers(q5s) and _exact_powers(r5s)):
        return None
    lo, hi = min(r5s), max(r5s)
    # The positions of each q, for the rows of q = p: equal points share a key.
    where = {}
    for i, q in enumerate(qs):
        where.setdefault(q, []).append(i)

    def spans(p):
        p5 = p ** 5
        if not _exact_powers([p5]):
            return None
        bases = [p5 + q5 for q5 in q5s]
        lows, highs = [base + lo for base in bases], [base + hi for base in bases]
        at = where.get(p, ())
        if at:
            others = [r5 for r, r5 in zip(rs, r5s) if r != p]
            ends = list(_row_ends(p5, None, min(others), max(others))) if others else []
            if len(others) < len(rs):
                ends.append(p5)
            for i in at:
                lows[i], highs[i] = min(ends), max(ends)
        # No nan: each sum adds finite fifth powers, so only an end can overflow.
        if not (-math.inf < min(lows) and max(highs) < math.inf):
            return None
        return lows, highs

    return spans


def _exact_powers(powers) -> bool:
    """Whether every fifth power is a finite float or an int of magnitude
    at most 2^51 (a Fraction, or any other type, is neither); the finite
    span and the absence of nan are `finite_span`'s."""
    kinds = set(map(type, powers))
    span = finite_span(powers) if kinds <= {int, float} else None
    if span is None:
        return False
    lo, hi = span
    return int not in kinds or max(-lo, hi) <= _EXACT_INT or all(abs(v) <= _EXACT_INT for v in powers if type(v) is int)


@dataclass(frozen=True)
class PartialSbSpace:
    carrier: Carrier
    metric: TabulatedMetric | RuleMetric
    coefficient: int | float = 1

    def __post_init__(self):
        if not self.coefficient >= 1:  # nan included
            raise InvalidArgument("coefficient must be >= 1")


def exhaustive_points(space: PartialSbSpace) -> tuple:
    if isinstance(space.carrier, FiniteCarrier):
        return space.carrier.points
    raise InfeasibleExhaustive("exhaustive enumeration needs a finite carrier")


def require_point(space: PartialSbSpace, x):
    """Return x, or raise UnknownPoint if it is not a carrier point. A region
    carrier holds the finite ints and floats (no bools) equal to an isolated
    point or inside an interval, so an unbounded ray stops short of inf; its
    truncation bound does not apply."""
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        inside = x in carrier.points
    else:
        inside = type(x) in (int, float) and -math.inf < x < math.inf and (
            x in carrier.isolated
            or any(lo <= x and (hi is None or x <= hi) for lo, hi in carrier.intervals)
        )
    if not inside:
        raise UnknownPoint(f"point {point_label(x)} is not in the carrier")
    return x


def sample_carrier(space: PartialSbSpace, count: int = DEFAULT_SAMPLE_COUNT, seed: int = 0) -> list:
    """Deterministic point sample of the carrier.

    Finite carriers return all their points (count ignored). Region carriers
    return every isolated point plus a grid+jitter sample of the truncated
    continuous parts, count points in total; repeatable for fixed (count, seed).
    """
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        return list(carrier.points)
    rng = random.Random(f"psbm:sample:{seed}")
    points = list(carrier.isolated)
    spans = carrier.truncated_intervals()
    remaining = max(0, count - len(points))
    if not spans or remaining == 0:
        return points
    total = sum(hi - lo for lo, hi in spans)
    if total == 0:
        return points + [lo for lo, _ in spans]
    counts = [max(1, round(remaining * (hi - lo) / total)) for lo, hi in spans[:-1]]
    counts.append(max(1, remaining - sum(counts)))
    for (lo, hi), m in zip(spans, counts):
        width = (hi - lo) / m
        for cell in range(m):
            points.append(lo + (cell + rng.uniform(0.1, 0.9)) * width)
    return points


# --------------------------------------------------------------------------
# Axiom sets
# --------------------------------------------------------------------------

class AxiomSet(Enum):
    S_METRIC = "s-metric"
    PARTIAL_S = "partial-s"
    SB_METRIC = "sb-metric"
    PARTIAL_SB = "partial-sb"


@dataclass(frozen=True)
class Violation:
    axiom: int
    witness: tuple
    lhs: float
    rhs: float


@dataclass(frozen=True)
class AxiomReport:
    variant: AxiomSet
    checked_count: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.value,
            "checked": self.checked_count,
            "passed": self.passed,
            "violations": [
                {
                    "axiom": v.axiom,
                    "witness": [point_label(x) for x in v.witness],
                    "lhs": v.lhs,
                    "rhs": v.rhs,
                }
                for v in self.violations
            ],
        }


# (axiom index, tuple arity, kind, options); exactly the listed axioms per
# variant. identity (partial, pair): p = q = r (p = q if `pair`) iff S(p,q,r)
# equals 0 (each of S(p,p,p), S(q,q,q), S(r,r,r) if `partial`). self-min:
# S(p,p,p) <= S(p,q,r). symmetry: S(p,p,q) = S(q,q,p). rectangle (partial,
# scaled): S(p,q,r) <= t * (S(p,p,s) + S(q,q,s) + S(r,r,s)) - S(s,s,s), with
# t only if `scaled` and S(s,s,s) only if `partial`.
_AXIOMS = {
    AxiomSet.S_METRIC: (
        (1, 3, "identity", (False, False)),
        (2, 4, "rectangle", (False, False)),
    ),
    AxiomSet.PARTIAL_S: (
        (1, 3, "identity", (True, True)),
        (2, 3, "self-min", ()),
        (3, 2, "symmetry", ()),
        (4, 4, "rectangle", (True, False)),
    ),
    AxiomSet.SB_METRIC: (
        (1, 3, "identity", (False, False)),
        (2, 2, "symmetry", ()),
        (3, 4, "rectangle", (False, True)),
    ),
    AxiomSet.PARTIAL_SB: (
        (1, 3, "identity", (True, False)),
        (2, 3, "self-min", ()),
        (3, 2, "symmetry", ()),
        (4, 4, "rectangle", (True, True)),
    ),
}


def check_axioms(
    space: PartialSbSpace,
    variant: AxiomSet = AxiomSet.PARTIAL_SB,
    sample_count: int | None = None,
    seed: int | None = None,
) -> AxiomReport:
    """Check every axiom of `variant` over exhaustive or sampled point tuples.

    sample_count None means exhaustive enumeration (finite carriers only),
    which takes no seed; otherwise that many quadruples are drawn from a
    deterministic carrier sample (seed default 0) and lower-arity axioms see
    the quadruples' leading coordinates, so any sampled violation is also
    found by the exhaustive scan.

    The verdicts come from one walk over tables of the point set, which
    both modes feed (see _check_by_tables), and every one is exact; the
    report keeps the first lhs and rhs of each violated tuple, sorted by
    axiom and then by tuple. A
    rectangle violation whose right-hand side overflows the float range has
    no float to report and raises DistanceOverflow, naming the axiom and the
    tuple: the first such, triple by triple (exhaustive) or quadruple by
    quadruple in draw order (sampled).
    """
    axioms = _AXIOMS[variant]
    if sample_count is None:
        if seed is not None:
            raise InvalidArgument("seed has no effect on an exhaustive check")
        pts = exhaustive_points(space)
        checked = sum(len(pts) ** arity for _, arity, _, _ in axioms)
    else:
        if sample_count < 1:
            raise InvalidArgument("sample_count must be >= 1")
        seed = 0 if seed is None else seed
        pts = sample_carrier(space, seed=seed)
        checked = len(axioms) * sample_count
    found = {}
    for key, value in _check_by_tables(space, axioms, pts, sample_count, seed):
        found.setdefault(key, value)
    violations = tuple(
        Violation(index, tpl, lhs, rhs)
        for (index, tpl), (lhs, rhs) in sorted(
            found.items(),
            key=lambda kv: (kv[0][0], tuple(point_sort_key(x) for x in kv[0][1])),
        )
    )
    return AxiomReport(variant, checked, violations)


# Sampled tuples are drawn and checked this many at a time.
SAMPLE_BLOCK = 1024


def sampled_positions(rng: random.Random, pool_size: int, arity: int, count: int) -> Iterator[list]:
    """`count` random tuples of `arity` positions in a pool of `pool_size`
    points, in blocks of at most SAMPLE_BLOCK tuples: each block is `arity`
    aligned lists, the first position of each tuple, the second, and so on.

    The positions are exactly those that `arity` calls of rng.choice(pool)
    per tuple select, in the same order, and rng is left in the same state:
    each block's positions are one _draw_below."""
    if pool_size < 1:
        raise InvalidArgument("sample must be nonempty")
    for start in range(0, count, SAMPLE_BLOCK):
        drawn = _draw_below(rng, pool_size, arity * min(SAMPLE_BLOCK, count - start))
        yield [drawn[a::arity] for a in range(arity)]


def _draw_below(rng: random.Random, n: int, need: int) -> list:
    """`need` values below n >= 1, exactly those of `need` calls of
    rng.randrange(n) (and of rng.choice over n points), in the same order,
    leaving rng in the same state: with k = n.bit_length(), each is the first
    rng.getrandbits(k) below n, that is the top k bits of the next 32-bit
    word of the Mersenne Twister. A round draws the shortfall of m values as
    m words at once: rng.getrandbits(32 * m) holds word i at bits
    32i..32i+31, and each word yields at most one value, so no word is drawn
    that the single calls would not draw. For n <= 255 (k <= 8), the k bits
    lie in the top byte of each little-endian word, and bytes.translate
    shifts them down and deletes the rejected ones in C. A larger n (only a
    large finite carrier's pool) maps rng.getrandbits(k) over the shortfall:
    a bulk decode of k > 8 bits, shifting an array of the words, measured
    slower (3.6 ms against 2.8 ms for 40,000 words at k = 10; Python 3.11 on
    a 2-core x86-64 VM)."""
    bits = n.bit_length()
    drawn = []
    if bits <= 8:
        table, rejected = _byte_decoder(n)
        while len(drawn) < need:
            m = need - len(drawn)
            drawn += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(table, rejected)
    else:
        while len(drawn) < need:
            drawn += filter(n.__gt__, map(rng.getrandbits, itertools.repeat(bits, need - len(drawn))))
    return drawn


@functools.cache
def _byte_decoder(n: int) -> tuple:
    """The two bytes.translate arguments that turn the top bytes of 32-bit
    words into values below n <= 255: the table that shifts a byte down to
    its top n.bit_length() bits, and the bytes whose value is n or more."""
    shift = 8 - n.bit_length()
    return bytes(v >> shift for v in range(256)), bytes(v for v in range(256) if v >> shift >= n)


def _check_by_tables(space, axioms, pts, sample_count, seed) -> Iterator[tuple]:
    """Yield ((axiom, tuple), (lhs, rhs)) per violation, in walk order:
    triple by triple (s by s within a row) when exhaustive, quadruple by
    quadruple in draw order when sampled. A key may come more than once
    (a repeated tuple, a symmetry pair at each of its tuples); its first
    value is the report's. The self-distances S(x,x,x) and the rows
    S(x,x,s) are tabulated once over `pts`, by position: equal points such
    as 3 and 3.0 may give an int and a float distance.

    One loop decides every axiom. It takes position tuples (i, j, k,
    columns) and evaluates S(p,q,r) once per tuple, then checks identity,
    self-minimality, symmetry (read off the `symmetric` matrix, compared
    once per check) and the rectangle at each s of `columns`, in that
    order. The exhaustive mode feeds it every triple with columns =
    range(n), the whole row of s; the sampled mode feeds it quadruples
    from sampled_positions, and columns is the drawn s alone. Every
    variant's right-hand side is scale * (S(p,p,s) + S(q,q,s) + S(r,r,s))
    - offset[s], scale being t or 1 and offset S(s,s,s) or 0: `1 * x` and
    `x - 0` are x itself, an int or a float alike.

    Every comparison is exact. A right-hand side is summed in floats (in
    ints when every operand is one), and the sum decides when it lies
    farther from the lhs than its rounding bound (numerics.rounding_bound:
    0 on ints, none on a negative or non-finite operand); a whole
    exhaustive row holds at once when its min clears the largest bound.
    Any other, and any whose sum is not finite or overflows, is decided on
    true values by numerics.exact_value. A violation reports the float
    sum; one whose sum overflowed has none to report and raises
    DistanceOverflow in place, naming the axiom and the tuple.

    A sampled block first passes `screen`, over aligned lists. It evaluates
    S(p,q,r) per quadruple (by the rule itself, for a rule metric) and
    clears a quadruple on which the loop would yield nothing: p != q and
    S(p,q,r) unequal to what identity compares it with, S(p,p,p) <=
    S(p,q,r), a symmetric position pair, and check_rectangle's first test.
    The others reach the loop in draw order, so the violations and the
    first error are those of checking every quadruple. A block on which
    the screen raises reaches the loop whole, which meets a metric error
    again at its quadruple.
    """
    dist = space.metric.__call__
    # The screen's evaluator: the loop replays any error it meets.
    evaluate = space.metric.rule if isinstance(space.metric, RuleMetric) else dist
    n = len(pts)
    selfs = [dist(x, x, x) for x in pts]
    pairs = [space.metric.row(x, x, pts) for x in pts]
    roles = {kind: (index, options) for index, _, kind, options in axioms}
    identity, (id_partial, id_pair) = roles["identity"]
    self_min = roles.get("self-min", (None,))[0]
    symmetry = roles.get("symmetry", (None,))[0]
    rectangle, (partial, scaled) = roles["rectangle"]
    scale = space.coefficient if scaled else 1
    offset = selfs if partial else [0] * n
    # value = t * (a + b + c) - o rounds by at most rel * (value + 2 * o) + tiny,
    # and by at most row_err for every (a, b, c, o) of the check.
    rel, tiny = rounding_bound([scale, *offset, *itertools.chain.from_iterable(pairs)])
    try:
        row_err = rel * (3 * scale * max(map(max, pairs), default=0) + max(offset, default=0)) + tiny
    except OverflowError:  # an int beyond the float range times a float
        row_err = math.nan
    # symmetric[i][j]: S(p,p,q) = S(q,q,p) at positions i, j; all True in a
    # variant without the symmetry axiom.
    symmetric = [[True] * n] * n if symmetry is None else [list(map(eq, row, column)) for row, column in zip(pairs, zip(*pairs))]
    asymmetric = not all(map(all, symmetric))

    def check_rectangle(val, i, j, k, m):
        """The rectangle's violation at positions (i, j, k, m), or None."""
        a, b, c, o = pairs[i][m], pairs[j][m], pairs[k][m], offset[m]
        value = None
        try:
            value = scale * (a + b + c) - o
            err = rel * (value + o + o) + tiny  # value inf: err inf, so nan below
            if val <= value - err:
                return None
            violated = val > value + err
        except OverflowError:  # also an int value beyond the float range times a float
            violated = False
        if not violated:
            exact = exact_value(scale, (a, b, c), o)
            if val <= exact:
                return None
            if value is None or not -math.inf < value < math.inf and -math.inf < exact < math.inf:
                labels = ", ".join(point_label(pts[x]) for x in (i, j, k, m))
                raise DistanceOverflow(f"axiom {rectangle} at ({labels}) overflows the float range")
        return (rectangle, (pts[i], pts[j], pts[k], pts[m])), (val, value)

    def screen(block):
        """The quadruples of a sampled block that the loop must see."""
        I, J, K, M = block
        try:
            P, Q, R = [list(map(pts.__getitem__, X)) for X in (I, J, K)]
            vals = list(map(evaluate, P, Q, R))
            SP = list(map(selfs.__getitem__, I))
            # Clear: p != q and S(p,q,r) does not agree (identity),
            # S(p,p,p) <= S(p,q,r) (also where self-minimality is no axiom:
            # a tuple not cleared is only checked in full), and the
            # rectangle's first test in check_rectangle.
            clear = [
                p != q and val != z and sp <= val <= (value := scale * (a[m] + b[m] + c[m]) - o) - (rel * (value + o + o) + tiny)
                for p, q, val, z, sp, a, b, c, m, o in zip(
                    P, Q, vals, SP if id_partial else itertools.repeat(0), SP,
                    *[map(pairs.__getitem__, X) for X in (I, J, K)], M, map(offset.__getitem__, M),
                )
            ]
            if asymmetric:
                clear = map(and_, clear, map(getitem, map(symmetric.__getitem__, I), J))
            return [(i, j, k, (m,)) for i, j, k, m in itertools.compress(zip(I, J, K, M), map(not_, clear))]
        except Exception:
            return zip(I, J, K, zip(M))

    if sample_count is not None:
        rng = random.Random(f"psbm:axioms:{seed}")
        tuples = itertools.chain.from_iterable(map(screen, sampled_positions(rng, n, 4, sample_count)))
    else:
        positions = range(n)
        tuples = itertools.product(positions, positions, positions, (positions,))
    summed = None
    for i, j, k, columns in tuples:
        p, q, r = pts[i], pts[j], pts[k]
        val, sp = dist(p, q, r), selfs[i]
        if id_partial:
            agrees = val == sp and val == selfs[j] and val == selfs[k]
        else:
            agrees = val == 0
        if (p == q if id_pair else p == q == r) != agrees:
            yield (identity, (p, q, r)), (val, sp if id_partial else 0)
        if self_min is not None and not sp <= val:
            yield (self_min, (p, q, r)), (sp, val)
        if not symmetric[i][j]:
            yield (symmetry, (p, q)), (pairs[i][j], pairs[j][i])
        if sample_count is None:
            try:
                if summed != (i, j):  # S(p,p,s) + S(q,q,s) serves every r
                    summed, sums = (i, j), [a + b for a, b in zip(pairs[i], pairs[j])]
                if val <= min([scale * (ab + c) - o for ab, c, o in zip(sums, pairs[k], offset)]) - row_err:
                    continue
            except OverflowError:
                pass
        for m in columns:
            if violation := check_rectangle(val, i, j, k, m):
                yield violation


# --------------------------------------------------------------------------
# Builtin spaces
# --------------------------------------------------------------------------

_TWO_POINT_A_TABLE = {
    (1, 1, 1): 8, (1, 1, 2): 8, (2, 2, 1): 8,
    (1, 2, 1): 8, (2, 1, 1): 8, (1, 2, 2): 8,
    (2, 2, 2): 4, (2, 1, 2): 4,
}

_TWO_POINT_B_TABLE = {
    (1, 1, 1): 4, (2, 2, 2): 4,
    (1, 1, 2): 8, (2, 2, 1): 8, (1, 2, 1): 8,
    (2, 1, 1): 8, (1, 2, 2): 8, (2, 1, 2): 8,
}

BUILTIN_SPACES = ("quintic_ray", "two_point_a", "two_point_b", "quintic_gap")


def builtin_space(name: str) -> PartialSbSpace:
    """Return a registered space: quintic_ray, two_point_a, two_point_b,
    or quintic_gap. All carry coefficient t = 1."""
    if name == "quintic_ray":
        return PartialSbSpace(
            RegionCarrier(intervals=((1, None),)),
            RuleMetric("quintic", quintic, _quintic_plane, _quintic_row_spans),
        )
    if name == "quintic_gap":
        return PartialSbSpace(
            RegionCarrier(isolated=(0, 3), intervals=((4, None),)),
            RuleMetric("quintic", quintic, _quintic_plane, _quintic_row_spans),
        )
    if name == "two_point_a":
        return tabulated_space((1, 2), _TWO_POINT_A_TABLE)
    if name == "two_point_b":
        return tabulated_space((1, 2), _TWO_POINT_B_TABLE)
    raise UnknownBuiltin(f"no builtin space named {name!r}")


def tabulated_space(points, table, coefficient=1) -> PartialSbSpace:
    """Build a finite tabulated space, requiring a value for every ordered
    triple of carrier points and no entry for any other point. Axiom
    validity is NOT checked here; use check_axioms."""
    points = tuple(points)
    carrier = FiniteCarrier(points)
    try:
        rows = tuple(tuple(tuple([table[(p, q, r)] for r in points]) for q in points) for p in points)
    except KeyError as exc:
        labels = ", ".join(point_label(x) for x in exc.args[0])
        raise IncompleteTable(f"no table entry for triple ({labels})") from None
    if len(table) != len(points) ** 3:
        for tpl in table:
            for x in tpl:
                if x not in carrier.points:
                    raise UnknownPoint(f"point {point_label(x)} is not in the carrier")
    return PartialSbSpace(carrier, TabulatedMetric(points, rows), coefficient)


# --------------------------------------------------------------------------
# Space files
# --------------------------------------------------------------------------

def parse_point(token: str):
    """Integer if the token looks like one, then float, else a string label."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        return token


def _parse_number(token: str, where: str):
    value = parse_point(token)
    if isinstance(value, str) or not -math.inf < value < math.inf:
        raise ParseError(f"{where}: {token!r} is not a finite number")
    return value


def load_tabulated_space(text: str) -> PartialSbSpace:
    """Parse the line-based space-file format.

    Line 1: `points: <label> ...`; line 2: `coefficient: <real>`; every other
    non-comment line `<i> <j> <k> <value>`. `#` starts a comment. Each ordered
    triple must appear exactly once; missing triples are an error.
    """
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(stripped)
    if len(lines) < 2:
        raise ParseError("space file needs a points line and a coefficient line")

    head = lines[0]
    if not head.startswith("points:"):
        raise ParseError("first line must start with 'points:'")
    labels = [parse_point(tok) for tok in head[len("points:"):].split()]
    if not labels:
        raise ParseError("empty point list")
    if len(set(labels)) != len(labels):
        raise ParseError("duplicate carrier points")

    coeff_line = lines[1]
    if not coeff_line.startswith("coefficient:"):
        raise ParseError("second line must start with 'coefficient:'")
    coefficient = _parse_number(coeff_line[len("coefficient:"):].strip(), "coefficient")
    if coefficient < 1:
        raise ParseError("coefficient must be >= 1")

    known = set(labels)
    table = {}
    for line in lines[2:]:
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(f"expected '<i> <j> <k> <value>', got {line!r}")
        triple = tuple(parse_point(tok) for tok in tokens[:3])
        for x in triple:
            if x not in known:
                raise ParseError(f"unknown point {point_label(x)} in line {line!r}")
        value = _parse_number(tokens[3], f"value in line {line!r}")
        if value < 0:
            raise NegativeValue(f"negative distance in line {line!r}")
        if triple in table:
            raise ParseError(f"duplicate triple in line {line!r}")
        table[triple] = value
    return tabulated_space(labels, table, coefficient)


# --------------------------------------------------------------------------
# Random tables (search fodder for property tests)
# --------------------------------------------------------------------------

def random_tabulated_space(rng: random.Random, labels=(1, 2, 3)) -> PartialSbSpace:
    """One random integer table over `labels`, symmetric in the (p,p,q) slots.

    Biased so most draws satisfy the partial-Sb axioms, but not guaranteed
    valid; pair with check_axioms.

    Each self-distance S(x,x,x) is rng.randint(0, 5), in label order, and
    every other entry, in product order, rng.randint(floor, floor + span)
    with floor the largest self-distance and span = max(floor, 3), except
    that S(q,q,p) repeats S(p,p,q) when p comes before q. Each phase is one
    _draw_below, so the tables and the generator state are those of one
    randint call per drawn entry.
    """
    labels = tuple(labels)
    selfs = dict(zip(labels, _draw_below(rng, 6, len(labels))))
    floor = max(selfs.values())
    span = max(floor, 3)
    sources, free = _table_layout(len(selfs))
    values = list(selfs.values()) + [floor + v for v in _draw_below(rng, span + 1, free)]
    carrier = FiniteCarrier(labels)  # raises on repeated labels, after the same draws
    n = len(labels)
    lines = [tuple(map(values.__getitem__, sources[k:k + n])) for k in range(0, n ** 3, n)]
    rows = tuple(tuple(lines[k:k + n]) for k in range(0, n * n, n))
    return PartialSbSpace(carrier, TabulatedMetric(labels, rows))


@functools.cache
def _table_layout(n: int) -> tuple:
    """For random_tabulated_space over n labels: the position of each
    entry's value among the n self-distances and then the free entries, in
    product order of the (i, j, k) triples, and the number of free entries."""
    sources = {}
    free = n
    for tpl in itertools.product(range(n), repeat=3):
        i, j, k = tpl
        if i == j == k:
            sources[tpl] = i
        elif i == j and (k, k, i) in sources:
            sources[tpl] = sources[(k, k, i)]
        else:
            sources[tpl] = free
            free += 1
    return tuple(sources.values()), free - n


def _passes_partial_sb(space: PartialSbSpace) -> bool:
    """check_axioms(space, AxiomSet.PARTIAL_SB).passed, decided at the first
    violation: the walk is abandoned there. It may return False where
    check_axioms would raise on a later tuple, which no table of
    random_tabulated_space makes it do."""
    return next(_check_by_tables(space, _AXIOMS[AxiomSet.PARTIAL_SB], exhaustive_points(space), None, None), None) is None


def random_valid_space(rng: random.Random, labels=(1, 2, 3), max_attempts: int = 10000) -> PartialSbSpace:
    """Draw random tables until one passes the exhaustive partial-Sb check,
    whose walk is abandoned at a table's first violation (see
    _passes_partial_sb); PsbmError when none does within `max_attempts`
    draws."""
    for _ in range(max_attempts):
        space = random_tabulated_space(rng, labels)
        if _passes_partial_sb(space):
            return space
    raise PsbmError(f"no valid random table found within {max_attempts} attempts")

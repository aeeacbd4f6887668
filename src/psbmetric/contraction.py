"""Interpolative contraction inequalities: evaluation and certification.

The right-hand side is a comparison function applied to a product of five
distance factors raised to exponents p, q, r, s and 1-p-q-r-s. A certificate
checks lhs <= rhs over every generated triple whose points are not fixed by
the map, since the defining inequality is quantified away from fixed points.

`InequalitySides` is the one evaluator of both sides. It evaluates only
dist(a, b, c) and the comparison per triple, a row or a list at a time:
the metric's `row` gives the distances of one (a, b) over every c, and
`_rhs` the comparison of a list of products, reading a ComparisonFn's line
when the whole list lies on one piece; both are bit for bit the pointwise
calls. Every other factor is tabulated once per point, per image S(x), per
(S(a), S(b)) or per (S(a), b), whichever it depends on.
`certify` walks the a-planes of its points, n^2 triples each, and
evaluates each plane an (a, b) row at a time, reducing each row's margins
at C level. A sampled certificate walks the planes of its pool that hold
a drawn triple, counting and evaluating only the drawn triples. Every
evaluation raises the first error met in one stage order: a plane's
factor rows (the fifth-factor rows, the distances and the lhs rows), then
row by row the first negative distance, the products, and each spec's
comparison followed by its margins.

The walk decides most planes, and most rows of the rest, from a
bound before making their products (interval analysis, Moore 1966). A
plane's lhs rows depend on a only through S(a), so they are made, each
with its `numerics.finite_span`, once per image. A fifth-factor row of
(S(a), b) is bounded, without being made, from the least and greatest
entry of the pair row dist(S(b), S(b), .) (`_fifth_bounds`), and made
only when its row is evaluated. The distances are bounded by the metric's
`row_spans`: on the quintic builtins the plane's bound takes O(1) and its
rows' bounds, made only for a plane that its own bound does not clear,
O(1) a row, each from one pass over the walk's fifth powers; when that
gives none, they are made and bounded by each row's own `finite_span`. A
finite span needs finite values and no nan, not a finite sum. The products
of the factors' minima and maxima over a block of rows (`_bounds`), with
d^p and the fifth factor's bounds widened by (1 -+ 2^-48), then bound
every product of the block below and above. A plane whose bound keeps
every rhs above every lhs, and every margin above each spec's running
minimum, is cleared: it cannot change a report, its triples count in
triples_checked unevaluated, and neither its products nor, under the
bounds, its distances and fifth-factor rows are made. In a plane that is
not cleared, but whose bound lies on one piece of each spec's comparison,
so that nothing in it raises, each row is tried under the same test
against the running minima that the rows before it leave; any other
plane evaluates every row. The
widening assumes a pow that is faithfully rounded (an error below 1 ulp),
which Python does not promise. The case table skips, by the same bound,
the (a, b) rows that cannot change a subcase's minimum
(`reproduce_case_table`).

Certificates whose specs differ only in the comparison share one walk
(`_certificates`, as the reproduction script's two do): each row is
evaluated up to its products, and their min and max, once; each spec
then makes its own rhs list, margin reduction and failure list, so that
every report is bit for bit that of its own certify call. `_rhs`, the one
maker of an rhs list (for the walk and the case table), reads it off one
piece's line, or else goes value by value. The
case table walks each a-plane once and files each c of each of its (a, b)
rows into its subcase by the row's equality pattern. `ray_grid` is the one
evenly spaced grid on a region carrier's ray, used by the case table, by
`psbm certify --grid` and by the reproduction script.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, product, repeat
from operator import itemgetter, le, lt, ne, sub
from typing import Callable, NamedTuple

from .comparison import ComparisonFn, _span, builtin_comparison
from .errors import DistanceOverflow, InvalidArgument, InvalidExponents, PsbmError, UnknownBuiltin, UnknownPoint, WrongSpaceShape
from .numerics import finite_span, point_label, point_sort_key
from .spaces import PartialSbSpace, RegionCarrier, _exact_powers, require_point, sample_carrier, sampled_positions


@dataclass(frozen=True)
class SelfMap:
    name: str
    rule: object

    def __call__(self, x):
        return self.rule(x)

    def require_image(self, space: PartialSbSpace, x, image) -> None:
        """Raise UnknownPoint naming the map, x and its image S(x) unless
        the image is a point of the space's carrier."""
        try:
            require_point(space, image)
        except UnknownPoint:
            raise UnknownPoint(
                f"map {self.name} sends {point_label(x)} to {point_label(image)}, which is not in the carrier"
            ) from None


def _paper_S(a):
    return 0 if a == 0 or a == 3 else 3


def builtin_map(name: str) -> SelfMap:
    if name == "paper_S":
        return SelfMap("paper_S", _paper_S)
    if name == "identity":
        return SelfMap("identity", lambda x: x)
    raise UnknownBuiltin(f"no builtin self-map named {name!r}")


def map_from_table(table: dict, name: str = "tabulated") -> SelfMap:
    mapping = dict(table)

    def rule(x):
        try:
            return mapping[x]
        except KeyError:
            raise UnknownPoint(f"map undefined at {point_label(x)}") from None

    return SelfMap(name, rule)


@dataclass(frozen=True)
class InterpolativeSpec:
    p: float
    q: float
    r: float
    s: float
    comparison: ComparisonFn
    mapping: SelfMap

    @property
    def residual(self) -> float:
        return 1 - (self.p + self.q + self.r + self.s)


def validate_exponents(spec: InterpolativeSpec) -> None:
    exps = (spec.p, spec.q, spec.r, spec.s)
    if any(not 0 < e < 1 for e in exps) or not sum(exps) < 1:
        raise InvalidExponents(
            f"exponents {exps} must each lie in (0,1) and sum below 1"
        )


def standard_spec(matkowski: bool = False) -> InterpolativeSpec:
    """The worked-example hypothesis: p=q=r=s=1/5 with the paper_S map and
    paper_tau (or half when certifying the Matkowski inequality)."""
    comparison = builtin_comparison("half" if matkowski else "paper_tau")
    return InterpolativeSpec(0.2, 0.2, 0.2, 0.2, comparison, builtin_map("paper_S"))


def _power(base, exponent):
    if base < 0:
        raise PsbmError(f"negative distance factor {base}")
    return base ** exponent


class InequalitySides:
    """Both sides of the interpolative inequality for triples over `points`.

    For a triple (a, b, c), lhs = dist(S(a), S(b), S(c)) and
    rhs = comparison(dist(a,b,c)^p * g(a)^q * g(b)^r * g(c)^s * m^(1-p-q-r-s)),
    with g(x) = dist(x, x, S(x)) and m = (dist(S(a),S(a),b) + dist(S(b),S(b),c)) / 2t.
    `_plane_factors(a)` makes the factor rows of a's plane, and
    `_row_products(a, j, factors)` the lhs and the products of its row
    (a, points[j]) over every c in `points`; the comparison is the caller's
    (`_rhs`). Every image S(x) must be a carrier point (UnknownPoint names
    the map and the first point whose image is not).

    Only dist(a, b, c) and the comparison are evaluated per triple, a row
    or a list at a time (any comparison other than a ComparisonFn value by
    value). The rest is tabulated over `points`, keyed by what it depends on:
    - g(x)^q, g(x)^r and g(x)^s, once per point;
    - dist(S(x), S(x), y), one row over y per distinct image S(x);
    - the lhs, one row over c per distinct (S(a), S(b));
    - the fifth factor m^(1-p-q-r-s), one row over c per distinct (S(a), b),
      since m depends on a only through S(a); a mean m of +inf raises
      DistanceOverflow;
    - for the planes, per image S(a), the lhs rows over c, one per b,
      with the `finite_span` of each row and of them all, and the bounds
      of the fifth-factor rows, which are made only where a row is
      evaluated (`_Rows`).
    A row is computed whole when a plane first needs it, so an error in
    any of its entries is raised there, also when the triples evaluated
    have fine entries of their own.

    A plane raises the first error met in one stage order: its factor
    rows, each stage over all of them before the next (the fifth-factor
    rows, the distances, one metric row per b and so in (b, c) order, and
    the lhs rows: `_plane_factors`), then row by row the first negative
    distance and the products (`_row_products`), and the comparison of the
    row's product list. Given how often a sampled certificate draws each
    entry of a row, `_row_products` makes the products of the drawn
    entries alone.
    """

    def __init__(self, space: PartialSbSpace, spec: InterpolativeSpec, points):
        validate_exponents(spec)
        self.points = points = list(points)
        self._metric = metric = space.metric
        self._comparison = spec.comparison
        self._p, self._e5 = spec.p, spec.residual
        self._two_t = 2 * space.coefficient
        self._index = {x: k for k, x in enumerate(points)}
        self._image = image = {x: spec.mapping(x) for x in points}
        # Each distinct image is checked once, at the first point that has it;
        # keyed by type too, since a bool image equals an int one.
        firsts = {}
        for x, ix in image.items():
            firsts.setdefault((type(ix), ix), x)
        for (_, ix), x in firsts.items():
            spec.mapping.require_image(space, x, ix)
        self._images = [image[c] for c in points]
        gap = {x: metric(x, x, image[x]) for x in points}
        self._fq = {x: _power(gap[x], spec.q) for x in points}
        self._fr = {x: _power(gap[x], spec.r) for x in points}
        self._fs = [_power(gap[x], spec.s) for x in points]
        self._g_spans = finite_span(list(self._fr.values())), finite_span(self._fs)
        # g(b)^r's span on its own, per b, for the rows.
        self._fr_spans = [finite_span([self._fr[b]]) for b in points]
        self._pair = {ix: metric.row(ix, ix, points) for ix in dict.fromkeys(image.values())}
        self._lhs_rows = {}
        self._fifth_rows = {}
        # Per image S(a): the fifth-factor and the lhs rows of a plane, as _Rows.
        self._fifth_planes, self._lhs_planes = {}, {}

    def _lhs_row(self, ia, ib):
        """dist(ia, ib, S(c)) over the points c."""
        row = self._lhs_rows.get((ia, ib))
        if row is None:
            row = self._lhs_rows[(ia, ib)] = self._metric.row(ia, ib, self._images)
        return row

    def _fifth_row(self, ia, b):
        """The fifth factor m^(1-p-q-r-s) over the points c."""
        row = self._fifth_rows.get((ia, b))
        if row is None:
            pair_ab, two_t, e5 = self._pair[ia][self._index[b]], self._two_t, self._e5
            pairs = self._pair[self._image[b]]
            try:
                means = [(pair_ab + pair_bc) / two_t for pair_bc in pairs]
                # With no nan first, min and max see every negative and inf mean.
                fast = 0 <= min(means) and max(means) < math.inf
            except Exception:
                fast = False
            if fast:
                row = [m ** e5 for m in means]
            else:  # raises the first error of the row, mean by mean
                row = []
                for pair_bc in pairs:
                    m = (pair_ab + pair_bc) / two_t
                    if m == math.inf:
                        raise DistanceOverflow("the contraction inequality overflows the float range")
                    row.append(_power(m, e5))
            self._fifth_rows[(ia, b)] = row
        return row

    @cached_property
    def _pair_spans(self):
        """Per image S(x): the `finite_span` of its pair row, None unless
        every entry is a finite float or an int of magnitude at most 2^51
        (`_exact_powers`), so that the means of a fifth-factor row add and
        divide as floats do."""
        return {ix: finite_span(row) if _exact_powers(row) else None for ix, row in self._pair.items()}

    def _fifth_bounds(self, ia):
        """Per b in `points`: (lo, hi) with lo <= v <= hi for every value v
        of `_fifth_row(ia, b)`, or None. The means of the row are (pair_ab
        + pair_bc) / 2t over the pair row of S(b); rounded + and / are
        monotone, and under `_pair_spans` (with 2t passing `_exact_powers`)
        in one arithmetic, so every mean lies between those of the row's
        least and greatest pair_bc. Given them, 0 <= m_lo and m_hi < inf,
        lo and hi are m_lo^e5 and m_hi^e5 `_widened`: this assumes, as the
        bound on d^p does, a pow that is faithfully rounded. A row with a
        bound raises nothing."""
        pair_spans, two_t, e5, image, pair_a = self._pair_spans, self._two_t, self._e5, self._image, self._pair[ia]
        if pair_spans[ia] is None or not _exact_powers([two_t]):
            return [None] * len(self.points)
        bounds = []
        for b in self.points:
            # As _fifth_row reads them: equal points share an index and an image.
            pair_ab, span, bound = pair_a[self._index[b]], pair_spans[image[b]], None
            if span is not None:
                m_lo, m_hi = (pair_ab + span[0]) / two_t, (pair_ab + span[1]) / two_t
                if 0 <= m_lo and m_hi < math.inf:
                    bound = _widened(m_lo, m_hi, e5)
            bounds.append(bound)
        return bounds

    @cached_property
    def _row_spans(self):
        """The metric's `row_spans` over the points: None, or a function of
        a that gives None or raises where it has no span."""
        return self._metric.row_spans(self.points, self.points)

    def _plane_factors(self, a):
        """The stages of a's plane that come before its rows, in order:
        the fifth-factor rows of S(a), the distances and the lhs rows of
        S(a). Returns (fifth, lhs, d), each a `_Rows` over the b, fifth and
        lhs once per image. A factor whose rows are bounded without making
        them is left unmade (rows None) for `_row_products`, since it
        raises nothing: the fifth-factor rows when
        `_fifth_bounds` bounds every row (otherwise they are made here and
        bounded by their own `finite_span`), and the distances when the
        metric's `row_spans` gives the plane's span, whose per-row spans are
        then made only when read. Without one, the distances are made and
        bounded row by row by their own `finite_span`."""
        points, image = self.points, self._image
        ia = image[a]
        fifth = self._fifth_planes.get(ia)
        if fifth is None:
            bounds = self._fifth_bounds(ia)
            if None in bounds:
                fifth = _factor_rows([self._fifth_row(ia, b) for b in points])
            else:
                fifth = _Rows(None, lambda: bounds, (min(lo for lo, _ in bounds), max(hi for _, hi in bounds)))
            self._fifth_planes[ia] = fifth
        spans = None
        if self._row_spans is not None:
            try:
                spans = self._row_spans(a)
            except Exception:  # no span for this plane
                pass
        if spans is not None:
            low, high, rows = spans
            d = _Rows(None, lambda: list(zip(*rows())), (low, high))
        else:
            d = _factor_rows([self._metric.row(a, b, points) for b in points])
        lhs = self._lhs_planes.get(ia) or self._lhs_planes.setdefault(
            ia, _factor_rows([self._lhs_row(ia, image[b]) for b in points]))
        return fifth, lhs, d

    def _row_products(self, a, j, factors, weights=None):
        """The lhs row and the product row of (a, b, c) over the c, b being
        points[j], from `factors`, `_plane_factors(a)`; a fifth-factor or
        distance row that it left unmade is made here, and raises nothing.
        Each product is dist(a,b,c)^p * g(a)^q * g(b)^r * g(c)^s *
        m^(1-p-q-r-s), the factors multiplied in this order; the first
        negative distance of the row raises before any is made, and the
        comparison is the caller's. The lhs row is shared: it is read
        only. `weights`, one per c, keeps each entry that many times
        (`_picked`), before any product is made."""
        fifth, lhs, d = factors
        b = self.points[j]
        ds = self._metric.row(a, b, self.points) if d.rows is None else d.rows[j]
        fifths = self._fifth_row(self._image[a], b) if fifth.rows is None else fifth.rows[j]
        rows = lhs.rows[j], ds, self._fs, fifths
        if weights is not None:
            rows = [_picked(row, weights) for row in rows]
        lhs, ds, fss, fifths = rows
        p, fq, fr = self._p, self._fq[a], self._fr[b]
        if not (ds and min(ds) >= 0):
            for value in ds:
                _power(value, p)  # raises at the first negative factor
        return lhs, [d ** p * fq * fr * f * t for d, f, t in zip(ds, fss, fifths)]

    def _bounds(self, a, d_spans, fr_spans, t_spans, lhs_spans):
        """[(lo, hi, top) per block] for blocks of a's plane, a block being
        the triples (a, b, c) of some b and every c: block i's distances,
        g(b)^r, fifth factors and lhs lie in d_spans[i], fr_spans[i],
        t_spans[i] and lhs_spans[i] (min, max), and it has lo <= every
        product <= hi < inf and top the greatest lhs. A block's entry is
        None unless each of its spans is given, and that of g(c)^s, and
        d_lo >= 0; every entry is None on any error. lo and hi are the
        products of the factors' minima and maxima in `_row_products`' own
        order, so rounded * (monotone on nonnegative operands) keeps every
        product between them; a finite hi also rules out a product that
        overflows and then meets a 0 factor (nan). Only d^p is widened, by
        (1 -+ 2^-48) and only to a normal float or 0: Python does not
        promise a correctly rounded pow, and the widening covers one that
        is faithfully rounded (an error below 1 ulp), which is assumed."""
        bounds = [None] * len(d_spans)
        if self._g_spans[1] is None:
            return bounds
        (fs_lo, fs_hi), fq, p = self._g_spans[1], self._fq[a], self._p
        try:
            for i, spans in enumerate(zip(d_spans, fr_spans, t_spans, lhs_spans)):
                if None in spans or not spans[0][0] >= 0:
                    continue
                (d_lo, d_hi), (fr_lo, fr_hi), (t_lo, t_hi), (_, top) = spans
                widened = _widened(d_lo, d_hi, p)
                if widened is not None:
                    lo, hi = widened[0] * fq * fr_lo * fs_lo * t_lo, widened[1] * fq * fr_hi * fs_hi * t_hi
                    if hi < math.inf:
                        bounds[i] = lo, hi, top
        except Exception:  # no bound
            return [None] * len(d_spans)
        return bounds

    def _plane_bounds(self, a, factors):
        """`_bounds` of a's whole plane, one block, from
        `_plane_factors(a)`."""
        fifth, lhs, d = factors
        return self._bounds(a, [d.span], [self._g_spans[0]], [fifth.span], [lhs.span])[0]

    def _row_bounds(self, a, factors, plane):
        """The (lo, hi, top) of each (a, b) row of a's plane, in the order
        of b, from `_plane_factors(a)`: the `_bounds` of each
        row, O(1) a row from the row spans, or the plane's own bound,
        `plane`, for a row that has none."""
        fifth, lhs, d = factors
        rows = self._bounds(a, d.spans(), self._fr_spans, fifth.spans(), lhs.spans())
        return [plane if row is None else row for row in rows]


class _Rows(NamedTuple):
    """One factor of an a-plane as rows over c, one per b: the rows, None
    while they are unmade (bounded without them, they raise nothing); a
    function that gives the bound of each row, its `finite_span` for a made
    row; and the bound of them all, None unless every row has one."""

    rows: list | None
    spans: Callable
    span: tuple | None


def _factor_rows(rows) -> _Rows:
    """The _Rows of made rows, with one `finite_span` per distinct row
    object: one lhs row serves every b of its image S(b)."""
    distinct = {id(row): row for row in rows}
    memo = {key: finite_span(row) for key, row in distinct.items()}
    spans = [memo[id(row)] for row in rows]
    span = None if None in spans else (min(lo for lo, _ in spans), max(hi for _, hi in spans))
    return _Rows(rows, lambda: spans, span)


def _rhs(comparison, products, span):
    """[comparison(v) for v in products], bit for bit, errors included; span
    is `_span(products)`. A ComparisonFn whose `_piece(span)` finds a piece
    reads the list off that piece's line; any other comparison, or a list
    that no one piece covers, goes value by value."""
    k = comparison._piece(span) if isinstance(comparison, ComparisonFn) else None
    return list(map(comparison, products)) if k is None else comparison._line(k, products)


# d ** p times these is a bound below and above on the d ** p of a pow that
# is faithfully rounded, when it is a normal float or 0 (`_widened`).
_WIDEN = (1 - 2.0 ** -48, 1 + 2.0 ** -48)


def _widened(lo, hi, e):
    """(lo^e, hi^e) widened by `_WIDEN`: with 0 <= lo, e > 0 and a pow that
    is faithfully rounded (an error below 1 ulp, which Python does not
    promise), a bound below and above on x ** e for every x in [lo, hi];
    None unless each is a normal float or 0."""
    w_lo, w_hi = lo ** e * _WIDEN[0], hi ** e * _WIDEN[1]
    normal, inf = sys.float_info.min, math.inf
    if (w_lo == 0 or normal <= w_lo < inf) and (w_hi == 0 or normal <= w_hi < inf):
        return w_lo, w_hi
    return None


def fixed_points_bruteforce(mapping: SelfMap, sample) -> tuple:
    """Exactly the sampled points the map sends to themselves."""
    sample = list(sample)
    if not sample:
        raise InvalidArgument("sample must be nonempty")
    return tuple(sorted({x for x in sample if mapping(x) == x}, key=point_sort_key))


@dataclass(frozen=True)
class CertificateReport:
    triples_checked: int
    excluded_fixed_points: tuple
    failures: tuple
    min_margin: float | None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "triples_checked": self.triples_checked,
            "excluded_fixed_points": [point_label(x) for x in self.excluded_fixed_points],
            "failures": [
                {
                    "triple": [point_label(a), point_label(b), point_label(c)],
                    "lhs": lhs,
                    "rhs": rhs,
                }
                for a, b, c, lhs, rhs in self.failures
            ],
            "min_margin": self.min_margin,
            "passed": self.passed,
        }


def certify(
    space: PartialSbSpace,
    spec: InterpolativeSpec,
    points=None,
    sample_count: int | None = None,
    seed: int | None = None,
) -> CertificateReport:
    """Check lhs = dist(S(a),S(b),S(c)) <= rhs over every triple over `points`
    or over `sample_count` random triples of a deterministic carrier sample
    (seed default 0); exactly one of the two is given, and a seed only with
    `sample_count`. Triples holding fixed points are skipped and reported.
    Each lhs meets its rhs, a rounded product of powers with irrational
    exponents, in a plain <=: a tie within rounding needs outward rounding.
    It is `_certificates` with one spec: each row's products are scanned
    once for their min and max, from which `_rhs` picks the line they are
    read off.

    The walk goes over the a-planes in the order of the points, and an
    a-plane after the first is cleared, its products never made, when a
    bound on them, rounded outward, shows that it cannot change the report;
    triples_checked counts its triples all the same. Nor are its distances,
    when the metric's `row_spans` bound them, or its fifth-factor rows,
    when the pair rows bound them (`InequalitySides._fifth_bounds`). A
    plane that is not cleared is walked an (a, b) row at a time: where its
    bound lies on one piece of the comparison, a row is cleared, under the
    same test, on its own bound, and otherwise every row is evaluated.
    Every factor row must have a finite bound, finite values and no nan,
    but need not have a finite sum. The bound assumes a faithfully rounded
    pow (see the module docstring). An error is the first met in one stage
    order: the factor rows of the plane, then row by row the first
    negative distance, the products, the comparison and the margins.

    Sampled triples are drawn by spaces.sampled_positions, the draw that
    check_axioms uses, and dropped by pool position where they hold a fixed
    point. The walk then goes over the pool's planes that hold a drawn
    triple, and counts and evaluates only the drawn triples, repeats kept;
    the report is that of evaluating them one at a time, up to the first
    of several errors and a nan minimum, which follow the walk's (a, b, c)
    order. As on the grid, an error is the first in that stage order:
    making a plane's factor rows may raise where no drawn triple of it
    does.
    """
    return _certificates(space, (spec,), points=points, sample_count=sample_count, seed=seed)[0]


def _certificates(space, specs, points=None, sample_count=None, seed=None) -> list:
    """[certify(space, spec, ...) for spec in specs], report for report and
    bit for bit, from one walk. The specs must share p, q, r, s and the map
    (InvalidArgument otherwise), so that the products of every (a, b)
    row, and their min and max, are made once. Each spec then makes its
    own rhs list (`_rhs`), margin reduction and failure list from them.
    An error is the first met in one stage order: the factor rows of a
    plane, then row by row the first negative distance and the products,
    then spec by spec in `specs` order the comparison and the margins;
    with one spec this order is certify's."""
    first = specs[0]

    def shared(spec):
        return spec.p, spec.q, spec.r, spec.s, spec.residual, spec.mapping

    if any(shared(spec) != shared(first) for spec in specs[1:]):
        raise InvalidArgument("certificates on one walk must share the exponents p, q, r, s and the map")
    if (points is None) == (sample_count is None):
        raise InvalidArgument("certify takes exactly one of points and sample_count")
    if points is not None:
        if seed is not None:
            raise InvalidArgument("seed has no effect with points")
        pool = list(points)
    else:
        if sample_count < 1:
            raise InvalidArgument("sample_count must be >= 1")
        seed = 0 if seed is None else seed
        pool = sample_carrier(space, seed=seed)
    fixed = set(fixed_points_bruteforce(first.mapping, pool))
    active = [x for x in pool if x not in fixed]
    checked = 0
    failures = [[] for _ in specs]
    min_margins = [None] * len(specs)
    try:
        sides = InequalitySides(space, first, active)

        # Chunks of (a maker of the triples, their number, their lhs values,
        # their products), with lhs and products None for a plane or a row
        # that its bound clears; the triples are made only to list failures.
        n, drawn = len(active), None
        if points is None:
            rng = random.Random(f"psbm:certify:{seed}")
            drawn = _drawn(pool, fixed, sampled_positions(rng, len(pool), 3, sample_count), n)

        def planes():
            for i, a in enumerate(active):
                # None for every triple of the plane, or how often each of
                # its triples (a, active[j], active[k]) is drawn, at j * n + k.
                weights = None if drawn is None else drawn[i * n * n:(i + 1) * n * n]
                count = n * n if weights is None else sum(weights)
                if not count:
                    continue
                factors = sides._plane_factors(a)
                bounds = sides._plane_bounds(a, factors)
                pieces = _pieces(specs, bounds)
                # min_margins holds the running minima of the chunks before.
                if pieces is not None and _clears(bounds, specs, pieces, min_margins):
                    yield None, count, None, None
                    continue
                # Each row is a chunk of its own, which its bound may clear
                # when the plane's lies on one piece of each comparison.
                rows = [None] * n if pieces is None else sides._row_bounds(a, factors, bounds)
                for j, row in enumerate(rows):
                    ks = None if weights is None else weights[j * n:(j + 1) * n]
                    count = n if ks is None else sum(ks)
                    if not count:
                        continue
                    if row is not None and _clears(row, specs, pieces, min_margins):
                        yield None, count, None, None
                    else:
                        yield partial(_triples, a, active[j], active, ks), count, *sides._row_products(a, j, factors, ks)

        for triples, count, lhs, products in planes():
            checked += count
            if products is None:
                continue
            span = _span(products)
            for i, spec in enumerate(specs):
                rhs = _rhs(spec.comparison, products, span)
                margins = map(sub, rhs, lhs)
                # Continues the running minimum exactly as a triple-by-triple
                # `if margin < min_margin` loop would, nan margins included.
                min_margins[i] = min(margins) if min_margins[i] is None else min(chain((min_margins[i],), margins))
                if not all(map(le, lhs, rhs)):
                    failures[i].extend((*t, l, r) for t, l, r in zip(triples(), lhs, rhs) if not l <= r)
    except OverflowError:  # an int beyond the float range in a power, m or a margin
        raise DistanceOverflow("the contraction inequality overflows the float range") from None

    excluded = tuple(sorted(fixed, key=point_sort_key))
    reports = []
    for found, min_margin in zip(failures, min_margins):
        found.sort(key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
        reports.append(CertificateReport(checked, excluded, tuple(found), min_margin))
    return reports


def _drawn(pool, fixed, positions, n) -> array:
    """How often each triple is drawn at `positions` (`sampled_positions`
    over pool), at (i * n + j) * n + k for its positions i, j, k among the
    n points of pool not in `fixed`; a triple holding a point of `fixed`
    is dropped by position. Its size is n^3 whatever the draws."""
    live = [x not in fixed for x in pool]
    at = list(accumulate(live, initial=-1))[1:]
    counts = array("Q", [0]) * n ** 3
    for block in positions:
        for i, j, k in zip(*block):
            if live[i] and live[j] and live[k]:
                counts[(at[i] * n + at[j]) * n + at[k]] += 1
    return counts


def _picked(values, weights) -> list:
    """Each of the values repeated its weight times, in order: the entries
    of a sampled certificate's drawn triples, repeats kept."""
    return list(chain.from_iterable(map(repeat, values, weights)))


def _triples(a, b, cs, weights=None):
    """The triples (a, b, c) over cs, `_picked` by weights if given."""
    triples = product((a,), (b,), cs)
    return triples if weights is None else _picked(triples, weights)


def _clears(bounds, specs, pieces, min_margins) -> bool:
    """Whether a block of triples whose products lie in [lo, hi] and whose
    lhs are at most top, bounds = (lo, hi, top), leaves every report as it
    is, `pieces` being the `_pieces` of a bound that holds it. It does when
    every running minimum margin is a float and not nan, and for each spec
    r = `_floor` on its piece has r >= top and r - top above the minimum.
    Each rhs is then >= r: no lhs fails, and each margin, rhs - lhs >= r -
    top, is above the minimum, which keeps its bits. The later stages
    cannot raise there. Any error while bounding means the block is not
    cleared."""
    top = bounds[2]
    try:
        for spec, k, min_margin in zip(specs, pieces, min_margins):
            r = _floor(spec.comparison, k, bounds)
            if not (type(min_margin) is float and r >= top and r - top > min_margin):
                return False
    except Exception:  # no bound, so the block is evaluated
        return False
    return True


def _pieces(specs, bounds):
    """Per spec, the piece k of its comparison that reads [lo, hi], bounds
    = (lo, hi, top) (`ComparisonFn._piece`), or None when bounds is None or
    a comparison is no ComparisonFn or has no such piece. A block within
    the bound then reads each rhs off its spec's piece: nothing raises."""
    if bounds is None:
        return None
    pieces = []
    for spec in specs:
        comparison = spec.comparison
        k = comparison._piece(bounds[:2]) if isinstance(comparison, ComparisonFn) else None
        if k is None:
            return None
        pieces.append(k)
    return pieces


def _floor(comparison, k, bounds):
    """min(line(lo), line(hi)) on piece k of a ComparisonFn, bounds = (lo,
    hi, top): a lower bound on comparison(v) for every v in [lo, hi] that
    piece k reads, since the rounded line is monotone and the clamp only
    raises it. A row's bound may reach past its plane's, on whose piece
    its values lie; the floor still bounds them."""
    return min(comparison._line(k, bounds[:2]))


# --------------------------------------------------------------------------
# Case table
# --------------------------------------------------------------------------

# Published rhs lower bounds per subcase, kept as reference annotations only;
# the grid minimum over the triples filed into each subcase is the
# authoritative side of the lhs <= rhs verdict.
REFERENCE_BOUNDS = {
    "1(i)": 0.0,
    "1(ii)": 607.08,
    "2(i)": 569.773,
    "2(ii)": 807.40,
    "2(iii)": 1214.17,
    "3(i)": 499.97,
    "3(ii)": 741.19,
    "3(iii)": 1294.82,
    "4(i)": 399.13,
    "4(ii)": 787.84,
    "4(iii)": 1315.96,
    "5(i)": 872.72,
    "5(ii)": 758.18,
    "5(iii)": 1051.22,
    "5(iv)": 1315.96,
}

_DISCREPANCY_REL = 0.01

# Each subcase's condition, in table order.
_CONDITIONS = {
    "1(i)": "a = b = c = 3",
    "1(ii)": "a = b = c != 3",
    "2(i)": "a = b = 3, c != 3",
    "2(ii)": "a = b != 3, c = 3",
    "2(iii)": "a = b != 3, c != 3",
    "3(i)": "b != 3, a = c = 3",
    "3(ii)": "b = 3, a = c != 3",
    "3(iii)": "b != 3, a = c != 3",
    "4(i)": "b = c = 3, a != 3",
    "4(ii)": "b = c != 3, a = 3",
    "4(iii)": "b = c != 3, a != 3",
    "5(i)": "all distinct, a = 3",
    "5(ii)": "all distinct, b = 3",
    "5(iii)": "all distinct, c = 3",
    "5(iv)": "all distinct, none = 3",
}

# The subcase of c = 3, of c = a, of c = b and of every other c in the (a, b)
# row, keyed by (a == 3, b == 3, a == b).
_FILING = {
    (True, True, True): ("1(i)", "1(i)", "1(i)", "2(i)"),
    (False, False, True): ("2(ii)", "1(ii)", "1(ii)", "2(iii)"),
    (True, False, False): ("3(i)", "3(i)", "4(ii)", "5(i)"),
    (False, True, False): ("4(i)", "3(ii)", "4(i)", "5(ii)"),
    (False, False, False): ("5(iii)", "3(iii)", "4(iii)", "5(iv)"),
}


@dataclass(frozen=True)
class CaseRow:
    label: str
    condition: str
    lhs: float
    rhs_min: float
    argmin: tuple
    reference: float | None
    discrepancy: bool
    holds: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "condition": self.condition,
            "lhs": self.lhs,
            "rhs_min": self.rhs_min,
            "argmin": [point_label(x) for x in self.argmin],
            "reference": self.reference,
            "discrepancy": self.discrepancy,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class CaseTable:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.holds for row in self.rows)

    @property
    def discrepancies(self) -> tuple:
        return tuple(row.label for row in self.rows if row.discrepancy)

    def lhs_column(self) -> tuple:
        return tuple(row.lhs for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "passed": self.passed,
            "discrepancies": list(self.discrepancies),
        }

    def render(self) -> str:
        header = f"{'subcase':<8} {'condition':<24} {'lhs':>6} {'rhs min':>12} {'at':<20} {'reference':>10} note"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            at = "(" + ", ".join(point_label(x) for x in row.argmin) + ")"
            ref = "" if row.reference is None else f"{row.reference:.2f}"
            notes = []
            if row.discrepancy:
                notes.append("differs from reference")
            if not row.holds:
                notes.append("INEQUALITY FAILS")
            lines.append(
                f"{row.label:<8} {row.condition:<24} {row.lhs:>6} {row.rhs_min:>12.2f} {at:<20} {ref:>10} {'; '.join(notes)}"
            )
        return "\n".join(lines)


def ray_grid(carrier: RegionCarrier, n: int) -> list:
    """n evenly spaced, strictly increasing points from the start to the end
    of the carrier's first truncated interval."""
    if n < 2:
        raise PsbmError(f"a ray grid needs at least 2 points, got {n}")
    spans = carrier.truncated_intervals()
    if not spans or spans[0][0] == spans[0][1]:
        raise PsbmError(f"no interval of positive length lies below the bound {carrier.bound}")
    lo, hi = spans[0]
    step = (hi - lo) / (n - 1)
    grid = [lo + i * step for i in range(n)]
    if not all(map(lt, grid, grid[1:])):
        raise PsbmError(f"the interval [{lo}, {hi}] is too short for {n} distinct grid points")
    return grid


def _limit(minima):
    """max(minima): a row floor above it lies strictly above every running
    minimum in minima. None when one is None or nan, which no floor lies
    above."""
    if any(m is None or m != m for m in minima):
        return None
    return max(minima)


def _without(values, ks):
    """A copy of values without the ascending positions ks."""
    values = values[:]
    for k in reversed(ks):
        del values[k]
    return values


class _Scan:
    """One subcase's lhs and first rhs minimum with its triple, over its
    segments (a, b, cs, lhs values, rhs values) fed in the subcase's order.
    The minimum continues the scan `if rhs_min is None or v < rhs_min:
    rhs_min = v`, nan included, as a triple-by-triple loop finds it. A
    segment after the first whose every rhs lies strictly above rhs_min,
    so that the scan would leave rhs_min and argmin as they are, is not
    fed: `read` and `read_row` take its lhs values for the constant-lhs
    check alone. The first lhs value that differs from the first is kept,
    not raised, so that the table can name the first subcase, in table
    order, whose lhs is not constant."""

    def __init__(self):
        self.lhs = self.differing = self.rhs_min = self.argmin = None
        # Per lhs row key: the positions where the row differs from lhs.
        self._differs = {}

    def feed(self, a, b, cs, lhs, rhs):
        if self.lhs is None:
            self.lhs, self.rhs_min, self.argmin = lhs[0], rhs[0], (a, b, cs[0])
        if self.differing is None and any(map(ne, lhs, repeat(self.lhs))):
            self.differing = next(v for v in lhs if v != self.lhs)
        values = [self.rhs_min, *rhs]
        k = min(range(len(values)), key=values.__getitem__)
        if k:
            self.rhs_min, self.argmin = rhs[k - 1], (a, b, cs[k - 1])

    def read(self, value):
        """The constant-lhs check alone, of the one lhs value of a skipped
        segment, after the first segment."""
        if self.differing is None and value != self.lhs:
            self.differing = value

    def read_row(self, key, row, special):
        """`read` of each value of the shared lhs row `row`, keyed by key,
        outside the positions `special`, in order: O(1) from the positions
        where the row differs from lhs, found once per key."""
        if self.differing is None:
            differs = self._differs.get(key)
            if differs is None:
                differs = self._differs[key] = [k for k, v in enumerate(row) if v != self.lhs]
            k = next((k for k in differs if k not in special), None)
            if k is not None:
                self.differing = row[k]


def reproduce_case_table(space: PartialSbSpace, spec: InterpolativeSpec, grid_size: int = 20) -> CaseTable:
    """The fifteen-subcase split of the worked example: exact lhs per subcase
    and the rhs minimized over the subcase's free ray variables on a grid.

    Reference bounds are compared at 1% and logged as discrepancies, never
    asserted; `holds` is a plain lhs <= rhs against the rounded grid
    minimum, so it speaks of grid points only, up to rounding.

    The table skips an (a, b) row that cannot change a minimum: one whose
    floor, the rounded-outward lower rhs bound of its `_row_bounds`
    (`_floor`), lies strictly above the running rhs_min of every subcase
    it feeds. Its distances, products and rhs are never made; its lhs
    values, one row per (S(a), S(b)), are still read for the constant-lhs
    check, so the error names the same subcase and value. 4(iii) is fed
    in sorted (b, a) order after the walk, so its one cell per row is held
    to the least 4(iii) rhs evaluated so far instead, and its first cell
    is evaluated on its own if its row was skipped. A plane with no bound,
    or whose bound does not lie on one piece of a ComparisonFn, evaluates
    every row and skips none, and so does every plane of any other
    comparison. On the worked example's grids all but a few rows are
    skipped. An error is the first met in one stage order: the factor rows
    of a plane, then row by row the first negative distance, the products
    and the comparison.
    """
    carrier = space.carrier
    if (
        not isinstance(carrier, RegionCarrier)
        or set(carrier.isolated) != {0, 3}
        or not carrier.truncated_intervals()
    ):
        raise WrongSpaceShape("expected isolated points {0, 3} plus a ray")
    if grid_size < 3:
        raise InvalidArgument("grid_size must be >= 3")
    grid = ray_grid(carrier, grid_size)
    if 3 in grid:
        raise WrongSpaceShape("the ray grid holds the isolated point 3")
    points = [3] + grid
    sides = InequalitySides(space, spec, points)
    comparison = spec.comparison

    # Each row is filed as it is made, so that one plane is held at a time:
    # a subcase takes at most one segment of a row, and its segments come
    # in its own order, except 4(iii)'s, whose first minimum runs over b
    # and then a; they wait in `late`, by b, for the sort, with `least` the
    # least of their rhs so far.
    scans = {label: _Scan() for label in _CONDITIONS}
    late, least = [[] for _ in points], None
    for i, a in enumerate(points):
        factors = sides._plane_factors(a)
        plane = sides._plane_bounds(a, factors)
        pieces = _pieces((spec,), plane)
        if pieces is not None:
            floors = list(map(partial(_floor, comparison, pieces[0]), sides._row_bounds(a, factors, plane)))
        # Per filing pattern, the floor above which a row of it is skipped.
        limits = {}
        for j, b in enumerate(points):
            pattern = i == 0, j == 0, i == j
            at_three, at_a, at_b, other = _FILING[pattern]
            # The label of c = 3, of c = a and of c = b, the first of them
            # where two of those cells are one.
            cells = {j: at_b, i: at_a, 0: at_three}
            if pieces is not None:
                if pattern not in limits:
                    limits[pattern] = _limit([least if label == "4(iii)" else scans[label].rhs_min
                                              for label in (*cells.values(), other)])
                if limits[pattern] is not None and floors[j] > limits[pattern]:
                    lhs = factors[1].rows[j]
                    for k, label in cells.items():
                        if label == "4(iii)":
                            late[j].append((a, lhs[k], None))
                        else:
                            scans[label].read(lhs[k])
                    scans[other].read_row((sides._image[a], sides._image[b]), lhs, cells)
                    continue
            lhs, products = sides._row_products(a, j, factors)
            rhs = _rhs(comparison, products, _span(products))
            limits.clear()
            for k, label in cells.items():
                if label == "4(iii)":
                    late[j].append((a, lhs[k], rhs[k]))
                    if least is None or rhs[k] < least:
                        least = rhs[k]
                else:
                    scans[label].feed(a, b, [points[k]], [lhs[k]], [rhs[k]])
            special = sorted(cells)
            scans[other].feed(a, b, *(_without(v, special) for v in (points, lhs, rhs)))
    ordered = [(b, *cell) for b, row in sorted(zip(points, late), key=itemgetter(0)) for cell in sorted(row, key=itemgetter(0))]
    if ordered and ordered[0][3] is None:
        b, a, lhs, _ = ordered[0]
        j = sides._index[b]
        ordered[0] = b, a, lhs, comparison(sides._row_products(a, j, sides._plane_factors(a))[1][j])
    for b, a, lhs, rhs in ordered:
        if rhs is None:
            scans["4(iii)"].read(lhs)
        else:
            scans["4(iii)"].feed(a, b, [b], [lhs], [rhs])

    rows = []
    for label, condition in _CONDITIONS.items():
        scan = scans[label]
        lhs, rhs_min = scan.lhs, scan.rhs_min
        if scan.differing is not None:
            raise PsbmError(f"subcase {label} lhs is not constant: {lhs} vs {scan.differing}")
        reference = REFERENCE_BOUNDS.get(label)
        discrepancy = (
            reference is not None
            and abs(rhs_min - reference) > _DISCREPANCY_REL * max(reference, 1.0)
        )
        rows.append(
            CaseRow(
                label=label,
                condition=condition,
                lhs=lhs,
                rhs_min=rhs_min,
                argmin=scan.argmin,
                reference=reference,
                discrepancy=discrepancy,
                holds=lhs <= rhs_min,
            )
        )
    return CaseTable(tuple(rows))

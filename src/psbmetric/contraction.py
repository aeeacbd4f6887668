"""Interpolative contraction inequalities: evaluation and certification.

The right-hand side is a comparison function applied to a product of five
distance factors raised to exponents p, q, r, s and 1-p-q-r-s. A certificate
checks lhs <= rhs over every generated triple whose points are not fixed by
the map, since the defining inequality is quantified away from fixed points.

`InequalitySides` is the one evaluator of both sides. It evaluates only
dist(a, b, c) and the comparison per triple, a plane or a list at a time:
the metric's `plane` gives the distances of one a over every (b, c), and
`_rhs` the comparison of a list of products, reading a ComparisonFn's line
when the whole list lies on one piece; both are bit for bit the pointwise
calls. Every other factor is tabulated once per point, per image S(x), per
(S(a), S(b)) or per (S(a), b), whichever it depends on.
`certify` walks the a-planes of its points, n^2 triples each, and reduces
each plane's margins at C level; its sampled path reads the same tables a
block of drawn triples at a time.

The grid walk decides most planes, and most rows of the rest, from a
bound before making their products (interval analysis, Moore 1966). A
plane's lhs and fifth-factor rows depend on a only through S(a), so they
are made, each with its `numerics.finite_span`, once per image; its
distances are bounded row by row by the metric's `row_spans` (O(1) a row
on the quintic builtins, from one pass over the walk's fifth powers) or,
when that gives none, made and bounded by each row's own `finite_span`. A
finite span needs finite values and no nan, not a finite sum. The products
of the factors' minima and maxima over a block of rows (`_bounds`), with
d^p widened by (1 -+ 2^-48), then bound every product of the block below
and above. A plane whose bound keeps every rhs above every lhs, and every
margin above each spec's running minimum, is cleared: it cannot change a
report, its n^2 triples count in triples_checked unevaluated, and neither
its products nor, under a span, its distances are made. A plane that is
not cleared, but whose bound lies on one piece of each spec's comparison,
so that nothing in it raises, is walked row by row under the same test,
each row against the running minima that the rows before it leave. The
widening assumes a pow that is faithfully rounded (an error below 1 ulp),
which Python does not promise. The case table skips, by the same bound,
the (a, b) rows that cannot change a subcase's minimum
(`reproduce_case_table`). On a metric with `row_spans`, a sampled block
after the first evaluates only the drawn triples whose plane or row is
not cleared, each plane being bounded once per certificate
(`_sampled_chunks`); the first block is evaluated whole.

Certificates whose specs differ only in the comparison share one walk
(`_certificates`, as the reproduction script's two do): each plane, row or
block is evaluated up to its products, and their min and max, once; each
spec then makes its own rhs list, margin reduction and failure list, so
that every report is bit for bit that of its own certify call. `_rhs`, the
one maker of an rhs list (for the walk, the case table, `plane` and
`block`), reads it off one piece's line, or else goes value by value. The
case table walks each a-plane once and files each c of each of its (a, b)
rows into its subcase by the row's equality pattern. `ray_grid` is the one
evenly spaced grid on a region carrier's ray, used by the case table, by
`psbm certify --grid` and by the reproduction script.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, product, repeat, starmap
from operator import getitem, itemgetter, le, lt, ne, sub
from typing import NamedTuple

from .comparison import ComparisonFn, _span, builtin_comparison
from .errors import DistanceOverflow, InvalidArgument, InvalidExponents, PsbmError, UnknownBuiltin, UnknownPoint, WrongSpaceShape
from .numerics import finite_span, point_label, point_sort_key
from .spaces import PartialSbSpace, RegionCarrier, require_point, sample_carrier, sampled_positions


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
    `sides.plane(a)` gives both sides for every b and then every c in
    `points` as two lists (n^2 values each), and `sides.block(triples)` for
    a list of triples. Every image S(x) must be a carrier point (UnknownPoint
    names the map and the first point whose image is not).

    Only dist(a, b, c) and the comparison are evaluated per triple, a plane
    or a list at a time (any comparison other than a ComparisonFn value by
    value). The rest is tabulated over `points`, keyed by what it depends on:
    - g(x)^q, g(x)^r and g(x)^s, once per point;
    - dist(S(x), S(x), y), one row over y per distinct image S(x);
    - the lhs, one row over c per distinct (S(a), S(b));
    - the fifth factor m^(1-p-q-r-s), one row over c per distinct (S(a), b),
      since m depends on a only through S(a); a mean m of +inf raises
      DistanceOverflow;
    - for the planes, per image S(a), the fifth-factor and the lhs rows
      over c, one per b, with the `finite_span` of each row and of them
      all (`_Rows`).
    A row is computed whole when a triple first needs it, so an error in
    any of its entries is raised there, also when that triple's own entries
    are fine.

    `plane` and `block` evaluate in one stage order, each stage over all
    their triples before the next, and raise the first error met: the
    fifth-factor rows, the distances (in the metric's own (q, r) order in a
    plane), the lhs rows, the first negative distance, the products, and the
    comparison. Each is its comparison-free stage, `_plane_products` or
    `_block_products`, followed by one comparison of the product list.
    `_row_products` gives one (a, b) row of a plane past its factors.
    """

    def __init__(self, space: PartialSbSpace, spec: InterpolativeSpec, points):
        validate_exponents(spec)
        self.points = points = list(points)
        self._metric = metric = space.metric
        # A bound __call__ method: cheaper to call once per triple than the
        # metric object itself.
        self._dist = dist = metric.__call__
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
        gap = {x: dist(x, x, image[x]) for x in points}
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

    def _products(self, ds, fqa, frb, fs, fifth):
        """dist(a,b,c)^p * g(a)^q * g(b)^r * g(c)^s * m^(1-p-q-r-s) for a
        sequence of dist(a, b, c) values and aligned iterables of the other
        factors, with the factors multiplied in this order; the comparison
        of the products is the caller's."""
        p = self._p
        if not (ds and min(ds) >= 0):
            for d in ds:
                _power(d, p)  # raises at the first negative factor
        return [d ** p * fq * fr * f * t for d, fq, fr, f, t in zip(ds, fqa, frb, fs, fifth)]

    def plane(self, a):
        """(lhs list, rhs list) over (a, b, c) for every b and then every c in
        `points`, from one metric plane and one comparison of the whole list."""
        lhs, products = self._plane_products(a, self._plane_factors(a))
        return lhs, _rhs(self._comparison, products, _span(products))

    def block(self, triples):
        """(lhs list, rhs list) over a list of triples (a, b, c). Each distinct
        fifth-factor row (S(a), b) and lhs row (S(a), S(b)) of the block is
        made once, in the order the triples first need it, and indexed by c."""
        lhs, products = self._block_products(triples)
        return lhs, _rhs(self._comparison, products, _span(products))

    @cached_property
    def _row_spans(self):
        """The metric's `row_spans` over the points: None, or a function of
        a that gives None or raises where it has no span."""
        return self._metric.row_spans(self.points, self.points)

    def _plane_factors(self, a):
        """The stages of `plane` that can raise before its products, in
        order: the fifth-factor rows of S(a), the distances and the lhs rows
        of S(a). Returns (fifth, lhs, d), each a `_Rows` over the b; fifth
        and lhs are made once per image. Spans from the metric's
        `row_spans` stand for the distances, which are left unmade (d.rows
        None) for `_plane_products` and `_row_products`: the metric promises
        that they raise nothing. Without one, they are made and bounded row
        by row by their own `finite_span`."""
        points, image = self.points, self._image
        ia = image[a]
        fifth = self._fifth_planes.get(ia) or self._fifth_planes.setdefault(
            ia, _factor_rows([self._fifth_row(ia, b) for b in points]))
        spans = None
        if self._row_spans is not None:
            try:
                spans = self._row_spans(a)
            except Exception:  # no span for this plane
                pass
        if spans is not None:
            lows, highs = spans
            d = _Rows(None, list(zip(lows, highs)), (min(lows), max(highs)))
        else:
            d = _factor_rows(self._distances(a))
        lhs = self._lhs_planes.get(ia) or self._lhs_planes.setdefault(
            ia, _factor_rows([self._lhs_row(ia, image[b]) for b in points]))
        return fifth, lhs, d

    def _distances(self, a):
        """dist(a, b, c) as one row over c for every b in `points`."""
        return self._metric.plane(a, self.points, self.points)

    def _plane_products(self, a, factors):
        """`plane` up to its comparison: the lhs list and the product list,
        from `factors`, `_plane_factors(a)`; distances that it left unmade
        are made here."""
        fifth, lhs, d = factors
        ds = list(chain.from_iterable(self._distances(a) if d.rows is None else d.rows))
        n = len(self.points)
        frs = chain.from_iterable(repeat(self._fr[b], n) for b in self.points)
        fss = chain.from_iterable(repeat(self._fs, n))
        return list(chain.from_iterable(lhs.rows)), self._products(ds, repeat(self._fq[a]), frs, fss, chain.from_iterable(fifth.rows))

    def _row_products(self, a, j, factors):
        """The lhs row and the product row of (a, b, c) over the c, b being
        points[j], from `factors`, `_plane_factors(a)` of a
        plane whose products raise nothing; a distance row that it left
        unmade is made here. The lhs row is shared: it is read only."""
        fifth, lhs, d = factors
        b = self.points[j]
        ds = self._metric.row(a, b, self.points) if d.rows is None else d.rows[j]
        return lhs.rows[j], self._products(ds, repeat(self._fq[a]), repeat(self._fr[b]), self._fs, fifth.rows[j])

    def _bounds(self, a, d_spans, fr_spans, t_spans, lhs_spans):
        """[(lo, hi, top) per block] for blocks of a's plane, a block being
        the triples (a, b, c) of some b and every c: block i's distances,
        g(b)^r, fifth factors and lhs lie in d_spans[i], fr_spans[i],
        t_spans[i] and lhs_spans[i] (min, max), and it has lo <= every
        product <= hi < inf and top the greatest lhs. A block's entry is
        None unless each of its spans is given, and that of g(c)^s, and
        d_lo >= 0; every entry is None on any error. lo and hi are the
        products of the factors' minima and maxima in `_products`' own
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
        (widen_lo, widen_hi), normal, inf = _WIDEN, sys.float_info.min, math.inf
        try:
            for i, spans in enumerate(zip(d_spans, fr_spans, t_spans, lhs_spans)):
                if None in spans or not spans[0][0] >= 0:
                    continue
                (d_lo, d_hi), (fr_lo, fr_hi), (t_lo, t_hi), (_, top) = spans
                w_lo, w_hi = d_lo ** p * widen_lo, d_hi ** p * widen_hi
                if (w_lo == 0 or normal <= w_lo < inf) and (w_hi == 0 or normal <= w_hi < inf):
                    lo, hi = w_lo * fq * fr_lo * fs_lo * t_lo, w_hi * fq * fr_hi * fs_hi * t_hi
                    if hi < inf:
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
        row, O(1) a row from the row spans, or the plane's own, `plane`, for
        a row that has none."""
        fifth, lhs, d = factors
        rows = self._bounds(a, d.spans, self._fr_spans, fifth.spans, lhs.spans)
        return [plane if row is None else row for row in rows]

    def _block_products(self, triples):
        """`block` up to its comparison: the lhs list and the product list."""
        index, image, fq, fr, fs = self._index, self._image, self._fq, self._fr, self._fs
        ks = [index[c] for _, _, c in triples]
        fifth = _entries(self._fifth_row, [(image[a], b) for a, b, _ in triples], ks)
        ds = list(starmap(self._dist, triples))
        lhs = _entries(self._lhs_row, [(image[a], image[b]) for a, b, _ in triples], ks)
        return lhs, self._products(ds, [fq[a] for a, _, _ in triples], [fr[b] for _, b, _ in triples], map(fs.__getitem__, ks), fifth)


class _Rows(NamedTuple):
    """One factor of an a-plane as rows over c, one per b: the rows (None
    for distances that a metric's span stands for), the `finite_span` of
    each row, and the span of them all, None unless every row has one."""

    rows: list | None
    spans: list
    span: tuple | None


def _factor_rows(rows) -> _Rows:
    """The _Rows of made rows, with one `finite_span` per distinct row
    object: one lhs row serves every b of its image S(b)."""
    distinct = {id(row): row for row in rows}
    memo = {key: finite_span(row) for key, row in distinct.items()}
    spans = [memo[id(row)] for row in rows]
    span = None if None in spans else (min(lo for lo, _ in spans), max(hi for _, hi in spans))
    return _Rows(rows, spans, span)


def _rhs(comparison, products, span):
    """[comparison(v) for v in products], bit for bit, errors included; span
    is `_span(products)`. A ComparisonFn whose `_piece(span)` finds a piece
    reads the list off that piece's line; any other comparison, or a list
    that no one piece covers, goes value by value."""
    k = comparison._piece(span) if isinstance(comparison, ComparisonFn) else None
    return list(map(comparison, products)) if k is None else comparison._line(k, products)


# d ** p times these is a bound below and above on the d ** p of a pow that
# is faithfully rounded, when it is a normal float or 0 (`_bounds`).
_WIDEN = (1 - 2.0 ** -48, 1 + 2.0 ** -48)


def _entries(make_row, keys, ks):
    """[make_row(*key)[k] for key, k in zip(keys, ks)], with one make_row
    call per distinct key, in the order of their first occurrence."""
    rows = {key: make_row(*key) for key in dict.fromkeys(keys)}
    return list(map(getitem, map(rows.__getitem__, keys), ks))


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

    Sampled triples are drawn by spaces.sampled_positions, the draw that
    check_axioms uses, and evaluated a block at a time by
    InequalitySides.block; the report is that of drawing and evaluating them
    one at a time. An error is the first, in InequalitySides' stage order,
    of the first a-plane or block that raises.
    Each lhs meets its rhs, a rounded product of powers with irrational
    exponents, in a plain <=: a tie within rounding needs outward rounding.
    It is `_certificates` with one spec: each chunk's products are scanned
    once for their min and max, from which `_rhs` picks the line they are
    read off.

    With `points`, an a-plane after the first is cleared by `_cleared`, its
    products never made, when a bound on them, rounded outward, shows that
    it cannot change the report; triples_checked counts its triples all
    the same. Its distances are not made either when the metric's
    `row_spans` bound them. A plane that is not cleared, but whose bound
    lies on one piece of the comparison, is walked row by row, and a row
    is cleared, under the same test, on its own bound. Every factor row
    must have a `finite_span`, finite values and no nan, but need not have
    a finite sum. The bound assumes a faithfully rounded pow (see the
    module docstring).

    With `sample_count`, every drawn triple counts in triples_checked, but
    where the metric has `row_spans` (the quintic builtins), a triple of a
    block after the first is evaluated only when the bound of its a-plane
    or (a, b) row, by the same test, does not clear it against the running
    minima of the blocks before it (`_sampled_chunks`). The first block, and
    on any other metric every block, is evaluated whole.
    """
    return _certificates(space, (spec,), points=points, sample_count=sample_count, seed=seed)[0]


def _certificates(space, specs, points=None, sample_count=None, seed=None) -> list:
    """[certify(space, spec, ...) for spec in specs], report for report and
    bit for bit, from one walk. The specs must share p, q, r, s and the map
    (InvalidArgument otherwise), so that the products of every a-plane or
    block, and their min and max, are made once. Each spec then makes its
    own rhs list (`_rhs`), margin reduction and failure list from them.
    An error is the first of the first a-plane or block that raises, in
    InequalitySides' stage order up to the products, then spec by spec in
    `specs` order: the comparison, then the margins; with one spec this
    order is certify's."""
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
        if points is not None:
            n = len(active)

            def planes():
                for a in active:
                    factors = sides._plane_factors(a)
                    bounds = sides._plane_bounds(a, factors)
                    pieces = _pieces(specs, bounds)
                    # min_margins holds the running minima of the chunks before.
                    if _cleared(bounds, specs, pieces, min_margins):
                        yield None, n * n, None, None
                        continue
                    if pieces is None:
                        yield partial(product, (a,), active, active), n * n, *sides._plane_products(a, factors)
                        continue
                    # Nothing in this plane raises: each row is a chunk of
                    # its own, which its bound may clear.
                    for j, (b, row) in enumerate(zip(active, sides._row_bounds(a, factors, bounds))):
                        if _clears(row, specs, pieces, min_margins):
                            yield None, n, None, None
                        else:
                            yield partial(product, (a,), (b,), active), n, *sides._row_products(a, j, factors)

            chunks = planes()
        else:
            live = [x not in fixed for x in pool]
            rng = random.Random(f"psbm:certify:{seed}")
            blocks = (
                [(pool[i], pool[j], pool[k]) for i, j, k in zip(*positions) if live[i] and live[j] and live[k]]
                for positions in sampled_positions(rng, len(pool), 3, sample_count)
            )
            chunks = _sampled_chunks(sides, specs, filter(None, blocks), min_margins)

        for triples, count, lhs, products in chunks:
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


def _sampled_chunks(sides, specs, blocks, min_margins):
    """`_certificates`' chunks of the nonempty blocks of drawn live triples:
    (a maker of the triples evaluated, the block's length, their lhs
    values, their products), lhs and products None when none is. A block is
    made once the one before it is reduced, so min_margins holds the
    running minima of the blocks before it.

    Where the metric has `row_spans` (and no two points are equal keys), a
    block evaluates only the triples whose a-plane or (a, b) row is not
    cleared by the grid walk's own test, `_clears` on its bound. A skipped
    triple fails nothing and raises nothing in any stage, so the kept ones
    raise the block's first error; its margin lies strictly above a kept
    one, so every minimum keeps its bits. Each plane is bounded once, as
    the grid walk bounds it, and its rows only once a block does not clear
    the plane; any error while bounding means no bound. A plane or row
    once cleared stays cleared: a running minimum only falls, or, once nan,
    stays nan whatever is skipped.

    The first block has no minimum yet, so it is evaluated whole, as the
    grid walk evaluates its first plane."""
    # Per a: None (no bound) or (its bound, pieces and factors); the (b,
    # bound) of its rows; the b of its rows cleared so far.
    planes, rows, done = {}, {}, {}
    skips = sides._row_spans is not None and len(sides._index) == len(sides.points)
    everything = frozenset(sides.points)

    def plane(a):
        if a not in planes:
            planes[a] = None
            try:
                factors = sides._plane_factors(a)
                bounds = sides._plane_bounds(a, factors)
                pieces = _pieces(specs, bounds)
                if pieces is not None:
                    planes[a] = bounds, pieces, factors
            except Exception:  # no bound: the plane's triples are evaluated
                pass
        return planes[a]

    def cleared(a):
        """The points b whose (a, b) rows the bounds clear."""
        found = done.get(a, ())
        if found is not everything and plane(a) is not None:
            bounds, pieces, factors = planes[a]
            if _clears(bounds, specs, pieces, min_margins):
                found = everything
            else:
                if a not in rows:
                    rows[a] = list(zip(sides.points, sides._row_bounds(a, factors, bounds)))
                found = {b for b, row in rows[a] if b in found or _clears(row, specs, pieces, min_margins)}
            done[a] = found
        return found

    for block in blocks:
        kept = block
        if skips and min_margins[0] is not None:
            clear = {a: cleared(a) for a in dict.fromkeys(map(itemgetter(0), block))}
            kept = [t for t in block if t[1] not in clear[t[0]]]
        if kept:
            yield partial(iter, kept), len(block), *sides._block_products(kept)
        else:
            yield None, len(block), None, None


def _cleared(bounds, specs, pieces, min_margins) -> bool:
    """Whether an a-plane leaves every report as it is, decided from its
    bound, `sides._plane_bounds` on `_plane_factors(a)`,
    before any product, or any distance a span stands for, is made:
    `_clears` under the bound's `_pieces`, and never when they are None."""
    return pieces is not None and _clears(bounds, specs, pieces, min_margins)


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
    or whose bound does not lie on one piece of a ComparisonFn, is
    evaluated whole, in `plane`'s stage order, and so is every plane of any
    other comparison. On the worked example's grids all but a few rows
    are skipped.
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
    n = len(points)
    for i, a in enumerate(points):
        factors = sides._plane_factors(a)
        plane = sides._plane_bounds(a, factors)
        pieces = _pieces((spec,), plane)
        if pieces is None:
            lhs_plane, products = sides._plane_products(a, factors)
            rhs_plane = _rhs(comparison, products, _span(products))
        else:
            floors = list(map(partial(_floor, comparison, pieces[0]), sides._row_bounds(a, factors, plane)))
        # Per filing pattern, the floor above which a row of it is skipped.
        limits = {}
        for j, b in enumerate(points):
            pattern = i == 0, j == 0, i == j
            at_three, at_a, at_b, other = _FILING[pattern]
            # The label of c = 3, of c = a and of c = b, the first of them
            # where two of those cells are one.
            cells = {j: at_b, i: at_a, 0: at_three}
            if pieces is None:
                lhs, rhs = lhs_plane[j * n:(j + 1) * n], rhs_plane[j * n:(j + 1) * n]
            else:
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
        ordered[0] = b, a, lhs, sides.block([(a, b, b)])[1][0]
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

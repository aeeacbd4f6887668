"""Interpolative contraction inequalities: evaluation and certification.

The right-hand side is a comparison function applied to a product of five
distance factors raised to exponents p, q, r, s and 1-p-q-r-s. A certificate
checks lhs <= rhs over every generated triple whose points are not fixed by
the map, since the defining inequality is quantified away from fixed points.

`InequalitySides` is the one evaluator of both sides. It evaluates only
dist(a, b, c) and the comparison per triple, a plane or a list at a time:
the metric's `plane` gives the distances of one a over every (b, c), and
`_rhs` the comparison of a list of products, reading a ComparisonFn's line
once when the whole list lies on one piece; both are bit for bit the
pointwise calls. Every other factor is tabulated once per point, per image
S(x), per (S(a), S(b)) or per (S(a), b), whichever it depends on.
`certify` walks the a-planes of its points, n^2 triples each, and reduces
each plane's margins at C level; its sampled path reads the same tables a
block of drawn triples at a time.

The grid walk decides most planes from a bound before making their
products (interval analysis, Moore 1966). A plane's lhs and fifth-factor
lists depend on a only through S(a), so they are made, and given their
`numerics.finite_span`, once per image; its distances are bounded by the
metric's `span` (O(n) on the quintic builtins) or, when that gives none,
made and bounded by their own `finite_span`. A finite span needs finite
values and no nan, not a finite sum. The products of the factors' minima
and maxima, with d^p widened by (1 -+ 2^-48), then bound every product
below and above. A plane whose bound keeps every rhs above every
lhs, and every margin above each spec's running minimum, is cleared: it
cannot change a report, its n^2 triples count in triples_checked
unevaluated, and neither its products nor, under a span, its distances
are made. The widening assumes a pow that is faithfully rounded (an error
below 1 ulp), which Python does not promise. The sampled blocks and the
case table evaluate every triple.

Certificates whose specs differ only in the comparison share one walk
(`_certificates`, as the reproduction script's two do): each plane or block
is evaluated up to its products, and their min and max, once. `_rhs`, the
one maker of an rhs list (for the walk, and for `plane` and `block`, so for
the case table), reads it off one piece's line, or else goes value by
value. On the walk, specs whose lines are equal bit for bit share one rhs
list, one failure list and, while their running minimum margins have the
same bits, one margin reduction; every report is bit for bit that of its
own certify call. The case table evaluates each a-plane once and files
each c of each of its (a, b) rows into its subcase by the row's equality
pattern. `ray_grid` is the one evenly spaced grid on a region carrier's
ray, used by the case table, by `psbm certify --grid` and by the
reproduction script.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, product, repeat, starmap
from operator import getitem, le, lt, ne, sub

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
      over every (b, c) as two flat lists, each kept with its
      `finite_span` as a pair (list, span), and once the g(b)^r and g(c)^s
      over every (b, c).
    A row is computed whole when a triple first needs it, so an error in
    any of its entries is raised there, also when that triple's own entries
    are fine.

    `plane` and `block` evaluate in one stage order, each stage over all
    their triples before the next, and raise the first error met: the
    fifth-factor rows, the distances (in the metric's own (q, r) order in a
    plane), the lhs rows, the first negative distance, the products, and the
    comparison. Each is its comparison-free stage, `_plane_products` or
    `_block_products`, followed by one comparison of the product list.
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
        self._pair = {ix: metric.row(ix, ix, points) for ix in dict.fromkeys(image.values())}
        self._lhs_rows = {}
        self._fifth_rows = {}
        # Per image S(a): (list, finite_span(list)) over every (b, c).
        self._fifth_lists, self._lhs_lists = {}, {}

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
        return lhs[:], _rhs(self._comparison, products, _span(products), {})[1]

    def block(self, triples):
        """(lhs list, rhs list) over a list of triples (a, b, c). Each distinct
        fifth-factor row (S(a), b) and lhs row (S(a), S(b)) of the block is
        made once, in the order the triples first need it, and indexed by c."""
        lhs, products = self._block_products(triples)
        return lhs, _rhs(self._comparison, products, _span(products), {})[1]

    def _plane_factors(self, a, bounded=False):
        """The stages of `plane` that can raise before its products, in
        order: the fifth-factor list of S(a), the distances and the lhs list
        of S(a). Returns (fifth, lhs, ds, d_span): fifth and lhs are the
        pairs (list, `finite_span`), made once per image; ds is the distance
        list and d_span its span, None unless `bounded`. With `bounded`, a
        span from the metric's `span` stands for the distances, which are
        left unmade (None) for `_plane_products`: the metric promises that
        they raise nothing. Without one, they are made and their span is
        their `finite_span`."""
        points, image, fifths, lhss = self.points, self._image, self._fifth_lists, self._lhs_lists
        ia = image[a]
        fifth = fifths.get(ia) or _flat_span(fifths, ia, [self._fifth_row(ia, b) for b in points])
        d_span = self._metric.span(a, points, points) if bounded else None
        ds = None
        if d_span is None:
            ds = self._distances(a)
            d_span = finite_span(ds) if bounded else None
        lhs = lhss.get(ia) or _flat_span(lhss, ia, [self._lhs_row(ia, image[b]) for b in points])
        return fifth, lhs, ds, d_span

    def _distances(self, a):
        """dist(a, b, c) for every b and then every c in `points`."""
        return list(chain.from_iterable(self._metric.plane(a, self.points, self.points)))

    def _plane_products(self, a, factors):
        """`plane` up to its comparison: the lhs list and the product list,
        from `factors`, `_plane_factors(a)`; distances that it left unmade
        are made here."""
        (fifth, _), (lhs, _), ds, _ = factors
        if ds is None:
            ds = self._distances(a)
        return lhs, self._products(ds, repeat(self._fq[a]), *self._tiled, fifth)

    @cached_property
    def _tiled(self):
        """g(b)^r and g(c)^s over (b, c), as every plane reads them."""
        n = len(self.points)
        return list(chain.from_iterable([repeat(self._fr[b], n) for b in self.points])), self._fs * n

    def _plane_bounds(self, a, factors):
        """(lo, hi, top) for a's plane from its `_plane_factors(a,
        bounded=True)`, whose distances lie in d_span = (d_lo, d_hi): lo <=
        every product <= hi < inf, and top is the greatest lhs. None unless
        d_span and the `finite_span`s of the fifth-factor and lhs lists and
        of g(x)^r and g(x)^s are given, and d_lo >= 0. lo and hi are the
        products of the factors' minima and maxima in `_products`' own
        order, so rounded * (monotone on nonnegative operands) keeps every
        product between them; a finite hi also rules out a product that
        overflows and then meets a 0 factor (nan). Only d^p is widened, by
        (1 -+ 2^-48) and only to a normal float or 0: Python does not
        promise a correctly rounded pow, and the widening covers one that
        is faithfully rounded (an error below 1 ulp), which is assumed."""
        (_, t_span), (_, lhs_span), _, d_span = factors
        spans = (t_span, lhs_span, d_span, *self._g_spans)
        if None in spans:
            return None
        (t_lo, t_hi), (_, top), (d_lo, d_hi), (fr_lo, fr_hi), (fs_lo, fs_hi) = spans
        if not d_lo >= 0:
            return None
        w_lo, w_hi = d_lo ** self._p * _WIDEN[0], d_hi ** self._p * _WIDEN[1]
        if not all(w == 0 or sys.float_info.min <= w < math.inf for w in (w_lo, w_hi)):
            return None
        fq = self._fq[a]
        lo, hi = w_lo * fq * fr_lo * fs_lo * t_lo, w_hi * fq * fr_hi * fs_hi * t_hi
        return (lo, hi, top) if hi < math.inf else None

    def _block_products(self, triples):
        """`block` up to its comparison: the lhs list and the product list."""
        index, image, fq, fr, fs = self._index, self._image, self._fq, self._fr, self._fs
        ks = [index[c] for _, _, c in triples]
        fifth = _entries(self._fifth_row, [(image[a], b) for a, b, _ in triples], ks)
        ds = list(starmap(self._dist, triples))
        lhs = _entries(self._lhs_row, [(image[a], image[b]) for a, b, _ in triples], ks)
        return lhs, self._products(ds, [fq[a] for a, _, _ in triples], [fr[b] for _, b, _ in triples], map(fs.__getitem__, ks), fifth)


def _rhs(comparison, products, span, lines):
    """(key, rhs) with rhs = [comparison(v) for v in products], bit for bit,
    errors included; span is `_span(products)`. A ComparisonFn whose
    `_piece(span)` finds a piece reads the list off that piece's line, once
    per line: the list is kept in `lines` under the `_bits` of the line's
    parts, which is also its key, so a later call with a line equal bit for
    bit gets the same list object. Any other comparison, or a list that no
    one piece covers, goes value by value under a key of its own."""
    k = comparison._piece(span) if isinstance(comparison, ComparisonFn) else None
    if k is None:
        return object(), list(map(comparison, products))
    key = tuple(map(_bits, comparison._lines[k]))
    if key not in lines:
        lines[key] = comparison._line(k, products)
    return key, lines[key]


# d ** p times these is a bound below and above on the d ** p of a pow that
# is faithfully rounded, when it is a normal float or 0 (`_plane_bounds`).
_WIDEN = (1 - 2.0 ** -48, 1 + 2.0 ** -48)


def _flat_span(lists, key, rows):
    """lists[key] = (values, finite_span(values)), values being the rows
    chained into one list; returns the pair."""
    values = list(chain.from_iterable(rows))
    pair = lists[key] = values, finite_span(values)
    return pair


def _bits(value):
    """A key that two values share only when both are None or both are the
    same float bit for bit: 0.0 and -0.0 differ, as do nans whose bits
    differ, and a value of any other type shares its key with nothing. It
    keys running minima, and lines by their parts (x0, y0, slope)."""
    if value is None:
        return None
    return struct.pack("<d", value) if type(value) is float else object()


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
    read off, so one spec pays no pass for the sharing.

    With `points`, an a-plane after the first is cleared by `_cleared`, its
    products never made, when a bound on them, rounded outward, shows that
    it cannot change the report; triples_checked counts its triples all
    the same. Its distances are not made either when the metric's `span`
    bounds them. Every factor list must have a `finite_span`, finite
    values and no nan, but need not have a finite sum. The bound assumes
    a faithfully rounded pow (see the module docstring). With
    `sample_count`, every drawn triple is evaluated.
    """
    return _certificates(space, (spec,), points=points, sample_count=sample_count, seed=seed)[0]


def _certificates(space, specs, points=None, sample_count=None, seed=None) -> list:
    """[certify(space, spec, ...) for spec in specs], report for report and
    bit for bit, from one walk. The specs must share p, q, r, s and the map
    (InvalidArgument otherwise), so that the products of every a-plane or
    block, and their min and max, are made once. `_rhs` then gives each
    spec's rhs, one call per spec per chunk: one list for specs whose line
    parts have the same `_bits`, and a list of its own for a spec that goes
    value by value. Specs with one rhs list share its failures,
    and its margin reduction while their running minima are the same bits
    (a float key would merge 0.0 with -0.0); the rest reduce on their own.
    An error is the first of the first a-plane or block that raises, in
    InequalitySides' stage order up to the products, then spec by spec in
    `specs` order: the comparison, then the margins. A shared step raised
    nothing for the spec that made it, so it cannot raise for one that
    reuses it; with one spec this order is certify's."""
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

        # Chunks of (a maker of the triples, their lhs values, their
        # products, or None for a plane that `_cleared` decides); the
        # triples are made only to list failures.
        if points is not None:
            def planes():
                for a in active:
                    _, (lhs, _), _, _ = factors = sides._plane_factors(a, bounded=True)
                    # min_margins holds the running minima of the planes before a.
                    cleared = _cleared(sides, a, factors, specs, min_margins)
                    yield partial(product, (a,), active, active), lhs, None if cleared else sides._plane_products(a, factors)[1]

            chunks = planes()
        else:
            live = [x not in fixed for x in pool]
            rng = random.Random(f"psbm:certify:{seed}")
            blocks = (
                [(pool[i], pool[j], pool[k]) for i, j, k in zip(*positions) if live[i] and live[j] and live[k]]
                for positions in sampled_positions(rng, len(pool), 3, sample_count)
            )
            chunks = ((partial(iter, block), *sides._block_products(block)) for block in blocks if block)

        for triples, lhs, products in chunks:
            checked += len(lhs)
            if products is None:
                continue
            # Specs whose comparisons read the chunk off lines equal bit for
            # bit share one rhs list (kept by `_rhs` in lines), its
            # failures (failed) and, while their running minima are the same
            # bits, its margin reduction (reduced); any other rhs list has a
            # key of its own.
            span, lines, reduced, failed = _span(products), {}, {}, {}
            for i, spec in enumerate(specs):
                key, rhs = _rhs(spec.comparison, products, span, lines)
                min_margin = min_margins[i]
                state = key, _bits(min_margin)
                if state not in reduced:
                    margins = map(sub, rhs, lhs)
                    # Continues the running minimum exactly as a triple-by-triple
                    # `if margin < min_margin` loop would, nan margins included.
                    reduced[state] = min(margins) if min_margin is None else min(chain((min_margin,), margins))
                min_margins[i] = reduced[state]
                if key not in failed:
                    failed[key] = () if all(map(le, lhs, rhs)) else [
                        (*t, l, r) for t, l, r in zip(triples(), lhs, rhs) if not l <= r]
                failures[i].extend(failed[key])
    except OverflowError:  # an int beyond the float range in a power, m or a margin
        raise DistanceOverflow("the contraction inequality overflows the float range") from None

    excluded = tuple(sorted(fixed, key=point_sort_key))
    reports = []
    for found, min_margin in zip(failures, min_margins):
        found.sort(key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
        reports.append(CertificateReport(checked, excluded, tuple(found), min_margin))
    return reports


def _cleared(sides, a, factors, specs, min_margins) -> bool:
    """Whether a's plane leaves every report as it is, decided from
    `sides._plane_bounds` on its `factors`, `sides._plane_factors(a,
    bounded=True)`, and before any product, or any distance the span
    stands for, is made. It does when every comparison is
    a ComparisonFn, every running minimum margin is a float and not nan,
    and for each spec `_piece((lo, hi))` finds a piece k whose
    line gives r = min(line(lo), line(hi)) with r >= top and r - top above
    the minimum. Every product then lies in [lo, hi], on piece k, where the
    rounded line is monotone and >= 0, so each rhs is >= r: no lhs (<= top)
    fails, and each margin, rhs - lhs >= r - top, is above the minimum,
    which keeps its bits. The later stages cannot raise there. Any error
    while bounding means the plane is not cleared."""
    if not all(isinstance(spec.comparison, ComparisonFn) and type(m) is float and m == m
               for spec, m in zip(specs, min_margins)):
        return False
    try:
        bounds = sides._plane_bounds(a, factors)
        if bounds is None:
            return False
        lo, hi, top = bounds
        for spec, min_margin in zip(specs, min_margins):
            k = spec.comparison._piece((lo, hi))
            if k is None:
                return False
            r = min(spec.comparison._line(k, (lo, hi)))
            if not (r >= top and r - top > min_margin):
                return False
    except Exception:  # no bound, so the plane is evaluated
        return False
    return True


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
    rhs_min = v`, nan included, as a triple-by-triple loop finds it. The
    first lhs value that differs from the first is kept, not raised, so that
    the table can name the first subcase, in table order, whose lhs is not
    constant."""

    def __init__(self):
        self.lhs = self.differing = self.rhs_min = self.argmin = None

    def feed(self, a, b, cs, lhs, rhs):
        if self.lhs is None:
            self.lhs, self.rhs_min, self.argmin = lhs[0], rhs[0], (a, b, cs[0])
        if self.differing is None and any(map(ne, lhs, repeat(self.lhs))):
            self.differing = next(v for v in lhs if v != self.lhs)
        values = [self.rhs_min, *rhs]
        k = min(range(len(values)), key=values.__getitem__)
        if k:
            self.rhs_min, self.argmin = rhs[k - 1], (a, b, cs[k - 1])


def reproduce_case_table(space: PartialSbSpace, spec: InterpolativeSpec, grid_size: int = 20) -> CaseTable:
    """The fifteen-subcase split of the worked example: exact lhs per subcase
    and the rhs minimized over the subcase's free ray variables on a grid.

    Reference bounds are compared at 1% and logged as discrepancies, never
    asserted; `holds` is a plain lhs <= rhs against the rounded grid
    minimum, so it speaks of grid points only, up to rounding.
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

    # Each row is filed as its plane is made, so that one plane is held at a
    # time: a subcase takes at most one segment of a row, and its segments
    # come in its own order, except 4(iii)'s, whose first minimum runs over
    # b and then a; they wait in `late` for the sort.
    scans = {label: _Scan() for label in _CONDITIONS}
    late = []
    n = len(points)
    for i, a in enumerate(points):
        lhs_plane, rhs_plane = sides.plane(a)
        for j, b in enumerate(points):
            lhs, rhs = lhs_plane[j * n:(j + 1) * n], rhs_plane[j * n:(j + 1) * n]
            at_three, at_a, at_b, other = _FILING[(i == 0, j == 0, i == j)]
            special = sorted({0, i, j})
            for k in special:
                label = at_three if k == 0 else at_a if k == i else at_b
                if label == "4(iii)":
                    late.append((b, a, lhs[k], rhs[k]))
                else:
                    scans[label].feed(a, b, [points[k]], [lhs[k]], [rhs[k]])
            scans[other].feed(a, b, *(_without(v, special) for v in (points, lhs, rhs)))
    for b, a, lhs, rhs in sorted(late):
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

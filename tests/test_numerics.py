"""The exact decision for computed bounds, against a reference in Fraction,
the finite span of a list, and the point sort key.

rounding_bound must bound the rounding of the float sums it guards, and
exact_value must give the true value of t * (a + b + c) - o: a Fraction on
finite operands, the extended-real value otherwise.
"""

import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import BUILTIN_SPACES, builtin_space, ray_grid, sample_carrier, witness_candidates
from psbmetric.numerics import exact_value, finite_span, point_sort_key, rounding_bound

INF = math.inf

# Operands of the rectangle and the ball cut: floats of every size (the
# subnormals included), ints within and far beyond the float range.
FLOATS = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
FINITE = st.one_of(
    FLOATS,
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(10**30), 10**30),
    st.integers(-(10**400), 10**400),
)
SCALES = st.one_of(st.sampled_from([1, 2, 1.0, 1.5, 1.1]), st.floats(min_value=1, max_value=1e6))


def reference_value(scale, terms, offset):
    return Fraction(scale) * sum(Fraction(x) for x in terms) - Fraction(offset)


class TestExactValue:
    @settings(max_examples=500)
    @given(SCALES, st.tuples(FINITE, FINITE, FINITE), FINITE)
    def test_finite_operands_give_the_fraction(self, scale, terms, offset):
        value = exact_value(scale, terms, offset)
        assert isinstance(value, Fraction) and value == reference_value(scale, terms, offset)

    def test_sums_beyond_the_float_range_stay_exact(self):
        big = 1.7e308
        value = exact_value(1.5, (big, big, big), big)
        assert value == Fraction(big) * Fraction(7, 2)
        assert 1.5 * (big + big + big) - big == INF
        assert exact_value(1, (10**400, 0.5)) == Fraction(2 * 10**400 + 1, 2)

    @pytest.mark.parametrize("scale, terms, offset, expected", [
        (1, (INF, 1.0, 10**400), 0, INF),
        (1.5, (-INF, 2, 3), 10**400, -INF),
        (2, (1, 2, 3), INF, -INF),
        (2, (1, 2, 3), -INF, INF),
        (INF, (1, -3, 1), 0, -INF),
        (1, (INF, 1, 1), INF, math.nan),
        (1, (INF, -INF, 1), 0, math.nan),
        (INF, (1, -1, 0), 0, math.nan),
        (1, (math.nan, 1, 1), 0, math.nan),
    ])
    def test_infinite_operands_give_the_extended_real(self, scale, terms, offset, expected):
        value = exact_value(scale, terms, offset)
        assert value == expected or (value != value and expected != expected)


NONNEGATIVE = st.one_of(
    st.floats(min_value=0, max_value=1e308),
    st.floats(min_value=0, max_value=1e-300),
    st.integers(0, 2**60),
)


class TestRoundingBound:
    @settings(max_examples=500)
    @given(SCALES, st.tuples(NONNEGATIVE, NONNEGATIVE, NONNEGATIVE), NONNEGATIVE)
    def test_it_bounds_the_rounding_of_the_rectangle_sum(self, scale, terms, offset):
        a, b, c = terms
        value = scale * (a + b + c) - offset
        rel, tiny = rounding_bound((scale, a, b, c, offset))
        err = rel * (value + offset + offset) + tiny
        exact = reference_value(scale, terms, offset)
        if math.isfinite(value):
            assert value - err <= exact <= value + err
        else:
            assert math.isnan(value - err) and not exact <= value - err

    @settings(max_examples=500)
    @given(NONNEGATIVE, NONNEGATIVE)
    def test_it_bounds_the_rounding_of_the_ball_cut(self, radius, self_d):
        cut = radius + self_d
        rel, tiny = rounding_bound((radius, self_d))
        err = rel * (radius + self_d) + tiny
        if math.isfinite(cut):
            assert cut - err <= Fraction(radius) + Fraction(self_d) <= cut + err

    def test_ints_round_nothing(self):
        assert rounding_bound((1, 10**400, 3)) == (0, 0)

    @pytest.mark.parametrize("operands", [(1.0, INF), (1, math.nan), (1.5, -1), (-0.5, 2)])
    def test_no_bound_on_negative_or_non_finite_operands(self, operands):
        assert all(math.isnan(x) for x in rounding_bound(operands))


MAX = sys.float_info.max
NAN = math.nan


class TestFiniteSpan:
    """finite_span gives (min, max) of a list exactly when every value is
    within the float range and none is nan; a sum that overflows is no
    reason to give none."""

    @settings(max_examples=500)
    @given(st.lists(st.one_of(
        st.floats(),
        st.sampled_from([MAX, -MAX, INF, -INF, NAN, -0.0]),
        st.integers(-(10**30), 10**30),
        st.integers(-(10**400), 10**400),
    )))
    def test_a_span_is_finite_and_holds_every_value(self, values):
        span = finite_span(values)
        if span is not None:
            lo, hi = span
            assert -MAX <= lo <= hi <= MAX
            assert all(lo <= v <= hi for v in values)

    @settings(max_examples=300)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_finite_floats_always_get_their_min_and_max(self, values):
        assert finite_span(values) == (min(values), max(values))

    @pytest.mark.parametrize("values", [
        [NAN, 1.0, 2.0],
        [1.0, NAN, 2.0],
        [1.0, 2.0, NAN],
        [1, -NAN, 2],
    ], ids=["first", "middle", "last", "negative-among-ints"])
    def test_a_nan_anywhere_gives_none(self, values):
        assert finite_span(values) is None

    @pytest.mark.parametrize("values", [
        [1.0, INF],
        [-INF, 1.0],
        [INF, 1.0, -INF],
        [MAX, MAX, -INF],
    ], ids=["inf", "minus-inf", "both", "overflowed-sum-and-minus-inf"])
    def test_an_infinite_value_gives_none(self, values):
        assert finite_span(values) is None

    @pytest.mark.parametrize("values", [
        [],
        [10**400],
        [-(10**400), 1],
        [1.0, 10**400, 2.0],
        [2**1024],
    ], ids=["empty", "int-alone", "negative-int-among-ints", "int-among-floats", "just-beyond"])
    def test_no_span_beyond_the_float_range(self, values):
        assert finite_span(values) is None

    def test_finite_floats_whose_sum_overflows_get_a_span(self):
        assert math.isinf(sum([MAX, MAX, 1.0]))
        assert finite_span([MAX, MAX, 1.0]) == (1.0, MAX)
        assert finite_span([-MAX, 0.0, -MAX]) == (-MAX, 0.0)

    def test_ints_whose_exact_sum_passes_the_float_maximum_get_a_span(self):
        top = int(MAX)
        assert sum([top, top, 3]) > MAX
        assert finite_span([top, 3, top]) == (3, top)
        assert type(finite_span([top, 3, top])[1]) is int


# The sort key before it keyed numbers by the number itself.

def reference_point_sort_key(p):
    if isinstance(p, bool):
        return (1, 0.0, str(p))
    if isinstance(p, (int, float)):
        return (0, float(p), "")
    return (1, 0.0, str(p))


def key_corpus():
    """Every kind of point the program sorts: the builtins' scan candidates
    and samples, the certificate grid, mixed region points (4 and 4.0,
    halves, -0.0), labels and bools."""
    points = [0, 0.0, -0.0, -3, 4, 4.0, 2.5, 1e-300, 1e300, -1e300, 2**53, float(2**53), "a", "b", "2.5", "10", True, False]
    for name in BUILTIN_SPACES:
        space = builtin_space(name)
        for bound in (0.5, 2.5, 4.0, 64, 1000.0):
            points += witness_candidates(space, bound)
        for seed in range(3):
            points += sample_carrier(space, count=50, seed=seed)
    points += ray_grid(builtin_space("quintic_gap").carrier, 50)
    return points


class TestPointSortKey:
    def test_the_corpus_sorts_as_before(self):
        points = key_corpus()
        assert sorted(points, key=point_sort_key) == sorted(points, key=reference_point_sort_key)
        assert [type(p) for p in sorted(points, key=point_sort_key)] == [
            type(p) for p in sorted(points, key=reference_point_sort_key)
        ]

    def test_every_corpus_pair_compares_as_before(self):
        keys = [(point_sort_key(p), reference_point_sort_key(p)) for p in set(key_corpus()) | {"a", "b"}]
        for (new_a, old_a), (new_b, old_b) in itertools.product(keys, repeat=2):
            assert (new_a < new_b, new_a == new_b) == (old_a < old_b, old_a == old_b)

    @given(
        st.one_of(st.integers(-(2**53), 2**53), st.floats(allow_nan=False), st.booleans(), st.text(max_size=3)),
        st.one_of(st.integers(-(2**53), 2**53), st.floats(allow_nan=False), st.booleans(), st.text(max_size=3)),
    )
    def test_points_within_float_precision_compare_as_before(self, a, b):
        new_a, new_b = point_sort_key(a), point_sort_key(b)
        old_a, old_b = reference_point_sort_key(a), reference_point_sort_key(b)
        assert (new_a < new_b, new_a == new_b) == (old_a < old_b, old_a == old_b)

    @given(st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))
    def test_larger_ints_keep_every_strict_order_of_the_old_key(self, a, b):
        # Above 2^53 the old key could tie distinct ints; it never reversed them.
        if reference_point_sort_key(a) < reference_point_sort_key(b):
            assert point_sort_key(a) < point_sort_key(b)
        assert (point_sort_key(a) < point_sort_key(b)) == (a < b)

    def test_ints_beyond_the_float_range_sort(self):
        huge = 10**400
        points = [huge, "a", 2.5, -huge, True, 1, math.inf]
        assert sorted(points, key=point_sort_key) == [-huge, 1, 2.5, huge, math.inf, True, "a"]

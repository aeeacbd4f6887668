"""Edge behaviour of the shared comparators and of the point sort key.

Two int operands compare exactly; any other pair (a float, a bool) uses the
relative tolerance REL_TOL for leq/values_equal and the margin STRICT_MARGIN
for strictly_less, both scaled by max(1, |a|, |b|).
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from psbmetric import BUILTIN_SPACES, builtin_space, ray_grid, sample_carrier, witness_candidates
from psbmetric.numerics import (
    REL_TOL,
    STRICT_MARGIN,
    _scale,
    exact,
    leq,
    point_sort_key,
    strictly_less,
    values_equal,
)

INTS = st.integers(min_value=-(10**30), max_value=10**30)
FLOATS = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
NUMBERS = st.one_of(INTS, FLOATS, st.booleans())


# The comparators before their plain-comparison fast paths.

def reference_leq(a, b):
    if exact(a, b):
        return a <= b
    return a <= b + REL_TOL * _scale(a, b)


def reference_strictly_less(a, b):
    if exact(a, b):
        return a < b
    return a < b - STRICT_MARGIN * _scale(a, b)


# Operands of every kind: ints far beyond the float range, any float
# (nan and the infinities included) and bools.
WIDE_OPERANDS = st.one_of(
    INTS,
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -0.0, 1, 1.0, 10**17, 10**17 + 1]),
)


@st.composite
def near_pairs(draw):
    """Pairs a few tolerances or margins apart, as int/int, int/float,
    float/float or bool pairs, in either order."""
    a = draw(NUMBERS)
    tol = draw(st.sampled_from([REL_TOL, STRICT_MARGIN]))
    k = draw(st.sampled_from([-10, -1.1, -1, -0.9, -0.5, 0, 0.5, 0.9, 1, 1.1, 10]))
    b = a + k * tol * max(1.0, abs(a))
    if draw(st.booleans()):
        b = round(b)
    if draw(st.booleans()):
        a = float(a)
    return (b, a) if draw(st.booleans()) else (a, b)


PAIRS = st.one_of(st.tuples(WIDE_OPERANDS, WIDE_OPERANDS), near_pairs())


def outcome(fn, a, b):
    try:
        return fn(a, b)
    except OverflowError:
        return OverflowError


class TestExact:
    def test_only_two_plain_ints_are_exact(self):
        assert exact(3, 10**40)
        assert not exact(3, 3.0) and not exact(3.0, 3)
        assert not exact(True, 1) and not exact(1, False)
        assert not exact(2.5, 2.5)

    @given(NUMBERS, NUMBERS)
    def test_exact_is_the_type_test(self, a, b):
        assert exact(a, b) == (type(a) is int and type(b) is int)


class TestExactPath:
    @given(INTS, INTS)
    def test_int_pairs_compare_like_python(self, a, b):
        assert leq(a, b) == (a <= b)
        assert strictly_less(a, b) == (a < b)
        assert values_equal(a, b) == (a == b)

    def test_neighbouring_big_ints_stay_apart(self):
        # 10^17 + 1 and 10^17 are one float apart at most: only the int path tells them apart.
        big = 10**17
        assert not values_equal(big, big + 1) and not leq(big + 1, big)
        assert strictly_less(big, big + 1)
        assert values_equal(big, float(big + 1)) and leq(big + 1, float(big))
        assert not strictly_less(big, float(big + 1))


class TestTolerancePath:
    @given(FLOATS, st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    def test_inside_rel_tol_is_equal(self, a, k):
        b = a + k * REL_TOL * max(1.0, abs(a))
        assert values_equal(a, b) and values_equal(b, a)
        assert leq(b, a) and leq(a, b)

    @given(FLOATS, st.sampled_from([1.1, 2.0, 10.0]))
    def test_beyond_rel_tol_is_unequal(self, a, k):
        b = a + k * REL_TOL * max(1.0, abs(a))
        assert not values_equal(a, b) and not values_equal(b, a)
        assert not leq(b, a) and leq(a, b)

    @given(FLOATS, st.sampled_from([0.0, 0.25, 0.5, 0.9]))
    def test_inside_strict_margin_is_not_less(self, a, k):
        b = a + k * STRICT_MARGIN * max(1.0, abs(a))
        assert not strictly_less(a, b)

    @given(FLOATS, st.sampled_from([1.1, 2.0, 10.0]))
    def test_beyond_strict_margin_is_less(self, a, k):
        b = a + k * STRICT_MARGIN * max(1.0, abs(a))
        assert strictly_less(a, b) and not strictly_less(b, a)

    @given(st.integers(min_value=-(10**9), max_value=10**9), st.sampled_from([0.5, 2.0]))
    def test_int_against_float_uses_the_margin(self, n, k):
        margin = STRICT_MARGIN * max(1.0, abs(n))
        assert strictly_less(n, n + k * margin) == (k > 1)
        assert values_equal(n, n + k * REL_TOL * max(1.0, abs(n))) == (k < 1)

    def test_a_gap_between_margin_and_tolerance_is_both_less_and_equal(self):
        b = 1 + 100 * STRICT_MARGIN
        assert 100 * STRICT_MARGIN < REL_TOL
        assert strictly_less(1.0, b) and values_equal(1.0, b) and leq(b, 1.0)

    def test_bools_take_the_tolerance_path(self):
        assert values_equal(True, 1) and values_equal(1, True)
        assert values_equal(True, 1 + 0.5 * REL_TOL)
        assert leq(True, 1.0) and leq(1 + 0.5 * REL_TOL, True)
        assert strictly_less(False, True) and not strictly_less(True, 1 + 0.5 * STRICT_MARGIN)


class TestConsistency:
    @settings(max_examples=300)
    @given(NUMBERS, NUMBERS)
    def test_comparators_agree(self, a, b):
        if strictly_less(a, b):
            assert leq(a, b) and not strictly_less(b, a)
        if values_equal(a, b):
            assert values_equal(b, a) and leq(a, b) and leq(b, a)
        if not leq(a, b):
            assert strictly_less(b, a)

    @settings(max_examples=300)
    @given(NUMBERS, NUMBERS, NUMBERS)
    def test_strictly_less_is_monotone_in_the_bound_on_each_path(self, d, b1, b2):
        # The nested-ball cut in uncovered_witness rests on this: for cuts
        # of one kind (both int, or both not), a larger cut covers more.
        if (type(b1) is int) != (type(b2) is int):
            return
        lo, hi = sorted((b1, b2))
        if strictly_less(d, lo):
            assert strictly_less(d, hi)


class TestFastPathsMatchReference:
    """The plain-comparison fast paths return what the reference returns;
    where the reference overflows, they overflow too or give the plain
    answer. The one exception: leq(-inf, -inf), where the reference's
    bound -inf + inf is nan."""

    @settings(max_examples=600)
    @given(PAIRS)
    def test_both_comparators(self, pair):
        a, b = pair
        expected, found = outcome(reference_leq, a, b), outcome(leq, a, b)
        if expected is OverflowError:
            assert found in (OverflowError, a <= b)
        elif a == b == -math.inf:
            assert expected is False and found is True
        else:
            assert found == expected
        expected, found = outcome(reference_strictly_less, a, b), outcome(strictly_less, a, b)
        if expected is OverflowError:
            assert found in (OverflowError, a < b)
        else:
            assert found == expected

    def test_the_overflow_cases_take_the_plain_answer(self):
        huge = 10**400
        assert leq(1.5, huge) and not strictly_less(huge, 1.5)
        assert outcome(reference_leq, 1.5, huge) is OverflowError
        assert outcome(reference_strictly_less, huge, 1.5) is OverflowError

    def test_minus_infinity_is_at_most_itself(self):
        assert leq(-math.inf, -math.inf) and not reference_leq(-math.inf, -math.inf)
        assert not strictly_less(-math.inf, -math.inf)

    @given(PAIRS)
    def test_plain_order_implies_leq_on_every_path(self, pair):
        a, b = pair
        if a <= b:
            assert leq(a, b)

    @settings(max_examples=300)
    @given(NUMBERS, NUMBERS, NUMBERS)
    def test_leq_is_monotone_in_the_bound_on_each_path(self, d, b1, b2):
        if (type(b1) is int) != (type(b2) is int):
            return
        lo, hi = sorted((b1, b2))
        if leq(d, lo):
            assert leq(d, hi)


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

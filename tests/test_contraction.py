import dataclasses
import itertools
import math
import operator
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import (
    BOYD_WONG,
    ComparisonFn,
    DistanceOverflow,
    FiniteCarrier,
    InequalitySides,
    InterpolativeSpec,
    InvalidArgument,
    InvalidExponents,
    PartialSbSpace,
    PsbmError,
    REFERENCE_BOUNDS,
    RuleMetric,
    SelfMap,
    UnknownBuiltin,
    UnknownPoint,
    WrongSpaceShape,
    builtin_comparison,
    builtin_map,
    builtin_space,
    certify,
    fixed_points_bruteforce,
    map_from_table,
    piecewise_linear,
    random_tabulated_space,
    quintic,
    ray_grid,
    reproduce_case_table,
    sample_carrier,
    standard_spec,
    tabulated_space,
    validate_exponents,
)
from psbmetric import comparison as comparison_module, contraction
from psbmetric.numerics import point_sort_key
from psbmetric.spaces import SAMPLE_BLOCK, RegionCarrier

GAP = builtin_space("quintic_gap")
PAPER_S = builtin_map("paper_S")

EXPECTED_LHS_COLUMN = (0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243)


def grid_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


CERT_POINTS = [0, 3] + grid_points(4, 64, 50)

ORIGIN = (0.0, 0.0)
# t / 4, one piece through the origin.
QUARTER = ComparisonFn("quarter", ((0.0, (ORIGIN, (1.0, 0.25)), True),), BOYD_WONG)


@dataclasses.dataclass(frozen=True)
class FakeComparison:
    """Stands in for a ComparisonFn where a test needs values no piece list
    gives: nan, inf, or an error."""

    name: str
    fn: object
    kind: str | None = None

    def __call__(self, v):
        return self.fn(v)


def reference_product(space, spec, a, b, c):
    """The product of the five interpolation factors at (a, b, c), evaluated
    point by point with the factors in the library's order."""
    S = spec.mapping
    dist = space.metric
    mean = (dist(S(a), S(a), b) + dist(S(b), S(b), c)) / (2 * space.coefficient)
    return (
        dist(a, b, c) ** spec.p
        * dist(a, a, S(a)) ** spec.q
        * dist(b, b, S(b)) ** spec.r
        * dist(c, c, S(c)) ** spec.s
        * mean ** spec.residual
    )


def reference_rhs(space, spec, a, b, c):
    """comparison( product of the five interpolation factors ) at (a, b, c)."""
    return spec.comparison(reference_product(space, spec, a, b, c))


def reference_sides(space, spec, triples):
    """(lhs list, rhs list) over `triples`, point by point."""
    S = spec.mapping
    return (
        [space.metric(S(a), S(b), S(c)) for a, b, c in triples],
        [reference_rhs(space, spec, a, b, c) for a, b, c in triples],
    )


def reference_certificate(space, spec, triples):
    """(triples checked, sorted failures, min margin) of lhs <= rhs over
    `triples`, every side evaluated point by point."""
    S = spec.mapping
    failures, margins = [], []
    for a, b, c in triples:
        lhs = space.metric(S(a), S(b), S(c))
        rhs = reference_rhs(space, spec, a, b, c)
        margins.append(rhs - lhs)
        if not lhs <= rhs:
            failures.append((a, b, c, lhs, rhs))
    failures.sort(key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
    return len(margins), tuple(failures), min(margins, default=None)


def grid_triples(spec, points):
    active = [x for x in points if spec.mapping(x) != x]
    return itertools.product(active, repeat=3)


def sampled_draws(space, sample_count, seed):
    """The triples certify draws in sampled mode, fixed points included."""
    pool = sample_carrier(space, seed=seed)
    rng = random.Random(f"psbm:certify:{seed}")
    return [tuple(rng.choice(pool) for _ in range(3)) for _ in range(sample_count)]


def sampled_blocks(space, spec, sample_count, seed):
    """The triples certify draws in sampled mode, fixed points dropped, as
    the blocks it evaluates: the kept triples of each SAMPLE_BLOCK draws,
    empty blocks left out."""
    drawn = sampled_draws(space, sample_count, seed)
    chunks = (drawn[k:k + SAMPLE_BLOCK] for k in range(0, sample_count, SAMPLE_BLOCK))
    blocks = ([t for t in chunk if all(spec.mapping(x) != x for x in t)] for chunk in chunks)
    return [block for block in blocks if block]


def sampled_triples(space, spec, sample_count, seed):
    """The triples certify draws in sampled mode, fixed points dropped."""
    return [t for block in sampled_blocks(space, spec, sample_count, seed) for t in block]


def assert_matches_reference(report, space, spec, triples):
    checked, failures, min_margin = reference_certificate(space, spec, triples)
    assert report.triples_checked == checked
    assert report.failures == failures
    assert report.min_margin == min_margin


def reference_error(space, spec, points, triples):
    """(type, message) of the first error that a triple-by-triple
    evaluation meets, or None: every g(x) = dist(x, x, S(x)) is powered
    first, then each triple's dist(a, b, c), its mean and the comparison."""
    S, dist = spec.mapping, space.metric
    try:
        for x in points:
            if dist(x, x, S(x)) < 0:
                raise PsbmError(f"negative distance factor {dist(x, x, S(x))}")
        for a, b, c in triples:
            if dist(a, b, c) < 0:
                raise PsbmError(f"negative distance factor {dist(a, b, c)}")
            mean = (dist(S(a), S(a), b) + dist(S(b), S(b), c)) / (2 * space.coefficient)
            if mean < 0:
                raise PsbmError(f"negative distance factor {mean}")
            reference_rhs(space, spec, a, b, c)
    except Exception as exc:  # the first error is the result
        return type(exc), str(exc)
    return None


def stage_outcome(space, spec, points, triples):
    """What an evaluator over `points` gives for `triples`, as sides_outcome
    puts it: both sides, or the first error that its stages meet, each
    stage evaluated point by point over every triple before the next. At
    construction, the self-gaps g(x) of `points` and then their signs; then
    the fifth-factor row over `points` of each triple, its mean checked for
    +inf and then for sign at each c; the distances; the lhs row over
    `points` of each triple; the first negative distance; the products; and
    the comparison."""
    S, dist = spec.mapping, space.metric

    def factor(v):
        if v < 0:
            raise PsbmError(f"negative distance factor {v}")

    pairs = list(dict.fromkeys((a, b) for a, b, _ in triples))  # a row per pair
    try:
        for gap in [dist(x, x, S(x)) for x in points]:
            factor(gap)
        for a, b in pairs:
            for c in points:
                mean = (dist(S(a), S(a), b) + dist(S(b), S(b), c)) / (2 * space.coefficient)
                if mean == math.inf:
                    raise DistanceOverflow("the contraction inequality overflows the float range")
                factor(mean)
        ds = [dist(a, b, c) for a, b, c in triples]
        for a, b in pairs:
            for c in points:
                dist(S(a), S(b), S(c))
        for d in ds:
            factor(d)
        products = [reference_product(space, spec, *t) for t in triples]
        rhs = [spec.comparison(v) for v in products]
    except Exception as exc:  # the first error is the outcome
        return type(exc), str(exc)
    lhs = [dist(S(a), S(b), S(c)) for a, b, c in triples]
    return tuple([(type(v), repr(v)) for v in side] for side in (lhs, rhs))


def raised(outcome):
    return isinstance(outcome[0], type)


def picky(v):
    """v / 4, except that it refuses some values."""
    if int(v * 10) % 7 == 3:
        raise ArithmeticError(f"picky refuses {v}")
    return v / 4


def random_spec(rng, labels, comparisons):
    mapping = map_from_table({x: rng.choice(labels) for x in labels})
    exps = [rng.uniform(0.05, 0.24) for _ in range(4)]
    return InterpolativeSpec(*exps, comparison=rng.choice(comparisons), mapping=mapping)


def _distinct_pairs(grid):
    return ((x, y) for x in grid for y in grid if x != y)


def _others(grid, *excluded):
    return [z for z in grid if z not in excluded]


# The case table's subcases, each listing its triples as rows (a, b, [c, ...])
# over the ray grid, in the order in which the first minimum of the rhs is
# taken: the reference for the table's one-pass filing.
_SUBCASES = (
    ("1(i)", "a = b = c = 3", lambda g: [(3, 3, [3])]),
    ("1(ii)", "a = b = c != 3", lambda g: ((x, x, [x]) for x in g)),
    ("2(i)", "a = b = 3, c != 3", lambda g: [(3, 3, g)]),
    ("2(ii)", "a = b != 3, c = 3", lambda g: ((x, x, [3]) for x in g)),
    ("2(iii)", "a = b != 3, c != 3", lambda g: ((x, x, _others(g, x)) for x in g)),
    ("3(i)", "b != 3, a = c = 3", lambda g: ((3, x, [3]) for x in g)),
    ("3(ii)", "b = 3, a = c != 3", lambda g: ((x, 3, [x]) for x in g)),
    ("3(iii)", "b != 3, a = c != 3", lambda g: ((x, y, [x]) for x, y in _distinct_pairs(g))),
    ("4(i)", "b = c = 3, a != 3", lambda g: ((x, 3, [3]) for x in g)),
    ("4(ii)", "b = c != 3, a = 3", lambda g: ((3, x, [x]) for x in g)),
    ("4(iii)", "b = c != 3, a != 3", lambda g: ((y, x, [x]) for x, y in _distinct_pairs(g))),
    ("5(i)", "all distinct, a = 3", lambda g: ((3, x, _others(g, x)) for x in g)),
    ("5(ii)", "all distinct, b = 3", lambda g: ((x, 3, _others(g, x)) for x in g)),
    ("5(iii)", "all distinct, c = 3", lambda g: ((x, y, [3]) for x, y in _distinct_pairs(g))),
    ("5(iv)", "all distinct, none = 3", lambda g: ((x, y, _others(g, x, y)) for x, y in _distinct_pairs(g))),
)


def subcase_triples(subcase_rows, grid):
    """A subcase's triples (a, b, c) over `grid`, in its order."""
    return [(a, b, c) for a, b, cs in subcase_rows(grid) for c in cs]


NAN = float("nan")
INF = float("inf")
# Comparisons that return nan or +-inf on some products, so that a nan margin
# opens some rows and sits inside others.
SPIKY = (
    FakeComparison("nan-spikes", lambda v: NAN if int(v * 7) % 5 == 0 else v / 4),
    FakeComparison("inf-spikes", lambda v: INF if int(v * 3) % 4 == 0 else -INF if int(v) % 9 == 0 else v / 4),
    FakeComparison("all-nan", lambda v: NAN),
)


class TestSelfMap:
    def test_paper_s_values(self):
        assert PAPER_S(0) == 0 and PAPER_S(3) == 0
        assert PAPER_S(4) == 3 and PAPER_S(17.5) == 3

    def test_tabulated_map(self):
        mapping = map_from_table({0: 3, 3: 0})
        assert mapping(0) == 3
        with pytest.raises(UnknownPoint):
            mapping(5)

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            builtin_map("missing")


class TestRhsValue:
    def test_matches_hand_expansion_at_444(self):
        # Direct expansion: dist(4,4,4)=1024, dist(4,4,3)=2534 in every other
        # slot, inner average (2534+2534)/2 = 2534, then the halving branch.
        expected = 0.5 * (
            1024**0.2 * 2534**0.2 * 2534**0.2 * 2534**0.2 * ((2534 + 2534) / 2) ** 0.2
        )
        got = reference_rhs(GAP, standard_spec(), 4, 4, 4)
        assert math.isclose(got, expected, rel_tol=1e-9)
        assert math.isclose(got, 1057.0007223483, rel_tol=1e-9)

    def test_lhs_zero_at_all_threes(self):
        assert GAP.metric(PAPER_S(3), PAPER_S(3), PAPER_S(3)) == 0
        assert reference_rhs(GAP, standard_spec(), 3, 3, 3) >= 0

    @settings(max_examples=50, deadline=None)
    @given(
        v=st.floats(min_value=0.01, max_value=1e6).filter(lambda v: abs(v - 1) > 1e-3),
        exps=st.lists(
            st.floats(min_value=0.05, max_value=0.24), min_size=4, max_size=4
        ),
    )
    def test_equal_factors_collapse_to_comparison_of_v(self, v, exps):
        # All five bracket factors equal v exactly when the distance is the
        # constant v and the map has no fixed point on the two points.
        table = {t: v for t in itertools.product((1, 2), repeat=3)}
        space = tabulated_space((1, 2), table)
        swap = map_from_table({1: 2, 2: 1}, name="swap")
        tau = builtin_comparison("paper_tau")
        spec = InterpolativeSpec(*exps, comparison=tau, mapping=swap)
        assert math.isclose(reference_rhs(space, spec, 1, 2, 1), tau(v), rel_tol=1e-12)
        assert InequalitySides(space, spec, (1, 2)).block([(1, 2, 1)]) == ([v], [reference_rhs(space, spec, 1, 2, 1)])


class TestInequalitySides:
    def test_sides_equal_reference_bit_for_bit(self):
        points = [3] + grid_points(4, 64, 7)
        for matkowski in (False, True):
            spec = standard_spec(matkowski=matkowski)
            sides = InequalitySides(GAP, spec, points)
            for a in points:
                triples = [(a, b, c) for b in points for c in points]
                expected = reference_sides(GAP, spec, triples)
                assert sides.plane(a) == expected
                assert sides.block(triples) == expected
                for b in points:
                    row = [(a, b, c) for c in points]
                    assert sides.block(row) == reference_sides(GAP, spec, row)

    def test_hand_expansion_at_444(self):
        (lhs,), (rhs,) = InequalitySides(GAP, standard_spec(), [4]).block([(4, 4, 4)])
        assert lhs == 243
        assert math.isclose(rhs, 1057.0007223483, rel_tol=1e-9)

    def test_invalid_exponents_rejected(self):
        spec = InterpolativeSpec(0.3, 0.3, 0.3, 0.3, QUARTER, PAPER_S)
        with pytest.raises(InvalidExponents):
            InequalitySides(GAP, spec, [3, 4])


class TestRayGrid:
    def test_even_spacing_from_start_to_bound(self):
        assert ray_grid(GAP.carrier, 4) == [4, 24, 44, 64]
        assert ray_grid(GAP.carrier, 50) == grid_points(4, 64, 50)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_fewer_than_two_points_rejected(self, n):
        with pytest.raises(PsbmError, match="at least 2 points"):
            ray_grid(GAP.carrier, n)

    @pytest.mark.parametrize("bound", [2, 4])
    def test_bound_leaving_no_positive_length_rejected(self, bound):
        carrier = dataclasses.replace(GAP.carrier, bound=bound)
        with pytest.raises(PsbmError, match="no interval of positive length"):
            ray_grid(carrier, 5)


    @pytest.mark.parametrize("bound", [4.000000000000001, 4.00000000000001])
    def test_points_that_repeat_as_floats_rejected(self, bound):
        carrier = dataclasses.replace(GAP.carrier, bound=bound)
        assert len(ray_grid(carrier, 2)) == 2
        with pytest.raises(PsbmError, match=r"is too short for 20 distinct grid points$"):
            ray_grid(carrier, 20)


class TestCertify:
    def test_sampled_paper_spec_passes(self):
        report = certify(GAP, standard_spec(), sample_count=200, seed=0)
        assert report.passed
        assert report.excluded_fixed_points == (0,)

    def test_sampled_matkowski_spec_passes(self):
        report = certify(GAP, standard_spec(matkowski=True), sample_count=200, seed=0)
        assert report.passed

    def test_exhaustive_grid_passes_both_inequalities(self):
        for matkowski in (False, True):
            report = certify(GAP, standard_spec(matkowski=matkowski), points=CERT_POINTS)
            assert report.passed
            assert report.excluded_fixed_points == (0,)
            assert report.triples_checked == 51**3

    def test_exponent_sum_at_boundary_rejected(self):
        spec = InterpolativeSpec(
            0.25, 0.25, 0.25, 0.25, builtin_comparison("paper_tau"), PAPER_S
        )
        with pytest.raises(InvalidExponents):
            certify(GAP, spec, sample_count=10)
        with pytest.raises(InvalidExponents):
            validate_exponents(spec)

    def test_out_of_range_exponent_rejected(self):
        tau = builtin_comparison("paper_tau")
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(InvalidExponents):
                validate_exponents(InterpolativeSpec(bad, 0.1, 0.1, 0.1, tau, PAPER_S))

    def test_all_points_fixed_certifies_vacuously(self):
        # The inequality quantifies away from fixed points, so an identity
        # map leaves nothing to check.
        spec = InterpolativeSpec(
            0.2, 0.2, 0.2, 0.2, builtin_comparison("paper_tau"), builtin_map("identity")
        )
        report = certify(GAP, spec, points=[0, 3, 4])
        assert report.passed
        assert report.triples_checked == 0
        assert report.excluded_fixed_points == (0, 3, 4)
        assert report.min_margin is None

    def test_failing_certificate_is_sound(self):
        # A comparison function harsh enough to break the inequality; every
        # reported failure must re-evaluate to lhs > rhs independently.
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, QUARTER, PAPER_S)
        report = certify(GAP, spec, points=[0, 3, 4, 7, 10])
        assert not report.passed
        for a, b, c, lhs, rhs in report.failures:
            assert lhs == GAP.metric(PAPER_S(a), PAPER_S(b), PAPER_S(c))
            assert rhs == reference_rhs(GAP, spec, a, b, c)
            assert lhs > rhs

    def test_sampled_certificates_are_deterministic(self):
        first = certify(GAP, standard_spec(), sample_count=150, seed=9)
        second = certify(GAP, standard_spec(), sample_count=150, seed=9)
        assert first == second

    def test_min_margin_is_reproducible(self):
        spec = standard_spec()
        report = certify(GAP, spec, points=[0, 3, 4, 7])
        margins = [
            reference_rhs(GAP, spec, a, b, c)
            - GAP.metric(PAPER_S(a), PAPER_S(b), PAPER_S(c))
            for a, b, c in itertools.product((3, 4, 7), repeat=3)
        ]
        assert report.min_margin == min(margins)

    @pytest.mark.parametrize("count", [0, -5])
    def test_nonpositive_sample_count_rejected(self, count):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            certify(GAP, standard_spec(), sample_count=count)

    @pytest.mark.parametrize(
        "kwargs", [{}, {"points": [0, 3, 4, 5], "sample_count": 5}], ids=["neither", "both"]
    )
    def test_exactly_one_of_points_and_sample_count(self, kwargs):
        with pytest.raises(InvalidArgument, match="^certify takes exactly one of points and sample_count$"):
            certify(GAP, standard_spec(), **kwargs)

    @pytest.mark.parametrize("seed", [0, 99])
    def test_points_take_no_seed(self, seed):
        with pytest.raises(InvalidArgument, match="^seed has no effect with points$"):
            certify(GAP, standard_spec(), points=[0, 3, 4, 5], seed=seed)

    def test_sampled_mode_defaults_to_seed_0(self):
        assert certify(GAP, standard_spec(), sample_count=300) == certify(GAP, standard_spec(), sample_count=300, seed=0)

    def test_sampled_triples_all_fixed_certify_vacuously(self):
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, builtin_comparison("paper_tau"), builtin_map("identity"))
        report = certify(GAP, spec, sample_count=3000, seed=1)
        assert (report.triples_checked, report.passed, report.min_margin) == (0, True, None)

    def test_a_long_sampled_certificate_holds_one_block(self):
        # Every sample at once would hold 200,000 triples and both sides of
        # each: tens of megabytes.
        tracemalloc.start()
        try:
            report = certify(GAP, standard_spec(), sample_count=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and 0 < report.triples_checked <= 200_000
        assert peak < 2_000_000

    def test_failing_grid_certificate_equals_reference(self):
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, QUARTER, PAPER_S)
        points = [0, 3] + grid_points(4, 64, 12)
        report = certify(GAP, spec, points=points)
        assert report.failures
        assert_matches_reference(report, GAP, spec, grid_triples(spec, points))

    @pytest.mark.parametrize("seed", [0, 4])
    def test_failing_sampled_certificate_equals_reference(self, seed):
        # Failures sit near the start of the ray, so the sample is kept there.
        space = dataclasses.replace(GAP, carrier=dataclasses.replace(GAP.carrier, bound=10))
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, QUARTER, PAPER_S)
        report = certify(space, spec, sample_count=2000, seed=seed)
        assert report.failures
        assert_matches_reference(report, space, spec, sampled_triples(space, spec, 2000, seed))

    def test_tabulated_certificates_equal_reference(self):
        rng = random.Random("psbm:test:certify-oracle")
        comparisons = [QUARTER, builtin_comparison("paper_tau"), builtin_comparison("half")]
        failing = failing_sampled = 0
        for _ in range(60):
            labels = tuple(range(1, rng.randint(2, 6)))
            space = random_tabulated_space(rng, labels)
            spec = random_spec(rng, labels, comparisons)
            report = certify(space, spec, points=labels)
            assert_matches_reference(report, space, spec, grid_triples(spec, labels))
            sampled = certify(space, spec, sample_count=50, seed=3)
            assert_matches_reference(sampled, space, spec, sampled_triples(space, spec, 50, 3))
            failing += bool(report.failures)
            failing_sampled += bool(sampled.failures)
        assert 0 < failing < 60
        assert failing_sampled

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1.0, max_value=4.0))
    def test_pointwise_larger_comparison_preserves_pass(self, scale):
        # paper_tau with both slopes scaled up.
        bigger = ComparisonFn("scaled", (
            (0.0, (ORIGIN, (1.0, scale * 0.9)), True),
            (1.0, (ORIGIN, (1.0, scale * 0.5)), False),
        ), BOYD_WONG)
        points = [0, 3, 4, 7, 20]
        base = certify(GAP, standard_spec(), points=points)
        widened = certify(
            GAP,
            InterpolativeSpec(0.2, 0.2, 0.2, 0.2, bigger, PAPER_S),
            points=points,
        )
        assert base.passed and widened.passed



def float_bits(value):
    return struct.pack("<d", value) if type(value) is float else value


def one_walk(space, specs, lines_read=None, rows_made=None, **kwargs):
    """The reports of one shared walk, once their reprs and their min_margin
    bits are checked against those of one certify per spec. `lines_read`
    and `rows_made`, if given, are cleared before the walk."""
    alone = [certify(space, spec, **kwargs) for spec in specs]
    for log in (lines_read, rows_made):
        if log is not None:
            log.clear()
    walk = contraction._certificates(space, specs, **kwargs)
    assert [repr(r) for r in walk] == [repr(r) for r in alone]
    assert [float_bits(r.min_margin) for r in walk] == [float_bits(r.min_margin) for r in alone]
    return walk


def staged_space(overrides=()):
    """Points 1-5; 1-4 map to 5 and 5 to 1. With p = r = s = 0.05 and
    q = 0.7 (STAGED_EXPONENTS), the products of a-plane k over 1-4 lie in
    [10^(2.1k + 0.3), 10^(2.1k + 1.2)], so the planes are apart, and every
    lhs there is dist(5, 5, 5) = 0. `overrides` maps triples to values."""
    overrides = dict(overrides)

    def rule(p, q, r):
        if (p, q, r) in overrides:
            return overrides[(p, q, r)]
        if (p, q, r) == (5, 5, 5):
            return 0
        return 10.0 ** (3 * p) if p == q and r == 5 else 1

    return PartialSbSpace(FiniteCarrier((1, 2, 3, 4, 5)), RuleMetric("staged", rule))


STAGED_EXPONENTS = (0.05, 0.7, 0.05, 0.05)
STAGED_MAP = map_from_table({1: 5, 2: 5, 3: 5, 4: 5, 5: 1}, name="staged")


def piecewise(name, *pieces):
    """A ComparisonFn of closed pieces (start, x0, y0, x1, y1)."""
    return ComparisonFn(name, tuple((b, ((x0, y0), (x1, y1)), True) for b, x0, y0, x1, y1 in pieces))


def staged_specs(*comparisons):
    return tuple(InterpolativeSpec(*STAGED_EXPONENTS, comparison=c, mapping=STAGED_MAP) for c in comparisons)


# The staged grid walked with falling products, plane 4 first: each plane's
# margins then lie below the running minimum that the planes before it
# leave, so that no plane is cleared by its bound and every plane is
# evaluated.
STAGED_FALLING = [4, 3, 2, 1]


def staged_walk(mode, comparisons, overrides=(), lines_read=None, points=STAGED_FALLING):
    kwargs = {"points": points} if mode == "grid" else {"sample_count": 3000, "seed": 7}
    return one_walk(staged_space(overrides), staged_specs(*comparisons), lines_read, **kwargs)


@pytest.fixture
def lines_read(monkeypatch):
    """The lengths of the lists ComparisonFn reads off one line, as made."""
    real, lengths = ComparisonFn._line, []

    def counting(fn, k, values):
        if isinstance(values, list):
            lengths.append(len(values))
        return real(fn, k, values)

    monkeypatch.setattr(ComparisonFn, "_line", counting)
    return lengths


@pytest.fixture
def blocks_evaluated(monkeypatch):
    """The triples of each list that `_block_products` evaluates, as made:
    on the sampled path, a block's kept triples."""
    real, evaluated = InequalitySides._block_products, []

    def recording(sides, triples):
        evaluated.append(list(triples))
        return real(sides, triples)

    monkeypatch.setattr(InequalitySides, "_block_products", recording)
    return evaluated


@pytest.fixture
def rows_made(monkeypatch):
    """The number of (a, b) rows of products made per plane or row
    evaluated on a grid walk, as made: n for a plane of n points, 1 for a
    row."""
    made = []
    for name in ("_plane_products", "_row_products"):
        def counting(sides, a, *args, real=getattr(InequalitySides, name), whole=name == "_plane_products"):
            made.append(len(sides.points) if whole else 1)
            return real(sides, a, *args)

        monkeypatch.setattr(InequalitySides, name, counting)
    return made


def counted_raise(after, message):
    """A comparison value that returns v / 4 `after` times and then raises."""
    calls = [0]

    def fn(v):
        calls[0] += 1
        if calls[0] > after:
            raise ArithmeticError(message)
        return v / 4

    return FakeComparison(message, fn)


class TestSharedWalk:
    """_certificates(space, specs) equals one certify per spec, report for
    report, from one walk of the products."""

    def test_repro_grid_with_both_builtins(self):
        points = list(GAP.carrier.isolated) + ray_grid(GAP.carrier, 50)
        walk = one_walk(GAP, (standard_spec(), standard_spec(matkowski=True)), points=points)
        assert [(r.triples_checked, r.passed) for r in walk] == [(51**3, True)] * 2

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_random_tables_with_a_piecewise_comparison_beside_builtins(self, mode):
        rng = random.Random(f"psbm:test:shared-walk:{mode}")
        failing = passing = 0
        for i in range(40):
            labels = tuple(range(1, 3 + i % 4))
            space = random_tabulated_space(rng, labels)
            mapping = map_from_table({x: rng.choice(labels) for x in labels})
            exps = [rng.uniform(0.05, 0.24) for _ in range(4)]
            breakpoints = sorted({(rng.uniform(0, 20), rng.uniform(0, 10)) for _ in range(3)})
            comparisons = (
                piecewise_linear(breakpoints),
                builtin_comparison(rng.choice(["paper_tau", "half", "identity"])),
                FakeComparison("quarter", lambda v: v / 4),
            )
            specs = tuple(InterpolativeSpec(*exps, comparison=c, mapping=mapping) for c in comparisons)
            kwargs = {"points": labels} if mode == "grid" else {"sample_count": 300, "seed": i}
            reports = one_walk(space, specs, **kwargs)
            failing += sum(not r.passed for r in reports)
            passing += sum(r.passed and r.triples_checked > 0 for r in reports)
        assert failing and passing

    @pytest.mark.parametrize("change", [
        {"p": 0.1}, {"q": 0.1}, {"r": 0.1}, {"s": 0.1},
        {"mapping": builtin_map("identity")},
        # Equal rules are not enough when they are different objects.
        {"mapping": map_from_table({0: 0, 3: 0})},
    ], ids=["p", "q", "r", "s", "map", "table-map"])
    def test_specs_that_differ_outside_the_comparison_are_rejected(self, change):
        spec = dataclasses.replace(standard_spec(), mapping=map_from_table({0: 0, 3: 0}))
        other = dataclasses.replace(spec, comparison=builtin_comparison("half"), **change)
        for specs in ((spec, other), (other, spec), (spec, spec, other)):
            with pytest.raises(InvalidArgument, match="^certificates on one walk must share the exponents p, q, r, s and the map$"):
                contraction._certificates(GAP, specs, points=[0, 3, 4])

    def test_comparison_errors_come_plane_by_plane_then_in_spec_order(self):
        points, n = [0, 3, 4, 7], 3  # 0 is fixed
        spec = standard_spec()

        def run(*afters):
            specs = [dataclasses.replace(spec, comparison=counted_raise(after, f"spec {k}")) for k, after in enumerate(afters)]
            with pytest.raises(ArithmeticError) as info:
                contraction._certificates(GAP, specs, points=points)
            return str(info.value)

        assert run(0, 0) == "spec 0"
        assert run(n * n, 0) == "spec 1"
        assert run(0, n * n) == "spec 0"
        assert run(n * n, n * n + 1) == "spec 0"
        assert run(2 * n * n, n * n) == "spec 1"

    def test_staged_planes_lie_apart(self):
        sides = InequalitySides(staged_space(), staged_specs(QUARTER)[0], [1, 2, 3, 4])
        planes = [sides._plane_products(a, sides._plane_factors(a)) for a in (1, 2, 3, 4)]
        spans = [(min(p), max(p)) for _, p in planes]
        assert [lo > 10.0 ** (2.1 * k + 0.29) and hi < 10.0 ** (2.1 * k + 1.21) for k, (lo, hi) in enumerate(spans, 1)] == [True] * 4
        assert planes[0][0] == [0] * 16

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_pieces_shared_on_some_planes_only(self, mode, lines_read):
        # Plane 1 lies on one line of the first two, planes 2 and 3 on
        # different lines, plane 4 on one line again. Plane 2 starts on the
        # first's line in the third too, but runs on into its next piece.
        first = piecewise("first", (0.0, 0.0, 0.0, 1.0, 0.9), (1e4, 0.0, 0.0, 1.0, 0.5), (1e6, 0.0, 0.0, 1.0, 0.25))
        second = piecewise("second", (0.0, 0.0, 0.0, 1.0, 0.9), (1e4, 0.0, 0.0, 1.0, 0.75), (1e8, 0.0, 0.0, 1.0, 0.25))
        third = piecewise("third", (0.0, 0.0, 0.0, 1.0, 0.5), (1e5, 0.0, 0.0, 1.0, 0.3))
        reports = staged_walk(mode, (first, second, third), lines_read=lines_read)
        if mode == "grid":
            assert [r.passed for r in reports] == [True] * 3
            # Planes 4, 3 and 1 lie on one piece of every spec, so they are
            # walked a row at a time, and with falling products no row is
            # cleared: one list per spec a row. Plane 2 runs into the
            # third's next piece, so it is evaluated whole, and only the
            # first two read it off a line.
            assert lines_read.count(4) == 3 * 3 * 4 and lines_read.count(16) == 2

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_lines_that_differ_only_in_the_sign_of_a_zero(self, mode, lines_read):
        # Flat at +0.0 and at -0.0 below 10^6: every rhs of planes 1 and 2 is
        # 0.0 + -0.0 = 0.0 or -0.0 + -0.0 = -0.0, and so is the margin (every
        # lhs is 0). Planes 3 and 4 lie on the identity in both, so the rhs
        # lists are equal there, but not the running minima, 0.0 and -0.0.
        plus = piecewise("plus", (0.0, 1e6, 0.0, 2e6, 0.0), (1e6, 0.0, 0.0, 1.0, 1.0))
        minus = piecewise("minus", (0.0, 1e6, -0.0, 2e6, -0.0), (1e6, 0.0, 0.0, 1.0, 1.0))
        reports = staged_walk(mode, (plus, minus, plus), lines_read=lines_read)
        if mode == "grid":
            assert [float_bits(r.min_margin) for r in reports] == [float_bits(0.0), float_bits(-0.0), float_bits(0.0)]
            # Every plane lies on one piece of each spec and is walked a row
            # at a time, and no row's margins lie above the running minimum:
            # one list per spec a row.
            assert lines_read == [4] * (3 * 4 * 4)

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_a_piece_clamped_at_its_low_end(self, mode, lines_read):
        # (t - 10^5) / 1000 is below 0 on plane 1 and on part of plane 2,
        # which go through fn clamped; planes 3 and 4 share the line.
        clamped = piecewise("clamped", (0.0, 1e5, 0.0, 1.1e5, 10.0))
        split = piecewise("split", (0.0, 0.0, 0.0, 1.0, 0.5), (1e5, 1e5, 0.0, 1.1e5, 10.0))
        reports = staged_walk(mode, (clamped, split), lines_read=lines_read)
        if mode == "grid":
            assert reports[0].min_margin == 0.0
            # Planes 4 and 3 are walked a row at a time, one list per spec a
            # row; planes 2 and 1 are evaluated whole, and only split reads
            # plane 1 off a line.
            assert lines_read.count(4) == 2 * 2 * 4 and lines_read.count(16) == 1

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    @pytest.mark.parametrize("overrides", [
        {(1, 1, 1): math.nan},
        {(3, 2, 4): math.nan},
        {(2, 1, 1): -math.nan, (4, 3, 3): math.nan},
    ], ids=["first-product", "inside-a-plane", "both-signs"])
    def test_a_chunk_whose_products_hold_a_nan(self, mode, overrides):
        first = piecewise("first", (0.0, 0.0, 0.0, 1.0, 0.5), (1e6, 0.0, 0.0, 1.0, 0.25))
        second = piecewise("second", (0.0, 0.0, 0.0, 1.0, 0.5))
        # Plane 1 first, so that (1, 1, 1) is the first triple walked.
        reports = staged_walk(mode, (first, second, QUARTER), overrides, points=[1, 2, 3, 4])
        if mode == "grid" and (1, 1, 1) in overrides:
            assert all(math.isnan(r.min_margin) for r in reports)

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_a_plain_callable_shares_nothing(self, mode, lines_read):
        # Its values equal the line's, but only a ComparisonFn reads a line.
        by_hand = FakeComparison("quarter-by-hand", lambda v: 0.0 + (v - 0.0) * 0.25)
        reports = staged_walk(mode, (by_hand, QUARTER, by_hand, QUARTER), lines_read=lines_read)
        assert reports[0] == reports[1] == reports[2] == reports[3]
        if mode == "grid":
            # Every plane is evaluated whole, and each QUARTER spec reads it.
            assert lines_read == [16] * (2 * 4)

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_one_comparison_object_in_two_specs(self, mode, lines_read, rows_made):
        tau = builtin_comparison("paper_tau")
        kwargs = {"points": CERT_POINTS[::-1]} if mode == "grid" else {"sample_count": 3000, "seed": 3}
        specs = tuple(dataclasses.replace(standard_spec(), comparison=c) for c in (tau, builtin_comparison("half"), tau))
        reports = one_walk(GAP, specs, lines_read, rows_made, **kwargs)
        assert reports[0] == reports[1] == reports[2]
        if mode == "grid":
            # 0 is fixed: the 51 other a-planes, walked with falling products
            # so that no plane is cleared, are walked a row at a time, one
            # list per spec per row that its bound does not clear; it
            # clears most.
            assert rows_made == [1] * len(rows_made) and 51 <= len(rows_made) < 51 * 51 / 10
            assert lines_read == [51] * (3 * len(rows_made))

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_a_line_with_int_parts_shares_nothing(self, mode, lines_read, rows_made):
        # paper_tau with int starts, x0 and y0 gives the float one's values
        # bit for bit.
        int_tau = ComparisonFn("int_tau", ((0, ((0, 0), (10, 9)), True), (1, ((0, 0), (2, 1)), False)), BOYD_WONG)
        tau = builtin_comparison("paper_tau")
        kwargs = {"points": CERT_POINTS[11::-1]} if mode == "grid" else {"sample_count": 3000, "seed": 3}
        specs = tuple(dataclasses.replace(standard_spec(), comparison=c) for c in (tau, int_tau, tau, int_tau))
        reports = one_walk(GAP, specs, lines_read, rows_made, **kwargs)
        assert repr(reports[0]) == repr(reports[1])
        if mode == "grid":
            # 0 is fixed: per row evaluated of the a-planes of the 11 others
            # (with falling products, so no plane is cleared), one list per
            # spec.
            assert rows_made == [1] * len(rows_made) and 11 <= len(rows_made) < 11 * 11
            assert lines_read == [11] * (4 * len(rows_made))

    @pytest.mark.parametrize("mode", ["grid", "sampled"])
    def test_one_scan_for_the_min_and_max_per_plane_or_block(self, mode, monkeypatch):
        # certify and a shared walk take each chunk's span once, whether a
        # spec reads a line (plane 1 of the first two), goes value by value
        # (the third straddles its cut on plane 2; the sampled blocks mix
        # planes) or is no ComparisonFn. A chunk is a plane, or a row of a
        # plane that lies on one piece of every spec (planes 4, 3 and 1
        # unless a spec is no ComparisonFn: 3 x 4 rows, none cleared), or a
        # sampled block.
        real_span, spans, chunks = comparison_module._span, [], []

        def counting_span(values):
            spans.append(len(values))
            return real_span(values)

        for name in ("_plane_products", "_row_products", "_block_products"):
            def counting_chunk(sides, *args, real=getattr(InequalitySides, name)):
                lhs, products = real(sides, *args)
                chunks.append(len(products))
                return lhs, products

            monkeypatch.setattr(InequalitySides, name, counting_chunk)
        monkeypatch.setattr(comparison_module, "_span", counting_span)
        monkeypatch.setattr(contraction, "_span", counting_span)
        first = piecewise("first", (0.0, 0.0, 0.0, 1.0, 0.9), (1e4, 0.0, 0.0, 1.0, 0.5))
        third = piecewise("third", (0.0, 0.0, 0.0, 1.0, 0.5), (1e5, 0.0, 0.0, 1.0, 0.3))
        by_hand = FakeComparison("quarter-by-hand", lambda v: v / 4)
        kwargs = {"points": STAGED_FALLING} if mode == "grid" else {"sample_count": 3000, "seed": 7}
        space = staged_space()
        for walk, grid_chunks in (
            (lambda: [certify(space, staged_specs(third)[0], **kwargs)], 3 * 4 + 1),
            (lambda: contraction._certificates(space, staged_specs(first, third), **kwargs), 3 * 4 + 1),
            (lambda: contraction._certificates(space, staged_specs(first, first, third, by_hand), **kwargs), 4),
        ):
            spans.clear()
            chunks.clear()
            walk()
            assert spans == chunks and len(chunks) == (grid_chunks if mode == "grid" else math.ceil(3000 / SAMPLE_BLOCK))


def walk_outcome(space, specs, points=None, **kwargs):
    """The reports of one shared walk over `points` (or of `sample_count`
    draws), as (repr, min_margin bits) per spec, or the (type, message) of
    its error."""
    try:
        reports = contraction._certificates(space, specs, points=points, **kwargs)
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    return [(repr(r), float_bits(r.min_margin)) for r in reports]


def reference_outcome(space, specs, points):
    """walk_outcome from the pointwise references: per spec the report of
    reference_certificate, or the first error of reference_error, with an
    OverflowError read as the DistanceOverflow that certify raises for it."""
    active = [x for x in points if specs[0].mapping(x) != x]
    triples = list(itertools.product(active, repeat=3))
    for spec in specs:
        error = reference_error(space, spec, active, triples)
        if error is not None:
            if issubclass(error[0], OverflowError):
                return DistanceOverflow, "the contraction inequality overflows the float range"
            return error
    excluded = tuple(x for x in points if x not in active)
    outcome = []
    for spec in specs:
        checked, failures, min_margin = reference_certificate(space, spec, triples)
        report = contraction.CertificateReport(checked, excluded, failures, min_margin)
        outcome.append((repr(report), float_bits(min_margin)))
    return outcome


# The identity, as one line through the origin.
IDENTITY_LINE = piecewise("identity-line", (0.0, 0.0, 0.0, 1.0, 1.0))
# Falling from 10^12 at 0 with slope -1.
FALLING = piecewise("falling", (0.0, 0.0, 1e12, 1e12, 0.0))
# The identity, but flat at 50 on [10^4, 10^6): below an lhs of 100 there.
DIP = piecewise("dip", (0.0, 0.0, 0.0, 1.0, 1.0), (1e4, 0.0, 50.0, 1.0, 50.0), (1e6, 0.0, 0.0, 1.0, 1.0))


class TestPlaneBound:
    """certify --grid clears an a-plane from a bound on its products,
    rounded outward, before making them. On grids made to trip the bound,
    the walk equals the pointwise references: each report's repr and
    min_margin bits, or the first error. The staged planes 1-4 walked in
    rising order clear planes 2-4 unless something stops them."""

    def check(self, cleared_planes, overrides, comparisons, expected, points=(1, 2, 3, 4)):
        space, specs = staged_space(overrides), staged_specs(*comparisons)
        outcome = walk_outcome(space, specs, list(points))
        assert outcome == reference_outcome(space, specs, list(points))
        assert cleared_planes == expected
        return outcome

    def test_rising_planes_clear_after_the_first(self, cleared_planes):
        outcome = self.check(cleared_planes, {}, (QUARTER, IDENTITY_LINE), [False, True, True, True])
        assert "triples_checked=64," in outcome[0][0]

    @pytest.mark.parametrize("overrides, expected", [
        # Inside plane 3's distances, so that their min and max are finite.
        ({(3, 2, 4): math.nan}, [False, True, False, True]),
        ({(3, 2, 4): -math.nan}, [False, True, False, True]),
        # dist(5, 5, 2), so a fifth-factor entry of every plane.
        ({(5, 5, 2): math.nan}, [False, False, False, False]),
        # g(2) = dist(2, 2, 5), so every g(2) power.
        ({(2, 2, 5): math.nan}, [False, False, False, False]),
    ], ids=["distance", "negative-nan-distance", "fifth-factor", "g-power"])
    def test_a_nan_inside_a_plane(self, cleared_planes, overrides, expected):
        self.check(cleared_planes, overrides, (QUARTER,), expected)

    @pytest.mark.parametrize("overrides, expected", [
        ({(3, 2, 4): math.inf}, [False, True, False, True]),
        # dist(5, 5, 5), so every lhs.
        ({(5, 5, 5): math.inf}, [False, False, False, False]),
        # Finite distances whose sum is not: their span is finite all the same.
        ({(3, 2, 4): 1e308, (3, 2, 3): 1e308}, [False, True, True, True]),
    ], ids=["distance", "lhs", "sum"])
    def test_an_inf_entry(self, cleared_planes, overrides, expected):
        self.check(cleared_planes, overrides, (QUARTER, IDENTITY_LINE), expected)

    @pytest.mark.parametrize("overrides, expected", [
        ({(3, 2, 4): -1.0}, [False, True, False]),
        # Plane 3's error comes first, before the overflow of plane 4.
        ({(3, 2, 4): -1.0, (4, 1, 1): 10 ** 400}, [False, True, False]),
        # A negative zero is >= 0 and raises nothing, but its product, 0,
        # lowers the minimum.
        ({(3, 2, 4): -0.0}, [False, True, False, True]),
    ], ids=["alone", "before-an-overflow", "negative-zero"])
    def test_a_negative_distance_in_a_later_plane(self, cleared_planes, overrides, expected):
        outcome = self.check(cleared_planes, overrides, (QUARTER,), expected)
        space, spec = staged_space(overrides), staged_specs(QUARTER)[0]
        sides = InequalitySides(space, spec, [1, 2, 3, 4])
        # A metric with no span rule: the walk makes the distances and
        # bounds them by each row's own finite_span.
        factors = sides._plane_factors(3)
        _, _, d = factors
        ds = list(itertools.chain.from_iterable(d.rows))
        assert d.span == (min(ds), max(ds)) and d.spans == [(min(row), max(row)) for row in d.rows]
        if min(ds) < 0:
            assert outcome == (PsbmError, "negative distance factor -1.0")
            assert sides._plane_bounds(3, factors) is None

    @pytest.mark.parametrize("overrides, expected", [
        ({(3, 2, 4): 10 ** 400}, [False, True, False]),
        # Plane 3's distances sum to a finite int, but one is negative.
        ({(3, 2, 4): 10 ** 400, (3, 2, 3): -10 ** 400}, [False, True, False]),
        # Plane 3's overflow comes first, before the negative distance of plane 4.
        ({(3, 2, 4): 10 ** 400, (4, 1, 1): -1}, [False, True, False]),
    ], ids=["alone", "cancelled", "before-a-negative-distance"])
    def test_an_int_distance_beyond_the_float_range(self, cleared_planes, overrides, expected):
        self.check(cleared_planes, overrides, (QUARTER,), expected)

    @pytest.mark.parametrize("points, overrides, expected", [
        # Rising products on a falling line: each plane lowers the minimum.
        ([1, 2, 3, 4], {}, [False] * 4),
        # Falling products: each plane is above the minimum of plane 4.
        ([4, 3, 2, 1], {}, [False, True, True, True]),
        # Plane 4 also holds a product near plane 2's: its lowest margin
        # sits at its greatest product, not at its least.
        ([3, 4, 2, 1], {(4, 1, 1): 1e-60}, [False, False, True, True]),
    ], ids=["rising", "falling", "spread"])
    def test_a_piece_with_a_negative_slope(self, cleared_planes, points, overrides, expected):
        self.check(cleared_planes, overrides, (FALLING,), expected, points)

    def test_a_comparison_that_is_not_a_comparison_fn_is_never_cleared(self, cleared_planes):
        by_hand = FakeComparison("quarter-by-hand", lambda v: v / 4)
        self.check(cleared_planes, {}, (QUARTER, by_hand), [False] * 4)
        cleared_planes.clear()
        self.check(cleared_planes, {}, (by_hand,), [False] * 4)

    def test_a_spec_that_fails_after_a_passing_first_plane(self, cleared_planes):
        # Every lhs is dist(5, 5, 5) = 100. The identity passes every plane;
        # the dip passes plane 1 and fails all 16 triples of plane 2.
        overrides = {(5, 5, 5): 100.0}
        outcome = self.check(cleared_planes, overrides, (IDENTITY_LINE, DIP), [False, False, True, True])
        assert "failures=()" in outcome[0][0] and outcome[1][0].count("100.0, 50.0)") == 16
        cleared_planes.clear()
        self.check(cleared_planes, overrides, (DIP,), [False, False, True, True])
        cleared_planes.clear()
        self.check(cleared_planes, overrides, (IDENTITY_LINE,), [False, True, True, True])

    def test_random_tables_equal_the_walk_that_evaluates_every_plane(self, monkeypatch):
        # The walk that evaluates every plane is the walk with _cleared
        # always False; it still clears rows of the planes that lie on one
        # piece of every spec. The walk that evaluates every triple also
        # has _clears, the one test of a plane or a row, always False.
        real, cleared, raised = contraction._cleared, [], 0
        real_rows, rows = InequalitySides._row_products, [0]

        def recording(*args):
            cleared.append(real(*args))
            return cleared[-1]

        def counting_rows(sides, a, j, factors):
            rows[0] += 1
            return real_rows(sides, a, j, factors)

        def walk(space, specs, points, **patches):
            """walk_outcome under the patches, and the rows it evaluated."""
            with monkeypatch.context() as patched:
                patched.setattr(InequalitySides, "_row_products", counting_rows)
                for name, value in patches.items():
                    patched.setattr(contraction, name, value)
                rows[0] = 0
                return walk_outcome(space, specs, points), rows[0]

        clearing = every = 0
        for space, specs, points in random_walks("psbm:test:plane-bound", 150):
            outcome, _ = walk(space, specs, points, _cleared=recording)
            planes, row_cleared = walk(space, specs, points, _cleared=lambda *args: False)
            triples, row_evaluated = walk(space, specs, points, _clears=lambda *args: False)
            assert outcome == planes == triples
            clearing, every = clearing + row_cleared, every + row_evaluated
            raised += isinstance(outcome, tuple)
        assert 50 < sum(cleared) < len(cleared) and 10 < raised < 140
        # The rows of the planes walked a row at a time: their bounds clear
        # some, but not all.
        assert every / 2 < every - clearing < every

    def test_random_case_tables_equal_the_table_that_evaluates_every_triple(self, monkeypatch):
        # The table that evaluates every triple is the table with _pieces
        # always None: each plane is then evaluated whole, as `plane` does.
        real, skipped, raised = contraction._Scan.read_row, [0], 0

        def counting(*args):
            skipped[0] += 1
            return real(*args)

        for space, spec, grid_size in random_case_tables("psbm:test:case-table-bound", 150):
            with monkeypatch.context() as patched:
                patched.setattr(contraction._Scan, "read_row", counting)
                outcome = case_table_outcome(space, spec, grid_size)
            with monkeypatch.context() as patched:
                patched.setattr(contraction, "_pieces", lambda specs, bounds: None)
                assert outcome == case_table_outcome(space, spec, grid_size)
            raised += isinstance(outcome, tuple)
        assert skipped[0] > 500 and 10 < raised < 140

    def test_random_tables_under_a_span_equal_the_walk_that_makes_every_plane(self, monkeypatch, cleared_planes):
        # The same tables, as rule metrics whose span rule is each plane's
        # own min and max: a cleared plane's distances are never made, and
        # every report and first error is that of the tabulated walk, which
        # makes every plane's distances.
        made = []
        real_distances = InequalitySides._distances
        monkeypatch.setattr(InequalitySides, "_distances", lambda sides, a: made.append(a) or real_distances(sides, a))
        cleared = 0
        for space, specs, points in random_walks("psbm:test:plane-bound", 150):
            spanned = PartialSbSpace(space.carrier, RuleMetric("spanned", space.metric, span_rule=own_span(space.metric)))
            cleared_planes.clear()
            made.clear()
            outcome = walk_outcome(spanned, specs, points)
            assert len(made) <= cleared_planes.count(False)
            cleared += sum(cleared_planes)
            assert outcome == walk_outcome(space, specs, points)
        assert cleared > 50


def case_table_outcome(space, spec, grid_size):
    """repr of reproduce_case_table, which tells nan and -0.0 apart, or the
    (type, message) of its error."""
    try:
        return repr(reproduce_case_table(space, spec, grid_size=grid_size))
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def random_case_tables(seed, count):
    """`count` random (space, spec, grid_size) for the case table: the
    worked example's carrier with a table metric over 3, 0 and a ray grid
    of 3-7 points, dist(a, b, c) log-uniform in [10^(3k), 10^(3k + 1)], k
    the ranks of a and b, so that the rows lie apart and their bounds skip
    some, and up to two adversarial entries. The map is paper_S, or now
    and then sends a grid point to the grid's start, which makes some
    subcase's lhs vary."""
    rng = random.Random(seed)
    steep = piecewise("steep", (0.0, 0.0, 0.0, 1.0, 1e9))
    comparisons = [QUARTER, IDENTITY_LINE, FALLING, steep, builtin_comparison("paper_tau"), builtin_comparison("half")]
    for _ in range(count):
        grid_size = rng.randint(3, 7)
        grid = ray_grid(GAP.carrier, grid_size)
        points = [0, 3] + grid
        rank = {x: k for k, x in enumerate(points)}
        table = {t: 10 ** rng.uniform(3 * (rank[t[0]] + rank[t[1]]), 3 * (rank[t[0]] + rank[t[1]]) + 1)
                 for t in itertools.product(points, repeat=3)}
        for tpl in rng.sample(sorted(table), rng.randint(0, 2)):
            table[tpl] = rng.choice([-1, 0, 10 ** 400, math.nan, math.inf, 1e300])
        space = dataclasses.replace(GAP, metric=RuleMetric("random", lambda p, q, r, table=table: table[(p, q, r)]))
        moved = rng.choice(grid) if rng.random() < 0.2 else None
        mapping = SelfMap("moved", lambda x, moved=moved, start=grid[0]: start if x == moved else PAPER_S(x))
        exps = [rng.uniform(0.05, 0.24) for _ in range(4)]
        yield space, InterpolativeSpec(*exps, comparison=rng.choice(comparisons), mapping=mapping), grid_size


def own_span(metric):
    """A span rule that bounds each row of a plane by its own least and
    greatest value, None unless each value is finite (an int beyond the
    float range raises)."""

    def span_rule(qs, rs):
        def spans(p):
            rows = [[metric(p, q, r) for r in rs] for q in qs]
            if not (rs and all(map(math.isfinite, itertools.chain.from_iterable(rows)))):
                return None
            return [min(row) for row in rows], [max(row) for row in rows]

        return spans

    return span_rule


def random_walks(seed, count):
    """`count` random (space, specs, points) for a shared walk: tables over
    3-6 labels with dist(a, b, c) log-uniform in [10^(3a), 10^(3a + 1)], so
    that the planes lie apart and the bound clears some, and up to two
    adversarial entries; images among the two lowest labels keep the lhs
    below the rhs."""
    rng = random.Random(seed)
    steep = piecewise("steep", (0.0, 0.0, 0.0, 1.0, 1e9))
    comparisons = [QUARTER, IDENTITY_LINE, FALLING, steep, steep, builtin_comparison("paper_tau")]
    for _ in range(count):
        labels = tuple(range(1, rng.randint(3, 7)))
        table = {t: 10 ** rng.uniform(3 * t[0], 3 * t[0] + 1) for t in itertools.product(labels, repeat=3)}
        for tpl in rng.sample(sorted(table), rng.randint(0, 2)):
            table[tpl] = rng.choice([-1, 0, 10 ** 400, math.nan, math.inf, 1e300])
        space = tabulated_space(labels, table)
        mapping = map_from_table({x: rng.choice(labels[:2]) for x in labels})
        exps = [rng.uniform(0.05, 0.24) for _ in range(4)]
        specs = tuple(InterpolativeSpec(*exps, comparison=rng.choice(comparisons), mapping=mapping) for _ in range(2))
        points = list(labels)
        rng.shuffle(points)
        yield space, specs, points


SAMPLED_COUNTS = (1, 7, 1023, 1024, 1025, 10_000, 40_000)


def sampled_references(space, specs, seed, counts=SAMPLED_COUNTS):
    """{count: [reference_certificate(space, spec, sampled_triples(space,
    spec, count, seed)) for spec in specs]}, min_margin as its bits, for
    specs that share the map and the exponents: the draws of a smaller
    count are a prefix of a larger count's, so each distinct triple drawn
    for the largest is evaluated point by point once."""
    S = specs[0].mapping
    drawn = sampled_draws(space, max(counts), seed)
    live = [all(S(x) != x for x in t) for t in drawn]
    triples = list(itertools.compress(drawn, live))
    lengths = {count: sum(live[:count]) for count in counts}
    lhs = [space.metric(S(a), S(b), S(c)) for a, b, c in triples]
    memo = {}
    products = [memo[t] if t in memo else memo.setdefault(t, reference_product(space, specs[0], *t)) for t in triples]
    references = {count: [] for count in counts}
    for spec in specs:
        rhs = list(map(spec.comparison, products))
        failing = [(i, (*t, l, r)) for i, (t, l, r) in enumerate(zip(triples, lhs, rhs)) if not l <= r]
        margins = list(map(operator.sub, rhs, lhs))
        for count, n in lengths.items():
            failures = sorted((f for i, f in failing if i < n),
                              key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
            references[count].append((n, tuple(failures), float_bits(min(margins[:n], default=None))))
    return references


class TestSampledBound:
    """certify(..., sample_count=N) on a metric with row spans skips each
    drawn triple whose plane or row bound clears it, and its reports are
    those that evaluate every triple, bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("name", ["quintic_gap", "quintic_ray"])
    def test_reports_equal_the_reference(self, name, seed):
        space, specs = builtin_space(name), (standard_spec(), standard_spec(matkowski=True))
        for count, references in sampled_references(space, specs, seed).items():
            for spec, reference in zip(specs, references):
                report = certify(space, spec, sample_count=count, seed=seed)
                assert (report.triples_checked, report.failures, float_bits(report.min_margin)) == reference

    def test_the_ray_fails_with_a_repeated_triple(self):
        # quintic_ray's failures, and a failing triple drawn twice, are kept.
        report = certify(builtin_space("quintic_ray"), standard_spec(), sample_count=40_000, seed=7)
        assert len(report.failures) > len(set(report.failures)) > 0

    def test_triples_evaluated_at_seed_1(self, blocks_evaluated):
        report = certify(GAP, standard_spec(), sample_count=10_000, seed=1)
        # The first block whole, then each block's kept triples: 1,008 of 9,076.
        assert [len(t) for t in blocks_evaluated] == [936, 15, 18, 4, 6, 5, 4, 6, 6, 8]
        assert report.triples_checked == 9076 and report.passed

    @pytest.mark.parametrize("seed", range(10))
    def test_the_first_block_is_evaluated_whole(self, blocks_evaluated, seed):
        # It has no running minimum to be held to; the second is.
        certify(GAP, standard_spec(), sample_count=10_000, seed=seed)
        first, second = sampled_blocks(GAP, standard_spec(), 10_000, seed)[:2]
        assert blocks_evaluated[0] == first
        assert set(blocks_evaluated[1]) <= set(second) and len(blocks_evaluated[1]) < len(second)

    @pytest.mark.parametrize("above", [False, True], ids=["equal", "one-ulp-above"])
    def test_a_row_whose_slack_equals_the_threshold_is_evaluated(self, monkeypatch, blocks_evaluated, above):
        # Every plane gets one bound whose floor lies below its top, and
        # every row one whose floor less top is the least margin of the
        # first block (paper_tau reads products above 1 as t / 2, exactly),
        # or one ulp above it. The first block is evaluated whole, and
        # leaves that margin as the threshold of the second: rows whose
        # slack equals it are evaluated; one ulp above, each is skipped.
        spec = standard_spec()
        first, second = sampled_blocks(GAP, spec, 2048, 2)
        lhs, rhs = InequalitySides(GAP, spec, sample_carrier(GAP, seed=2)[1:]).block(first)
        threshold = min(map(operator.sub, rhs, lhs))
        floor = math.nextafter(threshold, math.inf) if above else threshold
        monkeypatch.setattr(InequalitySides, "_plane_bounds", lambda sides, a, factors: (2 * floor, 2 * floor, math.inf))
        monkeypatch.setattr(InequalitySides, "_row_bounds", lambda sides, a, factors, plane: [(2 * floor, 2 * floor, 0)] * len(sides.points))
        blocks_evaluated.clear()
        report = certify(GAP, spec, sample_count=2048, seed=2)
        assert report.min_margin <= threshold
        assert blocks_evaluated == ([first] if above else [first, second])

    @pytest.mark.parametrize("seed", range(10))
    def test_an_error_while_bounding_a_plane_is_not_raised(self, seed):
        # dist(3, 3, x) = 1e308 for one pool point x overflows the mean of
        # the fifth-factor row (3, x), and only that row: the triples (a, x,
        # c) with S(a) = 3 raise. Bounding a plane of such an a makes the
        # row of every b, so it meets the error also where no such triple
        # is drawn; that plane then has no bound, and the report or first
        # error is that of the drawn triples.
        dented = sample_carrier(GAP, seed=seed)[5]

        def rule(p, q, r):
            return 1e308 if (p, q, r) == (3, 3, dented) else quintic(p, q, r)

        space = dataclasses.replace(GAP, metric=RuleMetric("dented", rule, span_rule=own_span(rule)))
        spec = standard_spec()
        active = sample_carrier(GAP, seed=seed)[1:]
        for count in (7, 200, 3000):
            blocks = sampled_blocks(space, spec, count, seed)
            outcomes = (stage_outcome(space, spec, active, block) for block in blocks)
            expected = next((outcome for outcome in outcomes if raised(outcome)), None)
            try:
                report = certify(space, spec, sample_count=count, seed=seed)
            except Exception as exc:
                assert (type(exc), str(exc)) == expected == (DistanceOverflow, "the contraction inequality overflows the float range")
            else:
                assert expected is None and count < 3000
                assert_matches_reference(report, space, spec, [t for block in blocks for t in block])

    def test_a_pool_with_equal_keys_evaluates_every_triple(self, blocks_evaluated):
        # 4 and the degenerate interval's 4.0 are one key in the tables, so
        # a bound made for one plane could stand for the other's.
        space = dataclasses.replace(GAP, carrier=RegionCarrier(isolated=(0, 3, 4), intervals=((4.0, 4.0), (5, None))))
        assert [type(x) for x in sample_carrier(space, seed=0) if x == 4] == [int, float]
        report = certify(space, standard_spec(), sample_count=3000, seed=0)
        assert report.passed and sum(map(len, blocks_evaluated)) == report.triples_checked

    def test_random_tables_under_a_span_equal_the_walk_that_evaluates_every_triple(self, blocks_evaluated):
        # The tables of random_walks, adversarial entries included, as rule
        # metrics whose span rule is each plane's own min and max, so that
        # the sampled blocks after the first skip; every report and first
        # error is that of the tabulated blocks, which evaluate every drawn
        # triple.
        evaluated = drawn = raised = 0
        for i, (space, specs, _) in enumerate(random_walks("psbm:test:sampled-bound", 150)):
            spanned = PartialSbSpace(space.carrier, RuleMetric("spanned", space.metric, span_rule=own_span(space.metric)))
            kwargs = {"sample_count": 3000, "seed": i}
            blocks_evaluated.clear()
            outcome = walk_outcome(spanned, specs, **kwargs)
            evaluated += sum(map(len, blocks_evaluated[1:]))
            blocks_evaluated.clear()
            assert outcome == walk_outcome(space, specs, **kwargs)
            drawn += sum(map(len, blocks_evaluated[1:]))
            raised += isinstance(outcome, tuple)
        assert evaluated < drawn * 2 / 3 and 10 < raised < 140


class TestRowEvaluator:
    """The row-tabulated evaluator against the pointwise references above,
    compared with ==: every lhs and rhs float is the same bit for bit."""

    @pytest.mark.parametrize("n", [5, 20, 40])
    @pytest.mark.parametrize("matkowski", [False, True])
    def test_grid_certificates_equal_reference(self, matkowski, n):
        spec = standard_spec(matkowski=matkowski)
        points = [0, 3] + grid_points(4, 64, n)
        assert_matches_reference(certify(GAP, spec, points=points), GAP, spec, grid_triples(spec, points))

    @pytest.mark.parametrize("comparison", SPIKY, ids=lambda fn: fn.name)
    def test_nan_and_inf_comparisons_match_the_scalar_loop(self, comparison):
        # reference_certificate takes min() over the margins in triple order,
        # which is the scalar `if margin < min_margin` loop; repr compares
        # nan with nan.
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, comparison, PAPER_S)
        points = [0, 3] + grid_points(4, 64, 12)
        runs = [
            (certify(GAP, spec, points=points), GAP, spec, grid_triples(spec, points)),
            (certify(GAP, spec, sample_count=500, seed=1), GAP, spec, sampled_triples(GAP, spec, 500, 1)),
        ]
        rng = random.Random("psbm:test:spiky")
        for _ in range(20):
            labels = tuple(range(1, rng.randint(2, 6)))
            space = random_tabulated_space(rng, labels)
            tabulated = random_spec(rng, labels, [comparison])
            runs.append((certify(space, tabulated, points=labels), space, tabulated, grid_triples(tabulated, labels)))
        for report, space, run_spec, triples in runs:
            checked, failures, min_margin = reference_certificate(space, run_spec, triples)
            assert report.triples_checked == checked
            assert repr((report.failures, report.min_margin)) == repr((failures, min_margin))

    @pytest.mark.parametrize("comparison", [QUARTER, FakeComparison("picky", picky)], ids=lambda fn: fn.name)
    def test_errors_surface_as_triple_by_triple(self, comparison):
        # Tables with negative entries, and a comparison that raises on some
        # products. A report equals the reference's; where the reference
        # raises, certify raises, of the same type when the comparison never
        # raises. A row is tabulated over every active pool point, so a
        # sampled certificate may also raise where the drawn triples do not,
        # but only on an error that the pool's own triples meet.
        rng = random.Random(f"psbm:test:errors:{comparison.name}")
        raised = 0
        for _ in range(150):
            labels = tuple(range(1, rng.randint(3, 6)))
            table = dict(random_tabulated_space(rng, labels).metric.table)
            for tpl in rng.sample(sorted(table), rng.randint(0, 3)):
                table[tpl] = -rng.randint(1, 9)
            space = tabulated_space(labels, table)
            spec = random_spec(rng, labels, [comparison])
            active = [x for x in labels if spec.mapping(x) != x]
            for sampled, run, triples in (
                (False, lambda: certify(space, spec, points=labels), grid_triples(spec, labels)),
                (True, lambda: certify(space, spec, sample_count=60, seed=2), sampled_triples(space, spec, 60, 2)),
            ):
                triples = list(triples)
                expected = reference_error(space, spec, active, triples)
                try:
                    report = run()
                except Exception as exc:
                    if expected is None:
                        assert sampled
                        expected = reference_error(space, spec, active, grid_triples(spec, active))
                        assert expected is not None
                    if comparison is QUARTER:
                        assert type(exc) is expected[0]
                    raised += 1
                else:
                    assert expected is None
                    assert_matches_reference(report, space, spec, triples)
        assert raised > 50

    @pytest.mark.parametrize("comparison", [QUARTER, FakeComparison("picky", picky)], ids=lambda fn: fn.name)
    def test_sampled_errors_follow_the_stage_order(self, comparison):
        # Several blocks per certificate. Where certify raises, the error is
        # the first in stage order of the first block that meets one; where
        # it does not, the report is the reference's.
        rng = random.Random(f"psbm:test:block-errors:{comparison.name}")
        count = 0
        for _ in range(40):
            labels = tuple(range(1, rng.randint(3, 9)))
            table = dict(random_tabulated_space(rng, labels).metric.table)
            for tpl in rng.sample(sorted(table), rng.randint(0, 2)):
                table[tpl] = -rng.randint(1, 9)
            space = tabulated_space(labels, table)
            spec = random_spec(rng, labels, [comparison])
            active = [x for x in labels if spec.mapping(x) != x]
            blocks = sampled_blocks(space, spec, 2500, 5)
            outcomes = (stage_outcome(space, spec, active, block) for block in blocks)
            expected = next((outcome for outcome in outcomes if raised(outcome)), None)
            try:
                report = certify(space, spec, sample_count=2500, seed=5)
            except Exception as exc:
                assert (type(exc), str(exc)) == expected
                count += 1
            else:
                assert expected is None
                assert_matches_reference(report, space, spec, [t for block in blocks for t in block])
        assert 5 < count < 40

    def test_grid_certify_evaluates_each_triple_distance_once(self):
        calls = []

        def counting(p, q, r):
            calls.append(None)
            return quintic(p, q, r)

        space = dataclasses.replace(GAP, metric=RuleMetric("counting", counting))
        for n in (10, 30):
            calls.clear()
            report = certify(space, standard_spec(), points=[0, 3] + grid_points(4, 64, n))
            m = n + 1  # 0 is the map's only fixed point
            assert report.triples_checked == m**3
            assert m**3 <= len(calls) <= m**3 + 2 * m**2

    def test_tabulated_rows_straddling_the_cut_of_paper_tau_equal_reference(self):
        # Float tables near 1, so that the products of some (a, b) rows lie
        # on both sides of paper_tau's cut at 1 and those of others on one.
        rng = random.Random("psbm:test:straddle")
        tau = builtin_comparison("paper_tau")
        identity = FakeComparison("identity", lambda v: v)
        straddling = one_sided = 0
        for _ in range(40):
            labels = tuple(range(1, rng.randint(3, 6)))
            table = {t: rng.uniform(0.3, 2.5) for t in itertools.product(labels, repeat=3)}
            space = tabulated_space(labels, table)
            spec = random_spec(rng, labels, [tau])
            active = [x for x in labels if spec.mapping(x) != x]
            products = InequalitySides(space, dataclasses.replace(spec, comparison=identity), active)
            n = len(active)
            for a in active:
                plane = products.plane(a)[1]
                for row in (plane[j * n:(j + 1) * n] for j in range(n)):
                    if min(row) <= 1 < max(row):
                        straddling += 1
                    else:
                        one_sided += 1
            assert_matches_reference(certify(space, spec, points=labels), space, spec, grid_triples(spec, labels))
        assert straddling > 20 and one_sided > 20

    def test_case_table_non_constant_lhs_names_the_first_differing_value(self):
        # This map keeps the ray below 30 where it is, so lhs varies in
        # subcases that the paper's map makes constant.
        mapping = SelfMap("cut", lambda x: x if x < 30 else (0 if x in (0, 3) else 3))
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, builtin_comparison("paper_tau"), mapping)
        grid = grid_points(4, 64, 7)
        message = None
        for label, _, subcase_rows in _SUBCASES:
            lhs_values = [GAP.metric(mapping(a), mapping(b), mapping(c)) for a, b, cs in subcase_rows(grid) for c in cs]
            differing = [v for v in lhs_values if v != lhs_values[0]]
            if differing:
                message = f"subcase {label} lhs is not constant: {lhs_values[0]} vs {differing[0]}"
                break
        assert message is not None
        with pytest.raises(PsbmError) as exc:
            reproduce_case_table(GAP, spec, grid_size=7)
        assert str(exc.value) == message

    def test_a_skipped_row_still_names_a_non_constant_lhs(self, monkeypatch):
        # The map sends the grid's end to its start, so 1(ii)'s lhs differs
        # only at the last diagonal triple, whose row paper_tau's bound
        # skips: its lhs is read all the same, and the error is the one the
        # pointwise subcase order names.
        grid = grid_points(4, 64, 7)
        moved = SelfMap("moved", lambda x: grid[0] if x == grid[-1] else PAPER_S(x))
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, builtin_comparison("paper_tau"), moved)
        lhs_values = [GAP.metric(moved(a), moved(b), moved(c)) for a, b, cs in _SUBCASES[1][2](grid) for c in cs]
        assert lhs_values == [243] * 6 + [1024.0]
        real, rows = InequalitySides._row_products, []
        monkeypatch.setattr(InequalitySides, "_row_products", lambda sides, a, j, f: rows.append((a, sides.points[j])) or real(sides, a, j, f))
        with pytest.raises(PsbmError) as exc:
            reproduce_case_table(GAP, spec, grid_size=7)
        assert str(exc.value) == "subcase 1(ii) lhs is not constant: 243 vs 1024.0"
        assert (grid[0], grid[0]) in rows and (grid[-1], grid[-1]) not in rows

    def test_case_table_evaluation_errors_come_before_a_non_constant_lhs(self):
        # A comparison that refuses the product of (x, x, x) at the grid's
        # end, the last triple of 1(ii), so that the last diagonal row raises.
        # With the cut map, 1(ii)'s lhs differs from its second triple on;
        # with the paper's map it is constant. Every row is evaluated before
        # any subcase's lhs is checked, so the refusal is the error either way.
        grid = grid_points(4, 64, 7)
        cut = SelfMap("cut", lambda x: x if x < 30 else (0 if x in (0, 3) else 3))
        assert [GAP.metric(cut(x), cut(x), cut(x)) for x in grid[:2]] == [1024.0, 537824.0]
        for mapping in (cut, PAPER_S):
            spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, FakeComparison("identity", lambda v: v), mapping)
            refused = reference_rhs(GAP, spec, grid[-1], grid[-1], grid[-1])

            def refuse(v, refused=refused):
                if v == refused:
                    raise ArithmeticError(f"refused {v}")
                return v / 4

            spec = dataclasses.replace(spec, comparison=FakeComparison("refuse", refuse))
            sides = InequalitySides(GAP, spec, [3] + grid)
            with pytest.raises(ArithmeticError, match="^refused "):
                sides.block([(grid[-1], grid[-1], grid[-1])])
            with pytest.raises(Exception) as exc:
                reproduce_case_table(GAP, spec, grid_size=7)
            assert (type(exc.value), str(exc.value)) == (ArithmeticError, f"refused {refused}")


ROTATE = map_from_table({1: 2, 2: 3, 3: 1}, name="rotate")


def patched_space(overrides):
    """Points 1, 2, 3 at distance 5, except the triples in `overrides`; a
    value None overflows the float range."""

    def rule(p, q, r):
        value = overrides.get((p, q, r), 5)
        return 10.0 ** 400 if value is None else value

    return PartialSbSpace(FiniteCarrier((1, 2, 3)), RuleMetric("patched", rule))


def sides_outcome(call):
    """call()'s (lhs, rhs) as lists of (type, repr) per value, or its
    error's type and message."""
    try:
        return tuple([(type(v), repr(v)) for v in side] for side in call())
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def plane_triples(points, a):
    return [(a, b, c) for b in points for c in points]


class TestPlanes:
    """sides.plane(a) and sides.block over the same triples give what
    stage_outcome gives, bit for bit, errors included; each runs on its own
    evaluator, so that neither reads a table the other filled."""

    @pytest.mark.parametrize("n", [7, 40])
    @pytest.mark.parametrize("matkowski", [False, True])
    def test_planes_and_blocks_equal_reference_on_gap_grids(self, matkowski, n):
        spec = standard_spec(matkowski=matkowski)
        points = [3] + grid_points(4, 64, n)
        planes, blocks = InequalitySides(GAP, spec, points), InequalitySides(GAP, spec, points)
        for a in points:
            triples = plane_triples(points, a)
            expected = sides_outcome(lambda: reference_sides(GAP, spec, triples))
            assert sides_outcome(lambda: planes.plane(a)) == expected
            assert sides_outcome(lambda: blocks.block(triples)) == expected

    def test_planes_and_blocks_follow_the_stage_order_on_random_tabulated_spaces(self):
        # The tables of the certificate error tests: negative entries, and
        # comparisons that raise, give nan or inf, or straddle a cut.
        rng = random.Random("psbm:test:planes")
        comparisons = [QUARTER, builtin_comparison("paper_tau"), FakeComparison("picky", picky), *SPIKY]
        outcomes = {"raised": 0, "returned": 0}
        for _ in range(150):
            labels = tuple(range(1, rng.randint(3, 6)))
            table = dict(random_tabulated_space(rng, labels).metric.table)
            for tpl in rng.sample(sorted(table), rng.randint(0, 3)):
                table[tpl] = -rng.randint(1, 9)
            space = tabulated_space(labels, table)
            spec = random_spec(rng, labels, comparisons)
            try:
                planes, blocks = InequalitySides(space, spec, labels), InequalitySides(space, spec, labels)
            except PsbmError:  # a negative self-gap
                continue
            for a in labels:
                triples = plane_triples(labels, a)
                expected = stage_outcome(space, spec, labels, triples)
                assert sides_outcome(lambda: planes.plane(a)) == expected
                assert sides_outcome(lambda: blocks.block(triples)) == expected
                outcomes["raised" if raised(expected) else "returned"] += 1
        assert outcomes["raised"] > 50 and outcomes["returned"] > 50

    @pytest.mark.parametrize("overrides, comparison, error, message", [
        # 1. The fifth factor: dist(2, 2, 3) + dist(1, 1, 1) overflows in
        # the mean of the last b, ahead of a metric overflow.
        ({(2, 2, 3): 1e308, (1, 1, 1): 1e308, (1, 2, 1): None}, QUARTER,
         DistanceOverflow, "the contraction inequality overflows the float range"),
        # A negative dist(1, 1, 3) makes the fifth factor of the last b
        # negative, ahead of the negative distance at the first b.
        ({(1, 1, 3): -7}, QUARTER, PsbmError, "negative distance factor -1.0"),
        # 2. A metric overflow at the last b, alone and ahead of a negative
        # distance at the b before it.
        ({(1, 3, 1): None}, QUARTER, DistanceOverflow, "patched(1, 3, 1) overflows the float range"),
        ({(1, 3, 1): None, (1, 2, 3): -7}, QUARTER, DistanceOverflow, "patched(1, 3, 1) overflows the float range"),
        # A metric overflow at the last b, ahead of an lhs row that
        # overflows at the same b.
        ({(1, 3, 1): None, (2, 1, 3): None}, QUARTER, DistanceOverflow, "patched(1, 3, 1) overflows the float range"),
        # 3. An lhs row that overflows at the last b, ahead of a negative
        # distance at the b before it.
        ({(2, 1, 3): None, (1, 2, 3): -7}, QUARTER, DistanceOverflow, "patched(2, 1, 3) overflows the float range"),
        # 4. A negative dist(a, b, c) at the last b alone, and ahead of a
        # comparison that refuses the one product above 5.1, at the middle b.
        ({(1, 3, 2): -4}, QUARTER, PsbmError, "negative distance factor -4"),
        ({(1, 2, 3): 6, (1, 3, 2): -4}, FakeComparison("refuse", lambda v: v / 4 if v < 5.1 else 1 / 0),
         PsbmError, "negative distance factor -4"),
        # 5. A product whose integer distance is beyond the float range, at
        # the last b, ahead of the refusal at the middle b.
        ({(1, 2, 3): 6, (1, 3, 3): 10 ** 400}, FakeComparison("refuse", lambda v: v / 4 if v < 5.1 else 1 / 0),
         OverflowError, "int too large to convert to float"),
        # 6. The refusal alone.
        ({(1, 2, 3): 6}, FakeComparison("refuse", lambda v: v / 4 if v < 5.1 else 1 / 0),
         ZeroDivisionError, "division by zero"),
    ], ids=["fifth-factor overflow", "negative fifth factor", "distance overflow", "distance overflow first",
            "distance overflow before an lhs overflow", "lhs overflow first", "negative distance",
            "negative distance first", "product overflow first", "comparison"])
    def test_plane_and_block_errors_follow_the_stage_order(self, overrides, comparison, error, message):
        space = patched_space(overrides)
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, comparison, ROTATE)
        triples = plane_triples([1, 2, 3], 1)
        assert stage_outcome(space, spec, [1, 2, 3], triples) == (error, message)
        assert sides_outcome(lambda: InequalitySides(space, spec, [1, 2, 3]).plane(1)) == (error, message)
        assert sides_outcome(lambda: InequalitySides(space, spec, [1, 2, 3]).block(triples)) == (error, message)
        # The grid walk's first plane is plane 1, also under a span, which
        # stands for the distances wherever they raise nothing.
        if error is OverflowError:
            error, message = DistanceOverflow, "the contraction inequality overflows the float range"
        spanned = PartialSbSpace(space.carrier, dataclasses.replace(space.metric, span_rule=own_span(space.metric)))
        for walked in (space, spanned):
            assert walk_outcome(walked, (spec,), [1, 2, 3]) == (error, message)

    def test_a_plane_straddling_a_cut_equals_reference(self):
        # Products below 1 at odd b and above 1 at even b: the plane lies on
        # both pieces of paper_tau, and each of its rows on one.
        labels = tuple(range(2, 12))
        table = {t: 1.0 if t[0] == t[1] else 0.3 if t[1] % 2 else 3.0 for t in itertools.product(labels, repeat=3)}
        space = tabulated_space(labels, table)
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, builtin_comparison("paper_tau"),
                                 map_from_table({x: 2 + (x - 1) % 10 for x in labels}))
        identity = FakeComparison("identity", lambda v: v)
        products = InequalitySides(space, dataclasses.replace(spec, comparison=identity), labels).plane(2)[1]
        assert min(products) < 1 < max(products)
        sides = InequalitySides(space, spec, labels)
        for a in labels:
            expected = sides_outcome(lambda: reference_sides(space, spec, plane_triples(labels, a)))
            assert sides_outcome(lambda: sides.plane(a)) == expected
        assert_matches_reference(certify(space, spec, points=labels), space, spec, grid_triples(spec, labels))

    def test_an_image_off_the_carrier_names_the_map_and_the_point(self):
        # The quintic ray is [1, inf); paper_S sends 3.0 to 0.
        ray = builtin_space("quintic_ray")
        for points in ([1.0, 2.0, 3.0, 4.0], [3.0, 1.0]):
            with pytest.raises(UnknownPoint, match=r"^map paper_S sends 3\.0 to 0, which is not in the carrier$"):
                certify(ray, standard_spec(), points=points)
        space = tabulated_space((2, 3), {t: 5 for t in itertools.product((2, 3), repeat=3)})
        with pytest.raises(UnknownPoint, match=r"^map rotate sends 3 to 1, which is not in the carrier$"):
            InequalitySides(space, InterpolativeSpec(0.2, 0.2, 0.2, 0.2, QUARTER, ROTATE), [2, 3])
        # True equals 1, a ray point, but a bool is no point of a region carrier.
        ones = map_from_table({4: 1, 5: True, 6: 1.0}, name="ones")
        with pytest.raises(UnknownPoint, match=r"^map ones sends 5 to True, which is not in the carrier$"):
            InequalitySides(ray, InterpolativeSpec(0.2, 0.2, 0.2, 0.2, QUARTER, ones), [4, 5, 6])


class TestFixedPoints:
    def test_paper_s_unique_zero(self):
        assert fixed_points_bruteforce(PAPER_S, [0, 3, 4, 7, 64]) == (0,)

    def test_identity_fixes_everything(self):
        identity = builtin_map("identity")
        assert fixed_points_bruteforce(identity, [0, 3, 4]) == (0, 3, 4)

    def test_constant_map(self):
        to_three = map_from_table({0: 3, 3: 3, 4: 3})
        assert fixed_points_bruteforce(to_three, [0, 3, 4]) == (3,)


class TestCaseTable:
    TABLE = reproduce_case_table(GAP, standard_spec())

    def test_lhs_column_is_exact(self):
        assert self.TABLE.lhs_column() == EXPECTED_LHS_COLUMN
        assert all(type(v) is int for v in self.TABLE.lhs_column())

    def test_inequality_holds_in_every_subcase(self):
        assert self.TABLE.passed

    def test_single_variable_minimum_sits_at_ray_start(self):
        row = {r.label: r for r in self.TABLE.rows}["2(i)"]
        assert row.argmin == (3, 3, 4.0)
        expected = 0.5 * (
            (2 * (243 + 4**5)) ** 0.2
            * 486**0.2
            * 486**0.2
            * (2 * (4**5 + 243)) ** 0.2
            * ((486 + 2 * 4**5) / 2) ** 0.2
        )
        assert math.isclose(row.rhs_min, expected, rel_tol=1e-9)

    def test_reference_column_flags_only_large_gaps(self):
        flagged = set(self.TABLE.discrepancies)
        assert "1(ii)" in flagged
        assert "2(i)" not in flagged
        assert REFERENCE_BOUNDS["1(ii)"] == 607.08

    def test_discrepancies_do_not_fail_the_table(self):
        assert self.TABLE.discrepancies and self.TABLE.passed

    @pytest.mark.parametrize("grid_size", [5, 20, 33])
    @pytest.mark.parametrize(
        "comparison",
        [builtin_comparison("paper_tau"), builtin_comparison("half"), *SPIKY[:2]],
        ids=lambda fn: fn.name,
    )
    def test_rows_equal_reference_minimum(self, comparison, grid_size):
        # repr compares nan with nan and tells -0.0 from 0.0.
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, comparison, PAPER_S)
        table = reproduce_case_table(GAP, spec, grid_size=grid_size)
        grid = grid_points(4, 64, grid_size)
        assert [row.label for row in table.rows] == [label for label, _, _ in _SUBCASES]
        for row, (_, _, subcase_rows) in zip(table.rows, _SUBCASES):
            rhs_min, argmin = None, None
            for triple in ((a, b, c) for a, b, cs in subcase_rows(grid) for c in cs):
                rhs = reference_rhs(GAP, spec, *triple)
                if rhs_min is None or rhs < rhs_min:
                    rhs_min, argmin = rhs, triple
            assert repr((row.rhs_min, row.argmin)) == repr((rhs_min, argmin))

    @staticmethod
    def recorded_filing(monkeypatch, comparison, grid_size):
        """Per subcase, the triples fed to its scan in order and the number
        of lhs values read for a skipped segment, as the table is made."""
        scans = []

        class RecordingScan(contraction._Scan):
            def __init__(self):
                super().__init__()
                self.triples, self.reads = [], 0
                scans.append(self)

            def feed(self, a, b, cs, lhs, rhs):
                self.triples += [(a, b, c) for c in cs]
                super().feed(a, b, cs, lhs, rhs)

            def read(self, value):
                self.reads += 1
                super().read(value)

            def read_row(self, key, row, special):
                self.reads += len(row) - len(special)
                super().read_row(key, row, special)

        monkeypatch.setattr(contraction, "_Scan", RecordingScan)
        reproduce_case_table(GAP, dataclasses.replace(standard_spec(), comparison=comparison), grid_size=grid_size)
        return [(scan.triples, scan.reads) for scan in scans]

    @pytest.mark.parametrize("grid_size", [3, 4, 5, 20])
    def test_each_triple_is_filed_once_in_its_subcase_order(self, grid_size, monkeypatch):
        # paper_tau's skipped segments are read for the constant-lhs check
        # alone: every triple is filed once, the fed ones in their
        # subcase's order, the rest read.
        filing = self.recorded_filing(monkeypatch, builtin_comparison("paper_tau"), grid_size)
        grid = grid_points(4, 64, grid_size)
        expected = [subcase_triples(subcase_rows, grid) for _, _, subcase_rows in _SUBCASES]
        for (fed, reads), triples in zip(filing, expected):
            order = iter(triples)
            assert all(t in order for t in fed) and len(fed) + reads == len(triples)
        assert sum(reads for _, reads in filing) > len(grid) ** 3 / 2
        filed = [t for triples in expected for t in triples]
        assert sorted(filed) == sorted(itertools.product([3] + grid, repeat=3))

    @pytest.mark.parametrize("grid_size", [3, 4, 5, 20])
    def test_a_plain_callable_feeds_every_triple_in_its_subcase_order(self, grid_size, monkeypatch):
        # A comparison that is no ComparisonFn is never bounded: no row is
        # skipped.
        tau = builtin_comparison("paper_tau")
        filing = self.recorded_filing(monkeypatch, FakeComparison("tau-by-hand", tau), grid_size)
        grid = grid_points(4, 64, grid_size)
        assert filing == [(subcase_triples(subcase_rows, grid), 0) for _, _, subcase_rows in _SUBCASES]

    @pytest.mark.parametrize("grid_size", [3, 5, 20])
    def test_a_tie_with_a_running_minimum_is_not_skipped(self, grid_size, monkeypatch):
        # A flat piece: every rhs, and every row's floor, is 5.0, which ties
        # every running minimum. A row is skipped only strictly above the
        # minima it feeds, so each is evaluated: 4(iii)'s first triple in
        # (b, a) order, (grid[1], grid[0], grid[0]), comes after its least
        # rhs so far, at (grid[0], grid[1], grid[1]), in the walk, and a
        # skip on the tie would make that its argmin.
        flat = piecewise("flat", (0.0, 0.0, 5.0, 1.0, 5.0))
        real, skipped = contraction._Scan.read_row, []
        monkeypatch.setattr(contraction._Scan, "read_row", lambda *args: skipped.append(args) or real(*args))
        table = reproduce_case_table(GAP, dataclasses.replace(standard_spec(), comparison=flat), grid_size=grid_size)
        grid = grid_points(4, 64, grid_size)
        assert [row.argmin for row in table.rows] == [subcase_triples(rows, grid)[0] for _, _, rows in _SUBCASES]
        assert all(row.rhs_min == 5.0 for row in table.rows) and skipped == []

    def test_4iii_least_is_held_to_its_own_minimum(self):
        # Every factor but the distance is 1, so each rhs is d^p / 4. Every
        # distance off the isolated points is 1, but 10^4 at 4(iii)'s (a, b,
        # b) and 100 over the late row (grid[-1], grid[1]): the 4(iii)
        # minimum lies in a row whose floor is far above the minima of the
        # other subcases it feeds, and only 4(iii)'s least so far, 10^4,
        # keeps that row from being skipped.
        grid = grid_points(4, 64, 6)
        late = (grid[-1], grid[1])

        def rule(p, q, r):
            if p in (0, 3) or q in (0, 3) or p == q:
                return 1.0
            return 100.0 if (p, q) == late else 1e4 if r == q else 1.0

        space = dataclasses.replace(GAP, metric=RuleMetric("staged-4iii", rule))
        spec = dataclasses.replace(standard_spec(), comparison=QUARTER)
        table = reproduce_case_table(space, spec, grid_size=6)
        assert {row.label: row.argmin for row in table.rows}["4(iii)"] == (*late, late[1])
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(contraction, "_pieces", lambda specs, bounds: None)
            assert repr(table) == repr(reproduce_case_table(space, spec, grid_size=6))

    def test_4iii_first_triple_is_evaluated_when_its_row_is_skipped(self, monkeypatch):
        # 4(iii)'s first triple in (b, a) order, (grid[1], grid[0],
        # grid[0]), seeds its minimum, but its row, lifted far above every
        # minimum it feeds, is skipped: the triple is evaluated on its own,
        # and the table is that of every triple.
        grid = grid_points(4, 64, 5)
        lifted = (grid[1], grid[0])
        rule = lambda p, q, r: 1e40 * quintic(p, q, r) if (p, q) == lifted else quintic(p, q, r)
        space = dataclasses.replace(GAP, metric=RuleMetric("lifted", rule))
        real_block, real_rows, blocks, rows = InequalitySides.block, InequalitySides._row_products, [], []
        with monkeypatch.context() as patched:
            patched.setattr(InequalitySides, "block", lambda sides, triples: blocks.append(triples) or real_block(sides, triples))
            patched.setattr(InequalitySides, "_row_products", lambda sides, a, j, f: rows.append((a, sides.points[j])) or real_rows(sides, a, j, f))
            outcome = case_table_outcome(space, standard_spec(), 5)
        assert blocks == [[(*lifted, grid[0])]] and lifted not in rows
        monkeypatch.setattr(contraction, "_pieces", lambda specs, bounds: None)
        assert outcome == case_table_outcome(space, standard_spec(), 5)

    @pytest.mark.parametrize("grid_size", [3, 5, 20])
    def test_tied_rhs_takes_each_subcase_first_triple(self, grid_size):
        # Every rhs is 0.0, so each row's argmin is where its scan starts;
        # 4(iii)'s first triple is (grid[1], grid[0], grid[0]), not the first
        # of its triples in row order.
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, FakeComparison("zero", lambda v: 0.0), PAPER_S)
        table = reproduce_case_table(GAP, spec, grid_size=grid_size)
        grid = grid_points(4, 64, grid_size)
        assert [(row.label, row.condition) for row in table.rows] == [(label, condition) for label, condition, _ in _SUBCASES]
        assert [row.argmin for row in table.rows] == [subcase_triples(rows, grid)[0] for _, _, rows in _SUBCASES]
        assert all(row.rhs_min == 0.0 for row in table.rows)

    def test_case_table_evaluates_each_triple_distance_once(self):
        calls = []

        def counting(p, q, r):
            calls.append(None)
            return quintic(p, q, r)

        space = dataclasses.replace(GAP, metric=RuleMetric("counting", counting))
        for g in (5, 20):
            calls.clear()
            assert reproduce_case_table(space, standard_spec(), grid_size=g).lhs_column() == EXPECTED_LHS_COLUMN
            m = g + 1  # 3 and the grid
            # Beyond the m^3 triples: g(x) per point, one row per image 0 and
            # 3 of dist(S(x), S(x), y), one lhs row per pair of images.
            assert len(calls) == m**3 + 7 * m

    def test_grid_holding_three_rejected(self):
        carrier = dataclasses.replace(GAP.carrier, intervals=((1, None),), bound=5)
        assert 3 in ray_grid(carrier, 5)
        with pytest.raises(WrongSpaceShape, match="the ray grid holds the isolated point 3"):
            reproduce_case_table(dataclasses.replace(GAP, carrier=carrier), standard_spec(), grid_size=5)

    def test_grid_size_below_three_rejected(self):
        with pytest.raises(ValueError, match="grid_size must be >= 3"):
            reproduce_case_table(GAP, standard_spec(), grid_size=2)

    def test_wrong_space_shape(self):
        with pytest.raises(WrongSpaceShape):
            reproduce_case_table(builtin_space("two_point_a"), standard_spec())

    def test_render_mentions_every_subcase(self):
        text = self.TABLE.render()
        for label in REFERENCE_BOUNDS:
            assert label in text

    def test_render_notes_a_failing_row(self):
        rows = list(self.TABLE.rows)
        k = next(k for k, row in enumerate(rows) if not row.discrepancy)
        rows[k] = dataclasses.replace(rows[k], holds=False)
        table = dataclasses.replace(self.TABLE, rows=tuple(rows))
        assert not table.passed
        lines = table.render().splitlines()[2:]
        assert [line.endswith(" INEQUALITY FAILS") for line in lines] == [i == k for i in range(len(rows))]
        assert "INEQUALITY FAILS" not in self.TABLE.render()

    def test_render_notes_the_rows_of_a_failing_spec(self):
        # An rhs of 0 everywhere: each subcase with a positive lhs fails, and
        # each with a positive reference differs from it too.
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, FakeComparison("zero", lambda v: 0.0), PAPER_S)
        table = reproduce_case_table(GAP, spec, grid_size=5)
        lines = table.render().splitlines()[2:]
        assert [row.holds for row in table.rows] == [lhs == 0 for lhs in EXPECTED_LHS_COLUMN]
        for row, line in zip(table.rows, lines):
            notes = ["differs from reference"] * (row.reference > 0) + ["INEQUALITY FAILS"] * (row.lhs > 0)
            assert line.endswith(" " + "; ".join(notes))
        assert lines[1].endswith(" differs from reference; INEQUALITY FAILS")

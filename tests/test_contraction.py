import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import (
    BOYD_WONG,
    ComparisonFn,
    InterpolativeSpec,
    InvalidExponents,
    PsbmError,
    REFERENCE_BOUNDS,
    UnknownBuiltin,
    UnknownPoint,
    WrongSpaceShape,
    builtin_comparison,
    builtin_map,
    builtin_space,
    certify,
    fixed_points_bruteforce,
    inequality_sides,
    map_from_table,
    random_tabulated_space,
    ray_grid,
    reproduce_case_table,
    sample_carrier,
    standard_spec,
    tabulated_space,
    validate_exponents,
)
from psbmetric.contraction import _SUBCASES
from psbmetric.numerics import leq, point_sort_key

GAP = builtin_space("quintic_gap")
PAPER_S = builtin_map("paper_S")

EXPECTED_LHS_COLUMN = (0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243)


def grid_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


CERT_POINTS = [0, 3] + grid_points(4, 64, 50)

QUARTER = ComparisonFn("quarter", lambda a: a / 4, BOYD_WONG)


def reference_rhs(space, spec, a, b, c):
    """comparison( product of the five interpolation factors ) at (a, b, c),
    evaluated point by point with the factors in the library's order."""
    S = spec.mapping
    dist = space.metric
    mean = (dist(S(a), S(a), b) + dist(S(b), S(b), c)) / (2 * space.coefficient)
    product = (
        dist(a, b, c) ** spec.p
        * dist(a, a, S(a)) ** spec.q
        * dist(b, b, S(b)) ** spec.r
        * dist(c, c, S(c)) ** spec.s
        * mean ** spec.residual
    )
    return spec.comparison(product)


def reference_certificate(space, spec, triples):
    """(triples checked, sorted failures, min margin) of lhs <= rhs over
    `triples`, every side evaluated point by point."""
    S = spec.mapping
    failures, margins = [], []
    for a, b, c in triples:
        lhs = space.metric(S(a), S(b), S(c))
        rhs = reference_rhs(space, spec, a, b, c)
        margins.append(rhs - lhs)
        if not leq(lhs, rhs):
            failures.append((a, b, c, lhs, rhs))
    failures.sort(key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
    return len(margins), tuple(failures), min(margins, default=None)


def grid_triples(spec, points):
    active = [x for x in points if spec.mapping(x) != x]
    return itertools.product(active, repeat=3)


def sampled_triples(space, spec, sample_count, seed):
    """The triples certify draws in sampled mode, fixed points dropped."""
    pool = sample_carrier(space, seed=seed)
    rng = random.Random(f"psbm:certify:{seed}")
    drawn = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(sample_count)]
    return [t for t in drawn if all(spec.mapping(x) != x for x in t)]


def assert_matches_reference(report, space, spec, triples):
    checked, failures, min_margin = reference_certificate(space, spec, triples)
    assert report.triples_checked == checked
    assert report.failures == failures
    assert report.min_margin == min_margin


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
        assert inequality_sides(space, spec, (1, 2))(1, 2, 1) == (v, reference_rhs(space, spec, 1, 2, 1))


class TestInequalitySides:
    def test_sides_equal_reference_bit_for_bit(self):
        points = [3] + grid_points(4, 64, 7)
        for matkowski in (False, True):
            spec = standard_spec(matkowski=matkowski)
            sides = inequality_sides(GAP, spec, points)
            for a, b, c in itertools.product(points, repeat=3):
                lhs, rhs = sides(a, b, c)
                assert lhs == GAP.metric(PAPER_S(a), PAPER_S(b), PAPER_S(c))
                assert rhs == reference_rhs(GAP, spec, a, b, c)

    def test_hand_expansion_at_444(self):
        lhs, rhs = inequality_sides(GAP, standard_spec(), [4])(4, 4, 4)
        assert lhs == 243
        assert math.isclose(rhs, 1057.0007223483, rel_tol=1e-9)

    def test_invalid_exponents_rejected(self):
        spec = InterpolativeSpec(0.3, 0.3, 0.3, 0.3, QUARTER, PAPER_S)
        with pytest.raises(InvalidExponents):
            inequality_sides(GAP, spec, [3, 4])


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
        labels = (1, 2, 3, 4)
        failing = 0
        for _ in range(40):
            space = random_tabulated_space(rng, labels)
            mapping = map_from_table({x: rng.choice(labels) for x in labels})
            exps = [rng.uniform(0.05, 0.24) for _ in range(4)]
            comparison = rng.choice([QUARTER, builtin_comparison("paper_tau")])
            spec = InterpolativeSpec(*exps, comparison=comparison, mapping=mapping)
            report = certify(space, spec, points=labels)
            assert_matches_reference(report, space, spec, grid_triples(spec, labels))
            sampled = certify(space, spec, sample_count=50, seed=3)
            assert_matches_reference(sampled, space, spec, sampled_triples(space, spec, 50, 3))
            failing += bool(report.failures)
        assert 0 < failing < 40

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=1.0, max_value=4.0))
    def test_pointwise_larger_comparison_preserves_pass(self, scale):
        tau = builtin_comparison("paper_tau")
        bigger = ComparisonFn("scaled", lambda a: scale * tau(a), BOYD_WONG)
        points = [0, 3, 4, 7, 20]
        base = certify(GAP, standard_spec(), points=points)
        widened = certify(
            GAP,
            InterpolativeSpec(0.2, 0.2, 0.2, 0.2, bigger, PAPER_S),
            points=points,
        )
        assert base.passed and widened.passed


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
    @pytest.mark.parametrize("matkowski", [False, True])
    def test_rows_equal_reference_minimum(self, matkowski, grid_size):
        spec = standard_spec(matkowski=matkowski)
        table = reproduce_case_table(GAP, spec, grid_size=grid_size)
        grid = grid_points(4, 64, grid_size)
        assert [row.label for row in table.rows] == [label for label, _, _ in _SUBCASES]
        for row, (_, _, generate) in zip(table.rows, _SUBCASES):
            rhs_min, argmin = None, None
            for triple in generate(grid):
                rhs = reference_rhs(GAP, spec, *triple)
                if rhs_min is None or rhs < rhs_min:
                    rhs_min, argmin = rhs, triple
            assert (row.rhs_min, row.argmin) == (rhs_min, argmin)

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

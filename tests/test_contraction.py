import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import (
    BOYD_WONG,
    ComparisonFn,
    InterpolativeSpec,
    InvalidExponents,
    REFERENCE_BOUNDS,
    UnknownBuiltin,
    UnknownPoint,
    WrongSpaceShape,
    builtin_comparison,
    builtin_map,
    builtin_space,
    certify,
    evaluate_metric,
    fixed_points_bruteforce,
    map_from_table,
    reproduce_case_table,
    rhs_value,
    standard_spec,
    tabulated_space,
    validate_exponents,
)

GAP = builtin_space("quintic_gap")
PAPER_S = builtin_map("paper_S")

EXPECTED_LHS_COLUMN = (0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243)


def grid_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


CERT_POINTS = [0, 3] + grid_points(4, 64, 50)


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
        got = rhs_value(GAP, standard_spec(), 4, 4, 4)
        assert math.isclose(got, expected, rel_tol=1e-9)
        assert math.isclose(got, 1057.0007223483, rel_tol=1e-9)

    def test_lhs_zero_at_all_threes(self):
        assert evaluate_metric(GAP, PAPER_S(3), PAPER_S(3), PAPER_S(3)) == 0
        assert rhs_value(GAP, standard_spec(), 3, 3, 3) >= 0

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
        assert math.isclose(rhs_value(space, spec, 1, 2, 1), tau(v), rel_tol=1e-12)


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
        quarter = ComparisonFn("quarter", lambda a: a / 4, BOYD_WONG)
        spec = InterpolativeSpec(0.2, 0.2, 0.2, 0.2, quarter, PAPER_S)
        report = certify(GAP, spec, points=[0, 3, 4, 7, 10])
        assert not report.passed
        for a, b, c, lhs, rhs in report.failures:
            assert lhs == evaluate_metric(GAP, PAPER_S(a), PAPER_S(b), PAPER_S(c))
            assert math.isclose(rhs, rhs_value(GAP, spec, a, b, c), rel_tol=1e-12)
            assert lhs > rhs

    def test_sampled_certificates_are_deterministic(self):
        first = certify(GAP, standard_spec(), sample_count=150, seed=9)
        second = certify(GAP, standard_spec(), sample_count=150, seed=9)
        assert first == second

    def test_min_margin_is_reproducible(self):
        spec = standard_spec()
        report = certify(GAP, spec, points=[0, 3, 4, 7])
        margins = [
            rhs_value(GAP, spec, a, b, c)
            - evaluate_metric(GAP, PAPER_S(a), PAPER_S(b), PAPER_S(c))
            for a, b, c in itertools.product((3, 4, 7), repeat=3)
        ]
        assert math.isclose(report.min_margin, min(margins), rel_tol=1e-12)

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

    def test_wrong_space_shape(self):
        with pytest.raises(WrongSpaceShape):
            reproduce_case_table(builtin_space("two_point_a"), standard_spec())

    def test_render_mentions_every_subcase(self):
        text = self.TABLE.render()
        for label in REFERENCE_BOUNDS:
            assert label in text

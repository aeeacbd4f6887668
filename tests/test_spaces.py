import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import (
    AxiomSet,
    DistanceOverflow,
    FiniteCarrier,
    IncompleteTable,
    InfeasibleExhaustive,
    NegativeValue,
    ParseError,
    PartialSbSpace,
    RuleMetric,
    UnknownBuiltin,
    UnknownPoint,
    builtin_space,
    check_axioms,
    load_tabulated_space,
    quintic,
    random_tabulated_space,
    random_valid_space,
    sample_carrier,
    tabulated_space,
)

TWO_POINT_B_FILE = """\
# replicates the disconnected two-point table
points: 1 2
coefficient: 1
1 1 1 4
2 2 2 4
1 1 2 8
2 2 1 8
1 2 1 8
2 1 1 8
1 2 2 8
2 1 2 8
"""


def one_point_space():
    return tabulated_space(("x",), {("x", "x", "x"): 0})


def absdiff_space(points=(0, 1, 3)):
    # |u-w| + |v-w| is a classical S-metric, hence also S_b and partial S_b.
    return PartialSbSpace(
        FiniteCarrier(points),
        RuleMetric("absdiff", lambda u, v, w: abs(u - w) + abs(v - w)),
    )


class TestEvaluateMetric:
    def test_two_point_a_mixed_triple(self):
        space = builtin_space("two_point_a")
        assert space.metric(1, 1, 2) == 8
        assert space.metric(2, 2, 1) == 8

    def test_quintic_self_triple(self):
        space = builtin_space("quintic_ray")
        assert space.metric(1, 1, 1) == 1

    def test_quintic_pair_triple_matches_hand_expansion(self):
        space = builtin_space("quintic_ray")
        assert space.metric(4, 4, 3) == 2 * (4**5 + 3**5) == 2534

    def test_quintic_integer_points_stay_exact(self):
        assert type(quintic(4, 4, 3)) is int

    def test_float_overflow_raises_distance_overflow(self):
        space = builtin_space("quintic_gap")
        with pytest.raises(DistanceOverflow, match=r"quintic\(1e\+80, 1e\+80, 3\)"):
            space.metric(1e80, 1e80, 3)

    def test_unknown_point_on_tabulated(self):
        space = builtin_space("two_point_a")
        with pytest.raises(UnknownPoint):
            space.metric(1, 1, 3)


class TestCheckAxioms:
    def test_two_point_builtins_pass_exhaustive(self):
        for name in ("two_point_a", "two_point_b"):
            report = check_axioms(builtin_space(name))
            assert report.passed, report.violations

    def test_one_point_space_passes_every_variant(self):
        space = one_point_space()
        for variant in AxiomSet:
            assert check_axioms(space, variant).passed

    def test_mutated_table_flags_self_minimality(self):
        table = dict(builtin_space("two_point_b").metric.table)
        table[(1, 1, 2)] = 3
        space = tabulated_space((1, 2), table)
        report = check_axioms(space)
        assert not report.passed
        axiom2 = [v for v in report.violations if v.axiom == 2]
        assert axiom2 and axiom2[0].witness == (1, 1, 2)
        assert axiom2[0].lhs == 4 and axiom2[0].rhs == 3

    def test_exhaustive_on_region_is_infeasible(self):
        with pytest.raises(InfeasibleExhaustive):
            check_axioms(builtin_space("quintic_ray"))

    def test_sampled_mode_is_deterministic(self):
        space = builtin_space("quintic_gap")
        first = check_axioms(space, sample_count=500, seed=3)
        second = check_axioms(space, sample_count=500, seed=3)
        assert first == second

    def test_absdiff_is_s_metric_and_sb_metric(self):
        space = absdiff_space()
        assert check_axioms(space, AxiomSet.S_METRIC).passed
        assert check_axioms(space, AxiomSet.SB_METRIC).passed
        assert check_axioms(space, AxiomSet.PARTIAL_SB).passed

    def test_nonzero_self_distance_fails_sb_variant(self):
        # two_point_a has dist(1,1,1) = 8, so the zero-iff axiom rejects it.
        report = check_axioms(builtin_space("two_point_a"), AxiomSet.SB_METRIC)
        assert not report.passed
        assert any(v.axiom == 1 and v.witness == (1, 1, 1) for v in report.violations)

    def test_s_metric_triangle_violation_has_quadruple_witness(self):
        table = {t: (0 if len(set(t)) == 1 else 1) for t in itertools.product((1, 2), repeat=3)}
        table[(1, 2, 1)] = 10
        space = tabulated_space((1, 2), table)
        report = check_axioms(space, AxiomSet.S_METRIC)
        bad = [v for v in report.violations if v.axiom == 2 and v.witness == (1, 2, 1, 1)]
        assert bad
        # lhs 10 against 0 + 1 + 0 around anchor point 1
        assert bad[0].lhs == 10 and bad[0].rhs == 1

    def test_partial_s_identity_axiom_is_checked_verbatim(self):
        # The literal reading of the identity axiom forces dist(u,u,w) to match
        # dist(w,w,w) whenever u = v; a constant table trips its reverse
        # direction instead (all values agree while u != v).
        constant = tabulated_space(
            (1, 2), {t: 2 for t in itertools.product((1, 2), repeat=3)}
        )
        report = check_axioms(constant, AxiomSet.PARTIAL_S)
        assert any(v.axiom == 1 for v in report.violations)
        forward = check_axioms(builtin_space("two_point_b"), AxiomSet.PARTIAL_S)
        assert any(v.axiom == 1 and v.witness == (1, 1, 2) for v in forward.violations)

    @settings(max_examples=40, deadline=None)
    @given(
        entry=st.sampled_from(sorted(itertools.product((1, 2), repeat=3))),
        delta=st.integers(min_value=-6, max_value=6).filter(lambda d: d != 0),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_sampled_violations_subset_of_exhaustive(self, entry, delta, seed):
        table = dict(builtin_space("two_point_b").metric.table)
        table[entry] += delta
        space = tabulated_space((1, 2), table)
        sampled = check_axioms(space, sample_count=60, seed=seed)
        exhaustive = check_axioms(space)
        assert set(sampled.violations) <= set(exhaustive.violations)


class TestBuiltinSpaces:
    def test_two_point_b_table_values(self):
        space = builtin_space("two_point_b")
        assert space.metric(1, 1, 1) == 4
        assert space.metric(2, 2, 2) == 4
        for triple in itertools.product((1, 2), repeat=3):
            if len(set(triple)) > 1:
                assert space.metric(*triple) == 8

    def test_two_point_a_table_values(self):
        space = builtin_space("two_point_a")
        assert space.metric(2, 2, 2) == 4
        assert space.metric(2, 1, 2) == 4

    def test_quintic_gap_zero_self_distance(self):
        assert builtin_space("quintic_gap").metric(0, 0, 0) == 0

    def test_all_builtins_have_unit_coefficient(self):
        for name in ("quintic_ray", "two_point_a", "two_point_b", "quintic_gap"):
            assert builtin_space(name).coefficient == 1

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            builtin_space("nope")


class TestSpaceFiles:
    def test_roundtrip_matches_builtin(self):
        assert load_tabulated_space(TWO_POINT_B_FILE) == builtin_space("two_point_b")

    def test_empty_point_list(self):
        with pytest.raises(ParseError):
            load_tabulated_space("points:\ncoefficient: 1\n")

    def test_missing_triple(self):
        text = "\n".join(
            line for line in TWO_POINT_B_FILE.splitlines() if not line.startswith("2 1 2")
        )
        with pytest.raises(IncompleteTable):
            load_tabulated_space(text)

    def test_negative_value(self):
        with pytest.raises(NegativeValue):
            load_tabulated_space(TWO_POINT_B_FILE.replace("1 1 1 4", "1 1 1 -4"))

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            load_tabulated_space(TWO_POINT_B_FILE.replace("1 1 1 4", "1 1 4"))

    def test_duplicate_triple(self):
        with pytest.raises(ParseError):
            load_tabulated_space(TWO_POINT_B_FILE + "\n1 1 1 4\n")

    def test_unknown_label_in_triple(self):
        with pytest.raises(ParseError):
            load_tabulated_space(TWO_POINT_B_FILE.replace("1 1 1 4", "1 1 5 4"))

    def test_sub_unit_coefficient_rejected(self):
        with pytest.raises(ParseError):
            load_tabulated_space(TWO_POINT_B_FILE.replace("coefficient: 1", "coefficient: 0.5"))


class TestSampleCarrier:
    def test_finite_carrier_returns_itself(self):
        assert sample_carrier(builtin_space("two_point_a"), count=7) == [1, 2]

    def test_isolated_points_always_included(self):
        points = sample_carrier(builtin_space("quintic_gap"), count=5, seed=0)
        assert 0 in points and 3 in points
        assert len(points) == 5

    def test_ray_sample_size_bounds_and_determinism(self):
        space = builtin_space("quintic_ray")
        first = sample_carrier(space, count=10, seed=1)
        second = sample_carrier(space, count=10, seed=1)
        assert first == second
        assert len(first) == 10
        assert all(p >= 1 for p in first)
        assert all(p <= 64 for p in first)

    def test_distinct_seeds_differ(self):
        space = builtin_space("quintic_ray")
        assert sample_carrier(space, count=10, seed=1) != sample_carrier(space, count=10, seed=2)


class TestRandomSpaces:
    def test_random_valid_space_passes_filter(self):
        rng = random.Random("test-random-valid")
        for _ in range(10):
            space = random_valid_space(rng)
            assert check_axioms(space).passed

    def test_random_table_is_symmetric_in_paired_slots(self):
        rng = random.Random("test-random-symmetric")
        space = random_tabulated_space(rng)
        for p, q in itertools.permutations((1, 2, 3), 2):
            assert space.metric(p, p, q) == space.metric(q, q, p)

import itertools

import pytest

from psbmetric import (
    IterationTrace,
    NotAFixedPoint,
    UnknownPoint,
    builtin_comparison,
    builtin_map,
    builtin_space,
    map_from_table,
    matkowski_envelope_check,
    picard_iterate,
    tabulated_space,
    trace_to_csv,
    uniqueness_check,
    verify_fixed_point,
)

GAP = builtin_space("quintic_gap")
PAPER_S = builtin_map("paper_S")
HALF = builtin_comparison("half")
SWAP = map_from_table({1: 2, 2: 1}, name="swap")
TWO_A = builtin_space("two_point_a")


class TestPicardIterate:
    def test_orbit_from_seven(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        assert trace.orbit == (7, 3, 0, 0)
        assert trace.converged and trace.limit == 0

    def test_gaps_from_seven_match_hand_expansion(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        assert trace.gaps == (2 * (7**5 + 3**5), 2 * 3**5, 0)
        assert trace.gaps == (34100, 486, 0)

    def test_fixed_start_converges_immediately(self):
        trace = picard_iterate(GAP, PAPER_S, 0)
        assert trace.orbit == (0, 0)
        assert trace.converged and trace.limit == 0 and trace.limit_gap == 0

    def test_trace_field_lengths(self):
        trace = picard_iterate(GAP, PAPER_S, 64)
        assert len(trace.gaps) == len(trace.orbit) - 1
        assert len(trace.self_distances) == len(trace.orbit)

    def test_orbit_consistency(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        for current, nxt in zip(trace.orbit, trace.orbit[1:]):
            assert PAPER_S(current) == nxt

    def test_nonconvergence_is_reported_not_raised(self):
        trace = picard_iterate(TWO_A, SWAP, 1, max_iter=9)
        assert not trace.converged
        assert trace.limit is None and trace.limit_gap is None
        assert len(trace.orbit) == 10

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_is_rejected(self, start):
        with pytest.raises(ValueError, match="start point must be finite"):
            picard_iterate(GAP, PAPER_S, start)


    def test_image_off_the_carrier_names_map_point_and_image(self):
        # The orbit 1 -> 2 -> 5 leaves the carrier {1, 2} at its second step.
        leaving = map_from_table({1: 2, 2: 5}, name="leaving")
        with pytest.raises(UnknownPoint) as exc:
            picard_iterate(TWO_A, leaving, 1)
        assert str(exc.value) == "map leaving sends 2 to 5, which is not in the carrier"

    def test_image_in_a_region_carrier_is_accepted(self):
        identity = builtin_map("identity")
        assert picard_iterate(GAP, identity, 4.5).orbit == (4.5, 4.5)

    def test_the_orbit_converges_only_where_it_repeats_exactly(self):
        # 4.5 -> 3 is a step of 1.5 and 3 is not fixed: the orbit goes on
        # to 0, which is.
        trace = picard_iterate(GAP, PAPER_S, 4.5)
        assert trace.orbit == (4.5, 3, 0, 0)
        assert trace.converged and trace.limit == 0

    def test_points_a_float_step_apart_do_not_converge(self):
        # The swap of two points 1e-12 apart cycles: no point repeats its
        # predecessor, however close.
        near = 1 + 1e-12
        space = tabulated_space((1.0, near), {t: 0 for t in itertools.product((1.0, near), repeat=3)})
        trace = picard_iterate(space, map_from_table({1.0: near, near: 1.0}), 1.0, max_iter=5)
        assert len(trace.orbit) == 6 and not trace.converged

    def test_there_is_no_tolerance(self):
        with pytest.raises(TypeError):
            picard_iterate(GAP, PAPER_S, 7, tol=2)


class TestVerifyFixedPoint:
    def test_zero_is_fixed_with_zero_self_distance(self):
        assert verify_fixed_point(GAP, PAPER_S, 0) == (True, True)

    def test_three_is_not_fixed(self):
        is_fixed, _ = verify_fixed_point(GAP, PAPER_S, 3)
        assert not is_fixed

    def test_a_self_distance_is_zero_exactly(self):
        # 1e-12 is no zero self-distance, and there is no tolerance to make
        # it one.
        table = {t: 1e-12 for t in itertools.product((1, 2), repeat=3)}
        space = tabulated_space((1, 2), table)
        assert verify_fixed_point(space, builtin_map("identity"), 1) == (True, False)
        with pytest.raises(TypeError):
            verify_fixed_point(GAP, PAPER_S, 0, tol=0)

    def test_conclusions_are_independent(self):
        # Identity fixes every point, but self-distance stays positive.
        identity = builtin_map("identity")
        assert verify_fixed_point(TWO_A, identity, 1) == (True, False)


class TestEnvelope:
    def test_orbit_from_seven_stays_under_halving_envelope(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        assert trace.gaps[1] <= trace.gaps[0] / 2
        assert matkowski_envelope_check(trace, HALF) == (True, None)

    def test_violation_reports_first_bad_index(self):
        trace = IterationTrace(
            orbit=(1, 2, 3),
            gaps=(10, 6),
            self_distances=(0, 0, 0),
            converged=False,
            limit=None,
            limit_gap=None,
        )
        assert matkowski_envelope_check(trace, HALF) == (False, 1)

    def test_single_gap_trace_is_vacuous(self):
        trace = picard_iterate(GAP, PAPER_S, 0)
        assert len(trace.gaps) == 1
        assert matkowski_envelope_check(trace, HALF) == (True, None)

    def test_requires_matkowski_kind(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        with pytest.raises(ValueError):
            matkowski_envelope_check(trace, builtin_comparison("paper_tau"))


class TestUniqueness:
    def test_zero_unique_over_paper_sample(self):
        assert uniqueness_check(GAP, PAPER_S, [0, 3, 4, 7, 64], 0) == (True, None)

    def test_identity_yields_counterexample(self):
        identity = builtin_map("identity")
        ok, other = uniqueness_check(GAP, identity, [0, 3, 4], 0)
        assert not ok and other == 3

    def test_constant_map_unique_at_target(self):
        to_three = map_from_table({0: 3, 3: 3, 4: 3})
        assert uniqueness_check(GAP, to_three, [0, 3, 4], 3) == (True, None)

    def test_claimed_point_must_be_fixed(self):
        with pytest.raises(NotAFixedPoint):
            uniqueness_check(GAP, PAPER_S, [0, 3, 4], 4)


class TestSerialization:
    def test_csv_rows(self):
        trace = picard_iterate(GAP, PAPER_S, 7)
        lines = trace_to_csv(trace).strip().splitlines()
        assert lines[0] == "k,a_k,gap_k"
        assert lines[1] == "0,7,34100"
        assert lines[-1].startswith("3,0,")

    def test_dict_shape(self):
        payload = picard_iterate(GAP, PAPER_S, 7).to_dict()
        assert payload["orbit"] == ["7", "3", "0", "0"]
        assert payload["converged"] is True
        assert payload["limit"] == "0"

import json
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from psbmetric import (
    BOYD_WONG,
    ComparisonFn,
    MATKOWSKI,
    ParseError,
    UnknownBuiltin,
    builtin_comparison,
    check_boyd_wong_properties,
    check_matkowski_properties,
    load_piecewise,
    piecewise_linear,
)
from psbmetric.comparison import _span
from psbmetric.contraction import _rhs

TAU = builtin_comparison("paper_tau")
HALF = builtin_comparison("half")
IDENTITY = builtin_comparison("identity")
NAN = float("nan")
INF = float("inf")


# -- the evaluators the piece lists replaced, kept as references --------------


def reference_paper_tau(a):
    return 0.9 * a if a <= 1 else 0.5 * a


def reference_half(a):
    return a / 2


def reference_piecewise(breakpoints):
    pts = [(float(x), float(y)) for x, y in breakpoints]

    def evaluate(v):
        if v <= pts[0][0]:
            (x0, y0), (x1, y1) = pts[0], pts[1]
        elif v >= pts[-1][0]:
            (x0, y0), (x1, y1) = pts[-2], pts[-1]
        else:
            lo, hi = 0, len(pts) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if pts[mid][0] <= v:
                    lo = mid
                else:
                    hi = mid
            (x0, y0), (x1, y1) = pts[lo], pts[hi]
        slope = (y1 - y0) / (x1 - x0)
        return max(0.0, y0 + (v - x0) * slope)

    return evaluate


# -- an exact evaluator of a piece list, written apart from the library -------


def line_at(line, t):
    (x0, y0), (x1, y1) = line
    return Fraction(y0) + (Fraction(t) - Fraction(x0)) * (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))


def exact_at(fn, t):
    """fn(t) for t >= 0 in rational arithmetic."""
    holder = 0
    for k, (start, _, closed) in enumerate(fn.pieces):
        if start < t or (start == t and closed):
            holder = k
    return max(Fraction(0), line_at(fn.pieces[holder][1], t))


def limits(fn, k):
    """(fn(b-), fn(b+)) at the start b of piece k >= 1."""
    b = fn.pieces[k][0]
    return max(Fraction(0), line_at(fn.pieces[k - 1][1], b)), max(Fraction(0), line_at(fn.pieces[k][1], b))


def dense_grid(fn):
    """Every start, the midpoints between starts, each start +- 2^-k and
    points far right of the last start."""
    starts = [Fraction(start) for start, _, _ in fn.pieces]
    grid = set(starts) | {(a + b) / 2 for a, b in zip(starts, starts[1:])}
    grid |= {b + sign * Fraction(1, 2 ** k) for b in starts for sign in (1, -1) for k in range(1, 11)}
    grid |= {starts[-1] + d for d in (1, 7, 100, 10 ** 6)}
    return sorted(t for t in grid if t >= 0)


def iterates(fn, t, steps):
    out = []
    for _ in range(steps):
        t = exact_at(fn, t)
        out.append(t)
    return out


def pieces_fn(*pieces, kind=None, name="pieces"):
    return ComparisonFn(name, tuple(pieces), kind)


def line(x0, y0, x1, y1):
    return ((float(x0), float(y0)), (float(x1), float(y1)))


# t/2 on [0, 1] and (t + 1)/2 above: from 3 the iterates tend to 1.
STALL = pieces_fn((0.0, line(0, 0, 1, 0.5), True), (1.0, line(1, 1, 3, 2), False), kind=MATKOWSKI)
BUMP = [[0, 0], [4, 1], [5, 6], [6, 2], [7, 2.5]]


class TestBuiltins:
    def test_paper_tau_branches(self):
        assert TAU(0) == 0
        assert TAU(1) == 0.9
        assert TAU(2) == 1.0
        assert TAU(2113) == 1056.5

    def test_kinds(self):
        assert TAU.kind == BOYD_WONG
        assert HALF.kind == MATKOWSKI
        assert IDENTITY.kind is None

    def test_unknown(self):
        with pytest.raises(UnknownBuiltin):
            builtin_comparison("missing")


class TestEvaluationIsUnchanged:
    """Piece evaluation against the evaluators it replaced, compared by repr
    on the domain [0, inf]."""

    BUILTINS = ((TAU, reference_paper_tau), (HALF, reference_half))

    @settings(max_examples=300, deadline=None)
    @given(v=st.one_of(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=0, max_value=2 ** 1000),
        st.floats(min_value=0.0, allow_infinity=True),
        st.floats(min_value=0.5, max_value=2.0),
        st.sampled_from([0, 1, 1.0, NAN, INF, math.nextafter(1.0, INF), 5e-324]),
    ))
    def test_builtins(self, v):
        for fn, reference in self.BUILTINS:
            assert repr(fn(v)) == repr(reference(v))

    def test_random_breakpoint_functions(self):
        rng = random.Random("psbm:test:piecewise-evaluation")
        for _ in range(1500):
            count = rng.randint(2, 7)
            xs = sorted({rng.choice([rng.uniform(-5, 50), float(rng.randint(-5, 50)), rng.randint(-5, 50)])
                         for _ in range(count)})
            if len(xs) < 2:
                continue
            ys = [rng.choice([0, 0.0, rng.uniform(0, 40), rng.randint(0, 40)]) for _ in xs]
            fn, reference = piecewise_linear(list(zip(xs, ys))), reference_piecewise(list(zip(xs, ys)))
            inputs = [x for x in xs if x >= 0] + [rng.uniform(0, 60) for _ in range(10)]
            inputs += [rng.randint(0, 60), 0, 0.0, 1e300]
            for v in inputs:
                assert repr(fn(v)) == repr(reference(v)), (xs, ys, v)

    def test_nan_stays_nan_in_a_breakpoint_function(self):
        # The old evaluator clamped a nan line value to 0.0.
        fn = piecewise_linear([(0, 0), (1, 0.5)])
        assert math.isnan(fn(NAN)) and math.isnan(TAU(NAN)) and math.isnan(HALF(NAN))

    def test_negative_y_zero_reads_as_zero(self):
        fn = piecewise_linear([(0, -0.0), (1, -0.0), (2, 1)])
        assert repr(fn(0)) == repr(fn(0.5)) == "0.0"


class TestPiecewiseLinear:
    def test_interpolates_breakpoints(self):
        fn = piecewise_linear([(0, 0), (2, 1), (4, 1.5)])
        assert fn(0) == 0
        assert fn(2) == 1
        assert fn(1) == 0.5
        assert fn(3) == 1.25

    def test_extends_by_last_slope(self):
        fn = piecewise_linear([(0, 0), (2, 1)])
        assert fn(6) == 3.0

    def test_clamps_at_zero(self):
        fn = piecewise_linear([(0, 2), (1, 1)])
        assert fn(4) == 0.0

    def test_loads_json_breakpoints(self):
        fn = load_piecewise(json.dumps([[0, 0], [10, 5]]), kind=MATKOWSKI)
        assert fn(4) == 2.0 and fn.kind == MATKOWSKI

    def test_rejects_bad_input(self):
        with pytest.raises(ParseError):
            load_piecewise("not json")
        with pytest.raises(ParseError):
            load_piecewise(json.dumps([[0, 0]]))
        with pytest.raises(ParseError):
            piecewise_linear([(0, 0), (0, 1)])
        with pytest.raises(ParseError):
            piecewise_linear([(0, 0), (1, -1)])

    @pytest.mark.parametrize("pairs", [
        [(-1e308, 0), (1e308, 1)],
        [(-1.5e308, 0), (-1e308, 1), (1e308, 2)],
        [(0, 0), (5e-324, 1e300)],
    ], ids=["span", "late-span", "slope"])
    def test_overflowing_segment_names_the_pair(self, pairs):
        with pytest.raises(ParseError, match=r"breakpoints \d and \d"):
            piecewise_linear(pairs)

    def test_pieces_start_at_zero(self):
        fn = piecewise_linear([(-4, 4), (-2, 3), (3, 1), (5, 2)])
        assert [start for start, _, _ in fn.pieces] == [0.0, 3.0]
        assert fn.pieces[0][1] == ((-2.0, 3.0), (3.0, 1.0))


class TestBoydWongChecks:
    def test_paper_tau_passes_small_grid(self):
        assert check_boyd_wong_properties(TAU, (0.5, 1.0, 2.0, 100.0)).passed

    def test_paper_tau_passes_default_grid(self):
        assert check_boyd_wong_properties(TAU).passed

    def test_paper_tau_passes_on_the_grid_straddling_one(self):
        # It failed here while the check also demanded monotonicity.
        report = check_boyd_wong_properties(TAU, (0.5, 1.0, 1.5))
        assert report.passed
        assert [c.name for c in report.checks] == ["zero-at-zero", "below-identity", "usc"]

    def test_identity_fails_below_identity_with_witness(self):
        check = check_boyd_wong_properties(IDENTITY).check("below-identity")
        assert not check.passed
        assert check.witness > 0 and exact_at(IDENTITY, check.witness) >= check.witness

    def test_bump_between_breakpoints_fails(self):
        fn = piecewise_linear(BUMP)
        check = check_boyd_wong_properties(fn).check("below-identity")
        assert not check.passed
        assert 4 < check.witness < 6 and exact_at(fn, check.witness) >= check.witness

    def test_usc_catches_upward_jump(self):
        # 0.1 t up to 2, 0.9 t above: fn(2) = 0.2 is below fn(2+) = 1.8.
        jump = pieces_fn((0.0, line(0, 0, 1, 0.1), True), (2.0, line(0, 0, 1, 0.9), False), kind=BOYD_WONG)
        check = check_boyd_wong_properties(jump).check("usc")
        assert not check.passed and check.witness == 2.0

    def test_usc_accepts_continuous_functions(self):
        for fn in (TAU, HALF, IDENTITY, piecewise_linear(BUMP)):
            assert check_boyd_wong_properties(fn).check("usc").passed

    def test_identity_on_a_bounded_piece_fails(self):
        # t on (1, 2) between two pieces below the identity, with jumps down at both ends.
        fn = pieces_fn((0.0, line(0, 0, 1, 0.5), True), (1.0, line(1, 1, 2, 2), False),
                       (2.0, line(0, 0, 1, 0.5), True))
        check = check_boyd_wong_properties(fn).check("below-identity")
        assert not check.passed and 1 < check.witness < 2

    def test_touching_the_identity_in_the_limit_passes(self):
        assert check_boyd_wong_properties(STALL).check("below-identity").passed

    def test_zero_at_zero_reads_a_left_extension_exactly(self):
        # The line through these points meets the origin exactly, but a
        # float walk back from x = 1 reads 1.39e-17 at 0.
        fn = piecewise_linear([(1.0, 0.0908260108183476), (4.0, 0.3633040432733904)])
        assert fn(0) == 1.3877787807814457e-17
        assert exact_at(fn, 0) == 0
        assert check_boyd_wong_properties(fn).check("zero-at-zero").passed

    def test_clamp_kink_is_a_breakpoint(self):
        # 3 - t, clamped: zero from t = 3 on; falls on (0, 3), so not monotone.
        fn = piecewise_linear([(0, 3), (1, 2)])
        check = check_matkowski_properties(fn).check("monotone")
        a, c = check.witness
        assert a < c < 3 and exact_at(fn, a) > exact_at(fn, c)
        rising_after = piecewise_linear([(0, 0), (1, 0), (2, 0.5), (3, 0)])
        assert not check_matkowski_properties(rising_after).check("monotone").passed


class TestMatkowskiChecks:
    def test_half_passes_requested_grid(self):
        assert check_matkowski_properties(HALF, (1.0, 486.0, 34100.0)).passed

    def test_half_passes_default_grid(self):
        assert check_matkowski_properties(HALF).passed

    def test_near_identity_slope_passes(self):
        assert check_matkowski_properties(piecewise_linear([(0, 0), (1, 0.999)])).passed

    def test_identity_fails_iterate_decay_with_witness(self):
        check = check_matkowski_properties(IDENTITY).check("iterate-decay")
        assert not check.passed
        assert check.witness > 0 and exact_at(IDENTITY, check.witness) == check.witness

    def test_stall_at_one_fails_iterate_decay(self):
        report = check_matkowski_properties(STALL)
        assert report.check("monotone").passed and report.check("below-identity").passed
        check = report.check("iterate-decay")
        assert not check.passed and check.witness == 1.0
        assert all(1 < t < 3 for t in iterates(STALL, Fraction(3), 30))

    def test_paper_tau_fails_monotone_with_an_exact_pair(self):
        check = check_matkowski_properties(TAU).check("monotone")
        a, c = check.witness
        assert a < c and exact_at(TAU, a) > exact_at(TAU, c)

    def test_a_fall_on_a_piece_with_no_float_inside_is_named_at_its_ends(self):
        # The piece [1, nextafter(1)) falls from 0.5 towards 0.4, and holds no
        # float but 1; the pair is its own start and the next start.
        after = math.nextafter(1.0, INF)
        fn = piecewise_linear([(0, 0), (1, 0.5), (after, 0.4), (2, 0.8)])
        check = check_matkowski_properties(fn).check("monotone")
        assert not check.passed and check.witness == (1.0, after)
        assert exact_at(fn, 1.0) == 0.5 > exact_at(fn, after) == 0.4
        assert check.detail == f"fn(1.0) > fn({after})"

    def test_a_fall_with_no_float_pair_is_reported_without_a_witness(self):
        # The same falling piece, but the next piece is flat at fn(1): fn falls
        # and comes back between two adjacent floats, so no float pair shows it.
        after = math.nextafter(1.0, INF)
        fn = pieces_fn((0.0, line(0, 0, 1, 0.5), True), (1.0, line(1, 0.5, 2, 0), True),
                       (after, line(0, 0.5, 1, 0.5), True))
        assert exact_at(fn, 1.0) == exact_at(fn, after) == 0.5
        check = check_matkowski_properties(fn).check("monotone")
        assert not check.passed and check.witness is None
        assert check.detail == "fn falls only between adjacent floats"
        # A later fall that a float pair shows is named, not hidden behind it.
        falls_later = pieces_fn(*fn.pieces, (4.0, line(4, 0.5, 5, 0.1), True))
        check = check_matkowski_properties(falls_later).check("monotone")
        a, c = check.witness
        assert 1 < a < c and exact_at(falls_later, a) > exact_at(falls_later, c)

    def test_undecided_without_monotonicity(self):
        # t/2 up to 1, then a drop to 0.1 t and a rise to t + 1 from 4 on.
        fn = pieces_fn((0.0, line(0, 0, 1, 0.5), True), (1.0, line(0, 0, 1, 0.1), False),
                       (4.0, line(0, 1, 1, 2), True))
        report = check_matkowski_properties(fn)
        assert not report.check("monotone").passed
        check = report.check("iterate-decay")
        assert not check.passed and check.witness is None
        assert check.detail.startswith("undecided without monotonicity")

    def test_half_stays_below_identity(self):
        assert HALF(2) == 1 < 2
        assert check_matkowski_properties(HALF).check("below-identity").passed

    def test_reports_are_deterministic(self):
        assert check_matkowski_properties(HALF) == check_matkowski_properties(HALF)


# -- exact verdicts against the exact function -------------------------------


@st.composite
def piece_lists(draw):
    """Piece lists with jumps and clamps, on half-integer data, with some
    lines through (start, start) so that stalls occur; or the interpolant of
    random breakpoints, continuous and clamped at zero."""
    if draw(st.booleans()):
        xs = sorted(set(draw(st.lists(st.integers(-6, 16), min_size=2, max_size=6))))
        if len(xs) < 2:
            xs = [0, 1]
        ys = draw(st.lists(st.integers(0, 12), min_size=len(xs), max_size=len(xs)))
        return piecewise_linear([(x / 2, y / 2) for x, y in zip(xs, ys)])
    starts = [0] + sorted(set(draw(st.lists(st.integers(1, 12), max_size=4))))
    pieces = []
    for start in starts:
        b = start / 2
        if start and draw(st.integers(0, 4)) == 0:
            ln = line(b, b, b + 2, b + draw(st.sampled_from([-1, 0, 1, 1.5, 2])))
        else:
            x0 = draw(st.integers(-4, 10)) / 2
            x1 = x0 + draw(st.integers(1, 8)) / 2
            ln = line(x0, draw(st.integers(-4, 16)) / 2, x1, draw(st.integers(-4, 16)) / 2)
        pieces.append((b, ln, draw(st.booleans())))
    return pieces_fn(*pieces)


def assert_witness_holds(fn, check, below_passed):
    w = check.witness
    if check.name == "zero-at-zero":
        assert w == 0 and exact_at(fn, 0) != 0
    elif check.name == "below-identity":
        assert w is None or (w > 0 and exact_at(fn, w) >= w)
    elif check.name == "monotone":
        if w is not None:
            a, c = w
            assert a < c and exact_at(fn, a) > exact_at(fn, c)
    elif check.name == "usc":
        k = [start for start, _, _ in fn.pieces].index(w)
        assert exact_at(fn, w) < max(limits(fn, k))
    elif check.name == "iterate-decay" and w is not None:
        if below_passed:
            # The iterates from just above w stay above w.
            t = Fraction(w) + Fraction(1, 2 ** 20)
            assert all(w < s < t for s in iterates(fn, t, 10))
        else:
            assert all(s >= w for s in iterates(fn, Fraction(w), 10))


def assert_pass_holds(fn, check):
    grid = dense_grid(fn)
    if check.name == "zero-at-zero":
        assert exact_at(fn, 0) == 0
    elif check.name == "below-identity":
        assert all(exact_at(fn, t) < t for t in grid if t > 0)
    elif check.name == "monotone":
        values = [exact_at(fn, t) for t in grid]
        assert values == sorted(values)
    elif check.name == "usc":
        for k, (b, _, _) in enumerate(fn.pieces[1:], start=1):
            assert exact_at(fn, b) >= max(limits(fn, k))
    elif check.name == "iterate-decay":
        # Below the identity and zero at zero, fn decays to 0 on its first
        # piece, so the iterates need only reach it. (From 10^6 a slope-1
        # piece takes 2 million steps.)
        first = fn.pieces[1][0] if len(fn.pieces) > 1 else INF
        for t in grid[:-1]:
            s = t
            for _ in range(300):
                if s < first:
                    break
                s = exact_at(fn, s)
            assert s < first, (t, s)


class TestExactVerdicts:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(fn=piece_lists())
    def test_witnesses_and_passes_hold_exactly(self, fn):
        for report in (check_boyd_wong_properties(fn), check_matkowski_properties(fn)):
            below = report.check("below-identity").passed
            for check in report.checks:
                if check.passed:
                    assert_pass_holds(fn, check)
                else:
                    assert_witness_holds(fn, check, below)
            json.dumps(report.to_dict())

    @settings(max_examples=200, deadline=None)
    @given(fn=piece_lists(), t=st.fractions(min_value=0, max_value=40, max_denominator=64))
    def test_float_evaluation_is_near_the_exact_function(self, fn, t):
        value = fn(float(t))
        assert math.isclose(value, exact_at(fn, float(t)), rel_tol=1e-12, abs_tol=1e-12)


# -- the list method against the scalar loop ---------------------------------


def outcome(call):
    """What call() gives, bit for bit: each value's type with a float's
    bytes (which tell -0.0 from 0.0 and keep a nan's sign), or the type
    and message of the error it raises."""
    try:
        values = call()
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)
    return [(type(v), struct.pack("<d", v) if type(v) is float else v) for v in values]


@st.composite
def value_lists(draw, fn):
    """Lists of floats and ints on and beside fn's cuts, inside one piece
    (where the list method reads the line once), nan anywhere, +-inf, -0.0
    and ints up to 10**400."""
    starts = [b for b, _, _ in fn.pieces]
    near = [w for b in starts for w in (b, math.nextafter(b, -INF), math.nextafter(b, INF))]
    k = draw(st.integers(0, len(starts) - 1))
    inside = st.floats(starts[k], starts[k + 1] if k + 1 < len(starts) else starts[k] + 40)
    element = st.one_of(
        st.sampled_from(near),
        inside,
        inside,
        st.floats(-20, 60),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([NAN, -NAN, INF, -INF, -0.0, 0.0, 0, 1, 5e-324]),
        st.integers(-50, 50),
        st.integers(-10 ** 400, 10 ** 400),
    )
    return draw(st.lists(element, max_size=12))


class CountingFn(ComparisonFn):
    """Counts the values that go through the scalar __call__."""

    def __call__(self, v):
        self.calls.append(v)
        return super().__call__(v)


def counting(fn):
    counted = CountingFn(fn.name, fn.pieces, fn.kind)
    object.__setattr__(counted, "calls", [])
    return counted


def listed(fn, values):
    """The rhs list that `contraction._rhs` makes of values, as the walk
    and the case table call it for each row."""
    return _rhs(fn, values, _span(values))


class TestListEvaluation:
    """listed(fn, values) is [fn(v) for v in values], bit for bit, errors
    included."""

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_equals_the_scalar_loop(self, data):
        fn = data.draw(st.one_of(piece_lists(), st.sampled_from([TAU, HALF, IDENTITY, STALL])))
        values = data.draw(value_lists(fn))
        assert outcome(lambda: listed(fn, values)) == outcome(lambda: [fn(v) for v in values])

    @pytest.mark.parametrize("values", [
        [2.0, 3.5, 1e300, math.nextafter(1.0, INF)],
        [0.0, -0.0, 0.25, 1.0],
        [0.125, 1.0],
        [0.5, NAN, 0.75],
        [4, 9, 2 ** 70],
    ], ids=["above-the-cut", "zeros", "up-to-the-closed-cut", "nan-inside", "ints"])
    def test_one_piece_reads_the_line_once(self, values):
        fn = counting(TAU)
        assert outcome(lambda: listed(fn, values)) == outcome(lambda: [TAU(v) for v in values])
        assert fn.calls == []

    @pytest.mark.parametrize("values", [
        [0.5, 2.0],
        [1.0, math.nextafter(1.0, INF)],
        [NAN, 2.0],
        [2.0, INF, -INF],
        [3.0, 10 ** 400],
        [2.0, "x"],
    ], ids=["straddles-the-cut", "beside-the-cut", "nan-first", "infinities", "big-int", "not-a-number"])
    def test_otherwise_goes_value_by_value(self, values):
        fn = counting(TAU)
        assert outcome(lambda: listed(fn, values)) == outcome(lambda: [TAU(v) for v in values])
        assert fn.calls

    def test_a_line_below_zero_at_an_end_is_clamped_value_by_value(self):
        # (t - 1) / 2 on its one piece: negative below 1.
        fn = counting(pieces_fn((0.0, line(1, 0, 3, 1), True)))
        values = [0.25, 2.0, 5.0]
        assert outcome(lambda: listed(fn, values)) == outcome(lambda: [fn(v) for v in values])
        assert listed(fn, values) == [0.0, 0.5, 2.0]
        assert fn.calls

    def test_empty(self):
        assert listed(TAU, []) == []


def shrinking_maps():
    """Monotone piecewise-linear functions kept strictly under the identity,
    built from breakpoints y_i = running max of c_i * x_i with c_i < 0.9,
    and flat after the last of them."""

    def build(draw_xs, draw_cs):
        xs = [0.0] + sorted(set(draw_xs))
        cs = draw_cs[: len(xs)]
        ys, top = [], 0.0
        for x, c in zip(xs, [0.0] + cs):
            top = max(top, c * x)
            ys.append(top)
        flat = [(xs[-1] + 1, ys[-1])]
        return piecewise_linear(list(zip(xs, ys)) + flat, kind=MATKOWSKI), xs[1:]

    return st.builds(
        build,
        st.lists(st.floats(min_value=0.01, max_value=1000), min_size=2, max_size=6),
        st.lists(st.floats(min_value=0.1, max_value=0.85), min_size=7, max_size=7),
    )


class TestMatkowskiLemmaConsequence:
    @settings(max_examples=50, deadline=None)
    @given(shrinking_maps())
    def test_monotone_decay_implies_below_identity(self, built):
        fn, grid_points = built
        report = check_matkowski_properties(fn)
        assert report.check("monotone").passed
        assert report.check("iterate-decay").passed
        # Consequence of monotonicity plus vanishing iterates:
        assert report.check("below-identity").passed
        for v in grid_points:
            assert fn(v) < v
        assert fn(0) == 0

    @settings(max_examples=25, deadline=None)
    @given(shrinking_maps(), st.integers(min_value=0, max_value=12))
    def test_iterates_nonincreasing_at_grid_points(self, built, k):
        fn, grid_points = built
        for v in grid_points:
            before = v
            for _ in range(k):
                before = fn(before)
            assert fn(before) <= before

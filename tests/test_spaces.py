import dataclasses
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from psbmetric import (
    AxiomSet,
    DistanceOverflow,
    FiniteCarrier,
    IncompleteTable,
    InfeasibleExhaustive,
    InvalidArgument,
    NegativeValue,
    ParseError,
    PartialSbSpace,
    RegionCarrier,
    RuleMetric,
    UnknownBuiltin,
    UnknownPoint,
    builtin_space,
    check_axioms,
    load_tabulated_space,
    quintic,
    random_tabulated_space,
    random_valid_space,
    require_point,
    sample_carrier,
    tabulated_space,
)
from psbmetric import spaces as spaces_module
from psbmetric.errors import PsbmError
from psbmetric.numerics import point_label, point_sort_key
from psbmetric.spaces import SAMPLE_BLOCK, AxiomReport, Violation, _quintic_row_spans, sampled_positions

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


# --------------------------------------------------------------------------
# Reference axiom checkers: one function per variant and axiom, as written
# before the checkers took the variant differences as options. Every
# comparison is exact: two distances by a plain comparison, the rectangle's
# right-hand side in Fraction (reference_rhs).
# --------------------------------------------------------------------------

INF = math.inf


def finite(x):
    return -INF < x < INF


def reference_rhs(t, terms, offset):
    """t * (sum of terms) - offset on true values, for a finite t > 0: an
    int when every operand is one, a Fraction when every operand is finite,
    else the sum of the infinite terms and the infinite negated offset (nan
    for a nan operand or for inf - inf)."""
    assert 0 < t < INF
    if any(x != x for x in (*terms, offset)):
        return math.nan
    infinite = [x for x in (*terms, -offset) if x in (INF, -INF)]
    if infinite:
        return sum(infinite)
    if all(type(x) is int for x in (t, *terms, offset)):
        return t * sum(terms) - offset
    return Fraction(t) * sum(Fraction(x) for x in terms) - Fraction(offset)


def exact_violation(lhs, float_rhs, t, terms, offset):
    """(lhs, float rhs) when lhs <= rhs fails on true values, else None. The
    float rhs is float_rhs(), summed in the checker's order; a violation
    whose sum overflows (raises, or is not finite on finite operands) has no
    float to report and raises OverflowError."""
    if lhs <= reference_rhs(t, terms, offset):
        return None
    rhs = float_rhs()
    if not finite(rhs) and all(finite(x) for x in (t, *terms, offset)):
        raise OverflowError("the right-hand side overflows")
    return (lhs, rhs)


def reference_all_equal(*values):
    first = values[0]
    return all(first == v for v in values[1:])


def reference_zero_iff(space, tpl):
    u, v, w = tpl
    val = space.metric(u, v, w)
    if u == v == w and not val == 0:
        return (val, 0)
    if val == 0 and not (u == v == w):
        return (val, 0)
    return None


def reference_partial_s_identity(space, tpl):
    u, v, w = tpl
    val = space.metric(u, v, w)
    selfs = (space.metric(u, u, u), space.metric(v, v, v), space.metric(w, w, w))
    agrees = reference_all_equal(val, *selfs)
    if (u == v) and not agrees:
        return (val, selfs[0])
    if agrees and not (u == v):
        return (val, selfs[0])
    return None


def reference_psb_identity(space, tpl):
    p, q, r = tpl
    val = space.metric(p, q, r)
    selfs = (space.metric(p, p, p), space.metric(q, q, q), space.metric(r, r, r))
    agrees = reference_all_equal(val, *selfs)
    if (p == q == r) and not agrees:
        return (val, selfs[0])
    if agrees and not (p == q == r):
        return (val, selfs[0])
    return None


def reference_self_min(space, tpl):
    p, q, r = tpl
    lhs = space.metric(p, p, p)
    rhs = space.metric(p, q, r)
    if not lhs <= rhs:
        return (lhs, rhs)
    return None


def reference_symmetry(space, tpl):
    p, q = tpl
    a = space.metric(p, p, q)
    b = space.metric(q, q, p)
    if a != b:
        return (a, b)
    return None


def rectangle_terms(space, tpl):
    p, q, r, s = tpl
    metric = space.metric
    return metric(p, q, r), (metric(p, p, s), metric(q, q, s), metric(r, r, s)), metric(s, s, s)


def reference_s_triangle(space, tpl):
    lhs, (a, b, c), _ = rectangle_terms(space, tpl)
    return exact_violation(lhs, lambda: a + b + c, 1, (a, b, c), 0)


def reference_partial_s_rectangle(space, tpl):
    lhs, (a, b, c), o = rectangle_terms(space, tpl)
    return exact_violation(lhs, lambda: (a + b + c) - o, 1, (a, b, c), o)


def reference_sb_rectangle(space, tpl):
    lhs, (a, b, c), _ = rectangle_terms(space, tpl)
    t = space.coefficient
    return exact_violation(lhs, lambda: t * (a + b + c), t, (a, b, c), 0)


def reference_psb_rectangle(space, tpl):
    lhs, (a, b, c), o = rectangle_terms(space, tpl)
    t = space.coefficient
    return exact_violation(lhs, lambda: t * (a + b + c) - o, t, (a, b, c), o)


REFERENCE_AXIOMS = {
    AxiomSet.S_METRIC: ((1, 3, reference_zero_iff), (2, 4, reference_s_triangle)),
    AxiomSet.PARTIAL_S: (
        (1, 3, reference_partial_s_identity),
        (2, 3, reference_self_min),
        (3, 2, reference_symmetry),
        (4, 4, reference_partial_s_rectangle),
    ),
    AxiomSet.SB_METRIC: (
        (1, 3, reference_zero_iff),
        (2, 2, reference_symmetry),
        (3, 4, reference_sb_rectangle),
    ),
    AxiomSet.PARTIAL_SB: (
        (1, 3, reference_psb_identity),
        (2, 3, reference_self_min),
        (3, 2, reference_symmetry),
        (4, 4, reference_psb_rectangle),
    ),
}


def reference_check_axioms(space, variant, sample_count=None, seed=0):
    if sample_count is None:
        pts = space.carrier.points
        tuples_of = lambda arity: itertools.product(pts, repeat=arity)  # noqa: E731
    else:
        pool = sample_carrier(space, count=32, seed=seed)
        rng = random.Random(f"psbm:axioms:{seed}")
        quads = [tuple(rng.choice(pool) for _ in range(4)) for _ in range(sample_count)]
        tuples_of = lambda arity: (q[:arity] for q in quads)  # noqa: E731
    checked = 0
    found = {}
    for index, arity, checker in REFERENCE_AXIOMS[variant]:
        for tpl in tuples_of(arity):
            checked += 1
            try:
                bad = checker(space, tpl)
            except OverflowError:
                labels = ", ".join(point_label(x) for x in tpl)
                raise DistanceOverflow(f"axiom {index} at ({labels}) overflows the float range") from None
            if bad is not None:
                found.setdefault((index, tpl), bad)
    violations = tuple(
        Violation(index, tpl, lhs, rhs)
        for (index, tpl), (lhs, rhs) in sorted(
            found.items(),
            key=lambda kv: (kv[0][0], tuple(point_sort_key(x) for x in kv[0][1])),
        )
    )
    return AxiomReport(variant, checked, violations)


def reference_sample_carrier(space, count=32, seed=0):
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        return list(carrier.points)
    rng = random.Random(f"psbm:sample:{seed}")
    points = list(carrier.isolated)
    spans = carrier.truncated_intervals()
    remaining = max(0, count - len(points))
    if not spans or remaining == 0:
        return points
    total = sum(hi - lo for lo, hi in spans)
    if total == 0:
        return points + [lo for lo, _ in spans]
    for i, (lo, hi) in enumerate(spans):
        if i == len(spans) - 1:
            m = remaining - sum(
                max(1, round(remaining * (h - l) / total)) for l, h in spans[:-1]
            )
            m = max(1, m)
        else:
            m = max(1, round(remaining * (hi - lo) / total))
        width = (hi - lo) / m
        for cell in range(m):
            points.append(lo + (cell + rng.uniform(0.1, 0.9)) * width)
    return points


def perturbed_table(rng, labels, floats):
    """A random_tabulated_space table with a few entries moved by one (or
    by a float step near the comparators' tolerances), so that every axiom
    sees both sides of its boundary."""
    table = dict(random_tabulated_space(rng, labels).metric.table)
    steps = (1e-10, -1e-10, 0.5, -0.5, 1.0) if floats else (1, -1, 2)
    for tpl in rng.sample(sorted(table, key=str), rng.randint(0, 3)):
        table[tpl] = max(0, table[tpl] + rng.choice(steps))
    if floats:
        for tpl in rng.sample(sorted(table, key=str), rng.randint(1, len(table))):
            table[tpl] = float(table[tpl])
    return table


def reference_corpus():
    """1,200 seeded tabulated spaces: integer tables over 2 to 4 points,
    float-valued tables, coefficients 1, 1.5 and 2, and string labels."""
    rng = random.Random("axioms:reference")
    label_sets = ((1, 2), (1, 2, 3), (1, 2, 3, 4), ("a", "b"), ("x", 2, "z"), ("p", "q", "r", "s"))
    spaces_out = []
    for i in range(1200):
        labels = label_sets[i % len(label_sets)]
        if i % 4 == 0:
            space = random_tabulated_space(rng, labels)
        else:
            space = tabulated_space(
                labels, perturbed_table(rng, labels, floats=i % 4 == 3), rng.choice((1, 1.5, 2))
            )
        spaces_out.append(space)
    return spaces_out


def report_reprs(report):
    """The report with each witness and side value by repr: 3 and 3.0, or
    8 and 8.0, differ here though they compare equal."""
    return report.variant, report.checked_count, [
        (v.axiom, repr(v.witness), repr(v.lhs), repr(v.rhs)) for v in report.violations
    ]


def assert_matches_reference(space, variant, sample_count=None, seed=None):
    """check_axioms gives the reference's report, bit for bit, or raises the
    reference's error type; returns the report or None. The message may name
    another tuple: the reference walks the tuples axiom by axiom."""
    try:
        expected = reference_check_axioms(space, variant, sample_count, seed)
    except Exception as exc:
        with pytest.raises(type(exc)):
            check_axioms(space, variant, sample_count, seed)
        return None
    report = check_axioms(space, variant, sample_count, seed)
    assert report_reprs(report) == report_reprs(expected), (space, variant, sample_count, seed)
    return report


def clustered_table(rng, sizes):
    """A finite_topology bench table: S(x,y,z) = max(w_x,w_y,w_z) + d(x,z)
    + d(y,z), d the distance between cluster positions, distinct weights."""
    n = sum(sizes)
    positions = rng.sample(range(10 * len(sizes) + 10), len(sizes))
    where = [pos for size, pos in zip(sizes, positions) for _ in range(size)]
    rng.shuffle(where)
    weights = rng.sample(range(5 * n), n)
    return {
        (x, y, z): max(weights[x], weights[y], weights[z]) + abs(where[x] - where[z]) + abs(where[y] - where[z])
        for x, y, z in itertools.product(range(n), repeat=3)
    }


class TestOnePassMatchesTheTupleLoop:
    """check_axioms decides every axiom from tables in one pass; its reports
    (checked count, every violation, lhs and rhs by repr) and its error types
    must be those of the tuple-by-tuple reference."""

    def test_sampled_quadruples_that_repeat(self):
        # At most 4 points and 60 quadruples: most tuples are drawn again.
        violations = 0
        for i, space in enumerate(reference_corpus()[::4]):
            for variant in AxiomSet:
                report = assert_matches_reference(space, variant, sample_count=60, seed=i % 7)
                violations += len(report.violations)
        assert violations

    def test_sampled_blocks_on_failing_tables(self):
        # Several blocks, the last one partial, on tables over up to 9
        # points where most reports list violations.
        rng = random.Random("axioms:blocks")
        failing = 0
        for i in range(24):
            labels = tuple(range(rng.randint(2, 9)))
            space = tabulated_space(labels, perturbed_table(rng, labels, floats=i % 2 == 1), rng.choice((1, 1.5)))
            variant = list(AxiomSet)[i % 4]
            report = assert_matches_reference(space, variant, sample_count=2 * SAMPLE_BLOCK + 7, seed=i)
            failing += not report.passed
        assert failing >= 12

    def test_clustered_bench_tables(self):
        rng = random.Random("axioms:clustered")
        for sizes in ((3, 2), (5,), (2, 2, 1, 1), (4, 3), (1,) * 7):
            table = clustered_table(rng, sizes)
            labels = tuple(range(sum(sizes)))
            # The bench's own table (valid), then one entry lowered and a
            # float copy with a scaled coefficient.
            lowered = dict(table)
            lowered[rng.choice(sorted(lowered))] -= 3
            floats = {t: v + 0.25 for t, v in lowered.items()}
            for tab, coefficient in ((table, 1), (lowered, 1), (floats, 1.5)):
                space = tabulated_space(labels, tab, coefficient)
                for variant in AxiomSet:
                    assert_matches_reference(space, variant)
                    assert_matches_reference(space, variant, sample_count=200, seed=len(labels))

    def test_a_pool_holding_3_and_3_0(self):
        # The pool is [3, 5, 3.0]; the rule gives 3 and 3.0 an int and a float
        # self-distance, so tables keyed by value would report the wrong one.
        carrier = RegionCarrier(isolated=(3, 5), intervals=((3.0, 3.0),))
        rule = RuleMetric("sum-or-one", lambda p, q, r: p + q + r if p == q == r else 1)
        space = PartialSbSpace(carrier, rule, 1.5)
        assert sample_carrier(space) == [3, 5, 3.0]
        witnesses = set()
        for seed in range(6):
            for variant in AxiomSet:
                report = assert_matches_reference(space, variant, sample_count=40, seed=seed)
                witnesses.update(repr(v.witness[0]) for v in report.violations)
        assert {"3", "3.0", "5"} <= witnesses

    @pytest.mark.parametrize("labels", [(1, 2, 3), (1, 2, 3, 4)])
    def test_rows_that_reach_inf_or_nan(self, labels):
        rng = random.Random(f"axioms:non-finite:{labels}")
        for i in range(120):
            table = perturbed_table(rng, labels, floats=i % 2 == 1)
            for tpl in rng.sample(sorted(table), rng.randint(1, 3)):
                table[tpl] = rng.choice((math.inf, math.nan, 1e308, -math.inf))
            space = tabulated_space(labels, table, rng.choice((1, 1.5, 2)))
            for variant in AxiomSet:
                assert_matches_reference(space, variant)
                assert_matches_reference(space, variant, sample_count=40, seed=i)

    def test_float_sums_round_in_the_checker_order(self):
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): a rectangle rhs summed in
        # another order shows in the violations' repr. Every variant's rhs
        # is formed as t * sum - S(s,s,s), with 1 for t and 0 for S(s,s,s)
        # where the variant has neither: entries -0.0 and a coefficient 1.0
        # show any change of type or sign that this brings.
        rng = random.Random("axioms:rounding")
        values = (0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e16, -0.0)
        violations = 0
        for i in range(150):
            labels = (1, 2, 3)
            table = {t: rng.choice(values) for t in itertools.product(labels, repeat=3)}
            space = tabulated_space(labels, table, rng.choice((1, 1.0, 1.5, 2)))
            for variant in AxiomSet:
                report = assert_matches_reference(space, variant)
                violations += len(report.violations)
                assert_matches_reference(space, variant, sample_count=40, seed=i)
        assert violations

    def test_ints_beyond_the_float_range(self):
        raised = 0
        for i, space in enumerate(big_int_tables()):
            for variant in AxiomSet:
                for sample_count, seed in ((None, None), (30, i)):
                    if assert_matches_reference(space, variant, sample_count, seed) is None:
                        raised += 1
                        assert_names_an_overflowing_tuple(space, variant, sample_count, seed)
        # Both outcomes occur: exact reports, and violations whose right-hand
        # side has no float to report.
        assert 0 < raised < 80 * 8

    def test_exhaustive_errors_name_the_first_tuple_in_check_order(self):
        # The error names the first rectangle violation without a float
        # right-hand side that a triple-by-triple walk meets, s by s.
        raised = 0
        for space in big_int_tables():
            for variant in AxiomSet:
                expected = reference_first_exhaustive_error(space, variant)
                if expected is None:
                    check_axioms(space, variant)
                    continue
                raised += 1
                with pytest.raises(DistanceOverflow) as error:
                    check_axioms(space, variant)
                assert str(error.value) == expected, (space, variant)
        assert raised

    def test_sampled_errors_name_the_first_quad_in_draw_order(self):
        # A pair entry S(x,x,y) beyond the float range, a float coefficient,
        # and a larger entry at each ordering of three distinct points
        # holding x, in tables over 8 to 11 points: a quad (p, q, r, y) over
        # those three points is violated with an overflowing right-hand
        # side, and the first such often lies past the first block.
        big = 10 ** 400
        rng = random.Random("axioms:first-error")
        late = 0
        for i in range(40):
            labels = tuple(range(rng.randint(8, 11)))
            table = perturbed_table(rng, labels, floats=i % 2 == 1)
            x, y, u, v = rng.sample(labels, 4)
            table[(x, x, y)] = big
            for tpl in itertools.permutations((x, u, v)):
                table[tpl] = 10 * big
            space = tabulated_space(labels, table, rng.choice((1.5, 2.0)))
            variant = list(AxiomSet)[i % 4]
            expected = reference_first_sampled_error(space, variant, 3 * SAMPLE_BLOCK, i)
            if expected is None:
                assert_matches_reference(space, variant, 3 * SAMPLE_BLOCK, i)
                continue
            message, position = expected
            late += position >= SAMPLE_BLOCK
            with pytest.raises(DistanceOverflow) as raised:
                check_axioms(space, variant, 3 * SAMPLE_BLOCK, i)
            assert str(raised.value) == message
        assert late >= 5

    def test_pair_entries_beyond_the_float_range_are_compared_exactly(self):
        # The entry beyond the float range sits at a pair triple (x, x, y):
        # symmetry, self-minimality and identity compare it exactly with
        # floats too, and report it as the int it is.
        big = 10 ** 400
        rng = random.Random("axioms:first-pair-error")
        symmetry = 0
        for i in range(40):
            labels = tuple(range(rng.randint(6, 10)))
            table = perturbed_table(rng, labels, floats=i % 2 == 0)
            x, y = rng.sample(labels, 2)
            table[(x, x, y)] = big
            space = tabulated_space(labels, table, rng.choice((1, 1.5)))
            variant = list(AxiomSet)[i % 4]
            report = assert_matches_reference(space, variant, 3 * SAMPLE_BLOCK, i)
            symmetry += any(v.witness == (x, y) and v.lhs == big for v in report.violations)
        assert symmetry


def big_int_tables():
    """80 seeded tables over (1, 2, 3) with one or two entries beyond the
    float range, a third of them holding floats too."""
    big = 10 ** 400
    rng = random.Random("axioms:big-ints")
    for i in range(80):
        labels = (1, 2, 3)
        table = perturbed_table(rng, labels, floats=i % 3 == 2)
        for tpl in rng.sample(sorted(table), rng.randint(1, 2)):
            table[tpl] = big + rng.randint(0, 1)
        yield tabulated_space(labels, table, rng.choice((1, 2, 1.5)))


def overflow_message(index, tpl):
    labels = ", ".join(point_label(x) for x in tpl)
    return f"axiom {index} at ({labels}) overflows the float range"


def reference_first_exhaustive_error(space, variant):
    """The message of the first rectangle violation without a float
    right-hand side that a walk over the exhaustive triples meets, s by s
    within each triple, or None."""
    pts = space.carrier.points
    index, _, checker = REFERENCE_AXIOMS[variant][-1]
    for tpl in itertools.product(pts, repeat=4):
        try:
            checker(space, tpl)
        except OverflowError:
            return overflow_message(index, tpl)
    return None


def reference_first_sampled_error(space, variant, sample_count, seed):
    """(message, quad position) of the first overflow that a walk over the
    sampled quads meets, each quad's axioms in index order, or None."""
    pool = sample_carrier(space, seed=seed)
    rng = random.Random(f"psbm:axioms:{seed}")
    for position in range(sample_count):
        quad = tuple(rng.choice(pool) for _ in range(4))
        for index, arity, checker in REFERENCE_AXIOMS[variant]:
            try:
                checker(space, quad[:arity])
            except OverflowError:
                return overflow_message(index, quad[:arity]), position
    return None


def assert_names_an_overflowing_tuple(space, variant, sample_count, seed):
    """The overflow error names the rectangle and an integer quadruple on
    which the reference rectangle is violated with no float to report."""
    with pytest.raises(DistanceOverflow) as raised:
        check_axioms(space, variant, sample_count, seed)
    match = re.fullmatch(r"axiom (\d+) at \(([\d, ]+)\) overflows the float range", str(raised.value))
    assert match, str(raised.value)
    index, tpl = int(match[1]), tuple(int(x) for x in match[2].split(", "))
    (checker,) = [checker for i, arity, checker in REFERENCE_AXIOMS[variant] if i == index and arity == len(tpl)]
    assert len(tpl) == 4
    with pytest.raises(OverflowError):
        checker(space, tpl)


class TestOneCheckerPerAxiomKind:
    """check_axioms writes each axiom kind once and takes the variant
    differences from its table; the reports must equal those of the
    per-variant reference checkers above."""

    def test_reports_match_the_reference_on_the_table_corpus(self):
        corpus = reference_corpus()
        failing = set()
        for space in corpus:
            for variant in AxiomSet:
                report = assert_matches_reference(space, variant)
                if not report.passed:
                    failing.add(variant)
        # Every variant is seen failing somewhere in the corpus.
        assert failing == set(AxiomSet)

    @pytest.mark.parametrize("name", ["quintic_ray", "quintic_gap"])
    @pytest.mark.parametrize("bound", [5, 64])
    def test_sampled_reports_match_the_reference_on_the_quintic_builtins(self, name, bound):
        space = builtin_space(name)
        space = PartialSbSpace(
            RegionCarrier(space.carrier.isolated, space.carrier.intervals, bound), space.metric
        )
        for seed in range(5):
            for variant in AxiomSet:
                assert_matches_reference(space, variant, sample_count=400, seed=seed)

    def test_builtins_match_the_reference(self):
        for name in ("two_point_a", "two_point_b"):
            for variant in AxiomSet:
                assert_matches_reference(builtin_space(name), variant)


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


# Finite points whose int and float forms are equal (ints within 2**53).
TIE_POINTS = st.one_of(
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53).map(float),
    st.sampled_from([0.0, -0.0, 3.0, 4.0, 1e60, 1e80, 2.0 ** 200]),
)

# Any float, and moderate ones whose fifth powers round when summed.
ROW_FLOATS = st.one_of(st.floats(), st.floats(min_value=-1e4, max_value=1e4))


def pointwise_outcome(call):
    """call()'s list of (type, repr) per value, or its error's type and message."""
    try:
        return [(type(v), repr(v)) for v in call()]
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def plane_outcome(call):
    """call()'s rows as lists of (type, repr) per value, or its error's type
    and message."""
    try:
        return [[(type(v), repr(v)) for v in row] for row in call()]
    except Exception as exc:  # the error is the outcome
        return type(exc), str(exc)


def pointwise_plane(metric, p, qs, rs):
    return [[metric(p, q, r) for r in rs] for q in qs]


def metric_rows(metric, p, qs, rs):
    """metric.row(p, q, rs) for each q in qs, as the grid walk makes an
    a-plane's distances."""
    return [metric.row(p, q, rs) for q in qs]


class TestMetricRows:
    """metric.row(p, q, rs) is [metric(p, q, r) for r in rs], and the rows
    of the q in qs are [[metric(p, q, r) for r in rs] for q in qs], errors
    included."""

    def test_rule_rows_equal_pointwise_calls(self):
        metric = builtin_space("quintic_gap").metric
        rng = random.Random("spaces:rule-rows")
        values = [0, 3, 4, 7, 4.5, 3.0, 4.0, 0.0, math.nan, math.inf, 1e60, 1e80, 10 ** 70, 2 ** 1100, "abc"]
        errors = set()
        for _ in range(400):
            p, q = rng.choice(values), rng.choice(values)
            rs = [rng.choice(values) for _ in range(rng.randint(0, 6))]
            expected = pointwise_outcome(lambda: [metric(p, q, r) for r in rs])
            assert pointwise_outcome(lambda: metric.row(p, q, rs)) == expected
            if isinstance(expected, tuple):
                errors.add(expected[0])
        assert errors == {DistanceOverflow, TypeError}

    @settings(max_examples=200, deadline=None)
    @given(q=TIE_POINTS, data=st.data())
    def test_rule_rows_with_p_equal_q_keep_pointwise_types(self, q, data):
        metric = builtin_space("quintic_gap").metric
        ties = [q, float(q), int(q)]
        p = data.draw(st.sampled_from(ties))
        rs = data.draw(st.lists(st.one_of(st.sampled_from(ties), TIE_POINTS), max_size=6))
        expected = pointwise_outcome(lambda: [metric(p, q, r) for r in rs])
        assert pointwise_outcome(lambda: metric.row(p, q, rs)) == expected

    @settings(max_examples=200, deadline=None)
    @given(p=ROW_FLOATS, q=ROW_FLOATS, rs=st.lists(ROW_FLOATS, max_size=6))
    def test_float_rule_rows_round_as_pointwise_calls(self, p, q, rs):
        metric = builtin_space("quintic_gap").metric
        expected = pointwise_outcome(lambda: [metric(p, q, r) for r in rs])
        assert pointwise_outcome(lambda: metric.row(p, q, rs)) == expected

    def test_an_int_p_tied_with_a_float_q_gives_an_int(self):
        metric = builtin_space("quintic_gap").metric
        assert quintic(3, 3.0, 3) == 243 and type(quintic(3, 3.0, 3)) is int
        assert pointwise_outcome(lambda: metric.row(3, 3.0, [3, 3.0, 4])) == [
            (int, "243"), (int, "243"), (int, "2534")
        ]
        assert pointwise_outcome(lambda: metric.row(3.0, 3, [3])) == [(float, "243.0")]

    def test_rule_row_names_the_first_overflowing_r(self):
        metric = builtin_space("quintic_gap").metric
        with pytest.raises(DistanceOverflow, match=r"^quintic\(4\.5, 7, 1e\+80\) overflows the float range$"):
            metric.row(4.5, 7, [4, 1e80, 1e90])

    def test_rule_planes_equal_pointwise_calls(self):
        metric = builtin_space("quintic_gap").metric
        rng = random.Random("spaces:rule-planes")
        values = [0, 3, 4, 7, 4.5, 3.0, 4.0, 0.0, math.nan, math.inf, 1e60, 1e80, 10 ** 70, 2 ** 1100, "abc"]
        errors = set()
        for _ in range(400):
            p = rng.choice(values)
            qs = [rng.choice(values) for _ in range(rng.randint(0, 4))]
            rs = [rng.choice(values) for _ in range(rng.randint(0, 5))]
            expected = plane_outcome(lambda: pointwise_plane(metric, p, qs, rs))
            assert plane_outcome(lambda: metric_rows(metric, p, qs, rs)) == expected
            if isinstance(expected, tuple):
                errors.add(expected[0])
        assert errors == {DistanceOverflow, TypeError}

    @settings(max_examples=200, deadline=None)
    @given(q=TIE_POINTS, data=st.data())
    def test_rule_planes_with_p_equal_q_keep_pointwise_types(self, q, data):
        metric = builtin_space("quintic_gap").metric
        ties = [q, float(q), int(q)]
        p = data.draw(st.sampled_from(ties))
        qs = data.draw(st.lists(st.one_of(st.sampled_from(ties), TIE_POINTS), max_size=4))
        rs = data.draw(st.lists(st.one_of(st.sampled_from(ties), TIE_POINTS), max_size=6))
        expected = plane_outcome(lambda: pointwise_plane(metric, p, qs, rs))
        assert plane_outcome(lambda: metric_rows(metric, p, qs, rs)) == expected

    @settings(max_examples=200, deadline=None)
    @given(p=ROW_FLOATS, qs=st.lists(ROW_FLOATS, max_size=4), rs=st.lists(ROW_FLOATS, max_size=6))
    def test_float_rule_planes_round_as_pointwise_calls(self, p, qs, rs):
        metric = builtin_space("quintic_gap").metric
        expected = plane_outcome(lambda: pointwise_plane(metric, p, qs, rs))
        assert plane_outcome(lambda: metric_rows(metric, p, qs, rs)) == expected

    def test_rule_plane_names_the_first_overflow_in_q_then_r_order(self):
        # Every r of q = 1e80 overflows, but (7, 1e90) comes first.
        metric = builtin_space("quintic_gap").metric
        with pytest.raises(DistanceOverflow, match=r"^quintic\(4\.5, 7, 1e\+90\) overflows the float range$"):
            metric_rows(metric, 4.5, [7, 1e80, 5], [4, 1e90])

    def test_a_float_sum_beyond_the_float_range_overflows(self):
        # Each fifth power is finite; their sum is not.
        for triple in [(3.9e61, 3.9e61, 3), (3.9e61, 3.5e61, 3.5e61)]:
            with pytest.raises(OverflowError):
                quintic(*triple)
        metric = builtin_space("quintic_gap").metric
        with pytest.raises(DistanceOverflow, match=r"^quintic\(3\.5e\+61, 3\.6e\+61, 3\.9e\+61\) overflows the float range$"):
            metric_rows(metric, 3.5e61, [7, 3.6e61], [3, 3.9e61])
        with pytest.raises(DistanceOverflow, match=r"^quintic\(3\.9e\+61, 3\.9e\+61, 3\) overflows the float range$"):
            metric.row(3.9e61, 3.9e61, [3.9e61, 3])
        # 2 * (p^5 + p^5) overflows, but the entry at r = p is p^5 alone.
        assert metric.row(3.9e61, 3.9e61, [3.9e61]) == [3.9e61 ** 5]

    def test_empty_planes_raise_nothing(self):
        for name in ("quintic_gap", "two_point_a"):
            metric = builtin_space(name).metric
            for p in (1, 1e80, "abc", 5):
                assert metric_rows(metric, p, [], [1, 1e90, "x"]) == []
                assert metric_rows(metric, p, [1, 1e90, "x"], []) == [[], [], []]

    @pytest.mark.parametrize("name", ["quintic_ray", "quintic_gap"])
    def test_quintic_builtins_carry_the_span_kernel(self, name):
        assert builtin_space(name).metric.span_rule is _quintic_row_spans

    def test_tabulated_rows_equal_pointwise_calls(self):
        metric = builtin_space("two_point_a").metric
        rng = random.Random("spaces:tabulated-rows")
        values = [1, 2, 3, 1.0, "x", True]
        errors = set()
        for _ in range(400):
            p, q = rng.choice(values), rng.choice(values)
            rs = [rng.choice(values) for _ in range(rng.randint(0, 4))]
            expected = pointwise_outcome(lambda: [metric(p, q, r) for r in rs])
            assert pointwise_outcome(lambda: metric.row(p, q, rs)) == expected
            if isinstance(expected, tuple):
                errors.add(expected)
        assert (UnknownPoint, "point 3 is not in the carrier") in errors
        assert (UnknownPoint, "point x is not in the carrier") in errors

    def test_tabulated_planes_equal_pointwise_calls(self):
        metric = builtin_space("two_point_a").metric
        rng = random.Random("spaces:tabulated-planes")
        values = [1, 2, 3, 1.0, "x", True]
        errors = set()
        for _ in range(400):
            p = rng.choice(values)
            qs = [rng.choice(values) for _ in range(rng.randint(0, 3))]
            rs = [rng.choice(values) for _ in range(rng.randint(0, 4))]
            expected = plane_outcome(lambda: pointwise_plane(metric, p, qs, rs))
            assert plane_outcome(lambda: metric_rows(metric, p, qs, rs)) == expected
            if isinstance(expected, tuple):
                errors.add(expected)
        assert (UnknownPoint, "point 3 is not in the carrier") in errors
        assert (UnknownPoint, "point x is not in the carrier") in errors

    def test_tabulated_plane_names_the_first_unknown_point_in_q_then_r_order(self):
        metric = builtin_space("two_point_a").metric
        with pytest.raises(UnknownPoint, match="^point x is not in the carrier$"):
            metric_rows(metric, 1, [1, 3], [2, "x"])

    def test_an_unknown_p_with_no_r_is_no_error(self):
        metric = builtin_space("two_point_a").metric
        assert metric.row(5, 1, []) == metric.row([5], 1, []) == []


# The points of `psbm certify --grid 60 --bound 1e61`, whose fifth powers
# reach 1e305, and floats around 3.4e61, beyond which 2(p^5 + r^5)
# overflows, and 4.5e61, beyond which p^5 does.
NEAR_OVERFLOW = [0, 3] + [4 + k * ((1e61 - 4) / 59) for k in range(60)]

# Ints, with and without fifth powers beyond 2^51 (from 1177 on) and 2^53
# (from 1553 on), every float, and floats near overflow.
SPAN_POINTS = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1100, max_value=5000),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    ROW_FLOATS,
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e61, max_value=5e61),
    st.sampled_from([0, 0.0, -0.0, 3, 3.0, True, *NEAR_OVERFLOW]),
)


def plane_span(metric, p, qs, rs):
    """(low, high, lows, highs) of metric.row_spans(qs, rs) at p, the
    plane's bound and its rows' (rows() called), or None where it gives
    none or raises, as the grid walk reads it."""
    spans = metric.row_spans(qs, rs)
    try:
        if spans is None or spans(p) is None:
            return None
        low, high, rows = spans(p)
        return (low, high, *rows())
    except Exception:
        return None


def row_spans(metric, p, qs, rs):
    """(lows, highs) of plane_span(metric, p, qs, rs), or None."""
    spans = plane_span(metric, p, qs, rs)
    return None if spans is None else spans[2:]


def span_holds(metric, p, qs, rs):
    """Whether plane_span(metric, p, qs, rs) is None, or finite (low, high,
    lows, highs), lows and highs aligned with qs, with low <= v <= high
    and lows[i] <= v <= highs[i] for every value v of row i of
    metric_rows(metric, p, qs, rs), which must then return."""
    spans = plane_span(metric, p, qs, rs)
    if spans is None:
        return True
    low, high, lows, highs = spans
    plane = metric_rows(metric, p, qs, rs)
    return math.isfinite(low) and math.isfinite(high) and len(lows) == len(highs) == len(plane) and all(
        math.isfinite(lo) and math.isfinite(hi) and all(low <= lo <= v <= hi <= high for v in row)
        for lo, hi, row in zip(lows, highs, plane))


class TestMetricSpan:
    """metric.row_spans(qs, rs) is None, or a function of p that gives
    None, raises, or gives finite bounds on every value of each row of
    metric_rows(metric, p, qs, rs), which then raises nothing."""

    @settings(max_examples=400, deadline=None)
    @given(qs=st.lists(SPAN_POINTS, max_size=5), rs=st.lists(SPAN_POINTS, max_size=6), data=st.data())
    def test_the_quintic_span_bounds_every_value(self, qs, rs, data):
        # p is often a point of qs or rs, so that the planes hold the row of q = p.
        p = data.draw(st.one_of(st.sampled_from(qs + rs), SPAN_POINTS) if qs + rs else SPAN_POINTS)
        metric = builtin_space("quintic_gap").metric
        assert span_holds(metric, p, qs, rs)
        # As on the grid walk, with qs and rs one list.
        assert span_holds(metric, p, rs, rs)

    @pytest.mark.parametrize("bound", [64, 1e61])
    def test_the_quintic_span_is_the_least_and_greatest_value_on_a_grid(self, bound):
        # As on `certify --grid` (qs and rs the one list of points): each
        # row's span is its own min and max, so the walk decides a plane or
        # a row from it as from its values.
        metric = builtin_space("quintic_gap").metric
        points = [3] + [4 + k * ((bound - 4) / 59) for k in range(60)]
        spans = metric.row_spans(points, points)
        for p in points:
            rows = metric_rows(metric, p, points, points)
            low, high, row_spans = spans(p)
            assert row_spans() == ([min(row) for row in rows], [max(row) for row in rows])
            assert (low, high) == (min(map(min, rows)), max(map(max, rows)))
        assert all(span_holds(metric, p, NEAR_OVERFLOW, NEAR_OVERFLOW) for p in NEAR_OVERFLOW)

    @settings(max_examples=400, deadline=None)
    @given(qs=st.lists(st.one_of(SPAN_POINTS, st.sampled_from([4, 4.0])), max_size=6),
           rs=st.lists(st.one_of(SPAN_POINTS, st.sampled_from([4, 4.0])), max_size=6), data=st.data())
    def test_the_plane_span_is_that_of_its_rows(self, qs, rs, data):
        # The plane's bound, made in O(1) from the sorted fifth powers, is
        # the least of its rows' lows and the greatest of their highs, with
        # p a point of qs or rs (equal keys such as 4 and 4.0 included) or
        # any other point.
        p = data.draw(st.one_of(st.sampled_from(qs + rs), SPAN_POINTS) if qs + rs else SPAN_POINTS)
        metric = builtin_space("quintic_gap").metric
        for rows in (qs, rs):
            spans = plane_span(metric, p, rows, rs)
            if spans is not None:
                low, high, lows, highs = spans
                assert (low, high) == (min(lows), max(highs))

    def test_no_span_where_an_exact_int_sum_and_a_rounded_float_sum_disagree(self):
        # 1600^5 + 1^5 = 2^53 + ... + 1 is exact as an int and rounds down
        # as a float, so with r^5 = 0 and 0.0, which are equal, the plane's
        # float value lies below its int value.
        metric = builtin_space("quintic_gap").metric
        exact, rounded = metric.row(1600, 1, [0, 0.0])
        assert type(exact) is int and type(rounded) is float and rounded < exact
        assert row_spans(metric, 1600, [1], [0, 0.0]) is None
        assert plane_span(metric, 1600.0, [1], [0, 0.0]) == (rounded, rounded, [rounded], [rounded])

    def test_no_span_at_an_overflow_a_nan_or_a_non_number(self):
        metric = builtin_space("quintic_gap").metric
        for p, qs, rs in [
            (3.4e61, [3.4e61], [3.5e61]),  # 2(p^5 + r^5) overflows
            (3, [5e61], [3]),  # q^5 overflows
            (5e61, [3], [3]),  # p^5 overflows
            (3, [4, math.nan], [3]),
            (math.nan, [4], [3]),
            (3, [4], [math.inf]),
            (3, [4], ["abc"]),
            ("abc", [4], [3]),
            (Fraction(1, 3), [4], [5]),
            (3, [], [4]),
            (3, [4], []),
        ]:
            assert row_spans(metric, p, qs, rs) is None, (p, qs, rs)

    def test_metrics_without_a_span_rule_have_no_span(self):
        assert builtin_space("two_point_a").metric.row_spans([1, 2], [1, 2]) is None
        assert RuleMetric("quintic", quintic).row_spans([4], [5]) is None

        def failing(qs, rs):
            raise ValueError("no span")

        def failing_rows(qs, rs):
            def spans(p):
                raise ValueError("no span")
            return spans

        assert RuleMetric("quintic", quintic, span_rule=failing).row_spans([4], [5]) is None
        # The rule's own function is returned; its error is the caller's.
        with pytest.raises(ValueError, match="no span"):
            RuleMetric("quintic", quintic, span_rule=failing_rows).row_spans([4], [5])(3)


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

    @pytest.mark.parametrize("coefficient", [math.nan, 0.5, 0, -1])
    def test_coefficient_below_one_or_nan_rejected(self, coefficient):
        # nan < 1 is false, so a plain `< 1` test let nan through, and the
        # sb-metric check then reported violations on this true S-metric.
        space = absdiff_space()
        with pytest.raises(InvalidArgument, match=r"^coefficient must be >= 1$"):
            PartialSbSpace(space.carrier, space.metric, coefficient)

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


class TestSampledPositions:
    """The one draw of sampled positions, shared with certify."""

    # 1..70 holds every power of two up to 64 and each 2^k + 1; 255 is the
    # largest pool decoded from one byte per word, 256 the smallest that is not.
    POOLS = [*range(1, 71), 127, 128, 129, 255, 256, 257, 1000]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**70])
    def test_same_positions_as_rng_choice(self, seed):
        for n in self.POOLS:
            reference = random.Random(f"psbm:axioms:{seed}")
            expected = [reference.choice(range(n)) for _ in range(2 * SAMPLE_BLOCK + 10)]
            rng = random.Random(f"psbm:axioms:{seed}")
            blocks = list(sampled_positions(rng, n, 1, len(expected)))
            assert [len(block[0]) for block in blocks] == [SAMPLE_BLOCK, SAMPLE_BLOCK, 10]
            assert [x for (positions,) in blocks for x in positions] == expected, n
            assert rng.getstate() == reference.getstate(), n

    @pytest.mark.parametrize("count", [1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 3])
    @pytest.mark.parametrize("arity", [1, 3, 4])
    def test_tuples_take_consecutive_draws(self, arity, count):
        for n in (1, 2, 33, 128, 129, 255, 256, 1000):
            reference = random.Random("psbm:certify:3")
            expected = [tuple(reference.choice(range(n)) for _ in range(arity)) for _ in range(count)]
            rng = random.Random("psbm:certify:3")
            blocks = list(sampled_positions(rng, n, arity, count))
            sizes = [min(SAMPLE_BLOCK, count - start) for start in range(0, count, SAMPLE_BLOCK)]
            assert [[len(positions) for positions in block] for block in blocks] == [[size] * arity for size in sizes]
            assert [tpl for block in blocks for tpl in zip(*block)] == expected, n
            assert rng.getstate() == reference.getstate(), n

    def test_an_empty_pool_is_rejected(self):
        with pytest.raises(InvalidArgument):
            next(sampled_positions(random.Random(0), 0, 4, 1))


class TestSeedScope:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_an_exhaustive_check_takes_no_seed(self, seed):
        with pytest.raises(InvalidArgument, match="^seed has no effect on an exhaustive check$"):
            check_axioms(builtin_space("two_point_a"), seed=seed)

    def test_a_sampled_check_defaults_to_seed_0(self):
        space = builtin_space("quintic_gap")
        assert check_axioms(space, sample_count=300) == check_axioms(space, sample_count=300, seed=0)


# A 4-point table whose rectangle at FOCUS compares S(1,2,3) with
# t * (S(1,1,4) + S(2,2,4) + S(3,3,4)) - S(4,4,4).
FOCUS = (1, 2, 3, 4)


def focus_table(val, a, b, c, o):
    """Self-distances 1 and every other entry 10^6 (a valid table), then
    S(1,2,3) = val, S(x,x,4) = S(4,4,x) = a, b, c for x = 1, 2, 3, and
    S(4,4,4) = o."""
    table = {tpl: 1 if len(set(tpl)) == 1 else 10**6 for tpl in itertools.product(FOCUS, repeat=3)}
    table[(1, 2, 3)] = val
    for x, v in zip(FOCUS, (a, b, c)):
        table[(x, x, 4)] = table[(4, 4, x)] = v
    table[(4, 4, 4)] = o
    return table


def fraction_rhs(t, a, b, c, o):
    return Fraction(t) * (Fraction(a) + Fraction(b) + Fraction(c)) - Fraction(o)


OPERANDS = {
    "float": st.floats(min_value=0, max_value=1e6),
    "int-float": st.one_of(st.integers(0, 10**20), st.floats(min_value=0, max_value=1e20)),
    "400-digit": st.one_of(st.integers(10**399, 10**400), st.floats(min_value=0, max_value=1e300)),
    "overflow": st.floats(min_value=1e307, max_value=1.7e308),
}


@st.composite
def near_ties(draw):
    """(val, a, b, c, o, t) with val within two ulps (or two units, past the
    float range) of t * (a + b + c) - o, on either side."""
    operands = OPERANDS[draw(st.sampled_from(sorted(OPERANDS)))]
    a, b, c = draw(operands), draw(operands), draw(operands)
    o = draw(st.one_of(st.just(0), operands))
    t = draw(st.sampled_from([1, 2, 1.0, 1.5, 1.1]))
    exact = fraction_rhs(t, a, b, c, o)
    steps = draw(st.integers(-2, 2))
    try:
        val = float(exact)
    except OverflowError:
        return int(exact) + steps, a, b, c, o, t
    for _ in range(abs(steps)):
        val = math.nextafter(val, math.copysign(INF, steps))
    return val, a, b, c, o, t


class TestExactVerdicts:
    """Every verdict is decided on true values, checked against a reference
    in Fraction."""

    @settings(max_examples=100, deadline=None)
    @given(near_ties())
    def test_near_ties_are_decided_on_true_values(self, case):
        val, a, b, c, o, t = case
        space = tabulated_space(FOCUS, focus_table(val, a, b, c, o), t)
        for variant, index, offset in ((AxiomSet.PARTIAL_SB, 4, o), (AxiomSet.SB_METRIC, 3, 0)):
            violated = val > fraction_rhs(t, a, b, c, offset)
            for sample_count, seed in ((None, None), (300, 1)):
                report = assert_matches_reference(space, variant, sample_count, seed)
                if report is None:
                    continue
                found = any(v.axiom == index and v.witness == FOCUS for v in report.violations)
                assert found == violated or (sample_count and not found)

    def test_a_self_distance_above_its_row_by_1e_9_is_a_violation(self):
        # S(1,1,1) = 8.000000001 > 8 = S(1,1,2): well inside the old slack
        # of 1e-9 of the larger side, and a violation of self-minimality.
        space = load_tabulated_space(TWO_POINT_B_FILE.replace("1 1 1 4", "1 1 1 8.000000001"))
        report = check_axioms(space)
        assert [(v.axiom, v.witness, v.lhs, v.rhs) for v in report.violations] == [
            (2, (1, 1, 2), 8.000000001, 8), (2, (1, 2, 1), 8.000000001, 8), (2, (1, 2, 2), 8.000000001, 8),
        ]

    def test_an_overflowed_rectangle_is_decided_exactly(self, monkeypatch):
        # At --bound 3.3e61, 206 drawn quadruples of quintic_ray have a
        # right-hand side whose float sum is inf. Each is decided on its
        # exact value, which is finite, never against inf.
        ray = builtin_space("quintic_ray")
        space = dataclasses.replace(ray, carrier=dataclasses.replace(ray.carrier, bound=3.3e61))
        decided, exact_value = [], spaces_module.exact_value

        def spy(scale, terms, offset=0):
            value = exact_value(scale, terms, offset)
            decided.append((scale, terms, offset, value))
            return value

        monkeypatch.setattr(spaces_module, "exact_value", spy)
        assert check_axioms(space, sample_count=2000, seed=0).passed
        overflowed = [d for d in decided if d[0] * sum(d[1]) - d[2] == INF]
        assert len(overflowed) == 206
        for scale, (a, b, c), offset, value in overflowed:
            assert isinstance(value, Fraction) and value == fraction_rhs(scale, a, b, c, offset)


class TestSampledMemory:
    def test_a_long_sampled_check_holds_one_block(self):
        # Every sample at once would hold 200,000 quadruples and their
        # values: tens of megabytes.
        space = builtin_space("quintic_ray")
        tracemalloc.start()
        try:
            report = check_axioms(space, sample_count=200_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.checked_count == 800_000
        assert peak < 2_000_000


class TestRowStorage:
    def test_table_is_the_input_on_the_carrier(self):
        rng = random.Random("rows:table")
        for labels in ((1,), (2, 1), ("a", 2, 3.5), (4, 1, 3, 2)):
            table = {t: rng.choice((rng.randint(0, 9), rng.uniform(0, 9))) for t in itertools.product(labels, repeat=3)}
            shuffled = dict(rng.sample(sorted(table.items(), key=str), len(table)))
            metric = tabulated_space(labels, shuffled).metric
            assert metric.table == table
            assert list(metric.table) == list(itertools.product(labels, repeat=3))
            assert all(metric(*t) is v for t, v in table.items())
            assert metric.rows[1 % len(labels)][0][-1] is table[(labels[1 % len(labels)], labels[0], labels[-1])]

    def test_table_is_read_only(self):
        metric = builtin_space("two_point_a").metric
        with pytest.raises(AttributeError):
            metric.table = {}

    def test_a_key_off_the_carrier_is_an_unknown_point(self):
        table = dict(builtin_space("two_point_b").metric.table)
        table[(1, 3, 2)] = 8
        with pytest.raises(UnknownPoint, match="^point 3 is not in the carrier$"):
            tabulated_space((1, 2), table)

    def test_a_call_off_the_carrier_names_the_first_unknown_point(self):
        metric = builtin_space("two_point_b").metric
        with pytest.raises(UnknownPoint, match="^point 5 is not in the carrier$"):
            metric(1, 5, 7)
        with pytest.raises(UnknownPoint, match="^point x is not in the carrier$"):
            metric("x", 1, 2)

    def test_equal_tables_give_equal_spaces(self):
        table = builtin_space("two_point_b").metric.table
        reordered = dict(reversed(list(table.items())))
        assert tabulated_space((1, 2), reordered) == builtin_space("two_point_b")
        assert tabulated_space((2, 1), table) != builtin_space("two_point_b")


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

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400", "Infinity", "abc"])
    def test_non_finite_coefficient_rejected(self, token):
        with pytest.raises(ParseError, match=f"coefficient: '{token}' is not a finite number"):
            load_tabulated_space(TWO_POINT_B_FILE.replace("coefficient: 1", f"coefficient: {token}"))

    @pytest.mark.parametrize("token", ["nan", "inf", "1e400", "x"])
    def test_non_finite_value_rejected(self, token):
        with pytest.raises(ParseError, match="is not a finite number"):
            load_tabulated_space(TWO_POINT_B_FILE.replace("1 1 2 8", f"1 1 2 {token}"))

    def test_numbers_keep_their_type(self):
        space = load_tabulated_space(
            TWO_POINT_B_FILE.replace("coefficient: 1", "coefficient: 1.5").replace("1 1 2 8", "1 1 2 8.25")
        )
        assert space.coefficient == 1.5 and space.metric(1, 1, 2) == 8.25
        assert type(space.metric(1, 1, 1)) is int


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

    def test_matches_the_reference_split_on_random_region_carriers(self):
        rng = random.Random("sample:reference")
        for _ in range(1000):
            isolated = tuple(sorted(rng.sample(range(-5, 20), rng.randint(0, 3))))
            intervals = []
            for _ in range(rng.randint(0, 4)):
                lo = rng.choice((rng.randint(-5, 30), rng.uniform(-5, 30)))
                intervals.append((lo, rng.choice((None, lo, lo + 0.5, lo + rng.uniform(0, 40)))))
            carrier = RegionCarrier(isolated, tuple(intervals), rng.choice((64, 10, 3.5)))
            space = PartialSbSpace(carrier, RuleMetric("quintic", quintic))
            count, seed = rng.randint(1, 60), rng.randint(0, 9)
            assert sample_carrier(space, count, seed) == reference_sample_carrier(space, count, seed)


class TestRequirePoint:
    GAP = builtin_space("quintic_gap")

    @pytest.mark.parametrize("point", [0, 3, 4, 4.0, 7, 7.5, 100, 10**30])
    def test_carrier_points_pass_through(self, point):
        # Points above the truncation bound (64) are still carrier points.
        assert require_point(self.GAP, point) is point

    @pytest.mark.parametrize("point", [2, 1.5, 3.5, -1, 0.5, "abc", "3", True, False, math.nan, math.inf, None])
    def test_points_off_a_region_carrier_are_unknown(self, point):
        with pytest.raises(UnknownPoint, match="is not in the carrier"):
            require_point(self.GAP, point)

    def test_bounded_interval_keeps_both_ends(self):
        space = PartialSbSpace(
            RegionCarrier(intervals=((1, 2.5),)), RuleMetric("quintic", quintic)
        )
        for point in (1, 2, 2.5):
            assert require_point(space, point) == point
        for point in (0.999, 2.5000001):
            with pytest.raises(UnknownPoint):
                require_point(space, point)

    def test_finite_carrier_membership(self):
        space = builtin_space("two_point_a")
        assert require_point(space, 2) == 2
        with pytest.raises(UnknownPoint):
            require_point(space, 3)


def reference_random_valid_space(rng, labels):
    """random_valid_space's loop, deciding each table by check_axioms."""
    while True:
        space = random_tabulated_space(rng, labels)
        if check_axioms(space, AxiomSet.PARTIAL_SB).passed:
            return space


class TestFirstViolation:
    """random_valid_space decides a table at its first violation."""

    @pytest.mark.parametrize("labels", [(1, 2, 3), (1, 2, 3, 4), ("a", "b", "c")], ids=str)
    def test_the_decision_is_check_axioms_passed(self, labels):
        rng = random.Random(f"psbm:test:first-violation:{labels}")
        verdicts = []
        for _ in range(5000):
            space = random_tabulated_space(rng, labels)
            passed = check_axioms(space, AxiomSet.PARTIAL_SB).passed
            assert spaces_module._passes_partial_sb(space) == passed
            verdicts.append(passed)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_the_walk_stops_at_the_first_violation(self):
        # S(0,0,1) = 2 < 3 = S(0,0,0) breaks self-minimality at the walk's
        # second triple; the first, (0, 0, 0), violates nothing.
        selfs = {0: 3, 1: 1, 2: 1}
        calls = []

        def counting(p, q, r):
            calls.append((p, q, r))
            return selfs[p] if p == q == r else 2 if (p, q, r) == (0, 0, 1) else 4

        space = PartialSbSpace(FiniteCarrier((0, 1, 2)), RuleMetric("counting", counting))
        report = check_axioms(space, AxiomSet.PARTIAL_SB)
        assert Violation(2, (0, 0, 1), 3, 2) in report.violations
        assert not any(v.witness[:3] == (0, 0, 0) for v in report.violations)
        checked = len(calls)
        calls.clear()
        assert spaces_module._passes_partial_sb(space) is False
        assert calls[-1] == (0, 0, 1)
        assert len(calls) < checked

    @pytest.mark.parametrize("seed", range(10))
    def test_the_same_tables_after_the_same_draws(self, seed):
        rng, reference = random.Random(f"psbm:t0:{seed}"), random.Random(f"psbm:t0:{seed}")
        for _ in range(20):
            assert random_valid_space(rng) == reference_random_valid_space(reference, (1, 2, 3))
            assert rng.getstate() == reference.getstate()


def reference_random_tabulated_space(rng, labels=(1, 2, 3)):
    """random_tabulated_space as one rng.randint per drawn entry, built
    through a dict and tabulated_space."""
    labels = tuple(labels)
    selfs = {x: rng.randint(0, 5) for x in labels}
    floor = max(selfs.values())
    span = max(floor, 3)
    table = {(x, x, x): selfs[x] for x in labels}
    for tpl in itertools.product(labels, repeat=3):
        if tpl in table:
            continue
        p, q, r = tpl
        if p == q and (r, r, p) in table:
            table[tpl] = table[(r, r, p)]
        else:
            table[tpl] = rng.randint(floor, floor + span)
    return tabulated_space(labels, table)


class TestRandomTableDraws:
    """random_tabulated_space draws each phase as 32-bit words at once."""

    LABELS = [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4), tuple(range(5)), tuple(range(6)), ("a", "b", "c"), ("x", 2, 0.5)]

    @pytest.mark.parametrize("seed", range(10))
    def test_the_same_tables_and_state_as_randint(self, seed):
        rng, reference = random.Random(f"psbm:t0:{seed}"), random.Random(f"psbm:t0:{seed}")
        for i in range(2000):
            labels = self.LABELS[i % len(self.LABELS)]
            space, expected = random_tabulated_space(rng, labels), reference_random_tabulated_space(reference, labels)
            assert space == expected
            assert space.metric.rows == expected.metric.rows
            assert rng.getstate() == reference.getstate(), (i, labels)

    @pytest.mark.parametrize("labels", [(1, 1), (1, 2, 1), ("a", "b", "a", "c"), (2, 2, 2)], ids=str)
    def test_repeated_labels_raise_the_same_error(self, labels):
        rng, reference = random.Random(str(labels)), random.Random(str(labels))
        with pytest.raises(InvalidArgument, match="^carrier points must be distinct$"):
            reference_random_tabulated_space(reference, labels)
        with pytest.raises(InvalidArgument, match="^carrier points must be distinct$"):
            random_tabulated_space(rng, labels)
        assert rng.getstate() == reference.getstate()


class TestRandomSpaces:
    def test_random_valid_space_passes_filter(self):
        rng = random.Random("test-random-valid")
        for _ in range(10):
            space = random_valid_space(rng)
            assert check_axioms(space).passed

    def test_an_exhausted_budget_is_a_psbm_error(self):
        # The first draw from this seed violates the partial-Sb axioms.
        rng = random.Random("psbm:t0:1")
        assert not check_axioms(random_tabulated_space(random.Random("psbm:t0:1"))).passed
        with pytest.raises(PsbmError, match="no valid random table found within 1 attempts"):
            random_valid_space(rng, max_attempts=1)

    def test_random_table_is_symmetric_in_paired_slots(self):
        rng = random.Random("test-random-symmetric")
        space = random_tabulated_space(rng)
        for p, q in itertools.permutations((1, 2, 3), 2):
            assert space.metric(p, p, q) == space.metric(q, q, p)

import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clustered import CLUSTER_PROFILES, clustered_space
from psbmetric import (
    CoverFamily,
    EmptySubfamily,
    FiniteCarrier,
    FiniteTopology,
    InfeasibleExhaustive,
    InvalidArgument,
    RegionCarrier,
    SeparationReport,
    UnknownPoint,
    ball_base_witness,
    builtin_space,
    exhaustive_points,
    generate_topology,
    is_connected,
    open_ball,
    random_tabulated_space,
    random_valid_space,
    separation_report,
    tabulated_space,
    uncovered_witness,
    verify_topology_axioms,
    witness_candidates,
)
from psbmetric.errors import PsbmError
from psbmetric.numerics import point_sort_key
from psbmetric.spaces import RuleMetric, quintic
from psbmetric.topology import sorted_labels, sorted_points

TWO_A = builtin_space("two_point_a")
TWO_B = builtin_space("two_point_b")
RAY = builtin_space("quintic_ray")
GAP = builtin_space("quintic_gap")

SIERPINSKI = frozenset({frozenset(), frozenset({2}), frozenset({1, 2})})
DISCRETE = frozenset({frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})})


def reference_canonical_radii(space, center, candidates) -> list:
    """Radii realizing every distinct ball centered at `center`: one strictly
    between consecutive distance thresholds (midpoints) plus one above the
    largest threshold."""
    self_d = space.metric(center, center, center)
    thresholds = sorted(
        {gap for z in candidates if (gap := space.metric(center, center, z) - self_d) > 0}
    )
    radii = []
    prev = 0
    for g in thresholds:
        radii.append((prev + g) / 2)
        prev = g
    radii.append(prev + 1)
    return radii


def reference_canonical_balls(space, center, pts):
    return [open_ball(space, center, r, pts).members for r in reference_canonical_radii(space, center, pts)]


def reference_union_closure(space):
    """The opens generate_topology built before it read the smallest balls:
    every union of canonical balls. A topology exactly when every ball is
    open."""
    pts = exhaustive_points(space)
    balls = {ball for center in pts for ball in reference_canonical_balls(space, center, pts)}
    opens = {frozenset()}
    for ball in balls:
        opens |= {o | ball for o in opens}
    return opens


def reference_ball_base_failures(space):
    """Every (x, v, z) such that some canonical ball at x holds v and misses
    a point z of v's smallest ball, the ball at its first canonical radius."""
    pts = exhaustive_points(space)
    smallest = {x: reference_canonical_balls(space, x, pts)[0] for x in pts}
    return {
        (x, v, z)
        for x in pts
        for ball in reference_canonical_balls(space, x, pts)
        for v in ball
        for z in smallest[v] - ball
    }


def brute_force_topology(space):
    """Oracle: sweep a dense radius grid over every center and close the
    resulting balls under all unions, with no canonical-radius shortcut."""
    pts = exhaustive_points(space)
    balls = set()
    for center in pts:
        for quarter in range(1, 41):
            balls.add(open_ball(space, center, quarter / 4, pts).members)
    opens = set()
    distinct = sorted(balls, key=sorted)
    for size in range(len(distinct) + 1):
        for group in itertools.combinations(distinct, size):
            opens.add(frozenset().union(*group) if group else frozenset())
    return opens


# Reference implementations: the exhaustive searches over pairs of opens
# that the smallest-open rules in psbmetric.topology replaced.

def reference_verify_topology_axioms(topology):
    opens = topology.opens
    if frozenset() not in opens or topology.carrier not in opens:
        return False
    for a, b in itertools.combinations(opens, 2):
        if (a | b) not in opens or (a & b) not in opens:
            return False
    return True


def reference_separation_report(topology):
    opens = topology.opens
    pairs = list(itertools.combinations(sorted_points(topology.carrier), 2))
    t0_bad, t1_bad, t2_bad = [], [], []
    for u, v in pairs:
        if not any((u in o) != (v in o) for o in opens):
            t0_bad.append((u, v))
        if not (
            any(u in o and v not in o for o in opens)
            and any(v in o and u not in o for o in opens)
        ):
            t1_bad.append((u, v))
        if not any(u in a and v in b and not (a & b) for a in opens for b in opens):
            t2_bad.append((u, v))
    return SeparationReport(
        t0=not t0_bad,
        t1=not t1_bad,
        t2=not t2_bad,
        witnesses={"t0": t0_bad, "t1": t1_bad, "t2": t2_bad},
    )


def reference_is_connected(topology):
    nonempty = sorted((o for o in topology.opens if o), key=sorted_labels)
    for a, b in itertools.combinations(nonempty, 2):
        if not (a & b) and (a | b) == topology.carrier:
            return False, (a, b)
    return True, None


# Reference implementations of the cover-witness scan before the nested-ball
# cut and the lazy lattice: every candidate is tested against every cut, and
# the candidates are collected in a set before sorting.

def reference_witness_candidates(space, search_bound):
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        return sorted_points(carrier.points)
    found = {p for p in carrier.isolated if p <= search_bound}
    for lo, hi in carrier.truncated_intervals(cap=search_bound):
        found.add(lo)
        found.add(hi)
        found.update(range(math.ceil(lo), math.floor(hi) + 1))
    return sorted_points(found)


def reference_uncovered_witness(space, family, subfamily, search_bound, candidates=None):
    """Every candidate against every ball D(c; n) of the subfamily, on the
    exact cut n + dist(c,c,c)."""
    if candidates is None:
        candidates = reference_witness_candidates(space, search_bound)
    center = family.center
    self_d = space.metric(center, center, center)
    cuts = [Fraction(n) + Fraction(self_d) for n in subfamily]
    for z in candidates:
        d = space.metric(center, center, z)
        if not any(d < cut for cut in cuts):
            return z
    return None


def assert_witness_matches_reference(space, family, subfamilies, bound, candidates=None):
    """uncovered_witness gives the per-ball reference's witness, of the same
    type, for every subfamily; returns the set of witnesses."""
    witnesses = set()
    for subfamily in subfamilies:
        want = reference_uncovered_witness(space, family, subfamily, bound, candidates)
        witness = uncovered_witness(space, family, subfamily, bound, candidates=candidates)
        assert (witness, type(witness)) == (want, type(want)), (family, subfamily, bound)
        witnesses.add(want)
    return witnesses


def tabulated_spaces(count=600):
    """Random tables over 2 to 4 points, many of them invalid; every other
    one has a quarter or a half added to some values, so floats meet ints."""
    rng = random.Random("oracle:tabulated")
    for i in range(count):
        labels = tuple(range(1, 2 + i % 3 + 1))
        space = random_tabulated_space(rng, labels)
        if i % 2:
            table = {k: v + rng.choice((0, 0.25, 0.5)) for k, v in space.metric.table.items()}
            space = tabulated_space(labels, table)
        yield space


def tabulated_families(count=600):
    """Topologies generated from tabulated_spaces."""
    for space in tabulated_spaces(count):
        yield generate_topology(space)


def valid_draws(seeds=(0,), count=200):
    """Draws of repro's T0 item: `count` per seed."""
    for seed in seeds:
        rng = random.Random(f"psbm:t0:{seed}")
        for _ in range(count):
            yield random_valid_space(rng)


def valid_space_families():
    """Topologies of the first draws of repro's T0 item at seed 0."""
    for space in valid_draws():
        yield generate_topology(space)


def union_closure_families():
    """The union-closures of the balls of the same draws, non-topologies
    included."""
    for space in valid_draws():
        yield FiniteTopology(frozenset(exhaustive_points(space)), frozenset(reference_union_closure(space)))


def clustered_families():
    """Topologies of the bench's clustered spaces, one per profile."""
    rng = random.Random("oracle:clustered")
    for sizes in CLUSTER_PROFILES:
        yield generate_topology(clustered_space(rng, sizes)[1])


def subset_families(count=400):
    """Random subset families over {1..5}: some lack the empty set or the
    carrier, some hold the point 9 outside the carrier."""
    rng = random.Random("oracle:subsets")
    carrier = frozenset(range(1, 6))
    for i in range(count):
        pool = sorted(carrier | {9}) if i % 4 == 0 else sorted(carrier)
        opens = {
            frozenset(p for p in pool if rng.random() < 0.5)
            for _ in range(rng.randint(0, 10))
        }
        if i % 3:
            opens |= {frozenset(), carrier}
        yield FiniteTopology(carrier, frozenset(opens))


class TestOpenBall:
    def test_ray_ball_of_radius_three_is_singleton(self):
        ball = open_ball(RAY, 1, 3, [1, 2, 3, 4])
        assert ball.members == frozenset({1})

    def test_center_always_member(self):
        for space, center in ((TWO_A, 1), (TWO_A, 2), (TWO_B, 1)):
            for radius in (0.01, 1, 5):
                assert center in open_ball(space, center, radius, [1, 2]).members

    def test_two_point_a_small_ball_at_2(self):
        assert open_ball(TWO_A, 2, 1, [1, 2]).members == frozenset({2})

    def test_two_point_b_half_radius_ball(self):
        assert open_ball(TWO_B, 1, 0.5, [1, 2]).members == frozenset({1})

    def test_center_must_be_candidate(self):
        with pytest.raises(UnknownPoint):
            open_ball(TWO_A, 1, 1, [2])

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            open_ball(TWO_A, 1, 0, [1, 2])

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_radius_must_be_finite(self, radius):
        # A ball of infinite radius used to come out empty: inf - margin * inf is nan.
        with pytest.raises(ValueError, match="radius must be finite"):
            open_ball(RAY, 1, radius, [1, 2, 3])


class TestReferenceCanonicalRadii:
    def test_two_point_a_center_2_realizes_both_balls(self):
        gaps = sorted(
            TWO_A.metric(2, 2, z) - TWO_A.metric(2, 2, 2)
            for z in (1, 2)
        )
        assert gaps == [0, 4]
        radii = reference_canonical_radii(TWO_A, 2, [1, 2])
        balls = {open_ball(TWO_A, 2, r, [1, 2]).members for r in radii}
        assert balls == {frozenset({2}), frozenset({1, 2})}

    def test_single_candidate(self):
        radii = reference_canonical_radii(TWO_A, 2, [2])
        assert len(radii) == 1
        assert open_ball(TWO_A, 2, radii[0], [2]).members == frozenset({2})

    def test_two_point_b_center_1_realizes_both_balls(self):
        radii = reference_canonical_radii(TWO_B, 1, [1, 2])
        balls = {open_ball(TWO_B, 1, r, [1, 2]).members for r in radii}
        assert balls == {frozenset({1}), frozenset({1, 2})}

    def test_negative_gap_table_still_yields_a_radius(self):
        # A deliberately invalid table with dist(1,1,2) below the self
        # distance: the only threshold is nonpositive, so a single radius
        # realizing the full candidate set remains.
        table = dict(TWO_B.metric.table)
        table[(1, 1, 2)] = 1
        space = tabulated_space((1, 2), table)
        radii = reference_canonical_radii(space, 1, [1, 2])
        assert radii == [1]
        assert open_ball(space, 1, radii[0], [1, 2]).members == frozenset({1, 2})

    def test_radii_realize_every_ball_of_dense_sweep(self):
        for space in (TWO_A, TWO_B):
            pts = list(exhaustive_points(space))
            for center in pts:
                sweep = {
                    open_ball(space, center, k / 4, pts).members for k in range(1, 41)
                }
                assert set(reference_canonical_balls(space, center, pts)) == sweep


class TestGenerateTopology:
    def test_two_point_a_is_sierpinski(self):
        assert generate_topology(TWO_A).opens == SIERPINSKI

    def test_two_point_b_is_discrete(self):
        assert generate_topology(TWO_B).opens == DISCRETE

    def test_one_point_space(self):
        space = tabulated_space(("x",), {("x", "x", "x"): 0})
        assert generate_topology(space).opens == frozenset({frozenset(), frozenset({"x"})})

    def test_matches_brute_force_oracle(self):
        for space in (TWO_A, TWO_B):
            assert generate_topology(space).opens == brute_force_topology(space)

    def test_region_carrier_rejected(self):
        with pytest.raises(InfeasibleExhaustive):
            generate_topology(RAY)

    def test_opens_are_unions_of_open_canonical_balls(self):
        for space in (TWO_A, TWO_B):
            pts = list(exhaustive_points(space))
            topology = generate_topology(space)
            balls = {ball for c in pts for ball in reference_canonical_balls(space, c, pts)}
            assert balls <= topology.opens
            for o in topology.opens:
                pieces = [b for b in balls if b <= o]
                assert frozenset().union(*pieces) == o if pieces else o == frozenset()

    def test_smallest_ball_of_a_negative_gap_table_is_the_carrier(self):
        # dist(1,1,2) below the self distance: no gap at 1 is positive, so
        # M_1 is the ball of radius 1 and holds 2.
        table = dict(TWO_B.metric.table)
        table[(1, 1, 2)] = 1
        topology = generate_topology(tabulated_space((1, 2), table))
        assert topology.opens == frozenset({frozenset(), frozenset({2}), frozenset({1, 2})})

    def test_a_smallest_ball_of_a_small_gap_holds_its_centre(self):
        # The gap 100 is 1e-13 of the distances: each smallest ball holds
        # its centre, and only it.
        table = {t: 1e15 + 100 for t in itertools.product((1, 2), repeat=3)}
        table[(1, 1, 1)] = table[(2, 2, 2)] = 1e15
        space = tabulated_space((1, 2), table)
        assert open_ball(space, 1, 50.0, [1, 2]).members == frozenset({1})
        topology = generate_topology(space)
        assert topology.opens == DISCRETE and verify_topology_axioms(topology)

    def test_opens_are_a_t0_topology_on_every_valid_draw(self):
        # Seeds 0..4 of repro's T0 item. Where every ball is open the opens
        # are the union-closure of the balls; elsewhere that closure is no
        # topology, and the opens differ from it.
        base = Counter()
        for space in valid_draws(seeds=range(5)):
            topology = generate_topology(space)
            assert verify_topology_axioms(topology)
            assert separation_report(topology).t0
            is_base = ball_base_witness(space) is None
            assert (topology.opens == reference_union_closure(space)) == is_base
            base[is_base] += 1
        assert base == {True: 927, False: 73}


class TestBallBaseWitness:
    def test_builtins_balls_are_a_base(self):
        assert ball_base_witness(TWO_A) is None and ball_base_witness(TWO_B) is None

    def test_region_carrier_rejected(self):
        with pytest.raises(InfeasibleExhaustive):
            ball_base_witness(RAY)

    def test_agrees_with_the_canonical_balls(self):
        # The first failure by x, then z, then v, or None when there is none.
        found = Counter()
        for space in tabulated_spaces():
            failures = reference_ball_base_failures(space)
            first = min(
                failures,
                key=lambda t: (point_sort_key(t[0]), point_sort_key(t[2]), point_sort_key(t[1])),
                default=None,
            )
            assert ball_base_witness(space) == first
            found[first is None] += 1
        assert found[True] and found[False]


class TestTopologyAxioms:
    def test_generated_topologies_verify(self):
        for space in (TWO_A, TWO_B):
            assert verify_topology_axioms(generate_topology(space))

    def test_missing_carrier_fails(self):
        family = FiniteTopology(frozenset({1, 2}), frozenset({frozenset(), frozenset({1})}))
        assert not verify_topology_axioms(family)

    def test_discrete_family_verifies(self):
        assert verify_topology_axioms(FiniteTopology(frozenset({1, 2}), DISCRETE))

    def test_points_outside_the_carrier_are_checked(self):
        # {1,2,3} and {1,2,4} meet in the missing {1,2}: the carrier point 1
        # has the open U_1 = {1}, but U_2 = {1,2} is not open.
        family = FiniteTopology(
            frozenset({1}),
            frozenset(
                {
                    frozenset(),
                    frozenset({1}),
                    frozenset({1, 2, 3}),
                    frozenset({1, 2, 4}),
                    frozenset({1, 2, 3, 4}),
                }
            ),
        )
        assert not verify_topology_axioms(family)
        assert not reference_verify_topology_axioms(family)

    def test_union_gap_fails(self):
        family = FiniteTopology(
            frozenset({1, 2, 3}),
            frozenset(
                {
                    frozenset(),
                    frozenset({1}),
                    frozenset({2}),
                    frozenset({1, 2, 3}),
                }
            ),
        )
        assert not verify_topology_axioms(family)


class TestSeparation:
    def test_two_point_a_is_t0_only(self):
        report = separation_report(generate_topology(TWO_A))
        assert (report.t0, report.t1, report.t2) == (True, False, False)
        assert report.witnesses["t1"] == [(1, 2)]

    def test_two_point_b_is_t2(self):
        report = separation_report(generate_topology(TWO_B))
        assert report.t0 and report.t1 and report.t2

    def test_one_point_space_separates_trivially(self):
        topology = generate_topology(tabulated_space(("x",), {("x", "x", "x"): 0}))
        report = separation_report(topology)
        assert (report.t0, report.t1, report.t2) == (True, True, True)

    def test_implication_chain_on_random_valid_spaces(self):
        rng = random.Random("sep-chain")
        for _ in range(25):
            report = separation_report(generate_topology(random_valid_space(rng)))
            assert report.t1 <= report.t0
            assert report.t2 <= report.t1

    def test_t0_holds_for_random_valid_spaces(self):
        rng = random.Random("t0-sample")
        for _ in range(25):
            space = random_valid_space(rng)
            assert separation_report(generate_topology(space)).t0


    def test_witness_lists_share_one_tuple_per_pair(self):
        # On the indiscrete two-point space each pair fails T0, T1 and T2.
        table = {tpl: 1 for tpl in itertools.product((1, 2), repeat=3)}
        report = separation_report(generate_topology(tabulated_space((1, 2), table)))
        t0, t1, t2 = (report.witnesses[k] for k in ("t0", "t1", "t2"))
        assert t0 == t1 == t2 == [(1, 2)]
        assert t0[0] is t1[0] is t2[0]

    def test_reports_on_the_same_points_share_their_pairs(self):
        table = {tpl: 1 for tpl in itertools.product((1, 2), repeat=3)}
        first, second = (
            separation_report(generate_topology(tabulated_space((1, 2), table))).witnesses["t1"]
            for _ in range(2)
        )
        assert first == second == [(1, 2)] and first is not second
        assert first[0] is second[0]
        # Points that are only equal to these get pairs of their own.
        floats = {tuple(map(float, tpl)): 1 for tpl in table}
        (pair,) = separation_report(generate_topology(tabulated_space((1.0, 2.0), floats))).witnesses["t1"]
        assert pair == (1, 2) and all(type(x) is float for x in pair)
        assert separation_report(generate_topology(tabulated_space((1, 2), table))).witnesses["t1"][0] is first[0]

class TestConnected:
    def test_two_point_b_disconnects(self):
        connected, witness = is_connected(generate_topology(TWO_B))
        assert not connected
        assert witness == (frozenset({1}), frozenset({2}))

    def test_two_point_a_is_connected(self):
        assert is_connected(generate_topology(TWO_A)) == (True, None)

    def test_one_point_is_connected(self):
        topology = generate_topology(tabulated_space(("x",), {("x", "x", "x"): 0}))
        assert is_connected(topology) == (True, None)


def smallest_opens_are_open(topology):
    """Every carrier point lies in some open, and the intersection of the
    opens that hold it is open."""
    opens = topology.opens
    for x in topology.carrier:
        holding = [o for o in opens if x in o]
        if not holding or frozenset.intersection(*holding) not in opens:
            return False
    return True


class TestSmallestOpensMatchExhaustiveSearch:
    # Per corpus: families, topologies among them, and families whose
    # smallest opens are all open; separation_report raises on the rest.
    @pytest.mark.parametrize(
        "families, counts",
        [
            (tabulated_families, (600, 600, 600)),
            (valid_space_families, (200, 200, 200)),
            (clustered_families, (30, 30, 30)),
            (union_closure_families, (200, 183, 183)),
            (subset_families, (400, 59, 81)),
        ],
    )
    def test_verdicts_match_reference(self, families, counts):
        seen = Counter()
        for topology in families():
            valid = verify_topology_axioms(topology)
            assert valid == reference_verify_topology_axioms(topology)
            assert is_connected(topology) == reference_is_connected(topology)
            answers = smallest_opens_are_open(topology)
            if answers:
                assert (
                    separation_report(topology).to_dict()
                    == reference_separation_report(topology).to_dict()
                )
            else:
                assert not valid
                with pytest.raises(InvalidArgument, match="has no smallest open set"):
                    separation_report(topology)
            seen.update(family=1, topology=valid, answers=answers)
        assert (seen["family"], seen["topology"], seen["answers"]) == counts

    @pytest.mark.parametrize(
        "opens, point",
        [
            ([(), (1, 2), (2, 3)], 2),
            ([(), (2,), (2, 3)], 1),
            ([(), (1,), (1, 2, 3)], None),
        ],
        ids=["smallest-not-open", "in-no-open", "answers"],
    )
    def test_separation_names_the_first_point_without_a_smallest_open(self, opens, point):
        family = FiniteTopology(frozenset({1, 2, 3}), frozenset(map(frozenset, opens)))
        if point is None:
            assert separation_report(family).to_dict() == reference_separation_report(family).to_dict()
        else:
            with pytest.raises(InvalidArgument, match=f"^point {point} has no smallest open set$"):
                separation_report(family)

    def test_valid_space_whose_balls_are_no_base(self):
        # Draw 2 of repro's T0 seed 0: the ball {2, 3} at 3 is not open, as
        # 1 lies in M_2; its union-closure holds {1,2} and {2,3} but not {2}.
        space = list(valid_draws(count=3))[2]
        assert ball_base_witness(space) == (3, 2, 1)
        assert {frozenset({1, 2}), frozenset({2, 3})} <= reference_union_closure(space)
        assert frozenset({2}) not in reference_union_closure(space)
        topology = generate_topology(space)
        assert topology.opens == {
            frozenset(), frozenset({1}), frozenset({3}),
            frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3}),
        }
        assert verify_topology_axioms(topology)
        assert reference_verify_topology_axioms(topology)
        assert separation_report(topology).t0


class TestCoverWitness:
    FAMILY = CoverFamily(center=1, indices=tuple(range(3, 21)))

    def test_subfamily_3_5_escapes_at_2(self):
        witness = uncovered_witness(RAY, self.FAMILY, [3, 5], 64)
        assert witness == 2
        assert RAY.metric(1, 1, 2) == 66
        self_d = RAY.metric(1, 1, 1)
        for n in (3, 5):
            assert RAY.metric(1, 1, 2) >= n + self_d

    def test_finite_space_fully_covered(self):
        family = CoverFamily(center=1, indices=(1,))
        assert open_ball(TWO_A, 1, 1, [1, 2]).members == frozenset({1, 2})
        assert uncovered_witness(TWO_A, family, [1], 64) is None

    def test_empty_subfamily(self):
        with pytest.raises(EmptySubfamily):
            uncovered_witness(RAY, self.FAMILY, [], 64)

    def test_subfamily_must_be_subset(self):
        with pytest.raises(ValueError):
            uncovered_witness(RAY, self.FAMILY, [99], 64)

    def test_escape_threshold_property(self):
        # A witness exists whenever the scan reaches past ((N-1)/2)^(1/5).
        self_d = RAY.metric(1, 1, 1)
        for top in range(3, 21):
            subfamily = list(range(3, top + 1))
            threshold = ((top - 1) / 2) ** 0.2
            for bound in (threshold * (1 + 1e-6), threshold + 0.5, 64):
                witness = uncovered_witness(RAY, self.FAMILY, subfamily, bound)
                assert witness is not None
                d = RAY.metric(1, 1, witness)
                assert all(d >= n + self_d for n in subfamily)

    def test_precomputed_candidates_agree(self):
        candidates = witness_candidates(RAY, 64)
        for subfamily in ([3], [3, 5, 8], list(range(3, 21))):
            assert uncovered_witness(
                RAY, self.FAMILY, subfamily, 64, candidates=candidates
            ) == uncovered_witness(RAY, self.FAMILY, subfamily, 64)


class TestNestedBallCut:
    """uncovered_witness tests each candidate against the cut of the largest
    index; the per-cut reference above tests it against every cut."""

    REPRO_FAMILY = CoverFamily(center=1, indices=tuple(range(3, 21)))

    @staticmethod
    def random_subfamilies(rng, indices, count):
        for _ in range(count):
            size = rng.randint(1, len(indices))
            yield rng.sample(indices, size)

    def test_sampled_repro_subfamilies(self):
        rng = random.Random("cover:repro-sample")
        indices = list(self.REPRO_FAMILY.indices)
        candidates = witness_candidates(RAY, 64)
        subfamilies = list(self.random_subfamilies(rng, indices, 1500))
        witnesses = assert_witness_matches_reference(RAY, self.REPRO_FAMILY, subfamilies, 64, candidates)
        # Shorter scans end at 1.5 or 2.5, where some subfamilies cover all.
        for bound in (1.5, 2.5):
            witnesses |= assert_witness_matches_reference(RAY, self.REPRO_FAMILY, subfamilies, bound)
        assert witnesses == {None, 1.5, 2}

    @pytest.mark.parametrize("center", [4.5, 6.25, 3.0, 4.0])
    def test_float_centres_on_quintic_gap(self, center):
        # Int and float indices in no order of size.
        family = CoverFamily(
            center=center, indices=tuple((n * 37 % 41) * 2500 + (0.5 if n % 3 else 0) for n in range(1, 40))
        )
        rng = random.Random(f"cover:gap:{center}")
        witnesses = set()
        for bound in (4.5, 9.5, 64):
            candidates = witness_candidates(GAP, bound)
            subfamilies = self.random_subfamilies(rng, list(family.indices), 200)
            witnesses |= assert_witness_matches_reference(GAP, family, subfamilies, bound, candidates)
        assert len(witnesses) >= 3

    def test_random_tabulated_spaces(self):
        rng = random.Random("cover:tabulated")
        witnesses = set()
        for i in range(400):
            labels = tuple(range(1, 3 + i % 4))
            space = random_tabulated_space(rng, labels)
            radii = [rng.choice((rng.randint(1, 12), rng.uniform(0.5, 12))) for _ in range(6)]
            family = CoverFamily(center=rng.choice(labels), indices=tuple(radii))
            subfamilies = list(self.random_subfamilies(rng, radii, 5))
            witnesses |= assert_witness_matches_reference(space, family, subfamilies, 64)
        assert None in witnesses and len(witnesses) >= 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_rejected(self, bad):
        # The radius is the index, so a non-finite widest index has no cut.
        family = CoverFamily(center=1, indices=(3, bad))
        with pytest.raises(ValueError) as raised:
            uncovered_witness(RAY, family, [bad], 64)
        assert str(raised.value) == f"radius of index {bad} is not finite"


class TestCoverWitnessErrors:
    """Each invalid subfamily raises on its own, with the type and message
    of its first fault in subfamily order."""

    REPRO_FAMILY = CoverFamily(center=1, indices=tuple(range(3, 21)))
    # The repro indices and one index of infinite radius.
    PARTLY_BAD = CoverFamily(center=1, indices=tuple(range(3, 21)) + (math.inf,))

    @pytest.mark.parametrize("family, bad, error, message", [
        (REPRO_FAMILY, [], EmptySubfamily, "subfamily must contain at least one index"),
        (REPRO_FAMILY, (3, 99, 98, 99), ValueError, "indices [98, 99] are not in the family"),
        (PARTLY_BAD, [3, math.inf], ValueError, "radius of index inf is not finite"),
    ], ids=["empty", "missing", "non-finite"])
    def test_each_error_names_its_first_fault(self, family, bad, error, message):
        with pytest.raises(error) as raised:
            uncovered_witness(RAY, family, bad, 64)
        assert str(raised.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_radius_is_checked_in_subfamily_order(self, bad):
        # max passes over a nan that is not first, and over -inf anywhere:
        # the check reads every radius, so the order does not matter.
        family = CoverFamily(center=1, indices=(3, bad, math.nan))
        for subfamily in ([3, bad], [bad, 3], [bad, 3, math.nan]):
            with pytest.raises(ValueError) as raised:
                uncovered_witness(RAY, family, subfamily, 64)
            assert str(raised.value) == f"radius of index {bad} is not finite", subfamily

    def test_the_subfamily_is_checked_before_the_centre(self):
        family = CoverFamily(center=9, indices=(1, 2))
        for subfamily, error in (([], EmptySubfamily), ([1, 5], ValueError), ([1], UnknownPoint)):
            with pytest.raises(error):
                uncovered_witness(TWO_A, family, subfamily, 64)

    def test_an_index_is_evaluated_only_when_the_subfamily_holds_it(self):
        for subfamily in ([3], [5, 20], [3, 7]):
            assert uncovered_witness(RAY, self.PARTLY_BAD, subfamily, 64) == 2

    def test_an_empty_scan_is_an_error(self):
        with pytest.raises(PsbmError, match="no carrier point to scan up to the search bound -5"):
            uncovered_witness(RAY, self.REPRO_FAMILY, [3], -5)
        with pytest.raises(PsbmError, match="no carrier point"):
            uncovered_witness(RAY, self.REPRO_FAMILY, [3], 64, candidates=[])

    @pytest.mark.parametrize("center, indices", [(4.5, [10**400]), (1, [3, 10**400])])
    def test_a_cut_beyond_the_float_range_is_decided_exactly(self, center, indices):
        # 10^400 + a float self-distance, or a float distance against the
        # integer cut 10^400 + 1: no float holds the cut, and every scanned
        # point lies below it.
        space = GAP if center == 4.5 else RAY
        family = CoverFamily(center=center, indices=tuple(indices))
        cut = Fraction(max(indices)) + Fraction(space.metric(center, center, center))
        assert all(space.metric(center, center, z) < cut for z in witness_candidates(space, 2.5))
        assert uncovered_witness(space, family, indices, 2.5) is None

    def test_distances_beyond_the_float_range_meet_a_float_radius_exactly(self):
        # The cut 0.5 + 10^400 has no float: the centre lies below it and
        # the other point, one above the self-distance, above it.
        big = 10**400
        table = {t: big if t == (1, 1, 1) else big + 1 for t in itertools.product((1, 2), repeat=3)}
        space = tabulated_space((1, 2), table)
        assert open_ball(space, 1, 0.5, [1, 2]).members == frozenset({1})
        assert open_ball(space, 1, 1.5, [1, 2]).members == frozenset({1, 2})
        family = CoverFamily(center=1, indices=(0.5, 1.5))
        assert uncovered_witness(space, family, [0.5], 64) == 2
        assert uncovered_witness(space, family, [0.5, 1.5], 64) is None


class TestCentreNearTheFloatCut:
    """A point with dist(c,c,z) <= dist(c,c,c) lies in every ball of
    positive radius: the exact cut r + dist(c,c,c) lies above it even where
    the float cut rounds down to dist(c,c,c)."""

    @staticmethod
    def big_self_space(self_d=1e15, other=2e15):
        table = {t: (self_d if t[0] == t[1] == t[2] else other) for t in itertools.product((1, 2), repeat=3)}
        return tabulated_space((1, 2), table)

    def test_the_centre_is_covered_and_the_other_point_escapes(self):
        space = self.big_self_space()
        family = CoverFamily(center=1, indices=(1, 2, 3))
        assert 1e15 + 1e-20 == 1e15
        assert open_ball(space, 1, 1e-20, [1, 2]).members == frozenset({1})
        assert open_ball(space, 1, 3, [1, 2]).members == frozenset({1})
        for subfamily in ([1], [2, 3], [1, 2, 3]):
            assert uncovered_witness(space, family, subfamily, 64) == 2
        assert assert_witness_matches_reference(space, family, [[1], [3, 2]], 64) == {2}

    @pytest.mark.parametrize("radii, expected", [
        ([0], 1), ([-1], 1), ([-1.5, 0.0], 1), ([-1, 1e-20], 2),
        # Both cuts round to 1e15: the widest radius, not the first cut, decides.
        ([-1e-20, 1e-20], 2),
    ])
    def test_non_positive_radii_do_not_take_the_centre(self, radii, expected):
        space = self.big_self_space()
        family = CoverFamily(center=1, indices=tuple(radii))
        assert uncovered_witness(space, family, radii, 64) == expected
        assert assert_witness_matches_reference(space, family, [radii], 64) == {expected}

    def test_random_tabulated_spaces_with_signed_radii(self):
        rng = random.Random("cover:signed")
        witnesses = set()
        for i in range(300):
            labels = tuple(range(1, 3 + i % 3))
            space = random_tabulated_space(rng, labels)
            if i % 2:
                scale = rng.choice((1e13, 1e15, 1e16))
                table = {k: v * scale for k, v in space.metric.table.items()}
                space = tabulated_space(labels, table)
            radii = [rng.choice((rng.randint(-3, 3), rng.uniform(-2, 2), rng.choice((0, 0.0, 1e-20)))) for _ in range(5)]
            family = CoverFamily(center=rng.choice(labels), indices=tuple(radii))
            subfamilies = [rng.sample(radii, rng.randint(1, 5)) for _ in range(5)]
            witnesses |= assert_witness_matches_reference(space, family, subfamilies, 64)
        assert None in witnesses and len(witnesses) >= 3


SELF_DISTANCES = st.one_of(
    st.floats(min_value=0, max_value=1e20),
    st.integers(0, 10**20),
    st.integers(10**399, 10**400),
)
RADII = st.one_of(
    st.floats(min_value=1e-300, max_value=1e20),
    st.integers(1, 10**20),
    st.integers(10**399, 10**400),
)


@st.composite
def ball_near_ties(draw):
    """(self_d, radius, distances): distances within two ulps, or two
    units, of the exact cut radius + self_d on either side, and self_d."""
    self_d, radius = draw(SELF_DISTANCES), draw(RADII)
    cut = Fraction(radius) + Fraction(self_d)
    distances = [self_d] + [int(cut) + k for k in range(-2, 3)]
    try:
        near = float(cut)
    except OverflowError:
        return self_d, radius, distances
    for direction in (-math.inf, math.inf):
        d = near
        for _ in range(3):
            distances.append(d)
            d = math.nextafter(d, direction)
    return self_d, radius, distances


def ray_table(self_d, distances):
    """Point 0 at self-distance self_d and at dist(0,0,z) = distances[z-1]
    from each point z >= 1; every other entry 0."""
    labels = tuple(range(len(distances) + 1))
    table = dict.fromkeys(itertools.product(labels, repeat=3), 0)
    table[(0, 0, 0)] = self_d
    for z, d in enumerate(distances, start=1):
        table[(0, 0, z)] = d
    return tabulated_space(labels, table)


class TestBallOracle:
    """Ball membership, d < r + dist(c,c,c), against the exact cut in
    Fraction: near ties one ulp either side, ints of 400 digits beside
    floats, and cuts beyond the float range."""

    @settings(max_examples=300, deadline=None)
    @given(ball_near_ties())
    def test_open_ball_members_lie_below_the_exact_cut(self, case):
        self_d, radius, distances = case
        space = ray_table(self_d, distances)
        pts = list(exhaustive_points(space))
        cut = Fraction(radius) + Fraction(self_d)
        expected = frozenset(z for z in pts if space.metric(0, 0, z) < cut)
        assert 0 in expected
        assert open_ball(space, 0, radius, pts).members == expected

    @settings(max_examples=300, deadline=None)
    @given(ball_near_ties(), st.sampled_from([1, -1, 0]))
    def test_the_cover_scan_finds_the_first_point_on_or_above_the_exact_cut(self, case, sign):
        # Cover radii may be zero or negative: then the centre escapes too.
        self_d, radius, distances = case
        radius = sign * radius
        space = ray_table(self_d, distances)
        pts = sorted_points(exhaustive_points(space))
        cut = Fraction(radius) + Fraction(self_d)
        expected = next((z for z in pts if not space.metric(0, 0, z) < cut), None)
        family = CoverFamily(center=0, indices=(radius,))
        assert uncovered_witness(space, family, [radius], 64) == expected


class TestWitnessCandidates:
    """The lazy scan lists the same points, of the same types and in the same
    order, as the set-based reference."""

    @pytest.mark.parametrize("name", ["quintic_ray", "quintic_gap", "two_point_a"])
    @pytest.mark.parametrize("bound", [0.5, 1, 2.5, 3, 4, 4.0, 4.5, 10, 10.0, 64, 1000, 1000.0])
    def test_builtins_match_reference(self, name, bound):
        space = builtin_space(name)
        expected = reference_witness_candidates(space, bound)
        found = witness_candidates(space, bound)
        assert [(p, type(p)) for p in found] == [(p, type(p)) for p in expected]

    def test_random_region_carriers_match_reference(self):
        rng = random.Random("cover:regions")

        def number(lo, hi):
            value = rng.choice((rng.randint(lo, hi), rng.randint(2 * lo, 2 * hi) / 2))
            return float(value) if rng.random() < 0.3 else value

        for _ in range(300):
            isolated = tuple(number(0, 12) for _ in range(rng.randint(0, 4)))
            intervals = []
            for _ in range(rng.randint(0, 3)):
                lo = number(0, 10)
                hi = rng.choice((None, lo, lo + number(0, 6), number(0, 10)))
                intervals.append((lo, hi))
            space = dataclasses.replace(
                GAP, carrier=RegionCarrier(isolated=isolated, intervals=tuple(intervals))
            )
            bound = number(0, 20)
            expected = reference_witness_candidates(space, bound)
            found = witness_candidates(space, bound)
            assert [(p, type(p)) for p in found] == [(p, type(p)) for p in expected]

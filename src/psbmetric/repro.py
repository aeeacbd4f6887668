"""One-shot reproduction of every worked example and theorem conclusion.

Each item mirrors one block of the acceptance checklist and reports a
deterministic pass/fail verdict with a short detail string. The composite
report is stable byte-for-byte for a fixed seed.
"""

from __future__ import annotations

import itertools
import random

from . import comparison, contraction, fixpoint, spaces, topology


def _item(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _axiom_item(seed):
    failures = []
    for name in ("two_point_a", "two_point_b"):
        report = spaces.check_axioms(spaces.builtin_space(name))
        if not report.passed:
            failures.append(f"{name}: {len(report.violations)} violations")
    for name in ("quintic_ray", "quintic_gap"):
        report = spaces.check_axioms(
            spaces.builtin_space(name), sample_count=10000, seed=seed
        )
        if not report.passed:
            failures.append(f"{name}: {len(report.violations)} violations")

    # Negative control: every single-entry downward mutation must be caught.
    base = spaces.builtin_space("two_point_b")
    rejected = 0
    for triple in itertools.product((1, 2), repeat=3):
        table = dict(base.metric.table)
        table[triple] -= 5
        mutated = spaces.tabulated_space((1, 2), table)
        if not spaces.check_axioms(mutated).passed:
            rejected += 1
    if rejected != 8:
        failures.append(f"only {rejected}/8 mutations rejected")
    detail = failures[0] if failures else "4 builtins pass; 8/8 mutations rejected"
    return _item("axioms", not failures, detail)


def _expect_ball(space, center, radius, candidates, expected):
    ball = topology.open_ball(space, center, radius, candidates)
    return ball.members == frozenset(expected)


def _ball_item(seed):
    ray = spaces.builtin_space("quintic_ray")
    two_a = spaces.builtin_space("two_point_a")
    two_b = spaces.builtin_space("two_point_b")
    ray_candidates = sorted(set(spaces.sample_carrier(ray, seed=seed)) | {1})
    checks = [
        _expect_ball(ray, 1, 3, ray_candidates, {1}),
        _expect_ball(two_a, 2, 1, [1, 2], {2}),
        _expect_ball(two_b, 1, 0.5, [1, 2], {1}),
        _expect_ball(two_b, 2, 3, [1, 2], {2}),
    ]
    checks += [_expect_ball(two_a, 1, r, [1, 2], {1, 2}) for r in (0.1, 1, 100)]
    ok = all(checks)
    return _item("balls", ok, f"{sum(checks)}/{len(checks)} ball memberships match")


def _topology_item(seed):
    two_a = spaces.builtin_space("two_point_a")
    two_b = spaces.builtin_space("two_point_b")
    top_a = topology.generate_topology(two_a)
    top_b = topology.generate_topology(two_b)
    sep_a = topology.separation_report(top_a)
    sep_b = topology.separation_report(top_b)
    connected_a, _ = topology.is_connected(top_a)
    connected_b, witness = topology.is_connected(top_b)
    checks = [
        top_a.opens == frozenset({frozenset(), frozenset({2}), frozenset({1, 2})}),
        top_b.opens
        == frozenset(
            {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}
        ),
        topology.verify_topology_axioms(top_a),
        topology.verify_topology_axioms(top_b),
        (sep_a.t0, sep_a.t1, sep_a.t2) == (True, False, False),
        (sep_b.t0, sep_b.t1, sep_b.t2) == (True, True, True),
        connected_a,
        not connected_b and witness == (frozenset({1}), frozenset({2})),
    ]
    ok = all(checks)
    return _item("topology", ok, f"{sum(checks)}/{len(checks)} topology facts match")


def _t0_item(seed, count=200):
    rng = random.Random(f"psbm:t0:{seed}")
    for i in range(count):
        space = spaces.random_valid_space(rng)
        if not topology.separation_report(topology.generate_topology(space)).t0:
            return _item("t0-universality", False, f"counterexample at draw {i}")
    return _item("t0-universality", True, f"{count}/{count} random valid spaces are T0")


def _cover_item(seed, bound=64):
    ray = spaces.builtin_space("quintic_ray")
    indices = tuple(range(3, 21))
    family = topology.CoverFamily(center=1, indices=indices)
    candidates = topology.witness_candidates(ray, bound)
    self_d = ray.metric(1, 1, 1)
    checked = 0
    # The radius is n, so the balls are nested and a subfamily escapes iff
    # its widest ball does: index k decides the 2^(k-3) subfamilies whose
    # widest index it is, 2^18 - 1 in all.
    for k in indices:
        witness = topology.uncovered_witness(ray, family, [k], bound, candidates=candidates)
        if witness is None:
            return _item("cover-witness", False, f"no witness for {(k,)}")
        if ray.metric(1, 1, witness) < k + self_d:
            return _item("cover-witness", False, f"witness {witness} inside a ball of {(k,)}")
        checked += 2 ** (k - indices[0])
    return _item("cover-witness", True, f"{checked} subfamilies all escape coverage")


def _comparison_item(seed):
    tau = comparison.builtin_comparison("paper_tau")
    half = comparison.builtin_comparison("half")
    identity = comparison.builtin_comparison("identity")
    bw_id = comparison.check_boyd_wong_properties(identity)
    mk_id = comparison.check_matkowski_properties(identity)
    checks = [
        comparison.check_boyd_wong_properties(tau).passed,
        comparison.check_matkowski_properties(half).passed,
        not bw_id.check("below-identity").passed
        and bw_id.check("below-identity").witness is not None,
        not mk_id.check("iterate-decay").passed
        and mk_id.check("iterate-decay").witness is not None,
    ]
    ok = all(checks)
    return _item("comparison", ok, f"{sum(checks)}/{len(checks)} property verdicts match")


def _contraction_item(seed):
    gap = spaces.builtin_space("quintic_gap")
    points = list(gap.carrier.isolated) + contraction.ray_grid(gap.carrier, 50)
    failures = []
    # The Boyd-Wong and the Matkowski certificate differ only in the
    # comparison: one walk of the grid serves both.
    specs = (contraction.standard_spec(), contraction.standard_spec(matkowski=True))
    for report in contraction._certificates(gap, specs, points=points):
        if not report.passed:
            failures.append(f"certificate fails ({len(report.failures)} triples)")
        if report.excluded_fixed_points != (0,):
            failures.append(f"fixed points {report.excluded_fixed_points} != (0,)")
    table = contraction.reproduce_case_table(gap, contraction.standard_spec())
    expected_lhs = (0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243)
    if table.lhs_column() != expected_lhs:
        failures.append("lhs column mismatch")
    if not table.passed:
        failures.append("some subcase violates lhs <= rhs minimum")
    detail = failures[0] if failures else (
        f"certificates pass; lhs column matches; reference bounds differ in "
        f"{len(table.discrepancies)} subcases (logged)"
    )
    return _item("contraction", not failures, detail)


def _fixpoint_item(seed):
    gap = spaces.builtin_space("quintic_gap")
    mapping = contraction.builtin_map("paper_S")
    half = comparison.builtin_comparison("half")
    failures = []
    for a0 in (7, 4, 64, 3):
        trace = fixpoint.picard_iterate(gap, mapping, a0)
        if not (trace.converged and trace.limit == 0 and len(trace.orbit) - 1 <= 3):
            failures.append(f"orbit from {a0} does not reach 0 within 3 steps")
            continue
        if not all(b <= a for a, b in zip(trace.gaps, trace.gaps[1:])):
            failures.append(f"gaps from {a0} are not nonincreasing")
        ok, index = fixpoint.matkowski_envelope_check(trace, half)
        if not ok:
            failures.append(f"envelope violated at index {index} from {a0}")
    if fixpoint.verify_fixed_point(gap, mapping, 0) != (True, True):
        failures.append("0 is not verified as a zero-self-distance fixed point")
    unique, counterexample = fixpoint.uniqueness_check(
        gap, mapping, spaces.sample_carrier(gap, seed=seed), 0
    )
    if not unique:
        failures.append(f"second fixed point {counterexample}")
    detail = failures[0] if failures else "4 orbits converge to the unique fixed point 0"
    return _item("fixpoint", not failures, detail)


def run_repro(seed: int = 0) -> dict:
    items = [
        _axiom_item(seed),
        _ball_item(seed),
        _topology_item(seed),
        _t0_item(seed),
        _cover_item(seed),
        _comparison_item(seed),
        _contraction_item(seed),
        _fixpoint_item(seed),
    ]
    return {"seed": seed, "items": items, "passed": all(i["passed"] for i in items)}

"""Acceptance checklist.

One test per criterion, each at its stated tolerance, printing one PASS/FAIL
line (visible with pytest -s or in captured output).
"""

import functools
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from psbmetric import (
    AxiomSet,
    CoverFamily,
    builtin_comparison,
    builtin_map,
    builtin_space,
    certify,
    check_axioms,
    check_boyd_wong_properties,
    check_matkowski_properties,
    generate_topology,
    is_connected,
    matkowski_envelope_check,
    open_ball,
    picard_iterate,
    random_valid_space,
    reproduce_case_table,
    sample_carrier,
    separation_report,
    standard_spec,
    tabulated_space,
    uncovered_witness,
    uniqueness_check,
    verify_fixed_point,
    verify_topology_axioms,
    witness_candidates,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


def recompute_violation(space, violation):
    """Reproduce a violation's lhs/rhs straight from the space and witness."""
    m = space.metric
    if violation.axiom == 1:
        p, q, r = violation.witness
        return m(p, q, r), m(p, p, p)
    if violation.axiom == 2:
        p, q, r = violation.witness
        return m(p, p, p), m(p, q, r)
    if violation.axiom == 3:
        p, q = violation.witness
        return m(p, p, q), m(q, q, p)
    p, q, r, s = violation.witness
    rhs = space.coefficient * (m(p, p, s) + m(q, q, s) + m(r, r, s)) - m(s, s, s)
    return m(p, q, r), rhs


@criterion(1, "axiom suite")
def test_axiom_suite():
    for name in ("two_point_a", "two_point_b"):
        report = check_axioms(builtin_space(name), AxiomSet.PARTIAL_SB)
        assert report.passed and not report.violations

    for name in ("quintic_ray", "quintic_gap"):
        space = builtin_space(name)
        assert space.carrier.bound == 64
        report = check_axioms(space, AxiomSet.PARTIAL_SB, sample_count=10_000, seed=0)
        assert report.passed and not report.violations

    base_table = builtin_space("two_point_b").metric.table
    for entry in itertools.product((1, 2), repeat=3):
        table = dict(base_table)
        table[entry] -= 5
        report = check_axioms(tabulated_space((1, 2), table))
        assert len(report.violations) >= 1, f"mutation at {entry} undetected"
        for violation in report.violations:
            space = tabulated_space((1, 2), table)
            assert (violation.lhs, violation.rhs) == recompute_violation(space, violation)


@criterion(2, "ball suite")
def test_ball_suite():
    ray = builtin_space("quintic_ray")
    candidates = sorted(set(sample_carrier(ray, seed=0)) | {1, 2, 3, 4})
    assert open_ball(ray, 1, 3, candidates).members == frozenset({1})

    two_a = builtin_space("two_point_a")
    for radius in (0.1, 1, 100):
        assert open_ball(two_a, 1, radius, [1, 2]).members == frozenset({1, 2})
    assert open_ball(two_a, 2, 1, [1, 2]).members == frozenset({2})

    two_b = builtin_space("two_point_b")
    assert open_ball(two_b, 1, 0.5, [1, 2]).members == frozenset({1})
    assert open_ball(two_b, 2, 3, [1, 2]).members == frozenset({2})


@criterion(3, "topology suite")
def test_topology_suite():
    top_a = generate_topology(builtin_space("two_point_a"))
    top_b = generate_topology(builtin_space("two_point_b"))

    assert top_a.opens == frozenset({frozenset(), frozenset({2}), frozenset({1, 2})})
    assert top_b.opens == frozenset(
        {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})}
    )
    assert verify_topology_axioms(top_a) and verify_topology_axioms(top_b)

    sep_a = separation_report(top_a)
    sep_b = separation_report(top_b)
    assert (sep_a.t0, sep_a.t1, sep_a.t2) == (True, False, False)
    assert (sep_b.t0, sep_b.t1, sep_b.t2) == (True, True, True)

    connected_b, witness = is_connected(top_b)
    assert not connected_b and witness == (frozenset({1}), frozenset({2}))
    assert is_connected(top_a) == (True, None)


@criterion(4, "T0 universality")
def test_t0_universality():
    rng = random.Random("psbm:t0:0")
    for draw in range(200):
        space = random_valid_space(rng)
        assert separation_report(generate_topology(space)).t0, f"counterexample at draw {draw}"


@criterion(5, "cover witness")
def test_cover_witness_all_subfamilies():
    ray = builtin_space("quintic_ray")
    indices = tuple(range(3, 21))
    family = CoverFamily(center=1, indices=indices)
    candidates = witness_candidates(ray, 64)
    self_d = ray.metric(1, 1, 1)
    dist_of = {z: ray.metric(1, 1, z) for z in candidates}

    for size in range(1, len(indices) + 1):
        for subfamily in itertools.combinations(indices, size):
            witness = uncovered_witness(ray, family, subfamily, 64, candidates=candidates)
            assert witness is not None, f"no witness for {subfamily}"
            d = dist_of[witness]
            assert all(d >= n + self_d for n in subfamily), (
                f"witness {witness} sits inside a ball of {subfamily}"
            )


@criterion(6, "comparison suite")
def test_comparison_suite():
    assert check_boyd_wong_properties(builtin_comparison("paper_tau")).passed
    assert check_matkowski_properties(builtin_comparison("half")).passed

    identity = builtin_comparison("identity")
    below = check_boyd_wong_properties(identity).check("below-identity")
    decay = check_matkowski_properties(identity).check("iterate-decay")
    assert not below.passed and below.witness is not None
    assert not decay.passed and decay.witness is not None


@criterion(7, "contraction certification")
def test_contraction_certification():
    gap = builtin_space("quintic_gap")
    step = (64 - 4) / 49
    points = [0, 3] + [4 + i * step for i in range(50)]

    for matkowski in (False, True):
        report = certify(gap, standard_spec(matkowski=matkowski), points=points)
        assert report.passed and not report.failures
        assert report.excluded_fixed_points == (0,)

    table = reproduce_case_table(gap, standard_spec())
    assert table.lhs_column() == (
        0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243
    )
    assert table.passed
    # Reference bounds are logged, never asserted: known gaps must not fail.
    assert len(table.discrepancies) >= 1
    assert "1(ii)" in table.discrepancies


@criterion(8, "fixed-point suite")
def test_fixed_point_suite():
    gap = builtin_space("quintic_gap")
    mapping = builtin_map("paper_S")
    half = builtin_comparison("half")

    for a0 in (7, 4, 64, 3):
        trace = picard_iterate(gap, mapping, a0)
        assert trace.converged and trace.limit == 0
        assert len(trace.orbit) - 1 <= 3
        assert all(b <= a for a, b in zip(trace.gaps, trace.gaps[1:]))
        assert matkowski_envelope_check(trace, half) == (True, None)

    assert verify_fixed_point(gap, mapping, 0) == (True, True)
    assert gap.metric(0, 0, 0) == 0

    sample = sample_carrier(gap, seed=0)
    assert uniqueness_check(gap, mapping, sample, 0) == (True, None)


@criterion(9, "repro determinism")
def test_repro_determinism():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "psbmetric", "repro", "--format", "json"],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0 and runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["passed"] is True

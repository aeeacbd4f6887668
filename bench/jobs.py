"""Seeded inputs, job lists and expected verdicts for the benchmark workloads.

A job is one call sequence into psbmetric's public API that yields a verdict:
a small plain value built from the reports' pass flags, counts and witness
sets. Each job carries the verdict expected from closed forms or from the
paper, never golden report bytes, so a change to detail strings or case-table
numbers is not a failure while the verdicts hold.

The workload seed only shapes the inputs; the program receives the generated
spaces, grids and seeds through `tabulated_space`, `builtin_space`, the other
public functions and `cli.main`.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from psbmetric import cli, comparison, contraction, fixpoint, spaces, topology


@dataclass(frozen=True)
class Job:
    """`run(pass_index)` returns the observed verdict; a job fails when it
    raises or the verdict differs from `expected`. `known_defect` names a
    program defect that makes the job fail today with one of
    `defect_verdicts`; such failures still count as failed, but are reported
    under that name."""

    name: str
    run: Callable[[int], object]
    expected: object
    known_defect: str | None = None
    defect_verdicts: tuple = ()


# --------------------------------------------------------------------------
# repro: the command that reproduces the paper
# --------------------------------------------------------------------------

REPRO_ITEMS = 8


def repro_verdict(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    report = json.loads(out.getvalue())
    return {
        "exit": code,
        "passed": report["passed"],
        "items": len(report["items"]),
        "items_passed": sum(item["passed"] for item in report["items"]),
    }


def repro_jobs(seed: int) -> list[Job]:
    # One job per pass; pass k replays the paper with seed `seed + k`, so the
    # jobs of a run use successive seeds.
    def run(k):
        return repro_verdict(["repro", "--format", "json", "--seed", str(seed + k)])

    expected = {"exit": 0, "passed": True, "items": REPRO_ITEMS, "items_passed": REPRO_ITEMS}
    return [Job("repro", run, expected)]


# --------------------------------------------------------------------------
# finite_topology: constructive tabulated spaces with clustered positions
# --------------------------------------------------------------------------

# Cluster-size profiles, n = 8..14: all singletons (discrete topology, 2^n
# opens, generation dominates), mixed clusters (separation dominates) and a
# single cluster (a chain of n+1 opens, the exhaustive axiom check
# dominates). Profiles above about 500 opens (all singletons from n = 10, or
# n = 14 in 2-point clusters) are left out: today's union-closure and
# pairwise T2 search take 1 to 15 s on each of them, which would leave too
# few passes per run for a steady best-of-passes latency.
TOPOLOGY_PROFILES = (
    (1,) * 8, (2, 2, 2, 2), (3, 3, 1, 1), (4, 4), (6, 2), (8,),
    (1,) * 9, (3, 3, 3), (2, 2, 2, 1, 1, 1), (5, 4), (9,),
    (2,) * 5, (4, 3, 3), (5, 5), (8, 2), (10,),
    (3, 3, 3, 2), (6, 5), (9, 2), (11,),
    (3, 3, 3, 3), (4, 4, 4), (6, 6), (12,),
    (5, 4, 4), (7, 6), (13,),
    (5, 5, 4), (7, 7), (14,),
)


@dataclass(frozen=True)
class ClusteredSpace:
    """S(x,y,z) = max(w_x,w_y,w_z) + d(x,z) + d(y,z) with t = 1, where d is
    the distance between cluster positions and the weights are distinct."""

    clusters: tuple  # tuple of tuples of points, one per shared position
    space: spaces.PartialSbSpace


def clustered_space(rng: random.Random, sizes) -> ClusteredSpace:
    n = sum(sizes)
    points = list(range(n))
    rng.shuffle(points)
    positions = rng.sample(range(10 * len(sizes) + 10), len(sizes))
    weights = dict(zip(range(n), rng.sample(range(5 * n), n)))
    clusters, where = [], {}
    start = 0
    for size, pos in zip(sizes, positions):
        members = tuple(sorted(points[start:start + size]))
        start += size
        clusters.append(members)
        where.update((x, pos) for x in members)
    labels = tuple(range(n))
    table = {
        (x, y, z): max(weights[x], weights[y], weights[z])
        + abs(where[x] - where[z])
        + abs(where[y] - where[z])
        for x, y, z in itertools.product(labels, repeat=3)
    }
    return ClusteredSpace(tuple(clusters), spaces.tabulated_space(labels, table))


def topology_verdict(space) -> dict:
    axioms = spaces.check_axioms(space)
    top = topology.generate_topology(space)
    valid = topology.verify_topology_axioms(top)
    sep = topology.separation_report(top)
    connected, _ = topology.is_connected(top)
    return {
        "axioms": axioms.passed,
        "checked": axioms.checked_count,
        "opens": len(top.opens),
        "valid": valid,
        "t0": sep.t0,
        "t0_pairs": sorted(sep.witnesses["t0"]),
        "t1_pairs": sorted(sep.witnesses["t1"]),
        "t2_pairs": sorted(sep.witnesses["t2"]),
        "connected": connected,
    }


def expected_topology_verdict(clusters) -> dict:
    """Closed forms: minimal open neighbourhoods are the weight chains inside
    each cluster, so the opens are a product of chains."""
    n = sum(len(c) for c in clusters)
    same_cluster = sorted(pair for c in clusters for pair in itertools.combinations(c, 2))
    return {
        "axioms": True,
        "checked": 2 * n ** 3 + n ** 2 + n ** 4,
        "opens": math.prod(len(c) + 1 for c in clusters),
        "valid": True,
        "t0": True,
        "t0_pairs": [],
        "t1_pairs": same_cluster,
        "t2_pairs": same_cluster,
        "connected": len(clusters) == 1,
    }


def topology_job(made: ClusteredSpace) -> Job:
    name = "topology-" + "+".join(str(len(c)) for c in made.clusters)
    return Job(name, lambda k: topology_verdict(made.space), expected_topology_verdict(made.clusters))


def finite_topology_jobs(seed: int, profiles=TOPOLOGY_PROFILES) -> list[Job]:
    rng = random.Random(f"psbm-bench:finite_topology:{seed}")
    return [topology_job(clustered_space(rng, sizes)) for sizes in profiles]


# --------------------------------------------------------------------------
# dense_certify: float grids on the worked example
# --------------------------------------------------------------------------

REPRO_LHS_COLUMN = (0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243)
# (spec, N): the paper_tau spec and the Matkowski (half) spec, N = 20..60.
CERTIFY_GRIDS = ((False, 20), (True, 20), (False, 30), (True, 30),
                 (False, 40), (True, 40), (True, 50), (False, 60))
CASE_TABLE_GRIDS = (20, 30, 40)
AXIOM_RUNS = (("quintic_gap", 10_000), ("quintic_ray", 10_000), ("quintic_ray", 40_000))
SAMPLED_CERTIFY = 10_000
SAMPLED_CERTIFY_SEEDS = 2
COMPARISON_GRIDS = (1_000, 2_000, 4_000)
PIECEWISE_BREAKPOINTS = 400
ORIGIN_SLOPE = 0.35
PICARD_STARTS = range(4, 65)

# check_boyd_wong_properties fails paper_tau (0.9a up to 1, 0.5a above) on
# every grid straddling 1, because it also demands monotonicity, which
# Boyd-Wong functions need not have: the expected verdict is PASS. When a grid
# point lies within about 6e-5 above 1 (about 1 grid in 80 here), its
# semicontinuity probe also samples across the jump at 1 and flags a point
# where paper_tau is continuous.
PAPER_TAU_DEFECT = "boyd-wong check demands monotonicity; its usc probe samples across the jump at 1"
PAPER_TAU_VERDICTS = (
    {"passed": False, "failed_checks": ["monotone"]},
    {"passed": False, "failed_checks": ["monotone", "usc-probe"]},
)


def ray_grid(lo, hi, n) -> list:
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def comparison_grid(rng: random.Random, n: int) -> list:
    """Up to n distinct points, log-uniform on [1e-3, 100]: dense on both
    sides of 1, like the default grid."""
    return sorted(set(10 ** rng.uniform(-3, 2) for _ in range(n)))


def matkowski_piecewise(rng: random.Random, count: int) -> comparison.ComparisonFn:
    """Nondecreasing through the origin with slopes in [0.2, 0.5], so it is at
    most half the identity and its iterates decay within the default budget.
    The first segment's slope is fixed at ORIGIN_SLOPE: iterates spend most
    of their steps on it, so a seeded slope there would change the job's cost
    by up to 2x from seed to seed."""
    xs = sorted(set(rng.uniform(0.01, 120.0) for _ in range(count)))
    breakpoints, y, prev = [(0.0, 0.0)], 0.0, 0.0
    for i, x in enumerate(xs):
        y += (x - prev) * (ORIGIN_SLOPE if i == 0 else rng.uniform(0.2, 0.5))
        breakpoints.append((x, y))
        prev = x
    return comparison.piecewise_linear(breakpoints, kind=comparison.MATKOWSKI)


def certify_verdict(report) -> dict:
    return {
        "passed": report.passed,
        "fixed": list(report.excluded_fixed_points),
        "triples": report.triples_checked,
    }


def certify_grid_job(gap, matkowski: bool, n: int) -> Job:
    points = [0, 3] + ray_grid(4, 64, n)
    spec_name = "half" if matkowski else "tau"

    def run(k):
        spec = contraction.standard_spec(matkowski=matkowski)
        return certify_verdict(contraction.certify(gap, spec, points=points))

    # 0 is the map's only fixed point; the other n + 1 points form all triples.
    return Job(f"certify-{spec_name}-grid{n}", run, {"passed": True, "fixed": [0], "triples": (n + 1) ** 3})


def certify_sampled_job(gap, matkowski: bool, seed: int) -> Job:
    spec_name = "half" if matkowski else "tau"

    def run(k):
        spec = contraction.standard_spec(matkowski=matkowski)
        report = contraction.certify(gap, spec, sample_count=SAMPLED_CERTIFY, seed=seed)
        return {"passed": report.passed, "fixed": list(report.excluded_fixed_points),
                "some_triples": 0 < report.triples_checked <= SAMPLED_CERTIFY}

    return Job(f"certify-{spec_name}-sampled-seed{seed}", run, {"passed": True, "fixed": [0], "some_triples": True})


def case_table_job(gap, grid_size: int) -> Job:
    def run(k):
        table = contraction.reproduce_case_table(gap, contraction.standard_spec(), grid_size=grid_size)
        return {"lhs": table.lhs_column(), "holds": table.passed}

    return Job(f"case-table-grid{grid_size}", run, {"lhs": REPRO_LHS_COLUMN, "holds": True})


def axioms_sampled_job(name: str, samples: int, seed: int) -> Job:
    space = spaces.builtin_space(name)

    def run(k):
        report = spaces.check_axioms(space, sample_count=samples, seed=seed)
        return {"passed": report.passed, "checked": report.checked_count}

    # Each of the four partial-S_b axioms sees every sampled quadruple.
    return Job(f"axioms-{name}-{samples}", run, {"passed": True, "checked": 4 * samples})


def comparison_job(fn, kind: str, grid, known_defect=None, defect_verdicts=()) -> Job:
    def run(k):
        # Looked up per call, so the traced run sees its wrapper.
        if kind == comparison.MATKOWSKI:
            report = comparison.check_matkowski_properties(fn, grid)
        else:
            report = comparison.check_boyd_wong_properties(fn, grid)
        return {"passed": report.passed, "failed_checks": [c.name for c in report.checks if not c.passed]}

    return Job(f"{kind}-{fn.name}-grid{len(grid)}", run, {"passed": True, "failed_checks": []},
               known_defect, defect_verdicts)


def picard_job(gap) -> Job:
    def run(k):
        mapping = contraction.builtin_map("paper_S")
        half = comparison.builtin_comparison("half")
        slow, envelope = [], []
        for a0 in PICARD_STARTS:
            trace = fixpoint.picard_iterate(gap, mapping, a0)
            if not (trace.converged and trace.limit == 0 and len(trace.orbit) - 1 <= 3):
                slow.append(a0)
            elif not fixpoint.matkowski_envelope_check(trace, half)[0]:
                envelope.append(a0)
        sample = [0, 3] + list(PICARD_STARTS)
        return {
            "slow_starts": slow,
            "envelope_violations": envelope,
            "fixed_point": fixpoint.verify_fixed_point(gap, mapping, 0),
            "unique": fixpoint.uniqueness_check(gap, mapping, sample, 0)[0],
        }

    return Job("picard", run, {"slow_starts": [], "envelope_violations": [],
                               "fixed_point": (True, True), "unique": True})


def dense_certify_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"psbm-bench:dense_certify:{seed}")
    gap = spaces.builtin_space("quintic_gap")
    jobs = [certify_grid_job(gap, m, n) for m, n in CERTIFY_GRIDS]
    jobs += [certify_sampled_job(gap, m, seed + i) for i in range(SAMPLED_CERTIFY_SEEDS) for m in (False, True)]
    jobs += [case_table_job(gap, g) for g in CASE_TABLE_GRIDS]
    jobs += [axioms_sampled_job(name, samples, seed) for name, samples in AXIOM_RUNS]
    half = comparison.builtin_comparison("half")
    piecewise = matkowski_piecewise(rng, PIECEWISE_BREAKPOINTS)
    tau = comparison.builtin_comparison("paper_tau")
    for size in COMPARISON_GRIDS:
        grid = comparison_grid(rng, size)
        jobs.append(comparison_job(half, comparison.MATKOWSKI, grid))
        jobs.append(comparison_job(piecewise, comparison.MATKOWSKI, grid))
        jobs.append(comparison_job(tau, comparison.BOYD_WONG, grid, PAPER_TAU_DEFECT, PAPER_TAU_VERDICTS))
    jobs.append(picard_job(gap))
    return jobs


WORKLOADS = {
    "repro": repro_jobs,
    "finite_topology": finite_topology_jobs,
    "dense_certify": dense_certify_jobs,
}

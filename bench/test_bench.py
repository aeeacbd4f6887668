"""Self-tests of the benchmark: generators, expected verdicts, failure
counting and the traced metrics. Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import random
import signal
import time
from pathlib import Path

import pytest

import run

run.import_program()

import jobs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from psbmetric import spaces  # noqa: E402

SMALL_PROFILES = ((1, 1, 1), (2, 1), (3,), (2, 2), (1, 1, 1, 1, 1), (3, 2, 1), (6,))


@pytest.mark.parametrize("seed", range(3))
def test_clustered_spaces_pass_axioms_and_match_closed_forms(seed):
    rng = random.Random(seed)
    for sizes in SMALL_PROFILES:
        made = jobs.clustered_space(rng, sizes)
        assert spaces.check_axioms(made.space).passed
        assert sorted(len(c) for c in made.clusters) == sorted(sizes)
        verdict = jobs.topology_verdict(made.space)
        assert verdict == jobs.expected_topology_verdict(made.clusters)


def test_clustered_weights_are_distinct_and_clusters_share_positions():
    made = jobs.clustered_space(random.Random(7), (3, 2, 1))
    metric = made.space.metric
    points = made.space.carrier.points
    assert len({metric(x, x, x) for x in points}) == len(points)
    for cluster in made.clusters:
        for x in cluster:
            for z in cluster:
                # Same position: S(x,x,z) reduces to the larger weight.
                assert metric(x, x, z) == max(metric(x, x, x), metric(z, z, z))


def test_generated_inputs_depend_only_on_the_seed():
    def tables(seed):
        rng = random.Random(seed)
        return [jobs.clustered_space(rng, sizes).space.metric.table for sizes in SMALL_PROFILES]

    assert tables(3) == tables(3) != tables(4)
    grid_a = jobs.comparison_grid(random.Random("x"), 50)
    grid_b = jobs.comparison_grid(random.Random("x"), 50)
    assert grid_a == grid_b and grid_a[0] < 1 < grid_a[-1]


def test_dense_builders():
    assert jobs.ray_grid(4, 64, 4) == [4, 24, 44, 64]
    fn = jobs.matkowski_piecewise(random.Random(1), 50)
    xs = [0.1 * i for i in range(1, 2000)]
    ys = [fn(x) for x in xs]
    assert fn(0) == 0
    assert all(a <= b for a, b in zip(ys, ys[1:]))
    assert all(y <= 0.5 * x + 1e-9 for x, y in zip(xs, ys))


def test_a_forced_wrong_verdict_is_counted_as_failed():
    good = jobs.finite_topology_jobs(0, SMALL_PROFILES[:2])
    wrong = jobs.Job("forced-wrong", good[0].run, {"opens": -1})
    raising = jobs.Job("raises", lambda k: 1 / 0, 0)
    passes = [run.run_pass(good + [wrong, raising], 0)]
    counted = run.failures(passes)
    assert counted["attempted"] == 4
    assert counted["failed"] == 2
    assert [r["job"] for r in counted["unexpected"]] == ["forced-wrong", "raises"]


def test_a_known_defect_still_counts_but_is_named():
    job = jobs.Job("defect", lambda k: "bad", "good", "some defect", ("bad", "also bad"))
    other = jobs.Job("other", lambda k: "worse", "good", "some defect", ("bad", "also bad"))
    counted = run.failures([run.run_pass([job, other], 0)])
    assert counted["failed"] == 2
    assert counted["known"] == {"some defect": ["defect"]}
    assert [r["job"] for r in counted["unexpected"]] == ["other"]


@pytest.mark.parametrize("grid, failed_checks", [
    ([0.5, 1, 1.5], ["monotone"]),
    ([0.5, 1, 1.00001, 1.5], ["monotone", "usc-probe"]),
])
def test_paper_tau_boyd_wong_defects_are_known(grid, failed_checks):
    tau = jobs.comparison.builtin_comparison("paper_tau")
    job = jobs.comparison_job(tau, "boyd-wong", grid, jobs.PAPER_TAU_DEFECT, jobs.PAPER_TAU_VERDICTS)
    result = run.run_job(job, 0)
    assert result["verdict"]["failed_checks"] == failed_checks
    assert not result["ok"] and result["known_defect"] == jobs.PAPER_TAU_DEFECT


def test_tail_percentile_keeps_ten_jobs_beyond():
    per_job = [float(i) for i in range(1, 41)]
    assert run.tail(per_job) == (30.0, 75.0, 40)
    assert run.tail([2.0, 1.0]) == (2.0, 100.0, 2)


def probe_with(samples):
    probe = speed.SpeedProbe()
    probe.samples = list(samples)
    return probe


def test_reference_seconds_scale_by_the_probed_speed_and_drop_probe_time():
    ref = speed.REFERENCE_S
    # A host at half speed: every sample takes twice the reference time.
    slow = probe_with((0.1 * i, 2 * ref) for i in range(100))
    assert slow.reference_s(0.0, 5.0) == pytest.approx((5.0 - 51 * 2 * ref) / 2)
    # A span too short for NEAR samples of its own uses the nearest ones.
    mixed = probe_with([(0.1 * i, ref) for i in range(50)] + [(5.0 + 0.1 * i, 4 * ref) for i in range(50)])
    assert mixed.reference_s(1.01, 1.06) == pytest.approx(0.05)
    assert mixed.reference_s(8.01, 8.06) == pytest.approx(0.05 / 4)
    with pytest.raises(RuntimeError):
        probe_with([]).reference_s(0.0, 1.0)


def test_the_probe_samples_while_running_and_stops():
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 10 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    taken = len(probe.samples)
    assert taken >= 5
    time.sleep(2 * speed.PERIOD_S)
    assert len(probe.samples) == taken
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_end_to_end_takes_medians_of_passes():
    def result(start, end):
        return {"start": start, "end": end}

    passes = [
        {"start": 0.0, "end": 3.0, "results": [result(0.0, 1.0), result(1.0, 3.0)]},
        {"start": 3.0, "end": 7.0, "results": [result(3.0, 6.0), result(6.0, 7.0)]},
        {"start": 7.0, "end": 12.0, "results": [result(7.0, 9.0), result(9.0, 12.0)]},
    ]
    metrics, tail_info = run.end_to_end(passes, 0.5, lambda start, end: end - start)
    assert metrics["setup_s"] == 0.5
    assert metrics["wall_s"] == 4.0
    # Per-job medians are 2 and 2; the tail of two jobs is the slower one.
    assert metrics["job_p50_s"] == 2.0 and metrics["job_tail_s"] == 2.0
    assert tail_info == {"job_tail_percentile": 100.0, "job_tail_jobs": 2}


def traced_pass(job_list):
    with tracing.Tracer() as tracer:
        result = run.run_pass(job_list, 0)
    return tracer, result


def small_dense_jobs():
    gap = spaces.builtin_space("quintic_gap")
    rng = random.Random(0)
    grid = jobs.comparison_grid(rng, 40)
    return [
        jobs.certify_grid_job(gap, False, 5),
        jobs.case_table_job(gap, 5),
        jobs.axioms_sampled_job("quintic_ray", 50, 0),
        jobs.comparison_job(jobs.matkowski_piecewise(rng, 20), "matkowski", grid),
        jobs.picard_job(gap),
    ]


def test_traced_and_untraced_verdicts_agree_and_tracing_is_removed():
    job_list = jobs.finite_topology_jobs(1, SMALL_PROFILES) + small_dense_jobs()
    plain = run.run_pass(job_list, 0)
    tracer, traced = traced_pass(job_list)
    assert run.verdicts(plain) == run.verdicts(traced)
    assert all(r["ok"] for r in plain["results"])
    counts_after = dict(tracer.counts)
    run.run_pass(job_list, 0)
    assert dict(tracer.counts) == counts_after


def test_every_named_per_layer_metric_is_emitted():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    tracer, result = traced_pass(jobs.finite_topology_jobs(1, SMALL_PROFILES) + small_dense_jobs())
    metrics = tracer.metrics(1, result["s"])
    assert set(metrics) | {"trace.overhead"} == names == set(tracing.PER_LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == tracing.METRIC_UNITS
    for name in ("spaces.self_s", "topology.self_s", "contraction.self_s", "comparison.self_s",
                 "fixpoint.self_s", "topology.generate_s", "topology.separation_s",
                 "contraction.certify_s", "contraction.case_table_s", "spaces.metric_evals",
                 "spaces.tuples_checked", "numerics.compares", "contraction.triples",
                 "contraction.rhs_evals", "comparison.fn_evals", "fixpoint.orbit_steps",
                 "topology.opens"):
        assert metrics[name] > 0, name
    assert 0 < metrics["numerics.exact_ratio"] < 1
    # Jobs call the public functions through their modules, so every entry
    # point a job uses is spanned.
    for span in ("spaces.check_axioms", "topology.is_connected", "contraction.certify",
                 "contraction.reproduce_case_table", "comparison.check_matkowski_properties",
                 "fixpoint.picard_iterate", "fixpoint.uniqueness_check"):
        assert tracer.span_s[span] > 0, span
    assert metrics["contraction.triples"] == 6 ** 3
    # Self times plus the benchmark's own time account for the traced pass.
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.SPAN_LAYERS)
    assert self_total + metrics["bench.self_s"] == pytest.approx(result["s"])


def test_witness_and_random_space_counters():
    from psbmetric import topology

    ray = spaces.builtin_space("quintic_ray")
    family = topology.CoverFamily(center=1, indices=(3, 4, 5))
    candidates = topology.witness_candidates(ray, 10)
    with tracing.Tracer() as tracer:
        witness = topology.uncovered_witness(ray, family, (3, 4), 10, candidates=candidates)
        spaces.random_valid_space(random.Random(0))
    metrics = tracer.metrics(1, 1.0)
    assert metrics["topology.witness_calls"] == 1
    assert metrics["topology.candidates_scanned"] == candidates.index(witness) + 1
    assert 0 < metrics["spaces.valid_space_accept_ratio"] <= 1
    assert topology.uncovered_witness.__name__ == "uncovered_witness"

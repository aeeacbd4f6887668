"""psbmetric benchmark: one workload per process, one caller, no threads.

    python3 bench/run.py --workload repro|finite_topology|dense_certify \\
        --seed N --seconds S --trace 0|1

Run from the repository root; psbmetric is imported from the src/ directory
beside bench/. The run sets up SETUP_REPEATS times (input generation plus
one untimed warm-up job), then runs the workload's fixed job list pass after
pass, in a closed loop, until S seconds have passed. Every job's verdict is
checked against its expected value. With --trace 1, untraced and traced
passes alternate over the same inputs and must give identical verdicts.

Times are in reference seconds (see speed.py): while the import, the set-ups
and the untraced passes run, a probe samples the host's speed, and each span
is scaled to a host of fixed speed, so a slow stretch of a shared host does
not read as a slower program. Traced passes run without the probe.

End-to-end metrics, from the untraced passes:
  setup_s      import time plus the median set-up
  wall_s       median pass over the fixed job list
  job_p50_s    median over jobs of each job's median pass
  job_tail_s   highest percentile of those with ten jobs beyond it
  peak_rss_mb  peak resident set size of this process
fail_ratio (failed / attempted) is printed with them; the JSON carries it as
`failed` and `attempted`. `correct` is false when a job fails other than by
a named known defect, or traced and untraced verdicts differ.

Stdout carries a readable report, then, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from speed import REFERENCE_S, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import psbmetric from this checkout's src, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import psbmetric
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import psbmetric from {SRC}: {exc}")
    if Path(psbmetric.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: psbmetric was imported from {psbmetric.__file__}, not {SRC}")


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_job(job, pass_index: int) -> dict:
    start = time.perf_counter()
    try:
        verdict = job.run(pass_index)
        error = None
    except Exception as exc:  # a raising job is a failed job, not a crashed run
        verdict, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    ok = error is None and verdict == job.expected
    known = not ok and job.known_defect is not None and verdict in job.defect_verdicts
    return {"job": job.name, "start": start, "end": end, "s": end - start,
            "verdict": verdict, "error": error, "ok": ok,
            "known_defect": job.known_defect if known else None}


def run_pass(jobs, pass_index: int) -> dict:
    start = time.perf_counter()
    results = [run_job(job, pass_index) for job in jobs]
    end = time.perf_counter()
    return {"start": start, "end": end, "s": end - start, "results": results}


def setup(build, seed: int):
    """Generate the inputs and run one untimed warm-up job; returns the jobs,
    the warm-up result and the set-up's (start, end)."""
    start = time.perf_counter()
    jobs = build(seed)
    warm = run_job(jobs[0], 0)
    return jobs, warm, (start, time.perf_counter())


def tail(per_job: list):
    """The highest percentile of the per-job latencies with at least
    TAIL_BEYOND jobs beyond it; a job list too short for that (repro has one
    job) gives its slowest job, as percentile 100."""
    count = len(per_job)
    rank = count - TAIL_BEYOND if count > TAIL_BEYOND else count
    return sorted(per_job)[rank - 1], 100.0 * rank / count, count


def end_to_end(passes: list, setup_s: float, seconds) -> tuple[dict, dict]:
    """End-to-end metrics over untraced passes, as medians of the passes:
    a job's latency is its median pass, and wall_s is the median pass.
    `seconds(start, end)` converts a span to reference seconds."""
    per_job = [
        statistics.median(seconds(r["start"], r["end"]) for r in (p["results"][i] for p in passes))
        for i in range(len(passes[0]["results"]))
    ]
    tail_s, percentile, tail_jobs = tail(per_job)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(seconds(p["start"], p["end"]) for p in passes),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"job_tail_percentile": percentile, "job_tail_jobs": tail_jobs}


def failures(passes: list) -> dict:
    results = [r for p in passes for r in p["results"]]
    known, unexpected = {}, []
    for r in results:
        if r["known_defect"]:
            known.setdefault(r["known_defect"], set()).add(r["job"])
        elif not r["ok"]:
            unexpected.append(r)
    return {
        "attempted": len(results),
        "failed": sum(not r["ok"] for r in results),
        "known": {name: sorted(jobs) for name, jobs in known.items()},
        "unexpected": unexpected,
    }


def verdicts(p) -> list:
    return [(r["verdict"], r["error"]) for r in p["results"]]


def measure(jobs, seconds: float, probe, tracer=None):
    """Closed loop over whole passes until `seconds` have passed, the
    untraced ones under the speed probe. With a tracer, passes alternate
    untraced/traced over the same pass index."""
    plain, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        with probe:
            plain.append(run_pass(jobs, index))
        if tracer is not None:
            with tracer:
                traced.append(run_pass(jobs, index))
        index += 1
        if time.perf_counter() - start >= seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    probe = SpeedProbe()
    with probe:
        import_program()
        from jobs import WORKLOADS
        from tracing import METRIC_UNITS, Tracer
    import_end = time.perf_counter()

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    build = WORKLOADS[args.workload]

    with probe:
        setups = [setup(build, args.seed) for _ in range(SETUP_REPEATS)]
    jobs = setups[-1][0]
    warm_ups_ok = all(warm["ok"] or warm["known_defect"] for _, warm, _ in setups)
    setup_s = probe.reference_s(PROCESS_START, import_end) + statistics.median(
        probe.reference_s(*span) for _, _, span in setups)

    tracer = Tracer() if args.trace else None
    plain, traced = measure(jobs, args.seconds, probe, tracer)
    e2e, tail_info = end_to_end(plain, setup_s, probe.reference_s)
    # Raw wall seconds of the untraced passes, less the probe's own time.
    plain_wall = [p["s"] - probe.probe_s(p["start"], p["end"]) for p in plain]
    timed = plain + traced
    counted = failures(timed)
    same_verdicts = all(verdicts(p) == verdicts(t) for p, t in zip(plain, traced))
    correct = not counted["unexpected"] and warm_ups_ok and same_verdicts

    if tracer is not None:
        layer = tracer.metrics(len(traced), sum(p["s"] for p in traced))
        layer["trace.overhead"] = statistics.median(p["s"] for p in traced) / statistics.median(plain_wall) - 1
        metrics = {name: {"value": layer[name], "unit": METRIC_UNITS[name]} for name in METRIC_UNITS}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    report = [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"python {platform.python_version()}  nproc {os.cpu_count()}  commit {commit()}",
        f"jobs per pass {len(jobs)}  passes {len(plain)} untraced, {len(traced)} traced  "
        f"attempted {counted['attempted']}  failed {counted['failed']}  "
        f"fail_ratio {counted['failed'] / counted['attempted']:.6g}",
        f"job_tail_s percentile {tail_info['job_tail_percentile']:.4g} over {tail_info['job_tail_jobs']} jobs",
        f"untraced median pass {statistics.median(plain_wall):.6g} wall s = {e2e['wall_s']:.6g} reference s; "
        f"probe samples {len(probe.samples)}, median kernel {statistics.median(t for _, t in probe.samples):.6g} s "
        f"(reference {REFERENCE_S:g} s)",
    ]
    for name, jobs_hit in counted["known"].items():
        report.append(f"known defect ({name}): failed jobs {', '.join(jobs_hit)}")
    for r in counted["unexpected"][:10]:
        report.append(f"UNEXPECTED: {r['job']}: {r['error'] or r['verdict']}")
    if not same_verdicts:
        report.append("UNEXPECTED: traced and untraced passes gave different verdicts")
    if not warm_ups_ok:
        report.append("UNEXPECTED: a warm-up job failed")
    report += [f"{name:<34} {e2e[name]:.6g} {unit}" for name, unit in END_TO_END_UNITS.items()]
    if tracer is not None:
        report += [f"{name:<34} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(report))
    print(json.dumps({
        "correct": correct,
        "attempted": counted["attempted"],
        "failed": counted["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

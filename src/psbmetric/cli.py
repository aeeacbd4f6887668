"""Command-line front end.

Exit codes: 0 for pass/success verdicts, 1 for verified failures (axiom
violations, inequality failures, non-convergence), 2 for usage or parse
errors, 3 for an internal error (an exception the program does not raise
deliberately), 141 when the reader closes stdout early. Reports print as
text by default or as JSON with --format json.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import comparison, contraction, fixpoint, repro, spaces, topology
from .errors import InvalidArgument, PsbmError
from .numerics import point_label
from .spaces import AxiomSet, RegionCarrier, parse_point

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 128 + 13  # SIGPIPE

_VARIANTS = {v.value: v for v in AxiomSet}


def _seed(args) -> int:
    """--seed, else PSBM_SEED, else 0; read only on the paths that sample."""
    if args.seed is not None:
        return args.seed
    value = os.environ.get("PSBM_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise PsbmError(f"PSBM_SEED must be an integer, got {value!r}") from None


def _no_effect(flag: str, value, path: str) -> None:
    """Reject a flag given on a path that ignores it."""
    if value is not None:
        raise PsbmError(f"{flag} has no effect {path}")


def _read_file(path: str, what: str) -> str:
    """The text of a UTF-8 file; a file that cannot be opened or decoded is
    a usage error, `cannot read <what> <path>: <reason>`."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PsbmError(f"cannot read {what} {path!r}: {exc}") from None


def _resolve_space(selector: str):
    if selector.startswith("builtin:"):
        return spaces.builtin_space(selector[len("builtin:"):])
    if selector.startswith("file:"):
        return spaces.load_tabulated_space(_read_file(selector[len("file:"):], "space file"))
    raise PsbmError(f"space selector must be builtin:<name> or file:<path>, got {selector!r}")


def _resolve_comparison(name: str):
    if name.startswith("file:"):
        return comparison.load_piecewise(_read_file(name[len("file:"):], "breakpoints"))
    return comparison.builtin_comparison(name)


def parse_points_list(text: str) -> list:
    return [parse_point(tok) for tok in text.replace(",", " ").split()]


# The most indices one list may hold; each a..b range is sized before it is
# expanded.
MAX_INDICES = 10**6


def _parse_indices(text: str) -> list:
    spans = []
    try:
        for token in text.replace(",", " ").split():
            lo, sep, hi = token.partition("..")
            spans.append((int(lo), int(hi) if sep else int(lo)))
    except ValueError as exc:
        raise InvalidArgument(str(exc)) from None
    total = sum(max(0, hi - lo + 1) for lo, hi in spans)
    if total > MAX_INDICES:
        raise InvalidArgument(f"{total} indices exceed the limit of {MAX_INDICES}")
    return [n for lo, hi in spans for n in range(lo, hi + 1)]


def _emit(report: dict, args, render) -> None:
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render(report))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# argparse names the type in its message: "invalid finite float value: 'inf'".
_finite_float.__name__ = "finite float"


def _with_bound(space, bound):
    if bound is None:
        return space
    if not isinstance(space.carrier, RegionCarrier):
        raise PsbmError("--bound has no effect on a finite carrier")
    return dataclasses.replace(space, carrier=dataclasses.replace(space.carrier, bound=bound))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_verify_axioms(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    samples = args.samples
    if samples is None and isinstance(space.carrier, RegionCarrier):
        samples = 10000
    if samples is None:
        _no_effect("--seed", args.seed, "on an exhaustive check")
        seed = None
    else:
        seed = _seed(args)
    report = spaces.check_axioms(space, _VARIANTS[args.variant], sample_count=samples, seed=seed)
    payload = report.to_dict()

    def render(r):
        lines = [f"variant: {r['variant']}  checked: {r['checked']}  passed: {r['passed']}"]
        for v in r["violations"]:
            lines.append(
                f"  axiom {v['axiom']} violated at ({', '.join(v['witness'])}): "
                f"lhs {v['lhs']} vs rhs {v['rhs']}"
            )
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_ball(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    center = spaces.require_point(space, parse_point(args.center))
    if args.candidates:
        _no_effect("--seed", args.seed, "with --candidates")
        _no_effect("--bound", args.bound, "with --candidates")
        candidates = [spaces.require_point(space, x) for x in parse_points_list(args.candidates)]
    elif not isinstance(space.carrier, RegionCarrier):
        _no_effect("--seed", args.seed, "on a finite carrier")
        candidates = list(space.carrier.points)
    else:
        candidates = spaces.sample_carrier(space, seed=_seed(args))
        if center not in candidates:
            candidates.append(center)
    ball = topology.open_ball(space, center, args.radius, candidates)
    payload = ball.to_dict()
    _emit(payload, args, lambda r: f"D({r['center']}; {r['radius']}) = {{{', '.join(r['members'])}}}")
    return EXIT_OK


def _cmd_topology(args) -> int:
    space = _resolve_space(args.space)
    payload = topology.generate_topology(space).to_dict()
    witness = topology.ball_base_witness(space)
    payload["base"] = witness is None
    payload["base_witness"] = None if witness is None else [point_label(p) for p in witness]

    def render(r):
        shown = ", ".join("{" + ", ".join(o) + "}" for o in r["opens"])
        base = "True" if r["base"] else f"False ({', '.join(r['base_witness'])})"
        return f"carrier {{{', '.join(r['carrier'])}}}\nopens: {shown}\nbase: {base}"

    _emit(payload, args, render)
    return EXIT_OK


def _cmd_separation(args) -> int:
    space = _resolve_space(args.space)
    report = topology.separation_report(topology.generate_topology(space))
    payload = report.to_dict()

    def render(r):
        lines = [f"T0: {r['t0']}  T1: {r['t1']}  T2: {r['t2']}"]
        for level in ("t0", "t1", "t2"):
            for u, v in r["witnesses"][level]:
                lines.append(f"  {level} fails for pair ({u}, {v})")
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK


def _cmd_connected(args) -> int:
    space = _resolve_space(args.space)
    connected, witness = topology.is_connected(topology.generate_topology(space))
    payload = {
        "connected": connected,
        "witness": None
        if witness is None
        else [topology.sorted_labels(witness[0]), topology.sorted_labels(witness[1])],
    }

    def render(r):
        if r["connected"]:
            return "connected: True"
        a, b = r["witness"]
        return f"connected: False  witness: {{{', '.join(a)}}} | {{{', '.join(b)}}}"

    _emit(payload, args, render)
    return EXIT_OK


def _cmd_cover_witness(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    indices = _parse_indices(args.indices)
    center = spaces.require_point(space, parse_point(args.center))
    family = topology.CoverFamily(center=center, indices=tuple(indices))
    subfamily = _parse_indices(args.subfamily) if args.subfamily else indices
    bound = args.bound if args.bound is not None else spaces.DEFAULT_REGION_BOUND
    witness = topology.uncovered_witness(space, family, subfamily, bound)
    payload = {
        "family": family.to_dict(),
        "subfamily": list(subfamily),
        "search_bound": bound,
        "witness": None if witness is None else point_label(witness),
    }

    def render(r):
        if r["witness"] is None:
            return "covered: every scanned point lies in some subfamily ball"
        return f"uncovered witness: {r['witness']}"

    _emit(payload, args, render)
    return EXIT_OK


def _cmd_check_comparison(args) -> int:
    fn = _resolve_comparison(args.fn)
    kind = args.kind or fn.kind
    if kind is None:
        raise PsbmError("comparison kind is untagged; pass --kind")
    if kind == comparison.BOYD_WONG:
        report = comparison.check_boyd_wong_properties(fn)
    else:
        report = comparison.check_matkowski_properties(fn)
    payload = report.to_dict()
    payload["kind"] = kind

    def render(r):
        lines = [f"fn: {r['fn']}  kind: {r['kind']}  passed: {r['passed']}"]
        for c in r["checks"]:
            failed = f"FAIL (witness {c['witness']})" if c["witness"] is not None else f"FAIL: {c['detail']}"
            lines.append(f"  {c['name']}: {'pass' if c['passed'] else failed}")
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_certify(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    spec = contraction.standard_spec(matkowski=args.matkowski)
    if args.grid is not None:
        _no_effect("--seed", args.seed, "with --grid")
        _no_effect("--samples", args.samples, "with --grid")
        carrier = space.carrier
        if not isinstance(carrier, RegionCarrier):
            raise PsbmError("--grid needs a region carrier")
        points = list(carrier.isolated) + contraction.ray_grid(carrier, args.grid)
        report = contraction.certify(space, spec, points=points)
    elif args.samples is not None:
        report = contraction.certify(space, spec, sample_count=args.samples, seed=_seed(args))
    else:
        # Every triple of the seeded carrier sample (all of a finite carrier).
        if isinstance(space.carrier, RegionCarrier):
            seed = _seed(args)
        else:
            _no_effect("--seed", args.seed, "on a finite carrier")
            seed = 0
        report = contraction.certify(space, spec, points=spaces.sample_carrier(space, seed=seed))
    payload = report.to_dict()

    def render(r):
        lines = [
            f"triples checked: {r['triples_checked']}  passed: {r['passed']}",
            f"excluded fixed points: {{{', '.join(r['excluded_fixed_points'])}}}",
            f"min margin: {r['min_margin']}",
        ]
        for f in r["failures"]:
            lines.append(f"  fails at ({', '.join(f['triple'])}): lhs {f['lhs']} > rhs {f['rhs']}")
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_case_table(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    spec = contraction.standard_spec(matkowski=args.matkowski)
    table = contraction.reproduce_case_table(space, spec, grid_size=args.grid_size)
    payload = table.to_dict()
    _emit(payload, args, lambda r: table.render())
    return EXIT_OK if table.passed else EXIT_FAIL


def _cmd_fixpoint(args) -> int:
    space = _with_bound(_resolve_space(args.space), args.bound)
    mapping = contraction.builtin_map(args.map)
    a0 = parse_point(args.start)
    trace = fixpoint.picard_iterate(space, mapping, a0, max_iter=args.max_iter)
    if args.format == "csv":
        print(fixpoint.trace_to_csv(trace), end="")
        return EXIT_OK if trace.converged else EXIT_FAIL
    payload = trace.to_dict()

    def render(r):
        lines = [
            f"orbit: {' -> '.join(r['orbit'])}",
            f"gaps: {r['gaps']}",
            f"converged: {r['converged']}  limit: {r['limit']}  limit gap: {r['limit_gap']}",
        ]
        return "\n".join(lines)

    _emit(payload, args, render)
    return EXIT_OK if trace.converged else EXIT_FAIL


def _cmd_repro(args) -> int:
    report = repro.run_repro(seed=_seed(args))

    def render(r):
        width = max(len(i["name"]) for i in r["items"])
        lines = [
            f"{i['name']:<{width}}  {'PASS' if i['passed'] else 'FAIL'}  {i['detail']}"
            for i in r["items"]
        ]
        lines.append(f"overall: {'PASS' if r['passed'] else 'FAIL'}")
        return "\n".join(lines)

    _emit(report, args, render)
    return EXIT_OK if report["passed"] else EXIT_FAIL


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psbm",
        description="Verification toolkit for partial S_b-metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space=True, bound=True, seed=False, formats=("text", "json")):
        if space:
            p.add_argument("--space", required=True, help="builtin:<name> or file:<path>")
        p.add_argument("--format", choices=formats, default="text")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="sampling seed; default PSBM_SEED or 0")
        if space and bound:
            p.add_argument("--bound", type=_finite_float, default=None, help="finite region truncation bound")

    p = sub.add_parser("verify-axioms", help="check an axiom set on a space")
    common(p, seed=True)
    p.add_argument("--variant", choices=sorted(_VARIANTS), default=AxiomSet.PARTIAL_SB.value)
    p.add_argument("--samples", type=int, default=None, help="sampled quadruples; default exhaustive on finite carriers")
    p.set_defaults(func=_cmd_verify_axioms)

    p = sub.add_parser("ball", help="materialize an open ball")
    common(p, seed=True)
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=_finite_float, required=True)
    p.add_argument("--candidates", default=None, help="comma-separated candidate points")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("topology", help="generate the topology of a finite space")
    common(p, bound=False)
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("separation", help="T0/T1/T2 report for a finite space")
    common(p, bound=False)
    p.set_defaults(func=_cmd_separation)

    p = sub.add_parser("connected", help="connectedness of a finite space")
    common(p, bound=False)
    p.set_defaults(func=_cmd_connected)

    p = sub.add_parser("cover-witness", help="point escaping a finite subfamily of balls")
    common(p)
    p.add_argument("--center", required=True)
    p.add_argument("--indices", required=True, help="e.g. '3..20' or '3,5,7'")
    p.add_argument("--subfamily", default=None, help="subset of --indices; default all")
    p.set_defaults(func=_cmd_cover_witness)

    p = sub.add_parser("check-comparison", help="property checks for a comparison function")
    common(p, space=False)
    p.add_argument("--fn", required=True, help="builtin name or file:<breakpoints.json>")
    p.add_argument("--kind", choices=(comparison.BOYD_WONG, comparison.MATKOWSKI), default=None)
    p.set_defaults(func=_cmd_check_comparison)

    p = sub.add_parser("certify", help="certify an interpolative contraction")
    common(p, seed=True)
    p.add_argument("--spec", choices=("paper",), default="paper", help="the hypothesis; paper: p=q=r=s=1/5, map paper_S")
    p.add_argument("--matkowski", action="store_true")
    p.add_argument("--samples", type=int, default=None, help="sampled triples; default every triple of the seeded carrier sample")
    p.add_argument("--grid", type=int, default=None, help="exhaustive over isolated points plus an n-point ray grid")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("case-table", help="reproduce the worked-example case table")
    common(p)
    p.add_argument("--spec", choices=("paper",), default="paper", help="the hypothesis; paper: p=q=r=s=1/5, map paper_S")
    p.add_argument("--matkowski", action="store_true")
    p.add_argument("--grid-size", type=int, default=20)
    p.set_defaults(func=_cmd_case_table)

    p = sub.add_parser("fixpoint", help="run Picard iteration")
    common(p, formats=("text", "json", "csv"))
    p.add_argument("--map", default="paper_S")
    p.add_argument("--start", required=True)
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=_cmd_fixpoint)

    p = sub.add_parser("repro", help="reproduce every worked example")
    common(p, space=False, seed=True)
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to devnull, so the
        # flush at exit neither fails nor prints.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except PsbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A defect, not a verdict or a usage error: one line, no traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> None:
    raise SystemExit(main())

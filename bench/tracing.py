"""Per-layer tracing from outside the program.

While a `Tracer` is installed, every public function of the psbmetric layer
modules is replaced, in every psbmetric namespace that holds it, by a wrapper
that records a span (wall time, with the time of nested spans subtracted to
give each layer's self time) or, for the leaf calls made millions of times
per job, only a count. Uninstalling restores the original objects, so the
untraced passes of the same process run the program unchanged.
"""

from __future__ import annotations

import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

import psbmetric
from psbmetric import comparison, contraction, spaces
from psbmetric.topology import witness_candidates

LAYERS = ("cli", "repro", "spaces", "numerics", "topology", "comparison", "contraction", "fixpoint")
SPAN_LAYERS = tuple(layer for layer in LAYERS if layer != "numerics")

# Leaf functions: counted, not spanned. Every public numerics function is a leaf.
LEAF_FUNCTIONS = {"spaces.evaluate_metric", "contraction.rhs_value"}
COMPARATORS = ("numerics.values_equal", "numerics.leq", "numerics.strictly_less")
# The metric rule runs inside a counted metric call, numerics.exact inside a
# counted comparator, and cli.run never returns.
UNWRAPPED = {"numerics.exact", "spaces.quintic", "cli.run"}
# Callable value classes whose calls are leaves.
LEAF_CLASSES = (spaces.TabulatedMetric, spaces.RuleMetric, comparison.ComparisonFn, contraction.SelfMap)

# Span totals reported under their own names.
NAMED_SPANS = {
    "topology.witness_s": "topology.uncovered_witness",
    "topology.generate_s": "topology.generate_topology",
    "topology.verify_s": "topology.verify_topology_axioms",
    "topology.separation_s": "topology.separation_report",
    "topology.connected_s": "topology.is_connected",
    "contraction.certify_s": "contraction.certify",
    "contraction.case_table_s": "contraction.reproduce_case_table",
}

# Call counts reported under their own names.
NAMED_CALLS = {
    "topology.witness_calls": ("topology.uncovered_witness",),
    "spaces.metric_evals": ("spaces.TabulatedMetric", "spaces.RuleMetric"),
    "numerics.compares": COMPARATORS,
    "contraction.map_evals": ("contraction.SelfMap",),
    "comparison.fn_evals": ("comparison.ComparisonFn",),
}

# Counts read off return values by the hooks below.
RESULT_COUNTS = (
    "topology.candidates_scanned", "topology.opens", "spaces.tuples_checked",
    "contraction.triples", "contraction.rhs_evals", "fixpoint.orbit_steps",
)

PER_LAYER_METRICS = (
    tuple(f"{layer}.self_s" for layer in SPAN_LAYERS)
    + tuple(f"{layer}.calls" for layer in LAYERS)
    + tuple(NAMED_SPANS)
    + tuple(NAMED_CALLS)
    + RESULT_COUNTS
    + ("spaces.valid_space_accept_ratio", "numerics.exact_ratio", "trace.overhead", "bench.self_s")
)


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio") or metric == "trace.overhead":
        return "ratio"
    return "count"


METRIC_UNITS = {metric: _unit(metric) for metric in PER_LAYER_METRICS}


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and isinstance(value, types.FunctionType)
            and value.__module__ == module.__name__
        ):
            yield name, value


class Tracer:
    """Aggregates spans and counts in memory while installed."""

    def __init__(self):
        self.calls = Counter()  # per "layer.function" or "layer.Class"
        self.counts = Counter()  # RESULT_COUNTS and numerics.exact
        self.span_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []
        self._saved = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, layer, name, fn, after=None):
        stack, calls, counts = self._stack, self.calls, self.counts
        span_s, self_s = self.span_s, self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self_s[layer] += took - frame[0]
                span_s[name] += took
                calls[name] += 1
            if after is not None:
                # The hook's own time is tracing cost: keep it out of the
                # enclosing span's self time, so it lands in bench.self_s.
                start = perf_counter()
                after(counts, args, kwargs, result)
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result

        return wrapper

    def _leaf(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _comparator(self, name, fn):
        calls, counts = self.calls, self.counts

        def wrapper(a, b):
            calls[name] += 1
            if type(a) is int and type(b) is int:
                counts["numerics.exact"] += 1
            return fn(a, b)

        return wrapper

    def _wrap(self, layer, name, fn):
        if name in UNWRAPPED:
            return None
        if name in COMPARATORS:
            return self._comparator(name, fn)
        if layer == "numerics" or name in LEAF_FUNCTIONS:
            return self._leaf(name, fn)
        return self._span(layer, name, fn, _AFTER.get(name))

    # -- installation ------------------------------------------------------

    def install(self):
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"psbmetric.{layer}"]
            for name, fn in _public_functions(module):
                wrapper = self._wrap(layer, f"{layer}.{name}", fn)
                if wrapper is not None:
                    replacements[fn] = wrapper
        namespaces = [psbmetric] + [
            module for name, module in sys.modules.items() if name.startswith("psbmetric.")
        ]
        for namespace in namespaces:
            for name, value in list(vars(namespace).items()):
                if isinstance(value, types.FunctionType) and value in replacements:
                    self._saved.append((namespace, name, value))
                    setattr(namespace, name, replacements[value])
        for cls in LEAF_CLASSES:
            method = cls.__dict__["__call__"]
            self._saved.append((cls, "__call__", method))
            layer = cls.__module__.rpartition(".")[2]
            cls.__call__ = self._leaf(f"{layer}.{cls.__name__}", method)
        return self

    def uninstall(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int, traced_wall_s: float) -> dict:
        """Per-pass averages of every per-layer metric except trace.overhead."""
        calls, counts = self.calls, self.counts
        layer_calls = Counter()
        for name, count in calls.items():
            layer_calls[name.partition(".")[0]] += count
        out = {f"{layer}.self_s": self.self_s[layer] / passes for layer in SPAN_LAYERS}
        out.update({f"{layer}.calls": layer_calls[layer] / passes for layer in LAYERS})
        out.update({metric: self.span_s[span] / passes for metric, span in NAMED_SPANS.items()})
        out.update({metric: sum(calls[n] for n in names) / passes for metric, names in NAMED_CALLS.items()})
        out.update({metric: counts[metric] / passes for metric in RESULT_COUNTS})
        out["contraction.rhs_evals"] += calls["contraction.rhs_value"] / passes
        drawn = calls["spaces.random_tabulated_space"]
        out["spaces.valid_space_accept_ratio"] = calls["spaces.random_valid_space"] / drawn if drawn else 0.0
        compares = sum(calls[n] for n in COMPARATORS)
        out["numerics.exact_ratio"] = counts["numerics.exact"] / compares if compares else 0.0
        out["bench.self_s"] = (traced_wall_s - sum(self.self_s.values())) / passes
        return out


# -- result hooks: counts read off return values ---------------------------

def _after_check_axioms(counts, args, kwargs, report):
    counts["spaces.tuples_checked"] += report.checked_count


def _after_generate(counts, args, kwargs, top):
    counts["topology.opens"] += len(top.opens)


def _after_witness(counts, args, kwargs, witness):
    # Candidates scanned: the witness's index + 1, or all when none escapes.
    bound = args[3] if len(args) > 3 else kwargs["search_bound"]
    candidates = args[4] if len(args) > 4 else kwargs.get("candidates")
    if candidates is None:
        candidates = witness_candidates(args[0], bound)
    elif not isinstance(candidates, (list, tuple)):
        candidates = list(candidates)
    scanned = len(candidates) if witness is None else candidates.index(witness) + 1
    counts["topology.candidates_scanned"] += scanned


def _after_certify(counts, args, kwargs, report):
    counts["contraction.triples"] += report.triples_checked
    # certify evaluates the right-hand side once per checked triple.
    counts["contraction.rhs_evals"] += report.triples_checked


def _after_picard(counts, args, kwargs, trace):
    counts["fixpoint.orbit_steps"] += len(trace.orbit) - 1


_AFTER = {
    "spaces.check_axioms": _after_check_axioms,
    "topology.generate_topology": _after_generate,
    "topology.uncovered_witness": _after_witness,
    "contraction.certify": _after_certify,
    "fixpoint.picard_iterate": _after_picard,
}

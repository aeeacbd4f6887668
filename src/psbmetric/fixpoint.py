"""Picard iteration with convergence and envelope diagnostics. Convergence
and a zero self-distance are exact: every map here sends a point to an
exact point, so any slack could only make a verdict wrong."""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from .comparison import MATKOWSKI, ComparisonFn
from .contraction import SelfMap
from .errors import InvalidArgument, NotAFixedPoint
from .numerics import point_label, point_sort_key
from .spaces import PartialSbSpace, require_point

DEFAULT_MAX_ITER = 1000


@dataclass(frozen=True)
class IterationTrace:
    orbit: tuple
    gaps: tuple
    self_distances: tuple
    converged: bool
    limit: object
    limit_gap: float | None

    def to_dict(self) -> dict:
        return {
            "orbit": [point_label(x) for x in self.orbit],
            "gaps": list(self.gaps),
            "self_distances": list(self.self_distances),
            "converged": self.converged,
            "limit": None if self.limit is None else point_label(self.limit),
            "limit_gap": self.limit_gap,
        }


def picard_iterate(
    space: PartialSbSpace,
    mapping: SelfMap,
    a0,
    max_iter: int = DEFAULT_MAX_ITER,
) -> IterationTrace:
    """Iterate a_{k+1} = S(a_k) until the orbit repeats its last point,
    S(a_k) == a_k, or the iteration budget runs out. Non-convergence is a
    reported outcome. An image off the carrier raises UnknownPoint naming
    the map, the point and its image."""
    if max_iter < 1:
        raise InvalidArgument("max_iter must be >= 1")
    if isinstance(a0, float) and not math.isfinite(a0):
        raise InvalidArgument(f"start point must be finite, got {a0}")
    require_point(space, a0)
    orbit = [a0]
    converged = False
    for _ in range(max_iter):
        nxt = mapping(orbit[-1])
        mapping.require_image(space, orbit[-1], nxt)
        orbit.append(nxt)
        if nxt == orbit[-2]:
            converged = True
            break
    gaps = tuple(
        space.metric(orbit[k], orbit[k], orbit[k + 1])
        for k in range(len(orbit) - 1)
    )
    self_distances = tuple(space.metric(x, x, x) for x in orbit)
    return IterationTrace(
        orbit=tuple(orbit),
        gaps=gaps,
        self_distances=self_distances,
        converged=converged,
        limit=orbit[-1] if converged else None,
        limit_gap=gaps[-1] if converged else None,
    )


def verify_fixed_point(space: PartialSbSpace, mapping: SelfMap, a):
    """(is_fixed, self_distance_zero): S(a) == a, and dist(a,a,a) == 0.
    The two conclusions are independent checks."""
    return mapping(a) == a, space.metric(a, a, a) == 0


def matkowski_envelope_check(trace: IterationTrace, fn: ComparisonFn):
    """gaps[k] <= fn^k(gaps[0]) for all k; returns (ok, first violating index).
    The rounded iterates meet a plain <=: a tie needs outward rounding."""
    if fn.kind != MATKOWSKI:
        raise InvalidArgument("envelope check needs a Matkowski-tagged comparison function")
    if not trace.gaps:
        return True, None
    envelope = trace.gaps[0]
    for k, gap in enumerate(trace.gaps):
        if k > 0:
            envelope = fn(envelope)
        if not gap <= envelope:
            return False, k
    return True, None


def uniqueness_check(space: PartialSbSpace, mapping: SelfMap, sample, claimed):
    """True when no sampled point other than `claimed` is fixed; otherwise
    False with the first counterexample in sorted point order."""
    is_fixed, _ = verify_fixed_point(space, mapping, claimed)
    if not is_fixed:
        raise NotAFixedPoint(f"{point_label(claimed)} is not fixed by {mapping.name}")
    for x in sorted(sample, key=point_sort_key):
        if x == claimed:
            continue
        if mapping(x) == x:
            return False, x
    return True, None


def trace_to_csv(trace: IterationTrace) -> str:
    """Rows of (k, a_k, gap_k); the final row has no gap."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["k", "a_k", "gap_k"])
    for k, x in enumerate(trace.orbit):
        gap = trace.gaps[k] if k < len(trace.gaps) else ""
        writer.writerow([k, point_label(x), gap])
    return buffer.getvalue()

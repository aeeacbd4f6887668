"""Comparison functions and their property checks.

Two classes matter: Boyd-Wong style functions (zero at zero, strictly below
the identity, upper semicontinuous) and Matkowski style functions (monotone
with iterates decaying to zero). Membership in either class cannot be proved
from finitely many samples; the checks here are grid evaluations plus an
explicitly labelled semicontinuity probe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

from .errors import ParseError, UnknownBuiltin
from .numerics import leq, strictly_less

BOYD_WONG = "boyd-wong"
MATKOWSKI = "matkowski"

DEFAULT_GRID = (1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 243.0, 486.0, 34100.0)
DEFAULT_ITER_BUDGET = 64
DECAY_TOL = 1e-9

_USC_SAMPLES = 16
_USC_SHRINK = 0.5
_USC_TAIL = 4
_USC_REL_TOL = 1e-3


@dataclass(frozen=True)
class ComparisonFn:
    name: str
    fn: Callable
    kind: str | None = None

    def __call__(self, v):
        return self.fn(v)


def _paper_tau(a):
    return 0.9 * a if a <= 1 else 0.5 * a


def _half(a):
    return a / 2


def _identity(a):
    return a


def builtin_comparison(name: str) -> ComparisonFn:
    if name == "paper_tau":
        return ComparisonFn("paper_tau", _paper_tau, BOYD_WONG)
    if name == "half":
        return ComparisonFn("half", _half, MATKOWSKI)
    if name == "identity":
        return ComparisonFn("identity", _identity)
    raise UnknownBuiltin(f"no builtin comparison function named {name!r}")


def iterate_comparison(fn: ComparisonFn, v, k: int):
    """k-fold composition of fn applied to v; k = 0 returns v unchanged."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        v = fn(v)
    return v


def piecewise_linear(breakpoints, kind: str | None = None, name: str = "piecewise") -> ComparisonFn:
    """Linear interpolation through (x, y) breakpoints, extended by the
    first/last segment slope outside their range and clamped at zero."""
    pts = [(float(x), float(y)) for x, y in breakpoints]
    if len(pts) < 2:
        raise ParseError("need at least two breakpoints")
    xs = [x for x, _ in pts]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ParseError("breakpoint x values must be strictly increasing")
    if any(y < 0 for _, y in pts):
        raise ParseError("breakpoint y values must be nonnegative")

    def evaluate(v):
        if v <= pts[0][0]:
            (x0, y0), (x1, y1) = pts[0], pts[1]
        elif v >= pts[-1][0]:
            (x0, y0), (x1, y1) = pts[-2], pts[-1]
        else:
            lo, hi = 0, len(pts) - 1
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if pts[mid][0] <= v:
                    lo = mid
                else:
                    hi = mid
            (x0, y0), (x1, y1) = pts[lo], pts[hi]
        slope = (y1 - y0) / (x1 - x0)
        return max(0.0, y0 + (v - x0) * slope)

    return ComparisonFn(name, evaluate, kind)


def _finite_number(value, where: str) -> float:
    """value as a float, if it is a JSON number (not a bool) in the float range."""
    if type(value) not in (int, float) or not -math.inf < value < math.inf:
        raise ParseError(f"{where}: {value!r} is not a finite number")
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: {value!r} is not a finite number") from None


def load_piecewise(text: str, kind: str | None = None, name: str = "piecewise") -> ComparisonFn:
    """Breakpoints from a JSON array of [x, y] pairs of finite numbers."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list) or any(
        not isinstance(bp, (list, tuple)) or len(bp) != 2 for bp in data
    ):
        raise ParseError("expected a JSON array of [x, y] pairs")
    breakpoints = [
        (_finite_number(x, f"breakpoint {i} x"), _finite_number(y, f"breakpoint {i} y"))
        for i, (x, y) in enumerate(data)
    ]
    return piecewise_linear(breakpoints, kind=kind, name=name)


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    witness: object = None
    detail: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    fn_name: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "fn": self.fn_name,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "witness": c.witness,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _validate_grid(grid):
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if any(g <= 0 for g in grid):
        raise ValueError("grid points must be strictly positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    return grid


def _check_zero_at_zero(fn):
    value = fn(0)
    return PropertyCheck("zero-at-zero", value == 0, witness=0 if value != 0 else None,
                         detail=f"fn(0) = {value}")


def _check_below_identity(fn, grid):
    for g in grid:
        if not strictly_less(fn(g), g):
            return PropertyCheck("below-identity", False, witness=g,
                                 detail=f"fn({g}) = {fn(g)} is not below {g}")
    return PropertyCheck("below-identity", True)


def _check_monotone(fn, grid):
    for a, b in zip(grid, grid[1:]):
        if not leq(fn(a), fn(b)):
            return PropertyCheck("monotone", False, witness=(a, b),
                                 detail=f"fn({a}) = {fn(a)} > fn({b}) = {fn(b)}")
    return PropertyCheck("monotone", True)


def _usc_probe_at(fn, g):
    reference = fn(g)
    tol = _USC_REL_TOL * max(1.0, abs(reference))
    for side in (1.0, -1.0):
        offsets = [side * (g / 4) * _USC_SHRINK ** i for i in range(_USC_SAMPLES)]
        samples = [fn(g + h) for h in offsets if g + h >= 0]
        tail = samples[-_USC_TAIL:]
        if tail and max(tail) > reference + tol:
            return max(tail)
    return None


def _check_usc_probe(fn, grid):
    # Finite sampling cannot prove semicontinuity; this only flags upward
    # jumps large enough to clear the probe tolerance.
    for g in grid:
        excess = _usc_probe_at(fn, g)
        if excess is not None:
            return PropertyCheck("usc-probe", False, witness=g,
                                 detail=f"samples near {g} reach {excess} above fn({g}) = {fn(g)}")
    return PropertyCheck("usc-probe", True, detail="probe only, not a proof")


def _check_iterate_decay(fn, grid, iter_budget):
    for g in grid:
        v = g
        decayed = False
        for _ in range(iter_budget):
            v = fn(v)
            if v <= DECAY_TOL:
                decayed = True
                break
        if not decayed:
            return PropertyCheck("iterate-decay", False, witness=g,
                                 detail=f"iterates from {g} still at {v} after {iter_budget} steps")
    return PropertyCheck("iterate-decay", True)


def check_boyd_wong_properties(fn: ComparisonFn, grid=DEFAULT_GRID) -> ComparisonReport:
    """Zero at zero, below the identity and monotone on the grid, plus the
    semicontinuity probe."""
    grid = _validate_grid(grid)
    checks = (
        _check_zero_at_zero(fn),
        _check_below_identity(fn, grid),
        _check_monotone(fn, grid),
        _check_usc_probe(fn, grid),
    )
    return ComparisonReport(fn.name, checks)


def check_matkowski_properties(
    fn: ComparisonFn, grid=DEFAULT_GRID, iter_budget: int = DEFAULT_ITER_BUDGET
) -> ComparisonReport:
    """Monotone on the grid with iterates decaying within the budget, plus
    the below-identity and zero-at-zero consequences."""
    if iter_budget < 1:
        raise ValueError("iter_budget must be >= 1")
    grid = _validate_grid(grid)
    checks = (
        _check_monotone(fn, grid),
        _check_iterate_decay(fn, grid, iter_budget),
        _check_below_identity(fn, grid),
        _check_zero_at_zero(fn),
    )
    return ComparisonReport(fn.name, checks)

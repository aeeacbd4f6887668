"""Interpolative contraction inequalities: evaluation and certification.

The right-hand side is a comparison function applied to a product of five
distance factors raised to exponents p, q, r, s and 1-p-q-r-s. A certificate
checks lhs <= rhs over every generated triple whose points are not fixed by
the map, since the defining inequality is quantified away from fixed points.

`inequality_sides` is the one evaluator of both sides: `certify` and the
case table loop over the (lhs, rhs) pairs it returns. `ray_grid` is the one
evenly spaced grid on a region carrier's ray, used by the case table, by
`psbm certify --grid` and by the reproduction script.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .comparison import ComparisonFn, builtin_comparison
from .errors import InvalidExponents, PsbmError, UnknownBuiltin, UnknownPoint, WrongSpaceShape
from .numerics import leq, point_label, point_sort_key
from .spaces import PartialSbSpace, RegionCarrier, sample_carrier


@dataclass(frozen=True)
class SelfMap:
    name: str
    rule: object

    def __call__(self, x):
        return self.rule(x)


def _paper_S(a):
    return 0 if a == 0 or a == 3 else 3


def builtin_map(name: str) -> SelfMap:
    if name == "paper_S":
        return SelfMap("paper_S", _paper_S)
    if name == "identity":
        return SelfMap("identity", lambda x: x)
    raise UnknownBuiltin(f"no builtin self-map named {name!r}")


def map_from_table(table: dict, name: str = "tabulated") -> SelfMap:
    mapping = dict(table)

    def rule(x):
        try:
            return mapping[x]
        except KeyError:
            raise UnknownPoint(f"map undefined at {point_label(x)}") from None

    return SelfMap(name, rule)


@dataclass(frozen=True)
class InterpolativeSpec:
    p: float
    q: float
    r: float
    s: float
    comparison: ComparisonFn
    mapping: SelfMap

    @property
    def residual(self) -> float:
        return 1 - (self.p + self.q + self.r + self.s)


def validate_exponents(spec: InterpolativeSpec) -> None:
    exps = (spec.p, spec.q, spec.r, spec.s)
    if any(not 0 < e < 1 for e in exps) or not sum(exps) < 1:
        raise InvalidExponents(
            f"exponents {exps} must each lie in (0,1) and sum below 1"
        )


def standard_spec(matkowski: bool = False) -> InterpolativeSpec:
    """The worked-example hypothesis: p=q=r=s=1/5 with the paper_S map and
    paper_tau (or half when certifying the Matkowski inequality)."""
    comparison = builtin_comparison("half" if matkowski else "paper_tau")
    return InterpolativeSpec(0.2, 0.2, 0.2, 0.2, comparison, builtin_map("paper_S"))


def _power(base, exponent):
    if base < 0:
        raise PsbmError(f"negative distance factor {base}")
    return base ** exponent


def inequality_sides(space: PartialSbSpace, spec: InterpolativeSpec, points):
    """Both sides of the interpolative inequality for triples over `points`.

    Returns sides(a, b, c) -> (lhs, rhs) with lhs = dist(S(a), S(b), S(c))
    and rhs = comparison(product of the five interpolation factors). The
    image, the powered self-gaps dist(x, x, S(x)) and the S-image pair
    distances are tabulated once over `points`; lhs is cached per image
    triple.
    """
    validate_exponents(spec)
    dist = space.metric
    image = {x: spec.mapping(x) for x in points}
    gap = {x: dist(x, x, image[x]) for x in points}
    fq = {x: _power(gap[x], spec.q) for x in points}
    fr = {x: _power(gap[x], spec.r) for x in points}
    fs = {x: _power(gap[x], spec.s) for x in points}
    pair = {(x, y): dist(image[x], image[x], y) for x in points for y in points}
    lhs_cache = {}
    two_t = 2 * space.coefficient
    comparison = spec.comparison
    p_exp, e5 = spec.p, spec.residual

    def sides(a, b, c):
        key = (image[a], image[b], image[c])
        lhs = lhs_cache.get(key)
        if lhs is None:
            lhs = lhs_cache[key] = dist(*key)
        product = (
            _power(dist(a, b, c), p_exp)
            * fq[a]
            * fr[b]
            * fs[c]
            * _power((pair[(a, b)] + pair[(b, c)]) / two_t, e5)
        )
        return lhs, comparison(product)

    return sides


def fixed_points_bruteforce(mapping: SelfMap, sample) -> tuple:
    """Exactly the sampled points the map sends to themselves."""
    sample = list(sample)
    if not sample:
        raise ValueError("sample must be nonempty")
    return tuple(sorted({x for x in sample if mapping(x) == x}, key=point_sort_key))


@dataclass(frozen=True)
class CertificateReport:
    triples_checked: int
    excluded_fixed_points: tuple
    failures: tuple
    min_margin: float | None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "triples_checked": self.triples_checked,
            "excluded_fixed_points": [point_label(x) for x in self.excluded_fixed_points],
            "failures": [
                {
                    "triple": [point_label(a), point_label(b), point_label(c)],
                    "lhs": lhs,
                    "rhs": rhs,
                }
                for a, b, c, lhs, rhs in self.failures
            ],
            "min_margin": self.min_margin,
            "passed": self.passed,
        }


def certify(
    space: PartialSbSpace,
    spec: InterpolativeSpec,
    points=None,
    sample_count: int | None = None,
    seed: int = 0,
) -> CertificateReport:
    """Check lhs = dist(S(a),S(b),S(c)) <= rhs over generated triples.

    With `points` given, every triple over those points is checked; with
    `sample_count`, that many random triples are drawn from a deterministic
    carrier sample; otherwise the default carrier sample is exhausted.
    Triples containing fixed points are skipped and reported.
    """
    if sample_count is not None and sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pool = list(points) if points is not None else sample_carrier(space, seed=seed)
    fixed = set(fixed_points_bruteforce(spec.mapping, pool))
    active = [x for x in pool if x not in fixed]
    sides = inequality_sides(space, spec, active)

    if points is not None or sample_count is None:
        triples = itertools.product(active, repeat=3)
    else:
        rng = random.Random(f"psbm:certify:{seed}")
        triples = (
            tpl
            for tpl in (
                tuple(rng.choice(pool) for _ in range(3)) for _ in range(sample_count)
            )
            if not any(x in fixed for x in tpl)
        )

    checked = 0
    failures = []
    min_margin = None
    for a, b, c in triples:
        checked += 1
        lhs, rhs = sides(a, b, c)
        margin = rhs - lhs
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if not leq(lhs, rhs):
            failures.append((a, b, c, lhs, rhs))

    failures.sort(key=lambda f: tuple(point_sort_key(x) for x in f[:3]))
    return CertificateReport(
        triples_checked=checked,
        excluded_fixed_points=tuple(sorted(fixed, key=point_sort_key)),
        failures=tuple(failures),
        min_margin=min_margin,
    )


# --------------------------------------------------------------------------
# Case table
# --------------------------------------------------------------------------

# Published rhs lower bounds per subcase, kept as reference annotations only;
# our grid minimization is the authoritative side of the lhs <= rhs verdict.
REFERENCE_BOUNDS = {
    "1(i)": 0.0,
    "1(ii)": 607.08,
    "2(i)": 569.773,
    "2(ii)": 807.40,
    "2(iii)": 1214.17,
    "3(i)": 499.97,
    "3(ii)": 741.19,
    "3(iii)": 1294.82,
    "4(i)": 399.13,
    "4(ii)": 787.84,
    "4(iii)": 1315.96,
    "5(i)": 872.72,
    "5(ii)": 758.18,
    "5(iii)": 1051.22,
    "5(iv)": 1315.96,
}

_DISCREPANCY_REL = 0.01


def _distinct_pairs(grid):
    return [(x, y) for x in grid for y in grid if x != y]


def _distinct_triples(grid):
    return [
        (x, y, z)
        for x in grid
        for y in grid
        if y != x
        for z in grid
        if z != x and z != y
    ]


_SUBCASES = (
    ("1(i)", "a = b = c = 3", lambda g: [(3, 3, 3)]),
    ("1(ii)", "a = b = c != 3", lambda g: [(x, x, x) for x in g]),
    ("2(i)", "a = b = 3, c != 3", lambda g: [(3, 3, x) for x in g]),
    ("2(ii)", "a = b != 3, c = 3", lambda g: [(x, x, 3) for x in g]),
    ("2(iii)", "a = b != 3, c != 3", lambda g: [(x, x, y) for x, y in _distinct_pairs(g)]),
    ("3(i)", "b != 3, a = c = 3", lambda g: [(3, x, 3) for x in g]),
    ("3(ii)", "b = 3, a = c != 3", lambda g: [(x, 3, x) for x in g]),
    ("3(iii)", "b != 3, a = c != 3", lambda g: [(x, y, x) for x, y in _distinct_pairs(g)]),
    ("4(i)", "b = c = 3, a != 3", lambda g: [(x, 3, 3) for x in g]),
    ("4(ii)", "b = c != 3, a = 3", lambda g: [(3, x, x) for x in g]),
    ("4(iii)", "b = c != 3, a != 3", lambda g: [(y, x, x) for x, y in _distinct_pairs(g)]),
    ("5(i)", "all distinct, a = 3", lambda g: [(3, x, y) for x, y in _distinct_pairs(g)]),
    ("5(ii)", "all distinct, b = 3", lambda g: [(x, 3, y) for x, y in _distinct_pairs(g)]),
    ("5(iii)", "all distinct, c = 3", lambda g: [(x, y, 3) for x, y in _distinct_pairs(g)]),
    ("5(iv)", "all distinct, none = 3", _distinct_triples),
)


@dataclass(frozen=True)
class CaseRow:
    label: str
    condition: str
    lhs: float
    rhs_min: float
    argmin: tuple
    reference: float | None
    discrepancy: bool
    holds: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "condition": self.condition,
            "lhs": self.lhs,
            "rhs_min": self.rhs_min,
            "argmin": [point_label(x) for x in self.argmin],
            "reference": self.reference,
            "discrepancy": self.discrepancy,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class CaseTable:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.holds for row in self.rows)

    @property
    def discrepancies(self) -> tuple:
        return tuple(row.label for row in self.rows if row.discrepancy)

    def lhs_column(self) -> tuple:
        return tuple(row.lhs for row in self.rows)

    def to_dict(self) -> dict:
        return {
            "rows": [row.to_dict() for row in self.rows],
            "passed": self.passed,
            "discrepancies": list(self.discrepancies),
        }

    def render(self) -> str:
        header = f"{'subcase':<8} {'condition':<24} {'lhs':>6} {'rhs min':>12} {'at':<20} {'reference':>10} note"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            at = "(" + ", ".join(point_label(x) for x in row.argmin) + ")"
            ref = "" if row.reference is None else f"{row.reference:.2f}"
            notes = []
            if row.discrepancy:
                notes.append("differs from reference")
            if not row.holds:
                notes.append("INEQUALITY FAILS")
            lines.append(
                f"{row.label:<8} {row.condition:<24} {row.lhs:>6} {row.rhs_min:>12.2f} {at:<20} {ref:>10} {'; '.join(notes)}"
            )
        return "\n".join(lines)


def ray_grid(carrier: RegionCarrier, n: int) -> list:
    """n evenly spaced points from the start to the end of the carrier's
    first truncated interval."""
    if n < 2:
        raise PsbmError(f"a ray grid needs at least 2 points, got {n}")
    spans = carrier.truncated_intervals()
    if not spans or spans[0][0] == spans[0][1]:
        raise PsbmError(f"no interval of positive length lies below the bound {carrier.bound}")
    lo, hi = spans[0]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def reproduce_case_table(space: PartialSbSpace, spec: InterpolativeSpec, grid_size: int = 20) -> CaseTable:
    """The fifteen-subcase split of the worked example: exact lhs per subcase
    and the rhs minimized over the subcase's free ray variables on a grid.

    Reference bounds are compared at 1% and logged as discrepancies, never
    asserted; the lhs <= rhs verdict is carried per row in `holds`.
    """
    carrier = space.carrier
    if (
        not isinstance(carrier, RegionCarrier)
        or set(carrier.isolated) != {0, 3}
        or not carrier.truncated_intervals()
    ):
        raise WrongSpaceShape("expected isolated points {0, 3} plus a ray")
    if grid_size < 3:
        raise ValueError("grid_size must be >= 3")
    grid = ray_grid(carrier, grid_size)
    sides = inequality_sides(space, spec, [3] + grid)

    rows = []
    for label, condition, generate in _SUBCASES:
        lhs = None
        rhs_min = None
        argmin = None
        for a, b, c in generate(grid):
            value, rhs = sides(a, b, c)
            if lhs is None:
                lhs = value
            elif value != lhs:
                raise PsbmError(f"subcase {label} lhs is not constant: {lhs} vs {value}")
            if rhs_min is None or rhs < rhs_min:
                rhs_min = rhs
                argmin = (a, b, c)
        reference = REFERENCE_BOUNDS.get(label)
        discrepancy = (
            reference is not None
            and abs(rhs_min - reference) > _DISCREPANCY_REL * max(reference, 1.0)
        )
        rows.append(
            CaseRow(
                label=label,
                condition=condition,
                lhs=lhs,
                rhs_min=rhs_min,
                argmin=argmin,
                reference=reference,
                discrepancy=discrepancy,
                holds=leq(lhs, rhs_min),
            )
        )
    return CaseTable(tuple(rows))

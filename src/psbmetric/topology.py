"""Open balls, the induced topology on finite carriers, and its properties.

A ball D(p; r) collects the candidates z with dist(p,p,z) < r + dist(p,p,p);
note the self-distance offset. Membership is decided on true values: the
float cut r + dist(p,p,p) decides every distance beyond its rounding bound
and the exact cut the rest, so a ball of positive radius holds its centre.
A set U is open iff every x in U has a ball inside U (Sedghi, Shobe and
Aliouche 2012); on a finite carrier, iff U holds the smallest ball
M_y = {z : dist(y,y,z) <= dist(y,y,y)} of each y in U. The opens are the
unions of the U_x, the points reachable from x by repeatedly applying
y -> M_y.

The axiom check and the separation verdicts read each point's smallest open
U_x, the intersection of the opens that hold x (Alexandroff 1937). The check
is exact on any family, the verdicts on every family whose U_x are all open,
every topology among them; separation_report raises on any other family.

Cover witnesses: the family's ball of index n is D(c; n), so the balls are
nested and a point escapes a subfamily of them iff it escapes the widest.
uncovered_witness scans the carrier once, against the cut of the largest
index.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import EmptySubfamily, InvalidArgument, PsbmError, UnknownPoint
from .numerics import exact_value, point_label, point_sort_key, rounding_bound
from .spaces import FiniteCarrier, PartialSbSpace, exhaustive_points


@dataclass(frozen=True)
class OpenBall:
    center: object
    radius: float
    members: frozenset

    def to_dict(self) -> dict:
        return {
            "center": point_label(self.center),
            "radius": self.radius,
            "members": sorted_labels(self.members),
        }


def sorted_points(points: Iterable) -> list:
    return sorted(points, key=point_sort_key)


def sorted_labels(points: Iterable) -> list:
    return [point_label(p) for p in sorted_points(points)]


def _ball_test(radius, self_d):
    """The membership test d -> d < radius + self_d of D(c; radius), where
    self_d = dist(c,c,c) and d = dist(c,c,z): on the float cut where d lies
    beyond its rounding bound, else on the exact cut."""
    exact = exact_value(1, (radius, self_d))
    try:
        cut, size = radius + self_d, (abs(radius), abs(self_d))
        rel, tiny = rounding_bound(size)
        err = rel * sum(size) + tiny  # inf or nan sends every d to the exact cut
        lo, hi = cut - err, cut + err
    except OverflowError:  # an int beyond the float range meets a float
        lo = hi = math.nan
    return lambda d: d < lo or not d >= hi and d < exact


def open_ball(space: PartialSbSpace, center, radius, candidates) -> OpenBall:
    """Materialize D(center; radius) against a candidate point list."""
    if radius <= 0:
        raise InvalidArgument("radius must be positive")
    if not radius < math.inf:
        raise InvalidArgument(f"radius must be finite, got {radius}")
    candidates = list(candidates)
    if center not in candidates:
        raise UnknownPoint(f"center {point_label(center)} is not among the candidates")
    inside = _ball_test(radius, space.metric(center, center, center))
    members = frozenset(z for z in candidates if inside(space.metric(center, center, z)))
    return OpenBall(center, radius, members)


@dataclass(frozen=True)
class FiniteTopology:
    carrier: frozenset
    opens: frozenset

    def to_dict(self) -> dict:
        return {
            "carrier": sorted_labels(self.carrier),
            "opens": sorted(
                (sorted_labels(o) for o in self.opens), key=lambda o: (len(o), o)
            ),
        }


def _smallest_opens(opens) -> dict:
    """U_x per point of some open: the intersection of the opens that hold x."""
    smallest = {}
    for o in opens:
        for x in o:
            smallest[x] = smallest[x] & o if x in smallest else o
    return smallest


def _smallest_balls(space: PartialSbSpace, pts) -> dict:
    """M_x per point: {z : dist(x,x,z) <= dist(x,x,x)}, the ball at half the
    least positive gap dist(x,x,z) - dist(x,x,x), or at any radius when no
    gap is positive."""
    metric = space.metric
    smallest = {}
    for x in pts:
        self_d = metric(x, x, x)
        smallest[x] = frozenset(z for z in pts if metric(x, x, z) <= self_d)
    return smallest


def generate_topology(space: PartialSbSpace) -> FiniteTopology:
    """U open iff every x in U has a ball inside U: the unions of the U_x,
    the points reachable from x by repeatedly applying y -> M_y."""
    pts = exhaustive_points(space)
    smallest = _smallest_balls(space, pts)
    opens = {frozenset()}
    for x in pts:
        u = frozenset({x})
        while (grown := u.union(*(smallest[y] for y in u))) != u:
            u = grown
        opens |= {o | u for o in opens}
    return FiniteTopology(frozenset(pts), frozenset(opens))


def ball_base_witness(space: PartialSbSpace):
    """None when every ball is open, so the balls are a base of the topology.
    Else the first (x, v, z), by x, then z, then v, such that v lies in a
    ball at x that misses z although z is in M_v: a ball D(x; r) holds v and
    misses z iff dist(x,x,v) < r + dist(x,x,x) <= dist(x,x,z)."""
    pts = sorted_points(exhaustive_points(space))
    smallest = _smallest_balls(space, pts)
    for x in pts:
        d = {z: space.metric(x, x, z) for z in pts}
        for z, v in itertools.product(pts, pts):
            if d[z] > d[x] and d[v] < d[z] and z in smallest[v]:
                return x, v, z
    return None


def verify_topology_axioms(topology: FiniteTopology) -> bool:
    """Empty set and carrier open, and o | U_x open for every open o, the empty
    one included: then every open and every meet of two is a union of U_x's."""
    opens = topology.opens
    if frozenset() not in opens or topology.carrier not in opens:
        return False
    return all(o | u in opens for u in _smallest_opens(opens).values() for o in opens)


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    t2: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "t0": self.t0,
            "t1": self.t1,
            "t2": self.t2,
            "witnesses": {
                level: [[point_label(u), point_label(v)] for u, v in pairs]
                for level, pairs in self.witnesses.items()
            },
        }


@functools.lru_cache(maxsize=32)
def _pairs(points: tuple, ids: tuple) -> tuple:
    """The pairs (u, v) of points, u before v, shared by the reports on the
    same point objects (ids; the key holds them, so no id is reused)."""
    return tuple(itertools.combinations(points, 2))


def separation_report(topology: FiniteTopology) -> SeparationReport:
    """A pair (u, v) fails T0 when v is in U_u and u in U_v, T1 when either
    holds, and T2 when U_u meets U_v. Raises InvalidArgument naming the first
    point that lies in no open or whose U_x is not open."""
    points = tuple(sorted_points(topology.carrier))
    smallest = _smallest_opens(topology.opens)
    for x in points:
        if smallest.get(x) not in topology.opens:
            raise InvalidArgument(f"point {point_label(x)} has no smallest open set")
    t0_bad, t1_bad, t2_bad = [], [], []
    # The three witness lists, and the reports on the same points, share one
    # tuple per pair; points only equal to those (4.0 to 4) get their own.
    for pair in _pairs(points, tuple(map(id, points))):
        u, v = pair
        v_near_u = v in smallest[u]
        u_near_v = u in smallest[v]
        if v_near_u and u_near_v:
            t0_bad.append(pair)
        if v_near_u or u_near_v:
            t1_bad.append(pair)
        if not smallest[u].isdisjoint(smallest[v]):
            t2_bad.append(pair)
    witnesses = {"t0": t0_bad, "t1": t1_bad, "t2": t2_bad}
    return SeparationReport(not t0_bad, not t1_bad, not t2_bad, witnesses)


def is_connected(topology: FiniteTopology):
    """True, or False with the lexicographically first separating pair of
    disjoint nonempty opens: the first open whose complement in the carrier
    is a nonempty open, and that complement."""
    carrier = topology.carrier
    for a in sorted((o for o in topology.opens if o), key=sorted_labels):
        if a < carrier and carrier - a in topology.opens:
            return False, (a, carrier - a)
    return True, None


@dataclass(frozen=True)
class CoverFamily:
    """Indexed family of balls D(center; n) around one center: the radius
    of each ball is its index n."""

    center: object
    indices: tuple

    def to_dict(self) -> dict:
        return {
            "center": point_label(self.center),
            "radius_expr": "n",
            "indices": list(self.indices),
        }


def _scan_candidates(space: PartialSbSpace, search_bound):
    """witness_candidates, lazily. Of equal values (4 and 4.0) the one from
    the earliest stream is kept: isolated points, then per interval its ends,
    then its integers."""
    carrier = space.carrier
    if isinstance(carrier, FiniteCarrier):
        return iter(sorted_points(carrier.points))
    streams = [sorted_points(p for p in carrier.isolated if p <= search_bound)]
    for lo, hi in carrier.truncated_intervals(cap=search_bound):
        streams += [(lo, hi), range(math.ceil(lo), math.floor(hi) + 1)]
    merged = heapq.merge(*streams, key=point_sort_key)
    return (next(equal) for _, equal in itertools.groupby(merged))


def witness_candidates(space: PartialSbSpace, search_bound) -> list:
    """Deterministic ascending scan order for uncovered_witness: all finite
    carrier points, or isolated points plus the integer lattice, interval
    endpoints, and the bound itself."""
    return list(_scan_candidates(space, search_bound))


def uncovered_witness(space: PartialSbSpace, family: CoverFamily, subfamily_indices, search_bound, candidates=None):
    """A carrier point outside every subfamily ball, or None if the scanned
    candidates are covered; an empty scan covers nothing and is an error.

    Balls around one centre are nested in the radius, so each candidate is
    compared once with the widest ball, of radius max(subfamily). Every
    radius must be finite; the first that is not, in subfamily order, is
    named. The default scan stops at the first witness; a fully
    covered scan costs the length of the lattice.
    """
    subfamily = list(subfamily_indices)
    if not subfamily:
        raise EmptySubfamily("subfamily must contain at least one index")
    indices = set(family.indices)
    if not indices.issuperset(subfamily):
        raise InvalidArgument(f"indices {sorted(set(subfamily) - indices)} are not in the family")
    center = family.center
    self_d = space.metric(center, center, center)
    for radius in subfamily:  # before max, which passes over a nan not first
        if not -math.inf < radius < math.inf:
            raise InvalidArgument(f"radius of index {radius} is not finite")
    inside = _ball_test(max(subfamily), self_d)
    scan = _scan_candidates(space, search_bound) if candidates is None else candidates
    z = None  # stays None only when the scan yields no point
    for z in scan:
        if not inside(space.metric(center, center, z)):
            return z
    if z is None:
        raise PsbmError(f"no carrier point to scan up to the search bound {search_bound}")
    return None

import dataclasses
import hashlib
import json

import pytest

from psbmetric import comparison, contraction, repro, run_repro, spaces, topology
from psbmetric.cli import main
from psbmetric.spaces import RuleMetric, quintic

EXPECTED_ITEMS = (
    "axioms",
    "balls",
    "topology",
    "t0-universality",
    "cover-witness",
    "comparison",
    "contraction",
    "fixpoint",
)


@pytest.fixture(scope="module")
def reports():
    return run_repro(seed=0), run_repro(seed=0)


def test_repro_passes_with_expected_items(reports):
    report = reports[0]
    assert report["passed"] is True
    assert tuple(item["name"] for item in report["items"]) == EXPECTED_ITEMS
    assert all(item["passed"] for item in report["items"])


def test_repro_is_deterministic_in_process(reports):
    first, second = reports
    assert first == second


def test_repro_details_are_informative(reports):
    details = {item["name"]: item["detail"] for item in reports[0]["items"]}
    assert "8/8 mutations rejected" in details["axioms"]
    assert "262143 subfamilies" in details["cover-witness"]
    assert "logged" in details["contraction"]


# `psbm repro --format json` (seed 0): the bytes every change must keep.
REPRO_SEED_0_JSON = """\
{
  "items": [
    {
      "detail": "4 builtins pass; 8/8 mutations rejected",
      "name": "axioms",
      "passed": true
    },
    {
      "detail": "7/7 ball memberships match",
      "name": "balls",
      "passed": true
    },
    {
      "detail": "8/8 topology facts match",
      "name": "topology",
      "passed": true
    },
    {
      "detail": "200/200 random valid spaces are T0",
      "name": "t0-universality",
      "passed": true
    },
    {
      "detail": "262143 subfamilies all escape coverage",
      "name": "cover-witness",
      "passed": true
    },
    {
      "detail": "4/4 property verdicts match",
      "name": "comparison",
      "passed": true
    },
    {
      "detail": "certificates pass; lhs column matches; reference bounds differ in 11 subcases (logged)",
      "name": "contraction",
      "passed": true
    },
    {
      "detail": "4 orbits converge to the unique fixed point 0",
      "name": "fixpoint",
      "passed": true
    }
  ],
  "passed": true,
  "seed": 0
}
"""


def test_repro_json_bytes_are_pinned(reports):
    assert json.dumps(reports[0], indent=2, sort_keys=True) + "\n" == REPRO_SEED_0_JSON


# sha256 of the `psbm repro --seed N --format json` bytes for seeds 1-4,
# which every change must keep as well.
REPRO_JSON_SHA256 = {
    1: "cb3a9753ffb42ab1540441cafaefdcdf3856c86a99920dfd4ce37f499a291821",
    2: "225f94df9cb58135ccf3a424856639dc8d72dd1dfc206abb5b2ebb96a990447b",
    3: "f298f86b6beab07dbc304b69c24d103ef775ac9f693298fbdf6d34ca89e1966e",
    4: "bd1af6905022e359a15d5f5196289156dfc386463dd36ff26a3a184eae944ebb",
}


@pytest.mark.parametrize("seed", sorted(REPRO_JSON_SHA256))
def test_repro_json_digests_are_pinned(capsys, seed):
    assert main(["repro", "--seed", str(seed), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (REPRO_JSON_SHA256[seed], "")


def test_contraction_item_walks_the_grid_once(monkeypatch):
    """Both certificates share one walk of the 51 active grid points (0 is
    fixed): one comparison-free plane per a, where two certify calls made
    102; the case table adds its own 21 planes."""
    real = contraction.InequalitySides._plane_products
    planes = []

    def counting(sides, a):
        planes.append((len(sides.points), a))
        return real(sides, a)

    monkeypatch.setattr(contraction.InequalitySides, "_plane_products", counting)
    item = repro._contraction_item(0)
    assert item["passed"] is True
    gap = spaces.builtin_space("quintic_gap")
    active = [3] + contraction.ray_grid(gap.carrier, 50)
    assert [a for n, a in planes if n == 51] == active
    assert len(planes) == 51 + 21


def test_contraction_item_maps_one_rhs_list_per_plane(monkeypatch):
    """Above 1, paper_tau is t/2, the line of half, and every product on
    the grid is above 1: the two certificates share one rhs list per
    a-plane, 51 lists of 51^2 values per walk where they mapped 102."""
    real = comparison.ComparisonFn._line
    lengths = []

    def counting(fn, k, values):
        if isinstance(values, list):
            lengths.append(len(values))
        return real(fn, k, values)

    monkeypatch.setattr(comparison.ComparisonFn, "_line", counting)
    item = repro._contraction_item(0)
    assert item["passed"] is True
    assert lengths.count(51 * 51) == 51


def test_cover_item_makes_one_scan_per_index(monkeypatch):
    """The balls D(1; n) are nested, so the 2^18 - 1 subfamilies need one
    uncovered_witness scan per index 3..20. Metric calls: dist(1,1,1) once,
    per scan dist(1,1,1) and the points up to the witness 2, and one escape
    check per witness."""
    metric_calls = [0]

    def counting(p, q, r):
        metric_calls[0] += 1
        return quintic(p, q, r)

    ray = dataclasses.replace(spaces.builtin_space("quintic_ray"), metric=RuleMetric("quintic", counting))
    real_builtin, real_witness = spaces.builtin_space, topology.uncovered_witness
    scans = []

    def witness(space, family, subfamily, bound, candidates=None):
        scans.append(list(subfamily))
        return real_witness(space, family, subfamily, bound, candidates=candidates)

    monkeypatch.setattr(spaces, "builtin_space", lambda name: ray if name == "quintic_ray" else real_builtin(name))
    monkeypatch.setattr(topology, "uncovered_witness", witness)
    item = repro._cover_item(0)
    assert item == {"name": "cover-witness", "passed": True, "detail": "262143 subfamilies all escape coverage"}
    assert scans == [[k] for k in range(3, 21)]
    scanned = topology.witness_candidates(ray, 64).index(2) + 1
    assert metric_calls[0] == 1 + 18 * (1 + scanned) + 18


@pytest.mark.parametrize("wrong, detail", [
    # dist(1,1,1.01) = 2(1 + 1.01^5) = 4.1..., inside D(1; 7) but not D(1; 3).
    (1.01, "witness 1.01 inside a ball of (7,)"),
    (None, "no witness for (7,)"),
])
def test_cover_item_checks_each_witness(monkeypatch, wrong, detail):
    real_witness = topology.uncovered_witness

    def witness(space, family, subfamily, bound, candidates=None):
        found = real_witness(space, family, subfamily, bound, candidates=candidates)
        return wrong if list(subfamily) == [7] else found

    monkeypatch.setattr(topology, "uncovered_witness", witness)
    assert repro._cover_item(0) == {"name": "cover-witness", "passed": False, "detail": detail}

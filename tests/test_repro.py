import dataclasses
import hashlib
import itertools
import json

import pytest

from psbmetric import comparison, contraction, repro, run_repro, spaces, topology
from psbmetric.cli import main
from psbmetric.spaces import RuleMetric, quintic
from test_contraction import reference_certificate

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


def test_contraction_item_walks_the_grid_once(monkeypatch, cleared_planes):
    """Both certificates share one walk of the 51 active grid points (0 is
    fixed): the stages of one comparison-free plane per a, where two
    certify calls made 102; the case table adds its own 21 planes. The
    walk clears all but at most 2 planes by their bounds and walks those a
    row at a time, clearing all but a few rows; the table skips all but a
    few rows too. The lhs rows of a plane are made once per image S(a), 0
    and 3 on this grid, and a row's fifth factors and distances only when
    it is evaluated: a cleared plane or row is bounded by the pair rows
    and the metric's row spans."""
    real_factors, real_products = contraction.InequalitySides._plane_factors, contraction.InequalitySides._row_products
    real_row, real_factor_rows = spaces.RuleMetric.row, contraction._factor_rows
    real_fifth_row = contraction.InequalitySides._fifth_row
    factors, rows, metric_rows, images, fifths = [], [], [], [], []

    def counting_factors(sides, a, *args, **kwargs):
        factors.append((len(sides.points), a))
        return real_factors(sides, a, *args, **kwargs)

    def counting_products(sides, a, j, *args):
        rows.append((len(sides.points), a, sides.points[j]))
        return real_products(sides, a, j, *args)

    def counting_fifth_row(sides, ia, b):
        fifths.append((len(sides.points), ia, b))
        return real_fifth_row(sides, ia, b)

    def counting_row(metric, p, q, rs):
        metric_rows.append(len(rs))
        return real_row(metric, p, q, rs)

    def counting_factor_rows(made):
        images.append((len(made), sum(map(len, made))))
        return real_factor_rows(made)

    monkeypatch.setattr(contraction.InequalitySides, "_plane_factors", counting_factors)
    monkeypatch.setattr(contraction.InequalitySides, "_row_products", counting_products)
    monkeypatch.setattr(contraction.InequalitySides, "_fifth_row", counting_fifth_row)
    monkeypatch.setattr(spaces.RuleMetric, "row", counting_row)
    monkeypatch.setattr(contraction, "_factor_rows", counting_factor_rows)
    item = repro._contraction_item(0)
    assert item["passed"] is True
    gap = spaces.builtin_space("quintic_gap")
    active = [3] + contraction.ray_grid(gap.carrier, 50)
    assert [a for n, a in factors if n == 51] == active and len(cleared_planes) == 51
    evaluated = [a for a, cleared in zip(active, cleared_planes) if not cleared]
    assert evaluated[0] == 3 and len(evaluated) <= 2
    assert len(factors) == 51 + 21
    walked = [(a, b) for n, a, b in rows if n == 51]
    assert [a for a in dict.fromkeys(a for a, _ in walked)] == evaluated and len(walked) <= 4
    assert 0 < len(rows) - len(walked) <= 21
    # No plane's distances are made: the metric's rows are, per walk, the
    # dist(S(x), S(x), y) of the 2 images, the lhs of the 4 pairs of them,
    # and the distances of each evaluated row, each over the walk's points.
    assert len(metric_rows) == 2 * (2 + 4) + len(rows)
    assert sorted(set(metric_rows)) == [21, 51]
    # The lhs rows of each image; the fifth-factor rows are bounded from
    # the pair rows, so a plane's are made only when it is evaluated.
    assert images == [(51, 51 * 51)] * 2 + [(21, 21 * 21)] * 2
    assert {(ia, b) for n, ia, b in fifths if n == 51} == {(contraction._paper_S(a), b) for a, b in walked}


def test_contraction_item_maps_one_rhs_list_per_spec_per_row(monkeypatch, cleared_planes):
    """Above 1, paper_tau is t/2, the line of half, and every product on
    the grid is above 1: each of the two certificates reads one rhs list
    off that line per evaluated row; a cleared plane or row maps none.
    The evaluated and the cleared planes are the 51 of the walk, and the
    evaluated planes lie on that line, so they are walked a row at a
    time."""
    real, real_products = comparison.ComparisonFn._line, contraction.InequalitySides._row_products
    lengths, rows = [], []

    def counting(fn, k, values):
        if isinstance(values, list):
            lengths.append(len(values))
        return real(fn, k, values)

    def counting_products(sides, a, j, *args):
        rows.append(len(sides.points))
        return real_products(sides, a, j, *args)

    monkeypatch.setattr(comparison.ComparisonFn, "_line", counting)
    monkeypatch.setattr(contraction.InequalitySides, "_row_products", counting_products)
    item = repro._contraction_item(0)
    assert item["passed"] is True
    evaluated = cleared_planes.count(False)
    assert evaluated + cleared_planes.count(True) == len(cleared_planes) == 51
    assert 1 <= evaluated <= 2
    assert lengths.count(51 * 51) == 0 and 1 <= rows.count(51) <= 4 and lengths.count(51) == 2 * rows.count(51)


@pytest.mark.parametrize("matkowski", [False, True])
def test_contraction_item_names_a_failing_certificate(monkeypatch, matkowski):
    """A certificate that fails is the item's detail, with its number of
    failing triples, that of the pointwise reference walk. The item's grid
    is cut to 12 ray points, so that the reference walk is short; the case
    table's grid keeps its 20."""
    real_spec, real_grid = contraction.standard_spec, contraction.ray_grid
    # t/4 fails where paper_tau and half pass.
    quarter = comparison.piecewise_linear([(0.0, 0.0), (4.0, 1.0)], name="quarter")
    failing = dataclasses.replace(real_spec(matkowski), comparison=quarter)

    def spec(matkowski=False, failing_kind=matkowski):
        return failing if matkowski == failing_kind else real_spec(matkowski)

    monkeypatch.setattr(contraction, "standard_spec", spec)
    monkeypatch.setattr(contraction, "ray_grid", lambda carrier, n: real_grid(carrier, 12 if n == 50 else n))
    gap = spaces.builtin_space("quintic_gap")
    active = [3] + real_grid(gap.carrier, 12)
    _, failures, _ = reference_certificate(gap, failing, itertools.product(active, repeat=3))
    assert len(failures) > 0
    item = repro._contraction_item(0)
    assert item == {"name": "contraction", "passed": False, "detail": f"certificate fails ({len(failures)} triples)"}


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

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clustered import clustered_space
from psbmetric import random_valid_space, tabulated_space
from psbmetric import cli, contraction, spaces, topology
from psbmetric.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TWO_POINT_B_FILE = """\
points: 1 2
coefficient: 1
1 1 1 4
2 2 2 4
1 1 2 8
2 2 1 8
1 2 1 8
2 1 1 8
1 2 2 8
2 1 2 8
"""


def run_cli(*argv):
    return main(list(argv))


def run_subprocess(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "psbmetric", *argv],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


class TestExitCodes:
    def test_ball_success(self, capsys):
        assert run_cli("ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3") == 0
        assert "{1}" in capsys.readouterr().out

    def test_missing_space_file(self, capsys):
        assert run_cli("verify-axioms", "--space", "file:missing.psb") == 2

    def test_bad_selector(self, capsys):
        assert run_cli("verify-axioms", "--space", "quintic_ray") == 2

    def test_unknown_builtin(self, capsys):
        assert run_cli("verify-axioms", "--space", "builtin:nope") == 2

    def test_malformed_space_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.psb"
        bad.write_text("points: 1 2\ncoefficient: 1\n1 1 1\n", encoding="utf-8")
        assert run_cli("verify-axioms", "--space", f"file:{bad}") == 2

    def test_axiom_violation_exits_one(self, tmp_path, capsys):
        mutated = TWO_POINT_B_FILE.replace("1 1 2 8", "1 1 2 3")
        path = tmp_path / "mutated.psb"
        path.write_text(mutated, encoding="utf-8")
        assert run_cli("verify-axioms", "--space", f"file:{path}") == 1

    def test_certify_on_the_ray_fails_at_a_triple_of_its_pool(self, capsys):
        # The seed-0 pool holds a triple that 200 samples never drew: the
        # default walk of the whole pool lists it and exits 1.
        assert run_cli("certify", "--space", "builtin:quintic_ray", "--spec", "paper") == 1
        out = capsys.readouterr().out
        x = "1.5380782401191389"
        assert out.startswith("triples checked: 32768  passed: False\n")
        assert f"  fails at ({x}, {x}, {x}): lhs 243 > rhs 111.519" in out

    def test_certify_default_rejects_a_seed_on_a_finite_carrier(self, tmp_path, capsys):
        # A finite carrier's pool is every point: no seed changes it.
        path = tmp_path / "two.psb"
        path.write_text(TWO_POINT_B_FILE, encoding="utf-8")
        assert run_cli("certify", "--space", f"file:{path}", "--seed", "3") == 2
        assert capsys.readouterr().err == "error: --seed has no effect on a finite carrier\n"

    def test_certify_passes(self, capsys):
        code = run_cli(
            "certify", "--space", "builtin:quintic_gap", "--spec", "paper",
            "--samples", "200", "--seed", "0",
        )
        assert code == 0
        assert "passed: True" in capsys.readouterr().out

    def test_check_comparison_identity_fails(self, capsys):
        code = run_cli("check-comparison", "--fn", "identity", "--kind", "boyd-wong")
        assert code == 1

    def test_check_comparison_from_breakpoint_file(self, tmp_path, capsys):
        path = tmp_path / "halfish.json"
        path.write_text(json.dumps([[0, 0], [10, 4]]), encoding="utf-8")
        code = run_cli("check-comparison", "--fn", f"file:{path}", "--kind", "matkowski")
        assert code == 0

    @pytest.mark.parametrize("argv, what", [
        (["verify-axioms", "--space"], "space file"),
        (["check-comparison", "--kind", "matkowski", "--fn"], "breakpoints"),
    ], ids=["space", "breakpoints"])
    def test_a_file_that_is_not_utf8_is_one_error_line(self, argv, what, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("points: \xe9\n".encode("latin-1"))
        assert run_cli(*argv, f"file:{path}") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {what} {str(path)!r}: 'utf-8' codec can't decode")
        assert err.count("\n") == 1

    def test_untagged_comparison_needs_kind(self, capsys):
        assert run_cli("check-comparison", "--fn", "identity") == 2

    def test_sb_variant_rejects_two_point_a(self, capsys):
        code = run_cli(
            "verify-axioms", "--space", "builtin:two_point_a", "--variant", "sb-metric"
        )
        assert code == 1

    def test_float_overflow_is_one_error_line(self, capsys):
        code = run_cli("certify", "--space", "builtin:quintic_gap", "--bound", "1e80")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: quintic(") and err.endswith("overflows the float range\n")
        assert err.count("\n") == 1

    def test_fixpoint_converges(self, capsys):
        code = run_cli(
            "fixpoint", "--space", "builtin:quintic_gap", "--map", "paper_S", "--start", "7"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "7 -> 3 -> 0 -> 0" in out


# Shortest argv each subcommand accepts.
MINIMAL_ARGV = {
    "verify-axioms": ["--space", "builtin:two_point_a"],
    "ball": ["--space", "builtin:quintic_ray", "--center", "1", "--radius", "3"],
    "topology": ["--space", "builtin:two_point_a"],
    "separation": ["--space", "builtin:two_point_a"],
    "connected": ["--space", "builtin:two_point_a"],
    "cover-witness": ["--space", "builtin:quintic_ray", "--center", "1", "--indices", "3..20"],
    "check-comparison": ["--fn", "paper_tau"],
    "certify": ["--space", "builtin:quintic_gap"],
    "case-table": ["--space", "builtin:quintic_gap"],
    "fixpoint": ["--space", "builtin:quintic_gap", "--start", "7"],
    "repro": [],
}

# Subcommands that read a region carrier and so take --bound.
BOUND_COMMANDS = ("verify-axioms", "ball", "cover-witness", "certify", "case-table", "fixpoint")


class TestFlagRegistration:
    @pytest.mark.parametrize(
        "command, flag",
        [(command, "--tolerance") for command in MINIMAL_ARGV]
        + [
            (command, "--bound")
            for command in ("topology", "separation", "connected", "check-comparison", "repro")
        ],
    )
    def test_ignored_flag_is_rejected(self, command, flag, capsys):
        build_parser().parse_args([command, *MINIMAL_ARGV[command]])
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *MINIMAL_ARGV[command], flag, "10")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 10" in capsys.readouterr().err

    def test_flags_stay_where_they_are_read(self):
        parser = build_parser()
        for command in BOUND_COMMANDS:
            assert parser.parse_args([command, *MINIMAL_ARGV[command], "--bound", "10"]).bound == 10


class TestRejectedValues:
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--grid", "1"], "a ray grid needs at least 2 points, got 1"),
            (["--grid", "0"], "a ray grid needs at least 2 points, got 0"),
            (["--grid", "-3"], "a ray grid needs at least 2 points, got -3"),
            (["--grid", "5", "--bound", "2"], "no interval of positive length lies below the bound 2.0"),
            (["--grid", "2", "--bound", "4"], "no interval of positive length lies below the bound 4.0"),
            (["--samples", "0"], "sample_count must be >= 1"),
            (["--samples", "-5"], "sample_count must be >= 1"),
        ],
    )
    def test_certify_size_is_one_error_line(self, extra, message, capsys):
        assert run_cli("certify", "--space", "builtin:quintic_gap", *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_case_table_on_a_zero_length_ray_is_one_error_line(self, capsys):
        assert run_cli("case-table", "--space", "builtin:quintic_gap", "--bound", "4") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no interval of positive length lies below the bound 4.0\n"

    # Rays one and a few ulps long, on which 20 evenly spaced floats repeat.
    @pytest.mark.parametrize("bound", ["4.000000000000001", "4.00000000000001"])
    @pytest.mark.parametrize("command", [("case-table",), ("certify", "--grid", "20")])
    def test_grid_on_a_ray_too_short_for_distinct_points_is_one_error_line(self, command, bound, capsys):
        assert run_cli(*command, "--space", "builtin:quintic_gap", "--bound", bound) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the interval [4, {bound}] is too short for 20 distinct grid points\n"

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e309"])
    @pytest.mark.parametrize("command", BOUND_COMMANDS)
    def test_non_finite_bound_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *MINIMAL_ARGV[command], f"--bound={value}")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --bound: invalid finite float value: '{value}'" in captured.err


    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e309"])
    def test_non_finite_radius_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("ball", "--space", "builtin:quintic_ray", "--center", "1", f"--radius={value}")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert f"argument --radius: invalid finite float value: '{value}'" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309"])
    def test_non_finite_start_is_one_error_line(self, value, capsys):
        argv = ["fixpoint", "--space", "builtin:quintic_gap", f"--start={value}"]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: start point must be finite, got {float(value)}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300", "0", "2"])
    def test_a_tolerance_is_a_usage_error(self, value, capsys):
        # Convergence is an exact repeat: fixpoint takes no tolerance.
        with pytest.raises(SystemExit) as exc:
            run_cli(*["fixpoint", *MINIMAL_ARGV["fixpoint"]], f"--tolerance={value}")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --tolerance={value}" in captured.err

    def test_the_orbit_does_not_stop_at_a_point_that_is_not_fixed(self):
        # A tolerance of 2 once stopped the orbit at 3, which S sends to 0.
        argv = ["fixpoint", "--space", "builtin:quintic_gap", "--start", "4.5"]
        result = run_subprocess(*argv, "--tolerance", "2")
        assert (result.returncode, result.stdout) == (2, "")
        assert "unrecognized arguments: --tolerance 2" in result.stderr
        code, out, err = run_captured(argv)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "orbit: 4.5 -> 3 -> 0 -> 0"
        assert out.splitlines()[2].startswith("converged: True  limit: 0 ")


class TestLazyCoverScan:
    @pytest.mark.parametrize("extra, total", [
        (["--indices", "1..100000000"], 100000000),
        (["--indices", "3..20", "--subfamily", "1..600000,1..600000"], 1200000),
    ], ids=["one-range", "in-all"])
    def test_too_many_indices_exit_2_before_expanding(self, extra, total):
        # Each range is sized before it is expanded: under 1 GiB of address
        # space, expanding 10^8 indices fails instead of growing.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        result = run_subprocess(
            "cover-witness", "--space", "builtin:quintic_ray", "--center", "1", *extra,
            preexec_fn=limit_memory, timeout=60,
        )
        message = f"error: {total} indices exceed the limit of {cli.MAX_INDICES}\n"
        assert (result.returncode, result.stdout, result.stderr) == (2, "", message)

    @pytest.mark.parametrize("bound", ["1e9", "1e40", "1e300"])
    def test_huge_bound_stops_at_the_first_witness(self, bound):
        # The lattice up to the bound has more points than memory holds; the
        # scan has to stop at the witness 2. The child gets 1 GiB of address
        # space, so a scan that collects the lattice fails instead of growing.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        result = run_subprocess(
            "cover-witness", "--space", "builtin:quintic_ray", "--center", "1",
            "--indices", "3..20", "--bound", bound, preexec_fn=limit_memory, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, "uncovered witness: 2\n", "")


class TestVerdictParity:
    def test_verify_axioms_text_and_json_agree(self, capsys):
        assert run_cli("verify-axioms", "--space", "builtin:two_point_a") == 0
        text = capsys.readouterr().out
        assert run_cli("verify-axioms", "--space", "builtin:two_point_a", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert "passed: True" in text
        assert f"checked: {payload['checked']}" in text

    def test_separation_json(self, capsys):
        assert run_cli("separation", "--space", "builtin:two_point_a", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t0"] is True and payload["t1"] is False and payload["t2"] is False

    def test_topology_json(self, capsys):
        assert run_cli("topology", "--space", "builtin:two_point_b", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opens"] == [[], ["1"], ["2"], ["1", "2"]]
        assert payload["base"] is True and payload["base_witness"] is None

    def test_connected_json(self, capsys):
        assert run_cli("connected", "--space", "builtin:two_point_b", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["connected"] is False
        assert payload["witness"] == [["1"], ["2"]]

    def test_cover_witness_json(self, capsys):
        code = run_cli(
            "cover-witness", "--space", "builtin:quintic_ray", "--center", "1",
            "--indices", "3..20", "--subfamily", "3,5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"] == "2"

    def test_case_table_json(self, capsys):
        code = run_cli("case-table", "--space", "builtin:quintic_gap", "--format", "json")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["lhs"] for row in payload["rows"]] == [
            0, 243, 486, 486, 243, 243, 486, 243, 243, 486, 243, 486, 486, 486, 243
        ]
        assert payload["passed"] is True

    def test_fixpoint_csv(self, capsys):
        code = run_cli(
            "fixpoint", "--space", "builtin:quintic_gap", "--start", "7",
            "--format", "csv",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,a_k,gap_k"
        assert lines[1] == "0,7,34100"


def space_file_text(space) -> str:
    lines = ["points: " + " ".join(map(str, space.carrier.points)), f"coefficient: {space.coefficient}"]
    lines += [f"{p} {q} {r} {v}" for (p, q, r), v in sorted(space.metric.table.items())]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def no_base_file(tmp_path_factory):
    """Draw 2 of repro's T0 item at seed 0: the ball {2, 3} at 3 is not open."""
    rng = random.Random("psbm:t0:0")
    for _ in range(3):
        space = random_valid_space(rng)
    path = tmp_path_factory.mktemp("spaces") / "no-base.psb"
    path.write_text(space_file_text(space), encoding="utf-8")
    return f"file:{path}"


class TestSpaceWhoseBallsAreNoBase:
    @pytest.mark.parametrize("command, text, payload", [
        (
            "topology",
            "carrier {1, 2, 3}\nopens: {}, {1}, {3}, {1, 2}, {1, 3}, {1, 2, 3}\nbase: False (3, 2, 1)\n",
            {
                "carrier": ["1", "2", "3"],
                "opens": [[], ["1"], ["3"], ["1", "2"], ["1", "3"], ["1", "2", "3"]],
                "base": False,
                "base_witness": ["3", "2", "1"],
            },
        ),
        (
            "separation",
            "T0: True  T1: False  T2: False\n  t1 fails for pair (1, 2)\n  t2 fails for pair (1, 2)\n",
            {"t0": True, "t1": False, "t2": False, "witnesses": {"t0": [], "t1": [["1", "2"]], "t2": [["1", "2"]]}},
        ),
        (
            "connected",
            "connected: False  witness: {1, 2} | {3}\n",
            {"connected": False, "witness": [["1", "2"], ["3"]]},
        ),
    ])
    def test_text_and_json(self, no_base_file, command, text, payload):
        assert run_captured([command, "--space", no_base_file]) == (0, text, "")
        code, out, err = run_captured([command, "--space", no_base_file, "--format", "json"])
        assert (code, json.loads(out), err) == (0, payload, "")


CLUSTERED_PAIRS = [(0, 3), (0, 5), (1, 4), (1, 6), (2, 7), (3, 5), (4, 6)]


@pytest.fixture(scope="module")
def clustered_file(tmp_path_factory):
    """The bench's clustered space on 8 points in clusters {1, 4, 6},
    {0, 3, 5} and {2, 7}: the T1 and T2 witnesses are the pairs within a
    cluster, and the topology is disconnected."""
    clusters, space = clustered_space(random.Random("cli:clustered"), (3, 3, 2))
    assert clusters == ((1, 4, 6), (0, 3, 5), (2, 7))
    path = tmp_path_factory.mktemp("spaces") / "clustered.psb"
    path.write_text(space_file_text(space), encoding="utf-8")
    return f"file:{path}"


class TestClusteredSpace:
    @pytest.mark.parametrize("command, text, payload", [
        (
            "separation",
            "T0: True  T1: False  T2: False\n"
            + "".join(f"  {level} fails for pair ({u}, {v})\n" for level in ("t1", "t2") for u, v in CLUSTERED_PAIRS),
            {
                "t0": True, "t1": False, "t2": False,
                "witnesses": {
                    "t0": [],
                    "t1": [[str(u), str(v)] for u, v in CLUSTERED_PAIRS],
                    "t2": [[str(u), str(v)] for u, v in CLUSTERED_PAIRS],
                },
            },
        ),
        (
            "connected",
            "connected: False  witness: {0, 1, 3, 4, 5, 6} | {2, 7}\n",
            {"connected": False, "witness": [["0", "1", "3", "4", "5", "6"], ["2", "7"]]},
        ),
    ])
    def test_text_and_json(self, clustered_file, command, text, payload):
        assert run_captured([command, "--space", clustered_file]) == (0, text, "")
        code, out, err = run_captured([command, "--space", clustered_file, "--format", "json"])
        assert (code, json.loads(out), err) == (0, payload, "")


class TestClosedStdout:
    def test_a_reader_that_stops_early_ends_the_run_quietly(self, tmp_path):
        # The discrete topology on 12 points has 4096 opens, far more JSON
        # than a pipe buffers, so the writer meets the closed pipe.
        labels = range(12)
        table = {(p, q, r): int(not p == q == r) for p, q, r in itertools.product(labels, repeat=3)}
        path = tmp_path / "discrete.psb"
        path.write_text(space_file_text(tabulated_space(labels, table)), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "psbmetric", "topology", "--space", f"file:{path}", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()


class TestLoadedSpaces:
    def test_space_file_behaves_like_builtin(self, tmp_path, capsys):
        path = tmp_path / "b.psb"
        path.write_text(TWO_POINT_B_FILE, encoding="utf-8")
        assert run_cli("verify-axioms", "--space", f"file:{path}") == 0
        capsys.readouterr()
        assert run_cli("connected", "--space", f"file:{path}", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["connected"] is False


class TestStringLabels:
    SPACE = """\
points: left right
coefficient: 1
left left left 4
right right right 4
left left right 8
right right left 8
left right left 8
right left left 8
left right right 8
right left right 8
"""

    def test_labelled_space_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "labels.psb"
        path.write_text(self.SPACE, encoding="utf-8")
        assert run_cli("verify-axioms", "--space", f"file:{path}") == 0
        capsys.readouterr()
        assert run_cli("topology", "--space", f"file:{path}", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["opens"] == [[], ["left"], ["right"], ["left", "right"]]
        assert run_cli(
            "ball", "--space", f"file:{path}", "--center", "left",
            "--radius", "0.5", "--candidates", "left,right",
        ) == 0
        assert "{left}" in capsys.readouterr().out


# Subcommands that sample and so take --seed (and read PSBM_SEED).
SEED_COMMANDS = ("verify-axioms", "ball", "certify", "repro")


class TestSeedHandling:
    def test_env_seed_matches_explicit_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("PSBM_SEED", "5")
        assert run_cli("certify", "--space", "builtin:quintic_gap", "--format", "json") == 0
        via_env = capsys.readouterr().out
        monkeypatch.delenv("PSBM_SEED")
        assert run_cli(
            "certify", "--space", "builtin:quintic_gap", "--format", "json", "--seed", "5"
        ) == 0
        via_flag = capsys.readouterr().out
        assert via_env == via_flag

    def test_invalid_env_seed_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("PSBM_SEED", "xyz")
        assert run_cli("certify", "--space", "builtin:quintic_gap") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: PSBM_SEED must be an integer, got 'xyz'\n"

    def test_explicit_seed_wins_over_an_invalid_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("PSBM_SEED", "xyz")
        assert run_cli("verify-axioms", "--space", "builtin:quintic_gap", "--samples", "50", "--seed", "1") == 0

    @pytest.mark.parametrize("command", [c for c in MINIMAL_ARGV if c not in SEED_COMMANDS])
    def test_seed_is_rejected_where_nothing_samples(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *MINIMAL_ARGV[command], "--seed", "7")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [c for c in MINIMAL_ARGV if c not in SEED_COMMANDS])
    def test_invalid_env_seed_is_ignored_where_nothing_samples(self, command, capsys, monkeypatch):
        monkeypatch.setenv("PSBM_SEED", "xyz")
        assert run_cli(command, *MINIMAL_ARGV[command]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_seed_stays_where_it_is_read(self):
        parser = build_parser()
        for command in SEED_COMMANDS:
            assert parser.parse_args([command, *MINIMAL_ARGV[command], "--seed", "7"]).seed == 7


# Paths of the seeded subcommands that sample nothing.
UNSEEDED_PATHS = {
    "exhaustive verify-axioms": (["verify-axioms", "--space", "builtin:two_point_a"], "on an exhaustive check"),
    "ball --candidates": (
        ["ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3", "--candidates", "1,2"],
        "with --candidates",
    ),
    "certify --grid": (["certify", "--space", "builtin:quintic_gap", "--grid", "20"], "with --grid"),
    "ball on a finite carrier": (
        ["ball", "--space", "builtin:two_point_a", "--center", "1", "--radius", "3"], "on a finite carrier",
    ),
}


class TestSeedOnPathsThatDoNotSample:
    @pytest.mark.parametrize("path", sorted(UNSEEDED_PATHS))
    def test_explicit_seed_is_one_error_line(self, path, capsys):
        argv, where = UNSEEDED_PATHS[path]
        assert run_cli(*argv, "--seed", "7") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed has no effect {where}\n"

    @pytest.mark.parametrize("path", sorted(UNSEEDED_PATHS))
    def test_invalid_env_seed_is_not_read(self, path, capsys, monkeypatch):
        argv, _ = UNSEEDED_PATHS[path]
        monkeypatch.setenv("PSBM_SEED", "xyz")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().err == ""

    def test_sampled_check_of_a_finite_space_still_takes_a_seed(self, capsys, monkeypatch):
        assert run_cli("verify-axioms", "--space", "builtin:two_point_a", "--samples", "20", "--seed", "7") == 0
        monkeypatch.setenv("PSBM_SEED", "xyz")
        assert run_cli("verify-axioms", "--space", "builtin:two_point_a", "--samples", "20") == 2
        assert capsys.readouterr().err == "error: PSBM_SEED must be an integer, got 'xyz'\n"


class TestIntegerOverflow:
    """Exact integer distances beyond the float range meet a float. Every
    comparison is decided on true values, so each command prints its
    verdict, which these tests compute in Fraction; only a violation whose
    right-hand side has no float to print exits 2."""

    BIG = "1" + "0" * 400
    # verify-axioms meets it in coefficient * sum.
    SCALED = [("coefficient: 1", "coefficient: 1.5"), ("1 2 2 8", f"1 2 2 {BIG}")]
    # Here in the sums of a whole rectangle row, before any of its tuples;
    # then in the row for (1, 1, 2), after the row for (1, 1, 1) was walked.
    SCALED_ROW = [("coefficient: 1", "coefficient: 1.5"), ("1 1 2 8", f"1 1 2 {BIG}")]
    AFTER_WALK = [("coefficient: 1", "coefficient: 1.5"), ("1 1 1 4", "1 1 1 100"), ("2 2 1 8", f"2 2 1 {BIG}")]
    GAPS = [("1 1 2 8", f"1 1 2 {BIG}"), ("2 2 1 8", f"2 2 1 {BIG}")]
    # A float radius plus this self-distance.
    SELF = [("1 1 1 4", f"1 1 1 {BIG}")]
    # 1.5 * (8 + 8 + 8) - 10^400 < 4 = S(2,2,2): a violation at (2, 2, 2, 1)
    # whose right-hand side has no float.
    SELF_SCALED = [("coefficient: 1", "coefficient: 1.5"), ("1 1 1 4", f"1 1 1 {BIG}")]

    @staticmethod
    def write(tmp_path, edits):
        text = TWO_POINT_B_FILE
        for before, after in edits:
            text = text.replace(before, after)
        path = tmp_path / "space.psb"
        path.write_text(text, encoding="utf-8")
        return path, spaces.load_tabulated_space(text)

    @staticmethod
    def exact_violations(space):
        """[axiom, witness labels] of each partial-S_b violation, decided in
        Fraction, in report order."""
        pts, t = space.carrier.points, Fraction(space.coefficient)

        def d(*tpl):
            return Fraction(space.metric(*tpl))

        found = []
        for p, q, r in itertools.product(pts, repeat=3):
            if (p == q == r) != (d(p, q, r) == d(p, p, p) == d(q, q, q) == d(r, r, r)):
                found.append([1, [p, q, r]])
            if d(p, p, p) > d(p, q, r):
                found.append([2, [p, q, r]])
        found += [[3, [p, q]] for p, q in itertools.product(pts, repeat=2) if d(p, p, q) != d(q, q, p)]
        found += [
            [4, [p, q, r, s]] for p, q, r, s in itertools.product(pts, repeat=4)
            if d(p, q, r) > t * (d(p, p, s) + d(q, q, s) + d(r, r, s)) - d(s, s, s)
        ]
        return [[axiom, [str(x) for x in tpl]] for axiom, tpl in found]

    @pytest.mark.parametrize("edits", [SCALED, SCALED_ROW, AFTER_WALK, GAPS, SELF],
                             ids=["scaled", "scaled row", "after a walk", "gaps", "self"])
    @pytest.mark.parametrize("extra", [[], ["--samples", "50"]], ids=["exhaustive", "sampled"])
    def test_verify_axioms_prints_the_exact_verdict(self, edits, extra, tmp_path):
        path, space = self.write(tmp_path, edits)
        code, out, err = run_captured(["verify-axioms", "--space", f"file:{path}", *extra, "--format", "json"])
        expected = self.exact_violations(space)
        found = [[v["axiom"], v["witness"]] for v in json.loads(out)["violations"]]
        assert (code, err) == (1 if found else 0, "")
        if extra:  # a sample finds some of the exhaustive violations
            assert all(v in expected for v in found)
        else:
            assert found == expected

    def test_a_violation_without_a_float_right_hand_side_is_one_error_line(self, tmp_path):
        path, space = self.write(tmp_path, self.SELF_SCALED)
        assert [4, ["2", "2", "2", "1"]] in self.exact_violations(space)
        argv = ["verify-axioms", "--space", f"file:{path}"]
        assert run_captured(argv) == (2, "", "error: axiom 4 at (2, 2, 2, 1) overflows the float range\n")

    def test_the_smallest_balls_compare_exactly(self, tmp_path):
        # dist(x,x,z) = 10^400 > 4 = dist(x,x,x) for x != z: each smallest
        # ball {z : dist(x,x,z) <= dist(x,x,x)} is {x}, and the topology is
        # discrete.
        path, space = self.write(tmp_path, self.GAPS)
        assert all(Fraction(space.metric(x, x, z)) > Fraction(space.metric(x, x, x)) for x, z in ((1, 2), (2, 1)))
        assert run_captured(["topology", "--space", f"file:{path}"]) == (
            0, "carrier {1, 2}\nopens: {}, {1}, {2}, {1, 2}\nbase: True\n", "")
        assert run_captured(["separation", "--space", f"file:{path}"]) == (0, "T0: True  T1: True  T2: True\n", "")

    def test_a_float_radius_meets_a_self_distance_beyond_the_float_range(self, tmp_path):
        # The cut 1.0 + 10^400 has no float; both distances lie below it.
        path, space = self.write(tmp_path, self.SELF)
        cut = Fraction(1.0) + Fraction(space.metric(1, 1, 1))
        assert all(Fraction(space.metric(1, 1, z)) < cut for z in (1, 2))
        argv = ["ball", "--space", f"file:{path}", "--center", "1", "--radius", "1"]
        assert run_captured(argv) == (0, "D(1; 1.0) = {1, 2}\n", "")

    def test_the_ball_base_check_compares_exactly(self, tmp_path):
        # The float dist(1,1,3) = 0.5 against dist(1,1,2) = 10^400: every
        # smallest ball is a singleton, so every ball is open.
        values = {(1, 1, 1): "0", (2, 2, 2): "0", (3, 3, 3): "0", (1, 1, 2): self.BIG, (1, 1, 3): "0.5"}
        path = tmp_path / "space.psb"
        path.write_text("points: 1 2 3\ncoefficient: 1\n" + "".join(
            f"{a} {b} {c} {values.get((a, b, c), '1')}\n" for a, b, c in itertools.product((1, 2, 3), repeat=3)
        ), encoding="utf-8")
        code, out, err = run_captured(["topology", "--space", f"file:{path}", "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["base"] is True and len(report["opens"]) == 8


class TestExactFloatVerdicts:
    def test_a_self_distance_above_its_row_by_1e_9_exits_1(self, tmp_path):
        # S(1,1,1) = 8.000000001 > 8 = S(1,1,2): self-minimality fails, by
        # less than the relative slack of 1e-9 that float values once had.
        path = tmp_path / "space.psb"
        path.write_text(TWO_POINT_B_FILE.replace("1 1 1 4", "1 1 1 8.000000001"), encoding="utf-8")
        code, out, err = run_captured(["verify-axioms", "--space", f"file:{path}", "--format", "json"])
        assert (code, err) == (1, "")
        assert [[v["axiom"], v["witness"]] for v in json.loads(out)["violations"]] == [
            [2, ["1", "1", "2"]], [2, ["1", "2", "1"]], [2, ["1", "2", "2"]],
        ]

    def test_right_hand_sides_that_sum_to_inf_are_decided_exactly(self):
        # 206 of the drawn right-hand sides sum to inf in floats; decided on
        # their exact values they all hold, and the JSON holds no Infinity.
        def no_constant(name):
            raise AssertionError(f"JSON holds {name}")

        argv = ["verify-axioms", "--space", "builtin:quintic_ray", "--samples", "2000", "--bound", "3.3e61"]
        code, out, err = run_captured([*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out, parse_constant=no_constant)["passed"] is True


class TestCertifyBeyondTheFloatRange:
    """An integer distance beyond the float range reaches a power in the
    contraction inequality: at dist(a, b, c) for (4, 5, 4), or at the
    self-gap g(4) = dist(4, 4, S(4)) for (4, 4, 3)."""

    @staticmethod
    def text(big_at):
        return "points: 0 3 4 5\ncoefficient: 1\n" + "".join(
            f"{a} {b} {c} {TestIntegerOverflow.BIG if (a, b, c) == big_at else 1 if a == b == c else 8}\n"
            for a, b, c in itertools.product((0, 3, 4, 5), repeat=3)
        )

    @pytest.mark.parametrize("big_at", [(4, 5, 4), (4, 4, 3)])
    @pytest.mark.parametrize("extra", [[], ["--samples", "20"]], ids=["default", "samples"])
    def test_certify_is_one_error_line(self, big_at, extra, tmp_path):
        path = tmp_path / "space.psb"
        path.write_text(self.text(big_at), encoding="utf-8")
        argv = ["certify", "--space", f"file:{path}", *extra]
        assert run_captured(argv) == (2, "", "error: the contraction inequality overflows the float range\n")


class TestCoverWitnessCentre:
    """A radius whose float cut rounds to the self-distances still covers
    the centre: dist(1,1,1) < 1 + dist(1,1,1) exactly."""

    TEXT = "points: 1 2\ncoefficient: 1\n" + "".join(
        f"{a} {b} {c} {'1e15' if a == b == c else '2e15'}\n" for a, b, c in itertools.product((1, 2), repeat=3)
    )

    def test_the_witness_is_the_other_point(self, tmp_path):
        path = tmp_path / "space.psb"
        path.write_text(self.TEXT, encoding="utf-8")
        argv = ["cover-witness", "--space", f"file:{path}", "--center", "1", "--indices", "1..3"]
        assert run_captured(argv) == (0, "uncovered witness: 2\n", "")

    @pytest.mark.parametrize("space, center, extra", [
        ("big-self", "1", []),
        ("builtin:quintic_gap", "4.5", []),
        ("builtin:quintic_ray", "1", ["--bound", "2.5"]),
    ], ids=["float-self-distance", "float-centre", "float-candidate"])
    def test_an_index_beyond_the_float_range_covers_exactly(self, space, center, extra, tmp_path):
        # 10^400 plus a float self-distance, or a float distance against the
        # integer cut 10^400 + 1: no float holds the cut, and every scanned
        # point lies below it.
        if space == "big-self":
            path = tmp_path / "space.psb"
            path.write_text(self.TEXT, encoding="utf-8")
            space = f"file:{path}"
        resolved = cli._with_bound(cli._resolve_space(space), 2.5 if extra else None)
        c = spaces.parse_point(center)
        cut = Fraction(10**400) + Fraction(resolved.metric(c, c, c))
        scan = topology.witness_candidates(resolved, 2.5 if extra else 64)
        assert all(Fraction(resolved.metric(c, c, z)) < cut for z in scan)
        argv = ["cover-witness", "--space", space, "--center", center, "--indices", "1," + "1" + "0" * 400, *extra]
        assert run_captured(argv) == (0, "covered: every scanned point lies in some subfamily ball\n", "")


class TestPointsBeyondTheFloatRange:
    """A carrier point that is an integer beyond the float range sorts by
    its value."""

    BIG = "1" + "0" * 400
    TEXT = f"points: 1 {BIG}\ncoefficient: 1\n" + "".join(
        f"{a} {b} {c} {4 if a == b == c else 8}\n" for a, b, c in itertools.product(("1", BIG), repeat=3)
    )

    @pytest.mark.parametrize("command, expected", [
        ("verify-axioms", "variant: partial-sb  checked: 36  passed: True\n"),
        ("separation", "T0: True  T1: True  T2: True\n"),
        ("connected", f"connected: False  witness: {{1}} | {{{BIG}}}\n"),
    ])
    def test_the_command_answers(self, command, expected, tmp_path):
        path = tmp_path / "space.psb"
        path.write_text(self.TEXT, encoding="utf-8")
        assert run_captured([command, "--space", f"file:{path}"]) == (0, expected, "")

    def test_topology_lists_the_point_last(self, tmp_path):
        path = tmp_path / "space.psb"
        path.write_text(self.TEXT, encoding="utf-8")
        code, out, err = run_captured(["topology", "--space", f"file:{path}", "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["carrier"] == ["1", self.BIG]


class TestSpaceFileNumbers:
    @pytest.mark.parametrize("old, new", [
        ("coefficient: 1", "coefficient: nan"),
        ("coefficient: 1", "coefficient: inf"),
        ("coefficient: 1", "coefficient: 1e400"),
        ("1 1 2 8", "1 1 2 nan"),
        ("1 1 2 8", "1 1 2 inf"),
        ("1 1 2 8", "1 1 2 1e400"),
    ])
    @pytest.mark.parametrize("command", ["verify-axioms", "topology"])
    def test_non_finite_number_is_one_error_line(self, command, old, new, tmp_path, capsys):
        path = tmp_path / "space.psb"
        path.write_text(TWO_POINT_B_FILE.replace(old, new), encoding="utf-8")
        assert run_cli(command, "--space", f"file:{path}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        token = new.split()[-1]
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f"{token!r} is not a finite number\n")


class TestPointsOffTheCarrier:
    @pytest.mark.parametrize("argv, label", [
        (["fixpoint", "--space", "builtin:quintic_gap", "--start", "abc"], "abc"),
        (["fixpoint", "--space", "builtin:quintic_gap", "--start", "2"], "2"),
        (["fixpoint", "--space", "builtin:quintic_gap", "--start", "1.5"], "1.5"),
        (["ball", "--space", "builtin:quintic_ray", "--center", "0.5", "--radius", "3"], "0.5"),
        (["ball", "--space", "builtin:quintic_ray", "--center", "inf", "--radius", "1"], "inf"),
        (["ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3",
          "--candidates", "1,0.5"], "0.5"),
        (["ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3",
          "--candidates", "1,abc"], "abc"),
        (["cover-witness", "--space", "builtin:quintic_ray", "--center", "abc",
          "--indices", "3..20"], "abc"),
        (["cover-witness", "--space", "builtin:quintic_gap", "--center", "2",
          "--indices", "3..20"], "2"),
    ])
    def test_point_off_the_carrier_is_one_error_line(self, argv, label, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point {label} is not in the carrier\n"

    def test_image_off_the_carrier_names_the_map_point_and_image(self, tmp_path, capsys):
        # paper_S sends 1 to 3, which the two-point file does not contain.
        path = tmp_path / "two.psb"
        path.write_text(TWO_POINT_B_FILE, encoding="utf-8")
        for extra in ([], ["--format", "csv"], ["--format", "json"]):
            assert run_cli("fixpoint", "--space", f"file:{path}", "--start", "1", *extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: map paper_S sends 1 to 3, which is not in the carrier\n"

    @pytest.mark.parametrize("argv, message", [
        # The grid [1, 2, ..., 64] holds 3.0, which paper_S sends to 0.
        (["certify", "--space", "builtin:quintic_ray", "--spec", "paper", "--grid", "64"],
         "map paper_S sends 3.0 to 0, which is not in the carrier"),
        (["certify", "--space", "builtin:quintic_ray", "--spec", "paper", "--grid", "64", "--format", "json"],
         "map paper_S sends 3.0 to 0, which is not in the carrier"),
        (["fixpoint", "--space", "builtin:quintic_ray", "--start", "3"],
         "map paper_S sends 3 to 0, which is not in the carrier"),
        (["certify", "--space", "builtin:two_point_a", "--spec", "paper"],
         "map paper_S sends 1 to 3, which is not in the carrier"),
    ])
    def test_certify_names_the_map_image_off_the_carrier(self, argv, message, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_carrier_images_still_iterate_on_a_file_space(self, tmp_path, capsys):
        path = tmp_path / "two.psb"
        path.write_text(TWO_POINT_B_FILE, encoding="utf-8")
        assert run_cli("fixpoint", "--space", f"file:{path}", "--map", "identity", "--start", "2") == 0
        assert capsys.readouterr().out == "orbit: 2 -> 2\ngaps: [4]\nconverged: True  limit: 2  limit gap: 4\n"

    @pytest.mark.parametrize("extra", [["--start", "7"], ["--start", "100", "--bound", "64"], ["--start", "4.5"]])
    def test_carrier_starts_still_iterate(self, extra, capsys):
        assert run_cli("fixpoint", "--space", "builtin:quintic_gap", *extra) == 0
        assert "converged: True  limit: 0" in capsys.readouterr().out

    def test_ball_center_above_the_bound_is_a_carrier_point(self, capsys):
        assert run_cli("ball", "--space", "builtin:quintic_ray", "--center", "100",
                       "--radius", "1", "--bound", "64") == 0
        assert capsys.readouterr().out == "D(100; 1.0) = {100}\n"


class TestBallCentre:
    def test_a_radius_below_the_float_margin_keeps_the_centre(self, tmp_path, capsys):
        # Self-distances 1e15, every other value 2e15: the comparator's margin
        # (1e-12 of 1e15) is wider than the radius, yet the centre lies in
        # every ball around it.
        lines = ["points: 1 2", "coefficient: 1"] + [
            f"{p} {q} {r} {'1e15' if p == q == r else '2e15'}"
            for p, q, r in itertools.product((1, 2), repeat=3)
        ]
        path = tmp_path / "space.psb"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("verify-axioms", "--space", f"file:{path}") == 0
        capsys.readouterr()
        argv = ["ball", "--space", f"file:{path}", "--center", "1", "--radius", "0.5", "--candidates", "1,2"]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == "D(1; 0.5) = {1}\n"


class TestInternalErrors:
    @pytest.mark.parametrize("error", [TypeError("unsupported operand"), ValueError("math domain error")])
    def test_an_unexpected_exception_is_exit_3_and_one_line(self, error, monkeypatch, capsys):
        def broken(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_verify_axioms", broken)
        assert run_cli("verify-axioms", "--space", "builtin:two_point_a") == cli.EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {type(error).__name__}: {error}\n"

    @pytest.mark.parametrize("argv, message", [
        (["ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "-1"], "radius must be positive"),
        (["cover-witness", "--space", "builtin:quintic_ray", "--center", "1", "--indices", "3..x"],
         "invalid literal for int() with base 10: 'x'"),
        (["verify-axioms", "--space", "builtin:quintic_ray", "--bound", "0.5", "--samples", "5"],
         "sample must be nonempty"),
    ], ids=["invalid-argument", "indices", "empty-sample"])
    def test_usage_errors_stay_exit_2(self, argv, message, capsys):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestEmptyCoverScan:
    @pytest.mark.parametrize("bound", ["-5", "0.5"])
    def test_a_scan_without_points_is_one_error_line(self, bound, capsys):
        argv = ["cover-witness", "--space", "builtin:quintic_ray", "--center", "1",
                "--indices", "3..20", "--bound", bound]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no carrier point to scan up to the search bound {float(bound)}\n"

    def test_a_scan_of_the_isolated_points_only_still_answers(self, capsys):
        argv = ["cover-witness", "--space", "builtin:quintic_gap", "--center", "3",
                "--indices", "1..3", "--bound", "3.5"]
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out == "uncovered witness: 0\n"


# Flags that the chosen path would ignore.
IGNORED_FLAGS = {
    "certify --grid --samples": (
        ["certify", "--space", "builtin:quintic_gap", "--grid", "5", "--samples", "7"],
        "--samples has no effect with --grid",
    ),
    "ball --candidates --bound": (
        ["ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3",
         "--candidates", "1,2", "--bound", "2"],
        "--bound has no effect with --candidates",
    ),
} | {
    f"{command} --bound on a finite carrier": (
        [command, *(a.replace("quintic_ray", "two_point_a").replace("quintic_gap", "two_point_a")
                    for a in MINIMAL_ARGV[command]), "--bound", "5"],
        "--bound has no effect on a finite carrier",
    )
    for command in BOUND_COMMANDS
}


class TestFlagsThatChangeNothing:
    @pytest.mark.parametrize("path", sorted(IGNORED_FLAGS))
    def test_flag_is_one_error_line(self, path, capsys):
        argv, message = IGNORED_FLAGS[path]
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "path",
        ["certify --grid --samples", "ball --candidates --bound", "verify-axioms --bound on a finite carrier"],
    )
    def test_without_the_flag_the_path_runs(self, path, capsys):
        argv, message = IGNORED_FLAGS[path]
        flag = message.split()[0]
        argv = argv[:argv.index(flag)] + argv[argv.index(flag) + 2:]
        assert run_cli(*argv) == 0

    def test_default_walks_every_triple_of_the_seeded_pool(self, capsys, monkeypatch):
        # Without --grid and --samples, certify decides every triple of the
        # seeded carrier sample, as certify(points=pool) does, where it
        # used to draw 200 of them; --samples 200 still draws them.
        for name, matkowski, seed in itertools.product(["quintic_gap", "quintic_ray"], [False, True], range(5)):
            space = spaces.builtin_space(name)
            spec = contraction.standard_spec(matkowski=matkowski)
            flags = ["--matkowski"] * matkowski
            report = contraction.certify(space, spec, points=spaces.sample_carrier(space, seed=seed))
            expected = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
            argv = ["certify", "--space", f"builtin:{name}", *flags, "--format", "json"]
            assert run_cli(*argv, "--seed", str(seed)) == (0 if report.passed else 1)
            assert capsys.readouterr().out == expected
            monkeypatch.setenv("PSBM_SEED", str(seed))
            assert run_cli(*argv) == (0 if report.passed else 1)
            assert capsys.readouterr().out == expected
            monkeypatch.delenv("PSBM_SEED")
            sampled = contraction.certify(space, spec, sample_count=200, seed=seed)
            assert run_cli(*argv, "--samples", "200", "--seed", str(seed)) == (0 if sampled.passed else 1)
            assert capsys.readouterr().out == json.dumps(sampled.to_dict(), sort_keys=True, indent=2) + "\n"
            assert report.triples_checked > sampled.triples_checked


def run_captured(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


NUMBER_TOKENS = st.one_of(
    st.integers(min_value=0, max_value=12).map(str),
    st.integers(min_value=-3).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0.5", "1.5", "2", "x", "1e-10"]),
)
LABEL_TOKENS = st.sampled_from(["1", "2", "3", "a", "b", "2.5", "-1", "nan", "inf", "1.0"])
JUNK_LINES = st.sampled_from(
    ["", "# comment", "1 2", "1 1 1 1 1", "points: 1", "coefficient: 1", "1 1 1 4 # tail"]
)


@st.composite
def space_file_texts(draw):
    """Space files: half of them well formed (distinct labels, small finite
    values or at times an integer beyond the float range, so the checks run
    and sometimes fail), the rest with any tokens and a dropped, a
    duplicated or a junk line; sometimes arbitrary text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=80))
    clean = draw(st.booleans())
    if clean:
        labels = draw(st.lists(st.sampled_from(["0", "1", "2", "3", "a", "b", "2.5"]), min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            # The paper's map sends every point to 0 or 3: certify gets past the images.
            labels = ["0", "3"] + [x for x in labels if x not in ("0", "3")]
        big = [TestIntegerOverflow.BIG] if draw(st.booleans()) else []
        values = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["0.5", "2.5", "8.0", *big]))
    else:
        labels = draw(st.lists(LABEL_TOKENS, min_size=1, max_size=3))
        values = NUMBER_TOKENS
    lines = [
        "points: " + " ".join(labels),
        "coefficient: " + draw(st.one_of(st.sampled_from(["1", "1.5", "2"]), NUMBER_TOKENS)),
    ]
    lines += [" ".join(tpl) + " " + draw(values) for tpl in itertools.product(labels, repeat=3)]
    if not clean and draw(st.booleans()):
        del lines[draw(st.integers(0, len(lines) - 1))]
    if not clean and draw(st.booleans()):
        lines.append(lines[draw(st.integers(0, len(lines) - 1))])
    if not clean and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK_LINES))
    return "\n".join(lines) + "\n"


class TestSpaceFileFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=space_file_texts(), variant=st.sampled_from(["partial-sb", "partial-s", "sb-metric", "s-metric"]))
    def test_exit_codes_and_verdicts(self, tmp_path_factory, text, variant):
        path = tmp_path_factory.mktemp("fuzz") / "space.psb"
        path.write_text(text, encoding="utf-8")
        for command, extra, verdict, label in (
            ("verify-axioms", ["--variant", variant], "passed", "passed"),
            ("topology", [], "base", "base"),
            ("separation", [], "t0", "T0"),
            ("connected", [], "connected", "connected"),
            ("certify", ["--samples", "20"], "passed", "passed"),
        ):
            argv = [command, "--space", f"file:{path}", *extra]
            code, out, err = run_captured(argv)
            json_code, json_out, json_err = run_captured([*argv, "--format", "json"])
            assert code in (0, 1, 2) and json_code == code
            assert "Traceback" not in err
            if code == 2:
                assert out == json_out == "" and err == json_err and err.count("\n") == 1
            else:
                assert err == json_err == ""
                assert f"{label}: {json.loads(json_out)[verdict]}" in out


BREAKPOINT_SCALARS = st.one_of(
    st.integers(min_value=-5, max_value=20),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "x", ""]),
)


@st.composite
def breakpoint_texts(draw):
    """Breakpoint files: mostly arrays of pairs of any JSON scalars (NaN,
    Infinity, 1e400, bools, null, strings, huge ints), some of other shapes,
    some literals out of the float range, some arbitrary text."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.text(max_size=40))
    if kind == 1:
        return draw(st.recursive(BREAKPOINT_SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=8).map(json.dumps))
    pairs = draw(st.lists(st.lists(BREAKPOINT_SCALARS, min_size=2, max_size=2), max_size=5))
    if kind == 2 and pairs:
        pairs[0][draw(st.integers(0, 1))] = 1e400  # dumped as Infinity
    text = json.dumps(pairs)
    if kind == 3:
        text = text.replace("Infinity", "1e400")
    return text


class TestBreakpointFileFuzz:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=breakpoint_texts(), kind=st.sampled_from(["boyd-wong", "matkowski"]))
    def test_exit_codes(self, tmp_path_factory, text, kind):
        path = tmp_path_factory.mktemp("fuzz") / "bp.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_captured(["check-comparison", "--fn", f"file:{path}", "--kind", kind])
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("pairs, message", [
        ("[[0,0],[1,null]]", "breakpoint 1 y: None is not a finite number"),
        ("[[0,0],[1e400,1]]", "breakpoint 1 x: inf is not a finite number"),
        ("[[0,0],[NaN,1]]", "breakpoint 1 x: nan is not a finite number"),
        ("[[0,0],[1,-Infinity]]", "breakpoint 1 y: -inf is not a finite number"),
        ("[[true,0],[1,1]]", "breakpoint 0 x: True is not a finite number"),
        ('[[0,0],[1,"2"]]', "breakpoint 1 y: '2' is not a finite number"),
        ("[[0,0],[1," + "9" * 400 + "]]", "breakpoint 1 y: " + "9" * 400 + " is not a finite number"),
    ], ids=["null", "1e400", "nan", "-inf", "bool", "string", "huge-int"])
    def test_non_finite_breakpoint_is_one_error_line(self, pairs, message, tmp_path, capsys):
        path = tmp_path / "bp.json"
        path.write_text(pairs, encoding="utf-8")
        assert run_cli("check-comparison", "--fn", f"file:{path}", "--kind", "matkowski") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def run_exiting(argv):
    """run_captured, with argparse's SystemExit read as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


BUMP = [[0, 0], [4, 1], [5, 6], [6, 2], [7, 2.5]]


def interpolant_at(pairs, t):
    """The breakpoint interpolant at t, in rational arithmetic (t inside the breakpoints' range)."""
    for (x0, y0), (x1, y1) in zip(pairs, pairs[1:]):
        if x0 <= t <= x1:
            return Fraction(y0) + (Fraction(t) - Fraction(x0)) * (Fraction(y1) - Fraction(y0)) / (Fraction(x1) - Fraction(x0))
    raise ValueError(t)


@pytest.fixture(scope="module")
def comparison_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("comparisons")
    texts = {
        "bump": json.dumps(BUMP),
        "near-identity": "[[0, 0], [1, 0.999]]",
        "overflow": "[[-1e308, 0], [1e308, 1]]",
        "undecided": "[[0, 0], [1, 0.5], [2, 0.2], [4, 6]]",
        "garbage": "[[0, 0], [1",
        "empty": "",
    }
    for name, text in texts.items():
        (folder / f"{name}.json").write_text(text, encoding="utf-8")
    return {name: str(folder / f"{name}.json") for name in texts}


class TestCheckComparison:
    def test_bump_between_grid_points_fails_boyd_wong(self, comparison_files):
        code, out, err = run_captured(["check-comparison", "--fn", f"file:{comparison_files['bump']}",
                                       "--kind", "boyd-wong", "--format", "json"])
        assert code == 1 and err == ""
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "below-identity")
        w = check["witness"]
        assert not check["passed"] and 4 < w < 6 and interpolant_at(BUMP, w) >= w

    def test_near_identity_slope_is_matkowski(self, comparison_files):
        code, out, _ = run_captured(["check-comparison", "--fn", f"file:{comparison_files['near-identity']}",
                                     "--kind", "matkowski"])
        assert code == 0 and "passed: True" in out

    def test_a_failure_without_witness_shows_its_detail(self, comparison_files):
        argv = ["check-comparison", "--fn", f"file:{comparison_files['undecided']}", "--kind", "matkowski"]
        code, out, err = run_captured(argv)
        assert code == 1 and err == ""
        assert "  iterate-decay: FAIL: undecided without monotonicity: fn(3.0) >= 3.0\n" in out
        assert "  monotone: FAIL (witness (1.5, 1.75))\n" in out
        check = next(c for c in json.loads(run_captured([*argv, "--format", "json"])[1])["checks"]
                     if c["name"] == "iterate-decay")
        assert check["witness"] is None

    def test_paper_tau_is_boyd_wong(self):
        assert run_captured(["check-comparison", "--fn", "paper_tau"])[0] == 0

    def test_overflowing_span_is_one_error_line(self, comparison_files):
        code, out, err = run_captured(["check-comparison", "--fn", f"file:{comparison_files['overflow']}",
                                       "--kind", "matkowski"])
        assert code == 2 and out == ""
        assert err.startswith("error: breakpoints 0 and 1") and err.count("\n") == 1

    @pytest.mark.parametrize("flag, value", [("--grid", "0.5,1,1.5"), ("--budget", "64")])
    def test_removed_flags_are_usage_errors(self, flag, value):
        code, out, err = run_exiting(["check-comparison", "--fn", "half", flag, value])
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_argv_fuzz(self, comparison_files, data):
        """--fn (builtin, file or garbage), --kind, --format, the removed
        flags and junk tokens, in any order: exit 0, 1 or 2, and on 2 one
        error line."""
        junk = st.one_of(st.sampled_from(["--seed", "7", "--bound", "-x", "--", "--kind", "--fn"]),
                         st.text(alphabet="abc-=.,:1 ", max_size=6))
        fn = st.one_of(
            st.sampled_from(["paper_tau", "half", "identity", "missing", "", "file:", "file:/nonexistent.json"]),
            st.sampled_from([f"file:{path}" for path in comparison_files.values()]),
            st.text(max_size=8),
        )
        options = [
            ["--fn", data.draw(fn)],
            ["--kind", data.draw(st.sampled_from(["boyd-wong", "matkowski", "usc", ""]))],
            ["--format", data.draw(st.sampled_from(["text", "json", "csv", "x"]))],
            ["--grid", data.draw(st.sampled_from(["0.5,1,1.5", "", "x"]))],
            ["--budget", data.draw(st.sampled_from(["64", "0", "-1"]))],
            [data.draw(junk)],
        ]
        chosen = [option for option in options if data.draw(st.booleans())]
        argv = ["check-comparison"] + [token for option in data.draw(st.permutations(chosen)) for token in option]
        code, out, err = run_exiting(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert sum("error: " in line for line in err.splitlines()) == 1
        else:
            assert err == ""


HUGE = "1" + "0" * 400
INDEX_TOKENS = st.one_of(
    st.integers(-3, 25).map(str),
    st.builds("{}..{}".format, st.integers(-3, 25), st.integers(-3, 25)),
    st.sampled_from([HUGE, "-" + HUGE, f"{HUGE}..{HUGE}"]),
    st.sampled_from(["3..x", "..5", "3..", "1.5", "x", "", ",", " "]),
)
INDEX_LISTS = st.lists(INDEX_TOKENS, max_size=4).flatmap(
    lambda tokens: st.sampled_from([",", " ", ", "]).map(lambda sep: sep.join(tokens))
)
# Carrier points per space, so that most drawn centres get past the check.
COVER_CENTRES = {
    "builtin:quintic_ray": ["1", "2", "1.5", "4.0", "64", HUGE],
    "builtin:quintic_gap": ["0", "3", "4", "4.5", "100"],
    "builtin:two_point_a": ["1", "2"],
    "builtin:two_point_b": ["1", "2"],
    "big-self": ["1", "2"],
}
OTHER_CENTRES = st.one_of(
    st.sampled_from(["0", "-1", "3.5", "abc", "", "nan", "inf", "1e400", "1e300", "-" + HUGE]),
    st.text(max_size=4),
)


class TestCoverWitnessArgvFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_argv_fuzz(self, tmp_path_factory, data):
        """--space, --center, --indices, --subfamily, --bound and --format,
        each present or not, in any order: exit 0 with one answer line (or
        JSON), or exit 2 with one error line; never 3. The bounds stay small,
        because a fully covered scan costs the length of the lattice."""
        folder = tmp_path_factory.mktemp("cover")
        (folder / "big-self.psb").write_text(TestCoverWitnessCentre.TEXT, encoding="utf-8")
        space = data.draw(st.sampled_from([*COVER_CENTRES, "builtin:none", "file:/nonexistent.psb", ""]))
        centres = COVER_CENTRES.get(space)
        if centres and data.draw(st.integers(0, 3)):
            center = data.draw(st.sampled_from(centres))
        else:
            center = data.draw(OTHER_CENTRES)
        if space == "big-self":
            space = f"file:{folder / 'big-self.psb'}"
        bound = st.sampled_from(["-5", "0", "0.5", "1", "2.5", "3", "4", "4.5", "10", "64", "1000.0",
                                 "inf", "nan", "1e400", "x", ""])
        options = [
            ["--space", space],
            ["--center", center],
            ["--indices", data.draw(INDEX_LISTS)],
            ["--subfamily", data.draw(INDEX_LISTS)],
            ["--bound", data.draw(bound)],
            ["--format", data.draw(st.sampled_from(["text", "json", "csv"]))],
        ]
        # The three required options are left out one time in ten, the rest half the time.
        chosen = [option for i, option in enumerate(options) if data.draw(st.integers(0, 9 if i < 3 else 1))]
        argv = ["cover-witness"] + [token for option in data.draw(st.permutations(chosen)) for token in option]
        code, out, err = run_exiting(argv)
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == "" and sum("error: " in line for line in err.splitlines()) == 1
        else:
            assert err == "" and out.endswith("\n")
            if "json" not in argv:
                assert out.count("\n") == 1
                assert out.startswith(("uncovered witness: ", "covered: "))


BUILTIN_SPACES = ["builtin:quintic_ray", "builtin:quintic_gap", "builtin:two_point_a", "builtin:two_point_b"]
# (flag, good values, bad values); a flag without a value has None for both.
FUZZ_SPACE = ("--space", st.sampled_from(BUILTIN_SPACES), st.sampled_from(["builtin:none", "file:/nonexistent.psb", ""]))
FUZZ_BOUND = (
    "--bound",
    # The two near 4 leave quintic_gap's ray too short for distinct grid points.
    st.one_of(st.floats(4.5, 1000), st.floats(1e-9, 1e300)).map(repr)
    | st.sampled_from(["4.000000000000001", "4.00000000000001"]),
    st.sampled_from(["-1", "-1e-9", "0", "3", "4", "1e80", "inf", "nan", "x", ""]),
)
FUZZ_SEED = ("--seed", st.integers(-5, 2**70).map(str), st.sampled_from(["x", "", "1.5"]))
FUZZ_FORMAT = ("--format", st.sampled_from(["text", "json"]), st.sampled_from(["csv", "x"]))
FUZZ_SPEC = ("--spec", st.just("paper"), st.just("other"))
FUZZ_MATKOWSKI = ("--matkowski", None, None)
POINTS = st.sampled_from(["0", "1", "2", "3", "4", "4.5", "7", "7.5", "64", "1e300"])
BAD_POINTS = st.sampled_from(["-1", "2.5", "abc", "", "nan", "inf", "1e400", HUGE])
SIZES = st.integers(2, 8).map(str)
BAD_SIZES = st.sampled_from(["-2", "0", "1", "x", "1.5", ""])


def fuzz_argv(data, command, options, required=0):
    """`command` with its options in any order, each as one `--flag=value`
    token, so that a negative value is not read as a flag. Half the runs
    draw every value from its good values, the rest draw each from its bad
    values half the time. The first `required` options are left out one
    time in ten, the rest are given one time in three."""
    clean = data.draw(st.booleans())
    chosen = []
    for i, (flag, good, bad) in enumerate(options):
        if data.draw(st.integers(0, 9)) < 9 if i < required else data.draw(st.integers(0, 2)) == 0:
            values = good if clean or data.draw(st.booleans()) else bad
            chosen.append(flag if values is None else f"{flag}={data.draw(values)}")
    return [command, *data.draw(st.permutations(chosen))]


def assert_honest_exit(argv):
    """Exit 0 or 1 with a report and nothing on stderr, or 2 with one error
    line and nothing on stdout; never 3."""
    code, out, err = run_exiting(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "" and sum("error: " in line for line in err.splitlines()) == 1, (argv, err)
    else:
        assert err == "" and out.endswith("\n"), argv


FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestSubcommandArgvFuzz:
    """argv fuzz over the four builtins: bounds from 1e-9 to 1e300, negative
    and non-numeric values, labels, seeds, small sizes and the formats."""

    @FUZZ
    @given(data=st.data())
    def test_ball(self, data):
        assert_honest_exit(fuzz_argv(data, "ball", [
            FUZZ_SPACE,
            ("--center", POINTS, BAD_POINTS),
            ("--radius", st.floats(1e-9, 1e300).map(repr), st.sampled_from(["0", "-1", "-1e-9", "nan", "x"])),
            ("--candidates", st.lists(POINTS, min_size=1, max_size=4).map(",".join),
             st.lists(BAD_POINTS, max_size=3).map(",".join)),
            FUZZ_SEED, FUZZ_BOUND, FUZZ_FORMAT,
        ], required=3))

    @FUZZ
    @given(data=st.data())
    def test_certify(self, data):
        assert_honest_exit(fuzz_argv(data, "certify", [
            FUZZ_SPACE, FUZZ_SPEC, FUZZ_MATKOWSKI,
            ("--samples", SIZES, BAD_SIZES), ("--grid", SIZES, BAD_SIZES),
            FUZZ_SEED, FUZZ_BOUND, FUZZ_FORMAT,
        ], required=1))

    @FUZZ
    @given(data=st.data())
    def test_case_table(self, data):
        assert_honest_exit(fuzz_argv(data, "case-table", [
            FUZZ_SPACE, FUZZ_SPEC, FUZZ_MATKOWSKI,
            ("--grid-size", st.integers(3, 8).map(str), BAD_SIZES),
            FUZZ_BOUND, FUZZ_FORMAT,
        ], required=1))

    @FUZZ
    @given(data=st.data())
    def test_fixpoint(self, data):
        # paper_S maps only quintic_gap into itself, so it is drawn more often.
        spaces = st.sampled_from(["builtin:quintic_gap", "builtin:quintic_gap", *BUILTIN_SPACES])
        assert_honest_exit(fuzz_argv(data, "fixpoint", [
            ("--space", spaces, FUZZ_SPACE[2]),
            ("--start", POINTS, BAD_POINTS),
            ("--map", st.sampled_from(["paper_S", "identity"]), st.just("other")),
            ("--max-iter", SIZES, BAD_SIZES),
            FUZZ_BOUND,
            ("--format", st.sampled_from(["text", "json", "csv"]), st.just("x")),
        ], required=2))

    @FUZZ
    @given(data=st.data())
    def test_topology_separation_connected(self, data):
        # --seed and --bound are not options of these three: exit 2.
        command = data.draw(st.sampled_from(["topology", "separation", "connected"]))
        assert_honest_exit(fuzz_argv(data, command, [
            FUZZ_SPACE, FUZZ_FORMAT, FUZZ_SEED, FUZZ_BOUND,
        ], required=1))

    # A clean repro run takes about two seconds.
    @settings(FUZZ, max_examples=12)
    @given(data=st.data())
    def test_repro(self, data):
        # --space and --bound are not options of repro: exit 2.
        assert_honest_exit(fuzz_argv(data, "repro", [
            FUZZ_SEED, FUZZ_FORMAT, FUZZ_SPACE, FUZZ_BOUND,
        ]))

    @FUZZ
    @given(data=st.data())
    def test_verify_axioms(self, data):
        assert_honest_exit(fuzz_argv(data, "verify-axioms", [
            FUZZ_SPACE,
            ("--variant", st.sampled_from(["partial-sb", "partial-s", "sb-metric", "s-metric"]), st.just("x")),
            ("--samples", SIZES, BAD_SIZES),
            FUZZ_SEED, FUZZ_BOUND, FUZZ_FORMAT,
        ], required=1))


def readme_examples():
    """(argv, expected exit) for every `psbm` line of README's command-line
    block; a line whose comment says it exits 1 expects 1, the rest 0."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("psbm "):
            examples.append((shlex.split(command)[1:], 1 if "exits 1" in comment else 0))
    return examples


class TestReadmeExamples:
    def test_the_block_is_found(self):
        assert len(readme_examples()) >= 15

    # repro is left to TestRepro, which already runs it twice.
    @pytest.mark.parametrize(
        "argv, expected",
        [example for example in readme_examples() if example[0][0] != "repro"],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_example_exits_as_documented(self, argv, expected, capsys):
        assert run_cli(*argv) == expected
        out, err = capsys.readouterr()
        assert (hashlib.sha256(out.encode()).hexdigest(), err) == (README_STDOUT_SHA256[tuple(argv)], "")

    def test_every_example_is_pinned(self):
        assert sorted(README_STDOUT_SHA256) == sorted(tuple(argv) for argv, _ in readme_examples())


# sha256 of the stdout of each `psbm` line of README's command-line block, as
# written there, which every change must keep. CI reads them from here.
README_STDOUT_SHA256 = {
    ("verify-axioms", "--space", "builtin:two_point_b"): "9b7ab8efb7f40ab34a45d16c43a8148f220d76f4c3bd003eeac9a24bd8b83a7f",
    ("verify-axioms", "--space", "builtin:quintic_gap", "--samples", "10000", "--seed", "0"): "9adeaf29b7f85f0413e86a30ce1d7e42ea98321bc5663b84d0407066cd21794a",
    ("ball", "--space", "builtin:quintic_ray", "--center", "1", "--radius", "3"): "0ac8c15445ca55efec29a24116b8de6c766b2c3910d0b95a4c7321b81607b1ab",
    ("topology", "--space", "builtin:two_point_a", "--format", "json"): "2575b196314323ad3635b50b5f611b94bf1630da4d52c8b1fe18a62ec2cf3260",
    ("separation", "--space", "builtin:two_point_a"): "6da6e3932b5162f30b8c41c5436509c8dc40dac619fa7acde657d39289df6938",
    ("connected", "--space", "builtin:two_point_b"): "8c55ad0b25eb5e9136d27e55ee920fbc27203790e6cfd03d5adf5f435df29955",
    ("cover-witness", "--space", "builtin:quintic_ray", "--center", "1", "--indices", "3..20", "--subfamily", "3,5"): "6aa81dd41377f6d0b2910adbf0cc886314e02fbe211ab9f222a4b01da6cd2797",
    ("check-comparison", "--fn", "paper_tau"): "274c6f7afc8b460058ea70236961e2763c9bb791db303dbd077431c0cf63b29e",
    ("check-comparison", "--fn", "identity", "--kind", "matkowski"): "aa8a06022037a8bb14ad795af4cfd8a0f62fbef65d73d5c7c1dbcce057d77821",
    ("certify", "--space", "builtin:quintic_gap", "--spec", "paper", "--samples", "200", "--seed", "0"): "ddef66b6d1a2c4ed87b51f5364d622176a109b935d72820af5094ef22ec253b5",
    ("certify", "--space", "builtin:quintic_gap", "--spec", "paper", "--matkowski", "--grid", "50"): "b60f0907c100f2687d2357d6206a21ab96db8ee4a9af041d4ad67743e4143b72",
    ("case-table", "--space", "builtin:quintic_gap"): "187c0146a0331b33353a3fe90176707ed57c8cf9d33228d2aa1fa523c6d82910",
    ("fixpoint", "--space", "builtin:quintic_gap", "--map", "paper_S", "--start", "7"): "5dbc9608b804bbb96b0652903a3cadab52b3c5ca4e91b7fda377ee63a1a175a7",
    ("fixpoint", "--space", "builtin:quintic_gap", "--start", "7", "--format", "csv"): "6f9da0e7ff1c80be69e51c90d0601b0a6f3c25ca14633b381a52b69c3949e204",
    ("repro", "--format", "json"): "c6a814545ec03851e7d8d27b6364e2635a9b98d2007ec937ea7ea2648f8dff43",
}


# sha256 of the `psbm certify --space builtin:quintic_gap <flags> --format
# json` bytes, which every change must keep. CI reads them from here.
CERTIFY_JSON_SHA256 = {
    ("--grid", "20"): "e1399404c8628e12e12dcf0c430e1b3b8648c1a0aed509b765e086a118630788",
    ("--grid", "20", "--matkowski"): "e1399404c8628e12e12dcf0c430e1b3b8648c1a0aed509b765e086a118630788",
    ("--grid", "30"): "d049c0a8a7d805a0c1769201fc17b61f73ae4726352d9c625782d714936131e2",
    ("--grid", "30", "--matkowski"): "d049c0a8a7d805a0c1769201fc17b61f73ae4726352d9c625782d714936131e2",
    ("--grid", "40"): "70b14f09b4ba22c82491c55182eb5bd737b2813d805b1ee963a42ac74df21f34",
    ("--grid", "40", "--matkowski"): "70b14f09b4ba22c82491c55182eb5bd737b2813d805b1ee963a42ac74df21f34",
    ("--grid", "50"): "544c74373881e56a5f327b8f4425f9709929e7e49c5631a417cef7fad640f08d",
    ("--grid", "50", "--matkowski"): "544c74373881e56a5f327b8f4425f9709929e7e49c5631a417cef7fad640f08d",
    ("--grid", "60"): "f3adc9c2c287a1afcb99eb21356e5f211423e7eaf92ce1965da46d2559fdd775",
    ("--grid", "60", "--matkowski"): "f3adc9c2c287a1afcb99eb21356e5f211423e7eaf92ce1965da46d2559fdd775",
    ("--grid", "60", "--bound", "1e61"): "f3adc9c2c287a1afcb99eb21356e5f211423e7eaf92ce1965da46d2559fdd775",
    ("--grid", "200"): "136becdd181ba2626e4d1b5bdd03993c941258ae176a9258b8632313165d84b0",
    ("--grid", "200", "--matkowski"): "136becdd181ba2626e4d1b5bdd03993c941258ae176a9258b8632313165d84b0",
    ("--samples", "10000", "--seed", "1"): "1e93335c090e8045159ed2e9a270400b775cb34736d7d597d7aee06e18cc9cec",
    ("--samples", "10000", "--seed", "1", "--matkowski"): "1e93335c090e8045159ed2e9a270400b775cb34736d7d597d7aee06e18cc9cec",
    ("--samples", "40000", "--seed", "3"): "c405e90aa1ca4ca4ae51401c73d96152a27d92a50e6f119eae83e6859e1a4836",
    ("--samples", "10000", "--seed", "0"): "0b9f7e27f0d442ee1134c8ab84bc90a7ea2fdbb1868d14e3f547a681f6f558d8",
    ("--samples", "10000", "--seed", "7"): "6e51267f73f82e147e39aee11145f6d83510dd9f489418984823350eb6e7d42a",
    ("--samples", "10000", "--seed", "8"): "fbf0ea5d3347dae136fbc377844b0b73ec681dc33d10b3fb45ff3e48a3f5846e",
    ("--samples", "10000", "--seed", "8", "--matkowski"): "fbf0ea5d3347dae136fbc377844b0b73ec681dc33d10b3fb45ff3e48a3f5846e",
    ("--grid", "400"): "193fc8fc4815d25e8e95b27a225665b08ee5a87a1416057733bd0cdc361ebecf",
    ("--seed", "0"): "43714c7b1bf1aee445b1a520cb6a39cec5ed318f97540a7e0ca6515ebb557c0b",
    ("--seed", "1"): "58e952af7e674d0c9425285d9f4c72531eddbc5938419ca8039d0be1dfd23128",
    ("--seed", "2"): "edd929ec1c8a0d7bdcd8f1bc4eb571daaced5397a93c4932b61a52a1999e63e7",
    ("--seed", "3"): "43714c7b1bf1aee445b1a520cb6a39cec5ed318f97540a7e0ca6515ebb557c0b",
    ("--seed", "4"): "43714c7b1bf1aee445b1a520cb6a39cec5ed318f97540a7e0ca6515ebb557c0b",
    ("--samples", "200", "--seed", "0"): "de5fa6ecc8ca690750defaa4088050cd4328501a1aeb7f39c07bc64a417a5692",
    ("--samples", "1", "--seed", "0"): "b9860b9d0953a1f8dd5c76321447641f82ed3bb1652b034d17ee0b54fb89819c",
    ("--samples", "7", "--seed", "3"): "4b1d00eb36ae8008cb98ae66fc06ca3c9bade4e97433747f4aa189ac75387520",
    ("--samples", "1024", "--seed", "2"): "20487db6092c49ab450e4c4df8bfe3ea43ba7cd3c7f4a0bcecb91c719938f6e8",
    ("--samples", "1025", "--seed", "2"): "e13238091b27683d4ad9a5ad96d5d901270b49b4d1a34a8336b7fa5cfeb408a2",
    ("--samples", "3000", "--seed", "4", "--matkowski"): "d9045ad86ea1aa946a6cebc1f34279e3363a4a820ffeedfa27b9ad13ef444b05",
}


@pytest.mark.parametrize("flags", sorted(CERTIFY_JSON_SHA256), ids=" ".join)
def test_certify_json_digests_are_pinned(capsys, flags):
    assert main(["certify", "--space", "builtin:quintic_gap", *flags, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (CERTIFY_JSON_SHA256[flags], "")


# sha256 of the `psbm case-table --space builtin:quintic_gap <flags> --format
# json` bytes, which every change must keep. CI reads them from here.
CASE_TABLE_JSON_SHA256 = {
    ("--grid-size", "20"): "120a4911f3045b4b4badfefa8865e9bd12d85ae7081f49e2d510097a85e7a406",
    ("--grid-size", "20", "--matkowski"): "120a4911f3045b4b4badfefa8865e9bd12d85ae7081f49e2d510097a85e7a406",
    ("--grid-size", "30"): "e0b93143f1d3a34146f3fdf9fb18837a636b73d08d75ce1a0b9eb68c3888e735",
    ("--grid-size", "40"): "1c684708866181947339911e3ebb81948a67238790689b6944442b5dcaca82ee",
    ("--grid-size", "40", "--matkowski"): "1c684708866181947339911e3ebb81948a67238790689b6944442b5dcaca82ee",
    ("--grid-size", "80"): "76916c962b6c60aee80e47f84894eeae6dcee6cb6767d9f906adc1765714c0f6",
    ("--grid-size", "80", "--matkowski"): "76916c962b6c60aee80e47f84894eeae6dcee6cb6767d9f906adc1765714c0f6",
}


@pytest.mark.parametrize("flags", sorted(CASE_TABLE_JSON_SHA256), ids=" ".join)
def test_case_table_json_digests_are_pinned(capsys, flags):
    assert main(["case-table", "--space", "builtin:quintic_gap", *flags, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == (CASE_TABLE_JSON_SHA256[flags], "")


# A space on 0, 3, 4 and 5 with self-distances 0.1 and every other entry
# 1.5. Under the paper spec each of its 3 active planes has products on
# both sides of paper_tau's cut at 1, so no one piece reads a plane's
# bound; 18 of its 27 triples fail.
STRADDLING_FILE = "points: 0 3 4 5\ncoefficient: 1\n" + "".join(
    f"{p} {q} {r} {0.1 if p == q == r else 1.5}\n" for p, q, r in itertools.product((0, 3, 4, 5), repeat=3)
)

# sha256 of the `psbm certify --space <STRADDLING_FILE> <flags> --format json`
# bytes, which every change must keep; each run exits 1.
STRADDLING_CERTIFY_JSON_SHA256 = {
    (): "769350b6093168d0b054a315695bcb501a088962b881fbb9f223c6251d424aa5",
    ("--samples", "20", "--seed", "0"): "11f140264548ecc5a2dbd672d992289f3798988df0fcb1295bc9d8b952086f95",
}


@pytest.mark.parametrize("flags", sorted(STRADDLING_CERTIFY_JSON_SHA256), ids=lambda flags: " ".join(flags) or "default")
def test_straddling_certify_json_digests_are_pinned(tmp_path, flags):
    path = tmp_path / "straddling.psb"
    path.write_text(STRADDLING_FILE, encoding="utf-8")
    code, out, err = run_captured(["certify", "--space", f"file:{path}", *flags, "--format", "json"])
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (1, STRADDLING_CERTIFY_JSON_SHA256[flags], "")


class TestRepro:
    def test_repro_passes_and_is_deterministic(self):
        first = run_subprocess("repro", "--format", "json")
        second = run_subprocess("repro", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert hashlib.sha256(first.stdout.encode()).hexdigest() == README_STDOUT_SHA256[("repro", "--format", "json")]
        payload = json.loads(first.stdout)
        assert payload["passed"] is True
        assert len(payload["items"]) == 8


SHIPPED_BUILTIN = spaces.builtin_space
GAP = ("--space", "builtin:quintic_gap", "--spec", "paper")


def builtin_without_span_kernel(name):
    """The builtin space, its rule metric stripped of any span rule."""
    space = SHIPPED_BUILTIN(name)
    if isinstance(space.metric, spaces.RuleMetric):
        return dataclasses.replace(space, metric=dataclasses.replace(space.metric, span_rule=None))
    return space


class TestSpanKernelParity:
    """certify --grid clears a plane from the quintic span without making
    its distances; without the span it makes them and bounds them by their
    own min and max. No byte of any report changes."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "flags",
        [
            *(["--grid", str(n), *matkowski] for n in (3, 10, 20, 30, 40, 50, 60, 80) for matkowski in ([], ["--matkowski"])),
            ["--grid", "60", "--bound", "1e61"],
        ],
        ids=" ".join,
    )
    def test_same_output_without_the_span(self, flags, fmt, monkeypatch):
        argv = ["certify", *GAP, *flags, "--format", fmt]
        shipped = run_captured(argv)
        monkeypatch.setattr(spaces, "builtin_space", builtin_without_span_kernel)
        assert spaces.builtin_space("quintic_gap").metric.span_rule is None
        assert run_captured(argv) == shipped
        assert shipped[0] == 0

    def test_the_same_planes_clear_without_the_span(self, monkeypatch, cleared_planes):
        # At --bound 1e61 the distances reach 3e305: each is finite, but the
        # sum of a plane's 61 x 61 overflows, and a finite span needs no
        # finite sum.
        argv = ["certify", *GAP, "--grid", "60", "--bound", "1e61", "--format", "json"]
        shipped = run_captured(argv)
        spanned = cleared_planes[:]
        cleared_planes.clear()
        monkeypatch.setattr(spaces, "builtin_space", builtin_without_span_kernel)
        assert run_captured(argv) == shipped
        assert cleared_planes == spanned and len(spanned) == 61 and sum(spanned) == 59


def choice_positions(rng, pool_size, arity, count):
    """spaces.sampled_positions, drawn with one rng.choice per position."""
    if pool_size < 1:
        raise spaces.InvalidArgument("sample must be nonempty")
    pool = range(pool_size)
    for start in range(0, count, spaces.SAMPLE_BLOCK):
        tuples = [[rng.choice(pool) for _ in range(arity)] for _ in range(min(spaces.SAMPLE_BLOCK, count - start))]
        yield [list(column) for column in zip(*tuples)]


def tied_space_file(tmp_path, self_d, pair, other):
    """Points 1, 2, 3 under coefficient 1.5: S(x,x,x) = self_d, S(x,x,y) =
    pair and every other triple `other`. With (0.5, 1.0, 2.5), S(1,2,1) ties
    1.5 * (S(1,1,1) + S(2,2,1) + S(1,1,1)) - S(1,1,1) exactly; with (0.1,
    0.2, 0.5) the float sum ties it."""
    lines = ["points: 1 2 3", "coefficient: 1.5"]
    for p, q, r in itertools.product((1, 2, 3), repeat=3):
        value = self_d if p == q == r else pair if p == q else other
        lines.append(f"{p} {q} {r} {value!r}")
    path = tmp_path / f"tied-{other!r}.psb"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestBulkDrawParity:
    """Drawing sampled positions a block of words at a time, and screening
    them ahead of the axiom loop, changes no byte of any report: each run
    equals the run whose positions come from one rng.choice per position."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify-axioms", "--space", "builtin:quintic_ray", "--samples", "40000", "--seed", "3"], 0),
            (["verify-axioms", "--space", "builtin:quintic_gap", "--samples", "40000", "--seed", "3"], 0),
            (["verify-axioms", "--space", "builtin:quintic_ray", "--samples", "2000", "--bound", "3.3e61"], 0),
            (["verify-axioms", "--space", "builtin:quintic_ray", "--samples", "2000", "--bound", "3.9e61"], 2),
            (["certify", *GAP, "--samples", "10000", "--seed", "1"], 0),
            (["certify", *GAP, "--samples", "10000", "--seed", "1", "--matkowski"], 0),
            *[(["repro", "--format", "json", "--seed", str(seed)], 0) for seed in range(5)],
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_same_output_as_choice_draws(self, argv, code, monkeypatch):
        shipped = run_captured(argv)
        monkeypatch.setattr(spaces, "sampled_positions", choice_positions)
        monkeypatch.setattr(contraction, "sampled_positions", choice_positions)
        assert run_captured(argv) == shipped
        assert shipped[0] == code

    @pytest.mark.parametrize("values, code", [((0.5, 1.0, 2.5), 0), ((0.1, 0.2, 0.5), 0), ((0.1, 0.2, 0.5000000000000001), 1)])
    def test_float_files_whose_rows_tie_the_lhs(self, tmp_path, values, code, monkeypatch):
        path = tied_space_file(tmp_path, *values)
        argv = ["verify-axioms", "--space", f"file:{path}", "--samples", "3000", "--seed", "2", "--format", "json"]
        shipped = run_captured(argv)
        monkeypatch.setattr(spaces, "sampled_positions", choice_positions)
        assert run_captured(argv) == shipped
        assert shipped[0] == code


# Sums of finite fifth powers beyond the float range: in a quintic distance,
# or in the mean of the contraction inequality's fifth factor (the only
# overflow that the case table can meet at these bounds).
FLOAT_SUM_OVERFLOWS = [
    (["verify-axioms", "--space", "builtin:quintic_ray", "--samples", "2000", "--bound", "3.9e61"],
     "quintic(2.2184872158213135e+61, 2.2184872158213135e+61, 3.858150897088596e+61) overflows the float range"),
    (["fixpoint", "--space", "builtin:quintic_gap", "--start", "3.9e61"],
     "quintic(3.9e+61, 3.9e+61, 3) overflows the float range"),
    (["certify", *GAP, "--grid", "5", "--bound", "3.5e61"], "the contraction inequality overflows the float range"),
    (["certify", *GAP, "--grid", "3", "--bound", "3.6e61"], "the contraction inequality overflows the float range"),
    # The planes that hold the 3 drawn triples make every fifth-factor row.
    (["certify", *GAP, "--samples", "3", "--seed", "0", "--bound", "3.5e61"], "the contraction inequality overflows the float range"),
    (["case-table", *GAP, "--grid-size", "3", "--bound", "3.6e61"], "the contraction inequality overflows the float range"),
    (["certify", *GAP, "--grid", "3", "--bound", "1e62"], "quintic(5e+61, 5e+61, 3) overflows the float range"),
]


class TestFloatSumsBeyondTheFloatRange:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize(
        "argv, message", [pytest.param(argv, message, id=" ".join(argv)) for argv, message in FLOAT_SUM_OVERFLOWS]
    )
    def test_one_error_line(self, argv, message, fmt):
        assert run_captured([*argv, "--format", fmt]) == (2, "", f"error: {message}\n")


def strict_json(text):
    """text decoded as JSON, with NaN, Infinity and -Infinity refused."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def with_json_format(argv):
    """argv with its --format, if any, replaced by --format json."""
    if "--format" in argv:
        k = argv.index("--format")
        argv = argv[:k] + argv[k + 2:]
    return [*argv, "--format", "json"]


class TestStrictJson:
    """Every JSON report decodes as strict JSON: an infinite or nan value is
    an error line, never `Infinity` or `NaN` in the report."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(with_json_format(argv) for argv, _ in readme_examples() if argv[0] != "repro"),
            *(with_json_format(argv) for argv, _ in FLOAT_SUM_OVERFLOWS),
            ["repro", "--seed", "0", "--format", "json"],
        ],
        ids=" ".join,
    )
    def test_json_output_decodes_strictly(self, argv):
        code, out, err = run_captured(argv)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        else:
            assert isinstance(strict_json(out), dict)

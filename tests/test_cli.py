import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from psbmetric.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"

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
        [(command, "--tolerance") for command in MINIMAL_ARGV if command != "fixpoint"]
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
        args = parser.parse_args(["fixpoint", *MINIMAL_ARGV["fixpoint"], "--tolerance", "1e-6"])
        assert args.tolerance == 1e-6
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_tolerance_is_a_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*["fixpoint", *MINIMAL_ARGV["fixpoint"]], f"--tolerance={value}")
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert f"argument --tolerance: invalid finite float value: '{value}'" in captured.err


class TestLazyCoverScan:
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
        assert payload["valid"] is True

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


class TestRepro:
    def test_repro_passes_and_is_deterministic(self):
        first = run_subprocess("repro", "--format", "json")
        second = run_subprocess("repro", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert payload["passed"] is True
        assert len(payload["items"]) == 8

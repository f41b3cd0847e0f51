import json
import subprocess
import sys

import numpy as np
import pytest

from diffeoflow import (
    DecayClass,
    Diffeo,
    DisplacementField,
    Grid,
    classify_decay,
    read_diffeo,
    write_diffeo,
    write_displacement,
)
from diffeoflow import cli as cli_module
from diffeoflow import group
from diffeoflow.cli import config_from_argv, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestConfig:
    def test_flags_map_to_config(self):
        config = config_from_argv([
            "--command", "evolve", "--dim", "2", "--half-width", "4",
            "--points", "33", "--class", "schwartz",
            "--descriptor", "0.1*exp(-x^2-y^2), 0",
            "--t-final", "0.5", "--dt", "0.125", "--tol", "1e-8",
            "--seed", "7", "--quiet",
        ])
        assert config.command == "evolve"
        assert config.dim == 2 and config.points == 33
        assert config.half_width == 4.0
        assert config.decay_class == "schwartz"
        assert config.t_final == 0.5 and config.dt == 0.125
        assert config.tol == 1e-8 and config.seed == 7
        assert config.quiet

    @pytest.mark.parametrize("argv", [
        ["--command", "classify", "--dim", "7", "--descriptor", "x"],
        ["--command", "classify", "--points", "8", "--descriptor", "x"],
        ["--command", "classify", "--tol", "-1", "--descriptor", "x"],
        ["--command", "evolve", "--t-final", "0", "--descriptor", "x"],
        ["--command", "verify", "--points", "18", "--tol", "0"],
        ["--command", "classify", "--order-cap", "3", "--descriptor", "x"],
        ["--command", "classify", "--weight-cap", "3", "--descriptor", "x"],
        ["--command", "nonsense"],
        ["--no-such-flag"],
        [],
        ["--command", "classify", "--tol", "inf", "--descriptor", "x"],
        ["--command", "invert", "--tol", "nan", "--descriptor", "x"],
        ["--command", "evolve", "--t-final", "nan", "--descriptor", "x"],
        ["--command", "evolve", "--dt", "inf", "--descriptor", "x"],
        ["--command", "classify", "--half-width", "inf", "--descriptor", "x"],
    ])
    def test_bad_configuration_exits_1(self, capsys, argv):
        assert main(argv) == 1
        capsys.readouterr()

    # every source given must be read: classify takes one, evolve one descriptor,
    # verify none; FILE stands for a valid member file
    @pytest.mark.parametrize("argv", [
        ["--command", "classify", "--class", "Schwartz", "--descriptor", "exp(-x^2)",
         "--descriptor", "1"],
        ["--command", "classify", "--input", "FILE", "--descriptor", "0.1*exp(-x^2)"],
        ["--command", "evolve", "--descriptor", "0.1*exp(-x^2)", "--input", "FILE"],
        ["--command", "verify", "--descriptor", "not a descriptor", "--input", "/nonexistent",
         "--quiet"],
    ])
    def test_unread_source_exits_1(self, capsys, tmp_path, argv):
        path = str(tmp_path / "member.dff")
        write_diffeo(path, Diffeo.from_descriptor(Grid(1, 8.0, 257), "0.1*exp(-x^2)"))
        assert main([path if arg == "FILE" else arg for arg in argv]) == 1
        capsys.readouterr()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestClassify:
    def test_gaussian_is_schwartz(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "classify",
            "--descriptor", "0.2*exp(-x^2)")
        assert code == 0
        assert payload["report"]["inferred_class"] == "Schwartz"
        assert payload["claimed_class"] is None and payload["class_ok"] is None

    def test_honest_claim_passes(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "classify",
            "--descriptor", "0.2*tanh(x)", "--class", "BoundedAll")
        assert code == 0
        assert payload["class_ok"] is True

    def test_dishonest_claim_exits_2(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "classify",
            "--descriptor", "0.2*tanh(x)", "--class", "Schwartz")
        assert code == 2
        assert payload["class_ok"] is False

    def test_small_box_cannot_classify(self, capsys):
        code, _, err = run_cli(
            capsys, "--command", "classify", "--half-width", "4",
            "--points", "65", "--descriptor", "0.2*exp(-x^2)")
        assert code == 2
        assert "annul" in err or "shell" in err

    def test_no_source_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "--command", "classify")
        assert code == 1
        assert "descriptor" in err

    def test_out_directory(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys, "--command", "classify",
            "--descriptor", "0.2*exp(-x^2)", "--out", str(tmp_path))
        assert code == 0
        on_disk = json.loads((tmp_path / "classify_report.json").read_text())
        assert on_disk == payload

    def test_classify_from_file(self, capsys, tmp_path):
        grid = Grid(1, 8.0, 257)
        member = Diffeo.from_descriptor(grid, "0.1*exp(-x^2)", DecayClass.SCHWARTZ)
        path = tmp_path / "m.dff"
        write_diffeo(str(path), member)
        code, payload, _ = run_cli(
            capsys, "--command", "classify", "--input", str(path))
        assert code == 0
        assert payload["report"]["inferred_class"] == "Schwartz"

    @pytest.mark.parametrize("descriptor, code", [
        ("0.1*exp(-x^2)", 0),
        # det(I + dg) = 1 - 0.9 * 1.5 < 0 at x = 0: refused as read_diffeo refuses it
        ("-1.5*tanh(0.9*x)", 3),
    ])
    def test_file_without_class_hint_is_classified_once(self, capsys, tmp_path,
                                                         monkeypatch, descriptor, code):
        path = tmp_path / "m.dff"
        field = DisplacementField.from_descriptor(Grid(1, 8.0, 257), descriptor)
        write_displacement(str(path), field, None)
        want = classify_decay(field).to_dict()
        calls = []

        def counting(target):
            calls.append(target)
            return classify_decay(target)

        monkeypatch.setattr(cli_module, "classify_decay", counting)
        monkeypatch.setattr(group, "classify_decay", counting)
        got, payload, _ = run_cli(capsys, "--command", "classify", "--input", str(path))
        assert got == code
        assert len(calls) == 1
        if code == 0:
            assert payload["report"] == json.loads(json.dumps(want))

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "--command", "classify",
            "--input", str(tmp_path / "absent.dff"))
        assert code == 1

    def test_unknown_class_in_file_exits_1(self, capsys, tmp_path):
        grid = Grid(1, 8.0, 257)
        member = Diffeo.from_descriptor(grid, "0.1*exp(-x^2)", DecayClass.SCHWARTZ)
        path = tmp_path / "m.dff"
        write_diffeo(str(path), member)
        path.write_text(path.read_text().replace('"class_hint": "Schwartz"',
                                                 '"class_hint": "Foo"', 1))
        code, _, err = run_cli(capsys, "--command", "classify", "--input", str(path))
        assert code == 1
        assert json.loads(err)["error"] == "FileFormatError"


class TestComposeInvert:
    def test_compose_writes_member(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys, "--command", "compose", "--class", "Schwartz",
            "--descriptor", "0.1*exp(-x^2)",
            "--descriptor", "0.05*exp(-(x-1)^2)",
            "--out", str(tmp_path))
        assert code == 0
        assert payload["result"]["decay_class"] == "Schwartz"
        member = read_diffeo(str(tmp_path / "composed.dff"))
        assert member.decay_class is DecayClass.SCHWARTZ

    def test_compose_needs_two_sources(self, capsys):
        code, _, err = run_cli(
            capsys, "--command", "compose", "--descriptor", "0.1*exp(-x^2)")
        assert code == 1
        assert "exactly 2" in err

    def test_invert_reports_identity_residuals(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "invert", "--class", "Schwartz",
            "--descriptor", "0.1*exp(-x^2)")
        assert code == 0
        assert payload["holds"] is True
        assert payload["residuals"]["left_identity"] <= 1e-6
        assert payload["residuals"]["right_identity"] <= 1e-6

    def test_invert_zero_tolerance_fails_honestly(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "invert", "--class", "Schwartz",
            "--descriptor", "0.1*exp(-x^2)", "--tol", "0")
        assert code == 2
        assert payload["holds"] is False

    def test_non_diffeo_exits_3(self, capsys):
        # = form keeps argparse from reading the leading minus as a flag
        code, _, err = run_cli(
            capsys, "--command", "invert", "--class", "Schwartz",
            "--descriptor=-2*x*exp(-x^2)")
        assert code == 3
        assert "NonDiffeoError" in err

    @pytest.mark.parametrize("argv,margins", [
        # the source and its inverse; the identity residuals build no member
        (["--command", "invert", "--class", "Schwartz", "--descriptor", "0.1*exp(-x^2)"], 2),
        # two sources, the inverse of the outer, the inner o outer, the result
        (["--command", "conjugate", "--descriptor", "0.2*tanh((x-0.3)/1.1)",
          "--descriptor", "0.1*exp(-x^2)"], 5),
        # no member at all: right_log_derivative reads the margins evolve measured,
        # and without --out the final snapshot is never wrapped
        (["--command", "evolve", "--class", "Schwartz",
          "--descriptor", "0.08*exp(-x^2)*cos(t)"], 0),
    ], ids=["invert", "conjugate", "evolve"])
    def test_each_member_measures_one_margin(self, capsys, monkeypatch, argv, margins):
        calls = []
        measure = group._det_margin
        monkeypatch.setattr(group, "_det_margin",
                            lambda displacement: calls.append(1) or measure(displacement))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == margins

    def test_under_resolved_compose_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "--command", "compose", "--class", "BoundedAll",
            "--descriptor", "0.1*exp(-x^2)", "--descriptor", "1")
        assert code == 3
        assert "UnderResolvedError" in err


class TestConjugate:
    def test_class_preserved(self, capsys, tmp_path):
        grid = Grid(1, 8.0, 257)
        outer = Diffeo.from_descriptor(grid, "0.2*tanh((x-0.3)/1.1)",
                                       DecayClass.BOUNDED_ALL)
        inner = Diffeo.from_descriptor(grid, "0.1*exp(-x^2)",
                                       DecayClass.SCHWARTZ)
        outer_path, inner_path = tmp_path / "o.dff", tmp_path / "i.dff"
        write_diffeo(str(outer_path), outer)
        write_diffeo(str(inner_path), inner)
        code, payload, _ = run_cli(
            capsys, "--command", "conjugate",
            "--input", str(outer_path), "--input", str(inner_path),
            "--out", str(tmp_path))
        assert code == 0
        assert payload["class_ok"] is True
        assert payload["inner_class"] == "Schwartz"
        assert payload["outer_class"] == "BoundedAll"
        assert payload["diagnostics"]["agrees"] is True
        assert (tmp_path / "conjugate.dff").exists()

    def test_broken_claim_exits_2(self, capsys, tmp_path):
        grid = Grid(1, 8.0, 257)
        outer = Diffeo.from_descriptor(grid, "0.05*exp(-x^2)",
                                       DecayClass.SCHWARTZ)
        # the file claims Schwartz for a displacement that only decays like x^-2
        slow = DisplacementField.from_descriptor(grid, "0.05/(1+x^2)")
        inner = Diffeo(slow, DecayClass.SCHWARTZ)
        outer_path, inner_path = tmp_path / "o.dff", tmp_path / "i.dff"
        write_diffeo(str(outer_path), outer)
        write_diffeo(str(inner_path), inner)
        code, payload, _ = run_cli(
            capsys, "--command", "conjugate",
            "--input", str(outer_path), "--input", str(inner_path))
        assert code == 2
        assert payload["class_ok"] is False


class TestEvolve:
    def test_flow_report_and_outputs(self, capsys, tmp_path):
        code, payload, _ = run_cli(
            capsys, "--command", "evolve", "--class", "Schwartz",
            "--descriptor", "0.08*exp(-x^2)*cos(t)",
            "--t-final", "0.5", "--dt", "0.03125", "--out", str(tmp_path))
        assert code == 0
        assert payload["steps"] == 16
        assert payload["sup_bound_holds"] is True
        assert payload["gronwall_holds"] is True
        assert payload["sobolev_holds"] is True
        assert payload["final_class"] == "Schwartz"
        assert payload["right_log_derivative_gap"] <= 1e-3
        csv_lines = (tmp_path / "time_series.csv").read_text().splitlines()
        assert len(csv_lines) == 18
        final = read_diffeo(str(tmp_path / "final.dff"))
        assert final.decay_class is DecayClass.SCHWARTZ

    def test_exiting_flow_returns_4(self, capsys):
        code, _, err = run_cli(
            capsys, "--command", "evolve", "--class", "BoundedAll",
            "--descriptor", "1", "--t-final", "2", "--dt", "0.25")
        assert code == 4
        assert "FlowDomainError" in err

    def test_oversized_run_exits_1(self, capsys):
        code, payload, err = run_cli(
            capsys, "--command", "evolve", "--descriptor", "0.1*exp(-x^2)",
            "--dt", "1e-13")
        assert code == 1 and payload is None
        assert json.loads(err)["error"] == "FieldError"

    def test_evolve_needs_one_descriptor(self, capsys):
        code, _, _ = run_cli(
            capsys, "--command", "evolve",
            "--descriptor", "x", "--descriptor", "x")
        assert code == 1


class TestDeepDescriptors:
    """Descriptors too deep for the recursive passes are input errors, not crashes."""

    FLOW = ["--command", "evolve", "--class", "Schwartz", "--t-final", "0.5", "--dt", "0.03125"]

    @pytest.mark.parametrize("argv", [
        # the walk of a left-deep sum
        ["--command", "classify", "--descriptor", "+".join(["x"] * 1500)],
        # Python's parser: more than 200 nested parentheses
        ["--command", "classify", "--descriptor", "(" * 400 + "x" + ")" * 400],
        # stacked signs: Python's recursion limit, then its parser's stack
        ["--command", "classify", "--descriptor=" + "-" * 3000 + "x"],
        ["--command", "classify", "--descriptor=" + "-" * 100000 + "x"],
        # the descriptor binds, its Jacobian (about twice as deep) does not
        FLOW + ["--descriptor", "0.05*exp(-x^2)" + "*(1+0.001*cos(x))" * 600],
    ], ids=["sum", "parentheses", "signs", "parser-stack", "jacobian"])
    def test_too_deep_exits_1(self, capsys, argv):
        code, payload, err = run_cli(capsys, *argv, "--quiet")
        assert code == 1 and payload is None
        assert json.loads(err)["error"] == "DescriptorError"

    @pytest.mark.parametrize("argv", [
        ["--command", "classify", "--descriptor", "+".join(["0.001*exp(-x^2)"] * 300)],
        FLOW + ["--descriptor", "0.05*exp(-x^2)" + "*(1+0.001*cos(x))" * 300],
    ], ids=["sum", "factors"])
    def test_300_levels_run(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--quiet")
        assert code == 0, err


class TestVerify:
    def test_zero_tolerance_is_controlled_failure(self, capsys):
        code, payload, _ = run_cli(
            capsys, "--command", "verify", "--tol", "0")
        assert code == 2
        assert payload["passed"] is False
        assert "controlled_failure" in payload


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "diffeoflow", "--command", "classify",
         "--descriptor", "0.2*exp(-x^2)", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["inferred_class"] == "Schwartz"
    assert (tmp_path / "classify_report.json").exists()

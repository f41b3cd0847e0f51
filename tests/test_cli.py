import ctypes
import importlib.util
import json
import resource
import subprocess
import sys
import warnings
from pathlib import Path

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
from diffeoflow import acceptance, flows, group
from diffeoflow.cli import config_from_argv, main
from diffeoflow.decay import measured_class


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# each flag beside --command, --out and --quiet, with a value that is not its default
FLAG_VALUES = {"--dim": "2", "--half-width": "4", "--points": "33", "--class": "schwartz",
               "--descriptor": "0.1*exp(-x^2-y^2), 0", "--input": "m.dff",
               "--t-final": "0.5", "--dt": "0.125", "--tol": "1e-8", "--seed": "7"}
# the parsed value of each flag that is not a field source
CONFIG_VALUES = {"--dim": ("dim", 2), "--half-width": ("half_width", 4.0),
                 "--points": ("points", 33), "--class": ("decay_class", DecayClass.SCHWARTZ),
                 "--t-final": ("t_final", 0.5), "--dt": ("dt", 0.125),
                 "--tol": ("tol", 1e-8), "--seed": ("seed", 7)}
MEMBER_FLAGS = ("--dim", "--half-width", "--points", "--class", "--descriptor", "--input")
# command: (the flags it reads, as many field sources as it takes)
COMMAND_FLAGS = {
    "classify": (MEMBER_FLAGS, ["--input", "m.dff"]),
    "compose": (MEMBER_FLAGS, ["--descriptor", "x", "--input", "m.dff"]),
    "invert": ((*MEMBER_FLAGS, "--tol"), ["--descriptor", "x"]),
    "conjugate": (MEMBER_FLAGS, ["--descriptor", "x", "--descriptor", "x"]),
    "evolve": (("--dim", "--half-width", "--points", "--class", "--descriptor", "--t-final",
                "--dt"), ["--descriptor", "x"]),
    "verify": (("--seed",), []),
}


class TestConfig:
    def test_flags_map_to_config(self, capsys):
        for command, (reads, sources) in COMMAND_FLAGS.items():
            argv = ["--command", command, *sources, "--quiet"]
            for flag in reads:
                if flag in CONFIG_VALUES:
                    argv += [flag, FLAG_VALUES[flag]]
            config = config_from_argv(argv)
            assert config.command == command and config.quiet
            for flag, (name, value) in CONFIG_VALUES.items():
                # a flag the command does not read keeps its default
                assert (getattr(config, name) == value) is (flag in reads), (command, flag)
            assert (config.grid == Grid(2, 4.0, 33)) is ("--dim" in reads)
            # argparse refuses every other flag
            for flag in FLAG_VALUES.keys() - set(reads):
                with pytest.raises(SystemExit):
                    config_from_argv([*argv, flag, FLAG_VALUES[flag]])
        capsys.readouterr()

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
        # an unknown class is refused before any command runs, verify included
        ["--command", "verify", "--class", "Foo"],
        ["--command", "classify", "--class", "Foo", "--descriptor", "0.1*exp(-x^2)"],
        # flags the command does not read
        ["--command", "verify", "--quiet", "--tol", "0.5", "--points", "33", "--half-width", "3",
         "--class", "BoundedAll", "--t-final", "9"],
        ["--command", "classify", "--tol", "1e-3", "--descriptor", "0.1*exp(-x^2)"],
        ["--command", "classify", "--seed", "7", "--descriptor", "0.1*exp(-x^2)"],
        ["--command", "classify", "--t-final", "2", "--descriptor", "0.1*exp(-x^2)"],
        # --help after an unknown command
        ["--command", "nonsense", "--help"],
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

    # an --input member's class is its file's, so --class beside one is refused;
    # the file holds a BoundedAll member
    @pytest.mark.parametrize("argv", [
        ["--command", "compose", "--descriptor", "0.1*exp(-x^2)", "--input", "FILE"],
        ["--command", "invert", "--input", "FILE"],
        ["--command", "conjugate", "--descriptor", "0.2*tanh((x-0.3)/1.1)", "--input", "FILE"],
    ], ids=["compose", "invert", "conjugate"])
    def test_class_beside_an_input_exits_1(self, capsys, tmp_path, argv):
        path = str(tmp_path / "member.dff")
        write_diffeo(path, Diffeo.from_descriptor(Grid(1, 8.0, 257), "0.1*tanh(x)"))
        argv = [path if arg == "FILE" else arg for arg in argv]
        code, payload, _ = run_cli(capsys, *argv)
        assert code == 0
        assert payload["result"]["decay_class"] == "BoundedAll"
        code, payload, err = run_cli(capsys, *argv, "--class", "Schwartz")
        assert code == 1 and payload is None
        assert json.loads(err)["error"] == "ValueError"

    def test_help_exits_0(self, capsys):
        # alone, --help lists every flag
        assert main(["--help"]) == 0
        printed = capsys.readouterr().out
        assert all(flag in printed for flag in ("--command", "--out", "--quiet", *FLAG_VALUES))

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_command_help_lists_its_flags(self, capsys, command):
        assert main(["--command", command, "--help"]) == 0
        printed = capsys.readouterr().out
        assert all(flag in printed for flag in ("--command", "--out", "--quiet"))
        reads = COMMAND_FLAGS[command][0]
        for flag in FLAG_VALUES:
            assert (flag in printed) is (flag in reads), flag


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
        want = classify_decay(field)
        calls = []

        def counting(target):
            calls.append(target)
            return classify_decay(target)

        monkeypatch.setattr(cli_module, "classify_decay", counting)
        monkeypatch.setattr(group, "classify_decay", counting)
        # a class-only verdict counts too: the member is built from the report's class
        monkeypatch.setattr(group, "measured_class", counting)
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
        path.write_bytes(path.read_bytes().replace(b'"class_hint": "Schwartz"',
                                                   b'"class_hint": "Foo"', 1))
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
        assert json.loads(err)["error"] == "config" and "exactly 2" in err

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

    def test_off_box_pole_exits_1_with_the_point(self, capsys):
        # the inner shift carries the face node x = 8 onto the outer's pole at 8.5,
        # which no node reads: the formula read raises, and no warning escapes
        code, payload, err = run_cli(
            capsys, "--command", "compose", "--class", "BoundedAll",
            "--descriptor", "0.1/(8.5-x)", "--descriptor", "0.5+0*x")
        assert code == 1
        assert payload is None
        error = json.loads(err)
        assert error["error"] == "FieldError"
        assert error["message"] == "the displacement formula reads [inf] at point [8.5]"

    @pytest.mark.parametrize("argv, point", [
        (["--command", "classify", "--descriptor", "exp(100*x)"], [7.125]),
        (["--command", "invert", "--descriptor", "0.1/x"], [0.0]),
    ], ids=["overflow", "pole"])
    def test_non_finite_node_exits_1_with_the_point(self, capsys, argv, point):
        # the node read raises one FieldError, and no warning escapes
        code, payload, err = run_cli(capsys, *argv)
        assert code == 1 and payload is None
        assert json.loads(err) == {
            "error": "FieldError",
            "message": f"the displacement formula reads [inf] at point {point}"}

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

    @pytest.mark.parametrize("grid_args, outer, inner", [
        (["--points", "513"], "0.2*tanh((x-0.3)/1.1)", "0.1*exp(-x^2)"),
        (["--dim", "2", "--points", "129"], "0.2*tanh(x/1.1), 0.15*tanh(y)",
         "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)"),
    ], ids=["1d-513", "2d-129"])
    def test_left_identity_is_inverts(self, capsys, grid_args, outer, inner):
        _, conjugated, _ = run_cli(capsys, "--command", "conjugate", *grid_args,
                                   "--descriptor", outer, "--descriptor", inner)
        _, inverted, _ = run_cli(capsys, "--command", "invert", *grid_args,
                                 "--descriptor", outer)
        got = conjugated["diagnostics"]["left_identity"]
        assert got.hex() == inverted["residuals"]["left_identity"].hex()
        assert 0.0 < got < 1.0e-5


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

    @pytest.mark.parametrize("t_final, code", [("0.0625", 1), ("0.1875", 1), ("0.25", 0)])
    def test_time_stencil_needs_four_steps(self, capsys, t_final, code):
        # 1 and 3 steps leave right_log_derivative's five-point stencil no interior snapshot
        got, payload, err = run_cli(
            capsys, "--command", "evolve", "--descriptor", "0.1*exp(-x^2)",
            "--t-final", t_final, "--dt", "0.0625")
        assert got == code
        if code:
            assert payload is None and json.loads(err)["error"] == "FieldError"

    @pytest.mark.parametrize("descriptor, point", [("0.1/x", [0.0]), ("exp(100*x)", [7.125])],
                             ids=["pole", "overflow"])
    def test_non_finite_field_at_t0_exits_1_with_the_point(self, capsys, descriptor, point):
        # one JSON error line naming the first bad node, and no numpy warning
        code, payload, err = run_cli(capsys, "--command", "evolve", "--descriptor", descriptor)
        assert code == 1 and payload is None
        assert json.loads(err) == {
            "error": "FieldError",
            "message": f"the vector field at t = 0 reads [inf] at point {point}"}

    def test_non_finite_flow_later_exits_4(self, capsys):
        # finite at every node at t = 0 (exp(64) at the faces); the stages overflow
        code, payload, err = run_cli(
            capsys, "--command", "evolve", "--class", "BoundedAll",
            "--descriptor", "exp(x^2)", "--t-final", "1", "--dt", "0.25")
        assert code == 4 and payload is None
        assert json.loads(err)["error"] == "FlowBlowupError"

    def test_edge_gate_builds_no_history(self, capsys, monkeypatch):
        def no_history(*args, **kwargs):
            raise AssertionError("a Sobolev history was built")

        monkeypatch.setattr(flows, "seminorm_table", no_history)
        code, payload, _ = run_cli(
            capsys, "--command", "evolve", "--class", "Schwartz",
            "--descriptor", "0.08*exp(-x^2)*cos(t)", "--t-final", "0.5", "--dt", "0.03125")
        assert code == 0 and payload["sobolev_holds"] is True
        assert acceptance.criterion_class_preservation().passed is True

    @pytest.mark.parametrize("argv", [[], ["--class", "BoundedAll"]],
                             ids=["inferred", "given"])
    def test_final_snapshot_is_classified_once(self, capsys, monkeypatch, argv):
        # without --class, evolve infers the class on the final snapshot, which the
        # report's final_class reuses
        calls = []

        def counting(target):
            calls.append(target)
            return measured_class(target)

        monkeypatch.setattr(flows, "measured_class", counting)
        monkeypatch.setattr(cli_module, "measured_class", counting)
        code, payload, _ = run_cli(capsys, "--command", "evolve",
                                   "--descriptor", "0.12*cos(0.7*x-0.6*t)", *argv)
        assert code == 0 and payload["final_class"] == "BoundedAll"
        assert len(calls) == 1

    def test_evolve_needs_one_descriptor(self, capsys):
        code, _, err = run_cli(
            capsys, "--command", "evolve",
            "--descriptor", "x", "--descriptor", "x")
        assert code == 1
        assert json.loads(err)["error"] == "config"


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
    def test_tol_is_refused(self, capsys):
        # verify reads only --seed: argparse refuses --tol, whatever its value
        for tol in ("0", "0.5"):
            code, payload, err = run_cli(capsys, "--command", "verify", "--tol", tol)
            assert code == 1 and payload is None
            assert f"unrecognized arguments: --tol {tol}" in err


@pytest.mark.parametrize("argv", [
    ["--command", "classify", "--descriptor", "0.2*exp(-x^2)"],
    ["--command", "compose", "--descriptor", "0.1*exp(-x^2)",
     "--descriptor", "0.05*exp(-(x-1)^2)"],
    ["--command", "invert", "--class", "Schwartz", "--descriptor", "0.1*exp(-x^2)"],
    ["--command", "conjugate", "--descriptor", "0.2*tanh((x-0.3)/1.1)",
     "--descriptor", "0.1*exp(-x^2)"],
    ["--command", "evolve", "--descriptor", "0.1*exp(-x^2)", "--t-final", "0.25",
     "--dt", "0.0625"],
    ["--command", "verify", "--seed", "1789"],
], ids=lambda argv: argv[1])
def test_output_tail(capsys, tmp_path, argv):
    # the report file is the printed bytes; --out holds it and the files it names
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    code = main([*argv, "--out", str(loud)])
    printed = capsys.readouterr().out
    report = f"{argv[1]}_report.json"
    assert (loud / report).read_bytes() == printed.encode()
    payload = json.loads(printed)
    named = payload.get("outputs", [payload["output"]] if "output" in payload else [])
    assert sorted(path.name for path in loud.iterdir()) == sorted([report, *named])
    # --quiet prints nothing and writes the same bytes
    assert main([*argv, "--out", str(quiet), "--quiet"]) == code
    assert capsys.readouterr().out == ""
    assert sorted(path.name for path in quiet.iterdir()) == sorted([report, *named])
    for name in named + [report]:
        assert (quiet / name).read_bytes() == (loud / name).read_bytes()


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "diffeoflow", "--command", "classify",
         "--descriptor", "0.2*exp(-x^2)", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["report"]["inferred_class"] == "Schwartz"
    assert (tmp_path / "classify_report.json").exists()


CLI_OUTPUTS = Path(__file__).resolve().parents[1] / ".github" / "cli_outputs.py"


@pytest.fixture
def cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", CLI_OUTPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_exit_codes(capsys, tmp_path, monkeypatch, cli_outputs):
    """Every ``.github/cli_outputs.py`` command, run in process and in order, exits as its
    ``EXIT_CODES`` table pins, and every input error (exit 1) prints one JSON stderr line.

    The commands run in one working directory with ``--out <name>/out``, as the
    script runs them, so a command reading an earlier one's file finds it.
    """
    assert cli_outputs.EXIT_CODES.keys() <= {name for name, _ in cli_outputs.COMMANDS}
    monkeypatch.chdir(tmp_path)
    for name, args in cli_outputs.COMMANDS:
        code = main([*args, "--out", f"{name}/out"])
        err = capsys.readouterr().err
        assert code == cli_outputs.EXIT_CODES.get(name, (0,))[0], (name, err)
        if code == 1:
            (line,) = err.splitlines()
            json.loads(line)


@pytest.mark.parametrize("pinned, want", [(0, 0), (2, 1)])
def test_cli_outputs_fails_on_a_wrong_pin(capsys, tmp_path, monkeypatch, cli_outputs,
                                          pinned, want):
    # one cheap command, pinned to its exit code or to another
    monkeypatch.setattr(cli_outputs, "COMMANDS", [
        ("classify", ["--command", "classify", "--descriptor", "0.2*exp(-x^2)"])])
    monkeypatch.setattr(cli_outputs, "EXIT_CODES", {"classify": (pinned, "planted")})
    src = Path(__file__).resolve().parents[1] / "src"
    assert cli_outputs.main([str(src), str(tmp_path)]) == want
    assert (tmp_path / "classify" / "exit_code").read_text() == "0\n"
    capsys.readouterr()


def _glibc_mallopt() -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version")


@pytest.mark.skipif(not _glibc_mallopt(), reason="the allocator policy needs glibc's mallopt")
def test_a_repeated_257_command_reuses_freed_arrays(capsys, tmp_path, monkeypatch,
                                                    cli_outputs):
    # with glibc's default thresholds each run faults in about 10k pages again
    argv = [*dict(cli_outputs.COMMANDS)["conjugate-2d-257"], "--quiet", "--out", "c"]
    monkeypatch.chdir(tmp_path)
    main(argv)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    main(argv)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults
    capsys.readouterr()


@pytest.fixture
def unset_policy():
    """``main`` sets the allocator policy anew on its next call, and after the test."""
    cli_module._keep_freed_arrays.cache_clear()
    yield
    cli_module._keep_freed_arrays.cache_clear()


def test_a_c_library_without_mallopt_is_a_silent_no_op(capsys, monkeypatch, unset_policy):
    opened = []

    def c_library(name):
        opened.append(name)
        return object()  # no mallopt, as on a C library other than glibc
    monkeypatch.setattr(cli_module.ctypes, "CDLL", c_library)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            code, payload, err = run_cli(capsys, "--command", "classify",
                                         "--descriptor", "0.2*exp(-x^2)")
            assert (code, payload["report"]["inferred_class"], err) == (0, "Schwartz", "")
    # the second call does not look again
    assert opened == [None]

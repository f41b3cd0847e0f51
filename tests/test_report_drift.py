"""The drift summary of two CLI output trees, ``.github/report_drift.py``."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from diffeoflow import DecayClass, DisplacementField, Grid, write_displacement

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "report_drift.py"
spec = importlib.util.spec_from_file_location("report_drift", SCRIPT)
report_drift = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_drift)


def _tree(root: Path, report: dict, exit_code: int, rows: str) -> Path:
    run = root / "invert-2d"
    (run / "out").mkdir(parents=True)
    (run / "out" / "invert_report.json").write_text(json.dumps(report))
    (run / "exit_code").write_text(f"{exit_code}\n")
    (run / "out" / "inverse.dff").write_text('{"dim": 1}\n' + rows + "\n")
    (run / "stderr").write_text("")
    return root


def test_floats_are_summarized_and_everything_else_is_listed(tmp_path, capsys):
    base = _tree(tmp_path / "base", {
        "result": {"measured_class": "Schwartz", "epsilon": 0.5},
        "residuals": {"right_identity": 1.0e-14, "left_identity": 2.0e-5},
        "holds": True, "steps": 16}, 0, "0,0.25,1.5")
    head = _tree(tmp_path / "head", {
        "result": {"measured_class": "CompactSupport", "epsilon": 0.5},
        "residuals": {"right_identity": 1.0e-15, "left_identity": 2.5e-5},
        "holds": False, "steps": 17}, 2, "1e-20,0.25,1.5000000000000002")
    assert report_drift.main([str(base), str(head)]) == 0
    lines = capsys.readouterr().out.splitlines()
    report = next(i for i, x in enumerate(lines)
                  if x.startswith("invert-2d/out/invert_report.json"))
    assert "2 floats changed" in lines[report]
    assert "worst abs 5e-06 at residuals.left_identity" in lines[report]
    assert "worst rel 0.9 at residuals.right_identity" in lines[report]
    assert lines[report + 1:report + 4] == [
        "    holds: true -> false",
        '    result.measured_class: "Schwartz" -> "CompactSupport"',
        "    steps: 16 -> 17",
    ]
    assert "    line 1 field 1: 0 -> 2" in lines
    rows = next(x for x in lines if x.startswith("invert-2d/out/inverse.dff"))
    assert "2 floats changed; worst abs 2.22e-16 at component 0 node 2" in rows
    assert "worst rel 1 at component 0 node 0 (0.0 -> 1e-20)" in rows
    assert not any(x.startswith("invert-2d/stderr") for x in lines)


def test_identical_trees(tmp_path, capsys):
    base = _tree(tmp_path / "base", {"a": 1.0}, 0, "0.5")
    head = _tree(tmp_path / "head", {"a": 1.0}, 0, "0.5")
    report_drift.main([str(base), str(head)])
    assert capsys.readouterr().out == "every file is byte-identical\n"


def _member_trees(root: Path, values: np.ndarray) -> tuple:
    """A tree holding ``values`` as a v1 text ``.dff`` and one holding them as v2."""
    grid = Grid(2, 8.0, 17)
    v1, v2 = root / "v1" / "compose-2d" / "out", root / "v2" / "compose-2d" / "out"
    v1.mkdir(parents=True)
    v2.mkdir(parents=True)
    header = {"dim": 2, "half_width": 8, "points_per_axis": 17, "class_hint": "Schwartz",
              "components": 2}
    rows = [",".join(format(v, ".17g") for v in row) for row in values.reshape(2, -1).tolist()]
    (v1 / "composed.dff").write_text(json.dumps(header) + "\n" + "\n".join(rows) + "\n")
    write_displacement(str(v2 / "composed.dff"), DisplacementField(grid, values),
                       DecayClass.SCHWARTZ)
    return root / "v1", root / "v2"


def _values(rng) -> np.ndarray:
    values = rng.normal(scale=0.1, size=(2, 17, 17))
    values.flat[:6] = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, 0.0]
    return values


def test_v1_and_v2_files_of_the_same_doubles_read_as_identical(tmp_path, capsys, rng):
    base, head = _member_trees(tmp_path, _values(rng))
    assert report_drift.main([str(base), str(head)]) == 0
    assert capsys.readouterr().out == "compose-2d/out/composed.dff: no float changed\n"


def test_one_ulp_and_a_zero_sign_are_placed_by_component_and_node(tmp_path, capsys, rng):
    values = _values(rng)
    values[1, 0, 5] = 0.1
    base, _ = _member_trees(tmp_path / "a", values)
    values[1, 0, 5] = np.nextafter(0.1, 1.0)
    values.flat[5] = -0.0
    _, head = _member_trees(tmp_path / "b", values)
    report_drift.main([str(base), str(head)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("compose-2d/out/composed.dff: 1 floats changed; "
                               "worst abs 1.39e-17 at component 1 node 5 ")
    assert lines[1:] == ["    component 0 node 5: 0.0 -> -0.0"]

"""The drift summary of two CLI output trees, ``.github/report_drift.py``."""

import importlib.util
import json
from pathlib import Path

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
    assert "2 floats changed; worst abs 2.22e-16 at line 2 field 3" in rows
    assert "worst rel 1 at line 2 field 1 (0 -> 1e-20)" in rows
    assert not any(x.startswith("invert-2d/stderr") for x in lines)


def test_identical_trees(tmp_path, capsys):
    base = _tree(tmp_path / "base", {"a": 1.0}, 0, "0.5")
    head = _tree(tmp_path / "head", {"a": 1.0}, 0, "0.5")
    report_drift.main([str(base), str(head)])
    assert capsys.readouterr().out == "every file is byte-identical\n"

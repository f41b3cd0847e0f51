import json
import math
import re

import numpy as np
import pytest

from diffeoflow import (
    DecayClass,
    Diffeo,
    DisplacementField,
    FileFormatError,
    Grid,
    TimeDependentVectorField,
    evolve,
    read_diffeo,
    read_displacement,
    stable_json_dumps,
    write_diffeo,
    write_displacement,
    write_report,
    write_time_series_csv,
)
from diffeoflow.cli import main
from diffeoflow.io import _format_float


class TestStableJson:
    def test_scalar_formats(self):
        text = stable_json_dumps({
            "a": 1, "b": 0.1, "c": None, "d": True, "e": "x\"y",
            "f": float("nan"), "g": float("inf"), "h": float("-inf"),
        })
        assert '"a": 1' in text
        assert '"b": 0.10000000000000001' in text
        assert '"c": null' in text
        assert '"d": true' in text
        assert '"f": NaN' in text
        assert '"g": Infinity' in text
        assert '"h": -Infinity' in text

    def test_numpy_types(self):
        text = stable_json_dumps({
            "i": np.int64(3), "x": np.float64(0.5), "b": np.bool_(False),
            "arr": np.array([1.0, 2.0]),
        })
        assert '"i": 3' in text and '"x": 0.5' in text
        assert '"b": false' in text
        assert '"arr": [1, 2]' in text

    def test_round_trips_doubles(self):
        values = [1.0 / 3.0, math.pi, 1e-300, 6.02e23, -0.0]
        text = stable_json_dumps(values)
        parsed = [float(tok) for tok in text.strip("[]").split(", ")]
        assert all(a == b for a, b in zip(parsed, values))

    def test_key_order_preserved(self):
        assert stable_json_dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'

    def test_rejects_foreign_types(self):
        with pytest.raises(FileFormatError):
            stable_json_dumps({1: "non-string key"})
        with pytest.raises(FileFormatError):
            stable_json_dumps({"obj": object()})

    def test_determinism(self):
        payload = {"values": np.linspace(0.0, 1.0, 7), "n": 7, "ok": True}
        assert stable_json_dumps(payload) == stable_json_dumps(payload)


class TestDisplacementFiles:
    def test_write_read_write_is_byte_stable(self, coarse_grid, tmp_path, rng):
        values = rng.normal(size=(1,) + coarse_grid.shape)
        disp = DisplacementField(coarse_grid, values)
        first = tmp_path / "d.dsp"
        second = tmp_path / "d2.dsp"
        write_displacement(str(first), disp, DecayClass.SCHWARTZ)
        loaded, hint = read_displacement(str(first))
        write_displacement(str(second), loaded, hint)
        assert first.read_bytes() == second.read_bytes()
        assert hint is DecayClass.SCHWARTZ
        assert np.array_equal(loaded.values, disp.values)
        assert loaded.grid == coarse_grid

    def test_rows_match_format_float_bytes(self, coarse_grid, tmp_path, rng):
        values = rng.normal(size=coarse_grid.shape)
        specials = [-0.0, 5e-324, 1e-300, 0.1, 1.7976931348623157e308, -5e-324,
                    -1.7976931348623157e308, 1.0, 123456789.0]
        values[: len(specials)] = specials
        disp = DisplacementField(coarse_grid, values[None])
        first = tmp_path / "d.dsp"
        second = tmp_path / "d2.dsp"
        write_displacement(str(first), disp)
        rows = first.read_bytes().split(b"\n")[1:-1]
        want = ",".join(_format_float(v) for v in disp.values.reshape(-1))
        assert rows == [want.encode("utf-8")]
        assert rows[0].startswith(b"-0,4.9406564584124654e-324,1e-300,"
                                  b"0.10000000000000001,1.7976931348623157e+308,")
        loaded, _ = read_displacement(str(first))
        write_displacement(str(second), loaded)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(np.signbit(loaded.values), np.signbit(disp.values))

    def test_header_contents(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"dim": 1, "half_width": 8, "points_per_axis": 65,
                          "class_hint": None, "components": 1}

    def test_float_half_width_loads(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"half_width": 8', '"half_width": 8.0')
        path.write_text("\n".join(lines) + "\n")
        loaded, _ = read_displacement(str(path))
        assert loaded.grid == coarse_grid

    def test_class_hint_sets_extrapolation(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        disp = DisplacementField.from_descriptor(coarse_grid, "0.1*tanh(x)", "clamp")
        write_displacement(str(path), disp, DecayClass.BOUNDED_ALL)
        loaded, hint = read_displacement(str(path))
        assert hint is DecayClass.BOUNDED_ALL
        assert loaded.extrapolation == "clamp"

    def test_two_dimensional_round_trip(self, plane_grid, tmp_path):
        path = tmp_path / "d2.dsp"
        disp = DisplacementField.from_descriptor(
            plane_grid, "0.1*exp(-x^2-y^2), -0.05*exp(-x^2-y^2)")
        write_displacement(str(path), disp, DecayClass.SCHWARTZ)
        loaded, _ = read_displacement(str(path))
        assert np.array_equal(loaded.values, disp.values)

    @pytest.mark.parametrize("mangle", [
        lambda lines: [],                                          # empty file
        lambda lines: ["not json"] + lines[1:],                    # bad header
        lambda lines: ["[1, 2]"] + lines[1:],                      # not an object
        lambda lines: [lines[0].replace("dim", "dmi")] + lines[1:],
        lambda lines: [lines[0].replace('"dim": 1', '"dim": null')] + lines[1:],
        lambda lines: [lines[0].replace('"points_per_axis": 65',
                                        '"points_per_axis": 4')] + lines[1:],
        lambda lines: [lines[0].replace('"components": 1',
                                        '"components": 2')] + lines[1:],
        lambda lines: lines[:1],                                   # missing rows
        lambda lines: lines[:1] + [lines[1] + ",0"],               # extra sample
        lambda lines: lines[:1] + [lines[1].replace(",", ",spam,", 1)],
        lambda lines: lines[:1] + [lines[1].replace(",", ",NaN,", 1)],
        lambda lines: [lines[0].replace('"dim": 1', '"dim": 1.5')] + lines[1:],
        lambda lines: [lines[0].replace('"dim": 1', '"dim": true')] + lines[1:],
        lambda lines: [lines[0].replace('"points_per_axis": 65',
                                        '"points_per_axis": 65.9')] + lines[1:],
        lambda lines: [lines[0].replace('"points_per_axis": 65',
                                        '"points_per_axis": "65"')] + lines[1:],
        lambda lines: [lines[0].replace('"components": 1',
                                        '"components": 1.0')] + lines[1:],
        lambda lines: [lines[0].replace('"half_width": 8',
                                        '"half_width": true')] + lines[1:],
        lambda lines: [lines[0].replace('"half_width": 8',
                                        '"half_width": "8"')] + lines[1:],
    ])
    def test_malformed_files_rejected(self, coarse_grid, tmp_path, mangle):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(mangle(lines)) + "\n")
        with pytest.raises(FileFormatError):
            read_displacement(str(path))

    def test_unknown_class_hint_is_a_file_error(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace('"class_hint": null', '"class_hint": "Foo"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_displacement(str(path))

    def test_oversized_header_is_a_file_error(self, tmp_path, capsys):
        # the header asks for 2 x 10000001^2 samples; each row holds two
        path = tmp_path / "huge.dff"
        header = {"dim": 2, "half_width": 8, "points_per_axis": 10000001,
                  "class_hint": None, "components": 2}
        path.write_text(stable_json_dumps(header) + "\n0,0\n0,0\n")
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_displacement(str(path))
        assert main(["--command", "classify", "--input", str(path)]) == 1
        capsys.readouterr()

    def test_infinite_samples_rejected(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0,", "Infinity,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_displacement(str(path))


class TestDiffeoFiles:
    def test_round_trip(self, fine_grid, tmp_path):
        member = Diffeo.from_descriptor(fine_grid, "0.1*exp(-x^2)",
                                        DecayClass.SCHWARTZ)
        path = tmp_path / "m.dsp"
        write_diffeo(str(path), member)
        clone = read_diffeo(str(path))
        assert clone.decay_class is DecayClass.SCHWARTZ
        assert np.array_equal(clone.displacement.values,
                              member.displacement.values)
        # the margin is re-measured on load
        assert clone.epsilon == member.epsilon

    def test_one_file_per_member(self, fine_grid, tmp_path):
        member = Diffeo.from_descriptor(fine_grid, "0.2*tanh(x)",
                                        DecayClass.BOUNDED_ALL)
        path = tmp_path / "m.dsp"
        write_diffeo(str(path), member)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dsp"]
        header = json.loads(path.read_text().splitlines()[0])
        assert header["class_hint"] == "BoundedAll"
        # a stale sidecar from an older writer disagrees with the header
        (tmp_path / "m.dsp.meta.json").write_text('{"decay_class": "Schwartz", "epsilon": 1}')
        clone = read_diffeo(str(path))
        assert clone.decay_class is DecayClass.BOUNDED_ALL
        assert clone.displacement.extrapolation == "clamp"

    def test_null_class_hint_is_measured(self, fine_grid, tmp_path):
        path = tmp_path / "m.dsp"
        write_displacement(str(path),
                           DisplacementField.from_descriptor(fine_grid, "0.1*exp(-x^2)"))
        assert read_diffeo(str(path)).decay_class is DecayClass.SCHWARTZ


class TestReportAndCsv:
    def test_write_report(self, tmp_path):
        path = tmp_path / "r.json"
        write_report(str(path), {"ok": True, "value": 0.25})
        assert path.read_text() == '{"ok": true, "value": 0.25}\n'

    def test_time_series_csv(self, coarse_grid, tmp_path):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.05*exp(-x^2)", DecayClass.SCHWARTZ)
        result = evolve(field, 0.5, 0.125, coarse_grid)
        path = tmp_path / "series.csv"
        write_time_series_csv(str(path), result)
        lines = path.read_text().splitlines()
        assert lines[0] == ("t,sup_displacement,bound_sup,bound_defect,"
                            "sup_jacobian,min_det,alpha,beta")
        assert len(lines) == 1 + result.times.shape[0]
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0
        last = [float(tok) for tok in lines[-1].split(",")]
        assert last[0] == 0.5
        assert last[1] == pytest.approx(
            float(result.diagnostics["sup_displacement"][-1]), rel=1e-15)

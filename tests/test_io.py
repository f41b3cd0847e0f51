import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

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


def _parts(path) -> tuple:
    """The header line of a displacement file, newline included, and its body."""
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    return data[:cut], data[cut:]


def _assert_refused_before_allocating(path, monkeypatch, match=None):
    """``read_displacement`` raises ``FileFormatError`` and allocates no body."""

    def allocate(*args, **kwargs):
        raise AssertionError("the body was allocated")

    monkeypatch.setattr(np, "fromfile", allocate)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=match or re.escape(str(path))):
            read_displacement(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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

    @example([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, 0.1,
              1.7976931348623157e308, -1.7976931348623157e308, 2.0 ** -25])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=65))
    def test_any_finite_doubles_round_trip_bit_for_bit(self, coarse_grid, tmp_path_factory,
                                                        values):
        # st.floats draws -0.0 and subnormals; the example pins them
        nodes = np.resize(np.array(values, dtype=float), coarse_grid.node_count)
        path = tmp_path_factory.mktemp("body") / "d.dff"
        write_displacement(str(path), DisplacementField(coarse_grid, nodes[None]))
        assert _parts(path)[1] == nodes.astype("<f8").tobytes()
        loaded, _ = read_displacement(str(path))
        assert np.array_equal(loaded.values.reshape(-1).view(np.uint64), nodes.view(np.uint64))

    def test_header_contents(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        header = json.loads(_parts(path)[0])
        assert header == {"dim": 1, "half_width": 8, "points_per_axis": 65,
                          "class_hint": None, "components": 1, "body": "<f8"}

    def test_float_half_width_loads(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, body = _parts(path)
        path.write_bytes(head.replace(b'"half_width": 8', b'"half_width": 8.0') + body)
        loaded, _ = read_displacement(str(path))
        assert loaded.grid == coarse_grid

    def test_class_hint_sets_extrapolation(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        disp = DisplacementField.from_descriptor(coarse_grid, "0.1*tanh(x)")
        disp = disp.with_extrapolation("clamp")
        write_displacement(str(path), disp, DecayClass.BOUNDED_ALL)
        loaded, hint = read_displacement(str(path))
        assert hint is DecayClass.BOUNDED_ALL
        assert loaded.extrapolation == "clamp"

    def test_two_dimensional_round_trip(self, plane_grid, tmp_path):
        path = tmp_path / "d2.dsp"
        disp = DisplacementField.from_descriptor(
            plane_grid, "0.1*exp(-x^2-y^2), -0.05*exp(-x^2-y^2)")
        write_displacement(str(path), disp, DecayClass.SCHWARTZ)
        # component by component, each row-major over the nodes
        assert _parts(path)[1] == disp.values.astype("<f8").tobytes(order="C")
        loaded, _ = read_displacement(str(path))
        assert np.array_equal(loaded.values, disp.values)

    @pytest.mark.parametrize("mangle", [
        lambda head, body: b"",                                     # empty file
        lambda head, body: b"not json\n" + body,                    # bad header
        lambda head, body: b"[1, 2]\n" + body,                      # not an object
        lambda head, body: head.replace(b"dim", b"dmi") + body,
        lambda head, body: head.replace(b'"dim": 1', b'"dim": null') + body,
        lambda head, body: head.replace(b'"points_per_axis": 65',
                                        b'"points_per_axis": 4') + body,
        lambda head, body: head.replace(b'"components": 1',
                                        b'"components": 2') + body,
        lambda head, body: head,                                    # missing body
        lambda head, body: head + body + bytes(8),                  # extra sample
        lambda head, body: head + body[:8] + b"spam" + body[8:],    # a partial sample
        lambda head, body: head + np.float64("nan").tobytes() + body[8:],
        lambda head, body: head.replace(b'"dim": 1', b'"dim": 1.5') + body,
        lambda head, body: head.replace(b'"dim": 1', b'"dim": true') + body,
        lambda head, body: head.replace(b'"points_per_axis": 65',
                                        b'"points_per_axis": 65.9') + body,
        lambda head, body: head.replace(b'"points_per_axis": 65',
                                        b'"points_per_axis": "65"') + body,
        lambda head, body: head.replace(b'"components": 1',
                                        b'"components": 1.0') + body,
        lambda head, body: head.replace(b'"half_width": 8',
                                        b'"half_width": true') + body,
        lambda head, body: head.replace(b'"half_width": 8',
                                        b'"half_width": "8"') + body,
        lambda head, body: head.replace(b'"<f8"', b'"<f4"') + body,
        lambda head, body: head.replace(b'"<f8"', b'">f8"') + body,
    ])
    def test_malformed_files_rejected(self, coarse_grid, tmp_path, mangle):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        path.write_bytes(mangle(*_parts(path)))
        with pytest.raises(FileFormatError):
            read_displacement(str(path))

    def test_unknown_class_hint_is_a_file_error(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, body = _parts(path)
        path.write_bytes(head.replace(b'"class_hint": null', b'"class_hint": "Foo"') + body)
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_displacement(str(path))

    def test_oversized_header_is_a_file_error(self, tmp_path, capsys, monkeypatch):
        # the header asks for 2 x 10000001^2 samples; the body holds two
        path = tmp_path / "huge.dff"
        header = {"dim": 2, "half_width": 8, "points_per_axis": 10000001,
                  "class_hint": None, "components": 2, "body": "<f8"}
        path.write_bytes(stable_json_dumps(header).encode("ascii") + b"\n" + bytes(16))
        _assert_refused_before_allocating(path, monkeypatch)
        assert main(["--command", "classify", "--input", str(path)]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("points, body", [
        (2049, 4096),                     # truncated: 67 MB asked for, 4 kB there
        (65, 66 * 8),                     # one sample too many
        (65, 65 * 8 + 1),                 # one byte too many
    ], ids=["truncated", "over-long", "over-long-byte"])
    def test_body_length_is_checked_before_allocating(self, tmp_path, monkeypatch,
                                                      points, body):
        path = tmp_path / "d.dff"
        header = {"dim": 2 if points > 65 else 1, "half_width": 8, "points_per_axis": points,
                  "class_hint": None, "components": 2 if points > 65 else 1, "body": "<f8"}
        path.write_bytes(stable_json_dumps(header).encode("ascii") + b"\n" + bytes(body))
        _assert_refused_before_allocating(path, monkeypatch, f"body holds {body} bytes")

    def test_v1_text_file_is_refused_by_name(self, coarse_grid, tmp_path, monkeypatch):
        path = tmp_path / "v1.dff"
        header = {"dim": 1, "half_width": 8, "points_per_axis": 65,
                  "class_hint": "Schwartz", "components": 1}
        path.write_text(stable_json_dumps(header) + "\n" + ",".join(["0"] * 65) + "\n")
        _assert_refused_before_allocating(path, monkeypatch, "v1 text .dff")

    # the header is the file's only text: bytes no writer emits there are refused,
    # even those a lenient reader takes for a number
    @pytest.mark.parametrize("sample", [b"\xff", "\u0661".encode("utf-8"), b"1_0", b"0_0"],
                             ids=["non-utf8", "arabic-indic-one", "underscore", "zero-underscore"])
    def test_non_writer_samples_are_file_errors(self, coarse_grid, tmp_path, monkeypatch,
                                                sample):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, body = _parts(path)
        path.write_bytes(head.replace(b'"half_width": 8', b'"half_width": ' + sample) + body)
        _assert_refused_before_allocating(path, monkeypatch)

    def test_infinite_samples_rejected(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, body = _parts(path)
        path.write_bytes(head + body[:-8] + np.float64("inf").tobytes())
        with pytest.raises(FileFormatError):
            read_displacement(str(path))

    @pytest.mark.parametrize("token, reason", [
        (t, "displacement samples must be finite") for t in ["inf", "-inf", "nan"]
    ])
    def test_unparsable_or_infinite_samples_are_file_errors(self, coarse_grid, tmp_path,
                                                            token, reason):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, body = _parts(path)
        path.write_bytes(head + struct.pack("<d", float(token)) + body[8:])
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {reason}"):
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

    def test_round_trip_reads_the_interpolant(self, plane_grid, tmp_path):
        # a file holds node values only, so its member gathers where the
        # descriptor member it was written from reads its formula
        member = Diffeo.from_descriptor(plane_grid, "0.1*exp(-x^2-y^2), 0.05*tanh(x)",
                                        DecayClass.BOUNDED_ALL)
        path = tmp_path / "m.dff"
        write_diffeo(str(path), member)
        clone = read_diffeo(str(path))
        assert member.displacement.formula is not None
        assert clone.displacement.formula is None
        pts = np.array([[0.31, -0.17], [2.05, 1.1], [8.4, 0.2]])
        on_grid = DisplacementField.from_nodes(plane_grid, member.displacement.node_values(),
                                               "clamp")
        assert clone.displacement.sample(pts).tobytes() == on_grid.sample(pts).tobytes()
        assert clone.displacement.sample(pts).tobytes() != (
            member.displacement.sample(pts).tobytes())

    def test_one_file_per_member(self, fine_grid, tmp_path):
        member = Diffeo.from_descriptor(fine_grid, "0.2*tanh(x)",
                                        DecayClass.BOUNDED_ALL)
        path = tmp_path / "m.dsp"
        write_diffeo(str(path), member)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.dsp"]
        header = json.loads(_parts(path)[0])
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

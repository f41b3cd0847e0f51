import json
import math
import re
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given
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
from diffeoflow import io as dff_io
from diffeoflow.cli import main
from diffeoflow.io import _BLOCK, _format_float, _write_rows


def _kernel_text(rows) -> bytes:
    fh = BytesIO()
    _write_rows(fh, np.asarray(rows, dtype=float))
    return fh.getvalue()


def _expected_text(rows) -> bytes:
    return b"".join((",".join(_format_float(x) for x in row) + "\n").encode("ascii")
                    for row in np.asarray(rows, dtype=float).tolist())


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


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

    @pytest.mark.parametrize("sample", [b"\xff", "\u0661".encode("utf-8"), b"1_0", b"0_0"],
                             ids=["non-utf8", "arabic-indic-one", "underscore", "zero-underscore"])
    def test_non_writer_samples_are_file_errors(self, coarse_grid, tmp_path, sample):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        head, row = path.read_bytes().split(b"\n")[:2]
        path.write_bytes(head + b"\n" + row.replace(b"0,", sample + b",", 1) + b"\n")
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            read_displacement(str(path))

    def test_infinite_samples_rejected(self, coarse_grid, tmp_path):
        path = tmp_path / "d.dsp"
        write_displacement(str(path), DisplacementField.zero(coarse_grid))
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("0,", "Infinity,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError):
            read_displacement(str(path))

    @staticmethod
    def _with_samples(grid, path, tokens):
        """Write a zero file on ``grid`` whose first samples are ``tokens``."""
        write_displacement(str(path), DisplacementField.zero(grid))
        head, row = path.read_text().splitlines()[:2]
        samples = row.split(",")
        samples[:len(tokens)] = tokens
        path.write_text(head + "\n" + ",".join(samples) + "\n")

    def test_samples_parse_as_float_does(self, coarse_grid, tmp_path):
        tokens = ["-0", "5e-324", "1e-320", "1E5", "+1.5", " 1.5", "0.1"]
        path = tmp_path / "d.dsp"
        self._with_samples(coarse_grid, path, tokens)
        loaded, _ = read_displacement(str(path))
        got = loaded.values.reshape(-1)[:len(tokens)]
        # .hex() keeps the sign of -0.0
        assert [v.hex() for v in got.tolist()] == [float(t).hex() for t in tokens]

    @pytest.mark.parametrize("token, reason", [
        *[(t, "bad sample") for t in ["", "1e", "0x10", "1#2", "1.5.2", "--1"]],
        *[(t, "displacement samples must be finite") for t in ["inf", "-inf", "nan"]],
    ])
    def test_unparsable_or_infinite_samples_are_file_errors(self, coarse_grid, tmp_path,
                                                            token, reason):
        path = tmp_path / "d.dsp"
        self._with_samples(coarse_grid, path, [token])
        with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: {reason}"):
            read_displacement(str(path))


class TestRowKernel:
    """Rows are the bytes of ``_format_float`` per sample, fast path or guard."""

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(-1.0, 1.0)), min_size=1, max_size=64))
    def test_any_finite_doubles(self, values):
        assert _kernel_text([values]) == _expected_text([values])

    def test_random_bit_patterns(self, rng):
        bits = rng.integers(0, 2 ** 64, size=100_000, dtype=np.uint64)
        values = bits.view(np.float64)
        values = values[np.isfinite(values)]
        assert _kernel_text([values]) == _expected_text([values])

    def test_random_fast_path_values(self, rng):
        values = rng.uniform(-1.0, 1.0, 50_000) * 10.0 ** rng.integers(-255, 1, 50_000)
        assert _kernel_text([values]) == _expected_text([values])

    def test_edges(self):
        values = _signed([0.0, 5e-324, 2.2250738585072014e-308,
                          np.nextafter(1e-250, 0.0), 1e-250, np.nextafter(1e-250, 1.0),
                          np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                          1e-4, 9.9999999999999991e-05, 1e-5, 0.5, 0.1, 1.5])
        assert _kernel_text([values]) == _expected_text([values])
        assert _kernel_text([[0.0, -0.0]]) == b"0,-0\n"

    def test_neighbours_of_powers_of_ten(self):
        values = []
        for k in range(0, 324):
            x = float(f"1e-{k}")
            below, above = np.nextafter(x, 0.0), np.nextafter(x, 2.0)
            values += [np.nextafter(below, 0.0), below, x, above, np.nextafter(above, 2.0)]
        values = _signed(values)
        assert _kernel_text([values]) == _expected_text([values])

    def test_exact_ties_round_half_to_even(self):
        # 2^-25 = 2.98023223876953125e-08 and 3 * 2^-25 = 8.94069671630859375e-08
        # exactly: each 17th digit is a tie, settled down to 2 and up to 8
        assert _kernel_text([[2.0 ** -25, -3 * 2.0 ** -25]]) == (
            b"2.9802322387695312e-08,-8.9406967163085938e-08\n")

    @pytest.mark.parametrize("size", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    def test_row_lengths_across_blocks(self, rng, size):
        rows = rng.normal(scale=0.2, size=(2, size))
        rows[0, -1] = 3.0                      # the row's last sample takes the guard
        rows[1, -1] = 0.0
        text = _kernel_text(rows)
        assert text == _expected_text(rows)
        assert text.count(b"\n") == 2 and text.count(b",") == 2 * (size - 1)

    @pytest.mark.parametrize("grid", [Grid(2, 8.0, 65), Grid(3, 8.0, 21)],
                             ids=["2d", "3d"])
    def test_newlines_in_multi_component_files(self, grid, rng, tmp_path):
        values = rng.normal(scale=0.1, size=(grid.dim,) + grid.shape)
        values[0].flat[::7] = 0.0
        path = tmp_path / "d.dff"
        write_displacement(str(path), DisplacementField(grid, values))
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == grid.dim + 2 and lines[-1] == b""
        assert b"\n".join(lines[1:]) == _expected_text(values.reshape(grid.dim, -1))
        assert all(line.count(b",") == grid.node_count - 1 for line in lines[1:-1])

    def test_gaussian_member_takes_the_fast_path(self, monkeypatch):
        grid = Grid(2, 8.0, 257)
        member = Diffeo.from_descriptor(
            grid, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", DecayClass.SCHWARTZ)
        rows = member.displacement.values.reshape(2, -1)
        assert np.count_nonzero(rows) == rows.size
        want = _expected_text(rows)

        def refuse(x):
            raise AssertionError(f"{x!r} left the fast path")

        monkeypatch.setattr(dff_io, "_format_float", refuse)
        assert _kernel_text(rows) == want


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

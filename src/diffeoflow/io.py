"""On-disk formats: displacement files and byte-stable JSON reports.

A displacement file (``.dff``) is one ASCII JSON header line

    {"dim": ..., "half_width": ..., "points_per_axis": ...,
     "class_hint": ..., "components": ..., "body": "<f8"}

followed by the body: ``components x node_count`` little-endian float64
samples in C order (component, then row-major node), the IEEE bytes of each
double, so every bit pattern (the sign of zero included) round-trips and
write-read-write is byte identical. The reader checks the body's byte length
against the header before it allocates, and refuses a sample that is not
finite. A file without the ``body`` key is the earlier text format (one
``.17g`` CSV row per component), which is refused by name.

Reports are serialized by a small recursive dumper instead of ``json.dumps``
so that float formatting is pinned down: identical inputs produce identical
bytes on every platform, which the verification pipeline relies on.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

from .decay import DecayClass, class_from_name, extrapolation_for
from .errors import FieldError, FileFormatError
from .fields import DisplacementField, Grid

HEADER_KEYS = ("dim", "half_width", "points_per_axis", "class_hint", "components", "body")
BODY = "<f8"


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def stable_json_dumps(obj) -> str:
    """Serialize to JSON with pinned float formatting and key order."""
    pieces = []
    _dump(obj, pieces)
    return "".join(pieces)


def _dump(obj, pieces: list):
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _dump(obj.tolist(), pieces)
    elif isinstance(obj, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(obj):
            if i:
                pieces.append(", ")
            _dump(item, pieces)
        pieces.append("]")
    elif isinstance(obj, dict):
        pieces.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                pieces.append(", ")
            if not isinstance(key, str):
                raise FileFormatError(f"JSON keys must be strings, got {type(key).__name__}")
            pieces.append(json.dumps(key))
            pieces.append(": ")
            _dump(value, pieces)
        pieces.append("}")
    else:
        raise FileFormatError(f"cannot serialize {type(obj).__name__}")


def write_report(path: str, report: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(stable_json_dumps(report))
        fh.write("\n")


def write_displacement(path: str, displacement: DisplacementField,
                       class_hint: DecayClass | None = None):
    """Write a displacement file: JSON header line, then the raw ``<f8`` body."""
    grid = displacement.grid
    header = {
        "dim": grid.dim,
        "half_width": grid.half_width,
        "points_per_axis": grid.points_per_axis,
        "class_hint": class_hint.value if class_hint is not None else None,
        "components": grid.dim,
        "body": BODY,
    }
    with open(path, "wb") as fh:
        fh.write(stable_json_dumps(header).encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(displacement.values, dtype=BODY).data)


def read_displacement(path: str) -> tuple:
    """Read a displacement file; returns ``(DisplacementField, DecayClass | None)``."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if not line:
            raise FileFormatError(f"{path}: empty file")
        try:
            header = json.loads(line.decode("ascii"))
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: header line is not ASCII") from None
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: bad header line: {exc}") from None
        if not isinstance(header, dict):
            raise FileFormatError(f"{path}: header line is not a JSON object")
        if set(header) == set(HEADER_KEYS) - {"body"}:
            raise FileFormatError(
                f"{path}: a v1 text .dff (one .17g CSV row per component); "
                f"only v2 files, whose body is raw {BODY!r}, are read")
        if set(header) != set(HEADER_KEYS):
            raise FileFormatError(
                f"{path}: header keys {sorted(header)} do not match {sorted(HEADER_KEYS)}"
            )
        if header["body"] != BODY:
            raise FileFormatError(f"{path}: body encoding {header['body']!r} is not {BODY!r}")
        # bool is a subclass of int, so the count check compares types exactly
        dim, points, components = (header[key]
                                   for key in ("dim", "points_per_axis", "components"))
        half_width, class_name = header["half_width"], header["class_hint"]
        if (any(type(count) is not int for count in (dim, points, components))
                or type(half_width) not in (int, float)):
            raise FileFormatError(
                f"{path}: dim, points_per_axis and components must be JSON integers "
                f"and half_width a JSON number")
        try:
            class_hint = None if class_name is None else class_from_name(class_name)
        except FieldError as exc:
            raise FileFormatError(f"{path}: bad class_hint: {exc}") from None
        try:
            grid = Grid(dim, float(half_width), points)
        except Exception as exc:
            raise FileFormatError(f"{path}: bad grid parameters: {exc}")
        if components != dim:
            raise FileFormatError(
                f"{path}: {components} components cannot form a displacement on R^{dim}"
            )
        # measure the body before allocating, so a header cannot demand a huge array
        count = components * grid.node_count
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != count * 8:
            raise FileFormatError(
                f"{path}: body holds {size} bytes, expected {count * 8} "
                f"({components} x {grid.node_count} {BODY} samples)")
        data = np.fromfile(fh, dtype=BODY, count=count)
    if data.size != count:
        raise FileFormatError(f"{path}: body ended after {data.size} of {count} samples")
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: displacement samples must be finite")
    field = DisplacementField(grid, data.astype(np.float64, copy=False).reshape(
        (dim,) + grid.shape), extrapolation_for(class_hint))
    return field, class_hint


def write_diffeo(path: str, diffeo):
    """Displacement file whose ``class_hint`` is the member's decay class."""
    write_displacement(path, diffeo.displacement, diffeo.decay_class)


def read_diffeo(path: str):
    """Rebuild a diffeomorphism written by :func:`write_diffeo`.

    The class is the header's class hint, or the measured class of the
    displacement when the hint is null. The Jacobian margin is always
    re-measured, and a margin below ``DEFAULT_DET_THRESHOLD`` raises
    :class:`NonDiffeoError`.
    """
    from .group import Diffeo

    displacement, class_hint = read_displacement(path)
    return Diffeo(displacement, class_hint)


def write_time_series_csv(path: str, result):
    """Per-step diagnostics of a flow as CSV, one row per step boundary."""
    diag = result.diagnostics
    columns = ["t", "sup_displacement", "bound_sup", "bound_defect",
               "sup_jacobian", "min_det", "alpha", "beta"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns))
        fh.write("\n")
        for k in range(result.times.shape[0]):
            row = [result.times[k]] + [diag[name][k] for name in columns[1:]]
            fh.write(",".join(_format_float(v) for v in row))
            fh.write("\n")

"""On-disk formats: displacement files and byte-stable JSON reports.

A displacement file is one JSON header line

    {"dim": ..., "half_width": ..., "points_per_axis": ...,
     "class_hint": ..., "components": ...}

followed by one CSV line per component holding the row-major node samples.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so write-read-write is byte identical.

Reports are serialized by a small recursive dumper instead of ``json.dumps``
so that float formatting is pinned down: identical inputs produce identical
bytes on every platform, which the verification pipeline relies on.
"""

from __future__ import annotations

import json

import numpy as np

from .decay import DecayClass, class_from_name, extrapolation_for
from .errors import FieldError, FileFormatError
from .fields import DisplacementField, Grid

HEADER_KEYS = ("dim", "half_width", "points_per_axis", "class_hint", "components")


def _format_float(x: float) -> str:
    if np.isnan(x):
        return "NaN"
    if np.isinf(x):
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
    """Write a displacement file: JSON header line, then one CSV row per component."""
    grid = displacement.grid
    header = {
        "dim": grid.dim,
        "half_width": grid.half_width,
        "points_per_axis": grid.points_per_axis,
        "class_hint": class_hint.value if class_hint is not None else None,
        "components": grid.dim,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(stable_json_dumps(header))
        fh.write("\n")
        # values are finite (the field constructor checks), so plain ".17g"
        # writes the same bytes as _format_float
        np.savetxt(fh, displacement.values.reshape(grid.dim, -1), fmt="%.17g", delimiter=",")


def read_displacement(path: str) -> tuple:
    """Read a displacement file; returns ``(DisplacementField, DecayClass | None)``."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: bad header line: {exc}")
    if not isinstance(header, dict):
        raise FileFormatError(f"{path}: header line is not a JSON object")
    if set(header) != set(HEADER_KEYS):
        raise FileFormatError(
            f"{path}: header keys {sorted(header)} do not match {sorted(HEADER_KEYS)}"
        )
    # bool is a subclass of int, so the count check compares types exactly
    dim, points, components = (header[key] for key in ("dim", "points_per_axis", "components"))
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
    rows = [row for row in lines[1:] if row.strip()]
    if len(rows) != components:
        raise FileFormatError(f"{path}: expected {components} component rows, found {len(rows)}")
    expected = grid.node_count
    # count every row before allocating, so a header cannot demand a huge array
    for i, row in enumerate(rows):
        samples = row.count(",") + 1
        if samples != expected:
            raise FileFormatError(
                f"{path}: component {i} has {samples} samples, expected {expected}"
            )
    data = np.empty((dim, expected))
    for i, row in enumerate(rows):
        try:
            data[i] = [float(tok) for tok in row.split(",")]
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad sample in component {i}: {exc}")
    if not np.all(np.isfinite(data)):
        raise FileFormatError(f"{path}: displacement samples must be finite")
    field = DisplacementField(grid, data.reshape((dim,) + grid.shape),
                              extrapolation_for(class_hint))
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

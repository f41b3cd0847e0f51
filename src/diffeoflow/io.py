"""On-disk formats: displacement files and byte-stable JSON reports.

A displacement file is one JSON header line

    {"dim": ..., "half_width": ..., "points_per_axis": ...,
     "class_hint": ..., "components": ...}

followed by one CSV line per component holding the row-major node samples.
Each sample is the bytes of ``format(v, ".17g")``; 17 significant digits
round-trip IEEE doubles exactly, so write-read-write is byte identical.
The rows are laid out by a vectorized kernel, block by block: the digits are
the correctly rounded integer of ``|v| * 10^k``, taken from an error-free
double-double product (Dekker), and the text is assembled from small byte
tables. A sample the kernel cannot prove correct is printed by
``_format_float`` instead (the guard of the one path, after Grisu3): |v| >= 1,
0 < |v| <= 1e-250, and a scaled value within 1e-6 of a rounding tie or
outside its 17-digit range.

Reports are serialized by a small recursive dumper instead of ``json.dumps``
so that float formatting is pinned down: identical inputs produce identical
bytes on every platform, which the verification pipeline relies on.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .decay import DecayClass, class_from_name, extrapolation_for
from .errors import FieldError, FileFormatError
from .fields import DisplacementField, Grid

HEADER_KEYS = ("dim", "half_width", "points_per_axis", "class_hint", "components")


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


_BLOCK = 4096                  # samples per pass: small scratch arrays, reused from the heap
_SPLIT = 134217729.0           # 2^27 + 1: Dekker's split into two 26-bit halves
_U64 = np.dtype("<u8")         # one 8-byte piece of a sample's text
_DIGITS = 0x3030303030303030   # "0" in each byte


@functools.cache
def _row_tables():
    """Lookup tables of the row kernel, 251 entries each, built on first use.

    Indexed by ``e`` in 1..250, the decimal exponent ``-e`` of a sample:
    ``10^(16+e)`` as an exact-as-possible ``hi + lo`` pair (both correctly
    rounded from Python ints) with Dekker halves of ``hi``, and the text
    suffix ``e-XX,`` (just ``,`` for the fixed forms, ``e`` < 5). Indexed by
    ``j`` in 0..250: the smallest double >= 10^-j. Plus the first 8 bytes of
    the text, by sign, form (fixed with 0-3 leading zeros, exponential, zero),
    first digit, and whether a ``.`` follows it.
    """
    hi, lo, ceil = np.empty(251), np.empty(251), np.empty(251)
    for e in range(251):
        power = 10 ** (16 + e)
        hi[e] = float(power)
        lo[e] = float(power - int(hi[e]))
        bound = 1 / 10 ** e                      # correctly rounded
        num, den = bound.as_integer_ratio()
        ceil[e] = bound if num * 10 ** e >= den else math.nextafter(bound, 1.0)
    top = _SPLIT * hi
    hi_hi = top - (top - hi)
    heads = [sign + ("0." + "0" * form + digit if form < 4 else
                     digit + dot if form == 4 else "0")
             for sign in ("", "-") for form in range(6)
             for digit in "0123456789" for dot in ("", ".")]
    suffixes = [","] * 5 + [f"e-{e:02d}," for e in range(5, 251)]
    return (hi, lo, hi_hi, hi - hi_hi, ceil, _pack(heads), _pack(suffixes))


def _pack(texts) -> np.ndarray:
    return np.frombuffer(b"".join(t.encode("ascii").ljust(8, b"\0") for t in texts), _U64)


def _digit_bytes(v: np.ndarray) -> np.ndarray:
    """The 8 decimal digits of each ``v < 10^8`` as bytes 0..9, first digit lowest.

    Divisions by 10^4, 100 and 10 are multiply-shifts, exact in these ranges;
    the last two split every lane of the word at once.
    """
    q = (v * 109951163) >> 40
    z = q | ((v - q * 10000) << 32)
    q = ((z * 10486) >> 20) & 0x0000007F0000007F
    z = q | ((z - q * 100) << 16)
    q = ((z * 103) >> 10) & 0x000F000F000F000F
    return q | ((z - q * 10) << 8)


def _through_last_nonzero(z: np.ndarray) -> np.ndarray:
    """Byte mask of ``z`` (bytes 0..15) that cuts its trailing zero bytes."""
    z = z | (z >> 8)
    z |= z >> 16
    z |= z >> 32
    return (((z + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080) >> 7) * 0xFF


def _format_block(v: np.ndarray, tables) -> np.ndarray:
    """The bytes of ``format(x, ".17g") + ","`` for each sample of ``v``.

    Each sample's text starts as four 8-byte pieces, NUL-padded: sign,
    ``0.``-prefix, first digit and ``.``; digits 2-9; digits 10-17; and the
    ``e-XX,`` suffix. Trailing zero digits are NULs too, and the NULs are
    squeezed out at the end.
    """
    hi, lo, hi_hi, hi_lo, ceil, heads, suffixes = tables
    a = np.abs(v)
    zero = a == 0.0
    fast = (a > 1e-250) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    # the exponent -e of a: floor(log10 a) is est or est + 1, settled exactly
    est = (((a.view(np.int64) >> 52) - 1023) * 1292913986) >> 32
    e = -est - (a >= ceil[-1 - est])
    # y = a * 10^(16+e) in [1e16, 1e17) as p + t, exact but for ~1e-14;
    # p is an integer, since p >= 2^53
    h, h_hi, h_lo = hi[e], hi_hi[e], hi_lo[e]
    p = a * h
    top = _SPLIT * a
    a_hi = top - (top - a)
    a_lo = a - a_hi
    t = ((((a_hi * h_hi - p) + a_hi * h_lo) + a_lo * h_hi) + a_lo * h_lo) + a * lo[e]
    whole = np.floor(t)
    frac = t - whole
    floor_y = p.astype(np.int64) + whole.astype(np.int64)
    digits = floor_y + (frac > 0.5)
    # unsure: near a tie, or a digit count off by one at a power of ten
    ok = (fast & (np.abs(frac - 0.5) > 1e-6)
          & (floor_y >= 10 ** 16) & (digits < 10 ** 17))
    digits = np.where(ok, digits, 0).view(np.uint64)
    lead, rest = np.divmod(digits, 10 ** 16)
    upper, lower = np.divmod(rest, 10 ** 8)
    upper_bytes = _digit_bytes(upper)
    lower_bytes = _digit_bytes(lower)
    form = np.where(zero, 5, np.minimum(e - 1, 4))
    text = np.empty((v.size, 4), _U64)
    text[:, 0] = heads[(form + 6 * np.signbit(v)) * 20 + lead.astype(np.int64) * 2 + (rest != 0)]
    tail = (lower != 0).astype(np.uint64) << 56
    text[:, 1] = (upper_bytes + _DIGITS) & _through_last_nonzero(upper_bytes | tail)
    text[:, 2] = (lower_bytes + _DIGITS) & _through_last_nonzero(lower_bytes)
    text[:, 3] = suffixes[np.where(form == 4, e, 0)]
    guard = np.flatnonzero(~(ok | zero))
    if guard.size:
        text[guard] = np.array([_format_float(x) + "," for x in v[guard].tolist()],
                               "S32").view(_U64).reshape(-1, 4)
    text = text.view(np.uint8).reshape(-1)
    return text[text != 0]


def _write_rows(fh, rows: np.ndarray):
    """Write each row of ``rows`` as comma-separated ``.17g`` samples and a newline."""
    tables = _row_tables()
    for row in rows:
        for start in range(0, row.size, _BLOCK):
            text = _format_block(row[start:start + _BLOCK], tables)
            if start + _BLOCK >= row.size:
                text[-1] = ord("\n")
            fh.write(text)


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
    with open(path, "wb") as fh:
        fh.write(stable_json_dumps(header).encode("ascii") + b"\n")
        _write_rows(fh, displacement.values.reshape(grid.dim, -1))


def read_displacement(path: str) -> tuple:
    """Read a displacement file; returns ``(DisplacementField, DecayClass | None)``.

    Each component row is parsed by ``np.loadtxt``, whose C reader gives every
    sample the bits of ``float(token)`` without a Python float per sample.
    """
    # writers emit ASCII only; float() would read "1_0" and non-ASCII digits,
    # and np.loadtxt a non-breaking space
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise FileFormatError(f"{path}: not an ASCII file") from None
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
        if "_" in row:
            raise FileFormatError(f"{path}: component {i} holds '_', which no sample has")
        samples = row.count(",") + 1
        if samples != expected:
            raise FileFormatError(
                f"{path}: component {i} has {samples} samples, expected {expected}"
            )
    data = np.empty((dim, expected))
    for i, row in enumerate(rows):
        try:
            data[i] = np.loadtxt([row], delimiter=",", dtype=np.float64, comments=None,
                                 ndmin=1)
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

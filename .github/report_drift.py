"""Summarize how the outputs of two ``cli_outputs.py`` trees differ, number by number.

    python3 .github/report_drift.py BASE HEAD

``BASE`` and ``HEAD`` are two ``OUT_DIR`` trees written by
``.github/cli_outputs.py``. For every file that is not byte-identical it
prints one line: the count of changed floats, the worst absolute change and
the worst relative change ``|b - a| / max(|a|, |b|)``, each with where it
sits and both values. Every change that is not a float change is printed in
full below that line: strings such as class names, booleans such as
verdicts, integers such as exit codes, and changes of shape.

JSON files (reports, and ``stdout`` when it holds one JSON value) are
compared value by value along their key paths. A ``.dff`` member file is
decoded to its header and its doubles, from a v2 raw ``<f8`` body or a v1
``.17g`` text row per component alike, and compared header key by header
key and sample by sample as ``component C node I``; the header's ``body``
key names the encoding only, so a v1 and a v2 file holding the same
doubles differ in nothing. A flip of the sign of zero is listed too. Other
text files (``.csv``, ``exit_code``) are compared token by token, splitting
on commas and whitespace; a token is an integer, a float or a string as it
parses. The script uses the standard library only and exits 0 on any two
trees: it reports, it gates nothing.
"""

from __future__ import annotations

import json
import math
import re
import sys
from array import array
from pathlib import Path

_INT = re.compile(r"[+-]?\d+")
_SPLIT = re.compile(r"[,\s]+")


class Drift:
    """The float changes and the other changes of one file."""

    def __init__(self):
        self.count = 0
        self.worst_abs = (0.0, None, None, None)
        self.worst_rel = (0.0, None, None, None)
        self.other = []

    def number(self, where: str, a, b):
        floats = isinstance(a, float) and isinstance(b, float)
        if a == b:
            if floats and math.copysign(1.0, a) != math.copysign(1.0, b):
                self.other.append(f"{where}: {a!r} -> {b!r}")
            return
        if floats and math.isnan(a) and math.isnan(b):
            return
        if isinstance(a, int) and isinstance(b, int):
            self.other.append(f"{where}: {a!r} -> {b!r}")
            return
        self.count += 1
        change = abs(b - a)
        scale = max(abs(a), abs(b))
        rel = change / scale if scale else 0.0
        if math.isnan(change) or change > self.worst_abs[0]:
            self.worst_abs = (change, where, a, b)
        if math.isnan(rel) or rel > self.worst_rel[0]:
            self.worst_rel = (rel, where, a, b)

    def value(self, where: str, a, b):
        """Compare two parsed JSON values along the path ``where``."""
        numeric = (int, float)
        if (isinstance(a, numeric) and isinstance(b, numeric)
                and not isinstance(a, bool) and not isinstance(b, bool)):
            self.number(where, a, b)
        elif isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                path = f"{where}.{key}" if where else str(key)
                if key not in a or key not in b:
                    self.other.append(f"{path}: {_show(a, key)} -> {_show(b, key)}")
                else:
                    self.value(path, a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                self.value(f"{where}[{i}]", x, y)
        elif a != b or type(a) is not type(b):
            self.other.append(f"{where or '(top)'}: {json.dumps(a)} -> {json.dumps(b)}")

    def tokens(self, a: str, b: str):
        """Compare two text files token by token, line by line."""
        lines_a, lines_b = a.splitlines(), b.splitlines()
        if len(lines_a) != len(lines_b):
            self.other.append(f"line count: {len(lines_a)} -> {len(lines_b)}")
            return
        for n, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
            if line_a == line_b:
                continue
            row_a, row_b = _SPLIT.split(line_a.strip()), _SPLIT.split(line_b.strip())
            if len(row_a) != len(row_b):
                self.other.append(f"line {n}: {line_a!r} -> {line_b!r}")
                continue
            for k, (x, y) in enumerate(zip(row_a, row_b), 1):
                if x != y:
                    x_val, y_val = _token(x), _token(y)
                    if isinstance(x_val, str) or isinstance(y_val, str):
                        self.other.append(f"line {n} field {k}: {x!r} -> {y!r}")
                    else:
                        self.number(f"line {n} field {k}", x_val, y_val)

    def samples(self, a: tuple, b: tuple):
        """Compare two decoded ``.dff`` files, ``(header, components, doubles)``."""
        (header_a, rows_a, xs), (header_b, rows_b, ys) = a, b
        self.value("header", header_a, header_b)
        if (rows_a, len(xs)) != (rows_b, len(ys)):
            self.other.append(f"samples: {rows_a} x {len(xs) // rows_a} -> "
                              f"{rows_b} x {len(ys) // rows_b}")
            return
        if xs.tobytes() == ys.tobytes():
            return
        nodes = len(xs) // rows_a
        for k, (x, y) in enumerate(zip(xs, ys)):
            self.number(f"component {k // nodes} node {k % nodes}", x, y)

    def summary(self) -> str:
        if not self.count:
            return "no float changed"
        change, where, a, b = self.worst_abs
        rel, rel_where, rel_a, rel_b = self.worst_rel
        return (f"{self.count} floats changed; worst abs {change:.3g} at {where} "
                f"({a!r} -> {b!r}); worst rel {rel:.3g} at {rel_where} ({rel_a!r} -> {rel_b!r})")


def _show(mapping: dict, key) -> str:
    return json.dumps(mapping[key]) if key in mapping else "(absent)"


def _token(text: str):
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _dff(raw: bytes):
    """``(header, components, doubles)`` of a ``.dff`` file, or None if it is not one."""
    head, _, body = raw.partition(b"\n")
    try:
        header = json.loads(head)
        if not isinstance(header, dict):
            return None
        if header.pop("body", None) == "<f8":
            rows = header.get("components")
            samples = array("d", body)
            if sys.byteorder == "big":
                samples.byteswap()
        else:
            lines = [line for line in body.decode("ascii").splitlines() if line.strip()]
            rows = len(lines)
            samples = array("d", [float(token) for line in lines for token in line.split(",")])
    except ValueError:          # bad JSON, a body that is not whole doubles, a bad token
        return None
    if type(rows) is not int or rows < 1 or len(samples) % rows:
        return None
    return header, rows, samples


def _json(text: str):
    """The parsed object or array, or None (``exit_code`` holds a bare number)."""
    try:
        value = json.loads(text)
    except ValueError:
        return None
    return value if isinstance(value, (dict, list)) else None


def compare(base: Path, head: Path) -> list:
    """``(relative path, Drift or note)`` for every file that differs."""
    names = sorted({p.relative_to(root) for root in (base, head)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = base / name, head / name
        if not (a.is_file() and b.is_file()):
            out.append((name, f"only in {'base' if a.is_file() else 'head'}"))
            continue
        raw_a, raw_b = a.read_bytes(), b.read_bytes()
        if raw_a == raw_b:
            continue
        drift = Drift()
        dff_a, dff_b = (_dff(raw_a), _dff(raw_b)) if name.suffix == ".dff" else (None, None)
        if dff_a is not None and dff_b is not None:
            drift.samples(dff_a, dff_b)
            out.append((name, drift))
            continue
        text_a, text_b = raw_a.decode(errors="replace"), raw_b.decode(errors="replace")
        json_a, json_b = _json(text_a), _json(text_b)
        if json_a is not None and json_b is not None:
            drift.value("", json_a, json_b)
        else:
            drift.tokens(text_a, text_b)
        out.append((name, drift))
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("every file is byte-identical")
    for name, drift in rows:
        if isinstance(drift, str):
            print(f"{name}: {drift}")
            continue
        print(f"{name}: {drift.summary()}")
        for line in drift.other:
            print(f"    {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

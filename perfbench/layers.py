"""One-shot, ungated layer table: the public calls of ROADMAP item 1, timed.

    python3 perfbench/layers.py

Times ``sample``, ``jacobian_at``, ``jacobian_grid``, the ``Diffeo(...)``
margin, ``compose``, ``invert``, ``classify_decay`` and a 16-step
``evolve`` at 1-D 4097, 2-D 257^2 and 3-D 49^3, plus one 2-D 257^2
``evolve`` command with its verifiers. Each figure is the best of
``REPEAT`` calls, except ``classify_decay`` and the evolves, which run
once, as in the ROADMAP. The ROADMAP's figures are printed beside them.
This is the benchmark's only 3-D coverage; it is not part of the gate, and
it leaves out the 3-D ``conjugate`` (about a minute) and the 3-D
Newton-branch ``invert`` (about four minutes).
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run

# ms, from ROADMAP item 1: (1-D 4097, 2-D 257^2, 3-D 49^3)
ROADMAP_MS = {
    "sample": (0.26, 47, 615),
    "jacobian_at": (0.26, 102, 1787),
    "jacobian_grid": (0.08, 2.0, 10.5),
    "Diffeo margin": (0.30, 7.2, 20.6),
    "compose": (0.70, 59, 673),
    "invert": (3.5, 534, 7274),
    "classify_decay": (2.2, 50, 211),
    "evolve 16 steps": (18, 2140, 6334),
}
GRIDS = (("1-D 4097", 1, 4097), ("2-D 257^2", 2, 257), ("3-D 49^3", 3, 49))
REPEAT = 3
VARS = ("x", "y", "z")


def _gaussian(dim: int) -> str:
    """A small Schwartz displacement: one offset gaussian per component."""
    from diffeoflow.battery import gaussian_descriptor

    parts = []
    for i in range(dim):
        factors = [gaussian_descriptor(0.1 / (i + 1) if j == 0 else 1.0, 1.0,
                                       0.5 * i if j == 0 else 0.0, VARS[j])
                   for j in range(dim)]
        parts.append("*".join(factors))
    return ", ".join(parts)


def _flow(dim: int) -> str:
    """0.3 exp(-|x|^2) rotating (x, y), the shipped 2-D flow, in any dim."""
    envelope = "*".join(f"exp(-({v})^2)" for v in VARS[:dim])
    if dim == 1:
        return f"0.2*{envelope}"
    rest = ", ".join("0" for _ in range(dim - 2))
    return ", ".join(filter(None, [f"-0.3*(y)*{envelope}",
                                   f"0.3*(x)*{envelope}", rest]))


def _best_ms(fn, repeat: int, prepare=lambda: None) -> float:
    best = float("inf")
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def measure() -> dict:
    import numpy as np

    from diffeoflow import (DecayClass, Diffeo, DisplacementField, Grid,
                            TimeDependentVectorField, classify_decay, compose,
                            evolve, invert)

    table = {}
    for label, dim, n in GRIDS:
        grid = Grid(dim, 8.0, n)
        text = _gaussian(dim)

        def fresh():
            return DisplacementField.from_descriptor(grid, text)

        disp = fresh()
        images = np.asarray(grid.nodes()) + disp.values.reshape(dim, -1).T
        disp.jacobian_at(images[:1])  # fill the derivative cache first
        f = Diffeo(fresh(), DecayClass.SCHWARTZ)
        g = Diffeo(fresh(), DecayClass.SCHWARTZ)
        field = TimeDependentVectorField.from_descriptor(dim, _flow(dim),
                                                         DecayClass.SCHWARTZ)
        row = {
            "sample": _best_ms(lambda _: disp.sample(images), REPEAT),
            "jacobian_at": _best_ms(lambda _: disp.jacobian_at(images), REPEAT),
            "jacobian_grid": _best_ms(lambda d: d.jacobian_grid(), REPEAT, fresh),
            "Diffeo margin": _best_ms(
                lambda d: Diffeo(d, DecayClass.SCHWARTZ), REPEAT, fresh),
            "compose": _best_ms(lambda _: compose(f, g), REPEAT),
            "invert": _best_ms(lambda _: invert(f), REPEAT),
            "classify_decay": _best_ms(classify_decay, 1, fresh),
            "evolve 16 steps": _best_ms(
                lambda _: evolve(field, 1.0, 1.0 / 16.0, grid), 1),
        }
        table[label] = row
        print(f"measured {label}", file=sys.stderr)
    return table


def evolve_command_ms() -> float:
    """One 2-D 257^2 ``evolve`` command with its four verifiers."""
    import diffeoflow.cli as cli

    out = run.WORK / "layers-evolve"
    argv = ["--command", "evolve", "--dim", "2", "--points", "257",
            "--dt", "0.0625", "--class", "Schwartz", "--descriptor", _flow(2),
            "--quiet", "--out", str(out)]
    try:
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if rc != 0:
        raise run.BenchError(f"evolve command exited {rc}")
    return elapsed * 1e3


def main() -> int:
    try:
        run.pin_environment()
        table = measure()
        command_ms = evolve_command_ms()
    except run.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"{'layer (ms)':<18}" + "".join(
        f"{label:>24}" for label, _, _ in GRIDS))
    print(f"{'':<18}" + "".join(f"{'measured / ROADMAP':>24}" for _ in GRIDS))
    for op, roadmap in ROADMAP_MS.items():
        cells = "".join(
            f"{table[label][op]:>12.3g} / {ref:<9.3g}"
            for (label, _, _), ref in zip(GRIDS, roadmap))
        print(f"{op:<18}{cells}")
    print(f"evolve command, 2-D 257^2 with verifiers: {command_ms:.0f} ms")
    print(json.dumps({"env": run.environment(), "layers_ms": table,
                      "evolve_command_2d_257_ms": command_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

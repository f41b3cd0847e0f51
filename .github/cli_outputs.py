"""Run a fixed set of diffeoflow CLI commands and keep everything they print and write.

    python3 .github/cli_outputs.py SRC_DIR OUT_DIR

``SRC_DIR`` is the ``src`` directory of the tree to run. Each command gets
its own directory ``OUT_DIR/<name>`` holding ``stdout``, ``stderr``,
``exit_code`` and the files written under ``--out``. Commands run with
``OUT_DIR`` as their working directory and relative paths only, so two trees
run into two directories give byte-identical files exactly when their
outputs agree; ``diff -r`` of the two directories lists the ones that do not.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

GAUSS_1D = "0.2*exp(-(x-0.3)^2)"
TANH_1D = "0.2*tanh((x-0.3)/1.1)"
GAUSS_2D = "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)"
TANH_2D = "0.2*tanh(x/1.1), 0.15*tanh(y)"
# the swirl of tests/test_group.py: the chord sweeps leave its nodes near the
# centre to Newton
SWIRL_2D = "-1.1*y*exp(-(x^2+y^2)/2), 1.1*x*exp(-(x^2+y^2)/2)"
BUMP_2D = "0.1*bump(x/3, y/3), 0.05*bump((x-1)/2, y/2)"
TANH_INNER_2D = "0.1*tanh((x-0.3)/2), 0.08*tanh((y+0.2)/1.5)"
LINE = ["--points", "513"]
PLANE = ["--dim", "2", "--points", "129"]

COMMANDS = [
    ("verify", ["--command", "verify", "--seed", "1789"]),
    # a second rng stream for criterion 4's drawn matrices and criterion 2's derivatives
    ("verify-101", ["--command", "verify", "--seed", "101"]),
    ("classify-descriptor", ["--command", "classify", "--descriptor", "1/(1+x^2)"]),
    # the descriptor syntax: **, ^-2, stacked unary signs, two-argument gauss and
    # bump, a newline
    ("classify-descriptor-syntax", ["--command", "classify", "--descriptor",
                                    "0.1*gauss(x, x/2)**2 - -+0.05*bump(x/3, x/4)\n"
                                    "+ 0.02*exp(-x^2)*(1+x^2)^-2"]),
    # a 1500-term sum, too deep for Python's recursion limit: exits 1
    ("classify-descriptor-deep", ["--command", "classify", "--descriptor",
                                  "+".join(["x"] * 1500)]),
    ("compose-1d", ["--command", "compose", "--descriptor", TANH_1D,
                    "--descriptor", GAUSS_1D]),
    ("invert-1d", ["--command", "invert", *LINE, "--class", "Schwartz",
                   "--descriptor", GAUSS_1D]),
    # max |g'| = 0.93 and 0.69: the chord sweeps leave nodes of both to Newton. Both
    # exit 2: the left identity reads the interpolated inverse, 1.9e-2 and 1.0e-4
    # against --tol 1e-6 (ROADMAP item 2's floor)
    ("invert-1d-stiff", ["--command", "invert", *LINE, "--class", "Schwartz",
                         "--descriptor", "1.08*exp(-x^2)"]),
    ("invert-1d-repelling", ["--command", "invert", *LINE, "--class", "Schwartz",
                             "--descriptor", "0.8*exp(-x^2)"]),
    # |g| reaches 1.5, so composed.dff holds samples the row kernel leaves to _format_float
    ("compose-1d-wide", ["--command", "compose", "--descriptor", "1.5*tanh(x/4)",
                         "--descriptor", GAUSS_1D]),
    ("conjugate-1d", ["--command", "conjugate", "--descriptor", TANH_1D,
                      "--descriptor", "0.1*exp(-x^2)"]),
    ("compose-2d", ["--command", "compose", *PLANE, "--descriptor", GAUSS_2D,
                    "--descriptor", TANH_2D]),
    # the left identity check is interpolation-limited at 129^2
    ("invert-2d", ["--command", "invert", *PLANE, "--tol", "1e-3", "--class", "Schwartz",
                   "--descriptor", GAUSS_2D]),
    ("invert-2d-swirl", ["--command", "invert", *PLANE, "--tol", "1e-3", "--class",
                         "Schwartz", "--descriptor", SWIRL_2D]),
    ("conjugate-2d", ["--command", "conjugate", *PLANE, "--descriptor", TANH_2D,
                      "--descriptor", GAUSS_2D]),
    # the group-2d shape: at 257^2 every gather spans several blocks
    ("conjugate-2d-257", ["--command", "conjugate", "--dim", "2", "--points", "257",
                          "--descriptor", TANH_2D, "--descriptor", GAUSS_2D]),
    # the same at 257^2 with a compact inner, which leaves most rows still, and with a
    # BoundedAll inner, which moves every row: both ends of the bracket-gap skip
    ("conjugate-2d-257-bump", ["--command", "conjugate", "--dim", "2", "--points", "257",
                               "--descriptor", TANH_2D, "--descriptor", BUMP_2D]),
    ("conjugate-2d-257-tanh", ["--command", "conjugate", "--dim", "2", "--points", "257",
                               "--descriptor", TANH_2D, "--descriptor", TANH_INNER_2D]),
    # h = 1/6 is not a power of two, so node sampling is inexact here: the diff
    # shows what reading node values instead of gathering at the nodes moves
    ("conjugate-2d-97", ["--command", "conjugate", "--dim", "2", "--points", "97",
                         "--descriptor", TANH_2D, "--descriptor", GAUSS_2D]),
    ("classify-input", ["--command", "classify",
                        "--input", "invert-2d-swirl/out/inverse.dff"]),
    # a 257^2 read, the file size perfbench group-2d reads
    ("classify-input-257", ["--command", "classify",
                            "--input", "conjugate-2d-257/out/conjugate.dff"]),
    ("evolve-1d", ["--command", "evolve", "--class", "Schwartz",
                   "--descriptor", "0.2*exp(-x^2)*(0.6+0.4*cos(t))"]),
    # no --class: the result's class is inferred from the final snapshot
    ("evolve-1d-inferred", ["--command", "evolve", "--descriptor", "0.12*cos(0.7*x-0.6*t)"]),
    # no --class, measured BoundedAll: both channels read the clamp continuation set
    # after the run; exits 2 because the Gronwall envelope fails at this spacing
    ("evolve-2d-inferred", ["--command", "evolve", *PLANE, "--dt", "0.0625", "--descriptor",
                            "0.12*cos(0.7*x-0.6*t), 0.1*cos(0.6*y-0.5*t)"]),
    ("evolve-2d", ["--command", "evolve", *PLANE, "--dt", "0.0625", "--class", "Schwartz",
                   "--descriptor", "-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))"]),
    # a bump and a (1+r^2)^-2 term: the bound Jacobian runs BumpPow and a negative Pow;
    # sup |d_x X| * t_final = 0.2
    ("evolve-2d-bump", ["--command", "evolve", *PLANE, "--dt", "0.0625", "--descriptor",
                        "0.3*bump(x/3, y/3) - 0.2*y*(1+x^2+y^2)^-2*exp(-(x^2+y^2)/4), "
                        "0.2*x*(1+x^2+y^2)^-2*exp(-(x^2+y^2)/4)"]),
    ("evolve-3d", ["--command", "evolve", "--dim", "3", "--points", "25", "--dt", "0.125",
                   "--class", "Schwartz", "--descriptor",
                   "-0.3*y*exp(-(x^2+y^2+z^2)), 0.3*x*exp(-(x^2+y^2+z^2)), 0"]),
]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args in COMMANDS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "diffeoflow", *args, "--out", f"{name}/out"],
                              cwd=out, env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

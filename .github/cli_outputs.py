"""Run a fixed set of diffeoflow CLI commands and keep everything they print and write.

    python3 .github/cli_outputs.py SRC_DIR OUT_DIR

``SRC_DIR`` is the ``src`` directory of the tree to run. Each command gets
its own directory ``OUT_DIR/<name>`` holding ``stdout``, ``stderr``,
``exit_code`` and the files written under ``--out``. Commands run with
``OUT_DIR`` as their working directory and relative paths only, so two trees
run into two directories give byte-identical files exactly when their
outputs agree; ``diff -r`` of the two directories lists the ones that do not.

``EXIT_CODES`` is the one record of which commands do not exit 0. The script
exits 1 when a command's exit code differs from it, or when a command other
than ``verify`` writes to stderr anything but the one JSON line of an input
error (exit 1).
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
    # a 1500-term sum, too deep for Python's recursion limit
    ("classify-descriptor-deep", ["--command", "classify", "--descriptor",
                                  "+".join(["x"] * 1500)]),
    # a pole at the node x = 0: one JSON error line naming the point
    ("classify-descriptor-pole", ["--command", "classify", "--descriptor", "0.1/x"]),
    # an unclosed parenthesis: the ast front end refuses it
    ("classify-descriptor-malformed", ["--command", "classify", "--descriptor",
                                       "0.2*exp(-x^2"]),
    ("compose-1d", ["--command", "compose", "--descriptor", TANH_1D,
                    "--descriptor", GAUSS_1D]),
    ("invert-1d", ["--command", "invert", *LINE, "--class", "Schwartz",
                   "--descriptor", GAUSS_1D]),
    # max |g'| = 0.93 and 0.69: the chord sweeps leave nodes of both to Newton
    ("invert-1d-stiff", ["--command", "invert", *LINE, "--class", "Schwartz",
                         "--descriptor", "1.08*exp(-x^2)"]),
    ("invert-1d-repelling", ["--command", "invert", *LINE, "--class", "Schwartz",
                             "--descriptor", "0.8*exp(-x^2)"]),
    # |g| reaches 1.5: the largest samples any member here writes to its .dff
    ("compose-1d-wide", ["--command", "compose", "--descriptor", "1.5*tanh(x/4)",
                         "--descriptor", GAUSS_1D]),
    ("conjugate-1d", ["--command", "conjugate", "--descriptor", TANH_1D,
                      "--descriptor", "0.1*exp(-x^2)"]),
    # the outer's pole at x = 8.5 lies past the box, where the inner shift carries the
    # face node: a descriptor member reads its formula there
    ("compose-1d-pole", ["--command", "compose", "--class", "BoundedAll",
                         "--descriptor", "0.1/(8.5-x)", "--descriptor", "0.5+0*x"]),
    ("compose-2d", ["--command", "compose", *PLANE, "--descriptor", GAUSS_2D,
                    "--descriptor", TANH_2D]),
    # the left identity check is interpolation-limited at 129^2
    ("invert-2d", ["--command", "invert", *PLANE, "--tol", "1e-3", "--class", "Schwartz",
                   "--descriptor", GAUSS_2D]),
    ("invert-2d-swirl", ["--command", "invert", *PLANE, "--tol", "1e-3", "--class",
                         "Schwartz", "--descriptor", SWIRL_2D]),
    # the 21^3 Gaussian of tests/test_group.py: face nodes solve y + g(y) = x just off
    # the box, so the formula's value there decides the right identity
    ("invert-3d-21", ["--command", "invert", "--dim", "3", "--points", "21", "--class",
                      "Schwartz", "--descriptor",
                      "0.3*exp(-(x^2+y^2+z^2)/4), 0.2*exp(-(x^2+y^2+z^2)/4), 0"]),
    ("conjugate-2d", ["--command", "conjugate", *PLANE, "--descriptor", TANH_2D,
                      "--descriptor", GAUSS_2D]),
    # the group-2d shape: at 257^2 every gather spans several blocks
    ("conjugate-2d-257", ["--command", "conjugate", "--dim", "2", "--points", "257",
                          "--descriptor", TANH_2D, "--descriptor", GAUSS_2D]),
    # the same at 257^2 with a compact inner and with a BoundedAll inner
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
    # a file member's class is its header's: --class beside an --input
    ("invert-input-class", ["--command", "invert", "--class", "Schwartz",
                            "--input", "invert-2d-swirl/out/inverse.dff"]),
    # a 257^2 read, the file size perfbench group-2d reads
    ("classify-input-257", ["--command", "classify",
                            "--input", "conjugate-2d-257/out/conjugate.dff"]),
    # a conjugate whose inner is a file: the command that reaches io.read_diffeo
    ("conjugate-2d-257-input", ["--command", "conjugate", "--dim", "2", "--points", "257",
                                "--descriptor", TANH_2D,
                                "--input", "conjugate-2d-257/out/conjugate.dff"]),
    ("evolve-1d", ["--command", "evolve", "--class", "Schwartz",
                   "--descriptor", "0.2*exp(-x^2)*(0.6+0.4*cos(t))"]),
    # no --class: the result's class is inferred from the final snapshot
    ("evolve-1d-inferred", ["--command", "evolve", "--descriptor", "0.12*cos(0.7*x-0.6*t)"]),
    # a pole of X at the node x = 0 at t = 0: one JSON line naming the point
    ("evolve-1d-pole", ["--command", "evolve", "--descriptor", "0.1/x"]),
    # one step: right_log_derivative's time stencil needs 4
    ("evolve-1d-one-step", ["--command", "evolve", "--t-final", "0.0625", "--dt", "0.0625",
                            "--descriptor", "0.1*exp(-x^2)"]),
    # no --class, measured BoundedAll: both channels read the clamp continuation set
    # after the run
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


# every command that does not exit 0: (its exit code, why). Exit 2 is a known defect,
# named with the ROADMAP item that mends it; exit 1 is an input error by design
EXIT_CODES = {
    "verify-101": (2, "item 3: criterion 8's width-sensitive classifier"),
    "classify-descriptor-deep": (1, "input error: too deep to parse"),
    "classify-descriptor-pole": (1, "input error: a pole at a node"),
    "classify-descriptor-malformed": (1, "input error: a descriptor syntax error"),
    "invert-1d-stiff": (2, "item 2: under-resolved, left identity 1.9e-2; only the floor "
                           "report can say so"),
    "invert-1d-repelling": (2, "item 17: the interpolation floor, left identity 1.0e-4"),
    "compose-1d-pole": (1, "input error: a pole off the box that a node reaches"),
    "invert-3d-21": (2, "item 17: the left identity reads the interpolant at h = 0.8"),
    "conjugate-2d-257-bump": (2, "items 2 and 3: a CompactSupport result measures Schwartz"),
    "invert-input-class": (1, "input error: --class beside an --input"),
    "evolve-1d-pole": (1, "input error: a pole of X at a node at t = 0"),
    "evolve-1d-one-step": (1, "input error: too few steps for the time stencil"),
    "evolve-2d-inferred": (2, "item 4: the Gronwall envelope fails at this spacing"),
}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    failed = False
    for name, args in COMMANDS:
        run_dir = out / name
        run_dir.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "diffeoflow", *args, "--out", f"{name}/out"],
                              cwd=out, env=env, capture_output=True)
        (run_dir / "stdout").write_bytes(proc.stdout)
        (run_dir / "stderr").write_bytes(proc.stderr)
        (run_dir / "exit_code").write_text(f"{proc.returncode}\n")
        want = EXIT_CODES.get(name, (0,))[0]
        # verify prints its per-criterion lines to stderr; any other command prints one
        # JSON line when it exits 1 and nothing otherwise
        lines = 0 if args[1] == "verify" else len(proc.stderr.splitlines())
        ok = proc.returncode == want and lines == (proc.returncode == 1)
        failed |= not ok
        print(f"{name}: exit {proc.returncode}"
              + ("" if ok else f", {lines} stderr lines; the table says exit {want}"))
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

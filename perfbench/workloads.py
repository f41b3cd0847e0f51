"""Seeded inputs, command batches and report checks for the three workloads.

Every input is descriptor text built with the public builders of
``diffeoflow.battery``; the program only ever sees CLI arguments. A batch is
the fixed list of commands whose total time is ``wall_s``. Batch ``k`` of a
run with seed ``s`` draws from ``numpy.random.default_rng([s, k])`` alone,
and a run of ``--seconds S`` runs ``batch_count(workload, S)`` batches, so
its commands, and with them the commands attempted and failed, depend on
the seed and ``S`` alone, never on how fast the host is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from diffeoflow.battery import (gaussian_descriptor, lorentzian_descriptor,
                                tanh_descriptor)

WORKLOADS = ("verify-1d", "flow-2d", "group-2d")

# commands of one batch
VERIFY_PER_BATCH = 2
EVOLVES_PER_BATCH = 1
# group-2d: four compose/invert/classify/conjugate tasks, one of which
# inverts a Newton-size input, so every batch carries the Newton tail
TASKS_PER_BATCH = 4
# about how long one batch takes on a shared 2-vCPU host (verify 2-3.2 s,
# evolve 3.3-4.7 s, a group-2d batch 20-35 s); sets the batches of a run
BATCH_SECONDS = {"verify-1d": 5.0, "flow-2d": 4.0, "group-2d": 25.0}

# Schwartz inputs scatter around the 2-D invert example of the README and
# ROADMAP, 0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2): amplitudes per
# component, one width, a centre per component
GAUSS_AMPLITUDES = ((0.08, 0.12), (0.04, 0.06))
GAUSS_WIDTH = (0.9, 1.1)
GAUSS_CENTER = (-1.0, 1.0)
# the ranges of battery.bounded_outer_diffeos, drawn per axis in 2-D
TANH_AMPLITUDE = (0.12, 0.22)
TANH_WIDTH = (0.9, 1.4)
TANH_CENTER = (-0.8, 0.8)
# swirl strength theta: max |dg|_F at the centre is about sqrt(2) * theta,
# which must clear group.invert's 0.9 switch to its Newton branch
SWIRL_STRENGTH = (0.66, 0.8)
SWIRL_WIDTH = (0.9, 1.1)
# rotation speed of the schwartz-rotation-2d family (the shipped member has
# 0.3); sup |d_x X| is the speed at the centre, kept well under the
# battery's sizing rule sup |d_x X| * t_final <= 0.5
ROTATION_SPEED = (0.24, 0.36)
ROTATION_WIDTH = (0.9, 1.1)
NEWTON_SWITCH = 0.9  # group.invert's switch on max |dg|_F to Newton
# accuracy a command must keep: 1.4 to 4 times the worst figure measured
# over these input ranges (their corners, and batch 0 of seeds 101-130 on
# group-2d and 101-140 on flow-2d): identity residual of a gaussian invert
# 2.6e-6, of a Newton-size swirl 1.45e-4 (median 3e-5), and right log
# derivative gap of an evolve 5.8e-5
INVERT_RESIDUAL_MAX = 1.0e-5
NEWTON_INVERT_RESIDUAL_MAX = 2.0e-4
LOG_DERIVATIVE_GAP_MAX = 2.0e-4

GRID_2D_GROUP = ("--dim", "2", "--points", "257")
GRID_2D_FLOW = ("--dim", "2", "--points", "129")


@dataclass
class Command:
    """One CLI invocation: its kind, its arguments, and what to check."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def _signed(rng, bounds) -> float:
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * rng.uniform(*bounds)


def _gaussian_2d(rng) -> str:
    """Schwartz displacement: one signed gaussian bump per component."""
    width = rng.uniform(*GAUSS_WIDTH)
    parts = []
    for bounds in GAUSS_AMPLITUDES:
        cx, cy = rng.uniform(*GAUSS_CENTER, size=2)
        parts.append(f"{gaussian_descriptor(_signed(rng, bounds), width, cx, 'x')}*"
                     f"{gaussian_descriptor(1.0, width, cy, 'y')}")
    return ", ".join(parts)


def _tanh_2d(rng) -> str:
    """BoundedAll displacement: a tanh ramp along each axis."""
    width = rng.uniform(*TANH_WIDTH)
    return ", ".join(
        tanh_descriptor(_signed(rng, TANH_AMPLITUDE), width,
                        rng.uniform(*TANH_CENTER), var)
        for var in ("x", "y"))


def _swirl(strength: float, width: float, cx: float = 0.0,
           cy: float = 0.0) -> str:
    """theta * exp(-|x - c|^2 / w^2) * (-y, x): a gaussian-damped rotation."""
    envelope = (f"{gaussian_descriptor(strength, width, cx, 'x')}*"
                f"{gaussian_descriptor(1.0, width, cy, 'y')}")
    return f"-(y)*{envelope}, (x)*{envelope}"


def warmup_command(workload: str, seed: int) -> Command:
    """A cheap classify on the workload's grid, run once before timing."""
    rng = np.random.default_rng([seed, 1 << 20])
    width = rng.uniform(0.8, 1.2)
    amplitude = _signed(rng, (0.05, 0.1))
    if workload == "verify-1d":
        grid = ("--dim", "1", "--points", "257")
        text = lorentzian_descriptor(amplitude, width, rng.uniform(-0.8, 0.8),
                                     power=1, damping=2.6)
    else:
        grid = GRID_2D_GROUP if workload == "group-2d" else GRID_2D_FLOW
        text = "*".join(
            lorentzian_descriptor(amplitude if var == "x" else 1.0, width,
                                  rng.uniform(-0.8, 0.8), power=1, var=var,
                                  damping=2.6)
            for var in ("x", "y"))
    return Command("classify", ["--command", "classify", *grid,
                                "--descriptor", text])


def batch_count(workload: str, seconds: float) -> int:
    """Batches in a run of ``seconds``: a fixed number, at least one."""
    return max(1, round(seconds / BATCH_SECONDS[workload]))


def batch(workload: str, seed: int, index: int) -> list:
    """The commands of batch ``index`` of a run with ``seed``."""
    rng = np.random.default_rng([seed, index])
    if workload == "verify-1d":
        return [Command("verify", ["--command", "verify", "--seed",
                                   str(int(rng.integers(1, 1 << 31)))])
                for _ in range(VERIFY_PER_BATCH)]
    if workload == "flow-2d":
        out = []
        for _ in range(EVOLVES_PER_BATCH):
            speed = rng.uniform(*ROTATION_SPEED)
            text = _swirl(speed, rng.uniform(*ROTATION_WIDTH))
            out.append(Command(
                "evolve", ["--command", "evolve", *GRID_2D_FLOW, "--dt", "0.0625",
                           "--class", "Schwartz", "--descriptor", text],
                {"field": text}))
        return out
    if workload == "group-2d":
        newton_task = int(rng.integers(TASKS_PER_BATCH))
        out = []
        for task in range(TASKS_PER_BATCH):
            gauss = _gaussian_2d(rng)
            ramp = _tanh_2d(rng)
            if task == newton_task:
                cx, cy = rng.uniform(-0.3, 0.3, size=2)
                target = _swirl(rng.uniform(*SWIRL_STRENGTH),
                                rng.uniform(*SWIRL_WIDTH), cx, cy)
            else:
                target = gauss
            out += [
                Command("compose", ["--command", "compose", *GRID_2D_GROUP,
                                    "--descriptor", gauss,
                                    "--descriptor", ramp]),
                Command("invert", ["--command", "invert", *GRID_2D_GROUP,
                                   "--class", "Schwartz",
                                   "--descriptor", target],
                        {"field": target, "newton": task == newton_task}),
                Command("classify", ["--command", "classify", *GRID_2D_GROUP,
                                     "--input", "inverse.dff"]),
                Command("conjugate", ["--command", "conjugate",
                                      *GRID_2D_GROUP, "--descriptor", ramp,
                                      "--descriptor", gauss]),
            ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def max_dg_frobenius(displacement) -> float:
    """max over nodes of |dg|_F, which group.invert compares with 0.9."""
    dim = displacement.grid.dim
    jac = displacement.jacobian_grid().reshape(dim, dim, -1)
    return float(np.max(np.sqrt(np.sum(jac ** 2, axis=(0, 1)))))


def input_properties(workload: str, commands: list) -> dict:
    """Measured properties of a batch's inputs, through the public API.

    group-2d: the share of ``invert`` inputs at or above the Newton switch
    and their smallest det(I + dg); flow-2d: sup |d_x X| * t_final of each
    flow.
    """
    from diffeoflow import DisplacementField, Grid, TimeDependentVectorField

    if workload == "group-2d":
        grid = Grid(2, 8.0, 257)
        fro, dets = [], []
        for cmd in commands:
            if cmd.kind != "invert":
                continue
            disp = DisplacementField.from_descriptor(grid, cmd.expect["field"])
            fro.append(max_dg_frobenius(disp))
            jac = disp.jacobian_grid().reshape(2, 2, -1)
            dets.append(float(np.min((1.0 + jac[0, 0]) * (1.0 + jac[1, 1])
                                     - jac[0, 1] * jac[1, 0])))
        return {"invert_inputs": len(fro),
                "newton_share": sum(f >= NEWTON_SWITCH for f in fro) / len(fro),
                "max_dg_frobenius": fro, "min_det_I_plus_dg": min(dets)}
    if workload == "flow-2d":
        nodes = Grid(2, 8.0, 129).nodes()
        sizing = []
        for cmd in commands:
            field_ = TimeDependentVectorField.from_descriptor(2, cmd.expect["field"])
            sv = np.linalg.svd(field_.jacobian(0.0, nodes), compute_uv=False)
            sizing.append(float(np.max(sv[:, 0])))  # t_final is 1
        return {"sup_dX_times_t_final": sizing}
    return {"verify_seeds": [int(c.argv[-1]) for c in commands]}


def check_report(cmd: Command, rc: int, report: dict | None,
                 previous: dict | None) -> list:
    """Problems with one command's exit code and report; empty when correct.

    ``previous`` is the report of the command just before, which a
    ``classify --input inverse.dff`` must agree with. A command that ends in
    a measured verdict (exit 2) is correct when its report backs that
    verdict; such commands count in ``failed`` and ``failed_frac``.
    """
    if report is None:
        return [f"{cmd.kind}: no report written (exit {rc})"]
    problems = []
    if report.get("command") != cmd.kind:
        problems.append(f"{cmd.kind}: report is for {report.get('command')!r}")

    def need(cond, what):
        if not cond:
            problems.append(f"{cmd.kind}: {what}")

    if cmd.kind == "verify":
        # a failed criterion is the program's verdict, shown in failed_frac;
        # the report only has to agree with itself and with the exit code
        passed = all(c["passed"] for c in report["criteria"])
        need(report["passed"] == passed, "passed disagrees with the criteria")
        need(rc == (0 if passed else 2), f"verify exit {rc} with passed={passed}")
        need(len(report["criteria"]) == 9, "verify ran other than 9 criteria")
    elif cmd.kind == "evolve":
        need(rc == 0, f"evolve exited {rc}")
        need(report["steps"] == 16, "evolve took other than 16 steps")
        need(report["sup_bound_holds"] and report["gronwall_holds"]
             and report["sobolev_holds"], "a flow verifier failed")
        need(report["min_det"] > 0.0, "flow map lost orientation")
        gap = report["right_log_derivative_gap"]
        need(gap <= LOG_DERIVATIVE_GAP_MAX,
             f"right log derivative gap {gap:.3g} over {LOG_DERIVATIVE_GAP_MAX:g}")
    elif cmd.kind == "compose":
        need(rc == 0, f"compose exited {rc}")
        need(report["result"]["decay_class"] == "BoundedAll",
             "Schwartz o BoundedAll is not BoundedAll")
        need(report["result"]["epsilon"] > 0.0, "composite is not a diffeo")
    elif cmd.kind == "invert":
        residual = max(report["residuals"].values())
        holds = residual <= report["tol"]
        need(report["holds"] == holds, "holds disagrees with the residuals")
        need(rc == (0 if holds else 2), f"invert exit {rc} with holds={holds}")
        limit = (NEWTON_INVERT_RESIDUAL_MAX if cmd.expect["newton"]
                 else INVERT_RESIDUAL_MAX)
        need(residual <= limit, f"identity residual {residual:.3g} over {limit:g}")
        need(report["result"]["epsilon"] > 0.0, "inverse is not a diffeo")
    elif cmd.kind == "classify":
        need(rc == 0, f"classify exited {rc}")
        if previous is not None and previous.get("command") == "invert":
            need(report["report"]["inferred_class"]
                 == previous["result"]["measured_class"],
                 "classify --input disagrees with invert's measured class")
    elif cmd.kind == "conjugate":
        # class_ok false is a measured verdict (exit 2), counted in failed_frac
        ok = report["class_ok"]
        need(report["diagnostics"]["agrees"] == ok,
             "class_ok disagrees with the diagnostics")
        need(rc == (0 if ok else 2), f"conjugate exit {rc} with class_ok={ok}")
        need(report["result"]["epsilon"] > 0.0, "conjugate is not a diffeo")
    return problems

"""Command-line orchestration: fields in, reports and dff-v1 files out.

One executable, one required ``--command``. Reports are JSON printed to
stdout and optionally written under ``--out``; floats are formatted with 17
significant digits and dictionary keys keep insertion order, so a fixed
configuration and seed always produce byte-identical output.

Exit codes: 0 success, 1 input or I/O problem, 2 verification or
classification failure, 3 the result is not a valid diffeomorphism,
4 the flow left the domain or blew up.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import acceptance
from .battery import DEFAULT_SEED
from .decay import DecayClass, class_from_name, classify_decay
from .errors import (EngineError, FieldError, FlowBlowupError, FlowDomainError,
                     InsufficientAnnuliError, InversionError, NonDiffeoError,
                     UnderResolvedError)
from .fields import Grid, sample
from .flows import (TimeDependentVectorField, displacement_sup_bound, evolve,
                    gronwall_bound, right_log_derivative, sobolev_tracking)
from .group import Diffeo, compose, conjugate, invert
from .io import (read_diffeo, stable_json_dumps, write_diffeo, write_report,
                 write_time_series_csv)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_NON_DIFFEO = 3
EXIT_FLOW = 4

COMMANDS = ("classify", "compose", "invert", "conjugate", "evolve", "verify")


@dataclass
class RunConfig:
    """Validated CLI parameters, one field per flag; the defaults live in the parser."""

    command: str
    dim: int
    half_width: float
    points: int
    decay_class: str | None
    descriptors: list
    inputs: list
    t_final: float
    dt: float
    tol: float
    seed: int
    out: str | None
    quiet: bool

    def validate(self):
        """Reject bad flags before any command runs, ``verify`` included."""
        self.grid()
        if not (self.tol >= 0.0 and np.isfinite(self.tol)):
            raise ValueError("tol must be non-negative and finite")
        if not (self.t_final > 0.0 and self.dt > 0.0
                and np.isfinite(self.t_final) and np.isfinite(self.dt)):
            raise ValueError("t-final and dt must be positive and finite")

    def grid(self) -> Grid:
        return Grid(self.dim, self.half_width, self.points)

    def claimed_class(self) -> DecayClass | None:
        if self.decay_class is None:
            return None
        return class_from_name(self.decay_class)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffeoflow",
        description="group operations, flows and verification for "
                    "diffeomorphisms x + g(x) with decaying g")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--dim", type=int, default=1)
    parser.add_argument("--half-width", type=float, default=8.0)
    parser.add_argument("--points", type=int, default=257)
    parser.add_argument("--class", dest="decay_class", default=None,
                        help="claimed decay class of the input field(s)")
    parser.add_argument("--descriptor", dest="descriptors", metavar="DESCRIPTOR",
                        action="append", default=[],
                        help="closed-form field text; repeatable")
    parser.add_argument("--input", dest="inputs", metavar="INPUT",
                        action="append", default=[],
                        help="dff-v1 file path; repeatable")
    parser.add_argument("--t-final", type=float, default=1.0)
    parser.add_argument("--dt", type=float, default=1.0 / 32.0)
    parser.add_argument("--tol", type=float, default=1.0e-6)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=None,
                        help="directory for report/field/CSV outputs")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-criterion progress lines")
    return parser


def config_from_argv(argv) -> RunConfig:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    config.validate()
    return config


def _out_path(config: RunConfig, filename: str) -> str:
    """Path of ``filename`` under ``--out``, creating the directory."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return str(out_dir / filename)


def _emit(config: RunConfig, report: dict, filename: str) -> dict:
    text = stable_json_dumps(report)
    if not config.quiet:
        print(text)
    if config.out:
        write_report(_out_path(config, filename), report)
    return report


def _source_specs(config: RunConfig, needed: int) -> list:
    """``(is_file, spec)`` for each descriptor, then each file; exactly ``needed``."""
    sources = ([(False, d) for d in config.descriptors]
               + [(True, p) for p in config.inputs])
    if len(sources) != needed:
        raise ValueError(
            f"{config.command} needs exactly {needed} field source(s) "
            f"(--descriptor/--input), got {len(sources)}")
    return sources


def _sources(config: RunConfig, needed: int) -> list:
    """Diffeos from descriptors and/or files, in the order given."""
    claimed = config.claimed_class()
    grid = config.grid()
    return [read_diffeo(spec) if is_file else Diffeo.from_descriptor(grid, spec, claimed)
            for is_file, spec in _source_specs(config, needed)]


def _field_summary(diffeo: Diffeo, measured: str | None = None) -> dict:
    """Claimed and measured class and margin; ``measured`` if already known."""
    if measured is None:
        measured = classify_decay(diffeo.displacement).inferred_class.value
    return {
        "decay_class": diffeo.decay_class.value,
        "measured_class": measured,
        "epsilon": diffeo.epsilon,
        "epsilon_location": diffeo.epsilon_location,
    }


def cmd_classify(config: RunConfig) -> int:
    ((is_file, spec),) = _source_specs(config, 1)
    target = read_diffeo(spec).displacement if is_file else sample(spec, config.grid())
    report = classify_decay(target)
    claimed = config.claimed_class()
    class_ok = None
    if claimed is not None:
        class_ok = claimed.contains(report.inferred_class)
    payload = {
        "command": "classify",
        "grid": {"dim": target.grid.dim, "half_width": target.grid.half_width,
                 "points_per_axis": target.grid.points_per_axis},
        "claimed_class": None if claimed is None else claimed.value,
        "class_ok": class_ok,
        "report": report.to_dict(),
    }
    _emit(config, payload, "classify_report.json")
    return EXIT_OK if class_ok in (None, True) else EXIT_VERIFY


def cmd_compose(config: RunConfig) -> int:
    outer, inner = _sources(config, 2)
    result = compose(outer, inner)
    payload = {
        "command": "compose",
        "result": _field_summary(result),
    }
    if config.out:
        write_diffeo(_out_path(config, "composed.dff"), result)
        payload["output"] = "composed.dff"
    _emit(config, payload, "compose_report.json")
    return EXIT_OK


def cmd_invert(config: RunConfig) -> int:
    (diffeo,) = _sources(config, 1)
    inverse = invert(diffeo)
    left = compose(inverse, diffeo)
    right = compose(diffeo, inverse)
    residuals = {
        "left_identity": float(np.max(np.abs(left.displacement.values))),
        "right_identity": float(np.max(np.abs(right.displacement.values))),
    }
    holds = max(residuals.values()) <= config.tol
    payload = {
        "command": "invert",
        "result": _field_summary(inverse),
        "residuals": residuals,
        "tol": config.tol,
        "holds": holds,
    }
    if config.out:
        write_diffeo(_out_path(config, "inverse.dff"), inverse)
        payload["output"] = "inverse.dff"
    _emit(config, payload, "invert_report.json")
    return EXIT_OK if holds else EXIT_VERIFY


def cmd_conjugate(config: RunConfig) -> int:
    outer, inner = _sources(config, 2)
    result, diag = conjugate(outer, inner, diagnostics=True)
    payload = {
        "command": "conjugate",
        "inner_class": inner.decay_class.value,
        "outer_class": outer.decay_class.value,
        "result": _field_summary(result, diag["measured_class"]),
        "diagnostics": diag,
        "class_ok": diag["agrees"],
    }
    if config.out:
        write_diffeo(_out_path(config, "conjugate.dff"), result)
        payload["output"] = "conjugate.dff"
    _emit(config, payload, "conjugate_report.json")
    return EXIT_OK if diag["agrees"] else EXIT_VERIFY


def cmd_evolve(config: RunConfig) -> int:
    if len(config.descriptors) != 1 or config.inputs:
        raise ValueError("evolve needs exactly one --descriptor for X(t,x) and no --input")
    field = TimeDependentVectorField.from_descriptor(
        config.dim, config.descriptors[0], config.claimed_class())
    grid = config.grid()
    result = evolve(field, config.t_final, config.dt, grid)

    bound, measured, sup_holds = displacement_sup_bound(result)
    predicted, observed, gronwall_holds = gronwall_bound(result)
    tracking = sobolev_tracking(result)
    log_gap = 0.0
    for t, derived in right_log_derivative(result):
        exact = field.at_time(grid, t).values
        log_gap = max(log_gap, float(np.max(np.abs(derived.values - exact))))

    payload = {
        "command": "evolve",
        "t_final": config.t_final,
        "dt": config.dt,
        "steps": len(result.times) - 1,
        "final_sup": float(result.diagnostics["sup_displacement"][-1]),
        "min_det": float(min(result.diagnostics["min_det"])),
        "sup_bound_holds": bool(sup_holds),
        "gronwall_holds": bool(gronwall_holds),
        "sobolev_holds": bool(tracking["holds"]),
        "right_log_derivative_gap": log_gap,
        "final_class": classify_decay(result.final_displacement).inferred_class.value,
    }
    if config.out:
        write_time_series_csv(_out_path(config, "time_series.csv"), result)
        write_diffeo(_out_path(config, "final.dff"), result.to_diffeo())
        payload["outputs"] = ["time_series.csv", "final.dff"]
    _emit(config, payload, "evolve_report.json")
    verified = sup_holds and gronwall_holds and bool(tracking["holds"])
    return EXIT_OK if verified else EXIT_VERIFY


def cmd_verify(config: RunConfig) -> int:
    if config.tol == 0.0:
        payload = {
            "command": "verify",
            "seed": config.seed,
            "passed": False,
            "controlled_failure":
                "tolerance 0 cannot be met by finite-precision checks",
            "criteria": [],
        }
        _emit(config, payload, "verify_report.json")
        return EXIT_VERIFY
    results = acceptance.run_core(config.seed)
    for item in results:
        if not config.quiet:
            state = "PASS" if item.passed else "FAIL"
            print(f"[{state}] criterion {item.index}: {item.detail}",
                  file=sys.stderr)
    payload = {
        "command": "verify",
        "seed": config.seed,
        "passed": all(item.passed for item in results),
        "criteria": [item.to_dict() for item in results],
    }
    _emit(config, payload, "verify_report.json")
    return EXIT_OK if payload["passed"] else EXIT_VERIFY


_DISPATCH = {
    "classify": cmd_classify,
    "compose": cmd_compose,
    "invert": cmd_invert,
    "conjugate": cmd_conjugate,
    "evolve": cmd_evolve,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    try:
        config = config_from_argv(argv)
    except SystemExit as stop:
        # argparse exits 2 on bad flags; fold that into the input code
        return EXIT_INPUT if stop.code else EXIT_OK
    except (ValueError, FieldError) as exc:
        print(stable_json_dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_INPUT
    try:
        return _DISPATCH[config.command](config)
    except (EngineError, OSError, ValueError) as exc:
        print(stable_json_dumps(
            {"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr)
        if isinstance(exc, (FlowDomainError, FlowBlowupError)):
            return EXIT_FLOW
        if isinstance(exc, (NonDiffeoError, UnderResolvedError,
                            InversionError)):
            return EXIT_NON_DIFFEO
        if isinstance(exc, InsufficientAnnuliError):
            return EXIT_VERIFY
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

"""Command-line orchestration: fields in, reports and ``.dff`` files out.

One executable, one required ``--command``. ``_DISPATCH`` is the command
table: each command accepts only the flags it reads, and exactly its count of
field sources. Any other flag, a wrong source count and bad flag values, an
unknown ``--class`` included, are refused before any command runs. Each command's
JSON report is printed to stdout unless ``--quiet``; under ``--out`` the
same bytes are written as ``<command>_report.json`` beside the files the
report names in ``output`` (``outputs`` for ``evolve``). Floats are
formatted with 17 significant digits and dictionary keys keep insertion
order, so a fixed configuration and seed always produce byte-identical output.

Exit codes: 0 success, 1 input or I/O problem, 2 verification or
classification failure, 3 the result is not a valid diffeomorphism,
4 the flow left the domain or blew up.

On glibc, ``main`` asks the allocator once per process to keep freed arrays
for reuse instead of handing them back to the kernel; importing the package
sets nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import acceptance
from .battery import DEFAULT_SEED
from .decay import DecayClass, class_from_name, classify_decay, measured_class
from .errors import (EngineError, FieldError, FlowBlowupError, FlowDomainError,
                     InsufficientAnnuliError, InversionError, NonDiffeoError,
                     UnderResolvedError)
from .fields import Grid, sample
from .flows import (TimeDependentVectorField, displacement_sup_bound, edge_decay, evolve,
                    gronwall_bound, right_log_derivative)
from .group import Diffeo, compose, compose_nodes, conjugate, invert
from .io import (read_diffeo, read_displacement, stable_json_dumps, write_diffeo,
                 write_report, write_time_series_csv)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_NON_DIFFEO = 3
EXIT_FLOW = 4

# glibc mallopt(3) parameters. Arrays up to the mmap threshold come from the heap
# instead of a fresh mmap that is unmapped when freed, so the next array of that
# size faults in every page again (about 10k minor faults per 257^2 conjugate);
# 32 MiB is glibc's largest on 64-bit. The heap goes back to the kernel only when
# more than the trim threshold is free at its top: twice the mmap threshold, the
# ratio glibc's own dynamic rule keeps. Setting either stops glibc adjusting the
# other, so both are set.
M_TRIM_THRESHOLD, TRIM_THRESHOLD = -1, 64 << 20
M_MMAP_THRESHOLD, MMAP_THRESHOLD = -3, 32 << 20


def build_parser(reads=None) -> argparse.ArgumentParser:
    """Every flag, or ``--command``, ``--out``, ``--quiet`` and the flags in ``reads``."""
    parser = argparse.ArgumentParser(
        prog="diffeoflow",
        description="group operations, flows and verification for "
                    "diffeomorphisms x + g(x) with decaying g")

    def flag(name, **kwargs):
        if reads is None or name in ("--command", "--out", "--quiet", *reads):
            parser.add_argument(name, **kwargs)
    flag("--command", required=True, choices=_DISPATCH)
    flag("--dim", type=int, default=1)
    flag("--half-width", type=float, default=8.0)
    flag("--points", type=int, default=257)
    flag("--class", dest="decay_class", default=None,
         help="claimed decay class of the input field(s)")
    flag("--descriptor", dest="descriptors", metavar="DESCRIPTOR", action="append",
         default=[], help="closed-form field text; repeatable")
    flag("--input", dest="inputs", metavar="INPUT", action="append", default=[],
         help=".dff file path; repeatable")
    flag("--t-final", type=float, default=1.0)
    flag("--dt", type=float, default=1.0 / 32.0)
    flag("--tol", type=float, default=1.0e-6)
    flag("--seed", type=int, default=DEFAULT_SEED)
    flag("--out", default=None, help="directory for report/field/CSV outputs")
    flag("--quiet", action="store_true", help="suppress the per-criterion progress lines")
    return parser


@lru_cache(maxsize=None)
def _parser(reads=None) -> argparse.ArgumentParser:
    """:func:`build_parser` of one ``_DISPATCH`` row's flags, built once per process."""
    return build_parser(reads)


@lru_cache(maxsize=None)
def _command_probe() -> argparse.ArgumentParser:
    """The parser of ``--command`` alone, which finds the row before the row's parser runs."""
    probe = argparse.ArgumentParser(prog="diffeoflow", add_help=False)
    probe.add_argument("--command")
    return probe


def config_from_argv(argv) -> argparse.Namespace:
    """The parsed flags, with ``grid`` built and ``decay_class`` a :class:`DecayClass`.

    A flag the command does not read, a wrong count of field sources and bad
    values are refused here, before any command runs, ``verify`` included.
    The command's own parser answers ``--help`` with its row's flags.
    """
    command = _command_probe().parse_known_args(argv)[0].command
    _parser(_DISPATCH[command][1] if command in _DISPATCH else None).parse_args(argv)
    config = _parser().parse_args(argv)
    # the parser is shared: each config gets lists of its own, not the parser's defaults
    config.descriptors, config.inputs = list(config.descriptors), list(config.inputs)
    _, reads, needed = _DISPATCH[config.command]
    given = len(config.descriptors) + len(config.inputs)
    if given != needed:
        flags = "/".join(f for f in ("--descriptor", "--input") if f in reads)
        raise ValueError(f"{config.command} needs exactly {needed} field source(s) "
                         f"({flags}), got {given}")
    config.grid = Grid(config.dim, config.half_width, config.points)
    if config.decay_class is not None:
        config.decay_class = class_from_name(config.decay_class)
    if not 0.0 <= config.tol < np.inf:
        raise ValueError("tol must be non-negative and finite")
    if not (0.0 < config.t_final < np.inf and 0.0 < config.dt < np.inf):
        raise ValueError("t-final and dt must be positive and finite")
    return config


def _out_path(config: argparse.Namespace, filename: str) -> str:
    """Path of ``filename`` under ``--out``, creating the directory."""
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return str(out_dir / filename)


def _emit(config: argparse.Namespace, report: dict, member: Diffeo | None = None,
          dff: str | None = None):
    """The output tail of every command.

    Under ``--out``, ``member`` is written as ``dff`` and named in the
    report's ``output``. The report is printed unless ``--quiet`` and, under
    ``--out``, written as ``<command>_report.json``: the printed bytes.
    """
    if config.out and member is not None:
        write_diffeo(_out_path(config, dff), member)
        report["output"] = dff
    if not config.quiet:
        print(stable_json_dumps(report))
    if config.out:
        write_report(_out_path(config, f"{config.command}_report.json"), report)


def _sources(config: argparse.Namespace) -> list:
    """Diffeos from each descriptor, then each file.

    A file member's class is its header's hint (or measured), so ``--class``
    beside an ``--input`` is refused, not ignored.
    """
    claimed = config.decay_class
    if claimed is not None and config.inputs:
        raise ValueError(f"{config.command}: --class applies to --descriptor sources only; "
                         f"an --input member takes its class from its file")
    return ([Diffeo.from_descriptor(config.grid, spec, claimed) for spec in config.descriptors]
            + [read_diffeo(path) for path in config.inputs])


def _field_summary(diffeo: Diffeo, measured: str | None = None) -> dict:
    """Claimed and measured class and margin; ``measured`` if already known."""
    if measured is None:
        measured = measured_class(diffeo.displacement).value
    return {
        "decay_class": diffeo.decay_class.value,
        "measured_class": measured,
        "epsilon": diffeo.epsilon,
        "epsilon_location": diffeo.epsilon_location,
    }


def cmd_classify(config: argparse.Namespace) -> int:
    report = None
    if config.inputs:
        target, decay_class = read_displacement(config.inputs[0])
        if decay_class is None:
            report = classify_decay(target)
            decay_class = DecayClass(report["inferred_class"])
        # read_diffeo's margin check, under the file's class or the measured one
        Diffeo(target, decay_class)
    else:
        target = sample(config.descriptors[0], config.grid)
    if report is None:
        report = classify_decay(target)
    claimed = config.decay_class
    class_ok = None
    if claimed is not None:
        class_ok = claimed.contains(DecayClass(report["inferred_class"]))
    payload = {
        "command": "classify",
        "grid": {"dim": target.grid.dim, "half_width": target.grid.half_width,
                 "points_per_axis": target.grid.points_per_axis},
        "claimed_class": None if claimed is None else claimed.value,
        "class_ok": class_ok,
        "report": report,
    }
    _emit(config, payload)
    return EXIT_OK if class_ok in (None, True) else EXIT_VERIFY


def cmd_compose(config: argparse.Namespace) -> int:
    outer, inner = _sources(config)
    result = compose(outer, inner)
    _emit(config, {"command": "compose", "result": _field_summary(result)},
          result, "composed.dff")
    return EXIT_OK


def cmd_invert(config: argparse.Namespace) -> int:
    (diffeo,) = _sources(config)
    inverse = invert(diffeo)
    residuals = {
        "left_identity": float(np.max(np.abs(compose_nodes(inverse, diffeo)))),
        "right_identity": float(np.max(np.abs(compose_nodes(diffeo, inverse)))),
    }
    holds = max(residuals.values()) <= config.tol
    payload = {
        "command": "invert",
        "result": _field_summary(inverse),
        "residuals": residuals,
        "tol": config.tol,
        "holds": holds,
    }
    _emit(config, payload, inverse, "inverse.dff")
    return EXIT_OK if holds else EXIT_VERIFY


def cmd_conjugate(config: argparse.Namespace) -> int:
    outer, inner = _sources(config)
    result, diag = conjugate(outer, inner)
    payload = {
        "command": "conjugate",
        "inner_class": inner.decay_class.value,
        "outer_class": outer.decay_class.value,
        "result": _field_summary(result, diag["measured_class"]),
        "diagnostics": diag,
        "class_ok": diag["agrees"],
    }
    _emit(config, payload, result, "conjugate.dff")
    return EXIT_OK if diag["agrees"] else EXIT_VERIFY


def cmd_evolve(config: argparse.Namespace) -> int:
    field = TimeDependentVectorField.from_descriptor(
        config.dim, config.descriptors[0], config.decay_class)
    result = evolve(field, config.t_final, config.dt, config.grid)

    *_, sup_holds = displacement_sup_bound(result)
    *_, gronwall_holds = gronwall_bound(result)
    log_gap = 0.0
    for t, derived in right_log_derivative(result):
        exact = field.at_time(config.grid, t).values
        log_gap = max(log_gap, float(np.max(np.abs(derived.values - exact))))
    # one final field: the gate, its class and the written member read its derivative cache
    final = result.final_displacement
    edge_holds = edge_decay(final, result.decay_class)["holds"]
    # without a class, evolve measured it on this snapshot already
    final_class = result.decay_class if field.decay_class is None else measured_class(final)

    payload = {
        "command": "evolve",
        "t_final": config.t_final,
        "dt": config.dt,
        "steps": len(result.times) - 1,
        "final_sup": float(result.diagnostics["sup_displacement"][-1]),
        "min_det": float(min(result.diagnostics["min_det"])),
        "sup_bound_holds": bool(sup_holds),
        "gronwall_holds": bool(gronwall_holds),
        "sobolev_holds": edge_holds,
        "right_log_derivative_gap": log_gap,
        "final_class": final_class.value,
    }
    if config.out:
        write_time_series_csv(_out_path(config, "time_series.csv"), result)
        write_diffeo(_out_path(config, "final.dff"), Diffeo(final, result.decay_class))
        payload["outputs"] = ["time_series.csv", "final.dff"]
    _emit(config, payload)
    verified = sup_holds and gronwall_holds and edge_holds
    return EXIT_OK if verified else EXIT_VERIFY


def cmd_verify(config: argparse.Namespace) -> int:
    results = acceptance.run_core(config.seed)
    passed = all(item.passed for item in results)
    for item in results:
        if not config.quiet:
            state = "PASS" if item.passed else "FAIL"
            print(f"[{state}] criterion {item.index}: {item.detail}",
                  file=sys.stderr)
    _emit(config, {"command": "verify", "seed": config.seed, "passed": passed,
                   "criteria": [item.to_dict() for item in results]})
    return EXIT_OK if passed else EXIT_VERIFY


# the flags that build a field from a descriptor: its grid and its claimed class
_DESCRIPTOR = ("--dim", "--half-width", "--points", "--class", "--descriptor")
# command: (handler, the flags it reads beside --command/--out/--quiet, field sources)
_DISPATCH = {
    "classify": (cmd_classify, (*_DESCRIPTOR, "--input"), 1),
    "compose": (cmd_compose, (*_DESCRIPTOR, "--input"), 2),
    "invert": (cmd_invert, (*_DESCRIPTOR, "--input", "--tol"), 1),
    "conjugate": (cmd_conjugate, (*_DESCRIPTOR, "--input"), 2),
    "evolve": (cmd_evolve, (*_DESCRIPTOR, "--t-final", "--dt"), 1),
    "verify": (cmd_verify, ("--seed",), 0),
}


@lru_cache(maxsize=None)
def _keep_freed_arrays() -> bool:
    """Set the thresholds above, once; False where there is no glibc ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    # a 32-bit glibc refuses the mmap threshold; then its defaults stay whole
    return bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))


def main(argv=None) -> int:
    _keep_freed_arrays()
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
        return _DISPATCH[config.command][0](config)
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

"""Benchmark of the diffeoflow command line: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload group-2d --seed 7 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 25

Each workload is a closed loop: one process, one caller, and the next
command starts when the previous one returns. Commands go through the real
entry point, ``diffeoflow.cli.main``, in-process with ``--quiet --out DIR``;
each JSON report is read back from ``DIR`` and checked. The last line of
standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics of an untraced run, with ``--trace 1`` the per-layer metrics of a
traced batch (see ``tracer.py``). The lines before it give every figure of
the metric table with its unit and sample count, the measured input
properties, the environment, the report digests and the command times.
``--workload all`` runs every workload in turn and prints all their tables.

The program is imported from ``src/`` of the checkout the script sits in,
with BLAS pinned to one thread before numpy loads. Everything the run writes
goes under ``.perfbench_work/`` in that checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("verify-1d", "flow-2d", "group-2d")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120
# A fresh interpreter that only imports numpy, started right after each
# set-up probe, tracks the host's speed for process start and imports far
# better than any in-process kernel: over 4 minutes of a shared 2-vCPU host,
# medians of 6 raw probes varied by 13 % (coefficient of variation), their
# ratios to the bare interpreter by 3 %. ``setup_s`` is that ratio times
# the bare interpreter's time on such a host, 0.18 s.
BARE_CODE = "import numpy, time; print(repr(time.time()))"
BARE_REFERENCE_S = 0.18
# the gated metrics, and the figures a traced run adds to tracer's
END_TO_END = ("setup_s", "wall_cal", "peak_rss_mb")
TRACE_RUN_EXTRAS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                    "cli.failed_frac", "cli.invert_residual",
                    "cli.log_derivative_gap")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_environment():
    """Pin BLAS to one thread, then import the checkout's own diffeoflow."""
    if "DIFFEOFLOW_THREADS" in os.environ:
        raise BenchError("DIFFEOFLOW_THREADS is set; the benchmark measures "
                         "the program's defaults only, so unset it")
    if "numpy" in sys.modules:
        raise BenchError("numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = SRC / "diffeoflow"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no diffeoflow sources at {package}")
    sys.path.insert(0, str(SRC))
    import diffeoflow

    if Path(diffeoflow.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported diffeoflow from {diffeoflow.__file__}, "
                         f"not from {package}")


def environment() -> dict:
    """Machine, interpreter, numpy and source identity of this run."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "diffeoflow").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_sha": _git_sha(), "src_sha256": src_hash.hexdigest()}


def _git_sha():
    """HEAD of the checkout's git directory, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


@dataclass
class Outcome:
    """One timed command: exit code, seconds, report bytes, problems."""

    kind: str
    key: str
    rc: int | None
    seconds: float
    raw: bytes | None
    report: dict | None = None
    problems: list = field(default_factory=list)
    cal: list = field(default_factory=list)
    scaled: float = 0.0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.raw or b"").hexdigest()


def run_command(cli, cmd, out_dir: Path) -> Outcome:
    """Time one ``cli.main`` call; the report is read after the clock stops."""
    report_path = out_dir / f"{cmd.kind}_report.json"
    report_path.unlink(missing_ok=True)
    argv = list(cmd.argv)
    for i, arg in enumerate(argv[:-1]):
        if arg == "--input":
            argv[i + 1] = str(out_dir / argv[i + 1])
    argv += ["--quiet", "--out", str(out_dir)]
    crash = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as exc:  # a crash is a measured failure, not the end
        rc, crash = None, f"{cmd.kind}: raised {exc!r}"
    seconds = time.perf_counter() - start
    raw = report_path.read_bytes() if report_path.exists() else None
    key = cmd.kind + ("-newton" if cmd.expect.get("newton") else "")
    out = Outcome(cmd.kind, key, rc, seconds, raw)
    if crash:
        out.problems.append(crash)
    return out


def run_batch(cli, commands, out_dir: Path, after=None, previous=None) -> list:
    """Run and check ``commands`` in order; ``after(outcome)`` runs after
    each command, outside its timing. ``previous`` is the report of the
    command run just before the first one."""
    from workloads import check_report

    outcomes = []
    for cmd in commands:
        outcome = run_command(cli, cmd, out_dir)
        if after is not None:
            after(outcome)
        if outcome.raw is not None:
            outcome.report = json.loads(outcome.raw)
        if not outcome.problems:
            outcome.problems = check_report(cmd, outcome.rc, outcome.report,
                                            previous)
        previous = outcome.report
        outcomes.append(outcome)
    return outcomes


def warm_up(cli, workload, seed, out_dir: Path):
    from workloads import warmup_command

    cmd = warmup_command(workload, seed)
    outcome = run_command(cli, cmd, out_dir)
    if outcome.rc != 0:
        raise BenchError(f"warm-up {cmd.kind} exited {outcome.rc}")


def setup_probe(workload, seed, out_dir: Path):
    """Body of one set-up sample: import, input generation, warm-up."""
    import diffeoflow.cli as cli
    from workloads import batch

    batch(workload, seed, 0)
    warm_up(cli, workload, seed, out_dir)
    print(repr(time.time()))


def _process_seconds(argv) -> float:
    """From starting ``argv`` to the time stamp it prints last."""
    start = time.time()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - start


def measure_setup(workload, seed) -> tuple:
    """Seconds from the start of a fresh process to its first timed command,
    and of a bare interpreter that imports numpy, started right after it."""
    probe = _process_seconds(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)])
    return probe, _process_seconds([sys.executable, "-c", BARE_CODE])


def _median(values):
    return statistics.median(values) if values else 0.0


def _calibrate(outcomes):
    """Set ``o.scaled`` to each command's time over the kernel's mean time
    just before and just after it (the previous command's samples and its
    own)."""
    before = []
    for o in outcomes:
        o.scaled = o.seconds / statistics.fmean(before + o.cal)
        before = o.cal


def command_table(batches, setup, rss_mb) -> list:
    """Every end-to-end figure of the run as (name, value, unit, samples).

    ``setup`` holds (probe, bare interpreter) seconds; ``setup_s`` is the
    median of their ratios in seconds of the reference host (see
    ``BARE_REFERENCE_S``), ``setup_raw_s`` the median probe as measured.
    A ``*_cal`` figure divides each command's time by the mean time of the
    calibration kernel runs around it (see ``calibration.py``).
    ``wall_cal`` is the time of one batch assembled from these: for each
    command of the batch, the run's median calibrated time of its kind, with
    Newton-size inverts a kind of their own so the Newton tail stays in.
    """
    outcomes = [o for b in batches for o in b]
    _calibrate(outcomes)
    walls = [sum(o.seconds for o in b) for b in batches]
    by_key = {}
    for o in outcomes:
        by_key.setdefault(o.key, []).append(o.scaled)
    rows = [("setup_s", BARE_REFERENCE_S * _median([p / b for p, b in setup]),
             "s", len(setup)),
            ("setup_raw_s", _median([p for p, _ in setup]), "s", len(setup)),
            ("wall_s", _median(walls), "s", len(walls)),
            ("wall_cal", sum(_median(by_key[o.key]) for o in batches[0]), "1",
             len(outcomes)),
            ("cal_s", statistics.fmean(t for o in outcomes for t in o.cal), "s",
             sum(len(o.cal) for o in outcomes))]
    for kind in ("verify", "evolve", "compose", "invert", "conjugate",
                 "classify"):
        same = [o for o in outcomes if o.kind == kind]
        if same:
            rows.append((f"{kind}_s", _median([o.seconds for o in same]), "s",
                         len(same)))
            rows.append((f"{kind}_cal", _median([o.scaled for o in same]),
                         "1", len(same)))
    rows.append(("peak_rss_mb", rss_mb, "MB", 1))
    failed = sum(o.rc != 0 for o in outcomes)
    rows.append(("failed_frac", failed / len(outcomes), "1", len(outcomes)))
    rows += accuracy_rows(outcomes)
    return rows


def accuracy_rows(outcomes) -> list:
    residuals = [max(o.report["residuals"].values()) for o in outcomes
                 if o.kind == "invert" and o.report]
    gaps = [o.report["right_log_derivative_gap"] for o in outcomes
            if o.kind == "evolve" and o.report]
    rows = []
    if residuals:
        rows.append(("invert_residual", _median(residuals), "1", len(residuals)))
    if gaps:
        rows.append(("log_derivative_gap", max(gaps), "1", len(gaps)))
    return rows


def batch_digest(outcomes) -> str:
    return hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()


def emit(tag, payload):
    print(f"perfbench {tag} {json.dumps(payload)}")


def untraced_run(cli, workload, seed, seconds, out_dir):
    """End-to-end metrics: a fixed number of whole batches, about ``seconds``
    long, with the set-up probes spread between their commands."""
    from calibration import Kernel
    from workloads import batch, batch_count

    warm_up(cli, workload, seed, out_dir)
    kernel = Kernel(workload)
    kernel.time_once()
    n_batches = batch_count(workload, seconds)
    total = n_batches * len(batch(workload, seed, 0))
    setup, batches = [], []
    done = 0

    def after(outcome):
        nonlocal done
        done += 1
        outcome.cal = kernel.after_command(outcome.seconds)
        # probe k runs once k / SETUP_PROBES of the commands have run, so no
        # single slow stretch of the host sets the median
        while (len(setup) < SETUP_PROBES
               and len(setup) <= SETUP_PROBES * done / total):
            setup.append(measure_setup(workload, seed))

    for index in range(n_batches):
        batches.append(run_batch(cli, batch(workload, seed, index), out_dir,
                                 after=after))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [o for b in batches for o in b]
    for k, b in enumerate(batches):
        emit("digest", {"batch": k, "batch_sha256": batch_digest(b),
                        "reports": [[o.kind, o.digest] for o in b]})
        emit("times", {"batch": k, "commands": [
            [o.kind, o.rc, o.seconds, statistics.fmean(o.cal)] for o in b]})
    emit("setup", {"probe_and_bare_seconds": setup})
    table = command_table(batches, setup, rss_mb)
    for name, value, unit, n in table:
        print(f"perfbench metric {name} {value!r} {unit} n={n}")
    values = {name: (value, unit) for name, value, unit, _ in table}
    metrics = {k: values[k] for k in END_TO_END}
    return outcomes, metrics


def traced_run(cli, workload, seed, out_dir):
    """Per-layer metrics: each command of batch 0 run traced and untraced,
    back to back, so a change of host speed moves both alike."""
    from tracer import Tracer, per_layer_metrics
    from workloads import batch

    warm_up(cli, workload, seed, out_dir)
    tracer = Tracer()
    traced, plain, previous = [], [], None
    for index, cmd in enumerate(batch(workload, seed, 0)):
        tracer.command = index
        # the second pass of a pair finds the caches warm; alternating
        # which pass goes first keeps that out of trace.overhead_s
        for on in (True, False) if index % 2 == 0 else (False, True):
            with tracer if on else contextlib.nullcontext():
                (outcome,) = run_batch(cli, [cmd], out_dir, previous=previous)
            (traced if on else plain).append(outcome)
        previous = outcome.report
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    plain_wall = sum(o.seconds for o in plain)
    traced_wall = sum(o.seconds for o in traced)
    metrics = per_layer_metrics(tracer.spans, traced_wall)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    failed = sum(o.rc != 0 for o in traced)
    metrics["cli.failed_frac"] = (failed / len(traced), "1")
    accuracy = {name: value for name, value, _, _ in accuracy_rows(traced)}
    metrics["cli.invert_residual"] = (accuracy.get("invert_residual", 0.0), "1")
    metrics["cli.log_derivative_gap"] = (accuracy.get("log_derivative_gap", 0.0), "1")
    same = batch_digest(plain) == batch_digest(traced)
    emit("digest", {"batch": 0, "batch_sha256": batch_digest(plain),
                    "traced_batch_sha256": batch_digest(traced),
                    "identical": same})
    emit("spans", {"path": str(spans_path.relative_to(ROOT)),
                   "count": len(tracer.spans)})
    accounted = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".total_self_s") or k in (
                        "cli.self_s", "trace.hook_s", "trace.unattributed_s"))
    emit("accounting", {"traced_wall_s": traced_wall,
                        "layers_hooks_unattributed_s": accounted})
    for name, (value, unit) in metrics.items():
        print(f"perfbench layer {name} {value!r} {unit}")
    outcomes = traced + plain
    if not same:
        outcomes[-1].problems.append("reports differ with tracing on")
    return outcomes, metrics


def run_workload(args) -> dict:
    pin_environment()
    import diffeoflow.cli as cli
    from workloads import batch, input_properties

    out_dir = WORK / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, out_dir)
            return None
        emit("env", environment())
        emit("run", {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace})
        if args.trace:
            outcomes, metrics = traced_run(cli, args.workload, args.seed, out_dir)
        else:
            outcomes, metrics = untraced_run(cli, args.workload, args.seed,
                                             args.seconds, out_dir)
        emit("inputs", input_properties(args.workload,
                                        batch(args.workload, args.seed, 0)))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    problems = [p for o in outcomes for p in o.problems]
    for problem in problems:
        print(f"perfbench problem {problem}")
    return {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.rc != 0 for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()}")
        print(f"== {workload}")
        for line in lines[:-1]:
            if line.startswith(("perfbench metric", "perfbench layer")):
                print(line)
        results[workload] = json.loads(lines[-1])
    return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

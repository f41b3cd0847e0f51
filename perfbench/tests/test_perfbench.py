"""Tests of the benchmark's own code: tracer, self-time arithmetic, inputs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import diffeoflow.cli as cli  # noqa: E402
import run  # noqa: E402
from tracer import (HOOK_SPAN, Span, Tracer, per_layer_metrics,  # noqa: E402
                    self_times)
from workloads import WORKLOADS, batch, batch_count  # noqa: E402


def _namespace_snapshot() -> dict:
    """Every attribute of every diffeoflow module and of the classes in them."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name != "diffeoflow" and not name.startswith("diffeoflow."):
            continue
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("diffeoflow"):
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def _lookup(key):
    obj = sys.modules[key[0]]
    obj = vars(obj)[key[1]]
    return obj if len(key) == 2 else vars(obj)[key[2]]


def test_tracer_restores_every_patched_attribute():
    import diffeoflow.fields as fields
    import diffeoflow.group as group

    before = _namespace_snapshot()
    tracer = Tracer()
    with tracer:
        changed = [k for k, v in before.items() if _lookup(k) is not v]
        # invert is bound in group, flows, cli, acceptance and the package
        assert {("diffeoflow.group", "invert"), ("diffeoflow.flows", "invert"),
                ("diffeoflow.cli", "invert"), ("diffeoflow", "invert")} <= set(changed)
        assert ("diffeoflow.fields", "DisplacementField", "sample") in changed
        assert isinstance(vars(fields.DisplacementField)["from_descriptor"],
                          classmethod)
        assert group.invert is not before[("diffeoflow.group", "invert")]
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def _hooked_spans(spans) -> list:
    return [sp.name for sp in spans
            if sp.parent is not None and spans[sp.parent].name == HOOK_SPAN]


def test_hooks_open_no_spans():
    import diffeoflow.group as group
    from diffeoflow import DecayClass, Diffeo, DisplacementField, Grid

    grid = Grid(2, 8.0, 33)
    text = "0.1*exp(-(x)^2-(y)^2), 0.05*exp(-(x-1)^2-(y)^2)"
    diffeo = Diffeo(DisplacementField.from_descriptor(grid, text),
                    DecayClass.SCHWARTZ)
    tracer = Tracer()
    with tracer:
        group.invert(diffeo)
    names = [sp.name for sp in tracer.spans]
    assert names.count("group.invert") == 1
    assert HOOK_SPAN in names
    assert _hooked_spans(tracer.spans) == []
    (span,) = [sp for sp in tracer.spans if sp.name == "group.invert"]
    assert span.attrs == {"newton": False}


def _span(name, start, end, parent):
    span = Span(name, start, parent, 0)
    span.end = end
    return span


def test_self_times_on_nested_tree():
    spans = [
        _span("cli.main", 0.0, 10.0, None),       # 0
        _span("group.invert", 1.0, 4.0, 0),       # 1
        _span("fields.sample", 2.0, 3.0, 1),      # 2
        _span("flows.evolve", 5.0, 9.0, 0),       # 3
        _span("fields.sample", 5.0, 6.0, 3),      # 4
        _span("fields.sample", 7.0, 8.5, 3),      # 5
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    metrics = per_layer_metrics(spans, traced_wall=10.25)
    assert metrics["fields.sample.calls"][0] == 3
    assert metrics["fields.sample.self_s"][0] == pytest.approx(3.5)
    assert metrics["group.invert.sweeps"][0] == 1.0
    assert metrics["cli.self_s"][0] == pytest.approx(3.0)
    assert metrics["trace.unattributed_s"][0] == pytest.approx(0.25)
    accounted = sum(v for k, (v, _) in metrics.items()
                    if k.endswith(".total_self_s") or k in (
                        "cli.self_s", "trace.hook_s", "trace.unattributed_s"))
    assert accounted == pytest.approx(10.25)


def test_self_times_merge_overlapping_children():
    spans = [
        _span("cli.main", 0.0, 10.0, None),
        _span("group.compose", 1.0, 4.0, 0),
        _span("group.compose", 3.0, 6.0, 0),
        _span("group.compose", 9.0, 12.0, 0),  # runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_verify_report_identical_with_tracing(tmp_path):
    argv = ["--command", "verify", "--seed", "1789", "--quiet", "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    tracer = Tracer()
    with tracer:
        assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    plain = (tmp_path / "plain" / "verify_report.json").read_bytes()
    traced = (tmp_path / "traced" / "verify_report.json").read_bytes()
    assert plain == traced
    names = {span.name for span in tracer.spans}
    assert {f"acceptance.criterion_{k}" for k in range(1, 10)} <= names
    assert _hooked_spans(tracer.spans) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batches_depend_only_on_seed_and_index(workload):
    def argvs(seed, index):
        return [cmd.argv for cmd in batch(workload, seed, index)]

    assert argvs(5, 0) == argvs(5, 0)
    assert argvs(5, 0) != argvs(6, 0)
    assert argvs(5, 0) != argvs(5, 1)


def test_run_length_is_a_fixed_batch_count():
    # the commands of a run, and so attempted and failed, follow from the
    # seed and --seconds alone, never from the host's speed
    assert [batch_count(w, 25) for w in WORKLOADS] == [5, 6, 1]
    assert [batch_count(w, 1) for w in WORKLOADS] == [1, 1, 1]


def _bench(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-1d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_thread_knob():
    env = dict(os.environ, DIFFEOFLOW_THREADS="2")
    proc = _bench(ROOT, env)
    assert proc.returncode != 0
    assert "DIFFEOFLOW_THREADS" in proc.stderr
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    traced = list(per_layer_metrics([], 0.0)) + list(run.TRACE_RUN_EXTRAS)
    assert [m["name"] for m in spec["per_layer"]] == traced

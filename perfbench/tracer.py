"""Span tracer installed from outside the program, and per-layer metrics.

``Tracer.install`` replaces the public functions and methods of each
``diffeoflow`` layer with wrappers that record a span per call: name,
start, end, parent span and command id. Module-level functions are replaced
in every ``diffeoflow.*`` namespace that binds them (``invert`` lives in
``group``, ``flows``, ``cli``, ``acceptance`` and the package), methods at
class level. ``uninstall`` puts every original attribute back. Spans stay
in memory until the run writes them out.

Some spans carry attributes computed from the call's arguments or result
(points queried, bytes written, the Newton test of an ``invert`` input).
That work runs after the layer's span has closed, inside a ``bench.hook``
span, so it is booked as tracing cost and never as a layer's self time.
While a hook runs the wrappers record nothing, so the program calls that a
hook makes (``jacobian_grid`` in the Newton test) open no spans either.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import numpy as np

from workloads import NEWTON_SWITCH, max_dg_frobenius

# (span name, module, attribute path, attribute hook or None); a dotted path
# is a method or classmethod patched on its class
TARGETS = (
    ("fields.sample", "fields", "ScalarField.sample", "gather"),
    ("fields.sample", "fields", "DisplacementField.sample", "gather"),
    ("fields.jacobian_at", "fields", "DisplacementField.jacobian_at", "points1"),
    ("fields.jacobian_grid", "fields", "DisplacementField.jacobian_grid", None),
    ("fields.partial_derivative", "fields", "partial_derivative", None),
    ("fields.partial_derivative", "fields", "ScalarField.partial_derivative", None),
    ("fields.partial_derivative", "fields", "DisplacementField.partial_derivative", None),
    ("fields.from_descriptor", "fields", "ScalarField.from_descriptor", None),
    ("fields.from_descriptor", "fields", "DisplacementField.from_descriptor", None),
    ("fields.regrid", "fields", "ScalarField.regrid", None),
    ("fields.regrid", "fields", "DisplacementField.regrid", None),
    ("fields.seminorm", "fields", "sup_seminorm", None),
    ("fields.seminorm", "fields", "weighted_seminorm", None),
    ("fields.seminorm", "fields", "sobolev_seminorm", None),
    ("group.diffeo_margin", "group", "Diffeo.__init__", None),
    ("group.compose", "group", "compose", None),
    ("group.invert", "group", "invert", "newton"),
    ("group.conjugate", "group", "conjugate", None),
    ("group.membership_check", "group", "membership_check", None),
    ("decay.classify", "decay", "classify_decay", None),
    ("flows.evolve", "flows", "evolve", "steps"),
    ("flows.field_eval", "flows", "TimeDependentVectorField.__call__", "points2"),
    ("flows.field_eval", "flows", "TimeDependentVectorField.jacobian", "points2"),
    ("flows.sup_bound", "flows", "displacement_sup_bound", None),
    ("flows.gronwall", "flows", "gronwall_bound", None),
    ("flows.sobolev_tracking", "flows", "sobolev_tracking", None),
    ("flows.right_log_derivative", "flows", "right_log_derivative", None),
    ("io.write_diffeo", "io", "write_diffeo", "file_out"),
    ("io.read_diffeo", "io", "read_diffeo", "file_in"),
    ("io.write_time_series_csv", "io", "write_time_series_csv", None),
    ("io.write_report", "io", "write_report", None),
    ("io.stable_json_dumps", "io", "stable_json_dumps", None),
    ("jets.jet_from_displacement", "jets", "jet_from_displacement", None),
    ("jets.compose_jets", "jets", "compose_jets", None),
    ("jets.invert_jet", "jets", "invert_jet", None),
    ("jets.inverse_norm_bound", "jets", "inverse_norm_bound", None),
    ("descriptors.parse", "descriptors", "parse_scalar", None),
    ("descriptors.parse", "descriptors", "parse_vector", None),
    ("descriptors.evaluate_on", "descriptors", "evaluate_on", None),
    ("cli.main", "cli", "main", None),
    # acceptance.run_core order, so criterion_<k> is the k-th criterion
    ("acceptance.criterion_1", "acceptance", "criterion_group_axioms", None),
    ("acceptance.criterion_2", "acceptance", "criterion_faa_di_bruno", None),
    ("acceptance.criterion_3", "acceptance", "criterion_jet_inversion", None),
    ("acceptance.criterion_4", "acceptance", "criterion_inverse_norm_inequality", None),
    ("acceptance.criterion_5", "acceptance", "criterion_flow_correctness", None),
    ("acceptance.criterion_6", "acceptance", "criterion_inequality_verification", None),
    ("acceptance.criterion_7", "acceptance", "criterion_class_preservation", None),
    ("acceptance.criterion_8", "acceptance", "criterion_normality", None),
    ("acceptance.criterion_9", "acceptance", "criterion_right_log_derivative", None),
)

LAYERS = ("fields", "group", "decay", "flows", "io", "jets", "descriptors",
          "acceptance", "cli")
HOOK_SPAN = "bench.hook"


class Span:
    __slots__ = ("name", "start", "end", "parent", "command", "attrs")

    def __init__(self, name, start, parent, command):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.command = command
        self.attrs = None

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "command": self.command,
                "attrs": self.attrs}


def _points(arr, dim) -> int:
    return int(np.size(arr)) // dim


class Tracer:
    """Records spans around the patched calls; one per process at a time."""

    def __init__(self):
        self.spans = []
        self.command = None
        self._stack = []
        self._patches = []
        self._hooking = False

    # -- recording -------------------------------------------------------
    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _hook(self, kind, args, kwargs, result) -> dict:
        if kind == "gather":
            field, points = args[0], args[1] if len(args) > 1 else kwargs["points"]
            dim = field.grid.dim
            n = _points(points, dim)
            comps = dim if field.values.ndim == dim + 1 else 1
            return {"points": n, "gather_bytes": n * 4 ** dim * comps * 8}
        if kind == "points1":  # DisplacementField.jacobian_at(self, points)
            points = args[1] if len(args) > 1 else kwargs["points"]
            return {"points": _points(points, args[0].grid.dim)}
        if kind == "points2":  # TimeDependentVectorField(self, t, points, ...)
            points = args[2] if len(args) > 2 else kwargs["points"]
            return {"points": _points(points, args[0].dim)}
        if kind == "newton":
            diffeo = args[0] if args else kwargs["diffeo"]
            return {"newton": max_dg_frobenius(diffeo.displacement) >= NEWTON_SWITCH}
        if kind == "steps":
            return {"steps": int(len(result.times) - 1)}
        if kind in ("file_out", "file_in"):
            path = args[0] if args else kwargs["path"]
            size = sum(os.path.getsize(p) for p in (path, path + ".meta.json")
                       if os.path.exists(p))
            return {"bytes": size}
        raise ValueError(kind)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._hooking:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hidx = tracer._open(HOOK_SPAN)
                tracer._hooking = True
                try:
                    tracer.spans[idx].attrs = tracer._hook(hook, args, kwargs, result)
                finally:
                    tracer._hooking = False
                    tracer._close(hidx)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self):
        """Patch every target; every ``diffeoflow`` module must be imported."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import diffeoflow.cli  # noqa: F401  (loads every layer module)

        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "diffeoflow" or n.startswith("diffeoflow.")]
        try:
            for name, module, path, hook in TARGETS:
                mod = sys.modules[f"diffeoflow.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(mod, cls_name)
                    original = owner.__dict__[attr]
                    if isinstance(original, classmethod):
                        patched = classmethod(self.wrap(name, original.__func__, hook))
                    else:
                        patched = self.wrap(name, original, hook)
                    self._set(owner, attr, original, patched)
                    continue
                original = getattr(mod, path)
                patched = self.wrap(name, original, hook)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._set(ns, attr, original, patched)
        except BaseException:
            self.uninstall()
            raise

    def _set(self, owner, attr, original, patched):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, patched)

    def uninstall(self):
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()))
                fh.write("\n")


def self_times(spans) -> list:
    """Per span: its duration minus the part of it its children cover.

    Children are merged as intervals clipped to the parent, so overlapping
    or out-of-range children are never counted twice.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def per_layer_metrics(spans, traced_wall: float) -> dict:
    """The per-layer metrics of one traced batch, as ``name -> (value, unit)``.

    ``traced_wall`` is the summed wall time of the traced commands; the part
    of it no span covers is reported as ``trace.unattributed_s``, so the
    layer self times, the hooks and that remainder add up to it.
    """
    selfs = self_times(spans)
    calls, self_s, inclusive = {}, {}, {}
    attrs = {}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        inclusive[span.name] = inclusive.get(span.name, 0.0) + (span.end - span.start)
        for key, value in (span.attrs or {}).items():
            bucket = attrs.setdefault(span.name, {})
            bucket[key] = bucket.get(key, 0) + value

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def a(name, key):
        return attrs.get(name, {}).get(key, 0)

    def child_count(parent_name, child_name):
        return sum(1 for sp in spans if sp.name == child_name
                   and sp.parent is not None
                   and spans[sp.parent].name == parent_name)

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    put("fields.sample.calls", n("fields.sample"), "count")
    put("fields.sample.points", a("fields.sample", "points"), "count")
    put("fields.sample.self_s", s("fields.sample"), "s")
    put("fields.sample.gather_bytes", a("fields.sample", "gather_bytes"), "B")
    put("fields.jacobian_at.calls", n("fields.jacobian_at"), "count")
    put("fields.jacobian_at.points", a("fields.jacobian_at", "points"), "count")
    put("fields.jacobian_at.self_s", s("fields.jacobian_at"), "s")
    for name in ("jacobian_grid", "partial_derivative", "from_descriptor",
                 "seminorm"):
        put(f"fields.{name}.calls", n(f"fields.{name}"), "count")
        put(f"fields.{name}.self_s", s(f"fields.{name}"), "s")
    put("fields.regrid.self_s", s("fields.regrid"), "s")

    for name in ("diffeo_margin", "compose", "invert", "conjugate"):
        put(f"group.{name}.calls", n(f"group.{name}"), "count")
        put(f"group.{name}.self_s", s(f"group.{name}"), "s")
    inverts = n("group.invert")
    put("group.invert.sweeps",
        child_count("group.invert", "fields.sample") / inverts if inverts else 0.0,
        "count")
    put("group.invert.newton_share",
        a("group.invert", "newton") / inverts if inverts else 0.0, "1")
    put("group.membership_check.self_s", s("group.membership_check"), "s")

    put("decay.classify.calls", n("decay.classify"), "count")
    put("decay.classify.self_s", s("decay.classify"), "s")

    steps = a("flows.evolve", "steps")
    put("flows.evolve.calls", n("flows.evolve"), "count")
    put("flows.evolve.steps", steps, "count")
    put("flows.evolve.self_s", s("flows.evolve"), "s")
    put("flows.step_s", s("flows.evolve") / steps if steps else 0.0, "s")
    put("flows.field_eval.calls", n("flows.field_eval"), "count")
    put("flows.field_eval.points", a("flows.field_eval", "points"), "count")
    put("flows.field_eval.self_s", s("flows.field_eval"), "s")
    for name in ("sup_bound", "gronwall", "sobolev_tracking",
                 "right_log_derivative"):
        put(f"flows.{name}.self_s", s(f"flows.{name}"), "s")
    put("flows.right_log_derivative.inverts",
        child_count("flows.right_log_derivative", "group.invert"), "count")

    for name in ("write_diffeo", "read_diffeo"):
        put(f"io.{name}.calls", n(f"io.{name}"), "count")
        put(f"io.{name}.bytes", a(f"io.{name}", "bytes"), "B")
        put(f"io.{name}.self_s", s(f"io.{name}"), "s")
    for name in ("write_time_series_csv", "write_report", "stable_json_dumps"):
        put(f"io.{name}.self_s", s(f"io.{name}"), "s")

    for name in ("jet_from_displacement", "compose_jets", "invert_jet",
                 "inverse_norm_bound"):
        put(f"jets.{name}.calls", n(f"jets.{name}"), "count")
        put(f"jets.{name}.self_s", s(f"jets.{name}"), "s")

    put("descriptors.parse.calls", n("descriptors.parse"), "count")
    put("descriptors.parse.self_s", s("descriptors.parse"), "s")
    put("descriptors.evaluate_on.self_s", s("descriptors.evaluate_on"), "s")

    put("cli.self_s", s("cli.main"), "s")
    for k in range(1, 10):
        put(f"acceptance.criterion_{k}.s",
            inclusive.get(f"acceptance.criterion_{k}", 0.0), "s")

    for layer in LAYERS[:-1]:  # cli.self_s is already the cli total
        put(f"{layer}.total_self_s",
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    top = sum(sp.end - sp.start for sp in spans if sp.parent is None)
    put("trace.hook_s", s(HOOK_SPAN), "s")
    put("trace.unattributed_s", traced_wall - top, "s")
    return m

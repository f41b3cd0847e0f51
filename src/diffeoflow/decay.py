"""Decay classes for displacement fields and the estimator that assigns them.

The four classes, from narrowest to widest:

* ``CompactSupport``: identically zero outside a ball strictly inside the box
* ``Schwartz``: every derivative falls off faster than every polynomial
* ``SobolevInfinity``: every derivative is square-integrable
* ``BoundedAll``: every derivative is merely bounded

Each class is closed under the group operations, and each narrower class sits
inside the wider ones, so the estimator reports the narrowest class the grid
data supports. Decay rates are read off dyadic shells ``2^(k-1) <= |x| <= 2^k``:
a least-squares fit of log(shell sup) against log(shell radius) per derivative.
That is a finite-window heuristic, not a proof; the report carries the raw
shell data so callers can audit the call.

The shells are read through a plan built once per grid and cached like the
grid's nodes: the nodes ordered by radius, kept as an int32 permutation (4
bytes per node). Each derivative's node magnitudes are gathered into that
order once, and then every shell, the edge set near the box and each set
outside a dyadic radius is one slice of them.

Two entry points share one loop over the derivatives and one decision rule:
:func:`classify_decay` measures every derivative through order
``DEFAULT_MAX_ORDER`` and returns its whole report as a JSON-ready dict;
:func:`measured_class` returns only the class, and stops at the first
derivative after which no later one can change it. Order 0 settles
CompactSupport, and BoundedAll is settled once both the Schwartz and the
H-infinity tests have failed, so a bounded or compact field is judged on its
values alone. Both give the same class for every field.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import FieldError, InsufficientAnnuliError
from .fields import (derivative_values, grid_cached, multi_indices_up_to, row_norms,
                     seminorm_measure, sobolev_measure)

MIN_SHELLS = 4
SOBOLEV_NORM_CAP = 1.0e3
SOBOLEV_MIN_EXPONENT = 0.25
SOBOLEV_EDGE_RATIO = 0.25
DEFAULT_MAX_ORDER = 2
DEFAULT_MAX_WEIGHT = 2


class DecayClass(enum.Enum):
    """Displacement decay classes, ordered by inclusion."""

    BOUNDED_ALL = "BoundedAll"
    SOBOLEV_INFINITY = "SobolevInfinity"
    SCHWARTZ = "Schwartz"
    COMPACT_SUPPORT = "CompactSupport"

    @property
    def rank(self) -> int:
        """Higher rank means a narrower class."""
        return _RANK[self]

    def contains(self, other: "DecayClass") -> bool:
        """True when every member of ``other`` also belongs to this class."""
        return other.rank >= self.rank


_RANK = {
    DecayClass.BOUNDED_ALL: 0,
    DecayClass.SOBOLEV_INFINITY: 1,
    DecayClass.SCHWARTZ: 2,
    DecayClass.COMPACT_SUPPORT: 3,
}

_ALIASES = {
    "boundedall": DecayClass.BOUNDED_ALL,
    "bounded": DecayClass.BOUNDED_ALL,
    "b": DecayClass.BOUNDED_ALL,
    "sobolevinfinity": DecayClass.SOBOLEV_INFINITY,
    "sobolev": DecayClass.SOBOLEV_INFINITY,
    "hinf": DecayClass.SOBOLEV_INFINITY,
    "schwartz": DecayClass.SCHWARTZ,
    "s": DecayClass.SCHWARTZ,
    "compactsupport": DecayClass.COMPACT_SUPPORT,
    "compact": DecayClass.COMPACT_SUPPORT,
    "c": DecayClass.COMPACT_SUPPORT,
}


def class_from_name(name) -> DecayClass:
    if isinstance(name, DecayClass):
        return name
    key = str(name).replace("_", "").replace("-", "").lower()
    try:
        return _ALIASES[key]
    except KeyError:
        raise FieldError(
            f"unknown decay class {name!r}; expected one of "
            f"{[m.value for m in DecayClass]}"
        ) from None


def widest(a: DecayClass, b: DecayClass) -> DecayClass:
    return a if a.rank <= b.rank else b


def extrapolation_for(decay_class: DecayClass | None) -> str:
    """Off-box continuation: bounded clamps; decaying and unknown classes read zero."""
    return "clamp" if decay_class is DecayClass.BOUNDED_ALL else "zero"


@dataclass(frozen=True, eq=False)
class _ShellPlan:
    """A grid's nodes in rising radius ``r = |x|``: every set the classifier reads is a slice.

    ``radii[k] = 2^k`` is every dyadic level inside the box, and ``order`` a
    read-only int32 node permutation (4 bytes per node) whose bins, each
    radius ``2^j`` (``j >= -1``) and each open interval between two, come in
    rising ``r``. ``shells[k]`` is the ``(start, stop)`` of ``2^(k-1) <= r <=
    2^k``; ``r >= radii[-1] / 2`` starts at ``edge`` and ``r > radii[k]`` at
    ``outside[k]``.
    """

    radii: list
    order: np.ndarray
    shells: tuple
    edge: int
    outside: tuple

    @property
    def nbytes(self) -> int:
        return self.order.nbytes


_plan_cache: OrderedDict = OrderedDict()


def _build_plan(grid) -> _ShellPlan:
    """The :class:`_ShellPlan` of ``grid``, its bins filled in turn, with no sort.

    Classification needs at least ``MIN_SHELLS`` shells, which requires a
    half-width of at least 8; fewer raise.
    """
    levels = int(np.floor(np.log2(grid.half_width) + 1.0e-12))
    shells = levels + 1
    if shells < MIN_SHELLS:
        raise InsufficientAnnuliError(
            f"only {shells} dyadic shells fit in half_width {grid.half_width}; "
            f"need {MIN_SHELLS} (half_width of at least 8)"
        )
    order = np.empty(grid.node_count, dtype=np.int32)
    r = row_norms(np.asarray(grid.nodes()))
    index = np.arange(grid.node_count, dtype=np.int32)
    # below[t] and through[t]: where r >= t and r > t start in order
    below, through, filled, lower = {}, {}, 0, -1.0
    for t in [2.0 ** j for j in range(-1, shells)]:
        for starts, in_bin in ((below, (r > lower) & (r < t)), (through, r == t)):
            run = index[in_bin]
            order[filled:filled + run.size] = run
            filled += run.size
            starts[t] = filled
        lower = t
    order[filled:] = index[r > lower]
    order.flags.writeable = False
    radii = [float(2.0 ** k) for k in range(shells)]
    return _ShellPlan(radii, order,
                      tuple((below[2.0 ** (k - 1)], through[2.0 ** k]) for k in range(shells)),
                      below[radii[-1] / 2.0], tuple(through[radius] for radius in radii))


def _shells(grid) -> _ShellPlan:
    """The shell plan of ``grid``, built once and cached like :meth:`Grid.nodes`."""
    return grid_cached(_plan_cache, grid, _build_plan)


def _fit_exponent(radii, sups) -> float:
    """Slope of log(sup) against log(radius), sign-flipped to a decay rate.

    Shells where the sup is exactly zero are dropped; if fewer than two
    nonzero shells remain the decay is treated as infinitely fast.
    """
    r = np.asarray(radii)
    s = np.asarray(sups)
    keep = s > 0.0
    if np.count_nonzero(keep) < 2:
        return float("inf")
    slope = np.polyfit(np.log(r[keep]), np.log(s[keep]), 1)[0]
    return float(-slope)


def _shell_fit(alpha, ranked: np.ndarray, plan: _ShellPlan) -> dict:
    """Decay fit of one derivative's node magnitudes ``ranked``, in the plan's order."""
    sups = [float(np.max(ranked[lo:hi])) if hi > lo else 0.0 for lo, hi in plan.shells]
    return {"alpha": list(alpha), "radii": list(plan.radii), "shell_sups": sups,
            "exponent": _fit_exponent(plan.radii, sups)}


def _support_radius(ranked: np.ndarray, plan: _ShellPlan) -> float | None:
    """Smallest dyadic radius outside of which every sample is exactly zero.

    ``ranked`` holds the node magnitudes in the plan's order, so the nodes
    outside a radius are a tail of it.
    """
    for radius, start in zip(plan.radii, plan.outside):
        if start < ranked.size and float(np.max(ranked[start:])) == 0.0:
            return radius
    return None


def _classify(field, full: bool) -> tuple:
    """The loop over the derivatives and the decision rule of both entry points.

    Returns ``(inferred, fits, rows, edge_ratio, support_radius, global_sup)``,
    ``fits`` holding each derivative's report dict from :func:`_shell_fit` and
    ``rows`` each derivative's ``(sup, weighted, sobolev)``
    seminorms. With ``full`` false it builds no rows, takes an L2 norm only
    while the H-infinity test can still decide, and stops once the class is
    settled.
    """
    grid = field.grid
    plan = _shells(grid)
    measure = seminorm_measure(field, DEFAULT_MAX_WEIGHT) if full else None
    l2_norm = None
    fits, rows = [], []
    # one pass: each derivative gives its shell fit and its seminorms, then
    # is dropped before the next is derived (the field keeps first orders only)
    for alpha in multi_indices_up_to(grid.dim, DEFAULT_MAX_ORDER):
        derivative = derivative_values(field, alpha)
        # one gather puts the magnitudes in the plan's order: every shell is a slice
        ranked = np.take(_component_max(derivative, grid), plan.order)
        fit = _shell_fit(alpha, ranked, plan)
        fits.append(fit)
        if not any(alpha):
            global_sup = float(np.max(ranked))
            edge_sup = float(np.max(ranked[plan.edge:])) if plan.edge < ranked.size else 0.0
            edge_ratio = edge_sup / global_sup if global_sup > 0.0 else 0.0
            support_radius = _support_radius(ranked, plan)
            compact = global_sup == 0.0 or support_radius is not None
            schwartz, sobolev = True, edge_ratio <= SOBOLEV_EDGE_RATIO
        schwartz = schwartz and fit["exponent"] >= DEFAULT_MAX_WEIGHT + 1
        sobolev = sobolev and fit["exponent"] >= SOBOLEV_MIN_EXPONENT
        if full:
            rows.append(measure(derivative))
            sobolev = sobolev and rows[-1][2] <= SOBOLEV_NORM_CAP
        elif sobolev and not compact:
            l2_norm = sobolev_measure(field) if l2_norm is None else l2_norm
            sobolev = l2_norm(derivative) <= SOBOLEV_NORM_CAP
        del derivative, ranked
        if not full and (compact or not (schwartz or sobolev)):
            break
    if compact:
        inferred = DecayClass.COMPACT_SUPPORT
    elif schwartz:
        inferred = DecayClass.SCHWARTZ
    elif sobolev:
        inferred = DecayClass.SOBOLEV_INFINITY
    else:
        inferred = DecayClass.BOUNDED_ALL
    return inferred, fits, rows, edge_ratio, support_radius, global_sup


def measured_class(field) -> DecayClass:
    """The class :func:`classify_decay` infers, without building its report.

    It stops at the first derivative that settles the class, so a BoundedAll
    or CompactSupport verdict usually reads the field's values alone.
    """
    return _classify(field, False)[0]


def classify_decay(field) -> dict:
    """Estimate the narrowest decay class a scalar or displacement field fits.

    Derivatives through order ``DEFAULT_MAX_ORDER`` and polynomial weights
    through ``DEFAULT_MAX_WEIGHT`` are measured, and the Schwartz test asks
    every fitted exponent to clear ``DEFAULT_MAX_WEIGHT + 1``. Returns the
    JSON-ready report: ``inferred_class`` (the class's value), ``max_order``,
    ``max_weight``, ``entries`` (one ``{kind, alpha, m, value}`` per measured
    seminorm), ``decay_rates`` (each derivative's fitted exponent, keyed
    ``"a0,a1"``), ``radii``, ``fits`` (each derivative's ``{alpha, radii,
    shell_sups, exponent}``), ``edge_ratio``, ``support_radius`` and ``notes``.
    """
    inferred, fits, rows, edge_ratio, support_radius, global_sup = _classify(field, True)
    alphas = [fit["alpha"] for fit in fits]

    sup_values, weighted, sobolev_values = zip(*rows)
    entries = [{"kind": "sup", "alpha": list(alpha), "m": 0, "value": value}
               for alpha, value in zip(alphas, sup_values)]
    for alpha, row in zip(alphas, weighted):
        for m, value in enumerate(row, start=1):
            entries.append({"kind": "weighted", "alpha": list(alpha), "m": m, "value": value})
    entries += [{"kind": "sobolev", "alpha": list(alpha), "m": 0, "value": value}
                for alpha, value in zip(alphas, sobolev_values)]

    notes = []
    if inferred is DecayClass.COMPACT_SUPPORT:
        if global_sup == 0.0:
            support_radius = 0.0
        notes.append(f"values vanish identically for |x| > {support_radius}")
    elif inferred is DecayClass.SCHWARTZ:
        notes.append(f"every fitted exponent through order {DEFAULT_MAX_ORDER} "
                     f"is at least {DEFAULT_MAX_WEIGHT + 1}")
    elif inferred is DecayClass.SOBOLEV_INFINITY:
        notes.append(
            f"Sobolev norms through order {DEFAULT_MAX_ORDER} stay under {SOBOLEV_NORM_CAP} "
            f"and the field has died down near the box edge"
        )
    else:
        slow = [fit["alpha"] for fit in fits if fit["exponent"] < SOBOLEV_MIN_EXPONENT]
        if slow:
            notes.append(f"derivatives {slow} show no usable decay")
        if edge_ratio > SOBOLEV_EDGE_RATIO:
            notes.append(
                f"field still carries {edge_ratio:.3g} of its sup on the outermost shell"
            )

    return {
        "inferred_class": inferred.value,
        "max_order": DEFAULT_MAX_ORDER,
        "max_weight": DEFAULT_MAX_WEIGHT,
        "entries": entries,
        "decay_rates": {",".join(map(str, alpha)): fit["exponent"]
                        for alpha, fit in zip(alphas, fits)},
        "radii": list(fits[0]["radii"]),
        "fits": fits,
        "edge_ratio": edge_ratio,
        "support_radius": support_radius,
        "notes": notes,
    }


def _component_max(derivative: np.ndarray, grid) -> np.ndarray:
    """Node-wise max over components of ``|d^alpha f_i|``, shaped like the grid."""
    channels = derivative.reshape((-1,) + grid.shape)
    out, magnitude = np.abs(channels[0]), None
    for channel in channels[1:]:
        magnitude = np.abs(channel, out=magnitude)
        np.maximum(out, magnitude, out=out)
    return out

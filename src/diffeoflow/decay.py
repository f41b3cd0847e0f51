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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldError, InsufficientAnnuliError
from .fields import (
    multi_indices_up_to,
    sobolev_seminorm,
    sup_seminorm,
    weighted_seminorm,
)

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


def extrapolation_for(decay_class: DecayClass) -> str:
    """Off-box continuation: decaying classes read zero, bounded clamps."""
    return "clamp" if decay_class is DecayClass.BOUNDED_ALL else "zero"


@dataclass
class ShellFit:
    """Decay fit for one derivative: shell sups against dyadic radii."""

    alpha: tuple
    radii: list
    shell_sups: list
    exponent: float

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "radii": list(self.radii),
            "shell_sups": list(self.shell_sups),
            "exponent": self.exponent,
        }


def _alpha_key(alpha) -> str:
    return ",".join(str(int(a)) for a in alpha)


@dataclass
class SeminormReport:
    """Everything the classifier measured, plus the class it settled on.

    ``entries`` is a flat list of measured seminorms, one dict per
    ``(kind, alpha, m)`` triple; ``decay_rates`` maps each derivative
    multi-index to its fitted dyadic decay exponent.
    """

    inferred_class: DecayClass
    max_order: int
    max_weight: int
    entries: list
    decay_rates: dict
    radii: list
    fits: list
    edge_ratio: float
    support_radius: float | None = None
    notes: list = field(default_factory=list)

    def value(self, kind: str, alpha, m: int = 0) -> float:
        alpha = tuple(int(a) for a in alpha)
        for entry in self.entries:
            if (entry["kind"] == kind and tuple(entry["alpha"]) == alpha
                    and entry["m"] == m):
                return entry["value"]
        raise KeyError((kind, alpha, m))

    def to_dict(self) -> dict:
        return {
            "inferred_class": self.inferred_class.value,
            "max_order": self.max_order,
            "max_weight": self.max_weight,
            "entries": [
                {
                    "kind": e["kind"],
                    "alpha": list(e["alpha"]),
                    "m": e["m"],
                    "value": e["value"],
                }
                for e in self.entries
            ],
            "decay_rates": {_alpha_key(a): v for a, v in self.decay_rates.items()},
            "radii": list(self.radii),
            "fits": [f.to_dict() for f in self.fits],
            "edge_ratio": self.edge_ratio,
            "support_radius": self.support_radius,
            "notes": list(self.notes),
        }


def dyadic_shells(grid) -> tuple:
    """Shell radii and node masks ``2^(k-1) <= |x| <= 2^k`` inside the box.

    Returns ``(radii, masks)`` where ``radii[k] = 2^k`` ranges over every
    dyadic level that fits inside the half-width. Classification needs at
    least ``MIN_SHELLS`` shells, which requires a half-width of at least 8.
    """
    levels = int(np.floor(np.log2(grid.half_width) + 1.0e-12))
    shells = levels + 1
    if shells < MIN_SHELLS:
        raise InsufficientAnnuliError(
            f"only {shells} dyadic shells fit in half_width {grid.half_width}; "
            f"need {MIN_SHELLS} (half_width of at least 8)"
        )
    nodes = np.asarray(grid.nodes())
    r = np.sqrt(np.sum(nodes ** 2, axis=1)).reshape(grid.shape)
    radii = [float(2.0 ** k) for k in range(shells)]
    masks = []
    for k in range(shells):
        lo, hi = 2.0 ** (k - 1), 2.0 ** k
        masks.append((r >= lo) & (r <= hi))
    return radii, masks


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


def _support_radius(field, radii) -> float | None:
    """Smallest dyadic radius outside of which every sample is exactly zero."""
    grid = field.grid
    nodes = np.asarray(grid.nodes())
    r = np.sqrt(np.sum(nodes ** 2, axis=1)).reshape(grid.shape)
    abs_values = _alpha_values(field, (0,) * grid.dim)
    for radius in [radii[-1] / 4.0, radii[-1] / 2.0] + list(radii):
        outside = r > radius
        if np.any(outside) and float(np.max(abs_values[outside])) == 0.0:
            return float(radius)
    return None


def classify_decay(field, max_order: int = DEFAULT_MAX_ORDER,
                   max_weight: int = DEFAULT_MAX_WEIGHT) -> SeminormReport:
    """Estimate the narrowest decay class a scalar or displacement field fits.

    ``max_order`` caps the derivative orders examined; ``max_weight`` caps the
    polynomial weights measured, and the Schwartz test asks every fitted
    exponent to clear ``max_weight + 1``.
    """
    grid = field.grid
    radii, masks = dyadic_shells(grid)
    notes = []

    alphas = multi_indices_up_to(grid.dim, max_order)
    fits = []
    decay_rates = {}
    for alpha in alphas:
        dv = _alpha_values(field, alpha)
        sups = []
        for mask in masks:
            sups.append(float(np.max(dv[mask])) if np.any(mask) else 0.0)
        exponent = _fit_exponent(radii, sups)
        fits.append(ShellFit(alpha, radii, sups, exponent))
        decay_rates[alpha] = exponent

    entries = []
    for alpha in alphas:
        entries.append({
            "kind": "sup", "alpha": alpha, "m": 0,
            "value": sup_seminorm(field, alpha),
        })
    for alpha in alphas:
        for m in range(1, max_weight + 1):
            entries.append({
                "kind": "weighted", "alpha": alpha, "m": m,
                "value": weighted_seminorm(field, alpha, m),
            })
    sobolev_values = []
    for alpha in alphas:
        value = sobolev_seminorm(field, alpha)
        sobolev_values.append(value)
        entries.append({"kind": "sobolev", "alpha": alpha, "m": 0, "value": value})

    nodes = np.asarray(grid.nodes())
    r = np.sqrt(np.sum(nodes ** 2, axis=1)).reshape(grid.shape)
    outer_mask = r >= radii[-1] / 2.0
    abs_values = _alpha_values(field, (0,) * grid.dim)
    global_sup = float(np.max(abs_values))
    edge_sup = float(np.max(abs_values[outer_mask])) if np.any(outer_mask) else 0.0
    edge_ratio = edge_sup / global_sup if global_sup > 0.0 else 0.0

    support_radius = _support_radius(field, radii)
    exponents = list(decay_rates.values())

    if global_sup == 0.0 or support_radius is not None:
        inferred = DecayClass.COMPACT_SUPPORT
        if global_sup == 0.0:
            support_radius = 0.0
        notes.append(f"values vanish identically for |x| > {support_radius}")
    elif all(e >= max_weight + 1 for e in exponents):
        inferred = DecayClass.SCHWARTZ
        notes.append(
            f"every fitted exponent through order {max_order} is at least {max_weight + 1}"
        )
    elif (
        all(v <= SOBOLEV_NORM_CAP for v in sobolev_values)
        and all(e >= SOBOLEV_MIN_EXPONENT for e in exponents)
        and edge_ratio <= SOBOLEV_EDGE_RATIO
    ):
        inferred = DecayClass.SOBOLEV_INFINITY
        notes.append(
            f"Sobolev norms through order {max_order} stay under {SOBOLEV_NORM_CAP} "
            f"and the field has died down near the box edge"
        )
    else:
        inferred = DecayClass.BOUNDED_ALL
        slow = [f for f in fits if f.exponent < SOBOLEV_MIN_EXPONENT]
        if slow:
            notes.append(
                f"derivatives {[list(f.alpha) for f in slow]} show no usable decay"
            )
        if edge_ratio > SOBOLEV_EDGE_RATIO:
            notes.append(
                f"field still carries {edge_ratio:.3g} of its sup on the outermost shell"
            )

    return SeminormReport(
        inferred_class=inferred,
        max_order=max_order,
        max_weight=max_weight,
        entries=entries,
        decay_rates=decay_rates,
        radii=radii,
        fits=fits,
        edge_ratio=edge_ratio,
        support_radius=support_radius,
        notes=notes,
    )


def _alpha_values(field, alpha) -> np.ndarray:
    """Node-wise max over components of ``|d^alpha f_i|``, shaped like the grid."""
    values = field.partial_derivative(alpha).values
    return np.max(np.abs(values.reshape((-1,) + field.grid.shape)), axis=0)

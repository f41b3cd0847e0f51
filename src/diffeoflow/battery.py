"""Seeded, reproducible families of diffeomorphisms and flow fields.

Every builder takes an explicit seed and draws its parameters from a
``numpy.random.Generator``, so the same seed always yields the same battery.
Parameter ranges are sized so that each member passes its own validity
checks with margin: Jacobian determinants stay above 0.8, displacement
tails are negligible at the box edge, and the decay classifier recovers
the intended class for every draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .decay import DecayClass, measured_class
from .errors import FieldError
from .fields import DisplacementField, Grid
from .flows import TimeDependentVectorField
from .group import Diffeo

DEFAULT_SEED = 1789

# drawn gaussians keep amplitude/width^4 small enough that the cubic
# interpolation error in an inversion round trip stays below ~7e-8 on the
# reference grid (L=8, N=513), and widths small enough that the tail decay
# measured on dyadic shells clears the Schwartz threshold
SCHWARTZ_AMPLITUDE = (0.05, 0.075)
SCHWARTZ_WIDTH = (0.86, 0.94)
SCHWARTZ_CENTER = (-0.9, 0.9)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def gaussian_descriptor(amplitude: float, width: float, center: float,
                        var: str = "x") -> str:
    """Closed-form text for amplitude * exp(-((var-center)/width)^2)."""
    return (f"({_fmt(amplitude)})*exp(-((({var})-({_fmt(center)}))"
            f"/({_fmt(width)}))^2)")


def lorentzian_descriptor(amplitude: float, width: float, center: float,
                          power: int = 1, var: str = "x",
                          damping: float | None = None) -> str:
    """Closed-form text for amplitude / (1+((var-center)/width)^2)^power.

    With ``damping`` the profile is multiplied by a wide gaussian
    exp(-((var-center)/damping)^2): the mid-range still decays at the slow
    polynomial rate, but the tail dies out before the box edge, which the
    truncated-domain doctrine demands of every decaying test field.
    """
    base = (f"(1+((({var})-({_fmt(center)}))/({_fmt(width)}))^2)")
    text = f"({_fmt(amplitude)})/{base}^{int(power)}"
    if damping is not None:
        text += (f"*exp(-((({var})-({_fmt(center)}))/({_fmt(damping)}))^2)")
    return text


def tanh_descriptor(amplitude: float, width: float, center: float,
                    var: str = "x") -> str:
    """Closed-form text for amplitude * tanh((var-center)/width)."""
    return (f"({_fmt(amplitude)})*tanh((({var})-({_fmt(center)}))"
            f"/({_fmt(width)}))")


def _validated(displacement: DisplacementField, decay_class: DecayClass,
               label: str) -> Diffeo:
    # BoundedAll contains every class, so there is nothing to classify
    if decay_class is not DecayClass.BOUNDED_ALL:
        measured = measured_class(displacement)
        if not decay_class.contains(measured):
            raise FieldError(
                f"battery member {label} measured {measured.value}, "
                f"outside the intended class {decay_class.value}"
            )
    return Diffeo(displacement, decay_class)


def _seeded_members(grid: Grid, count: int, seed: int, ranges: tuple, describe,
                    decay_class: DecayClass) -> list:
    """``count`` validated members ``describe(amplitude, width, center)``.

    Width, center, sign and amplitude are drawn in that order, from the
    (width, center, amplitude) ``ranges``, by one generator seeded with ``seed``.
    """
    name = decay_class.value
    if grid.dim != 1:
        raise FieldError(f"the {name} battery is one-dimensional")
    widths, centers, amplitudes = ranges
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        width = rng.uniform(*widths)
        center = rng.uniform(*centers)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        amplitude = sign * rng.uniform(*amplitudes)
        disp = DisplacementField.from_descriptor(grid, describe(amplitude, width, center))
        out.append(_validated(disp, decay_class, f"{name}[{k}]"))
    return out


def schwartz_diffeos(grid: Grid, count: int = 20,
                     seed: int = DEFAULT_SEED) -> list:
    """Seeded gaussian-displacement diffeomorphisms, classified Schwartz.

    1-D only: the group-axiom battery lives on the line. Every member is
    re-classified on construction and rejected if the measured class is not
    Schwartz or narrower.
    """
    return _seeded_members(grid, count, seed,
                           (SCHWARTZ_WIDTH, SCHWARTZ_CENTER, SCHWARTZ_AMPLITUDE),
                           gaussian_descriptor, DecayClass.SCHWARTZ)


def bounded_outer_diffeos(grid: Grid, count: int = 5,
                          seed: int = DEFAULT_SEED + 1) -> list:
    """Seeded tanh-displacement diffeomorphisms of the widest class.

    The displacement tends to +-amplitude at infinity, so all derivatives
    are bounded but nothing decays: the class is BoundedAll and samples
    outside the box clamp to the boundary value.
    """
    return _seeded_members(grid, count, seed, ((0.9, 1.4), (-0.8, 0.8), (0.12, 0.22)),
                           tanh_descriptor, DecayClass.BOUNDED_ALL)


def sobolev_inner_diffeos(grid: Grid, count: int = 10,
                          seed: int = DEFAULT_SEED + 2) -> list:
    """Seeded Lorentzian-displacement diffeomorphisms measured SobolevInfinity.

    A first-power Lorentzian decays like x^-2 over the inner shells: square
    integrable along with all derivatives, but too slow for the Schwartz
    shell-fit threshold, so the classifier lands exactly on SobolevInfinity.
    The wide gaussian damping makes the tail numerically negligible at the
    box edge without touching the mid-range rate.
    """
    return _seeded_members(grid, count, seed, ((0.8, 1.2), (-0.8, 0.8), (0.05, 0.1)),
                           partial(lorentzian_descriptor, power=1, damping=2.6),
                           DecayClass.SOBOLEV_INFINITY)


@dataclass(frozen=True)
class FlowCase:
    """One shipped flow scenario: field, horizon, step and grid."""

    name: str
    field: TimeDependentVectorField
    t_final: float
    dt: float
    grid: Grid


def flow_battery(seed: int = DEFAULT_SEED + 3) -> list:
    """The shipped flow scenarios, one per decay class plus a 2-D case.

    Every case obeys the sizing rule sup|d_x X| * t_final <= 0.5 so node
    trajectories stay inside the enlarged box and all Jacobians keep
    positive determinant.
    """
    rng = np.random.default_rng(seed)
    line = Grid(1, 8.0, 257)
    plane = Grid(2, 8.0, 129)
    cases = []

    a = rng.uniform(0.18, 0.25)
    c = rng.uniform(-0.4, 0.4)
    cases.append(FlowCase(
        "schwartz-gaussian",
        TimeDependentVectorField.from_descriptor(
            1, f"{gaussian_descriptor(a, 0.9, c)}*(0.6+0.4*cos(t))",
            DecayClass.SCHWARTZ),
        1.0, 1.0 / 32.0, line))

    # a wide bump keeps the fifth derivative small enough that the stencil
    # truncation on the measured Jacobian stays inside the Gronwall margin
    cases.append(FlowCase(
        "compact-bump",
        TimeDependentVectorField.from_descriptor(
            1, "0.2*bump(x/3)", DecayClass.COMPACT_SUPPORT),
        1.0, 1.0 / 32.0, line))

    cases.append(FlowCase(
        "sobolev-lorentzian",
        TimeDependentVectorField.from_descriptor(
            1, lorentzian_descriptor(0.12, 1.1, 0.3, power=2, damping=2.4),
            DecayClass.SOBOLEV_INFINITY),
        1.0, 1.0 / 32.0, line))

    # the traveling phase keeps the point of largest derivative moving, so
    # the sup-based Gronwall envelope has genuine margin over any single
    # trajectory instead of being an exact equality decided by rounding
    cases.append(FlowCase(
        "bounded-cosine",
        TimeDependentVectorField.from_descriptor(
            1, "0.12*cos(0.7*x-0.6*t)", DecayClass.BOUNDED_ALL),
        1.0, 1.0 / 32.0, line))

    cases.append(FlowCase(
        "schwartz-rotation-2d",
        TimeDependentVectorField.from_descriptor(
            2, "-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))",
            DecayClass.SCHWARTZ),
        1.0, 1.0 / 16.0, plane))

    return cases


def schwartz_flow_case() -> FlowCase:
    """The 1-D Schwartz scenario used by the class-preservation checks."""
    return flow_battery()[0]


def sobolev_flow_case() -> FlowCase:
    """A genuinely non-Schwartz-input H-infinity scenario.

    The second-power Lorentzian decays like x^-4: every Sobolev norm is
    finite and the tail mass beyond the box is ~1e-7 of the norm, so the
    norms are also box-stable.
    """
    return flow_battery()[2]


"""Group operations on maps ``x + g(x)`` with an invertibility margin.

A displacement ``g`` defines a member of the group when ``det(I + dg)`` keeps
a positive margin ``epsilon`` on every node; each member also carries the
decay class of its displacement. Composition never differentiates anything:
it only samples,

    (Id + f) o (Id + g) = Id + [ g + f o (Id + g) ],

so the class bookkeeping follows the wider of the two operands. Inversion
solves ``y + g(y) = x`` node by node against the interpolated displacement,
which makes the inverse exact for the engine's own notion of ``g`` rather
than for the unknowable continuum field: a fixed-point stage, then a damped
Newton stage only for a residual it leaves above the target. A node drops
out of either stage once its iterate stops moving exactly, so later sweeps
gather only the nodes that still move, bit-identical to sweeping every node.
"""

from __future__ import annotations

import numpy as np

from .decay import (DecayClass, class_from_name, classify_decay,
                    extrapolation_for, widest)
from .errors import (
    FieldError,
    InsufficientAnnuliError,
    InversionError,
    NonDiffeoError,
    UnderResolvedError,
)
from .fields import DisplacementField, Grid, ScalarField, det_plus_identity, row_max
from .jets import Jet, jet_from_displacement

DEFAULT_DET_THRESHOLD = 1.0e-6
DOMAIN_OVERHANG_FRACTION = 0.1
_FIXED_POINT_CONTRACTION = 0.9
_FIXED_POINT_MAX_ITER = 200
_FIXED_POINT_SEED_ITER = 8
_NEWTON_MAX_ITER = 60


def _det_margin(displacement: DisplacementField) -> tuple:
    """Node-wise minimum of ``det(I + dg)`` and the node where it is reached.

    The determinants come from the closed-form cofactor kernel on the stencil
    Jacobian: a few whole-grid array operations, cheap enough that every
    member and every :func:`membership_check` measures its margin.
    """
    dets = det_plus_identity(displacement.jacobian_grid()).reshape(-1)
    worst = int(np.argmin(dets))
    location = [float(c) for c in np.asarray(displacement.grid.nodes())[worst]]
    return float(dets[worst]), location


def _margin_note(epsilon: float, location: list) -> str:
    return (f"det(I + dg) reaches {epsilon:.6g} at {location}, "
            f"below the margin {DEFAULT_DET_THRESHOLD:.6g}")


def membership_check(displacement, decay_class: DecayClass | None = None) -> tuple:
    """Verify that ``x + g(x)`` is a group member of the claimed class.

    Returns ``(ok, epsilon, report)`` where ``epsilon`` is the node-wise
    minimum of ``det(I + dg)``. ``ok`` needs that minimum to clear
    ``DEFAULT_DET_THRESHOLD`` and, when a class is claimed, the measured
    class to sit inside it. Verification failures land in the report, never
    in an exception, so a failed check can always be inspected.
    """
    if isinstance(displacement, Diffeo):
        if decay_class is None:
            decay_class = displacement.decay_class
        displacement = displacement.displacement
    epsilon, location = _det_margin(displacement)
    report = {
        "epsilon": epsilon,
        "epsilon_location": location,
        "det_threshold": DEFAULT_DET_THRESHOLD,
        "det_ok": bool(epsilon >= DEFAULT_DET_THRESHOLD),
        "claimed_class": decay_class.value if decay_class is not None else None,
        "measured_class": None,
        "class_ok": None,
        "notes": [],
    }
    ok = report["det_ok"]
    if not ok:
        report["notes"].append(_margin_note(epsilon, location))
    if decay_class is not None:
        try:
            classification = classify_decay(displacement)
        except InsufficientAnnuliError as exc:
            report["notes"].append(f"decay class not verifiable: {exc}")
        else:
            measured = classification.inferred_class
            report["measured_class"] = measured.value
            report["class_ok"] = bool(decay_class.contains(measured))
            report["classification"] = classification.to_dict()
            if not report["class_ok"]:
                ok = False
                report["notes"].append(
                    f"measured class {measured.value} is not contained in "
                    f"the claimed class {decay_class.value}"
                )
    return bool(ok), epsilon, report


class Diffeo:
    """A grid-backed diffeomorphism ``x + g(x)`` with decay-class metadata.

    The constructor trusts a supplied decay class (verification is the job of
    :func:`membership_check`), gives the displacement that class's off-box
    continuation, and refuses a Jacobian margin below ``DEFAULT_DET_THRESHOLD``.
    """

    def __init__(self, displacement: DisplacementField,
                 decay_class: DecayClass | None = None):
        if decay_class is None:
            decay_class = classify_decay(displacement).inferred_class
        else:
            decay_class = class_from_name(decay_class)
        wanted = extrapolation_for(decay_class)
        if displacement.extrapolation != wanted:
            displacement = displacement.with_extrapolation(wanted)
        self.displacement = displacement
        self.decay_class = decay_class
        self.epsilon, self.epsilon_location = _det_margin(displacement)
        if not self.epsilon >= DEFAULT_DET_THRESHOLD:
            raise NonDiffeoError(_margin_note(self.epsilon, self.epsilon_location))

    @property
    def grid(self) -> Grid:
        return self.displacement.grid

    @classmethod
    def identity(cls, grid: Grid,
                 decay_class: DecayClass = DecayClass.COMPACT_SUPPORT) -> "Diffeo":
        return cls(DisplacementField.zero(grid), decay_class)

    @classmethod
    def from_descriptor(cls, grid: Grid, descriptor: str,
                        decay_class: DecayClass | None = None) -> "Diffeo":
        return cls(DisplacementField.from_descriptor(grid, descriptor), decay_class)

    def apply(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return pts + self.displacement.sample(pts)

    def jacobian_at(self, points) -> np.ndarray:
        jac = self.displacement.jacobian_at(points)
        return jac + np.eye(self.grid.dim)

    def jet_at(self, base_point, order: int) -> Jet:
        return jet_from_displacement(self.displacement, base_point, order)


def _require_same_grid(a: Diffeo, b: Diffeo):
    if a.grid != b.grid:
        raise FieldError("group operations need both members on the same grid")


def compose(outer: Diffeo, inner: Diffeo) -> Diffeo:
    """The diffeomorphism ``outer o inner`` on the shared grid.

    If the inner map pushes nodes further than a tenth of the half-width
    outside the box, the outer displacement would be read deep in its
    extrapolation zone and the result is refused as under-resolved.
    """
    _require_same_grid(outer, inner)
    grid = inner.grid
    nodes = np.asarray(grid.nodes())
    g_values = inner.displacement.node_values()
    images = nodes + g_values
    overhang = float(np.max(np.abs(images))) - grid.half_width
    if overhang > DOMAIN_OVERHANG_FRACTION * grid.half_width:
        worst = int(np.argmax(row_max(np.abs(images))))
        raise UnderResolvedError(
            f"inner map sends node {[float(c) for c in nodes[worst]]} a distance "
            f"{overhang:.3g} outside the box (allowed "
            f"{DOMAIN_OVERHANG_FRACTION * grid.half_width:.3g}); "
            f"enlarge the box before composing"
        )
    f_at_images = outer.displacement.sample(images)
    decay_class = widest(outer.decay_class, inner.decay_class)
    return Diffeo(DisplacementField.from_nodes(grid, g_values + f_at_images), decay_class)


def _drop_settled(y: np.ndarray, active: np.ndarray, change: np.ndarray,
                  y_act: np.ndarray, *rest) -> tuple:
    """Retire the active nodes whose ``change`` is exactly 0.0.

    Both solvers iterate each node on its own, and interpolation reads a
    node's own iterate only, so a node whose step (fixed point) or residual
    (Newton) is exactly 0.0 would recompute the same bits on every later
    sweep. Its iterate is written to ``y``; the returned ``(active, y_act,
    *rest)`` keep only the other rows. A NaN ``change`` keeps its node.
    Integer ``take`` compacts; a boolean mask is several times slower.
    """
    keep = np.flatnonzero(change)
    if len(keep) == len(change):
        return (active, y_act) + rest
    done = np.flatnonzero(change == 0.0)
    y[active.take(done)] = y_act.take(done, axis=0)
    return tuple(a.take(keep, axis=0) for a in (active, y_act) + rest)


def _invert_fixed_point(displacement: DisplacementField, nodes: np.ndarray,
                        tol: float, max_iter: int) -> np.ndarray:
    y = nodes - displacement.node_values()
    active, target, y_act = np.arange(len(y)), nodes, y
    for _ in range(max_iter):
        y_next = target - displacement.sample(y_act)
        moved = row_max(np.abs(y_next - y_act))
        y_act = y_next
        if float(np.max(moved, initial=0.0)) <= 0.25 * tol:
            break
        active, y_act, target = _drop_settled(y, active, moved, y_act, target)
    y[active] = y_act
    return y


def _invert_newton(displacement: DisplacementField, nodes: np.ndarray,
                   seed: np.ndarray, tol: float) -> np.ndarray:
    dim = displacement.grid.dim
    y = seed.copy()
    active, target, y_act = np.arange(len(y)), nodes, y
    eye = np.eye(dim)
    for _ in range(_NEWTON_MAX_ITER):
        residual = y_act + displacement.sample(y_act) - target
        res_norm = row_max(np.abs(residual))
        if float(np.max(res_norm, initial=0.0)) <= tol:
            break
        active, y_act, target, residual, res_norm = _drop_settled(
            y, active, res_norm, y_act, target, residual, res_norm)
        jac = displacement.jacobian_at(y_act) + eye
        try:
            step = np.linalg.solve(jac, residual[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise InversionError(f"Newton step hit a singular Jacobian: {exc}")
        scale = np.ones((y_act.shape[0], 1))
        for _ in range(6):
            trial = y_act - scale * step
            trial_norm = row_max(np.abs(trial + displacement.sample(trial) - target))
            worse = trial_norm > res_norm
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        y_act = y_act - scale * step
    y[active] = y_act
    return y


def invert(diffeo: Diffeo, tol: float | None = None) -> Diffeo:
    """Inverse member, solved node-wise against the interpolated displacement.

    Fixed-point iteration seeded at ``-g`` runs 200 sweeps when the Jacobian
    norm stays under 0.9, else 8; a damped Newton solve follows only if its
    residual is above the target ``min(tol, 1e-13 * (1 + half_width))``. The
    default promise ``tol`` is ``1e-8 * (1 + half_width)``; a residual above
    it raises with the worst node named. Solved nodes drop out: a fixed-point
    node whose step is exactly zero, or a Newton node whose residual is
    exactly zero, is no longer sampled, differentiated or solved, so a
    singular Jacobian there is never met.
    """
    grid = diffeo.grid
    displacement = diffeo.displacement
    nodes = np.asarray(grid.nodes())
    if tol is None:
        tol = 1.0e-8 * (1.0 + grid.half_width)
    target = min(tol, 1.0e-13 * (1.0 + grid.half_width))
    jac = displacement.jacobian_grid().reshape(grid.dim, grid.dim, -1)
    frob = np.sqrt(np.sum(jac ** 2, axis=(0, 1)))
    sweeps = (_FIXED_POINT_MAX_ITER if float(np.max(frob)) < _FIXED_POINT_CONTRACTION
              else _FIXED_POINT_SEED_ITER)
    y = _invert_fixed_point(displacement, nodes, target, sweeps)
    residuals = row_max(np.abs(y + displacement.sample(y) - nodes))
    if float(np.max(residuals)) > target:
        y = _invert_newton(displacement, nodes, y, target)
        residuals = row_max(np.abs(y + displacement.sample(y) - nodes))
    residual = float(np.max(residuals))
    if residual > tol:
        worst = nodes[int(np.argmax(residuals))]
        raise InversionError(
            f"inverse solve stalled at residual {residual:.3e} "
            f"(tolerance {tol:.3e}) near x = {[float(c) for c in worst]}"
        )
    disp = DisplacementField.from_nodes(grid, y - nodes, displacement.extrapolation)
    return Diffeo(disp, diffeo.decay_class)


def conjugate(outer: Diffeo, inner: Diffeo, diagnostics: bool = False):
    """``outer^-1 o inner o outer``; the decay class of ``inner`` survives.

    With ``diagnostics=True`` also returns a dict with the class measured on
    the result and a node-wise check of the bracket decomposition

        psi(y) - y = s(y) + [ u(a(y) + s(y)) - u(a(y)) ],

    where ``a = outer``, ``u`` is the displacement of ``outer^-1`` and
    ``s(y)`` is the inner displacement read at ``a(y)``. The bracket is
    compared against its integral form ``int_0^1 du(a + t s) s dt``, which is
    the identity that transports decay from ``inner`` to the conjugation.
    """
    _require_same_grid(outer, inner)
    outer_inverse = invert(outer)
    result = compose(outer_inverse, compose(inner, outer))
    expected = inner.decay_class
    result = Diffeo(result.displacement, expected)
    if not diagnostics:
        return result
    classification = classify_decay(result.displacement)
    measured = classification.inferred_class

    grid = outer.grid
    nodes = np.asarray(grid.nodes())
    a = outer.apply(nodes)
    s = inner.displacement.sample(a)
    u = outer_inverse.displacement
    bracket = u.sample(a + s) - u.sample(a)
    quad_nodes = np.linspace(0.0, 1.0, 9)
    quad_w = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0
    integral = np.zeros_like(bracket)
    for t, w in zip(quad_nodes, quad_w):
        jac = u.jacobian_at(a + t * s)
        integral += w * np.einsum("nij,nj->ni", jac, s)
    conj_disp = result.displacement.node_values()
    info = {
        "expected_class": expected.value,
        "measured_class": measured.value,
        "agrees": bool(expected.contains(measured)),
        "bracket_gap": float(np.max(np.abs(bracket - integral))),
        "decomposition_residual": float(np.max(np.abs(conj_disp - (s + bracket)))),
        "report": classification.to_dict(),
    }
    return result, info


def pullback(diffeo: Diffeo, field: ScalarField) -> ScalarField:
    """Pullback of a scalar observable: ``u o (Id + g)`` on the grid."""
    grid = diffeo.grid
    if not isinstance(field, ScalarField):
        raise FieldError(
            f"pullback transports scalar observables, got {type(field).__name__}; "
            f"vector fields transform under adjoint_action"
        )
    if field.grid != grid:
        raise FieldError("pullback needs the field on the diffeomorphism's grid")
    nodes = np.asarray(grid.nodes())
    images = diffeo.apply(nodes)
    values = field.sample(images).reshape(grid.shape)
    return ScalarField(grid, values, field.extrapolation)


def adjoint_action(diffeo: Diffeo, vector_field: DisplacementField) -> DisplacementField:
    """Push a vector field through the map: ``(d phi)(phi^-1(y)) X(phi^-1(y))``."""
    grid = diffeo.grid
    if not isinstance(vector_field, DisplacementField):
        raise FieldError(f"adjoint action needs a vector field, got {type(vector_field).__name__}")
    if vector_field.grid != grid:
        raise FieldError("adjoint action needs the field on the diffeomorphism's grid")
    inverse = invert(diffeo)
    nodes = np.asarray(grid.nodes())
    z = inverse.apply(nodes)
    jac = diffeo.jacobian_at(z)
    x_at = vector_field.sample(z)
    pushed = np.einsum("nij,nj->ni", jac, x_at)
    return DisplacementField.from_nodes(grid, pushed, vector_field.extrapolation)

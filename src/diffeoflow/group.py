"""Group operations on maps ``x + g(x)`` with an invertibility margin.

A displacement ``g`` defines a member of the group when ``det(I + dg)`` keeps
a positive margin ``epsilon`` on every node; each member also carries the
decay class of its displacement. Composition never differentiates anything:
it only samples,

    (Id + f) o (Id + g) = Id + [ g + f o (Id + g) ],

so the class bookkeeping follows the wider of the two operands. Inversion
solves ``y + g(y) = x`` node by node against the interpolated displacement,
which makes the inverse exact for the engine's own notion of ``g`` rather
than for the unknowable continuum field.
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
from .fields import DisplacementField, Grid, ScalarField
from .jets import Jet, jet_from_displacement

DEFAULT_DET_THRESHOLD = 1.0e-6
COMPOSE_OVERHANG_FRACTION = 0.1
_FIXED_POINT_CONTRACTION = 0.9
_FIXED_POINT_MAX_ITER = 200
_FIXED_POINT_SEED_ITER = 8
_NEWTON_MAX_ITER = 60


def _det_margin(displacement: DisplacementField) -> tuple:
    """Node-wise minimum of ``det(I + dg)`` and the node where it is reached."""
    dets = np.linalg.det(displacement.node_jacobians() + np.eye(displacement.grid.dim))
    worst = int(np.argmin(dets))
    location = [float(c) for c in np.asarray(displacement.grid.nodes())[worst]]
    return float(dets[worst]), location


def membership_check(displacement, decay_class: DecayClass | None = None,
                     det_threshold: float = DEFAULT_DET_THRESHOLD,
                     max_order: int = 2, max_weight: int = 2) -> tuple:
    """Verify that ``x + g(x)`` is a group member of the claimed class.

    Returns ``(ok, epsilon, report)`` where ``epsilon`` is the node-wise
    minimum of ``det(I + dg)``. ``ok`` needs that minimum to clear
    ``det_threshold`` and, when a class is claimed, the measured class to sit
    inside it. Verification failures land in the report, never in an
    exception, so a failed check can always be inspected.
    """
    if isinstance(displacement, Diffeo):
        if decay_class is None:
            decay_class = displacement.decay_class
        displacement = displacement.displacement
    epsilon, location = _det_margin(displacement)
    report = {
        "epsilon": epsilon,
        "epsilon_location": location,
        "det_threshold": float(det_threshold),
        "det_ok": bool(epsilon >= det_threshold),
        "claimed_class": decay_class.value if decay_class is not None else None,
        "measured_class": None,
        "class_ok": None,
        "notes": [],
    }
    ok = report["det_ok"]
    if not ok:
        report["notes"].append(
            f"det(I + dg) reaches {epsilon:.6g} at {location}, "
            f"below the margin {det_threshold:.6g}"
        )
    if decay_class is not None:
        try:
            classification = classify_decay(displacement, max_order, max_weight)
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
    :func:`membership_check`) but always measures the Jacobian margin.
    """

    def __init__(self, displacement: DisplacementField,
                 decay_class: DecayClass | None = None,
                 det_threshold: float = DEFAULT_DET_THRESHOLD,
                 check: bool = True):
        self.report = None
        if decay_class is None:
            self.report = classify_decay(displacement)
            decay_class = self.report.inferred_class
        else:
            decay_class = class_from_name(decay_class)
        wanted = extrapolation_for(decay_class)
        if displacement.extrapolation != wanted:
            displacement = DisplacementField(displacement.grid, displacement.values, wanted)
        self.displacement = displacement
        self.decay_class = decay_class
        self.det_threshold = float(det_threshold)
        self.epsilon, self.epsilon_location = _det_margin(displacement)
        if check and not self.epsilon >= det_threshold:
            raise NonDiffeoError(
                f"det(I + dg) reaches {self.epsilon:.6g} at "
                f"{self.epsilon_location}, below the margin {det_threshold:.6g}"
            )

    @property
    def grid(self) -> Grid:
        return self.displacement.grid

    @classmethod
    def identity(cls, grid: Grid,
                 decay_class: DecayClass = DecayClass.COMPACT_SUPPORT) -> "Diffeo":
        return cls(DisplacementField.zero(grid), decay_class)

    @classmethod
    def from_descriptor(cls, grid: Grid, descriptor: str,
                        decay_class: DecayClass | None = None,
                        det_threshold: float = DEFAULT_DET_THRESHOLD) -> "Diffeo":
        extrap = extrapolation_for(decay_class) if decay_class is not None else "zero"
        disp = DisplacementField.from_descriptor(grid, descriptor, extrap)
        return cls(disp, decay_class, det_threshold)

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


def compose(outer: Diffeo, inner: Diffeo,
            det_threshold: float | None = None) -> Diffeo:
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
    if overhang > COMPOSE_OVERHANG_FRACTION * grid.half_width:
        worst = int(np.argmax(np.max(np.abs(images), axis=1)))
        raise UnderResolvedError(
            f"inner map sends node {[float(c) for c in nodes[worst]]} a distance "
            f"{overhang:.3g} outside the box (allowed "
            f"{COMPOSE_OVERHANG_FRACTION * grid.half_width:.3g}); "
            f"enlarge the box before composing"
        )
    f_at_images = outer.displacement.sample(images)
    decay_class = widest(outer.decay_class, inner.decay_class)
    disp = DisplacementField.from_nodes(grid, g_values + f_at_images,
                                        extrapolation_for(decay_class))
    threshold = outer.det_threshold if det_threshold is None else det_threshold
    return Diffeo(disp, decay_class, threshold)


def _invert_fixed_point(displacement: DisplacementField, nodes: np.ndarray,
                        tol: float, max_iter: int) -> np.ndarray:
    y = nodes - displacement.node_values()
    for _ in range(max_iter):
        y_next = nodes - displacement.sample(y)
        step = float(np.max(np.abs(y_next - y)))
        y = y_next
        if step <= 0.25 * tol:
            break
    return y


def _invert_newton(displacement: DisplacementField, nodes: np.ndarray,
                   seed: np.ndarray, tol: float) -> np.ndarray:
    dim = displacement.grid.dim
    y = seed.copy()
    eye = np.eye(dim)
    for _ in range(_NEWTON_MAX_ITER):
        residual = y + displacement.sample(y) - nodes
        res_norm = np.max(np.abs(residual), axis=1)
        if float(np.max(res_norm)) <= tol:
            return y
        jac = displacement.jacobian_at(y) + eye
        try:
            step = np.linalg.solve(jac, residual[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise InversionError(f"Newton step hit a singular Jacobian: {exc}")
        scale = np.ones((y.shape[0], 1))
        for _ in range(6):
            trial = y - scale * step
            trial_norm = np.max(np.abs(trial + displacement.sample(trial) - nodes), axis=1)
            worse = trial_norm > res_norm
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        y = y - scale * step
    return y


def invert(diffeo: Diffeo, tol: float | None = None) -> Diffeo:
    """Inverse member, solved node-wise against the interpolated displacement.

    Small displacements (Jacobian norm under 0.9) converge by plain
    fixed-point iteration seeded at ``-g``; larger ones hand the fixed-point
    iterate to a damped Newton solve. The default residual promise is
    ``1e-8 * (1 + half_width)``, though the solve pushes well past it; a
    residual above the promise raises with the worst node named.
    """
    grid = diffeo.grid
    displacement = diffeo.displacement
    nodes = np.asarray(grid.nodes())
    if tol is None:
        tol = 1.0e-8 * (1.0 + grid.half_width)
    target = min(tol, 1.0e-13 * (1.0 + grid.half_width))
    jac = displacement.jacobian_grid().reshape(grid.dim, grid.dim, -1)
    frob = np.sqrt(np.sum(jac ** 2, axis=(0, 1)))
    contraction = float(np.max(frob))
    if contraction < _FIXED_POINT_CONTRACTION:
        y = _invert_fixed_point(displacement, nodes, target, _FIXED_POINT_MAX_ITER)
    else:
        seed = _invert_fixed_point(displacement, nodes, target, _FIXED_POINT_SEED_ITER)
        y = _invert_newton(displacement, nodes, seed, target)
    residuals = np.max(np.abs(y + displacement.sample(y) - nodes), axis=1)
    residual = float(np.max(residuals))
    if residual > target:
        y = _invert_newton(displacement, nodes, y, target)
        residuals = np.max(np.abs(y + displacement.sample(y) - nodes), axis=1)
        residual = float(np.max(residuals))
    if residual > tol:
        worst = nodes[int(np.argmax(residuals))]
        raise InversionError(
            f"inverse solve stalled at residual {residual:.3e} "
            f"(tolerance {tol:.3e}) near x = {[float(c) for c in worst]}"
        )
    disp = DisplacementField.from_nodes(grid, y - nodes, displacement.extrapolation)
    return Diffeo(disp, diffeo.decay_class, diffeo.det_threshold)


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
    result = Diffeo(result.displacement, expected, result.det_threshold)
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

"""Flows of time-dependent vector fields, with the bounds that certify them.

``evolve`` integrates, node by node with classical RK4,

    d/dt [x + f(t, x)] = X(t, x + f(t, x)),    f(0, x) = 0,

so ``x + f(t, x)`` follows the trajectory through ``x``. Alongside each
trajectory it integrates ``b(t, x) = int_0^t |X(s, y(s, x))| ds`` with the
same RK4 stages; since ``|y(t) - x| <= b(t, x)`` holds pathwise, comparing
the two certifies the displacement bound without a second quadrature error
budget (for a one-signed scalar field the two integrals agree bitwise).
Separate helpers check the Bellman-Gronwall envelope for the growth of
``d_x f``, gate the decay of the final snapshot's first derivatives at the
box edge (:func:`edge_decay`, the gate ``evolve`` reports as
``sobolev_holds``), track Sobolev norms along the flow with that gate
(:func:`sobolev_tracking`), and recover the driving
field from the flow via the right logarithmic derivative, which yields its
recovered fields one at a time; it solves each inverse as node arrays
(:func:`~diffeoflow.group.solve_inverse`) and reads the margin ``evolve``
already measured, so it builds no group member.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .decay import DecayClass, class_from_name, extrapolation_for, measured_class
from .descriptors import VARIABLES, bind
from .errors import FieldError, FlowBlowupError, FlowDomainError
from .fields import (DisplacementField, Grid, _require_finite, det_plus_identity,
                     multi_indices_up_to, reads_only_zeros, row_max, row_norms, seminorm_table,
                     spectral_norms)
from .group import (DEFAULT_DET_THRESHOLD, DOMAIN_OVERHANG_FRACTION, Diffeo, _require_margin,
                    solve_inverse)
# not called here: perfbench/tests checks that its tracer patches invert in
# every module that imports it, flows included
from .group import invert  # noqa: F401

BOUND_SLACK = 1.0e-8
GRONWALL_REL_SLACK = 1.0e-6
GRONWALL_ABS_SLACK = 1.0e-8
EDGE_ANNULUS_FRACTION = 0.875
EDGE_DECAY_TOL = 1.0e-6
SOBOLEV_TRACKING_ORDER = 2
# bytes of the snapshot array one evolve may keep; a 3-D 49^3 run at
# dt = 1/32 keeps about 0.09 GB
SNAPSHOT_BUDGET_BYTES = 4 * 2 ** 30


class TimeDependentVectorField:
    """A vector field ``X(t, x)`` with its spatial Jacobian and a decay class.

    ``fn(t, points)`` returns the field and ``jacobian_fn(t, points)`` its
    Jacobian ``d_x X`` at ``(m, dim)`` points; :meth:`from_descriptor`
    builds both from one closed form. The class applies to every time
    slice; the constructor records the claim and
    :func:`diffeoflow.group.membership_check` on a slice verifies it.
    """

    def __init__(self, dim: int, fn, jacobian_fn, decay_class: DecayClass | None = None):
        if dim not in (1, 2, 3):
            raise FieldError(f"dim must be 1, 2 or 3, got {dim}")
        self.dim = dim
        self._fn = fn
        self._jac_fn = jacobian_fn
        self.decay_class = None if decay_class is None else class_from_name(decay_class)

    @classmethod
    def from_descriptor(cls, dim: int, descriptor: str,
                        decay_class: DecayClass | None = None) -> "TimeDependentVectorField":
        exprs, values = bind(descriptor, dim, (dim,), time=True)
        _, jacobian = bind([expr.diff(var) for expr in exprs for var in VARIABLES[:dim]],
                           dim, (dim, dim), time=True)
        return cls(dim, values, jacobian, decay_class)

    def __call__(self, t: float, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        out = np.asarray(self._fn(float(t), pts), dtype=np.float64)
        if out.shape != pts.shape:
            raise FieldError(f"vector field returned shape {out.shape} for {pts.shape}")
        return out

    def jacobian(self, t: float, points: np.ndarray) -> np.ndarray:
        """Spatial Jacobian ``d_x X(t, .)`` at the given points, shape ``(m, dim, dim)``."""
        pts = np.asarray(points, dtype=np.float64)
        out = np.asarray(self._jac_fn(float(t), pts), dtype=np.float64)
        expected = pts.shape[:-1] + (self.dim, self.dim)
        if out.shape != expected:
            raise FieldError(f"vector field Jacobian has shape {out.shape}, expected {expected}")
        return out

    def at_time(self, grid: Grid, t: float) -> DisplacementField:
        """Snapshot of the field on grid nodes at one time."""
        return DisplacementField.from_nodes(grid, self(t, np.asarray(grid.nodes())),
                                            extrapolation_for(self.decay_class))

    def time_shifted(self, t0: float) -> "TimeDependentVectorField":
        """The field ``(t, x) -> X(t0 + t, x)``."""
        t0 = float(t0)
        return TimeDependentVectorField(
            self.dim, lambda t, pts, f=self._fn: f(t0 + t, pts),
            lambda t, pts, jac=self._jac_fn: jac(t0 + t, pts), self.decay_class)


@dataclass
class FlowResult:
    """Everything one evolution run produced.

    ``times`` has one entry per RK4 step boundary, and ``displacements``
    holds the displacement at each boundary node-major, shape
    ``(len(times), node_count, dim)``; :meth:`snapshot` builds the field of
    one boundary with the continuation of the result's class, so no field
    outlives its reader. ``diagnostics`` holds per-boundary curves: the
    displacement sup, the certified bound sup and its worst signed defect,
    the Jacobian sup and minimum determinant of ``I + d_x f``, and the
    Gronwall data ``beta`` (sup of ``|d_x X|`` along trajectories) with its
    cumulative integral ``alpha``. ``final_bound`` is each node's certified
    bound at ``t_final``.
    """

    grid: Grid
    decay_class: DecayClass
    t_final: float
    dt: float
    times: np.ndarray
    displacements: np.ndarray
    diagnostics: dict
    final_bound: np.ndarray
    notes: list = dataclass_field(default_factory=list)

    def snapshot(self, k: int) -> DisplacementField:
        """The displacement at step boundary ``k``, read with the class's continuation."""
        return DisplacementField.from_nodes(self.grid, self.displacements[k],
                                            extrapolation_for(self.decay_class))

    @property
    def final_displacement(self) -> DisplacementField:
        return self.snapshot(-1)

    def to_diffeo(self) -> Diffeo:
        return Diffeo(self.final_displacement, self.decay_class)


def _pointwise_norm(vectors: np.ndarray) -> np.ndarray:
    # dim 1 uses abs so the certified bound reproduces the trajectory
    # arithmetic exactly for one-signed fields
    if vectors.shape[1] == 1:
        return np.abs(vectors[:, 0])
    return row_norms(vectors)


def _spectral_sup(mats: np.ndarray) -> float:
    """Largest spectral norm in a node-major ``(m, dim, dim)`` batch of Jacobians.

    Closed form up to dim 2 (see :func:`diffeoflow.fields.spectral_norms`).
    """
    return float(np.max(spectral_norms(np.moveaxis(mats, 0, -1))))


def _jacobian_stats(displacement: DisplacementField) -> tuple:
    """Stencil ``(sup |d_x f|, min det(I + d_x f))`` over the grid."""
    jac = displacement.jacobian_entries()
    return float(np.max(spectral_norms(jac))), float(np.min(det_plus_identity(jac)))


def evolve(field: TimeDependentVectorField, t_final: float, dt: float,
           grid: Grid) -> FlowResult:
    """Flow the identity along ``X`` from time 0 to ``t_final``.

    ``dt`` is a target step; the actual step divides ``t_final`` exactly.
    Every step boundary's displacement is written into the one array
    ``FlowResult.displacements``; a run whose array would exceed
    ``SNAPSHOT_BUDGET_BYTES`` is refused with a ``FieldError`` before
    anything is allocated. Any ``field`` other than a
    :class:`TimeDependentVectorField` is refused with a ``FieldError`` too.
    Trajectories that leave the box by more than a tenth of the half-width
    raise a domain error (the grid cannot resolve them). ``X`` is evaluated
    with numpy's floating-point warnings off: a non-finite ``X`` or
    ``d_x X`` at a node at ``t = 0`` (a pole or an overflow of the input)
    raises a ``FieldError`` naming the first such node, and a non-finite
    value later in the flow raises a blow-up error. The result's decay
    class is the field's; a field without one gets the class of the final
    snapshot, and
    :meth:`FlowResult.snapshot` reads every snapshot with that class's
    off-box continuation.
    Every step also records ``beta`` (sup of ``|d_x X|`` along the
    trajectories) and the stencil sup of ``|d_x f|`` and minimum of
    ``det(I + d_x f)``; up to dim 2 these are closed-form kernels
    (:func:`~diffeoflow.fields.spectral_norms`,
    :func:`~diffeoflow.fields.det_plus_identity`), not LAPACK calls.
    """
    if not isinstance(field, TimeDependentVectorField):
        raise FieldError(f"evolve needs a TimeDependentVectorField, got {type(field).__name__}")
    if field.dim != grid.dim:
        raise FieldError(f"vector field dim {field.dim} does not match grid dim {grid.dim}")
    if not (t_final > 0.0 and np.isfinite(t_final)):
        raise FlowDomainError(f"t_final must be positive and finite, got {t_final}")
    if not (dt > 0.0 and np.isfinite(dt)):
        raise FlowDomainError(f"dt must be positive and finite, got {dt}")
    decay_class = field.decay_class
    n_steps = max(1, int(math.ceil(t_final / dt - 1.0e-12)))
    step = t_final / n_steps
    stored = (n_steps + 1) * grid.node_count * grid.dim * 8
    if stored > SNAPSHOT_BUDGET_BYTES:
        raise FieldError(
            f"{n_steps} steps on {grid.node_count} nodes would keep about "
            f"{stored / 2.0 ** 30:.3g} GiB of snapshots, over the budget of "
            f"{SNAPSHOT_BUDGET_BYTES / 2.0 ** 30:.3g} GiB; raise dt or coarsen the grid"
        )

    nodes = np.asarray(grid.nodes())
    m = nodes.shape[0]
    y = nodes.copy()
    bound = np.zeros(m)
    exit_limit = (1.0 + DOMAIN_OVERHANG_FRACTION) * grid.half_width

    times = np.linspace(0.0, t_final, n_steps + 1)
    sup_disp = np.zeros(n_steps + 1)
    bound_sup = np.zeros(n_steps + 1)
    bound_defect = np.zeros(n_steps + 1)
    sup_jac = np.zeros(n_steps + 1)
    min_det = np.ones(n_steps + 1)
    beta = np.zeros(n_steps + 1)
    displacements = np.empty((n_steps + 1, m, grid.dim))
    displacements[0] = 0.0
    with np.errstate(all="ignore"):
        # only the first evaluations are checked: a non-finite X later is a blow-up
        k1 = _require_finite(field(0.0, y), nodes, "the vector field at t = 0")
        beta[0] = _spectral_sup(_require_finite(field.jacobian(0.0, y), nodes,
                                                "the vector field's Jacobian at t = 0"))

        for k in range(1, n_steps + 1):
            t = times[k - 1]
            if k > 1:
                k1 = field(t, y)
            k2 = field(t + 0.5 * step, y + 0.5 * step * k1)
            k3 = field(t + 0.5 * step, y + 0.5 * step * k2)
            k4 = field(t + step, y + step * k3)
            c1, c2, c3, c4 = (_pointwise_norm(v) for v in (k1, k2, k3, k4))
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            bound = bound + (step / 6.0) * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            t = times[k]

            if not np.all(np.isfinite(y)):
                raise FlowBlowupError(f"trajectories became non-finite by t = {t:.6g}")
            worst = float(np.max(np.abs(y)))
            if worst > exit_limit:
                raise FlowDomainError(
                    f"a trajectory reached |x| = {worst:.6g} by t = {t:.6g}, beyond the "
                    f"enlarged box {exit_limit:.6g}; the grid does not resolve this flow"
                )

            disp = np.subtract(y, nodes, out=displacements[k])
            disp_norm = _pointwise_norm(disp)
            sup_disp[k] = float(np.max(disp_norm))
            bound_sup[k] = float(np.max(bound))
            bound_defect[k] = float(np.max(disp_norm - bound))
            beta[k] = _spectral_sup(field.jacobian(t, y))
            # stencils never read off the box, so the continuation is immaterial
            sup_jac[k], min_det[k] = _jacobian_stats(DisplacementField.from_nodes(grid, disp))

    notes = []
    if decay_class is None:
        final = DisplacementField.from_nodes(grid, displacements[-1])
        decay_class = measured_class(final)
        notes.append(f"decay class inferred from the final snapshot: {decay_class.value}")

    alpha = _cumulative_trapezoid(times, beta)
    diagnostics = {
        "sup_displacement": sup_disp,
        "bound_sup": bound_sup,
        "bound_defect": bound_defect,
        "sup_jacobian": sup_jac,
        "min_det": min_det,
        "beta": beta,
        "alpha": alpha,
    }
    return FlowResult(
        grid=grid,
        decay_class=decay_class,
        t_final=float(t_final),
        dt=step,
        times=times,
        displacements=displacements,
        diagnostics=diagnostics,
        final_bound=bound,
        notes=notes,
    )


def _cumulative_trapezoid(times: np.ndarray, rate: np.ndarray) -> np.ndarray:
    out = np.zeros_like(rate)
    increments = 0.5 * (rate[1:] + rate[:-1]) * np.diff(times)
    out[1:] = np.cumsum(increments)
    return out


def displacement_sup_bound(result: FlowResult) -> tuple:
    """Certify ``sup_x |f(t, x)| <= sup_x int_0^t |X(s, y(s, x))| ds``.

    Returns ``(bound_curve, measured_curve, holds)`` over the step
    boundaries. The bound was accumulated during integration with the same
    RK4 stages as the trajectories. ``holds`` demands the stronger
    per-node comparison at every boundary, with a small absolute slack.
    """
    bound_curve = result.diagnostics["bound_sup"].copy()
    measured_curve = result.diagnostics["sup_displacement"].copy()
    holds = bool(float(np.max(result.diagnostics["bound_defect"])) <= BOUND_SLACK)
    return bound_curve, measured_curve, holds


def gronwall_bound(result: FlowResult) -> tuple:
    """Bellman-Gronwall envelope for the growth of ``d_x f`` along the flow.

    From ``d/dt (d_x f) = d_x X(t, y) (I + d_x f)``, the sup norm of
    ``d_x f(t)`` obeys ``u(t) <= alpha(t) + int_0^t alpha beta exp(int_s^t
    beta) ds`` with ``beta(s) = sup_x |d_x X(s, y(s, x))|`` and ``alpha`` its
    running integral. Returns ``(predicted, measured, holds)`` where
    ``measured`` is the stencil Jacobian sup per step boundary and ``holds``
    allows a relative ``1e-6`` plus absolute ``1e-8`` slack.
    """
    times = result.times
    beta = result.diagnostics["beta"]
    alpha = result.diagnostics["alpha"]
    measured = result.diagnostics["sup_jacobian"].copy()
    steps = times.shape[0]
    predicted = np.empty(steps)
    predicted[0] = alpha[0]
    for k in range(1, steps):
        integrand = alpha[: k + 1] * beta[: k + 1] * np.exp(alpha[k] - alpha[: k + 1])
        predicted[k] = alpha[k] + float(np.trapezoid(integrand, times[: k + 1]))
    holds = bool(np.all(measured <= predicted * (1.0 + GRONWALL_REL_SLACK) + GRONWALL_ABS_SLACK))
    return predicted, measured, holds


def edge_decay(final: DisplacementField, decay_class: DecayClass) -> dict:
    """The edge gate on a flow's last snapshot ``final``.

    Reads the sup of the first derivatives over the outermost eighth of the
    box from the field's cached first derivatives; for the decaying classes
    ``holds`` needs it below ``EDGE_DECAY_TOL``, and a BoundedAll
    displacement always holds, with a note. The keys are the trailing keys
    of :func:`sobolev_tracking`.
    """
    grid = final.grid
    nodes = np.asarray(grid.nodes())
    edge_mask = row_max(np.abs(nodes)) >= EDGE_ANNULUS_FRACTION * grid.half_width
    edge_sup = max(float(np.max(np.abs(entry.reshape(-1)[edge_mask])))
                   for row in final.jacobian_entries() for entry in row)
    decaying = decay_class is not DecayClass.BOUNDED_ALL
    report = {
        "edge_annulus_fraction": EDGE_ANNULUS_FRACTION,
        "edge_jacobian_sup": edge_sup,
        "edge_decayed": edge_sup < EDGE_DECAY_TOL,
        "holds": not decaying or edge_sup < EDGE_DECAY_TOL,
    }
    if not decaying:
        report["notes"] = ["bounded-class displacement: edge decay is not expected"]
    return report


def sobolev_tracking(result: FlowResult) -> dict:
    """Sobolev seminorms of the displacement along the flow, with the edge gate.

    Tracks every derivative through order ``SOBOLEV_TRACKING_ORDER`` at each
    snapshot of ``result.times``, one ``history`` list per multi-index, then
    appends the keys of :func:`edge_decay` on the last snapshot, whose
    cached first derivatives the seminorms already derived. The values need
    no finiteness check: :func:`evolve` refuses non-finite
    trajectories and any that leave the enlarged box.
    """
    alphas = multi_indices_up_to(result.grid.dim, SOBOLEV_TRACKING_ORDER)
    per_snapshot = []
    for k in range(len(result.times)):
        # each snapshot's derivative cache dies with its field; the last one's
        # first derivatives serve the edge gate
        final = result.snapshot(k)
        per_snapshot.append(seminorm_table(final, alphas, 0)[2])
    history = {",".join(str(a) for a in alpha): [norms[i] for norms in per_snapshot]
               for i, alpha in enumerate(alphas)}
    return {"p_max": SOBOLEV_TRACKING_ORDER, "history": history,
            **edge_decay(final, result.decay_class)}


def right_log_derivative(result: FlowResult) -> Iterator[tuple]:
    """Recover the driving field from the flow: ``D(t) = (d_t f) o (Id+f)^-1``.

    Returns an iterator that yields ``(t, DisplacementField)`` for each
    interior snapshot time (two steps in from either end) as it is
    recovered, so a loop over it holds one field at a time; wrap the call
    in ``list()`` to keep them all. For a flow of ``X`` the field
    approximates ``X(t, .)`` to fourth order in both the step and the
    spacing. The time derivative is a five-point stencil across
    ``result.displacements``. Each inverse is solved as node arrays by
    :func:`~diffeoflow.group.solve_inverse` on :meth:`FlowResult.snapshot`,
    whose continuation the time derivative and the recovered field share;
    no member is built. The inverse is read at the nodes from its node
    values, ``nodes + u``, which are exact on every spacing. The time
    derivative is gathered at ``nodes + u``, except where ``u`` is exactly
    zero and its stencil reads only exact zeros
    (:func:`~diffeoflow.fields.reads_only_zeros`): that gather would return
    ``+0.0``, which is written instead.

    The call validates before anything is recovered: fewer than 5
    snapshots (4 steps) leave the time stencil no interior snapshot and
    raise :class:`~diffeoflow.errors.FieldError`, and an
    interior snapshot below the ``Diffeo`` margin, read from the
    ``diagnostics["min_det"]`` that ``evolve`` measured, has no inverse and
    raises :class:`~diffeoflow.errors.NonDiffeoError` naming its worst node.
    """
    g = result.displacements
    if len(g) < 5:
        raise FieldError(
            f"need at least 5 snapshots (4 steps) for the time stencil, have {len(g)}"
        )
    interior = range(2, len(g) - 2)
    for k in interior:
        if not result.diagnostics["min_det"][k] >= DEFAULT_DET_THRESHOLD:
            # the same minimum, measured again only to name its node
            _require_margin(result.snapshot(k))
    return ((float(result.times[k]), _recovered_field(result, k)) for k in interior)


def _recovered_field(result: FlowResult, k: int) -> DisplacementField:
    """The field :func:`right_log_derivative` recovers at snapshot ``k``.

    Every array it builds dies on return, so the caller holds only the field.
    """
    g = result.displacements
    grid = result.grid
    snap = result.snapshot(k)
    extrap = snap.extrapolation
    u, _ = solve_inverse(snap)
    del snap
    dgdt = (g[k - 2] - 8.0 * g[k - 1] + 8.0 * g[k + 1] - g[k + 2]) / (12.0 * result.dt)
    dgdt_field = DisplacementField.from_nodes(grid, dgdt, extrap)
    del dgdt
    read = np.flatnonzero(~(reads_only_zeros(dgdt_field) & (row_max(np.abs(u)) == 0.0)))
    recovered = np.zeros_like(u)
    recovered[read] = dgdt_field.sample(np.asarray(grid.nodes()).take(read, axis=0)
                                        + u.take(read, axis=0))
    return DisplacementField.from_nodes(grid, recovered, extrap)


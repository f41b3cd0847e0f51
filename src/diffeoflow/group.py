"""Group operations on maps ``x + g(x)`` with an invertibility margin.

A displacement ``g`` defines a member of the group when ``det(I + dg)`` keeps
a positive margin ``epsilon`` on every node; each member also carries the
decay class of its displacement. Composition never differentiates anything:
it only samples,

    (Id + f) o (Id + g) = Id + [ g + f o (Id + g) ],

so the class bookkeeping follows the wider of the two operands. Inversion
solves ``y + g(y) = x`` node by node against the interpolated displacement,
which makes the inverse exact for the engine's own notion of ``g`` rather
than for the unknowable continuum field. One solver, :func:`solve_inverse`,
returns the inverse displacement and its residuals as node arrays;
:func:`invert` wraps them in a member, and callers that read only node
values build none. A contracting displacement takes chord sweeps on the
node Jacobian ``I + dg(x)``, from its cached first derivatives (a member's
margin has already derived them), and a node where the chord step does not shrink falls back to fixed-point sweeps; any
other takes a few fixed-point sweeps and then damped Newton, which also
polishes a residual the chord leaves above the target. A node whose
stencil reads only exact zeros is solved by its seed and never gathered by
the sweeps, and a node drops out of any stage once its iterate stops moving
exactly, so later sweeps gather only the nodes that still move,
bit-identical to sweeping every node; a retired node keeps the displacement
its last sweep sampled, from which the residual is built without a second
gather. Newton starts from that residual and returns its own, so neither
its first pass nor the final check gathers every node. Conjugation reads
the outer displacement at the nodes and gathers the inner one there once,
for the composite and for its diagnostics alike. Its diagnostics gather
the bracket ``u(a + s) - u(a)`` only on the rows that the inner map moves
(``fl(a + s) != a``), and the quadrature Jacobians of the bracket's
integral form only on the rows whose certified bound, from the stencil's
Lebesgue constant and the node maximum of ``du``, can reach the largest
gap found on the rows of largest bound. A skipped row's gap is below that
gap, so the reported maximum keeps its bits (:func:`conjugate`).
"""

from __future__ import annotations

import math

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
from .fields import (GATHER_BLOCK, DisplacementField, Grid, det_plus_identity, reads_only_zeros,
                     row_max)

DEFAULT_DET_THRESHOLD = 1.0e-6
DOMAIN_OVERHANG_FRACTION = 0.1
_FIXED_POINT_CONTRACTION = 0.9
# sweep cap of the contracting branch: a node handed back to the fixed point
# may need all of them
_CHORD_MAX_ITER = 200
_FIXED_POINT_SEED_ITER = 8
# a chord step that shrinks less than this hands its node back to the fixed point
_CHORD_SHRINK = 0.25
_NEWTON_MAX_ITER = 60
# the largest Lebesgue constant of the 4-node cubic stencil of
# fields._interp_stencil: 1 + t (t + 1) (t - 2) on a face interval, at
# t = (1 - sqrt 7) / 3; an inner interval gives 1 + t (1 - t) <= 1.25
_STENCIL_LEBESGUE = (7.0 + 14.0 * math.sqrt(7.0)) / 27.0
# relative margin of the bracket-gap bound over its own rounding
_BOUND_MARGIN = 1.0e-12
# rows of largest bound whose bracket gap is computed first, to set the skip
# threshold; the result is the same for any count, which moves only work
_BRACKET_FIRST_ROWS = 2048
_QUAD_T = np.linspace(0.0, 1.0, 9)
_QUAD_W = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0


def _det_margin(displacement: DisplacementField) -> tuple:
    """Node-wise minimum of ``det(I + dg)`` and the node where it is reached.

    The determinants come from the closed-form cofactor kernel on the stencil
    Jacobian: a few whole-grid array operations, cheap enough that every
    member and every :func:`membership_check` measures its margin.
    """
    dets = det_plus_identity(displacement.jacobian_entries()).reshape(-1)
    worst = int(np.argmin(dets))
    location = [float(c) for c in np.asarray(displacement.grid.nodes())[worst]]
    return float(dets[worst]), location


def _margin_note(epsilon: float, location: list) -> str:
    return (f"det(I + dg) reaches {epsilon:.6g} at {location}, "
            f"below the margin {DEFAULT_DET_THRESHOLD:.6g}")


def _require_margin(displacement: DisplacementField) -> tuple:
    """:func:`_det_margin`, raising ``NonDiffeoError`` below ``DEFAULT_DET_THRESHOLD``."""
    epsilon, location = _det_margin(displacement)
    if not epsilon >= DEFAULT_DET_THRESHOLD:
        raise NonDiffeoError(_margin_note(epsilon, location))
    return epsilon, location


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
    Without a class it measures one, and keeps that report as
    ``classification`` (``None`` when the class was supplied).
    """

    def __init__(self, displacement: DisplacementField,
                 decay_class: DecayClass | None = None):
        self.classification = None
        if decay_class is None:
            self.classification = classify_decay(displacement)
            decay_class = self.classification.inferred_class
        else:
            decay_class = class_from_name(decay_class)
        wanted = extrapolation_for(decay_class)
        if displacement.extrapolation != wanted:
            displacement = displacement.with_extrapolation(wanted)
        self.displacement = displacement
        self.decay_class = decay_class
        self.epsilon, self.epsilon_location = _require_margin(displacement)

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


def _require_same_grid(a: Diffeo, b: Diffeo):
    if a.grid != b.grid:
        raise FieldError("group operations need both members on the same grid")


def compose(outer: Diffeo, inner: Diffeo) -> Diffeo:
    """The diffeomorphism ``outer o inner`` on the shared grid.

    Its displacement is :func:`compose_nodes`; its class is the wider one.
    """
    return _composite(outer, inner, compose_nodes(outer, inner))


def _composite(outer: Diffeo, inner: Diffeo, node_displacement: np.ndarray) -> Diffeo:
    """The member ``outer o inner`` from its node-major displacement."""
    displacement = DisplacementField.from_nodes(inner.grid, node_displacement)
    return Diffeo(displacement, widest(outer.decay_class, inner.decay_class))


def compose_nodes(outer: Diffeo, inner: Diffeo) -> np.ndarray:
    """Node-major displacement ``g + f o (Id + g)`` of ``outer o inner``.

    Shape ``(node_count, dim)``; no member is built, so no margin is
    measured. If the inner map pushes nodes further than a tenth of the
    half-width outside the box, the outer displacement would be read deep in
    its extrapolation zone and the result is refused as under-resolved.
    """
    _require_same_grid(outer, inner)
    g_values, images = _node_images(inner)
    return g_values + outer.displacement.sample(images)


def _node_images(member: Diffeo) -> tuple:
    """``(g, nodes + g)`` at the nodes, refused when the images overhang the box."""
    grid = member.grid
    nodes = np.asarray(grid.nodes())
    g_values = member.displacement.node_values()
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
    return g_values, images


def _drop_settled(store: tuple, active: np.ndarray, change: np.ndarray, rows: list) -> np.ndarray:
    """Retire the active nodes whose ``change`` is exactly 0.0; returns the new ``active``.

    Each node iterates on its own: interpolation reads a node's own iterate
    only, and a chord sweep applies the node's own matrix. So a node whose
    step (sweeps) or residual (Newton) is exactly 0.0 would recompute the
    same bits on every later sweep. Each ``(whole, part)`` pair of ``store``
    writes the retired rows of ``part`` into the whole-node array ``whole``.
    The active-node arrays in the list ``rows`` are then compacted in place,
    one at a time and last first, so an array that only ``rows`` holds is
    freed as its copy is made; the sweeps put their chord matrix rows last,
    so they are copied before any row that ``store`` still holds. A NaN
    ``change`` keeps its node. Integer ``take`` compacts; a boolean mask is
    several times slower.
    """
    keep = np.flatnonzero(change)
    if len(keep) == len(change):
        return active
    done = np.flatnonzero(change == 0.0)
    retired = active.take(done)
    for whole, part in store:
        whole[retired] = part.take(done, axis=0)
    for k in reversed(range(len(rows))):
        rows[k] = rows[k].take(keep, axis=0)
    return active.take(keep)


def _chord_matrix(entries: list, rows: np.ndarray) -> list:
    """``(I + dg)^-1`` at the nodes ``rows``: its ``dim`` matrix rows, each ``(len(rows), dim)``.

    ``entries`` is :meth:`~diffeoflow.fields.DisplacementField.jacobian_entries`,
    read only at ``rows``. The inverse is the adjugate of ``I + dg`` by
    cofactors over :func:`~diffeoflow.fields.det_plus_identity`. Each
    matrix row is the size of the iterates, so no array of the sweeps
    outgrows them.
    """
    dim = len(entries)
    m = [[e.reshape(-1).take(rows) for e in row] for row in entries]
    det = det_plus_identity(m)
    for i in range(dim):
        m[i][i] += 1.0
    out = [np.empty((len(rows), dim)) for _ in range(dim)]
    if dim == 1:
        out[0][:, 0] = 1.0
    elif dim == 2:
        (a, b), (c, d) = m
        out[0][:, 0], out[0][:, 1], out[1][:, 0], out[1][:, 1] = d, -b, -c, a
    else:
        for i in range(3):
            for j in range(3):
                p, q, r, s = (j + 1) % 3, (j + 2) % 3, (i + 1) % 3, (i + 2) % 3
                np.multiply(m[p][r], m[q][s], out=out[i][:, j])
                out[i][:, j] -= m[p][s] * m[q][r]
    for row in out:
        row /= det[:, None]
    return out


def _times(matrix: list, vectors: np.ndarray) -> np.ndarray:
    """Node-wise matrix times vector, for the matrix rows of :func:`_chord_matrix`."""
    out = np.empty_like(vectors)
    for i, row in enumerate(matrix):
        np.multiply(row[:, 0], vectors[:, 0], out=out[:, i])
        for j in range(1, len(matrix)):
            out[:, i] += row[:, j] * vectors[:, j]
    return out


def _sweep(y: np.ndarray, x: np.ndarray, matrix: list, g: np.ndarray) -> np.ndarray:
    """One sweep's new iterates from ``y``, the targets ``x`` and ``g = g(y)``."""
    if not matrix:
        return x - g
    step = y + g
    step -= x
    step = _times(matrix, step)
    return np.subtract(y, step, out=step)


def _slow_to_fixed_point(rows: list, y_next: np.ndarray, g: np.ndarray, moved: np.ndarray,
                         floor: float):
    """Hand the chord nodes whose step did not shrink back to the fixed point.

    ``rows = [y, x, limit, *M]``. A node whose step ``moved`` is above
    ``floor`` and at least its ``limit``, ``_CHORD_SHRINK`` times its
    previous step (the seed step first), takes the fixed-point step
    ``x - g(y)`` from this sweep's gather instead, and the identity becomes
    its matrix, so its later sweeps are fixed point too. The chord contracts
    at a node at the rate ``|dg(x) - dg(y*)| / |I + dg(x)|``, which can
    exceed 1 where the fixed point's ``|dg(y*)| < 0.9`` holds (at x = 0.7
    for ``0.8*exp(-x^2)``). A handed-back node keeps an infinite ``limit``,
    so it is never handed back twice; every other limit becomes
    ``_CHORD_SHRINK`` times this step.
    """
    y, x, limit, *matrix = rows
    slow = np.flatnonzero((moved >= limit) & (moved > floor))
    np.multiply(moved, _CHORD_SHRINK, out=limit, where=limit < np.inf)
    if not len(slow):
        return
    y_next[slow] = x.take(slow, axis=0) - g.take(slow, axis=0)
    moved[slow] = row_max(np.abs(y_next.take(slow, axis=0) - y.take(slow, axis=0)))
    limit[slow] = np.inf
    for i, row in enumerate(matrix):
        row[slow] = np.eye(len(matrix))[i]


def _invert_sweeps(displacement: DisplacementField, nodes: np.ndarray,
                   tol: float, max_iter: int, entries=None) -> tuple:
    """Sweeps on ``y + g(y) = x`` at every node; returns ``(y, g(y))``.

    With ``entries = None`` these are fixed-point sweeps ``y <- x - g(y)``
    from ``y = x - g(x)``. With the Jacobian ``entries`` they are chord
    sweeps ``y <- y - M (y + g(y) - x)`` with ``M = (I + dg(x))^-1`` from
    :func:`_chord_matrix`, from the Newton step ``y = x - M g(x)``; ``g(x)``
    is the node value in both. A node whose stencil reads only exact zeros
    (:func:`~diffeoflow.fields.reads_only_zeros`) is solved by its seed
    ``y = x``, ``g(y) = +0.0``, the bits a sweep would give, and is never
    gathered. The sweeps stop once no node moves more than ``tol / 4``. A
    node retires with the displacement its last sweep sampled: its step was
    exactly 0.0, so that sample is ``g`` at its final iterate. Only the
    nodes still moving when the sweeps stop are gathered once more.
    """
    # the active nodes' iterates, targets, step limits and chord matrix rows,
    # compacted by _drop_settled
    active = np.flatnonzero(~reads_only_zeros(displacement))
    rows = [None, nodes if len(active) == len(nodes) else nodes.take(active, axis=0)]
    g_seed = displacement.node_values().take(active, axis=0)
    if entries is None:
        rows[0] = rows[1] - g_seed
    else:
        rows += [None] + _chord_matrix(entries, active)
        step = _times(rows[3:], g_seed)
        rows[2] = _CHORD_SHRINK * row_max(np.abs(step))
        rows[0] = rows[1] - step
        del step
    del g_seed
    y = nodes.copy()
    sampled = np.zeros_like(y)
    for _ in range(max_iter):
        g_act = displacement.sample(rows[0])
        y_next = _sweep(rows[0], rows[1], rows[3:], g_act)
        moved = row_max(np.abs(y_next - rows[0]))
        if entries is not None:
            _slow_to_fixed_point(rows, y_next, g_act, moved, 0.25 * tol)
        rows[0] = y_next
        stop = float(np.max(moved, initial=0.0)) <= 0.25 * tol
        active = _drop_settled(((y, y_next), (sampled, g_act)), active, moved, rows)
        # no sweep's arrays are held across the next gather
        del y_next, g_act, moved
        if stop:
            break
    y[active] = rows[0]
    if len(active):
        sampled[active] = displacement.sample(rows[0])
    return y, sampled


def _invert_newton(displacement: DisplacementField, nodes: np.ndarray,
                   seed: np.ndarray, residual: np.ndarray, tol: float) -> tuple:
    """Damped Newton from ``seed`` at every node; returns ``(y, residual norms)``.

    ``residual = seed + g(seed) - nodes`` comes from the caller, and each
    pass gathers the residual at its new iterates only, so no pass gathers
    a retired node; a retired node's norm is exactly 0.0.
    """
    dim = displacement.grid.dim
    y = seed.copy()
    norms = np.zeros(len(y))
    active, target, y_act = np.arange(len(y)), nodes, y
    res_norm = row_max(np.abs(residual))
    eye = np.eye(dim)
    for _ in range(_NEWTON_MAX_ITER):
        if float(np.max(res_norm, initial=0.0)) <= tol:
            break
        rows = [y_act, target, residual, res_norm]
        active = _drop_settled(((y, y_act),), active, res_norm, rows)
        y_act, target, residual, res_norm = rows
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
        residual = y_act + displacement.sample(y_act) - target
        res_norm = row_max(np.abs(residual))
    y[active] = y_act
    norms[active] = res_norm
    return y, norms


def solve_inverse(displacement: DisplacementField) -> tuple:
    """Solve ``y + g(y) = x`` at every node ``x``; returns ``(u, residuals)``.

    ``u = y - x`` is the inverse displacement node-major, shape
    ``(node_count, dim)``, and ``residuals`` is each node's
    ``max |y + g(y) - x|``. No member is built, so no margin is measured;
    :func:`invert` wraps ``u`` in one. The residual target is
    ``1e-13 * (1 + half_width)``; the promise is ``1e-8 * (1 + half_width)``,
    and a residual above it raises :class:`~diffeoflow.errors.InversionError`
    with the worst node named.
    Two branches, chosen by the node-wise Frobenius norm of ``dg``:

    - below 0.9, up to 200 chord sweeps ``y <- y - (I + dg(x))^-1 (y + g(y) - x)``,
      seeded by the Newton step from ``y = x``; the matrices come from the
      cached first derivatives, so ``jacobian_at`` is not called. A node
      whose step does not shrink fourfold is handed back to the fixed point
      ``y <- x - g(y)``, which contracts wherever ``|dg| < 0.9``
      (:func:`_slow_to_fixed_point`), so the cap stays the 200 sweeps that
      fixed point may need;
    - otherwise 8 fixed-point sweeps ``y <- x - g(y)`` from ``y = x - g(x)``
      seed a damped Newton solve.

    The sweeps stop once no node moves more than a quarter of the target.
    Newton runs after either branch whose residual is still above the
    target. Solved nodes drop out: a node whose sweep step, or whose Newton
    residual, is exactly zero is no longer sampled, differentiated or
    solved, so a singular Jacobian there is never met. A node whose
    interpolation stencil reads only exact zeros is solved by its seed
    ``y = x`` and never gathered by the sweeps. The residual is built
    from the displacement each node's last sweep sampled, so only the nodes
    still moving when the sweeps stop are gathered again; Newton starts
    from that residual and returns its own, so it gathers no node that is
    not still active.
    """
    grid = displacement.grid
    nodes = np.asarray(grid.nodes())
    tol = 1.0e-8 * (1.0 + grid.half_width)
    target = 1.0e-13 * (1.0 + grid.half_width)
    entries = displacement.jacobian_entries()
    # squares added row-major, the order of np.sum over the stacked Jacobian's
    # two leading axes, so the switch sees the same bits
    frob = float(np.sqrt(np.max(sum(e ** 2 for row in entries for e in row))))
    chord = frob < _FIXED_POINT_CONTRACTION
    y, residual = _invert_sweeps(displacement, nodes, target,
                                 _CHORD_MAX_ITER if chord else _FIXED_POINT_SEED_ITER,
                                 entries if chord else None)
    # the sampled displacement becomes the residual y + g(y) - x in place
    residual += y
    residual -= nodes
    residuals = row_max(np.abs(residual))
    if float(np.max(residuals)) > target:
        y, residuals = _invert_newton(displacement, nodes, y, residual, target)
    worst = float(np.max(residuals))
    if worst > tol:
        raise InversionError(
            f"inverse solve stalled at residual {worst:.3e} (tolerance {tol:.3e}) "
            f"near x = {[float(c) for c in nodes[int(np.argmax(residuals))]]}"
        )
    y -= nodes
    return y, residuals


def invert(diffeo: Diffeo) -> Diffeo:
    """Inverse member: :func:`solve_inverse` on its displacement, wrapped once.

    The inverse keeps the member's decay class and continuation.
    """
    u, _ = solve_inverse(diffeo.displacement)
    disp = DisplacementField.from_nodes(diffeo.grid, u, diffeo.displacement.extrapolation)
    return Diffeo(disp, diffeo.decay_class)


def _bracket_gaps(u: DisplacementField, a: np.ndarray, s: np.ndarray, rows: np.ndarray) -> list:
    """Block maxima of ``|bracket - integral|`` over the node ``rows``, in row blocks.

    The bracket is ``u(a + s) - u(a)`` and the integral its 9-point Simpson
    quadrature ``sum_k w_k du(a + t_k s) s``, terms added from ``t = 0``
    up into a zero start, so each row's bits do not depend on which rows
    share its block.
    """
    gaps = []
    for lo in range(0, len(rows), GATHER_BLOCK):
        block = rows[lo:lo + GATHER_BLOCK]
        a_rows, s_rows = a.take(block, axis=0), s.take(block, axis=0)
        bracket = u.sample(a_rows + s_rows) - u.sample(a_rows)
        integral = np.zeros_like(bracket)
        for t, w in zip(_QUAD_T, _QUAD_W):
            integral += w * np.einsum("nij,nj->ni", u.jacobian_at(a_rows + t * s_rows), s_rows)
        gaps.append(np.max(np.abs(bracket - integral)))
    return gaps


def conjugate(outer: Diffeo, inner: Diffeo, diagnostics: bool = False):
    """``outer^-1 o inner o outer``; the decay class of ``inner`` survives.

    With ``diagnostics=True`` also returns a dict with the class measured on
    the result and a node-wise check of the bracket decomposition

        psi(y) - y = s(y) + [ u(a(y) + s(y)) - u(a(y)) ],

    where ``a = outer``, ``u`` is the displacement of ``outer^-1`` and
    ``s(y)`` is the inner displacement read at ``a(y)``. The bracket is
    compared against its integral form ``int_0^1 du(a + t s) s dt``, which is
    the identity that transports decay from ``inner`` to the conjugation.
    ``a`` is ``nodes + g`` from the outer node values and ``s`` is gathered
    once: the composite ``inner o outer`` is built from the same two arrays,
    as :func:`compose` builds it (with :func:`compose_nodes`'s overhang
    refusal), so the diagnostics gather neither again. The decomposition
    residual runs over row blocks of ``GATHER_BLOCK`` nodes, so its
    temporaries are a block wide; a max of block maxima keeps its bits.

    The bracket samples are gathered only on moved rows. A row is still
    when ``fl(a + s) == a`` in every coordinate: ``t s`` lies between 0 and
    ``s`` for ``t`` in [0, 1], and rounding is monotone, so every ``a + t s``
    rounds to ``a`` too (up to the sign of a zero, which no gather sees),
    and the still row's bracket is ``u(a) - u(a) = +0.0``.

    ``bracket_gap`` is the largest ``|bracket - integral|``, and the
    Jacobians of the integral are gathered only on the rows that can reach
    it. Let ``L = 1.6311...`` be the largest Lebesgue constant of the 4-node
    cubic stencil (``_STENCIL_LEBESGUE``, on a face interval; an inner
    interval gives 1.25) and ``D`` the node maximum of ``|d_j u_i|`` over
    the first derivatives that ``jacobian_at`` interpolates. A gathered
    entry is then at most ``L^dim D``, and the Simpson weights are positive
    and sum to 1, so ``|integral_i| <= L^dim D |s|_1``. Each row's gap is at
    most its bound

        B = (max_i |bracket_i| + L^dim D |s|_1) (1 + 1e-12) + tiny,

    whose relative margin covers the rounding of the gathers and sums and
    whose ``tiny`` (the smallest normal float) covers underflow. The first
    pass computes ``B`` block by block, with the moved rows' brackets and
    the decomposition residual, and keeps only ``B`` for the whole grid.
    Then the exact gaps run in two phases, each row taking both bracket
    samples again and all nine Jacobians:

    1. the ``_BRACKET_FIRST_ROWS`` rows of largest ``B``; ``G`` is the
       largest of their gaps;
    2. every other row where ``not (B < G)``, so a NaN bound is never
       skipped.

    A skipped row's gap is at most ``B < G``, and ``G`` is at most the true
    maximum, so the reported maximum keeps its bits whatever the phase-1
    count; a NaN gap still reaches it. Both phases run in row blocks of
    ``GATHER_BLOCK``, and each row's terms are added in the same order
    whichever rows share its block.
    """
    _require_same_grid(outer, inner)
    grid = outer.grid
    outer_inverse = invert(outer)
    expected = inner.decay_class
    g_outer, a = _node_images(outer)
    s = inner.displacement.sample(a)
    # left unnamed so the composite and its derivative caches die with this call
    conj_disp = compose_nodes(outer_inverse, _composite(inner, outer, g_outer + s))
    result = Diffeo(DisplacementField.from_nodes(grid, conj_disp), expected)
    if not diagnostics:
        return result
    classification = classify_decay(result.displacement)
    measured = classification.inferred_class

    u = outer_inverse.displacement
    # L^dim D: no entry jacobian_at gathers is larger, so no quadrature term
    # exceeds this times |s|_1
    reach = _STENCIL_LEBESGUE ** grid.dim * max(
        max(float(e.max()), -float(e.min())) for row in u.jacobian_entries() for e in row)
    bound, residuals = np.empty(len(a)), []
    for lo in range(0, len(a), GATHER_BLOCK):
        rows = slice(lo, lo + GATHER_BLOCK)
        a_rows, s_rows = a[rows], s[rows]
        # column by column, as row_max; -0.0 == +0.0 here, and both read the
        # same stencil, since _interp_stencil adds the half-width first
        moved = a_rows[:, 0] + s_rows[:, 0] != a_rows[:, 0]
        for j in range(1, a.shape[1]):
            moved |= a_rows[:, j] + s_rows[:, j] != a_rows[:, j]
        moved = np.flatnonzero(moved)
        a_moved, s_moved = a_rows[moved], s_rows[moved]
        bracket = np.zeros_like(s_rows)
        bracket[moved] = u.sample(a_moved + s_moved) - u.sample(a_moved)
        residuals.append(np.max(np.abs(conj_disp[rows] - (s_rows + bracket))))
        row_bound = bound[rows]
        np.abs(s_rows[:, 0], out=row_bound)
        for j in range(1, a.shape[1]):
            row_bound += np.abs(s_rows[:, j])
        row_bound *= reach
        row_bound += row_max(np.abs(bracket))
        row_bound *= 1.0 + _BOUND_MARGIN
        row_bound += np.finfo(np.float64).tiny
    first = np.arange(len(a))
    if _BRACKET_FIRST_ROWS < len(a):
        first = np.sort(np.argpartition(bound, -_BRACKET_FIRST_ROWS)[-_BRACKET_FIRST_ROWS:])
    gaps = _bracket_gaps(u, a, s, first)
    bound[first] = -np.inf
    # not (bound < gap), so a NaN bound is never skipped
    gaps += _bracket_gaps(u, a, s, np.flatnonzero(~(bound < np.max(gaps))))
    info = {
        "expected_class": expected.value,
        "measured_class": measured.value,
        "agrees": bool(expected.contains(measured)),
        # a max of block maxima is the whole max, a NaN included
        "bracket_gap": float(np.max(gaps)),
        "decomposition_residual": float(np.max(residuals)),
        "report": classification.to_dict(),
    }
    return result, info


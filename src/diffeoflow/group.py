"""Group operations on maps ``x + g(x)`` with an invertibility margin.

A displacement ``g`` defines a member of the group when ``det(I + dg)`` keeps
a positive margin ``epsilon`` on every node; each member also carries the
decay class of its displacement. Composition never differentiates anything:
it only samples,

    (Id + f) o (Id + g) = Id + [ g + f o (Id + g) ],

so the class bookkeeping follows the wider of the two operands. Inversion
solves ``y + g(y) = x`` node by node against the displacement as
:meth:`~diffeoflow.fields.DisplacementField.sample` reads it: the formula of
a descriptor member, the interpolant of any other, so the inverse is exact
for the engine's own notion of ``g``. One solver, :func:`solve_inverse`,
returns the inverse displacement and its residuals as node arrays;
:func:`invert` wraps them in a member, and callers that read only node
values build none. Every member takes chord sweeps on the node Jacobian
``I + dg(x)``, from its cached first derivatives (a member's margin has
already derived them). A node where the chord step does not shrink stops
where it is, and damped Newton then works only on the nodes still above the
residual target. A node whose stencil reads only exact zeros is solved by
its seed and never gathered by the sweeps, and a node drops out of the
sweeps once its step is exactly 0.0, as a stopped node's is, so later
sweeps gather only the nodes that still move, bit-identical to sweeping
every node; a retired node keeps the displacement its last sweep sampled,
from which the residual is built without a second gather. Newton starts
from that residual, drops a node once it meets the target and returns its
own norms, so neither its first pass nor the final check gathers every
node. Conjugation composes through the inverse, classifies the result and
reports the inverse's left-identity residual at the outer map's node
images, the floor its class verdict sits on (:func:`conjugate`).
"""

from __future__ import annotations

import numpy as np

from .decay import (DecayClass, class_from_name, classify_decay,
                    extrapolation_for, measured_class, widest)
from .errors import (
    FieldError,
    InsufficientAnnuliError,
    InversionError,
    NonDiffeoError,
    UnderResolvedError,
)
from .fields import DisplacementField, Grid, det_plus_identity, reads_only_zeros, row_max

DEFAULT_DET_THRESHOLD = 1.0e-6
DOMAIN_OVERHANG_FRACTION = 0.1
# sweep cap: every active node's step shrinks at least fourfold per sweep, so
# about 25 sweeps reach the stop; the cap only ends a NaN
_CHORD_MAX_ITER = 200
# a chord step that shrinks less than this stops its node and leaves it to Newton
_CHORD_SHRINK = 0.25
_NEWTON_MAX_ITER = 60


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
            measured = DecayClass(classification["inferred_class"])
            report["measured_class"] = measured.value
            report["class_ok"] = bool(decay_class.contains(measured))
            report["classification"] = classification
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
    Without a class it measures one with :func:`measured_class`. The
    continuation governs a displacement known only at its nodes; one built
    from a descriptor keeps its formula through the re-wrap and reads it
    past the box instead.
    """

    def __init__(self, displacement: DisplacementField,
                 decay_class: DecayClass | None = None):
        if decay_class is None:
            decay_class = measured_class(displacement)
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


def _drop_settled(store: list, active: np.ndarray, settled: np.ndarray, rows: list) -> np.ndarray:
    """Retire the active nodes where ``settled`` holds; returns the new ``active``.

    Each node iterates on its own: interpolation reads a node's own iterate
    only, and a chord or Newton step applies the node's own matrix. So
    retiring a node moves no other node's bits. The sweeps retire a node
    whose step is exactly 0.0, which would recompute the same bits on every
    later sweep; Newton retires a node whose residual meets its target. Each
    ``(whole, part)`` pair of the list ``store`` writes the retired rows of
    ``part`` into the whole-node array ``whole``, and ``store`` is emptied
    then. The active-node arrays in the list ``rows`` are then compacted in
    place, one at a time and last first, so an array that only ``rows``
    holds is freed as its copy is made: a caller that names a part only in
    ``store`` holds no copy of it through the compaction. ``settled`` is
    False at a NaN, which keeps its node. Integer ``take`` compacts; a
    boolean mask is several times slower.
    """
    done = np.flatnonzero(settled)
    if len(done):
        retired = active.take(done)
        for whole, part in store:
            whole[retired] = part.take(done, axis=0)
    store.clear()
    if not len(done):
        return active
    keep = np.flatnonzero(~settled)
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


def _sweep(y: np.ndarray, nodes: np.ndarray, active: np.ndarray, matrix: list,
           g: np.ndarray) -> np.ndarray:
    """One chord sweep's new iterates from ``y``, the targets ``nodes[active]`` and ``g = g(y)``.

    The targets are taken here, not kept between sweeps: the take is brief,
    while a kept copy would sit beside every sweep's largest temporaries.
    """
    step = y + g
    step -= nodes if len(active) == len(nodes) else nodes.take(active, axis=0)
    step = _times(matrix, step)
    return np.subtract(y, step, out=step)


def _invert_sweeps(displacement: DisplacementField, nodes: np.ndarray, tol: float) -> tuple:
    """Chord sweeps on ``y + g(y) = x`` at every node; returns ``(y, g(y))``.

    A sweep is ``y <- y - M (y + g(y) - x)``, with ``M = (I + dg(x))^-1``
    from :func:`_chord_matrix` on the displacement's cached
    :meth:`~diffeoflow.fields.DisplacementField.jacobian_entries`, seeded by
    the Newton step ``y = x - M g(x)`` from the node value ``g(x)``. A node
    whose stencil reads only exact zeros
    (:func:`~diffeoflow.fields.reads_only_zeros`) is solved by its seed
    ``y = x`` and is never sampled. Its ``g(y)`` is the bits a fresh sample
    there returns, which a sweep would give: ``+0.0`` from a gather, whose
    terms are all ``+-0.0``, and from a formula the node value itself, the
    node's own ``+-0.0``. The chord contracts at a node at the rate
    ``|dg(x) - dg(y*)| / |I + dg(x)|``, which can exceed 1 (near x = 0.7 for
    ``0.8*exp(-x^2)``). So a node is slow when its step is above ``tol / 4``
    and not below ``_CHORD_SHRINK`` times its previous step (the seed step
    first). A slow node keeps its iterate, which makes its step 0.0, and is
    left to Newton. A node retires once its step is exactly 0.0, with the
    displacement its last sweep sampled, which is ``g`` at its final iterate.
    Every active node's step thus shrinks at least fourfold per sweep. The
    sweeps stop once no node moves more than ``tol / 4``, and only the nodes
    still moving then are gathered once more.
    """
    # the active nodes' iterates, step limits and chord matrix rows, compacted
    # by _drop_settled
    idle = reads_only_zeros(displacement)
    active = np.flatnonzero(~idle)
    rows = [None, None] + _chord_matrix(displacement.jacobian_entries(), active)
    step = _times(rows[2:], displacement.node_values().take(active, axis=0))
    rows[1] = _CHORD_SHRINK * row_max(np.abs(step))
    rows[0] = (nodes if len(active) == len(nodes) else nodes.take(active, axis=0)) - step
    del step
    y = nodes.copy()
    sampled = np.zeros_like(y)
    if displacement.formula is not None:
        sampled[idle] = displacement.node_values()[idle]
    del idle
    for _ in range(_CHORD_MAX_ITER):
        g_act = displacement.sample(rows[0])
        y_next = _sweep(rows[0], nodes, active, rows[2:], g_act)
        moved = y_next - rows[0]
        moved = row_max(np.abs(moved, out=moved))
        # a slow node keeps its iterate: its step becomes 0.0, so it retires below
        slow = np.flatnonzero((moved >= rows[1]) & (moved > 0.25 * tol))
        np.multiply(moved, _CHORD_SHRINK, out=rows[1])
        y_next[slow] = rows[0].take(slow, axis=0)
        moved[slow] = 0.0
        stop = float(np.max(moved, initial=0.0)) <= 0.25 * tol
        settled = moved == 0.0
        # the new iterates and their samples are named only by rows and the
        # store, so neither is held beside its compacted copy
        rows[0] = y_next
        store = [(y, y_next), (sampled, g_act)]
        del y_next, g_act, moved
        active = _drop_settled(store, active, settled, rows)
        if stop:
            break
    y[active] = rows[0]
    if len(active):
        sampled[active] = displacement.sample(rows[0])
    return y, sampled


def _invert_newton(displacement: DisplacementField, nodes: np.ndarray,
                   seed: np.ndarray, residual: np.ndarray, tol: float) -> tuple:
    """Damped Newton from ``seed`` on the nodes above ``tol``; returns ``(y, residual norms)``.

    ``residual = seed + g(seed) - nodes`` comes from the caller. A node
    drops out once its residual norm is at most ``tol``, and that norm is
    stored then, so the first pass differentiates only the nodes the sweeps
    left above the target. Each pass gathers the residual once per
    line-search trial, at the active nodes only, and keeps the accepted
    trial's residual for the next pass, so no pass gathers, differentiates
    or solves a retired node, and a singular Jacobian there is never met.
    """
    dim = displacement.grid.dim
    y = seed.copy()
    norms = row_max(np.abs(residual))
    active = np.arange(len(y))
    rows = [y, nodes, residual, norms]
    eye = np.eye(dim)
    for _ in range(_NEWTON_MAX_ITER):
        active = _drop_settled([(y, rows[0]), (norms, rows[3])], active, rows[3] <= tol, rows)
        if not len(active):
            break
        y_act, target, residual, res_norm = rows
        jac = displacement.jacobian_at(y_act) + eye
        try:
            step = np.linalg.solve(jac, residual[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise InversionError(f"Newton step hit a singular Jacobian: {exc}")
        scale = np.ones((y_act.shape[0], 1))
        # the accepted trial is the next iterate, with the residual it gathered;
        # after six halvings the step is taken whether or not it improves
        for halvings in range(7):
            trial = y_act - scale * step
            residual = trial + displacement.sample(trial) - target
            trial_norm = row_max(np.abs(residual))
            worse = trial_norm > res_norm
            if halvings == 6 or not np.any(worse):
                break
            scale[worse] *= 0.5
        rows = [trial, target, residual, trial_norm]
    y[active] = rows[0]
    norms[active] = rows[3]
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

    Every member takes one path. Chord sweeps
    ``y <- y - (I + dg(x))^-1 (y + g(y) - x)`` run at every node, seeded by
    the Newton step from ``y = x``, with matrices from the cached first
    derivatives; a node whose step does not shrink fourfold stops where it
    is (:func:`_invert_sweeps`). Damped Newton then runs only on the nodes
    whose residual is still above the target, and drops each once it meets
    it (:func:`_invert_newton`). Neither stage gathers every node at its
    end: the residual is built from the displacement each node's last sweep
    sampled, and Newton starts from it and returns its own norms.
    """
    grid = displacement.grid
    nodes = np.asarray(grid.nodes())
    tol = 1.0e-8 * (1.0 + grid.half_width)
    target = 1.0e-13 * (1.0 + grid.half_width)
    y, residual = _invert_sweeps(displacement, nodes, target)
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


def conjugate(outer: Diffeo, inner: Diffeo) -> tuple:
    """``outer^-1 o inner o outer``; the decay class of ``inner`` survives.

    Returns ``(member, info)``. The member's displacement is
    ``g + s + u(a + s)``, where ``g`` is the outer displacement at the
    nodes, ``a = nodes + g`` the outer node images, ``s`` the inner
    displacement gathered once at ``a`` and ``u`` the displacement of
    ``outer^-1``: the composite ``inner o outer`` is built from ``g + s`` as
    :func:`compose` builds it (with :func:`compose_nodes`'s overhang
    refusal), then composed with ``outer^-1``. ``info`` holds the expected
    and measured class, whether they agree, the classification report, and
    ``left_identity``, ``max |g + u(a)|``: the residual of ``outer^-1 o
    outer`` at the nodes, bit for bit ``max |compose_nodes(outer^-1, outer)|``.
    """
    _require_same_grid(outer, inner)
    outer_inverse = invert(outer)
    expected = inner.decay_class
    g_outer, a = _node_images(outer)
    # left unnamed so the composite and its derivative caches die with this call
    conj_disp = compose_nodes(outer_inverse, _composite(
        inner, outer, g_outer + inner.displacement.sample(a)))
    result = Diffeo(DisplacementField.from_nodes(outer.grid, conj_disp), expected)
    classification = classify_decay(result.displacement)
    measured = DecayClass(classification["inferred_class"])
    info = {
        "expected_class": expected.value,
        "measured_class": measured.value,
        "agrees": bool(expected.contains(measured)),
        "left_identity": float(np.max(np.abs(g_outer + outer_inverse.displacement.sample(a)))),
        "report": classification,
    }
    return result, info

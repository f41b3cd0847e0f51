import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import diffeoflow.fields as fields_module
import diffeoflow.group as group_module
from diffeoflow import (
    DecayClass,
    Diffeo,
    DisplacementField,
    FieldError,
    Grid,
    InversionError,
    NonDiffeoError,
    TimeDependentVectorField,
    UnderResolvedError,
    compose,
    conjugate,
    evolve,
    invert,
    membership_check,
    read_diffeo,
    write_displacement,
)
from diffeoflow.fields import GATHER_BLOCK, reads_only_zeros
from diffeoflow.group import DEFAULT_DET_THRESHOLD


def gaussian_diffeo(grid, amplitude=0.2, center=0.0, width=1.0):
    text = f"{amplitude}*exp(-((x-{center})/{width})^2)"
    return Diffeo.from_descriptor(grid, text, DecayClass.SCHWARTZ)


class TestMembership:
    def test_honest_schwartz_member(self, fine_grid):
        disp = DisplacementField.from_descriptor(fine_grid, "0.2*exp(-x^2)")
        ok, epsilon, report = membership_check(disp, DecayClass.SCHWARTZ)
        assert ok
        # min det = 1 - 0.4 x e^{-x^2} at x = 1/sqrt(2)
        expected = 1.0 - 0.4 / math.sqrt(2.0) * math.exp(-0.5)
        assert epsilon == pytest.approx(expected, abs=1e-3)
        assert abs(abs(report["epsilon_location"][0]) - 1.0 / math.sqrt(2.0)) < 0.05
        assert report["det_ok"] and report["class_ok"]
        assert report["measured_class"] == "Schwartz"

    def test_degenerate_jacobian_reported_not_raised(self, coarse_grid):
        disp = DisplacementField.from_descriptor(coarse_grid, "-x")
        ok, epsilon, report = membership_check(disp)
        assert not ok
        assert epsilon == pytest.approx(0.0, abs=1e-12)
        assert not report["det_ok"]
        assert report["notes"]

    def test_dishonest_class_claim_fails(self, fine_grid):
        disp = DisplacementField.from_descriptor(fine_grid, "0.3*tanh(x)")
        disp = disp.with_extrapolation("clamp")
        ok, _, report = membership_check(disp, DecayClass.SCHWARTZ)
        assert not ok
        assert report["det_ok"]
        assert report["class_ok"] is False
        assert any("not contained" in note for note in report["notes"])

    def test_accepts_diffeo_and_inherits_class(self, fine_grid):
        member = gaussian_diffeo(fine_grid)
        ok, _, report = membership_check(member)
        assert ok
        assert report["claimed_class"] == "Schwartz"

    def test_thin_margin_refused_at_every_entry(self, fine_grid, tmp_path):
        # g = -a x exp(-x^2) has det(I + dg) = 1 - a at the origin; scale a so
        # the measured margin is positive but below the fixed threshold
        unit = DisplacementField.from_descriptor(fine_grid, "-x*exp(-x^2)")
        slope = 1.0 - membership_check(unit)[1]
        disp = DisplacementField(fine_grid, unit.values * ((1.0 - 5.0e-7) / slope))
        ok, epsilon, report = membership_check(disp)
        assert 0.0 < epsilon < DEFAULT_DET_THRESHOLD
        assert not ok and not report["det_ok"]
        assert report["det_threshold"] == DEFAULT_DET_THRESHOLD
        with pytest.raises(NonDiffeoError):
            Diffeo(disp, DecayClass.SCHWARTZ)
        path = str(tmp_path / "thin.dff")
        write_displacement(path, disp, DecayClass.SCHWARTZ)
        with pytest.raises(NonDiffeoError):
            read_diffeo(path)


class TestDiffeoConstruction:
    def test_non_diffeo_rejected(self, fine_grid):
        with pytest.raises(NonDiffeoError):
            Diffeo.from_descriptor(fine_grid, "-2*x*exp(-x^2)", DecayClass.SCHWARTZ)

    def test_non_member_inspected_by_membership_check(self, fine_grid):
        disp = DisplacementField.from_descriptor(fine_grid, "-2*x*exp(-x^2)")
        ok, epsilon, report = membership_check(disp, DecayClass.SCHWARTZ)
        assert not ok
        assert epsilon < 0.0
        assert abs(report["epsilon_location"][0]) < 0.1  # worst point near the origin

    def test_class_alias_accepted(self, fine_grid):
        member = Diffeo.from_descriptor(fine_grid, "0.1*exp(-x^2)", "schwartz")
        assert member.decay_class is DecayClass.SCHWARTZ

    def test_extrapolation_follows_class(self, fine_grid):
        disp = DisplacementField.from_descriptor(fine_grid, "0.3*tanh(x)")
        member = Diffeo(disp, DecayClass.BOUNDED_ALL)
        assert member.displacement.extrapolation == "clamp"
        clamped = DisplacementField.from_descriptor(fine_grid, "0.1*exp(-x^2)")
        narrow = Diffeo(clamped.with_extrapolation("clamp"), DecayClass.SCHWARTZ)
        assert narrow.displacement.extrapolation == "zero"

    def test_identity(self, coarse_grid):
        member = Diffeo.identity(coarse_grid)
        assert member.epsilon == 1.0
        pts = np.array([[0.3], [-2.7]])
        assert np.array_equal(member.apply(pts), pts)

    def test_inferred_class_when_omitted(self, fine_grid):
        disp = DisplacementField.from_descriptor(fine_grid, "0.1*exp(-x^2)")
        member = Diffeo(disp)
        assert member.decay_class is DecayClass.SCHWARTZ

    def test_extrapolation_change_keeps_derivatives(self, plane_grid, monkeypatch):
        derived = []
        original = fields_module._d1

        def counting(values, axis, h):
            derived.append((axis, values))
            return original(values, axis, h)

        # a derivative is one _d1 per channel on the cached next-lower order, so a
        # first derivative is the one _d1 step applied to the member's own values
        monkeypatch.setattr(fields_module, "_d1", counting)
        # classified on the zero continuation, then re-read with clamp
        member = Diffeo.from_descriptor(plane_grid, "0.2*tanh(x/1.1), 0.15*tanh(y)")
        assert member.decay_class is DecayClass.BOUNDED_ALL
        assert member.displacement.extrapolation == "clamp"
        # one derivation per channel per axis: classify_decay's, reused by the margin
        firsts = [axis for axis, values in derived
                  if np.shares_memory(values, member.displacement.values)]
        assert firsts.count(0) == 2
        assert firsts.count(1) == 2
        assert len(firsts) == 4
        cached = member.displacement._derivatives
        assert set(cached) == {(1, 0), (0, 1)}
        assert all(d.extrapolation == "clamp" for d in cached.values())
        fresh = DisplacementField(plane_grid, member.displacement.values, "clamp")
        epsilon, location = group_module._det_margin(fresh)
        assert np.float64(member.epsilon).tobytes() == np.float64(epsilon).tobytes()
        assert member.epsilon_location == location
        for alpha, d in cached.items():
            assert np.array_equal(d.values, fresh.partial_derivative(alpha).values)


class TestCompose:
    def test_matches_pointwise_composition_at_nodes(self, fine_grid):
        outer = gaussian_diffeo(fine_grid, 0.15, 0.5)
        inner = gaussian_diffeo(fine_grid, 0.1, -0.5)
        combined = compose(outer, inner)
        nodes = np.asarray(fine_grid.nodes())
        direct = outer.apply(inner.apply(nodes))
        assert np.max(np.abs(combined.apply(nodes) - direct)) <= 1e-14

    def test_associativity_off_nodes(self, fine_grid, rng):
        f = gaussian_diffeo(fine_grid, 0.12, 0.8)
        g = gaussian_diffeo(fine_grid, 0.1, -0.3, 0.9)
        h = gaussian_diffeo(fine_grid, 0.08, 0.1, 1.1)
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        pts = rng.uniform(-4.0, 4.0, size=(400, 1))
        assert np.max(np.abs(lhs.apply(pts) - rhs.apply(pts))) <= 1e-6

    def test_widest_class_wins(self, fine_grid):
        narrow = gaussian_diffeo(fine_grid, 0.1)
        wide = Diffeo.from_descriptor(fine_grid, "0.2*tanh(x)", DecayClass.BOUNDED_ALL)
        for composite in (compose(narrow, wide), compose(wide, narrow)):
            assert composite.decay_class is DecayClass.BOUNDED_ALL
            assert composite.displacement.extrapolation == "clamp"

    def test_large_overhang_refused(self, coarse_grid):
        shift = Diffeo(
            DisplacementField.from_nodes(coarse_grid, np.ones_like(coarse_grid.nodes()), "clamp"),
            DecayClass.BOUNDED_ALL,
        )
        with pytest.raises(UnderResolvedError):
            compose(Diffeo.identity(coarse_grid), shift)

    def test_grid_mismatch(self, fine_grid, coarse_grid):
        with pytest.raises(FieldError):
            compose(Diffeo.identity(fine_grid), Diffeo.identity(coarse_grid))


class TestInvert:
    def test_round_trip_within_budget(self, fine_grid):
        member = gaussian_diffeo(fine_grid, 0.1)
        inverse = invert(member)
        nodes = np.asarray(fine_grid.nodes())
        forward = np.max(np.abs(member.apply(inverse.apply(nodes)) - nodes))
        backward = np.max(np.abs(inverse.apply(member.apply(nodes)) - nodes))
        assert forward <= 1e-7
        assert backward <= 1e-7
        assert inverse.decay_class is DecayClass.SCHWARTZ

    def test_newton_path_for_stiff_member(self, fine_grid):
        # max |g'| = 0.926 here, past the contraction cutoff for fixed point
        member = gaussian_diffeo(fine_grid, 1.08)
        inverse = invert(member)
        nodes = np.asarray(fine_grid.nodes())
        # forward direction is the solver's own residual promise
        assert np.max(np.abs(member.apply(inverse.apply(nodes)) - nodes)) <= 1e-7

    def test_identity_inverts_exactly(self, coarse_grid):
        inverse = invert(Diffeo.identity(coarse_grid))
        assert np.all(inverse.displacement.values == 0.0)

    def test_unreachable_tolerance_raises(self, coarse_grid, monkeypatch):
        # one chord sweep and no Newton step stall far above the promise
        monkeypatch.setattr(group_module, "_CHORD_MAX_ITER", 1)
        monkeypatch.setattr(group_module, "_NEWTON_MAX_ITER", 0)
        member = gaussian_diffeo(coarse_grid, 0.2)
        with pytest.raises(InversionError, match="stalled at residual"):
            invert(member)


def _full_sweep_sweeps(displacement, nodes, tol, max_iter, entries=None):
    """The sweeps before solved nodes dropped out: every node, every sweep.

    No node is skipped for reading only zeros, and the chord matrices are
    formed at every node. A chord node whose step is above ``tol / 4`` and
    not below ``_CHORD_SHRINK`` times its previous one (the seed step first)
    takes ``x - g(y)`` instead, and the identity as its matrix from then on.
    The displacement at the final iterate is a fresh gather of every node.
    """
    matrix = None
    if entries is not None:
        matrix = group_module._chord_matrix(entries, np.arange(len(nodes)))

    def times(vectors):
        columns = [row[:, 0] * vectors[:, 0] for row in matrix]
        for row, column in zip(matrix, columns):
            for j in range(1, vectors.shape[1]):
                column += row[:, j] * vectors[:, j]
        return np.stack(columns, axis=1)

    g = displacement.node_values()
    step = g if matrix is None else times(g)
    y = nodes - step
    previous = np.max(np.abs(step), axis=1)
    handed_back = np.zeros(len(nodes), dtype=bool)
    for _ in range(max_iter):
        g = displacement.sample(y)
        y_next = nodes - g if matrix is None else y - times(y + g - nodes)
        moved = np.max(np.abs(y_next - y), axis=1)
        if matrix is not None:
            slow = (~handed_back & (moved > 0.25 * tol)
                    & (moved >= group_module._CHORD_SHRINK * previous))
            y_next[slow] = nodes[slow] - g[slow]
            moved[slow] = np.max(np.abs(y_next[slow] - y[slow]), axis=1)
            handed_back |= slow
            for i, row in enumerate(matrix):
                row[slow] = np.eye(len(matrix))[i]
            previous = moved
        y = y_next
        if float(np.max(moved)) <= 0.25 * tol:
            break
    return y, displacement.sample(y)


def _full_sweep_newton(displacement, nodes, seed, residual, tol):
    """Newton before solved nodes dropped out: every node, every pass.

    It ignores the ``residual`` it is handed and gathers every node at the
    top of each pass, and once more at the end for the norms it returns,
    as the driver did before Newton started from the sweeps' residual.
    """
    dim = displacement.grid.dim
    y = seed.copy()
    eye = np.eye(dim)
    for _ in range(group_module._NEWTON_MAX_ITER):
        residual = y + displacement.sample(y) - nodes
        res_norm = np.max(np.abs(residual), axis=1)
        if float(np.max(res_norm)) <= tol:
            break
        jac = displacement.jacobian_at(y) + eye
        step = np.linalg.solve(jac, residual[..., None])[..., 0]
        scale = np.ones((y.shape[0], 1))
        for _ in range(6):
            trial = y - scale * step
            trial_norm = np.max(np.abs(trial + displacement.sample(trial) - nodes), axis=1)
            worse = trial_norm > res_norm
            if not np.any(worse):
                break
            scale[worse] *= 0.5
        y = y - scale * step
    return y, np.max(np.abs(y + displacement.sample(y) - nodes), axis=1)


def _two_newton_call_invert(diffeo):
    """The driver before its Newton stage had one call site.

    Newton ran straight after the seeding sweeps on the stiff branch and
    again, as a polish, whenever the residual check failed.
    """
    grid = diffeo.grid
    displacement = diffeo.displacement
    nodes = np.asarray(grid.nodes())
    tol = 1.0e-8 * (1.0 + grid.half_width)
    target = 1.0e-13 * (1.0 + grid.half_width)
    jac = displacement.jacobian_grid().reshape(grid.dim, grid.dim, -1)
    contraction = float(np.max(np.sqrt(np.sum(jac ** 2, axis=(0, 1)))))
    if contraction < group_module._FIXED_POINT_CONTRACTION:
        y = group_module._invert_sweeps(displacement, nodes, target,
                                        group_module._CHORD_MAX_ITER,
                                        displacement.jacobian_entries())[0]
    else:
        seed = group_module._invert_sweeps(displacement, nodes, target,
                                           group_module._FIXED_POINT_SEED_ITER)[0]
        y = group_module._invert_newton(displacement, nodes, seed,
                                        seed + displacement.sample(seed) - nodes, target)[0]
    residual = float(np.max(np.abs(y + displacement.sample(y) - nodes)))
    if residual > target:
        y = group_module._invert_newton(displacement, nodes, y,
                                        y + displacement.sample(y) - nodes, target)[0]
        residual = float(np.max(np.abs(y + displacement.sample(y) - nodes)))
    if residual > tol:
        raise InversionError(f"inverse solve stalled at residual {residual:.3e}")
    disp = DisplacementField.from_nodes(grid, y - nodes, displacement.extrapolation)
    return Diffeo(disp, diffeo.decay_class)


def _plain_fixed_point(displacement, nodes, tol, max_iter, entries=None):
    """The contracting branch before the chord: fixed-point sweeps ``y <- x - g(y)``
    from ``y = x - g(x)`` at every node, compacted as solved nodes drop out.

    ``entries`` is ignored.
    """
    y = nodes - displacement.node_values()
    sampled = np.empty_like(y)
    active, target, y_act = np.arange(len(y)), nodes, y
    for _ in range(max_iter):
        g_act = displacement.sample(y_act)
        y_next = target - g_act
        moved = np.max(np.abs(y_next - y_act), axis=1)
        y_act = y_next
        stop = float(np.max(moved, initial=0.0)) <= 0.25 * tol
        keep = np.flatnonzero(moved)
        if len(keep) < len(moved):
            done = np.flatnonzero(moved == 0.0)
            y[active[done]], sampled[active[done]] = y_act[done], g_act[done]
            active, y_act, target = active[keep], y_act[keep], target[keep]
        if stop:
            break
    y[active] = y_act
    if len(active):
        sampled[active] = displacement.sample(y_act)
    return y, sampled


def _counting_sample(monkeypatch):
    """Record the number of points of every ``DisplacementField.sample`` call."""
    gathered = []
    original = DisplacementField.sample

    def counting(self, points):
        gathered.append(np.size(points) // self.grid.dim)
        return original(self, points)

    monkeypatch.setattr(DisplacementField, "sample", counting)
    return gathered


SWIRL_2D = "-1.1*y*exp(-(x^2+y^2)/2), 1.1*x*exp(-(x^2+y^2)/2)"
PARITY_CASES = [
    (Grid(1, 8.0, 513), "0.2*exp(-(x-0.3)^2)", DecayClass.SCHWARTZ),
    (Grid(1, 8.0, 513), "1.08*exp(-x^2)", DecayClass.SCHWARTZ),
    (Grid(1, 8.0, 257), "0.3*tanh(x/1.3)", DecayClass.BOUNDED_ALL),
    (Grid(2, 8.0, 65), "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", DecayClass.SCHWARTZ),
    (Grid(2, 8.0, 65), "0.2*tanh(x/1.1), 0.15*tanh(y)", DecayClass.BOUNDED_ALL),
    (Grid(2, 8.0, 65), SWIRL_2D, DecayClass.SCHWARTZ),
    (Grid(2, 8.0, 65), SWIRL_2D + "+0.1*tanh(x)", DecayClass.BOUNDED_ALL),
    (Grid(3, 8.0, 21), "0.3*exp(-(x^2+y^2+z^2)/4), 0.2*exp(-(x^2+y^2+z^2)/4), 0",
     DecayClass.SCHWARTZ),
    (Grid(3, 8.0, 21), "0.2*tanh(x/2), 0, 0.1*tanh(z/2)", DecayClass.BOUNDED_ALL),
    # exactly zero outside a disc or ball, on spacings 1/6 and 2/3, which are
    # not powers of two: the nodes whose stencil reads only zeros are skipped
    (Grid(2, 8.0, 97), "0.6*bump(x/4,y/4), 0.4*bump((x-1)/4,y/4)", DecayClass.COMPACT_SUPPORT),
    (Grid(3, 8.0, 25), "0.5*bump(x/5,y/5,z/5), 0, -0.4*bump(x/5,(y-1)/5,z/5)",
     DecayClass.COMPACT_SUPPORT),
    # contracting, but the chord repels the iterates near x = 0.7
    (Grid(1, 8.0, 513), "0.8*exp(-x^2)", DecayClass.SCHWARTZ),
]
ZERO_TAIL_CASES = PARITY_CASES[-3:-1]
REPELLING_CHORD_CASE = PARITY_CASES[-1]


class TestInvertSolvedNodesDropOut:
    @pytest.mark.parametrize("grid, text, decay_class", PARITY_CASES)
    def test_matches_full_sweep_solvers(self, grid, text, decay_class, monkeypatch):
        member = Diffeo.from_descriptor(grid, text, decay_class)
        assert member.displacement.extrapolation == (
            "clamp" if decay_class is DecayClass.BOUNDED_ALL else "zero")
        got = invert(member).displacement.values
        monkeypatch.setattr(group_module, "_invert_sweeps", _full_sweep_sweeps)
        monkeypatch.setattr(group_module, "_invert_newton", _full_sweep_newton)
        want = invert(member).displacement.values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("grid, text, decay_class", PARITY_CASES)
    def test_matches_two_newton_call_driver(self, grid, text, decay_class):
        member = Diffeo.from_descriptor(grid, text, decay_class)
        got, want = invert(member), _two_newton_call_invert(member)
        assert np.array_equal(got.displacement.values, want.displacement.values)
        assert got.displacement.extrapolation == want.displacement.extrapolation
        assert got.decay_class is want.decay_class

    @pytest.mark.parametrize("grid, text, decay_class", PARITY_CASES)
    @pytest.mark.parametrize("sweeps", [group_module._FIXED_POINT_SEED_ITER,
                                        group_module._CHORD_MAX_ITER])
    def test_kept_samples_are_a_fresh_gather(self, grid, text, decay_class, sweeps):
        # the seed sweeps of the Newton branch, and the chord branch's sweeps
        displacement = Diffeo.from_descriptor(grid, text, decay_class).displacement
        nodes = np.asarray(grid.nodes())
        entries = (displacement.jacobian_entries() if sweeps == group_module._CHORD_MAX_ITER
                   else None)
        y, sampled = group_module._invert_sweeps(displacement, nodes, 1.0e-13, sweeps, entries)
        assert sampled.tobytes() == displacement.sample(y).tobytes()

    def test_residual_gathers_only_moving_nodes(self, monkeypatch):
        grid, text, decay_class = PARITY_CASES[3]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        gathered = _counting_sample(monkeypatch)
        invert(member)
        assert 0 < gathered[-1] < grid.node_count

    def test_newton_gathers_no_whole_grid(self, monkeypatch):
        # the 65^2 swirl takes the Newton branch; its first residual is the
        # sweeps' and its final norms are its own, so only the sweeps span the grid
        grid, text, decay_class = PARITY_CASES[5]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        want = _two_newton_call_invert(member).displacement.values.tobytes().hex()
        monkeypatch.setattr(group_module, "_invert_sweeps", _full_sweep_sweeps)
        monkeypatch.setattr(group_module, "_invert_newton", _full_sweep_newton)
        full_sweeps = invert(member).displacement.values.tobytes().hex()
        monkeypatch.undo()
        gathered, newton_from = _counting_sample(monkeypatch), []
        original = group_module._invert_newton

        def newton(*args):
            newton_from.append(len(gathered))
            return original(*args)

        monkeypatch.setattr(group_module, "_invert_newton", newton)
        got = invert(member).displacement.values.tobytes().hex()
        (start,) = newton_from
        assert gathered[:start] and max(gathered[:start]) == grid.node_count
        assert gathered[start:] and max(gathered[start:]) < grid.node_count
        assert got == want == full_sweeps

    def test_swirl_takes_the_newton_branch(self):
        grid = Grid(2, 8.0, 65)
        jac = Diffeo.from_descriptor(grid, SWIRL_2D, DecayClass.SCHWARTZ).displacement
        frob = np.sqrt(np.sum(jac.jacobian_grid() ** 2, axis=(0, 1)))
        assert float(np.max(frob)) >= group_module._FIXED_POINT_CONTRACTION

    def test_gathers_fewer_points_than_full_sweeps(self, monkeypatch):
        grid = Grid(2, 8.0, 65)
        member = Diffeo.from_descriptor(grid, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)",
                                        DecayClass.SCHWARTZ)
        gathered = _counting_sample(monkeypatch)
        invert(member)
        sweeps = len(gathered)
        assert sweeps >= 3
        assert sum(gathered) < 0.75 * sweeps * grid.node_count

    @pytest.mark.parametrize("grid, text, decay_class", ZERO_TAIL_CASES)
    def test_nodes_reading_only_zeros_are_never_gathered(self, grid, text, decay_class,
                                                         monkeypatch):
        member = Diffeo.from_descriptor(grid, text, decay_class)
        idle = reads_only_zeros(member.displacement)
        assert 0 < np.count_nonzero(idle) < grid.node_count
        nodes = np.asarray(grid.nodes())
        # the skipped gathers read +0.0, sign bit included
        assert np.zeros(grid.dim).tobytes() * int(np.count_nonzero(idle)) == (
            member.displacement.sample(nodes[idle]).tobytes())
        gathered = _counting_sample(monkeypatch)
        invert(member)
        assert gathered[0] == grid.node_count - np.count_nonzero(idle)
        assert max(gathered) == gathered[0]

    def test_singular_jacobian_at_solved_node_is_skipped(self):
        # g = x^3 - x near the origin: the origin node is solved by its seed
        # (g(0) = 0) and det(I + dg) = 3x^2 vanishes there and nowhere else
        grid = Grid(1, 8.0, 65)
        nodes = np.asarray(grid.nodes())
        disp = DisplacementField.from_nodes(
            grid, np.where(np.abs(nodes) <= 1.0, nodes ** 3 - nodes, 0.0))
        origin = int(np.argmin(np.abs(nodes[:, 0])))
        assert nodes[origin, 0] == 0.0
        assert disp.jacobian_at(nodes[origin])[0, 0] == -1.0
        seed = nodes - disp.node_values()
        residual = seed + disp.sample(seed) - nodes
        y, norms = group_module._invert_newton(disp, nodes, seed, residual, 1.0e-12)
        assert y[origin, 0] == 0.0
        assert np.array_equal(norms, np.max(np.abs(y + disp.sample(y) - nodes), axis=1))
        assert np.max(norms) <= 1.0e-12
        with pytest.raises(np.linalg.LinAlgError):
            _full_sweep_newton(disp, nodes, seed, residual, 1.0e-12)


class TestChordInvert:
    def test_final_rotation_snapshot_in_few_gathers(self, monkeypatch):
        # the flow-2d member at its largest speed and narrowest width
        envelope = "0.36*exp(-(x/0.9)^2)*exp(-(y/0.9)^2)"
        field = TimeDependentVectorField.from_descriptor(
            2, f"-y*{envelope}, x*{envelope}", DecayClass.SCHWARTZ)
        grid = Grid(2, 8.0, 129)
        flow = evolve(field, 1.0, 0.0625, grid)
        member = Diffeo(flow.snapshot(len(flow.times) - 1), DecayClass.SCHWARTZ)
        gathered = _counting_sample(monkeypatch)
        inverse = invert(member)
        assert len(gathered) <= 12
        monkeypatch.undo()
        nodes = np.asarray(grid.nodes())
        y = nodes + inverse.displacement.node_values()
        target = 1.0e-13 * (1.0 + grid.half_width)
        assert float(np.max(np.abs(y + member.displacement.sample(y) - nodes))) <= target

    def test_repelling_chord_nodes_fall_back_to_the_fixed_point(self, monkeypatch):
        # at x ~ 0.7 the chord rate |dg(x) - dg(y*)| / |1 + dg(x)| is about 2.6,
        # though max |dg| = 0.69 keeps the fixed point contracting
        grid, text, decay_class = REPELLING_CHORD_CASE
        member = Diffeo.from_descriptor(grid, text, decay_class)
        gathered = _counting_sample(monkeypatch)
        inverse = invert(member)
        chord = len(gathered)
        gathered.clear()
        monkeypatch.setattr(group_module, "_invert_sweeps", _plain_fixed_point)
        invert(member)
        assert chord <= len(gathered)
        monkeypatch.undo()
        nodes = np.asarray(grid.nodes())
        y = nodes + inverse.displacement.node_values()
        target = 1.0e-13 * (1.0 + grid.half_width)
        assert float(np.max(np.abs(y + member.displacement.sample(y) - nodes))) <= target

    def test_memory_stays_near_fixed_point_sweeps(self, monkeypatch):
        grid = Grid(2, 8.0, 257)
        member = Diffeo.from_descriptor(grid, "0.2*tanh(x/1.1), 0.15*tanh(y)",
                                        DecayClass.BOUNDED_ALL)

        def peak():
            invert(member)  # derivative and node caches filled outside the trace
            tracemalloc.start()
            try:
                invert(member)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chord = peak()
        monkeypatch.setattr(group_module, "_invert_sweeps", _plain_fixed_point)
        assert chord <= peak() + 0.5 * 2 ** 20

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_chord_matrix_inverts_identity_plus_jacobian(self, dim, rng):
        jac = rng.uniform(-0.3, 0.3, size=(dim, dim, 5))
        rows = np.array([4, 0, 2])
        got = np.stack(group_module._chord_matrix([list(row) for row in jac], rows), axis=1)
        want = np.linalg.inv(np.moveaxis(jac, -1, 0)[rows] + np.eye(dim))
        assert np.allclose(got, want, rtol=0.0, atol=1.0e-14)


class TestConjugate:
    def test_schwartz_class_survives_bounded_outer(self, fine_grid):
        # tanh saturated well inside the box, so clamp reads stay accurate
        outer = Diffeo.from_descriptor(fine_grid, "0.2*tanh((x-0.3)/1.1)",
                                       DecayClass.BOUNDED_ALL)
        inner = gaussian_diffeo(fine_grid, 0.1)
        result, info = conjugate(outer, inner, diagnostics=True)
        assert result.decay_class is DecayClass.SCHWARTZ
        assert info["expected_class"] == "Schwartz"
        assert info["agrees"]
        assert info["measured_class"] == "Schwartz"
        assert info["decomposition_residual"] <= 5e-7
        assert info["bracket_gap"] <= 5e-8

    def test_plain_call_returns_member_only(self, fine_grid):
        outer = gaussian_diffeo(fine_grid, 0.1, 1.0)
        inner = gaussian_diffeo(fine_grid, 0.1, -1.0)
        result = conjugate(outer, inner)
        assert isinstance(result, Diffeo)
        nodes = np.asarray(fine_grid.nodes())
        direct = invert(outer).apply(inner.apply(outer.apply(nodes)))
        assert np.max(np.abs(result.apply(nodes) - direct)) <= 1e-8


def _regathering_conjugate(outer, inner):
    """Conjugation as it once ran: ``compose`` builds the composite; ``a``, ``s`` re-gathered."""
    grid = outer.grid
    outer_inverse = invert(outer)
    expected = inner.decay_class
    conj_disp = group_module.compose_nodes(outer_inverse, compose(inner, outer))
    result = Diffeo(DisplacementField.from_nodes(grid, conj_disp), expected)
    classification = group_module.classify_decay(result.displacement)
    measured = classification.inferred_class
    nodes = np.asarray(grid.nodes())
    a = outer.apply(nodes)
    s = inner.displacement.sample(a)
    u = outer_inverse.displacement
    bracket = u.sample(a + s) - u.sample(a)
    quad_w = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0
    integral = np.zeros_like(bracket)
    for t, w in zip(np.linspace(0.0, 1.0, 9), quad_w):
        integral += w * np.einsum("nij,nj->ni", u.jacobian_at(a + t * s), s)
    info = {
        "expected_class": expected.value,
        "measured_class": measured.value,
        "agrees": bool(expected.contains(measured)),
        "bracket_gap": float(np.max(np.abs(bracket - integral))),
        "decomposition_residual": float(np.max(np.abs(conj_disp - (s + bracket)))),
        "report": classification.to_dict(),
    }
    return result, info


def _moved_rows(outer, inner) -> np.ndarray:
    """The node rows whose conjugation end point ``a + s`` is not ``a``."""
    a = np.asarray(outer.grid.nodes()) + outer.displacement.node_values()
    s = inner.displacement.sample(a)
    return np.flatnonzero(np.any(a + s != a, axis=1))


CONJUGATE_CASES = [
    (Grid(1, 8.0, 513), "0.2*tanh((x-0.3)/1.1)", "0.1*exp(-x^2)"),
    (Grid(2, 8.0, 129), "0.2*tanh(x/1.1), 0.15*tanh(y)",
     "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)"),
    (Grid(2, 8.0, 257), "0.2*tanh(x/1.1), 0.15*tanh(y)",
     "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)"),
]


def _jacobian_at_sizes(monkeypatch, outer, inner) -> list:
    """The point count of each ``jacobian_at`` call of one diagnostic conjugation."""
    sizes = []
    original = DisplacementField.jacobian_at

    def recording(self, points):
        sizes.append(len(points))
        return original(self, points)

    with monkeypatch.context() as patch:
        patch.setattr(DisplacementField, "jacobian_at", recording)
        conjugate(outer, inner, diagnostics=True)
    return sizes


class TestConjugateSharesGathers:
    @pytest.mark.parametrize("grid, outer_text, inner_text", CONJUGATE_CASES)
    def test_matches_regathering_conjugate(self, grid, outer_text, inner_text,
                                           monkeypatch):
        outer = Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL)
        inner = Diffeo.from_descriptor(grid, inner_text, DecayClass.SCHWARTZ)
        calls = []
        original = DisplacementField.sample

        def counting(self, points):
            calls.append(np.size(points))
            return original(self, points)

        monkeypatch.setattr(DisplacementField, "sample", counting)
        sizes = _jacobian_at_sizes(monkeypatch, outer, inner)
        exact = sum(sizes[::9])
        assert sizes == [n for n in sizes[::9] for _ in range(9)]
        calls.clear()
        got, got_info = conjugate(outer, inner, diagnostics=True)
        got_points = sum(calls)
        want, want_info = _regathering_conjugate(outer, inner)
        want_points = sum(calls) - got_points
        # two whole-node gathers fewer, the composite's and the diagnostics' s;
        # the bound's bracket gathers skip every still row, and each row whose
        # gap is computed exactly gathers its bracket once more
        still = grid.node_count - len(_moved_rows(outer, inner))
        assert got_points == want_points - 2 * (grid.node_count + still - exact) * grid.dim
        assert got.displacement.values.tobytes() == want.displacement.values.tobytes()
        assert got.decay_class is want.decay_class
        assert got_info == want_info

    def test_overhang_still_refused(self, coarse_grid):
        shift = Diffeo(
            DisplacementField.from_nodes(coarse_grid, np.ones_like(coarse_grid.nodes()), "clamp"),
            DecayClass.BOUNDED_ALL,
        )
        with pytest.raises(UnderResolvedError):
            conjugate(shift, Diffeo.identity(coarse_grid))


class TestConjugateStillRows:
    """A still row, ``fl(a + s) == a``, reads no bracket gather for its bound; the bits stay."""

    @staticmethod
    def _assert_matches_oracle(outer, inner):
        got, got_info = conjugate(outer, inner, diagnostics=True)
        want, want_info = _regathering_conjugate(outer, inner)
        assert got.displacement.values.tobytes() == want.displacement.values.tobytes()
        assert got_info["bracket_gap"].hex() == want_info["bracket_gap"].hex()
        assert got_info == want_info

    def test_inner_that_moves_no_row(self, monkeypatch):
        grid, outer_text, _ = CONJUGATE_CASES[1]
        outer = Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL)
        inner = Diffeo(DisplacementField.zero(grid), DecayClass.SCHWARTZ)
        assert _moved_rows(outer, inner).size == 0
        # every gap is +0.0 and every bound the smallest normal float, above
        # it, so no row is skipped: the first rows, then the rest in one block
        first = group_module._BRACKET_FIRST_ROWS
        assert grid.node_count - first <= GATHER_BLOCK
        assert (_jacobian_at_sizes(monkeypatch, outer, inner)
                == [first] * 9 + [grid.node_count - first] * 9)
        self._assert_matches_oracle(outer, inner)

    def test_bounded_inner_that_moves_almost_every_row(self, monkeypatch):
        grid = Grid(1, 8.0, 513)
        outer = Diffeo.from_descriptor(grid, "0.2*tanh((x-0.3)/1.1)", DecayClass.BOUNDED_ALL)
        # below x = -7.65 the inner displacement is under half an ulp of the image
        inner = Diffeo.from_descriptor(grid, "0.1*(1+tanh(10*(x+6)))", DecayClass.BOUNDED_ALL)
        moved = _moved_rows(outer, inner).size
        assert 0.9 * grid.node_count < moved < grid.node_count
        # 513 rows are fewer than the first-phase count, so all are exact
        assert grid.node_count <= group_module._BRACKET_FIRST_ROWS
        assert _jacobian_at_sizes(monkeypatch, outer, inner) == [grid.node_count] * 9
        self._assert_matches_oracle(outer, inner)

    def test_inner_that_moves_every_row(self, monkeypatch):
        grid = Grid(1, 8.0, 513)
        outer = Diffeo.from_descriptor(grid, "0.2*tanh((x-0.3)/1.1)", DecayClass.BOUNDED_ALL)
        inner = Diffeo.from_descriptor(grid, "0.1*tanh(x)", DecayClass.BOUNDED_ALL)
        assert _moved_rows(outer, inner).size == grid.node_count
        assert _jacobian_at_sizes(monkeypatch, outer, inner) == [grid.node_count] * 9
        self._assert_matches_oracle(outer, inner)

    def test_negative_zero_node_images(self, monkeypatch):
        grid, outer_text, _ = CONJUGATE_CASES[1]
        outer = Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL)
        # the first component is exactly zero, so a row whose image has
        # x = -0.0 stays still in x, and moves when its y does
        inner = Diffeo.from_descriptor(grid, "0, 0.1*exp(-x^2-y^2)", DecayClass.SCHWARTZ)
        original = group_module._node_images

        def negative_zeros(member):
            g_values, images = original(member)
            return g_values, np.where(images == 0.0, -0.0, images)

        monkeypatch.setattr(group_module, "_node_images", negative_zeros)
        a = negative_zeros(outer)[1]
        negative = np.any(np.signbit(a) & (a == 0.0), axis=1)
        moved = np.zeros(grid.node_count, dtype=bool)
        moved[_moved_rows(outer, inner)] = True
        assert np.any(negative & moved) and np.any(negative & ~moved)
        self._assert_matches_oracle(outer, inner)

    def test_planted_jacobian_fault_on_moved_rows_is_seen(self, fine_grid, monkeypatch):
        """The case of ``test_schwartz_class_survives_bounded_outer``, its moved rows faulted."""
        outer = Diffeo.from_descriptor(fine_grid, "0.2*tanh((x-0.3)/1.1)",
                                       DecayClass.BOUNDED_ALL)
        inner = gaussian_diffeo(fine_grid, 0.1)
        a = np.asarray(fine_grid.nodes()) + outer.displacement.node_values()
        moved = _moved_rows(outer, inner)
        assert 0 < moved.size < fine_grid.node_count
        still_points = {p.tobytes() for p in np.delete(a, moved, axis=0)}
        original = DisplacementField.jacobian_at

        def faulty(self, points):
            jac = original(self, points)
            hit = [p.tobytes() not in still_points for p in np.asarray(points)]
            jac[hit] *= 1.0 + 1.0e-3
            return jac

        _, info = conjugate(outer, inner, diagnostics=True)
        assert info["bracket_gap"] <= 5e-8
        monkeypatch.setattr(DisplacementField, "jacobian_at", faulty)
        _, info = conjugate(outer, inner, diagnostics=True)
        assert info["bracket_gap"] > 5e-8


def test_conjugate_diagnostics_run_in_row_blocks(monkeypatch):
    """The blocked bracket, quadrature and residual equal a whole-array oracle bit for bit."""
    grid, outer_text, inner_text = CONJUGATE_CASES[2]
    outer = Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL)
    inner = Diffeo.from_descriptor(grid, inner_text, DecayClass.SCHWARTZ)
    sizes = _jacobian_at_sizes(monkeypatch, outer, inner)
    result, info = conjugate(outer, inner, diagnostics=True)
    # 66,049 rows: the first-phase rows, then the rows whose bound reaches the
    # largest gap among those, each set in blocks read at all 9 quadrature nodes
    first = group_module._BRACKET_FIRST_ROWS
    assert sizes[:9] == [first] * 9
    rest = sizes[9::9]
    assert all(0 < n <= GATHER_BLOCK for n in rest)
    assert sizes[9:] == [n for n in rest for _ in range(9)]
    assert first + sum(rest) < grid.node_count // 4

    u = invert(outer).displacement
    a = np.asarray(grid.nodes()) + outer.displacement.node_values()
    s = inner.displacement.sample(a)
    bracket = u.sample(a + s) - u.sample(a)
    quad_w = np.array([1.0, 4.0, 2.0, 4.0, 2.0, 4.0, 2.0, 4.0, 1.0]) / 24.0
    integral = np.zeros_like(bracket)
    for t, w in zip(np.linspace(0.0, 1.0, 9), quad_w):
        integral += w * np.einsum("nij,nj->ni", u.jacobian_at(a + t * s), s)
    gap = float(np.max(np.abs(bracket - integral)))
    residual = float(np.max(np.abs(result.displacement.node_values() - (s + bracket))))
    assert info["bracket_gap"].hex() == gap.hex()
    assert info["decomposition_residual"].hex() == residual.hex()


TANH_OUTER_2D = "0.2*tanh(x/1.1), 0.15*tanh(y)"
BOUND_CASES = [
    pytest.param(Grid(2, 8.0, 257), TANH_OUTER_2D,
                 "0.08*exp(-(x+1)^2-(y-0.5)^2), -0.06*exp(-x^2-(y+1)^2)",
                 DecayClass.SCHWARTZ, id="257-gaussians"),
    pytest.param(Grid(2, 8.0, 257), TANH_OUTER_2D,
                 "0.1*bump(x/3, y/3), 0.05*bump((x-1)/2, y/2)",
                 DecayClass.COMPACT_SUPPORT, id="257-bump"),
    pytest.param(Grid(2, 8.0, 257), TANH_OUTER_2D,
                 "0.1*tanh((x-0.3)/2), 0.08*tanh((y+0.2)/1.5)",
                 DecayClass.BOUNDED_ALL, id="257-tanh"),
    pytest.param(Grid(1, 8.0, 513), "0.2*tanh((x-0.3)/1.1)", "0.1*exp(-(x+0.5)^2)",
                 DecayClass.SCHWARTZ, id="1d-513"),
    pytest.param(Grid(3, 8.0, 33), "0.2*tanh(x/1.1), 0.15*tanh(y), 0.1*tanh(z/1.3)",
                 "0.1*exp(-x^2-y^2-z^2), 0.05*exp(-(x-1)^2-y^2-z^2), "
                 "0.04*exp(-x^2-(y+1)^2-z^2)",
                 DecayClass.SCHWARTZ, id="3d-33"),
]


class TestConjugateBoundSkip:
    """A row whose certified gap bound is below the largest gap found is never gathered."""

    @staticmethod
    def _members(grid, outer_text, inner_text, inner_class):
        return (Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL),
                Diffeo.from_descriptor(grid, inner_text, inner_class))

    @pytest.mark.parametrize("grid, outer_text, inner_text, inner_class", BOUND_CASES)
    def test_any_first_phase_count_matches_the_oracle(self, grid, outer_text, inner_text,
                                                      inner_class, monkeypatch):
        outer, inner = self._members(grid, outer_text, inner_text, inner_class)
        want, want_info = _regathering_conjugate(outer, inner)
        for count in (1, group_module._BRACKET_FIRST_ROWS, grid.node_count):
            monkeypatch.setattr(group_module, "_BRACKET_FIRST_ROWS", count)
            got, got_info = conjugate(outer, inner, diagnostics=True)
            assert got.displacement.values.tobytes() == want.displacement.values.tobytes()
            assert got_info["bracket_gap"].hex() == want_info["bracket_gap"].hex()
            assert (got_info["decomposition_residual"].hex()
                    == want_info["decomposition_residual"].hex())
            assert got_info == want_info

    def test_cases_reach_both_ends_of_the_skip(self):
        moved = {}
        for case in BOUND_CASES:
            grid, *texts = case.values
            moved[case.id] = _moved_rows(*self._members(grid, *texts)).size / grid.node_count
        assert Grid(2, 8.0, 257).node_count > 2 * GATHER_BLOCK
        # the compact inner leaves most rows still; the tanh inner moves every row
        assert moved["257-bump"] < 0.5
        assert moved["257-tanh"] == 1.0
        assert 0.0 < moved["257-gaussians"] < 1.0

    def test_jacobian_at_gathers_fewer_points(self, monkeypatch):
        grid, outer_text, inner_text = CONJUGATE_CASES[2]
        outer, inner = self._members(grid, outer_text, inner_text, DecayClass.SCHWARTZ)
        # a still/moved split alone reads every row at t = 0 and the moved rows
        # at the eight nodes t > 0
        split = grid.node_count + 8 * _moved_rows(outer, inner).size
        assert 2 * sum(_jacobian_at_sizes(monkeypatch, outer, inner)) < split

    def test_planted_sample_fault_on_a_tail_row_is_seen(self, monkeypatch):
        grid, outer_text, inner_text = CONJUGATE_CASES[1]
        outer, inner = self._members(grid, outer_text, inner_text, DecayClass.SCHWARTZ)
        a = np.asarray(grid.nodes()) + outer.displacement.node_values()
        s = inner.displacement.sample(a)
        moved = _moved_rows(outer, inner)
        # the moved row farthest out, whose bracket the clean run never re-reads
        end = (a + s)[moved[np.argmax(np.max(np.abs(a[moved]), axis=1))]]
        points = []
        original_jacobian = DisplacementField.jacobian_at

        def recording(self, pts):
            points.append(np.asarray(pts))
            return original_jacobian(self, pts)

        with monkeypatch.context() as patch:
            patch.setattr(DisplacementField, "jacobian_at", recording)
            _, clean = conjugate(outer, inner, diagnostics=True)
        assert not np.any(np.all(np.concatenate(points) == end, axis=1))
        original_sample = DisplacementField.sample

        def faulty(self, pts):
            out = original_sample(self, pts)
            out[np.all(np.asarray(pts) == end, axis=-1)] += 1.0e-3
            return out

        monkeypatch.setattr(DisplacementField, "sample", faulty)
        _, info = conjugate(outer, inner, diagnostics=True)
        _, want_info = _regathering_conjugate(outer, inner)
        assert clean["bracket_gap"] < 1.0e-4 < info["bracket_gap"]
        assert info["bracket_gap"].hex() == want_info["bracket_gap"].hex()


def test_stencil_lebesgue_constant_bounds_the_interpolation_weights():
    """Each axis's weights have sum |w| <= the constant: inner, face and clipped points."""
    grid = Grid(1, 8.0, 65)
    h, half = grid.spacing, grid.half_width
    t = np.linspace(0.0, 1.0, 4001)
    worst_face = (1.0 - math.sqrt(7.0)) / 3.0
    inner = -half + h * (5.0 + t)
    faces = np.concatenate([-half + h * t, half - h * t, [-half + h * (1.0 + worst_face)]])
    clipped = np.array([-1.0e3, -half - 0.3, -half - h, half + h, half + 0.3, 1.0e3])
    sums = []
    for points in (inner, faces, clipped):
        m = len(points)
        scratch = (np.empty((5, 1, m)), np.empty((1, 4, m)), np.empty((1, m), dtype=np.int64))
        _, weights = fields_module._interp_stencil(grid, points.reshape(-1, 1), *scratch, [1])
        assert np.allclose(weights[0].sum(axis=0), 1.0, rtol=0.0, atol=1.0e-14)
        sums.append(np.abs(weights[0]).sum(axis=0))
    lebesgue = group_module._STENCIL_LEBESGUE
    assert lebesgue == pytest.approx(1.6311303094409, abs=1.0e-12)
    assert np.max(sums[0]) <= 1.25 < lebesgue
    assert np.max(sums[0]) == pytest.approx(1.25, abs=1.0e-12)
    assert np.max(sums[1]) <= lebesgue
    assert np.max(sums[1]) == pytest.approx(lebesgue, abs=1.0e-12)
    assert np.max(sums[2]) <= lebesgue


@pytest.mark.parametrize("dim, points", [(1, 257), (1, 513), (2, 65), (2, 129),
                                         (2, 257), (3, 33)])
@pytest.mark.parametrize("decay_class", [DecayClass.SCHWARTZ, DecayClass.BOUNDED_ALL])
def test_node_reads_are_exact_on_dyadic_spacing(dim, points, decay_class):
    """Sampling at the nodes returns the node values bit for bit when h is a power of two."""
    grid = Grid(dim, 8.0, points)
    values = np.random.default_rng(points + dim).uniform(-1.0e-3, 1.0e-3,
                                                         (dim,) + grid.shape)
    member = Diffeo(DisplacementField(grid, values), decay_class)
    nodes = np.asarray(grid.nodes())
    got = member.apply(nodes)
    assert got.tobytes() == (nodes + member.displacement.node_values()).tobytes()


@given(amplitude=st.floats(min_value=0.02, max_value=0.08),
       center=st.floats(min_value=-1.0, max_value=1.0))
def test_inverse_neutralizes_member(amplitude, center):
    grid = Grid(1, 8.0, 513)
    member = gaussian_diffeo(grid, amplitude, center)
    inverse = invert(member)
    nodes = np.asarray(grid.nodes())
    assert np.max(np.abs(compose(member, inverse).apply(nodes) - nodes)) <= 1e-7
    assert np.max(np.abs(compose(inverse, member).apply(nodes) - nodes)) <= 1e-7

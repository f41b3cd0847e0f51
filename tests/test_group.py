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
from diffeoflow.fields import reads_only_zeros
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

        # a derivative is one _d1 over the channel stack of the cached next-lower order,
        # so a first derivative is the one _d1 step applied to the member's own values
        monkeypatch.setattr(fields_module, "_d1", counting)
        # classified on the zero continuation, as classify --input classifies a file
        # without a class hint, then re-read with clamp
        disp = DisplacementField.from_descriptor(plane_grid, "0.2*tanh(x/1.1), 0.15*tanh(y)")
        member = Diffeo(disp, group_module.classify_decay(disp)["inferred_class"])
        assert member.decay_class is DecayClass.BOUNDED_ALL
        assert member.displacement.extrapolation == "clamp"
        # one derivation per axis: classify_decay's, reused by the margin
        firsts = [axis for axis, values in derived
                  if np.shares_memory(values, member.displacement.values)]
        assert firsts.count(0) == 1
        assert firsts.count(1) == 1
        assert len(firsts) == 2
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
        # max |g'| = 0.926 here, so the chord leaves nodes to Newton
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


def _full_sweep_sweeps(displacement, nodes, tol):
    """The sweeps before solved nodes dropped out: chord at every node, every sweep.

    No node is skipped for reading only zeros, and the chord matrices are
    formed at every node. A node whose step is above ``tol / 4`` and not
    below ``_CHORD_SHRINK`` times its previous one (the seed step first) is
    frozen at its iterate from then on, with a step of 0.0. The displacement
    at the final iterate is a fresh gather of every node.
    """
    matrix = group_module._chord_matrix(displacement.jacobian_entries(), np.arange(len(nodes)))

    def times(vectors):
        columns = [row[:, 0] * vectors[:, 0] for row in matrix]
        for row, column in zip(matrix, columns):
            for j in range(1, vectors.shape[1]):
                column += row[:, j] * vectors[:, j]
        return np.stack(columns, axis=1)

    step = times(displacement.node_values())
    y = nodes - step
    previous = np.max(np.abs(step), axis=1)
    frozen = np.zeros(len(nodes), dtype=bool)
    for _ in range(group_module._CHORD_MAX_ITER):
        y_next = y - times(y + displacement.sample(y) - nodes)
        moved = np.max(np.abs(y_next - y), axis=1)
        frozen |= (moved > 0.25 * tol) & (moved >= group_module._CHORD_SHRINK * previous)
        y_next[frozen] = y[frozen]
        moved[frozen] = 0.0
        previous = moved
        y = y_next
        if float(np.max(moved)) <= 0.25 * tol:
            break
    return y, displacement.sample(y)


def _full_sweep_newton(displacement, nodes, seed, residual, tol):
    """Newton before solved nodes dropped out: every node, every pass.

    It ignores the ``residual`` it is handed and gathers every node at the
    top of each pass, and once more at the end for the norms it returns.
    Each pass steps every node but moves only the nodes above ``tol``.
    """
    dim = displacement.grid.dim
    y = seed.copy()
    eye = np.eye(dim)
    for _ in range(group_module._NEWTON_MAX_ITER):
        residual = y + displacement.sample(y) - nodes
        res_norm = np.max(np.abs(residual), axis=1)
        above = ~(res_norm <= tol)
        if not np.any(above):
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
        y = np.where(above[:, None], y - scale * step, y)
    return y, np.max(np.abs(y + displacement.sample(y) - nodes), axis=1)


def _plain_fixed_point(displacement, nodes, tol):
    """The sweeps before the chord: up to ``_CHORD_MAX_ITER`` fixed-point sweeps
    ``y <- x - g(y)`` from ``y = x - g(x)`` at every node, compacted as solved
    nodes drop out.
    """
    y = nodes - displacement.node_values()
    sampled = np.empty_like(y)
    active, target, y_act = np.arange(len(y)), nodes, y
    for _ in range(group_module._CHORD_MAX_ITER):
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


def _left_to_newton(member):
    """The number of nodes the sweeps leave above the residual target."""
    displacement, grid = member.displacement, member.grid
    nodes = np.asarray(grid.nodes())
    target = 1.0e-13 * (1.0 + grid.half_width)
    y, sampled = group_module._invert_sweeps(displacement, nodes, target)
    return int(np.count_nonzero(np.max(np.abs(y + sampled - nodes), axis=1) > target))


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
    @pytest.mark.parametrize("sweeps", [8, group_module._CHORD_MAX_ITER])
    def test_kept_samples_are_a_fresh_gather(self, grid, text, decay_class, sweeps,
                                             monkeypatch):
        # sweeps is the sweep cap: at 8 the sweeps of most cases end with nodes
        # still moving, which the final gather reads; at the real cap they end at
        # the tol / 4 stop
        monkeypatch.setattr(group_module, "_CHORD_MAX_ITER", sweeps)
        displacement = Diffeo.from_descriptor(grid, text, decay_class).displacement
        nodes = np.asarray(grid.nodes())
        y, sampled = group_module._invert_sweeps(displacement, nodes, 1.0e-13)
        assert sampled.tobytes() == displacement.sample(y).tobytes()

    def test_residual_gathers_only_moving_nodes(self, monkeypatch):
        grid, text, decay_class = PARITY_CASES[3]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        gathered = _counting_sample(monkeypatch)
        invert(member)
        assert 0 < gathered[-1] < grid.node_count

    def test_newton_gathers_no_whole_grid(self, monkeypatch):
        # the 65^2 swirl leaves nodes to Newton; its first residual is the
        # sweeps' and its final norms are its own, so only the sweeps span the grid
        grid, text, decay_class = PARITY_CASES[5]
        member = Diffeo.from_descriptor(grid, text, decay_class)
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
        assert got == full_sweeps

    def test_swirl_leaves_nodes_to_newton(self):
        grid, text, decay_class = PARITY_CASES[5]
        assert _left_to_newton(Diffeo.from_descriptor(grid, text, decay_class)) > 0

    def test_newton_differentiates_only_the_nodes_left_above_the_target(self, monkeypatch):
        grid, text, decay_class = PARITY_CASES[5]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        left = _left_to_newton(member)
        assert 0 < left < grid.node_count // 8
        sizes = []
        original = DisplacementField.jacobian_at

        def recording(self, points):
            sizes.append(len(points))
            return original(self, points)

        monkeypatch.setattr(DisplacementField, "jacobian_at", recording)
        invert(member)
        assert sizes[0] == left
        assert sizes == sorted(sizes, reverse=True)

    def test_newton_gathers_each_trial_once(self, monkeypatch):
        # the accepted line-search trial is the next iterate, with the residual it
        # gathered; this member's passes include damped ones, so some take several trials
        grid, text, decay_class = PARITY_CASES[1]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        gathered, passes, inside = [], [], []
        sample, jacobian_at = DisplacementField.sample, DisplacementField.jacobian_at
        newton = group_module._invert_newton

        def recording_sample(self, points):
            if inside:
                gathered.append(np.asarray(points).tobytes())
            return sample(self, points)

        def recording_jacobian_at(self, points):
            passes.append(len(points))
            return jacobian_at(self, points)

        def recording_newton(*args):
            inside.append(True)
            return newton(*args)

        monkeypatch.setattr(DisplacementField, "sample", recording_sample)
        monkeypatch.setattr(DisplacementField, "jacobian_at", recording_jacobian_at)
        monkeypatch.setattr(group_module, "_invert_newton", recording_newton)
        invert(member)
        assert len(gathered) > len(passes) > 0
        assert len(set(gathered)) == len(gathered)

    def test_exhausted_line_search_takes_the_halved_step(self, monkeypatch):
        # the handed residual is a millionth of the true one, so all six trials are
        # worse than it: the pass takes the step halved six times and gathers it
        grid = Grid(1, 8.0, 65)
        disp = DisplacementField.from_descriptor(grid, "0.2*exp(-x^2)")
        nodes = np.asarray(grid.nodes())
        residual = 1.0e-6 * disp.node_values()
        monkeypatch.setattr(group_module, "_NEWTON_MAX_ITER", 1)
        gathered = _counting_sample(monkeypatch)
        y, norms = group_module._invert_newton(disp, nodes, nodes, residual, 0.0)
        assert gathered == [grid.node_count] * 7
        step = np.linalg.solve(disp.jacobian_at(nodes) + np.eye(1), residual[..., None])[..., 0]
        assert np.array_equal(y, nodes - np.full((grid.node_count, 1), 0.5 ** 6) * step)
        assert np.array_equal(norms, np.max(np.abs(y + disp.sample(y) - nodes), axis=1))

    @pytest.mark.parametrize("grid, text", [
        (Grid(2, 8.0, 129), SWIRL_2D.replace("1.1", "1.4")),
        # det(I + dg) = 1 - 1.16 sqrt(2/e) = 0.005 at x = 1/sqrt(2)
        (Grid(1, 8.0, 513), "1.16*exp(-x^2)"),
    ])
    def test_members_past_the_old_switch_invert_to_the_target(self, grid, text):
        # max |dg|_F > 0.9, where the fixed point y <- x - g(y) need not contract
        member = Diffeo.from_descriptor(grid, text, DecayClass.SCHWARTZ)
        entries = member.displacement.jacobian_entries()
        assert np.max(np.sqrt(sum(e ** 2 for row in entries for e in row))) > 0.9
        assert _left_to_newton(member) > 0
        u, residuals = group_module.solve_inverse(member.displacement)
        nodes = np.asarray(grid.nodes())
        target = 1.0e-13 * (1.0 + grid.half_width)
        assert float(np.max(residuals)) <= target
        y = nodes + u
        assert float(np.max(np.abs(y + member.displacement.sample(y) - nodes))) <= target

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
        # the skipped gathers of a grid member read +0.0, sign bit included
        on_grid = DisplacementField.from_nodes(grid, member.displacement.node_values())
        assert np.zeros(grid.dim).tobytes() * int(np.count_nonzero(idle)) == (
            on_grid.sample(nodes[idle]).tobytes())
        gathered = _counting_sample(monkeypatch)
        invert(member)
        assert gathered[0] == grid.node_count - np.count_nonzero(idle)
        assert max(gathered) == gathered[0]

    @pytest.mark.parametrize("grid, text, decay_class", ZERO_TAIL_CASES)
    def test_skipped_nodes_keep_the_bits_of_a_fresh_sample(self, grid, text, decay_class):
        # a formula reads each skipped node's own +-0.0, a gather +0.0; the sweeps
        # keep whichever the member's sample returns
        formula = Diffeo.from_descriptor(grid, text, decay_class).displacement
        on_grid = DisplacementField.from_nodes(grid, formula.node_values())
        idle = reads_only_zeros(formula)
        nodes = np.asarray(grid.nodes())
        assert formula.sample(nodes[idle]).tobytes() == formula.node_values()[idle].tobytes()
        # the 3-D case's -0.4*bump channel reads -0.0 where the bump vanishes
        assert np.any(np.signbit(formula.node_values()[idle])) == (grid.dim == 3)
        for displacement in (formula, on_grid):
            y, sampled = group_module._invert_sweeps(displacement, nodes, 1.0e-13)
            assert np.array_equal(y[idle], nodes[idle])
            assert sampled[idle].tobytes() == displacement.sample(nodes[idle]).tobytes()

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


class TestFormulaInverse:
    def test_3d_gaussian_reaches_the_residual_target(self):
        # 146 face nodes solve y + g(y) = x just off the box, where the zero
        # continuation of an interpolant reads 0; the formula reads g there
        grid, text, decay_class = PARITY_CASES[7]
        member = Diffeo.from_descriptor(grid, text, decay_class)
        _, residuals = group_module.solve_inverse(member.displacement)
        assert float(np.max(residuals)) <= 1.0e-13 * (1.0 + grid.half_width)

    def test_257_gaussian_inverse_is_newton_on_the_formula(self):
        grid = Grid(2, 8.0, 257)
        member = Diffeo.from_descriptor(grid, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)",
                                        DecayClass.SCHWARTZ)
        u = invert(member).displacement.node_values()
        nodes = np.asarray(grid.nodes())

        def g_and_jacobian(p):
            x, y = p[:, 0], p[:, 1]
            e0, e1 = 0.1 * np.exp(-x ** 2 - y ** 2), 0.05 * np.exp(-(x - 1) ** 2 - y ** 2)
            jac = np.empty((len(p), 2, 2))
            jac[:, 0, 0], jac[:, 0, 1] = -2 * x * e0, -2 * y * e0
            jac[:, 1, 0], jac[:, 1, 1] = -2 * (x - 1) * e1, -2 * y * e1
            return np.stack([e0, e1], axis=1), jac

        y = nodes.copy()
        for _ in range(12):
            g, jac = g_and_jacobian(y)
            y -= np.linalg.solve(jac + np.eye(2), (y + g - nodes)[..., None])[..., 0]
        assert float(np.max(np.abs((nodes + u) - y))) <= 1.0e-12


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

    def test_repelling_chord_nodes_fall_back_to_newton(self, monkeypatch):
        # at x ~ 0.7 the chord rate |dg(x) - dg(y*)| / |1 + dg(x)| is about 2.6, so
        # those nodes stop and Newton finishes them, in fewer gathers than the fixed
        # point, which contracts there since max |dg| = 0.69
        grid, text, decay_class = REPELLING_CHORD_CASE
        member = Diffeo.from_descriptor(grid, text, decay_class)
        assert _left_to_newton(member) > 0
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
        result, info = conjugate(outer, inner)
        assert result.decay_class is DecayClass.SCHWARTZ
        assert info["expected_class"] == "Schwartz"
        assert info["agrees"]
        assert info["measured_class"] == "Schwartz"
        assert info["left_identity"] <= 5e-7

    def test_returns_member_and_info(self, fine_grid):
        outer = gaussian_diffeo(fine_grid, 0.1, 1.0)
        inner = gaussian_diffeo(fine_grid, 0.1, -1.0)
        result, info = conjugate(outer, inner)
        assert isinstance(result, Diffeo)
        assert info["expected_class"] == result.decay_class.value
        nodes = np.asarray(fine_grid.nodes())
        direct = invert(outer).apply(inner.apply(outer.apply(nodes)))
        assert np.max(np.abs(result.apply(nodes) - direct)) <= 1e-8


def _regathering_conjugate(outer, inner):
    """Conjugation as it once ran: ``compose`` builds the composite, gathering ``s`` again."""
    outer_inverse = invert(outer)
    expected = inner.decay_class
    conj_disp = group_module.compose_nodes(outer_inverse, compose(inner, outer))
    result = Diffeo(DisplacementField.from_nodes(outer.grid, conj_disp), expected)
    classification = group_module.classify_decay(result.displacement)
    measured = DecayClass(classification["inferred_class"])
    info = {
        "expected_class": expected.value,
        "measured_class": measured.value,
        "agrees": bool(expected.contains(measured)),
        "left_identity": float(np.max(np.abs(group_module.compose_nodes(outer_inverse, outer)))),
        "report": classification,
    }
    return result, info


TANH_OUTER_2D = "0.2*tanh(x/1.1), 0.15*tanh(y)"
TANH_OUTER_1D = "0.2*tanh((x-0.3)/1.1)"
# (grid, outer, inner, inner class, node images whose zeros are -0.0)
CONJUGATE_CASES = [
    (Grid(1, 8.0, 513), TANH_OUTER_1D, "0.1*exp(-x^2)", DecayClass.SCHWARTZ, False),
    (Grid(2, 8.0, 129), TANH_OUTER_2D, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)",
     DecayClass.SCHWARTZ, False),
    (Grid(2, 8.0, 257), TANH_OUTER_2D, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)",
     DecayClass.SCHWARTZ, False),
    # an inner that moves no node image
    (Grid(2, 8.0, 129), TANH_OUTER_2D, "0, 0", DecayClass.SCHWARTZ, False),
    # below x = -7.65 the inner displacement is under half an ulp of the image,
    # so it moves almost every image
    (Grid(1, 8.0, 513), TANH_OUTER_1D, "0.1*(1+tanh(10*(x+6)))", DecayClass.BOUNDED_ALL,
     False),
    # an inner that moves every image
    (Grid(1, 8.0, 513), TANH_OUTER_1D, "0.1*tanh(x)", DecayClass.BOUNDED_ALL, False),
    # a zero first component: an image at x = -0.0 stays there, and moves in y
    (Grid(2, 8.0, 129), TANH_OUTER_2D, "0, 0.1*exp(-x^2-y^2)", DecayClass.SCHWARTZ, True),
]


class TestConjugateSharesGathers:
    @pytest.mark.parametrize("grid, outer_text, inner_text, inner_class, negative_zeros",
                             CONJUGATE_CASES)
    def test_matches_regathering_conjugate(self, grid, outer_text, inner_text, inner_class,
                                           negative_zeros, monkeypatch):
        outer = Diffeo.from_descriptor(grid, outer_text, DecayClass.BOUNDED_ALL)
        inner = Diffeo.from_descriptor(grid, inner_text, inner_class)
        if negative_zeros:
            original_images = group_module._node_images

            def with_negative_zeros(member):
                g_values, images = original_images(member)
                return g_values, np.where(images == 0.0, -0.0, images)

            monkeypatch.setattr(group_module, "_node_images", with_negative_zeros)
            a = with_negative_zeros(outer)[1]
            assert np.any(np.signbit(a) & (a == 0.0))
        calls = []
        original = DisplacementField.sample

        def counting(self, points):
            calls.append(np.size(points))
            return original(self, points)

        monkeypatch.setattr(DisplacementField, "sample", counting)
        got, got_info = conjugate(outer, inner)
        got_points = sum(calls)
        want, want_info = _regathering_conjugate(outer, inner)
        # conjugate reuses the outer node images and s for the composite, and
        # gathers u at those images for its left identity, as the oracle does
        # through compose_nodes: the same whole-node gathers, three beyond invert
        assert got_points == sum(calls) - got_points
        assert got.displacement.values.tobytes() == want.displacement.values.tobytes()
        assert got.decay_class is want.decay_class
        assert got_info["left_identity"].hex() == want_info["left_identity"].hex()
        assert got_info == want_info

    @pytest.mark.parametrize("inner_text, inner_class", [
        ("0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", DecayClass.SCHWARTZ),
        ("0.1*tanh((x-0.3)/2), 0.08*tanh((y+0.2)/1.5)", DecayClass.BOUNDED_ALL),
    ], ids=["gaussian", "tanh"])
    def test_takes_no_jacobian_at(self, inner_text, inner_class, monkeypatch):
        """Only Newton calls ``jacobian_at``, and the chord sweeps alone invert the tanh outer."""
        grid = Grid(2, 8.0, 257)
        outer = Diffeo.from_descriptor(grid, TANH_OUTER_2D, DecayClass.BOUNDED_ALL)
        inner = Diffeo.from_descriptor(grid, inner_text, inner_class)
        calls = []
        original = DisplacementField.jacobian_at
        monkeypatch.setattr(DisplacementField, "jacobian_at",
                            lambda self, points: calls.append(1) or original(self, points))
        conjugate(outer, inner)
        assert calls == []

    def test_overhang_still_refused(self, coarse_grid):
        shift = Diffeo(
            DisplacementField.from_nodes(coarse_grid, np.ones_like(coarse_grid.nodes()), "clamp"),
            DecayClass.BOUNDED_ALL,
        )
        with pytest.raises(UnderResolvedError):
            conjugate(shift, Diffeo.identity(coarse_grid))


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

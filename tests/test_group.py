import math

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
    ScalarField,
    UnderResolvedError,
    adjoint_action,
    compose,
    conjugate,
    invert,
    membership_check,
    pullback,
    read_diffeo,
    write_displacement,
)
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
        disp = DisplacementField.from_descriptor(fine_grid, "0.3*tanh(x)", "clamp")
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
        narrow = Diffeo(DisplacementField.from_descriptor(fine_grid, "0.1*exp(-x^2)", "clamp"),
                        DecayClass.SCHWARTZ)
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
        original = fields_module._derive_values

        def counting(values, alpha, h):
            derived.append(alpha)
            return original(values, alpha, h)

        monkeypatch.setattr(fields_module, "_derive_values", counting)
        # classified on the zero continuation, then re-read with clamp
        member = Diffeo.from_descriptor(plane_grid, "0.2*tanh(x/1.1), 0.15*tanh(y)")
        assert member.decay_class is DecayClass.BOUNDED_ALL
        assert member.displacement.extrapolation == "clamp"
        # one derivation per channel: classify_decay's, reused by the margin
        assert derived.count((1, 0)) == 2
        assert derived.count((0, 1)) == 2
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
            DisplacementField.from_callable(coarse_grid, np.ones_like, "clamp"),
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

    def test_unreachable_tolerance_raises(self, coarse_grid):
        member = gaussian_diffeo(coarse_grid, 0.2)
        with pytest.raises(InversionError):
            invert(member, tol=1e-30)


def _full_sweep_fixed_point(displacement, nodes, tol, max_iter):
    """The solver before solved nodes dropped out: every node, every sweep."""
    y = nodes - displacement.node_values()
    for _ in range(max_iter):
        y_next = nodes - displacement.sample(y)
        step = float(np.max(np.abs(y_next - y)))
        y = y_next
        if step <= 0.25 * tol:
            break
    return y


def _full_sweep_newton(displacement, nodes, seed, tol):
    dim = displacement.grid.dim
    y = seed.copy()
    eye = np.eye(dim)
    for _ in range(group_module._NEWTON_MAX_ITER):
        residual = y + displacement.sample(y) - nodes
        res_norm = np.max(np.abs(residual), axis=1)
        if float(np.max(res_norm)) <= tol:
            return y
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
    return y


def _two_newton_call_invert(diffeo, tol=None):
    """The driver before its Newton stage had one call site.

    Newton ran straight after the seeding sweeps on the stiff branch and
    again, as a polish, whenever the residual check failed.
    """
    grid = diffeo.grid
    displacement = diffeo.displacement
    nodes = np.asarray(grid.nodes())
    if tol is None:
        tol = 1.0e-8 * (1.0 + grid.half_width)
    target = min(tol, 1.0e-13 * (1.0 + grid.half_width))
    jac = displacement.jacobian_grid().reshape(grid.dim, grid.dim, -1)
    contraction = float(np.max(np.sqrt(np.sum(jac ** 2, axis=(0, 1)))))
    if contraction < group_module._FIXED_POINT_CONTRACTION:
        y = group_module._invert_fixed_point(displacement, nodes, target,
                                             group_module._FIXED_POINT_MAX_ITER)
    else:
        seed = group_module._invert_fixed_point(displacement, nodes, target,
                                                group_module._FIXED_POINT_SEED_ITER)
        y = group_module._invert_newton(displacement, nodes, seed, target)
    residual = float(np.max(np.abs(y + displacement.sample(y) - nodes)))
    if residual > target:
        y = group_module._invert_newton(displacement, nodes, y, target)
        residual = float(np.max(np.abs(y + displacement.sample(y) - nodes)))
    if residual > tol:
        raise InversionError(f"inverse solve stalled at residual {residual:.3e}")
    disp = DisplacementField.from_nodes(grid, y - nodes, displacement.extrapolation)
    return Diffeo(disp, diffeo.decay_class)


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
]


class TestInvertSolvedNodesDropOut:
    @pytest.mark.parametrize("grid, text, decay_class", PARITY_CASES)
    def test_matches_full_sweep_solvers(self, grid, text, decay_class, monkeypatch):
        member = Diffeo.from_descriptor(grid, text, decay_class)
        assert member.displacement.extrapolation == (
            "clamp" if decay_class is DecayClass.BOUNDED_ALL else "zero")
        got = invert(member).displacement.values
        monkeypatch.setattr(group_module, "_invert_fixed_point", _full_sweep_fixed_point)
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

    def test_swirl_takes_the_newton_branch(self):
        grid = Grid(2, 8.0, 65)
        jac = Diffeo.from_descriptor(grid, SWIRL_2D, DecayClass.SCHWARTZ).displacement
        frob = np.sqrt(np.sum(jac.jacobian_grid() ** 2, axis=(0, 1)))
        assert float(np.max(frob)) >= group_module._FIXED_POINT_CONTRACTION

    def test_gathers_fewer_points_than_full_sweeps(self, monkeypatch):
        grid = Grid(2, 8.0, 65)
        member = Diffeo.from_descriptor(grid, "0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)",
                                        DecayClass.SCHWARTZ)
        gathered = []
        original = DisplacementField.sample

        def counting(self, points):
            gathered.append(np.size(points) // self.grid.dim)
            return original(self, points)

        monkeypatch.setattr(DisplacementField, "sample", counting)
        invert(member)
        sweeps = len(gathered)
        assert sweeps >= 3
        assert sum(gathered) < 0.75 * sweeps * grid.node_count

    def test_singular_jacobian_at_solved_node_is_skipped(self):
        # g = x^3 - x near the origin: the origin node is solved by its seed
        # (g(0) = 0) and det(I + dg) = 3x^2 vanishes there and nowhere else
        grid = Grid(1, 8.0, 65)
        disp = DisplacementField.from_callable(
            grid, lambda x: np.where(np.abs(x) <= 1.0, x ** 3 - x, 0.0))
        nodes = np.asarray(grid.nodes())
        origin = int(np.argmin(np.abs(nodes[:, 0])))
        assert nodes[origin, 0] == 0.0
        assert disp.jacobian_at(nodes[origin])[0, 0] == -1.0
        seed = nodes - disp.node_values()
        y = group_module._invert_newton(disp, nodes, seed, 1.0e-12)
        assert y[origin, 0] == 0.0
        assert np.max(np.abs(y + disp.sample(y) - nodes)) <= 1.0e-12
        with pytest.raises(np.linalg.LinAlgError):
            _full_sweep_newton(disp, nodes, seed, 1.0e-12)


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


class TestPullbackAdjoint:
    def test_pullback_matches_direct_evaluation(self, fine_grid):
        member = gaussian_diffeo(fine_grid, 0.2)
        observable = ScalarField.from_descriptor(fine_grid, "exp(-(x-1)^2)")
        pulled = pullback(member, observable)
        nodes = np.asarray(fine_grid.nodes())
        exact = np.exp(-(member.apply(nodes)[:, 0] - 1.0) ** 2)
        assert np.max(np.abs(pulled.values.reshape(-1) - exact)) <= 1e-5

    def test_pullback_rejects_vector_fields(self, fine_grid):
        member = gaussian_diffeo(fine_grid, 0.1)
        with pytest.raises(FieldError):
            pullback(member, member.displacement)

    def test_adjoint_of_identity_is_identity_action(self, coarse_grid):
        field = DisplacementField.from_descriptor(coarse_grid, "exp(-x^2)")
        pushed = adjoint_action(Diffeo.identity(coarse_grid), field)
        assert np.allclose(pushed.values, field.values, atol=1e-12)

    def test_adjoint_defining_property(self, fine_grid, rng):
        member = gaussian_diffeo(fine_grid, 0.15)
        field = DisplacementField.from_descriptor(fine_grid, "exp(-(x+0.5)^2)")
        pushed = adjoint_action(member, field)
        pts = rng.uniform(-3.0, 3.0, size=(200, 1))
        lhs = pushed.sample(member.apply(pts))
        jac = member.jacobian_at(pts)
        rhs = np.einsum("nij,nj->ni", jac, field.sample(pts))
        assert np.max(np.abs(lhs - rhs)) <= 1e-4

    def test_adjoint_rejects_scalars(self, fine_grid):
        member = gaussian_diffeo(fine_grid, 0.1)
        scalar = ScalarField(fine_grid, np.zeros(fine_grid.shape))
        with pytest.raises(FieldError):
            adjoint_action(member, scalar)


@given(amplitude=st.floats(min_value=0.02, max_value=0.08),
       center=st.floats(min_value=-1.0, max_value=1.0))
def test_inverse_neutralizes_member(amplitude, center):
    grid = Grid(1, 8.0, 513)
    member = gaussian_diffeo(grid, amplitude, center)
    inverse = invert(member)
    nodes = np.asarray(grid.nodes())
    assert np.max(np.abs(compose(member, inverse).apply(nodes) - nodes)) <= 1e-7
    assert np.max(np.abs(compose(inverse, member).apply(nodes) - nodes)) <= 1e-7

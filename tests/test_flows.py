import collections
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from diffeoflow import flows
from diffeoflow import (
    DecayClass,
    DescriptorError,
    Diffeo,
    DisplacementField,
    FieldError,
    FlowBlowupError,
    FlowDomainError,
    Grid,
    NonDiffeoError,
    TimeDependentVectorField,
    displacement_sup_bound,
    edge_decay,
    evolve,
    gronwall_bound,
    invert,
    membership_check,
    right_log_derivative,
    sobolev_tracking,
)
from diffeoflow.battery import flow_battery, schwartz_flow_case


def bump_field(amplitude=0.08):
    return TimeDependentVectorField.from_descriptor(
        1, f"{amplitude}*exp(-x^2)", DecayClass.SCHWARTZ)


class TestVectorField:
    def test_descriptor_time_dependence(self):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.1*exp(-x^2)*cos(t)", DecayClass.SCHWARTZ)
        pts = np.array([[0.0], [1.0]])
        at0 = field(0.0, pts)
        at_t = field(math.pi / 3.0, pts)
        assert at0[0, 0] == pytest.approx(0.1, abs=1e-15)
        assert at_t[0, 0] == pytest.approx(0.05, abs=1e-15)

    def test_analytic_jacobian(self):
        field = bump_field(0.1)
        pts = np.array([[0.5], [-1.0]])
        jac = field.jacobian(0.0, pts)
        exact = -0.2 * pts[:, 0] * np.exp(-pts[:, 0] ** 2)
        assert np.allclose(jac[:, 0, 0], exact, atol=1e-14)

    def test_component_count_checked(self):
        with pytest.raises(DescriptorError):
            TimeDependentVectorField.from_descriptor(2, "x")
        with pytest.raises(DescriptorError):
            TimeDependentVectorField.from_descriptor(1, "exp(-x^2-y^2)")

    def test_dim_and_domain_validation(self):
        with pytest.raises(FieldError):
            TimeDependentVectorField(4, lambda t, p: p, lambda t, p: p)

    def test_at_time_snapshot(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.1*exp(-x^2)*cos(t)", DecayClass.SCHWARTZ)
        snap = field.at_time(coarse_grid, math.pi / 3.0)
        direct = DisplacementField.from_descriptor(
            coarse_grid, "0.05*exp(-x^2)")
        assert np.allclose(snap.values, direct.values, atol=1e-15)
        assert snap.extrapolation == "zero"

    def test_scaled_and_shifted(self):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.1*exp(-x^2)*cos(t)")
        pts = np.array([[0.3]])
        doubled = TimeDependentVectorField.from_descriptor(1, "0.2*exp(-x^2)*cos(t)")
        assert doubled(0.0, pts)[0, 0] == pytest.approx(0.2 * math.exp(-0.09))
        assert np.allclose(doubled.jacobian(0.0, pts),
                           2.0 * field.jacobian(0.0, pts))
        shifted = field.time_shifted(0.5)
        assert shifted(0.0, pts)[0, 0] == pytest.approx(field(0.5, pts)[0, 0])
        assert np.array_equal(shifted.jacobian(0.0, pts), field.jacobian(0.5, pts))

    def test_bad_closure_shape_rejected(self):
        field = TimeDependentVectorField(1, lambda t, p: p[:, 0], lambda t, p: p[:, :, None])
        with pytest.raises(FieldError):
            field(0.0, np.zeros((3, 1)))

    def test_bad_jacobian_shape_rejected(self, coarse_grid):
        # an (m, 1) Jacobian in 1-D would let _spectral_sup read one node's value as beta
        field = TimeDependentVectorField(
            1, lambda t, p: 0.08 * np.exp(-p ** 2),
            lambda t, p: -0.16 * p * np.exp(-p ** 2), DecayClass.SCHWARTZ)
        with pytest.raises(FieldError, match="Jacobian has shape"):
            field.jacobian(0.0, np.zeros((3, 1)))
        with pytest.raises(FieldError, match="Jacobian has shape"):
            evolve(field, 1.0, 0.25, coarse_grid)


class TestEvolve:
    def test_constant_field_translates_exactly(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.05", DecayClass.BOUNDED_ALL)
        result = evolve(field, 0.5, 0.1, coarse_grid)
        assert np.allclose(result.final_displacement.values, 0.025, atol=1e-15)
        assert np.allclose(result.diagnostics["sup_displacement"],
                           0.05 * result.times, atol=1e-15)
        assert np.allclose(result.diagnostics["min_det"], 1.0, atol=1e-13)

    def test_linear_field_matches_exponential(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.3*x", DecayClass.BOUNDED_ALL)
        result = evolve(field, 0.25, 1.0 / 64.0, coarse_grid)
        x = np.asarray(coarse_grid.axis_coordinates())
        exact = x * math.expm1(0.3 * 0.25)
        got = result.final_displacement.values.reshape(-1)
        assert np.max(np.abs(got - exact)) <= 1e-10

    def test_space_constant_field_integrates_in_time(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.1*cos(t)", DecayClass.BOUNDED_ALL)
        result = evolve(field, 1.0, 1.0 / 32.0, coarse_grid)
        got = result.final_displacement.values
        assert np.allclose(got, 0.1 * math.sin(1.0), atol=5e-9)

    def test_step_divides_horizon(self, coarse_grid):
        result = evolve(bump_field(), 1.0, 0.3, coarse_grid)
        assert result.times.shape[0] == 5  # 4 steps of 0.25
        assert result.dt == pytest.approx(0.25)
        assert result.times[-1] == 1.0

    def test_parameter_validation(self, coarse_grid):
        field = bump_field()
        with pytest.raises(FlowDomainError):
            evolve(field, 0.0, 0.1, coarse_grid)
        with pytest.raises(FlowDomainError):
            evolve(field, 1.0, -0.1, coarse_grid)
        with pytest.raises(FieldError):
            evolve(field, 1.0, 0.1, Grid(2, 8.0, 33))

    def test_refuses_anything_but_a_vector_field(self, coarse_grid):
        disp = DisplacementField.from_descriptor(coarse_grid, "0.1*exp(-x^2)")
        for source in (disp, "0.1*exp(-x^2)"):
            with pytest.raises(FieldError, match="TimeDependentVectorField"):
                evolve(source, 1.0, 0.1, coarse_grid)

    def test_snapshot_budget_refused_before_allocating(self, coarse_grid):
        # 1e13 steps would keep about 5e15 bytes; np.linspace alone would ask for 80 TB
        with pytest.raises(FieldError, match="budget"):
            evolve(bump_field(), 1.0, 1.0e-13, coarse_grid)

    def test_snapshot_budget_is_the_array_size(self, monkeypatch, coarse_grid):
        nbytes = evolve(bump_field(), 0.5, 0.125, coarse_grid).displacements.nbytes
        assert nbytes == 5 * coarse_grid.node_count * 8
        monkeypatch.setattr(flows, "SNAPSHOT_BUDGET_BYTES", nbytes)
        evolve(bump_field(), 0.5, 0.125, coarse_grid)
        monkeypatch.setattr(flows, "SNAPSHOT_BUDGET_BYTES", nbytes - 1)
        with pytest.raises(FieldError, match="budget"):
            evolve(bump_field(), 0.5, 0.125, coarse_grid)

    def test_exiting_trajectory_refused(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "1", DecayClass.BOUNDED_ALL)
        with pytest.raises(FlowDomainError):
            evolve(field, 2.0, 0.25, coarse_grid)

    def test_blowup_detected(self, coarse_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "exp(x^2)", DecayClass.BOUNDED_ALL)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FlowBlowupError):
                evolve(field, 1.0, 0.25, coarse_grid)

    def test_every_step_is_recorded(self, coarse_grid):
        result = evolve(bump_field(), 1.0, 0.125, coarse_grid)
        assert result.times.tolist() == [k / 8.0 for k in range(9)]
        assert result.displacements.shape == (9, coarse_grid.node_count, 1)
        for k in range(9):
            assert np.array_equal(result.snapshot(k).node_values(), result.displacements[k])

    def test_class_inferred_from_final_snapshot(self, line_grid):
        field = TimeDependentVectorField.from_descriptor(1, "0.08*exp(-x^2)")
        result = evolve(field, 0.5, 0.125, line_grid)
        assert result.decay_class is DecayClass.SCHWARTZ
        assert any("inferred" in note for note in result.notes)

    def test_to_diffeo_and_displacements(self, coarse_grid):
        result = evolve(bump_field(), 0.5, 0.125, coarse_grid)
        member = result.to_diffeo()
        assert isinstance(member, Diffeo)
        assert member.decay_class is DecayClass.SCHWARTZ
        assert np.array_equal(member.displacement.node_values(), result.displacements[-1])
        assert result.displacements.shape == (5, coarse_grid.node_count, 1)
        assert np.all(result.displacements[0] == 0.0)

    def test_scaled_field_reparametrizes_time(self, line_grid):
        slow = evolve(bump_field(0.05), 0.5, 1.0 / 32.0, line_grid)
        fast = evolve(bump_field(0.1), 0.25, 1.0 / 64.0, line_grid)
        gap = np.max(np.abs(slow.final_displacement.values
                            - fast.final_displacement.values))
        assert gap <= 1e-9


class TestCertifiedBounds:
    def test_sup_bound_tight_for_one_signed_field(self, line_grid):
        result = evolve(bump_field(0.05), 1.0, 1.0 / 16.0, line_grid)
        bound, measured, holds = displacement_sup_bound(result)
        assert holds
        assert np.max(np.abs(bound - measured)) <= 1e-12
        assert np.max(result.diagnostics["bound_defect"]) <= 1e-13

    def test_sup_bound_on_traveling_wave(self, line_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.12*cos(0.7*x - 0.6*t)", DecayClass.BOUNDED_ALL)
        result = evolve(field, 1.0, 1.0 / 16.0, line_grid)
        bound, measured, holds = displacement_sup_bound(result)
        assert holds
        assert np.all(measured <= bound + 1e-8)
        # nodes whose velocity changed sign see a strictly slack bound
        final_norm = np.abs(result.final_displacement.values.reshape(-1))
        slack = result.final_bound - final_norm
        assert np.min(slack) >= -1e-13
        assert np.max(slack) > 1e-4

    def test_gronwall_envelope_strict_on_traveling_wave(self, line_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.12*cos(0.7*x - 0.6*t)", DecayClass.BOUNDED_ALL)
        result = evolve(field, 1.0, 1.0 / 16.0, line_grid)
        predicted, measured, holds = gronwall_bound(result)
        assert holds
        assert predicted[0] == 0.0 and measured[0] == 0.0
        assert np.all(measured[1:] < predicted[1:])

    def test_gronwall_holds_for_stationary_field(self, line_grid):
        result = evolve(bump_field(0.1), 0.5, 1.0 / 16.0, line_grid)
        _, _, holds = gronwall_bound(result)
        assert holds


class TestSobolevTracking:
    def test_schwartz_case_is_box_stable(self):
        case = schwartz_flow_case()
        result = evolve(case.field, case.t_final, case.dt, case.grid)
        report = sobolev_tracking(result)
        assert report["holds"]
        assert report["edge_decayed"]
        assert list(report) == ["p_max", "history", "edge_annulus_fraction",
                                "edge_jacobian_sup", "edge_decayed", "holds"]
        assert set(report["history"]) == {"0", "1", "2"}
        assert len(report["history"]["2"]) == len(result.times)

    def test_bounded_class_skips_edge_demand(self, line_grid):
        field = TimeDependentVectorField.from_descriptor(
            1, "0.12*cos(0.7*x - 0.6*t)", DecayClass.BOUNDED_ALL)
        result = evolve(field, 0.5, 1.0 / 16.0, line_grid)
        report = sobolev_tracking(result)
        assert report["holds"]
        assert report["notes"]
        assert not report["edge_decayed"]

    @pytest.mark.parametrize("text, claimed", [
        ("0.08*exp(-x^2)*cos(t)", DecayClass.SCHWARTZ),
        ("0.12*cos(0.7*x - 0.6*t)", DecayClass.BOUNDED_ALL),
    ], ids=["schwartz", "bounded"])
    def test_edge_gate_is_the_tracking_tail(self, line_grid, text, claimed):
        result = evolve(TimeDependentVectorField.from_descriptor(1, text, claimed),
                        0.5, 1.0 / 16.0, line_grid)
        gate = edge_decay(result.final_displacement, result.decay_class)
        report = sobolev_tracking(result)
        tail = dict(list(report.items())[2:])
        assert list(report)[:2] == ["p_max", "history"]
        assert list(gate) == list(tail)
        assert gate == tail
        assert gate["edge_jacobian_sup"].hex() == tail["edge_jacobian_sup"].hex()
        assert ("notes" in gate) is (claimed is DecayClass.BOUNDED_ALL)


class TestRightLogDerivative:
    def test_recovers_autonomous_field(self, line_grid):
        field = bump_field(0.08)
        result = evolve(field, 0.5, 1.0 / 16.0, line_grid)
        recovered = list(right_log_derivative(result))
        assert len(recovered) == len(result.times) - 4
        nodes = np.asarray(line_grid.nodes())
        worst = 0.0
        for t, disp in recovered:
            exact = field(t, nodes)
            got = disp.values.reshape(-1, 1)
            worst = max(worst, float(np.max(np.abs(got - exact))))
        assert worst <= 1e-4

    def test_inferred_class_reaches_every_snapshot(self, line_grid):
        text = "0.12*cos(0.7*x-0.6*t)"
        runs = [evolve(TimeDependentVectorField.from_descriptor(1, text, claimed),
                       1.0, 1.0 / 32.0, line_grid)
                for claimed in (None, DecayClass.BOUNDED_ALL)]
        inferred, claimed = runs
        assert inferred.decay_class is DecayClass.BOUNDED_ALL
        assert all(inferred.snapshot(k).extrapolation == "clamp"
                   for k in range(len(inferred.times)))
        for (t, got), (s, want) in zip(*(right_log_derivative(run) for run in runs)):
            assert t == s and np.array_equal(got.values, want.values)

    def test_verifiers_keep_no_snapshot_fields(self):
        # 129^2 keeps the interpreter's own small-object growth near 2 % of the array
        grid = Grid(2, 8.0, 129)
        field = TimeDependentVectorField.from_descriptor(
            2, "-0.3*y*exp(-x^2-y^2), 0.3*x*exp(-x^2-y^2)", DecayClass.SCHWARTZ)
        tracemalloc.start()
        try:
            result = evolve(field, 0.5, 1.0 / 16.0, grid)
            level = tracemalloc.get_traced_memory()[0]
            sobolev_tracking(result)
            # drained, keeping no field
            collections.deque(right_log_derivative(result), maxlen=0)
            grown = tracemalloc.get_traced_memory()[0] - level
        finally:
            tracemalloc.stop()
        # a derivative cache kept on every snapshot would hold several times the values
        assert abs(grown) <= 0.1 * result.displacements.nbytes

    def test_needs_dense_snapshots(self, line_grid):
        short = evolve(bump_field(), 0.2, 0.1, line_grid)
        with pytest.raises(FieldError, match="at least 5 snapshots"):
            right_log_derivative(short)

    def test_fold_below_the_margin_raises_at_call_time(self, line_grid, monkeypatch):
        # a strong sink: the stencil Jacobian of the flow map folds by t = 0.875
        field = TimeDependentVectorField.from_descriptor(
            1, "-16*x*exp(-x^2)", DecayClass.SCHWARTZ)
        result = evolve(field, 1.0, 1.0 / 16.0, line_grid)
        min_det = result.diagnostics["min_det"]
        folded = [k for k in range(2, len(min_det) - 2) if not min_det[k] >= 1e-6]
        # the earlier interior snapshots clear the margin
        assert folded and folded[0] > 2
        with pytest.raises(NonDiffeoError) as member_refused:
            Diffeo(result.snapshot(folded[0]), result.decay_class)

        def refuse(displacement):
            raise AssertionError("an inverse was solved before the margins were checked")

        monkeypatch.setattr(flows, "solve_inverse", refuse)
        with pytest.raises(NonDiffeoError) as refused:
            right_log_derivative(result)
        # the first folded snapshot's worst node, named as its member names it
        assert str(refused.value) == str(member_refused.value)


def _apply_at_nodes_right_log_derivative(result):
    """The verifier as it once read each inverse: ``inverse.apply(nodes)``, a gather."""
    g = result.displacements
    nodes = np.asarray(result.grid.nodes())
    out = []
    for k in range(2, len(g) - 2):
        dgdt = (g[k - 2] - 8.0 * g[k - 1] + 8.0 * g[k + 1] - g[k + 2]) / (12.0 * result.dt)
        snap = result.snapshot(k)
        dgdt_field = DisplacementField.from_nodes(result.grid, dgdt, snap.extrapolation)
        inverse = invert(Diffeo(snap, result.decay_class))
        out.append((float(result.times[k]), dgdt_field.sample(inverse.apply(nodes))))
    return out


@pytest.fixture(scope="module")
def battery_flows():
    return {case.name: evolve(case.field, case.t_final, case.dt, case.grid)
            for case in flow_battery()}


class TestRightLogDerivativeReadsNodeValues:
    def test_matches_gather_at_nodes(self, battery_flows):
        for name, result in battery_flows.items():
            want = _apply_at_nodes_right_log_derivative(result)
            for (t, field), (s, values) in zip(right_log_derivative(result), want, strict=True):
                assert t == s
                assert field.node_values().tobytes() == values.tobytes(), name

    def test_holds_one_recovered_field_at_a_time(self, battery_flows):
        result = battery_flows["schwartz-rotation-2d"]
        recovered = right_log_derivative(result)
        t, first = next(recovered)
        alive = weakref.ref(first)
        del first
        s, second = next(recovered)
        assert alive() is None
        assert t < s and isinstance(second, DisplacementField)

    def test_draining_peaks_ten_fields_below_a_list(self, battery_flows):
        result = battery_flows["schwartz-rotation-2d"]
        assert result.grid.shape == (129, 129)
        field_bytes = result.displacements[0].nbytes
        assert len(result.times) - 4 >= 11

        def peak(consume):
            tracemalloc.start()
            try:
                consume(right_log_derivative(result))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(list)  # node caches filled outside the measurement
        drained = peak(lambda fields: collections.deque(fields, maxlen=0))
        assert peak(list) - drained >= 10 * field_bytes

    def test_never_samples_at_the_nodes(self, battery_flows, monkeypatch):
        result = battery_flows["schwartz-rotation-2d"]
        assert result.grid.shape == (129, 129)
        nodes = np.asarray(result.grid.nodes())
        at_nodes = []
        original = DisplacementField.sample

        def watching(self, points):
            at_nodes.append(np.shape(points) == nodes.shape and np.array_equal(points, nodes))
            return original(self, points)

        monkeypatch.setattr(DisplacementField, "sample", watching)
        list(right_log_derivative(result))
        assert at_nodes and not any(at_nodes)

    def test_read_back_skips_nodes_reading_only_zeros(self, battery_flows, monkeypatch):
        # the rotation's snapshots are exactly zero in their tails; the skipped
        # reads are +0.0, which test_matches_gather_at_nodes checks byte for byte
        result = battery_flows["schwartz-rotation-2d"]
        inside, read_back = [False], []
        original_solve, original_sample = flows.solve_inverse, DisplacementField.sample

        def inverting(displacement):
            inside[0] = True
            try:
                return original_solve(displacement)
            finally:
                inside[0] = False

        def sampling(self, points):
            if not inside[0]:
                read_back.append(np.size(points) // self.grid.dim)
            return original_sample(self, points)

        monkeypatch.setattr(flows, "solve_inverse", inverting)
        monkeypatch.setattr(DisplacementField, "sample", sampling)
        list(right_log_derivative(result))
        assert len(read_back) == len(result.times) - 4
        # each read-back skips about half of the 129^2 nodes
        assert all(0 < n < 0.55 * result.grid.node_count for n in read_back)


def test_two_d_margins_need_no_lapack(monkeypatch, plane_grid):
    """2-D spectral norms and determinants come from the closed-form kernels."""

    def refuse(*args, **kwargs):
        raise AssertionError("a 2-D Jacobian batch reached LAPACK")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "det", refuse)
    field = TimeDependentVectorField.from_descriptor(
        2, "-0.3*y*exp(-x^2-y^2), 0.3*x*exp(-x^2-y^2)", DecayClass.SCHWARTZ)
    result = evolve(field, 0.5, 1.0 / 16.0, plane_grid)
    assert np.all(result.diagnostics["beta"] > 0.0)
    assert np.all(result.diagnostics["min_det"] > 0.0)
    assert len(list(right_log_derivative(result))) == len(result.times) - 4
    member = Diffeo(result.final_displacement, DecayClass.SCHWARTZ)
    ok, epsilon, _ = membership_check(member)
    assert ok and epsilon == member.epsilon
    assert invert(member).epsilon > 0.0


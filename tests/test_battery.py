import numpy as np
import pytest

import diffeoflow.battery as battery_module
import diffeoflow.group as group_module
from diffeoflow import (DecayClass, Diffeo, DisplacementField, FieldError, Grid,
                        classify_decay, membership_check)
from diffeoflow.battery import (
    DEFAULT_SEED,
    SCHWARTZ_AMPLITUDE,
    SCHWARTZ_CENTER,
    SCHWARTZ_WIDTH,
    bounded_outer_diffeos,
    flow_battery,
    gaussian_descriptor,
    lorentzian_descriptor,
    schwartz_diffeos,
    schwartz_flow_case,
    sobolev_flow_case,
    sobolev_inner_diffeos,
    tanh_descriptor,
)


class TestDescriptorHelpers:
    def test_gaussian_text_evaluates(self, coarse_grid):
        from diffeoflow import ScalarField
        text = gaussian_descriptor(0.25, 1.5, -0.5)
        field = ScalarField.from_descriptor(coarse_grid, text)
        x = np.asarray(coarse_grid.axis_coordinates())
        exact = 0.25 * np.exp(-(((x + 0.5) / 1.5) ** 2))
        assert np.allclose(field.values, exact, atol=1e-15)

    def test_lorentzian_damping(self, coarse_grid):
        from diffeoflow import ScalarField
        plain = lorentzian_descriptor(0.1, 1.0, 0.0, power=1)
        damped = lorentzian_descriptor(0.1, 1.0, 0.0, power=1, damping=2.6)
        p = ScalarField.from_descriptor(coarse_grid, plain).values
        d = ScalarField.from_descriptor(coarse_grid, damped).values
        x = np.asarray(coarse_grid.axis_coordinates())
        mid = np.abs(x) <= 1.0
        edge = np.abs(x) >= 7.0
        assert np.allclose(d[mid], p[mid], rtol=0.2)   # mid-range barely touched
        assert np.max(np.abs(d[edge])) < 2e-6          # tail suppressed
        assert np.max(np.abs(p[edge])) > 1e-3
        assert np.max(np.abs(d[edge] / p[edge])) < 1e-3

    def test_tanh_text_evaluates(self):
        from diffeoflow import ScalarField
        grid = Grid(1, 8.0, 65)
        field = ScalarField.from_descriptor(grid, tanh_descriptor(0.2, 1.3, 0.4))
        x = np.asarray(grid.axis_coordinates())
        assert np.allclose(field.values, 0.2 * np.tanh((x - 0.4) / 1.3),
                           atol=1e-15)

    def test_negative_parameters_still_parse(self, coarse_grid):
        from diffeoflow import ScalarField
        text = gaussian_descriptor(-0.07, 0.9, -0.85)
        field = ScalarField.from_descriptor(coarse_grid, text)
        assert field.values.min() < 0.0


class TestSeededFamilies:
    def test_schwartz_family_reproducible(self, fine_grid):
        first = schwartz_diffeos(fine_grid, count=5)
        second = schwartz_diffeos(fine_grid, count=5)
        for a, b in zip(first, second):
            assert np.array_equal(a.displacement.values, b.displacement.values)
        different = schwartz_diffeos(fine_grid, count=5, seed=DEFAULT_SEED + 99)
        assert not np.array_equal(first[0].displacement.values,
                                  different[0].displacement.values)

    def test_schwartz_family_members_verify(self, fine_grid):
        for member in schwartz_diffeos(fine_grid, count=20):
            assert member.decay_class is DecayClass.SCHWARTZ
            assert member.epsilon > 0.8
            ok, _, _ = membership_check(member)
            assert ok

    def test_bounded_outers_are_bounded_class(self, fine_grid):
        members = bounded_outer_diffeos(fine_grid)
        assert len(members) == 5
        for member in members:
            assert member.decay_class is DecayClass.BOUNDED_ALL
            assert member.displacement.extrapolation == "clamp"
            assert member.epsilon > 0.5

    def test_sobolev_inners_measure_sobolev(self, fine_grid):
        members = sobolev_inner_diffeos(fine_grid, count=10)
        assert len(members) == 10
        for member in members:
            assert member.decay_class is DecayClass.SOBOLEV_INFINITY
            measured = classify_decay(member.displacement)["inferred_class"]
            assert measured == DecayClass.SOBOLEV_INFINITY.value

    def test_one_dimensional_only(self, plane_grid):
        with pytest.raises(FieldError):
            schwartz_diffeos(plane_grid)
        with pytest.raises(FieldError):
            bounded_outer_diffeos(plane_grid)
        with pytest.raises(FieldError):
            sobolev_inner_diffeos(plane_grid)


def _loop_schwartz(grid, count, seed):
    """The Schwartz family as its own loop, before the families shared one."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        width = rng.uniform(*SCHWARTZ_WIDTH)
        center = rng.uniform(*SCHWARTZ_CENTER)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        amplitude = sign * rng.uniform(*SCHWARTZ_AMPLITUDE)
        disp = DisplacementField.from_descriptor(
            grid, gaussian_descriptor(amplitude, width, center))
        report = classify_decay(disp)
        assert DecayClass.SCHWARTZ.contains(DecayClass(report["inferred_class"]))
        out.append(Diffeo(disp, DecayClass.SCHWARTZ))
    return out


def _loop_bounded(grid, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        width = rng.uniform(0.9, 1.4)
        center = rng.uniform(-0.8, 0.8)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        amplitude = sign * rng.uniform(0.12, 0.22)
        disp = DisplacementField.from_descriptor(grid, tanh_descriptor(amplitude, width, center))
        out.append(Diffeo(disp, DecayClass.BOUNDED_ALL))
    return out


def _loop_sobolev(grid, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        width = rng.uniform(0.8, 1.2)
        center = rng.uniform(-0.8, 0.8)
        sign = 1.0 if rng.random() < 0.5 else -1.0
        amplitude = sign * rng.uniform(0.05, 0.1)
        text = lorentzian_descriptor(amplitude, width, center, power=1, damping=2.6)
        disp = DisplacementField.from_descriptor(grid, text)
        report = classify_decay(disp)
        assert DecayClass.SOBOLEV_INFINITY.contains(DecayClass(report["inferred_class"]))
        out.append(Diffeo(disp, DecayClass.SOBOLEV_INFINITY))
    return out


class TestSharedDrawLoop:
    """Each family matches its own former loop bit for bit."""

    @pytest.mark.parametrize("family, oracle, count", [
        (schwartz_diffeos, _loop_schwartz, 6),
        (bounded_outer_diffeos, _loop_bounded, 5),
        (sobolev_inner_diffeos, _loop_sobolev, 6),
    ])
    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 20240817])
    def test_matches_its_own_loop(self, fine_grid, family, oracle, count, seed):
        got = family(fine_grid, count=count, seed=seed)
        want = oracle(fine_grid, count, seed)
        assert len(got) == len(want) == count
        for a, b in zip(got, want):
            assert np.array_equal(a.displacement.values, b.displacement.values)
            assert a.displacement.extrapolation == b.displacement.extrapolation
            assert a.decay_class is b.decay_class
            assert a.epsilon == b.epsilon

    def test_bounded_family_runs_no_classification(self, fine_grid, monkeypatch):
        def refuse(displacement):
            raise AssertionError("the BoundedAll family was classified")

        monkeypatch.setattr(battery_module, "measured_class", refuse)
        monkeypatch.setattr(group_module, "measured_class", refuse)
        monkeypatch.setattr(group_module, "classify_decay", refuse)
        assert len(bounded_outer_diffeos(fine_grid)) == 5


class TestFlowBattery:
    def test_one_case_per_class_plus_plane(self):
        cases = flow_battery()
        assert len(cases) == 5
        names = [case.name for case in cases]
        assert names == ["schwartz-gaussian", "compact-bump",
                         "sobolev-lorentzian", "bounded-cosine",
                         "schwartz-rotation-2d"]
        classes = [case.field.decay_class for case in cases]
        assert set(classes) == set(DecayClass)
        assert cases[-1].grid.dim == 2

    def test_sizing_rule(self):
        # sup |d_x X| * t_final stays at or below 0.5 so trajectories
        # cannot leave the enlarged box
        for case in flow_battery():
            nodes = np.asarray(case.grid.nodes())
            worst = 0.0
            for t in np.linspace(0.0, case.t_final, 9):
                jac = case.field.jacobian(t, nodes)
                if case.grid.dim == 1:
                    sup = float(np.max(np.abs(jac)))
                else:
                    sup = float(np.max(np.linalg.svd(jac, compute_uv=False)))
                worst = max(worst, sup)
            assert worst * case.t_final <= 0.5 + 1e-9

    def test_named_cases(self):
        assert schwartz_flow_case().name == "schwartz-gaussian"
        assert sobolev_flow_case().name == "sobolev-lorentzian"
        assert schwartz_flow_case().field.decay_class is DecayClass.SCHWARTZ
        assert sobolev_flow_case().field.decay_class is DecayClass.SOBOLEV_INFINITY

    def test_reproducible(self):
        a = flow_battery()
        b = flow_battery()
        pts = np.array([[0.3], [-1.2]])
        for case_a, case_b in zip(a[:4], b[:4]):
            assert np.array_equal(case_a.field(0.25, pts), case_b.field(0.25, pts))


"""Planted faults: each ``verify`` criterion must fail when the code it checks is wrong.

A criterion that passes on broken code checks nothing. Each test patches one
function the criterion calls with a faulty copy and asserts that the
criterion reports ``passed is False``; no threshold, seed or battery is
changed.
"""

import numpy as np

from diffeoflow import DisplacementField, Diffeo, acceptance, flows, group, jets
from diffeoflow.flows import FlowResult


def test_criterion_1_fails_on_an_inverse_off_by_2e_7(monkeypatch):
    def sloppy_invert(member):
        inverse = group.invert(member)
        shifted = DisplacementField.from_nodes(
            inverse.grid, inverse.displacement.node_values() + 2.0e-7,
            inverse.displacement.extrapolation)
        return Diffeo(shifted, inverse.decay_class)

    monkeypatch.setattr(acceptance, "invert", sloppy_invert)
    result = acceptance.criterion_group_axioms()
    assert result.passed is False
    assert result.data["inversion_residual"] > 1.0e-7


def _first_order_right_log_derivative(result: FlowResult):
    """The read-back with a forward difference ``(f_{k+1} - f_k) / dt`` in time."""
    g = result.displacements
    nodes = np.asarray(result.grid.nodes())
    for k in range(2, len(g) - 2):
        snap = result.snapshot(k)
        u, _ = group.solve_inverse(snap)
        dgdt = DisplacementField.from_nodes(result.grid, (g[k + 1] - g[k]) / result.dt,
                                            snap.extrapolation)
        yield float(result.times[k]), DisplacementField.from_nodes(
            result.grid, dgdt.sample(nodes + u), snap.extrapolation)


def test_criterion_9_fails_on_a_first_order_time_difference(monkeypatch):
    monkeypatch.setattr(acceptance, "right_log_derivative", _first_order_right_log_derivative)
    result = acceptance.criterion_right_log_derivative()
    assert result.passed is False
    assert min(result.data["orders"]) < 3.5


def test_criterion_3_fails_on_a_top_term_off_by_1e_6(monkeypatch):
    def sloppy_invert_jet(jet):
        inverse = jets.invert_jet(jet)
        terms = [inverse.dense_term(k) for k in range(inverse.order + 1)]
        terms[-1] = terms[-1] * (1.0 + 1.0e-6)
        return jets.Jet(inverse.base_point, terms)

    monkeypatch.setattr(acceptance, "invert_jet", sloppy_invert_jet)
    result = acceptance.criterion_jet_inversion()
    assert result.passed is False
    assert result.data["reversion_gap"] > 1.0e-10


def test_criterion_4_fails_on_a_bound_1_percent_low(monkeypatch):
    def tight_inverse_norm_bound(matrix):
        bound, _ = jets.inverse_norm_bound(matrix)
        bound = 0.99 * np.asarray(bound)
        actual = np.linalg.norm(np.linalg.inv(matrix), 2, axis=(-2, -1))
        return bound, actual <= bound + 1.0e-12

    monkeypatch.setattr(acceptance, "inverse_norm_bound", tight_inverse_norm_bound)
    result = acceptance.criterion_inverse_norm_inequality()
    assert result.passed is False
    assert result.detail.startswith("violation at a 2x2 matrix")


def test_criterion_2_fails_on_composed_jets_without_their_top_term(monkeypatch):
    def truncated_compose_jets(outer, inner):
        jet = jets.compose_jets(outer, inner)
        terms = [jet.dense_term(k) for k in range(jet.order + 1)]
        terms[-1] = np.zeros_like(terms[-1])
        return jets.Jet(jet.base_point, terms)

    monkeypatch.setattr(acceptance, "compose_jets", truncated_compose_jets)
    result = acceptance.criterion_faa_di_bruno()
    assert result.passed is False
    assert min(result.data["fd_gap_1d"], result.data["fd_gap_2d"]) > 1.0e-4


def _third_order_evolve(field, t_final, dt, grid):
    """``evolve`` with its displacements from Kutta's third-order scheme instead of RK4."""
    result = flows.evolve(field, t_final, dt, grid)
    h = result.dt
    nodes = np.asarray(grid.nodes())
    y = nodes.copy()
    for k, t in enumerate(result.times[:-1], start=1):
        k1 = field(t, y)
        k2 = field(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = field(t + h, y - h * k1 + 2.0 * h * k2)
        y = y + (h / 6.0) * (k1 + 4.0 * k2 + k3)
        result.displacements[k] = y - nodes
    return result


def test_criterion_5_fails_on_a_third_order_scheme(monkeypatch):
    monkeypatch.setattr(acceptance, "evolve", _third_order_evolve)
    result = acceptance.criterion_flow_correctness()
    assert result.passed is False
    assert min(result.data["orders"]) < 3.8


def test_criterion_8_fails_when_the_outer_stands_in_for_its_inverse(monkeypatch):
    monkeypatch.setattr(acceptance, "invert", lambda member: member)
    result = acceptance.criterion_normality()
    assert result.passed is False
    assert result.data["Schwartz"]["failures"] > 0


def test_criterion_6_fails_on_a_beta_1_percent_low(monkeypatch):
    spectral_sup = flows._spectral_sup
    monkeypatch.setattr(flows, "_spectral_sup", lambda mats: 0.99 * spectral_sup(mats))
    result = acceptance.criterion_inequality_verification()
    assert result.passed is False
    assert result.data["violations"] > 0


def _evolve_with_a_far_tail(field, t_final, dt, grid):
    """``evolve`` whose displacements gain 1e-12 beyond ``|x| = 8`` on a box wider than 8."""
    result = flows.evolve(field, t_final, dt, grid)
    if grid.half_width > 8.0:
        far = np.max(np.abs(np.asarray(grid.nodes())), axis=1) > 8.0
        result.displacements[:, far] += 1.0e-12
    return result


def test_criterion_7_fails_on_a_1e_12_tail_beyond_the_core(monkeypatch):
    monkeypatch.setattr(acceptance, "evolve", _evolve_with_a_far_tail)
    result = acceptance.criterion_class_preservation()
    assert result.passed is False
    assert result.data["weighted_gap"] > 1.0e-6

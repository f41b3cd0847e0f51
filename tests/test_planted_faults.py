"""Planted faults: each ``verify`` criterion must fail when the code it checks is wrong.

A criterion that passes on broken code checks nothing. Each test patches one
function the criterion calls with a faulty copy and asserts that the
criterion reports ``passed is False``; no threshold, seed or battery is
changed.
"""

import numpy as np

from diffeoflow import DisplacementField, Diffeo, acceptance, group, jets
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

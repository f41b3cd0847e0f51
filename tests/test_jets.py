import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from diffeoflow import (
    DisplacementField,
    Grid,
    Jet,
    JetError,
    SingularJacobianError,
    SymmetricTensor,
    UnsupportedOrderError,
    compose_jets,
    inverse_norm_bound,
    invert_jet,
    jet_from_dict,
    jet_from_displacement,
    jet_to_dict,
    symmetrize,
)
from diffeoflow.acceptance import _jet_1d, series_revert


class TestSymmetrize:
    def test_symmetric_input_is_fixed(self):
        dense = np.array([[1.0, 2.0], [2.0, -0.5]])
        tensor = symmetrize(dense)
        assert np.array_equal(tensor.dense()[0], dense)

    def test_transposition_average(self):
        e1e2 = np.zeros((2, 2))
        e1e2[0, 1] = 1.0
        tensor = symmetrize(e1e2)
        assert tensor.dense()[0, 0, 1] == 0.5
        assert tensor.dense()[0, 1, 0] == 0.5
        assert tensor.dense()[0, 0, 0] == 0.0

    def test_projection_property(self, rng):
        dense = rng.normal(size=(3, 3, 3))
        once = symmetrize(dense).dense()[0]
        twice = symmetrize(once).dense()[0]
        assert np.array_equal(once, twice)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedOrderError):
            symmetrize(np.zeros((2,) * 7))

    @given(arrays(np.float64, (2, 2, 2),
                  elements=st.floats(min_value=-2.0, max_value=2.0)))
    def test_evaluation_is_permutation_invariant(self, dense):
        tensor = symmetrize(dense, vector_valued=False)
        u, v, w = np.array([1.0, -0.5]), np.array([0.3, 2.0]), np.array([-1.1, 0.7])
        brute = np.zeros(1)
        for perm in itertools.permutations((u, v, w)):
            value = dense
            for vec in perm:
                value = np.tensordot(value, vec, axes=([0], [0]))
            brute += value
        brute /= 6.0
        assert np.allclose(tensor.apply(u, v, w), brute, atol=1e-12)


class TestSymmetricTensor:
    def test_index_access_sorts_keys(self):
        tensor = SymmetricTensor(2, 2)
        tensor[0, 1, 0] = 3.0
        assert tensor[0, 0, 1] == 3.0
        assert tensor.dense()[0, 1, 0] == 3.0

    def test_apply_arity(self):
        tensor = SymmetricTensor(2, 2)
        with pytest.raises(JetError):
            tensor.apply(np.ones(2))

    def test_shape_validation(self):
        with pytest.raises(JetError):
            SymmetricTensor(2, 1, packed=np.zeros((2, 5)))
        with pytest.raises(JetError):
            SymmetricTensor(0, 1)


class TestJetBasics:
    def test_identity_jet(self):
        jet = Jet.identity(2, 3, base_point=[1.0, -2.0])
        assert np.array_equal(jet.value, [1.0, -2.0])
        assert np.array_equal(jet.jacobian(), np.eye(2))
        assert np.all(jet.dense_term(2) == 0.0)
        assert jet.order == 3

    def test_needs_two_terms(self):
        with pytest.raises(JetError):
            Jet([0.0], [np.zeros(1)])

    def test_term_shape_validation(self):
        with pytest.raises(JetError):
            Jet([0.0, 0.0], [np.zeros(2), np.zeros((2, 3))])

    def test_truncate(self):
        jet = _jet_1d(0.0, [0.0, 1.0, 0.5, -0.2])
        cut = jet.truncate(2)
        assert cut.order == 2
        assert cut.dense_term(2)[0, 0, 0] == 0.5
        with pytest.raises(JetError):
            jet.truncate(5)


class TestCompose:
    def test_classical_second_order_chain_rule(self):
        g1, g2 = 1.3, -0.4          # normalized: g', g''/2
        f1, f2 = 0.7, 0.25
        inner = _jet_1d(0.1, [0.6, g1, g2])
        outer = _jet_1d(0.6, [2.0, f1, f2])
        composed = compose_jets(outer, inner)
        assert composed.value[0] == 2.0
        assert composed.dense_term(1)[0, 0] == pytest.approx(f1 * g1, abs=1e-15)
        assert composed.dense_term(2)[0, 0, 0] == pytest.approx(
            f2 * g1 ** 2 + f1 * g2, abs=1e-15)

    def test_identity_is_two_sided_unit(self):
        jet = _jet_1d(0.2, [0.9, 1.4, -0.3, 0.05])
        right = compose_jets(jet, Jet.identity(1, 3, base_point=[0.2]))
        left = compose_jets(Jet.identity(1, 3, base_point=[0.9]), jet)
        for other in (right, left):
            for k in range(4):
                assert np.allclose(other.dense_term(k), jet.dense_term(k), atol=1e-15)

    def test_exp_of_sin_taylor_coefficients(self):
        sin_jet = _jet_1d(0.0, [0.0, 1.0, 0.0, -1.0 / 6.0, 0.0, 1.0 / 120.0])
        exp_jet = _jet_1d(0.0, [1.0 / math.factorial(k) for k in range(6)])
        composed = compose_jets(exp_jet, sin_jet)
        want = [1.0, 1.0, 0.5, 0.0, -1.0 / 8.0, -1.0 / 15.0]
        got = [composed.dense_term(k).reshape(-1)[0] for k in range(6)]
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-12

    def test_base_point_mismatch(self):
        inner = _jet_1d(0.0, [0.5, 1.0])
        outer = _jet_1d(0.0, [0.0, 1.0])  # based at 0, image is 0.5
        with pytest.raises(JetError):
            compose_jets(outer, inner)

    def test_order_and_dimension_mismatch(self):
        with pytest.raises(JetError):
            compose_jets(_jet_1d(0.0, [0.0, 1.0, 0.1]), _jet_1d(0.0, [0.0, 1.0]))
        with pytest.raises(JetError):
            compose_jets(Jet.identity(2, 2), _jet_1d(0.0, [0.0, 1.0, 0.0]))

    def test_associativity_on_random_jets(self, rng):
        for dim in (1, 2):
            for _ in range(3):
                def random_jet(base, value):
                    terms = [np.asarray(value, dtype=np.float64),
                             np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))]
                    for k in range(2, 5):
                        terms.append(0.2 * rng.normal(size=(dim,) * (k + 1)))
                    return Jet(base, terms)

                h = random_jet(rng.normal(size=dim), rng.normal(size=dim))
                g = random_jet(h.value, rng.normal(size=dim))
                f = random_jet(g.value, rng.normal(size=dim))
                lhs = compose_jets(f, compose_jets(g, h))
                rhs = compose_jets(compose_jets(f, g), h)
                for k in range(5):
                    assert np.allclose(lhs.dense_term(k), rhs.dense_term(k),
                                       atol=1e-10)


class TestInvert:
    def test_identity_inverts_to_identity(self):
        jet = Jet.identity(2, 3, base_point=[0.5, -1.0])
        inverse = invert_jet(jet)
        assert np.allclose(inverse.jacobian(), np.eye(2), atol=1e-15)
        assert np.all(inverse.dense_term(3) == 0.0)

    def test_quadratic_map_reversion(self):
        # x + a x^2 inverts to y - a y^2 + 2 a^2 y^3 - ...
        a = 0.3
        jet = _jet_1d(0.0, [0.0, 1.0, a, 0.0])
        inverse = invert_jet(jet)
        assert inverse.dense_term(1)[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert inverse.dense_term(2)[0, 0, 0] == pytest.approx(-a, abs=1e-14)
        assert inverse.dense_term(3)[0, 0, 0, 0] == pytest.approx(
            2.0 * a * a, abs=1e-14)

    def test_matches_series_reversion_oracle(self):
        coeffs = [0.0, 1.0, 0.3, 0.1, -0.05]
        inverse = invert_jet(_jet_1d(0.0, coeffs))
        want = series_revert(coeffs, 4)
        got = [0.0] + [inverse.dense_term(k).reshape(-1)[0] for k in range(1, 5)]
        assert np.max(np.abs(np.array(got) - np.array(want))) <= 1e-10

    def test_two_sided_identity(self, rng):
        for _ in range(3):
            terms = [rng.normal(size=2), np.eye(2) + 0.25 * rng.normal(size=(2, 2))]
            for k in range(2, 5):
                terms.append(0.15 * rng.normal(size=(2,) * (k + 1)))
            jet = Jet(rng.normal(size=2), terms)
            inverse = invert_jet(jet)
            left = compose_jets(inverse, jet)
            right = compose_jets(jet, inverse)
            for composed, base in ((left, jet.base_point), (right, jet.value)):
                assert np.allclose(composed.value, base, atol=1e-10)
                assert np.allclose(composed.jacobian(), np.eye(2), atol=1e-10)
                for k in range(2, 5):
                    assert np.max(np.abs(composed.dense_term(k))) <= 1e-10

    def test_singular_jacobian_rejected(self):
        jet = Jet([0.0, 0.0], [np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
        with pytest.raises(SingularJacobianError):
            invert_jet(jet)


class TestInverseNormBound:
    def test_identity(self):
        bound, holds = inverse_norm_bound(np.eye(2))
        assert bound == pytest.approx(1.0, abs=1e-15)
        assert holds

    def test_equality_on_diagonal_case(self):
        bound, holds = inverse_norm_bound(np.diag([2.0, 1.0]))
        assert holds
        assert bound == pytest.approx(1.0, abs=1e-12)
        actual = np.linalg.norm(np.linalg.inv(np.diag([2.0, 1.0])), 2)
        assert abs(bound - actual) <= 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularJacobianError):
            inverse_norm_bound(np.zeros((2, 2)))
        with pytest.raises(JetError):
            inverse_norm_bound(np.zeros((2, 3)))

    @given(arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-3.0, max_value=3.0)))
    def test_bound_holds_on_random_matrices(self, matrix):
        if abs(np.linalg.det(matrix)) < 0.1:
            return
        bound, holds = inverse_norm_bound(matrix)
        assert holds
        assert np.linalg.norm(np.linalg.inv(matrix), 2) <= bound + 1e-12


class TestSerialization:
    def test_round_trip(self, rng):
        terms = [rng.normal(size=2), np.eye(2) + 0.2 * rng.normal(size=(2, 2)),
                 0.1 * rng.normal(size=(2, 2, 2))]
        jet = Jet([0.1, -0.4], terms)
        clone = jet_from_dict(jet_to_dict(jet))
        assert np.array_equal(clone.base_point, jet.base_point)
        for k in range(3):
            assert np.array_equal(clone.term(k).packed, jet.term(k).packed)

    def test_corrupted_payloads_rejected(self):
        data = jet_to_dict(_jet_1d(0.0, [0.0, 1.0, 0.2]))
        missing = dict(data)
        del missing["terms"]
        with pytest.raises(JetError):
            jet_from_dict(missing)

        short = dict(data, terms=data["terms"][:-1])
        with pytest.raises(JetError):
            jet_from_dict(short)

        relabeled = dict(data, terms=[dict(data["terms"][0], degree=5)]
                         + data["terms"][1:])
        with pytest.raises(JetError):
            jet_from_dict(relabeled)

        bad_key = dict(data, terms=data["terms"][:1] + [
            {"degree": 1, "coeffs": {"7": [1.0]}}] + data["terms"][2:])
        with pytest.raises(JetError):
            jet_from_dict(bad_key)

    @pytest.mark.parametrize("mangle", [
        lambda terms: terms[:1] + [[1, 2]] + terms[2:],                  # term not a dict
        lambda terms: terms[:1] + [{"degree": 1, "coeffs": {"x": [1.0]}}] + terms[2:],
        lambda terms: terms[:1] + [{"degree": 1, "coeffs": {"0": [1.0, 2.0]}}] + terms[2:],
    ], ids=["term-not-dict", "slot-key-not-int", "coeffs-wrong-length"])
    def test_junk_terms_raise_jet_error(self, mangle):
        data = jet_to_dict(_jet_1d(0.0, [0.0, 1.0, 0.2]))
        with pytest.raises(JetError):
            jet_from_dict(dict(data, terms=mangle(data["terms"])))


def test_jet_from_displacement_matches_analytic():
    grid = Grid(1, 8.0, 513)
    disp = DisplacementField.from_descriptor(grid, "0.2*exp(-x^2)")
    jet = jet_from_displacement(disp, [0.25], 3)
    from diffeoflow.acceptance import _descriptor_jet
    exact = _descriptor_jet("0.2*exp(-x^2)", (0.25,), 3)
    assert abs(jet.value[0] - exact.value[0]) <= 1e-10
    for k in range(1, 4):
        gap = np.max(np.abs(jet.dense_term(k) - exact.dense_term(k)))
        assert gap <= 1e-4  # stencil accuracy at h = 1/32
    with pytest.raises(JetError):
        jet_from_displacement(disp, [0.25], 0)

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
    UnsupportedOrderError,
    compose_jets,
    inverse_norm_bound,
    invert_jet,
    jet_from_displacement,
    symmetrize,
)
from diffeoflow.acceptance import _jet_1d, series_revert
from diffeoflow.jets import MAX_DEGREE


def _packed_oracle(dense: np.ndarray) -> np.ndarray:
    """Symmetrize, keep one entry per sorted index tuple, unpack.

    This is how jet terms were stored before the dense layout: the permutation
    average of ``dense`` packed into the slots of sorted index tuples, then
    every index tuple read back through its sorted form.
    """
    dense = np.asarray(dense, dtype=np.float64)
    degree = dense.ndim - 1
    dim = dense.shape[0]
    averaged = dense.copy()
    if degree > 1:
        total = np.zeros_like(dense)
        count = 0
        for perm in itertools.permutations(range(1, dense.ndim)):
            total += np.transpose(dense, (0,) + perm)
            count += 1
        averaged = total / count
    combos = list(itertools.combinations_with_replacement(range(dim), degree))
    packed = np.empty((dense.shape[0], len(combos)))
    for slot, combo in enumerate(combos):
        packed[:, slot] = averaged[(slice(None),) + combo]
    index = {combo: slot for slot, combo in enumerate(combos)}
    out = np.empty_like(dense)
    for combo in itertools.product(range(dim), repeat=degree):
        out[(slice(None),) + combo] = packed[:, index[tuple(sorted(combo))]]
    return out


def _random_jet(rng, dim: int, order: int) -> Jet:
    terms = [rng.normal(size=dim)] + [rng.normal(size=(dim,) * (k + 1))
                                      for k in range(1, order + 1)]
    return Jet(rng.normal(size=dim), terms)


class TestJetLayoutParity:
    """Seeded order-6 jets, so every degree 0..6 is covered in each dim."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_terms_match_packed_layout_bitwise(self, rng, dim):
        for _ in range(3):
            terms = [rng.normal(size=(dim,) * (k + 1)) for k in range(MAX_DEGREE + 1)]
            jet = Jet(rng.normal(size=dim), terms)
            for k in range(MAX_DEGREE + 1):
                want = _packed_oracle(terms[k])
                got = jet.dense_term(k)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_index_permutation_holds_same_bits(self, rng, dim):
        jet = _random_jet(rng, dim, MAX_DEGREE)
        for k in range(2, MAX_DEGREE + 1):
            term = jet.dense_term(k)
            for perm in itertools.permutations(range(1, k + 1)):
                assert np.transpose(term, (0,) + perm).tobytes() == term.tobytes()

    def test_terms_are_read_only(self, rng):
        jet = _random_jet(rng, 2, 3)
        for k in range(4):
            with pytest.raises(ValueError):
                jet.dense_term(k)[(0,) * (k + 1)] = 1.0
        value = jet.value
        value[0] = 7.0  # the image point is handed out as a copy
        assert jet.dense_term(0)[0] != 7.0


class TestSymmetrize:
    def test_symmetric_input_is_fixed(self):
        dense = np.array([[1.0, 2.0], [2.0, -0.5]])
        assert np.array_equal(symmetrize(dense[None])[0], dense)

    def test_transposition_average(self):
        e1e2 = np.zeros((2, 2))
        e1e2[0, 1] = 1.0
        sym = symmetrize(e1e2[None])[0]
        assert sym[0, 1] == 0.5
        assert sym[1, 0] == 0.5
        assert sym[0, 0] == 0.0

    def test_projection_property(self, rng):
        dense = rng.normal(size=(1, 3, 3, 3))
        once = symmetrize(dense)
        twice = symmetrize(once)
        assert np.array_equal(once, twice)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedOrderError):
            symmetrize(np.zeros((2,) * 8))

    @given(arrays(np.float64, (2, 2, 2),
                  elements=st.floats(min_value=-2.0, max_value=2.0)))
    def test_evaluation_is_permutation_invariant(self, dense):
        sym = symmetrize(dense[None])[0]
        u, v, w = np.array([1.0, -0.5]), np.array([0.3, 2.0]), np.array([-1.1, 0.7])
        applied = sym
        for vec in (u, v, w):
            applied = np.tensordot(applied, vec, axes=([0], [0]))
        brute = 0.0
        for perm in itertools.permutations((u, v, w)):
            value = dense
            for vec in perm:
                value = np.tensordot(value, vec, axes=([0], [0]))
            brute += value
        brute /= 6.0
        assert np.allclose(applied, brute, atol=1e-12)


class TestJetBasics:
    def test_identity_jet(self):
        jet = Jet.identity(2, 3, base_point=[1.0, -2.0])
        assert np.array_equal(jet.value, [1.0, -2.0])
        assert np.array_equal(jet.dense_term(1), np.eye(2))
        assert np.all(jet.dense_term(2) == 0.0)
        assert jet.order == 3

    def test_needs_two_terms(self):
        with pytest.raises(JetError):
            Jet([0.0], [np.zeros(1)])

    def test_term_shape_validation(self):
        with pytest.raises(JetError):
            Jet([0.0, 0.0], [np.zeros(2), np.zeros((2, 3))])
        with pytest.raises(JetError):
            Jet([], [np.zeros(0), np.zeros((0, 0))])
        with pytest.raises(UnsupportedOrderError):
            Jet([0.0], [np.zeros((1,) * (k + 1)) for k in range(8)])


class TestSymmetricTensor:
    """The symmetric tensors a jet stores as its terms."""

    def test_shape_validation(self):
        # A degree-2 term in R^2 given in the old packed layout (one entry per
        # sorted index pair) is not the dense (2, 2, 2) tensor and is refused.
        with pytest.raises(JetError):
            Jet([0.0, 0.0], [np.zeros(2), np.eye(2), np.zeros((2, 3))])
        with pytest.raises(JetError):
            Jet(np.zeros(0), [np.zeros(0), np.zeros((0, 0))])


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
        assert np.allclose(inverse.dense_term(1), np.eye(2), atol=1e-15)
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
                assert np.allclose(composed.dense_term(1), np.eye(2), atol=1e-10)
                for k in range(2, 5):
                    assert np.max(np.abs(composed.dense_term(k))) <= 1e-10

    def test_singular_jacobian_rejected(self):
        jet = Jet([0.0, 0.0], [np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]])])
        with pytest.raises(SingularJacobianError):
            invert_jet(jet)


class TestInverseNormBound:
    def test_identity(self):
        assert inverse_norm_bound(np.eye(2)) == pytest.approx(1.0, abs=1e-15)

    def test_equality_on_diagonal_case(self):
        bound = inverse_norm_bound(np.diag([2.0, 1.0]))
        assert bound == pytest.approx(1.0, abs=1e-12)
        actual = np.linalg.norm(np.linalg.inv(np.diag([2.0, 1.0])), 2)
        assert abs(bound - actual) <= 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularJacobianError):
            inverse_norm_bound(np.zeros((2, 2)))
        with pytest.raises(JetError):
            inverse_norm_bound(np.zeros((2, 3)))

    def test_single_matrix_returns_python_scalars(self):
        assert type(inverse_norm_bound(np.array([[1.0, 2.0], [0.5, -1.0]]))) is float

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_is_bit_equal_to_single_calls(self, n):
        stack = np.random.default_rng(82).uniform(-2.0, 2.0, size=(2000, n, n))
        if n == 3:
            # numpy's power rounds some of these squares unlike libm's pow
            norms = np.linalg.norm(stack, 2, axis=(1, 2))
            assert np.any(norms ** 2 != np.array([x ** 2 for x in norms.tolist()]))
        bound = inverse_norm_bound(stack)
        assert bound.shape == (2000,) and bound.dtype == np.float64
        singles = [inverse_norm_bound(matrix) for matrix in stack]
        assert bound.tobytes() == np.array(singles).tobytes()
        # the direct norms keep under the bound
        direct = np.linalg.norm(np.linalg.inv(stack), 2, axis=(1, 2))
        assert np.all(direct <= bound + 1e-12)
        # the per-matrix formula written out: Python's float power, as a scalar caller has it
        spelled = [float(np.linalg.norm(m, 2)) ** (n - 1) / abs(float(np.linalg.det(m)))
                   for m in stack]
        assert bound.tobytes() == np.array(spelled).tobytes()

    def test_stack_with_one_singular_matrix_rejected(self):
        stack = np.random.default_rng(90).uniform(-2.0, 2.0, size=(5, 2, 2))
        stack[3] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(SingularJacobianError):
            inverse_norm_bound(stack)

    @pytest.mark.parametrize("shape", [(4, 2, 3), (3,), (2, 2, 2, 2)])
    def test_non_square_shapes_rejected(self, shape):
        with pytest.raises(JetError):
            inverse_norm_bound(np.ones(shape))

    @given(arrays(np.float64, (3, 3),
                  elements=st.floats(min_value=-3.0, max_value=3.0)))
    def test_bound_holds_on_random_matrices(self, matrix):
        if abs(np.linalg.det(matrix)) < 0.1:
            return
        bound = inverse_norm_bound(matrix)
        assert np.linalg.norm(np.linalg.inv(matrix), 2) <= bound + 1e-12


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

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffeoflow import (
    DescriptorError,
    DisplacementField,
    FieldError,
    Grid,
    ScalarField,
    UnsupportedOrderError,
    partial_derivative,
    resample,
    sample,
    sobolev_seminorm,
    sup_seminorm,
    weighted_seminorm,
)
from diffeoflow.fields import (
    _interp_stencil,
    det_plus_identity,
    multi_indices_up_to,
    row_max,
    row_norms,
    spectral_norms,
    weight_factor,
)
from diffeoflow.flows import _pointwise_norm

GAUSS = "exp(-x^2)"


class TestGrid:
    def test_basic_properties(self):
        grid = Grid(1, 8.0, 257)
        assert grid.spacing == pytest.approx(1.0 / 16.0, abs=0.0)
        assert grid.shape == (257,)
        assert grid.node_count == 257
        axis = grid.axis_coordinates()
        assert axis[0] == -8.0 and axis[-1] == 8.0
        assert grid.nodes().shape == (257, 1)

    def test_doubled_keeps_box_and_halves_spacing(self):
        grid = Grid(2, 4.0, 33).doubled()
        assert grid.points_per_axis == 65
        assert grid.half_width == 4.0
        assert grid.spacing == pytest.approx(0.125, abs=0.0)

    @pytest.mark.parametrize("dim,half,n", [
        (4, 8.0, 257), (0, 8.0, 257), (1, 0.0, 257), (1, -1.0, 257),
        (1, 8.0, 256), (1, 8.0, 15),
    ])
    def test_rejects_bad_parameters(self, dim, half, n):
        with pytest.raises(FieldError):
            Grid(dim, half, n)


class TestSample:
    def test_zero_descriptor(self, line_grid):
        field = sample("0", line_grid)
        assert isinstance(field, ScalarField)
        assert np.all(field.values == 0.0)

    def test_gaussian_node_values(self, line_grid):
        field = sample(GAUSS, line_grid)
        center = line_grid.points_per_axis // 2
        assert field.values[center] == 1.0
        x1 = center + 16  # node x = 1 at spacing 1/16
        assert field.values[x1] == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_vector_descriptor_gives_displacement(self, plane_grid):
        field = sample("0.1*exp(-(x^2+y^2)), 0", plane_grid)
        assert isinstance(field, DisplacementField)
        assert field.values.shape == (2, 65, 65)
        assert np.all(field.values[1] == 0.0)

    def test_rejects_out_of_dimension_variable(self, line_grid):
        with pytest.raises(DescriptorError):
            sample("exp(-y^2)", line_grid)

    def test_rejects_non_finite_values(self, line_grid):
        with pytest.raises(FieldError):
            ScalarField(line_grid, np.full(line_grid.shape, np.nan))

    def test_time_slice(self, line_grid):
        with pytest.raises(DescriptorError):
            sample("cos(t)*exp(-x^2)", line_grid)


class TestDerivatives:
    def test_constant_has_zero_derivative(self, line_grid):
        field = sample("3.5", line_grid)
        assert sup_seminorm(field, 1) <= 1e-12

    def test_sin_derivative_at_origin(self):
        grid = Grid(1, 4.0 * math.pi, 513)
        d = partial_derivative(sample("sin(x)", grid), 1)
        value = d.sample(np.array([[0.0]]))[0]
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_gaussian_second_derivative_at_origin(self, fine_grid):
        d2 = partial_derivative(sample(GAUSS, fine_grid), 2)
        value = d2.values[fine_grid.points_per_axis // 2]
        assert value == pytest.approx(-2.0, abs=1e-5)

    def test_order_cap(self, line_grid):
        with pytest.raises(UnsupportedOrderError):
            partial_derivative(sample(GAUSS, line_grid), 7)

    def test_alpha_validation(self, line_grid, plane_grid):
        with pytest.raises(FieldError):
            partial_derivative(sample(GAUSS, line_grid), (1, 0))
        with pytest.raises(FieldError):
            partial_derivative(sample("exp(-(x^2+y^2))", plane_grid), 1)
        with pytest.raises(FieldError):
            partial_derivative("not a field", 1)

    def test_refinement_converges_at_stencil_order(self):
        errors = []
        for n in (257, 513):
            grid = Grid(1, 4.0 * math.pi, n)
            d = partial_derivative(sample("sin(x)", grid), 1)
            errors.append(abs(d.sample(np.array([[0.0]]))[0] - 1.0))
        order = math.log2(errors[0] / errors[1])
        assert order >= 3.5

    def test_mixed_partial_symmetry(self, plane_grid):
        field = sample("sin(x)*cos(y)", plane_grid)
        dxy = partial_derivative(field, (1, 1)).values
        dyx = partial_derivative(partial_derivative(field, (0, 1)), (1, 0)).values
        assert np.max(np.abs(dxy - dyx)) <= 1e-10


class TestSeminorms:
    def test_sup_zero_field(self, line_grid):
        assert sup_seminorm(sample("0", line_grid), 0) == 0.0

    def test_sup_gaussian(self):
        grid = Grid(1, 8.0, 1025)
        field = sample(GAUSS, grid)
        assert sup_seminorm(field, 0) == pytest.approx(1.0, abs=1e-12)
        want = math.sqrt(2.0) * math.exp(-0.5)
        assert sup_seminorm(field, 1) == pytest.approx(want, abs=1e-4)

    def test_weighted_constant_grows_with_box(self, line_grid):
        field = sample("1", line_grid, extrapolation="clamp")
        assert weighted_seminorm(field, 0, m=1) == 65.0
        assert weighted_seminorm(field, 0, m=0) == 1.0

    def test_weighted_gaussian_matches_brute_force(self, fine_grid):
        field = sample(GAUSS, fine_grid)
        nodes = np.asarray(fine_grid.nodes())[:, 0]
        brute = np.max((1.0 + nodes ** 2) ** 2 * np.exp(-nodes ** 2))
        value = weighted_seminorm(field, 0, m=2)
        assert value == pytest.approx(brute, abs=1e-14)
        # maximizer sits in the interior, not at the box corner
        assert value < (1.0 + 64.0) ** 2 * math.exp(-64.0) + 2.0

    def test_sobolev_gaussian(self, fine_grid):
        value = sobolev_seminorm(sample(GAUSS, fine_grid), 0)
        assert value == pytest.approx((math.pi / 2.0) ** 0.25, abs=1e-4)

    def test_sobolev_of_bump_is_box_independent(self):
        values = []
        for half, n in ((4.0, 129), (8.0, 257)):  # same spacing 1/16
            grid = Grid(1, half, n)
            values.append(sobolev_seminorm(sample("bump(x)", grid), 1))
        assert abs(values[0] - values[1]) <= 1e-10

    def test_displacement_seminorm_uses_euclidean_magnitude(self, plane_grid):
        field = sample("0.3, 0.4", plane_grid, extrapolation="clamp")
        assert sup_seminorm(field, (0, 0)) == pytest.approx(0.5, abs=1e-15)


COEFF = st.floats(min_value=-64.0, max_value=64.0).filter(lambda c: abs(c) >= 1e-3)


@given(c=COEFF, alpha=st.integers(min_value=0, max_value=2))
def test_seminorms_are_absolutely_homogeneous(c, alpha):
    grid = Grid(1, 8.0, 65)
    base = sample(GAUSS, grid)
    scaled = ScalarField(grid, c * base.values)
    for seminorm in (sup_seminorm, sobolev_seminorm):
        assert seminorm(scaled, alpha) == pytest.approx(
            abs(c) * seminorm(base, alpha), rel=1e-12)
    assert weighted_seminorm(scaled, alpha, m=2) == pytest.approx(
        abs(c) * weighted_seminorm(base, alpha, m=2), rel=1e-12)


@given(a=COEFF, b=COEFF, alpha=st.integers(min_value=0, max_value=2))
def test_seminorms_satisfy_triangle_inequality(a, b, alpha):
    grid = Grid(1, 8.0, 65)
    f = ScalarField(grid, a * sample(GAUSS, grid).values)
    g = ScalarField(grid, b * sample("x*exp(-x^2)", grid).values)
    total = ScalarField(grid, f.values + g.values)
    for seminorm in (sup_seminorm, weighted_seminorm, sobolev_seminorm):
        assert seminorm(total, alpha) <= (
            seminorm(f, alpha) + seminorm(g, alpha) + 1e-10)


class TestResample:
    def test_nodes_reproduce_exactly(self, line_grid):
        field = sample(GAUSS, line_grid)
        got = resample(field, np.asarray(line_grid.nodes()))
        assert np.array_equal(got, field.values)

    def test_off_node_sine(self):
        grid = Grid(1, 4.0 * math.pi, 1025)
        field = sample("sin(x)", grid)
        x = 0.5 * grid.spacing
        assert resample(field, np.array([[x]]))[0] == pytest.approx(
            math.sin(x), abs=1e-6)

    def test_extrapolation_modes(self, line_grid):
        decaying = sample(GAUSS, line_grid)
        assert resample(decaying, np.array([[16.0]]))[0] == 0.0
        clamped = sample("tanh(x)", line_grid, extrapolation="clamp")
        boundary = clamped.values[-1]
        assert resample(clamped, np.array([[16.0]]))[0] == pytest.approx(
            boundary, abs=1e-12)

    def test_rejects_nan_coordinates(self, line_grid):
        field = sample(GAUSS, line_grid)
        with pytest.raises(FieldError):
            resample(field, np.array([[np.nan]]))

    def test_rejects_wrong_trailing_dimension(self, line_grid):
        field = sample(GAUSS, line_grid)
        with pytest.raises(FieldError):
            resample(field, np.zeros((4, 2)))

    def test_interpolation_beats_linear_accuracy(self, line_grid):
        field = sample(GAUSS, line_grid)
        xs = np.linspace(-2.0, 2.0, 101)[:, None]
        got = resample(field, xs)
        err = np.max(np.abs(got - np.exp(-xs[:, 0] ** 2)))
        assert err <= 5e-6  # cubic error bound 0.0234 h^4 |f''''| at h = 1/16


class TestDisplacementField:
    def test_jacobian_against_analytic(self, fine_grid):
        field = DisplacementField.from_descriptor(fine_grid, "0.2*exp(-x^2)")
        pts = np.array([[0.5], [-1.25]])
        jac = field.jacobian_at(pts)
        want = -2.0 * pts[:, 0] * 0.2 * np.exp(-pts[:, 0] ** 2)
        assert np.max(np.abs(jac[:, 0, 0] - want)) <= 1e-6

    def test_zero_constructor(self, line_grid):
        field = DisplacementField.zero(line_grid)
        assert np.all(field.values == 0.0)

    def test_from_callable_matches_descriptor(self, line_grid):
        by_text = DisplacementField.from_descriptor(line_grid, "0.1*sin(x)*exp(-x^2)")
        by_fn = DisplacementField.from_callable(
            line_grid, lambda pts: 0.1 * np.sin(pts) * np.exp(-pts ** 2))
        assert np.max(np.abs(by_text.values - by_fn.values)) <= 1e-15

    def test_regrid_requires_same_dimension(self, line_grid, plane_grid):
        field = DisplacementField.zero(line_grid)
        with pytest.raises(FieldError):
            field.regrid(plane_grid)


def _per_component_oracle(values, grid, points, extrapolation):
    """The per-component cubic gather that the shared-stencil kernel replaced."""
    half = grid.half_width
    if extrapolation == "clamp":
        coords = np.clip(points, -half, half)
        inside = None
    else:
        inside = np.all(np.abs(points) <= half, axis=-1)
        coords = np.clip(points, -half, half)
    base, weights = _interp_stencil(grid, coords)
    flat = values.reshape(-1)
    strides = [grid.points_per_axis ** (grid.dim - 1 - j) for j in range(grid.dim)]
    acc = np.zeros(points.shape[0])
    for offsets in itertools.product(range(4), repeat=grid.dim):
        idx = np.zeros(points.shape[0], dtype=np.int64)
        w = np.ones(points.shape[0])
        for j, k in enumerate(offsets):
            idx += (base[:, j] + k) * strides[j]
            w = w * weights[:, j, k]
        acc += w * flat[idx]
    if inside is not None:
        acc = np.where(inside, acc, 0.0)
    return acc


def _query_points(grid, rng):
    """Interior, on-node, on-face and outside points, shaped ``(3, 16, dim)``."""
    dim, half = grid.dim, grid.half_width
    interior = rng.uniform(-half, half, size=(12, dim))
    nodes = np.asarray(grid.nodes())
    on_nodes = np.concatenate([nodes[[0, -1]], nodes[rng.integers(0, grid.node_count, 10)]])
    faces = rng.uniform(-half, half, size=(12, dim))
    faces[np.arange(12), np.arange(12) % dim] = np.where(np.arange(12) % 2, half, -half)
    outside = rng.uniform(-half, half, size=(12, dim))
    outside[np.arange(12), np.arange(12) % dim] = np.where(
        np.arange(12) % 2, 1.0, -1.0) * rng.uniform(half * 1.01, 2.0 * half, size=12)
    return np.concatenate([interior, on_nodes, faces, outside]).reshape(3, 16, dim)


GATHER_GRIDS = [Grid(1, 4.0, 33), Grid(2, 4.0, 17), Grid(3, 2.0, 17)]


@pytest.mark.parametrize("extrapolation", ["zero", "clamp"])
@pytest.mark.parametrize("grid", GATHER_GRIDS, ids=["1d", "2d", "3d"])
class TestSharedStencilGather:
    """The shared-stencil gather is bit-identical to the per-component one."""

    @pytest.fixture
    def case(self, grid, extrapolation):
        rng = np.random.default_rng(grid.dim)
        values = rng.normal(size=(grid.dim,) + grid.shape)
        field = DisplacementField(grid, values, extrapolation)
        pts = _query_points(grid, rng)
        return field, pts, pts.reshape(-1, grid.dim)

    def test_scalar_sample(self, case):
        field, pts, flat = case
        scalar = ScalarField(field.grid, field.values[-1], field.extrapolation)
        want = _per_component_oracle(scalar.values, field.grid, flat, field.extrapolation)
        assert np.array_equal(scalar.sample(pts), want.reshape(pts.shape[:-1]))

    def test_displacement_sample(self, case):
        field, pts, flat = case
        want = np.stack([_per_component_oracle(field.values[i], field.grid, flat,
                                               field.extrapolation)
                         for i in range(field.grid.dim)], axis=-1)
        got = field.sample(pts)
        assert got.flags.c_contiguous
        assert np.array_equal(got, want.reshape(pts.shape))

    def test_jacobian_at(self, case):
        field, pts, flat = case
        dim = field.grid.dim
        got = field.jacobian_at(pts)
        assert got.flags.c_contiguous
        assert got.shape == pts.shape[:-1] + (dim, dim)
        for i in range(dim):
            for j in range(dim):
                alpha = tuple(int(k == j) for k in range(dim))
                derivative = ScalarField(field.grid, field.values[i],
                                         field.extrapolation).partial_derivative(alpha)
                want = _per_component_oracle(derivative.values, field.grid, flat,
                                             field.extrapolation)
                assert np.array_equal(got[..., i, j], want.reshape(pts.shape[:-1]))
                assert np.array_equal(got[..., i, j], derivative.sample(pts))

    def test_regrid(self, case):
        field, _, _ = case
        grid = field.grid
        wider = Grid(grid.dim, 1.25 * grid.half_width, 19)
        nodes = np.asarray(wider.nodes())
        want = np.stack([_per_component_oracle(field.values[i], grid, nodes,
                                               field.extrapolation).reshape(wider.shape)
                         for i in range(grid.dim)])
        assert np.array_equal(field.regrid(wider).values, want)
        scalar = ScalarField(grid, field.values[0], field.extrapolation).regrid(wider)
        assert np.array_equal(scalar.values, want[0])


@pytest.mark.parametrize("extrapolation", ["zero", "clamp"])
@pytest.mark.parametrize("grid", GATHER_GRIDS, ids=["1d", "2d", "3d"])
class TestStackedDerivativeStore:
    """Derivatives of the channel-stacked store match per-channel scalar fields."""

    @pytest.fixture
    def field(self, grid, extrapolation):
        rng = np.random.default_rng(10 + grid.dim)
        return DisplacementField(grid, rng.normal(size=(grid.dim,) + grid.shape), extrapolation)

    def test_partial_derivatives_match_scalar_channels(self, field):
        grid = field.grid
        channels = [ScalarField(grid, field.values[i], field.extrapolation)
                    for i in range(grid.dim)]
        for alpha in multi_indices_up_to(grid.dim, 3):
            derivative = field.partial_derivative(alpha)
            assert derivative.values.shape == (grid.dim,) + grid.shape
            assert derivative.extrapolation == field.extrapolation
            for i, channel in enumerate(channels):
                want = channel.partial_derivative(alpha).values
                assert np.array_equal(derivative.values[i], want)
            assert field.partial_derivative(alpha) is derivative

    def test_jacobian_grid_matches_scalar_channels(self, field):
        grid = field.grid
        jac = field.jacobian_grid()
        assert jac.shape == (grid.dim, grid.dim) + grid.shape
        for i in range(grid.dim):
            channel = ScalarField(grid, field.values[i], field.extrapolation)
            for j in range(grid.dim):
                alpha = tuple(int(k == j) for k in range(grid.dim))
                assert np.array_equal(jac[i, j], channel.partial_derivative(alpha).values)
        assert spectral_norms(jac).shape == grid.shape
        assert det_plus_identity(jac).shape == grid.shape

    def test_node_layout_round_trip(self, field):
        grid = field.grid
        node_values = field.node_values()
        assert node_values.shape == (grid.node_count, grid.dim)
        assert np.array_equal(node_values[:, -1], field.values[-1].reshape(-1))
        back = DisplacementField.from_nodes(grid, node_values, field.extrapolation)
        assert np.array_equal(back.values, field.values)
        assert back.extrapolation == field.extrapolation


@pytest.mark.parametrize("grid", GATHER_GRIDS, ids=["1d", "2d", "3d"])
class TestShortAxisReductions:
    """Column-by-column reductions give the bits of the reductions over ``axis=-1``."""

    @pytest.fixture
    def points(self, grid):
        rng = np.random.default_rng(30 + grid.dim)
        wide = rng.normal(size=(64, grid.dim)) * rng.uniform(1e-3, 1e3, size=(64, 1))
        queries = _query_points(grid, rng).reshape(-1, grid.dim)
        return np.concatenate([queries, np.asarray(grid.nodes()), wide])

    def test_row_norms(self, points):
        assert np.array_equal(row_norms(points), np.sqrt(np.sum(points ** 2, axis=1)))

    def test_row_max(self, points):
        for a in (points, np.abs(points)):
            assert np.array_equal(row_max(a), np.max(a, axis=1))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_weight_factor(self, grid, m):
        nodes = np.asarray(grid.nodes())
        want = ((1.0 + np.sum(nodes ** 2, axis=1)) ** m).reshape(grid.shape)
        assert np.array_equal(weight_factor(grid, m), want)

    def test_pointwise_norm(self, grid, points):
        want = (np.abs(points[:, 0]) if grid.dim == 1
                else np.sqrt(np.sum(points * points, axis=1)))
        assert np.array_equal(_pointwise_norm(points), want)

    def test_zero_mode_mask(self, grid, points):
        # zero and clamp gather the same clipped stencil; only the mask differs
        rng = np.random.default_rng(40 + grid.dim)
        values = rng.normal(size=(grid.dim,) + grid.shape)
        zero = DisplacementField(grid, values, "zero").sample(points)
        clamp = DisplacementField(grid, values, "clamp").sample(points)
        inside = np.all(np.abs(points) <= grid.half_width, axis=-1)
        assert 0 < np.count_nonzero(inside) < inside.size
        assert np.any(np.abs(points) == grid.half_width)
        assert np.array_equal(zero, np.where(inside[:, None], clamp, 0.0))


KERNEL_ULPS = 8


def _kernel_layout(mats: np.ndarray) -> np.ndarray:
    """Node-major ``(m, dim, dim)`` matrices in the ``(dim, dim, m)`` kernel layout."""
    return np.ascontiguousarray(np.moveaxis(mats, 0, -1))


def _kernel_batch(dim: int, seed: int) -> np.ndarray:
    """Seeded Jacobians ``J``: generic, diagonal, and ones with a singular ``I + J``."""
    rng = np.random.default_rng(seed)
    generic = rng.normal(size=(600, dim, dim)) * rng.uniform(1e-3, 3.0, size=(600, 1, 1))
    diagonal = np.zeros((100, dim, dim))
    diagonal[:, range(dim), range(dim)] = rng.normal(size=(100, dim))
    rank_one = np.einsum("ki,kj->kij", rng.normal(size=(100, dim)), rng.normal(size=(100, dim)))
    singular = rank_one if dim > 1 else np.zeros((100, 1, 1))
    return np.concatenate([generic, diagonal, singular - np.eye(dim)])


def _rotations(count: int = 4000, noise: float = 0.0, seed: int = 50) -> tuple:
    """``theta * [[0, -1], [1, 0]]`` for theta across the flow-2d range and beyond."""
    theta = np.concatenate([np.linspace(0.24, 0.36, count), np.geomspace(1e-6, 10.0, count)])
    mats = np.zeros((theta.size, 2, 2))
    mats[:, 0, 1], mats[:, 1, 0] = -theta, theta
    mats += noise * np.random.default_rng(seed).normal(size=mats.shape)
    return theta, mats


def _assert_spectral_matches_lapack(mats: np.ndarray):
    got = spectral_norms(_kernel_layout(mats))
    want = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert np.all(np.isfinite(got))
    if mats.shape[-1] == 1:
        assert np.array_equal(got, want)
        assert np.array_equal(got, np.abs(mats[:, 0, 0]))
    else:
        assert np.all(np.abs(got - want) <= KERNEL_ULPS * np.spacing(want))


def _assert_det_matches_lapack(mats: np.ndarray):
    dim = mats.shape[-1]
    full = mats + np.eye(dim)
    got = det_plus_identity(_kernel_layout(mats))
    # Hadamard: |det| is at most the product of the row norms, which sets the rounding scale
    scale = np.prod(np.sqrt(np.sum(full ** 2, axis=-1)), axis=-1)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - np.linalg.det(full)) <= KERNEL_ULPS * np.spacing(scale))
    if dim == 1:
        assert np.array_equal(got, 1.0 + mats[:, 0, 0])


class TestJacobianKernels:
    """Closed-form spectral norms and ``det(I + J)`` against LAPACK."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_spectral_norms_match_svd(self, dim, seed):
        _assert_spectral_matches_lapack(_kernel_batch(dim, seed))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_det_plus_identity_matches_det(self, dim, seed):
        _assert_det_matches_lapack(_kernel_batch(dim, seed))

    def test_exact_rotations(self):
        theta, mats = _rotations()
        assert np.array_equal(spectral_norms(_kernel_layout(mats)), theta)
        _assert_spectral_matches_lapack(mats)
        _assert_det_matches_lapack(mats)

    @pytest.mark.parametrize("seed", [50, 51])
    def test_near_rotations(self, seed):
        _, mats = _rotations(noise=1.0e-9, seed=seed)
        _assert_spectral_matches_lapack(mats)
        _assert_det_matches_lapack(mats)

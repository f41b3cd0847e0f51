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
    sample,
    sobolev_seminorm,
    sup_seminorm,
    weighted_seminorm,
)
from diffeoflow import fields as fields_module
from diffeoflow.fields import (
    GATHER_BLOCK,
    MAX_DERIVATIVE_ORDER,
    det_plus_identity,
    multi_indices_up_to,
    point_derivatives,
    reads_only_zeros,
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
        coarse = Grid(2, 4.0, 33)
        grid = Grid(coarse.dim, coarse.half_width, 2 * coarse.points_per_axis - 1)
        assert grid.spacing == pytest.approx(0.125, abs=0.0)
        assert np.array_equal(grid.axis_coordinates()[::2], coarse.axis_coordinates())

    def test_node_cache_is_bounded_by_bytes(self, monkeypatch):
        small, mid, big, other = (Grid(1, 8.0, n) for n in (17, 33, 129, 19))
        # room for the 17- and 33-node arrays (136 + 264 bytes), not the 129-node one
        monkeypatch.setattr(fields_module, "NODE_CACHE_BYTES", 8 * (17 + 33))
        monkeypatch.setattr(fields_module, "_node_cache", type(fields_module._node_cache)())
        a, b = small.nodes(), mid.nodes()
        assert small.nodes() is a and mid.nodes() is b
        # larger than the whole budget: built on every call, nothing evicted
        c = big.nodes()
        assert big.nodes() is not c and np.array_equal(big.nodes(), c)
        assert small.nodes() is a
        # the least recently read array goes first: mid, since small was just read
        d = other.nodes()
        assert list(fields_module._node_cache) == [small, other]
        assert small.nodes() is a and other.nodes() is d
        # rebuilt: with its 264 bytes, small and then other are evicted
        assert mid.nodes() is not b and np.array_equal(mid.nodes(), b)
        assert list(fields_module._node_cache) == [mid]
        assert not any(g.nodes().flags.writeable for g in (small, mid, big, other))

    @pytest.mark.parametrize("dim,half,n", [
        (4, 8.0, 257), (0, 8.0, 257), (1, 0.0, 257), (1, -1.0, 257),
        (1, 8.0, 256), (1, 8.0, 15), (1, float("inf"), 257), (1, float("nan"), 257),
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
        field = sample("1", line_grid)
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
        field = sample("0.3, 0.4", plane_grid)
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
        got = field.sample(np.asarray(line_grid.nodes()))
        assert np.array_equal(got, field.values)

    def test_off_node_sine(self):
        grid = Grid(1, 4.0 * math.pi, 1025)
        field = sample("sin(x)", grid)
        x = 0.5 * grid.spacing
        assert field.sample(np.array([[x]]))[0] == pytest.approx(
            math.sin(x), abs=1e-6)

    def test_extrapolation_modes(self, line_grid):
        decaying = sample(GAUSS, line_grid)
        assert decaying.sample(np.array([[16.0]]))[0] == 0.0
        clamped = ScalarField(line_grid, sample("tanh(x)", line_grid).values, "clamp")
        boundary = clamped.values[-1]
        assert clamped.sample(np.array([[16.0]]))[0] == pytest.approx(
            boundary, abs=1e-12)

    def test_rejects_nan_coordinates(self, line_grid):
        field = sample(GAUSS, line_grid)
        with pytest.raises(FieldError):
            field.sample(np.array([[np.nan]]))

    def test_rejects_wrong_trailing_dimension(self, line_grid):
        field = sample(GAUSS, line_grid)
        with pytest.raises(FieldError):
            field.sample(np.zeros((4, 2)))

    def test_interpolation_beats_linear_accuracy(self, line_grid):
        field = sample(GAUSS, line_grid)
        xs = np.linspace(-2.0, 2.0, 101)[:, None]
        got = field.sample(xs)
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

    def test_regrid_requires_same_dimension(self, line_grid, plane_grid):
        field = DisplacementField.zero(line_grid)
        with pytest.raises(FieldError):
            field.regrid(plane_grid)


def _oracle_stencil(grid, coords):
    """Cubic Lagrange bases ``(m, dim)`` and weights ``(m, dim, 4)``, written out
    independently of the kernel under test."""
    n = grid.points_per_axis
    u = (coords + grid.half_width) / grid.spacing
    base = np.clip(np.floor(u).astype(np.int64) - 1, 0, n - 4)
    t = u - (base + 1)
    w = np.empty(t.shape + (4,))
    w[..., 0] = -t * (t - 1.0) * (t - 2.0) / 6.0
    w[..., 1] = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w[..., 2] = -(t + 1.0) * t * (t - 2.0) / 2.0
    w[..., 3] = (t + 1.0) * t * (t - 1.0) / 6.0
    return base, w


def _per_component_oracle(values, grid, points, extrapolation):
    """One component, one offset at a time, over all points in one pass."""
    half = grid.half_width
    if extrapolation == "clamp":
        coords = np.clip(points, -half, half)
        inside = None
    else:
        inside = np.all(np.abs(points) <= half, axis=-1)
        coords = np.clip(points, -half, half)
    base, weights = _oracle_stencil(grid, coords)
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


def _same_bytes(got, want):
    """Bit-for-bit equality, which also tells ``-0.0`` from ``0.0``."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


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
# h = 2/3: (x + L) / h is not an integer at every node
NON_DYADIC = Grid(3, 8.0, 25)
# jittered nodes of these span several gather blocks, the last one not full
BLOCKED_GRIDS = [Grid(2, 4.0, 129), Grid(3, 2.0, 33)]


def _jittered_nodes(grid, rng):
    """Every node moved by up to half a spacing per axis, some across a face."""
    h = grid.spacing
    nodes = np.asarray(grid.nodes())
    return nodes + rng.uniform(-0.5 * h, 0.5 * h, size=nodes.shape)


@pytest.mark.parametrize("extrapolation", ["zero", "clamp"])
@pytest.mark.parametrize("grid,queries", [
    *[(grid, "mixed") for grid in GATHER_GRIDS],
    (NON_DYADIC, "mixed"),
    *[(grid, "jittered") for grid in BLOCKED_GRIDS],
], ids=["1d", "2d", "3d", "3d-nondyadic", "2d-blocked", "3d-blocked"])
class TestSharedStencilGather:
    """The blocked shared-stencil gather is byte-identical to the per-component one."""

    @pytest.fixture
    def case(self, grid, queries, extrapolation):
        rng = np.random.default_rng(grid.dim)
        values = rng.normal(size=(grid.dim,) + grid.shape)
        field = DisplacementField(grid, values, extrapolation)
        if queries == "mixed":
            pts = _query_points(grid, rng)
        else:
            pts = _jittered_nodes(grid, rng)
            assert len(pts) > GATHER_BLOCK and len(pts) % GATHER_BLOCK != 0
        return field, pts, pts.reshape(-1, grid.dim)

    def test_scalar_sample(self, case):
        field, pts, flat = case
        scalar = ScalarField(field.grid, field.values[-1], field.extrapolation)
        want = _per_component_oracle(scalar.values, field.grid, flat, field.extrapolation)
        assert _same_bytes(scalar.sample(pts), want.reshape(pts.shape[:-1]))

    def test_displacement_sample(self, case):
        field, pts, flat = case
        want = np.stack([_per_component_oracle(field.values[i], field.grid, flat,
                                               field.extrapolation)
                         for i in range(field.grid.dim)], axis=-1)
        got = field.sample(pts)
        assert got.flags.c_contiguous
        assert _same_bytes(got, want.reshape(pts.shape))

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
                assert _same_bytes(got[..., i, j], want.reshape(pts.shape[:-1]))
                assert _same_bytes(got[..., i, j], derivative.sample(pts))

    def test_regrid(self, case):
        field, _, _ = case
        grid = field.grid
        wider = Grid(grid.dim, 1.25 * grid.half_width, 19)
        nodes = np.asarray(wider.nodes())
        want = np.stack([_per_component_oracle(field.values[i], grid, nodes,
                                               field.extrapolation).reshape(wider.shape)
                         for i in range(grid.dim)])
        assert _same_bytes(field.regrid(wider).values, want)
        scalar = ScalarField(grid, field.values[0], field.extrapolation).regrid(wider)
        assert _same_bytes(scalar.values, want[0])


@pytest.mark.parametrize("extrapolation", ["zero", "clamp"])
def test_gather_adds_signed_zero_terms_to_positive_zero(extrapolation):
    """For ``t`` in (0, 1) the cubic weights have signs (-, +, +, -), so zeros
    signed (+, -, -, +) make every term ``-0.0``; an accumulator that starts
    at ``0.0`` reads ``0.0``, while one seeded with its first term would
    read ``-0.0``, which a dff file prints as ``-0``."""
    grid = Grid(1, 4.0, 33)
    signs = np.isin(np.arange(33) % 4, (1, 2))
    field = ScalarField(grid, np.where(signs, -0.0, 0.0), extrapolation)
    pts = (-grid.half_width + grid.spacing * (4 * np.arange(8) + 1.5))[:, None]
    want = _per_component_oracle(field.values, grid, pts, extrapolation)
    assert _same_bytes(want, np.zeros(8))
    assert _same_bytes(field.sample(pts), want)


@pytest.mark.parametrize("grid", [Grid(1, 8.0, 97), Grid(1, 8.0, 129), Grid(1, 7.3, 33),
                                  Grid(1, 1.0e-3, 17)])
def test_node_gathers_read_within_the_stencil_reach(grid):
    # spacings 1/6, 1/8 and two that are no short binary fraction; each node's
    # gather reads a node j only within STENCIL_REACH of it, and
    # reads_only_zeros marks exactly the nodes out of reach of every nonzero
    n = grid.points_per_axis
    nodes = np.asarray(grid.nodes())
    index = np.arange(n)
    for j in range(n):
        unit = np.zeros((1, n))
        unit[0, j] = 1.0
        field = DisplacementField(grid, unit)
        read = field.sample(nodes)[:, 0] != 0.0
        assert np.all(np.abs(index[read] - j) <= fields_module.STENCIL_REACH)
        marked = reads_only_zeros(field)
        assert np.array_equal(marked, np.abs(index - j) > fields_module.STENCIL_REACH)
    plane = DisplacementField.zero(Grid(2, 8.0, 17))
    plane.values[1, 3, 16] = -0.0
    plane.values[0, 8, 2] = 1.0e-300
    rows, cols = np.divmod(np.arange(17 ** 2), 17)
    far = (np.abs(rows - 8) > 3) | (np.abs(cols - 2) > 3)
    assert np.array_equal(reads_only_zeros(plane), far)


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

    def test_jacobian_entries_are_views_the_kernels_read_like_the_stack(self, field):
        grid = field.grid
        jac = field.jacobian_grid()
        entries = field.jacobian_entries()
        for i in range(grid.dim):
            for j in range(grid.dim):
                alpha = tuple(int(k == j) for k in range(grid.dim))
                assert np.shares_memory(entries[i][j], field.partial_derivative(alpha).values)
                assert np.array_equal(entries[i][j], jac[i, j])
        assert spectral_norms(entries).tobytes() == spectral_norms(jac).tobytes()
        assert det_plus_identity(entries).tobytes() == det_plus_identity(jac).tobytes()

    def test_node_layout_round_trip(self, field):
        grid = field.grid
        node_values = field.node_values()
        assert node_values.shape == (grid.node_count, grid.dim)
        assert np.array_equal(node_values[:, -1], field.values[-1].reshape(-1))
        back = DisplacementField.from_nodes(grid, node_values, field.extrapolation)
        assert np.array_equal(back.values, field.values)
        assert back.extrapolation == field.extrapolation


def _oracle_d1(values, axis, h):
    """Fourth-order first derivative along ``axis``, written out independently:
    central inside, one-sided on the two rows nearest each face."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def _oracle_derivative(values, alpha, h):
    """``d^alpha`` of one channel from scratch: axis 0 ``alpha_0`` times, then axis 1, ..."""
    out = values
    for axis, count in enumerate(alpha):
        for _ in range(count):
            out = _oracle_d1(out, axis, h)
    return out


def _lower_chain(alpha):
    """``alpha`` and every index below it on the chain that drops one order
    along the last nonzero axis, down to (but without) zero."""
    chain = []
    alpha = tuple(alpha)
    while sum(alpha):
        chain.append(alpha)
        axis = max(j for j, a in enumerate(alpha) if a)
        alpha = alpha[:axis] + (alpha[axis] - 1,) + alpha[axis + 1:]
    return chain


# every index to the order cap in 1-D and 2-D; to order 3 in 3-D
CHAIN_CASES = [(GATHER_GRIDS[0], MAX_DERIVATIVE_ORDER), (GATHER_GRIDS[1], MAX_DERIVATIVE_ORDER),
               (GATHER_GRIDS[2], 3)]


@pytest.mark.parametrize("extrapolation", ["zero", "clamp"])
@pytest.mark.parametrize("kind", ["scalar", "displacement"])
@pytest.mark.parametrize("grid,order", CHAIN_CASES, ids=["1d", "2d", "3d"])
class TestChainedDerivatives:
    """A derivative chained from the cache has the bits of one taken from scratch."""

    @pytest.fixture
    def field(self, grid, kind, extrapolation):
        rng = np.random.default_rng(60 + grid.dim)
        if kind == "scalar":
            return ScalarField(grid, rng.normal(size=grid.shape), extrapolation)
        return DisplacementField(grid, rng.normal(size=(grid.dim,) + grid.shape), extrapolation)

    @staticmethod
    def _shuffled(grid, order):
        alphas = multi_indices_up_to(grid.dim, order)
        order_of = np.random.default_rng(70 + grid.dim).permutation(len(alphas))
        return [alphas[i] for i in order_of]

    def test_matches_from_scratch_stencils(self, field, grid, order):
        channels = field.values if isinstance(field, DisplacementField) else [field.values]
        for alpha in self._shuffled(grid, order):
            got = field.partial_derivative(alpha).values
            want = np.stack([_oracle_derivative(c, alpha, grid.spacing) for c in channels])
            assert _same_bytes(got, want.reshape(got.shape)), alpha

    def test_one_d1_per_channel_per_new_index(self, field, grid, order, monkeypatch):
        calls = []
        original = fields_module._d1

        def counting(values, axis, h):
            calls.append(axis)
            return original(values, axis, h)

        monkeypatch.setattr(fields_module, "_d1", counting)
        width = grid.dim if isinstance(field, DisplacementField) else 1
        derived = set()
        for alpha in self._shuffled(grid, order):
            new = [a for a in _lower_chain(alpha) if a not in derived]
            before = len(calls)
            field.partial_derivative(alpha)
            assert len(calls) - before == width * len(new), alpha
            derived.update(new)
        before = len(calls)
        for alpha in self._shuffled(grid, order):
            field.partial_derivative(alpha)
        assert len(calls) == before


    def test_stream_matches_cached_derivatives(self, field, grid, order):
        alphas = self._shuffled(grid, order)
        twin = type(field)(grid, field.values, field.extrapolation)
        for alpha, got in zip(alphas, fields_module.stream_derivatives(field, alphas)):
            assert _same_bytes(got, twin.partial_derivative(alpha).values), alpha
        # the field keeps its first derivatives, and no higher order
        firsts = {a for a in alphas if sum(a) == 1}
        assert set(field._derivatives) == firsts

    def test_stream_derives_each_index_once(self, field, grid, order, monkeypatch):
        alphas = self._shuffled(grid, order)
        # an order >= 2 the field already caches is reused, not derived again
        held = (order,) + (0,) * (grid.dim - 1)
        held_values = field.partial_derivative(held).values
        calls = []
        original = fields_module._d1

        def counting(values, axis, h):
            calls.append(axis)
            return original(values, axis, h)

        monkeypatch.setattr(fields_module, "_d1", counting)
        width = grid.dim if isinstance(field, DisplacementField) else 1
        needed = {b for a in alphas for b in _lower_chain(a)} - set(_lower_chain(held))
        for alpha, got in zip(alphas, fields_module.stream_derivatives(field, alphas)):
            if alpha == held:
                assert got is held_values
        assert len(calls) == width * len(needed)


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


# the criterion-2 grids, one more of each dimension, and h = 1/6 (not dyadic)
WINDOW_GRIDS = [(Grid(1, 8.0, 1025), 6), (Grid(1, 8.0, 257), 6), (Grid(2, 4.0, 513), 4),
                (Grid(2, 4.0, 129), 4), (Grid(2, 8.0, 97), 4), (Grid(3, 2.0, 33), 4)]


def _smooth_values(points):
    """An ``(m, dim)`` displacement, every channel smooth and nonzero on the box."""
    r2 = points[:, 0] * points[:, 0]
    for j in range(1, points.shape[1]):
        r2 = r2 + points[:, j] * points[:, j]
    return np.stack([np.exp(-r2 / (4.0 + c)) * np.cos(0.7 * points[:, c] + 0.2 * c)
                     for c in range(points.shape[1])], axis=1)


def _window_points(grid):
    """Criterion 2's point, a node, near and on the faces, and off the box."""
    dim, half, h = grid.dim, grid.half_width, grid.spacing
    coords = grid.axis_coordinates()
    signs = np.where(np.arange(dim) % 2, -1.0, 1.0)
    return [np.array([0.25] if dim == 1 else [0.2, -0.4, 0.1][:dim]),
            coords[[grid.points_per_axis // 3, grid.points_per_axis // 2 + 3, 5][:dim]],
            signs * (half - 0.4 * h),
            np.array([1.5 * h - half, 0.3, -0.1][:dim]),
            signs * half,
            np.array([half + 0.5 * h, 0.1, -0.2][:dim])]


@pytest.mark.parametrize("grid,order", WINDOW_GRIDS,
                         ids=[f"{g.dim}d-{g.points_per_axis}" for g, _ in WINDOW_GRIDS])
def test_point_derivatives_match_whole_grid(grid, order):
    """The window read equals the whole-grid stencil derivative, bit for bit."""
    field = DisplacementField.from_nodes(grid, _smooth_values(np.asarray(grid.nodes())))
    alphas = multi_indices_up_to(grid.dim, order)
    for point in _window_points(grid):
        want = [field.partial_derivative(alpha).sample(point.reshape(1, -1))[0]
                for alpha in alphas]
        # every index at once, so the window is the widest, and each alone, the tightest
        together = point_derivatives(grid, _smooth_values, alphas, point)
        assert all(_same_bytes(g, w) for g, w in zip(together, want)), point
        for alpha, w in zip(alphas, want):
            (alone,) = point_derivatives(grid, _smooth_values, [alpha], point)
            assert _same_bytes(alone, w), (point, alpha)
        if np.max(np.abs(point)) > grid.half_width:
            assert not np.any(np.concatenate(together))


@pytest.mark.parametrize("grid,order", [WINDOW_GRIDS[0], WINDOW_GRIDS[2], WINDOW_GRIDS[5]],
                         ids=["1d-1025", "2d-513", "3d-33"])
def test_point_derivatives_window_holds_whole_grid_values(grid, order):
    """The read evaluates only a window of nodes, each the grid's own node and value."""
    seen = []

    def recording(points):
        seen.append(points)
        return _smooth_values(points)

    full_nodes = np.asarray(grid.nodes())
    full_values = _smooth_values(full_nodes)
    for point in _window_points(grid):
        seen.clear()
        point_derivatives(grid, recording, multi_indices_up_to(grid.dim, order), point)
        (nodes,) = seen
        index = np.rint((nodes + grid.half_width) / grid.spacing).astype(int)
        flat = np.ravel_multi_index(tuple(index.T), grid.shape)
        assert _same_bytes(nodes, full_nodes[flat])
        assert _same_bytes(_smooth_values(nodes), full_values[flat])
        # at most the 4 stencil nodes plus 2 rows per derivative on each side, per axis
        assert len(nodes) <= (4 + 4 * order) ** grid.dim < grid.node_count

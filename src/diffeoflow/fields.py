"""Grid-sampled scalar and displacement fields on a symmetric box.

Fields live on a uniform tensor grid over ``[-L, L]^dim``. Derivatives are
fourth-order finite differences (central stencils inside, one-sided stencils
on the two rows nearest each face). Off-grid evaluation is separable
piecewise-cubic Lagrange interpolation, which reproduces cubics exactly and
therefore matches the fourth-order accuracy of the stencils. Points outside
the box either read as zero (fields that decay) or as the clamped boundary
value (fields that merely stay bounded).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .descriptors import (
    VARIABLES,
    Expr,
    evaluate_on,
    parse_scalar,
    parse_vector,
)
from .errors import DescriptorError, FieldError, UnsupportedOrderError

MAX_DERIVATIVE_ORDER = 6
EXTRAPOLATION_MODES = ("zero", "clamp")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on ``[-half_width, half_width]^dim``."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise FieldError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not self.half_width > 0.0:
            raise FieldError(f"half_width must be positive, got {self.half_width}")
        n = self.points_per_axis
        if n < 17 or n % 2 == 0:
            raise FieldError(f"points_per_axis must be odd and at least 17, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def node_count(self) -> int:
        return self.points_per_axis ** self.dim

    def axis_coordinates(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def nodes(self) -> np.ndarray:
        """All grid nodes as a read-only ``(node_count, dim)`` array, row-major."""
        return _grid_nodes(self)

    def doubled(self) -> "Grid":
        """Same box with halved spacing (new nodes at old nodes and midpoints)."""
        return Grid(self.dim, self.half_width, 2 * self.points_per_axis - 1)


@lru_cache(maxsize=32)
def _grid_nodes(grid: Grid) -> np.ndarray:
    axes = [grid.axis_coordinates() for _ in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    nodes.flags.writeable = False
    return nodes


def multi_indices(dim: int, order: int) -> list:
    """All derivative multi-indices of total order exactly ``order``."""
    if order == 0:
        return [(0,) * dim]
    out = []
    for splits in itertools.combinations_with_replacement(range(dim), order):
        alpha = [0] * dim
        for axis in splits:
            alpha[axis] += 1
        out.append(tuple(alpha))
    return out


def multi_indices_up_to(dim: int, order: int) -> list:
    out = []
    for k in range(order + 1):
        out.extend(multi_indices(dim, k))
    return out


def _d1(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Fourth-order first derivative along ``axis`` (one-sided at the faces)."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    out[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    out[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    out[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return np.moveaxis(out, 0, axis)


def _check_alpha(alpha, dim: int) -> tuple:
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim or any(a < 0 for a in alpha):
        raise FieldError(f"multi-index {alpha} does not match dimension {dim}")
    if sum(alpha) > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"derivative order {sum(alpha)} exceeds the supported cap {MAX_DERIVATIVE_ORDER}"
        )
    return alpha


def _derive_values(values: np.ndarray, alpha: tuple, h: float) -> np.ndarray:
    out = values
    for axis, count in enumerate(alpha):
        for _ in range(count):
            out = _d1(out, axis, h)
    return out


def _interp_stencil(grid: Grid, coords: np.ndarray):
    """Per-axis stencil bases and cubic Lagrange weights for query coordinates.

    ``coords`` has shape ``(m, dim)`` and must already lie inside the box.
    Returns ``(bases, weights)`` with shapes ``(m, dim)`` and ``(m, dim, 4)``.
    The four weights interpolate through nodes ``base .. base+3``; near a face
    the stencil shifts inward, which keeps the interpolant cubic-exact.
    """
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


def _gather(channels: list, grid: Grid, points: np.ndarray, extrapolation: str) -> np.ndarray:
    """Interpolate flat node arrays ``channels`` at ``points`` of shape ``(m, dim)``.

    All channels share one stencil: the base index and the weight of each of
    the ``4^dim`` offsets are built once and applied to every channel.
    Returns shape ``(len(channels), m)``.
    """
    half = grid.half_width
    base, weights = _interp_stencil(grid, np.clip(points, -half, half))
    dim = grid.dim
    strides = [grid.points_per_axis ** (dim - 1 - j) for j in range(dim)]
    origin = base[:, 0] * strides[0]
    for j in range(1, dim):
        origin += base[:, j] * strides[j]
    m = points.shape[0]
    acc = np.zeros((len(channels), m))
    idx = np.empty(m, dtype=np.int64)
    w = np.empty(m)
    term = np.empty(m)
    for offsets in itertools.product(range(4), repeat=dim):
        np.add(origin, sum(k * stride for k, stride in zip(offsets, strides)), out=idx)
        w[:] = weights[:, 0, offsets[0]]
        for j in range(1, dim):
            np.multiply(w, weights[:, j, offsets[j]], out=w)
        for c, channel in enumerate(channels):
            np.take(channel, idx, out=term, mode="wrap")  # idx is in range; skips buffering
            np.multiply(w, term, out=term)
            acc[c] += term
    if extrapolation == "zero":
        # column by column: a reduction over the short trailing axis is ~15x slower
        inside = np.abs(points[:, 0]) <= half
        for j in range(1, dim):
            inside &= np.abs(points[:, j]) <= half
        acc[:, ~inside] = 0.0
    return acc


def _row_square_sums(vectors: np.ndarray) -> np.ndarray:
    """``np.sum(vectors**2, axis=1)`` of an ``(m, dim)`` array, one column at a time.

    The squares are summed left to right, which gives the same bits without
    the slow per-row inner loop over the short trailing axis.
    """
    total = vectors[:, 0] * vectors[:, 0]
    for j in range(1, vectors.shape[1]):
        total += vectors[:, j] * vectors[:, j]
    return total


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an ``(m, dim)`` array, from :func:`_row_square_sums`."""
    total = _row_square_sums(vectors)
    return np.sqrt(total, out=total)


def row_max(a: np.ndarray) -> np.ndarray:
    """``np.max(a, axis=1)`` of an ``(m, dim)`` array, one column at a time.

    Reducing over the short trailing axis runs a per-row inner loop, about
    40x slower at 257^2 nodes; a max is exact, so the bits are the same.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(out, a[:, j], out=out)
    return out


def _normalize_points(points, dim: int):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 0 or pts.shape[-1] != dim:
        raise FieldError(f"points must have trailing dimension {dim}, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        bad = np.argwhere(~np.isfinite(pts.reshape(-1, dim)))[0]
        raise FieldError(f"point {bad[0]} has a non-finite coordinate (axis {bad[1]})")
    lead = pts.shape[:-1]
    return pts.reshape(-1, dim), lead


def _descriptor_env(points: np.ndarray) -> dict:
    """Descriptor variables ``x, y, z`` bound to the columns of ``(m, dim)`` points."""
    return {VARIABLES[j]: points[:, j] for j in range(points.shape[1])}


def _check_descriptor_vars(expr: Expr, allowed: set):
    extra = expr.free_vars() - allowed
    if extra:
        raise DescriptorError(
            f"descriptor uses {sorted(extra)} but only {sorted(allowed)} are available here"
        )


class ScalarField:
    """A scalar function known on grid nodes, with interpolation off the grid."""

    def __init__(self, grid: Grid, values: np.ndarray, extrapolation: str = "zero"):
        if extrapolation not in EXTRAPOLATION_MODES:
            raise FieldError(f"extrapolation must be one of {EXTRAPOLATION_MODES}")
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != grid.shape:
            raise FieldError(f"values shape {values.shape} does not match grid shape {grid.shape}")
        if not np.all(np.isfinite(values)):
            raise FieldError("field values must be finite")
        self.grid = grid
        self.values = values
        self.extrapolation = extrapolation
        self._derivatives: dict = {}

    @classmethod
    def from_descriptor(cls, grid: Grid, descriptor,
                        extrapolation: str = "zero") -> "ScalarField":
        expr = parse_scalar(descriptor) if isinstance(descriptor, str) else descriptor
        _check_descriptor_vars(expr, set(VARIABLES[: grid.dim]))
        values = evaluate_on(expr, _descriptor_env(grid.nodes())).reshape(grid.shape)
        return cls(grid, values, extrapolation)

    @classmethod
    def from_callable(cls, grid: Grid, fn, extrapolation: str = "zero") -> "ScalarField":
        values = np.asarray(fn(np.asarray(grid.nodes())), dtype=np.float64).reshape(grid.shape)
        return cls(grid, values, extrapolation)

    def sample(self, points) -> np.ndarray:
        pts, lead = _normalize_points(points, self.grid.dim)
        out = _gather([self.values.reshape(-1)], self.grid, pts, self.extrapolation)
        return out[0].reshape(lead)

    def partial_derivative(self, alpha) -> "ScalarField":
        alpha = _check_alpha(alpha, self.grid.dim)
        if sum(alpha) == 0:
            return self
        cached = self._derivatives.get(alpha)
        if cached is None:
            values = _derive_values(self.values, alpha, self.grid.spacing)
            cached = ScalarField(self.grid, values, self.extrapolation)
            self._derivatives[alpha] = cached
        return cached

    def regrid(self, new_grid: Grid) -> "ScalarField":
        if new_grid.dim != self.grid.dim:
            raise FieldError("regrid requires a grid of the same dimension")
        values = self.sample(np.asarray(new_grid.nodes())).reshape(new_grid.shape)
        return ScalarField(new_grid, values, self.extrapolation)


class DisplacementField:
    """A displacement ``g`` so that ``x + g(x)`` is a candidate diffeomorphism.

    Values are stored channel-stacked with shape ``(dim,) + grid.shape``;
    :meth:`from_nodes` and :meth:`node_values` convert to and from the
    node-major ``(node_count, dim)`` layout of points and samples.
    """

    def __init__(self, grid: Grid, values: np.ndarray, extrapolation: str = "zero"):
        if extrapolation not in EXTRAPOLATION_MODES:
            raise FieldError(f"extrapolation must be one of {EXTRAPOLATION_MODES}")
        values = np.ascontiguousarray(values, dtype=np.float64)
        expected = (grid.dim,) + grid.shape
        if values.shape != expected:
            raise FieldError(f"values shape {values.shape} does not match {expected}")
        if not np.all(np.isfinite(values)):
            raise FieldError("field values must be finite")
        self.grid = grid
        self.values = values
        self.extrapolation = extrapolation
        self._derivatives: dict = {}

    @classmethod
    def from_descriptor(cls, grid: Grid, descriptor,
                        extrapolation: str = "zero") -> "DisplacementField":
        exprs = parse_vector(descriptor) if isinstance(descriptor, str) else list(descriptor)
        if len(exprs) != grid.dim:
            raise DescriptorError(
                f"descriptor has {len(exprs)} components but the grid dimension is {grid.dim}"
            )
        env = _descriptor_env(grid.nodes())
        rows = []
        for expr in exprs:
            _check_descriptor_vars(expr, set(VARIABLES[: grid.dim]))
            rows.append(evaluate_on(expr, env).reshape(grid.shape))
        return cls(grid, np.stack(rows), extrapolation)

    @classmethod
    def from_callable(cls, grid: Grid, fn, extrapolation: str = "zero") -> "DisplacementField":
        return cls.from_nodes(grid, fn(np.asarray(grid.nodes())), extrapolation)

    @classmethod
    def from_nodes(cls, grid: Grid, node_values,
                   extrapolation: str = "zero") -> "DisplacementField":
        """Field from node-major samples of shape ``(node_count, dim)``."""
        out = np.asarray(node_values, dtype=np.float64)
        return cls(grid, out.T.reshape((grid.dim,) + grid.shape), extrapolation)

    @classmethod
    def zero(cls, grid: Grid, extrapolation: str = "zero") -> "DisplacementField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape), extrapolation)

    def with_extrapolation(self, extrapolation: str) -> "DisplacementField":
        """The same node values read with another off-box continuation.

        Stencil derivatives do not depend on the continuation, so the cached
        first derivatives, which the Jacobian reads, carry over re-wrapped
        with the new mode. Higher orders stay behind: carrying them would
        keep them alive as long as the new field, not the old one.
        """
        out = DisplacementField(self.grid, self.values, extrapolation)
        out._derivatives = {alpha: DisplacementField(self.grid, d.values, extrapolation)
                            for alpha, d in self._derivatives.items() if sum(alpha) == 1}
        return out

    def node_values(self) -> np.ndarray:
        """The samples node-major, shape ``(node_count, dim)`` (a view of ``values``)."""
        return self.values.reshape(self.grid.dim, -1).T

    def sample(self, points) -> np.ndarray:
        pts, lead = _normalize_points(points, self.grid.dim)
        out = _gather(list(self.values.reshape(self.grid.dim, -1)), self.grid, pts,
                      self.extrapolation)
        return np.ascontiguousarray(out.T).reshape(lead + (self.grid.dim,))

    def partial_derivative(self, alpha) -> "DisplacementField":
        alpha = _check_alpha(alpha, self.grid.dim)
        if sum(alpha) == 0:
            return self
        cached = self._derivatives.get(alpha)
        if cached is None:
            # one channel at a time keeps the stencil temporaries one channel wide
            values = np.stack([_derive_values(channel, alpha, self.grid.spacing)
                               for channel in self.values])
            cached = DisplacementField(self.grid, values, self.extrapolation)
            self._derivatives[alpha] = cached
        return cached

    def _first_derivatives(self) -> list:
        """Cached ``d_j g`` stacks, one ``(dim,) + grid.shape`` array per axis ``j``."""
        dim = self.grid.dim
        return [self.partial_derivative(tuple(int(k == j) for k in range(dim))).values
                for j in range(dim)]

    def jacobian_grid(self) -> np.ndarray:
        """Node-wise Jacobian of the displacement, shape ``(dim, dim) + grid.shape``."""
        return np.stack(self._first_derivatives(), axis=1)

    def jacobian_at(self, points) -> np.ndarray:
        """Interpolated displacement Jacobian, shape ``points.shape[:-1] + (dim, dim)``."""
        pts, lead = _normalize_points(points, self.grid.dim)
        dim = self.grid.dim
        firsts = self._first_derivatives()
        channels = [firsts[j][i].reshape(-1) for i in range(dim) for j in range(dim)]
        out = _gather(channels, self.grid, pts, self.extrapolation)
        return np.ascontiguousarray(out.T).reshape(lead + (dim, dim))

    def regrid(self, new_grid: Grid) -> "DisplacementField":
        if new_grid.dim != self.grid.dim:
            raise FieldError("regrid requires a grid of the same dimension")
        out = _gather(list(self.values.reshape(self.grid.dim, -1)), self.grid,
                      np.asarray(new_grid.nodes()), self.extrapolation)
        return DisplacementField(new_grid, out.reshape((self.grid.dim,) + new_grid.shape),
                                 self.extrapolation)


def spectral_norms(jac: np.ndarray) -> np.ndarray:
    """Spectral norm of every matrix in a ``(dim, dim, ...)`` Jacobian stack.

    The layout is that of :meth:`DisplacementField.jacobian_grid`; the result
    has shape ``jac.shape[2:]``. Dim 1 is ``|a|``. Dim 2 is the closed form

        sigma_max = (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2,

    which stays within a few ulps of LAPACK for every matrix, rotations
    included. The textbook ``sqrt((F^2 + sqrt(F^4 - 4 det^2)) / 2)`` cancels
    to a negative radicand, and so to NaN, on near-rotations, where
    ``F^2 = 2 |det|``. Dim 3 takes the largest singular value from LAPACK.
    """
    dim = jac.shape[0]
    if dim == 1:
        return np.abs(jac[0, 0])
    if dim == 2:
        a, b, c, d = jac[0, 0], jac[0, 1], jac[1, 0], jac[1, 1]
        return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, c + b))
    return np.linalg.svd(np.moveaxis(jac, (0, 1), (-2, -1)), compute_uv=False)[..., 0]


def det_plus_identity(jac: np.ndarray) -> np.ndarray:
    """``det(I + J)`` of every matrix ``J`` in a ``(dim, dim, ...)`` Jacobian stack.

    The layout is that of :meth:`DisplacementField.jacobian_grid`; the result
    has shape ``jac.shape[2:]``. The determinant is expanded by cofactors
    (``1 + a`` in dim 1, ``(1 + a)(1 + d) - bc`` in dim 2).
    """
    dim = jac.shape[0]
    if dim == 1:
        return 1.0 + jac[0, 0]
    if dim == 2:
        return (1.0 + jac[0, 0]) * (1.0 + jac[1, 1]) - jac[0, 1] * jac[1, 0]
    m00, m11, m22 = 1.0 + jac[0, 0], 1.0 + jac[1, 1], 1.0 + jac[2, 2]
    m01, m02, m10, m12, m20, m21 = (jac[0, 1], jac[0, 2], jac[1, 0],
                                    jac[1, 2], jac[2, 0], jac[2, 1])
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def sample(descriptor, grid: Grid, extrapolation: str = "zero"):
    """Evaluate a closed-form descriptor on the grid.

    A descriptor with one component yields a :class:`ScalarField`; one with
    ``grid.dim`` comma-separated components yields a :class:`DisplacementField`.
    """
    exprs = parse_vector(descriptor) if isinstance(descriptor, str) else list(descriptor)
    if len(exprs) == 1:
        return ScalarField.from_descriptor(grid, exprs[0], extrapolation)
    return DisplacementField.from_descriptor(grid, exprs, extrapolation)


def partial_derivative(field, alpha):
    """Stencil derivative ``d^alpha`` of a scalar or displacement field."""
    if not isinstance(field, (ScalarField, DisplacementField)):
        raise FieldError(f"expected a field, got {type(field).__name__}")
    return field.partial_derivative(_as_alpha(alpha, field.grid.dim))


def resample(field, points) -> np.ndarray:
    """Interpolate a field at arbitrary points (cubic Lagrange, per axis)."""
    if not isinstance(field, (ScalarField, DisplacementField)):
        raise FieldError(f"expected a field, got {type(field).__name__}")
    return field.sample(points)


def _as_alpha(alpha, dim: int) -> tuple:
    if isinstance(alpha, (int, np.integer)):
        if dim != 1:
            raise FieldError("a bare integer multi-index is only meaningful in dimension 1")
        alpha = (int(alpha),)
    return _check_alpha(alpha, dim)


def _alpha_magnitude(field, alpha: tuple) -> np.ndarray:
    """Node-wise Euclidean magnitude of ``d^alpha f`` (plain ``|.|`` for scalars)."""
    if isinstance(field, ScalarField):
        return np.abs(field.partial_derivative(alpha).values)
    if isinstance(field, DisplacementField):
        dv = field.partial_derivative(alpha).values
        return np.sqrt(np.sum(dv * dv, axis=0))
    raise FieldError(f"expected a field, got {type(field).__name__}")


def weight_factor(grid: Grid, m: int) -> np.ndarray:
    """Polynomial weight ``(1 + |x|^2)^m`` on grid nodes, shaped like the grid."""
    factor = (1.0 + _row_square_sums(grid.nodes())) ** m
    return factor.reshape(grid.shape)


def _trapezoid_weights(grid: Grid) -> np.ndarray:
    w1 = np.ones(grid.points_per_axis)
    w1[0] = w1[-1] = 0.5
    w = w1
    for _ in range(grid.dim - 1):
        w = np.multiply.outer(w, w1)
    return w * grid.spacing ** grid.dim


# the seminorm formulas on a node magnitude ``|d^alpha f|``, shared with seminorm_table

def _weighted_sup(magnitude: np.ndarray, weight: np.ndarray) -> float:
    return float(np.max(weight * magnitude))


def _l2_norm(magnitude: np.ndarray, quad: np.ndarray) -> float:
    return float(np.sqrt(np.sum(quad * magnitude * magnitude)))


def sup_seminorm(field, alpha) -> float:
    """Largest node magnitude of the single derivative ``d^alpha f``."""
    alpha = _as_alpha(alpha, field.grid.dim)
    return float(np.max(_alpha_magnitude(field, alpha)))


def weighted_seminorm(field, alpha, m: int = 0) -> float:
    """Sup of ``(1 + |x|^2)^m |d^alpha f(x)|`` over grid nodes."""
    alpha = _as_alpha(alpha, field.grid.dim)
    if m == 0:
        return sup_seminorm(field, alpha)
    return _weighted_sup(_alpha_magnitude(field, alpha), weight_factor(field.grid, int(m)))


def sobolev_seminorm(field, alpha) -> float:
    """L2 norm of the single derivative ``d^alpha f`` over the box.

    Trapezoid quadrature on the grid; for fields that decay before the
    boundary this is accurate to well beyond the stencil order.
    """
    alpha = _as_alpha(alpha, field.grid.dim)
    return _l2_norm(_alpha_magnitude(field, alpha), _trapezoid_weights(field.grid))


def seminorm_table(field, alphas, max_weight: int) -> tuple:
    """Every seminorm of every ``d^alpha f``: ``(sups, weighted, sobolev)``.

    ``sups[i]`` and ``sobolev[i]`` belong to ``alphas[i]``, and
    ``weighted[i][m - 1]`` is its weighted sup for ``m = 1 .. max_weight``.
    Each magnitude and each weight is built once; the values equal those of
    :func:`sup_seminorm`, :func:`weighted_seminorm` and
    :func:`sobolev_seminorm` bit for bit.
    """
    grid = field.grid
    weights = [weight_factor(grid, m) for m in range(1, max_weight + 1)]
    quad = _trapezoid_weights(grid)
    sups, weighted, sobolev = [], [], []
    for alpha in alphas:
        magnitude = _alpha_magnitude(field, _as_alpha(alpha, grid.dim))
        sups.append(float(np.max(magnitude)))
        weighted.append([_weighted_sup(magnitude, w) for w in weights])
        sobolev.append(_l2_norm(magnitude, quad))
    return sups, weighted, sobolev

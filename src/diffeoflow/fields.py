"""Grid-sampled scalar and displacement fields on a symmetric box.

Fields live on a uniform tensor grid over ``[-L, L]^dim``. Derivatives are
fourth-order finite differences (central stencils inside, one-sided stencils
on the two rows nearest each face). There is one derivative rule. A field
caches its first derivatives, which are its Jacobian and all that the group
operations read. Every other order is derived when it is read, by
:func:`derivative_values`: the cached first derivative along the first axis
of ``d^alpha``, then one first-derivative stencil per remaining step (axis 0
``alpha_0`` times, then axis 1, ...), and nothing past the first step is
stored. Orders >= 2 are read once each, by the decay classifier and the
Sobolev tracking of a flow, so each lives only until it has been measured.
Off-grid evaluation is separable piecewise-cubic Lagrange interpolation,
which reproduces cubics exactly and therefore matches the fourth-order
accuracy of the stencils. Points outside the box either read as zero
(fields that decay) or as the clamped boundary value (fields that merely
stay bounded). A displacement built from a descriptor reads its compiled
formula off the grid instead, on and off the box (:class:`DisplacementField`).

Interpolation is the engine's inner loop for fields known only at their
nodes: composition, inversion and conjugation all read a displacement at
displaced points. ``_gather`` runs it over blocks of at most
``GATHER_BLOCK`` query points (a constant), from per-axis stencil weights
laid out ``(dim, 4, m)`` so each weight row is contiguous, written into
scratch rows allocated once per gather. Blocking
changes only memory traffic: every point's value is the same products
added in the same offset order into an accumulator that starts at zero, so
results are bit-identical to an unblocked pass.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .descriptors import bind, bind_jacobian, parse_vector
from .errors import FieldError, UnsupportedOrderError

MAX_DERIVATIVE_ORDER = 6
EXTRAPOLATION_MODES = ("zero", "clamp")
# query points per interpolation block: ~1 MB of per-block rows in 2-D
GATHER_BLOCK = 16384
# nodes per axis that a gather at a node can read on either side of it
STENCIL_REACH = 3
# bytes of node arrays that Grid.nodes keeps (least recently read evicted
# first): room for 513^2 (4.2 MB), 49^3 (2.8 MB) and a few 257^2 (1.1 MB);
# a larger array, such as 129^3 (51 MB), is built on every call
NODE_CACHE_BYTES = 16 * 2 ** 20


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on ``[-half_width, half_width]^dim``."""

    dim: int
    half_width: float
    points_per_axis: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise FieldError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (self.half_width > 0.0 and np.isfinite(self.half_width)):
            raise FieldError(f"half_width must be positive and finite, got {self.half_width}")
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


_node_cache: OrderedDict = OrderedDict()


def _grid_nodes(grid: Grid) -> np.ndarray:
    """The read-only node array of ``grid``, cached within ``NODE_CACHE_BYTES``."""
    nodes = _node_cache.get(grid)
    if nodes is not None:
        _node_cache.move_to_end(grid)
        return nodes
    axes = [grid.axis_coordinates() for _ in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    nodes.flags.writeable = False
    if nodes.nbytes <= NODE_CACHE_BYTES:
        _node_cache[grid] = nodes
        while sum(a.nbytes for a in _node_cache.values()) > NODE_CACHE_BYTES:
            _node_cache.popitem(last=False)
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


def _d1_stack(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``_d1`` of a ``(C,) + shape`` stack one channel at a time (temporaries one channel wide)."""
    return np.stack([_d1(channel, axis, h) for channel in values])


def _steps(alpha: tuple) -> list:
    """The stencil axes of ``d^alpha`` in order: axis 0 ``alpha_0`` times, then axis 1, ..."""
    return [axis for axis, count in enumerate(alpha) for _ in range(count)]


def derivative_values(field, alpha) -> np.ndarray:
    """The values of ``d^alpha`` of a scalar or displacement field, contiguous.

    The first step is the field's cached first derivative along the first
    axis of :func:`_steps`; each later step is one ``_d1`` per channel, and
    nothing past the first step is stored. This is the from-scratch sequence
    of stencils, so the bits are those of one taken from scratch.
    """
    steps = _steps(alpha)
    if not steps:
        return field.values
    dim = field.grid.dim
    values = field.partial_derivative(tuple(int(j == steps[0]) for j in range(dim))).values
    d1 = _d1 if isinstance(field, ScalarField) else _d1_stack
    for axis in steps[1:]:
        values = d1(values, axis, field.grid.spacing)
    # contiguous, as the field constructors store it: the sums of _l2_norm read the layout
    return np.ascontiguousarray(values)


def _derivative_field(field, alpha: tuple):
    """``d^alpha`` of ``field`` as a field of its type; first derivatives are cached."""
    if sum(alpha) != 1:
        return type(field)(field.grid, derivative_values(field, alpha), field.extrapolation)
    if alpha not in field._derivatives:
        d1 = _d1 if isinstance(field, ScalarField) else _d1_stack
        field._derivatives[alpha] = type(field)(
            field.grid, d1(field.values, alpha.index(1), field.grid.spacing), field.extrapolation)
    return field._derivatives[alpha]


# the largest Lebesgue constant of the 4-node cubic stencil of
# _interp_stencil: 1 + t (t + 1) (t - 2) on a face interval, at
# t = (1 - sqrt 7) / 3; an inner interval gives 1 + t (1 - t) <= 1.25. An
# interpolated value is at most its dim-th power times the largest node read
_STENCIL_LEBESGUE = (7.0 + 14.0 * math.sqrt(7.0)) / 27.0


def _interp_stencil(grid: Grid, points: np.ndarray, rows: np.ndarray,
                    weights: np.ndarray, bases: np.ndarray, strides: list, start=0.0):
    """Flat stencil origins and cubic Lagrange weights at ``points``, in scratch.

    ``points`` has shape ``(m, dim)`` and is clipped to the box here. The
    scratch comes from :func:`_gather`, which allocates it once per call:
    ``rows`` is float ``(5, dim, width)``, ``weights`` is ``(dim, 4, width)``
    and ``bases`` is int64 ``(dim, width)``, with ``width >= m``. Returns
    views ``(origin, weights[:, :, :m])``: ``origin`` is the flat index, under
    ``strides`` and from node ``start`` (0, or a window's first nodes as a
    column), of each point's stencil corner, and every weight row
    ``weights[j, k]`` is contiguous. The four weights of an axis interpolate
    through nodes ``base .. base+3``; near a face the stencil shifts inward,
    which keeps the interpolant cubic-exact. Each weight is the product
    ``(t - a)(t - b)(t - c) / 6`` or ``/ 2`` multiplied left to right from
    shared ``t + 1``, ``t - 1`` and ``t - 2`` rows; a leading minus sign
    moves onto the divisor and ``(t + 1) t`` is formed once for two
    weights, both exact, so the bits are those of the plain products.
    """
    n = grid.points_per_axis
    m = points.shape[0]
    u, t, tp1, tm1, tm2 = rows[:, :, :m]
    w = weights[:, :, :m]
    base = bases[:, :m]
    # maximum then minimum is np.clip for finite points, without its call overhead
    np.maximum(points.T, -grid.half_width, out=u)
    np.minimum(u, grid.half_width, out=u)
    u += grid.half_width
    u /= grid.spacing
    # base + 1 = clip(floor(u), 1, n - 3): small integers, exact as floats
    np.floor(u, out=t)
    np.maximum(t, 1.0, out=t)
    np.minimum(t, n - 3.0, out=t)
    np.subtract(t, 1.0 + start, out=base, casting="unsafe")
    np.subtract(u, t, out=t)
    np.add(t, 1.0, out=tp1)
    np.subtract(t, 1.0, out=tm1)
    np.subtract(t, 2.0, out=tm2)
    w0, w1, w2, w3 = w[:, 0], w[:, 1], w[:, 2], w[:, 3]
    np.multiply(t, tm1, out=w0)
    w0 *= tm2
    w0 /= -6.0
    np.multiply(tp1, tm1, out=w1)
    w1 *= tm2
    w1 /= 2.0
    np.multiply(tp1, t, out=w3)
    np.multiply(w3, tm2, out=w2)
    w2 /= -2.0
    w3 *= tm1
    w3 /= 6.0
    # the last axis has stride 1, so its base row becomes the flat origin
    origin = base[-1]
    for j in range(grid.dim - 1):
        base[j] *= strides[j]
        origin += base[j]
    return origin, w


def _stencil_terms(weights: np.ndarray, strides: list, rows: np.ndarray,
                   axis: int = 0, offset: int = 0, prefix=None):
    """Yield ``(flat offset, weight row)`` for each of the ``4^dim`` stencil offsets.

    Offsets come in row-major order. The weight of offset ``(k_0, .., k_j)``
    is ``w_0[k_0] * .. * w_j[k_j]`` multiplied left to right; the product up
    to axis ``j >= 1`` is written once into ``rows[j - 1]`` and shared by the
    ``4^(dim - 1 - j)`` offsets that extend it, so 3-D forms ``w_0 * w_1``
    once per pair. A yielded row is valid until the next one is drawn.
    """
    last = axis + 1 == len(strides)
    for k in range(4):
        w = weights[axis, k]
        if prefix is not None:
            w = np.multiply(prefix, w, out=rows[axis - 1])
        here = offset + k * strides[axis]
        if last:
            yield here, w
        else:
            yield from _stencil_terms(weights, strides, rows, axis + 1, here, w)


def _gather(channels: list, grid: Grid, points: np.ndarray, extrapolation: str,
            window=None) -> np.ndarray:
    """Interpolate flat node arrays ``channels`` at ``points`` of shape ``(m, dim)``.

    All channels share one stencil: the node index and the weight of each of
    the ``4^dim`` offsets are built once and applied to every channel. The
    points run in ``ceil(m / GATHER_BLOCK)`` blocks whose sizes differ by at
    most one (the block size is a constant, not a setting), so each block's
    stencil rows stay in cache. Offset ``k`` of the flat index is read as ``channel[k:]`` at the
    block's one origin index. The result is bit-identical to one pass over
    all points that adds ``weight * value`` per offset: each point gets the
    same products, added in the same offset order into an accumulator that
    starts at zero (so terms that are all ``-0.0`` sum to ``0.0``, not
    ``-0.0``). With ``window = (start, shape)`` (:func:`point_derivatives`) the
    channels hold only nodes ``start .. start + shape - 1`` of each axis.
    Returns shape ``(len(channels), m)``.
    """
    half = grid.half_width
    dim = grid.dim
    m = points.shape[0]
    start, shape = window or (0.0, grid.shape)
    strides = [int(np.prod(shape[j + 1:])) for j in range(dim)]
    acc = np.zeros((len(channels), m))
    blocks = max(1, -(-m // GATHER_BLOCK))
    width = -(-m // blocks)
    scratch = (np.empty((5, dim, width)), np.empty((dim, 4, width)),
               np.empty((dim, width), dtype=np.int64))
    term_buffer = np.empty(width)
    row_buffer = np.empty((dim - 1, width))
    for b in range(blocks):
        lo, hi = b * m // blocks, (b + 1) * m // blocks
        origin, weights = _interp_stencil(grid, points[lo:hi], *scratch, strides, start)
        out, term, rows = acc[:, lo:hi], term_buffer[:hi - lo], row_buffer[:, :hi - lo]
        for k, w in _stencil_terms(weights, strides, rows):
            for c, channel in enumerate(channels):
                np.take(channel[k:], origin, out=term, mode="wrap")  # in range; skips buffering
                term *= w
                out[c] += term
    if extrapolation == "zero":
        # column by column: a reduction over the short trailing axis is ~15x slower
        inside = np.abs(points[:, 0]) <= half
        for j in range(1, dim):
            inside &= np.abs(points[:, j]) <= half
        acc[:, ~inside] = 0.0
    return acc


def point_derivatives(grid: Grid, evaluate, alphas, point) -> list:
    """``d^alpha`` at ``point``, shape ``(C,)``, of the field with node values ``evaluate``.

    ``evaluate`` maps ``(m, dim)`` nodes to ``(m, C)`` values. Entry ``i`` is
    bit for bit ``DisplacementField.from_nodes(grid, evaluate(grid.nodes()))
    .partial_derivative(alphas[i]).sample(point)``, but ``evaluate`` sees
    only the window the read depends on: per axis the four interpolation
    nodes, widened by the two rows each ``_d1`` along that axis spoils at a
    window edge, and clipped at the faces, whose one-sided rows are the grid's.
    """
    alphas = [_check_alpha(alpha, grid.dim) for alpha in alphas]
    point = np.asarray(point, dtype=np.float64).reshape(1, grid.dim)
    half, n = grid.half_width, grid.points_per_axis
    # each axis's first stencil node, by the clip and floor of _interp_stencil
    u = (np.minimum(np.maximum(point[0], -half), half) + half) / grid.spacing
    first = np.minimum(np.maximum(np.floor(u), 1.0), n - 3.0).astype(int) - 1
    reach = 2 * np.max(alphas, axis=0)
    start, stop = np.maximum(first - reach, 0), np.minimum(first + 4 + reach, n)
    axes = [grid.axis_coordinates()[lo:hi] for lo, hi in zip(start, stop)]
    nodes = np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    values = np.asarray(evaluate(nodes), dtype=np.float64).T.reshape((-1,) + tuple(stop - start))
    window = (start[:, None] + 0.0, values.shape[1:])
    out = []
    for alpha in alphas:
        derivative = values
        for axis in _steps(alpha):
            derivative = _d1_stack(derivative, axis, grid.spacing)
        out.append(_gather(list(derivative.reshape(len(derivative), -1)), grid, point, "zero",
                           window)[:, 0])
    return out


def reads_only_zeros(field) -> np.ndarray:
    """Flat mask of the nodes whose interpolation stencil reads only exact zeros.

    A node is marked when every channel of ``field`` is exactly 0.0 on the
    nodes within ``STENCIL_REACH`` of it along each axis. A gather at the
    node itself reads the four nodes of :func:`_interp_stencil`, which lie
    within two of it inside and within three at the faces, on any spacing;
    each term is then ``+-0.0`` and the sum starts at zero, so the gather
    returns ``+0.0`` without being made.
    """
    nonzero = np.any(field.values != 0.0, axis=0)
    if nonzero.all():
        return np.zeros(field.grid.node_count, dtype=bool)
    for axis in range(field.grid.dim):
        along = np.moveaxis(nonzero, axis, 0)
        near = along.copy()
        for s in range(1, STENCIL_REACH + 1):
            near[s:] |= along[:-s]
            near[:-s] |= along[s:]
        nonzero = np.moveaxis(near, 0, axis)
    return ~nonzero.reshape(-1)


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


def _read_formula(evaluate, pts: np.ndarray) -> np.ndarray:
    """A bound descriptor program at ``(m, dim)`` points; a non-finite value raises.

    The program runs with numpy's floating-point warnings off, and a pole
    or overflow it meets is reported as a :class:`FieldError` naming the
    first point and value, not as a warning.
    """
    with np.errstate(all="ignore"):
        out = evaluate(None, pts)
    return _require_finite(out, pts, "the displacement formula")


def _require_finite(out: np.ndarray, pts: np.ndarray, what: str) -> np.ndarray:
    """``out``, read at ``(m, dim)`` points; a non-finite row raises.

    The :class:`FieldError` names ``what``, the first point with a
    non-finite value and that point's values.
    """
    if not np.all(np.isfinite(out)):
        rows = out.reshape(len(pts), -1)
        row = int(np.argmin(np.isfinite(rows).all(axis=1)))
        raise FieldError(f"{what} reads {[float(v) for v in rows[row]]} at "
                         f"point {[float(c) for c in pts[row]]}")
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
    def from_descriptor(cls, grid: Grid, descriptor) -> "ScalarField":
        _, evaluate = bind(descriptor, grid.dim)
        return cls(grid, _read_formula(evaluate, grid.nodes()).reshape(grid.shape))

    def sample(self, points) -> np.ndarray:
        pts, lead = _normalize_points(points, self.grid.dim)
        out = _gather([self.values.reshape(-1)], self.grid, pts, self.extrapolation)
        return out[0].reshape(lead)

    def partial_derivative(self, alpha) -> "ScalarField":
        """Stencil derivative ``d^alpha``: cached at order 1, else :func:`derivative_values`."""
        return _derivative_field(self, _check_alpha(alpha, self.grid.dim))

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

    How a field was built decides how it is read off the grid. One built by
    :meth:`from_descriptor` keeps its bound program as ``formula``:
    :meth:`sample` runs it, on and off the box, and :meth:`jacobian_at` runs
    the program of its symbolic Jacobian, bound at the first call. Every
    other field (op outputs, file reads, flow snapshots) has ``formula =
    None`` and interpolates its nodes, continued off the box by
    ``extrapolation``. Node values and stencil derivatives are the same for
    both kinds, and :meth:`regrid` interpolates the nodes of either.
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
        # (components, evaluate) of a descriptor-built field, and its bound Jacobian
        self.formula = None
        self._formula_jacobian = None

    @classmethod
    def from_descriptor(cls, grid: Grid, descriptor) -> "DisplacementField":
        exprs, evaluate = bind(descriptor, grid.dim, (grid.dim,))
        out = cls.from_nodes(grid, _read_formula(evaluate, grid.nodes()))
        out.formula = (exprs, evaluate)
        return out

    @classmethod
    def from_nodes(cls, grid: Grid, node_values,
                   extrapolation: str = "zero") -> "DisplacementField":
        """Field from node-major samples of shape ``(node_count, dim)``."""
        out = np.asarray(node_values, dtype=np.float64)
        return cls(grid, out.T.reshape((grid.dim,) + grid.shape), extrapolation)

    @classmethod
    def zero(cls, grid: Grid) -> "DisplacementField":
        return cls(grid, np.zeros((grid.dim,) + grid.shape))

    def with_extrapolation(self, extrapolation: str) -> "DisplacementField":
        """The same node values read with another off-box continuation.

        Stencil derivatives do not depend on the continuation, so the cached
        first derivatives, which the Jacobian reads, carry over re-wrapped
        with the new mode. A formula and its bound Jacobian carry over too;
        a formula ignores the continuation.
        """
        out = DisplacementField(self.grid, self.values, extrapolation)
        out._derivatives = {alpha: DisplacementField(self.grid, d.values, extrapolation)
                            for alpha, d in self._derivatives.items()}
        out.formula, out._formula_jacobian = self.formula, self._formula_jacobian
        return out

    def node_values(self) -> np.ndarray:
        """The samples node-major, shape ``(node_count, dim)`` (a view of ``values``)."""
        return self.values.reshape(self.grid.dim, -1).T

    def sample(self, points) -> np.ndarray:
        """``g`` at points ``(..., dim)``: the formula if the field has one, else interpolated."""
        pts, lead = _normalize_points(points, self.grid.dim)
        if self.formula is not None:
            return _read_formula(self.formula[1], pts).reshape(lead + (self.grid.dim,))
        out = _gather(list(self.values.reshape(self.grid.dim, -1)), self.grid, pts,
                      self.extrapolation)
        return np.ascontiguousarray(out.T).reshape(lead + (self.grid.dim,))

    def partial_derivative(self, alpha) -> "DisplacementField":
        """Channel-stacked ``d^alpha``: cached at order 1, else :func:`derivative_values`."""
        return _derivative_field(self, _check_alpha(alpha, self.grid.dim))

    def _first_derivatives(self) -> list:
        """Cached ``d_j g`` stacks, one ``(dim,) + grid.shape`` array per axis ``j``."""
        dim = self.grid.dim
        return [self.partial_derivative(tuple(int(k == j) for k in range(dim))).values
                for j in range(dim)]

    def jacobian_grid(self) -> np.ndarray:
        """Node-wise Jacobian of the displacement, shape ``(dim, dim) + grid.shape``."""
        return np.stack(self._first_derivatives(), axis=1)

    def jacobian_entries(self) -> list:
        """The entries of :meth:`jacobian_grid` without the copy.

        ``entries[i][j]`` is ``d_j g_i``, a grid-shaped view of the cached
        first derivatives; :func:`det_plus_identity` and
        :func:`spectral_norms` read this nested list like the stacked array.
        """
        firsts = self._first_derivatives()
        return [[d[i] for d in firsts] for i in range(self.grid.dim)]

    def jacobian_at(self, points) -> np.ndarray:
        """Displacement Jacobian, shape ``points.shape[:-1] + (dim, dim)``.

        A formula's is its symbolic Jacobian (:func:`bind_jacobian`), bound
        once on the first call; any other field interpolates its stencil
        derivatives.
        """
        pts, lead = _normalize_points(points, self.grid.dim)
        dim = self.grid.dim
        if self.formula is not None:
            if self._formula_jacobian is None:
                self._formula_jacobian = bind_jacobian(self.formula[0], dim)
            return _read_formula(self._formula_jacobian, pts).reshape(lead + (dim, dim))
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


def spectral_norms(jac) -> np.ndarray:
    """Spectral norm of every matrix in a ``(dim, dim, ...)`` Jacobian stack.

    The layout is that of :meth:`DisplacementField.jacobian_grid`, either
    stacked or as the nested :meth:`DisplacementField.jacobian_entries`
    (entry ``jac[i][j]``); the result has the shape of one entry. Dim 1 is
    ``|a|``. Dim 2 is the closed form

        sigma_max = (hypot(a + d, c - b) + hypot(a - d, c + b)) / 2,

    which stays within a few ulps of LAPACK for every matrix, rotations
    included. The textbook ``sqrt((F^2 + sqrt(F^4 - 4 det^2)) / 2)`` cancels
    to a negative radicand, and so to NaN, on near-rotations, where
    ``F^2 = 2 |det|``. Dim 3 takes the largest singular value from LAPACK.
    """
    dim = len(jac)
    if dim == 1:
        return np.abs(jac[0][0])
    if dim == 2:
        (a, b), (c, d) = jac
        return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, c + b))
    return np.linalg.svd(np.moveaxis(np.asarray(jac), (0, 1), (-2, -1)),
                         compute_uv=False)[..., 0]


def det_plus_identity(jac) -> np.ndarray:
    """``det(I + J)`` of every matrix ``J`` in a ``(dim, dim, ...)`` Jacobian stack.

    The layout is that of :func:`spectral_norms`, stacked or nested; the
    result has the shape of one entry. The determinant is expanded by
    cofactors (``1 + a`` in dim 1, ``(1 + a)(1 + d) - bc`` in dim 2).
    """
    dim = len(jac)
    if dim == 1:
        return 1.0 + jac[0][0]
    if dim == 2:
        (a, b), (c, d) = jac
        return (1.0 + a) * (1.0 + d) - b * c
    (a00, m01, m02), (m10, a11, m12), (m20, m21, a22) = jac
    m00, m11, m22 = 1.0 + a00, 1.0 + a11, 1.0 + a22
    return (m00 * (m11 * m22 - m12 * m21)
            - m01 * (m10 * m22 - m12 * m20)
            + m02 * (m10 * m21 - m11 * m20))


def sample(descriptor, grid: Grid):
    """Evaluate a closed-form descriptor on the grid.

    A descriptor with one component yields a :class:`ScalarField`; one with
    ``grid.dim`` comma-separated components yields a :class:`DisplacementField`.
    Either reads as zero outside the box.
    """
    exprs = parse_vector(descriptor) if isinstance(descriptor, str) else list(descriptor)
    field_type = ScalarField if len(exprs) == 1 else DisplacementField
    return field_type.from_descriptor(grid, exprs)


def partial_derivative(field, alpha):
    """Stencil ``d^alpha`` of a scalar or displacement field; cached at order 1, else derived."""
    if not isinstance(field, (ScalarField, DisplacementField)):
        raise FieldError(f"expected a field, got {type(field).__name__}")
    return field.partial_derivative(_as_alpha(alpha, field.grid.dim))


def _as_alpha(alpha, dim: int) -> tuple:
    if isinstance(alpha, (int, np.integer)):
        if dim != 1:
            raise FieldError("a bare integer multi-index is only meaningful in dimension 1")
        alpha = (int(alpha),)
    return _check_alpha(alpha, dim)


def _alpha_magnitude(field, derivative: np.ndarray) -> np.ndarray:
    """Node-wise Euclidean magnitude of the values of a derivative of ``field``.

    Plain ``|.|`` for a scalar field; for a displacement the channel axis
    comes first and is summed over.
    """
    if isinstance(field, ScalarField):
        return np.abs(derivative)
    if isinstance(field, DisplacementField):
        return np.sqrt(np.sum(derivative * derivative, axis=0))
    raise FieldError(f"expected a field, got {type(field).__name__}")


def _single_magnitude(field, alpha) -> np.ndarray:
    """:func:`_alpha_magnitude` of ``d^alpha f``, cached on the field."""
    alpha = _as_alpha(alpha, field.grid.dim)
    return _alpha_magnitude(field, field.partial_derivative(alpha).values)


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
    return float(np.max(_single_magnitude(field, alpha)))


def weighted_seminorm(field, alpha, m: int = 0) -> float:
    """Sup of ``(1 + |x|^2)^m |d^alpha f(x)|`` over grid nodes."""
    if m == 0:
        return sup_seminorm(field, alpha)
    return _weighted_sup(_single_magnitude(field, alpha), weight_factor(field.grid, int(m)))


def sobolev_seminorm(field, alpha) -> float:
    """L2 norm of the single derivative ``d^alpha f`` over the box.

    Trapezoid quadrature on the grid; for fields that decay before the
    boundary this is accurate to well beyond the stencil order.
    """
    return _l2_norm(_single_magnitude(field, alpha), _trapezoid_weights(field.grid))


def seminorm_measure(field, max_weight: int):
    """The function from the values of one ``d^alpha f`` to its seminorms.

    It returns ``(sup, weighted, sobolev)``, with ``weighted[m - 1]`` the
    weighted sup for ``m = 1 .. max_weight``, and builds one magnitude per
    call; the weights are built once, here.
    """
    weights = [weight_factor(field.grid, m) for m in range(1, max_weight + 1)]
    quad = _trapezoid_weights(field.grid)

    def measure(derivative):
        magnitude = _alpha_magnitude(field, derivative)
        return (float(np.max(magnitude)), [_weighted_sup(magnitude, w) for w in weights],
                _l2_norm(magnitude, quad))

    return measure


def sobolev_measure(field):
    """The L2 norm of :func:`seminorm_measure` alone, with its bits."""
    quad = _trapezoid_weights(field.grid)
    return lambda derivative: _l2_norm(_alpha_magnitude(field, derivative), quad)


def seminorm_table(field, alphas, max_weight: int) -> tuple:
    """Every seminorm of every ``d^alpha f``: ``(sups, weighted, sobolev)``.

    ``sups[i]`` and ``sobolev[i]`` belong to ``alphas[i]``, and
    ``weighted[i][m - 1]`` is its weighted sup for ``m = 1 .. max_weight``.
    Each magnitude and each weight is built once, and each derivative comes
    from one :func:`derivative_values` call: the field keeps its first
    derivatives, and each order >= 2 is dropped once measured. The values
    equal those of :func:`sup_seminorm`, :func:`weighted_seminorm` and
    :func:`sobolev_seminorm` bit for bit.
    """
    measure = seminorm_measure(field, max_weight)
    rows = [measure(derivative_values(field, _as_alpha(alpha, field.grid.dim)))
            for alpha in alphas]
    return [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows]

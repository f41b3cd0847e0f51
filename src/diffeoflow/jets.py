"""Jet calculus for maps of R^n: symmetric terms, composition, reversion.

A jet of order ``p`` at a base point collects the image point together with
the normalized derivative tensors ``d^k f / k!`` for ``k = 1..p``. Each term
is stored once, as a dense ``(n,) * (k + 1)`` array with the component axis
first; it is exactly symmetric in its argument slots and read-only. Jets
compose by summing, over all ordered splits of the derivative order, the
outer tensors contracted with inner tensors, symmetrizing once at the end:

    (f o g)_p = sym sum_{j=1}^{p} sum_{a in Comp(p,j)} F_j[G_{a_1}, ..., G_{a_j}]

where ``Comp(p, j)`` runs over ordered tuples of positive integers of length
``j`` summing to ``p``. Inverting a jet peels the same identity: the top
unknown appears only in the ``H_p[G_1, ..., G_1]`` term, so each order is
solved by contracting the lower-order remainder with the inverse Jacobian.
"""

from __future__ import annotations

import itertools
import math
import string
from functools import lru_cache

import numpy as np

from .errors import JetError, SingularJacobianError, UnsupportedOrderError
from .fields import DisplacementField, multi_indices

MAX_DEGREE = 6
_LETTERS = string.ascii_lowercase


@lru_cache(maxsize=None)
def ordered_compositions(total: int, parts: int) -> tuple:
    """Ordered tuples of positive integers of length ``parts`` summing to ``total``."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(1, total - parts + 2):
        for rest in ordered_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _sorted_slots(dim: int, degree: int) -> np.ndarray:
    """Flat position of the sorted form of each index tuple in ``(dim,) * degree``."""
    shape = (dim,) * degree
    index = np.indices(shape).reshape(degree, -1)
    slots = np.ravel_multi_index(np.sort(index, axis=0), shape)
    slots.flags.writeable = False
    return slots


def _sym_dense(array: np.ndarray) -> np.ndarray:
    """Average ``array`` over all permutations of its axes after the first."""
    array = np.asarray(array, dtype=np.float64)
    degree = array.ndim - 1
    if degree <= 1:
        return array.copy()
    total = np.zeros_like(array)
    count = 0
    for perm in itertools.permutations(range(1, array.ndim)):
        total += np.transpose(array, (0,) + perm)
        count += 1
    return total / count


def symmetrize(dense) -> np.ndarray:
    """Exactly symmetric, read-only copy of a dense coefficient array.

    The leading axis indexes output components and every later axis is an
    argument slot, the layout of a :class:`Jet` term. The permutation
    average leaves one index orbit a few ulps apart, so every index then
    reads the entry at its sorted form. Arrays with more than six argument
    slots are rejected.
    """
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim == 0:
        raise JetError("dense tensor data must have a component axis")
    degree = dense.ndim - 1
    if degree > MAX_DEGREE:
        raise UnsupportedOrderError(
            f"tensor degree {degree} exceeds the supported cap {MAX_DEGREE}")
    if len(set(dense.shape[1:])) > 1:
        raise JetError(f"argument axes must share one dimension, got {dense.shape}")
    out = _sym_dense(dense)
    if degree > 1:
        slots = _sorted_slots(dense.shape[1], degree)
        out = out.reshape(out.shape[0], -1)[:, slots].reshape(out.shape)
    out.flags.writeable = False
    return out


class Jet:
    """Normalized derivative data of a map of R^dim at one point.

    ``terms[k]`` is the dense, exactly symmetric and read-only array
    ``d^k f(base_point) / k!`` of shape ``(dim,) * (k + 1)``, component axis
    first; ``terms[0]`` is the image point itself.
    """

    def __init__(self, base_point, terms):
        self.base_point = np.asarray(base_point, dtype=np.float64).reshape(-1)
        self.dim = self.base_point.shape[0]
        if self.dim < 1:
            raise JetError("a jet needs a base point in R^n with n >= 1")
        if len(terms) < 2:
            raise JetError("a jet needs at least the degree-0 and degree-1 terms")
        self.terms = []
        for k, term in enumerate(terms):
            dense = np.asarray(term, dtype=np.float64)
            expected = (self.dim,) * (k + 1)
            if dense.shape != expected:
                raise JetError(
                    f"degree-{k} term has shape {dense.shape}, expected {expected}")
            self.terms.append(symmetrize(dense))
        self.order = len(self.terms) - 1

    @property
    def value(self) -> np.ndarray:
        """Image point of the map, i.e. the degree-0 term."""
        return self.terms[0].copy()

    def dense_term(self, k: int) -> np.ndarray:
        """Normalized tensor ``d^k f / k!`` with component axis first (read-only)."""
        if not 0 <= k <= self.order:
            raise JetError(f"jet has degrees 0..{self.order}, asked for {k}")
        return self.terms[k]

    @classmethod
    def identity(cls, dim: int, order: int, base_point=None) -> "Jet":
        base_point = (np.zeros(dim) if base_point is None
                      else np.asarray(base_point, dtype=np.float64))
        terms = [base_point.reshape(dim), np.eye(dim)]
        for k in range(2, order + 1):
            terms.append(np.zeros((dim,) * (k + 1)))
        return cls(base_point, terms)


def jet_from_displacement(displacement: DisplacementField, base_point, order: int) -> Jet:
    """Jet of ``x + g(x)`` read off the grid data of the displacement ``g``.

    Each derivative comes from the stencil field ``d^alpha g``, all components
    sampled at the base point at once, so the jet inherits fourth-order
    accuracy.
    """
    if order < 1:
        raise JetError("jet order must be at least 1")
    grid = displacement.grid
    x0 = np.asarray(base_point, dtype=np.float64).reshape(1, grid.dim)
    value = x0[0] + displacement.sample(x0)[0]
    terms = [value]
    for k in range(1, order + 1):
        dense = np.zeros((grid.dim,) * (k + 1))
        fact = float(math.factorial(k))
        for alpha in multi_indices(grid.dim, k):
            axes = []
            for axis, count in enumerate(alpha):
                axes.extend([axis] * count)
            dvals = displacement.partial_derivative(alpha).sample(x0)[0]
            for i in range(grid.dim):
                for combo in set(itertools.permutations(axes)):
                    dense[(i,) + combo] = dvals[i] / fact
        if k == 1:
            dense = dense + np.eye(grid.dim)
        terms.append(dense)
    return Jet(x0[0], terms)


def _contract(outer_term: np.ndarray, inner_terms: list) -> np.ndarray:
    """Plug one inner tensor into each slot of an outer tensor.

    ``outer_term`` has shape ``(n,) + (n,)*j``; ``inner_terms[i]`` has shape
    ``(n,) + (n,)*a_i``. The result has shape ``(n,) + (n,)*(sum a_i)``.
    """
    j = outer_term.ndim - 1
    out_letter = "Z"
    slot_letters = _LETTERS[:j]
    spec_in = [out_letter + slot_letters]
    out_spec = out_letter
    next_free = j
    for i, inner in enumerate(inner_terms):
        a = inner.ndim - 1
        target = _LETTERS[next_free:next_free + a]
        next_free += a
        spec_in.append(slot_letters[i] + target)
        out_spec += target
    spec = ",".join(spec_in) + "->" + out_spec
    return np.einsum(spec, outer_term, *inner_terms)


def compose_jets(outer: Jet, inner: Jet) -> Jet:
    """Jet of ``outer o inner`` at the inner base point.

    Both jets must have the same order, and the outer jet must be taken at
    the image point of the inner jet.
    """
    if outer.dim != inner.dim:
        raise JetError(f"dimension mismatch: outer {outer.dim}, inner {inner.dim}")
    if outer.order != inner.order:
        raise JetError(
            f"order mismatch: outer has order {outer.order}, inner {inner.order}"
        )
    scale = 1.0 + float(np.max(np.abs(inner.value)))
    if float(np.max(np.abs(outer.base_point - inner.value))) > 1.0e-6 * scale:
        raise JetError("outer jet is not based at the inner jet's image point")
    inner_dense = [inner.dense_term(k) for k in range(inner.order + 1)]
    terms = [outer.value]
    for p in range(1, outer.order + 1):
        total = np.zeros((outer.dim,) * (p + 1))
        for j in range(1, p + 1):
            outer_term = outer.dense_term(j)
            for split in ordered_compositions(p, j):
                total += _contract(outer_term, [inner_dense[a] for a in split])
        terms.append(_sym_dense(total))
    return Jet(inner.base_point, terms)


def invert_jet(jet: Jet) -> Jet:
    """Jet of the inverse map at the image point, by triangular reversion.

    Writing ``H`` for the unknown inverse jet, the identity ``H o G = Id``
    determines ``H_p`` from lower orders because ``H_p`` enters only through
    ``H_p[G_1, ..., G_1]``; dividing out ``G_1`` slot by slot needs nothing
    more than the inverse Jacobian. The inverse has the input's order.
    """
    g1 = jet.dense_term(1)
    det = float(np.linalg.det(g1))
    if det == 0.0 or not np.isfinite(det):
        raise SingularJacobianError(f"jet Jacobian is singular (det = {det})")
    g1_inv = np.linalg.inv(g1)
    dense_terms = [jet.base_point, g1_inv]
    for p in range(2, jet.order + 1):
        remainder = np.zeros((jet.dim,) * (p + 1))
        for j in range(1, p):
            h_term = dense_terms[j]
            for split in ordered_compositions(p, j):
                remainder += _contract(h_term, [jet.dense_term(a) for a in split])
        solved = -remainder
        for axis in range(1, p + 1):
            solved = np.tensordot(solved, g1_inv, axes=([axis], [0]))
            solved = np.moveaxis(solved, -1, axis)
        dense_terms.append(_sym_dense(solved))
    return Jet(jet.value, dense_terms)


def inverse_norm_bound(matrix: np.ndarray) -> tuple:
    """Check the bound ``|A^-1| <= |A|^(n-1) / |det A|`` in the spectral norm.

    Returns ``(bound, holds)`` where ``holds`` compares the actual inverse
    norm against the bound with a small absolute slack for roundoff.
    ``matrix`` is one ``(n, n)`` matrix, which gives a Python ``float`` and
    ``bool``, or a ``(k, n, n)`` stack, which gives two length-``k`` arrays
    from one batched ``det``, ``svd`` and ``inv`` each. numpy's linalg
    routines run the same LAPACK call on every matrix of a stack, so entry
    ``i`` has the bits of a single call on ``matrix[i]``. A singular matrix
    anywhere in the stack raises :class:`SingularJacobianError`.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-2] != a.shape[-1]:
        raise JetError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    stack = a.reshape((-1,) + a.shape[-2:])
    det = np.linalg.det(stack)
    singular = (det == 0.0) | ~np.isfinite(det)
    if np.any(singular):
        i = int(np.argmax(singular))
        raise SingularJacobianError(f"matrix {i} is singular (det = {det[i]})")
    n = a.shape[-1]
    # Python's float power is libm pow, whose squares numpy's power does not always match
    norms = [s ** (n - 1) for s in np.linalg.norm(stack, 2, axis=(1, 2)).tolist()]
    bound = np.array(norms) / np.abs(det)
    actual = np.linalg.norm(np.linalg.inv(stack), 2, axis=(1, 2))
    holds = actual <= bound + 1.0e-12
    if a.ndim == 2:
        return float(bound[0]), bool(holds[0])
    return bound, holds

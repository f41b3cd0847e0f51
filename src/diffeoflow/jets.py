"""Jet calculus for maps of R^n: symmetric tensors, composition, reversion.

A jet of order ``p`` at a base point collects the image point together with
the normalized derivative tensors ``d^k f / k!`` for ``k = 1..p``. Jets
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
def _packed_index(dim: int, degree: int) -> dict:
    combos = itertools.combinations_with_replacement(range(dim), degree)
    return {combo: slot for slot, combo in enumerate(combos)}


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


def _check_degree(degree: int):
    if degree < 0:
        raise JetError(f"tensor degree must be nonnegative, got {degree}")
    if degree > MAX_DEGREE:
        raise UnsupportedOrderError(
            f"tensor degree {degree} exceeds the supported cap {MAX_DEGREE}"
        )


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


class SymmetricTensor:
    """A symmetric ``degree``-linear map R^dim -> R^codomain_dim, stored packed.

    Only coefficients for non-decreasing index tuples are kept; any index
    tuple reads and writes through its sorted form, so the tensor cannot
    drift out of symmetry. Degree 0 is a plain vector of the codomain.
    """

    def __init__(self, dim: int, degree: int, codomain_dim: int | None = None,
                 packed: np.ndarray | None = None):
        if dim < 1:
            raise JetError(f"tensor domain dimension must be positive, got {dim}")
        _check_degree(degree)
        self.dim = dim
        self.degree = degree
        self.codomain_dim = dim if codomain_dim is None else int(codomain_dim)
        if self.codomain_dim < 1:
            raise JetError(f"codomain dimension must be positive, got {codomain_dim}")
        slots = len(_packed_index(dim, degree))
        if packed is None:
            packed = np.zeros((self.codomain_dim, slots))
        packed = np.asarray(packed, dtype=np.float64)
        if packed.shape != (self.codomain_dim, slots):
            raise JetError(
                f"packed storage must have shape {(self.codomain_dim, slots)}, "
                f"got {packed.shape}"
            )
        self.packed = packed

    @classmethod
    def from_dense(cls, dense: np.ndarray, vector_valued: bool = True) -> "SymmetricTensor":
        """Pack a dense coefficient array, symmetrizing the argument slots.

        With ``vector_valued`` the leading axis indexes components; otherwise
        the whole array is one scalar-valued form.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if not vector_valued:
            dense = dense[None]
        if dense.ndim == 0:
            raise JetError("dense tensor data must have a component axis")
        degree = dense.ndim - 1
        _check_degree(degree)
        if degree:
            dim = dense.shape[1]
            if dense.shape[1:] != (dim,) * degree:
                raise JetError(f"argument axes must share one dimension, got {dense.shape}")
        else:
            dim = dense.shape[0]
        dense = _sym_dense(dense)
        out = cls(dim, degree, codomain_dim=dense.shape[0])
        for combo, slot in _packed_index(out.dim, degree).items():
            out.packed[:, slot] = dense[(slice(None),) + combo]
        return out

    def dense(self) -> np.ndarray:
        """Dense coefficients with the component axis first."""
        out = np.empty((self.codomain_dim,) + (self.dim,) * self.degree)
        index = _packed_index(self.dim, self.degree)
        for combo in itertools.product(range(self.dim), repeat=self.degree):
            out[(slice(None),) + combo] = self.packed[:, index[tuple(sorted(combo))]]
        return out

    def __getitem__(self, key) -> float:
        component, combo = key[0], tuple(sorted(key[1:]))
        return float(self.packed[component, _packed_index(self.dim, self.degree)[combo]])

    def __setitem__(self, key, value: float):
        component, combo = key[0], tuple(sorted(key[1:]))
        self.packed[component, _packed_index(self.dim, self.degree)[combo]] = value

    def apply(self, *vectors) -> np.ndarray:
        """Contract the form with ``degree`` vectors; returns a codomain vector."""
        if len(vectors) != self.degree:
            raise JetError(f"need {self.degree} vectors, got {len(vectors)}")
        value = self.dense()
        for v in vectors:
            value = np.tensordot(value, np.asarray(v, dtype=np.float64), axes=([1], [0]))
        return value


def symmetrize(dense, vector_valued: bool = False) -> SymmetricTensor:
    """Symmetrize a dense coefficient array into a packed tensor.

    By default every axis is an argument slot of a scalar-valued form; pass
    ``vector_valued`` when the leading axis indexes output components.
    Arrays with more than six argument slots are rejected.
    """
    return SymmetricTensor.from_dense(np.asarray(dense, dtype=np.float64),
                                      vector_valued=vector_valued)


class Jet:
    """Normalized derivative data of a map of R^dim at one point.

    ``terms[k]`` is the symmetric tensor ``d^k f(base_point) / k!`` with
    values in R^dim; ``terms[0]`` is the image point itself.
    """

    def __init__(self, base_point, terms):
        self.base_point = np.asarray(base_point, dtype=np.float64).reshape(-1)
        self.dim = self.base_point.shape[0]
        if len(terms) < 2:
            raise JetError("a jet needs at least the degree-0 and degree-1 terms")
        self.terms = []
        for k, term in enumerate(terms):
            if not isinstance(term, SymmetricTensor):
                dense = np.asarray(term, dtype=np.float64)
                expected = (self.dim,) + (self.dim,) * k
                if dense.shape != expected:
                    raise JetError(
                        f"degree-{k} term has shape {dense.shape}, expected {expected}"
                    )
                term = SymmetricTensor.from_dense(dense)
            if term.degree != k:
                raise JetError(f"term {k} has degree {term.degree}")
            if term.dim != self.dim and term.degree > 0:
                raise JetError(f"term {k} lives on R^{term.dim}, jet on R^{self.dim}")
            if term.codomain_dim != self.dim:
                raise JetError(f"term {k} has {term.codomain_dim} components, need {self.dim}")
            self.terms.append(term)
        self.order = len(self.terms) - 1

    @property
    def value(self) -> np.ndarray:
        """Image point of the map, i.e. the degree-0 term."""
        return self.terms[0].packed[:, 0].copy()

    def term(self, k: int) -> SymmetricTensor:
        if not 0 <= k <= self.order:
            raise JetError(f"jet has degrees 0..{self.order}, asked for {k}")
        return self.terms[k]

    def dense_term(self, k: int) -> np.ndarray:
        """Dense normalized tensor ``d^k f / k!`` with component axis first."""
        return self.term(k).dense()

    def jacobian(self) -> np.ndarray:
        return self.dense_term(1)

    def truncate(self, order: int) -> "Jet":
        if not 1 <= order <= self.order:
            raise JetError(f"cannot truncate an order-{self.order} jet to order {order}")
        return Jet(self.base_point, self.terms[: order + 1])

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
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise JetError(f"expected a square matrix, got shape {a.shape}")
    det = float(np.linalg.det(a))
    if det == 0.0 or not np.isfinite(det):
        raise SingularJacobianError(f"matrix is singular (det = {det})")
    n = a.shape[0]
    bound = float(np.linalg.norm(a, 2)) ** (n - 1) / abs(det)
    actual = float(np.linalg.norm(np.linalg.inv(a), 2))
    holds = bool(actual <= bound + 1.0e-12)
    return bound, holds


def jet_to_dict(jet: Jet) -> dict:
    """JSON-ready form of a jet; packed slots keyed by sorted index tuples."""
    terms = []
    for k in range(jet.order + 1):
        tensor = jet.term(k)
        coeffs = {}
        for combo, slot in _packed_index(tensor.dim, tensor.degree).items():
            key = ",".join(str(i) for i in combo)
            coeffs[key] = [float(v) for v in tensor.packed[:, slot]]
        terms.append({"degree": k, "coeffs": coeffs})
    return {
        "order": jet.order,
        "base_point": [float(v) for v in jet.base_point],
        "terms": terms,
    }


def jet_from_dict(data: dict) -> Jet:
    """Rebuild a jet from :func:`jet_to_dict` output; raises JetError on junk."""
    try:
        base_point = np.asarray(data["base_point"], dtype=np.float64)
        dim = base_point.shape[0]
        order = int(data["order"])
        raw_terms = data["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise JetError(f"malformed jet data: {exc}") from None
    if len(raw_terms) != order + 1:
        raise JetError(f"jet of order {order} must carry {order + 1} terms")
    terms = []
    for k, raw in enumerate(raw_terms):
        if int(raw.get("degree", -1)) != k:
            raise JetError(f"term {k} is labeled degree {raw.get('degree')}")
        tensor = SymmetricTensor(dim, k, codomain_dim=dim)
        index = _packed_index(dim, k)
        coeffs = raw.get("coeffs", {})
        if len(coeffs) != len(index):
            raise JetError(f"term {k} has {len(coeffs)} slots, expected {len(index)}")
        for key, values in coeffs.items():
            combo = tuple(int(s) for s in key.split(",")) if key else ()
            if combo not in index:
                raise JetError(f"term {k} has an invalid slot key {key!r}")
            tensor.packed[:, index[combo]] = np.asarray(values, dtype=np.float64)
        terms.append(tensor)
    return Jet(base_point, terms)

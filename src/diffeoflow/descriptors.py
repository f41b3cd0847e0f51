"""Closed-form field descriptors: a small arithmetic language with exact derivatives.

A descriptor is an expression over the variables ``x``, ``y``, ``z`` (spatial
coordinates) and ``t`` (time), decimal number literals, parentheses, the
operators ``+ - * /``, unary ``-`` and ``+``, ``^`` (or ``**``) and a whitelist
of functions:

* ``exp(u)``, ``sin(u)``, ``cos(u)``, ``tanh(u)``
* ``gauss(u1, ..., uk)`` for ``exp(-(u1^2 + ... + uk^2))`` with ``k <= 3``
* ``bump(u1, ..., uk)`` for the compactly supported mollifier
  ``exp(-1/(1 - r^2))`` on ``r < 1`` (zero outside), ``r^2 = u1^2 + ... + uk^2``

``^`` takes a literal integer exponent, optionally negative; negative powers
require the base to be nonvanishing wherever the descriptor is sampled.
Vector-valued descriptors are comma-separated component expressions.

The language is a subset of Python's expression grammar, so Python's parser
reads it: whitespace runs (newlines too) become one space, ``^`` becomes ``**``,
and one walk of ``ast.parse(text, mode="eval")`` checks each node against the
rules above as it builds the :class:`Expr` tree. So ``x^(2)`` and ``(x, y)`` are
read. Refused with :class:`DescriptorError`: characters outside ASCII letters,
digits, space and ``_.+-*/^(),`` (``#``, ``\\``, quotes), a trailing comma
(``x,``), empty parentheses, numbers that are not plain decimal (``1_0``,
``0x10``, ``1j``, ``02``), integer literals beyond the float range, exponents
other than integer literals (``x^2.0``, ``x^+2``) and other Python syntax.

Depth: the walk, :meth:`Expr.diff` and :func:`_lower` recurse once per level;
:func:`_lower` visits a subtree that ``diff`` shares once, by identity. A
descriptor too deep for Python's recursion limit or parser (over 200 nested
parentheses, say) raises :class:`DescriptorError`. At the default limit of 1000
frames, the command line accepts a sum of 985 terms and a flow of 490 chained
factors or 320 chained quotients (its Jacobian is two or three times as deep).

Expressions differentiate symbolically (:meth:`Expr.diff`) and :func:`bind`
evaluates them on numpy arrays, so tests can pit finite-difference estimates
against exact derivatives.

:func:`bind` is the one evaluator: every field, flow and command, and the jets
of ``verify``'s criteria 2 and 3, run its program. It runs the components as
one straight-line program over their distinct subtrees (constants are told
apart by their bits, so ``-0`` is not ``0``), computing each subtree once and
freeing it after its last read; the variables among those subtrees are the
ones the descriptor uses. Each node applies one numpy operation to its
operands' values. A program is compiled once per structure, with constants
passed in as values: its source holds slot names, operators and whitelisted
function names, never descriptor text.
"""

from __future__ import annotations

import ast
import functools
import math
import re

import numpy as np

from .errors import DescriptorError

VARIABLES = ("x", "y", "z", "t")
_UNARY_FUNCTIONS = ("exp", "sin", "cos", "tanh")
_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
# a character outside the alphabet, a trailing comma or empty parentheses
_REFUSED_RE = re.compile(r"[^0-9A-Za-z_.+\-*/^(), ]|, ?(?:\)|$)|\( ?\)")


class Expr:
    """Base class for descriptor syntax trees; :func:`bind` evaluates them."""

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def diff(self, var):
        return Const(0.0)


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)


def _is_const(e: Expr, value: float | None = None) -> bool:
    return isinstance(e, Const) and (value is None or e.value == value)


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def _neg(a: Expr) -> Expr:
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def _pow(a: Expr, n: int) -> Expr:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return a
    return Pow(a, n)


def _negative_power(base, n: int):
    return np.asarray(base, dtype=np.float64) ** n


def _bump_defect(*args):
    acc = None
    for a in args:
        sq = np.asarray(a, dtype=np.float64) ** 2
        acc = sq if acc is None else acc + sq
    return 1.0 - acc


def _bump(defect, p: int):
    defect = np.asarray(defect, dtype=np.float64)
    scalar = defect.ndim == 0
    defect = np.atleast_1d(defect)
    out = np.zeros_like(defect)
    inside = defect > 0.0
    d = defect[inside]
    out[inside] = np.exp(-1.0 / d - p * np.log(d))
    return out[0] if scalar else out


class _Binary(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right


class Add(_Binary):
    def diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))


class Sub(_Binary):
    def diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))


class Mul(_Binary):
    def diff(self, var):
        return _add(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )


class Div(_Binary):
    def diff(self, var):
        num = _sub(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )
        return _div(num, _pow(self.right, 2))


class Pow(Expr):
    """Integer power; negative exponents assume a nonvanishing base."""

    def __init__(self, base: Expr, exponent: int):
        self.base, self.exponent = base, int(exponent)

    def diff(self, var):
        n = self.exponent
        return _mul(_mul(Const(float(n)), _pow(self.base, n - 1)), self.base.diff(var))


class Neg(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand

    def diff(self, var):
        return _neg(self.operand.diff(var))


class Call(Expr):
    def __init__(self, func: str, arg: Expr):
        self.func, self.arg = func, arg

    def diff(self, var):
        du = self.arg.diff(var)
        if self.func == "exp":
            outer = Call("exp", self.arg)
        elif self.func == "sin":
            outer = Call("cos", self.arg)
        elif self.func == "cos":
            outer = _neg(Call("sin", self.arg))
        elif self.func == "tanh":
            outer = _sub(Const(1.0), _pow(Call("tanh", self.arg), 2))
        else:  # pragma: no cover - parser whitelists the names
            raise DescriptorError(f"no derivative rule for {self.func!r}")
        return _mul(outer, du)


class BumpPow(Expr):
    """``exp(-1/D) * D^(-p)`` on ``D = 1 - sum(args^2) > 0``, zero elsewhere.

    ``p = 0`` is the mollifier itself; derivatives raise ``p`` by one or two.
    The value is computed as ``exp(-1/D - p*log(D))`` so the flat zero at the
    support boundary never meets an overflowing power.
    """

    def __init__(self, args: list, p: int = 0):
        self.args, self.p = list(args), int(p)

    def diff(self, var):
        total: Expr = Const(0.0)
        for a in self.args:
            da = a.diff(var)
            if _is_const(da, 0.0):
                continue
            # d/du [e^{-1/D} D^-p] = (-2u u') (B_{p+2} - p B_{p+1})
            chain = BumpPow(self.args, self.p + 2)
            if self.p != 0:
                chain = _sub(chain, _mul(Const(float(self.p)), BumpPow(self.args, self.p + 1)))
            total = _add(total, _mul(_mul(_mul(Const(-2.0), a), da), chain))
        return total


_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_TOO_DEEP = "descriptor is nested too deeply for Python's parser or recursion limit"


def _call(name: str, args: list) -> Expr:
    """``name(*args)`` for a whitelisted ``name`` and its arity."""
    if name in _UNARY_FUNCTIONS:
        if len(args) != 1:
            raise DescriptorError(f"{name} takes exactly one argument")
        return Call(name, args[0])
    if name not in ("gauss", "bump"):
        raise DescriptorError(f"unknown function {name!r}")
    if not 1 <= len(args) <= 3:
        raise DescriptorError(f"{name} takes one to three arguments")
    if name == "bump":
        return BumpPow(args, 0)
    return Call("exp", _neg(functools.reduce(_add, (_pow(a, 2) for a in args), Const(0.0))))


def _parse(text: str) -> list:
    """The component trees of ``text``: one per element of a top-level tuple, else one."""
    text = re.sub(r"\s+", " ", text).strip()
    refused = _REFUSED_RE.search(text)
    if refused:
        raise DescriptorError(f"unexpected {refused.group()!r}")
    text = text.replace("^", "**")

    def literal(node):
        return (type(node) is ast.Constant and type(node.value) in (int, float)
                and _NUMBER_RE.fullmatch(text, node.col_offset, node.end_col_offset))

    def exponent(node) -> int:
        sign = 1
        if type(node) is ast.UnaryOp and type(node.op) is ast.USub:
            sign, node = -1, node.operand
        if literal(node) and type(node.value) is int:
            return sign * node.value
        raise DescriptorError("exponent after '^' must be a literal integer")

    def walk(node) -> Expr:
        kind, op = type(node), type(getattr(node, "op", None))
        if kind is ast.BinOp and op in _BINARY:
            return _BINARY[op](walk(node.left), walk(node.right))
        if kind is ast.BinOp and op is ast.Pow:
            return _pow(walk(node.left), exponent(node.right))
        if kind is ast.UnaryOp and op in (ast.USub, ast.UAdd):
            operand = walk(node.operand)
            return _neg(operand) if op is ast.USub else operand
        if kind is ast.Name:
            if node.id not in VARIABLES:
                raise DescriptorError(f"unknown variable {node.id!r} (allowed: x, y, z, t)")
            return Var(node.id)
        if kind is ast.Call and type(node.func) is ast.Name and not node.keywords:
            return _call(node.func.id, [walk(a) for a in node.args])
        if literal(node):
            try:
                return Const(float(node.value))
            except OverflowError:
                raise DescriptorError("integer literal beyond the float range") from None
        raise DescriptorError(f"unsupported expression {ast.unparse(node)!r}")

    try:
        body = ast.parse(text, mode="eval").body
        return [walk(part) for part in (body.elts if type(body) is ast.Tuple else [body])]
    except SyntaxError as exc:
        raise DescriptorError(f"malformed descriptor: {exc.msg}") from None
    except (MemoryError, RecursionError):  # the parser's stack or the recursion limit
        raise DescriptorError(_TOO_DEEP) from None


def parse_scalar(text: str) -> Expr:
    """Parse one scalar expression; a component list is an error."""
    components = _parse(text)
    if len(components) != 1:
        raise DescriptorError(f"expected one expression, found {len(components)} components")
    return components[0]


def parse_vector(text: str) -> list:
    """Parse a comma-separated list of component expressions."""
    return _parse(text)


def evaluate_on(expr: Expr, arrays: dict) -> np.ndarray:
    """``expr`` by :func:`bind` at ``x, y, z`` from ``arrays``, in their broadcast shape."""
    names = VARIABLES[:next((j for j, name in enumerate(VARIABLES[:3]) if name not in arrays), 3)]
    # a zero column ahead of the coordinates gives the shape when none is bound
    columns = np.broadcast_arrays(np.float64(0.0), *(arrays[name] for name in names))
    _, evaluate = bind(expr, len(names), time="t" in arrays)
    points = np.stack([column.reshape(-1) for column in columns], axis=-1)[:, 1:]
    return evaluate(arrays.get("t", 0.0), points).reshape(columns[0].shape)


_OPERATORS = {Add: "({} + {})", Sub: "({} - {})", Mul: "({} * {})", Div: "({} / {})"}
_PROGRAM_GLOBALS = {"np": np, "_bump": _bump, "_bump_defect": _bump_defect,
                    "_negative_power": _negative_power}


def _lower(exprs: list) -> tuple:
    """The distinct subtrees of ``exprs``, operands first: ``(nodes, constants, roots)``.

    ``nodes[i]`` is a variable, ``c<k>`` for ``constants[k]`` or a ``(template,
    operands)`` pair; ``roots[k]`` is component ``k``. Constants are keyed by
    their exact bits, so ``0`` and ``-0`` stay apart; exponents are constants too.
    """
    index, nodes, constants, seen = {}, [], [], {}

    def node(key, item, *value):
        if key not in index:
            index[key] = len(nodes)
            nodes.append(f"c{len(constants)}" if value else item)
            constants.extend(value)
        return index[key]

    def visit(e):
        kind = type(e)
        if kind is Const:
            return node(e.value.hex(), None, np.float64(e.value))
        if kind is Var:
            return node(e.name, e.name)
        if id(e) in seen:  # a subtree ``diff`` shares; ``exprs`` keeps each id alive
            return seen[id(e)]
        if kind is Pow:
            template = "_negative_power({}, {})" if e.exponent < 0 else "({} ** {})"
            operands = (visit(e.base), node(e.exponent, None, e.exponent))
        elif kind is BumpPow:
            args = tuple(map(visit, e.args))
            defect = ("_bump_defect(" + ", ".join(["{}"] * len(args)) + ")", args)
            template, operands = "_bump({}, {})", (node(defect, defect), node(e.p, None, e.p))
        elif kind is Call:
            if e.func not in _UNARY_FUNCTIONS:
                raise DescriptorError(f"unknown function {e.func!r}")
            template, operands = f"np.{e.func}({{}})", (visit(e.arg),)
        elif kind is Neg:
            template, operands = "(-{})", (visit(e.operand),)
        else:
            template, operands = _OPERATORS[kind], (visit(e.left), visit(e.right))
        seen[id(e)] = node((template, operands), (template, operands))
        return seen[id(e)]

    roots = tuple(visit(e) for e in exprs)
    return tuple(nodes), tuple(constants), roots


def _source(nodes: tuple, n_constants: int, roots: tuple) -> str:
    """Source of ``program(c, out, t, x, y, z)``, which writes component ``k`` to ``out[:, k]``.

    Node ``i`` is computed once into a slot ``s<i>``, deleted after its last read.
    """
    left = [0] * len(nodes)
    for k in roots + tuple(k for item in nodes if isinstance(item, tuple) for k in item[1]):
        left[k] += 1
    names = [item if isinstance(item, str) else f"s{i}" for i, item in enumerate(nodes)]
    lines = ["def program(c, out, t, x=None, y=None, z=None):",
             "    " + "".join(f"c{k}, " for k in range(n_constants)) + "= c" if n_constants else ""]
    for i, item in enumerate(nodes):
        reads = [] if isinstance(item, str) else list(item[1])
        if reads:
            lines.append(f"    s{i} = " + item[0].format(*(names[k] for k in reads)))
        reads += [i] * sum(root == i for root in roots)
        lines += [f"    out[:, {k}] = {names[i]}" for k, root in enumerate(roots) if root == i]
        for k in reads:
            left[k] -= 1
            if left[k] == 0 and names[k][0] == "s":
                lines.append(f"    del s{k}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=128)
def _compiled(nodes: tuple, n_constants: int, roots: tuple):
    namespace = dict(_PROGRAM_GLOBALS)
    exec(compile(_source(nodes, n_constants, roots), "<descriptor program>", "exec"), namespace)
    return namespace["program"]


def bind(descriptor, dim: int, shape: tuple = (), time: bool = False) -> tuple:
    """Bind a descriptor to points; every descriptor-built field goes through here.

    ``descriptor`` is text, one parsed expression or a list of them. It must
    have ``prod(shape)`` components over ``x, y, z`` up to R^dim, and over
    ``t`` too when ``time`` is set. Returns ``(exprs, evaluate)``, where
    ``evaluate(t, points)`` binds ``x, y, z`` to the columns of the
    ``(m, dim)`` points (and ``t`` to ``t`` when ``time`` is set) and returns
    the components at each row, shape ``(m,) + shape``; a constant component
    is broadcast over the rows.
    """
    if isinstance(descriptor, str):
        exprs = parse_vector(descriptor)
    elif isinstance(descriptor, Expr):
        exprs = [descriptor]
    else:
        exprs = list(descriptor)
    count = math.prod(shape)
    if len(exprs) != count:
        raise DescriptorError(f"descriptor has {len(exprs)} components, expected {count}")
    try:
        nodes, constants, roots = _lower(exprs)
    except RecursionError:
        raise DescriptorError(_TOO_DEEP) from None
    allowed = set(VARIABLES[:dim]) | ({"t"} if time else set())
    extra = set(VARIABLES).intersection(nodes) - allowed
    if extra:
        raise DescriptorError(
            f"descriptor uses {sorted(extra)} but only {sorted(allowed)} are available here"
        )
    program = _compiled(nodes, len(constants), roots)
    spatial = [j for j, name in enumerate(VARIABLES[:3]) if name in nodes]

    def evaluate(t, points: np.ndarray) -> np.ndarray:
        if spatial and points.shape[1] <= spatial[-1]:
            name = VARIABLES[next(j for j in spatial if j >= points.shape[1])]
            raise DescriptorError(f"variable {name!r} is not bound here")
        out = np.empty((points.shape[0], count))
        program(constants, out, np.float64(t) if time else None,
                *(points[:, j] for j in range(points.shape[1])))
        return out.reshape(points.shape[:1] + shape)

    return exprs, evaluate


def bind_jacobian(exprs: list, dim: int, time: bool = False):
    """:func:`bind`'s evaluator of the Jacobian of ``exprs``, entry ``[i, j]`` ``d_j exprs[i]``."""
    return bind([expr.diff(var) for expr in exprs for var in VARIABLES[:dim]],
                dim, (dim, dim), time)[1]

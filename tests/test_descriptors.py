import io
import math
import re
import tokenize

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffeoflow import (DescriptorError, DisplacementField, Grid, ScalarField,
                        TimeDependentVectorField, parse_scalar, parse_vector, sample)
from diffeoflow.battery import gaussian_descriptor
from diffeoflow import descriptors
from diffeoflow.descriptors import VARIABLES, evaluate_on


def ev(descriptor, x=0.0, y=0.0):
    """``descriptor`` (text or one tree) at the point ``(x, y)``, through ``bind``."""
    _, evaluate = descriptors.bind(descriptor, 2)
    return float(evaluate(0.0, np.array([[x, y]]))[0])


def test_arithmetic_and_precedence():
    assert ev("2*x + 3", x=2.0) == 7.0
    assert ev("2 + 3*4^2") == 50.0
    assert ev("(x+1)/(x-3)", x=1.0) == -1.0
    assert ev("-x^2", x=2.0) == -4.0
    assert ev("+x - -x", x=1.5) == 3.0


def test_double_star_is_a_power_synonym():
    assert ev("x**3", x=2.0) == ev("x^3", x=2.0) == 8.0
    assert ev("(1+x^2)^-1", x=3.0) == pytest.approx(0.1, abs=1e-15)
    assert ev("1/(1+x**2)", x=3.0) == pytest.approx(0.1, abs=1e-15)


def test_whitelisted_functions():
    assert ev("exp(1)") == pytest.approx(math.e, abs=1e-15)
    assert ev("sin(x)+cos(x)", x=0.0) == 1.0
    assert ev("tanh(100)") == pytest.approx(1.0, abs=1e-12)
    assert ev("gauss(x)", x=1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ev("gauss(x, 2*x)", x=0.5) == pytest.approx(math.exp(-1.25), abs=1e-15)


def test_bump_is_compactly_supported():
    assert ev("bump(x)", x=0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert ev("bump(x)", x=1.0) == 0.0
    assert ev("bump(x)", x=-2.5) == 0.0
    assert ev("bump(x/2)", x=1.9) > 0.0
    assert ev("bump(x/2)", x=2.0) == 0.0
    # derivatives stay flat across the support boundary
    d = parse_scalar("bump(x)").diff("x")
    assert ev(d, x=1.0) == 0.0
    assert abs(ev(d, x=0.999)) < 1e-5


@pytest.mark.parametrize("text", [
    "exp(-x^2)",
    "sin(3*x)*cos(x)",
    "tanh(x/2)",
    "x^3 - 2*x",
    "gauss(x-1)",
    "bump(x/3)",
    "1/(1+x^2)",
    "exp(-x^2)*sin(x)/(2+cos(x))",
])
def test_symbolic_derivative_matches_finite_difference(text):
    expr = parse_scalar(text)
    d = expr.diff("x")
    h = 1e-5
    for x0 in (-1.3, -0.2, 0.7, 2.1):
        fd = (ev(expr, x=x0 + h) - ev(expr, x=x0 - h)) / (2.0 * h)
        exact = ev(d, x=x0)
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_diff_of_unused_variable_is_zero():
    d = parse_scalar("exp(-x^2)").diff("t")
    assert ev(d, x=0.3) == 0.0


def test_bind_refuses_variables_it_cannot_bind():
    """``bind`` reads the variables in use off the lowered program's variable nodes."""
    descriptors.bind("exp(-x^2)*cos(t)", 1, time=True)
    descriptors.bind("1.5", 0)
    with pytest.raises(DescriptorError,
                       match=re.escape("descriptor uses ['t'] but only ['x'] are available here")):
        descriptors.bind("exp(-x^2)*cos(t)", 1)
    # one message for every component, listing each variable once
    with pytest.raises(DescriptorError,
                       match=re.escape("descriptor uses ['y', 'z'] but only ['x'] are available")):
        descriptors.bind("y*z, z, x", 1, (3,))


def test_parse_vector_components():
    comps = parse_vector("-0.3*y, 0.3*x")
    assert len(comps) == 2
    assert ev(comps[0], x=0.0, y=2.0) == -0.6
    assert len(parse_vector("x")) == 1


def test_evaluate_on_broadcasts_constants():
    values = evaluate_on(parse_scalar("2.5"), {"x": np.linspace(-1, 1, 7)})
    assert values.shape == (7,)
    assert np.all(values == 2.5)


@pytest.mark.parametrize("text", [
    "sinh(x)",          # unknown function
    "w + 1",            # unknown variable
    "x^2.5",            # non-integer exponent
    "x^",               # missing exponent
    "x 1",              # trailing input
    "x $",              # unexpected character
    "",                 # empty
    "(x+1",             # unbalanced parenthesis
    "exp(x, y)",        # arity
    "gauss(x, y, z, t)",
    "bump()",
    "1..2",
])
def test_parse_errors(text):
    with pytest.raises(DescriptorError):
        parse_scalar(text)


def _program(exprs):
    """``_lower``'s program with each constant's type and exact value."""
    nodes, constants, roots = descriptors._lower(exprs)
    return nodes, [(type(c).__name__, float(c).hex()) for c in constants], roots


# (text, plain): each edge form is refused (plain None) or read as the plain text
EDGE_FORMS = [
    # characters outside the alphabet: a comment, a line continuation, strings
    ("x # 1", None), ("x \\\n+ 1", None), ("'x'", None), ('"x"', None), ("\u0663", None),
    # numbers that are not plain decimal, including leading zeros, which Python rejects
    ("1_0", None), ("0x10", None), ("1j", None), ("02", None), ("x*007", None),
    # an integer literal beyond the float range; a float literal there still reads as inf
    ("1" + "0" * 400, None), ("1e400", "2e400"),
    # exponents must be integer literals, optionally negated
    ("x^2.0", None), ("x^+2", None), ("x^--2", None), ("x^t", None), ("x^2^3", None),
    # a trailing comma anywhere, empty parentheses, other Python syntax
    ("x,", None), ("x, y,", None), ("(x, y,)", None), ("gauss(x,)", None), ("()", None),
    ("exp(**x)", None), ("exp(*x)", None), ("x//2", None), ("x.real", None), ("not x", None),
    ("x if t else y", None), ("(x, y), t", None), ("...", None), ("True", None),
    # parentheses Python drops are read
    ("(x, y)", "x, y"), ("x^(2)", "x^2"), ("x^(-2)", "x^-2"), ("x^-(2)", "x^-2"),
    ("(exp)(x)", "exp(x)"),
    # whitespace, newlines included, separates tokens; ** is ^
    ("x\n+\ty", "x + y"), ("  x ** -2 ", "x^-2"), ("- - + x", "x"), ("-2^2", "-(2^2)"),
    ("gauss(x, y/2)", "exp(-(x^2 + (y/2)^2))"),
]


@pytest.mark.parametrize("text, plain", EDGE_FORMS, ids=[ascii(t)[:24] for t, _ in EDGE_FORMS])
def test_edge_forms(text, plain):
    if plain is None:
        with pytest.raises(DescriptorError):
            parse_vector(text)
    else:
        assert _program(parse_vector(text)) == _program(parse_vector(plain))


def _number(value, style):
    text = repr(abs(value)) if style == "repr" else format(abs(value), ".17g")
    return f"(-{text})" if math.copysign(1.0, value) < 0 else text


def _text(e, style):
    """``e`` fully parenthesized, with ``^`` for powers."""
    kind = type(e)
    if kind is descriptors.Const:
        return _number(e.value, style)
    if kind is descriptors.Var:
        return e.name
    if kind is descriptors.Pow:
        return f"({_text(e.base, style)})^{e.exponent}"
    if kind is descriptors.Neg:
        return f"(-{_text(e.operand, style)})"
    if kind is descriptors.Call:
        return f"{e.func}({_text(e.arg, style)})"
    if kind is descriptors.BumpPow:
        return "bump(" + ", ".join(_text(a, style) for a in e.args) + ")"
    op = {descriptors.Add: "+", descriptors.Sub: "-", descriptors.Mul: "*", descriptors.Div: "/"}
    return f"({_text(e.left, style)} {op[kind]} {_text(e.right, style)})"


def _trees():
    """Trees over every node type, built as the parser builds them."""
    constants = st.one_of(st.sampled_from([0.0, -0.0, 1e-05, 0.1, 2.0, 1e300, 5e-324]),
                          st.floats(allow_nan=False, allow_infinity=False))
    leaves = st.one_of(st.sampled_from(VARIABLES).map(descriptors.Var),
                       constants.map(descriptors.Const))

    def extend(children):
        binary = st.sampled_from([descriptors.Add, descriptors.Sub, descriptors.Mul,
                                  descriptors.Div])
        return st.one_of(
            st.builds(lambda kind, a, b: kind(a, b), binary, children, children),
            st.builds(descriptors._pow, children, st.sampled_from([-3, -2, -1, 2, 3, 7])),
            children.map(descriptors._neg),
            st.builds(descriptors.Call, st.sampled_from(["exp", "sin", "cos", "tanh"]), children),
            st.lists(children, min_size=1, max_size=3).map(descriptors.BumpPow),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(st.lists(_trees(), min_size=1, max_size=3), st.sampled_from(["repr", ".17g"]))
def test_printed_trees_parse_to_the_same_program(trees, style):
    text = ", ".join(_text(e, style) for e in trees)
    assert _program(parse_vector(text)) == _program(trees), text


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_product_rule_property(x0, a):
    # d/dx [a x sin(x)] = a sin(x) + a x cos(x)
    expr = parse_scalar(f"({a}) * x * sin(x)")
    got = ev(expr.diff("x"), x=x0)
    want = a * math.sin(x0) + a * x0 * math.cos(x0)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


# -- one binding of descriptor text to points -------------------------------
#
# The oracles below evaluate each component with the reference tree walker of
# conftest.py, per constructor; every constructor must give the walker's bits.

def _oracle(walk, exprs, points, shape, t=None):
    """``exprs`` at each row of ``points`` by the walker, shape ``(m,) + shape``."""
    env = {VARIABLES[j]: points[:, j] for j in range(points.shape[1])}
    if t is not None:
        env["t"] = np.float64(t)
    out = np.empty((points.shape[0], len(exprs)))
    for k, expr in enumerate(exprs):
        out[:, k] = np.broadcast_to(np.asarray(walk(expr, env), dtype=np.float64),
                                    (points.shape[0],))
    return out.reshape(points.shape[:1] + shape)


def _oracle_scalar(walk, grid, text):
    return _oracle(walk, [parse_scalar(text)], grid.nodes(), ()).reshape(grid.shape)


def _oracle_displacement(walk, grid, text):
    exprs = parse_vector(text)
    values = _oracle(walk, exprs, grid.nodes(), (len(exprs),))
    return values.T.reshape((len(exprs),) + grid.shape)


def _oracle_flow(walk, dim, text):
    exprs = parse_vector(text)
    diffs = [expr.diff(VARIABLES[j]) for expr in exprs for j in range(dim)]
    return (lambda t, points: _oracle(walk, exprs, points, (dim,), t),
            lambda t, points: _oracle(walk, diffs, points, (dim, dim), t))


def _same_bits(got, want):
    """Bitwise equality: ``np.array_equal`` would take -0.0 for +0.0."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# (grid, scalar descriptors, displacement descriptors, flow descriptors);
# each list holds a constant, and the flow lists hold fields with and without
# t. The later entries share subtrees, which a bound program computes once:
# equal components, 0 beside -0, repeated negative powers, a bump with a
# repeated argument, t-only factors and constant components.
PARITY_CASES = [
    (Grid(1, 8.0, 65),
     ["0.1*exp(-x^2)", "0.25", "1/(1+x^2)^2", "(1+x^2)^-2 - 0.5*x*(1+x^2)^-2",
      "0.3*bump(x/3, x/3)"],
     ["0.2*tanh((x-0.3)/1.1)", "-0.5", "0.1*bump(x/3)", "0.2*bump(x/3, x/3)*(1+x^2)^-2"],
     ["0.2*exp(-x^2)*(0.6+0.4*cos(t))", "0.3", "0.12*cos(0.7*x-0.6*t)", "0.1*sin(x)",
      "0.5*t", "0.2*exp(-x^2)*cos(0.5*t)*cos(0.5*t)", "0.1*(1+x^2)^-2*(1+0.5*sin(t))",
      "0.2*bump(x/3, x/3)*cos(t)"]),
    (Grid(2, 4.0, 17),
     ["exp(-x^2-y^2)", "2", "x*y*gauss(x, y/2)", "x*(1+x^2+y^2)^-2 + y*(1+x^2+y^2)^-2"],
     ["0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", "0.2*tanh(x/1.1), 0.15",
      "0, 0", "-1.1*y*exp(-(x^2+y^2)/2), 1.1*x*bump(x/3, y/3)", "0*x, -0*x",
      "0.1*exp(-x^2-y^2), 0.1*exp(-x^2-y^2)", "0.15*tanh(y), 0.15",
      "0.2*bump(x/3, y/3, x/3), 0.1*(1+x^2+y^2)^-2"],
     ["-0.3*y*exp(-(x^2+y^2))*(1+0.5*sin(t)), 0.3*x*exp(-(x^2+y^2))",
      "0.1*cos(t), 0", "-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))", "0*x, -0*x",
      "-0.3*y*exp(-(x^2+y^2))*(1+0.5*sin(t)), 0.3*x*exp(-(x^2+y^2))*(1+0.5*sin(t))",
      "0.2*(1+x^2+y^2)^-2, 0.2*(1+x^2+y^2)^-2", "0.1*bump(x/3, y/3, x/3)*cos(t), 0.2"]),
    (Grid(3, 4.0, 17),
     ["exp(-x^2-y^2-z^2)", "-1.5", "x*y*z"],
     ["-0.3*y*exp(-(x^2+y^2+z^2)), 0.3*x*exp(-(x^2+y^2+z^2)), 0",
      "0.1*tanh(z), 0.1*tanh(x), 0.1*tanh(y)", "0*z, -0*z, 0",
      "0.1*gauss(x, y, z), 0.1*gauss(x, y, z), 0.1*gauss(x, y, z)"],
     ["-0.3*y*gauss(x, y, z), 0.3*x*gauss(x, y, z)*cos(t), 0.05*t",
      "0, 0.2, 0", "0.1*bump(x/2, y/2, z/2), 0, -0.1*z*exp(-z^2)",
      "0.1*(1+x^2+y^2+z^2)^-2*cos(t), 0.1*(1+x^2+y^2+z^2)^-2*cos(t), 0.05"]),
]


@pytest.mark.parametrize("grid, scalars, displacements, flows", PARITY_CASES,
                         ids=["1d", "2d", "3d"])
class TestBindingParity:
    def test_scalar_fields(self, grid, scalars, displacements, flows, walk):
        for text in scalars:
            want = _oracle_scalar(walk, grid, text)
            assert _same_bits(ScalarField.from_descriptor(grid, text).values, want), text
            assert _same_bits(sample(text, grid).values, want), text

    def test_displacement_fields(self, grid, scalars, displacements, flows, walk):
        for text in displacements:
            want = _oracle_displacement(walk, grid, text)
            assert _same_bits(DisplacementField.from_descriptor(grid, text).values, want), text
            got = sample(text, grid)
            assert _same_bits(got.values, want[0] if grid.dim == 1 else want), text

    def test_time_dependent_fields(self, grid, scalars, displacements, flows, walk):
        dim = grid.dim
        points = np.random.default_rng(7).uniform(-5.0, 5.0, size=(40, dim))
        for text in flows:
            field = TimeDependentVectorField.from_descriptor(dim, text)
            values, jacobian = _oracle_flow(walk, dim, text)
            for t in (0.0, 0.37):
                assert _same_bits(field(t, points), values(t, points)), text
                assert _same_bits(field.jacobian(t, points), jacobian(t, points)), text


def test_each_distinct_subtree_is_evaluated_once(monkeypatch, walk):
    """The flow-2d swirl's Jacobian holds 11 ``exp`` nodes, of which 2 differ."""
    envelope = (f"{gaussian_descriptor(0.3, 1.0, 0.0, 'x')}*"
                f"{gaussian_descriptor(1.0, 1.0, 0.0, 'y')}")
    field = TimeDependentVectorField.from_descriptor(2, f"-(y)*{envelope}, (x)*{envelope}")
    points = np.asarray(Grid(2, 4.0, 17).nodes())
    want = field.jacobian(0.5, points)
    calls = []
    exp = np.exp

    def counting_exp(u):
        calls.append(u)
        return exp(u)

    monkeypatch.setattr(np, "exp", counting_exp)
    got = field.jacobian(0.5, points)
    assert len(calls) == 2
    assert _same_bits(got, want)
    calls.clear()
    _, tree = _oracle_flow(walk, 2, f"-(y)*{envelope}, (x)*{envelope}")
    assert _same_bits(tree(0.5, points), want)
    assert len(calls) == 11


def test_program_source_holds_no_descriptor_text():
    """Constants and exponents reach a bound program as values, never as source."""
    exprs = parse_vector("0.123456*exp(-x^2/7.5)*(1+y^2)^-3, bump(x/9.25, y)*tanh(4.5*t)")
    nodes, constants, roots = descriptors._lower(exprs)
    source = descriptors._source(nodes, len(constants), roots)
    words = {"def", "program", "c", "out", "t", "x", "y", "z", "None", "del", "np", "exp",
             "tanh", "_bump", "_bump_defect", "_negative_power"}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NAME:
            assert tok.string in words or re.fullmatch(r"[cs]\d+", tok.string), tok
        elif tok.type == tokenize.NUMBER:
            assert tok.string in ("0", "1"), tok  # the two output columns
    assert {-3, 2} <= set(constants) and 0.123456 in constants


def test_points_without_a_used_column_raise():
    """A bound variable with no column is an error, never a silent fill."""
    field = TimeDependentVectorField.from_descriptor(2, "x, y")
    with pytest.raises(DescriptorError, match="variable 'y' is not bound here"):
        field(0.0, np.zeros((5, 1)))


@pytest.mark.parametrize("build, match", [
    (lambda: ScalarField.from_descriptor(Grid(1, 8.0, 33), "x, x"),
     "descriptor has 2 components, expected 1"),
    (lambda: DisplacementField.from_descriptor(Grid(2, 8.0, 17), "x"),
     "descriptor has 1 components, expected 2"),
    (lambda: sample("x, y, x", Grid(2, 8.0, 17)),
     "descriptor has 3 components, expected 2"),
    (lambda: TimeDependentVectorField.from_descriptor(2, "x"),
     "descriptor has 1 components, expected 2"),
    (lambda: ScalarField.from_descriptor(Grid(1, 8.0, 33), "y"),
     re.escape("descriptor uses ['y'] but only ['x'] are available here")),
    (lambda: DisplacementField.from_descriptor(Grid(1, 8.0, 33), "t"),
     re.escape("descriptor uses ['t'] but only ['x'] are available here")),
    (lambda: sample("x, z", Grid(2, 8.0, 17)),
     re.escape("descriptor uses ['z'] but only ['x', 'y'] are available here")),
    (lambda: TimeDependentVectorField.from_descriptor(1, "exp(-x^2-y^2)"),
     re.escape("descriptor uses ['y'] but only ['t', 'x'] are available here")),
], ids=[f"{kind}-{build}" for kind in ("count", "variable")
        for build in ("scalar", "displacement", "sample", "flow")])
def test_binding_errors_share_one_message(build, match):
    with pytest.raises(DescriptorError, match=match):
        build()

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffeoflow import (DescriptorError, DisplacementField, Grid, ScalarField,
                        TimeDependentVectorField, parse_scalar, parse_vector, sample)
from diffeoflow.descriptors import VARIABLES, evaluate_on


def ev(text, **env):
    return float(parse_scalar(text).evaluate({k: np.float64(v) for k, v in env.items()}))


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
    assert float(d.evaluate({"x": np.float64(1.0)})) == 0.0
    assert abs(float(d.evaluate({"x": np.float64(0.999)}))) < 1e-5


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
        plus = float(expr.evaluate({"x": np.float64(x0 + h)}))
        minus = float(expr.evaluate({"x": np.float64(x0 - h)}))
        fd = (plus - minus) / (2.0 * h)
        exact = float(d.evaluate({"x": np.float64(x0)}))
        assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


def test_diff_of_unused_variable_is_zero():
    d = parse_scalar("exp(-x^2)").diff("t")
    assert float(d.evaluate({"x": np.float64(0.3)})) == 0.0


def test_free_vars():
    assert parse_scalar("exp(-x^2)*cos(t)").free_vars() == {"x", "t"}
    assert parse_scalar("1.5").free_vars() == set()


def test_parse_vector_components():
    comps = parse_vector("-0.3*y, 0.3*x")
    assert len(comps) == 2
    assert float(comps[0].evaluate({"x": np.float64(0), "y": np.float64(2)})) == -0.6
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


def test_unbound_variable_at_evaluation():
    with pytest.raises(DescriptorError):
        parse_scalar("x + t").evaluate({"x": np.float64(0.0)})


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_product_rule_property(x0, a):
    # d/dx [a x sin(x)] = a sin(x) + a x cos(x)
    expr = parse_scalar(f"({a}) * x * sin(x)")
    got = float(expr.diff("x").evaluate({"x": np.float64(x0)}))
    want = a * math.sin(x0) + a * x0 * math.cos(x0)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


# -- one binding of descriptor text to points -------------------------------
#
# The oracles below are the per-constructor bindings that descriptors.bind
# replaced, kept verbatim in substance; every constructor must still give the
# same bits.

def _oracle_env(points):
    return {VARIABLES[j]: points[:, j] for j in range(points.shape[1])}


def _oracle_scalar(grid, text):
    return evaluate_on(parse_scalar(text), _oracle_env(grid.nodes())).reshape(grid.shape)


def _oracle_displacement(grid, text):
    env = _oracle_env(grid.nodes())
    return np.stack([evaluate_on(expr, env).reshape(grid.shape)
                     for expr in parse_vector(text)])


def _oracle_flow(dim, text):
    exprs = parse_vector(text)
    diffs = [expr.diff(VARIABLES[j]) for expr in exprs for j in range(dim)]

    def evaluator(table, shape):
        def evaluate(t, points):
            env = dict(_oracle_env(points), t=np.float64(t))
            out = np.empty((points.shape[0], len(table)))
            for k, expr in enumerate(table):
                value = np.asarray(expr.evaluate(env), dtype=np.float64)
                out[:, k] = np.broadcast_to(value, (points.shape[0],))
            return out.reshape(points.shape[:1] + shape)
        return evaluate

    return evaluator(exprs, (dim,)), evaluator(diffs, (dim, dim))


# (grid, scalar descriptors, displacement descriptors, flow descriptors);
# each list holds a constant, and the flow lists hold fields with and without t
PARITY_CASES = [
    (Grid(1, 8.0, 65),
     ["0.1*exp(-x^2)", "0.25", "1/(1+x^2)^2"],
     ["0.2*tanh((x-0.3)/1.1)", "-0.5", "0.1*bump(x/3)"],
     ["0.2*exp(-x^2)*(0.6+0.4*cos(t))", "0.3", "0.12*cos(0.7*x-0.6*t)", "0.1*sin(x)",
      "0.5*t"]),
    (Grid(2, 4.0, 17),
     ["exp(-x^2-y^2)", "2", "x*y*gauss(x, y/2)"],
     ["0.1*exp(-x^2-y^2), 0.05*exp(-(x-1)^2-y^2)", "0.2*tanh(x/1.1), 0.15",
      "0, 0", "-1.1*y*exp(-(x^2+y^2)/2), 1.1*x*bump(x/3, y/3)"],
     ["-0.3*y*exp(-(x^2+y^2))*(1+0.5*sin(t)), 0.3*x*exp(-(x^2+y^2))",
      "0.1*cos(t), 0", "-0.3*y*exp(-(x^2+y^2)), 0.3*x*exp(-(x^2+y^2))"]),
    (Grid(3, 4.0, 17),
     ["exp(-x^2-y^2-z^2)", "-1.5", "x*y*z"],
     ["-0.3*y*exp(-(x^2+y^2+z^2)), 0.3*x*exp(-(x^2+y^2+z^2)), 0",
      "0.1*tanh(z), 0.1*tanh(x), 0.1*tanh(y)"],
     ["-0.3*y*gauss(x, y, z), 0.3*x*gauss(x, y, z)*cos(t), 0.05*t",
      "0, 0.2, 0", "0.1*bump(x/2, y/2, z/2), 0, -0.1*z*exp(-z^2)"]),
]


@pytest.mark.parametrize("grid, scalars, displacements, flows", PARITY_CASES,
                         ids=["1d", "2d", "3d"])
class TestBindingParity:
    def test_scalar_fields(self, grid, scalars, displacements, flows):
        for text in scalars:
            want = _oracle_scalar(grid, text)
            assert np.array_equal(ScalarField.from_descriptor(grid, text).values, want)
            assert np.array_equal(sample(text, grid).values, want)

    def test_displacement_fields(self, grid, scalars, displacements, flows):
        for text in displacements:
            want = _oracle_displacement(grid, text)
            assert np.array_equal(DisplacementField.from_descriptor(grid, text).values, want)
            got = sample(text, grid)
            assert np.array_equal(got.values, want[0] if grid.dim == 1 else want)

    def test_time_dependent_fields(self, grid, scalars, displacements, flows):
        dim = grid.dim
        points = np.random.default_rng(7).uniform(-5.0, 5.0, size=(40, dim))
        for text in flows:
            field = TimeDependentVectorField.from_descriptor(dim, text)
            values, jacobian = _oracle_flow(dim, text)
            for t in (0.0, 0.37):
                assert np.array_equal(field(t, points), values(t, points))
                assert np.array_equal(field.jacobian(t, points), jacobian(t, points))


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

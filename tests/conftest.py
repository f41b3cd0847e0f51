import operator

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from diffeoflow import Grid
from diffeoflow import descriptors as D

# one suite-wide profile: deterministic, no per-example deadline (numpy
# warm-up would trip it), example counts sized for the 60 s suite budget
settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def line_grid():
    """1-D reference grid: dyadic spacing 1/16, classification-capable box."""
    return Grid(1, 8.0, 257)


@pytest.fixture(scope="session")
def fine_grid():
    return Grid(1, 8.0, 513)


@pytest.fixture(scope="session")
def coarse_grid():
    """Small 1-D grid for per-example hypothesis work."""
    return Grid(1, 8.0, 65)


@pytest.fixture(scope="session")
def plane_grid():
    return Grid(2, 8.0, 65)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_BINARY = {D.Add: operator.add, D.Sub: operator.sub, D.Mul: operator.mul, D.Div: operator.truediv}


def _walk(e, env):
    """``e`` at the values ``env`` binds to its variables, one node at a time."""
    kind = type(e)
    if kind is D.Const:
        return np.float64(e.value)
    if kind is D.Var:
        return env[e.name]
    if kind is D.Pow:
        base = _walk(e.base, env)
        if e.exponent < 0:
            base = np.asarray(base, dtype=np.float64)
        return base ** e.exponent
    if kind is D.Neg:
        return -_walk(e.operand, env)
    if kind is D.Call:
        return getattr(np, e.func)(_walk(e.arg, env))
    if kind is D.BumpPow:
        defect = np.asarray(1.0 - sum(np.asarray(_walk(a, env), dtype=np.float64) ** 2
                                      for a in e.args))
        out, inside = np.zeros_like(defect), defect > 0.0
        out[inside] = np.exp(-1.0 / defect[inside] - e.p * np.log(defect[inside]))
        return out
    return _BINARY[kind](_walk(e.left, env), _walk(e.right, env))


@pytest.fixture(scope="session")
def walk():
    """Reference evaluator of a descriptor tree, independent of ``descriptors.bind``.

    It applies each node's numpy operation to its operands' values, one
    recursive call per tree node, shared subtrees included; a bound program
    that computes any node differently fails bit-for-bit parity with it.
    """
    return _walk

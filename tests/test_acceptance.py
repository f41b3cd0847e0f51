"""Acceptance gate: every shipped claim, one pass/fail line each.

The whole battery runs once per session; each criterion then reports as its
own test so a regression points at the exact claim it broke.
"""

import math
import tracemalloc
from itertools import combinations_with_replacement, permutations

import numpy as np
import pytest

from diffeoflow import acceptance, cli
from diffeoflow.battery import DEFAULT_SEED
from diffeoflow.descriptors import parse_vector
from diffeoflow.jets import Jet

CRITERIA = {
    1: "group axioms on the Schwartz battery",
    2: "jet extraction and composition accuracy",
    3: "jet inversion against series reversion",
    4: "inverse operator norm inequality",
    5: "RK4 order and flow composition property",
    6: "displacement and Gronwall bounds on the shipped battery",
    7: "decay class preserved along the flow",
    8: "normality: conjugation preserves the decay class",
    9: "right logarithmic derivative recovers X",
}


@pytest.fixture(scope="session")
def results():
    return {item.index: item for item in acceptance.run_core(DEFAULT_SEED)}


def test_every_criterion_ran_exactly_once(results):
    assert sorted(results) == list(range(1, 10))


@pytest.mark.parametrize("index", sorted(CRITERIA))
def test_criterion(results, index, capsys):
    item = results[index]
    state = "PASS" if item.passed else "FAIL"
    with capsys.disabled():
        print(f"[{state}] criterion {item.index}: {item.name} -- {item.detail}")
    assert item.passed, f"criterion {index} ({item.name}): {item.detail}"


def _one_at_a_time(rng, n):
    """Criterion 4's draws as a rejection loop of single matrices."""
    drawn = []
    while len(drawn) < 1000:
        matrix = rng.uniform(-2.0, 2.0, size=(n, n))
        if abs(np.linalg.det(matrix)) >= 0.1:
            drawn.append(matrix)
    return np.array(drawn)


@pytest.mark.parametrize("seed", [2, 3, 7, 101, 1789, 1621709875])
def test_block_draws_match_one_at_a_time(seed):
    blocks, single = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in (2, 3):
        got = acceptance._draw_invertible(blocks, n)
        want = _one_at_a_time(single, n)
        assert got.shape == (1000, n, n)
        assert got.tobytes() == want.tobytes()
    assert np.float64(blocks.random()).tobytes() == np.float64(single.random()).tobytes()


def test_verify_reports_are_byte_deterministic(tmp_path):
    """Two ``verify`` runs with one seed exit 0 and write the same report bytes."""
    reports = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = cli.main(["--command", "verify", "--seed", str(DEFAULT_SEED),
                         "--out", str(out_dir), "--quiet"])
        assert code == 0
        reports.append((out_dir / "verify_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_faa_di_bruno_reads_a_window_not_the_whole_grid():
    """Criterion 2's stencil reads stay small (a whole-grid 513^2 stack traced 68 MB)."""
    tracemalloc.start()
    try:
        result = acceptance.criterion_faa_di_bruno()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 8 * 2**20


def _from_scratch_jet(walk, descriptor, point, order):
    """``_descriptor_jet`` with each derivative differentiated from the root and read
    by the reference tree walker at scalar coordinates."""
    exprs = parse_vector(descriptor)
    dim = len(exprs)
    names = ("x", "y", "z")[:dim]
    env = dict(zip(names, np.asarray(point, dtype=np.float64).reshape(dim)))
    terms = [np.asarray(point, dtype=np.float64)
             + np.array([float(walk(e, env)) for e in exprs])]
    for p in range(1, order + 1):
        dense = np.zeros((dim,) + (dim,) * p)
        for combo in combinations_with_replacement(range(dim), p):
            for i in range(dim):
                node = exprs[i]
                for axis in combo:
                    node = node.diff(names[axis])
                value = float(walk(node, env)) / math.factorial(p)
                if p == 1 and i == combo[0]:
                    value += 1.0
                for slot in set(permutations(combo)):
                    dense[(i,) + slot] = value
        terms.append(dense)
    return Jet(point, terms)


@pytest.mark.parametrize("outer,inner,point,order", [
    ("0.2*exp(-((x-0.3)/1.1)^2)", "0.15*exp(-((x+0.4)/1.2)^2)", [0.25], 4),
    ("0.12*exp(-((x-0.2)^2+y^2)/1.4), -0.1*exp(-(x^2+(y+0.3)^2)/1.6)",
     "0.1*exp(-((x+0.3)^2+(y-0.2)^2)/1.5), 0.08*exp(-(x^2+y^2)/1.3)", [0.2, -0.4], 4),
    (None, "0.2*exp(-x^2)", [0.3], 3),
], ids=["criterion-2-1d", "criterion-2-2d", "oracle-case"])
def test_descriptor_jet_chain_matches_from_scratch(outer, inner, point, order, walk):
    """Chained symbolic derivatives give the from-scratch floats, bit for bit."""
    inner_jet = acceptance._descriptor_jet(inner, point, order)
    cases = [(inner, point, inner_jet)]
    if outer is not None:
        cases.append((outer, inner_jet.value,
                      acceptance._descriptor_jet(outer, inner_jet.value, order)))
    for descriptor, at, jet in cases:
        want = _from_scratch_jet(walk, descriptor, at, order)
        assert len(jet.terms) == len(want.terms) == order + 1
        for got, term in zip(jet.terms, want.terms):
            assert got.tobytes() == term.tobytes()

"""Acceptance gate: every shipped claim, one pass/fail line each.

The whole battery runs once per session; each criterion then reports as its
own test so a regression points at the exact claim it broke.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from diffeoflow import acceptance, cli
from diffeoflow.battery import DEFAULT_SEED

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
    10: "verification reports are byte-deterministic",
}


@pytest.fixture(scope="session")
def results():
    return {item.index: item for item in acceptance.run_all(DEFAULT_SEED)}


def test_every_criterion_ran_exactly_once(results):
    assert sorted(results) == list(range(1, 11))


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


def test_determinism_removes_its_report_dirs(tmp_path, monkeypatch):
    made = []

    def fake_verify(argv):
        out_dir = Path(argv[argv.index("--out") + 1])
        made.append(out_dir)
        (out_dir / "verify_report.json").write_bytes(b'{"seed": 1}\n')
        return 0

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.setattr(cli, "main", fake_verify)
    result = acceptance.criterion_determinism(DEFAULT_SEED)
    assert result.passed
    assert len(made) == 2 and all(path.parent == tmp_path for path in made)
    assert list(tmp_path.iterdir()) == []

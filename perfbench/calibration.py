"""A fixed reference computation that tracks the host's speed during a run.

On a shared machine the same command runs up to 1.5x slower for tens of
seconds at a time while neighbours load the host, and the host's speed
drifts by a third over an hour. The benchmark therefore runs this kernel
after every command, once per ``PERIOD_S`` of command time, and divides each
command's time by the kernel's mean time just before and after it (the
``*_cal`` figures).

The kernel never calls diffeoflow, so no change to the program can move it.
It repeats the program's dominant work at the workload's array sizes: the
cubic-stencil gather (4^dim weighted reads per point), a batch of small SVDs
and a pure-Python loop. Small arrays on the 1-D workload make it, like
``verify``, bound by per-call overhead; 2-D grids make it bound by memory
traffic, like the group and flow commands.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

PERIOD_S = 0.25

# workload -> (dim, points per axis, repetitions), sized to about 40 ms
SHAPES = {
    "verify-1d": (1, 513, 60),
    "flow-2d": (2, 129, 4),
    "group-2d": (2, 257, 1),
}


class Kernel:
    def __init__(self, workload: str):
        self.dim, n, self.reps = SHAPES[workload]
        rng = np.random.default_rng(0)
        count = n ** self.dim
        self.n = n
        self.values = rng.random(count)
        self.points = rng.uniform(0.0, n - 4.0, size=(count, self.dim))
        self.mats = rng.random((max(count // 8, 64), 2, 2))

    def _work(self) -> float:
        total = 0.0
        strides = [self.n ** (self.dim - 1 - j) for j in range(self.dim)]
        for _ in range(self.reps):
            base = np.floor(self.points).astype(np.int64)
            frac = self.points - base
            acc = np.zeros(self.values.shape[0])
            for offsets in itertools.product(range(4), repeat=self.dim):
                idx = np.zeros(acc.shape[0], dtype=np.int64)
                weight = np.ones(acc.shape[0])
                for j, k in enumerate(offsets):
                    idx += (base[:, j] + k) * strides[j]
                    weight = weight * (frac[:, j] - k)
                acc += weight * self.values[idx]
            sv = np.linalg.svd(self.mats, compute_uv=False)
            counts = {}
            for i in range(2000):
                counts[i % 97] = counts.get(i % 97, 0) + i
            total += float(acc[0] + sv[0, 0] + counts[0])
        return total

    def time_once(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start

    def after_command(self, command_seconds: float) -> list:
        """Kernel times, one per ``PERIOD_S`` of the command just run."""
        reps = max(1, round(command_seconds / PERIOD_S))
        return [self.time_once() for _ in range(reps)]

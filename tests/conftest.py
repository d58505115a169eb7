import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dprank.graph import from_edges


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def worker_pids(monkeypatch):
    """The pid of every process ``os.fork`` makes from here on, in order, as
    the forking process sees it."""
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


@pytest.fixture
def two_cycle():
    return from_edges(2, [(0, 1), (1, 0)])


@pytest.fixture
def three_cycle():
    return from_edges(3, [(0, 1), (1, 2), (2, 0)])


@pytest.fixture
def k4():
    edges = [(i, j) for i in range(4) for j in range(4) if i != j]
    return from_edges(4, edges)


def random_graph(rng, max_nodes=30, max_edges=None, allow_empty=False):
    """Random simple directed graph for property tests."""
    n = int(rng.integers(2, max_nodes + 1))
    cap = max_edges if max_edges is not None else n * (n - 1)
    low = 0 if allow_empty else 1
    m = int(rng.integers(low, min(cap, 3 * n) + 1))
    pairs = set()
    guard = 0
    while len(pairs) < m and guard < 50 * m + 100:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            pairs.add((u, v))
        guard += 1
    return from_edges(n, sorted(pairs))


@pytest.fixture
def make_random_graph():
    return random_graph

"""Deterministic benchmark graphs for offline experiments.

Real citation networks are not bundled with the package. The generator below
produces a fixed, seeded graph at citation-network scale (heavy-tailed
degrees, substantial triangle count, one dominant component) so experiments
and the acceptance suite run without downloads. Swap in a real edge list via
the CLI whenever one is available.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, from_edges

TRIAD_PROB = 0.6    # chance that a new node's second edge closes a triangle


def citation_benchmark_graph(num_nodes: int = 2708, num_edges: int = 5429,
                             seed: int = 7) -> Graph:
    """Preferential-attachment graph with triad closure, stored undirected.

    Growth starts from a small clique; each new node attaches with two edges,
    the first preferential by degree, the second closing a triangle with
    probability ``TRIAD_PROB`` (otherwise preferential again). Leftover budget
    up to ``num_edges`` is filled with preferential edges between existing
    nodes. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n0 = 6
    if num_nodes <= n0:
        raise ValueError(f"need more than {n0} nodes")
    edges = set()
    targets_pool = []  # node repeated once per incident edge: degree-biased urn

    def add_edge(u, v):
        if u == v:
            return False
        e = (min(u, v), max(u, v))
        if e in edges:
            return False
        edges.add(e)
        targets_pool.extend((u, v))
        return True

    for u in range(n0):
        for v in range(u + 1, n0):
            add_edge(u, v)

    base = len(edges) + (num_nodes - n0) * 2
    if num_edges < base:
        raise ValueError(f"num_edges must be at least {base} for this growth rule")

    neighbors = {u: set(range(n0)) - {u} for u in range(n0)}
    for node in range(n0, num_nodes):
        first = int(targets_pool[rng.integers(len(targets_pool))])
        add_edge(node, first)
        neighbors.setdefault(node, set()).add(first)
        neighbors.setdefault(first, set()).add(node)

        second = None
        if rng.random() < TRIAD_PROB:
            candidates = [w for w in neighbors[first] if w != node
                          and (min(node, w), max(node, w)) not in edges]
            if candidates:
                second = int(candidates[int(rng.integers(len(candidates)))])
        while second is None:
            cand = int(targets_pool[rng.integers(len(targets_pool))])
            if cand != node and (min(node, cand), max(node, cand)) not in edges:
                second = cand
        add_edge(node, second)
        neighbors[node].add(second)
        neighbors.setdefault(second, set()).add(node)

    while len(edges) < num_edges:
        u = int(targets_pool[rng.integers(len(targets_pool))])
        v = int(targets_pool[rng.integers(len(targets_pool))])
        add_edge(u, v)

    arr = np.asarray(sorted(edges), dtype=np.int64)
    return from_edges(num_nodes, arr, symmetrize=True)


def benchmark_labels(num_nodes: int, num_classes: int = 7,
                     seed: int = 7) -> np.ndarray:
    """Deterministic class ids for downstream-task plumbing tests."""
    rng = np.random.default_rng(seed)
    return rng.integers(num_classes, size=num_nodes)

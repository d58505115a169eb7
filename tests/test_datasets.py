import numpy as np
import pytest

from dprank.datasets import benchmark_labels, citation_benchmark_graph
from dprank.metrics import compute_stats, undirected_degrees, undirected_edges


def test_benchmark_graph_is_deterministic():
    a = citation_benchmark_graph(num_nodes=200, num_edges=430, seed=3)
    b = citation_benchmark_graph(num_nodes=200, num_edges=430, seed=3)
    assert a == b
    c = citation_benchmark_graph(num_nodes=200, num_edges=430, seed=4)
    assert a != c


def test_benchmark_graph_hits_requested_size():
    g = citation_benchmark_graph(num_nodes=300, num_edges=640, seed=1)
    assert g.num_nodes == 300
    assert len(undirected_edges(g)) == 640
    assert g.num_edges == 2 * 640  # stored symmetric


def test_benchmark_graph_citation_texture():
    g = citation_benchmark_graph(num_nodes=500, num_edges=1030, seed=2)
    stats = compute_stats(g)
    assert stats.triangle_count > 100          # triad closure at work
    assert stats.lcc_size == 500               # grown connected
    assert undirected_degrees(g).max() > 20    # heavy tail


def test_benchmark_graph_rejects_tiny_budgets():
    with pytest.raises(ValueError):
        citation_benchmark_graph(num_nodes=100, num_edges=50)
    with pytest.raises(ValueError):
        citation_benchmark_graph(num_nodes=5, num_edges=50)


def test_benchmark_labels_deterministic():
    a = benchmark_labels(50, num_classes=4, seed=9)
    b = benchmark_labels(50, num_classes=4, seed=9)
    assert np.array_equal(a, b)
    assert set(np.unique(a)) <= set(range(4))

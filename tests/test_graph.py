import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dprank.graph import (EdgeListParseError, from_edges, generate_walk_batch,
                          load_edge_list, unique_pairs, write_edge_list)
from dprank.metrics import undirected_edges

import oracles


# ---------------------------------------------------------------- loading

def test_load_simple_pair():
    g = load_edge_list(io.StringIO("0 1\n1 0"))
    assert g.num_nodes == 2
    assert g.edges.tolist() == [[0, 1], [1, 0]]


def test_load_drops_self_loops():
    g = load_edge_list(io.StringIO("0 0\n0 1"))
    assert g.num_nodes == 2
    assert g.edges.tolist() == [[0, 1]]


def test_load_drops_duplicates():
    g = load_edge_list(io.StringIO("0 1\n0 1\n0 1"))
    assert g.edges.tolist() == [[0, 1]]


def test_load_csv_and_comments():
    g = load_edge_list(io.StringIO("# header\n0,1\n\n1,2\n"), format="csv")
    assert g.num_nodes == 3
    assert g.num_edges == 2


def test_load_symmetrize():
    g = load_edge_list(io.StringIO("0 1\n1 2"), symmetrize=True)
    assert g.edges.tolist() == [[0, 1], [1, 0], [1, 2], [2, 1]]


def test_load_remaps_sparse_ids():
    g = load_edge_list(io.StringIO("10 400\n400 7"))
    assert g.num_nodes == 3
    assert g.original_ids.tolist() == [7, 10, 400]
    # 10 -> 1, 400 -> 2, 7 -> 0
    assert g.edges.tolist() == [[1, 2], [2, 0]]


def test_load_malformed_line_reports_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO("0 1\n1 2 3\n"))
    assert err.value.line_number == 2
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO("0 1\nx y\n"))
    assert err.value.line_number == 2


def test_load_id_out_of_declared_range():
    with pytest.raises(IndexError):
        load_edge_list(io.StringIO("0 5"), num_nodes=3)


def test_roundtrip_idempotent(tmp_path, rng):
    from conftest import random_graph
    for _ in range(20):
        g = random_graph(rng, max_nodes=40)
        path = tmp_path / "g.tsv"
        write_edge_list(g, path)
        g2 = load_edge_list(path, num_nodes=g.num_nodes)
        assert g2 == g
        assert np.array_equal(g2.out_degree, g.out_degree)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 199), st.integers(0, 199)), max_size=400))
def test_degree_bookkeeping_matches_recount(pairs):
    g = from_edges(200, pairs)
    out_ref = np.zeros(200, dtype=int)
    in_ref = np.zeros(200, dtype=int)
    for u, v in {tuple(p) for p in pairs if p[0] != p[1]}:
        out_ref[u] += 1
        in_ref[v] += 1
    assert np.array_equal(g.out_degree, out_ref)
    assert np.array_equal(g.in_degree, in_ref)
    assert g.out_degree.sum() == g.in_degree.sum() == g.num_edges


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=300),
    st.booleans())))
def test_key_dedup_matches_row_unique(case):
    # the 1-D unique on u*n + v keys against np.unique(axis=0), the form it
    # replaced in from_edges and undirected_edges
    n, pairs, symmetrize = case
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    got = unique_pairs(arr[:, 0], arr[:, 1], n)
    assert got.dtype == np.int64 and got.shape == (len(got), 2)
    assert np.array_equal(got, np.unique(arr, axis=0).reshape(-1, 2))

    g = from_edges(n, pairs, symmetrize=symmetrize)
    kept = arr[arr[:, 0] != arr[:, 1]]
    if symmetrize:
        kept = np.vstack([kept, kept[:, ::-1]])
    assert np.array_equal(g.edges, np.unique(kept, axis=0).reshape(-1, 2))
    lo, hi = g.edges.min(axis=1), g.edges.max(axis=1)
    old = np.unique(np.stack([lo, hi], axis=1), axis=0).reshape(-1, 2)
    assert np.array_equal(undirected_edges(g), old)


def test_has_edge(three_cycle):
    assert three_cycle.has_edge(0, 1)
    assert not three_cycle.has_edge(1, 0)


# ------------------------------------------------------------------ walks

def test_walk_two_cycle_single_path(two_cycle, rng):
    batch = generate_walk_batch(two_cycle, [0], r_wn=1, r_wl=3, rng=rng)
    assert batch.pairs.tolist() == [[0, 1], [1, 0]]
    assert batch.batch_size == 2


def test_walk_terminates_at_dangling(rng):
    g = from_edges(2, [(0, 1)])  # node 1 has no out-edges
    batch = generate_walk_batch(g, [1], r_wn=1, r_wl=16, rng=rng)
    assert len(batch.pairs) == 0
    assert batch.batch_size == 15
    # from node 0 the walk takes one step and then stops at 1
    batch = generate_walk_batch(g, [0], r_wn=1, r_wl=16, rng=rng)
    assert batch.pairs.tolist() == [[0, 1]]


def test_walk_budget_formula(rng):
    from dprank.datasets import citation_benchmark_graph
    g = citation_benchmark_graph(num_nodes=300, num_edges=640, seed=3)
    batch = generate_walk_batch(g, list(range(16)), r_wn=2, r_wl=16, rng=rng)
    budget = oracles.walk_pair_budget(16, 2, 16)
    assert budget == 480
    assert batch.batch_size == budget
    assert len(batch.pairs) <= budget
    # the benchmark graph is undirected so no walk terminates early
    assert len(batch.pairs) == budget


def test_walk_pairs_are_edges(rng):
    from conftest import random_graph
    for _ in range(20):
        g = random_graph(rng, max_nodes=25)
        starts = rng.integers(g.num_nodes, size=4)
        batch = generate_walk_batch(g, starts, r_wn=2, r_wl=8, rng=rng)
        for u, v in batch.pairs:
            assert g.has_edge(int(u), int(v))


def test_walk_steps_from_hub_are_uniform(rng):
    # hub 0 points at nodes 1..5; one step from each of 10,000 walkers
    g = from_edges(6, [(0, k) for k in range(1, 6)])
    trials = 10_000
    batch = generate_walk_batch(g, [0], r_wn=trials, r_wl=2, rng=rng)
    assert np.all(batch.pairs[:, 0] == 0)
    observed = np.bincount(batch.pairs[:, 1], minlength=6)[1:]
    expected = trials / 5
    chi2 = np.sum((observed - expected) ** 2 / expected)
    # chi-square with 4 dof, 1% critical value
    assert chi2 < 13.28


def test_walk_mixed_batch_drops_only_the_stopped_walker(rng):
    # 0 -> 1 ends at the dangling node 1; walks from 2 branch over 3 and 4
    # and always come back, so they run the full length
    g = from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 2), (4, 2)])
    r_wn, r_wl = 3, 6
    batch = generate_walk_batch(g, [0, 1, 2], r_wn=r_wn, r_wl=r_wl, rng=rng)
    per_walk = {0: 1, 1: 0, 2: r_wl - 1}
    assert len(batch.pairs) == r_wn * sum(per_walk.values())
    assert batch.batch_size == len(per_walk) * r_wn * (r_wl - 1)
    for u, v in batch.pairs:
        assert g.has_edge(int(u), int(v))
    assert batch.pairs[:, 0].tolist().count(0) == r_wn


def test_walk_deterministic_for_fixed_seed(three_cycle):
    b1 = generate_walk_batch(three_cycle, [0, 1], 3, 10,
                             np.random.default_rng(99))
    b2 = generate_walk_batch(three_cycle, [0, 1], 3, 10,
                             np.random.default_rng(99))
    assert np.array_equal(b1.pairs, b2.pairs)


def test_walk_rejects_bad_arguments(two_cycle, rng):
    with pytest.raises(ValueError):
        generate_walk_batch(two_cycle, [], 1, 3, rng)
    with pytest.raises(ValueError):
        generate_walk_batch(two_cycle, [0], 0, 3, rng)
    with pytest.raises(ValueError):
        generate_walk_batch(two_cycle, [0], 1, 1, rng)
    with pytest.raises(IndexError):
        generate_walk_batch(two_cycle, [5], 1, 3, rng)

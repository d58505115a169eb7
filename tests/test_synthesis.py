import inspect
import tracemalloc

import numpy as np
import pytest

from dprank.graph import from_edges
from dprank.metrics import undirected_degrees, undirected_edges
from dprank.synthesis import (_coverage_edges, default_target_edges,
                              sample_edges_without_replacement, sample_graph,
                              symmetrize_scores)
from dprank.training import ScoreMatrix
from oracles import (default_target_edges_dense, sample_graph_dense,
                     score_csr, symmetrize_scores_dense)


def as_dense(s_sym):
    """The symmetric matrix a SymmetricScores holds, as a dense array."""
    out = np.zeros((s_sym.num_nodes, s_sym.num_nodes))
    out[s_sym.rows, s_sym.cols] = s_sym.weights
    return out + out.T


def random_scores(rng, n, density=0.5):
    s = rng.random((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(s, 0.0)
    return s


# ------------------------------------------------------------- symmetrize

def test_symmetrize_zeroes_diagonal():
    s = np.array([[5.0, 1.0], [2.0, 7.0]])
    out = symmetrize_scores(s)
    assert np.array_equal(as_dense(out), [[0.0, 2.0], [2.0, 0.0]])


# ------------------------------------------------------------ edge budget

def test_target_edges_half_above_mean():
    # positive support split into a low and a high half: exactly the high
    # half passes the z > 0 threshold
    n = 21
    s = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    half = len(iu[0]) // 2
    values = np.concatenate([np.ones(half), 3 * np.ones(len(iu[0]) - half)])
    s[iu] = values
    s = np.maximum(s, s.T)
    assert default_target_edges(s) == len(iu[0]) - half


def test_target_edges_constant_scores_fallback():
    n = 8
    s = np.ones((n, n))
    np.fill_diagonal(s, 0.0)
    assert default_target_edges(s) == n * (n - 1) // 2


def test_target_edges_clamped_to_feasible_range(rng):
    # a single dominant pair still yields a target that can cover all nodes
    n = 11
    s = np.zeros((n, n))
    s[0, 1] = s[1, 0] = 100.0
    s[2, 3] = s[3, 2] = 1.0
    target = default_target_edges(s)
    assert target >= (n + 1) // 2
    assert target <= n * (n - 1) // 2


def test_target_edges_all_zero_rejected():
    with pytest.raises(ValueError):
        default_target_edges(np.zeros((4, 4)))


# ------------------------------------------------------------- sampling

def test_sample_graph_forced_single_edge(rng):
    g = sample_graph(np.array([[0.0, 5.0], [5.0, 0.0]]), target_edges=1, rng=rng)
    assert g.num_nodes == 2
    assert undirected_edges(g).tolist() == [[0, 1]]


def test_sample_graph_star_support(rng):
    s = np.zeros((4, 4))
    s[0, 1:] = [3.0, 2.0, 1.0]
    s[1:, 0] = [3.0, 2.0, 1.0]
    g = sample_graph(s, target_edges=3, rng=rng)
    assert undirected_edges(g).tolist() == [[0, 1], [0, 2], [0, 3]]


def test_sample_graph_invariants(rng):
    for _ in range(15):
        n = int(rng.integers(4, 40))
        s = random_scores(rng, n, density=0.7)
        if not s.any():
            continue
        target = int(rng.integers(n, min(3 * n, n * (n - 1) // 2) + 1))
        g = sample_graph(s, target_edges=target, rng=rng)
        und = undirected_edges(g)
        assert len(und) == target                      # exact edge count
        assert g.num_edges == 2 * target               # stored symmetric
        assert (undirected_degrees(g) > 0).all()       # no isolated nodes
        assert (und[:, 0] != und[:, 1]).all()          # simple


def test_sample_graph_deterministic():
    s = np.arange(36, dtype=float).reshape(6, 6)
    np.fill_diagonal(s, 0.0)
    a = sample_graph(s, target_edges=8, rng=np.random.default_rng(3))
    b = sample_graph(s, target_edges=8, rng=np.random.default_rng(3))
    assert a == b


def test_sample_graph_rejects_bad_targets(rng):
    s = np.ones((5, 5))
    np.fill_diagonal(s, 0.0)
    with pytest.raises(ValueError):
        sample_graph(s, target_edges=2, rng=rng)   # below ceil(N/2)
    with pytest.raises(ValueError):
        sample_graph(s, target_edges=11, rng=rng)  # above N(N-1)/2
    with pytest.raises(ValueError, match="all zero"):
        sample_graph(np.zeros((4, 4)), target_edges=3, rng=rng)
    with pytest.raises(ValueError, match="all zero"):
        sample_graph(np.zeros((3, 3)), rng=rng)      # default target
    with pytest.raises(ValueError, match="nonnegative"):
        sample_graph(-np.ones((3, 3)), rng=rng)


def test_sample_graph_zero_row_fallback(rng, caplog):
    # node 3 never appears in the scores; phase 1 must still cover it
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 4.0
    s[0, 2] = s[2, 0] = 4.0
    with caplog.at_level("WARNING"):
        g = sample_graph(s, target_edges=3, rng=rng)
    assert (undirected_degrees(g) > 0).all()
    assert any("all-zero" in rec.message for rec in caplog.records)


def test_sample_graph_exhausted_support(rng):
    s = np.zeros((4, 4))
    s[0, 1] = s[1, 0] = 1.0
    s[2, 3] = s[3, 2] = 1.0
    # only two pairs have support but three edges are requested
    with pytest.raises(RuntimeError):
        sample_graph(s, target_edges=3, rng=rng)


def test_phase2_single_draw_frequency():
    # weights 2 on {0,1} and 1 on {0,2}: first draw picks {0,1} w.p. 2/3
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 0] = 2.0
    s[0, 2] = s[2, 0] = 1.0
    rng = np.random.default_rng(123)
    trials = 10_000
    hits = 0
    for _ in range(trials):
        (edge,) = sample_edges_without_replacement(s, 1, rng)
        hits += edge == (0, 1)
    assert hits / trials == pytest.approx(2.0 / 3.0, abs=0.02)


def test_phase2_skips_used_entries(rng):
    s = np.zeros((3, 3))
    s[0, 1] = s[1, 0] = 2.0
    s[0, 2] = s[2, 0] = 1.0
    unused = np.array([False, True])     # the entry of (0, 1) is used
    picked = sample_edges_without_replacement(s, 1, rng, unused)
    assert picked == [(0, 2)]
    assert not unused.any()
    with pytest.raises(RuntimeError, match="only 1 unused pairs"):
        sample_edges_without_replacement(s, 2, rng, np.array([False, True]))


def test_phase2_draws_only_unused_entries_and_marks_them():
    # a support of 40 random pairs with every third entry already used:
    # taking every remaining pair must pick exactly the unused entries, mark
    # each of them used
    gen = np.random.default_rng(5)
    n = 30
    support = np.zeros((n, n))
    keys = gen.choice(n * (n - 1) // 2, size=40, replace=False)
    iu = np.triu_indices(n, k=1)
    support[iu[0][keys], iu[1][keys]] = gen.integers(1, 5, size=40)
    support += support.T
    s_sym = symmetrize_scores(support)
    pairs = list(zip(s_sym.rows.tolist(), s_sym.cols.tolist()))
    unused = np.ones(len(pairs), dtype=bool)
    unused[::3] = False
    rest = [p for p, free in zip(pairs, unused) if free]
    with pytest.raises(RuntimeError, match=f"only {len(rest)} unused pairs"):
        sample_edges_without_replacement(s_sym, len(rest) + 1, gen, unused)
    some = sample_edges_without_replacement(s_sym, 5, gen, unused)
    assert len(set(some)) == 5 and set(some) <= set(rest)
    assert np.count_nonzero(unused) == len(rest) - 5
    assert not any(unused[pairs.index(p)] for p in some)
    picked = sample_edges_without_replacement(s_sym, len(rest) - 5, gen, unused)
    assert sorted(some + picked) == sorted(rest)
    assert not unused.any()
    with pytest.raises(RuntimeError, match="only 0 unused pairs"):
        sample_edges_without_replacement(s_sym, 1, gen, unused)


def test_synthesis_is_postprocessing_only():
    # the sampler's surface admits no handle on the original graph, and the
    # edge budget must come from the scores or an explicit override
    params = set(inspect.signature(sample_graph).parameters)
    assert params == {"scores", "target_edges", "rng"}
    params = set(inspect.signature(default_target_edges).parameters)
    assert params == {"scores"}


# ------------------------------------------- sparse against the dense oracle

def random_counts(rng, n, density):
    """Integer transition counts, as the training loop produces them."""
    c = rng.integers(1, 6, size=(n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(c, 0)
    return c.astype(np.float64)


def sampled_edge_list(scores, target, seed):
    """The sparse sampler's edge list, in sampling order."""
    rng = np.random.default_rng(seed)
    s_sym = symmetrize_scores(scores)
    unused = np.ones(len(s_sym.weights), dtype=bool)
    edges = _coverage_edges(s_sym, rng, unused)
    return edges + sample_edges_without_replacement(
        s_sym, target - len(edges), rng, unused)


@pytest.mark.parametrize("seed", range(12))
def test_sparse_synthesis_matches_dense_oracle_on_arrays(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 80))
    counts = random_counts(gen, n, density=float(gen.uniform(0.02, 0.4)))
    counts[0, 1] += 1.0  # never all zero
    assert np.array_equal(as_dense(symmetrize_scores(counts)),
                          symmetrize_scores_dense(counts))
    target = default_target_edges(counts)
    assert target == default_target_edges_dense(counts)
    expected = sample_graph_dense(counts, target, np.random.default_rng(seed))
    assert sampled_edge_list(counts, target, seed) == expected
    g = sample_graph(counts, target_edges=target, rng=np.random.default_rng(seed))
    assert g == from_edges(n, expected, symmetrize=True)


@pytest.mark.parametrize("seed", range(6))
def test_sparse_synthesis_matches_dense_oracle_on_score_matrix(seed):
    # a ScoreMatrix filled the way accumulate_scores fills it: walk steps
    # appended as (current, next) index arrays; short hops repeat pairs
    gen = np.random.default_rng(100 + seed)
    n = int(gen.integers(20, 120))
    scores = ScoreMatrix(n)
    for _ in range(int(gen.integers(40, 80))):
        current = gen.integers(n, size=8)
        scores.add(current, (current + gen.integers(1, 6, size=8)) % n)
    dense = score_csr(scores).toarray()
    target = default_target_edges(scores)
    assert target == default_target_edges_dense(dense)
    expected = sample_graph_dense(dense, target, np.random.default_rng(seed))
    assert sampled_edge_list(scores, target, seed) == expected
    g = sample_graph(scores, target_edges=target, rng=np.random.default_rng(seed))
    assert g == from_edges(n, expected, symmetrize=True)


def add_pairs_both_ways(scores, gen, steps):
    """Record ``steps`` batches of 6 random off-diagonal transitions and the
    reverse of the first 3 of each, so many pairs carry unequal counts in
    both directions."""
    n = scores.num_nodes
    for _ in range(steps):
        u = gen.integers(n, size=6)
        v = (u + gen.integers(1, n, size=6)) % n
        scores.add(u, v)
        scores.add(v[:3], u[:3])


@pytest.mark.parametrize("seed", range(4))
def test_symmetrize_score_matrix_with_reverse_pairs(seed):
    # the symmetric weight of a pair recorded both ways is the larger of its
    # two counts, whichever direction holds it; a read sorts the buffer, so
    # adds after a read must count as much as those before
    gen = np.random.default_rng(200 + seed)
    n = int(gen.integers(5, 30))
    scores = ScoreMatrix(n)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    for _ in range(3):
        add_pairs_both_ways(scores, gen, int(gen.integers(10, 40)))
        dense = score_csr(scores).toarray()
        both = upper & (dense > 0) & (dense.T > 0)
        assert (both & (dense > dense.T)).any()
        assert (both & (dense < dense.T)).any()
        expected = symmetrize_scores_dense(dense)
        rows, cols = np.nonzero(upper & (expected > 0))
        s_sym = symmetrize_scores(scores)
        assert np.array_equal(s_sym.rows, rows)
        assert np.array_equal(s_sym.cols, cols)
        assert np.array_equal(s_sym.weights, expected[rows, cols])


def test_score_matrix_reads_repeat():
    # bench/traced.py reads .counts before synthesis reads the scores: every
    # read returns what a single read of the same transitions returns
    def filled():
        scores = ScoreMatrix(40)
        add_pairs_both_ways(scores, np.random.default_rng(9), 50)
        return scores

    scores = filled()
    counts = scores.counts
    triplet = scores.triplet()
    s_sym = symmetrize_scores(scores)
    once = filled().triplet()
    assert np.array_equal(counts, once[2])
    assert all(np.array_equal(a, b) for a, b in zip(triplet, once))
    s_once = symmetrize_scores(filled())
    for name in ("rows", "cols", "weights"):
        assert np.array_equal(getattr(s_sym, name), getattr(s_once, name))


def test_synthesis_scales_past_dense_memory():
    # N = 10^5: a dense float64 score matrix would need 80 GB; the sparse
    # pipeline touches only the 4N recorded transitions
    n = 100_000
    gen = np.random.default_rng(2024)
    scores = ScoreMatrix(n)
    for _ in range(4):
        current = gen.permutation(n)          # every node starts a transition
        scores.add(current, (current + gen.integers(1, n, size=n)) % n)
    target = default_target_edges(scores)
    assert n - 1 <= target <= 4 * n
    g = sample_graph(scores, target_edges=target, rng=np.random.default_rng(7))
    assert g.num_nodes == n
    assert g.num_edges == 2 * target
    assert (undirected_degrees(g) > 0).all()


# ------------------------------------------------------- transient memory

def traced_peak(fn, *args, **kwargs):
    """``(result, bytes)``: the call's result and the tracemalloc peak of
    what it allocated."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_post_processing_transient_bytes_per_entry():
    # about the reference run's 202,800 transitions over 2708 nodes, in
    # accumulate_scores-sized batches; every stage holds a few entry-length
    # arrays. Measured: 24 B per entry for the collapse (its own output),
    # 40 for symmetrize_scores, 9 for coverage and 17 for phase 2
    n, batch = 2708, 240
    gen = np.random.default_rng(0)
    scores = ScoreMatrix(n)
    for _ in range(845):
        current = gen.integers(n, size=batch)
        scores.add(current, (current + gen.integers(1, n, size=batch)) % n)
    (_, _, counts), peak = traced_peak(scores.triplet)
    entries = len(counts)
    assert entries > 190_000
    assert peak < 40 * entries
    s_sym, peak = traced_peak(symmetrize_scores, scores)
    assert peak < 52 * entries
    pairs = len(s_sym.weights)
    rng = np.random.default_rng(1)
    unused = np.ones(pairs, dtype=bool)
    edges, peak = traced_peak(_coverage_edges, s_sym, rng, unused)
    assert peak < 12 * pairs
    target = default_target_edges(s_sym)
    _, peak = traced_peak(sample_edges_without_replacement, s_sym,
                          target - len(edges), rng, unused)
    assert peak < 24 * pairs

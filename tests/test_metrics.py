import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import shortest_path as scipy_shortest_path

import dprank.metrics as metrics
from dprank.graph import from_edges
from dprank.metrics import (_auc_from_scores, build_report, compute_stats,
                            degree_ks, link_prediction_auc, micro_f1, mre,
                            node_classification_f1, shortest_path,
                            undirected_degrees)

import oracles


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)], symmetrize=True)


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)],
                      symmetrize=True)


# ---------------------------------------------------------------- stats

def test_k4_closed_forms(k4):
    stats = compute_stats(k4)
    assert stats.triangle_count == 4
    assert stats.wedge_count == 12
    assert stats.claw_count == 4
    assert stats.rede == pytest.approx(1.0, abs=1e-12)
    assert stats.cpl == pytest.approx(1.0)
    assert stats.diameter == 1
    assert stats.lcc_size == 4


def test_three_leaf_star():
    stats = compute_stats(star_graph(3))
    assert stats.triangle_count == 0
    assert stats.wedge_count == 3
    assert stats.claw_count == 1
    assert stats.diameter == 2
    assert stats.cpl == pytest.approx(1.5)
    assert stats.rede == pytest.approx(0.8962, abs=1e-3)


def test_stats_match_bruteforce(rng):
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng, max_nodes=25, allow_empty=True)
        und = {(int(u), int(v)) for u, v in g.edges if u < v} | \
              {(int(v), int(u)) for u, v in g.edges if v < u}
        stats = compute_stats(g)
        assert stats.triangle_count == oracles.brute_triangles(g.num_nodes, und)
        assert stats.wedge_count == oracles.brute_wedges(g.num_nodes, und)
        assert stats.claw_count == oracles.brute_claws(g.num_nodes, und)
        rede = oracles.brute_rede(g.num_nodes, und)
        if rede is None:
            assert stats.rede is None
        else:
            assert stats.rede == pytest.approx(rede, abs=1e-12)
        cpl, diam, lcc = oracles.brute_path_stats(g.num_nodes, und)
        assert stats.lcc_size == lcc
        if cpl is None:
            assert stats.cpl is None and stats.diameter is None
        else:
            assert stats.cpl == pytest.approx(cpl, abs=1e-9)
            assert stats.diameter == diam


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 40))
def test_rede_is_one_for_regular_graphs(n):
    assert compute_stats(cycle_graph(n)).rede == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------- triangles and components

def test_triangles_of_cliques_and_wheels():
    for n in (3, 4, 7, 12):
        clique = from_edges(n, [(i, j) for i in range(n) for j in range(i)],
                            symmetrize=True)
        assert metrics._triangles(clique) == n * (n - 1) * (n - 2) // 6
    # a hub joined to every node of a 50-cycle: one triangle per rim edge
    rim = [(i, i % 50 + 1) for i in range(1, 51)]
    wheel = from_edges(51, rim + [(0, i) for i in range(1, 51)], symmetrize=True)
    assert metrics._triangles(wheel) == 50


def test_triangles_of_a_large_star_make_no_wedges():
    # every edge points at the hub, which points nowhere: nothing is
    # gathered, where orienting the hub outward would pair its 10^4 leaves
    # (5 * 10^7 wedges, 400 MB per int64 array)
    import tracemalloc
    star = star_graph(10_000)
    tracemalloc.start()
    try:
        count = metrics._triangles(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 0
    assert peak < 4e6


def scipy_lcc(g):
    """The LCC members scipy's ``connected_components`` picks by argmax."""
    n = g.num_nodes
    adj = sp.csr_matrix((np.ones(g.num_edges), g.out_indices, g.out_indptr),
                        shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return labels, np.flatnonzero(labels == np.argmax(np.bincount(labels)))


def scipy_lcc_graph(g, members):
    """The subgraph on the sorted ``members``, relabelled 0..len - 1."""
    keep = np.isin(g.edges, members).all(axis=1)
    return from_edges(len(members), np.searchsorted(members, g.edges[keep]))


def equal_components_graph(rng, parts, size, singletons):
    """``parts`` connected components of ``size`` nodes each (a random tree
    plus chords) and ``singletons`` isolated nodes, ids shuffled."""
    n = parts * size + singletons
    ids = rng.permutation(n)
    pairs = []
    for c in range(parts):
        nodes = ids[c * size:(c + 1) * size]
        for k in range(1, size):
            pairs.append((nodes[k], nodes[rng.integers(k)]))
        for _ in range(int(rng.integers(0, size))):
            pairs.append(tuple(rng.choice(nodes, size=2)))
    return from_edges(n, pairs, symmetrize=True)


@pytest.mark.parametrize("seed", range(20))
def test_components_match_scipy_with_tied_sizes(seed):
    rng = np.random.default_rng(seed)
    g = equal_components_graph(rng, parts=int(rng.integers(2, 6)),
                               size=int(rng.integers(2, 30)),
                               singletons=int(rng.integers(0, 5)))
    labels = metrics._components(g)
    scipy_labels, scipy_members = scipy_lcc(g)
    # min-node-id labels, renumbered in order, are scipy's labels
    assert np.array_equal(np.unique(labels, return_inverse=True)[1], scipy_labels)
    ours = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    assert np.array_equal(ours, scipy_members)
    # the path stats are those of the component scipy picks
    sub = scipy_lcc_graph(g, scipy_members)
    total, diameter = scipy_sum_max(sub.out_indptr, sub.out_indices)
    stats = compute_stats(g)
    assert stats.lcc_size == len(scipy_members)
    assert stats.diameter == diameter
    assert stats.cpl == total / (len(scipy_members) * (len(scipy_members) - 1))


def test_components_of_a_long_path_are_fast():
    import time
    n = 100_000
    order = np.random.default_rng(5).permutation(n)
    for path in (np.arange(n), order):
        g = from_edges(n, np.column_stack([path[:-1], path[1:]]), symmetrize=True)
        start = time.perf_counter()
        labels = metrics._components(g)
        assert time.perf_counter() - start < 1.0
        assert not labels.any()


# ---------------------------------------------------------- shortest_path

def adjacency(n, pairs):
    """``(indptr, indices)`` of the symmetric CSR adjacency of the
    undirected pairs."""
    g = from_edges(n, pairs, symmetrize=True)
    return g.out_indptr, g.out_indices


def scipy_sum_max(indptr, indices):
    n = len(indptr) - 1
    adj = sp.csr_matrix((np.ones(len(indices)), indices, indptr), shape=(n, n))
    dist = scipy_shortest_path(adj, unweighted=True, directed=False)
    reached = dist[np.isfinite(dist)]
    return int(reached.sum()), int(reached.max())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shortest_path_matches_bfs_and_scipy(data):
    # every node gets a partner, so no row is empty; components may be many
    n = data.draw(st.integers(2, 140))
    node = st.integers(0, n - 1)
    pairs = [(i, data.draw(node.filter(lambda j, i=i: j != i)))
             for i in range(n)]
    pairs += data.draw(st.lists(st.tuples(node, node), max_size=2 * n))
    if n > 65 and data.draw(st.booleans()):
        # a hub joined to 65 or more nodes: a width class of 128 or 256
        # slots beside the narrow classes of the other nodes
        hub = data.draw(node)
        others = data.draw(st.permutations([v for v in range(n) if v != hub]))
        pairs += [(hub, v) for v in others[:data.draw(st.integers(65, n - 1))]]
    pairs = [(u, v) for u, v in pairs if u != v]
    adj = adjacency(n, pairs)
    expected = oracles.brute_distance_sum_max(n, pairs)
    assert shortest_path(*adj) == expected == scipy_sum_max(*adj)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "BFS_WORD_BUDGET", 1)  # 64 sources per chunk
        assert shortest_path(*adj) == expected


@pytest.mark.parametrize("budget", [metrics.BFS_WORD_BUDGET, 1])
@pytest.mark.parametrize("n", [2, 63, 64, 65, 130])
def test_shortest_path_closed_forms(n, budget, monkeypatch):
    # budget 1 gives one word, 64 sources, per chunk: three chunks at n=130
    monkeypatch.setattr(metrics, "BFS_WORD_BUDGET", budget)
    path = adjacency(n, [(i, i + 1) for i in range(n - 1)])
    # ordered pairs at distance d: 2 (n - d), summed d (n - d) over d
    assert shortest_path(*path) == ((n - 1) * n * (n + 1) // 3, n - 1)
    star = adjacency(n, [(0, i) for i in range(1, n)])
    leaves = n - 1
    assert shortest_path(*star) == (2 * leaves + 2 * leaves * (leaves - 1),
                                   1 if n == 2 else 2)
    # the complete graph's degrees n - 1 fall on and past the width 64
    complete = adjacency(n, [(i, j) for i in range(n) for j in range(i)])
    assert shortest_path(*complete) == (n * (n - 1), 1)


def test_shortest_path_single_node():
    # a self-loop is a neighbour: no pair s != t, so (0, 0); without it the
    # one node is isolated
    assert shortest_path(np.array([0, 1]), np.array([0])) == (0, 0)
    with pytest.raises(ValueError, match="neighbour"):
        shortest_path(*adjacency(1, []))


@pytest.mark.parametrize("isolated", [0, 2, 4])
def test_shortest_path_rejects_isolated_node(isolated):
    others = [v for v in range(5) if v != isolated]
    with pytest.raises(ValueError, match="neighbour"):
        shortest_path(*adjacency(5, list(zip(others, others[1:]))))


def test_stats_peak_memory_is_one_distance_matrix():
    # the bit-parallel BFS holds O(budget + N) words, far below the 8 N^2
    # bytes of an all-pairs distance matrix; a cycle's closed forms pin its
    # path stats
    import tracemalloc
    n = 1500
    g = cycle_graph(n)
    tracemalloc.start()
    try:
        stats = compute_stats(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 8 * n * n
    assert stats.diameter == n // 2
    assert stats.cpl == pytest.approx(n * n / (4 * (n - 1)), rel=1e-12)


def test_edgeless_graph_flags_null_stats():
    stats = compute_stats(from_edges(5, []))
    assert stats.rede is None
    assert stats.cpl is None
    assert stats.diameter is None
    assert stats.triangle_count == 0
    assert stats.lcc_size == 1


# ------------------------------------------------------------------ mre

def test_mre_hand_value():
    assert mre(10.0, [9, 11, 10, 10, 10]) == pytest.approx(0.04, abs=1e-12)


def test_mre_exact_estimates():
    assert mre(7.0, [7, 7, 7]) == 0.0


def test_mre_double_truth():
    assert mre(3.0, [6.0]) == pytest.approx(1.0)


def test_mre_zero_truth_rejected():
    with pytest.raises(ValueError):
        mre(0.0, [1.0])
    with pytest.raises(ValueError):
        mre(1.0, [])


# ------------------------------------------------------------ degree KS

def test_ks_identical_graphs(k4):
    assert degree_ks(k4, k4) == 0.0


def test_ks_disjoint_supports(k4):
    single_edge = from_edges(2, [(0, 1)], symmetrize=True)
    # degrees [1, 1] vs [3, 3, 3, 3]: the CDFs never overlap below 3
    assert degree_ks(single_edge, k4) == 1.0


def test_ks_hand_cdf_table():
    assert oracles.brute_ks([1, 2], [1, 3]) == pytest.approx(0.5)
    assert oracles.brute_ks([1, 1], [3, 3]) == 1.0


def test_ks_matches_oracle_and_is_symmetric(rng):
    from conftest import random_graph
    for _ in range(20):
        g1 = random_graph(rng, max_nodes=15, allow_empty=True)
        g2 = random_graph(rng, max_nodes=15, allow_empty=True)
        expected = oracles.brute_ks(undirected_degrees(g1).tolist(),
                                    undirected_degrees(g2).tolist())
        value = degree_ks(g1, g2)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(degree_ks(g2, g1), abs=1e-15)
        assert 0.0 <= value <= 1.0


# ----------------------------------------------------------------- AUC

def test_auc_perfect_separation():
    assert _auc_from_scores(np.array([3.0, 4.0]), np.array([1.0, 2.0])) == 1.0


def test_auc_constant_scores_is_half():
    assert _auc_from_scores(np.full(10, 0.5), np.full(10, 0.5)) == pytest.approx(0.5)


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(8)
    pos = rng.random(5000)
    neg = rng.random(5000)
    assert _auc_from_scores(pos, neg) == pytest.approx(0.5, abs=0.02)


def test_auc_matches_pairwise_oracle(rng):
    for _ in range(10):
        pos = rng.integers(0, 5, size=12).astype(float)
        neg = rng.integers(0, 5, size=9).astype(float)
        assert _auc_from_scores(pos, neg) == pytest.approx(
            oracles.auc_pairwise(pos, neg), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_auc_invariant_under_monotone_transform(seed):
    gen = np.random.default_rng(seed)
    pos = gen.standard_normal(20)
    neg = gen.standard_normal(15)
    base = _auc_from_scores(pos, neg)
    for f in (np.exp, lambda x: 3 * x + 1, np.tanh):
        assert _auc_from_scores(f(pos), f(neg)) == pytest.approx(base, abs=1e-12)


def test_link_prediction_planted_structure(rng):
    # two dense clusters; embeddings aligned with the clusters separate
    # held-out within-cluster edges from random non-edges
    edges = [(i, j) for i in range(8) for j in range(8) if i != j]
    edges += [(i, j) for i in range(8, 16) for j in range(8, 16) if i != j]
    g = from_edges(16, edges)
    emb = np.zeros((16, 2))
    emb[:8, 0] = 3.0
    emb[8:, 1] = 3.0
    auc = link_prediction_auc(g, emb, rng=rng)
    assert auc > 0.9


def test_link_prediction_too_small(rng):
    tiny = from_edges(2, [(0, 1)], symmetrize=True)
    with pytest.raises(ValueError):
        link_prediction_auc(tiny, np.zeros((2, 2)), rng=rng)


# ------------------------------------------------------------- micro F1

def test_micro_f1_is_accuracy_single_label(rng):
    for _ in range(20):
        y_true = rng.integers(0, 4, size=50)
        y_pred = rng.integers(0, 4, size=50)
        expected = oracles.micro_f1_confusion(y_true.tolist(), y_pred.tolist())
        assert micro_f1(y_true, y_pred) == pytest.approx(expected, abs=1e-12)
        assert micro_f1(y_true, y_pred) == pytest.approx(
            np.mean(y_true == y_pred), abs=1e-12)


def test_micro_f1_single_class_prediction_balanced():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.zeros(4, dtype=int)
    assert micro_f1(y_true, y_pred) == pytest.approx(0.5)


def test_node_classification_separable(rng):
    emb = np.vstack([np.tile([4.0, 0.0], (30, 1)),
                     np.tile([0.0, 4.0], (30, 1))])
    emb += rng.normal(0, 0.05, emb.shape)
    labels = np.array([0] * 30 + [1] * 30)
    score = node_classification_f1(emb, labels, rng=rng)
    assert score == 1.0


@pytest.mark.parametrize("n,n_classes,scale,seed", [
    (300, 2, 1.0, 0), (300, 7, 1.0, 1), (400, 3, 0.5, 2),
    (500, 7, 4.0, 3), (600, 2, 10.0, 4), (350, 5, 1.0, 5),
])
def test_node_classification_matches_textbook_layout(n, n_classes, scale,
                                                      seed):
    # class-dependent means, then a third of the labels redrawn at random, so
    # neither form can score 0 or 1 and a single changed prediction shows;
    # the fit does not see the columns' scale
    gen = np.random.default_rng(seed)
    labels = gen.integers(n_classes, size=n)
    means = gen.standard_normal((n_classes, 16))
    emb = scale * (means[labels] + gen.standard_normal((n, 16)))
    noisy = gen.random(n) < 1 / 3
    labels[noisy] = gen.integers(n_classes, size=int(noisy.sum()))

    got = node_classification_f1(emb, labels, rng=np.random.default_rng(seed))
    expected = oracles.lstsq_ovr_f1_textbook(
        emb, labels, np.random.default_rng(seed), metrics.LABEL_TRAIN_FRAC,
        metrics.SPLIT_RETRIES)
    assert 0.0 < got < 1.0
    assert got == expected
    assert node_classification_f1(emb * 1e-3, labels,
                                  rng=np.random.default_rng(seed)) == got


def test_node_classification_reads_signal_at_any_scale_and_rank():
    # four well-separated classes at the scale of a released V, whose
    # entries are small; a zero matrix and more columns than training rows
    # still give a score
    gen = np.random.default_rng(0)
    n, r = 600, 16
    labels = gen.integers(4, size=n)
    means = gen.standard_normal((4, r))
    emb = 1e-3 * (means[labels] + 0.5 * gen.standard_normal((n, r)))
    assert node_classification_f1(emb, labels,
                                  rng=np.random.default_rng(1)) >= 0.9
    for emb, labels in ((np.zeros((n, r)), labels),
                        (gen.standard_normal((50, 128)), labels[:50])):
        score = node_classification_f1(emb, labels, rng=np.random.default_rng(1))
        assert 0.0 <= score <= 1.0


def test_node_classification_peak_memory_is_under_half_a_layout():
    # the normal equations are summed over small blocks of gathered rows, so
    # the peak stays well below one n_train x (r + 1) copy of the training
    # rows
    import tracemalloc
    gen = np.random.default_rng(0)
    n, r = 3000, 128
    labels = gen.integers(4, size=n)
    emb = gen.standard_normal((n, r))
    n_train = int(round(metrics.LABEL_TRAIN_FRAC * n))
    # the first call imports lazily; keep that out of the measured peak
    node_classification_f1(emb[:20], labels[:20], rng=np.random.default_rng(1))
    tracemalloc.start()
    try:
        node_classification_f1(emb, labels, rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_train * (r + 1) * 8


def test_node_classification_single_class_fails(rng):
    emb = rng.standard_normal((20, 3))
    labels = np.zeros(20, dtype=int)
    with pytest.raises(RuntimeError):
        node_classification_f1(emb, labels, rng=rng)


def test_node_classification_deterministic(rng):
    emb = np.random.default_rng(4).standard_normal((40, 3))
    labels = np.random.default_rng(5).integers(0, 3, size=40)
    a = node_classification_f1(emb, labels, rng=np.random.default_rng(9))
    b = node_classification_f1(emb, labels, rng=np.random.default_rng(9))
    assert a == b


# ---------------------------------------------------------------- report

def test_build_report_aggregates(k4):
    stats = compute_stats(k4)
    report = build_report(stats, [stats, stats], [0.0, 0.0],
                          auc_values=[0.7, 0.8], f1_values=None)
    assert all(v == 0.0 for v in report["mre"].values())
    assert report["auc"] == {"mean": pytest.approx(0.75),
                             "std": pytest.approx(0.05)}
    assert report["micro_f1"] is None
    assert report["ks_mean"] == 0.0


def test_build_report_skips_undefined_metrics():
    empty = compute_stats(from_edges(3, []))
    k3 = compute_stats(cycle_graph(3))
    report = build_report(empty, [k3], [1.0])
    assert report["mre"]["rede"] is None
    assert report["mre"]["triangle_count"] is None  # true value 0
    assert any("undefined" in w for w in report["warnings"])

"""Structural graph statistics, error aggregation, and the two downstream
tasks (link-prediction AUC and node-classification Micro-F1).

All structural metrics are computed on the undirected simplification of the
graph; path-based metrics (CPL, diameter) are restricted to the largest
connected component so that disconnected graphs stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, from_edges, run_starts, unique_pairs

STAT_NAMES = ("triangle_count", "wedge_count", "claw_count", "rede",
              "cpl", "diameter", "lcc_size")

# the fixed downstream protocol: link prediction, node classification
EDGE_TRAIN_FRAC = 0.8
LABEL_TRAIN_FRAC = 0.9
CLASSIFIER_EPOCHS = 500     # full-batch gradient steps
CLASSIFIER_LR = 0.1
SPLIT_RETRIES = 20          # redraws of a training split with one class
GATHER_WORDS = 1 << 13      # float64s per block of embedding rows gathered


def undirected_edges(g: Graph) -> np.ndarray:
    """Unique undirected edges as (min, max) pairs, sorted."""
    lo = np.minimum(g.edges[:, 0], g.edges[:, 1])
    hi = np.maximum(g.edges[:, 0], g.edges[:, 1])
    return unique_pairs(lo, hi, g.num_nodes)


def undirected_degrees(g: Graph) -> np.ndarray:
    return np.bincount(undirected_edges(g).ravel(), minlength=g.num_nodes)


@dataclass(frozen=True)
class GraphStats:
    """The structural statistics compared between original and synthetic
    graphs. Path metrics and entropy are None when undefined (no edges)."""

    triangle_count: int
    wedge_count: int
    claw_count: int
    rede: float | None
    cpl: float | None
    diameter: int | None
    lcc_size: int

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in STAT_NAMES}


def _triangles(g: Graph) -> int:
    """Exact triangle count of a symmetric graph by a degree-ordered forward
    wedge count (Schank and Wagner, 2005).

    Nodes are ranked by (degree, id) and every edge points from its lower- to
    its higher-ranked end. A triangle is then exactly one wedge u -> v,
    u -> w with rank v < rank w whose closing edge v -> w exists, so each is
    counted once. A forward list holds at most O(sqrt(M)) nodes, so there
    are O(M^1.5) wedges, and none at all on a star (every edge points at the
    hub, which points nowhere)."""
    n = g.num_nodes
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.out_degree, kind="stable")] = np.arange(n)
    a, b = rank[g.edges[:, 0]], rank[g.edges[:, 1]]
    forward = a < b
    keys = np.sort(a[forward] * n + b[forward])    # rank-labelled, sorted
    tail, head = np.divmod(keys, n)
    # each edge pairs with the later edges of its tail's forward list
    later = np.searchsorted(tail, tail, side="right") - np.arange(len(keys)) - 1
    first = np.repeat(np.arange(len(keys)), later)
    offset = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    closing = head[first] * n + head[first + 1 + offset]
    found = np.searchsorted(keys, closing)
    return int(np.count_nonzero(
        keys[np.minimum(found, len(keys) - 1)] == closing))


def _components(g: Graph) -> np.ndarray:
    """Each node's connected-component label: the smallest node id of its
    component, so labels order components as scipy's ``connected_components``
    numbers them.

    Hook and compress: every edge whose ends carry different labels hooks
    the root with the larger label under the smaller one, then pointer
    jumping flattens every tree. Labels only ever decrease, so a tree's root
    is its smallest node; each round at least halves the roots left in a
    component, so there are O(log N) rounds."""
    label = np.arange(g.num_nodes)
    src, dst = g.edges[:, 0], g.edges[:, 1]
    while True:
        a, b = label[src], label[dst]
        differ = a != b
        if not differ.any():
            return label
        np.minimum.at(label, np.maximum(a, b)[differ], np.minimum(a, b)[differ])
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


# bound on padded neighbour slots x uint64 words per BFS source chunk, so
# the largest array shortest_path holds, one width class's gather, is at
# most 1 MB whatever the graph size. On the 6000-node benchmark graph, the
# call on eval's critical path, 2**17 ran fastest: 0.048, 0.036 and 0.042 s
# at 2**16, 2**17 and 2**18. Its 4827-node synthetic graph, whose stats
# run in a worker, took 0.067, 0.096 and 0.123 s (one thread, 2-vCPU VM).
BFS_WORD_BUDGET = 1 << 17


def shortest_path(indptr: np.ndarray, indices: np.ndarray) -> tuple[int, int]:
    """Sum and maximum of the hop distances d(s, t) over all ordered pairs
    s != t with t reachable from s, on an unweighted undirected graph given
    as the ``indptr``/``indices`` arrays of a CSR adjacency with no empty
    row.

    A level-synchronous BFS from 64 sources per uint64 word ("The More the
    Merrier", Then et al., VLDB 2015): bit k of ``frontier[v, w]`` says that
    v is at the current level from source 64w + k. One level ORs the
    frontier words of every node's neighbours.

    The OR runs over dense slices, as in SELL-C-sigma (Kreutzer et al.,
    SIAM J. Sci. Comput. 2014). Nodes are renumbered by width, the power of
    two at or above their degree, so each width class is one contiguous
    range. Each neighbour list is padded to its width by repeating its own
    entries, which leaves the OR unchanged and the padded slots below
    2 nnz. A class holds its neighbours slot-major, ``(width, nodes)``, so
    its level step is one gather and one OR along the slot axis. Sources are
    taken in chunks whose gathers stay within ``BFS_WORD_BUDGET`` words, so
    memory is O(nnz + N) words per chunk and never N x N. The sum is an
    exact Python integer. On the 6000-node benchmark graph this takes about
    0.036 s, against 8.4 s for scipy's dense all-pairs search (one thread,
    2-vCPU VM).
    """
    n = len(indptr) - 1
    degree = np.diff(indptr)
    if (degree == 0).any():
        # an empty list has no entry to pad with
        raise ValueError("shortest_path needs every node to have a neighbour")
    width = 1 << np.frexp(degree - 1)[1]        # 2**bit_length(degree - 1)
    order = np.argsort(width, kind="stable")
    renumber = np.empty(n, dtype=np.int64)
    renumber[order] = np.arange(n)
    bounds = np.append(run_starts(width[order]), n)
    classes = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        nodes = order[a:b]
        slot = np.arange(width[nodes[0]])[:, None] % degree[nodes]
        classes.append((a, b, renumber[indices[indptr[nodes] + slot]]))

    words = max(1, min(-(-n // 64), BFS_WORD_BUDGET // int(width.sum())))
    total = diameter = 0
    for lo in range(0, n, 64 * words):
        bit = np.arange(min(64 * words, n - lo))
        frontier = np.zeros((n, words), dtype=np.uint64)
        frontier[lo + bit, bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
        unreached = ~frontier
        level = 0
        while True:
            new = np.empty_like(frontier)
            for a, b, slots in classes:
                np.bitwise_or.reduce(np.take(frontier, slots, axis=0), axis=0,
                                     out=new[a:b])
            new &= unreached
            found = int(np.bitwise_count(new).sum())
            if found == 0:
                break
            level += 1
            total += level * found
            unreached ^= new
            frontier = new
        diameter = max(diameter, level)
    return total, diameter


def compute_stats(g: Graph) -> GraphStats:
    n = g.num_nodes
    und = undirected_edges(g)
    deg = np.bincount(und.ravel(), minlength=n)
    m = len(und)

    wedges = int(np.sum(deg * (deg - 1) // 2))
    claws = int(np.sum(deg * (deg - 1) * (deg - 2) // 6))

    rede = None
    if m > 0 and n > 1:
        p = deg[deg > 0] / (2.0 * m)
        rede = float(np.sum(-p * np.log(p)) / np.log(n))

    triangles = 0
    cpl = None
    diameter = None
    lcc_size = 1 if n else 0
    if m > 0:
        sym = from_edges(n, und, symmetrize=True)
        triangles = _triangles(sym)
        labels = _components(sym)
        sizes = np.bincount(labels)
        # the first largest: the one with the smallest node, as with scipy
        lcc_label = int(np.argmax(sizes))
        lcc_size = int(sizes[lcc_label])
        if lcc_size > 1:
            members = labels == lcc_label
            new_id = np.cumsum(members) - 1     # keeps the node order
            sub = from_edges(lcc_size, new_id[und[members[und[:, 0]]]],
                             symmetrize=True)
            total, diameter = shortest_path(sub.out_indptr, sub.out_indices)
            # int / int rounds once, as float64 division of the exact sum did
            cpl = float(total / (lcc_size * (lcc_size - 1)))

    return GraphStats(triangle_count=triangles, wedge_count=wedges,
                      claw_count=claws, rede=rede, cpl=cpl, diameter=diameter,
                      lcc_size=lcc_size)


def mre(true_value: float, estimates) -> float:
    """Mean absolute relative error of the estimates against the true value."""
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.size == 0:
        raise ValueError("need at least one estimate")
    if true_value == 0:
        raise ValueError("relative error is undefined for a zero true value")
    return float(np.mean(np.abs((estimates - true_value) / true_value)))


def degree_ks(g1: Graph, g2: Graph) -> float:
    """Kolmogorov-Smirnov distance between the two degree distributions:
    max_d |F(d) - F'(d)| over the union of observed degree values."""
    d1 = np.sort(undirected_degrees(g1))
    d2 = np.sort(undirected_degrees(g2))
    # a degree seen twice gives the same difference twice; the max is that
    # over the union
    values = np.concatenate((d1, d2))
    f1 = np.searchsorted(d1, values, side="right") / len(d1)
    f2 = np.searchsorted(d2, values, side="right") / len(d2)
    return float(np.abs(f1 - f2).max())


def _auc_from_scores(pos_scores, neg_scores) -> float:
    """Rank-based AUC (Mann-Whitney) with average ranks on ties."""
    scores = np.concatenate([pos_scores, neg_scores])
    _, inverse, counts = np.unique(scores, return_inverse=True,
                                   return_counts=True)
    # a tied group occupying ranks start+1..stop gets rank (start+1+stop)/2
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    n_pos, n_neg = len(pos_scores), len(neg_scores)
    rank_sum = ranks[:n_pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _sample_non_edges(und: np.ndarray, n: int, count: int,
                      rng: np.random.Generator):
    """``count`` distinct uniformly drawn node pairs (min, max) that are
    neither self-loops nor among the undirected edges ``und``."""
    existing = set(zip(und[:, 0].tolist(), und[:, 1].tolist()))
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count + 1000:
            raise RuntimeError("could not find enough non-edges to sample")
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        e = (min(u, v), max(u, v))
        if e in existing:
            continue
        existing.add(e)
        out.append(e)
    return np.asarray(out, dtype=np.int64)


def link_prediction_auc(g: Graph, embeddings: np.ndarray,
                        rng: np.random.Generator) -> float:
    """AUC of distinguishing held-out edges from sampled non-edges.

    A (1 - EDGE_TRAIN_FRAC) fraction of the undirected edges becomes the
    positive test set, matched by an equal number of uniformly sampled
    non-edges. A pair is scored by the sigmoid of its embedding inner product,
    taken in blocks of about ``GATHER_WORDS`` gathered values, so the
    gathered rows stay small however many edges the graph has.
    """
    und = undirected_edges(g)
    n_test = int(round((1.0 - EDGE_TRAIN_FRAC) * len(und)))
    if n_test < 1 or len(und) - n_test < 1:
        raise ValueError(f"graph with {len(und)} undirected edges is too small "
                         f"to split at ratio {EDGE_TRAIN_FRAC}")
    test_idx = rng.choice(len(und), size=n_test, replace=False)
    positives = und[test_idx]
    negatives = _sample_non_edges(und, g.num_nodes, n_test, rng)

    def score(pairs):
        dots = np.empty(len(pairs))
        rows = max(1, GATHER_WORDS // embeddings.shape[1])
        for lo in range(0, len(pairs), rows):
            u, v = pairs[lo:lo + rows].T
            # a row's sum does not depend on the block it falls in
            dots[lo:lo + len(u)] = np.sum(embeddings[u] * embeddings[v], axis=1)
        return 1.0 / (1.0 + np.exp(-dots))

    return _auc_from_scores(score(positives), score(negatives))


def micro_f1(y_true, y_pred) -> float:
    """Micro-averaged F1 over classes; equals accuracy for single-label data,
    where one label and one prediction per row make tp + fp = tp + fn = n."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    tp = int(np.count_nonzero(y_pred == y_true))
    if tp == 0:
        return 0.0
    precision = recall = tp / len(y_true)
    return 2 * precision * recall / (precision + recall)


def node_classification_f1(embeddings: np.ndarray, labels,
                           rng: np.random.Generator) -> float:
    """Micro-F1 of one-vs-rest logistic regression on the embedding rows.

    Plain full-batch gradient descent, fixed epoch count, no regularization;
    an intercept column is appended to the features. Splits that leave fewer
    than two classes in the training set are redrawn a bounded number of times.

    Memory: the training rows are held in two layouts of n_train x (r + 1)
    float64s, feature-major for the scores and row-major for the step. The
    test rows are gathered first, then the first layout, in blocks of about
    ``GATHER_WORDS`` values; then the function drops its reference to
    ``embeddings`` and builds the second. So at most the embedding matrix
    and one layout are live, and then the two layouts. ``embeddings`` is
    never written; when the caller keeps no other reference to it, it is
    freed before the second layout is made.
    """
    labels = np.asarray(labels)
    n = len(labels)
    if embeddings.shape[0] != n:
        raise ValueError("one label per embedding row required")
    n_train = int(round(LABEL_TRAIN_FRAC * n))
    if n_train < 1 or n - n_train < 1:
        raise ValueError("split leaves an empty train or test set")

    for _ in range(SPLIT_RETRIES):
        perm = rng.permutation(n)
        train_idx, test_idx = perm[:n_train], perm[n_train:]
        classes = np.sort(labels[train_idx])
        classes = classes[run_starts(classes)]
        if len(classes) >= 2:
            break
    else:
        raise RuntimeError("could not draw a training split with two classes")

    r = embeddings.shape[1]
    # weights and targets are kept with classes as rows, so both products of
    # an epoch have the class count as their short leading dimension, which
    # OpenBLAS runs 2-3x faster than the textbook (features x classes)
    # layout; the results agree with that layout to rounding. Only the two
    # layouts of the training rows are built, never the features of all n
    # rows, and an epoch writes into two preallocated buffers.
    x_test = np.empty((n - n_train, r + 1))
    x_test[:, :r] = embeddings[test_idx]
    x_test[:, r] = 1.0
    x_train_t = np.empty((r + 1, n_train))
    rows = max(1, GATHER_WORDS // r)
    for lo in range(0, n_train, rows):
        block = train_idx[lo:lo + rows]
        x_train_t[:r, lo:lo + len(block)] = embeddings[block].T
    x_train_t[r] = 1.0
    del embeddings
    # row-major for the step's product; each entry is x * CLASSIFIER_LR
    scaled_x = np.multiply(x_train_t.T, CLASSIFIER_LR, order="C")
    y_t = (classes[:, None] == labels[train_idx][None, :]).astype(np.float64)

    w_t = np.zeros((len(classes), r + 1))
    p_t = np.empty((len(classes), n_train))
    step = np.empty_like(w_t)
    for _ in range(CLASSIFIER_EPOCHS):
        # p_t = 1 / (1 + exp(-(w_t @ x_train_t))), in place
        np.matmul(w_t, x_train_t, out=p_t)
        np.negative(p_t, out=p_t)
        np.exp(p_t, out=p_t)
        p_t += 1.0
        np.divide(1.0, p_t, out=p_t)
        p_t -= y_t
        np.matmul(p_t, scaled_x, out=step)
        step /= n_train
        w_t -= step

    pred = classes[np.argmax(x_test @ w_t.T, axis=1)]
    return micro_f1(labels[test_idx], pred)


def build_report(original_stats: GraphStats, synthetic_stats: list,
                 ks_values: list, auc_values=None, f1_values=None) -> dict:
    """Aggregate per-run statistics into MRE per metric, degree KS, and the
    downstream means: one epsilon's entry as ``eval_report.json`` stores it.

    Metrics undefined on the original graph (zero or null true value) are
    skipped with a warning entry rather than failing the whole report.
    """
    notes = []
    orig = original_stats.as_dict()
    runs = [s.as_dict() for s in synthetic_stats]
    mre_per_metric = {}
    for name in STAT_NAMES:
        true_value = orig[name]
        estimates = [r[name] for r in runs if r[name] is not None]
        if len(estimates) < len(runs):
            notes.append(f"{name}: undefined on {len(runs) - len(estimates)} run(s)")
        if true_value in (None, 0):
            notes.append(f"{name}: undefined on the original graph, MRE skipped")
            mre_per_metric[name] = None
        elif not estimates:
            mre_per_metric[name] = None
        else:
            mre_per_metric[name] = mre(true_value, estimates)

    def mean_std(values):
        if values is None:
            return None
        arr = np.asarray(values, dtype=np.float64)
        return {"mean": float(arr.mean()), "std": float(arr.std())}

    ks = [float(k) for k in ks_values]
    return {"original": orig, "synthetic_runs": runs, "mre": mre_per_metric,
            "ks_per_run": ks, "ks_mean": float(np.mean(ks)) if ks else None,
            "warnings": notes, "auc": mean_std(auc_values),
            "micro_f1": mean_std(f1_values)}

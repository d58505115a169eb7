"""Reconstruct a simple undirected graph from the accumulated transition-score
matrix. Pure post-processing: consumes only the score matrix and config.

Scores are held as coordinate triplets of their nonzero entries throughout.
A run records O(T * batch) transitions, so no step here allocates O(N^2)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import Graph, from_edges, row_pointers, run_starts

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SymmetricScores:
    """``max(S, S^T)`` with the diagonal dropped, held as its positive
    strictly-upper-triangle entries ``(rows[k], cols[k], weights[k])`` in
    row-major order, the order of ``np.triu_indices``."""

    num_nodes: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray


def _score_triplet(scores) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(n, rows, cols, values)`` of the nonzero entries of a dense square
    array or a ScoreMatrix, in row-major order, as float64 values; raises on
    a non-square shape or a negative (or NaN) entry."""
    if hasattr(scores, "triplet"):
        n = scores.num_nodes
        rows, cols, values = scores.triplet()
    else:
        dense = np.asarray(scores, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValueError("score matrix must be square")
        n = dense.shape[0]
        rows, cols = np.nonzero(dense)
        values = dense[rows, cols]
    if not (values >= 0).all():
        raise ValueError("score matrix entries must be nonnegative")
    return n, rows, cols, values


def symmetrize_scores(scores) -> SymmetricScores:
    """Elementwise max with the transpose, diagonal removed, of a dense
    square array or a ScoreMatrix; a SymmetricScores passes through."""
    if isinstance(scores, SymmetricScores):
        return scores
    n, rows, cols, values = _score_triplet(scores)
    # (u, v) and (v, u) share the key of their upper cell, min * n + max;
    # sorted, each cell is one run, whose max in any order is its weight.
    # Arrays are dropped once read: a few entry-length ones live at a time
    off = rows != cols
    keys = np.minimum(rows, cols)
    keys *= n
    keys += np.maximum(rows, cols, out=cols)
    del rows, cols
    keys, values = keys[off], values[off]
    del off
    order = np.argsort(keys)
    keys, values = keys[order], values[order]
    del order
    starts = run_starts(keys)
    values = np.maximum.reduceat(values, starts)
    keys = keys[starts]
    del starts
    cols = keys % n
    keys //= n
    return SymmetricScores(n, keys, cols, values)


def default_target_edges(scores) -> int:
    """Edge budget from thresholding the standardized scores at sigmoid 0.5.

    The positive upper-triangle entries of the symmetrized matrix are
    standardized to z-scores; entries with z > 0 (sigmoid above 0.5), that
    is the entries above their mean, count toward the budget. Raw counts are
    scale-dependent, so without standardization any positive count would
    pass the threshold and the rule would be vacuous. Pairs never observed carry no evidence and are excluded.
    Zero variance falls back to counting the positive entries.

    The result is clamped to [N-1, N(N-1)/2]: the coverage phase of
    :func:`sample_graph` can need up to N-1 edges to reach every node, so a
    lower default would make the no-isolated-node guarantee unsatisfiable on
    uneven supports.
    """
    s_sym = symmetrize_scores(scores)
    n, pos = s_sym.num_nodes, s_sym.weights
    if pos.size == 0:
        raise ValueError("score matrix is all zero; no edge budget derivable")
    if pos.std() > 0:
        count = int(np.count_nonzero(pos > pos.mean()))
    else:
        count = int(pos.size)
    lo = max(n - 1, 1)
    hi = n * (n - 1) // 2
    return int(min(max(count, lo), hi))


def sample_edges_without_replacement(s_sym, count: int,
                                     rng: np.random.Generator,
                                     unused=None) -> list:
    """Draw ``count`` distinct undirected edges with p_ij proportional to the
    symmetrized score of the pair, among the support entries that the boolean
    mask ``unused`` leaves True (all of them when it is None), and mark each
    picked entry False in it.

    Implemented as rounds of i.i.d. categorical draws with duplicates
    discarded, which is distributionally identical to sequential draws from
    the renormalized remainder; between rounds the distribution is rebuilt
    over the still-unused support, so the loop always terminates. Raises when
    the positive support is exhausted before ``count`` edges exist.
    """
    s_sym = symmetrize_scores(s_sym)
    rows, cols, weights = s_sym.rows, s_sym.cols, s_sym.weights
    if unused is None:
        unused = np.ones(len(weights), dtype=bool)
    num_unused = int(np.count_nonzero(unused))
    if count > num_unused:
        raise RuntimeError(
            f"score support holds only {num_unused} unused pairs, "
            f"cannot sample {count} more edges")

    picked = []
    while len(picked) < count:
        live = np.flatnonzero(unused)
        cdf = weights[live]
        cdf /= cdf.sum()
        np.cumsum(cdf, out=cdf)
        cdf[-1] = 1.0
        need = count - len(picked)
        draws = live[np.searchsorted(cdf, rng.random(max(64, 2 * need)))]
        # every draw is live; keep the first draw of each entry, in draw order
        _, first = np.unique(draws, return_index=True)
        new = draws[np.sort(first)[:need]]
        unused[new] = False
        picked += zip(rows[new].tolist(), cols[new].tolist())
    return picked


def _coverage_edges(s_sym, rng: np.random.Generator, unused) -> list:
    """Phase 1: guarantee every node at least one incident edge.

    Nodes are visited in order; a node already covered by an earlier edge is
    skipped, so the phase adds the minimum number of edges the sampled
    partners allow. The partner is drawn from the node's stored row entries,
    which makes the same single uniform draw as a draw over the dense row,
    and that entry is marked False in the mask ``unused``. An empty row falls
    back to a uniform random partner, which has no entry to mark.
    """
    s_sym = symmetrize_scores(s_sym)
    n, rows, cols, weights = (s_sym.num_nodes, s_sym.rows, s_sym.cols,
                              s_sym.weights)
    # row i of the symmetric matrix, columns ascending, is its entries (k, i)
    # with k < i, which a stable sort by column keeps ordered by k, then its
    # upper entries (i, k), which the row-major support stores in order
    upper_ptr = row_pointers(rows, n)
    lower_ptr = row_pointers(cols, n)
    by_col = np.argsort(cols, kind="stable")
    covered = np.zeros(n, dtype=bool)
    edges = []
    for i in range(n):
        if covered[i]:
            continue
        a, b = lower_ptr[i], lower_ptr[i + 1]
        lo, hi = upper_ptr[i], upper_ptr[i + 1]
        data = np.concatenate((weights[by_col[a:b]], weights[lo:hi]))
        total = data.sum()
        if total > 0:
            # rng.choice(row partners, p=data / total) draw for draw: numpy's
            # own arithmetic, without its per-call validation
            data /= total
            cdf = np.add.accumulate(data, out=data)
            cdf /= cdf[-1]
            k = a + int(cdf.searchsorted(rng.random(), side="right"))
            entry = by_col[k] if k < b else lo + k - b
            unused[entry] = False
            j = int(rows[entry] if k < b else cols[entry])
        else:
            log.warning("node %d has an all-zero score row; sampling a uniform partner", i)
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
        edges.append((min(i, j), max(i, j)))
        covered[i] = covered[j] = True
    return edges


def sample_graph(scores, target_edges: int | None = None, *,
                 rng: np.random.Generator) -> Graph:
    """Sample an undirected simple graph with exactly ``target_edges`` edges
    and no isolated nodes from the symmetrized score matrix.

    Phase 1 covers every node with one sampled edge (partner j with
    probability proportional to the score row). Phase 2 keeps sampling
    distinct edges, with pair probability proportional to its score over the
    global score mass, until the target is reached. The original graph is
    never consulted; the target must be supplied or derived from the scores.
    """
    s_sym = symmetrize_scores(scores)
    n = s_sym.num_nodes
    if n < 2:
        raise ValueError("need at least two nodes to synthesize a graph")
    if len(s_sym.weights) == 0:
        raise ValueError("score matrix is all zero; nothing to sample from")
    if target_edges is None:
        target_edges = default_target_edges(s_sym)
    # the coverage phase adds at most n-1 edges (its first covers two nodes,
    # each later one at least one more), so any target from n-1 up leaves it
    # room on every support; n(n-1)/2 is the simple graph's edge count
    if target_edges < n - 1:
        raise ValueError(f"target_edges={target_edges} cannot cover {n} nodes "
                         f"without isolates; need at least {n - 1}")
    if target_edges > n * (n - 1) // 2:
        raise ValueError(f"target_edges={target_edges} exceeds the "
                         f"{n * (n - 1) // 2} possible undirected edges")

    unused = np.ones(len(s_sym.weights), dtype=bool)
    edges = _coverage_edges(s_sym, rng, unused)
    edges += sample_edges_without_replacement(
        s_sym, target_edges - len(edges), rng, unused)

    arr = np.asarray(edges, dtype=np.int64)
    return from_edges(n, arr, symmetrize=True)

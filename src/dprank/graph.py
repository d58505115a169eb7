"""Directed simple graphs: ingestion, degrees and random walks."""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np


class EdgeListParseError(ValueError):
    """Raised when an edge-list line cannot be parsed; carries the line number."""

    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class Graph:
    """Immutable directed simple graph with dense node ids 0..N-1.

    Out-adjacency is stored in compressed sparse form
    (``out_indptr``/``out_indices``) with sorted neighbor lists, so edge
    membership is a binary search. ``original_ids`` records the pre-remap
    labels when the graph came from a loader that had to densify ids.
    """

    num_nodes: int
    edges: np.ndarray           # (M, 2) int64, lexicographically sorted, unique
    out_indptr: np.ndarray
    out_indices: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    original_ids: np.ndarray | None = field(default=None, compare=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.out_indices[self.out_indptr[node]:self.out_indptr[node + 1]]

    def has_edge(self, i: int, j: int) -> bool:
        row = self.out_neighbors(i)
        pos = np.searchsorted(row, j)
        return pos < len(row) and row[pos] == j

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.num_nodes == other.num_nodes and np.array_equal(self.edges, other.edges)


def unique_pairs(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> np.ndarray:
    """The distinct pairs ``(src[k], dst[k])`` of ids in [0, num_nodes) as an
    (M, 2) int64 array sorted lexicographically: ``np.unique(axis=0)`` of the
    stacked pairs, by a 1-D unique on the keys ``src * num_nodes + dst``."""
    keys = np.unique(np.asarray(src, dtype=np.int64) * num_nodes + dst)
    return np.column_stack(np.divmod(keys, num_nodes))


def row_pointers(index: np.ndarray, n: int) -> np.ndarray:
    """The n + 1 CSR pointers of entries whose rows are ``index``, sorted
    or not: entries of row i take slots ``ptr[i]:ptr[i + 1]`` once grouped."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n), out=ptr[1:])
    return ptr


def run_starts(keys: np.ndarray) -> np.ndarray:
    """The index of the first element of every run of equal values in
    sorted ``keys``; a run's length is the gap to the next start."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def from_edges(num_nodes: int, edges, symmetrize: bool = False,
               original_ids=None) -> Graph:
    """Build a simple directed Graph, dropping self-loops and duplicate edges.

    With ``symmetrize`` every surviving edge (i, j) also inserts (j, i), turning
    the input into the directed encoding of an undirected graph.
    """
    if num_nodes < 1:
        raise ValueError("graph needs at least one node")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise IndexError(
            f"edge endpoint out of range for num_nodes={num_nodes}"
        )
    edges = edges[edges[:, 0] != edges[:, 1]]              # no self-loops
    src, dst = edges[:, 0], edges[:, 1]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    edges = unique_pairs(src, dst, num_nodes)              # dedup + lexsort

    # the edges are sorted by (src, dst), so dst is already the CSR index array
    src, dst = edges[:, 0], edges[:, 1]
    out_indptr = row_pointers(src, num_nodes)
    out_degree = np.diff(out_indptr)
    in_degree = np.bincount(dst, minlength=num_nodes)
    assert out_degree.sum() == in_degree.sum() == len(edges)
    return Graph(
        num_nodes=num_nodes,
        edges=edges,
        out_indptr=out_indptr,
        out_indices=np.ascontiguousarray(dst),
        out_degree=out_degree,
        in_degree=in_degree,
        original_ids=None if original_ids is None else np.asarray(original_ids),
    )


def load_edge_list(source, format: str = "tsv", symmetrize: bool = False,
                   num_nodes: int | None = None) -> Graph:
    """Parse an edge list from a path or a text stream.

    Lines hold two integer node ids separated by whitespace (``tsv``) or a
    comma (``csv``); ``#``-prefixed lines and blank lines are ignored.

    When ``num_nodes`` is given, ids must already lie in [0, num_nodes) and are
    kept verbatim (ids >= num_nodes raise IndexError).  Otherwise the observed
    ids are remapped onto dense 0..N-1 in sorted order and the mapping is kept
    on the returned graph's ``original_ids``.
    """
    if format not in ("tsv", "csv"):
        raise ValueError(f"unknown edge-list format {format!r}")
    sep = "," if format == "csv" else None

    pairs = []
    with (open(source) if isinstance(source, (str, os.PathLike))
          else contextlib.nullcontext(source)) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(sep)
            if len(parts) != 2:
                raise EdgeListParseError(
                    f"expected two node ids, got {line!r}", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer node id in {line!r}", lineno) from None
            pairs.append((u, v))

    raw = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    original_ids = None
    if num_nodes is None:
        if len(raw) == 0:
            raise ValueError("edge list contains no edges and no declared node count")
        # the inverse of the sorted unique ids is the dense remap
        ids, inverse = np.unique(raw, return_inverse=True)
        raw = inverse.reshape(raw.shape)
        num_nodes = len(ids)
        original_ids = ids
    elif len(raw) and (raw.min() < 0 or raw.max() >= num_nodes):
        raise IndexError(f"node id outside declared range [0, {num_nodes})")

    return from_edges(num_nodes, raw, symmetrize=symmetrize,
                      original_ids=original_ids)


def write_edge_list(g: Graph, path) -> None:
    """Write the graph's edges (dense ids) one ``src<TAB>dst`` pair per line."""
    np.savetxt(path, g.edges, fmt="%d", delimiter="\t",
               header=f"nodes: {g.num_nodes}", comments="# ")


def write_id_map(g: Graph, path) -> None:
    """Persist the dense-id to original-id mapping as two-column CSV."""
    dense = np.arange(g.num_nodes)
    ids = dense if g.original_ids is None else g.original_ids
    np.savetxt(path, np.column_stack([dense, ids]), fmt="%d", delimiter=",",
               header="node_id,original_id", comments="")


@dataclass(frozen=True)
class WalkBatch:
    """Node pairs traversed by random walks plus the nominal pair budget.

    ``batch_size`` is the a-priori pair count ``len(starts) * r_wn * (r_wl - 1)``;
    it equals ``len(pairs)`` only when no walk terminated early at a node with
    out-degree zero.  The privacy calibration always uses the nominal count.
    """

    pairs: np.ndarray        # (B_actual, 2) int64
    batch_size: int          # nominal |E_B|
    starts: np.ndarray       # the walk start nodes, in order


def generate_walk_batch(g: Graph, node_list, r_wn: int, r_wl: int,
                        rng: np.random.Generator) -> WalkBatch:
    """Run ``r_wn`` random walks of up to ``r_wl`` nodes from every start node.

    Walks step uniformly over out-neighbors and emit each traversed edge as an
    ordered pair.  A walk reaching a node with no out-neighbors stops early.
    All walkers advance in lockstep on ``rng``, one draw per live walker per
    step, so the pairs come out step by step.
    """
    starts = np.asarray(node_list, dtype=np.int64)
    if starts.size == 0:
        raise ValueError("node_list must not be empty")
    if len(starts) and (starts.min() < 0 or starts.max() >= g.num_nodes):
        raise IndexError("walk start node out of range")
    if r_wn < 1:
        raise ValueError("r_wn must be >= 1")
    if r_wl < 2:
        raise ValueError("r_wl must be >= 2")

    current = np.repeat(starts, r_wn)
    steps = [np.empty((0, 2), dtype=np.int64)]
    for _ in range(r_wl - 1):
        current = current[g.out_degree[current] > 0]
        if len(current) == 0:
            break
        offset = rng.integers(g.out_degree[current])
        nxt = g.out_indices[g.out_indptr[current] + offset]
        steps.append(np.column_stack((current, nxt)))
        current = nxt

    return WalkBatch(pairs=np.concatenate(steps),
                     batch_size=len(starts) * r_wn * (r_wl - 1),
                     starts=starts)


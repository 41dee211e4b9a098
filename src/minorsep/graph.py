"""Immutable undirected graphs and mask-restricted traversals.

A Graph stores its adjacency in CSR form (indptr/indices) with neighbor
lists sorted ascending; every traversal that iterates neighbors therefore
visits them in ascending id order, which is what makes the rest of the
package reproducible.  Most operations take a VertexMask restricting them
to an induced subgraph ("live" vertices); vertices outside the mask are
treated as deleted.

Determinism rules implemented here and relied on everywhere else:

* connected components are labelled by rank: rank 0 is the largest, and
  components of equal size rank by their smallest id;
* a BFS is its depth array; `tree_path` steps from a vertex to its
  smallest-id neighbor one layer up, so BFS-tree paths need no parents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError

__all__ = [
    "Graph",
    "VertexMask",
    "build_graph",
    "connected_components",
    "bfs_layers",
    "ball",
    "tree_path",
]


class VertexMask:
    """A subset of vertex ids with a cached population count."""

    __slots__ = ("bits", "_size")

    def __init__(self, bits: np.ndarray):
        assert bits.dtype == np.bool_, "mask must be boolean"
        self.bits = bits
        self._size = int(bits.sum())

    @classmethod
    def empty(cls, n: int) -> "VertexMask":
        return cls(np.zeros(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "VertexMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_ids(cls, n: int, ids) -> "VertexMask":
        bits = np.zeros(n, dtype=bool)
        idx = np.asarray(list(ids) if not isinstance(ids, np.ndarray) else ids, dtype=np.int64)
        if idx.size:
            if idx.min() < 0 or idx.max() >= n:
                raise InputError(f"vertex id out of range 0..{n - 1}")
            bits[idx] = True
        return cls(bits)

    @property
    def size(self) -> int:
        return self._size

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def __contains__(self, v: int) -> bool:
        return bool(self.bits[v])

    def __len__(self) -> int:
        return self._size

    def minus(self, other: "VertexMask") -> "VertexMask":
        return VertexMask(self.bits & ~other.bits)

    def minus_ids(self, ids: np.ndarray) -> "VertexMask":
        bits = self.bits.copy()
        bits[ids] = False
        return VertexMask(bits)

    def union(self, other: "VertexMask") -> "VertexMask":
        return VertexMask(self.bits | other.bits)

    def intersect(self, other: "VertexMask") -> "VertexMask":
        return VertexMask(self.bits & other.bits)

    def __repr__(self) -> str:  # pragma: no cover
        return f"VertexMask(size={self._size} of {self.n})"


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph in CSR form; neighbor lists sorted ascending."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def m(self) -> int:
        return self.indices.shape[0] // 2

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (us, vs) with us < vs, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        tgt = self.indices
        keep = src < tgt
        return src[keep], tgt[keep].astype(np.int64)


def build_graph(n: int, edge_list) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Self-loops are rejected; parallel edges and reversed duplicates collapse
    to a single edge.  Ids must lie in [0, n).
    """
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    pairs = np.asarray(list(edge_list) if not isinstance(edge_list, np.ndarray) else edge_list,
                       dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise InputError("edge list must be pairs")
    if pairs.size:
        if pairs.min() < 0 or pairs.max() >= n:
            raise InputError(f"edge endpoint out of range 0..{n - 1}")
        if (pairs[:, 0] == pairs[:, 1]).any():
            bad = int(pairs[(pairs[:, 0] == pairs[:, 1]).argmax(), 0])
            raise InputError(f"self-loop at vertex {bad}")
    u, v = pairs[:, 0], pairs[:, 1]
    # one sort of both orientations' keys dedupes the edges and orders them
    # by (source, target); no pair exists when n = 0
    src, tgt = np.divmod(_sorted_unique(np.concatenate([u * n + v, v * n + u])), max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return Graph(n=n, indptr=indptr, indices=tgt)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an int array, by a sort and an
    adjacent compare.

    numpy's own `unique` (numpy 2.4) took 10-30x the time of np.sort on
    int64 arrays of 300 to 10^5 entries.
    """
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _gather(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (source, target) arrays for all edges leaving `frontier`."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    ends = np.cumsum(counts)
    if ends.size == 0 or ends[-1] == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    # output entry i sits at offset i - (ends - counts)[row] of its row
    pos = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    return np.repeat(frontier, counts), g.indices[pos]


def _masked_adjacency(g: Graph, keep: np.ndarray) -> sparse.csr_matrix:
    """The n x n matrix of the edges with both ends in `keep`.

    The other edges are stored as zeros and dropped, so the matrix is
    symmetric and a vertex outside `keep` has no entries.  float64 is the
    dtype csgraph computes in, so it makes no converted copy of its own.
    """
    edge = np.repeat(keep, np.diff(g.indptr)) & keep[g.indices]
    adj = sparse.csr_matrix(
        (edge, g.indices, g.indptr), shape=(g.n, g.n), dtype=np.float64, copy=True
    )
    adj.eliminate_zeros()
    return adj


def _connected(g: Graph, ids: np.ndarray) -> bool:
    """Whether the subgraph induced by `ids` is connected.

    Every id must lie in 0..n-1.  Costs O(edges at ids), not a pass over
    the whole graph: the edges leaving `ids` are filtered to those landing
    inside it and relabelled to positions in the sorted ids.  That k x k
    matrix is symmetric, so one directed BFS from position 0 reaches all k
    positions iff it is connected.
    """
    ids = _sorted_unique(ids)
    if ids.size <= 1:
        return ids.size == 1
    src, tgt = _gather(g, ids)
    pos = np.searchsorted(ids, tgt)
    inside = ids[np.minimum(pos, ids.size - 1)] == tgt
    # _gather lists the edges row by row, so the kept ones are in CSR order
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.searchsorted(ids, src[inside]), minlength=ids.size),
              out=indptr[1:])
    adj = sparse.csr_matrix(
        (np.ones(indptr[-1]), pos[inside], indptr), shape=(ids.size, ids.size)
    )
    return csgraph.breadth_first_order(adj, 0, return_predecessors=False).size == ids.size


def connected_components(
    g: Graph, live: VertexMask | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Components of the subgraph induced by `live` (every vertex when None).

    Returns (label, sizes).  label[v] is the rank of v's component, -1 for v
    outside `live`; sizes[k] is the size of component k.  Rank 0 is the
    largest component, ties going to the one with the smallest id, so sizes
    is descending.
    """
    keep = np.ones(g.n, dtype=bool) if live is None else live.bits
    # every vertex outside `keep` is a singleton of the masked matrix,
    # labelled -1 below
    count, raw = csgraph.connected_components(_masked_adjacency(g, keep), directed=False)
    ids = np.flatnonzero(keep)
    raw = raw[ids]
    sizes = np.bincount(raw, minlength=count)
    first = np.full(count, g.n, dtype=np.int64)
    np.minimum.at(first, raw, ids)
    order = np.lexsort((first, -sizes))
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count, dtype=np.int64)
    label = np.full(g.n, -1, dtype=np.int64)
    label[ids] = rank[raw]
    return label, sizes[order[:np.count_nonzero(sizes)]]


def bfs_layers(g: Graph, live: VertexMask, root: int, radius: int | None = None) -> np.ndarray:
    """Depths of the BFS from `root` within `live`: dist[v] is v's live
    distance from root, -1 outside `live` or unreached.

    Stops after `radius` layers when given.  The root must be live.
    """
    if root not in live:
        raise InputError(f"BFS root {root} is not in the mask")
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    d = 0
    while frontier.size and (radius is None or d < radius):
        tgt = _gather(g, frontier)[1]
        frontier = _sorted_unique(tgt[live.bits[tgt] & (dist[tgt] < 0)])
        d += 1
        dist[frontier] = d
    return dist


def ball(g: Graph, live: VertexMask, v: int, r: int) -> VertexMask:
    """Vertices within live-distance r of v (v included)."""
    if r < 0:
        raise InputError("ball radius must be nonnegative")
    return VertexMask(bfs_layers(g, live, v, radius=r) >= 0)


def _ball_sizes(adj: sparse.csr_matrix, r: int, sources: np.ndarray) -> np.ndarray:
    """Size of the radius-r ball around each source, in one csgraph pass.

    `adj` is `_masked_adjacency(g, live.bits)` and every source is live, so
    entry i equals ``ball(g, live, sources[i], r).size``.  The matrix is
    symmetric, so the directed search gives the undirected distances
    without csgraph symmetrizing a copy; `limit` is inclusive and leaves
    every vertex beyond r at infinity.
    """
    dist = csgraph.dijkstra(adj, unweighted=True, limit=r, indices=sources)
    return np.isfinite(dist).sum(axis=1)


def tree_path(g: Graph, dist: np.ndarray, x: int) -> np.ndarray:
    """Vertices of the BFS-tree path root..x inclusive, in root-first order.

    `dist` is a `bfs_layers` depth array; each step goes to the smallest-id
    neighbor one layer up, the neighbor lists being ascending.
    """
    d = int(dist[x])
    if d < 0:
        raise InputError(f"vertex {x} was not reached by the BFS")
    path = np.empty(d + 1, dtype=np.int64)
    path[d] = x
    for k in range(d, 0, -1):
        nb = g.neighbors(path[k])
        path[k - 1] = nb[np.argmax(dist[nb] == k - 1)]
    return path

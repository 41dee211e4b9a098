"""Immutable undirected graphs and mask-restricted traversals.

A Graph stores its adjacency in CSR form (indptr/indices) with neighbor
lists sorted ascending; every traversal that iterates neighbors therefore
visits them in ascending id order, which is what makes the rest of the
package reproducible.  Most operations take a VertexMask restricting them
to an induced subgraph ("live" vertices); vertices outside the mask are
treated as deleted.

Determinism rules implemented here and relied on everywhere else:

* connected components are reported largest first, ties by smallest
  contained id, and each component's ids are ascending;
* BFS parents are the smallest-id neighbor in the previous layer;
* all layer lists are ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError

__all__ = [
    "Graph",
    "VertexMask",
    "BfsLayers",
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
    u = np.minimum(pairs[:, 0], pairs[:, 1])
    v = np.maximum(pairs[:, 0], pairs[:, 1])
    # dedupe on the canonical orientation
    key = u * n + v
    _, uniq = np.unique(key, return_index=True)
    u, v = u[uniq], v[uniq]
    src = np.concatenate([u, v])
    tgt = np.concatenate([v, u])
    order = np.lexsort((tgt, src))
    src, tgt = src[order], tgt[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(n=n, indptr=indptr, indices=tgt)


def _gather(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (source, target) arrays for all edges leaving `frontier`."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    cum = np.zeros(frontier.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=cum[1:])
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, counts)
    return np.repeat(frontier, counts), g.indices[pos]


def _sub_csr(g: Graph, ids: np.ndarray):
    """CSR matrix of the subgraph induced by `ids` (relabeled 0..k-1)."""
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[ids] = np.arange(ids.size, dtype=np.int64)
    src, tgt = _gather(g, ids)
    t = remap[tgt]
    keep = t >= 0
    row = remap[src[keep]]
    col = t[keep]
    lens = np.bincount(row, minlength=ids.size)
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    data = np.ones(col.size, dtype=np.int8)
    return sparse.csr_matrix((data, col, indptr), shape=(ids.size, ids.size))


def connected_components(g: Graph, live: VertexMask | None = None) -> list[np.ndarray]:
    """Components of the subgraph induced by `live`, canonical order.

    Returned largest first, ties broken by smallest contained id; each
    component is an ascending id array.
    """
    if live is None:
        ids = np.arange(g.n, dtype=np.int64)
        adj = sparse.csr_matrix(
            (np.ones(g.indices.size, dtype=np.int8), g.indices, g.indptr), shape=(g.n, g.n)
        )
    else:
        ids = live.ids()
        adj = _sub_csr(g, ids)
    if ids.size == 0:
        return []
    _, labels = csgraph.connected_components(adj, directed=False)
    order = np.argsort(labels, kind="stable")
    sorted_ids = ids[order]
    sorted_lab = labels[order]
    bounds = np.flatnonzero(np.diff(sorted_lab)) + 1
    comps = np.split(sorted_ids, bounds)
    comps.sort(key=lambda c: (-c.size, int(c[0])))
    return comps


@dataclass
class BfsLayers:
    """Layered BFS from one root inside a mask.

    dist[v] is -1 for vertices not reached (outside the mask or in another
    component); parent[v] is the smallest-id neighbor of v in the previous
    layer, -1 for the root and unreached vertices.  layers[d] lists layer d
    ascending.
    """

    root: int
    dist: np.ndarray
    parent: np.ndarray
    layers: list = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.layers) - 1

    def reached(self) -> int:
        return int((self.dist >= 0).sum())


def bfs_layers(g: Graph, live: VertexMask, root: int, radius: int | None = None) -> BfsLayers:
    """BFS layering of `root`'s component within `live`.

    Stops after `radius` layers when given.  The root must be live.
    """
    if root not in live:
        raise InputError(f"BFS root {root} is not in the mask")
    dist = np.full(g.n, -1, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    layers = [frontier]
    d = 0
    while frontier.size and (radius is None or d < radius):
        src, tgt = _gather(g, frontier)
        ok = live.bits[tgt] & (dist[tgt] < 0)
        src, tgt = src[ok], tgt[ok]
        if tgt.size == 0:
            break
        order = np.lexsort((src, tgt))
        tgt, src = tgt[order], src[order]
        first = np.ones(tgt.size, dtype=bool)
        first[1:] = tgt[1:] != tgt[:-1]
        frontier = tgt[first]
        d += 1
        dist[frontier] = d
        parent[frontier] = src[first]
        layers.append(frontier)
    return BfsLayers(root=root, dist=dist, parent=parent, layers=layers)


def ball(g: Graph, live: VertexMask, v: int, r: int) -> VertexMask:
    """Vertices within live-distance r of v (v included)."""
    if r < 0:
        raise InputError("ball radius must be nonnegative")
    layers = bfs_layers(g, live, v, radius=r)
    return VertexMask(layers.dist >= 0)


def tree_path(layers: BfsLayers, x: int) -> np.ndarray:
    """Vertices of the BFS-tree path root..x inclusive, in root-first order."""
    if layers.dist[x] < 0:
        raise InputError(f"vertex {x} was not reached from root {layers.root}")
    path = [x]
    while path[-1] != layers.root:
        path.append(int(layers.parent[path[-1]]))
    path.reverse()
    return np.asarray(path, dtype=np.int64)

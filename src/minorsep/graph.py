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
        return 0 <= v < self.n and bool(self.bits[v])

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


def _index_dtype(g: Graph, *counts: int) -> type:
    """The dtype of a csgraph matrix's index arrays over g: int32 when every
    vertex id and edge offset fits it, and every one of `counts`, else
    int64.  scipy would downcast g's int64 arrays to int32 itself, but only
    after a pass checking their range, so the matrices here are built on
    int32 arrays to begin with."""
    return np.int32 if max(g.n, g.indices.size, *counts) < 2**31 else np.int64


def _masked_adjacency(g: Graph, keep: np.ndarray) -> sparse.csr_matrix:
    """The n x n matrix of the edges with both ends in `keep`.

    The other edges are stored as zeros and dropped, so the matrix is
    symmetric and a vertex outside `keep` has no entries.  float64 is the
    dtype csgraph computes in, so it makes no converted copy of its own.
    """
    edge = np.repeat(keep, np.diff(g.indptr)) & keep[g.indices]
    idx = _index_dtype(g)
    adj = sparse.csr_matrix(
        (edge, g.indices.astype(idx), g.indptr.astype(idx)), shape=(g.n, g.n),
        dtype=np.float64, copy=False,
    )
    adj.eliminate_zeros()
    return adj


def _connected_sets(g: Graph, sets) -> np.ndarray:
    """Whether each id array in the sequence `sets` induces a connected
    subgraph of g, as a bool array: an empty set does not, a one-vertex set
    does.

    Every id must lie in 0..n-1; a set may be unsorted and repeat ids, and
    sets may overlap.  Costs O(edges at the sets) and one csgraph pass for
    them all, not a pass over the whole graph.  Id v of set i is numbered
    i*n + v, so each set owns a block of positions in the sorted distinct
    numbers and overlapping sets stay apart.  The edges leaving a block are
    filtered to those landing inside it and relabelled to positions; that
    matrix is symmetric, so its strong components are its components, and
    a set is connected iff all its positions share one label.  No row holds
    an entry twice, as g's neighbor lists do not, which the strong pass
    needs: scipy 1.17 was seen to mislabel a matrix with repeated entries.
    """
    k = len(sets)
    key = np.concatenate([np.empty(0, dtype=np.int64), *sets], dtype=np.int64)
    key += np.repeat(np.arange(k, dtype=np.int64) * g.n, [np.size(ids) for ids in sets])
    key = _sorted_unique(key)
    blk, vid = np.divmod(key, max(g.n, 1))
    count = np.bincount(blk, minlength=k)
    if count.max(initial=0) <= 1:
        return count == 1
    # the edges leaving each position, row by row as `_gather` lists them,
    # their targets numbered in the source's block
    starts = g.indptr[vid]
    deg = g.indptr[vid + 1] - starts
    ends = np.zeros(key.size + 1, dtype=np.int64)
    np.cumsum(deg, out=ends[1:])
    tgt = g.indices[np.arange(ends[-1]) + np.repeat(starts - ends[:-1], deg)]
    tgt += np.repeat(key - vid, deg)
    pos = np.searchsorted(key, tgt)
    inside = key.take(pos, mode="clip") == tgt
    idx = _index_dtype(g, key.size, tgt.size)
    kept = np.zeros(inside.size + 1, dtype=idx)
    np.cumsum(inside, out=kept[1:])
    adj = sparse.csr_matrix(
        (np.ones(kept[-1]), pos[inside].astype(idx), kept[ends]), shape=(key.size, key.size)
    )
    parts, label = csgraph.connected_components(adj, directed=True, connection="strong")
    whole = count > 0
    if parts > np.count_nonzero(whole):
        # no component spans two blocks, so some block holds two labels
        first = label.take(np.cumsum(count) - count, mode="clip")
        whole &= np.bincount(blk[label != np.repeat(first, count)], minlength=k) == 0
    return whole


def _raw_components(g: Graph, live: VertexMask | None) -> tuple:
    """(ids, raw, sizes): the ids in `live` (every id when None), csgraph's
    unranked component label of each, and the number of them per raw label.

    Every vertex outside `live` is a singleton of the masked matrix and is
    not counted, so its label's size is 0.  The matrix is symmetric, so its
    strong components are its components, found without the transpose an
    undirected pass builds.
    """
    keep = np.ones(g.n, dtype=bool) if live is None else live.bits
    count, raw = csgraph.connected_components(
        _masked_adjacency(g, keep), directed=True, connection="strong"
    )
    ids = np.flatnonzero(keep)
    raw = raw[ids]
    return ids, raw, np.bincount(raw, minlength=count)


def connected_components(
    g: Graph, live: VertexMask | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Components of the subgraph induced by `live` (every vertex when None).

    Returns (label, sizes).  label[v] is the rank of v's component, -1 for v
    outside `live`; sizes[k] is the size of component k.  Rank 0 is the
    largest component, ties going to the one with the smallest id, so sizes
    is descending.
    """
    ids, raw, sizes = _raw_components(g, live)
    count = sizes.size
    first = np.full(count, g.n, dtype=np.int64)
    np.minimum.at(first, raw, ids)
    order = np.lexsort((first, -sizes))
    rank = np.empty(count, dtype=np.int64)
    rank[order] = np.arange(count, dtype=np.int64)
    label = np.full(g.n, -1, dtype=np.int64)
    label[ids] = rank[raw]
    return label, sizes[order[:np.count_nonzero(sizes)]]


def _component_sizes(g: Graph, live: VertexMask | None = None) -> np.ndarray:
    """The sizes of the components of the subgraph induced by `live`,
    descending: `connected_components(g, live)[1]`, from the same pass but
    with no label array and no ranking of equal sizes by smallest id."""
    sizes = _raw_components(g, live)[2]
    return -np.sort(-sizes[sizes > 0])


def _reach_without(g: Graph, v: int, root: int) -> np.ndarray:
    """Boolean mask of the vertices that `root` reaches in g - {v}, for
    root != v: ``bfs_layers(g, all but v, root) >= 0``.

    One csgraph BFS on g's matrix with row v cut out.  v is then a sink that
    no path leaves, so it is dropped from the reach afterwards, and no
    per-edge mask is built as `_masked_adjacency` would.  The traversal is
    directed, so csgraph does not symmetrize the matrix.
    """
    lo, hi = g.indptr[v], g.indptr[v + 1]
    idx = _index_dtype(g)
    indptr = g.indptr.astype(idx)
    indptr[v + 1:] -= hi - lo
    indices = np.concatenate((g.indices[:lo], g.indices[hi:]), dtype=idx)
    adj = sparse.csr_matrix((np.ones(indices.size), indices, indptr), shape=(g.n, g.n))
    reach = np.zeros(g.n, dtype=bool)
    reach[csgraph.breadth_first_order(adj, root, return_predecessors=False)] = True
    reach[v] = False
    return reach


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


def _ball_sizes(g: Graph, live: VertexMask, r: int, sources: np.ndarray) -> np.ndarray:
    """Size of the radius-r ball within live around each (live) source:
    entry i equals ``ball(g, live, sources[i], r).size``.

    A bit-parallel BFS from every live vertex at once, as in Akiba, Iwata
    and Yoshida ("Fast exact shortest-path distance queries on large
    networks by pruned landmark labeling", SIGMOD 2013).  The k live ids are
    numbered 0..k-1, and column j of a (ceil(k/64), k) uint64 array holds,
    as bits, the ids within distance t of live id j; it starts as j alone.
    Each round ORs into column j the columns of j's live neighbors and its
    own, by one `bitwise_or.reduceat` over the columns gathered per segment,
    so after t rounds column j holds j's radius-t ball.  Each segment lists
    j's live neighbors and then j itself: reduceat yields an element, not
    the identity, for an empty segment, and j's own entry keeps none empty.
    A round that changes nothing ends the search.  Distance is symmetric, so
    column j's bits, counted by `np.bitwise_count`, count j's ball.  A round
    gathers ceil(k/64) words per live edge end and per live id.
    """
    ids = live.ids()
    k = ids.size
    j = np.arange(k)
    local = np.full(g.n, -1, dtype=np.int64)
    local[ids] = j
    src, tgt = _gather(g, ids)
    inside = live.bits[tgt]
    seg = np.concatenate([local[src[inside]], j])
    members = np.concatenate([local[tgt[inside]], j])[np.argsort(seg, kind="stable")]
    count = np.bincount(seg, minlength=k)
    words = (k + 63) >> 6
    # the segments of every word row, in one flat reduceat
    starts = (np.cumsum(count) - count + members.size * np.arange(words)[:, None]).ravel()
    cols = np.zeros((words, k), dtype=np.uint64)
    cols[j >> 6, j] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    for _ in range(r):
        grown = np.bitwise_or.reduceat(cols.take(members, axis=1).ravel(), starts)
        grown = grown.reshape(words, k)
        if np.array_equal(grown, cols):
            break
        cols = grown
    return np.bitwise_count(cols).sum(axis=0)[local[sources]]


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

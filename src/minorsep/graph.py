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
* a BFS is its depth array, which every correct BFS gives alike;
  `tree_path` steps from a vertex to its smallest-id neighbor one layer
  up, so BFS-tree paths need no parents.
"""

from __future__ import annotations

import itertools
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
        self._size = int(np.count_nonzero(bits))

    @classmethod
    def empty(cls, n: int) -> "VertexMask":
        return cls(np.zeros(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "VertexMask":
        return cls(np.ones(n, dtype=bool))

    @classmethod
    def from_ids(cls, n: int, ids) -> "VertexMask":
        bits = np.zeros(n, dtype=bool)
        idx = _int_array(ids)
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

    def __repr__(self) -> str:
        return f"VertexMask(size={self._size} of {self.n})"


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph in CSR form; neighbor lists sorted ascending.

    `build_graph` makes `indptr` and `indices` read-only, so a Graph never
    changes once built, and what is computed from it alone may be kept on
    it (`separator.balanced_separator` keeps its prologue).  What is kept is
    kept per object, so a Graph compares and hashes by identity.
    """

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
        """All edges as int64 arrays (us, vs) with us < vs, lexicographically
        sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        tgt = self.indices
        keep = src < tgt
        return src[keep], tgt[keep]


def _int_array(ids) -> np.ndarray:
    """Vertex ids (or (u, v) pairs) as an int64 array; InputError unless
    numpy reads them as integers, so no float is rounded and no string
    parsed.  An empty input of any dtype passes.

    An array is judged by its dtype alone.  Any other input is also read
    entry by entry, since numpy infers one dtype for all of it: a bool
    among ints would pass as 0 or 1, and an int past int64 would make the
    whole input uint64, float or object."""
    if isinstance(ids, np.ndarray):
        arr = ids
    else:
        ids = list(ids)
        arr = np.asarray(ids)
        if arr.size and arr.dtype.kind != "b":
            types = set(map(type, _entries(ids, arr.ndim)))
            if bool in types or np.bool_ in types:
                raise InputError("vertex ids must be integers, got bool values")
            if (arr.dtype.kind not in "iu" or arr.dtype == np.uint64) and all(
                    issubclass(t, (int, np.integer)) for t in types) and not all(
                    -2**63 <= x < 2**63 for x in _entries(ids, arr.ndim)):
                raise InputError("vertex id out of range")
    if arr.size and arr.dtype.kind not in "iu":
        raise InputError(f"vertex ids must be integers, got {arr.dtype} values")
    return arr.astype(np.int64, copy=False)


def _entries(ids: list, ndim: int):
    """The scalars of a nested list that numpy reads with `ndim` axes."""
    for _ in range(ndim - 1):
        ids = itertools.chain.from_iterable(ids)
    return ids


def build_graph(n: int, edge_list) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs.

    Self-loops are rejected; parallel edges and reversed duplicates collapse
    to a single edge.  Ids must be integers in [0, n).
    """
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    pairs = _int_array(edge_list)
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
    indptr.flags.writeable = tgt.flags.writeable = False
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


def _edge_slots(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row, slot) arrays for all edges leaving `frontier`: row is the
    position in `frontier` of the edge's source, so a per-vertex array over
    `frontier` is read per edge by indexing it with row, and slot is the
    edge's index in g.indices."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    row = np.repeat(np.arange(frontier.size), counts)
    # entry i sits at offset i - (ends - counts)[row] of its row
    return row, np.arange(row.size) + (starts - np.cumsum(counts) + counts)[row]


def _gather(g: Graph, frontier: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat (row, target) arrays for all edges leaving `frontier`, row as
    in `_edge_slots`."""
    row, slot = _edge_slots(g, frontier)
    return row, g.indices[slot]


def _adjacency(g: Graph, cut: np.ndarray | None = None) -> sparse.csr_matrix:
    """g's csgraph matrix, the one every csgraph pass over g's ids runs on,
    with every vertex in the id array `cut` made a sink: each entry of its
    row points at itself.  With no `cut` it is g's plain matrix.

    No path leaves a sink, so under a directed pass it is its own strong
    component and reaches nothing, and the other vertices' components and
    distances are those of g minus `cut`.  The rewrite costs O(edges at
    `cut`) on the copy of g's indices that the matrix needs anyway: int32
    when every id and edge offset fits it, as scipy would downcast g's int64
    arrays itself, but only after a pass checking their range.  With the 28%
    of grid 316^2 that `sparse_large`'s separator cuts it built in 1.88 ms,
    against 2.59 for a per-edge mask and compaction (2-vCPU VM).  A sink
    row may repeat its self-loop: scipy 1.17's strong pass never pushes a
    self-loop's target, whose vertex is numbered already, while a repeated
    entry to another vertex made it loop forever.
    """
    idx = np.int32 if max(g.n, g.indices.size) < 2**31 else np.int64
    indices = g.indices.astype(idx)
    if cut is not None:
        row, slot = _edge_slots(g, cut)
        indices[slot] = cut[row]
    return sparse.csr_matrix(
        (np.ones(indices.size), indices, g.indptr.astype(idx)), shape=(g.n, g.n)
    )


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
    # the edges leaving each position, their targets numbered in the
    # source's block; row ascends, so a position's kept edges start where
    # its number would sort among the kept rows
    row, slot = _edge_slots(g, vid)
    tgt = g.indices[slot] + (key - vid)[row]
    pos = np.searchsorted(key, tgt)
    inside = key.take(pos, mode="clip") == tgt
    adj = sparse.csr_matrix(
        (np.ones(np.count_nonzero(inside)), pos[inside],
         np.searchsorted(row[inside], np.arange(key.size + 1))),
        shape=(key.size, key.size),
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

    Every vertex outside `live` is a sink of `_adjacency`'s matrix, a
    singleton component, and is not counted, so its label's size is 0.  Off
    the sinks the matrix is symmetric, so the strong components of the live
    vertices are their components, found without the transpose an
    undirected pass builds.
    """
    keep = np.ones(g.n, dtype=bool) if live is None else live.bits
    count, raw = csgraph.connected_components(
        _adjacency(g, np.flatnonzero(~keep)), directed=True, connection="strong"
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

    One csgraph BFS on `_adjacency`'s matrix with v made a sink.  No path
    leaves v, so it is dropped from the reach afterwards.  The traversal is
    directed, so csgraph does not symmetrize the matrix.
    """
    adj = _adjacency(g, np.array([v]))
    reach = np.zeros(g.n, dtype=bool)
    reach[csgraph.breadth_first_order(adj, root, return_predecessors=False)] = True
    reach[v] = False
    return reach


def bfs_layers(g: Graph, live: VertexMask, root: int) -> np.ndarray:
    """Depths of the BFS from `root` within `live`: dist[v] is v's live
    distance from root, -1 outside `live` or unreached.  The root must be
    live.

    One csgraph BFS on `_adjacency`'s matrix, with every vertex outside
    `live` a sink, lists the reached ids in BFS order with their parents.
    The search enters the sinks beside the live vertices but leaves none, so
    dropping them from the order leaves the live BFS, and a live vertex's
    parent is live.  Each sink costs the search one entry; the solver calls
    it with 3*|live| >= 2n, so at most a third of g is cut.  Pointer
    doubling on the parents' positions gives the depths in ceil(log2(depth))
    rounds of array work, none per layer: up[i] is the position depth[i]
    steps above i, until every pointer reaches the root.
    """
    if root not in live:
        raise InputError(f"BFS root {root} is not in the mask")
    order, pred = csgraph.breadth_first_order(
        _adjacency(g, np.flatnonzero(~live.bits)), root, directed=True,
        return_predecessors=True,
    )
    order = order[live.bits[order]]
    pred[root] = root
    at = np.empty(g.n, dtype=np.intp)
    at[order] = np.arange(order.size)
    up = at[pred[order]]
    depth = np.ones(order.size, dtype=np.int64)
    depth[0] = 0
    while up.any():
        depth += depth[up]
        up = up[up]
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[order] = depth
    return dist


def ball(g: Graph, live: VertexMask, v: int, r: int) -> VertexMask:
    """Vertices within live-distance r of v (v included)."""
    if r < 0:
        raise InputError("ball radius must be nonnegative")
    dist = bfs_layers(g, live, v)
    return VertexMask((dist >= 0) & (dist <= r))


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
    row, tgt = _gather(g, ids)
    inside = live.bits[tgt]
    seg = np.concatenate([row[inside], j])
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

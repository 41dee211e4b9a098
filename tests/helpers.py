"""Independent oracles and hand-built instances shared by the test modules.

Everything in here is implemented from scratch on purpose, without touching
the package internals, so that agreement between the two routes means
something.
"""

import heapq
import math
from collections import deque
from itertools import combinations

import numpy as np

from minorsep.graph import build_graph
from minorsep.rng import truncated_exponential


def heap_partition(g, live, delta, rng):
    """Shifted-center assignment by lazy Dijkstra over (key, center, vertex).

    Draws the shifts exactly as `padded_partition` does, then settles
    vertices one heap pop at a time; the tuple order sends key ties to the
    smallest center.  Returns (center array, {vertex: shift}).
    """
    ids = live.ids()
    center = np.full(g.n, -1, dtype=np.int64)
    if ids.size == 0:
        return center, {}
    rate = 2.0 * math.log(max(ids.size, 2)) / delta
    shifts = truncated_exponential(rng.block_floats(ids.size), rate, delta / 2.0)
    heap = [(-s, v, v) for v, s in zip(ids.tolist(), shifts.tolist())]
    heapq.heapify(heap)
    settled = 0
    while settled < ids.size:
        key, c, v = heapq.heappop(heap)
        if center[v] >= 0:
            continue
        center[v] = c
        settled += 1
        for w in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
            if live.bits[w] and center[w] < 0:
                heapq.heappush(heap, (key + 1.0, c, w))
    return center, dict(zip(ids.tolist(), shifts.tolist()))


def uf_components(n, edges):
    """Connected components by union-find, as sorted vertex lists.

    Ordered largest first, ties by smallest member, to match the package's
    canonical ordering.
    """
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    comps = sorted(groups.values(), key=lambda c: (-len(c), c[0]))
    return comps


def bfs_dist(adj, sources):
    """Plain deque BFS distances; -1 where unreached."""
    dist = {v: -1 for v in adj}
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def adjacency(n, edges, keep=None):
    """Adjacency dict restricted to `keep` (iterable of vertices) if given."""
    live = set(range(n)) if keep is None else set(keep)
    adj = {v: [] for v in live}
    for u, v in edges:
        if u in live and v in live:
            adj[u].append(v)
            adj[v].append(u)
    return adj


def brute_balanced(n, edges, sep):
    """Reference balance check: no component of G - sep exceeds 2n/3."""
    sep = set(sep)
    adj = adjacency(n, edges, keep=set(range(n)) - sep)
    seen = set()
    worst = 0
    for v in adj:
        if v in seen:
            continue
        d = bfs_dist(adj, [v])
        comp = {w for w, dw in d.items() if dw >= 0}
        seen |= comp
        worst = max(worst, len(comp))
    return 3 * worst <= 2 * n, worst


def min_separator_size(n, edges):
    """Smallest balanced separator by exhaustive subset search."""
    for k in range(n + 1):
        for sep in combinations(range(n), k):
            ok, _ = brute_balanced(n, edges, sep)
            if ok:
                return k
    raise AssertionError("unreachable: full vertex set always balances")


def connected_edge_masks(n):
    """Yield edge lists of every labeled connected graph on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        reach = {0}
        frontier = [0]
        adj = adjacency(n, edges)
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        if len(reach) == n:
            yield edges


def deep_anchor(leaves, tail):
    """Star blob with a long pendant path; vertex 0 anchors the far end.

    Vertex 0's only neighbor sits at the deep end of the tail, so the first
    growth attempt for the branch {0} is stuck behind the layering and the
    driver is forced into a layer cut (long tail) or a deep-branch extension
    (short tail).
    """
    edges = [(1, 2 + i) for i in range(leaves)]
    t0 = 2 + leaves
    edges.append((1, t0))
    for i in range(tail - 1):
        edges.append((t0 + i, t0 + i + 1))
    edges.append((0, t0 + tail - 1))
    return build_graph(2 + leaves + tail, edges)


def fallback_tree():
    """Four ten-vertex stars hung off a hub behind a two-vertex bridge.

    The cheap per-branch selector would keep the bridge and let the dropped
    stars reattach into one oversized component, so the driver has to fall
    back to taking the branch vertices themselves.
    """
    edges = [(0, 1), (1, 2)]
    nxt = 3
    for _ in range(4):
        c = nxt
        edges.append((2, c))
        for j in range(9):
            edges.append((c, nxt + 1 + j))
        nxt += 10
    return build_graph(nxt, edges)


def petersen():
    """Petersen graph; spoke pairs {i, i+5} form five branch sets of K5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return build_graph(10, edges)


def np_edges(g):
    """Graph edges as a list of int tuples for the python-side oracles."""
    us, vs = g.edges()
    return list(zip(us.tolist(), vs.tolist()))

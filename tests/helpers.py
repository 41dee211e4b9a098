"""Independent oracles and hand-built instances shared by the test modules.

Everything in here is implemented from scratch on purpose, without touching
the package internals, so that agreement between the two routes means
something.
"""

import heapq
import io
import math
from collections import deque
from itertools import combinations

import numpy as np

from minorsep.errors import InputError
from minorsep.graph import ball, build_graph
from minorsep.rng import stream, truncated_exponential


def heap_partition(g, live, delta, rng):
    """Shifted-center assignment by lazy Dijkstra over (key, center, vertex).

    Draws the shifts exactly as `padded_partition` does, then settles
    vertices one heap pop at a time; the tuple order sends key ties to the
    smallest center.  Returns (center array, shift array); both are filled
    on the live ids only.
    """
    ids = live.ids()
    center = np.full(g.n, -1, dtype=np.int64)
    shift = np.full(g.n, np.nan)
    if ids.size == 0:
        return center, shift
    rate = 2.0 * math.log(max(ids.size, 2)) / delta
    shifts = truncated_exponential(rng.block_floats(ids.size), rate, delta / 2.0)
    shift[ids] = shifts
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
    return center, shift


def lexsort_csr(n, pairs):
    """(indptr, indices) of the simple graph on `pairs` as the lexsort build
    made them: dedupe on (min, max), store both orientations, order by
    np.lexsort on (source, target)."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    uv = np.unique(np.sort(pairs, axis=1), axis=0)
    src = np.concatenate([uv[:, 0], uv[:, 1]])
    tgt = np.concatenate([uv[:, 1], uv[:, 0]])
    order = np.lexsort((tgt, src))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return indptr, tgt[order]


def loop_exact_center(g, live, r, n):
    """The exact center scan as one `ball` call per live vertex: the smallest
    live id whose radius-r ball holds 2n/3 of n, or None."""
    for v in live.ids().tolist():
        if 3 * ball(g, live, v, r).size >= 2 * n:
            return v
    return None


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


def component_lists(label, sizes):
    """`connected_components`' (label, sizes) as the canonical list of
    components: ascending id arrays, largest first, ties by smallest id."""
    return [np.flatnonzero(label == k) for k in range(sizes.size)]


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


# -- per-edge loop references for the instance generators and the text format

def loop_grid_edges(rows, cols, wrap):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            elif wrap:
                edges.append((v, i * cols))
            if i + 1 < rows:
                edges.append((v, v + cols))
            elif wrap:
                edges.append((v, j))
    return edges


def loop_family(family, params, seed=0):
    """(n, edge list) of a family, one Python tuple per edge."""
    if family in ("grid", "torus"):
        rows, cols = params
        return rows * cols, loop_grid_edges(rows, cols, wrap=family == "torus")
    (n,) = params
    if family == "path":
        return n, [(i, i + 1) for i in range(n - 1)]
    if family == "cycle":
        return n, [(i, (i + 1) % n) for i in range(n)]
    if family == "star":
        return n + 1, [(0, i) for i in range(1, n + 1)]
    if family == "complete":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "tree":
        rng = stream(seed, "tree")
        return n, [(rng.next_below(k), k) for k in range(1, n)]
    raise ValueError(family)


def loop_graph_to_text(g):
    us, vs = g.edges()
    out = io.StringIO()
    out.write(f"p {g.n} {us.size}\n")
    for u, v in zip(us.tolist(), vs.tolist()):
        out.write(f"{u} {v}\n")
    return out.getvalue()


def loop_read_edge_list(lines):
    """The edge-list reader as one line loop over `lines`."""
    header = None
    edges = []
    declared_m = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if header is None:
            if parts[0] != "p" or len(parts) != 3:
                raise InputError(f"line {lineno}: expected header 'p <n> <m>'")
            try:
                n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"line {lineno}: header fields must be integers") from None
            if n < 0 or declared_m < 0:
                raise InputError(f"line {lineno}: header fields must be nonnegative")
            header = (n, declared_m)
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: endpoints must be integers") from None
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if header is None:
        raise InputError("line 1: missing header 'p <n> <m>'")
    if len(edges) != declared_m:
        raise InputError(f"header declares {declared_m} edges but file has {len(edges)}")
    return build_graph(header[0], edges)

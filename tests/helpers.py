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
from hypothesis import strategies as st

from minorsep.errors import InputError
from minorsep.graph import VertexMask, ball, build_graph, connected_components
from minorsep.instances import InstanceSpec, generate
from minorsep.rng import stream, truncated_exponential


def gen(family, *params, seed=0):
    """The instance of `family` with these parameters and seed."""
    return generate(InstanceSpec(family, params, seed))


def heap_partition(g, live, delta, rng):
    """Shifted-center assignment by lazy Dijkstra over (key, center, vertex).

    Draws the shifts exactly as `ldd` does, then settles
    vertices one heap pop at a time; the tuple order sends key ties to the
    smallest center.  Returns (center array, shift array); both are filled
    on the live ids only.
    """
    return heap_labels(g, live, delta, rng)[:2]


def heap_labels(g, live, delta, rng):
    """`heap_partition`'s (center, shift) and the key each live vertex
    settled with, NaN elsewhere."""
    ids = live.ids()
    center = np.full(g.n, -1, dtype=np.int64)
    shift = np.full(g.n, np.nan)
    final = np.full(g.n, np.nan)
    if ids.size == 0:
        return center, shift, final
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
        final[v] = key
        settled += 1
        for w in g.indices[g.indptr[v]:g.indptr[v + 1]].tolist():
            if live.bits[w] and center[w] < 0:
                heapq.heappush(heap, (key + 1.0, c, w))
    return center, shift, final


@st.composite
def live_graphs(draw):
    """A hypothesis strategy: a random graph of up to 30 vertices and a
    live mask on it."""
    n = draw(st.integers(1, 30))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=5 * n))
    g = build_graph(n, [(u, v) for u, v in pairs if u != v])
    bits = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return g, VertexMask(bits)


def parts(center):
    """An LDD's parts as (center, member ids ascending) pairs, sorted by
    center id; `center` is -1 off the live vertices."""
    live = np.flatnonzero(center >= 0)
    order = np.argsort(center[live], kind="stable")
    grouped = {}
    for v in live[order].tolist():
        grouped.setdefault(int(center[v]), []).append(v)
    return [(c, np.array(vs, dtype=np.int64)) for c, vs in sorted(grouped.items())]


def large_inner_component(g, live, center, n):
    """Step 1's question of an LDD with centers `center`, answered in full:
    the smallest id of rank 0 of `connected_components` on live minus every
    vertex with a live neighbor of another center, when that component
    holds more than 2n/3 of n; else None."""
    cut = {v for u, w in np_edges(g) for v in (u, w)
           if center[u] >= 0 and center[w] >= 0 and center[u] != center[w]}
    inner = VertexMask.from_ids(g.n, [v for v in live.ids().tolist() if v not in cut])
    label, sizes = connected_components(g, inner)
    return int(np.argmax(label == 0)) if sizes.size and 3 * int(sizes[0]) > 2 * n else None


def count_calls(monkeypatch, targets):
    """Wrap each (module, attribute, key) target to count its calls under
    key; returns the dict of counts, zero for every key."""
    calls = dict.fromkeys((key for _, _, key in targets), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, key in targets:
        monkeypatch.setattr(module, attr, counted(key, getattr(module, attr)))
    return calls


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


def two_pass_prologue(g):
    """The solver's prologue as two component passes: label g, then label
    its largest component C minus x, C's smallest id.  Returns (x, live,
    lone) as `separator._prologue` does: nothing to remove (x and live
    None) when C holds at most 2n/3, else {x} when live is under 2n/3,
    else None."""
    n = g.n
    label, sizes = connected_components(g)
    if not sizes.size or 3 * int(sizes[0]) <= 2 * n:
        return None, None, VertexMask.empty(n)
    scope = label == 0
    x = int(np.argmax(scope))
    scope[x] = False
    live = VertexMask(connected_components(g, VertexMask(scope))[0] == 0)
    return x, live, VertexMask.from_ids(n, [x]) if 3 * live.size < 2 * n else None


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


def bfs_components(n, edges, keep):
    """The components of the subgraph that the vertices `keep` induce, by a
    plain BFS from each unreached vertex in turn: ascending id lists,
    largest first, ties by smallest id."""
    adj = adjacency(n, edges, keep)
    seen, comps = set(), []
    for s in sorted(adj):
        if s not in seen:
            comp = sorted(v for v, d in bfs_dist(adj, [s]).items() if d >= 0)
            seen.update(comp)
            comps.append(comp)
    return sorted(comps, key=lambda c: (-len(c), c[0]))


def induces_connected(n, edges, ids):
    """Whether the vertices `ids` (repeats allowed) induce a connected
    subgraph, by a plain BFS inside them; the empty set does not."""
    keep = set(ids)
    if not keep:
        return False
    dist = bfs_dist(adjacency(n, edges, keep=keep), [min(keep)])
    return all(d >= 0 for d in dist.values())


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


def retired_fallback():
    """Seven vertices on which, with h = 6 and ell = 3, only fallback level 2
    balances: two iterations retire three branches, and neither the selector
    side nor the kept branches leave every component within 2n/3, so the
    retired branches go into the separator too (all seven vertices).
    """
    return build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4),
                           (1, 5), (1, 6), (2, 5), (3, 5), (3, 6), (4, 6)])


def two_hub_tail(leaves=22, tail=14):
    """Two hubs 1 and 2 over a shared set of leaves, a tail hung off hub 2,
    and vertex 0 joined to hub 1 and to the tail's far end.

    With h = 9 and ell = 1, step 2 takes hub 1 as a branch and the live
    update searches what is left; then branch {0} is stuck behind the tail,
    which is heavy enough for a layer cut.  The cut assigns live with no
    search, so the next step 1 must not take the update's record.
    """
    t0 = 3 + leaves
    edges = [(0, 1), (0, t0 + tail - 1), (2, t0)]
    edges += [(hub, 3 + i) for hub in (1, 2) for i in range(leaves)]
    edges += [(t0 + i, t0 + i + 1) for i in range(tail - 1)]
    return build_graph(t0 + tail, edges)


def two_hub_wheel(rim=480, pendants=4, length=10):
    """A cycle of `rim` vertices under two hubs, 1 and rim + 2, with vertex 0
    and `pendants` paths of `length` hung off hub 1 alone.

    With h = 5, ell = 20 and solver seed 0 the decomposition centres the
    first step 1 on rim vertex 2, and step 2 takes 2 and hub 1 as a branch.
    The 520 vertices left are more than EXACT_CENTER_LIMIT, so the live
    update does not search; their largest component, the 480-vertex wheel
    under the other hub, is within it, and the next step 1 finds its exact
    center.
    """
    b = 2 + rim
    edges = [(0, 1)]
    edges += [(hub, 2 + i) for hub in (1, b) for i in range(rim)]
    edges += [(2 + i, 2 + (i + 1) % rim) for i in range(rim)]
    start = b + 1
    for _ in range(pendants):
        edges.append((1, start))
        edges += [(start + i, start + i + 1) for i in range(length - 1)]
        start += length
    return build_graph(start, edges)


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


def loop_subdivided_clique_edges(h, t):
    """(n, edge list) of K_h with each edge a chain through t new vertices,
    numbered in edge order."""
    edges = []
    nxt = h
    for i in range(h):
        for j in range(i + 1, h):
            chain = [i] + list(range(nxt, nxt + t)) + [j]
            nxt += t
            edges.extend(zip(chain, chain[1:]))
    return nxt, edges


def loop_family(family, params, seed=0):
    """(n, edge list) of a family, one Python tuple per edge."""
    if family in ("grid", "torus"):
        rows, cols = params
        return rows * cols, loop_grid_edges(rows, cols, wrap=family == "torus")
    if family == "subdivided_clique":
        return loop_subdivided_clique_edges(*params)
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

"""A plain reading of the solver's iteration, as a whole-run oracle.

`reference_run` decides what `separator.balanced_separator` decides, but
carries nothing from one iteration to the next besides the model, the cut
X, the retired branches and the live part.  Every iteration:
- gathers each branch's live neighbors from the graph, and retires the
  branches that have none;
- draws the decomposition from the run's "ldd" stream with
  `heap_partition`, and labels live minus its boundary with
  `uf_components`;
- under the driver's size rule, looks for the exact center with
  `loop_exact_center`;
- runs step 2, 3 or 4 on a BFS layering from the center, and labels what
  is left with a full component pass.

The prologue is `two_pass_prologue`, and the separator attempts are checked
by `brute_balanced`.  The result is an outcome's digest body: [kind,
separator ids or branches, size_breakdown or None, stats], where stats omit
the call counts `ldd_calls` and `invariant_checks`.
"""

from minorsep.graph import VertexMask
from minorsep.rng import stream
from minorsep.separator import EXACT_CENTER_LIMIT, cluster_diameter, default_ell

from helpers import (
    adjacency,
    bfs_dist,
    brute_balanced,
    heap_partition,
    loop_exact_center,
    np_edges,
    two_pass_prologue,
    uf_components,
)


def outcome_body(out):
    """The digest body of a `balanced_separator` outcome, with stats less
    `ldd_calls` and `invariant_checks`."""
    stats = {k: v for k, v in out.stats.items() if k not in ("ldd_calls", "invariant_checks")}
    if out.kind == "separator":
        return [out.kind, out.separator.ids().tolist(), out.size_breakdown, stats]
    return [out.kind, [b.tolist() for b in out.model.branches], None, stats]


def components(n, edges, keep):
    """The components of the subgraph induced by the set `keep`, as sorted
    lists, largest first and ties by smallest id."""
    comps = uf_components(n, [(u, w) for u, w in edges if u in keep and w in keep])
    return [c for c in comps if c[0] in keep]


def largest(n, edges, keep):
    comps = components(n, edges, keep)
    return set(comps[0]) if comps else set()


def live_neighbors(adj, branch, live):
    members = set(branch)
    return sorted({w for v in branch for w in adj[v] if w in live and w not in members})


def step1_center(g, edges, live, delta, rng, stats):
    """(center, None) when step 1 centers the view, else (None, boundary)."""
    n = g.n
    mask = VertexMask.from_ids(n, sorted(live))
    center, _ = heap_partition(g, mask, float(delta), rng)
    boundary = {v for u, w in edges for v in (u, w)
                if center[u] >= 0 and center[w] >= 0 and center[u] != center[w]}
    inner = components(n, edges, live - boundary)
    if inner and 3 * len(inner[0]) > 2 * n:
        return inner[0][0], None
    if len(live) <= EXACT_CENTER_LIMIT:
        c = loop_exact_center(g, mask, delta, n)
        if c is not None:
            stats["exact_center_used"] += 1
            return c, None
    return None, boundary


def tree_path(adj, dist, x):
    """Root..x along smallest-id neighbors one layer up, as a set."""
    path = {x}
    while dist[x] > 0:
        x = min(w for w in adj[x] if dist.get(w) == dist[x] - 1)
        path.add(x)
    return path


def finish(n, edges, attempts, stats):
    for level, (sep, breakdown) in enumerate(attempts):
        if brute_balanced(n, edges, sep)[0]:
            return ["separator", sorted(sep), breakdown, {**stats, "fallback_level": level}]
    raise AssertionError("no separator attempt balanced")


def reference_run(g, h, ell=None, seed=0):
    n = g.n
    ell = default_ell(max(n, 1), h) if ell is None else ell
    stats = {"n": n, "m": g.m, "h": h, "ell": ell, "iterations": 0, "step1_finished": 0,
             "step2_count": 0, "step3_count": 0, "step4_count": 0, "exact_center_used": 0,
             "charged": 0, "retired_branches": 0, "fallback_level": 0}
    edges = np_edges(g)
    adj = [g.neighbors(v).tolist() for v in range(n)]
    x, live, lone = two_pass_prologue(g)
    if lone is not None:
        ids = set(lone.ids().tolist())
        return finish(n, edges, [(ids, {"x": 0, "step1_s": 0, "f_selector": len(ids)})], stats)

    live = set(live.ids().tolist())
    delta = cluster_diameter(ell, h)
    ell_star = delta + ell
    rng = stream(seed, "ldd")
    branches, cut, step1_s, retired = [[x]], set(), set(), set()
    while True:
        nbrs = [live_neighbors(adj, b, live) for b in branches]
        for b in (b for b, nb in zip(branches, nbrs) if not nb):
            retired.update(b)
            stats["retired_branches"] += 1
        branches, nbrs = [b for b, nb in zip(branches, nbrs) if nb], [nb for nb in nbrs if nb]
        if 3 * len(live) < 2 * n:
            break
        stats["iterations"] += 1
        assert stats["iterations"] <= n

        root, boundary = step1_center(g, edges, live, delta, rng, stats)
        if root is None:
            step1_s = boundary
            stats["step1_finished"] = 1
            break
        dist = bfs_dist(adjacency(n, edges, keep=live), [root])
        top = delta + ell_star + ell
        stuck = next((i for i, nb in enumerate(nbrs) if all(dist[v] > top for v in nb)), None)
        depth = max(dist.values())
        sizes = [sum(1 for d in dist.values() if d == k) for k in range(depth + 1)]
        if stuck is None:
            contacts = [min(v for v in nb if dist[v] <= top) for nb in nbrs]
            cand = set().union(*(tree_path(adj, dist, c) for c in contacts)) if contacts else {root}
            branches.append(sorted(cand))
            stats["step2_count"] += 1
            if len(branches) == h:
                return ["witness", branches, None, stats]
            live = largest(n, edges, live - cand)
        elif h * sum(sizes[delta + ell_star + 1:]) <= n:
            lo = delta + ell_star + 1
            window = sizes[lo:lo + ell]
            y = lo + window.index(min(window))
            below = {v for v, d in dist.items() if d > y}
            touched = set(nbrs[stuck])
            z = set().union(*(c for c in components(n, edges, below) if touched & set(c)))
            branches[stuck] = sorted(set(branches[stuck]) | z)
            stats["step3_count"] += 1
            live = largest(n, edges, live - z)
        else:
            istar = next(i for i in range(delta + 1, delta + ell_star + 1)
                         if i < len(sizes) and ell * sizes[i] <= sum(sizes[i + 1:]))
            stats["step4_count"] += 1
            stats["charged"] += sum(sizes[istar + 1:])
            cut |= {v for v, d in dist.items() if d == istar}
            live = largest(n, edges, {v for v, d in dist.items() if d < istar})

    members = set().union(*branches)
    selector = set().union(*(b if len(b) < len(nb) else nb for b, nb in zip(branches, nbrs)))
    breakdown = {"x": len(cut), "step1_s": len(step1_s)}
    return finish(n, edges, [
        (cut | step1_s | side, {**breakdown, "f_selector": len(side)})
        for side in (selector, members, members | retired)
    ], stats)

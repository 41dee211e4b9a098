import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.errors import InputError
from minorsep.graph import (
    VertexMask,
    ball,
    bfs_layers,
    build_graph,
    connected_components,
    tree_path,
)

from helpers import adjacency, bfs_dist, uf_components

# 3x3 grid, row-major ids: 0 1 2 / 3 4 5 / 6 7 8
GRID3 = build_graph(9, [
    (0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
    (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8),
])


def random_edges(rng, n, m):
    out = set()
    for _ in range(m):
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u != v:
            out.add((min(u, v), max(u, v)))
    return sorted(out)


# -- construction -----------------------------------------------------------

def test_build_dedupes_and_sorts():
    g = build_graph(4, [(1, 0), (0, 1), (1, 0), (2, 3), (3, 2)])
    assert g.m == 2
    assert g.neighbors(0).tolist() == [1]
    assert g.neighbors(1).tolist() == [0]
    us, vs = g.edges()
    assert list(zip(us.tolist(), vs.tolist())) == [(0, 1), (2, 3)]


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        build_graph(3, [(0, 0)])
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(3, [(-1, 2)])
    with pytest.raises(InputError):
        build_graph(-1, [])


def test_build_empty_and_edgeless():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0
    g = build_graph(5, np.empty((0, 2), dtype=np.int64))
    assert g.n == 5 and g.m == 0
    assert connected_components(g) and len(connected_components(g)) == 5


def test_neighbors_ascending():
    g = build_graph(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
    assert g.neighbors(2).tolist() == [0, 1, 3, 4]
    assert g.degree(2) == 4 and g.degree(0) == 1


# -- masks ------------------------------------------------------------------

def test_mask_operations():
    a = VertexMask.from_ids(6, [0, 2, 4])
    b = VertexMask.from_ids(6, [2, 3])
    assert a.size == 3 and len(a) == 3 and a.n == 6
    assert 2 in a and 1 not in a
    assert a.minus(b).ids().tolist() == [0, 4]
    assert a.union(b).ids().tolist() == [0, 2, 3, 4]
    assert a.intersect(b).ids().tolist() == [2]
    assert a.minus_ids(np.array([0])).ids().tolist() == [2, 4]
    assert VertexMask.empty(4).size == 0
    assert VertexMask.full(4).size == 4


def test_mask_from_ids_range_check():
    with pytest.raises(InputError):
        VertexMask.from_ids(3, [3])
    with pytest.raises(InputError):
        VertexMask.from_ids(3, [-1])


# -- components -------------------------------------------------------------

def test_components_canonical_order_on_grid():
    # deleting the middle row splits the grid into two rows of three
    live = VertexMask.from_ids(9, [0, 1, 2, 6, 7, 8])
    comps = connected_components(GRID3, live)
    assert [c.tolist() for c in comps] == [[0, 1, 2], [6, 7, 8]]


def test_components_tie_break_by_size_then_min_id():
    # component {5} vs {0,1} vs {3,4}: larger first, then smaller min id
    g = build_graph(6, [(0, 1), (3, 4)])
    comps = connected_components(g, VertexMask.from_ids(6, [0, 1, 3, 4, 5]))
    assert [c.tolist() for c in comps] == [[0, 1], [3, 4], [5]]


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 80))
def test_components_match_union_find(seed, n, m):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, m)
    g = build_graph(n, edges)
    got = [c.tolist() for c in connected_components(g)]
    want = uf_components(n, edges)
    assert got == want
    # the unmasked path skips the subgraph remap; a full mask goes through it
    assert [c.tolist() for c in connected_components(g, VertexMask.full(n))] == want


@given(st.integers(0, 2**32 - 1))
def test_components_respect_mask(seed):
    rng = np.random.default_rng(seed)
    n = 30
    edges = random_edges(rng, n, 60)
    g = build_graph(n, edges)
    keep = rng.random(n) < 0.6
    live = VertexMask(keep)
    comps = connected_components(g, live)
    seen = np.concatenate(comps) if comps else np.empty(0, dtype=np.int64)
    assert sorted(seen.tolist()) == live.ids().tolist()
    restricted = [(u, v) for u, v in edges if keep[u] and keep[v]]
    want = [c for c in uf_components(n, restricted) if keep[c[0]]]
    assert [c.tolist() for c in comps] == want


# -- BFS --------------------------------------------------------------------

def test_bfs_grid_layers_and_parents():
    full = VertexMask.full(9)
    L = bfs_layers(GRID3, full, 0)
    assert [layer.tolist() for layer in L.layers] == [[0], [1, 3], [2, 4, 6], [5, 7], [8]]
    assert L.parent.tolist() == [-1, 0, 1, 0, 1, 2, 3, 4, 5]
    assert L.depth == 4
    assert L.reached() == 9


def test_bfs_radius_cut():
    full = VertexMask.full(9)
    L = bfs_layers(GRID3, full, 0, radius=2)
    assert L.depth == 2
    assert L.dist[5] == -1 and L.dist[4] == 2


def test_bfs_root_must_be_live():
    with pytest.raises(InputError):
        bfs_layers(GRID3, VertexMask.from_ids(9, [1, 2]), 0)


def test_ball_on_grid():
    full = VertexMask.full(9)
    assert ball(GRID3, full, 0, 2).ids().tolist() == [0, 1, 2, 3, 4, 6]
    assert ball(GRID3, full, 4, 0).ids().tolist() == [4]
    with pytest.raises(InputError):
        ball(GRID3, full, 0, -1)


def test_tree_path_on_grid():
    L = bfs_layers(GRID3, VertexMask.full(9), 0)
    assert tree_path(L, 8).tolist() == [0, 1, 2, 5, 8]
    assert tree_path(L, 0).tolist() == [0]
    Lcut = bfs_layers(GRID3, VertexMask.from_ids(9, [0, 1, 8]), 0)
    with pytest.raises(InputError):
        tree_path(Lcut, 8)


@given(st.integers(0, 2**32 - 1), st.integers(2, 35), st.integers(1, 70))
def test_bfs_dist_matches_plain_bfs(seed, n, m):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, m)
    g = build_graph(n, edges)
    keep = rng.random(n) < 0.75
    root = int(rng.integers(n))
    keep[root] = True
    live = VertexMask(keep)
    L = bfs_layers(g, live, root)
    live_edges = [(u, v) for u, v in edges if keep[u] and keep[v]]
    want = bfs_dist(adjacency(n, live_edges, keep=np.flatnonzero(keep)), [root])
    for v in range(n):
        assert L.dist[v] == (want.get(v, -1) if keep[v] else -1)
    # layers partition the reached set, ascending within each layer
    reached = np.flatnonzero(L.dist >= 0)
    assert sorted(np.concatenate(L.layers).tolist()) == reached.tolist()
    for d, layer in enumerate(L.layers):
        assert np.all(np.diff(layer) > 0) or layer.size <= 1
        assert np.all(L.dist[layer] == d)


@given(st.integers(0, 2**32 - 1))
def test_bfs_parent_is_smallest_previous_layer_neighbor(seed):
    rng = np.random.default_rng(seed)
    n = 25
    edges = random_edges(rng, n, 60)
    g = build_graph(n, edges)
    L = bfs_layers(g, VertexMask.full(n), 0)
    for v in range(n):
        d = L.dist[v]
        if d <= 0:
            continue
        prev = [int(w) for w in g.neighbors(v) if L.dist[w] == d - 1]
        assert L.parent[v] == min(prev)
    # tree paths step one layer at a time through parents
    far = int(np.argmax(L.dist))
    if L.dist[far] > 0:
        p = tree_path(L, far)
        assert L.dist[p].tolist() == list(range(len(p)))


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_ball_matches_distance_threshold(seed, r):
    rng = np.random.default_rng(seed)
    n = 30
    edges = random_edges(rng, n, 55)
    g = build_graph(n, edges)
    L = bfs_layers(g, VertexMask.full(n), 3)
    b = ball(g, VertexMask.full(n), 3, r)
    want = np.flatnonzero((L.dist >= 0) & (L.dist <= r))
    assert b.ids().tolist() == want.tolist()

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse import csgraph

from minorsep.errors import InputError
from minorsep.graph import (
    VertexMask,
    _ball_sizes,
    _component_sizes,
    _reach_without,
    ball,
    bfs_layers,
    build_graph,
    connected_components,
    tree_path,
)

from helpers import adjacency, bfs_dist, lexsort_csr, uf_components

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


@pytest.mark.parametrize("edges", [[0, 1, 2], [(0, 1, 2), (1, 2, 0)]], ids=["1-D", "3-column"])
def test_build_rejects_edges_that_are_not_pairs(edges):
    with pytest.raises(InputError, match="edge list must be pairs"):
        build_graph(3, edges)


def test_build_empty_and_edgeless():
    g = build_graph(0, [])
    assert g.n == 0 and g.m == 0
    assert labels_and_sizes(g) == ([], [])
    assert labels_and_sizes(g, VertexMask.empty(0)) == ([], [])
    g = build_graph(5, np.empty((0, 2), dtype=np.int64))
    assert g.n == 5 and g.m == 0
    assert labels_and_sizes(g) == ([0, 1, 2, 3, 4], [1] * 5)


def test_build_matches_lexsort_reference():
    rng = np.random.default_rng(11)
    cases = [
        (0, np.empty((0, 2), dtype=np.int64)),
        (5, np.empty((0, 2), dtype=np.int64)),
        (4, [(1, 0), (0, 1), (1, 0), (2, 3), (3, 2)]),
        (7, [(6, 0), (0, 6), (5, 1), (1, 5), (4, 2), (6, 1), (1, 6), (0, 1)]),
    ]
    for n, m in ((40, 300), (500, 2000)):
        # repeats and both orientations of the same edge
        pairs = rng.integers(n, size=(m, 2))
        cases.append((n, pairs[pairs[:, 0] != pairs[:, 1]]))
    # a 12 x 12 grid's edges, shuffled, each in a random orientation, and
    # then all of them again reversed
    ids = np.arange(144).reshape(12, 12)
    grid = np.concatenate([
        np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1),
        np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1),
    ])
    grid = rng.permutation(grid)
    flip = rng.random(len(grid)) < 0.5
    grid[flip] = grid[flip, ::-1]
    cases += [(144, grid), (144, np.concatenate([grid, grid[::-1, ::-1]]))]
    for n, pairs in cases:
        g = build_graph(n, pairs)
        indptr, indices = lexsort_csr(n, pairs)
        assert g.indptr.tolist() == indptr.tolist()
        assert g.indices.tolist() == indices.tolist()


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


def test_mask_membership_outside_the_ids_is_false():
    # -1 read vertex n - 1 and n raised IndexError
    mask = VertexMask.from_ids(5, [4])
    assert 4 in mask
    assert -1 not in mask and 5 not in mask


def test_mask_from_ids_range_check():
    with pytest.raises(InputError):
        VertexMask.from_ids(3, [3])
    with pytest.raises(InputError):
        VertexMask.from_ids(3, [-1])


# -- components -------------------------------------------------------------

def labels_and_sizes(g, live=None):
    label, sizes = connected_components(g, live)
    return label.tolist(), sizes.tolist()


def uf_labels_and_sizes(n, edges, keep):
    """(label, sizes) of the subgraph induced by `keep`, by union-find."""
    restricted = [(u, v) for u, v in edges if keep[u] and keep[v]]
    comps = [c for c in uf_components(n, restricted) if keep[c[0]]]
    label = [-1] * n
    for k, comp in enumerate(comps):
        for v in comp:
            label[v] = k
    return label, [len(c) for c in comps]


def test_components_canonical_order_on_grid():
    # deleting the middle row splits the grid into two rows of three
    live = VertexMask.from_ids(9, [0, 1, 2, 6, 7, 8])
    assert labels_and_sizes(GRID3, live) == ([0, 0, 0, -1, -1, -1, 1, 1, 1], [3, 3])


def test_components_tie_break_by_size_then_min_id():
    # component {5} vs {0,1} vs {3,4}: larger first, then smaller min id
    g = build_graph(6, [(0, 1), (3, 4)])
    live = VertexMask.from_ids(6, [0, 1, 3, 4, 5])
    assert labels_and_sizes(g, live) == ([0, 0, -1, 1, 1, 2], [2, 2, 1])
    # size beats a smaller id; equal sizes rank by smallest id even when the
    # components interleave
    g = build_graph(6, [(0, 1), (3, 4), (4, 5)])
    assert labels_and_sizes(g) == ([1, 1, 2, 0, 0, 0], [3, 2, 1])
    g = build_graph(6, [(0, 5), (1, 2), (3, 4)])
    assert labels_and_sizes(g) == ([0, 1, 1, 2, 2, 0], [2, 2, 2])


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 80))
def test_components_match_union_find(seed, n, m):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, m)
    g = build_graph(n, edges)
    want = uf_labels_and_sizes(n, edges, [True] * n)
    assert labels_and_sizes(g) == want
    assert labels_and_sizes(g, VertexMask.full(n)) == want
    assert labels_and_sizes(g, VertexMask.empty(n)) == ([-1] * n, [])


@given(st.integers(0, 2**32 - 1))
def test_components_respect_mask(seed):
    rng = np.random.default_rng(seed)
    n = 30
    edges = random_edges(rng, n, 60)
    g = build_graph(n, edges)
    keep = rng.random(n) < 0.6
    indptr, indices = g.indptr.copy(), g.indices.copy()
    assert labels_and_sizes(g, VertexMask(keep)) == uf_labels_and_sizes(n, edges, keep)
    # dropping the edges that leave the mask must not touch the graph itself
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.indices, indices)


def scipy_undirected_labels_and_sizes(g, keep):
    """(label, sizes) by scipy's undirected component pass on the induced
    submatrix, relabelled largest first, ties by smallest id."""
    adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    ids = np.flatnonzero(keep)
    count, raw = csgraph.connected_components(adj[ids][:, ids], directed=False)
    comps = sorted((ids[raw == k] for k in range(count)), key=lambda c: (-c.size, c[0]))
    label = np.full(g.n, -1)
    for k, comp in enumerate(comps):
        label[comp] = k
    return label.tolist(), [c.size for c in comps]


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.5, 0.7]))
def test_components_match_undirected_scipy_on_sparse_masks(seed, frac):
    # grid 20x20 and a sparse random graph under masks that cut them into
    # many components
    rng = np.random.default_rng(seed)
    v = np.arange(400).reshape(20, 20)
    grid = build_graph(400, np.concatenate([
        np.column_stack([v[:, :-1].ravel(), v[:, 1:].ravel()]),
        np.column_stack([v[:-1].ravel(), v[1:].ravel()]),
    ]))
    for g in (grid, build_graph(300, random_edges(rng, 300, 250))):
        keep = rng.random(g.n) < frac
        assert labels_and_sizes(g, VertexMask(keep)) == scipy_undirected_labels_and_sizes(g, keep)


@st.composite
def masked_graphs(draw, min_n=0, max_n=30):
    """(g, live): up to 2n random edges, so some graphs are connected, and
    a mask drawn id by id."""
    n = draw(st.integers(min_n, max_n))
    v = st.integers(0, max(n - 1, 0))
    pairs = draw(st.lists(st.tuples(v, v).filter(lambda e: e[0] != e[1]), max_size=2 * n)) \
        if n > 1 else []
    keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return build_graph(n, pairs), VertexMask(keep)


@given(masked_graphs())  # n = 0 included
def test_component_sizes_match_the_labelled_pass(args):
    g, live = args
    for mask in (live, None):
        want = connected_components(g, mask)[1]
        got = _component_sizes(g, mask)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


@given(masked_graphs(min_n=2), st.data())
def test_reach_without_matches_bfs_in_the_rest(args, data):
    g = args[0]
    v = data.draw(st.integers(0, g.n - 1))
    root = data.draw(st.integers(0, g.n - 1).filter(lambda r: r != v))
    rest = VertexMask.full(g.n).minus_ids(np.array([v]))
    want = bfs_layers(g, rest, root) >= 0
    got = _reach_without(g, v, root)
    assert got.dtype == np.bool_ and np.array_equal(got, want)


# -- BFS --------------------------------------------------------------------

def test_bfs_grid_depths():
    dist = bfs_layers(GRID3, VertexMask.full(9), 0)
    assert dist.tolist() == [0, 1, 2, 1, 2, 3, 2, 3, 4]


def test_bfs_radius_cut():
    full = VertexMask.full(9)
    dist = bfs_layers(GRID3, full, 0, radius=2)
    assert dist.max() == 2
    assert dist[5] == -1 and dist[4] == 2


def test_bfs_root_must_be_live():
    with pytest.raises(InputError):
        bfs_layers(GRID3, VertexMask.from_ids(9, [1, 2]), 0)


@pytest.mark.parametrize("root", [-1, 9])
def test_bfs_root_outside_the_graph_is_an_input_error(root):
    # root 9 raised IndexError and root -1 a "negative dimensions" ValueError
    with pytest.raises(InputError):
        bfs_layers(GRID3, VertexMask.full(9), root)


@pytest.mark.parametrize("root", [-1, 9])
def test_ball_root_outside_the_graph_is_an_input_error(root):
    with pytest.raises(InputError):
        ball(GRID3, VertexMask.full(9), root, 1)


def test_ball_on_grid():
    full = VertexMask.full(9)
    assert ball(GRID3, full, 0, 2).ids().tolist() == [0, 1, 2, 3, 4, 6]
    assert ball(GRID3, full, 4, 0).ids().tolist() == [4]
    with pytest.raises(InputError):
        ball(GRID3, full, 0, -1)


def test_tree_path_on_grid():
    dist = bfs_layers(GRID3, VertexMask.full(9), 0)
    assert tree_path(GRID3, dist, 8).tolist() == [0, 1, 2, 5, 8]
    assert tree_path(GRID3, dist, 0).tolist() == [0]
    cut = bfs_layers(GRID3, VertexMask.from_ids(9, [0, 1, 8]), 0)
    with pytest.raises(InputError):
        tree_path(GRID3, cut, 8)


@given(st.integers(0, 2**32 - 1), st.integers(2, 35), st.integers(1, 70))
def test_bfs_dist_matches_plain_bfs(seed, n, m):
    rng = np.random.default_rng(seed)
    edges = random_edges(rng, n, m)
    g = build_graph(n, edges)
    keep = rng.random(n) < 0.75
    root = int(rng.integers(n))
    keep[root] = True
    live = VertexMask(keep)
    dist = bfs_layers(g, live, root)
    live_edges = [(u, v) for u, v in edges if keep[u] and keep[v]]
    want = bfs_dist(adjacency(n, live_edges, keep=np.flatnonzero(keep)), [root])
    for v in range(n):
        assert dist[v] == (want.get(v, -1) if keep[v] else -1)
    # layers 0..max are nonempty and partition the reached set, ascending
    layers = [np.flatnonzero(dist == d) for d in range(dist.max() + 1)]
    assert all(layer.size for layer in layers)
    assert np.concatenate(layers).size == np.count_nonzero(dist >= 0)
    for layer in layers:
        assert np.all(np.diff(layer) > 0)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_tree_path_steps_to_smallest_neighbor_one_layer_up(seed, masked):
    rng = np.random.default_rng(seed)
    n = 25
    edges = random_edges(rng, n, 60)
    g = build_graph(n, edges)
    keep = rng.random(n) < 0.7 if masked else np.ones(n, dtype=bool)
    root = int(rng.integers(n))
    keep[root] = True
    dist = bfs_layers(g, VertexMask(keep), root)
    adj = adjacency(n, edges, keep=np.flatnonzero(keep))
    for v in np.flatnonzero(dist >= 0).tolist():
        p = tree_path(g, dist, v).tolist()
        assert p[0] == root and p[-1] == v
        assert dist[p].tolist() == list(range(len(p)))
        for k in range(1, len(p)):
            assert p[k - 1] == min(w for w in adj[p[k]] if dist[w] == k - 1)


@given(st.integers(0, 2**32 - 1), st.integers(0, 6))
def test_ball_matches_distance_threshold(seed, r):
    rng = np.random.default_rng(seed)
    n = 30
    edges = random_edges(rng, n, 55)
    g = build_graph(n, edges)
    dist = bfs_layers(g, VertexMask.full(n), 3)
    b = ball(g, VertexMask.full(n), 3, r)
    want = np.flatnonzero((dist >= 0) & (dist <= r))
    assert b.ids().tolist() == want.tolist()


def check_ball_sizes(seed, k, density, lonely, r):
    """`_ball_sizes` against `ball` with k live ids among k + k // 4 + 1
    vertices.  A `lonely` share of the vertices has no edge, and others
    lose every live neighbor to the mask; r None is past every diameter.
    The sources are the live ids shuffled, less up to two."""
    rng = np.random.default_rng(seed)
    n = k + k // 4 + 1
    edges = random_edges(rng, n, 2 * n if density == "sparse" else n * n // 6)
    cut = rng.random(n) < lonely
    g = build_graph(n, [(u, v) for u, v in edges if not (cut[u] or cut[v])])
    live = VertexMask.from_ids(n, rng.choice(n, k, replace=False))
    r = n if r is None else r
    sources = rng.permutation(live.ids())[:max(1, k - int(rng.integers(3)))]
    sizes = _ball_sizes(g, live, r, sources)
    assert sizes.tolist() == [ball(g, live, v, r).size for v in sources.tolist()]


@given(st.integers(0, 2**32 - 1), st.one_of(st.sampled_from([1, 63, 64, 65, 128, 512]),
                                            st.integers(1, 200)),
       st.sampled_from(["sparse", "dense"]), st.sampled_from([0.0, 0.3]),
       st.sampled_from([0, 1, 2, 3, 5, None]))
def test_ball_sizes_match_ball(seed, k, density, lonely, r):
    check_ball_sizes(seed, k, density, lonely, r)


@pytest.mark.parametrize("k", [1, 63, 64, 65, 128, 512])
@pytest.mark.parametrize("density,r", [("sparse", 0), ("sparse", None), ("dense", 2)])
def test_ball_sizes_at_the_word_bounds(k, density, r):
    # every live size next to a word bound, at r = 0, past the diameter,
    # and on a dense graph
    check_ball_sizes(k, k, density, 0.3, r)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep import decomp
from minorsep.decomp import ldd
from minorsep.errors import InputError
from minorsep.graph import VertexMask, bfs_layers, connected_components
from minorsep.instances import InstanceSpec, generate
from minorsep.rng import stream

from helpers import adjacency, bfs_dist, component_lists, heap_partition, np_edges, parts


def gen(family, *params, seed=0):
    return generate(InstanceSpec(family, params, seed))


CASES = [
    ("grid", (8, 8), 6.0),
    ("grid", (8, 8), 12.0),
    ("cycle", (12,), 5.0),
    ("gnp", (80, 0.05), 8.0),
    ("tree", (60,), 7.0),
    ("path", (40,), 10.0),
]


def run(case, seed, live=None):
    family, params, delta = case
    g = gen(family, *params, seed=seed)
    if live is None:
        live = VertexMask.full(g.n)
    return g, live, delta, ldd(g, live, delta, stream(seed, "ldd"))


def test_path10_frozen_partition():
    g = gen("path", 10)
    res = ldd(g, VertexMask.full(10), 6.0, stream(1, "ldd"))
    assert [(c, m.tolist()) for c, m in parts(res.center)] == [
        (0, [0, 1]), (4, [2, 3, 4, 5, 6]), (7, [7]), (9, [8, 9]),
    ]
    assert res.boundary.ids().tolist() == [1, 2, 6, 7, 8]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_partition_properties(case, seed):
    g, live, delta, res = run(case, seed)
    center = res.center

    # exactly the live vertices are assigned
    assert np.array_equal(center >= 0, live.bits)

    for c, members in parts(center):
        # the center belongs to its own part
        assert center[c] == c
        # connected within live
        sub = VertexMask.from_ids(g.n, members)
        assert len(component_lists(*connected_components(g, sub))) == 1
        # strong radius: every member within shift[c] < delta/2 of the center
        dist = bfs_layers(g, live, c)
        assert res.shift[c] < delta / 2.0
        assert np.all(dist[members] <= res.shift[c])
        # weak diameter <= delta between any two members, via live distances
        far = members[np.argmax(dist[members])]
        dist = bfs_layers(g, live, int(far))
        assert np.all(dist[members] <= delta)
        assert np.all(dist[members] >= 0)


ORACLE_GRAPHS = [
    ("grid", (30, 30)),
    ("torus", (24, 24)),
    ("cycle", (700,)),
    ("gnp", (500, 0.008)),
    ("tree", (600,)),
    ("path", (500,)),
]


@pytest.mark.parametrize("family,params", ORACLE_GRAPHS, ids=lambda p: str(p))
@pytest.mark.parametrize("delta", [6.0, 9.37, 24.0])
@pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
def test_matches_heap_reference(family, params, delta, masked):
    g = gen(family, *params, seed=3)
    live = VertexMask.full(g.n)
    if masked:
        # drop every seventh vertex and two blocks of ids (a full row each on
        # the grids), leaving several components
        bits = np.arange(g.n) % 7 != 3
        for start in (g.n // 3, 2 * g.n // 3):
            bits[start:start + g.n // 20] = False
        live = VertexMask(bits)
        assert len(component_lists(*connected_components(g, live))) >= 2
    for seed in range(5):
        part = ldd(g, live, delta, stream(seed, "ldd"))
        center, shift = heap_partition(g, live, delta, stream(seed, "ldd"))
        assert np.array_equal(part.center, center)
        assert np.array_equal(part.shift[live.ids()], shift[live.ids()])


@pytest.mark.parametrize("family,params", ORACLE_GRAPHS, ids=lambda p: str(p))
@pytest.mark.parametrize("step", [1.0, 0.5])
def test_matches_heap_reference_on_tied_keys(family, params, step, monkeypatch):
    # Shifts on a grid of `step` make keys exact and tie often, also between
    # offers that reach a vertex in different rounds, so the smallest-center
    # rule decides many assignments.
    def grid_shifts(u, rate, cap):
        return np.minimum(np.floor(u * cap / step) * step, cap - step)

    monkeypatch.setattr("minorsep.decomp.truncated_exponential", grid_shifts)
    monkeypatch.setattr("helpers.truncated_exponential", grid_shifts)
    g = gen(family, *params, seed=1)
    for live in (VertexMask.full(g.n), VertexMask(np.arange(g.n) % 5 != 2)):
        for seed in range(4):
            part = ldd(g, live, 11.0, stream(seed, "ldd"))
            center, shift = heap_partition(g, live, 11.0, stream(seed, "ldd"))
            assert np.array_equal(part.center, center)
            assert np.array_equal(part.shift[live.ids()], shift[live.ids()])


@pytest.mark.parametrize("case", CASES[:4], ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("seed", [0, 5])
def test_boundary_is_exact(case, seed):
    g, live, delta, res = run(case, seed)
    center = res.center
    want = set()
    for u, v in np_edges(g):
        if center[u] >= 0 and center[v] >= 0 and center[u] != center[v]:
            want.add(u)
            want.add(v)
    assert set(res.boundary.ids().tolist()) == want
    # removing the boundary leaves no cross-part live edge
    rest = live.minus(res.boundary)
    for u, v in np_edges(g):
        if u in rest and v in rest:
            assert center[u] == center[v]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_respects_mask(seed):
    g = gen("grid", 9, 9)
    live = VertexMask(np.arange(g.n) % 3 != 0)
    res = ldd(g, live, 7.0, stream(seed, "ldd"))
    assert np.all(res.center[~live.bits] == -1)
    assert np.isnan(res.shift[~live.bits]).all()
    assert not np.any(res.boundary.bits & ~live.bits)
    # distances used are live distances: parts stay inside live components
    for c, members in parts(res.center):
        assert np.all(bfs_layers(g, live, c)[members] >= 0)


def test_deterministic_per_seed():
    g = gen("gnp", 70, 0.06, seed=2)
    a = ldd(g, VertexMask.full(g.n), 9.0, stream(4, "ldd"))
    b = ldd(g, VertexMask.full(g.n), 9.0, stream(4, "ldd"))
    assert np.array_equal(a.center, b.center)
    assert np.array_equal(a.boundary.bits, b.boundary.bits)
    c = ldd(g, VertexMask.full(g.n), 9.0, stream(5, "ldd"))
    assert not np.array_equal(a.center, c.center)


def test_empty_live_and_bad_delta():
    g = gen("path", 5)
    res = ldd(g, VertexMask.empty(5), 4.0, stream(0, "ldd"))
    assert parts(res.center) == []
    assert np.isnan(res.shift).all()
    assert res.boundary.size == 0
    with pytest.raises(InputError):
        ldd(g, VertexMask.full(5), 0.0, stream(0, "ldd"))


def test_singleton_live():
    g = gen("path", 5)
    res = ldd(g, VertexMask.from_ids(5, [3]), 4.0, stream(0, "ldd"))
    assert [(c, m.tolist()) for c, m in parts(res.center)] == [(3, [3])]
    assert res.boundary.size == 0


@given(st.integers(0, 2**32 - 1), st.sampled_from([3.0, 5.0, 9.0, 17.0]))
def test_components_after_cut_have_small_weak_diameter(seed, delta):
    # the property the driver leans on: every component of live minus the
    # boundary sits inside one part, so its weak live-diameter is <= delta
    g = gen("gnp", 60, 0.07, seed=seed % 50)
    live = VertexMask.full(g.n)
    res = ldd(g, live, delta, stream(seed, "ldd"))
    rest = live.minus(res.boundary)
    edges = np_edges(g)
    adj = adjacency(g.n, edges)  # live distances measured in the full graph here
    for comp in component_lists(*connected_components(g, rest)):
        cset = comp.tolist()
        for v in cset:
            d = bfs_dist(adj, [v])
            assert all(0 <= d[w] <= delta for w in cset)


def count_gathers(monkeypatch):
    """Patch the LDD's edge gather to tally its calls and frontier sizes."""
    tally = {"calls": 0, "vertices": 0}
    real = decomp._gather

    def gather(g, frontier):
        tally["calls"] += 1
        tally["vertices"] += frontier.size
        return real(g, frontier)

    monkeypatch.setattr(decomp, "_gather", gather)
    return tally


@pytest.mark.parametrize("family,params,delta,masked", [
    ("grid", (40, 40), 24.0, False),
    ("cycle", (3000,), 40.0, False),
    ("gnp", (500, 0.008), 9.37, True),
], ids=["grid", "cycle", "gnp-masked"])
def test_each_vertex_settles_once(family, params, delta, masked, monkeypatch):
    # every live vertex gathers its edges exactly once per call
    g = gen(family, *params, seed=2)
    live = VertexMask(np.arange(g.n) % 9 != 4) if masked else VertexMask.full(g.n)
    tally = count_gathers(monkeypatch)
    for seed in range(3):
        tally["vertices"] = 0
        part = ldd(g, live, delta, stream(seed, "ldd"))
        assert tally["vertices"] == live.size
        center, _ = heap_partition(g, live, delta, stream(seed, "ldd"))
        assert np.array_equal(part.center, center)


@pytest.mark.parametrize("toward", [0.0, -np.inf, np.inf], ids=["on", "below", "above"])
@pytest.mark.parametrize("delta", [8.0, 11.0])
@pytest.mark.parametrize("family,params", ORACLE_GRAPHS[:4], ids=lambda p: str(p))
def test_matches_heap_reference_at_bucket_edges(family, params, delta, toward, monkeypatch):
    # Shifts on whole numbers, or one ulp to either side of them, put start
    # keys and offers on or next to the bucket bounds b + 1.
    def edge_shifts(u, rate, cap):
        whole = np.floor(u * cap)
        return np.maximum(np.nextafter(whole, whole if toward == 0.0 else toward), 0.0)

    monkeypatch.setattr("minorsep.decomp.truncated_exponential", edge_shifts)
    monkeypatch.setattr("helpers.truncated_exponential", edge_shifts)
    g = gen(family, *params, seed=4)
    for live in (VertexMask.full(g.n), VertexMask(np.arange(g.n) % 6 != 1)):
        for seed in range(3):
            part = ldd(g, live, delta, stream(seed, "ldd"))
            center, shift = heap_partition(g, live, delta, stream(seed, "ldd"))
            assert np.array_equal(part.shift[live.ids()], shift[live.ids()])
            assert np.array_equal(part.center, center)


@pytest.mark.parametrize("delta", [0.25, 0.5, 0.999])
def test_delta_below_one_keeps_every_vertex_its_own_center(delta, monkeypatch):
    # every shift is below 1/2, so every offer (above 1/2) loses to every
    # start key (at most 0): one bucket below 0, and bucket 0 for a zero shift
    g = gen("grid", 12, 12)
    tally = count_gathers(monkeypatch)
    for live in (VertexMask.full(g.n), VertexMask(np.arange(g.n) % 4 != 0)):
        for seed in range(3):
            tally["calls"] = 0
            part = ldd(g, live, delta, stream(seed, "ldd"))
            ids = live.ids()
            assert part.center[ids].tolist() == ids.tolist()
            assert np.all(part.center[~live.bits] == -1)
            assert 1 <= tally["calls"] <= 2


@pytest.mark.parametrize("delta", [1e17, 1e300])
def test_huge_delta_ends_with_every_vertex_assigned(delta):
    # keys beyond 2**52 in magnitude, where key + 1.0 can round back to key
    g = gen("grid", 15, 15)
    part = ldd(g, VertexMask.full(g.n), delta, stream(1, "ldd"))
    assert np.all(part.center >= 0)

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep import decomp
from minorsep.decomp import ldd
from minorsep.errors import InputError
from minorsep.graph import VertexMask, bfs_layers, build_graph, connected_components
from minorsep.rng import stream

from helpers import (
    adjacency,
    bfs_dist,
    component_lists,
    count_calls,
    gen,
    heap_labels,
    heap_partition,
    large_inner_component,
    live_graphs,
    np_edges,
    parts,
)


CASES = [
    ("grid", (8, 8), 6.0),
    ("grid", (8, 8), 12.0),
    ("cycle", (12,), 5.0),
    ("gnp", (80, 0.05), 8.0),
    ("tree", (60,), 7.0),
    ("path", (40,), 10.0),
]


def shift_map(res):
    """The shift each live vertex drew, NaN elsewhere."""
    shift = np.full(res.g.n, np.nan)
    shift[res.ids] = res.shifts
    return shift


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
    assert res.boundary.ids().tolist() == [2, 7, 8]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_partition_properties(case, seed):
    g, live, delta, res = run(case, seed)
    center = res.center
    shift = shift_map(res)

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
        assert shift[c] < delta / 2.0
        assert np.all(dist[members] <= shift[c])
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
        assert np.array_equal(shift_map(part), shift, equal_nan=True)


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
            assert np.array_equal(shift_map(part), shift, equal_nan=True)


@pytest.mark.parametrize("case", CASES[:4], ids=lambda c: f"{c[0]}{c[1]}")
@pytest.mark.parametrize("seed", [0, 5])
def test_boundary_is_exact(case, seed):
    g, live, delta, res = run(case, seed)
    center = res.center
    # the larger-center end of each live edge between two parts
    want = set()
    for u, v in np_edges(g):
        if center[u] >= 0 and center[v] >= 0 and center[u] != center[v]:
            want.add(u if center[u] > center[v] else v)
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
    assert np.isnan(shift_map(res)[~live.bits]).all()
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
    rng = stream(0, "ldd")
    res = ldd(g, VertexMask.empty(5), 4.0, rng)
    assert parts(res.center) == []
    assert res.ids.size == res.shifts.size == 0
    assert res.boundary.size == 0
    # an empty live part draws nothing from the stream
    assert rng.next_u64() == stream(0, "ldd").next_u64()
    with pytest.raises(InputError):
        ldd(g, VertexMask.full(5), 0.0, stream(0, "ldd"))


@pytest.mark.parametrize("delta", [float("nan"), float("inf"),
                                   pytest.param(10**400, id="int-past-float")])
def test_nan_or_infinite_delta_is_an_input_error(delta):
    # nan and inf used to reach `truncated_exponential`'s assert, which
    # python -O skips; the int overflowed on its way to a float
    with pytest.raises(InputError, match="finite"):
        ldd(gen("path", 5), VertexMask.full(5), delta, stream(0, "ldd"))


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


@given(st.sampled_from([("gnp", (30, 0.1)), ("grid", (6, 7)), ("cycle", (25,))]),
       st.integers(0, 2**32 - 1), st.sampled_from([2.0, 4.0, 7.0, 12.0]),
       st.lists(st.booleans(), min_size=42, max_size=42))
def test_boundary_keeps_the_larger_center_end(case, seed, delta, keep):
    family, params = case
    g = gen(family, *params, seed=seed % 20)
    live = VertexMask(np.array(keep[:g.n], dtype=bool))
    res = ldd(g, live, delta, stream(seed, "ldd"))
    center, got = res.center, set(res.boundary.ids().tolist())
    adj = adjacency(g.n, np_edges(g))
    # v is marked exactly when it is live with a live neighbor of smaller center
    assert got == {v for v in live.ids().tolist()
                   if any(0 <= center[w] < center[v] for w in adj[v])}
    both = set()
    for u, v in np_edges(g):
        if center[u] >= 0 and center[v] >= 0 and center[u] != center[v]:
            assert (u if center[u] > center[v] else v) in got
            both.update((u, v))
    assert got <= both
    for comp in component_lists(*connected_components(g, live.minus(res.boundary))):
        assert np.unique(center[comp]).size == 1


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
    # every live vertex whose final key is at most -1 gathers its edges
    # exactly once per assignment, which runs when the centers are first
    # read; the others offer above 0, above every key, and gather nothing
    g = gen(family, *params, seed=2)
    live = VertexMask(np.arange(g.n) % 9 != 4) if masked else VertexMask.full(g.n)
    tally = count_gathers(monkeypatch)
    skipped = 0
    for seed in range(3):
        tally["vertices"] = 0
        part = ldd(g, live, delta, stream(seed, "ldd"))
        center, _, key = heap_labels(g, live, delta, stream(seed, "ldd"))
        assert np.array_equal(part.center, center)
        offering = np.count_nonzero(key[live.ids()] <= -1.0)
        assert tally["vertices"] == offering
        skipped += live.size - offering
    assert skipped > 0


def test_key_of_minus_one_ties_a_zero_shift(monkeypatch):
    # On the path 0..4, ends 0 and 4 draw shift 1.0 (key -1) and the rest 0
    # (key -0.0).  0's offer of 0.0 ties 1's start key and wins on the
    # smaller center; 4's ties 3's and loses on the larger one.  Only the
    # two ends gather: the other keys are above -1.
    shift = np.array([1.0, 0.0, 0.0, 0.0, 1.0])
    monkeypatch.setattr("minorsep.decomp.truncated_exponential", lambda u, rate, cap: shift)
    monkeypatch.setattr("helpers.truncated_exponential", lambda u, rate, cap: shift)
    g = gen("path", 5)
    live = VertexMask.full(5)
    tally = count_gathers(monkeypatch)
    part = ldd(g, live, 4.0, stream(0, "ldd"))
    center, _, key = heap_labels(g, live, 4.0, stream(0, "ldd"))
    assert part.center.tolist() == center.tolist() == [0, 0, 2, 3, 4]
    assert key.tolist() == [-1.0, 0.0, 0.0, 0.0, -1.0]
    assert tally["vertices"] == 2


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
            assert np.array_equal(shift_map(part), shift, equal_nan=True)
            assert np.array_equal(part.center, center)


@pytest.mark.parametrize("delta", [0.25, 0.5, 0.999])
def test_delta_below_one_keeps_every_vertex_its_own_center(delta, monkeypatch):
    # every shift is below 1/2, so every key is above -1/2 and no vertex
    # offers: the one bucket below 0, and bucket 0 for a zero shift, gather
    # no edge
    g = gen("grid", 12, 12)
    tally = count_gathers(monkeypatch)
    for live in (VertexMask.full(g.n), VertexMask(np.arange(g.n) % 4 != 0)):
        for seed in range(3):
            tally["calls"] = tally["vertices"] = 0
            part = ldd(g, live, delta, stream(seed, "ldd"))
            ids = live.ids()
            assert part.center[ids].tolist() == ids.tolist()
            assert np.all(part.center[~live.bits] == -1)
            assert 1 <= tally["calls"] <= 2
            assert tally["vertices"] == 0


@given(live_graphs(), st.lists(st.integers(0, 3), min_size=30, max_size=30))
def test_whole_shifts_match_heap_reference(graph_live, whole):
    # Shifts on whole numbers make keys tie across centers, so the center
    # rule decides, and put vertices offered to twice, or offered to and
    # starting, in one bucket's pool.
    g, live = graph_live

    def whole_shifts(u, rate, cap):
        return np.array(whole[:u.size], dtype=float)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("minorsep.decomp.truncated_exponential", whole_shifts)
        mp.setattr("helpers.truncated_exponential", whole_shifts)
        part = ldd(g, live, 8.0, stream(0, "ldd"))
        center, _ = heap_partition(g, live, 8.0, stream(0, "ldd"))
        assert np.array_equal(part.center, center)


@pytest.mark.parametrize("delta", [1e17, 1e300])
def test_huge_delta_ends_with_every_vertex_assigned(delta):
    # keys beyond 2**52 in magnitude, where key + 1.0 can round back to key
    g = gen("grid", 15, 15)
    part = ldd(g, VertexMask.full(g.n), delta, stream(1, "ldd"))
    assert np.all(part.center >= 0)


def largest_part(center):
    return max((m.size for _, m in parts(center)), default=0)


def degree_cap(g, ids, shifts):
    """1 + the largest degree among `ids` whose shift is at least 1."""
    return 1 + max((g.degree(v) for v, s in zip(ids.tolist(), shifts.tolist()) if s >= 1.0),
                   default=0)


@given(live_graphs(), st.integers(0, 2**32 - 1),
       st.one_of(st.floats(0.1, 4.0), st.floats(0.1, 40.0)), st.integers(0, 30))
def test_part_bound_caps_the_largest_part(graph_live, seed, delta, extra):
    # with delta <= 4 every shift is below 2, so the degree cap bounds every
    # part and `large_component` assigns no center while the cap is at most
    # 2n/3; from 2 on it assigns them, once, and reads the largest part
    g, live = graph_live
    n = live.size + extra
    with pytest.MonkeyPatch.context() as mp:
        tally = count_calls(mp, [(decomp, "_assign", "assign")])
        res = ldd(g, live, delta, stream(seed, "ldd"))
        root = res.large_component(n)
    center, _ = heap_partition(g, live, delta, stream(seed, "ldd"))
    if not live.size:
        assert tally["assign"] == 0
    elif res.shifts.max() >= 2.0:
        assert tally["assign"] == 1
    else:
        cap = degree_cap(g, res.ids, res.shifts)
        assert largest_part(center) <= cap
        assert tally["assign"] == (3 * cap > 2 * n)
    assert root == large_inner_component(g, live, center, n)


@pytest.mark.parametrize("value", [1.0, np.nextafter(2.0, 0.0), 2.0], ids=["1", "2-ulp", "2"])
@pytest.mark.parametrize("family,params", [
    ("grid", (12, 12)), ("gnp", (120, 0.06)), ("complete", (20,)), ("path", (60,)),
], ids=lambda p: str(p))
def test_part_bound_at_the_shift_thresholds(family, params, value, monkeypatch):
    # a third of the vertices draw `value`, the rest 0: from 1 on their
    # offers tie or beat the start keys of their neighbors, and at 2 those
    # of their neighbors' neighbors, which the degree cap cannot see.  Below
    # 2 no center is assigned while the cap is at most 2n/3; at 2 they are.
    def two_shifts(u, rate, cap):
        return np.where(u < 1 / 3, value, 0.0)

    monkeypatch.setattr("minorsep.decomp.truncated_exponential", two_shifts)
    monkeypatch.setattr("helpers.truncated_exponential", two_shifts)
    g = gen(family, *params, seed=1)
    tally = count_calls(monkeypatch, [(decomp, "_assign", "assign")])
    for live in (VertexMask.full(g.n), VertexMask(np.arange(g.n) % 5 != 2)):
        for seed in range(4):
            center, shift = heap_partition(g, live, 5.0, stream(seed, "ldd"))
            cap = degree_cap(g, live.ids(), shift[live.ids()])
            if value < 2.0:
                assert largest_part(center) <= cap
            for n in (live.size, 3 * live.size // 2, 2 * live.size):
                tally["assign"] = 0
                res = ldd(g, live, 5.0, stream(seed, "ldd"))
                root = res.large_component(n)
                assert tally["assign"] == (value == 2.0 or 3 * cap > 2 * n)
                assert root == large_inner_component(g, live, center, n)


def test_large_component_gates_at_exactly_two_thirds(monkeypatch):
    # Center 5 (shift 3) takes every vertex but 4 (shift 1.5): a part of 16.
    # Its members 2 and 3 touch 4, so its interior holds 14 in two
    # components, {0, 1} and the clique 5..16 of 12.  Each gate in turn
    # sits exactly at 2n/3, at n = 18, 21 and 24, and passes below it.
    edges = [(0, 1), (0, 2), (1, 2), (2, 4), (3, 4), (2, 5), (3, 5)]
    edges += [(u, v) for u in range(5, 17) for v in range(u + 1, 17)]
    g = build_graph(17, edges)
    shift = np.zeros(17)
    shift[[4, 5]] = [1.5, 3.0]
    monkeypatch.setattr("minorsep.decomp.truncated_exponential", lambda u, rate, cap: shift)
    tally = count_calls(monkeypatch, [(decomp, "_boundary", "boundary"),
                                      (decomp, "connected_components", "labelled")])
    live = VertexMask.full(17)
    for n, root, built, labelled in ((17, 5, 1, 1), (18, None, 1, 1), (21, None, 1, 0),
                                     (24, None, 0, 0)):
        tally["boundary"] = tally["labelled"] = 0
        res = ldd(g, live, 8.0, stream(0, "ldd"))
        assert res.large_component(n) == root
        assert (tally["boundary"], tally["labelled"]) == (built, labelled)
        assert large_inner_component(g, live, res.center, n) == root
    assert [(c, m.tolist()) for c, m in parts(res.center)] == [
        (4, [4]), (5, [0, 1, 2, 3, *range(5, 17)]),
    ]

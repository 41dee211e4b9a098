import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorsep import decomp, graph, separator, verify
from minorsep.decomp import ldd
from minorsep.errors import InputError
from minorsep.graph import VertexMask, ball, bfs_layers, build_graph, connected_components
from minorsep.rng import stream
from minorsep.separator import (
    BalancedSeparator,
    MinorWitness,
    _exact_center,
    _prologue,
    balanced_separator,
    ceil_log2,
    default_ell,
)
from minorsep.verify import verify_balanced, verify_witness

from helpers import (
    count_calls,
    deep_anchor,
    fallback_tree,
    gen,
    heap_partition,
    large_inner_component,
    loop_exact_center,
    retired_fallback,
    two_hub_tail,
    two_hub_wheel,
    two_pass_prologue,
)


# -- parameter helpers -----------------------------------------------------------

def test_ceil_log2():
    assert [ceil_log2(h) for h in (2, 3, 4, 5, 8, 9, 16, 17)] == [1, 2, 2, 3, 3, 4, 4, 5]


def test_default_ell():
    assert default_ell(10000, 5) == 12
    assert default_ell(1, 3) == 1
    assert default_ell(100, 100) == 1  # clamped at 1 for large h
    assert default_ell(4, 3) == 1
    # grows with n, shrinks with h
    assert default_ell(40000, 5) == 23
    assert default_ell(40000, 5) > default_ell(10000, 5) > default_ell(100, 5)
    assert default_ell(10000, 20) < default_ell(10000, 5)


@pytest.mark.parametrize("n,h", [(10, 2), (0, 5)])
def test_default_ell_input_checks(n, h):
    with pytest.raises(InputError):
        default_ell(n, h)


def test_h_validation():
    g = gen("path", 5)
    with pytest.raises(InputError):
        balanced_separator(g, 2)
    with pytest.raises(InputError):
        balanced_separator(g, 0)
    with pytest.raises(InputError):
        balanced_separator(g, 5, ell=0)


def test_delta_too_large_for_a_float_is_an_input_error(monkeypatch):
    # the decomposition draws its shifts in floats; nothing runs first
    monkeypatch.setattr(separator, "_prologue", None)
    g = gen("path", 5)
    with pytest.raises(InputError, match="delta"):
        balanced_separator(g, 5, ell=10**309)
    with pytest.raises(InputError, match="default ell"):
        balanced_separator(g, 10**309)
    with pytest.raises(InputError, match="default ell"):
        default_ell(5, 10**309)


# -- trivial and degenerate inputs -------------------------------------------------

def test_empty_graph():
    out = balanced_separator(build_graph(0, []), 5)
    assert isinstance(out, BalancedSeparator)
    assert out.separator.size == 0
    assert out.stats["iterations"] == 0
    assert out.verification.ok


def test_tiny_graphs():
    out = balanced_separator(gen("complete", 1), 3)
    assert out.separator.ids().tolist() == [0]
    out = balanced_separator(gen("path", 2), 3)
    assert out.separator.ids().tolist() == [0]
    assert out.verification.ok


def test_already_balanced_disconnected_graph():
    # two K4 components: each is at most two thirds of n=8
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
    out = balanced_separator(build_graph(8, edges), 5, debug=True)
    assert out.separator.size == 0
    assert out.verification.ok and out.verification.worst_component == 4


def test_balanced_at_exact_threshold():
    # K6 plus 3 isolated vertices: 3*6 == 2*9 exactly, already balanced
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    out = balanced_separator(build_graph(9, edges), 4, debug=True)
    assert out.separator.size == 0


def test_star_resolved_by_removing_the_center():
    out = balanced_separator(gen("star", 10), 3, debug=True)
    assert out.separator.ids().tolist() == [0]
    assert out.stats["iterations"] == 0
    assert out.verification.worst_component == 1


def test_random_tree_center_shortcut():
    out = balanced_separator(gen("tree", 500, seed=2), 5, debug=True)
    assert out.separator.ids().tolist() == [0]
    assert out.stats["iterations"] == 0
    assert out.verification.ok and out.verification.worst_component == 207


# -- frozen full runs ---------------------------------------------------------------

def test_path200_boundary_finish():
    out = balanced_separator(gen("path", 200), 4, ell=2, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert out.separator.size == 195
    assert out.stats["iterations"] == 1
    assert out.stats["step1_finished"] == 1
    assert out.size_breakdown == {"x": 0, "step1_s": 195, "f_selector": 1}
    assert out.verification.ok


def test_grid20_frozen_run():
    out = balanced_separator(gen("grid", 20, 20), 5, debug=True)
    assert out.separator.size == 382
    assert out.stats["iterations"] == 1
    assert out.verification.worst_component == 5
    assert out.size_breakdown == {"x": 0, "step1_s": 381, "f_selector": 1}
    assert out.verification.component_sizes[0] == 5
    assert sum(out.verification.component_sizes) + out.separator.size == 400


def test_small_clique_below_witness_threshold():
    # growth strips one clique vertex per round, so K7 runs out of rounds
    # before five branches exist and a separator comes back instead
    out = balanced_separator(gen("complete", 7), 5, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert sorted(out.separator.ids().tolist()) == [0, 1, 2]
    assert out.stats["iterations"] == 2
    assert out.stats["step2_count"] == 2
    assert out.stats["exact_center_used"] >= 1
    assert out.verification.worst_component == 4

    out = balanced_separator(gen("complete", 6), 4, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert sorted(out.separator.ids().tolist()) == [0, 1, 2]


def test_clique_witnesses_at_three_rounds_per_branch():
    for h in (3, 4, 5):
        out = balanced_separator(gen("complete", 3 * (h - 1)), h, debug=True)
        assert isinstance(out, MinorWitness), h
        assert out.stats["h"] == h
        assert out.model.size == h
        assert out.verification.ok
        assert verify_witness(gen("complete", 3 * (h - 1)), out.model, h).ok
    # singleton branches on the clique, discovered in id order
    out = balanced_separator(gen("complete", 12), 5, debug=True)
    assert [b.tolist() for b in out.model.branches] == [[0], [1], [2], [3], [4]]


def test_subdivided_clique_witness():
    g = gen("subdivided_clique", 13, 1)
    out = balanced_separator(g, 8, ell=1, debug=True)
    assert isinstance(out, MinorWitness)
    assert out.model.size == 8
    assert verify_witness(g, out.model, 8).ok


# -- prologue, interior bound and component passes -----------------------------------

@st.composite
def sparse_graphs(draw, max_n=14):
    """Graphs with at most n random edges, so most are disconnected."""
    n = draw(st.integers(0, max_n))
    if n < 2:
        return build_graph(n, [])
    v = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(v, v).filter(lambda e: e[0] != e[1]), max_size=n))
    return build_graph(n, pairs)


@st.composite
def near_connected_graphs(draw, max_n=14):
    """A random spanning tree plus up to n random edges, less up to two of
    the tree's edges, so vertex 0's first neighbor often reaches 2n/3 in
    g - {0} and sometimes falls just short."""
    n = draw(st.integers(2, max_n))
    order = draw(st.permutations(range(n)))
    tree = [(order[i], order[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    cut = draw(st.sets(st.integers(0, n - 2), max_size=2))
    v = st.integers(0, n - 1)
    extra = draw(st.lists(st.tuples(v, v).filter(lambda e: e[0] != e[1]), max_size=n))
    return build_graph(n, [e for i, e in enumerate(tree) if i not in cut] + extra)


def prologue_key(result):
    """(x, live ids, exit kind) of a prologue's (x, live, lone)."""
    x, live, lone = result
    kind = "loop" if lone is None else ("lone" if lone.size else "none")
    return x, None if live is None else live.ids().tolist(), kind


def check_prologue(g):
    got = prologue_key(_prologue(g))
    assert got == prologue_key(two_pass_prologue(g))
    return got


@settings(max_examples=300)
@given(st.one_of(sparse_graphs(), near_connected_graphs()))
def test_prologue_matches_two_pass_oracle(g):
    check_prologue(g)


@pytest.mark.parametrize("n,edges,expect", [
    (0, [], (None, None, "none")),
    (1, [], (0, [], "lone")),
    (2, [], (None, None, "none")),
    (2, [(0, 1)], (0, [1], "lone")),
    # vertex 0 isolated: the largest component avoids it
    (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)], (1, [2, 3, 4, 5, 6], "loop")),
    # vertex 0 in a smaller component: x is the big component's smallest id
    (10, [(0, 1)] + [(i, i + 1) for i in range(2, 9)], (2, list(range(3, 10)), "loop")),
    # two largest components of equal size, with and without vertex 0: neither
    # holds over n/2, so nothing is removed
    (8, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)], (None, None, "none")),
    (7, [(1, 2), (2, 3), (4, 5), (5, 6)], (None, None, "none")),
    # vertex 0 a cut vertex: star, and the middle of a path
    (6, [(0, i) for i in range(1, 6)], (0, [1], "lone")),
    (10, [(1, 0), (0, 2)] + [(i, i + 1) for i in range(2, 9)], (0, list(range(2, 10)), "loop")),
    (7, [(1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)], (0, [1, 2, 3], "lone")),
    # two equal components left by removing 0; the smaller id ranks first
    (9, [(0, 1), (1, 2), (2, 3), (0, 8), (8, 7), (7, 6), (4, 5)], (0, [1, 2, 3], "lone")),
    # 0's first neighbor reaches exactly 2n/3 in g - {0}: the BFS decides
    (6, [(0, 1), (1, 2), (2, 3), (3, 4)], (0, [1, 2, 3, 4], "loop")),
    # it reaches one vertex short of 2n/3, so the component pass decides
    (6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)], (0, [1, 2, 3], "lone")),
    # 0 joined to a giant part and to a pendant of larger id, which the
    # BFS from the giant part's vertex 1 leaves out of live
    (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 7)], (0, [1, 2, 3, 4, 5, 6], "loop")),
    # 0 a cut vertex whose smallest neighbor lies in the small side
    (9, [(0, 1), (1, 2), (0, 3)] + [(i, i + 1) for i in range(3, 8)], (0, list(range(3, 9)), "loop")),
])
def test_prologue_cases(n, edges, expect):
    assert check_prologue(build_graph(n, edges)) == expect


@st.composite
def ldd_inputs(draw):
    g = draw(st.one_of(sparse_graphs(max_n=24), near_connected_graphs(max_n=24)))
    # live is whole, or a random subset that often splits the graph
    keep = st.lists(st.booleans(), min_size=g.n, max_size=g.n)
    live = VertexMask(np.array(draw(st.one_of(st.just([True] * g.n), keep)), dtype=bool))
    # far above the diameter one part often holds a whole component
    delta = draw(st.one_of(st.floats(0.5, 40.0), st.floats(40.0, 1.0e4)))
    return g, live, delta, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200)
@given(ldd_inputs(), st.integers(1, 6))
def test_large_component_matches_a_component_pass(args, extra):
    # step 1 passes the original n, which may exceed the live count
    g, live, delta, seed = args
    center, _ = heap_partition(g, live, delta, stream(seed, "ldd"))
    for n in (live.size, live.size + extra, 2 * live.size):
        res = ldd(g, live, delta, stream(seed, "ldd"))
        assert res.large_component(n) == large_inner_component(g, live, center, n)


@pytest.mark.parametrize("family,params", [("complete", (12,)), ("gnp", (60, 0.3))])
def test_interior_bound_lets_the_pass_run_when_one_part_dominates(family, params, monkeypatch):
    # a delta far above the diameter leaves one part and no boundary, so the
    # part's interior is all of live, and the component pass finds it while
    # it holds more than 2n/3
    g = gen(family, *params, seed=1)
    live = VertexMask.full(g.n)
    calls = count_calls(monkeypatch, [(decomp, "connected_components", "labelled")])
    for n, root, labelled in ((g.n, 0, 1), ((3 * g.n - 1) // 2, 0, 1), (3 * g.n // 2, None, 0)):
        calls["labelled"] = 0
        res = ldd(g, live, 1.0e4, stream(1, "ldd"))
        assert res.large_component(n) == root
        assert calls["labelled"] == labelled
        assert res.boundary.size == 0


@pytest.fixture
def pass_count(monkeypatch):
    # "passes" counts every csgraph component pass, whoever asks for it, so
    # labelled + sizes == passes shows that no other caller made one
    return count_calls(monkeypatch, [
        (separator, "_reach_without", "reach"),
        (separator, "connected_components", "labelled"),
        (decomp, "connected_components", "labelled"),
        (verify, "_component_sizes", "sizes"),
        (graph, "_raw_components", "passes"),
    ])


@pytest.mark.parametrize("n,edges,labelled", [
    # 0's first neighbor reaches exactly 2n/3 in g - {0}: the BFS decides
    (6, [(0, 1), (1, 2), (2, 3), (3, 4)], 0),
    # one vertex short: the pass on g - {0} decides
    (6, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5)], 1),
])
def test_prologue_bfs_decides_from_two_thirds(monkeypatch, n, edges, labelled):
    calls = count_calls(monkeypatch, [(separator, "connected_components", "labelled")])
    _prologue(build_graph(n, edges))
    assert calls == {"labelled": labelled}


@pytest.mark.parametrize("family,params", [("grid", (40, 40)), ("cycle", (2000,))])
def test_sparse_solve_makes_two_component_passes(pass_count, family, params):
    # two passes over the edges and no component labelled: the prologue's
    # BFS in g - {0} reaches 2n/3, and verification counts the sizes of the
    # components left by the separator
    out = balanced_separator(gen(family, *params), 5)
    assert out.kind == "separator" and out.stats["step1_finished"] == 1
    assert pass_count == {"reach": 1, "labelled": 0, "sizes": 1, "passes": 1}


def test_step1_pass_centers_the_view_when_an_interior_is_large(pass_count):
    # delta = 60 lets one part's interior hold over 2n/3 of the tree, so step 1
    # labels the components and centers the view on the largest; live is above
    # the exact scan's limit, so no other route reaches step 2 here
    out = balanced_separator(gen("tree", 700, seed=1), 5, ell=30, seed=1)
    s = out.stats
    assert (s["step1_finished"], s["exact_center_used"], s["step2_count"]) == (0, 0, 1)
    # the prologue's reach; step 1 and the live part after step 2 labelled;
    # verification's sizes
    assert pass_count == {"reach": 1, "labelled": 2, "sizes": 1, "passes": 3}


def test_centred_iterations_search_once(monkeypatch):
    # 7 iterations, each centred on the first live id by the exact scan: the
    # first step 1 searches, and each live update after step 2 makes the one
    # search that both finds the live part and centres the next iteration.
    # The prologue's reach finds the first live part with no component pass;
    # a witness needs no other, and no scan of the other ids runs.
    calls = count_calls(monkeypatch, [
        (separator, name, name)
        for name in ("bfs_layers", "_ball_sizes", "_reach_without", "connected_components")
    ])
    out = balanced_separator(gen("gnp", 450, 0.045, seed=7), 8, seed=1)
    assert out.kind == "witness"
    s = out.stats
    assert (s["iterations"], s["exact_center_used"], s["step2_count"]) == (7, 7, 7)
    assert calls == {"bfs_layers": 7, "_ball_sizes": 0, "_reach_without": 1,
                     "connected_components": 0}


def test_centred_iterations_build_no_boundary(monkeypatch):
    # every step 1 of this witness run is centred by the exact scan and its
    # parts are small, so no LDD boundary is ever read
    calls = count_calls(monkeypatch, [(decomp, "_boundary", "boundary")])
    out = balanced_separator(gen("gnp", 450, 0.045, seed=7), 8, seed=1)
    assert out.kind == "witness"
    assert out.stats["ldd_calls"] == out.stats["exact_center_used"] == 7
    assert calls == {"boundary": 0}


@pytest.mark.parametrize("family,params,h,counts", [
    ("gnp", (450, 0.045), 8, [(7, 7, 0)] * 3),
    ("gnp", (450, 0.045), 10, [(9, 0, 0)] * 3),
    ("gnp", (450, 0.045), 12, [(11, 0, 0)] * 3),
    ("grid", (40, 40), 15, [(1, 1, 1)] * 3),
    ("complete", (150,), 15, [(14, 14, 14), (14, 14, 13), (14, 14, 13)]),
    ("grid", (22, 22), 5, [(1, 1, 1)] * 3),
    ("cycle", (500,), 5, [(1, 1, 1)] * 3),
    ("path", (500,), 5, [(1, 1, 1)] * 3),
], ids=["gnp-h8", "gnp-h10", "gnp-h12", "grid-h15", "complete-h15", "grid22-h5",
        "cycle500-h5", "path500-h5"])
def test_step1_assigns_centers_only_past_the_shift_bound(monkeypatch, family, params, h,
                                                         counts):
    # (ldd calls, center assignments, boundaries built) for solver seeds
    # 0-2.  gnp at h = 10 and 12 has delta = 4, so every shift is below 2,
    # and 1 + its largest degree is far below 2n/3: no step 1 assigns the
    # centers.  At h = 8 (delta = 6) the shifts reach 2, so each call assigns
    # them, but no part holds 2n/3 and no boundary is built.  K_150's degree
    # cap and its parts exceed 2n/3, so most calls build the boundary too;
    # the sparse inputs assign once, and build the boundary only as S.
    calls = count_calls(monkeypatch, [(decomp, "_assign", "assign"),
                                      (decomp, "_boundary", "boundary")])
    g = gen(family, *params, seed=7)
    for seed, want in enumerate(counts):
        calls["assign"] = calls["boundary"] = 0
        out = balanced_separator(g, h, seed=seed)
        assert (out.stats["ldd_calls"], calls["assign"], calls["boundary"]) == want


@pytest.mark.parametrize("family,params", [("grid", (40, 40)), ("cycle", (2000,))])
def test_sparse_solve_builds_the_boundary_once(monkeypatch, family, params):
    # the one step 1 finishes with S, which is the only read of its boundary
    calls = count_calls(monkeypatch, [(decomp, "_boundary", "boundary")])
    out = balanced_separator(gen(family, *params), 5)
    assert out.stats["ldd_calls"] == out.stats["step1_finished"] == 1
    assert calls == {"boundary": 1}


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_failed_first_id_search_is_not_repeated(monkeypatch, seed):
    # a live update's search fails, and step 1 takes its record for the same
    # live part rather than searching it again: 4 searches, each of a
    # different live mask
    searches = []

    def counted(g, live, r, n):
        searches.append(live.bits.tobytes())
        return _exact_center(g, live, r, n)

    monkeypatch.setattr(separator, "_exact_center", counted)
    out = balanced_separator(gen("subdivided_clique", 9, 2), 9, seed=seed)
    assert out.kind == "separator"
    assert len(searches) == 4
    assert len(set(searches)) == 4


def test_live_update_takes_a_later_center_reach(monkeypatch):
    # gnp(40, 0.1, seed 1) at h = 9: after the second step 2, rest's smallest
    # id 6 fails and id 13 passes, so live is 13's reach in rest, found with
    # no component pass.  The only labelled pass is the last update's, whose
    # rest holds no center
    g = gen("gnp", 40, 0.1, seed=1)
    updates = []
    update = separator._update_live

    def recorded(st, rest):
        update(st, rest)
        updates.append((rest, st.live, st.center_search))

    monkeypatch.setattr(separator, "_update_live", recorded)
    calls = count_calls(monkeypatch, [(separator, "connected_components", "labelled")])
    out = balanced_separator(g, 9, seed=0)
    assert out.stats["step2_count"] == out.stats["exact_center_used"] == 3
    assert calls == {"labelled": 1}
    rest, live, (mask, dist) = updates[1]
    delta = out.stats["ell"] * ceil_log2(9)
    assert (int(np.argmax(rest.bits)), loop_exact_center(g, rest, delta, g.n)) == (6, 13)
    assert mask is live and np.array_equal(dist, bfs_layers(g, rest, 13))
    assert live.ids().tolist() == ball(g, rest, 13, g.n).ids().tolist()


# -- exact center scan -------------------------------------------------------------

def hubs(n, centers):
    """n vertices; each id in `centers` is adjacent to every other vertex."""
    return build_graph(n, [(c, v) for c in centers for v in range(n) if v != c])


def scan(g, live, r):
    """Step 1's exact center, after checking it against the per-vertex loop
    and its depth array against a full BFS from that center."""
    dist = _exact_center(g, live, r, g.n)
    got = None if dist is None else int(np.argmax(dist == 0))
    assert got == loop_exact_center(g, live, r, g.n)
    if dist is not None:
        assert np.array_equal(dist, bfs_layers(g, live, got))
    return got


def test_exact_center_takes_the_first_id_on_dense_gnp():
    g = gen("gnp", 120, 0.3, seed=2)
    delta = default_ell(g.n, 5) * ceil_log2(5)
    full = VertexMask.full(g.n)
    assert scan(g, full, delta) == 0
    assert scan(g, full, 0) is None
    scan(g, full, 1)
    holed = VertexMask.full(g.n).minus_ids(np.array([0, 1, 5]))
    assert scan(g, holed, delta) == 2


@pytest.mark.parametrize("family,params", [
    ("cycle", (500,)), ("path", (500,)), ("grid", (22, 22)),
])
def test_exact_center_rejects_every_id_on_sparse_inputs(family, params):
    g = gen(family, *params)
    delta = default_ell(g.n, 5) * ceil_log2(5)
    for r in (0, 1, delta):
        assert scan(g, VertexMask.full(g.n), r) is None


def test_exact_center_finds_a_late_hub_at_every_position():
    n = 40
    for c in range(n):
        g = hubs(n, [c])
        assert scan(g, VertexMask.full(n), 1) == c
        assert scan(g, VertexMask.full(n), 0) is None
        assert scan(g, VertexMask.full(n), 2) == 0


def test_exact_center_searches_at_most_512_live_vertices():
    # the size gate sits in `_exact_center` itself: past 512 live vertices
    # it answers None, though here the first id's ball holds everything; a
    # first-id test run at every live size would return the hub on both
    g = hubs(513, [0])
    assert _exact_center(g, VertexMask.full(513), 1, 513) is None
    g = hubs(512, [0])
    dist = _exact_center(g, VertexMask.full(512), 1, 512)
    assert int(np.argmax(dist == 0)) == 0
    assert np.array_equal(dist, bfs_layers(g, VertexMask.full(512), 0))


def test_exact_center_takes_the_smallest_of_several_hubs():
    n = 40
    for centers in ((5, 6), (7, 4), (12, 9), (3, 38), (20, 31, 17)):
        assert scan(hubs(n, centers), VertexMask.full(n), 1) == min(centers)


def test_exact_center_respects_holes_in_live():
    g = hubs(30, [17])
    live = VertexMask.full(30).minus_ids(np.array([0, 3, 4, 20]))
    assert scan(g, live, 1) == 17
    assert scan(g, live, 2) == 1
    assert scan(g, live.minus_ids(np.array([17])), 1) is None
    g = gen("grid", 9, 9)
    rng = np.random.default_rng(4)
    for _ in range(5):
        live = VertexMask(rng.random(g.n) < 0.85)
        for r in (0, 1, 4, 6, 8):
            scan(g, live, r)


@pytest.mark.parametrize("family,params,h", [
    ("gnp", (450, 0.045), 8), ("gnp", (450, 0.045), 12), ("complete", (150,), 15),
    ("grid", (22, 22), 5), ("cycle", (500,), 5), ("path", (500,), 5),
    ("subdivided_clique", (6, 20), 5), ("subdivided_clique", (9, 2), 9),
])
def test_exact_center_matrix_stays_small(monkeypatch, family, params, h):
    # `_ball_sizes` keeps a bit column of ceil(|live| / 64) words per live
    # id; `_exact_center` scans at most EXACT_CENTER_LIMIT = 512 live
    # vertices, so at most 8 words each, and only while 3|live| >= 2n, so
    # n <= 768.  The dense inputs pass at the first id and never scan;
    # subdivided_clique(9, 2) scans 65 live ids after a failed first-id
    # search in a live update.
    calls = []

    def recorded(g, live, r, sources):
        calls.append((g.n, live.size))
        return graph._ball_sizes(g, live, r, sources)

    monkeypatch.setattr(separator, "_ball_sizes", recorded)
    balanced_separator(gen(family, *params, seed=7), h, seed=1)
    assert bool(calls) == (family not in ("gnp", "complete"))
    assert all(n <= 768 and size <= 512 for n, size in calls)


# -- deep instances driving the rarer steps ----------------------------------------

def test_layer_cut_on_heavy_tail():
    # most of the mass hides deeper than the window: a layer gets cut into X
    out = balanced_separator(deep_anchor(68, 30), 5, ell=1, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert out.stats["step4_count"] == 1
    assert out.stats["charged"] > 0
    assert out.stats["retired_branches"] == 1
    assert out.stats["fallback_level"] == 1
    assert sorted(out.separator.ids().tolist()) == [1, 73]
    assert out.verification.ok


def test_deep_branch_extension_on_light_tail():
    # tail too light for a cut: the stuck branch grows through a thin layer
    out = balanced_separator(deep_anchor(68, 22), 5, ell=1, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert out.stats["step3_count"] == 1
    assert out.stats["step4_count"] == 0
    assert out.stats["fallback_level"] == 1
    assert out.separator.size == 9
    assert out.verification.ok


def test_fallback_when_selector_would_unbalance():
    # keeping the bridge branch and taking its single neighbor would glue
    # three dropped stars into an oversized component
    out = balanced_separator(fallback_tree(), 3, ell=1, debug=True)
    assert isinstance(out, BalancedSeparator)
    assert out.stats["fallback_level"] == 1
    assert sorted(out.separator.ids().tolist()) == [1, 2]
    assert out.verification.ok


# sha256 of (kind, separator ids or branches, size_breakdown, stats) for runs
# that reach the steps the CLI frozen digests do not: branch growth (step 3),
# a layer cut (step 4), fallback levels 1 and 2, a witness, and a view
# centered by step 1's component pass rather than the exact scan.
FROZEN_PATHS = [
    ("deep_anchor_22", lambda: balanced_separator(deep_anchor(68, 22), 5, ell=1),
     "45d93194d9b95adeb6c64471851f8cb13cd0a9f807ec8c337b87f6c75248cdc5"),
    ("deep_anchor_30", lambda: balanced_separator(deep_anchor(68, 30), 5, ell=1),
     "b42c7b332b3bf81966e220dbf26a531374e53a25badce9e8a9a63dca8d59ac1f"),
    ("fallback_tree", lambda: balanced_separator(fallback_tree(), 3, ell=1),
     "84bd1a1bcfff0996d53cb0e58dccfed816120c1b8e3fcf9be1e73204e38009c4"),
    ("gnp200_ldd_center",
     lambda: balanced_separator(gen("gnp", 200, 0.015, seed=3), 5, ell=20, seed=3),
     "d927a14456d19515a5a992547c0043746ce31dc1267f35af8eb84eccf4c0dcfd"),
    ("complete9", lambda: balanced_separator(gen("complete", 9), 4),
     "91b0cbfae1f7943775274c6f13f315921d4fa04b09ccf1a7bd92c82cd21ca418"),
    ("retired_fallback", lambda: balanced_separator(retired_fallback(), 6, ell=3),
     "66cb6d3e8c33f0fdaa300ddca6a09ee48788615ec022611b3d5590c89972c7bd"),
    # witnesses grown by 7, 11 and 14 exactly centred iterations, whose live
    # updates find the next center's search
    ("gnp450_h8", lambda: balanced_separator(gen("gnp", 450, 0.045, seed=7), 8, seed=1),
     "c579a5e0ef754aafbf73729d96cd7bc7070de9dc8e7b36066087e271ff1af350"),
    ("gnp450_h12", lambda: balanced_separator(gen("gnp", 450, 0.045, seed=7), 12, seed=1),
     "5b3dc2195eeafb8b2c2208499d790e6bf72ed4c7b8a93e52cddee998e74f6b07"),
    ("complete150_h15", lambda: balanced_separator(gen("complete", 150), 15, seed=1),
     "e5902f3c4bc3b516ba7b13d0b90bc0ae6fda5c2ce15d3e0d967efff360559c81"),
    # a live update's search finds no center in what is left, so step 1
    # takes that record and does not search again
    ("subdivided_clique9_2_h9",
     lambda: balanced_separator(gen("subdivided_clique", 9, 2), 9, seed=1),
     "7581be7f960f2502b94cfcd47f31e82602dd5e70518c8a2fa37b90bec57352a9"),
    # a live update's first id falls outside the new live part, whose
    # center is a later id: live is that center's reach, and the record of
    # an earlier live part must not stand in for step 1's search
    ("gnp80_unrecorded_failure",
     lambda: balanced_separator(gen("gnp", 80, 0.05, seed=5), 5, ell=2),
     "80e8c5ae7b843529c2c260b5b66604ceebdeb0f2378ca65b5b36f99bf150aead"),
    # a layer cut after a live update's search leaves live with no record,
    # so step 1 searches again rather than take the update's
    ("two_hub_tail", lambda: balanced_separator(two_hub_tail(), 9, ell=1),
     "384be451e86d9946aab021f904a98c0d50579b86a242b0b33632bb4a7dc4cfca"),
    # a live update on more than EXACT_CENTER_LIMIT vertices does not search,
    # and its smaller live part must still get step 1's search
    ("two_hub_wheel", lambda: balanced_separator(two_hub_wheel(), 5, ell=20),
     "175b6af587173b678e038dd21f7e61c791c714041a99fcc2a8925f93a0d512ad"),
]


@pytest.mark.parametrize("name,run,sha", FROZEN_PATHS, ids=[p[0] for p in FROZEN_PATHS])
def test_step_paths_match_frozen_digests(name, run, sha):
    out = run()
    if out.kind == "separator":
        body = [out.kind, out.separator.ids().tolist(), out.size_breakdown, out.stats]
    else:
        body = [out.kind, [b.tolist() for b in out.model.branches], None, out.stats]
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == sha


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_deep_instances_stable_across_seeds(seed):
    # the layering, not the randomness, decides these runs
    a = balanced_separator(deep_anchor(68, 30), 5, ell=1, seed=seed, debug=True)
    assert sorted(a.separator.ids().tolist()) == [1, 73]
    b = balanced_separator(fallback_tree(), 3, ell=1, seed=seed, debug=True)
    assert sorted(b.separator.ids().tolist()) == [1, 2]


# -- determinism ----------------------------------------------------------------------

def test_deterministic_per_seed():
    g = gen("gnp", 150, 0.03, seed=5)
    a = balanced_separator(g, 5, seed=9)
    b = balanced_separator(g, 5, seed=9)
    assert a.kind == b.kind == "separator"
    assert np.array_equal(a.separator.bits, b.separator.bits)
    assert a.stats == b.stats


# -- randomized soundness sweep -------------------------------------------------------

@settings(max_examples=25)
@given(st.integers(0, 2**31 - 1), st.integers(3, 7))
def test_outcomes_always_verify(seed, h):
    g = gen("gnp", 80, 0.05, seed=seed % 17)
    out = balanced_separator(g, h, seed=seed, debug=True)
    if out.kind == "separator":
        assert verify_balanced(g, out.separator).ok
        assert out.separator.size <= g.n
    else:
        assert verify_witness(g, out.model, h).ok
    assert out.stats["invariant_checks"] == out.stats["iterations"]


@settings(max_examples=15)
@given(st.integers(1, 120), st.integers(0, 2**31 - 1))
def test_trees_and_paths_always_balanced(n, seed):
    for g in (gen("tree", n, seed=seed % 29), gen("path", n)):
        out = balanced_separator(g, 4, seed=seed, debug=True)
        assert out.kind == "separator"
        assert verify_balanced(g, out.separator).ok


def test_stats_are_internally_consistent():
    out = balanced_separator(gen("grid", 12, 12), 5, debug=True)
    s = out.stats
    assert s["n"] == 144 and s["h"] == 5
    assert s["iterations"] >= s["step1_finished"]
    assert s["ldd_calls"] == s["iterations"]
    assert s["charged"] <= s["n"]
    assert out.separator.size == len(out.separator.ids())
    # breakdown sources cover the separator (they may overlap each other)
    assert sum(out.size_breakdown.values()) >= out.separator.size

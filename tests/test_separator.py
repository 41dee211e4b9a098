import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorsep.errors import InputError
from minorsep.graph import VertexMask, build_graph
from minorsep.instances import InstanceSpec, generate
from minorsep.separator import (
    BalancedSeparator,
    MinorWitness,
    _exact_center,
    balanced_separator,
    ceil_log2,
    default_ell,
)
from minorsep.verify import verify_balanced, verify_witness

from helpers import deep_anchor, fallback_tree, loop_exact_center


def gen(family, *params, seed=0):
    return generate(InstanceSpec(family, params, seed))


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


def test_h_validation():
    g = gen("path", 5)
    with pytest.raises(InputError):
        balanced_separator(g, 2)
    with pytest.raises(InputError):
        balanced_separator(g, 0)
    with pytest.raises(InputError):
        balanced_separator(g, 5, ell=0)


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
    assert out.component_sizes[0] == 5
    assert sum(out.component_sizes) + out.separator.size == 400


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
        assert out.h == h
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


# -- exact center scan -------------------------------------------------------------

def hubs(n, centers):
    """n vertices; each id in `centers` is adjacent to every other vertex."""
    return build_graph(n, [(c, v) for c in centers for v in range(n) if v != c])


def scan(g, live, r):
    """The batched scan's vertex, after checking it against the per-vertex loop."""
    got = _exact_center(g, live, r, g.n)
    assert got == loop_exact_center(g, live, r, g.n)
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


def test_exact_center_finds_a_late_hub_in_every_block():
    n = 40
    for c in range(n):
        g = hubs(n, [c])
        assert scan(g, VertexMask.full(n), 1) == c
        assert scan(g, VertexMask.full(n), 0) is None
        assert scan(g, VertexMask.full(n), 2) == 0


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


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_deep_instances_stable_across_seeds(seed):
    # the layering, not the randomness, decides these runs
    a = balanced_separator(deep_anchor(68, 30), 5, ell=1, seed=seed, debug=True)
    assert sorted(a.separator.ids().tolist()) == [1, 73]
    b = balanced_separator(fallback_tree(), 3, ell=1, seed=seed, debug=True)
    assert sorted(b.separator.ids().tolist()) == [1, 2]


# -- determinism and the sampled-center variant --------------------------------------

def test_deterministic_per_seed():
    g = gen("gnp", 150, 0.03, seed=5)
    a = balanced_separator(g, 5, seed=9)
    b = balanced_separator(g, 5, seed=9)
    assert a.kind == b.kind == "separator"
    assert np.array_equal(a.separator.bits, b.separator.bits)
    assert a.stats == b.stats


def test_fast_center_deterministic_and_verified():
    g = gen("gnp", 300, 0.01, seed=7)
    a = balanced_separator(g, 5, seed=3, fast_center=True, debug=True)
    b = balanced_separator(g, 5, seed=3, fast_center=True, debug=True)
    assert a.kind == b.kind
    assert a.stats == b.stats
    assert a.stats["fast_accepts"] + a.stats["fast_rejects"] > 0
    if a.kind == "separator":
        assert np.array_equal(a.separator.bits, b.separator.bits)
        assert a.verification.ok
    else:
        assert a.verification.ok


def test_fast_center_still_sound_on_structured_inputs():
    for fam, params, h in [("grid", (15, 15), 5), ("cycle", (60,), 3), ("tree", (300,), 4)]:
        out = balanced_separator(gen(fam, *params), h, fast_center=True, debug=True)
        if out.kind == "separator":
            assert verify_balanced(gen(fam, *params), out.separator).ok
        else:
            assert out.verification.ok


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
    assert s["ldd_calls"] >= s["iterations"] - 1
    assert s["charged"] <= s["n"]
    assert out.separator.size == len(out.separator.ids())
    # breakdown sources cover the separator (they may overlap each other)
    assert sum(out.size_breakdown.values()) >= out.separator.size

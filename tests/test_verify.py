from dataclasses import dataclass, fields

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from minorsep.graph import Graph, VertexMask, build_graph
from minorsep.minor_model import MinorModel
from minorsep.separator import DriverState, check_invariants
from minorsep.verify import verify_balanced, verify_witness

from helpers import brute_balanced, gen


def model_from(branches, n):
    return MinorModel(n, tuple(np.asarray(b, dtype=np.int64) for b in branches))


# -- balance -------------------------------------------------------------------

def test_balance_examples():
    p3 = gen("path", 3)
    r = verify_balanced(p3, VertexMask.from_ids(3, [1]))
    assert r.ok and r.component_sizes[0] == 1

    k4 = gen("complete", 4)
    r = verify_balanced(k4, VertexMask.empty(4))
    assert not r.ok and r.component_sizes[0] == 4
    assert r.failures() and r.failures()[0][0] == "balanced"

    grid = gen("grid", 5, 5)
    mid_col = VertexMask.from_ids(25, [2, 7, 12, 17, 22])
    r = verify_balanced(grid, mid_col)
    assert r.ok and r.component_sizes[0] == 10


def test_balance_edge_cases():
    one = gen("path", 1)
    assert not verify_balanced(one, VertexMask.empty(1)).ok
    assert verify_balanced(one, VertexMask.full(1)).ok  # nothing remains
    # exactly at the threshold: 3*2 <= 2*3
    p3 = gen("path", 3)
    assert verify_balanced(p3, VertexMask.from_ids(3, [0])).ok


def test_report_to_dict_shape():
    r = verify_balanced(gen("path", 3), VertexMask.from_ids(3, [1]))
    d = r.to_dict()
    assert set(d) == {"ok", "checks"}
    assert d["checks"][0][0] == "balanced" and d["checks"][0][1] is True


@given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(0, 40))
def test_balance_matches_brute_force(seed, n, m):
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(m):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = build_graph(n, sorted(edges))
    sep_bits = rng.random(n) < 0.3
    r = verify_balanced(g, VertexMask(sep_bits))
    ok, worst = brute_balanced(n, sorted(edges), np.flatnonzero(sep_bits).tolist())
    assert r.ok == ok
    assert max(r.component_sizes, default=0) == worst


# -- witness -------------------------------------------------------------------

def test_witness_examples():
    k5 = gen("complete", 5)
    singletons = model_from([[v] for v in range(5)], 5)
    assert verify_witness(k5, singletons, 5).ok
    assert not verify_witness(k5, singletons, 6).ok

    c5 = gen("cycle", 5)
    assert not verify_witness(c5, model_from([[v] for v in range(5)], 5), 5).ok


def test_witness_tampered_branch_rejected():
    # remove one vertex from a valid witness: the pair adjacency collapses
    g = gen("subdivided_clique", 5, 1)
    branches = [[0], [1, 5], [2, 6], [3, 7], [4, 8]]  # not a valid model of K5 here
    r = verify_witness(g, model_from(branches, g.n), 5)
    assert not r.ok
    failed = {name for name, ok, _ in r.checks if not ok}
    assert "pairwise_adjacent" in failed


# -- driver invariants -----------------------------------------------------------

@dataclass
class FakeState:
    g: Graph
    model: MinorModel
    x_set: VertexMask
    live: VertexMask
    # the run parameters check_invariants reads: n, h, ell and delta
    stats: dict
    nbrs: list


def test_fake_state_fields_are_driver_state_fields():
    # the fake stands in for DriverState only while it has no field the
    # driver's state lacks
    driver = {f.name for f in fields(DriverState)}
    driver |= {name for name, v in vars(DriverState).items() if isinstance(v, property)}
    assert {f.name for f in fields(FakeState)} <= driver


def healthy_state():
    g = gen("grid", 4, 4)
    model = model_from([[0]], 16)
    live = VertexMask.from_ids(16, [v for v in range(16) if v not in (0,)])
    return FakeState(g=g, model=model, x_set=VertexMask.empty(16), live=live,
                     stats={"n": 16, "h": 4, "ell": 2, "delta": 4},
                     nbrs=[np.array([1, 4])])


def failing(report):
    return {name for name, ok, _ in report.checks if not ok}


def test_invariants_pass_on_healthy_state():
    r = check_invariants(healthy_state())
    assert r.ok, r.failures()
    assert {name for name, _, _ in r.checks} == {
        "model_small_and_valid", "live_disjoint_from_branches",
        "every_branch_touches_live", "branch_size_or_neighborhood",
        "live_boundary_covered", "state_sane", "carried_neighbors_match",
    }


def test_invariants_catch_stale_carried_neighbors():
    s = healthy_state()
    # vertex 1 has left live, but the carried list still holds it
    s.live = s.live.minus_ids(np.array([1]))
    s.x_set = VertexMask.from_ids(16, [1])
    assert failing(check_invariants(s)) == {"carried_neighbors_match"}
    s.nbrs = [np.array([4])]
    assert check_invariants(s).ok
    # one list per branch: a missing or extra list fails too
    for nbrs in ([], [np.array([4]), np.array([4])]):
        s.nbrs = nbrs
        assert failing(check_invariants(s)) == {"carried_neighbors_match"}


def test_invariants_catch_model_too_large():
    s = healthy_state()
    s.stats["h"] = 1  # now |K| = 1 > h-1 = 0
    assert "model_small_and_valid" in failing(check_invariants(s))


def test_invariants_catch_disconnected_branch():
    s = healthy_state()
    # opposite corners of the grid: the branch is small but not connected
    s.model = model_from([[0, 15]], 16)
    s.live = VertexMask.from_ids(16, range(1, 15))
    s.nbrs = [np.array([1, 4, 11, 14])]
    r = check_invariants(s)
    assert failing(r) == {"model_small_and_valid"}
    detail = next(d for name, _, d in r.checks if name == "model_small_and_valid")
    assert detail == "|K|=1 <= h-1=3: True; disconnected branches [0] (1 in all)"


def test_invariants_catch_live_overlap():
    s = healthy_state()
    s.live = VertexMask.from_ids(16, list(range(16)))  # includes branch vertex 0
    assert "live_disjoint_from_branches" in failing(check_invariants(s))


def test_invariants_catch_detached_branch():
    s = healthy_state()
    s.live = VertexMask.from_ids(16, [10, 11, 14, 15])  # far corner only
    r = check_invariants(s)
    assert "every_branch_touches_live" in failing(r)
    # and vertices adjacent to that live region are neither X nor branch
    assert "live_boundary_covered" in failing(r)


def test_invariants_catch_oversized_branch():
    s = healthy_state()
    # a long snake branch: bigger than budget, with a big live neighborhood
    snake = [0, 1, 2, 3, 7, 11, 15, 14, 13]
    s.model = model_from([snake], 16)
    s.live = VertexMask.from_ids(16, [v for v in range(16) if v not in snake])
    # budget (h-1)*(delta + ell* + ell) + 1 with ell* = delta + ell: 3*2 + 1
    # = 7 < 9 here; no delta the driver computes (ell*ceil(log2 h) >= 2)
    # makes a budget below 13, which a 16-vertex grid cannot outgrow with
    # live neighbors to spare
    s.stats.update(n=16, h=4, ell=1, delta=0)
    r = check_invariants(s)
    assert "branch_size_or_neighborhood" in failing(r)
    detail = next(d for name, _, d in r.checks if name == "branch_size_or_neighborhood")
    assert detail.startswith("budget 7, n/(h*ell) threshold 16/4")
    # the second arm forgives a big branch with a tiny live neighborhood:
    # h*ell*|N| = 4*1*6 = 24 <= n
    s.stats["n"] = 1000
    assert "branch_size_or_neighborhood" not in failing(check_invariants(s))


def test_invariants_catch_uncovered_boundary():
    s = healthy_state()
    s.live = VertexMask.from_ids(16, [5, 6, 9, 10])
    # outside neighbors of the live block (1,2,4,7,8,11,13,14) are uncovered
    assert "live_boundary_covered" in failing(check_invariants(s))
    # covering them with X fixes exactly that check
    s.x_set = VertexMask.from_ids(16, [1, 2, 4, 7, 8, 11, 13, 14])
    r = check_invariants(s)
    assert "live_boundary_covered" not in failing(r)


def test_invariants_catch_x_touching_live_or_disconnected_live():
    s = healthy_state()
    s.x_set = VertexMask.from_ids(16, [5])  # 5 is live
    assert "state_sane" in failing(check_invariants(s))
    s = healthy_state()
    s.live = VertexMask.from_ids(16, [3, 12])  # two components
    assert "state_sane" in failing(check_invariants(s))


def test_invariants_do_not_mutate_inputs():
    s = healthy_state()
    live_before = s.live.bits.copy()
    x_before = s.x_set.bits.copy()
    check_invariants(s)
    assert np.array_equal(s.live.bits, live_before)
    assert np.array_equal(s.x_set.bits, x_before)

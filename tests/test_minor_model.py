import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.errors import InputError, ModelError
from minorsep.graph import VertexMask, build_graph
from minorsep.instances import InstanceSpec, generate
from minorsep.minor_model import (
    _connected,
    add_branch,
    branch_neighbors,
    f_selector,
    grow_branch,
    new_model,
    trim,
    validate_clique_minor,
    witness_from_json,
)

from helpers import petersen, uf_components

K4 = generate(InstanceSpec("complete", (4,)))
P4 = generate(InstanceSpec("path", (4,)))


def full(g):
    return VertexMask.full(g.n)


# -- construction and growth --------------------------------------------------

def test_new_model_and_accessors():
    m = new_model(5, 2)
    assert m.size == 1
    assert m.branches[0].tolist() == [2]
    assert m.vertices().tolist() == [2]
    assert m.branch_of().tolist() == [-1, -1, 0, -1, -1]
    assert m.member_mask().ids().tolist() == [2]
    with pytest.raises(ModelError):
        new_model(5, 5)
    with pytest.raises(ModelError):
        new_model(5, -1)


def test_add_branch_requires_edge_to_every_branch():
    tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    m = new_model(3, 0)
    m = add_branch(m, tri, [1])
    m = add_branch(m, tri, [2])
    assert m.size == 3

    p3 = build_graph(3, [(0, 1), (1, 2)])
    m = new_model(3, 0)
    m = add_branch(m, p3, [1])
    with pytest.raises(ModelError, match="no edge to branch 0"):
        add_branch(m, p3, [2])


def test_add_branch_rejects_bad_sets():
    m = new_model(4, 0)
    with pytest.raises(ModelError, match="nonempty"):
        add_branch(m, K4, [])
    with pytest.raises(ModelError, match="overlaps branch 0"):
        add_branch(m, K4, [0, 1])
    with pytest.raises(ModelError, match="not connected"):
        add_branch(m, P4, [1, 3])
    m2 = add_branch(m, K4, [2, 3])
    assert m2.branches[1].tolist() == [2, 3]
    assert m2.size == 2


def test_grow_branch():
    m = new_model(4, 0)
    m = grow_branch(m, P4, 0, [1, 2])
    assert m.branches[0].tolist() == [0, 1, 2]
    # empty growth is a no-op
    assert grow_branch(m, P4, 0, []) is m
    with pytest.raises(ModelError, match="overlaps"):
        grow_branch(m, P4, 0, [2, 3])
    with pytest.raises(ModelError, match="disconnected"):
        grow_branch(new_model(4, 0), P4, 0, [2])
    with pytest.raises(ModelError, match="no branch"):
        grow_branch(m, P4, 5, [3])


def test_branch_neighbors_respects_live():
    m = new_model(4, 1)
    nb = branch_neighbors(m, P4, full(P4), 0)
    assert nb.tolist() == [0, 2]
    nb = branch_neighbors(m, P4, VertexMask.from_ids(4, [2, 3]), 0)
    assert nb.tolist() == [2]
    # members are never their own neighbors
    m2 = grow_branch(m, P4, 0, [2])
    assert branch_neighbors(m2, P4, full(P4), 0).tolist() == [0, 3]


def test_trim_keeps_only_touching_branches():
    star = generate(InstanceSpec("star", (4,)))  # center 0, leaves 1..4
    m = new_model(5, 1)
    m = add_branch(m, star, [0])
    live = VertexMask.from_ids(5, [3, 4])
    t = trim(m, star, live)
    # leaf branch {1} has no live neighbor; center branch {0} does
    assert t.size == 1
    assert t.branches[0].tolist() == [0]
    assert trim(m, star, VertexMask.empty(5)).size == 0
    assert trim(m, star, full(star)).size == 2


# -- selector ------------------------------------------------------------------

def test_f_selector_takes_smaller_side():
    star = generate(InstanceSpec("star", (5,)))
    m = new_model(6, 0)
    live = VertexMask.from_ids(6, [1, 2, 3, 4, 5])
    # branch {0} is smaller than its 5 live neighbors: take the branch
    assert f_selector(m, star, live).ids().tolist() == [0]


def test_f_selector_tie_takes_neighbors():
    m = new_model(4, 1)
    live = VertexMask.from_ids(4, [2])
    # |branch| = |neighborhood| = 1: the neighborhood wins ties
    assert f_selector(m, P4, live).ids().tolist() == [2]


def test_f_selector_union_over_branches():
    m = new_model(4, 0)
    m = add_branch(m, K4, [1])
    live = VertexMask.from_ids(4, [2, 3])
    assert f_selector(m, K4, live).ids().tolist() == [0, 1]
    empty = trim(m, K4, VertexMask.empty(4))
    assert f_selector(empty, K4, full(K4)).size == 0


# -- validation ----------------------------------------------------------------

def check_names(checks):
    return {name: ok for name, ok, _ in checks}


def test_validate_complete_singletons():
    k5 = generate(InstanceSpec("complete", (5,)))
    m = new_model(5, 0)
    for v in range(1, 5):
        m = add_branch(m, k5, [v])
    ok, checks = validate_clique_minor(m, k5, 5)
    assert ok and all(passed for _, passed, _ in checks)
    # h=6 fails only the count check
    ok6, checks6 = validate_clique_minor(m, k5, 6)
    assert not ok6
    names = check_names(checks6)
    assert not names["enough_branches"]
    assert names["pairwise_disjoint"] and names["each_connected"] and names["pairwise_adjacent"]


def test_validate_more_branches_than_needed():
    k5 = generate(InstanceSpec("complete", (5,)))
    m = new_model(5, 0)
    for v in range(1, 5):
        m = add_branch(m, k5, [v])
    ok, _ = validate_clique_minor(m, k5, 4)
    assert ok


def test_validate_rejects_missing_pair_edges():
    # five singletons on a 5-cycle are pairwise disjoint and connected but
    # only consecutive pairs are adjacent
    c5 = generate(InstanceSpec("cycle", (5,)))
    m = new_model(5, 0)
    m = MinorModelFrom([[0], [1], [2], [3], [4]], 5)
    ok, checks = validate_clique_minor(m, c5, 5)
    names = check_names(checks)
    assert not ok
    assert not names["pairwise_adjacent"]
    assert names["pairwise_disjoint"] and names["each_connected"]


def MinorModelFrom(branches, n):
    from minorsep.minor_model import MinorModel
    return MinorModel(n, tuple(np.asarray(b, dtype=np.int64) for b in branches))


def test_validate_rejects_overlap_and_disconnection():
    ok, checks = validate_clique_minor(MinorModelFrom([[0, 1], [1, 2], [3]], 4), K4, 3)
    assert not ok and not check_names(checks)["pairwise_disjoint"]
    ok, checks = validate_clique_minor(MinorModelFrom([[0, 3], [1], [2]], 4), P4, 3)
    names = check_names(checks)
    assert not ok and not names["each_connected"]


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_connected_matches_union_find_on_induced_subgraphs(seed, k):
    rng = np.random.default_rng(seed)
    n = 30
    pairs = rng.integers(n, size=(45, 2))
    g = build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
    ids = rng.choice(n, size=k, replace=False)
    keep = set(ids.tolist())
    us, vs = g.edges()
    local = {v: i for i, v in enumerate(sorted(keep))}
    induced = [(local[u], local[v]) for u, v in zip(us.tolist(), vs.tolist())
               if u in keep and v in keep]
    want = len(uf_components(k, induced)) == 1
    assert _connected(g, ids) == want
    # the same set, unsorted and with repeats
    assert _connected(g, np.concatenate([ids, ids[::-2]])) == want


def test_petersen_spokes_are_a_k5_model():
    g = petersen()
    m = MinorModelFrom([[i, i + 5] for i in range(5)], 10)
    ok, _ = validate_clique_minor(m, g, 5)
    assert ok


# -- witness JSON ----------------------------------------------------------------

def test_witness_json_roundtrip():
    """The parser reads the CLI's witness certificate, `type` key included."""
    text = '{"branches":[[0],[1],[3,2]],"h":3,"type":"witness"}\n'
    m, h = witness_from_json(4, json.loads(text))
    assert h == 3
    assert [b.tolist() for b in m.branches] == [[0], [1], [2, 3]]


def test_witness_json_rejects_malformed():
    for payload in [{"h": 3}, {"branches": [[0]]}, "nonsense", [], {"h": "x", "branches": []},
                    {"h": 3, "branches": [["a"]]}]:
        with pytest.raises(InputError, match="malformed witness JSON"):
            witness_from_json(4, payload)
    with pytest.raises(InputError, match="out of range"):
        witness_from_json(4, {"branches": [[7]], "h": 3})


# -- operation-sequence fuzzing ---------------------------------------------------

@given(st.integers(0, 2**32 - 1), st.integers(4, 60), st.integers(0, 30))
def test_random_operation_sequences_preserve_structure(seed, n, steps):
    """Any add/grow/trim sequence with satisfied preconditions keeps the
    branch sets disjoint, connected, and pairwise adjacent."""
    rng = np.random.default_rng(seed)
    # dense-ish random graph so that adjacency-rich growth is possible
    p = min(1.0, 3.0 / np.sqrt(n))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = build_graph(n, edges)
    m = new_model(n, int(rng.integers(n)))
    for _ in range(steps):
        owner = m.branch_of()
        op = rng.integers(3)
        if op == 0:
            # add a singleton adjacent to every branch, if one exists
            cands = [v for v in range(n) if owner[v] < 0 and all(
                np.intersect1d(ids, g.neighbors(v)).size > 0 for ids in m.branches)]
            if cands:
                m = add_branch(m, g, [cands[int(rng.integers(len(cands)))]])
        elif op == 1 and m.size:
            # grow a random branch by one free neighbor
            i = int(rng.integers(m.size))
            nb = branch_neighbors(m, g, VertexMask(owner < 0), i)
            if nb.size:
                m = grow_branch(m, g, i, [int(nb[int(rng.integers(nb.size))])])
        else:
            live_bits = (owner < 0) & (rng.random(n) < 0.8)
            m = trim(m, g, VertexMask(live_bits))
    _, checks = validate_clique_minor(m, g, h=max(m.size, 1))
    names = {name: okc for name, okc, _ in checks}
    assert names["pairwise_disjoint"]
    assert names["each_connected"]
    assert names["pairwise_adjacent"]

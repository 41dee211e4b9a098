import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.errors import InputError, ModelError
from minorsep.graph import VertexMask, _connected_sets, build_graph
from minorsep.instances import InstanceSpec, generate
from minorsep.minor_model import (
    MinorModel,
    add_branch,
    branch_neighbors,
    f_selector,
    grow_branch,
    new_model,
    trim,
)
from minorsep.verify import verify_witness, witness_from_json

from helpers import induces_connected, petersen, uf_components

K4 = generate(InstanceSpec("complete", (4,)))
P4 = generate(InstanceSpec("path", (4,)))


def full(g):
    return VertexMask.full(g.n)


def gathered(m, g):
    """Each branch's neighbors in the whole graph, for `trim` to filter."""
    return [branch_neighbors(m, g, full(g), i) for i in range(m.size)]


# -- construction and growth --------------------------------------------------

def test_new_model_and_accessors():
    m = new_model(5, 2)
    assert m.size == 1
    assert m.branches[0].tolist() == [2]
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


def test_add_branch_names_first_branch_without_edge():
    # triangle 0, 1, 2 as three branches; 3 hangs off 0, 4 off 2, 5 alone
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (2, 4)])
    m = add_branch(add_branch(new_model(6, 0), g, [1]), g, [2])
    with pytest.raises(ModelError, match="no edge to branch 1$"):
        add_branch(m, g, [3])
    with pytest.raises(ModelError, match="no edge to branch 0$"):
        add_branch(m, g, [4])
    with pytest.raises(ModelError, match="no edge to branch 0$"):
        add_branch(m, g, [5])


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


@pytest.mark.parametrize("ids", [[4], [-1], [1, 9]])
def test_add_branch_rejects_out_of_range_ids(ids):
    with pytest.raises(ModelError, match=r"vertex id out of range 0\.\.3"):
        add_branch(new_model(4, 0), K4, ids)


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


@given(st.integers(0, 2**32 - 1), st.integers(1, 120), st.integers(0, 40),
       st.floats(0.0, 0.6))
def test_branch_neighbors_matches_unique_setdiff(seed, n, k, holes):
    # reference: np.unique of the live neighbor entries, then np.setdiff1d of
    # the branch; random (not necessarily connected) branches, masks with holes
    rng = np.random.default_rng(seed)
    g = generate(InstanceSpec("gnp", (n, min(1.0, 4.0 / n)), seed % 1000))
    ids = np.sort(rng.choice(n, min(k, n), replace=False)).astype(np.int64)
    live = VertexMask(rng.random(n) >= holes)
    nbrs = np.concatenate([g.neighbors(v) for v in ids.tolist()] + [np.empty(0, np.int64)])
    want = np.setdiff1d(np.unique(nbrs[live.bits[nbrs]]), ids, assume_unique=True)
    got = branch_neighbors(MinorModel(n, (ids,)), g, live, 0)
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


def test_trim_keeps_only_touching_branches():
    star = generate(InstanceSpec("star", (4,)))  # center 0, leaves 1..4
    m = new_model(5, 1)
    m = add_branch(m, star, [0])
    live = VertexMask.from_ids(5, [3, 4])
    t, _, dropped = trim(m, live, gathered(m, star))
    # leaf branch {1} has no live neighbor; center branch {0} does
    assert t.size == 1
    assert t.branches[0].tolist() == [0]
    assert [ids.tolist() for ids in dropped] == [[1]]
    t, _, dropped = trim(m, VertexMask.empty(5), gathered(m, star))
    assert t.size == 0
    assert [ids.tolist() for ids in dropped] == [[1], [0]]
    t, _, dropped = trim(m, full(star), gathered(m, star))
    assert t.size == 2 and dropped == []


def test_trim_returns_live_neighbors_of_kept_branches():
    star = generate(InstanceSpec("star", (4,)))  # center 0, leaves 1..4
    m = add_branch(new_model(5, 1), star, [0])
    kept, nbrs, _ = trim(m, VertexMask.from_ids(5, [3, 4]), gathered(m, star))
    assert [nb.tolist() for nb in nbrs] == [[3, 4]]
    kept, nbrs, _ = trim(m, full(star), gathered(m, star))
    assert [nb.tolist() for nb in nbrs] == [[0], [1, 2, 3, 4]]
    assert [nb.tolist() for nb in nbrs] == [
        branch_neighbors(kept, star, full(star), i).tolist() for i in range(kept.size)
    ]
    assert trim(m, VertexMask.empty(5), gathered(m, star))[1] == []


# -- selector ------------------------------------------------------------------

def test_f_selector_takes_smaller_side():
    star = generate(InstanceSpec("star", (5,)))
    m = new_model(6, 0)
    live = VertexMask.from_ids(6, [1, 2, 3, 4, 5])
    # branch {0} is smaller than its 5 live neighbors: take the branch
    assert f_selector(*trim(m, live, gathered(m, star))[:2]).ids().tolist() == [0]


def test_f_selector_tie_takes_neighbors():
    m = new_model(4, 1)
    live = VertexMask.from_ids(4, [2])
    # |branch| = |neighborhood| = 1: the neighborhood wins ties
    assert f_selector(*trim(m, live, gathered(m, P4))[:2]).ids().tolist() == [2]


def test_f_selector_union_over_branches():
    m = new_model(4, 0)
    m = add_branch(m, K4, [1])
    live = VertexMask.from_ids(4, [2, 3])
    assert f_selector(*trim(m, live, gathered(m, K4))[:2]).ids().tolist() == [0, 1]
    empty, _, _ = trim(m, VertexMask.empty(4), gathered(m, K4))
    assert f_selector(*trim(empty, full(K4), gathered(empty, K4))[:2]).size == 0


# -- witness checks (verify.verify_witness) ----------------------------------

def check_names(checks):
    return {name: ok for name, ok, _ in checks}


def test_validate_complete_singletons():
    k5 = generate(InstanceSpec("complete", (5,)))
    m = new_model(5, 0)
    for v in range(1, 5):
        m = add_branch(m, k5, [v])
    r = verify_witness(k5, m, 5)
    assert r.ok and all(passed for _, passed, _ in r.checks)
    # h=6 fails only the count check
    r6 = verify_witness(k5, m, 6)
    assert not r6.ok
    names = check_names(r6.checks)
    assert not names["enough_branches"]
    assert names["pairwise_disjoint"] and names["each_connected"] and names["pairwise_adjacent"]


def test_validate_more_branches_than_needed():
    k5 = generate(InstanceSpec("complete", (5,)))
    m = new_model(5, 0)
    for v in range(1, 5):
        m = add_branch(m, k5, [v])
    assert verify_witness(k5, m, 4).ok


def test_validate_rejects_missing_pair_edges():
    # five singletons on a 5-cycle are pairwise disjoint and connected but
    # only consecutive pairs are adjacent
    c5 = generate(InstanceSpec("cycle", (5,)))
    m = new_model(5, 0)
    m = MinorModelFrom([[0], [1], [2], [3], [4]], 5)
    r = verify_witness(c5, m, 5)
    names = check_names(r.checks)
    assert not r.ok
    assert not names["pairwise_adjacent"]
    assert names["pairwise_disjoint"] and names["each_connected"]


def MinorModelFrom(branches, n):
    from minorsep.minor_model import MinorModel
    return MinorModel(n, tuple(np.asarray(b, dtype=np.int64) for b in branches))


def test_validate_rejects_overlap_and_disconnection():
    r = verify_witness(K4, MinorModelFrom([[0, 1], [1, 2], [3]], 4), 3)
    assert not r.ok and not check_names(r.checks)["pairwise_disjoint"]
    r = verify_witness(P4, MinorModelFrom([[0, 3], [1], [2]], 4), 3)
    assert not r.ok and not check_names(r.checks)["each_connected"]


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
    assert _connected_sets(g, [ids])[0] == want
    # the same set, unsorted and with repeats
    assert _connected_sets(g, [np.concatenate([ids, ids[::-2]])])[0] == want


@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.booleans(), st.lists(st.integers(0, 13), max_size=8)),
                max_size=9))
def test_connected_sets_match_a_per_set_bfs(seed, specs):
    """One pass decides every set as a BFS inside it does: empty sets,
    one-vertex sets, sets that overlap, repeat ids or fall apart.  A walk
    spec steps from its first id along the neighbors its other entries
    pick, so it is connected and revisits vertices; the others are taken
    as drawn."""
    rng = np.random.default_rng(seed)
    n = 14
    pairs = rng.integers(n, size=(int(rng.integers(10, 40)), 2))
    g = build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
    sets = []
    for walk, ids in specs:
        if walk and ids:
            path = [ids[0]]
            for pick in ids[1:]:
                nb = g.neighbors(path[-1])
                path.append(int(nb[pick % nb.size]) if nb.size else path[-1])
            ids = path
        sets.append(np.array(ids, dtype=np.int64))
    edges = list(zip(*(e.tolist() for e in g.edges())))
    want = [induces_connected(n, edges, ids.tolist()) for ids in sets]
    assert _connected_sets(g, sets).tolist() == want
    assert [bool(_connected_sets(g, [ids])[0]) for ids in sets] == want
    # the witness check reads the same pass
    m = MinorModelFrom([np.unique(ids) for ids in sets], n)
    (passed, detail), = [(ok, d) for name, ok, d in verify_witness(g, m, 3).checks
                         if name == "each_connected"]
    split = [i for i, ok in enumerate(want) if not ok]
    assert passed == (not split)
    assert detail == (f"disconnected branches {split[:10]} ({len(split)} in all)"
                      if split else "connected")


@given(st.integers(0, 2**32 - 1), st.integers(0, 24))
def test_missing_pairs_match_a_set_oracle(seed, k):
    """verify_witness counts exactly the branch pairs with no edge between
    them and lists the first ten, as plain ints, row by row; branches may
    overlap or be empty.  Denser graphs give rows whose first missing pair
    comes after many joined ones."""
    rng = np.random.default_rng(seed)
    n = 30
    pairs = rng.integers(n, size=(int(rng.integers(45, 300)), 2))
    g = build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]])
    branches = [np.unique(rng.integers(n, size=rng.integers(0, 6))) for _ in range(k)]
    m = MinorModelFrom(branches, n)
    nbrs = [{int(w) for v in b.tolist() for w in g.neighbors(v)} for b in branches]
    want = [(i, j) for i in range(k) for j in range(i + 1, k)
            if not nbrs[i] & set(branches[j].tolist())]
    checks = verify_witness(g, m, 3).checks
    (passed, detail), = [(ok, d) for name, ok, d in checks if name == "pairwise_adjacent"]
    assert passed == (not want)
    assert detail == (f"missing edges between {len(want)} pairs; first {len(want[:10])}: "
                      f"{want[:10]}" if want else "all pairs joined")


def test_petersen_spokes_are_a_k5_model():
    g = petersen()
    m = MinorModelFrom([[i, i + 5] for i in range(5)], 10)
    assert verify_witness(g, m, 5).ok


# -- witness JSON (verify.witness_from_json) ----------------------------------

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
            kept, _, dropped = trim(m, VertexMask(live_bits), gathered(m, g))
            # every branch is either kept or dropped
            assert sorted(map(tuple, kept.branches + tuple(dropped))) == sorted(
                map(tuple, m.branches))
            m = kept
    checks = verify_witness(g, m, max(m.size, 1)).checks
    names = {name: okc for name, okc, _ in checks}
    assert names["pairwise_disjoint"]
    assert names["each_connected"]
    assert names["pairwise_adjacent"]

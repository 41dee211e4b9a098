"""Clique minor models: disjoint connected branch sets, pairwise adjacent.

A model with h branches certifies a K_h minor.  Operations validate their
preconditions and raise ModelError naming the offending branch, so a driver
bug cannot silently corrupt a certificate.  Branch identity is creation
order; selections elsewhere in the package always pick the smallest
qualifying branch index.

Neighbor sets against a live mask are recomputed on demand rather than
cached incrementally; the scales involved (h branches, each a few hundred
vertices at most) make that the simpler correct choice.  `trim` hands back
the sets it computes, and `f_selector` takes them as they are, so a caller
that trims computes each set once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError, ModelError
from .graph import Graph, VertexMask, _gather, _sorted_unique

__all__ = [
    "MinorModel",
    "new_model",
    "add_branch",
    "grow_branch",
    "trim",
    "f_selector",
    "branch_neighbors",
    "validate_clique_minor",
    "witness_from_json",
]


@dataclass(frozen=True)
class MinorModel:
    """Branch sets in creation order, as ascending id arrays."""

    n: int
    branches: tuple

    @property
    def size(self) -> int:
        return len(self.branches)

    def branch_of(self) -> np.ndarray:
        """Per-vertex branch index, -1 where unclaimed."""
        owner = np.full(self.n, -1, dtype=np.int64)
        for i, ids in enumerate(self.branches):
            owner[ids] = i
        return owner

    def vertices(self) -> np.ndarray:
        if not self.branches:
            return np.empty(0, dtype=np.int64)
        return _sorted_unique(np.concatenate(self.branches))

    def member_mask(self) -> VertexMask:
        return VertexMask.from_ids(self.n, self.vertices())


def _as_ids(n: int, vs) -> np.ndarray:
    if isinstance(vs, VertexMask):
        return vs.ids()
    arr = _sorted_unique(
        np.asarray(list(vs) if not isinstance(vs, np.ndarray) else vs, dtype=np.int64)
    )
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ModelError(f"vertex id out of range 0..{n - 1}")
    return arr


def branch_neighbors(m: MinorModel, g: Graph, live: VertexMask, idx: int) -> np.ndarray:
    """Live vertices adjacent to branch idx, ascending; members excluded."""
    ids = m.branches[idx]
    _, nbrs = _gather(g, ids)
    nbrs = _sorted_unique(nbrs[live.bits[nbrs]])
    # branches are ascending, so membership is a binary search in the branch
    pos = np.minimum(np.searchsorted(ids, nbrs), ids.size - 1)
    return nbrs[ids[pos] != nbrs]


def _connected(g: Graph, ids: np.ndarray) -> bool:
    """Whether the subgraph induced by `ids` is connected.

    Costs O(edges at ids), not a pass over the whole graph: the edges
    leaving `ids` are filtered to those landing inside it and relabelled to
    positions in the sorted ids.  That k x k matrix is symmetric, so one
    directed BFS from position 0 reaches all k positions iff it is connected.
    """
    ids = _sorted_unique(ids)
    if ids.size <= 1:
        return ids.size == 1
    if ids[0] < 0 or ids[-1] >= g.n:
        raise InputError(f"vertex id out of range 0..{g.n - 1}")
    src, tgt = _gather(g, ids)
    pos = np.searchsorted(ids, tgt)
    inside = ids[np.minimum(pos, ids.size - 1)] == tgt
    # _gather lists the edges row by row, so the kept ones are in CSR order
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.searchsorted(ids, src[inside]), minlength=ids.size),
              out=indptr[1:])
    adj = sparse.csr_matrix(
        (np.ones(indptr[-1]), pos[inside], indptr), shape=(ids.size, ids.size)
    )
    return csgraph.breadth_first_order(adj, 0, return_predecessors=False).size == ids.size


def _owner_outside(m: MinorModel, ids: np.ndarray, what: str) -> np.ndarray:
    """`m.branch_of()`, once no vertex of `ids` is found in a branch;
    otherwise ModelError naming the first branch hit."""
    owner = m.branch_of()
    taken = owner[ids]
    if (taken >= 0).any():
        raise ModelError(f"{what} overlaps branch {taken[taken >= 0][0]}")
    return owner


def new_model(n: int, x: int) -> MinorModel:
    if not (0 <= x < n):
        raise ModelError(f"vertex id out of range 0..{n - 1}")
    return MinorModel(n, (np.array([x], dtype=np.int64),))


def add_branch(m: MinorModel, g: Graph, cand) -> MinorModel:
    ids = _as_ids(m.n, cand)
    if ids.size == 0:
        raise ModelError("new branch must be nonempty")
    owner = _owner_outside(m, ids, "new branch")
    if not _connected(g, ids):
        raise ModelError("new branch is not connected")
    # edges per branch; owner is -1 off the branches, hence the shifted bin
    hits = np.bincount(owner[_gather(g, ids)[1]] + 1, minlength=m.size + 1)[1:]
    if not hits.all():
        raise ModelError(f"new branch has no edge to branch {np.argmin(hits)}")
    return MinorModel(m.n, m.branches + (ids,))


def grow_branch(m: MinorModel, g: Graph, idx: int, z) -> MinorModel:
    zids = _as_ids(m.n, z)
    if zids.size == 0:
        return m
    if not (0 <= idx < m.size):
        raise ModelError(f"no branch {idx}")
    _owner_outside(m, zids, "growth")
    merged = _sorted_unique(np.concatenate([m.branches[idx], zids]))
    if not _connected(g, merged):
        raise ModelError(f"branch {idx} would become disconnected")
    branches = list(m.branches)
    branches[idx] = merged
    return MinorModel(m.n, tuple(branches))


def trim(m: MinorModel, g: Graph, live: VertexMask) -> tuple:
    """Keep exactly the branches with a neighbor in live, order preserved.

    Returns (kept model, list of each kept branch's live neighbors).
    """
    nbrs = [branch_neighbors(m, g, live, i) for i in range(m.size)]
    keep = [i for i, nb in enumerate(nbrs) if nb.size]
    return MinorModel(m.n, tuple(m.branches[i] for i in keep)), [nbrs[i] for i in keep]


def f_selector(m: MinorModel, nbrs: list) -> VertexMask:
    """Per branch i, the smaller of the branch and its live neighborhood
    nbrs[i], as `trim` returns them.

    Ties take the neighborhood: those vertices leave the residual graph
    either way.
    """
    picked = np.zeros(m.n, dtype=bool)
    for ids, nb in zip(m.branches, nbrs, strict=True):
        picked[ids if ids.size < nb.size else nb] = True
    return VertexMask(picked)


def validate_clique_minor(m: MinorModel, g: Graph, h: int):
    """Structural checks (a)-(d); returns (ok, list of (name, passed, detail)).

    Branches may overlap or be empty here.  Pairwise adjacency is one
    sparse product over a branch-incidence matrix; the pairs without an
    edge are listed in row order, i < j.
    """
    checks = []
    checks.append((
        "enough_branches", m.size >= h,
        f"{m.size} branches, need >= {h}",
    ))
    overlaps = []
    seen = np.full(g.n, -1, dtype=np.int64)
    for i, ids in enumerate(m.branches):
        hit = seen[ids]
        if (hit >= 0).any():
            overlaps.append((int(hit[hit >= 0][0]), i))
        seen[ids] = i
    checks.append((
        "pairwise_disjoint", not overlaps,
        "disjoint" if not overlaps else f"overlapping pairs {overlaps}",
    ))
    disconnected = [i for i, ids in enumerate(m.branches) if not _connected(g, ids)]
    checks.append((
        "each_connected", not disconnected,
        "connected" if not disconnected else f"disconnected branches {disconnected}",
    ))
    # entry (i, j) of inc @ adj @ inc.T counts the edges from branch i to
    # branch j; inc has a row per branch, so overlapping branches are fine
    cols = np.concatenate([np.empty(0, dtype=np.int64), *m.branches])
    inc = sparse.csr_matrix(
        (np.ones(cols.size), cols, np.cumsum([0] + [ids.size for ids in m.branches])),
        shape=(m.size, g.n),
    )
    adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    joined = (inc @ adj @ inc.T).astype(bool).toarray()
    missing = [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(~joined, 1)))]
    checks.append((
        "pairwise_adjacent", not missing,
        "all pairs joined" if not missing else f"missing edges between pairs {missing}",
    ))
    return all(ok for _, ok, _ in checks), checks


def _json_ids(value, field: str) -> np.ndarray:
    """`value` as an int64 array; InputError naming `field` unless it is a
    list of JSON integers.  Bools, floats and strings are not integers here,
    so no entry is truncated or coerced."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InputError(f"{field} must be a list of integers")
    try:
        return np.asarray(value, dtype=np.int64)
    except OverflowError:
        raise InputError(f"{field}: vertex id out of range") from None


def witness_from_json(n: int, payload) -> tuple:
    """Turn a decoded witness certificate {"h":int,"branches":[[...]],...}
    into (MinorModel, h); keys other than h and branches are ignored."""
    if not isinstance(payload, dict) or "h" not in payload or "branches" not in payload:
        raise InputError("malformed witness JSON: need an object with 'h' and 'branches'")
    h = payload["h"]
    if type(h) is not int:
        raise InputError(f"malformed witness JSON: 'h' must be an integer, got {h!r}")
    if h < 3:
        raise InputError(f"malformed witness JSON: 'h' must be >= 3, got {h}")
    raw = payload["branches"]
    if not isinstance(raw, list):
        raise InputError("malformed witness JSON: 'branches' must be a list")
    branches = tuple(
        _sorted_unique(_json_ids(b, "malformed witness JSON: each entry of 'branches'"))
        for b in raw
    )
    for ids in branches:
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise InputError(f"witness vertex id out of range 0..{n - 1}")
    return MinorModel(n, branches), h

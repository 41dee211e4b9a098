"""Clique minor models: disjoint connected branch sets, pairwise adjacent.

A model with h branches certifies a K_h minor.  Operations validate their
preconditions and raise ModelError naming the offending branch, so a driver
bug cannot silently corrupt a certificate.  Branch identity is creation
order; selections elsewhere in the package always pick the smallest
qualifying branch index.

Neighbor sets against a live mask are recomputed on demand rather than
cached incrementally; the scales involved (h branches, each a few hundred
vertices at most) make that the simpler correct choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import InputError, ModelError
from .graph import Graph, VertexMask, _gather

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
        return np.unique(np.concatenate(self.branches))

    def member_mask(self) -> VertexMask:
        return VertexMask.from_ids(self.n, self.vertices())


def _as_ids(n: int, vs) -> np.ndarray:
    if isinstance(vs, VertexMask):
        return vs.ids()
    arr = np.unique(np.asarray(list(vs) if not isinstance(vs, np.ndarray) else vs, dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ModelError(f"vertex id out of range 0..{n - 1}")
    return arr


def branch_neighbors(m: MinorModel, g: Graph, live: VertexMask, idx: int) -> np.ndarray:
    """Live vertices adjacent to branch idx, ascending; members excluded."""
    ids = m.branches[idx]
    _, nbrs = _gather(g, ids)
    nbrs = np.unique(nbrs[live.bits[nbrs]])
    return np.setdiff1d(nbrs, ids, assume_unique=True)


def _connected(g: Graph, ids: np.ndarray) -> bool:
    """Whether the subgraph induced by `ids` is connected.

    Costs O(edges at ids), not a pass over the whole graph: the edges
    leaving `ids` are filtered to those landing inside it and relabelled to
    positions in the sorted ids.  That k x k matrix is symmetric, so one
    directed BFS from position 0 reaches all k positions iff it is connected.
    """
    ids = np.sort(ids)
    if ids.size <= 1:
        return ids.size == 1
    # drop repeats by hand: on 10⁴ int64 ids np.unique (numpy 2.4) took
    # 2 ms, np.sort 0.1 ms
    ids = ids[np.append(True, ids[1:] != ids[:-1])]
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


def _adjacent(g: Graph, a: np.ndarray, b: np.ndarray) -> bool:
    in_b = np.zeros(g.n, dtype=bool)
    in_b[b] = True
    for v in a.tolist():
        if in_b[g.neighbors(v)].any():
            return True
    return False


def new_model(n: int, x: int) -> MinorModel:
    if not (0 <= x < n):
        raise ModelError(f"vertex id out of range 0..{n - 1}")
    return MinorModel(n, (np.array([x], dtype=np.int64),))


def add_branch(m: MinorModel, g: Graph, cand) -> MinorModel:
    ids = _as_ids(m.n, cand)
    if ids.size == 0:
        raise ModelError("new branch must be nonempty")
    owner = m.branch_of()
    taken = owner[ids]
    if (taken >= 0).any():
        bad = int(taken[taken >= 0][0])
        raise ModelError(f"new branch overlaps branch {bad}")
    if not _connected(g, ids):
        raise ModelError("new branch is not connected")
    for i, other in enumerate(m.branches):
        if not _adjacent(g, ids, other):
            raise ModelError(f"new branch has no edge to branch {i}")
    return MinorModel(m.n, m.branches + (ids,))


def grow_branch(m: MinorModel, g: Graph, idx: int, z) -> MinorModel:
    zids = _as_ids(m.n, z)
    if zids.size == 0:
        return m
    if not (0 <= idx < m.size):
        raise ModelError(f"no branch {idx}")
    owner = m.branch_of()
    taken = owner[zids]
    if (taken >= 0).any():
        bad = int(taken[taken >= 0][0])
        raise ModelError(f"growth overlaps branch {bad}")
    merged = np.union1d(m.branches[idx], zids)
    if not _connected(g, merged):
        raise ModelError(f"branch {idx} would become disconnected")
    branches = list(m.branches)
    branches[idx] = merged
    return MinorModel(m.n, tuple(branches))


def trim(m: MinorModel, g: Graph, live: VertexMask) -> MinorModel:
    """Keep exactly the branches with a neighbor in live, order preserved."""
    keep = tuple(
        ids for i, ids in enumerate(m.branches)
        if branch_neighbors(m, g, live, i).size > 0
    )
    return MinorModel(m.n, keep)


def f_selector(m: MinorModel, g: Graph, live: VertexMask) -> VertexMask:
    """Per branch, the smaller of the branch and its live neighborhood.

    Ties take the neighborhood: those vertices leave the residual graph
    either way.
    """
    picked = np.zeros(m.n, dtype=bool)
    for i, ids in enumerate(m.branches):
        nbrs = branch_neighbors(m, g, live, i)
        side = ids if ids.size < nbrs.size else nbrs
        picked[side] = True
    return VertexMask(picked)


def validate_clique_minor(m: MinorModel, g: Graph, h: int):
    """Structural checks (a)-(d); returns (ok, list of (name, passed, detail))."""
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
    missing = [
        (i, j)
        for i in range(m.size)
        for j in range(i + 1, m.size)
        if not _adjacent(g, m.branches[i], m.branches[j])
    ]
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
    raw = payload["branches"]
    if not isinstance(raw, list):
        raise InputError("malformed witness JSON: 'branches' must be a list")
    branches = tuple(
        np.unique(_json_ids(b, "malformed witness JSON: each entry of 'branches'")) for b in raw
    )
    for ids in branches:
        if ids.size and (ids[0] < 0 or ids[-1] >= n):
            raise InputError(f"witness vertex id out of range 0..{n - 1}")
    return MinorModel(n, branches), h

"""Clique minor models: disjoint connected branch sets, pairwise adjacent.

A model with h branches certifies a K_h minor.  Operations validate their
preconditions and raise ModelError naming the offending branch, so a driver
bug cannot silently corrupt a certificate.  Branch identity is creation
order; selections elsewhere in the package always pick the smallest
qualifying branch index.

A branch's neighbor set against a live mask is gathered from the graph
by `branch_neighbors`, and a caller whose live mask only shrinks carries
the sets from there: `trim` takes each branch's set against an earlier
live mask and filters it to the current one, which is exact because the
earlier mask contains the current one; only a branch added or grown since
needs gathering again.  `trim` hands back the sets it keeps, and the
branches it drops, and `f_selector` takes the kept sets as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .graph import Graph, VertexMask, _connected_sets, _gather, _int_array, _sorted_unique

__all__ = [
    "MinorModel",
    "new_model",
    "add_branch",
    "grow_branch",
    "trim",
    "f_selector",
    "branch_neighbors",
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

    def member_mask(self) -> VertexMask:
        """Every vertex of a branch."""
        bits = np.zeros(self.n, dtype=bool)
        for ids in self.branches:
            bits[ids] = True
        return VertexMask(bits)


def _as_ids(n: int, vs) -> np.ndarray:
    arr = _sorted_unique(_int_array(vs))
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
    if not _connected_sets(g, [ids])[0]:
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
    if not _connected_sets(g, [merged])[0]:
        raise ModelError(f"branch {idx} would become disconnected")
    branches = list(m.branches)
    branches[idx] = merged
    return MinorModel(m.n, tuple(branches))


def trim(m: MinorModel, live: VertexMask, nbrs: list) -> tuple:
    """Keep exactly the branches with a neighbor in live, order preserved.

    Returns (kept model, each kept branch's live neighbors, the dropped
    branches), both lists in branch order.  `nbrs[i]` holds branch i's
    neighbors against a live mask that contains `live`, as
    `branch_neighbors` gathers them; they are filtered to `live`, which
    leaves exactly the branch's neighbors in it, still ascending.
    """
    nbrs = [nb[live.bits[nb]] for nb in nbrs]
    keep = [i for i, nb in enumerate(nbrs) if nb.size]
    dropped = [ids for ids, nb in zip(m.branches, nbrs) if not nb.size]
    return MinorModel(m.n, tuple(m.branches[i] for i in keep)), [nbrs[i] for i in keep], dropped


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

"""Output checks that share no code with ``minorsep.verify``.

Graphs reach these functions as plain edge arrays ``(n, src, dst)``; an
edge may appear in one direction or both.  Each check returns ``None`` when
the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph


def csr_edges(n: int, indptr, indices) -> tuple:
    """Edge arrays of a CSR adjacency (both directions)."""
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(indptr)))
    return n, src, np.asarray(indices, dtype=np.int64)


def read_edge_file(path) -> tuple:
    """Parse a canonical ``p n m`` edge-list file written by ``minorsep gen``."""
    with open(path, "rb") as fh:
        tokens = fh.read().split()
    if len(tokens) < 3 or tokens[0] != b"p":
        raise ValueError(f"{path}: missing 'p n m' header")
    n, m = int(tokens[1]), int(tokens[2])
    flat = np.array(tokens[3:], dtype=np.int64)
    if flat.size != 2 * m:
        raise ValueError(f"{path}: header declares {m} edges, file has {flat.size / 2}")
    return n, flat[0::2], flat[1::2]


def _labels(n: int, src, dst, e) -> np.ndarray:
    """Component label per vertex of the graph on the edges selected by `e`."""
    adj = sparse.coo_matrix(
        (np.ones(int(e.sum()), dtype=np.int8), (src[e], dst[e])), shape=(n, n)
    ).tocsr()
    return csgraph.connected_components(adj, directed=False)[1]


def _ids(n: int, ids, what: str):
    arr = np.asarray(ids, dtype=np.int64).ravel()
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        return None, f"{what} has a vertex id outside 0..{n - 1}"
    if np.unique(arr).size != arr.size:
        return None, f"{what} repeats a vertex"
    return arr, None


def check_separator(graph: tuple, sep_ids) -> str | None:
    """Every component of G - S has at most 2n/3 vertices."""
    n, src, dst = graph
    sep, err = _ids(n, sep_ids, "separator")
    if err:
        return err
    keep = np.ones(n, dtype=bool)
    keep[sep] = False
    if not keep.any():
        return None
    sizes = np.bincount(_labels(n, src, dst, keep[src] & keep[dst])[keep])
    worst = int(sizes.max())
    if 3 * worst > 2 * n:
        return f"largest component of G-S has {worst} of n={n} vertices, above 2n/3"
    return None


def check_witness(graph: tuple, branches, h: int) -> str | None:
    """At least h branch sets, disjoint, each connected, pairwise adjacent."""
    n, src, dst = graph
    k = len(branches)
    if k < h:
        return f"witness has {k} branch sets, needs {h}"
    owner = np.full(n, -1, dtype=np.int64)
    for i, raw in enumerate(branches):
        ids, err = _ids(n, raw, f"branch {i}")
        if err:
            return err
        if ids.size == 0:
            return f"branch {i} is empty"
        clash = owner[ids]
        if (clash >= 0).any():
            return f"branches {int(clash[clash >= 0][0])} and {i} overlap"
        owner[ids] = i
    ou, ov = owner[src], owner[dst]

    labels = _labels(n, src, dst, (ou >= 0) & (ou == ov))
    members = np.flatnonzero(owner >= 0)
    pieces = np.unique(np.stack([owner[members], labels[members]]), axis=1)
    per_branch = np.bincount(pieces[0], minlength=k)
    if (per_branch != 1).any():
        return f"branch {int(np.flatnonzero(per_branch != 1)[0])} is not connected"

    cross = (ou >= 0) & (ov >= 0) & (ou != ov)
    lo, hi = np.minimum(ou[cross], ov[cross]), np.maximum(ou[cross], ov[cross])
    joined = np.unique(lo * k + hi).size
    if joined != k * (k - 1) // 2:
        return f"only {joined} of {k * (k - 1) // 2} branch pairs are adjacent"
    return None

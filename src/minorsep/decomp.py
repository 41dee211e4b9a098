"""Randomized low-diameter decomposition of the live subgraph.

Every live vertex v draws an exponential shift with rate 2*ln(max(N,2))/delta,
conditioned on shift < delta/2 (inverse CDF, so the cap carries no atom).
Vertex u joins the center c minimizing dist_live(c, u) - shift[c]; ties go to
the smallest center id.  Along a shortest path the set of minimizing centers
can only shrink, so parts are connected, and membership forces
dist_live(c, u) <= shift[c] < delta/2, so each part has strong radius < delta/2
around its center and weak diameter <= delta.

The assignment is the shifted parallel BFS of Miller, Peng and Xu ("Parallel
graph decompositions using random shifts", SPAA 2013), one numpy round per
BFS layer.  Each live vertex holds a label (key, center), first
(-shift[v], v).  In each round every vertex whose label dropped in the round
before offers (key + 1.0, center) to its live neighbors, and a neighbor keeps
the lexicographic minimum of its label and the offers: the lowest key, then
the smallest center among the offers tied on it.  The loop ends when no label
drops, after at most ceil(delta/2) + 1 rounds, since a winning path is
shorter than its center's shift.

The final labels are the unique fixed point of "label = min(own start, every
neighbor's label + (1.0, 0))": rounding keeps fl(x + 1.0) > x, so each label
rests on strictly smaller keys.  A Dijkstra over (key, center, vertex) heap
entries settles the same fixed point, and its tuple order is what "smallest
center id" means, so both give the same centers bit for bit.  Keys are built
as parent key + 1.0 in both.  (They could part only if two distinct keys met
at one vertex and rounded to the same sum, which needs shifts within an ulp
of each other.)

The boundary is every live vertex with a live neighbor assigned elsewhere.
Removing it disconnects distinct parts from each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph, VertexMask, _gather
from .rng import SplitMix64, truncated_exponential

__all__ = ["Partition", "LddResult", "padded_partition", "ldd"]


@dataclass(frozen=True)
class Partition:
    """Assignment of each live vertex to its center; -1 outside the mask.

    shift[v] is the shift vertex v drew, NaN outside the mask.
    """

    center: np.ndarray
    shift: np.ndarray

    def parts(self) -> list:
        """(center, member ids ascending) pairs, sorted by center id."""
        live = np.flatnonzero(self.center >= 0)
        order = np.argsort(self.center[live], kind="stable")
        grouped = {}
        for v in live[order].tolist():
            grouped.setdefault(int(self.center[v]), []).append(v)
        return [(c, np.array(vs, dtype=np.int64)) for c, vs in sorted(grouped.items())]


@dataclass(frozen=True)
class LddResult:
    partition: Partition
    boundary: VertexMask


def padded_partition(g: Graph, live: VertexMask, delta: float, rng: SplitMix64) -> Partition:
    if delta <= 0:
        raise InputError("delta must be positive")
    ids = live.ids()
    n_live = ids.size
    center = np.full(g.n, -1, dtype=np.int64)
    shift = np.full(g.n, np.nan)
    if n_live == 0:
        return Partition(center, shift)
    rate = 2.0 * math.log(max(n_live, 2)) / delta
    shifts = truncated_exponential(rng.block_floats(n_live), rate, delta / 2.0)
    shift[ids] = shifts

    # A vertex outside live holds key -inf, so no offer ever beats it.
    key = np.full(g.n, -np.inf)
    key[ids] = -shifts
    center[ids] = ids
    changed = np.zeros(g.n, dtype=bool)
    frontier = ids
    while frontier.size:
        src, tgt = _gather(g, frontier)
        cand = key[src] + 1.0
        k_old = key[tgt]
        # keep the offers that beat their target's label; most lose on the
        # key alone, so the center test runs on what is left
        keep = np.flatnonzero(cand <= k_old)
        src, tgt, cand, k_old = src[keep], tgt[keep], cand[keep], k_old[keep]
        c_src = center[src]
        keep = np.flatnonzero((cand < k_old) | (c_src < center[tgt]))
        tgt, cand, c_src, k_old = tgt[keep], cand[keep], c_src[keep], k_old[keep]
        # lowest key first, then the smallest center among offers tied on it
        np.minimum.at(key, tgt, cand)
        k_new = key[tgt]
        center[tgt[k_new < k_old]] = g.n  # a lower key discards the old center
        tie = cand == k_new
        np.minimum.at(center, tgt[tie], c_src[tie])
        changed[tgt] = True
        frontier = np.flatnonzero(changed)
        changed[frontier] = False
    return Partition(center, shift)


def ldd(g: Graph, live: VertexMask, delta: float, rng: SplitMix64) -> LddResult:
    part = padded_partition(g, live, delta, rng)
    center = part.center
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    tgt = g.indices
    cross = (center[src] >= 0) & (center[tgt] >= 0) & (center[src] != center[tgt])
    bits = np.zeros(g.n, dtype=bool)
    bits[src[cross]] = True
    return LddResult(part, VertexMask(bits))

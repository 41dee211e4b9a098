"""Randomized low-diameter decomposition of the live subgraph.

Every live vertex v draws an exponential shift with rate 2*ln(max(N,2))/delta,
conditioned on shift < delta/2 (inverse CDF, so the cap carries no atom).
Vertex u joins the center c minimizing dist_live(c, u) - shift[c]; ties go to
the smallest center id.  Along a shortest path the set of minimizing centers
can only shrink, so parts are connected, and membership forces
dist_live(c, u) <= shift[c] < delta/2, so each part has strong radius < delta/2
around its center and weak diameter <= delta.

The assignment is the shifted parallel BFS of Miller, Peng and Xu ("Parallel
graph decompositions using random shifts", SPAA 2013), run as a bucket queue
in the manner of Dial ("Shortest-path forest with topological ordering",
CACM 1969).  Each live vertex holds a label (key, center), first
(-shift[v], v), and offers (key + 1.0, center) to its live neighbors once,
when its label is final; a neighbor keeps the lexicographic minimum of its
label and the offers: the lowest key, then the smallest center among the
offers tied on it.  The loop visits integer buckets b in ascending order,
each the floor of the lowest open key, so empty stretches are skipped.  In
bucket b every open vertex whose key is below b + 1 is settled: it is
closed and, when its key is at most -1, its edges are gathered once and it
offers.  A key above -1 would offer above 0, and no key is ever above 0 (it
starts at -shift <= 0 and only falls), so such an offer could win nothing;
those keys settle from bucket -1 on, so only those buckets test for them.
A key of exactly -1 still offers: 0.0 ties a zero shift's start key -0.0
and wins on a smaller center.

Settled labels are final.  Every later offer comes from a key of at least b,
so it is at least fl(b + 1.0) = b + 1 (rounding is monotone), strictly above
every key settled in bucket b: no later offer beats or ties a settled label.
The open vertices below b + 1 are found without a scan: the live ids are
sorted once by floor(start key), and the rest are the targets whose label
an offer lowered in the bucket before.  Those offers lie in [b, b + 1),
since k + 1.0 is exact for a key k <= -1/2 of magnitude below 2**52, and an
offer from a key above -1/2 exceeds 1/2 and beats no label.  Every key lies
in (-delta/2, 0], so the loop ends by bucket 0, after at most
ceil(delta/2) + 1 buckets.

The final labels are the unique fixed point of "label = min(own start, every
neighbor's label + (1.0, 0))": rounding keeps fl(x + 1.0) > x, so each label
rests on strictly smaller keys.  A Dijkstra over (key, center, vertex) heap
entries settles the same fixed point, and its tuple order is what "smallest
center id" means, so both give the same centers bit for bit.  Keys are built
as parent key + 1.0 in both.  (They could part only if two distinct keys met
at one vertex and rounded to the same sum, which needs shifts within an ulp
of each other, or on keys of magnitude 2**52 and above, where x + 1.0 can
round to x.  The loop ends there too: each pass moves past a start bucket or
consumes the carried targets, and each vertex is settled once.)

`ldd` only draws the shifts.  The centers are assigned on their first
read and kept, as is the boundary: one end of every live edge between two
parts, the end whose part has the larger center id, found in one more
pass over every edge of the graph.  Any set that meets every such edge
leaves each component of live minus it inside one part, and this one
holds at most one vertex per cut edge, where both ends would hold about
twice as many; an edge is cut with probability about the shift rate
2*ln(N)/delta (Miller, Peng and Xu).  Step 1 asks one question of the
result, `LddResult.large_component`: which component of live minus the
boundary, if any, holds more than 2n/3.  It builds the centers, the
boundary and the components only as far as the answer needs them; while
every shift is below 2 the degrees alone may settle it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InputError
from .graph import Graph, VertexMask, _gather, connected_components
from .rng import SplitMix64, truncated_exponential

__all__ = ["LddResult", "ldd"]


@dataclass(frozen=True)
class LddResult:
    """The decomposition of g's live vertices `ids` (ascending), which drew
    `shifts` in that order.

    center[v] is the center of live vertex v's part, -1 outside the mask;
    boundary holds the live vertices with a live neighbor in a part of
    smaller center, which is one end of every live edge between parts.
    Both are computed when first read and kept.
    """

    ids: np.ndarray
    shifts: np.ndarray
    g: Graph = field(repr=False, compare=False)

    @cached_property
    def center(self) -> np.ndarray:
        return _assign(self.g, self.ids, self.shifts)

    @cached_property
    def boundary(self) -> VertexMask:
        return _boundary(self.g, self.center)

    def large_component(self, n: int) -> int | None:
        """The smallest id of the component of live minus `boundary` that
        holds more than 2n/3 of n, or None; n is at least the live count.

        Each test runs only when the ones before it pass:
        - while every shift is below 2, a member u of c's part has
          dist_live(c, u) <= shift[c] < 2, so the part lies in c's closed
          neighborhood, and is c alone when shift[c] < 1: 1 + the largest
          degree among the ids with shift >= 1 caps every part, and no
          center is assigned;
        - the part sizes.  Parts are disjoint, so only one can exceed 2n/3;
        - that part less the boundary.  The boundary holds one end of
          every live edge between parts, so each component of live minus it
          lies in one part;
        - one component pass on that interior.
        """
        if not self.ids.size:
            return None
        if self.shifts.max() < 2.0:
            near = self.ids[self.shifts >= 1.0]
            degree = self.g.indptr[near + 1] - self.g.indptr[near]
            if 3 * (1 + int(degree.max(initial=0))) <= 2 * n:
                return None
        sizes = np.bincount(self.center[self.ids])
        c = int(np.argmax(sizes))
        if 3 * int(sizes[c]) <= 2 * n:
            return None
        inner = (self.center == c) & ~self.boundary.bits
        if 3 * np.count_nonzero(inner) <= 2 * n:
            return None
        label, sizes = connected_components(self.g, VertexMask(inner))
        return int(np.argmax(label == 0)) if 3 * int(sizes[0]) > 2 * n else None


def _boundary(g: Graph, center: np.ndarray) -> VertexMask:
    """The live vertices with a live neighbor of a smaller center, in one
    pass over every edge of g; an end outside live has center -1.  Each
    live edge between two parts is stored in both directions, so exactly
    one of them has its source's center below its target's, and its target
    is the end marked.  c_tgt > c_src >= 0 makes every marked target live."""
    c_src = np.repeat(center, np.diff(g.indptr))
    c_tgt = center[g.indices]
    cross = (c_tgt > c_src) & (c_src >= 0)
    bits = np.zeros(g.n, dtype=bool)
    bits[g.indices[cross]] = True
    return VertexMask(bits)


def ldd(g: Graph, live: VertexMask, delta: float, rng: SplitMix64) -> LddResult:
    """Draw the shifts of `live`'s vertices from `rng`; the parts are
    assigned when the result's centers are first read."""
    # an int past the largest float compares exactly, and would overflow below
    if not 0 < delta <= sys.float_info.max:
        raise InputError(f"delta must be positive and finite, got {delta}")
    ids = live.ids()
    rate = 2.0 * math.log(max(ids.size, 2)) / delta
    return LddResult(ids, truncated_exponential(rng.block_floats(ids.size), rate, delta / 2.0), g)


def _assign(g: Graph, ids: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The center of every vertex, -1 off `ids`: the bucket loop over the
    live ids `ids` (ascending) and their shifts.

    A bucket's pool may hold a vertex twice: offered to twice, or offered
    to and also starting there.  A stamp array keeps one entry of each, in
    no particular order, which is all `np.minimum.at` needs.  Offers read
    the settled vertices' keys and centers through `_gather`'s rows.  An
    offer is kept when its key is at most its target's, and centers are
    compared only among the offers tied on the key the target ends the
    bucket with.  A kept offer that ties its target's key with a center no
    smaller changes nothing: `np.minimum.at` keeps the center, and the
    target, open with a key in the next bucket, is in the next pool
    already.
    """
    n_live = ids.size
    center = np.full(g.n, -1, dtype=np.int64)
    # A vertex outside live holds key -inf, so no offer ever beats it, and a
    # settled vertex's key is below every offer still to come, so the key
    # test alone drops the edges that lead to either.
    key = np.full(g.n, -np.inf)
    key[ids] = -shifts
    center[ids] = ids
    is_open = center >= 0
    stamp = np.empty(g.n, dtype=np.intp)
    # the live ids by start bucket; the order inside a bucket does not matter
    floors = np.floor(-shifts)
    order = np.argsort(floors)
    floors, by_start = floors[order], ids[order]
    head = 0
    carry = np.empty(0, dtype=np.int64)
    while head < n_live or carry.size:
        b = floors[head] if head < n_live else np.inf
        if carry.size:
            b = min(b, np.floor(key[carry].min()))
        tail = int(np.searchsorted(floors, b, side="right"))
        pool = np.concatenate([by_start[head:tail], carry])
        head = tail
        settle = pool[is_open[pool]]
        # each repeated id is stamped with one of its positions, and only
        # the entry at that position is kept
        at = np.arange(settle.size)
        stamp[settle] = at
        settle = settle[stamp[settle] == at]
        is_open[settle] = False
        if b >= -1:
            # a key above -1 offers above 0, above every live key
            settle = settle[key[settle] <= -1.0]
        row, tgt = _gather(g, settle)
        cand = (key[settle] + 1.0)[row]
        k_old = key[tgt]
        # keep the offers that beat or tie their target's key; most lose on
        # the key alone
        keep = np.flatnonzero(cand <= k_old)
        row, tgt, cand, k_old = row[keep], tgt[keep], cand[keep], k_old[keep]
        # lowest key first, then the smallest center among offers tied on it
        np.minimum.at(key, tgt, cand)
        k_new = key[tgt]
        c_settle = center[settle]
        center[tgt[k_new < k_old]] = g.n  # a lower key discards the old center
        tie = np.flatnonzero(cand == k_new)
        np.minimum.at(center, tgt[tie], c_settle[row[tie]])
        carry = tgt
    return center

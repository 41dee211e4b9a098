"""Iterative balanced-separator driver.

Maintains a triple (model, X, live): a clique minor model under
construction, an accumulating cut set, and the live component still being
worked on.  Each iteration either certifies the live part is shattered
(decomposition boundary small enough), grows the model by one branch along
BFS tree paths, grows one branch downward to pinch its live neighborhood,
or cuts a thin BFS layer and charges its cost to the vertices below it.
The run ends with a balanced separator or, if the model ever reaches h
branches, a K_h minor witness.

All tie-breaking is by smallest id/index, all thresholds compare in exact
integer arithmetic against the original vertex count n, and all randomness
comes from two named sub-streams of the run seed ("ldd", "fast_center"),
so a run is a pure function of (graph, h, ell, seed, flags).

The returned separator is assembled in up to three attempts, each verified
before being accepted: the literal X | S | F(model, live) form first; if
that fails balance, branches are flipped wholesale into the separator; if
that still fails, vertices of branches retired along the way are removed
too.  The third form is always balanced: every dropped component is
non-adjacent to the others and holds at most n/2 vertices, and the final
live side is shattered by S.  The attempt number is reported as
stats["fallback_level"].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomp import ldd
from .errors import InputError, SelfVerificationError
from .graph import (
    Graph,
    VertexMask,
    BfsLayers,
    _ball_sizes,
    _masked_adjacency,
    ball,
    bfs_layers,
    connected_components,
    tree_path,
)
from .minor_model import (
    MinorModel,
    add_branch,
    branch_neighbors,
    f_selector,
    grow_branch,
    new_model,
    trim,
)
from .rng import stream
from .verify import VerificationReport, check_invariants, verify_balanced, verify_witness

__all__ = [
    "SeparatorOutcome",
    "BalancedSeparator",
    "MinorWitness",
    "default_ell",
    "ceil_log2",
    "balanced_separator",
]

EXACT_CENTER_LIMIT = 512
FAST_REJECTION_BUDGET = 64


def ceil_log2(h: int) -> int:
    """Smallest k with 2**k >= h (h >= 1)."""
    return (h - 1).bit_length()


def default_ell(n: int, h: int) -> int:
    """max(1, round(sqrt(n) / (h * sqrt(ceil_log2(h))))), rounding half up."""
    if h < 3:
        raise InputError("h must be >= 3")
    if n < 1:
        raise InputError("n must be >= 1")
    return max(1, int(math.sqrt(n) / (h * math.sqrt(ceil_log2(h))) + 0.5))


class SeparatorOutcome:
    kind = "outcome"


@dataclass
class BalancedSeparator(SeparatorOutcome):
    kind = "separator"
    separator: VertexMask
    component_sizes: list
    size_breakdown: dict
    stats: dict
    verification: VerificationReport


@dataclass
class MinorWitness(SeparatorOutcome):
    kind = "witness"
    model: MinorModel
    h: int
    stats: dict
    verification: VerificationReport


@dataclass
class LayeredView:
    """BFS layering of live from a center whose base-ball holds >= 2n/3."""

    center: int
    layers: BfsLayers
    base: int
    ell_star: int
    sizes: np.ndarray
    U: VertexMask
    B: VertexMask
    M_plus: VertexMask


@dataclass
class DriverState:
    g: Graph
    n: int
    h: int
    ell: int
    model: MinorModel
    x_set: VertexMask
    live: VertexMask
    step1_sep: VertexMask | None = None
    iteration: int = 0
    stats: dict = field(default_factory=dict)
    charged: np.ndarray = None
    retired: list = field(default_factory=list)
    delta: int = 0
    ell_star: int = 0
    base_max: int = 0
    branch_budget: int = 0
    rng_ldd: object = None
    rng_fast: object = None


def _new_stats() -> dict:
    return {
        "iterations": 0,
        "ldd_calls": 0,
        "step1_finished": 0,
        "step2_count": 0,
        "step3_count": 0,
        "step4_count": 0,
        "fast_accepts": 0,
        "fast_rejects": 0,
        "exact_center_used": 0,
        "charged": 0,
        "retired_branches": 0,
        "fallback_level": 0,
        "invariant_checks": 0,
    }


def _largest_component_mask(g: Graph, mask: VertexMask) -> VertexMask:
    return VertexMask(connected_components(g, mask)[0] == 0)


def _retire_and_trim(st: DriverState) -> None:
    for i in range(st.model.size):
        if branch_neighbors(st.model, st.g, st.live, i).size == 0:
            st.retired.append(st.model.branches[i])
            st.stats["retired_branches"] += 1
    st.model = trim(st.model, st.g, st.live)


def _layered_view(st: DriverState, root: int, base: int) -> LayeredView:
    lay = bfs_layers(st.g, st.live, root)
    reached = sum(len(L) for L in lay.layers)
    if reached != st.live.size:
        raise SelfVerificationError(
            f"iteration {st.iteration}: live is not connected "
            f"(BFS from {root} reached {reached} of {st.live.size})"
        )
    sizes = np.array([len(L) for L in lay.layers], dtype=np.int64)
    ell_star = st.ell_star
    dist = lay.dist

    def band(lo: int, hi=None) -> VertexMask:
        bits = dist >= lo if hi is None else (dist >= lo) & (dist <= hi)
        return VertexMask(bits & st.live.bits)

    view = LayeredView(
        center=root,
        layers=lay,
        base=base,
        ell_star=ell_star,
        sizes=sizes,
        U=band(0, base),
        B=band(base + ell_star + 1),
        M_plus=band(base + 1, base + ell_star + st.ell),
    )
    if 3 * view.U.size < 2 * st.n:
        raise SelfVerificationError(
            f"iteration {st.iteration}: center {root} has base ball "
            f"{view.U.size} < 2n/3 of n={st.n}"
        )
    st.base_max = max(st.base_max, base)
    st.branch_budget = (st.h - 1) * (st.base_max + ell_star + st.ell) + 1
    return view


def _exact_center(g: Graph, live: VertexMask, r: int, n: int) -> int | None:
    """Smallest live id whose radius-r live ball holds 2n/3 of n, or None.

    The first id is tested with one BFS, which is where dense inputs pass,
    so they build no matrix.  The other ids are tested in ascending blocks
    of 1, 2, 4, ... sources, one csgraph pass per block on a masked matrix
    built once; the first passing id of the first block with one is the
    answer the per-vertex loop would give.
    """
    ids = live.ids()
    if 3 * ball(g, live, int(ids[0]), r).size >= 2 * n:
        return int(ids[0])
    adj = _masked_adjacency(g, live.bits)
    lo, width = 1, 1
    while lo < ids.size:
        block = ids[lo:lo + width]
        hits = np.flatnonzero(3 * _ball_sizes(adj, r, block) >= 2 * n)
        if hits.size:
            return int(block[hits[0]])
        lo += width
        width *= 2
    return None


def step1_decompose(st: DriverState):
    """LDD the live part; either Finished (carrying S) or a LayeredView.

    When every post-LDD component is small but the live part is tiny, an
    exact scan may still find a vertex whose delta-ball holds 2n/3 of the
    graph (dense instances collapse to singleton partitions whose boundary
    hides them); the scan keeps the branch-growing path reachable there and
    is skipped above EXACT_CENTER_LIMIT live vertices.  It returns the
    smallest passing id (see `_exact_center`).  On dense witness inputs
    that is the first live id, found by one BFS.  A scan that rejects every
    id, as on sparse inputs, costs a few csgraph passes rather than one BFS
    per live vertex: a whole solve of grid 22², cycle 500 or path 500 takes
    4-9 ms, where the per-vertex loop made it 116-147 ms (2 vCPUs).
    """
    res = ldd(st.g, st.live, float(st.delta), st.rng_ldd)
    st.stats["ldd_calls"] += 1
    label, sizes = connected_components(st.g, st.live.minus(res.boundary))
    if sizes.size and 3 * int(sizes[0]) > 2 * st.n:
        return _layered_view(st, int(np.argmax(label == 0)), st.delta)
    if st.live.size <= EXACT_CENTER_LIMIT:
        v = _exact_center(st.g, st.live, st.delta, st.n)
        if v is not None:
            st.stats["exact_center_used"] += 1
            return _layered_view(st, v, st.delta)
    return ("finished", res.boundary)


def _try_fast_center(st: DriverState):
    ids = st.live.ids()
    for _ in range(FAST_REJECTION_BUDGET):
        s = int(ids[st.rng_fast.next_below(ids.size)])
        if 3 * ball(st.g, st.live, s, 2 * st.delta).size >= 2 * st.n:
            st.stats["fast_accepts"] += 1
            return _layered_view(st, s, 2 * st.delta)
        st.stats["fast_rejects"] += 1
    return None


def step2_grow_model(st: DriverState, view: LayeredView):
    """New-branch candidate: tree paths to each branch's shallowest window
    contact, or None when some branch only touches live below the window."""
    window_bits = view.U.bits | view.M_plus.bits
    contacts = []
    for i in range(st.model.size):
        nbrs = branch_neighbors(st.model, st.g, st.live, i)
        hits = nbrs[window_bits[nbrs]]
        if hits.size == 0:
            return None
        contacts.append(int(hits[0]))
    if not contacts:
        return np.array([view.center], dtype=np.int64)
    paths = [tree_path(view.layers, xc) for xc in contacts]
    return np.unique(np.concatenate(paths))


def step3_grow_branch(st: DriverState, view: LayeredView):
    """Pick the stuck branch and flood everything below the thinnest window
    layer that it can reach; afterwards its live neighborhood fits in that
    layer."""
    window_bits = view.U.bits | view.M_plus.bits
    sel = None
    sel_nbrs = None
    for i in range(st.model.size):
        nbrs = branch_neighbors(st.model, st.g, st.live, i)
        if nbrs.size and not window_bits[nbrs].any():
            sel, sel_nbrs = i, nbrs
            break
    if sel is None:
        raise SelfVerificationError(
            f"iteration {st.iteration}: dispatched to branch growth "
            "with no branch stuck below the window"
        )
    lo = view.base + view.ell_star + 1
    window = view.sizes[lo:lo + st.ell]
    y = lo + int(np.argmin(window))
    if st.h * st.ell * int(view.sizes[y]) > st.n:
        raise SelfVerificationError(
            f"iteration {st.iteration}: thinnest layer {y} has "
            f"{view.sizes[y]} vertices, exceeds n/(h*ell)"
        )
    dist = view.layers.dist
    W = VertexMask((dist >= y + 1) & st.live.bits)
    label, _ = connected_components(st.g, W)
    touched = label[sel_nbrs]
    return sel, np.flatnonzero(np.isin(label, touched[touched >= 0])), y


def step4_cut_layer(st: DriverState, view: LayeredView) -> int:
    """Smallest layer index in the middle band whose size is at most 1/ell
    of everything below it."""
    sizes = view.sizes
    suffix = np.concatenate([np.cumsum(sizes[::-1])[::-1], [0]])
    for i in range(view.base + 1, view.base + view.ell_star + 1):
        if i < sizes.size and st.ell * int(sizes[i]) <= int(suffix[i + 1]):
            return i
    raise SelfVerificationError(
        f"iteration {st.iteration}: no cuttable layer in "
        f"[{view.base + 1}, {view.base + view.ell_star}] "
        f"(sizes {sizes[view.base + 1:view.base + view.ell_star + 1].tolist()})"
    )


def _breakdown(st: DriverState, f_mask: VertexMask, s_mask) -> dict:
    return {
        "x": st.x_set.size,
        "step1_s": 0 if s_mask is None else s_mask.size,
        "f_selector": f_mask.size,
    }


def _verified_separator(g: Graph, sep: VertexMask, size_breakdown: dict, stats: dict):
    """The BalancedSeparator for `sep`, or None if `sep` fails balance."""
    report = verify_balanced(g, sep)
    if not report.ok:
        return None
    return BalancedSeparator(
        separator=sep,
        component_sizes=list(report.component_sizes),
        size_breakdown=size_breakdown,
        stats=stats,
        verification=report,
    )


def _degenerate_separator(g: Graph, sep: VertexMask, stats: dict) -> BalancedSeparator:
    out = _verified_separator(
        g, sep, {"x": 0, "step1_s": 0, "f_selector": sep.size}, stats
    )
    if out is None:
        raise SelfVerificationError("degenerate-case separator failed verification")
    return out


def _finish_separator(st: DriverState) -> BalancedSeparator:
    g = st.g
    f_mask = f_selector(st.model, g, st.live)
    s_mask = st.step1_sep
    literal = st.x_set.union(f_mask)
    if s_mask is not None:
        literal = literal.union(s_mask)

    flipped = st.x_set.union(st.model.member_mask())
    if s_mask is not None:
        flipped = flipped.union(s_mask)
    retired_mask = VertexMask.from_ids(
        g.n, np.concatenate(st.retired) if st.retired else np.empty(0, dtype=np.int64)
    )
    attempts = [
        (0, literal, f_mask),
        (1, flipped, st.model.member_mask()),
        (2, flipped.union(retired_mask), st.model.member_mask().union(retired_mask)),
    ]
    for level, sep, branch_side in attempts:
        out = _verified_separator(
            g, sep, _breakdown(st, branch_side, s_mask), {**st.stats, "fallback_level": level}
        )
        if out is not None:
            return out
    raise SelfVerificationError(
        f"no separator attempt balanced: n={st.n}, |X|={st.x_set.size}, "
        f"|live|={st.live.size}, model={[len(b) for b in st.model.branches]}, "
        f"retired={[len(b) for b in st.retired]}"
    )


def balanced_separator(
    g: Graph,
    h: int,
    ell: int | None = None,
    seed: int = 0,
    fast_center: bool = False,
    debug: bool = False,
) -> SeparatorOutcome:
    """Run the driver to a verified balanced separator or K_h witness."""
    if h < 3:
        raise InputError("h must be >= 3")
    n = g.n
    if ell is None:
        ell = default_ell(max(n, 1), h)
    if ell < 1:
        raise InputError("ell must be >= 1")
    stats = _new_stats()
    stats.update({"n": n, "m": g.m, "h": h, "ell": ell, "fast": int(fast_center)})

    label, sizes = connected_components(g)
    if sizes.size == 0 or 3 * int(sizes[0]) <= 2 * n:
        # already balanced without removing anything
        return _degenerate_separator(g, VertexMask.empty(n), stats)

    scope = label == 0
    x = int(np.argmax(scope))
    scope[x] = False
    live = _largest_component_mask(g, VertexMask(scope))

    log_h = ceil_log2(h)
    st = DriverState(
        g=g, n=n, h=h, ell=ell,
        model=new_model(n, x),
        x_set=VertexMask.empty(n),
        live=live,
        stats=stats,
        charged=np.zeros(n, dtype=bool),
        delta=ell * log_h,
        ell_star=(log_h + 1) * ell,
        rng_ldd=stream(seed, "ldd"),
        rng_fast=stream(seed, "fast_center"),
    )
    st.base_max = st.delta
    st.branch_budget = (h - 1) * (st.delta + st.ell_star + ell) + 1

    while 3 * st.live.size >= 2 * n:
        if debug:
            report = check_invariants(st)
            st.stats["invariant_checks"] += 1
            if not report.ok:
                raise SelfVerificationError(
                    f"iteration {st.iteration}: invariant failures "
                    f"{[c for c in report.checks if not c[1]]}"
                )
        st.iteration += 1
        st.stats["iterations"] = st.iteration
        if st.iteration > n:
            raise SelfVerificationError("iteration count exceeded n; live not shrinking")

        view = None
        if fast_center and st.iteration >= 2:
            view = _try_fast_center(st)
        if view is None:
            outcome = step1_decompose(st)
            if isinstance(outcome, tuple):
                st.step1_sep = outcome[1]
                st.stats["step1_finished"] = 1
                break
            view = outcome

        cand = step2_grow_model(st, view)
        if cand is not None:
            st.model = add_branch(st.model, g, cand)
            st.stats["step2_count"] += 1
            if st.model.size == h:
                report = verify_witness(g, st.model, h)
                if not report.ok:
                    raise SelfVerificationError(
                        f"witness failed validation: {report.failures()}"
                    )
                return MinorWitness(
                    model=st.model, h=h, stats=dict(st.stats), verification=report
                )
            st.live = _largest_component_mask(g, st.live.minus_ids(cand))
        elif st.h * view.B.size <= n:
            idx, z, y = step3_grow_branch(st, view)
            st.stats["step3_count"] += 1
            st.model = grow_branch(st.model, g, idx, z)
            st.live = _largest_component_mask(g, st.live.minus_ids(z))
        else:
            istar = step4_cut_layer(st, view)
            st.stats["step4_count"] += 1
            layer = view.layers.layers[istar]
            dist = view.layers.dist
            charged_ids = np.flatnonzero((dist >= istar + 1) & st.live.bits)
            if st.charged[charged_ids].any():
                raise SelfVerificationError(
                    f"iteration {st.iteration}: double charge at layer cut {istar}"
                )
            if st.ell * len(layer) > charged_ids.size:
                raise SelfVerificationError(
                    f"iteration {st.iteration}: cut layer {istar} too thick for its charge"
                )
            st.charged[charged_ids] = True
            st.stats["charged"] += int(charged_ids.size)
            st.x_set = st.x_set.union(VertexMask.from_ids(n, layer))
            kept = VertexMask((dist >= 0) & (dist < istar) & st.live.bits)
            if debug:
                whole = _largest_component_mask(g, kept)
                if whole.size != kept.size:
                    raise SelfVerificationError(
                        f"iteration {st.iteration}: layers below the cut are disconnected"
                    )
            st.live = kept
        _retire_and_trim(st)

    if st.iteration == 0:
        # the loop never ran: removing x alone already balances the graph,
        # whereas the selector could legally pick an unbalancing neighbor
        return _degenerate_separator(g, VertexMask.from_ids(n, [x]), dict(st.stats))

    if st.ell * st.x_set.size > st.stats["charged"]:
        raise SelfVerificationError(
            f"charge ledger broken: ell*|X|={st.ell * st.x_set.size} "
            f"> charged={st.stats['charged']}"
        )
    return _finish_separator(st)

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
comes from the run seed's "ldd" sub-stream, so a run is a pure function of
(graph, h, ell, seed).

The returned separator is assembled in up to three attempts, each verified
before being accepted: the literal X | S | F(model, live) form first; if
that fails balance, branches are flipped wholesale into the separator; if
that still fails, vertices of branches retired along the way are removed
too.  The third form is always balanced: every dropped component is
non-adjacent to the others and holds at most n/2 vertices, and the final
live side is shattered by S.  The attempt number is reported as
stats["fallback_level"].  The exits before the loop (nothing removed, or
the first branch's vertex alone) are single attempts of the same loop.

A sparse solve labels no component when vertex 0's smallest neighbor
reaches 2n/3 of the graph in g - {0}: that one BFS before the loop yields
the first branch's vertex and the first live part.  Only otherwise does one
component pass on g - {0} yield them with g's largest component (see
`_prologue`).  The prologue depends on g alone, not on h, ell or the seed,
so it is computed once per Graph object and kept on it: solving a Graph
again starts at the loop or at the exit.  Verifying the separator counts
component sizes without labelling them.  Step 1 asks the LDD for a
component over 2n/3 of live minus its boundary
(`LddResult.large_component`, which builds no more of the decomposition
than that answer needs) and reads the boundary otherwise only when it
finishes with S.

The run's parameters n, h, ell and delta = ell * ceil(log2 h) are kept
once, in `DriverState.stats`, where each step reads them (ell* = delta + ell).

The branches' live neighbors are carried across iterations in
`DriverState.nbrs`, gathered once for the first branch: steps 2, 3 and 4
only shrink live, so each trim filters the carried sets, and only the
branch that step 2 adds or step 3 grows is gathered from the graph again.
The branches each trim drops go to `DriverState.retired`, for the third
separator attempt.

Failing the decomposition, step 1 takes as its center the smallest id
whose delta-ball holds 2n/3 of the graph (`_exact_center`, which searches
only live parts of at most EXACT_CENTER_LIMIT vertices and holds that size
gate), and that search's depth array is the view's layering.  After step 2
or 3 the same search runs on what is left, and `DriverState.center_search`
keeps its result with the new live mask: a center's reach is the new live
part, found with no component pass, and step 1 reuses the record while
that mask is still live.

`check_invariants` is the debug check of a `DriverState` at every
iteration start; it lives here, beside the only type whose fields it reads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .decomp import ldd
from .errors import InputError, SelfVerificationError
from .graph import (
    Graph,
    VertexMask,
    _ball_sizes,
    _component_sizes,
    _gather,
    _reach_without,
    _sorted_unique,
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
from .verify import VerificationReport, verify_balanced, verify_witness

__all__ = [
    "BalancedSeparator",
    "MinorWitness",
    "default_ell",
    "ceil_log2",
    "cluster_diameter",
    "balanced_separator",
    "check_invariants",
]

EXACT_CENTER_LIMIT = 512


def _as_int(name: str, value) -> int:
    """`value` as a Python int by `operator.index`; InputError for a bool or a non-integer."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def ceil_log2(h: int) -> int:
    """Smallest k with 2**k >= h (h >= 1)."""
    return (h - 1).bit_length()


def cluster_diameter(ell: int, h: int) -> int:
    """delta = ell * ceil(log2 h), the weak diameter bound of step 1's clusters."""
    return ell * ceil_log2(h)


def default_ell(n: int, h: int) -> int:
    """max(1, round(sqrt(n) / (h * sqrt(ceil_log2(h))))), rounding half up;
    InputError when n or h is no integer, or too large to be a float."""
    n, h = _as_int("n", n), _as_int("h", h)
    if h < 3:
        raise InputError("h must be >= 3")
    if n < 1:
        raise InputError("n must be >= 1")
    try:
        return max(1, int(math.sqrt(n) / (h * math.sqrt(ceil_log2(h))) + 0.5))
    except OverflowError:
        raise InputError("the default ell needs n and h below 2**1024; give ell") from None


@dataclass
class BalancedSeparator:
    kind = "separator"
    separator: VertexMask
    size_breakdown: dict
    stats: dict
    verification: VerificationReport


@dataclass
class MinorWitness:
    kind = "witness"
    model: MinorModel
    stats: dict
    verification: VerificationReport


@dataclass
class LayeredView:
    """BFS layering of live from a center whose delta-ball holds >= 2n/3.

    `dist` is the `bfs_layers` depth array from `root`; it reaches every
    live vertex, so dist >= 0 is exactly live.  `sizes[d]` counts the live
    vertices at depth d.
    """

    root: int
    dist: np.ndarray
    sizes: np.ndarray


@dataclass
class DriverState:
    g: Graph
    model: MinorModel
    x_set: VertexMask
    live: VertexMask
    step1_sep: VertexMask
    # the run's one record, which the driver reads its parameters from, and
    # its counters; "iterations" numbers the current iteration
    stats: dict
    # the vertices below step 4's cuts; stats["charged"] counts them
    charged: np.ndarray
    rng_ldd: object
    # each branch's live neighbors, as the last trim left them, with a branch
    # that steps 2 and 3 added or grew since gathered again
    nbrs: list
    # the branches trim dropped; stats["retired_branches"] counts them
    retired: list = field(default_factory=list)
    # (mask, depths): the last live update's `_exact_center` result, depths
    # None when no center passed, with the live mask `mask` it describes; it
    # holds only while mask is live, and every assignment to live makes a
    # new mask
    center_search: tuple = (None, None)


def check_invariants(st: DriverState) -> VerificationReport:
    """The properties asserted at every iteration start.

    Everything is recomputed from the graph, and the live neighbors that
    `st.nbrs` carries for each branch must equal the ones gathered here.
    """
    g, m, live = st.g, st.model, st.live
    n, h, ell, delta = (st.stats[k] for k in ("n", "h", "ell", "delta"))
    ell_star = delta + ell
    checks = []

    structural = [c for c in verify_witness(g, m, h).checks if c[0] != "enough_branches"]
    struct_ok = all(okc for _, okc, _ in structural)
    small = m.size <= h - 1
    detail1 = f"|K|={m.size} <= h-1={h - 1}: {small}"
    if not struct_ok:
        detail1 += "; " + "; ".join(d for _, okc, d in structural if not okc)
    checks.append(("model_small_and_valid", small and struct_ok, detail1))

    member = m.member_mask()
    overlap = live.intersect(member)
    checks.append((
        "live_disjoint_from_branches", overlap.size == 0,
        "disjoint" if overlap.size == 0 else f"overlap at {overlap.ids()[:5].tolist()}",
    ))

    fresh = [branch_neighbors(m, g, live, i) for i in range(m.size)]
    nbr_counts = [nb.size for nb in fresh]
    dead = [i for i, nb in enumerate(nbr_counts) if nb == 0]
    checks.append((
        "every_branch_touches_live", not dead,
        "all touch" if not dead else f"branches without live neighbor: {dead}",
    ))

    stale = [i for i, (nb, want) in enumerate(zip(st.nbrs, fresh))
             if not np.array_equal(nb, want)]
    checks.append((
        "carried_neighbors_match", not stale and len(st.nbrs) == m.size,
        f"{len(st.nbrs)} carried lists for {m.size} branches"
        + ("" if not stale else f"; stale at branches {stale}"),
    ))

    budget = (h - 1) * (delta + ell_star + ell) + 1
    bad4 = [(i, int(ids.size), int(nb)) for i, (ids, nb) in enumerate(zip(m.branches, nbr_counts))
            if ids.size > budget and h * ell * nb > n]
    checks.append((
        "branch_size_or_neighborhood", not bad4,
        f"budget {budget}, n/(h*ell) threshold {n}/{h * ell}"
        + ("" if not bad4 else f"; violations (idx,|V|,|N|): {bad4}"),
    ))

    _, tgt = _gather(g, live.ids())
    outside = _sorted_unique(tgt[~live.bits[tgt]])
    covered = st.x_set.bits[outside] | member.bits[outside]
    checks.append((
        "live_boundary_covered", bool(covered.all()),
        "covered" if covered.all()
        else f"uncovered outside neighbors: {outside[~covered][:5].tolist()}",
    ))

    x_live = st.x_set.intersect(live)
    x_branch = st.x_set.intersect(member)
    sizes = _component_sizes(g, live)
    checks.append((
        "state_sane", x_live.size == 0 and x_branch.size == 0 and sizes.size <= 1,
        f"|X&live|={x_live.size}, |X&branches|={x_branch.size}, live components={sizes.size}",
    ))

    return VerificationReport(all(okc for _, okc, _ in checks), checks)


def _largest_component_mask(g: Graph, mask: VertexMask) -> VertexMask:
    return VertexMask(connected_components(g, mask)[0] == 0)


def _prologue(g: Graph) -> tuple:
    """(x, live, lone): the first branch's vertex, the live part, and the
    separator of an exit before the loop, None when the loop runs.  Pure in
    g; kept per Graph, so `balanced_separator` computes it once for each
    Graph object whatever h, ell and seed.

    First one BFS in g - {0} from vertex 0's smallest neighbor.  When its
    reach R holds 2n/3 of n, |R| > (n - 1)/2, so R is the largest component
    of g - {0}, and 0 touches it: 0's component C is the largest of g, x = 0
    and live = R, with neither exit firing.  That settles every connected
    input of 3 or more vertices where 0 is not a cut vertex, with no
    component labelled.

    Otherwise g's largest component C is found by one component pass on
    g - {0}.  Vertex 0's component in g joins the components of g - {0}
    that its neighbors touch; every other component of g is one of g - {0}.
    The exits: nothing removed when C holds at most 2n/3 (x and live are
    then None), and x alone when removing it leaves live under 2n/3 (the
    selector could legally pick an unbalancing neighbor of x).  Otherwise x
    is C's smallest id and live is the largest component of C - x, which
    when x = 0 is the largest touched component, read off the same pass.
    Only when C avoids vertex 0 does a second pass label C - x.
    """
    n = g.n
    if n == 0:
        return None, None, VertexMask.empty(0)
    if g.degree(0):
        reach = VertexMask(_reach_without(g, 0, int(g.neighbors(0)[0])))
        if 3 * reach.size >= 2 * n:
            return 0, reach, None
    rest = np.ones(n, dtype=bool)
    rest[0] = False
    label, sizes = connected_components(g, VertexMask(rest))
    touch = _sorted_unique(label[g.neighbors(0)])
    joined = 1 + int(sizes[touch].sum())
    # ranks are by size, so the first untouched rank is the largest other
    # component; vertex 0's wins a tie, having the smallest id
    apart = np.ones(sizes.size, dtype=bool)
    apart[touch] = False
    rival = np.flatnonzero(apart)[:1]
    other = int(sizes[rival].sum())
    if 3 * max(joined, other) <= 2 * n:
        return None, None, VertexMask.empty(n)
    if other > joined:
        scope = label == rival[0]
        x = int(np.argmax(scope))
        scope[x] = False
        live = _largest_component_mask(g, VertexMask(scope))
    else:
        x = 0
        live = VertexMask(label == touch[0]) if touch.size else VertexMask.empty(n)
    return x, live, VertexMask.from_ids(n, [x]) if 3 * live.size < 2 * n else None


def _layered_view(st: DriverState, dist: np.ndarray) -> LayeredView:
    """The view of `dist`, a `bfs_layers` depth array within live."""
    n, delta = st.stats["n"], st.stats["delta"]
    root = int(np.argmax(dist == 0))
    sizes = np.bincount(dist[dist >= 0])
    if sizes.sum() != st.live.size:
        raise SelfVerificationError(
            f"iteration {st.stats['iterations']}: live is not connected "
            f"(BFS from {root} reached {sizes.sum()} of {st.live.size})"
        )
    delta_ball = int(sizes[:delta + 1].sum())
    if 3 * delta_ball < 2 * n:
        raise SelfVerificationError(
            f"iteration {st.stats['iterations']}: center {root} has delta ball "
            f"{delta_ball} < 2n/3 of n={n}"
        )
    return LayeredView(root=root, dist=dist, sizes=sizes)


def _exact_center(g: Graph, live: VertexMask, r: int, n: int) -> np.ndarray | None:
    """The BFS depth array within live from its smallest id whose radius-r
    ball holds 2n/3 of n, or None when none does.

    One full-depth search from the first id tests it, and is where dense
    witness inputs pass: its depths count the first id's radius-r ball and
    its whole component.  When the ball fails, one bit-parallel BFS from
    every other id (`_ball_sizes`) tests them, and the first passing one is
    searched in full.  That scan is skipped when neither the first id's
    component nor the rest of live holds 2n/3: a ball never leaves its
    component, so no other ball can pass.  Step 1's live is connected, so
    only `_update_live`'s rest can meet that.  Only live parts of at most
    EXACT_CENTER_LIMIT ids are searched, so that BFS keeps at most 8 words
    per id, and each round gathers 8 words per live edge end and per id:
    about 150 KB on grid 22², and 16.8 MB on a 512-vertex clique.  A live
    part under 2n/3 holds no such ball, so it is not searched either.
    """
    if live.size > EXACT_CENTER_LIMIT or 3 * live.size < 2 * n:
        return None
    dist = bfs_layers(g, live, int(np.argmax(live.bits)))
    if 3 * np.count_nonzero((dist >= 0) & (dist <= r)) >= 2 * n:
        return dist
    reached = np.count_nonzero(dist >= 0)
    if 3 * max(reached, live.size - reached) < 2 * n:
        return None
    rest = live.ids()[1:]
    hits = rest[3 * _ball_sizes(g, live, r, rest) >= 2 * n]
    return bfs_layers(g, live, int(hits[0])) if hits.size else None


def _update_live(st: DriverState, rest: VertexMask) -> None:
    """Set live to the largest component of `rest`, what step 2 or 3 leaves.

    `_exact_center` runs on rest first.  A center's ball holds at least
    2n/3 >= 2|rest|/3 > |rest|/2 vertices, so its reach is rank 0 of
    `connected_components` and becomes live with no component pass.  Live
    is a component of rest, so every live id has the same ball in both, and
    ids outside live fail: the search in live would give the same answer.
    `center_search` records the result with the new live mask only when
    rest is small enough to be searched, as a smaller live part of a larger
    rest may still hold a center.
    """
    dist = _exact_center(st.g, rest, st.stats["delta"], st.stats["n"])
    st.live = _largest_component_mask(st.g, rest) if dist is None else VertexMask(dist >= 0)
    if rest.size <= EXACT_CENTER_LIMIT:
        st.center_search = (st.live, dist)


def step1_decompose(st: DriverState) -> LayeredView | None:
    """LDD the live part; a LayeredView, or None once S is set as step1_sep.

    A component of live minus the boundary centers the view, on its
    smallest id, when it holds more than 2n/3 (`LddResult.large_component`).
    On sparse inputs none comes close: on grid 316² at delta = 108 the
    largest interior held 1,100 to 1,359 vertices over 4 seeds, against 2n/3
    of about 66,600.  Failing that, `_exact_center` may find a center that
    the boundary hides, as on dense inputs; `center_search` stands in for it
    while that record's mask is live.  The boundary is read only when it
    becomes S.
    """
    n, delta = st.stats["n"], st.stats["delta"]
    res = ldd(st.g, st.live, float(delta), st.rng_ldd)
    root = res.large_component(n)
    if root is not None:
        return _layered_view(st, bfs_layers(st.g, st.live, root))
    mask, dist = st.center_search
    if mask is not st.live:
        dist = _exact_center(st.g, st.live, delta, n)
    if dist is not None:
        st.stats["exact_center_used"] += 1
        return _layered_view(st, dist)
    st.step1_sep = res.boundary
    st.stats["step1_finished"] = 1
    return None


def _scan_branches(st: DriverState, view: LayeredView):
    """One pass over the branches' live neighbors `st.nbrs`, in index order.

    The window is depth 0 to delta + ell* + ell.  Returns (i, st.nbrs[i])
    for the first branch i whose live neighbors all lie below it, or (None,
    contacts) with the smallest-id window contact of every branch when no
    branch is stuck.
    """
    delta, ell = st.stats["delta"], st.stats["ell"]
    ell_star = delta + ell
    top = delta + ell_star + ell
    contacts = []
    for i, nb in enumerate(st.nbrs):
        hits = nb[view.dist[nb] <= top]
        if hits.size == 0:
            return i, nb
        contacts.append(int(hits[0]))
    return None, contacts


def step2_grow_model(g: Graph, view: LayeredView, contacts: list) -> np.ndarray:
    """New-branch candidate: the tree paths to every branch's contact, or
    the center alone when the model is empty."""
    if not contacts:
        return np.array([view.root], dtype=np.int64)
    return _sorted_unique(np.concatenate([tree_path(g, view.dist, xc) for xc in contacts]))


def step3_grow_branch(st: DriverState, view: LayeredView, sel_nbrs: np.ndarray):
    """Flood everything below the thinnest window layer that the stuck
    branch can reach through its live neighbors `sel_nbrs` (nonempty, as
    `trim` keeps only branches that touch live); afterwards its live
    neighborhood fits in that layer."""
    n, h, ell, delta = (st.stats[k] for k in ("n", "h", "ell", "delta"))
    ell_star = delta + ell
    lo = delta + ell_star + 1
    window = view.sizes[lo:lo + ell]
    y = lo + int(np.argmin(window))
    if h * ell * int(view.sizes[y]) > n:
        raise SelfVerificationError(
            f"iteration {st.stats['iterations']}: thinnest layer {y} has "
            f"{view.sizes[y]} vertices, exceeds n/(h*ell)"
        )
    W = VertexMask(view.dist > y)
    label, _ = connected_components(st.g, W)
    touched = label[sel_nbrs]
    return np.flatnonzero(np.isin(label, touched[touched >= 0]))


def step4_cut_layer(st: DriverState, view: LayeredView) -> int:
    """Smallest layer index in the middle band whose size is at most 1/ell
    of everything below it."""
    delta, ell = st.stats["delta"], st.stats["ell"]
    ell_star = delta + ell
    sizes = view.sizes
    top = delta + ell_star
    suffix = np.concatenate([np.cumsum(sizes[::-1])[::-1], [0]])
    for i in range(delta + 1, top + 1):
        if i < sizes.size and ell * int(sizes[i]) <= int(suffix[i + 1]):
            return i
    raise SelfVerificationError(
        f"iteration {st.stats['iterations']}: no cuttable layer in "
        f"[{delta + 1}, {top}] (sizes {sizes[delta + 1:top + 1].tolist()})"
    )


def _first_balanced(g: Graph, attempts, stats: dict, failure: str) -> BalancedSeparator:
    """The BalancedSeparator of the first attempt (separator, size_breakdown)
    in the iterable `attempts` that passes verification; its index is the
    fallback level.  No attempt after it is drawn."""
    for level, (sep, size_breakdown) in enumerate(attempts):
        report = verify_balanced(g, sep)
        if report.ok:
            return BalancedSeparator(
                separator=sep,
                size_breakdown=size_breakdown,
                stats={**stats, "fallback_level": level},
                verification=report,
            )
    raise SelfVerificationError(failure)


def _finish_separator(st: DriverState) -> BalancedSeparator:
    """Verify the three separator attempts in order, the first selecting by
    the live neighbors of the model's branches as the last trim left them.
    Each attempt is built only when the one before it fails."""
    def sides():
        yield f_selector(st.model, st.nbrs)
        yield st.model.member_mask()
        yield MinorModel(st.model.n, st.model.branches + tuple(st.retired)).member_mask()

    cut = st.x_set.union(st.step1_sep)
    breakdown = {"x": st.x_set.size, "step1_s": st.step1_sep.size}
    attempts = ((cut.union(side), {**breakdown, "f_selector": side.size}) for side in sides())
    return _first_balanced(st.g, attempts, st.stats, (
        f"no separator attempt balanced: n={st.stats['n']}, |X|={st.x_set.size}, "
        f"|live|={st.live.size}, model={[len(b) for b in st.model.branches]}, "
        f"retired={[len(b) for b in st.retired]}"
    ))


def balanced_separator(
    g: Graph,
    h: int,
    ell: int | None = None,
    seed: int = 0,
    debug: bool = False,
) -> BalancedSeparator | MinorWitness:
    """Run the driver to a verified balanced separator or K_h witness.

    h, ell and seed are integers, anything `operator.index` takes (a numpy
    integer too), kept as Python ints.  InputError, before any work, when
    one is a bool or a non-integer, h < 3, ell < 1, or delta = ell *
    ceil(log2 h) is too large to be a float (the decomposition draws its
    shifts in floats).

    The outcome's `stats` is the run's one record, which the driver reads:
    its parameters n, m, h, ell, delta and seed, then its counters.

    The prologue (`_prologue`) is computed on the first solve of g and kept
    on g for every later one.  Its masks are read-only: an exit before the
    loop returns the kept mask itself as the separator.
    """
    h, seed = _as_int("h", h), _as_int("seed", seed)
    if h < 3:
        raise InputError("h must be >= 3")
    n = g.n
    ell = default_ell(max(n, 1), h) if ell is None else _as_int("ell", ell)
    if ell < 1:
        raise InputError("ell must be >= 1")
    delta = cluster_diameter(ell, h)
    try:
        float(delta)
    except OverflowError:
        raise InputError("delta = ell * ceil(log2 h) must be below 2**1024") from None
    stats = {
        "n": n, "m": g.m, "h": h, "ell": ell, "delta": delta, "seed": seed,
        "iterations": 0,
        "step1_finished": 0,
        "step2_count": 0,
        "step3_count": 0,
        "step4_count": 0,
        "exact_center_used": 0,
        "charged": 0,
        "retired_branches": 0,
        "fallback_level": 0,
        "invariant_checks": 0,
    }

    # g is frozen, so the prologue goes straight into its __dict__, as
    # functools.cached_property stores a value
    kept = g.__dict__.get("_prologue")
    if kept is None:
        kept = _prologue(g)
        for mask in kept[1:]:
            if mask is not None:
                mask.bits.flags.writeable = False
        g.__dict__["_prologue"] = kept
    x, live, lone = kept
    if lone is not None:
        return _first_balanced(
            g, [(lone, {"x": 0, "step1_s": 0, "f_selector": lone.size})], stats,
            "degenerate-case separator failed verification",
        )

    model = new_model(n, x)
    st = DriverState(
        g=g,
        model=model,
        x_set=VertexMask.empty(n),
        live=live,
        step1_sep=VertexMask.empty(n),
        stats=stats,
        charged=np.zeros(n, dtype=bool),
        rng_ldd=stream(seed, "ldd"),
        nbrs=[branch_neighbors(model, g, live, 0)],
    )
    ell_star = delta + ell

    while True:
        # x touches live, so the first pass retires nothing; every pass
        # leaves the live neighbors of each kept branch for the scan
        st.model, st.nbrs, dropped = trim(st.model, st.live, st.nbrs)
        st.retired.extend(dropped)
        st.stats["retired_branches"] = len(st.retired)
        if 3 * st.live.size < 2 * n:
            break
        if debug:
            report = check_invariants(st)
            st.stats["invariant_checks"] += 1
            if not report.ok:
                raise SelfVerificationError(
                    f"iteration {st.stats['iterations']}: invariant failures "
                    f"{report.failures()}"
                )
        st.stats["iterations"] += 1
        if st.stats["iterations"] > n:
            raise SelfVerificationError("iteration count exceeded n; live not shrinking")

        view = step1_decompose(st)
        if view is None:
            break

        stuck, found = _scan_branches(st, view)
        if stuck is None:
            cand = step2_grow_model(g, view, found)
            st.model = add_branch(st.model, g, cand)
            st.stats["step2_count"] += 1
            if st.model.size == h:
                report = verify_witness(g, st.model, h)
                if not report.ok:
                    raise SelfVerificationError(f"witness failed validation: {report.failures()}")
                return MinorWitness(model=st.model, stats=dict(st.stats), verification=report)
            st.nbrs.append(branch_neighbors(st.model, g, st.live, st.model.size - 1))
            _update_live(st, st.live.minus_ids(cand))
        elif h * int(view.sizes[delta + ell_star + 1:].sum()) <= n:
            z = step3_grow_branch(st, view, found)
            st.stats["step3_count"] += 1
            st.model = grow_branch(st.model, g, stuck, z)
            st.nbrs[stuck] = branch_neighbors(st.model, g, st.live, stuck)
            _update_live(st, st.live.minus_ids(z))
        else:
            istar = step4_cut_layer(st, view)
            st.stats["step4_count"] += 1
            dist = view.dist
            layer = np.flatnonzero(dist == istar)
            charged_ids = np.flatnonzero(dist > istar)
            if st.charged[charged_ids].any():
                raise SelfVerificationError(
                    f"iteration {st.stats['iterations']}: double charge at layer cut {istar}"
                )
            if ell * layer.size > charged_ids.size:
                raise SelfVerificationError(
                    f"iteration {st.stats['iterations']}: cut layer {istar} too thick "
                    "for its charge"
                )
            st.charged[charged_ids] = True
            st.stats["charged"] = int(np.count_nonzero(st.charged))
            st.x_set = st.x_set.union(VertexMask.from_ids(n, layer))
            kept = VertexMask((dist >= 0) & (dist < istar))
            if debug and _largest_component_mask(g, kept).size != kept.size:
                raise SelfVerificationError(
                    f"iteration {st.stats['iterations']}: layers below the cut are disconnected"
                )
            st.live = kept

    if ell * st.x_set.size > st.stats["charged"]:
        raise SelfVerificationError(
            f"charge ledger broken: ell*|X|={ell * st.x_set.size} "
            f"> charged={st.stats['charged']}"
        )
    return _finish_separator(st)

"""Certificates: the one module that writes, reads and checks both kinds.

Everything here recomputes components and neighborhoods from the graph
alone; nothing trusts driver-side caches.  A report is a flat list of
named checks so failures can be printed or serialized verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError
from .graph import Graph, VertexMask, _connected, _sorted_unique, connected_components
from .minor_model import MinorModel, branch_neighbors

__all__ = ["VerificationReport", "certificate", "verify_certificate", "verify_balanced",
           "verify_witness", "witness_from_json", "check_invariants"]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: list
    worst_component: int = 0
    separator_size: int = 0
    component_sizes: tuple = ()  # of g minus the separator, largest first

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [[name, passed, detail] for name, passed, detail in self.checks],
            "worst_component": self.worst_component,
            "separator_size": self.separator_size,
        }

    def failures(self) -> list:
        return [c for c in self.checks if not c[1]]


def verify_balanced(g: Graph, sep: VertexMask) -> VerificationReport:
    """Balanced iff every component of g minus sep has 3*size <= 2n."""
    _, sizes = connected_components(g, VertexMask.full(g.n).minus(sep))
    worst = int(sizes[0]) if sizes.size else 0
    ok = 3 * worst <= 2 * g.n
    checks = [(
        "balanced",
        ok,
        f"largest remaining component {worst} of n={g.n}; need 3*{worst} <= 2*{g.n}",
    )]
    return VerificationReport(
        ok, checks, worst_component=worst, separator_size=sep.size,
        component_sizes=tuple(sizes.tolist()),
    )


def verify_witness(g: Graph, m: MinorModel, h: int) -> VerificationReport:
    """Structural checks (a)-(d) of a K_h model; branches may overlap or be
    empty here.

    Pairwise adjacency is one sparse product over a branch-incidence
    matrix.  Its detail counts the pairs without an edge and lists the first
    ten in row order, i < j, so it stays short when there are millions; the
    overlap and connectivity details list their first ten offenders too.
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
        "disjoint" if not overlaps else f"overlapping pairs {_first_ten(overlaps)}",
    ))
    disconnected = [i for i, ids in enumerate(m.branches) if not _connected(g, ids)]
    checks.append((
        "each_connected", not disconnected,
        "connected" if not disconnected
        else f"disconnected branches {_first_ten(disconnected)}",
    ))
    # entry (i, j) of inc @ adj @ inc.T counts the edges from branch i to
    # branch j; inc has a row per branch, so overlapping branches are fine
    k = m.size
    cols = np.concatenate([np.empty(0, dtype=np.int64), *m.branches])
    inc = sparse.csr_matrix(
        (np.ones(cols.size), cols, np.cumsum([0] + [ids.size for ids in m.branches])),
        shape=(k, g.n),
    )
    adj = sparse.csr_matrix((np.ones(g.indices.size), g.indices, g.indptr), shape=(g.n, g.n))
    joined = sparse.triu(inc @ adj @ inc.T, 1, format="csr")
    joined.sort_indices()
    # row i has k - 1 - i pairs (i, j > i); the entries are counts of edges,
    # so every stored one is a joined pair
    unjoined = np.arange(k - 1, -1, -1) - np.diff(joined.indptr)
    missing = []
    for i in np.flatnonzero(unjoined)[:10]:
        row = joined.indices[joined.indptr[i]:joined.indptr[i + 1]]
        # at most row.size of these columns are joined, so the row's first
        # ten missing ones are among them
        others = np.arange(i + 1, min(k, i + 11 + row.size))
        missing += [(int(i), int(j)) for j in np.setdiff1d(others, row)[:10 - len(missing)]]
        if len(missing) == 10:
            break
    count = int(unjoined.sum())
    checks.append((
        "pairwise_adjacent", not count,
        "all pairs joined" if not count
        else f"missing edges between {count} pairs; first {len(missing)}: {missing}",
    ))
    return VerificationReport(all(ok for _, ok, _ in checks), checks)


def _first_ten(items: list) -> str:
    return f"{items[:10]} ({len(items)} in all)"


def certificate(outcome) -> dict:
    """The certificate of a solver outcome, ready for `json.dumps`."""
    if outcome.kind == "separator":
        return {"type": "separator", "vertices": outcome.separator.ids().tolist()}
    return {
        "type": "witness",
        "h": outcome.h,
        "branches": [b.tolist() for b in outcome.model.branches],
    }


def verify_certificate(g: Graph, payload) -> VerificationReport:
    """Check a decoded certificate against g; InputError when the payload
    is not an object with a known `type` and well-formed fields."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise InputError("certificate must be an object with a 'type' field")
    kind = payload["type"]
    if kind == "separator":
        ids = _json_ids(payload.get("vertices"), "separator certificate field 'vertices'", g.n)
        bits = np.zeros(g.n, dtype=bool)
        bits[ids] = True
        return verify_balanced(g, VertexMask(bits))
    if kind == "witness":
        model, h = witness_from_json(g.n, payload)
        return verify_witness(g, model, h)
    raise InputError(
        f"unknown certificate type: need 'separator' or 'witness', got a {type(kind).__name__}"
    )


def _json_ids(value, field: str, n: int) -> np.ndarray:
    """`value` as an int64 array of ids in 0..n-1; InputError naming `field`
    unless it is a list of such JSON integers.  Bools, floats and strings
    are not integers here, so no entry is truncated or coerced."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InputError(f"{field} must be a list of integers")
    try:
        ids = np.asarray(value, dtype=np.int64)
    except OverflowError:
        raise InputError(f"{field}: vertex id out of range 0..{n - 1}") from None
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise InputError(f"{field}: vertex id out of range 0..{n - 1}")
    return ids


def witness_from_json(n: int, payload) -> tuple:
    """Turn a decoded witness certificate {"h":int,"branches":[[...]],...}
    into (MinorModel, h); keys other than h and branches are ignored."""
    if not isinstance(payload, dict) or "h" not in payload or "branches" not in payload:
        raise InputError("malformed witness JSON: need an object with 'h' and 'branches'")
    h = payload["h"]
    if type(h) is not int:
        raise InputError(f"malformed witness JSON: 'h' must be an integer, got a {type(h).__name__}")
    if h < 3:
        raise InputError(f"malformed witness JSON: 'h' must be >= 3, got {h}")
    raw = payload["branches"]
    if not isinstance(raw, list):
        raise InputError("malformed witness JSON: 'branches' must be a list")
    branches = tuple(
        _sorted_unique(_json_ids(b, "malformed witness JSON: each entry of 'branches'", n))
        for b in raw
    )
    return MinorModel(n, branches), h


def check_invariants(st) -> VerificationReport:
    """The five properties asserted at every iteration start.

    `st` is a driver state: g, n, h, ell, model, x_set, live, branch_budget.
    """
    g: Graph = st.g
    n, h, ell = st.n, st.h, st.ell
    m: MinorModel = st.model
    live: VertexMask = st.live
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

    nbr_counts = [branch_neighbors(m, g, live, i).size for i in range(m.size)]
    dead = [i for i, nb in enumerate(nbr_counts) if nb == 0]
    checks.append((
        "every_branch_touches_live", not dead,
        "all touch" if not dead else f"branches without live neighbor: {dead}",
    ))

    budget = st.branch_budget
    bad4 = []
    for i, (ids, nb) in enumerate(zip(m.branches, nbr_counts)):
        if ids.size > budget and h * ell * nb > n:
            bad4.append((i, int(ids.size), int(nb)))
    checks.append((
        "branch_size_or_neighborhood", not bad4,
        f"budget {budget}, n/(h*ell) threshold {n}/{h * ell}"
        + ("" if not bad4 else f"; violations (idx,|V|,|N|): {bad4}"),
    ))

    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    touches = (~live.bits[src]) & live.bits[g.indices]
    outside = _sorted_unique(src[touches])
    covered = st.x_set.bits[outside] | member.bits[outside]
    checks.append((
        "live_boundary_covered", bool(covered.all()),
        "covered" if covered.all()
        else f"uncovered outside neighbors: {outside[~covered][:5].tolist()}",
    ))

    x_live = st.x_set.intersect(live)
    x_branch = st.x_set.intersect(member)
    _, sizes = connected_components(g, live)
    checks.append((
        "state_sane", x_live.size == 0 and x_branch.size == 0 and sizes.size <= 1,
        f"|X&live|={x_live.size}, |X&branches|={x_branch.size}, live components={sizes.size}",
    ))

    return VerificationReport(all(okc for _, okc, _ in checks), checks)

"""Certificates: the one module that writes, reads and checks both kinds.

Everything here recomputes components and neighborhoods from the graph
alone; nothing trusts driver-side caches.  A report is a flat list of
named checks so failures can be printed or serialized verbatim.  The
driver's per-iteration invariant check returns the same report, but lives
in `separator.py` beside the state it reads (`check_invariants`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InputError
from .graph import (Graph, VertexMask, _adjacency, _component_sizes, _connected_sets,
                    _sorted_unique)
from .minor_model import MinorModel

__all__ = ["VerificationReport", "certificate", "verify_certificate", "verify_balanced",
           "verify_witness", "witness_from_json"]


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    checks: list
    component_sizes: tuple = ()  # of g minus the separator, largest first

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [[name, passed, detail] for name, passed, detail in self.checks],
        }

    def failures(self) -> list:
        return [c for c in self.checks if not c[1]]


def verify_balanced(g: Graph, sep: VertexMask) -> VerificationReport:
    """Balanced iff every component of g minus sep has 3*size <= 2n."""
    sizes = _component_sizes(g, VertexMask.full(g.n).minus(sep))
    worst = int(sizes[0]) if sizes.size else 0
    ok = 3 * worst <= 2 * g.n
    checks = [(
        "balanced",
        ok,
        f"largest remaining component {worst} of n={g.n}; need 3*{worst} <= 2*{g.n}",
    )]
    return VerificationReport(ok, checks, component_sizes=tuple(sizes.tolist()))


def verify_witness(g: Graph, m: MinorModel, h: int) -> VerificationReport:
    """Structural checks (a)-(d) of a K_h model; branches may overlap or be
    empty here.

    Connectivity is one csgraph pass over every branch at once (see
    `_connected_sets`), and pairwise adjacency one sparse product over a
    branch-incidence matrix.  Its detail counts the pairs without an edge
    and lists the first ten in row order, i < j, so it stays short when
    there are millions; the overlap and connectivity details list their
    first ten offenders too.
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
    disconnected = np.flatnonzero(~_connected_sets(g, m.branches)).tolist()
    checks.append((
        "each_connected", not disconnected,
        "connected" if not disconnected
        else f"disconnected branches {_first_ten(disconnected)}",
    ))
    # entry (i, j) of inc @ adj @ inc.T counts the edges from branch i to
    # branch j; inc has a row per branch, so overlapping branches are fine
    k = m.size
    cols = np.concatenate([np.empty(0, dtype=np.int64), *m.branches], dtype=np.int64)
    inc = sparse.csr_matrix(
        (np.ones(cols.size), cols,
         np.cumsum([0] + [ids.size for ids in m.branches], dtype=np.int64)),
        shape=(k, g.n),
    )
    joined = sparse.triu(inc @ _adjacency(g) @ inc.T, 1, format="csr")
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
        "h": outcome.stats["h"],
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
        return verify_balanced(g, VertexMask.from_ids(g.n, ids))
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
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
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


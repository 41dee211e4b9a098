"""Independent certificate checking.

Everything here recomputes components and neighborhoods from the graph
alone; nothing trusts driver-side caches.  A report is a flat list of
named checks so failures can be printed or serialized verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, VertexMask, connected_components
from .minor_model import MinorModel, branch_neighbors, validate_clique_minor

__all__ = ["VerificationReport", "verify_balanced", "verify_witness", "check_invariants"]


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
    ok, checks = validate_clique_minor(m, g, h)
    return VerificationReport(ok, checks)


def check_invariants(st) -> VerificationReport:
    """The five properties asserted at every iteration start.

    `st` is a driver state: g, n, h, ell, model, x_set, live, branch_budget.
    """
    g: Graph = st.g
    n, h, ell = st.n, st.h, st.ell
    m: MinorModel = st.model
    live: VertexMask = st.live
    checks = []

    valid, sub = validate_clique_minor(m, g, h)
    structural = [c for c in sub if c[0] != "enough_branches"]
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
    outside = np.unique(src[touches])
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

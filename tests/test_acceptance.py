"""Acceptance gate: one test per shipped guarantee, one printed line each.

Lines go to the real stdout (bypassing capture) so a plain `pytest -v` run
shows the PASS/FAIL verdicts inline, with the measured constants that back
them.
"""

import math
import statistics
import time
from itertools import combinations

import pytest

from minorsep.cli import main as cli_main
from minorsep.decomp import ldd
from minorsep.errors import SelfVerificationError
from minorsep.graph import VertexMask, bfs_layers, build_graph, connected_components
from minorsep.instances import InstanceSpec, generate
from minorsep.rng import stream
from minorsep.separator import (
    BalancedSeparator,
    MinorWitness,
    balanced_separator,
    ceil_log2,
)
from minorsep.verify import verify_balanced, verify_witness

from helpers import brute_balanced, component_lists, deep_anchor, fallback_tree


@pytest.fixture()
def verdict(capsys):
    """Print one ACCEPTANCE line straight to the terminal, capture or not."""
    def _verdict(num, name, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})",
                  flush=True)
        return ok
    return _verdict


# -- shared fuzz corpus ---------------------------------------------------------

def corpus_specs():
    """(label, instance spec, h, ell, run seed, fast) for every corpus run."""
    specs = []
    for side in range(5, 41):
        for seed in (0, 1, 2, 3, 4):
            specs.append((f"grid{side}x{side}", InstanceSpec("grid", (side, side)),
                          5, None, seed, False))
    for n in (50, 100, 200, 400, 700, 1000, 1400, 2000):
        for h in (4, 5, 6, 7, 8):
            for gseed in (0, 1, 2, 3):
                specs.append((f"gnp{n}", InstanceSpec("gnp", (n, 3.0 / n), gseed),
                              h, None, gseed, False))
    for n in (10, 60, 120, 300, 600, 1000):
        for gseed in range(6):
            for h in (4, 6):
                specs.append((f"tree{n}", InstanceSpec("tree", (n,), gseed),
                              h, None, gseed, False))
    for hp, t in ((5, 1), (6, 1), (6, 2), (7, 1), (8, 2), (9, 1), (10, 3), (13, 1)):
        for h in (4, 5, 8):
            for ell in (1, 2):
                specs.append((f"subdiv{hp}_{t}", InstanceSpec("subdivided_clique", (hp, t)),
                              h, ell, 0, False))
    for n in (30, 100, 500):
        specs.append((f"cycle{n}", InstanceSpec("cycle", (n,)), 4, None, 0, False))
        specs.append((f"path{n}", InstanceSpec("path", (n,)), 4, None, 1, False))
        specs.append((f"star{n}", InstanceSpec("star", (n,)), 3, None, 0, False))
    for rc in ((5, 5), (8, 8), (12, 12)):
        specs.append((f"torus{rc[0]}x{rc[1]}", InstanceSpec("torus", rc), 5, None, 0, False))
    for side in range(5, 25):
        specs.append((f"grid{side}fast", InstanceSpec("grid", (side, side)),
                      5, None, 7, True))
    for n in (100, 400, 1000):
        specs.append((f"gnp{n}fast", InstanceSpec("gnp", (n, 3.0 / n), 1),
                      5, None, 1, True))
    return specs


def extra_graphs():
    """Hand-built instances that force the deep driver paths."""
    out = []
    for tail in (22, 24, 26):
        out.append((f"anchor_light{tail}", deep_anchor(68, tail), 5, 1))
    for tail in (30, 34, 38):
        out.append((f"anchor_heavy{tail}", deep_anchor(68, tail), 5, 1))
    out.append(("fallback_tree", fallback_tree(), 3, 1))
    return out


@pytest.fixture(scope="module")
def corpus():
    records = []
    t0 = time.perf_counter()
    for label, spec, h, ell, seed, fast in corpus_specs():
        g = generate(spec)
        rec = {"label": label, "n": g.n, "h": h, "error": None}
        try:
            out = balanced_separator(g, h, ell=ell, seed=seed, fast_center=fast, debug=True)
            rec["stats"] = out.stats
            rec["kind"] = out.kind
            if isinstance(out, BalancedSeparator):
                rec["size"] = out.separator.size
                rec["x_size"] = out.size_breakdown["x"]
                rec["reverified"] = verify_balanced(g, out.separator).ok
            else:
                rec["reverified"] = verify_witness(g, out.model, h).ok
        except SelfVerificationError as exc:  # pragma: no cover - should not happen
            rec["error"] = str(exc)
        records.append(rec)
    for label, g, h, ell in extra_graphs():
        rec = {"label": label, "n": g.n, "h": h, "error": None}
        try:
            out = balanced_separator(g, h, ell=ell, debug=True)
            rec["stats"] = out.stats
            rec["kind"] = out.kind
            if isinstance(out, BalancedSeparator):
                rec["size"] = out.separator.size
                rec["x_size"] = out.size_breakdown["x"]
                rec["reverified"] = verify_balanced(g, out.separator).ok
            else:
                rec["reverified"] = verify_witness(g, out.model, h).ok
        except SelfVerificationError as exc:  # pragma: no cover
            rec["error"] = str(exc)
        records.append(rec)
    return {"records": records, "elapsed": time.perf_counter() - t0}


def test_criterion_01_balance_soundness(corpus, verdict):
    recs = corpus["records"]
    seps = [r for r in recs if r["error"] is None and r["kind"] == "separator"]
    bad = [r["label"] for r in seps if not r["reverified"]]
    errors = [r["label"] for r in recs if r["error"]]
    ok = len(recs) >= 500 and not bad and not errors and corpus["elapsed"] < 120.0
    assert verdict(
        1, "balance-soundness", ok,
        f"{len(recs)} runs, {len(seps)} separators all balanced, "
        f"{len(errors)} errors, corpus took {corpus['elapsed']:.1f}s < 120s",
    )


def test_criterion_02_witness_soundness(corpus, verdict):
    # witnesses arising naturally in the corpus
    nat = [r for r in corpus["records"] if r["error"] is None and r["kind"] == "witness"]
    nat_bad = [r["label"] for r in nat if not r["reverified"]]
    # forced suite: parameters chosen so the growth loop completes h branches
    forced = []
    for h in range(3, 9):
        forced.append((InstanceSpec("complete", (3 * (h - 1),)), h, None))
    for h, hp, t, ell in ((3, 4, 1, 2), (4, 6, 1, 2), (5, 7, 2, 2),
                          (6, 9, 1, 1), (7, 11, 1, 1), (8, 13, 1, 1)):
        forced.append((InstanceSpec("subdivided_clique", (hp, t)), h, ell))
    failures = []
    for spec, h, ell in forced:
        g = generate(spec)
        out = balanced_separator(g, h, ell=ell, debug=True)
        if not isinstance(out, MinorWitness) or not verify_witness(g, out.model, h).ok:
            failures.append((spec.family, spec.params, h))
    ok = not failures and not nat_bad
    assert verdict(
        2, "witness-soundness", ok,
        f"forced suite {len(forced)}/{len(forced) - len(failures)} witnesses for h=3..8, "
        f"{len(nat)} corpus witnesses all verified" if ok else
        f"failures: forced={failures} corpus={nat_bad}",
    )


def test_criterion_03_iteration_invariants(corpus, verdict):
    recs = [r for r in corpus["records"] if r["error"] is None]
    mismatched = [r["label"] for r in recs
                  if r["stats"]["invariant_checks"] != r["stats"]["iterations"]]
    errors = [r["label"] for r in corpus["records"] if r["error"]]
    checks = sum(r["stats"]["invariant_checks"] for r in recs)
    ok = not mismatched and not errors
    assert verdict(
        3, "iteration-invariants", ok,
        f"{checks} iteration-start checks across {len(recs)} debug runs, 0 violations",
    )


def test_criterion_04_layer_cut_always_succeeds(corpus, verdict):
    recs = [r for r in corpus["records"] if r["error"] is None]
    triggers = sum(r["stats"]["step4_count"] for r in recs)
    errors = [r["label"] for r in corpus["records"] if r["error"]]
    # the driver verifies the cut layer inequality at cut time and raises on
    # failure, so zero errors means every triggered search succeeded
    ok = triggers >= 1 and not errors
    assert verdict(
        4, "layer-cut-lemma", ok,
        f"step-4 triggered {triggers} times, all cuts satisfied ell*|L| <= |deeper|",
    )


def test_criterion_05_charging_bound(corpus, verdict):
    recs = [r for r in corpus["records"] if r["error"] is None]
    worst = 0.0
    bad = []
    for r in recs:
        s = r["stats"]
        x = r.get("x_size", 0) if r["kind"] == "separator" else 0
        if s["ell"] * x > s["n"] or s["charged"] > s["n"]:
            bad.append(r["label"])
        if s["n"]:
            worst = max(worst, s["ell"] * x / s["n"])
    ok = not bad
    assert verdict(
        5, "charging-bound", ok,
        f"max ell*|X|/n = {worst:.3f} <= 1, charges never exceed n "
        f"(per-vertex once asserted at charge time)",
    )


def test_criterion_06_size_bound_constant(corpus, verdict):
    recs = [r for r in corpus["records"]
            if r["error"] is None and r["kind"] == "separator" and r["n"] > 0]
    cmax, arg = 0.0, ""
    for r in recs:
        s = r["stats"]
        bound = s["n"] / s["ell"] + s["ell"] * s["h"] ** 2 * ceil_log2(s["h"])
        c = r["size"] / bound
        if c > cmax:
            cmax, arg = c, r["label"]
    ok = cmax <= 32.0
    assert verdict(
        6, "size-bound-constant", ok,
        f"max C = {cmax:.2f} at {arg}, limit 32",
    )


def test_criterion_07_sqrt_scaling(verdict):
    t0 = time.perf_counter()
    medians = {}
    for side in (20, 50, 100):
        n = side * side
        ratios = []
        for trial in range(5):
            g = generate(InstanceSpec("grid", (side, side)))
            out = balanced_separator(g, 5, seed=trial)
            assert isinstance(out, BalancedSeparator)
            ratios.append(out.separator.size / math.sqrt(n))
        medians[n] = statistics.median(ratios)
    elapsed = time.perf_counter() - t0
    spread = max(medians.values()) / min(medians.values())
    ok = spread <= 4.0 and elapsed < 60.0
    assert verdict(
        7, "sqrt-scaling", ok,
        "medians size/sqrt(n) " +
        ", ".join(f"n={n}: {m:.2f}" for n, m in medians.items()) +
        f"; spread {spread:.2f} <= 4, took {elapsed:.1f}s",
    )


def test_criterion_08_decomposition_soundness(verdict):
    calls = []
    for n in (30, 60, 120, 250, 500, 1000, 2000):
        for delta in (6.0, 12.0, 24.0):
            for seed in (0, 1, 2):
                calls.append((InstanceSpec("cycle", (n,)), delta, seed))
    for side in (6, 10, 14, 18, 22, 26, 30):
        for delta in (6.0, 12.0, 18.0):
            for seed in (0, 1, 2):
                calls.append((InstanceSpec("grid", (side, side)), delta, seed))
    for n in (60, 120, 250, 400, 600):
        for delta in (6.0, 10.0, 16.0):
            for seed in (0, 1, 2, 4, 5):
                calls.append((InstanceSpec("gnp", (n, 3.0 / n), seed), delta, seed))
    assert len(calls) >= 200
    calls = calls[:200]

    diam_violations = 0
    norm = []
    for spec, delta, seed in calls:
        g = generate(spec)
        live = VertexMask.full(g.n)
        res = ldd(g, live, delta, stream(seed, "ldd"))
        rest = live.minus(res.boundary)
        for comp in component_lists(*connected_components(g, rest)):
            members = comp.tolist()
            for v in members:
                # all-pairs check via one BFS per member, in the host graph;
                # stopping at floor(delta) leaves farther members at -1
                dist = bfs_layers(g, live, v, radius=int(delta))
                if any(dist[w] < 0 or dist[w] > delta for w in members):
                    diam_violations += 1
                    break
        if g.n >= 2:
            norm.append(res.boundary.size * delta / (g.n * math.log(g.n)))
    c_mean = statistics.mean(norm)
    ok = diam_violations == 0 and c_mean <= 8.0
    assert verdict(
        8, "decomposition-soundness", ok,
        f"200 calls, weak diameter <= delta on every component, "
        f"mean |S|*delta/(n ln n) = {c_mean:.2f} <= 8 (max {max(norm):.2f})",
    )


@pytest.mark.slow
def test_criterion_09_small_instance_oracle(verdict):
    t0 = time.perf_counter()
    checked = 0
    failures = []
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            adj = [0] * n
            for u, v in edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            # connectivity by bitmask BFS
            reach, frontier = 1, 1
            while frontier:
                nxt = 0
                ff = frontier
                while ff:
                    u = (ff & -ff).bit_length() - 1
                    nxt |= adj[u]
                    ff &= ff - 1
                frontier = nxt & ~reach
                reach |= nxt
            if reach != (1 << n) - 1:
                continue
            checked += 1
            g = build_graph(n, edges)
            out = balanced_separator(g, 5, seed=0)
            assert isinstance(out, BalancedSeparator)
            ids = out.separator.ids().tolist()
            fast_ok = verify_balanced(g, out.separator).ok
            brute_ok, _ = brute_balanced(n, edges, ids)
            # smallest balanced separator by popcount-ordered subset scan
            best = None
            for k in range(n + 1):
                for sub in combinations(range(n), k):
                    if brute_balanced(n, edges, sub)[0]:
                        best = k
                        break
                if best is not None:
                    break
            if not (fast_ok and brute_ok and len(ids) >= best):
                failures.append((n, edges, ids, fast_ok, brute_ok, best))
    counts_ok = checked == 1 + 1 + 4 + 38 + 728 + 26704
    ok = not failures and counts_ok
    assert verdict(
        9, "small-instance-oracle", ok,
        f"{checked} labeled connected graphs n<=6, checker agreement and "
        f"size >= brute-force minimum on every run, took {time.perf_counter() - t0:.0f}s",
    )


def test_criterion_10_deterministic_reports(tmp_path, verdict):
    jobs = [
        (["separate", "--gen", "grid:20,20", "--h", "5"], "grid"),
        (["separate", "--gen", "gnp:200,0.015", "--h", "5", "--seed", "3", "--fast"], "gnp"),
        (["separate", "--gen", "complete:9", "--h", "4"], "witness"),
        (["separate", "--gen", "tree:300", "--h", "4", "--seed", "2", "--debug"], "tree"),
    ]
    mismatches = []
    for argv, tag in jobs:
        blobs = []
        for i in (0, 1):
            rep = tmp_path / f"{tag}{i}.json"
            cert = tmp_path / f"{tag}{i}.cert"
            code = cli_main(argv + ["--json", str(rep), "--certificate", str(cert)])
            assert code in (0, 10)
            blobs.append(rep.read_bytes() + b"||" + cert.read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(tag)
    ok = not mismatches
    assert verdict(
        10, "deterministic-reports", ok,
        f"{len(jobs)} input/flag combinations, reports and certificates "
        f"byte-identical across executions",
    )

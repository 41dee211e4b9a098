"""Smoke tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import minorsep  # noqa: E402
from minorsep import InstanceSpec, generate  # noqa: E402


def _edges(g):
    return checks.csr_edges(g.n, g.indptr, g.indices)


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(run.QUALITY_ROUNDS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs(workload, trace, tmp_path):
    result = run.measure(workload, seed=3, seconds=0.0, trace=trace, workdir=str(tmp_path),
                         tiny=True, min_ops=1, quiet=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_trace_attributes_time_to_layers(tmp_path):
    result = run.measure("sparse_large", seed=3, seconds=0.0, trace=True, workdir=str(tmp_path),
                         tiny=True, min_ops=1, quiet=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["decomp.ldd.calls"] >= 1
    assert 0 < m["decomp.ldd.boundary_frac"] <= 1
    assert m["decomp.ldd.self_ms"] < m["trace.op_ms"]
    # the wrappers are gone again
    assert minorsep.separator.ldd is minorsep.decomp.ldd
    assert not hasattr(minorsep.cli.main, "__wrapped__")


def test_same_seed_same_digests(tmp_path):
    def once(sub):
        d = tmp_path / sub
        d.mkdir()
        prep = workloads.setup_io(5, str(d), tiny=True)
        recs = run.run_untraced(prep, 0.0, 1, 2, run.Calibration())
        return prep.input_digest, run.outcome_digest(recs, 2)

    assert once("a") == once("b")
    a = workloads.setup_solver("small_mixed", 5, tiny=True)
    b = workloads.setup_solver("small_mixed", 5, tiny=True)
    c = workloads.setup_solver("small_mixed", 6, tiny=True)
    ra = run.run_untraced(a, 0.0, 1, 2, run.Calibration())
    rb = run.run_untraced(b, 0.0, 1, 2, run.Calibration())
    assert a.input_digest == b.input_digest != c.input_digest
    assert run.outcome_digest(ra, 2) == run.outcome_digest(rb, 2)


def test_checker_rejects_corrupted_separator():
    g = generate(InstanceSpec("grid", (9, 9)))
    out = minorsep.balanced_separator(g, 5, seed=1)
    assert out.kind == "separator"
    ids = out.separator.ids()
    assert checks.check_separator(_edges(g), ids) is None
    assert "above 2n/3" in checks.check_separator(_edges(g), ids[:1])
    assert "outside" in checks.check_separator(_edges(g), np.append(ids, g.n))
    assert "repeats" in checks.check_separator(_edges(g), np.append(ids, ids[0]))


def test_checker_rejects_corrupted_witness():
    g = generate(InstanceSpec("complete", (20,)))
    out = minorsep.balanced_separator(g, 5, seed=1)
    assert out.kind == "witness"
    branches = [b.copy() for b in out.model.branches]
    edges = _edges(g)
    assert checks.check_witness(edges, branches, 5) is None
    assert "needs 5" in checks.check_witness(edges, branches[:4], 5)
    assert "overlap" in checks.check_witness(edges, branches[:4] + [branches[0]], 5)

    # a path 0-1-2-3: {0, 2} is disconnected, {0} and {3} are not adjacent
    path = generate(InstanceSpec("path", (4,)))
    pe = _edges(path)
    assert "not connected" in checks.check_witness(pe, [[0, 2], [1]], 2)
    assert "adjacent" in checks.check_witness(pe, [[0], [3]], 2)
    assert checks.check_witness(pe, [[0, 1], [2, 3]], 2) is None


def test_checker_reads_the_edge_file_format(tmp_path):
    g = generate(InstanceSpec("grid", (4, 5)))
    path = tmp_path / "g.txt"
    minorsep.write_edge_list(g, str(path))
    n, src, dst = checks.read_edge_file(path)
    us, vs = g.edges()
    assert n == g.n and src.tolist() == us.tolist() and dst.tolist() == vs.tolist()


def test_self_time_is_duration_minus_children():
    S = spans.Span
    tree = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 4.0, 0, 0),    # overlaps a: [1, 4] counted once
        S("c", 8.0, 12.0, 0, 0),   # clipped to the parent's end
        S("a.x", 1.5, 2.5, 1, 0),  # grandchild: charged to a only
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 1.0, 2.0, 4.0, 1.0])
    table = spans.summarize(tree)
    assert table["root"] == {"calls": 1, "self_s": pytest.approx(5.0)}


def test_wrappers_nest_and_restore():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    ns = type(sys)("fake_pkg")
    child_calls = []

    def child():
        child_calls.append(1)

    def parent():
        ns.child()
        ns.child()

    ns.child, ns.parent = child, parent
    sys.modules["fake_pkg"] = ns
    try:
        patches = spans.install(tracer, {"child": ("fake_pkg", "child", None),
                                         "parent": ("fake_pkg", "parent", None)},
                                package="fake_pkg")
        ns.parent()
        patches.restore()
    finally:
        del sys.modules["fake_pkg"]
    assert ns.child is child and ns.parent is parent
    names = [s.name for s in tracer.spans]
    assert names == ["parent", "child", "child"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    # parent spans ticks 0..5, children 1..2 and 3..4
    assert spans.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tail_has_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90, 10)
    assert run.tail(list(range(21))) == (52, 10, 10)
    assert run.tail([3.0, 1.0]) == (100, 3.0, 0)

"""Outside-in benchmark of minorsep.

    python3 benchmark/run.py --workload sparse_large --seed 1 --seconds 20 --trace 0

Runs one workload in this process, single-threaded, as a closed loop with
one client, against the package source in ``src/`` next to this directory.
It prints one line per metric and, as the last line, a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run times the same
rounds once plain and once with span wrappers installed, and reports the
per-layer metrics of the traced rounds plus the tracing overhead.  The
span log of a traced run is written to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import spans as sp
from calibration import Calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Setups per run; setup_s is the median of their times plus the import.
SETUP_REPEATS = 3
# An untraced run always completes at least this many ops (so the tail
# percentile has ten samples beyond it) and this many rounds per workload;
# sep_ratio_p50 and the outcome digest cover exactly those first rounds, so
# they depend on the seed alone.
MIN_OPS = 20
QUALITY_ROUNDS = {"sparse_large": 4, "small_mixed": 4, "io_verify": 2}

END_TO_END = {
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "throughput_vps": "vertices/s",
    "sep_ratio_p50": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def tail(samples: list) -> tuple:
    """(percentile, value, samples beyond it) for the highest whole
    percentile, by nearest rank, with at least ten samples beyond it.
    Falls back to the maximum when there are ten samples or fewer."""
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 0, -1):
        rank = math.ceil(q * n / 100)
        if rank >= 1 and n - rank >= 10:
            return q, xs[rank - 1], n - rank
    return 100, xs[-1], 0


@dataclass(slots=True)
class Record:
    round: int
    label: str
    ms: float
    n: int
    outcome: object


def run_round(prep, r: int, records: list, cal: Calibration, tracer=None) -> None:
    """Run every op of round r once, appending one record per op and taking
    one calibration sample after each op."""
    from workloads import Outcome

    for op in prep.round_ops(r):
        if tracer is not None:
            tracer.op = len(records)
        t0 = time.perf_counter()
        try:
            result = op.run()
            ms = (time.perf_counter() - t0) * 1000.0
            outcome = op.check(result)
        except Exception as exc:  # the op failed: count it, keep measuring
            ms = (time.perf_counter() - t0) * 1000.0
            outcome = Outcome(("error",), None, f"{type(exc).__name__}: {exc}")
        records.append(Record(r, op.label, ms, op.n, outcome))
        cal.sample()


def run_untraced(prep, seconds: float, min_ops: int, min_rounds: int, cal: Calibration) -> list:
    """Whole rounds from round 0 until `seconds` have passed, at least
    `min_ops` ops ran and at least `min_rounds` rounds are done."""
    records: list = []
    start = time.perf_counter()
    r = 0
    while r < min_rounds or len(records) < min_ops or time.perf_counter() - start < seconds:
        run_round(prep, r, records, cal)
        r += 1
    return records


def run_traced(prep, seconds: float, tracer, cal: Calibration) -> tuple:
    """Each round twice, plain and with the span wrappers installed, until
    `seconds` have passed.  Pairing the rounds in time keeps drift out of
    the overhead figure, and alternating which of the two goes first keeps
    out the gain of repeating the same work."""
    targets = trace_targets()
    plain: list = []
    traced: list = []
    start = time.perf_counter()
    r = 0
    while r < 1 or time.perf_counter() - start < seconds:
        if r % 2 == 0:
            run_round(prep, r, plain, cal)
        patches = sp.install(tracer, targets)
        try:
            run_round(prep, r, traced, cal, tracer)
        finally:
            patches.restore()
        if r % 2 == 1:
            run_round(prep, r, plain, cal)
        r += 1
    return plain, traced


def throughput(records) -> float:
    return sum(r.n for r in records) / (sum(r.ms for r in records) / 1000.0)


def outcome_digest(records, rounds: int) -> str:
    h = hashlib.sha256()
    for rec in records:
        if rec.round < rounds:
            h.update(f"{rec.round}:{rec.label}:{rec.outcome.sig}\n".encode())
    return h.hexdigest()


def failures(records, reference: dict) -> list:
    """Ops whose check failed, or whose outcome differs from an earlier run
    of the same (round, label)."""
    bad = []
    for rec in records:
        key = (rec.round, rec.label)
        if rec.outcome.error:
            bad.append(f"round {rec.round} {rec.label}: {rec.outcome.error}")
        elif reference.setdefault(key, rec.outcome.sig) != rec.outcome.sig:
            bad.append(f"round {rec.round} {rec.label}: outcome {rec.outcome.sig} "
                       f"differs from {reference[key]} on an earlier run")
    return bad


def per_layer(span_list, counts: dict, ops: int, untraced_vps: float, traced_vps: float,
              traced_ms: float, scale: float) -> dict:
    """Per traced op; times and throughputs at reference speed."""
    table = sp.summarize(span_list)

    def calls(name):
        return table.get(name, {}).get("calls", 0) / ops

    def self_ms(name):
        return table.get(name, {}).get("self_s", 0.0) * 1000.0 * scale / ops

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    ball_calls = table.get("graph.ball", {}).get("calls", 0)
    m = {
        "decomp.ldd.calls": (calls("decomp.ldd"), "calls/op"),
        "decomp.ldd.self_ms": (self_ms("decomp.ldd"), "ms/op"),
        "decomp.ldd.live_vertices": (counts.get("ldd.live", 0.0) / ops, "vertices/op"),
        "decomp.ldd.boundary_frac": (ratio("ldd.boundary", "ldd.live"), "ratio"),
        "separator.balanced_separator.self_ms": (
            self_ms("separator.balanced_separator"), "ms/op"),
        "separator.iterations": (counts.get("iterations", 0.0) / ops, "iterations/op"),
        "separator.center_scan.accept_ratio": (
            counts.get("exact_center_used", 0.0) / ball_calls if ball_calls else 0.0, "ratio"),
        "instances.gnp.edges_per_draw": (ratio("gnp.edges", "gnp.draws"), "edges/draw"),
        "trace.op_ms": (traced_ms * scale / ops, "ms/op"),
        "trace.throughput_vps": (traced_vps / scale, "vertices/s"),
        "trace.untraced_throughput_vps": (untraced_vps / scale, "vertices/s"),
        "trace.overhead_frac": (untraced_vps / traced_vps - 1.0, "ratio"),
    }
    for name in ("graph.connected_components", "graph.bfs_layers", "graph.ball",
                 "minor_model.branch_neighbors"):
        m[name + ".calls"] = (calls(name), "calls/op")
        m[name + ".self_ms"] = (self_ms(name), "ms/op")
    for name in ("minor_model.add_branch", "minor_model.grow_branch", "minor_model.trim",
                 "minor_model.f_selector", "verify.verify_balanced", "verify.verify_witness",
                 "instances.generate", "instances.read_edge_list",
                 "instances.write_edge_list", "graph.build_graph", "cli.main"):
        m[name + ".self_ms"] = (self_ms(name), "ms/op")
    return m


def trace_targets() -> dict:
    """Span name -> (defining module, attribute, hook) for every name the
    solver loop and the CLI call across a module boundary."""

    def ldd_hook(counts, args, kwargs, res):
        counts["ldd.live"] += args[1].size
        counts["ldd.boundary"] += res.boundary.size

    def generate_hook(counts, args, kwargs, g):
        spec = args[0]
        if spec.family == "gnp":
            n = spec.params[0]
            counts["gnp.edges"] += g.m
            counts["gnp.draws"] += n * (n - 1) // 2

    def solve_hook(counts, args, kwargs, out):
        counts["iterations"] += out.stats["iterations"]
        counts["exact_center_used"] += out.stats["exact_center_used"]

    t = {"decomp.ldd": ("minorsep.decomp", "ldd", ldd_hook)}
    for attr in ("connected_components", "bfs_layers", "ball", "build_graph"):
        t["graph." + attr] = ("minorsep.graph", attr, None)
    for attr in ("add_branch", "grow_branch", "trim", "f_selector", "branch_neighbors"):
        t["minor_model." + attr] = ("minorsep.minor_model", attr, None)
    for attr in ("verify_balanced", "verify_witness"):
        t["verify." + attr] = ("minorsep.verify", attr, None)
    t["instances.generate"] = ("minorsep.instances", "generate", generate_hook)
    for attr in ("read_edge_list", "write_edge_list"):
        t["instances." + attr] = ("minorsep.instances", attr, None)
    t["separator.balanced_separator"] = ("minorsep.separator", "balanced_separator", solve_hook)
    t["cli.main"] = ("minorsep.cli", "main", None)
    return t


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
            tiny: bool = False, min_ops: int = MIN_OPS, quiet: bool = False) -> dict:
    """Set up, run and check one workload; returns the result object."""
    t0 = time.perf_counter()
    import minorsep
    import workloads  # its import cost belongs to set-up
    import_s = time.perf_counter() - t0
    if Path(minorsep.__file__).resolve().parent != SRC / "minorsep":
        raise RuntimeError(f"imported minorsep from {minorsep.__file__}, not from {SRC}")

    cal = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        prep = (workloads.setup_io(seed, workdir, tiny=tiny) if workload == "io_verify"
                else workloads.setup_solver(workload, seed, tiny=tiny))
        setup_times.append(time.perf_counter() - t0)
        cal.sample()
    setup_s = import_s + statistics.median(setup_times)

    quality = QUALITY_ROUNDS[workload]
    reference: dict = {}
    say = (lambda *a: None) if quiet else print
    if not trace:
        records = run_untraced(prep, seconds, min_ops, quality, cal)
        bad = failures(records, reference)
        times = [r.ms for r in records]
        q, tail_ms, beyond = tail(times)
        ratios = [r.outcome.ratio for r in records
                  if r.round < quality and r.outcome.ratio is not None]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = cal.scale()
        wall = {
            "op_ms_p50": statistics.median(times),
            "op_ms_tail": tail_ms,
            "throughput_vps": throughput(records),
            "setup_s": setup_s,
        }
        metrics = {
            "op_ms_p50": wall["op_ms_p50"] * scale,
            "op_ms_tail": tail_ms * scale,
            "throughput_vps": wall["throughput_vps"] / scale,
            "sep_ratio_p50": statistics.median(ratios) if ratios else 0.0,
            "setup_s": setup_s * scale,
            "peak_rss_mb": rss_mb,
        }
        say(f"workload={workload} seed={seed} ops={len(records)} "
            f"rounds={records[-1].round + 1} quality_rounds={quality}")
        say(f"host speed: kernel {statistics.fmean(cal.samples) * 1000:.3f} ms mean over "
            f"{len(cal.samples)} samples, scale to reference speed {scale:.4f}")
        for name, unit in END_TO_END.items():
            extra = f"  (wall {wall[name]:.6g} {unit})" if name in wall else ""
            if name == "op_ms_tail":
                extra += f"  (p{q}, {beyond} samples beyond, {len(times)} ops)"
            say(f"{name} = {metrics[name]:.6g} {unit}{extra}")
        say(f"fail_frac = {len(bad) / len(records):.6g} ({len(bad)} of {len(records)} ops)")
        say(f"input_digest = {prep.input_digest}")
        say(f"outcome_digest = {outcome_digest(records, quality)}")
        out = {name: {"value": v, "unit": END_TO_END[name]} for name, v in metrics.items()}
    else:
        tracer = sp.Tracer()
        plain, traced = run_traced(prep, seconds, tracer, cal)
        rounds = traced[-1].round + 1
        records = plain + traced
        bad = failures(plain, reference) + failures(traced, reference)
        OUT.mkdir(exist_ok=True)
        sp.write_jsonl(tracer.spans, OUT / f"trace_{workload}.jsonl")
        layer = per_layer(tracer.spans, tracer.counts, len(traced), throughput(plain),
                          throughput(traced), sum(r.ms for r in traced), cal.scale())
        say(f"workload={workload} seed={seed} traced_ops={len(traced)} rounds={rounds} "
            f"spans={len(tracer.spans)} -> {OUT / f'trace_{workload}.jsonl'}")
        for name, (value, unit) in layer.items():
            say(f"{name} = {value:.6g} {unit}")
        out = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    for line in bad[:20]:
        print("FAILED " + line, file=sys.stderr)
    return {"correct": not bad, "attempted": len(records), "failed": len(bad), "metrics": out}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(QUALITY_ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "minorsep" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}/minorsep", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="io-") as workdir:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())

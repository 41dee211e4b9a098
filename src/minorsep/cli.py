"""Command-line surface.

Subcommands: separate, verify, gen, bench.  Exit codes: 0 balanced
separator (or valid certificate), 10 minor witness, 1 invalid certificate,
2 input error or out of memory, 3 self-verification failure.  JSON reports
are canonical (sorted keys, no whitespace, schema "v1") and contain no
timing, so a fixed (input, h, ell, seed, flags) tuple reproduces them byte
for byte; wall-clock time goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import time

from .errors import InputError, ModelError, SelfVerificationError
from .graph import Graph, VertexMask
from .instances import (
    FAMILIES,
    InstanceSpec,
    generate,
    graph_to_text,
    read_edge_list,
    write_edge_list,
)
from .minor_model import _json_ids, witness_from_json
from .rng import derive_seed
from .separator import (
    BalancedSeparator,
    MinorWitness,
    balanced_separator,
    ceil_log2,
)
from .verify import verify_balanced, verify_witness

__all__ = ["main"]

EXIT_SEPARATOR = 0
EXIT_CERT_INVALID = 1
EXIT_INPUT = 2
EXIT_SELF_VERIFY = 3
EXIT_WITNESS = 10


def _parse_params(text: str) -> tuple:
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            vals.append(int(tok))
        except ValueError:
            try:
                vals.append(float(tok))
            except ValueError:
                raise InputError(f"bad parameter {tok!r}") from None
    return tuple(vals)


def _parse_gen_spec(text: str, seed: int) -> InstanceSpec:
    """Compact form family:p1,p2 e.g. grid:30,30 or gnp:200,0.015."""
    family, _, rest = text.partition(":")
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}; know {sorted(FAMILIES)}")
    return InstanceSpec(family, _parse_params(rest), seed)


def _load_graph(args) -> tuple:
    """Returns (graph, description) from --input or --gen."""
    if getattr(args, "input", None):
        g = read_edge_list(args.input)
        return g, args.input
    spec = _parse_gen_spec(args.gen, getattr(args, "seed", 0))
    return generate(spec), args.gen


def _digest(g: Graph) -> str:
    return hashlib.sha256(graph_to_text(g).encode()).hexdigest()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _report(g: Graph, source: str, args, outcome) -> dict:
    ell = outcome.stats["ell"]
    outcome_body = _certificate(outcome)
    outcome_body["kind"] = outcome_body.pop("type")
    if isinstance(outcome, BalancedSeparator):
        outcome_body.update({
            "separator_size": outcome.separator.size,
            "size_breakdown": outcome.size_breakdown,
            "largest_component": outcome.verification.worst_component,
            "component_count": len(outcome.component_sizes),
        })
    return {
        "schema": "v1",
        "input": {"digest": _digest(g), "n": g.n, "m": g.m, "source": source},
        "params": {
            "h": args.h,
            "ell": ell,
            "delta": ell * ceil_log2(args.h),
            "seed": args.seed,
            "fast": bool(args.fast),
        },
        "stats": outcome.stats,
        "verification": outcome.verification.to_dict(),
        "outcome": outcome_body,
    }


def _certificate(outcome) -> dict:
    if isinstance(outcome, BalancedSeparator):
        return {"type": "separator", "vertices": outcome.separator.ids().tolist()}
    return {
        "type": "witness",
        "h": outcome.h,
        "branches": [b.tolist() for b in outcome.model.branches],
    }


def cmd_separate(args) -> int:
    g, source = _load_graph(args)
    t0 = time.perf_counter()
    outcome = balanced_separator(
        g,
        args.h,
        ell=args.ell,
        seed=args.seed,
        fast_center=args.fast,
        debug=args.debug,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    print(f"wall_ms={wall_ms:.1f}", file=sys.stderr)

    report = _report(g, source, args, outcome)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(_canonical_json(report))
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(_canonical_json(_certificate(outcome)))

    if isinstance(outcome, BalancedSeparator):
        print(
            f"separator of size {outcome.separator.size} on n={g.n} "
            f"(largest remaining component {outcome.verification.worst_component}, "
            f"breakdown {outcome.size_breakdown}, "
            f"fallback_level {outcome.stats['fallback_level']})"
        )
        return EXIT_SEPARATOR
    print(
        f"graph is not K_{args.h}-minor-free: witness with "
        f"{outcome.model.size} branches"
    )
    return EXIT_WITNESS


def cmd_verify(args) -> int:
    g = read_edge_list(args.input)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"certificate is not JSON: {exc}") from None
    if not isinstance(payload, dict) or "type" not in payload:
        raise InputError("certificate must be an object with a 'type' field")

    if payload["type"] == "separator":
        ids = _json_ids(payload.get("vertices"), "separator certificate field 'vertices'")
        sep = VertexMask.from_ids(g.n, ids)
        report = verify_balanced(g, sep)
    elif payload["type"] == "witness":
        model, h = witness_from_json(g.n, payload)
        report = verify_witness(g, model, h)
    else:
        raise InputError(f"unknown certificate type {payload['type']!r}")

    for name, passed, detail in report.checks:
        print(f"{'ok' if passed else 'FAIL'} {name}: {detail}")
    if report.ok:
        print("certificate valid")
        return EXIT_SEPARATOR
    print("certificate INVALID")
    return EXIT_CERT_INVALID


def cmd_gen(args) -> int:
    spec = InstanceSpec(args.family, _parse_params(args.params), args.seed)
    g = generate(spec)
    write_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def _bench_spec(family: str, n: int, seed: int) -> InstanceSpec:
    if family in ("grid", "torus"):
        side = math.isqrt(n)
        if side * side != n:
            raise InputError(f"{family} bench sizes must be perfect squares, got {n}")
        return InstanceSpec(family, (side, side), seed)
    if family == "gnp":
        return InstanceSpec(family, (n, 3.0 / n), seed)
    if family in ("path", "cycle", "tree", "complete"):
        return InstanceSpec(family, (n,), seed)
    if family == "star":
        return InstanceSpec(family, (n - 1,), seed)
    raise InputError(f"family {family!r} not supported by bench")


def cmd_bench(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    rows = []
    for n in sizes:
        for trial in range(args.trials):
            run_seed = derive_seed(args.seed, f"bench:{n}:{trial}")
            g = generate(_bench_spec(args.family, n, run_seed))
            t0 = time.perf_counter()
            outcome = balanced_separator(g, args.h, ell=args.ell, seed=run_seed)
            ms = (time.perf_counter() - t0) * 1000.0
            if isinstance(outcome, BalancedSeparator):
                size = outcome.separator.size
                ratio = size / math.sqrt(n)
            else:
                size, ratio = -1, -1.0
            rows.append((n, trial, run_seed, size, ratio, outcome.stats["iterations"], ms))
            print(
                f"n={n} trial={trial} size={size} ratio={ratio:.3f} "
                f"iters={outcome.stats['iterations']} ms={ms:.1f}"
            )
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("n,trial,seed,separator_size,ratio,iterations,ms\n")
            for n, trial, run_seed, size, ratio, iters, ms in rows:
                fh.write(f"{n},{trial},{run_seed},{size},{ratio:.3f},{iters},{ms:.1f}\n")
    print("summary (ratio = separator_size/sqrt(n)):")
    for n in sizes:
        ratios = [r[4] for r in rows if r[0] == n and r[4] >= 0]
        if ratios:
            print(
                f"  n={n}: min={min(ratios):.3f} "
                f"median={statistics.median(ratios):.3f} max={max(ratios):.3f}"
            )
        else:
            print(f"  n={n}: all trials returned witnesses")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="minorsep",
        description="Balanced vertex separators for minor-free graphs, "
        "with K_h minor witnesses when the promise fails.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="compute a balanced separator or witness")
    src = sep.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file")
    src.add_argument("--gen", help="instance spec, e.g. grid:30,30 or gnp:200,0.015")
    sep.add_argument("--h", type=int, required=True, help="minor parameter h >= 3")
    sep.add_argument("--ell", type=int, default=None, help="tradeoff parameter (default: balanced)")
    sep.add_argument("--seed", type=int, default=0)
    sep.add_argument("--fast", action="store_true", help="sampled centers after the first iteration")
    sep.add_argument("--json", help="write the run report here")
    sep.add_argument("--certificate", help="write a standalone certificate here")
    sep.add_argument("--debug", action="store_true", help="assert invariants every iteration")
    sep.set_defaults(fn=cmd_separate)

    ver = sub.add_parser("verify", help="check a separator or witness certificate")
    ver.add_argument("--input", required=True, help="edge-list file")
    ver.add_argument("--certificate", required=True, help="certificate JSON")
    ver.set_defaults(fn=cmd_verify)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--params", required=True, help="comma-separated, e.g. 10,10")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=cmd_gen)

    ben = sub.add_parser("bench", help="scaling benchmark over instance sizes")
    ben.add_argument("--family", default="grid")
    ben.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    ben.add_argument("--h", type=int, required=True)
    ben.add_argument("--ell", type=int, default=None)
    ben.add_argument("--trials", type=int, default=5)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--csv", help="write per-run rows here")
    ben.set_defaults(fn=cmd_bench)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ModelError, FileNotFoundError, IsADirectoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SelfVerificationError as exc:
        print(f"self-verification failure: {exc}", file=sys.stderr)
        return EXIT_SELF_VERIFY
    except MemoryError:
        print("error: out of memory; the input or the parameters are too large "
              "for this machine", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

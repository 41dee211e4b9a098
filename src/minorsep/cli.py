"""Command-line surface.

Subcommands: separate, verify, gen, bench.  Exit codes: 0 balanced
separator (or valid certificate), 10 minor witness, 1 invalid certificate,
2 input error or out of memory, 3 self-verification failure (including a
model operation the driver got wrong).  JSON reports are canonical (sorted
keys, no whitespace, schema "v2") and contain no timing, so a fixed (input,
h, ell, seed, flags) tuple reproduces them byte for byte; wall-clock time
goes to stderr.  A report is the solver's `stats`, which hold the run's
parameters and counters, plus what the solver cannot know: the input's
digest and source, the verification checks and the outcome.
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
from .graph import Graph
from .instances import (
    FAMILIES,
    InstanceSpec,
    _read_text,
    bench_spec,
    canonical_edges,
    edge_list_chunks,
    generate,
    read_edge_list,
    write_edges,
)
from .rng import derive_seed
from .separator import balanced_separator
from .verify import certificate, verify_certificate

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


def _load_graph(args) -> tuple:
    """Returns (graph, description) from --input or --gen."""
    if args.input:
        return read_edge_list(args.input), args.input
    family, _, params = args.gen.partition(":")
    return generate(InstanceSpec(family, _parse_params(params), args.seed)), args.gen


def _digest(g: Graph) -> str:
    digest = hashlib.sha256()
    for chunk in edge_list_chunks(g):
        digest.update(chunk)
    return digest.hexdigest()


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _report(g: Graph, source: str, outcome, cert: dict) -> dict:
    outcome_body = dict(cert)
    outcome_body["kind"] = outcome_body.pop("type")
    if outcome.kind == "separator":
        sizes = outcome.verification.component_sizes
        outcome_body.update({
            "separator_size": outcome.separator.size,
            "size_breakdown": outcome.size_breakdown,
            "largest_component": sizes[0] if sizes else 0,
            "component_count": len(sizes),
        })
    return {
        "schema": "v2",
        "input": {"digest": _digest(g), "source": source},
        "stats": outcome.stats,
        "verification": outcome.verification.to_dict(),
        "outcome": outcome_body,
    }


def cmd_separate(args) -> int:
    g, source = _load_graph(args)
    t0 = time.perf_counter()
    outcome = balanced_separator(
        g,
        args.h,
        ell=args.ell,
        seed=args.seed,
        debug=args.debug,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    print(f"wall_ms={wall_ms:.1f}", file=sys.stderr)

    cert = certificate(outcome) if args.json or args.certificate else None
    # newline="\n": canonical bytes end lines in LF on every platform
    if args.json:
        with open(args.json, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_canonical_json(_report(g, source, outcome, cert)))
    if args.certificate:
        with open(args.certificate, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_canonical_json(cert))

    if outcome.kind == "separator":
        sizes = outcome.verification.component_sizes
        print(
            f"separator of size {outcome.separator.size} on n={g.n} "
            f"(largest remaining component {sizes[0] if sizes else 0}, "
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
    text = _read_text(args.certificate)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's
        # digit limit; RecursionError, arrays nested too deep to decode
        raise InputError(f"certificate is not decodable JSON: {exc}") from None
    report = verify_certificate(g, payload)
    for name, passed, detail in report.checks:
        print(f"{'ok' if passed else 'FAIL'} {name}: {detail}")
    if report.ok:
        print("certificate valid")
        return EXIT_SEPARATOR
    print("certificate INVALID")
    return EXIT_CERT_INVALID


def cmd_gen(args) -> int:
    # the family's canonical edges go straight to text, with no Graph
    n, us, vs = canonical_edges(InstanceSpec(args.family, _parse_params(args.params), args.seed))
    write_edges(n, us, vs, args.out)
    print(f"wrote {args.out}: n={n} m={us.size}")
    return 0


def cmd_bench(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not sizes or min(sizes) < 1:
        raise InputError(f"--sizes must list positive vertex counts, got {args.sizes!r}")
    rows = []
    for n in sizes:
        for trial in range(args.trials):
            run_seed = derive_seed(args.seed, f"bench:{n}:{trial}")
            g = generate(bench_spec(args.family, n, run_seed))
            t0 = time.perf_counter()
            outcome = balanced_separator(g, args.h, ell=args.ell, seed=run_seed)
            ms = (time.perf_counter() - t0) * 1000.0
            if outcome.kind == "separator":
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
    src.add_argument("--gen", help="instance spec FAMILY:P1,P2,..., as for gen")
    sep.add_argument("--h", type=int, required=True, help="minor parameter h >= 3")
    sep.add_argument("--ell", type=int, default=None, help="tradeoff parameter (default: balanced)")
    sep.add_argument("--seed", type=int, default=0)
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
    ben.add_argument("--family", default=next(iter(FAMILIES)))
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SelfVerificationError, ModelError) as exc:
        # certificate parsing raises InputError, so a ModelError is a driver bug
        print(f"self-verification failure: {exc}", file=sys.stderr)
        return EXIT_SELF_VERIFY
    except MemoryError:
        print("error: out of memory; the input or the parameters are too large "
              "for this machine", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

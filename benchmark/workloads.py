"""The three workloads: their inputs, set-up, op schedule and op checks.

Every op is a call to a public entry point of ``minorsep``, looked up on
its module at call time so that the traced run's wrappers apply.  Inputs
and per-op seeds come from the workload seed through ``derive`` (this
file's own hash), never from ``minorsep.rng``.  Ops run in rounds: each
round holds every op of the workload once, in an order shuffled from the
seed, and round r of a given seed is always the same work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import minorsep
from minorsep import cli, separator

import checks


def derive(seed: int, label: str) -> int:
    """63-bit seed for `label` under the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class Outcome:
    sig: tuple          # kind, size and iterations: what the outcome digest hashes
    ratio: float | None  # |S|/sqrt(n) for a separator outcome
    error: str | None   # why the output is wrong, None when it checks out


@dataclass
class Op:
    label: str
    n: int                            # input vertices, for throughput
    run: Callable[[], object]         # the timed call
    check: Callable[[object], Outcome]


@dataclass
class Prepared:
    """What one set-up leaves behind: the op schedule and the input digest."""

    round_ops: Callable[[int], list]
    input_digest: str


# label, family, params, h.  sparse_large: natural minor-free inputs of
# n ~ 1e5 where one LDD dominates; small_mixed: n <= 512, where the exact
# center scan runs, half promise-violating (witnesses), half sparse.
SOLVER_INSTANCES = {
    "sparse_large": [
        ("grid316", "grid", (316, 316), 5),
        ("torus316", "torus", (316, 316), 5),
        ("cycle100000", "cycle", (100000,), 5),
    ],
    "small_mixed": [
        ("gnp450_h8", "gnp", (450, 0.045), 8),
        ("gnp450_h10", "gnp", (450, 0.045), 10),
        ("gnp450_h12", "gnp", (450, 0.045), 12),
        ("complete150_h15", "complete", (150,), 15),
        ("grid22", "grid", (22, 22), 5),
        ("cycle500", "cycle", (500,), 5),
        ("path500", "path", (500,), 5),
    ],
}

# io_verify.  GEN: files written by `gen` ops (the 1e5 ones and the
# gnp case whose generator draws one uniform per vertex pair).  SEPARATE:
# files whose certificates `verify` ops check, with the h used to make them;
# the dense ones yield witness certificates.
IO_GEN = [
    ("grid316", "grid", "316,316"),
    ("cycle100000", "cycle", "100000"),
    ("tree100000", "tree", "100000"),
    ("gnp5000", "gnp", "5000,0.0006"),
]
IO_DENSE = [
    ("gnp450", "gnp", "450,0.045"),
    ("complete150", "complete", "150"),
]
IO_SEPARATE = [("grid316", 5), ("cycle100000", 5), ("tree100000", 5)]
IO_WITNESS = [("gnp450", 8), ("complete150", 15)]

# Small stand-ins with the same structure, for the smoke tests.
TINY_SOLVER = {
    "sparse_large": [
        ("grid", "grid", (12, 12), 5),
        ("torus", "torus", (10, 10), 5),
        ("cycle", "cycle", (150,), 5),
    ],
    "small_mixed": [
        ("gnp_h5", "gnp", (40, 0.3), 5),
        ("complete_h5", "complete", (20,), 5),
        ("grid", "grid", (6, 6), 5),
        ("path", "path", (40,), 5),
    ],
}
TINY_IO = {
    "gen": [("grid", "grid", "12,12"), ("tree", "tree", "150"), ("gnp", "gnp", "200,0.015")],
    "dense": [("complete", "complete", "20")],
    "separate": [("grid", 5), ("tree", 5)],
    "witness": [("complete", 5)],
}

def graph_digest(g) -> str:
    h = hashlib.sha256()
    h.update(str(g.n).encode())
    h.update(g.indptr.tobytes())
    h.update(g.indices.tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_solver(edges: tuple, h: int, out) -> Outcome:
    iters = out.stats["iterations"]
    if out.kind == "separator":
        ids = out.separator.ids()
        return Outcome(("separator", int(ids.size), iters), ids.size / math.sqrt(edges[0]),
                       checks.check_separator(edges, ids))
    if out.kind == "witness":
        branches = out.model.branches
        return Outcome(("witness", len(branches), iters), None,
                       checks.check_witness(edges, branches, h))
    return Outcome(("unknown",), None, f"unknown outcome kind {out.kind!r}")


def _solver_op(label: str, g, h: int, edges: tuple, op_seed: int) -> Op:
    return Op(
        label=label,
        n=g.n,
        run=lambda: separator.balanced_separator(g, h, seed=op_seed),
        check=lambda out: _check_solver(edges, h, out),
    )


def setup_solver(workload: str, seed: int, tiny: bool = False) -> Prepared:
    specs = (TINY_SOLVER if tiny else SOLVER_INSTANCES)[workload]
    insts = []
    digest = hashlib.sha256()
    for label, family, params, h in specs:
        g = minorsep.generate(minorsep.InstanceSpec(family, params, derive(seed, "gen:" + label)))
        insts.append((label, g, h, checks.csr_edges(g.n, g.indptr, g.indices)))
        digest.update(f"{label}:{h}:{graph_digest(g)}\n".encode())

    def round_ops(r: int) -> list:
        order = list(insts)
        random.Random(derive(seed, f"order:{r}")).shuffle(order)
        return [_solver_op(label, g, h, edges, derive(seed, f"op:{label}:{r}"))
                for label, g, h, edges in order]

    warm = round_ops(-1)[0]
    outcome = warm.check(warm.run())
    if outcome.error:
        raise RuntimeError(f"warm-up op {warm.label}: {outcome.error}")
    return Prepared(round_ops, digest.hexdigest())


def _cli(argv: list) -> int:
    """Run the CLI in-process with its console output captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _gen_argv(family: str, params: str, seed: int, out: str) -> list:
    return ["gen", "--family", family, "--params", params, "--seed", str(seed), "--out", out]


def setup_io(seed: int, workdir: str, tiny: bool = False) -> Prepared:
    """Write the instance files and their certificates into `workdir`."""
    spec = TINY_IO if tiny else {
        "gen": IO_GEN, "dense": IO_DENSE, "separate": IO_SEPARATE, "witness": IO_WITNESS,
    }
    digest = hashlib.sha256()
    files, expected, sizes = {}, {}, {}
    for label, family, params in spec["gen"] + spec["dense"]:
        path = os.path.join(workdir, f"{label}.txt")
        code = _cli(_gen_argv(family, params, derive(seed, "gen:" + label), path))
        if code != 0:
            raise RuntimeError(f"set-up gen {label} exited {code}")
        files[label] = path
        expected[label] = file_digest(path)
        with open(path, "rb") as fh:
            sizes[label] = int(fh.readline().split()[1])
        digest.update(f"{label}:{expected[label]}\n".encode())

    def certify(label: str, h: int) -> tuple:
        cert = os.path.join(workdir, f"{label}.h{h}.cert.json")
        code = _cli(["separate", "--input", files[label], "--h", str(h),
                     "--seed", str(derive(seed, "separate:" + label)), "--certificate", cert])
        if code not in (0, 10):
            raise RuntimeError(f"set-up separate {label} exited {code}")
        with open(cert, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        kind = payload.get("type")
        if (code, kind) not in ((0, "separator"), (10, "witness")):
            raise RuntimeError(f"set-up separate {label} exited {code} with a {kind} certificate")
        edges = checks.read_edge_file(files[label])
        if kind == "separator":
            err = checks.check_separator(edges, payload["vertices"])
            ratio = len(payload["vertices"]) / math.sqrt(edges[0])
        else:
            err = checks.check_witness(edges, payload["branches"], payload["h"])
            ratio = None
        if err:
            raise RuntimeError(f"set-up certificate {label}: {err}")
        digest.update(f"{label}.h{h}:{file_digest(cert)}\n".encode())
        return f"{label}.h{h}", files[label], cert, sizes[label], kind, ratio

    sparse_certs = [certify(label, h) for label, h in spec["separate"]]
    dense_certs = [certify(label, h) for label, h in spec["witness"]]

    gen_out = os.path.join(workdir, "gen_out.txt")

    def gen_op(label: str, family: str, params: str) -> Op:
        def check(code):
            if code != 0:
                return Outcome(("gen", label, code), None, f"gen exited {code}")
            got = file_digest(gen_out)
            err = None if got == expected[label] else "gen wrote different bytes than set-up"
            return Outcome(("gen", label, code, got[:16]), None, err)

        argv = _gen_argv(family, params, derive(seed, "gen:" + label), gen_out)
        return Op(label=f"gen:{label}", n=sizes[label], run=lambda: _cli(argv), check=check)

    def verify_op(label, path, cert, n, kind, ratio) -> Op:
        def check(code):
            err = None if code == 0 else f"verify exited {code}"
            return Outcome(("verify", label, kind, code), ratio, err)

        argv = ["verify", "--input", path, "--certificate", cert]
        return Op(label=f"verify:{label}", n=n, run=lambda: _cli(argv), check=check)

    def round_ops(r: int) -> list:
        rng = random.Random(derive(seed, f"order:{r}"))
        gens = [gen_op(*g) for g in spec["gen"]]
        # the dense files' certificates take turns, one per round, so that
        # a round pairs each gen op with one verify op
        picked = sparse_certs + [dense_certs[r % len(dense_certs)]]
        verifies = [verify_op(*c) for c in picked]
        rng.shuffle(gens)
        rng.shuffle(verifies)
        ops = []
        for i in range(max(len(gens), len(verifies))):
            ops += gens[i:i + 1] + verifies[i:i + 1]
        return ops

    warm = verify_op(*sparse_certs[0])
    outcome = warm.check(warm.run())
    if outcome.error:
        raise RuntimeError(f"warm-up op {warm.label}: {outcome.error}")
    return Prepared(round_ops, digest.hexdigest())

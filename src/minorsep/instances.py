"""Instance families and the plain-text edge-list format.

The text format is one header line ``p <n> <m>`` followed by m lines
``u v`` with 0-indexed endpoints; ``#`` starts a comment (whole-line or
trailing) and blank lines are ignored.  Writing is canonical: edges are
emitted with u < v in lexicographic order, so equal graphs serialize to
identical bytes.

Seeded families (gnp, tree) draw from a SplitMix64 sub-stream named after
the family; all other families ignore the seed.  gnp iterates the vertex
pairs (0,1), (0,2), ..., (n-2,n-1) in lexicographic order against the
stream, one uniform per pair, which pins the exact edge set for a seed.
It evaluates that stream in chunks of whole rows (pairs with the same
first vertex) of about GNP_CHUNK draws.  Output k of a SplitMix64 stream
is a function of k alone, so the chunks draw exactly the uniforms of the
sequential walk and the edge set per seed is unchanged; memory is
O(chunk + m).  tree takes its n - 1 draws as one block, with the same
product and truncation as `SplitMix64.next_below`.

Every family but subdivided_clique (which is small) builds its edges as
numpy arrays.  The reader parses the lines after the header in one call to
numpy's C parser and checks ids, self-loops and the edge count on the
array.  A file that fails any of that goes through a line loop, which only
reports: it raises the first bad line's error with its 1-based line
number, or accepts tokens that Python's ``int`` reads and the C parser
does not, such as ``1_0`` or non-ASCII digits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph, build_graph
from .rng import stream

__all__ = [
    "InstanceSpec",
    "FAMILIES",
    "generate",
    "read_edge_list",
    "write_edge_list",
    "graph_to_text",
]


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    params: tuple = ()
    seed: int = 0


def _grid_edges(rows: int, cols: int, wrap: bool) -> np.ndarray:
    v = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    if wrap:
        ends = [(v, np.roll(v, -1, axis=1)), (v, np.roll(v, -1, axis=0))]
    else:
        ends = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:])]
    return np.concatenate([np.column_stack([a.ravel(), b.ravel()]) for a, b in ends])


def _gen_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise InputError("grid needs rows, cols >= 1")
    return build_graph(rows * cols, _grid_edges(rows, cols, wrap=False))


def _gen_torus(rows: int, cols: int) -> Graph:
    # wraparound on a side of length < 3 collapses to parallel edges
    if rows < 3 or cols < 3:
        raise InputError("torus needs rows, cols >= 3")
    return build_graph(rows * cols, _grid_edges(rows, cols, wrap=True))


def _gen_path(n: int) -> Graph:
    if n < 1:
        raise InputError("path needs n >= 1")
    v = np.arange(n, dtype=np.int64)
    return build_graph(n, np.column_stack([v[:-1], v[1:]]))


def _gen_cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs n >= 3")
    v = np.arange(n, dtype=np.int64)
    return build_graph(n, np.column_stack([v, np.roll(v, -1)]))


def _gen_star(leaves: int) -> Graph:
    if leaves < 0:
        raise InputError("star needs leaves >= 0")
    leaf = np.arange(1, leaves + 1, dtype=np.int64)
    return build_graph(leaves + 1, np.column_stack([np.zeros_like(leaf), leaf]))


def _gen_complete(k: int) -> Graph:
    if k < 1:
        raise InputError("complete needs k >= 1")
    return build_graph(k, np.column_stack(np.triu_indices(k, 1)))


# Draws per gnp chunk.  A chunk holds whole rows, so a row longer than this
# is a chunk of its own.
GNP_CHUNK = 1 << 20


def _gen_gnp(n: int, p: float, seed: int) -> Graph:
    if n < 1:
        raise InputError("gnp needs n >= 1")
    if not (0.0 <= p <= 1.0):
        raise InputError("gnp needs 0 <= p <= 1")
    rng = stream(seed, "gnp")
    # row i holds the pairs (i, i+1..n-1) from pair index start[i] on;
    # start[n-1] is the pair count
    i = np.arange(n, dtype=np.int64)
    start = i * (n - 1) - i * (i - 1) // 2
    hits = [np.empty((0, 2), dtype=np.int64)]
    lo = 0
    while lo < n - 1:
        # rows lo..hi-1: the most whole rows that fit in GNP_CHUNK draws, at least one
        hi = max(lo + 1, int(np.searchsorted(start, start[lo] + GNP_CHUNK, side="right")) - 1)
        t = np.flatnonzero(rng.block_floats(int(start[hi] - start[lo])) < p) + start[lo]
        row = np.searchsorted(start, t, side="right") - 1
        hits.append(np.column_stack([row, t - start[row] + row + 1]))
        lo = hi
    return build_graph(n, np.concatenate(hits))


def _gen_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex k attaches to a uniform vertex < k."""
    if n < 1:
        raise InputError("tree needs n >= 1")
    rng = stream(seed, "tree")
    k = np.arange(1, n, dtype=np.int64)
    # the product and truncation of SplitMix64.next_below(k), one draw per k
    parent = (rng.block_floats(n - 1) * k).astype(np.int64)
    return build_graph(n, np.column_stack([parent, k]))


def _gen_subdivided_clique(h: int, t: int) -> Graph:
    """K_h with every edge subdivided t times.

    Original vertices keep ids 0..h-1; the t interior vertices of edge
    number e (edges ordered lexicographically) are h+e*t .. h+e*t+t-1,
    in order from the smaller endpoint to the larger.
    """
    if h < 2 or t < 0:
        raise InputError("subdivided_clique needs h >= 2, t >= 0")
    edges = []
    nxt = h
    for i in range(h):
        for j in range(i + 1, h):
            chain = [i] + list(range(nxt, nxt + t)) + [j]
            nxt += t
            edges.extend(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


FAMILIES = {
    "grid": (2, _gen_grid),
    "torus": (2, _gen_torus),
    "path": (1, _gen_path),
    "cycle": (1, _gen_cycle),
    "star": (1, _gen_star),
    "complete": (1, _gen_complete),
    "gnp": (2, _gen_gnp),
    "tree": (1, _gen_tree),
    "subdivided_clique": (2, _gen_subdivided_clique),
}

_SEEDED = {"gnp", "tree"}


def generate(spec: InstanceSpec) -> Graph:
    """Build the graph described by `spec`; pure in (family, params, seed)."""
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}; know {sorted(FAMILIES)}")
    arity, fn = FAMILIES[spec.family]
    if len(spec.params) != arity:
        raise InputError(f"{spec.family} takes {arity} parameter(s), got {len(spec.params)}")
    # every parameter is a size or a count, except gnp's edge probability
    sizes = spec.params[:1] if spec.family == "gnp" else spec.params
    for v in sizes:
        if not isinstance(v, (int, np.integer)):
            raise InputError(f"{spec.family} size parameters must be integers, got {v!r}")
    if spec.family in _SEEDED:
        return fn(*spec.params, spec.seed)
    return fn(*spec.params)


def read_edge_list(source) -> Graph:
    """Parse the ``p n m`` edge-list format; errors carry 1-based line numbers."""
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    head, n, m = _read_header(lines)
    body = lines[head:]
    pairs = _parse_body(body, n, m)
    if pairs is None:
        pairs = _check_lines(body, head + 1, n, m)
    return build_graph(n, pairs)


def _read_header(lines) -> tuple:
    """(line number, n, m) of the header, the first line with content."""
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] != "p" or len(parts) != 3:
            raise InputError(f"line {lineno}: expected header 'p <n> <m>'")
        try:
            n, m = int(parts[1]), int(parts[2])
        except ValueError:
            raise InputError(f"line {lineno}: header fields must be integers") from None
        if n < 0 or m < 0:
            raise InputError(f"line {lineno}: header fields must be nonnegative")
        return lineno, n, m
    raise InputError("line 1: missing header 'p <n> <m>'")


def _parse_body(body: list, n: int, m: int):
    """The lines after the header as an (m, 2) array, or None when the line
    loop has to decide.

    np.loadtxt is numpy's C parser.  Non-ASCII text outside comments goes to
    the line loop, because that parser reads some non-ASCII characters as
    digits (U+01FE as 462); so does any warning, such as an older numpy
    parsing "1.0" as an integer.
    """
    if not all(map(str.isascii, body)) and not all(
            line.split("#", 1)[0].isascii() for line in body):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = np.loadtxt(body, dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, OverflowError, Warning):
        return None
    if m == 0 or pairs.shape != (m, 2):  # min() below needs an element
        return None
    if pairs.min() < 0 or pairs.max() >= n or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs


def _check_lines(body: list, first: int, n: int, m: int) -> list:
    """Edge lines one at a time: the first bad line raises, else the edges.

    This is the reader for files the C parse turns down; `first` is the line
    number of body[0].
    """
    edges = []
    for lineno, raw in enumerate(body, start=first):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise InputError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"line {lineno}: endpoints must be integers") from None
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"line {lineno}: endpoint out of range 0..{n - 1}")
        if u == v:
            raise InputError(f"line {lineno}: self-loop at vertex {u}")
        edges.append((u, v))
    if len(edges) != m:
        raise InputError(f"header declares {m} edges but file has {len(edges)}")
    return edges


def graph_to_text(g: Graph) -> str:
    us, vs = g.edges()
    flat = np.column_stack([us, vs]).ravel().tolist()
    return f"p {g.n} {us.size}\n" + ("%d %d\n" * us.size) % tuple(flat)


def write_edge_list(g: Graph, path: str) -> None:
    """Write canonical bytes: header, then edges with u < v in lex order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(graph_to_text(g))

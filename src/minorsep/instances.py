"""Instance families and the plain-text edge-list format.

The text format is one header line ``p <n> <m>`` followed by m lines
``u v`` with 0-indexed endpoints; ``#`` starts a comment (whole-line or
trailing) and blank lines are ignored.  Writing is canonical: edges are
emitted with u < v in lexicographic order, so equal graphs serialize to
identical bytes.

`generate` checks every spec against its family's row in `FAMILIES`, so
the builders only build; a seeded row's builder draws from a SplitMix64
sub-stream named after the family.

gnp iterates the vertex pairs (0,1), (0,2), ..., (n-2,n-1) in
lexicographic order against its stream, one uniform per pair, which pins
the exact edge set for a seed.  It takes the positions of the hits from
`SplitMix64.hits_below`, which draws in cache-sized blocks and tests each
uniform against p exactly on integers, and maps each position back to
its pair.  Output k of a SplitMix64 stream is a function of k alone, so
the blocks draw exactly the uniforms of the sequential walk and the edge
set per seed is unchanged; memory is O(block + m).  tree takes its n - 1
draws as one block, with the same product and truncation as
`SplitMix64.next_below`.

Every family but subdivided_clique (which is small) builds its edges as
numpy arrays.  The text codec is array code too, with no Python object per
id or per line.  The writer formats TEXT_CHUNK edges at a time with digit
arithmetic on a byte array.  The reader parses the text after the header
with array checks on its bytes and numpy's C integer scanner, and checks
ids, self-loops and the edge count on the array.  A file that fails any of
that goes through a line loop, which only reports: it raises the first bad
line's error with its 1-based line number, or accepts tokens that Python's
``int`` reads and the array parser does not, such as ``1_0``, ``+3`` or
non-ASCII digits.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InputError
from .graph import Graph, build_graph
from .rng import stream

__all__ = [
    "InstanceSpec",
    "FAMILIES",
    "generate",
    "bench_spec",
    "read_edge_list",
    "write_edge_list",
    "graph_to_text",
    "edge_list_chunks",
]


# The largest vertex or edge count accepted from a header or a family's
# parameters: an int64 array of twice that many entries (an (m, 2) edge
# array, the doubled CSR edge list) is still within numpy's size limit.
# Above it numpy raises ValueError or OverflowError before allocating;
# below it a count too large for memory ends in MemoryError.
MAX_COUNT = np.iinfo(np.intp).max // 16


def _check_count(what: str, k: int) -> None:
    if k > MAX_COUNT:
        raise InputError(f"{what} {k} is too large; the limit is {MAX_COUNT}")


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    params: tuple = ()
    seed: int = 0


def _gen_grid(rows: int, cols: int, wrap: bool = False) -> Graph:
    """The rows x cols lattice; with `wrap`, the torus."""
    _check_count("vertex count", rows * cols)
    v = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    if wrap:
        ends = [(v, np.roll(v, -1, axis=1)), (v, np.roll(v, -1, axis=0))]
    else:
        ends = [(v[:, :-1], v[:, 1:]), (v[:-1], v[1:])]
    edges = np.concatenate([np.column_stack([a.ravel(), b.ravel()]) for a, b in ends])
    return build_graph(rows * cols, edges)


def _gen_path(n: int, closed: bool = False) -> Graph:
    """The path on n vertices; with `closed`, the cycle."""
    v = np.arange(n, dtype=np.int64)
    return build_graph(n, np.column_stack([v, np.roll(v, -1)] if closed else [v[:-1], v[1:]]))


def _gen_star(leaves: int) -> Graph:
    leaf = np.arange(1, leaves + 1, dtype=np.int64)
    return build_graph(leaves + 1, np.column_stack([np.zeros_like(leaf), leaf]))


def _gen_complete(k: int) -> Graph:
    _check_count("edge count", k * (k - 1) // 2)
    return build_graph(k, np.column_stack(np.triu_indices(k, 1)))


def _gen_gnp(n: int, p: float, seed: int) -> Graph:
    # row i holds the pairs (i, i+1..n-1) from pair index start[i] on;
    # start[n-1] is the pair count
    i = np.arange(n, dtype=np.int64)
    start = i * (n - 1) - i * (i - 1) // 2
    t = stream(seed, "gnp").hits_below(int(start[-1]), p)
    row = np.searchsorted(start, t, side="right") - 1
    return build_graph(n, np.column_stack([row, t - start[row] + row + 1]))


def _gen_tree(n: int, seed: int) -> Graph:
    """Random recursive tree: vertex k attaches to a uniform vertex < k."""
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
    # t + 1 edges and t vertices per edge of K_h
    _check_count("edge count", (t + 1) * (h * (h - 1) // 2))
    edges = []
    nxt = h
    for i in range(h):
        for j in range(i + 1, h):
            chain = [i] + list(range(nxt, nxt + t)) + [j]
            nxt += t
            edges.extend(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


@dataclass(frozen=True)
class Family:
    """One instance family.  `params` holds a (name, lower bound) pair per
    parameter, an integer size or count; a bound of None marks a probability
    in [0, 1].  `build` takes the parameters, then the seed when `seeded`.
    `bench` turns a vertex count n into parameters; None when it cannot."""
    build: Callable
    params: tuple
    seeded: bool = False
    bench: Callable | None = None


def _square(n: int) -> tuple:
    side = math.isqrt(n)
    if side * side != n:
        raise InputError(f"bench sizes must be perfect squares, got {n}")
    return side, side


# bench runs the first row when no family is named
FAMILIES = {
    "grid": Family(_gen_grid, (("rows", 1), ("cols", 1)), bench=_square),
    # wraparound on a side of length < 3 collapses to parallel edges
    "torus": Family(partial(_gen_grid, wrap=True), (("rows", 3), ("cols", 3)), bench=_square),
    "path": Family(_gen_path, (("n", 1),), bench=lambda n: (n,)),
    "cycle": Family(partial(_gen_path, closed=True), (("n", 3),), bench=lambda n: (n,)),
    "star": Family(_gen_star, (("leaves", 0),), bench=lambda n: (n - 1,)),
    "complete": Family(_gen_complete, (("k", 1),), bench=lambda n: (n,)),
    # bench: about three edges per vertex; p stays a probability below n = 3
    "gnp": Family(_gen_gnp, (("n", 1), ("p", None)), seeded=True,
                  bench=lambda n: (n, min(1.0, 3.0 / n))),
    "tree": Family(_gen_tree, (("n", 1),), seeded=True, bench=lambda n: (n,)),
    "subdivided_clique": Family(_gen_subdivided_clique, (("h", 2), ("t", 0))),
}


def generate(spec: InstanceSpec) -> Graph:
    """Build the graph described by `spec`; pure in (family, params, seed).
    A spec that does not fit its row is an InputError naming the family."""
    if spec.family not in FAMILIES:
        raise InputError(f"unknown family {spec.family!r}; know {sorted(FAMILIES)}")
    row = FAMILIES[spec.family]
    if len(spec.params) != len(row.params):
        raise InputError(
            f"{spec.family} takes {len(row.params)} parameter(s), got {len(spec.params)}")
    for (name, low), v in zip(row.params, spec.params):
        if low is None:
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{spec.family} needs 0 <= {name} <= 1")
            continue
        if not isinstance(v, (int, np.integer)):
            raise InputError(f"{spec.family} size parameters must be integers, got {v!r}")
        _check_count(f"{spec.family} size parameter", v)
        if v < low:
            raise InputError(f"{spec.family} needs {name} >= {low}, got {v}")
    if row.seeded:
        return row.build(*spec.params, spec.seed)
    return row.build(*spec.params)


def bench_spec(family: str, n: int, seed: int) -> InstanceSpec:
    """The instance `bench` runs at vertex count n."""
    row = FAMILIES.get(family)
    if row is None or row.bench is None:
        raise InputError(f"family {family!r} not supported by bench")
    try:
        return InstanceSpec(family, row.bench(n), seed)
    except InputError as exc:
        raise InputError(f"{family} {exc}") from None


def read_edge_list(source) -> Graph:
    """Parse the ``p n m`` edge-list format from a path or an open text
    file; errors carry 1-based line numbers.

    A path is read with universal newlines, so CR LF and a lone CR end a
    line as LF does.  An open file is read as it yields lines: an
    ``io.StringIO`` ends them at LF only.  A path is decoded in one piece,
    so a decoding error names the bad byte's offset in the file.

    The header is found by scanning the leading lines; the text after it
    goes to the array parser (`_parse_body`), and is split into lines only
    when that parser leaves the file to the line loop (`_check_lines`).
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"{os.fsdecode(source)}: not UTF-8 text (byte {exc.start})") from None
        lines = _lines_of(text)
    else:
        read = source.readlines()
        text = "".join(read)
        lines = iter(read)
    head, n, m, start = _read_header(lines)
    pairs = _parse_body(text[start:], n, m)
    if pairs is None:
        pairs = _check_lines(lines, head + 1, n, m)
    return build_graph(n, pairs)


def _lines_of(text: str):
    """The lines of a path's text one at a time, each with its LF, the only
    line end left after universal newlines.  str.splitlines would also
    split at characters such as form feed (0x0c) that readlines keeps in a
    line."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_header(lines) -> tuple:
    """(line number, n, m, text offset after it) of the header, the first
    line with content; `lines` is left at the line after it."""
    start = 0
    for lineno, raw in enumerate(lines, start=1):
        start += len(raw)
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
        _check_count(f"line {lineno}: header count", max(n, m))
        return lineno, n, m, start
    raise InputError("line 1: missing header 'p <n> <m>'")


# a comment runs from its ``#`` up to its LF; no UTF-8 multibyte character
# holds the byte of either
_COMMENT = re.compile(rb"#[^\n]*")


def _parse_body(body: str, n: int, m: int):
    """The text after the header as an (m, 2) array, or None when the line
    loop has to decide.

    Array code over the body's bytes: ``#`` comments, up to LF, are cut
    out; then every byte must be a digit, space, tab or LF, every line must
    hold zero or two tokens, and no token may pass 18 digits, so numpy's C
    scanner never meets a value past int64.  Runs of blanks, blank lines
    and leading zeros pass.  The scanner then reads the digits, and ids and
    self-loops are checked on the array.  Anything else, such as CR, form
    feed, a sign, ``1_0`` or non-ASCII text outside a comment, goes to the
    line loop.
    """
    # an open file's text may hold lone surrogates, which strict UTF-8 refuses
    data = body.encode(errors="surrogatepass")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    if data.translate(None, b"0123456789 \t\n"):
        return None
    b = np.frombuffer(data, np.uint8)
    digit = np.zeros(b.size + 2, bool)
    np.greater_equal(b, ord("0"), out=digit[1:-1])
    # token i is b[bounds[2i]:bounds[2i + 1]]
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts = bounds[0::2]
    if starts.size != 2 * m or (bounds[1::2] - starts).max(initial=0) > 18:
        return None
    # token starts and LFs merged in file order (a stable sort of two sorted
    # runs is one merge): the starts between two LFs are one line's tokens
    lf = np.flatnonzero(b == ord("\n"))
    is_lf = np.argsort(np.concatenate([starts, lf]), kind="stable") >= starts.size
    per_line = np.diff(np.flatnonzero(is_lf), prepend=-1, append=is_lf.size) - 1
    if not ((per_line == 0) | (per_line == 2)).all():
        return None
    if m == 0:  # the scanner reads a text of blanks alone as one 0
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.fromstring(data, dtype=np.int64, sep=" ").reshape(m, 2)
    if pairs.max() >= n or (pairs[:, 0] == pairs[:, 1]).any():
        return None
    return pairs


def _check_lines(body, first: int, n: int, m: int) -> list:
    """Edge lines one at a time: the first bad line raises, else the edges.

    This is the reader for files the array parser turns down; `first` is
    the line number of the first line of `body`.
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


# Edges per piece of the edge-list text.  The writer and the CLI's report
# digest hold one piece at a time, never the whole graph's text: on grid
# 1000^2 that text is 27.5 MB, and the arrays formatting it in one piece
# would pass 100 MB.
TEXT_CHUNK = 1 << 16


def _edge_lines(us: np.ndarray, vs: np.ndarray) -> bytes:
    """The lines ``u v`` of the edges (us[i], vs[i]) as ASCII bytes; us is
    nonempty.

    Column i of a (width + 1) x ids byte array holds id i's digits
    right-aligned in `width` rows, width being the digit count of the
    largest id, and then the space or LF after it.  Row k is the digit of
    10^(width-1-k), written as NUL where the id is below that power (the
    units digit always shows); the bytes are read column by column and the
    NULs deleted.
    """
    ids = np.column_stack([us, vs]).ravel()
    width = len(str(int(ids.max())))
    rows = np.empty((width + 1, ids.size), np.uint8)
    rows[width, 0::2] = ord(" ")
    rows[width, 1::2] = ord("\n")
    q = ids
    for k in range(width - 1, -1, -1):
        nxt = q // 10
        # q mod 10; the uint8 casts wrap both terms alike
        row = rows[k]
        row[...] = q
        row -= nxt.astype(np.uint8) * np.uint8(10)
        row += np.uint8(ord("0"))
        if k < width - 1:
            row *= q > 0
        q = nxt
    return rows.T.tobytes().translate(None, b"\0")


def edge_list_chunks(g: Graph):
    """The canonical edge-list text in pieces of ASCII bytes: the header,
    then the edges with u < v in lexicographic order, TEXT_CHUNK lines a
    piece."""
    us, vs = g.edges()
    yield f"p {g.n} {us.size}\n".encode()
    for lo in range(0, us.size, TEXT_CHUNK):
        yield _edge_lines(us[lo:lo + TEXT_CHUNK], vs[lo:lo + TEXT_CHUNK])


def graph_to_text(g: Graph) -> str:
    return b"".join(edge_list_chunks(g)).decode()


def write_edge_list(g: Graph, path: str) -> None:
    """Write canonical bytes: header, then edges with u < v in lex order,
    every line ended by LF on any platform."""
    with open(path, "wb") as fh:
        fh.writelines(edge_list_chunks(g))

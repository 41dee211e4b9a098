import hashlib
import io
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.errors import InputError
from minorsep.graph import build_graph, connected_components
from minorsep.instances import (
    FAMILIES,
    MAX_COUNT,
    TEXT_CHUNK,
    InstanceSpec,
    _edge_lines,
    _parse_body,
    edge_list_chunks,
    generate,
    graph_to_text,
    read_edge_list,
    write_edge_list,
)
from minorsep.rng import HITS_BLOCK, stream

from helpers import (
    component_lists,
    gen,
    loop_family,
    loop_graph_to_text,
    loop_read_edge_list,
    uf_components,
)


# -- closed-form vertex/edge counts ------------------------------------------

def test_family_counts():
    cases = [
        (("grid", 3, 3), 9, 12),
        (("grid", 1, 7), 7, 6),
        (("torus", 3, 3), 9, 18),
        (("path", 1), 1, 0),
        (("path", 6), 6, 5),
        (("cycle", 3), 3, 3),
        (("cycle", 10), 10, 10),
        (("star", 0), 1, 0),
        (("star", 9), 10, 9),
        (("complete", 1), 1, 0),
        (("complete", 5), 5, 10),
        (("subdivided_clique", 4, 2), 16, 18),
        (("subdivided_clique", 4, 0), 4, 6),
    ]
    for spec, n, m in cases:
        g = gen(*spec)
        assert (g.n, g.m) == (n, m), spec


@given(st.integers(1, 12), st.integers(1, 12))
def test_grid_counts_closed_form(r, c):
    g = gen("grid", r, c)
    assert g.n == r * c
    assert g.m == r * (c - 1) + c * (r - 1)


@given(st.integers(3, 10), st.integers(3, 10))
def test_torus_counts_and_regularity(r, c):
    g = gen("torus", r, c)
    assert g.n == r * c
    assert g.m == 2 * r * c
    assert all(g.degree(v) == 4 for v in range(g.n))


@given(st.integers(2, 9), st.integers(0, 4))
def test_subdivided_clique_counts(h, t):
    g = gen("subdivided_clique", h, t)
    e = h * (h - 1) // 2
    assert g.n == h + e * t
    assert g.m == e * (t + 1)
    # originals have degree h-1, interior vertices degree 2
    for v in range(h):
        assert g.degree(v) == h - 1
    for v in range(h, g.n):
        assert g.degree(v) == 2


def test_subdivided_clique_vertex_layout():
    # h=3, t=2: edge (0,1) -> 3,4; edge (0,2) -> 5,6; edge (1,2) -> 7,8
    g = gen("subdivided_clique", 3, 2)
    us, vs = g.edges()
    got = set(zip(us.tolist(), vs.tolist()))
    assert got == {(0, 3), (3, 4), (1, 4), (0, 5), (5, 6), (2, 6), (1, 7), (7, 8), (2, 8)}


LOOP_CASES = [
    ("grid", (1, 1)), ("grid", (1, 6)), ("grid", (6, 1)), ("grid", (3, 3)), ("grid", (40, 17)),
    ("torus", (3, 3)), ("torus", (3, 8)), ("torus", (8, 3)), ("torus", (12, 9)),
    ("path", (1,)), ("path", (2,)), ("path", (500,)),
    ("cycle", (3,)), ("cycle", (500,)),
    ("star", (0,)), ("star", (1,)), ("star", (60,)),
    ("complete", (1,)), ("complete", (2,)), ("complete", (30,)),
    ("tree", (1,)), ("tree", (2,)), ("tree", (3000,)),
]


@pytest.mark.parametrize("family,params", LOOP_CASES, ids=lambda p: str(p))
def test_families_match_loop_reference(family, params):
    for seed in (0, 7):
        n, edges = loop_family(family, params, seed)
        want = loop_graph_to_text(build_graph(n, edges))
        assert graph_to_text(gen(family, *params, seed=seed)) == want


def test_star_shape():
    g = gen("star", 4)
    assert g.degree(0) == 4
    assert all(g.degree(v) == 1 for v in range(1, 5))


# -- seeded families ----------------------------------------------------------

def test_gnp_matches_sequential_oracle(monkeypatch):
    # blocks of 1 and 7 draws put block ends inside and between rows; n = 300
    # has 44,850 pairs, more than one default block
    for n, p, seed in [(25, 0.2, 7), (2, 1.0, 0), (13, 0.5, 1), (300, 0.05, 2)]:
        r = stream(seed, "gnp")
        want = set()
        for i in range(n):
            for j in range(i + 1, n):
                if r.next_float() < p:
                    want.add((i, j))
        for block in (HITS_BLOCK, 1, 7):
            monkeypatch.setattr("minorsep.rng.HITS_BLOCK", block)
            g = gen("gnp", n, p, seed=seed)
            us, vs = g.edges()
            assert set(zip(us.tolist(), vs.tolist())) == want, (block, n, p, seed)


@pytest.mark.parametrize("n,p,seed,digest", [
    (5000, 0.0006, 3, "abf00762d83ce728889bb3a6dee6e19d84bb56b4c58d444dd9dbd210c40e2fcf"),
    (450, 0.045, 7, "63e9ea52872d83a4ed0817f84310b2a8ec24339bf30890829f25ca12ae615785"),
])
def test_gnp_frozen_digests(n, p, seed, digest):
    # the benchmark's gnp edge sets, pinned: a faster draw must not move them
    text = graph_to_text(gen("gnp", n, p, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gnp_determinism_and_extremes():
    a = graph_to_text(gen("gnp", 40, 0.15, seed=3))
    b = graph_to_text(gen("gnp", 40, 0.15, seed=3))
    assert a == b
    assert a != graph_to_text(gen("gnp", 40, 0.15, seed=4))
    assert gen("gnp", 12, 0.0, seed=1).m == 0
    assert gen("gnp", 12, 1.0, seed=1).m == 66
    assert gen("gnp", 1, 0.5, seed=1).n == 1


@given(st.integers(1, 200), st.integers(0, 2**31))
def test_tree_is_a_tree(n, seed):
    g = gen("tree", n, seed=seed)
    assert g.n == n
    assert g.m == n - 1
    comps = component_lists(*connected_components(g))
    assert len(comps) == 1
    # recursive attachment: every vertex k >= 1 has a neighbor below it
    for k in range(1, n):
        assert int(g.neighbors(k).min()) < k


def test_tree_determinism():
    assert graph_to_text(gen("tree", 50, seed=9)) == graph_to_text(gen("tree", 50, seed=9))
    assert graph_to_text(gen("tree", 50, seed=9)) != graph_to_text(gen("tree", 50, seed=10))


# -- parameter validation ------------------------------------------------------

def test_generate_validates():
    for family, params in [
        ("mystery", (3,)), ("grid", (3,)),
        ("grid", (0, 3)), ("torus", (2, 5)), ("path", (0,)), ("cycle", (2,)),
        ("star", (-1,)), ("complete", (0,)), ("gnp", (5, 1.5)), ("gnp", (0, 0.5)),
        ("tree", (0,)), ("subdivided_clique", (1, 2)), ("subdivided_clique", (3, -1)),
    ]:
        with pytest.raises(InputError, match=family):
            generate(InstanceSpec(family, params))


def test_every_row_checks_its_bounds():
    # each parameter at its bound builds; one step past it is an error that
    # names the family, the parameter, the bound and the value
    for family, row in FAMILIES.items():
        lows = tuple(0 if low is None else low for _, low in row.params)
        generate(InstanceSpec(family, lows))
        for i, (name, low) in enumerate(row.params):
            def spec(v):
                return InstanceSpec(family, lows[:i] + (v,) + lows[i + 1:])
            if low is None:
                generate(spec(1.0))
                for v in (-0.5, 1.5, float("nan")):
                    with pytest.raises(InputError) as exc:
                        generate(spec(v))
                    assert str(exc.value) == f"{family} needs 0 <= {name} <= 1"
            else:
                with pytest.raises(InputError) as exc:
                    generate(spec(low - 1))
                assert str(exc.value) == f"{family} needs {name} >= {low}, got {low - 1}"


def test_counts_beyond_an_int64_array_are_input_errors():
    # a count parameter over the limit, or a vertex or edge count it implies
    for family, params in [
        ("torus", (10**10, 10**10)), ("complete", (2 * 10**9,)),
        ("subdivided_clique", (2 * 10**9, 0)), ("path", (MAX_COUNT + 1,)),
    ]:
        with pytest.raises(InputError, match="too large"):
            generate(InstanceSpec(family, params))
    for header in (f"p {MAX_COUNT + 1} 0", f"p 3 {MAX_COUNT + 1}"):
        with pytest.raises(InputError, match="line 2: header count"):
            read_edge_list(io.StringIO(f"# big\n{header}\n"))


def test_families_registry_arity():
    for family, row in FAMILIES.items():
        assert len(row.params) in (1, 2), family
        assert len({name for name, _ in row.params}) == len(row.params), family


# -- edge-list text format -----------------------------------------------------

def test_write_read_roundtrip(tmp_path):
    g = gen("grid", 4, 5)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    text = path.read_text()
    assert text.startswith("p 20 31\n")
    g2 = read_edge_list(str(path))
    assert graph_to_text(g2) == text


def test_write_read_roundtrip_on_a_path_object(tmp_path):
    # read_edge_list used to call .readlines() on a pathlib.Path
    g = gen("grid", 4, 5)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert graph_to_text(read_edge_list(path)) == graph_to_text(g)


def test_text_is_canonical():
    from minorsep.graph import build_graph
    a = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    b = build_graph(4, [(0, 1), (0, 2), (2, 3), (1, 0)])
    assert graph_to_text(a) == graph_to_text(b) == "p 4 3\n0 1\n0 2\n2 3\n"


def test_read_comments_and_blanks():
    text = "# a comment\n\np 3 2   # trailing\n0 1\n\n1 2 # edge\n"
    g = read_edge_list(io.StringIO(text))
    assert (g.n, g.m) == (3, 2)
    # no edges: blanks alone, which numpy's scanner reads as one 0
    g = read_edge_list(io.StringIO("p 5 0\n  \n# c\n\t\n"))
    assert (g.n, g.m) == (5, 0)


def test_read_errors_carry_line_numbers():
    cases = [
        ("0 1\n", "line 1"),                       # missing header
        ("p 3\n", "line 1"),                       # short header
        ("p x 2\n", "line 1"),                     # non-integer header
        ("p -1 0\n", "line 1"),                    # negative count
        ("p 3 1\n0 1 2\n", "line 2"),              # malformed edge
        ("p 3 1\n0 a\n", "line 2"),                # non-integer endpoint
        ("p 3 1\n# c\n0 3\n", "line 3"),           # out of range
        ("p 3 1\n1 1\n", "line 2"),                # self-loop
        ("", "line 1"),                            # empty file
    ]
    for text, frag in cases:
        with pytest.raises(InputError) as exc:
            read_edge_list(io.StringIO(text))
        assert frag in str(exc.value), text


def test_read_accepts_what_python_int_accepts():
    # the C parser turns these down; the line loop takes them as int() does
    text = "p 11 3\r\n+3\t1_0\r\n\u0663 0  # arabic-indic three\n0 10 \n"
    g = read_edge_list(io.StringIO(text))
    assert graph_to_text(g) == "p 11 3\n0 3\n0 10\n3 10\n"


def test_read_rejects_non_ascii_digits():
    # numpy's parser would read "1\u01fe" as 472, an id in range here
    with pytest.raises(InputError) as exc:
        read_edge_list(io.StringIO("p 600 1\n0 1\u01fe\n"))
    assert str(exc.value) == "line 2: endpoints must be integers"
    # a lone surrogate, which an open file may hold, counts as any other
    # non-ASCII character: an error in an edge, nothing in a comment
    with pytest.raises(InputError) as exc:
        read_edge_list(io.StringIO("p 3 1\n0 \ud800\n"))
    assert str(exc.value) == "line 2: endpoints must be integers"
    assert read_edge_list(io.StringIO("p 3 1\n0 1 # \ud800\n")).m == 1


def test_read_edge_count_mismatch():
    with pytest.raises(InputError) as exc:
        read_edge_list(io.StringIO("p 3 2\n0 1\n"))
    assert "declares 2" in str(exc.value)
    with pytest.raises(InputError) as exc:
        read_edge_list(io.StringIO("p 3 0\n0 1\n"))
    assert "declares 0" in str(exc.value)


def test_read_missing_file():
    with pytest.raises(OSError):
        read_edge_list("/nonexistent/graph.txt")


def test_read_names_the_file_offset_of_a_bad_byte(tmp_path):
    # more than one 8 KiB decoding chunk of valid lines comes first
    head = b"p 3 3000\n" + b"0 1\n" * 2999
    assert len(head) > 8192
    path = tmp_path / "bad.txt"
    path.write_bytes(head + b"1 \xff\n")
    with pytest.raises(InputError) as exc:
        read_edge_list(str(path))
    assert str(exc.value) == f"{path}: not UTF-8 text (byte {len(head) + 2})"



def test_bad_byte_error_prints_every_kind_of_path(tmp_path):
    # a bytes path is named as the decoded text, like a str or os.PathLike one
    path = tmp_path / "bad.txt"
    path.write_bytes(b"p 2 1\n0 \xff\n")
    for source in (str(path), os.fsencode(path), path):
        with pytest.raises(InputError) as exc:
            read_edge_list(source)
        assert str(exc.value) == f"{path}: not UTF-8 text (byte 8)"

def test_read_newline_rule_by_source(tmp_path):
    # a path is read with universal newlines, an open file as it yields lines
    text = "p 4 2\n0 1\r2 3\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    assert graph_to_text(read_edge_list(str(path))) == "p 4 2\n0 1\n2 3\n"
    with pytest.raises(InputError) as exc:
        read_edge_list(io.StringIO(text))
    assert str(exc.value) == "line 2: expected 'u v'"
    # neither ends a line at a form feed, which separates tokens as a space does
    text = "p 3 1\n0\x0c1\n"
    path.write_bytes(text.encode())
    for source in (str(path), io.StringIO(text)):
        assert graph_to_text(read_edge_list(source)) == "p 3 1\n0 1\n"


@given(st.sampled_from(["grid", "path", "cycle", "complete", "tree"]),
       st.integers(3, 30), st.integers(0, 2**31))
def test_roundtrip_any_family(family, n, seed):
    params = (n, n // 3 + 3) if family == "grid" else (n,)
    g = generate(InstanceSpec(family, params, seed))
    g2 = read_edge_list(io.StringIO(graph_to_text(g)))
    assert graph_to_text(g2) == graph_to_text(g)
    assert uf_components(g.n, list(zip(*g.edges()))) == \
        uf_components(g2.n, list(zip(*g2.edges())))


ODD_TOKENS = ["-1", "+3", "03", "1_0", "\u0663", "1\u01fe", "1.0", "x", "99999999999999999999"]
# 10^k - 1 and 10^k for every k an int64 holds, past the 18-digit limit of
# the array parser, and zero-padded forms of small and 19-digit values
BOUNDARY_IDS = [str(10**k + d) for k in range(1, 19) for d in (-1, 0)]
LONG_TOKENS = ["0" * 17 + "12", "0" * 18 + "7", "1" + "0" * 18, "9" * 19, "1" + "0" * 19]


@st.composite
def edge_texts(draw):
    """Edge-list text mixing what the format allows with what it rejects."""
    small = st.integers(0, 11).map(str)
    padded = st.tuples(st.integers(1, 3), st.integers(0, 120)).map(
        lambda z: "0" * z[0] + str(z[1]))
    wide = draw(st.booleans())  # else ids of one or two digits
    plain = st.one_of(small, st.sampled_from(BOUNDARY_IDS), padded) if wide else small
    odd = draw(st.integers(0, 3)) == 0  # else only plain ids, blanks and comments
    token = st.one_of(plain, st.sampled_from(ODD_TOKENS + LONG_TOKENS)) if odd else plain
    kinds = ["edge"] * 8 + ["blank", "comment"] + (["one", "three", "four", "cr"] if odd else [])
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    body = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "edge":
            line = draw(token) + draw(sep) + draw(token)
        elif kind in ("one", "three", "four"):
            count = {"one": 1, "three": 3, "four": 4}[kind]
            line = draw(sep).join(draw(token) for _ in range(count))
        elif kind == "cr":
            line = "0 1\r2 3"
        else:
            line = "" if kind == "blank" else draw(st.sampled_from(["# note", "# caf\u00e9 1\u01fe"]))
        if draw(st.booleans()):
            line += draw(sep) + "# trailing"
        body.append(line)
    n = draw(st.sampled_from([0, 4, 12, 12, 12, 500, 1001, 100001]))
    m = sum(1 for line in body if line.split("#")[0].strip())
    m += draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    lines = [f"p {n} {max(m, 0)}"] + body
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", "  ", "# header follows", "p 3", "c comment"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + eol for line in lines)


def assert_reads_as_loop(source, lines):
    """read_edge_list(source) gives the line loop's graph over `lines`, or
    raises its exact InputError."""
    try:
        want = loop_graph_to_text(loop_read_edge_list(lines))
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_edge_list(source)
        assert str(got.value) == str(exc)
    else:
        assert graph_to_text(read_edge_list(source)) == want


@given(edge_texts())
def test_reader_agrees_with_line_loop(tmp_path_factory, text):
    assert_reads_as_loop(io.StringIO(text), io.StringIO(text).readlines())
    # a path is read with universal newlines
    path = tmp_path_factory.getbasetemp() / "edges.txt"
    path.write_bytes(text.encode())
    universal = io.StringIO(text.replace("\r\n", "\n").replace("\r", "\n"))
    assert_reads_as_loop(str(path), universal.readlines())


def test_array_parser_reads_comments_and_declines_the_rest():
    # comments, blank lines, tabs and leading zeros stay on the array path
    pairs = _parse_body("0 1 # caf\u00e9 # 2\n\n# note\n\t2  003 #\n", 4, 2)
    assert pairs.tolist() == [[0, 1], [2, 3]]
    assert _parse_body("0" * 17 + "1 2\n", 5, 1).tolist() == [[1, 2]]
    # the line loop decides a token of 19 digits, even of a small value, and
    # a line of four tokens, even when the count of pairs matches
    assert _parse_body("0" * 18 + "1 2\n", 5, 1) is None
    assert _parse_body("0 1 2 3\n", 4, 2) is None


@pytest.mark.parametrize("chunk", [1, 7, TEXT_CHUNK])
def test_edge_list_chunks_match_loop_writer(monkeypatch, chunk):
    # pieces of 1 and 7 lines, so the largest id's width changes between pieces
    monkeypatch.setattr("minorsep.instances.TEXT_CHUNK", chunk)
    graphs = [build_graph(0, []), build_graph(1, []), build_graph(30, []),
              gen("path", 2), gen("star", 12), gen("tree", 1200, seed=5)]
    graphs += [gen("gnp", n, 0.08, seed=s) for n, s in [(9, 1), (40, 2), (150, 3)]]
    for g in graphs:
        pieces = list(edge_list_chunks(g))
        assert all(isinstance(p, bytes) for p in pieces)
        assert len(pieces) == 1 + -(-g.m // chunk)
        assert b"".join(pieces) == loop_graph_to_text(g).encode(), (g.n, g.m)


def test_edge_lines_at_every_power_of_ten():
    # ids at each 10^k - 1 / 10^k boundary up to MAX_COUNT, in both columns
    ids = sorted({0, MAX_COUNT} | {10**k + d for k in range(1, 18) for d in (-1, 0)})
    us = np.array(ids, dtype=np.int64)
    vs = us[::-1].copy()
    want = "".join(f"{u} {v}\n" for u, v in zip(ids, ids[::-1])).encode()
    assert _edge_lines(us, vs) == want
    for u in ids:
        one = np.array([u], dtype=np.int64)
        assert _edge_lines(one, one) == f"{u} {u}\n".encode()

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minorsep.errors import InputError
from minorsep.graph import build_graph, connected_components
from minorsep.instances import (
    FAMILIES,
    GNP_CHUNK,
    InstanceSpec,
    generate,
    graph_to_text,
    read_edge_list,
    write_edge_list,
)
from minorsep.rng import stream

from helpers import component_lists, loop_family, loop_graph_to_text, loop_read_edge_list, uf_components


def gen(family, *params, seed=0):
    return generate(InstanceSpec(family, params, seed))


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
    # chunks of 1 and 7 draws put chunk ends inside and between rows
    for chunk in (GNP_CHUNK, 1, 7):
        monkeypatch.setattr("minorsep.instances.GNP_CHUNK", chunk)
        for n, p, seed in [(25, 0.2, 7), (2, 1.0, 0), (13, 0.5, 1)]:
            r = stream(seed, "gnp")
            want = set()
            for i in range(n):
                for j in range(i + 1, n):
                    if r.next_float() < p:
                        want.add((i, j))
            g = gen("gnp", n, p, seed=seed)
            us, vs = g.edges()
            assert set(zip(us.tolist(), vs.tolist())) == want, (chunk, n, p, seed)


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
    with pytest.raises(InputError):
        generate(InstanceSpec("mystery", (3,)))
    with pytest.raises(InputError):
        generate(InstanceSpec("grid", (3,)))
    for family, params in [
        ("grid", (0, 3)), ("torus", (2, 5)), ("path", (0,)), ("cycle", (2,)),
        ("star", (-1,)), ("complete", (0,)), ("gnp", (5, 1.5)), ("gnp", (0, 0.5)),
        ("tree", (0,)), ("subdivided_clique", (1, 2)), ("subdivided_clique", (3, -1)),
    ]:
        with pytest.raises(InputError):
            generate(InstanceSpec(family, params))


def test_families_registry_arity():
    for family, (arity, _) in FAMILIES.items():
        assert arity in (1, 2), family


# -- edge-list text format -----------------------------------------------------

def test_write_read_roundtrip(tmp_path):
    g = gen("grid", 4, 5)
    path = tmp_path / "g.txt"
    write_edge_list(g, str(path))
    text = path.read_text()
    assert text.startswith("p 20 31\n")
    g2 = read_edge_list(str(path))
    assert graph_to_text(g2) == text


def test_text_is_canonical():
    from minorsep.graph import build_graph
    a = build_graph(4, [(3, 2), (1, 0), (2, 0)])
    b = build_graph(4, [(0, 1), (0, 2), (2, 3), (1, 0)])
    assert graph_to_text(a) == graph_to_text(b) == "p 4 3\n0 1\n0 2\n2 3\n"


def test_read_comments_and_blanks():
    text = "# a comment\n\np 3 2   # trailing\n0 1\n\n1 2 # edge\n"
    g = read_edge_list(io.StringIO(text))
    assert (g.n, g.m) == (3, 2)


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


@st.composite
def edge_texts(draw):
    """Edge-list text mixing what the format allows with what it rejects."""
    plain = st.integers(0, 11).map(str)
    odd = draw(st.integers(0, 3)) == 0  # else only plain ids, blanks and comments
    token = st.one_of(plain, st.sampled_from(ODD_TOKENS)) if odd else plain
    kinds = ["edge"] * 8 + ["blank", "comment"] + (["one", "three", "cr"] if odd else [])
    sep = st.sampled_from([" ", "\t", "  ", " \t"])
    body = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "edge":
            line = draw(token) + draw(sep) + draw(token)
        elif kind in ("one", "three"):
            line = draw(sep).join(draw(token) for _ in range(1 if kind == "one" else 3))
        elif kind == "cr":
            line = "0 1\r2 3"
        else:
            line = "" if kind == "blank" else draw(st.sampled_from(["# note", "# caf\u00e9 1\u01fe"]))
        if draw(st.booleans()):
            line += draw(sep) + "# trailing"
        body.append(line)
    n = draw(st.sampled_from([0, 4, 12, 12, 12, 500]))
    m = sum(1 for line in body if line.split("#")[0].strip())
    m += draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    lines = [f"p {n} {max(m, 0)}"] + body
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["", "  ", "# header follows", "p 3", "c comment"])))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + eol for line in lines)


@given(edge_texts())
def test_reader_agrees_with_line_loop(text):
    try:
        want = loop_graph_to_text(loop_read_edge_list(io.StringIO(text).readlines()))
    except InputError as exc:
        with pytest.raises(InputError) as got:
            read_edge_list(io.StringIO(text))
        assert str(got.value) == str(exc)
    else:
        assert graph_to_text(read_edge_list(io.StringIO(text))) == want

import argparse
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from minorsep.cli import (
    EXIT_CERT_INVALID,
    EXIT_INPUT,
    EXIT_SELF_VERIFY,
    EXIT_SEPARATOR,
    EXIT_WITNESS,
    _build_parser,
    main,
)
from minorsep.instances import FAMILIES, TEXT_CHUNK, InstanceSpec, generate
from minorsep.separator import BalancedSeparator, MinorWitness
from minorsep.verify import certificate

from helpers import loop_graph_to_text


def run(*argv):
    return main(list(argv))


# -- gen ---------------------------------------------------------------------

def test_gen_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "grid.txt"
    assert run("gen", "--family", "grid", "--params", "20,20", "--out", str(out)) == 0
    text = out.read_text()
    assert text.startswith("p 400 760\n")
    assert "wrote" in capsys.readouterr().out
    # regenerating produces identical bytes
    out2 = tmp_path / "grid2.txt"
    run("gen", "--family", "grid", "--params", "20,20", "--out", str(out2))
    assert out2.read_text() == text


def test_gen_seeded_family(tmp_path):
    a, b, c = (tmp_path / s for s in ("a", "b", "c"))
    run("gen", "--family", "gnp", "--params", "50,0.1", "--seed", "4", "--out", str(a))
    run("gen", "--family", "gnp", "--params", "50,0.1", "--seed", "4", "--out", str(b))
    run("gen", "--family", "gnp", "--params", "50,0.1", "--seed", "5", "--out", str(c))
    assert a.read_text() == b.read_text()
    assert a.read_text() != c.read_text()


def test_gen_skips_empty_parameters(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("gen", "--family", "grid", "--params", "30,,30", "--out", str(a)) == 0
    assert run("gen", "--family", "grid", "--params", "30,30", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_bad_params(tmp_path):
    out = tmp_path / "x"
    assert run("gen", "--family", "grid", "--params", "0,5", "--out", str(out)) == EXIT_INPUT
    assert run("gen", "--family", "grid", "--params", "a,b", "--out", str(out)) == EXIT_INPUT
    with pytest.raises(SystemExit):  # argparse rejects unknown family choices
        run("gen", "--family", "mystery", "--params", "3", "--out", str(out))


@pytest.mark.parametrize("family,params", [
    ("grid", "5.0,5"), ("path", "1e3"), ("complete", "3.0"), ("gnp", "10.0,0.5"),
    ("subdivided_clique", "3,1.5"),
])
def test_gen_rejects_non_integer_sizes(tmp_path, capsys, family, params):
    out = tmp_path / "x"
    assert run("gen", "--family", family, "--params", params, "--out", str(out)) == EXIT_INPUT
    assert "must be integers" in capsys.readouterr().err
    assert not out.exists()
    assert run("separate", "--gen", f"{family}:{params}", "--h", "4") == EXIT_INPUT
    assert "must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("family,params", [
    ("path", "100000000000000000000"), ("grid", "10000000000,10000000000"),
    ("star", "99999999999999999999999"), ("tree", "9223372036854775808"),
    ("subdivided_clique", "3,99999999999999999999"),
])
def test_gen_rejects_counts_beyond_an_int64_array(tmp_path, capsys, family, params):
    # these used to end in a numpy ValueError or OverflowError traceback and
    # exit 1, the code for an invalid certificate
    out = tmp_path / "x"
    assert run("gen", "--family", family, "--params", params, "--out", str(out)) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:") and not out.exists()


@pytest.mark.parametrize("command", ["separate", "verify"])
@pytest.mark.parametrize("n", ["99999999999999999999", "9000000000000000000"])
def test_header_counts_beyond_an_int64_array_are_input_errors(tmp_path, capsys, command, n):
    graph, cert = tmp_path / "g.txt", tmp_path / "c.json"
    graph.write_text(f"p {n} 0\n")
    cert.write_text('{"type":"separator","vertices":[]}\n')
    argv = ["--input", str(graph)]
    argv += ["--h", "5"] if command == "separate" else ["--certificate", str(cert)]
    assert run(command, *argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: line 1:")


def test_out_of_memory_is_an_input_error(tmp_path, monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError

    # gen builds the canonical edges alone; separate --gen builds the Graph
    monkeypatch.setattr("minorsep.cli.canonical_edges", exhausted)
    monkeypatch.setattr("minorsep.cli.generate", exhausted)
    out = tmp_path / "x"
    assert run("gen", "--family", "gnp", "--params", "200000,0.1", "--out", str(out)) == EXIT_INPUT
    assert "error: out of memory" in capsys.readouterr().err
    assert not out.exists()
    report = tmp_path / "r.json"
    assert run("separate", "--gen", "gnp:200000,0.1", "--h", "5",
               "--json", str(report)) == EXIT_INPUT
    assert "error: out of memory" in capsys.readouterr().err
    assert not report.exists()


# -- separate -----------------------------------------------------------------

def test_separate_grid_report_and_certificate(tmp_path, capsys):
    rep = tmp_path / "report.json"
    cert = tmp_path / "cert.json"
    code = run("separate", "--gen", "grid:20,20", "--h", "5",
               "--json", str(rep), "--certificate", str(cert), "--debug")
    assert code == EXIT_SEPARATOR
    out = capsys.readouterr().out
    assert "separator of size 344" in out

    body = json.loads(rep.read_text())
    assert body["schema"] == "v2"
    s = body["stats"]
    assert (s["n"], s["m"], s["h"], s["ell"], s["delta"], s["seed"]) == (400, 760, 5, 2, 6, 0)
    assert body["outcome"]["kind"] == "separator"
    assert body["outcome"]["separator_size"] == 344
    assert body["verification"]["ok"] is True
    assert len(body["outcome"]["vertices"]) == 344

    payload = json.loads(cert.read_text())
    assert payload["type"] == "separator"
    assert payload["vertices"] == body["outcome"]["vertices"]


def test_text_of_several_chunks_keeps_its_bytes_and_digest(tmp_path):
    # grid 200x200 has 79,600 edges, more lines than one TEXT_CHUNK
    g = generate(InstanceSpec("grid", (200, 200)))
    assert g.m > TEXT_CHUNK
    want = loop_graph_to_text(g).encode()
    graph = tmp_path / "g.txt"
    assert run("gen", "--family", "grid", "--params", "200,200", "--out", str(graph)) == 0
    assert graph.read_bytes() == want
    rep = tmp_path / "report.json"
    assert run("separate", "--input", str(graph), "--h", "5", "--json", str(rep)) == 0
    assert json.loads(rep.read_text())["input"]["digest"] == hashlib.sha256(want).hexdigest()


def test_separate_reports_are_byte_identical(tmp_path):
    outs = []
    for name in ("r1.json", "r2.json"):
        p = tmp_path / name
        run("separate", "--gen", "gnp:120,0.03", "--h", "5", "--seed", "11",
            "--json", str(p))
        outs.append(p.read_bytes())
    assert outs[0] == outs[1]


# sha256 of (report, certificate) for the criterion-10 jobs.  The reports
# were recorded again when the schema-v2 report replaced v1 (certificates
# unchanged), and the grid and gnp pairs again when the decomposition's
# boundary came to keep one end of each cut edge; a refactor must
# reproduce them exactly.
FROZEN_DIGESTS = [
    (["--gen", "grid:20,20", "--h", "5"],
     "6ef49c1566d1963ad7d290307afc1f1ffe15bf0e5df881ea9acd9bf20ecb2cf2",
     "011aa64c0c45e1bae37dae6a8449f567c192dab1fc7de8bf0ebce3ec59bac1e9"),
    (["--gen", "gnp:200,0.015", "--h", "5", "--seed", "3"],
     "3dbf847c5f5614995ec92ec1e88b71e2b0e5ba87fe26eca1a8b62195b83cc109",
     "18cff57cac1c3774c0e0a2e74963ebcb238ac27379b7064c2d6911f9dc574348"),
    (["--gen", "complete:9", "--h", "4"],
     "38699e5b5a1b25da24e7f8af9c8a3ff1ce355a75880c04a7aa57a736a55591e1",
     "aa15305caf54161f51fddee99a921fd96731f41a8863bc35de19bfc188245295"),
    (["--gen", "tree:300", "--h", "4", "--seed", "2", "--debug"],
     "41a767cd129d03709638f05fd49dbe3960218e8a7ce76b0807ab4d05d58cf6aa",
     "68a2441062347dcc52290a7e43186411e713c19560123f60a910c1fce68cb01e"),
]


def test_separate_reports_match_frozen_digests(tmp_path):
    rep, cert = tmp_path / "r.json", tmp_path / "c.json"
    for argv, rep_sha, cert_sha in FROZEN_DIGESTS:
        code = run("separate", *argv, "--json", str(rep), "--certificate", str(cert))
        assert code in (EXIT_SEPARATOR, EXIT_WITNESS)
        assert hashlib.sha256(rep.read_bytes()).hexdigest() == rep_sha, argv
        assert hashlib.sha256(cert.read_bytes()).hexdigest() == cert_sha, argv


STATS_KEYS = {"n", "m", "h", "ell", "delta", "seed", "iterations", "step1_finished",
              "step2_count", "step3_count", "step4_count", "exact_center_used", "charged",
              "retired_branches", "fallback_level", "invariant_checks"}


@pytest.mark.parametrize("argv,code,outcome_keys", [
    (["--gen", "grid:12,12", "--h", "5"], EXIT_SEPARATOR,
     {"kind", "vertices", "separator_size", "size_breakdown", "largest_component",
      "component_count"}),
    (["--gen", "complete:9", "--h", "4"], EXIT_WITNESS, {"kind", "h", "branches"}),
], ids=["separator", "witness"])
def test_report_blocks_have_the_v2_keys(tmp_path, argv, code, outcome_keys):
    # the run's parameters and counters are in stats alone; only a witness
    # certificate carries its own h
    rep = tmp_path / "r.json"
    assert run("separate", *argv, "--json", str(rep)) == code
    body = json.loads(rep.read_text())
    assert body["schema"] == "v2"
    assert set(body) == {"schema", "input", "stats", "verification", "outcome"}
    assert set(body["input"]) == {"digest", "source"}
    assert set(body["stats"]) == STATS_KEYS
    assert set(body["verification"]) == {"ok", "checks"}
    assert set(body["outcome"]) == outcome_keys
    restated = STATS_KEYS & (set(body["input"]) | set(body["verification"]) | set(body["outcome"]))
    assert restated == ({"h"} if code == EXIT_WITNESS else set())
    if code == EXIT_WITNESS:
        assert body["outcome"]["h"] == body["stats"]["h"] == 4
    else:
        assert set(body["outcome"]["size_breakdown"]) == {"x", "step1_s", "f_selector"}


def test_separate_witness_exit_code(tmp_path, capsys):
    cert = tmp_path / "w.json"
    code = run("separate", "--gen", "complete:9", "--h", "4", "--certificate", str(cert))
    assert code == EXIT_WITNESS
    assert "not K_4-minor-free" in capsys.readouterr().out
    payload = json.loads(cert.read_text())
    assert payload["type"] == "witness" and payload["h"] == 4
    assert len(payload["branches"]) == 4


def test_separate_from_file(tmp_path):
    graph = tmp_path / "g.txt"
    run("gen", "--family", "cycle", "--params", "30", "--out", str(graph))
    rep = tmp_path / "r.json"
    assert run("separate", "--input", str(graph), "--h", "3", "--json", str(rep)) == 0
    body = json.loads(rep.read_text())
    assert body["input"]["source"] == str(graph)
    assert body["stats"]["n"] == 30


def test_separate_input_errors(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 3 1\n0 7\n")
    assert run("separate", "--input", str(bad), "--h", "4") == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err
    assert run("separate", "--input", str(tmp_path / "nope.txt"), "--h", "4") == EXIT_INPUT
    assert run("separate", "--gen", "grid:5,5", "--h", "2") == EXIT_INPUT
    assert run("separate", "--gen", "mystery:5", "--h", "4") == EXIT_INPUT


@pytest.mark.parametrize("params", [
    ["--h", "5", "--ell", str(10**309)],
    ["--h", str(10**309)],
])
def test_separate_rejects_a_delta_too_large_for_a_float(tmp_path, capsys, params):
    # these ended in an OverflowError traceback and exit code 1, the code of
    # an invalid certificate
    rep = tmp_path / "r.json"
    assert run("separate", "--gen", "grid:6,6", *params, "--json", str(rep)) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")
    assert not rep.exists()


def test_bench_rejects_an_ell_too_large_for_a_float(capsys):
    assert run("bench", "--sizes", "16", "--h", "5", "--trials", "1",
               "--ell", str(10**309)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "summary" not in captured.out


@pytest.mark.parametrize("params,rep_sha", [
    (["--h", "5", "--ell", str(10**24)],
     "b71c3139ce627fad0d21a243bce9b2c3bf4f0a03d449df25e9cb3a6504be9583"),
    (["--h", str(10**309), "--ell", "2"],
     "3ae8c73548c75307fbcbcda3eb6c909bb5930214b7407a52691c198d668be04f"),
], ids=["large-ell", "large-h"])
def test_separate_runs_a_large_ell_or_h_whose_delta_is_a_float(tmp_path, params, rep_sha):
    rep = tmp_path / "r.json"
    assert run("separate", "--gen", "grid:6,6", *params, "--json", str(rep)) == EXIT_SEPARATOR
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == rep_sha


def test_separate_rejects_the_removed_fast_flag(capsys):
    # README's exit-code table: a bad flag is exit code 2, argparse's usage error
    with pytest.raises(SystemExit) as exc:
        run("separate", "--gen", "grid:5,5", "--h", "4", "--fast")
    assert exc.value.code == EXIT_INPUT
    assert "--fast" in capsys.readouterr().err


def test_non_utf8_edge_list_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"p 3 1\n0 1\n\xff\xfe 2\n")
    assert run("separate", "--input", str(bad), "--h", "4") == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "UTF-8" in err


def test_driver_model_error_is_a_self_verification_failure(monkeypatch, capsys):
    from minorsep.errors import ModelError

    def broken(m, g, cand):
        raise ModelError("new branch has no edge to branch 0")

    monkeypatch.setattr("minorsep.separator.add_branch", broken)
    assert run("separate", "--gen", "complete:9", "--h", "4") == EXIT_SELF_VERIFY
    assert capsys.readouterr().err.startswith("self-verification failure: new branch")


def test_separate_without_json_builds_no_report(monkeypatch, tmp_path):
    def no_digest(g):
        raise AssertionError("report built without --json")

    monkeypatch.setattr("minorsep.cli._digest", no_digest)
    cert = tmp_path / "c.json"
    assert run("separate", "--gen", "grid:8,8", "--h", "5", "--certificate", str(cert)) == 0
    assert json.loads(cert.read_text())["type"] == "separator"


def test_separate_builds_one_certificate(monkeypatch, tmp_path):
    calls = []

    def counted(outcome):
        calls.append(outcome)
        return certificate(outcome)

    monkeypatch.setattr("minorsep.cli.certificate", counted)
    rep, cert = tmp_path / "r.json", tmp_path / "c.json"
    assert run("separate", "--gen", "grid:8,8", "--h", "5",
               "--json", str(rep), "--certificate", str(cert)) == 0
    assert len(calls) == 1
    assert json.loads(rep.read_text())["outcome"]["vertices"] == \
        json.loads(cert.read_text())["vertices"]


# -- verify ---------------------------------------------------------------------

def make_instance(tmp_path, spec_args, h):
    graph = tmp_path / "g.txt"
    run("gen", *spec_args, "--out", str(graph))
    cert = tmp_path / "c.json"
    code = run("separate", "--input", str(graph), "--h", str(h), "--certificate", str(cert))
    return graph, cert, code


def test_verify_separator_roundtrip(tmp_path, capsys):
    graph, cert, code = make_instance(
        tmp_path, ["--family", "grid", "--params", "12,12"], h=5)
    assert code == EXIT_SEPARATOR
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == 0
    out = capsys.readouterr().out
    assert "certificate valid" in out and "ok balanced" in out


def test_verify_witness_roundtrip(tmp_path, capsys):
    graph, cert, code = make_instance(
        tmp_path, ["--family", "complete", "--params", "12"], h=5)
    assert code == EXIT_WITNESS
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == 0
    assert "certificate valid" in capsys.readouterr().out


def test_verify_rejects_unbalanced_separator(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "30", "--out", str(graph))
    cert = tmp_path / "c.json"
    cert.write_text('{"type":"separator","vertices":[0]}\n')
    assert run("verify", "--input", str(graph),
               "--certificate", str(cert)) == EXIT_CERT_INVALID
    assert "certificate INVALID" in capsys.readouterr().out


def test_verify_rejects_tampered_witness(tmp_path, capsys):
    # five singleton branches on a 5-cycle: pairwise adjacency fails
    graph = tmp_path / "g.txt"
    run("gen", "--family", "cycle", "--params", "5", "--out", str(graph))
    cert = tmp_path / "c.json"
    cert.write_text('{"type":"witness","h":5,"branches":[[0],[1],[2],[3],[4]]}\n')
    assert run("verify", "--input", str(graph),
               "--certificate", str(cert)) == EXIT_CERT_INVALID
    out = capsys.readouterr().out
    assert "FAIL pairwise_adjacent" in out


def subdivided_clique_branches(h, t):
    """The K_h model of subdivided_clique(h, t): branch i is vertex i plus
    the t interior vertices of every edge (i, j) with j > i."""
    branches = [[i] for i in range(h)]
    e = 0
    for i in range(h):
        for j in range(i + 1, h):
            branches[i].extend(range(h + e * t, h + (e + 1) * t))
            e += 1
    return branches


def test_verify_large_witness(tmp_path, capsys):
    # 15 + 105 * 950 = 99,765 vertices, branches of 1 to 13,301 vertices
    graph = tmp_path / "g.txt"
    run("gen", "--family", "subdivided_clique", "--params", "15,950", "--out", str(graph))
    branches = subdivided_clique_branches(15, 950)
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"type": "witness", "h": 15, "branches": branches}))
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == 0
    assert "certificate valid" in capsys.readouterr().out
    # dropping the middle interior vertex of edge (0, 1) splits branch 0
    branches[0].remove(15 + 950 // 2)
    cert.write_text(json.dumps({"type": "witness", "h": 15, "branches": branches}))
    assert run("verify", "--input", str(graph),
               "--certificate", str(cert)) == EXIT_CERT_INVALID
    out = capsys.readouterr().out
    assert "FAIL each_connected: disconnected branches [0]" in out
    assert "ok pairwise_adjacent" in out


def test_verify_malformed_certificates(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "5", "--out", str(graph))
    cert = tmp_path / "c.json"
    for text in ("not json", "[]", '{"type":"other"}',
                 '{"type":"separator"}', '{"type":"separator","vertices":[9]}',
                 '{"type":"witness","h":"x","branches":[]}'):
        cert.write_text(text)
        assert run("verify", "--input", str(graph),
                   "--certificate", str(cert)) == EXIT_INPUT, text
        assert "error:" in capsys.readouterr().err


def test_verify_non_utf8_certificate_is_an_input_error(tmp_path, capsys):
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "5", "--out", str(graph))
    cert = tmp_path / "c.json"
    cert.write_bytes(b"\xff")
    capsys.readouterr()
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "certificate" not in captured.out
    assert captured.err.startswith("error:") and str(cert) in captured.err
    assert "(byte 0)" in captured.err


@pytest.mark.parametrize("text,field", [
    ('{"type":"separator","vertices":[4.7]}', "'vertices'"),
    ('{"type":"separator","vertices":"4"}', "'vertices'"),
    ('{"type":"separator","vertices":[true,4]}', "'vertices'"),
    ('{"type":"separator","vertices":[1,true]}', "'vertices'"),
    ('{"type":"separator","vertices":[1,1.0]}', "'vertices'"),
    ('{"type":"separator","vertices":[36893488147419103232]}', "'vertices'"),
    ('{"type":"witness","h":true,"branches":[[0]]}', "'h'"),
    ('{"type":"witness","h":3.9,"branches":[[0],[1],[2]]}', "'h'"),
    ('{"type":"witness","h":3,"branches":[[0],[1.0],[2]]}', "'branches'"),
    ('{"type":"witness","h":3,"branches":{"0":[0]}}', "'branches'"),
    ('{"type":"witness","h":-4,"branches":[]}', "'h'"),
    ('{"type":"witness","h":0,"branches":[]}', "'h'"),
    ('{"type":"witness","h":2,"branches":[[0],[1]]}', "'h'"),
])
def test_verify_rejects_non_integer_fields(tmp_path, capsys, text, field):
    # each of these used to be accepted, truncated or coerced into a
    # valid-looking certificate
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "9", "--out", str(graph))
    capsys.readouterr()
    cert = tmp_path / "c.json"
    cert.write_text(text)
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "certificate valid" not in captured.out
    assert captured.err.startswith("error:") and field in captured.err


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"type":"separator","vertices":[' + "7" * 5000 + "]}",
    '{"type":"witness","h":' + "7" * 5000 + ',"branches":[]}',
], ids=["nested_too_deep", "vertex_past_digit_limit", "h_past_digit_limit"])
def test_verify_undecodable_certificates_are_input_errors(tmp_path, capsys, text):
    # these ended in a RecursionError or ValueError traceback and exit 1,
    # the code for an invalid certificate
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "5", "--out", str(graph))
    capsys.readouterr()
    cert = tmp_path / "c.json"
    cert.write_text(text)
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "certificate" not in captured.out
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1


def test_verify_failure_lines_stay_short(tmp_path, capsys):
    # 3000 singleton branches on path 3000 miss 4,495,501 branch pairs; the
    # check counts them and lists ten, so no printed line nears the 60 MB
    # that listing them all took
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "3000", "--out", str(graph))
    capsys.readouterr()
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(
        {"type": "witness", "h": 3000, "branches": [[v] for v in range(3000)]}))
    assert run("verify", "--input", str(graph),
               "--certificate", str(cert)) == EXIT_CERT_INVALID
    out = capsys.readouterr().out
    assert "FAIL pairwise_adjacent: missing edges between 4495501 pairs; first 10: " in out
    assert max(len(line.encode()) for line in out.splitlines()) < 1024


@pytest.mark.parametrize("payload,code", [
    ({"type": "witness", "h": "x" * 2**20, "branches": []}, EXIT_INPUT),
    ({"type": ["x" * 2**20], "vertices": []}, EXIT_INPUT),
    ({"type": "witness", "h": 3, "branches": [[0]] * 3000}, EXIT_CERT_INVALID),
    ({"type": "witness", "h": 3, "branches": [[0, 2]] * 3000}, EXIT_CERT_INVALID),
], ids=["h_1mb_string", "type_1mb_list", "overlapping_3000", "disconnected_3000"])
def test_verify_echoes_no_unbounded_input(tmp_path, capsys, payload, code):
    # the error and detail lines name a type or list ten offenders with a
    # count, where they used to echo the whole value or every offender
    graph = tmp_path / "g.txt"
    run("gen", "--family", "path", "--params", "5", "--out", str(graph))
    capsys.readouterr()
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(payload))
    assert run("verify", "--input", str(graph), "--certificate", str(cert)) == code
    captured = capsys.readouterr()
    lines = (captured.out + captured.err).splitlines()
    assert lines and max(len(line.encode()) for line in lines) < 1024


# -- bench ------------------------------------------------------------------------

def test_bench_csv(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    code = run("bench", "--family", "grid", "--sizes", "16,25", "--h", "5",
               "--trials", "3", "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "n,trial,seed,separator_size,ratio,iterations,ms"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert first[0] == "16" and first[1] == "0"
    assert "." in first[4] and len(first[4].split(".")[1]) == 3
    out = capsys.readouterr().out
    assert "summary" in out and "n=16" in out and "median" in out


def test_bench_rejects_bad_grid_size(capsys):
    for family in ("grid", "torus"):
        assert run("bench", "--family", family, "--sizes", "15", "--h", "5") == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"error: {family} bench sizes must be perfect squares, got 15\n"


def test_bench_runs_every_family_it_can_size(capsys):
    for family, row in FAMILIES.items():
        code = run("bench", "--family", family, "--sizes", "16", "--h", "4", "--trials", "1")
        captured = capsys.readouterr()
        if row.bench is None:
            assert code == EXIT_INPUT, family
            assert captured.err == f"error: family {family!r} not supported by bench\n"
            assert "summary" not in captured.out
        else:
            assert code == 0, family
            assert captured.out.startswith("n=16 trial=0 size="), family


def test_bench_all_witnesses(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    assert run("bench", "--family", "complete", "--sizes", "9", "--h", "4",
               "--trials", "2", "--csv", str(csv)) == 0
    rows = [line.split(",") for line in csv.read_text().split("\n")[1:-1]]
    assert [row[3:5] for row in rows] == [["-1", "-1.000"]] * 2
    assert "n=9: all trials returned witnesses" in capsys.readouterr().out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_fewer_than_one_trial(capsys, trials):
    assert run("bench", "--family", "grid", "--sizes", "16", "--h", "5",
               "--trials", trials) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert "witnesses" not in captured.out


@pytest.mark.parametrize("sizes", ["16,x", "1e3", "", " , ", "16,0", "-4"])
def test_bench_rejects_bad_sizes(capsys, sizes):
    # "16,x" used to end in a ValueError traceback and "" to run nothing and exit 0
    assert run("bench", "--family", "grid", "--sizes", sizes, "--h", "5") == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "--sizes" in captured.err
    assert "summary" not in captured.out


def test_bench_rejects_a_gnp_size_beyond_an_int64_array(capsys):
    assert run("bench", "--family", "gnp", "--sizes", "100000000000000000000",
               "--h", "5") == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_bench_gnp_below_three_vertices(tmp_path, capsys):
    # bench picks p = 3/n, which used to exceed 1 below n = 3 and fail with
    # "gnp needs 0 <= p <= 1", a parameter bench users never set
    csv = tmp_path / "rows.csv"
    assert run("bench", "--family", "gnp", "--sizes", "1,2,3", "--h", "5",
               "--trials", "1", "--csv", str(csv)) == 0
    assert [line.split(",")[0] for line in csv.read_text().split("\n")[1:-1]] == ["1", "2", "3"]
    assert "error" not in capsys.readouterr().err


def test_bench_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        run("bench", "--family", "tree", "--sizes", "64", "--h", "4",
            "--trials", "2", "--seed", "6", "--csv", str(p))
    # times differ; everything else matches
    strip = lambda t: [",".join(line.split(",")[:6]) for line in t.strip().split("\n")]
    assert strip(a.read_text()) == strip(b.read_text())


# -- docs ---------------------------------------------------------------------

def test_readme_names_every_subcommand_option():
    """README's "Subcommands" bullets name exactly the parser's options."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("### Subcommands\n", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^- `(\w+)`(.*?)(?=^- `|\Z)", section, re.M | re.S)
    documented = {name: set(re.findall(r"`(--[a-z-]+)", body)) for name, body in bullets}
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in parser._actions for opt in action.option_strings
               if opt not in ("-h", "--help")}
        for name, parser in sub.choices.items()
    }
    assert documented == parsed


def test_readme_lists_every_stats_key(tmp_path):
    """README's report paragraph lists exactly the `stats` keys of a
    separator run and of a witness run, one bullet each."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("**Report** (`--json`).", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^- `(\w+)`: ", section, re.M)
    assert len(documented) == len(set(documented))
    rep = tmp_path / "r.json"
    for argv, code in ((["--gen", "grid:12,12", "--h", "5"], EXIT_SEPARATOR),
                       (["--gen", "complete:9", "--h", "4"], EXIT_WITNESS)):
        assert run("separate", *argv, "--json", str(rep)) == code
        assert set(documented) == set(json.loads(rep.read_text())["stats"]), argv


def test_readme_lists_every_outcome_field():
    """README's Library paragraph names exactly the fields of each outcome
    class, in the parentheses after its name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for cls in (BalancedSeparator, MinorWitness):
        listed = re.search(rf"`{cls.__name__}`\s+\(with\s+(.*?)\)", section, re.S).group(1)
        assert re.findall(r"`\.(\w+)", listed) == [f.name for f in dataclasses.fields(cls)]


def test_readme_family_docs_match_the_table():
    """README's family list, seeded families and bench families follow FAMILIES."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed, seeded = re.search(
        r"^Families: (.*?)\. Only (.*?) consumes? the seed\.", text, re.M | re.S).groups()
    assert re.findall(r"`(\w+)`", listed) == list(FAMILIES)
    assert set(re.findall(r"`(\w+)`", seeded)) == {f for f, row in FAMILIES.items() if row.seeded}
    bench = re.search(r"`--family` \(default (.*?)`--ell`", text, re.S).group(1)
    names = re.findall(r"`(\w+)`", bench)
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    default = next(a.default for a in sub.choices["bench"]._actions if a.dest == "family")
    assert names[0] == default
    assert sorted(names) == sorted(f for f, row in FAMILIES.items() if row.bench)

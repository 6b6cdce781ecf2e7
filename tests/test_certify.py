import random
import time

import pytest

from conftest import dense_induced
from ramseylb import certify, cli, constructions, graph, patterns
from ramseylb.certify import (
    CLIQUE_KN_LOWER,
    DETECTOR_VERSION,
    TABLE_ROWS,
    CertificateError,
    W5W6_KN_TABLE,
    W7_KN_TABLE,
    derived_row,
    verify,
    verify_ramsey_witness,
)
from ramseylb.coloring import TwoColoring, coloring_sha
from ramseylb.constructions import fan_construction
from ramseylb.oracle import oracle_contains
from ramseylb.patterns import parse_pattern


def test_verified_certificate():
    c = fan_construction(4, 4)
    cert = verify(c.coloring, c.red_target, c.blue_target)
    assert cert.verified and cert.result == "verified"
    assert cert.counterexample is None
    assert cert.order == 17
    assert cert.coloring_sha == coloring_sha(c.coloring)
    assert "/" in cert.detector_version


def test_refuted_certificate_counterexample_validates():
    # all-red K9 certainly contains a red fan:2
    coloring = TwoColoring(graph.complete(9))
    cert = verify(coloring, parse_pattern("fan:2"), parse_pattern("fan:2"))
    assert not cert.verified and cert.result == "refuted"
    ce = cert.counterexample
    assert ce["color"] == "red"
    assert patterns.check_embedding(
        coloring.red, parse_pattern("fan:2"), ce["vertices"]
    )
    # independent re-validation by the brute-force oracle
    mask = sum(1 << v for v in ce["vertices"])
    sub, _ = dense_induced(coloring.red, mask)
    assert oracle_contains(sub, parse_pattern("fan:2"))


# Hub counterexamples on seeded relabellings of constructions, checked
# against a target one size smaller on one colour. The embeddings pin the
# hub order and the rim found in each hub's neighbourhood; the orders 65
# and 69 put neighbourhood rows and matchings above one 64-bit word.
HUB_COUNTEREXAMPLES = [
    ("fan:7,6", "fan:6", "fan:6", "red",
     [0, 2, 6, 7, 9, 13, 14, 15, 17, 21, 22, 25, 27]),
    ("fan:7,6", "fan:7", "fan:5", "blue",
     [0, 1, 8, 3, 11, 4, 26, 10, 12, 16, 24]),
    ("wheel-even:12", "wheel:11", "wheel:12", "red",
     [0, 2, 7, 9, 15, 16, 18, 19, 20, 21, 25]),
    ("wheel-even:12", "wheel:12", "wheel:11", "blue",
     [0, 1, 3, 5, 4, 6, 8, 12, 10, 14, 11]),
    ("kipas-3mod4:7", "kipas:14", "kipas:15", "red",
     [0, 2, 4, 5, 6, 7, 9, 12, 14, 18, 23, 25, 28, 30]),
    ("kipas-3mod4:7", "kipas:15", "kipas:14", "blue",
     [1, 0, 16, 2, 17, 4, 19, 5, 21, 6, 26, 7, 31, 9]),
    ("fan:16,12", "fan:15", "fan:12", "red",
     [3, 5, 6, 8, 9, 12, 17, 18, 19, 20, 22, 23, 24, 28, 30, 31, 32, 34, 35, 36,
      38, 39, 41, 43, 44, 49, 51, 57, 59, 60, 61]),
    ("fan:16,12", "fan:16", "fan:11", "blue",
     [3, 0, 7, 1, 11, 2, 4, 10, 21, 13, 16, 14, 27, 15, 29, 25, 50, 33, 42, 37,
      52, 46, 62]),
    ("wheel-even:24", "wheel:23", "wheel:24", "red",
     [0, 1, 8, 11, 12, 13, 16, 23, 25, 29, 33, 36, 37, 38, 40, 43, 44, 52, 54, 56,
      59, 64, 66]),
    ("wheel-even:24", "wheel:24", "wheel:23", "blue",
     [0, 2, 5, 3, 9, 4, 10, 6, 14, 7, 15, 20, 17, 21, 18, 24, 19, 27, 22, 28, 26,
      30, 31]),
]


@pytest.mark.parametrize("family,red,blue,color,vertices", HUB_COUNTEREXAMPLES)
def test_hub_counterexample_embeddings(family, red, blue, color, vertices):
    base = constructions.build_from_spec(family).coloring.red
    perm = list(range(base.n))
    random.Random(family).shuffle(perm)
    moved = graph.Graph.from_edges(base.n, [(perm[u], perm[v]) for u, v in base.edges()])
    cert = verify(TwoColoring(moved), parse_pattern(red), parse_pattern(blue))
    assert cert.result == "refuted"
    assert cert.counterexample == {"color": color, "vertices": vertices}


def test_blue_counterexample():
    coloring = TwoColoring(graph.empty(5))
    cert = verify(coloring, parse_pattern("clique:3"), parse_pattern("clique:3"))
    assert cert.counterexample["color"] == "blue"


@pytest.mark.parametrize("family,red", [
    ("kipas-even:500", "kipas:1000"),  # a path rim on 999 vertices
    ("wheel-even:1100", "wheel:1099"),  # a cycle rim on 1098 vertices
])
def test_long_rims_refute_under_the_default_recursion_limit(family, red):
    # the path and cycle searches keep their own stack, one mask per rim
    # vertex, so a rim longer than the interpreter's recursion limit is found
    c = constructions.build_from_spec(family)
    start = time.perf_counter()
    ce = certify.counterexample(c.coloring, parse_pattern(red), c.blue_target)
    assert time.perf_counter() - start < 2
    assert ce["color"] == "red"
    assert patterns.check_embedding(c.coloring.red, parse_pattern(red), ce["vertices"])


def test_swap_consistency():
    coloring = TwoColoring(graph.cycle(5))
    a = verify(coloring, parse_pattern("clique:3"), parse_pattern("clique:3"))
    b = verify(TwoColoring(coloring.blue), parse_pattern("clique:3"), parse_pattern("clique:3"))
    assert a.verified == b.verified


def test_certificate_json_text():
    # key order, indent and the spelling of every field are the certificate
    # format; only elapsed_ms differs between runs. No command fills in
    # construction (null); a dict here pins how a nested field is indented
    cert = verify(
        TwoColoring(graph.complete(5)),
        parse_pattern("clique:3"),
        parse_pattern("wheel:5"),
    )
    cert.construction = {"family": "k5", "params": {"n": 5}}
    cert.elapsed_ms = 1.5
    assert cert.to_json() == """{
  "construction": {
    "family": "k5",
    "params": {
      "n": 5
    }
  },
  "order": 5,
  "red_target": "clique:3",
  "blue_target": "wheel:5",
  "result": "refuted",
  "counterexample": {
    "color": "red",
    "vertices": [
      4,
      3,
      2
    ]
  },
  "coloring_sha": "5983e6294dbff2d00afe34d60dc24bce1bf0029035113f1a16eee9b4924fe533",
  "elapsed_ms": 1.5,
  "detector_version": "%s"
}
""" % DETECTOR_VERSION


def test_verify_ramsey_witness():
    cert = verify_ramsey_witness(
        graph.circulant(13, {1, 5}),
        parse_pattern("clique:3"),
        parse_pattern("clique:5"),
    )
    assert cert.verified


def test_tables_reproduce(capsys):
    assert derived_row("w5w6") == W5W6_KN_TABLE
    assert derived_row("w7") == W7_KN_TABLE
    assert len(W5W6_KN_TABLE) + len(W7_KN_TABLE) == 17
    assert cli.main(["table", "all"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_derived_rows_formula():
    assert derived_row("w5w6")[5] == 2 * CLIQUE_KN_LOWER["k3"][5] - 1 == 27
    assert derived_row("w7")[10] == 2 * CLIQUE_KN_LOWER["k4me"][10] - 1 == 97
    # each row is derived from the clique table of the pair its wheels need
    assert {name: row[:2] for name, row in TABLE_ROWS.items()} == {
        "w5w6": ("k3", (5, 6)), "w7": ("k4me", (7,)),
    }


def test_table_mismatch_detected(monkeypatch, capsys):
    monkeypatch.setitem(CLIQUE_KN_LOWER["k3"], 5, 13)
    assert derived_row("w5w6")[5] == 25 != W5W6_KN_TABLE[5]
    assert cli.main(["table", "w5w6"]) == 1
    assert "MISMATCH at n = [5]" in capsys.readouterr().out


def test_invalid_embedding_raises(monkeypatch):
    # a detector that reports a triangle in an edgeless graph must not pass
    monkeypatch.setattr(patterns, "find_pattern", lambda g, spec: [0, 1, 2])
    coloring = TwoColoring(graph.empty(5))
    with pytest.raises(CertificateError):
        verify(coloring, parse_pattern("clique:3"), parse_pattern("clique:3"))

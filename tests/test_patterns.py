import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cone, matching_graph, matching_number, random_graph
from ramseylb import graph
from ramseylb.graph import Graph
from ramseylb.patterns import (
    PatternError,
    PatternSpec,
    check_embedding,
    contains_pattern,
    find_pattern,
    parse_pattern,
)


def fan_graph(n):
    return cone(matching_graph(n))


def wheel_graph(n):
    return cone(graph.cycle(n - 1))


def kipas_graph(n):
    return cone(graph.path(n - 1))


def test_parse_and_str():
    assert parse_pattern("fan:3") == PatternSpec("fan", 3)
    assert parse_pattern("k4me") == PatternSpec("k4me")
    assert str(parse_pattern("wheel:6")) == "wheel:6"
    assert str(parse_pattern("k4me")) == "k4me"
    for bad in ["fan", "fan:x", "blob:3", "wheel:3", "cycle:2", "k4me:2"]:
        with pytest.raises(PatternError):
            parse_pattern(bad)


def test_vertex_count():
    assert parse_pattern("fan:3").vertex_count == 7
    assert parse_pattern("matching:4").vertex_count == 8
    assert parse_pattern("k4me").vertex_count == 4
    assert parse_pattern("wheel:6").vertex_count == 6
    assert parse_pattern("kipas:5").vertex_count == 5
    assert parse_pattern("clique:4").vertex_count == 4


@pytest.mark.parametrize(
    "spec_text,builder",
    [
        ("fan:3", lambda: fan_graph(3)),
        ("wheel:6", lambda: wheel_graph(6)),
        ("kipas:5", lambda: kipas_graph(5)),
        ("clique:4", lambda: graph.complete(4)),
        ("cycle:5", lambda: graph.cycle(5)),
        ("path:4", lambda: graph.path(4)),
        ("matching:3", lambda: matching_graph(3)),
    ],
)
def test_detects_itself(spec_text, builder):
    spec = parse_pattern(spec_text)
    g = builder()
    witness = find_pattern(g, spec)
    assert witness is not None
    assert check_embedding(g, spec, witness)


def test_k4me_detection():
    spec = parse_pattern("k4me")
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = find_pattern(diamond, spec)
    assert w is not None and check_embedding(diamond, spec, w)
    assert not contains_pattern(graph.cycle(4), spec)
    assert contains_pattern(graph.complete(4), spec)


def test_exact_length_cycle():
    # C5 contains a 5-cycle but no 3- or 4-cycle
    g = graph.cycle(5)
    assert contains_pattern(g, parse_pattern("cycle:5"))
    assert not contains_pattern(g, parse_pattern("cycle:3"))
    assert not contains_pattern(g, parse_pattern("cycle:4"))


def test_exact_order_path():
    g = graph.path(4)
    assert contains_pattern(g, parse_pattern("path:4"))
    assert not contains_pattern(g, parse_pattern("path:5"))


def test_wheel_not_in_smaller_wheel():
    assert not contains_pattern(wheel_graph(6), parse_pattern("wheel:7"))
    # W7 contains K4? no; but the hub plus any cycle segment gives a kipas
    assert contains_pattern(wheel_graph(7), parse_pattern("kipas:6"))


def test_fan_needs_hub():
    # three independent edges without a hub: no fan:3
    assert not contains_pattern(matching_graph(3), parse_pattern("fan:3"))


def test_matching_number():
    assert matching_number(graph.path(5)) == 2
    assert matching_number(graph.complete(6)) == 3
    assert matching_number(graph.cycle(7)) == 3


def test_check_embedding_rejects():
    g = graph.complete(4)
    spec = parse_pattern("clique:3")
    assert check_embedding(g, spec, [0, 1, 2])
    assert not check_embedding(g, spec, [0, 1, 1])  # repeated
    assert not check_embedding(g, spec, [0, 1])  # wrong count
    assert not check_embedding(g, spec, [0, 1, 7])  # out of range
    g2 = graph.path(3)
    assert not check_embedding(g2, spec, [0, 1, 2])  # missing edge


@given(st.integers(1, 9), st.integers(0, 10 ** 9))
def test_supergraph_monotone(n, seed):
    # adding edges never destroys containment
    rng = random.Random(seed)
    g = random_graph(n, 0.4, rng)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not g.has_edge(u, v)
    ]
    bigger = Graph.from_edges(
        n, g.edges() + non_edges[: max(1, len(non_edges) // 2)]
    )
    for text in ["clique:3", "path:4", "cycle:4", "matching:2", "k4me"]:
        spec = parse_pattern(text)
        if contains_pattern(g, spec):
            assert contains_pattern(bigger, spec)

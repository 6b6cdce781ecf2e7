import random
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cone, matching_graph, random_graph
from ramseylb import graph
from ramseylb.graph import Graph
from ramseylb.oracle import (
    CONTAINS_ORDER_CAP,
    MATCHING_ORDER_CAP,
    OracleGuardError,
    _covers,
    _path_ends,
    oracle_contains,
    oracle_matching_number,
)
from ramseylb.patterns import parse_pattern


def test_known_answers():
    assert oracle_contains(graph.complete(4), parse_pattern("clique:4"))
    assert not oracle_contains(graph.cycle(5), parse_pattern("clique:3"))
    assert oracle_contains(cone(graph.cycle(5)), parse_pattern("wheel:6"))
    assert not oracle_contains(cone(graph.cycle(5)), parse_pattern("wheel:5"))
    assert oracle_contains(
        cone(matching_graph(2)), parse_pattern("fan:2")
    )
    assert oracle_contains(graph.path(6), parse_pattern("matching:3"))
    assert not oracle_contains(graph.path(5), parse_pattern("matching:3"))
    assert oracle_contains(cone(graph.path(4)), parse_pattern("kipas:5"))


def test_pattern_larger_than_graph():
    assert not oracle_contains(graph.complete(3), parse_pattern("clique:4"))


def test_guards():
    big = graph.empty(CONTAINS_ORDER_CAP + 1)
    with pytest.raises(OracleGuardError):
        oracle_contains(big, parse_pattern("clique:2"))
    with pytest.raises(OracleGuardError):
        oracle_matching_number(graph.empty(MATCHING_ORDER_CAP + 1))


def test_matching_oracle():
    assert oracle_matching_number(graph.empty(4)) == 0
    assert oracle_matching_number(graph.complete(5)) == 2
    assert oracle_matching_number(graph.cycle(6)) == 3


def test_spot_agreement_with_detectors():
    from ramseylb.patterns import contains_pattern

    rng = random.Random(3)
    specs = [
        parse_pattern(t)
        for t in ["clique:3", "cycle:4", "path:5", "fan:2", "wheel:5",
                  "kipas:4", "matching:3", "k4me"]
    ]
    for _ in range(60):
        g = random_graph(8, rng.choice([0.3, 0.5, 0.7]), rng)
        for spec in specs:
            assert oracle_contains(g, spec) == contains_pattern(g, spec)


def graph_from_bits(n: int, bits: int) -> Graph:
    pairs = combinations(range(n), 2)
    return Graph.from_edges(n, [p for i, p in enumerate(pairs) if bits >> i & 1])


@given(st.integers(0, 6), st.integers(0, 2 ** 15 - 1))
def test_subset_dp_matches_permutations(n, bits):
    g = graph_from_bits(n, bits)

    def walks(order):
        return all(g.has_edge(a, b) for a, b in zip(order, order[1:]))

    for r in range(1, n + 1):
        for vs in combinations(range(n), r):
            paths = [p for p in permutations(vs) if walks(p)]
            ends = {vs.index(p[-1]) for p in paths}
            assert _path_ends(g, vs, (1 << r) - 1) == sum(1 << j for j in ends)
            assert _covers(g, vs, "path") == bool(paths)
            if r >= 3:
                closed = any(walks(p + p[:1]) for p in permutations(vs))
                assert _covers(g, vs, "cycle") == closed


@given(st.integers(0, 8), st.integers(0, 2 ** 28 - 1))
def test_matching_oracle_matches_disjoint_edge_sets(n, bits):
    g = graph_from_bits(n, bits)
    edges = g.edges()
    best = max(
        r
        for r in range(n // 2 + 1)
        if any(len({v for e in es for v in e}) == 2 * r for es in combinations(edges, r))
    )
    assert oracle_matching_number(g) == best

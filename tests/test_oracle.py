import random

import pytest

from conftest import cone, matching_graph, random_graph
from ramseylb import graph
from ramseylb.oracle import (
    CONTAINS_ORDER_CAP,
    MATCHING_ORDER_CAP,
    OracleGuardError,
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

import random

from hypothesis import given
from hypothesis import strategies as st

from conftest import matching_graph, matching_number, random_graph, reference_matching
from ramseylb import graph
from ramseylb.matching import matching_edges, maximum_matching
from ramseylb.oracle import oracle_matching_number


def test_small_cases():
    assert matching_number(graph.empty(5)) == 0
    assert matching_number(graph.path(2)) == 1
    assert matching_number(graph.path(5)) == 2
    assert matching_number(graph.complete(6)) == 3
    assert matching_number(graph.complete(7)) == 3
    assert matching_number(graph.cycle(7)) == 3
    assert matching_number(graph.cycle(9)) == 4
    assert matching_number(matching_graph(4)) == 4
    k35 = graph.compose(graph.complete(2), [graph.empty(3), graph.empty(5)])
    assert matching_number(k35) == 3


def test_blossom_case():
    # two triangles joined by a bridge: needs blossom handling
    g = graph.Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    )
    assert matching_number(g) == 3


def test_petersen():
    g = graph.circulant(10, {2})  # two 5-cycles
    assert matching_number(g) == 4


def test_matching_edges_are_disjoint():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng.randrange(1, 13), 0.4, rng)
        pairs = matching_edges(g)
        used = [v for e in pairs for v in e]
        assert len(set(used)) == len(used)
        assert all(g.has_edge(a, b) for a, b in pairs)
        assert len(pairs) == matching_number(g)


def test_against_oracle():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng.randrange(0, 13), rng.choice([0.2, 0.5, 0.8]), rng)
        assert matching_number(g) == oracle_matching_number(g)


def test_maximum_matching_array():
    g = graph.path(4)
    match = maximum_matching(g)
    assert sum(1 for v in match if v >= 0) == 4
    for v, u in enumerate(match):
        if u >= 0:
            assert match[u] == v and g.has_edge(u, v)


@given(st.integers(0, 16), st.sampled_from([0.1, 0.3, 0.5, 0.8]), st.integers(0, 10 ** 9))
def test_greedy_start_keeps_the_matching(n, p, seed):
    # the greedy start skips only BFS runs whose result it already knows
    g = random_graph(n, p, random.Random(seed))
    assert maximum_matching(g) == reference_matching(g)

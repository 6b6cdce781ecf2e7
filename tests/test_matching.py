import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    matching_graph,
    matching_number,
    random_graph,
    reference_matching,
    relabelled,
    twin_representatives,
    with_planted_twins,
)
from ramseylb import graph, matching
from ramseylb.certify import counterexample
from ramseylb.constructions import build_from_spec
from ramseylb.graph import induced_by_mask
from ramseylb.matching import _twin_matching_number, matching_edges, maximum_matching
from ramseylb.oracle import oracle_matching_number
from ramseylb.patterns import fan


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
        nu = matching_number(g)
        pairs = matching_edges(g, nu)
        used = [v for e in pairs for v in e]
        assert len(set(used)) == len(used)
        assert all(g.has_edge(a, b) for a, b in pairs)
        assert len(pairs) == nu
        assert matching_edges(g, nu + 1) is None


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


# ---------------------------------------------------------------------------
# the twin-class quotient


def assert_quotient_exact(g, reference=matching_number):
    """The quotient gives g's matching number exactly, and it runs exactly
    when g's non-isolated vertices fall in k twin classes with 2^k at most
    their number (or in none)."""
    active = sum(1 for row in g.masks() if row)
    classes = sum(1 for v in twin_representatives(g) if g.masks()[v])
    nu = _twin_matching_number(g)
    assert (nu is None) == (classes > 0 and 2 ** classes > active)
    if nu is not None:
        assert nu == reference(g)
    return nu


@given(st.integers(1, 5), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10 ** 9))
def test_quotient_on_compositions(k, p, seed):
    rng = random.Random(seed)
    pattern = random_graph(k, p, rng)
    parts = [rng.choice([graph.complete, graph.empty])(rng.randrange(1, 9))
             for _ in range(k)]
    assert_quotient_exact(graph.compose(pattern, parts))


@given(st.integers(1, 5), st.integers(0, 14), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(0, 10 ** 9))
def test_quotient_on_planted_twins(n, copies, p, seed):
    rng = random.Random(seed)
    assert_quotient_exact(with_planted_twins(random_graph(n, p, rng), copies, rng))


def test_quotient_against_oracle():
    rng = random.Random(13)
    applied = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        base = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        g = with_planted_twins(base, rng.randrange(0, 13 - n), rng)
        applied += assert_quotient_exact(g, oracle_matching_number) is not None
    assert applied > 100


def test_blossom_stopped_at_nu_keeps_the_matching():
    # a root loop that stops once the matching holds nu pairs returns the
    # match array of the full loop, on compositions and planted twins in a
    # shuffled numbering, where the quotient gives nu
    rng = random.Random(31)
    decided = 0
    for _ in range(400):
        k = rng.randrange(1, 6)
        pattern = random_graph(k, rng.choice([0.2, 0.5, 0.8]), rng)
        if rng.random() < 0.5:
            parts = [rng.choice([graph.complete, graph.empty])(rng.randrange(1, 9))
                     for _ in range(k)]
            g = graph.compose(pattern, parts)
        else:
            g = with_planted_twins(pattern, rng.randrange(0, 14), rng)
        g = relabelled(g, rng)
        nu = _twin_matching_number(g)
        if nu is None:
            continue
        decided += 1
        full = maximum_matching(g)
        assert sum(1 for v in full if v >= 0) == 2 * nu
        assert maximum_matching(g, nu) == full
    assert decided > 200


@pytest.mark.parametrize("family", ["fan:10,8", "fan:16,12", "fan:24,18"])
def test_quotient_on_ladder_fan_hubs(family):
    coloring = build_from_spec(family).coloring
    for g in (coloring.red, coloring.blue):
        for row in g.masks():
            assert assert_quotient_exact(induced_by_mask(g, row)) is not None


def test_blossom_never_runs_on_a_verified_fan(monkeypatch):
    def refuse(g, nu=None):
        raise AssertionError("blossom ran")

    monkeypatch.setattr(matching, "maximum_matching", refuse)
    for family in ("fan:10,8", "fan:24,18", "fan:240,192"):
        c = build_from_spec(family)
        assert counterexample(c.coloring, c.red_target, c.blue_target) is None
    monkeypatch.undo()
    # one size smaller on blue, the hub that holds the rim goes to blossom
    # and the embedding is the one blossom alone found
    pinned = {
        ("fan:10,8", 7): [0, 20, 38, 21, 39, 22, 40, 27, 34, 28, 35, 29, 36, 30, 37],
        ("fan:24,18", 17): [0, 48, 91, 49, 92, 50, 93, 51, 94, 52, 95, 53, 96, 54,
                            97, 55, 98, 65, 82, 66, 83, 67, 84, 68, 85, 69, 86, 70,
                            87, 71, 88, 72, 89, 73, 90],
    }
    for (family, m), vertices in pinned.items():
        construction = build_from_spec(family)
        found = counterexample(construction.coloring, construction.red_target, fan(m))
        assert found == {"color": "blue", "vertices": vertices}

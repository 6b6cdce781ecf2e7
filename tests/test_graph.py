import random
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    component_sizes,
    cone,
    degrees,
    is_bipartite,
    matching_graph,
    random_graph,
)
from ramseylb import graph
from ramseylb.graph import Graph


def test_basic_accessors():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert degrees(g) == [1, 2, 2, 1]
    assert g.edge_count() == 3
    assert g.edges() == [(0, 1), (1, 2), (2, 3)]
    assert g.masks() == (0b10, 0b101, 0b1010, 0b100)


def test_validation():
    with pytest.raises(ValueError, match="^negative order$"):
        Graph(-1, [])
    with pytest.raises(ValueError, match="^adjacency length does not match order$"):
        Graph(2, [0])
    with pytest.raises(ValueError):
        Graph(2, [0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops
    with pytest.raises(ValueError):
        Graph(1, [0b10])  # out-of-range bit
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_families():
    assert graph.empty(5).edge_count() == 0
    assert graph.complete(5).edge_count() == 10
    assert degrees(graph.complete(5)) == [4] * 5
    assert graph.path(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert degrees(graph.cycle(5)) == [2] * 5
    with pytest.raises(ValueError):
        graph.cycle(2)
    m = matching_graph(3)
    assert m.n == 6 and m.edges() == [(0, 1), (2, 3), (4, 5)]


def test_complete_multipartite():
    # a complete multipartite graph is K_k composed over k empty graphs
    g = graph.compose(graph.complete(2), [graph.empty(2), graph.empty(3)])
    assert g.n == 5 and g.edge_count() == 6
    assert not g.has_edge(0, 1) and g.has_edge(0, 2)
    assert is_bipartite(g)
    t = graph.compose(graph.complete(3), [graph.empty(2)] * 3)
    assert degrees(t) == [4] * 6


def test_circulant_and_regular():
    c = graph.circulant(13, {1, 5})
    assert degrees(c) == [4] * 13
    assert c.has_edge(0, 1) and c.has_edge(0, 5) and c.has_edge(0, 12)
    with pytest.raises(ValueError):
        graph.circulant(8, {5})
    for n, d in [(6, 3), (7, 4), (10, 5), (9, 0)]:
        assert degrees(graph.regular_graph(n, d)) == [d] * n
    with pytest.raises(ValueError):
        graph.regular_graph(7, 3)  # odd n*d
    with pytest.raises(ValueError, match="^degree 4 out of range for order 4$"):
        graph.regular_graph(4, 4)



@given(st.integers(1, 130), st.sets(st.integers(1, 65), max_size=5))
@example(2, {1})  # the offset n/2 gives one neighbour, not two
@example(64, {1, 32})
@example(65, {1, 32})
def test_circulant_matches_definition(n, offsets):
    # rows wider than a machine word, and the wrap-around at n - 1
    offsets = {s for s in offsets if s <= n // 2}
    c = graph.circulant(n, offsets)
    edges = [(u, (u + s) % n) for u in range(n) for s in offsets]
    assert c.masks() == Graph.from_edges(n, edges).masks() == Graph(n, c.masks()).masks()
    if n >= 3:
        cycle = Graph.from_edges(n, [(u, (u + 1) % n) for u in range(n)])
        assert graph.cycle(n).masks() == cycle.masks()
    path = Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])
    assert graph.path(n).masks() == path.masks()

def test_combinators():
    g = graph.path(3)
    h = graph.complete(2)
    # the disjoint union and the join of g and h
    u = graph.compose(graph.empty(2), [g, h])
    assert u.n == 5 and u.edge_count() == 3 and not u.has_edge(2, 3)
    j = graph.compose(graph.complete(2), [g, h])
    assert j.n == 5 and j.edge_count() == 2 + 1 + 6
    with pytest.raises(ValueError):
        graph.compose(graph.complete(2), [g])
    c = cone(graph.cycle(4))
    assert c.n == 5 and degrees(c)[4] == 4
    # the order is kept: vertex 3 has no neighbour inside the mask, 2 and 4
    # are outside it
    sub = graph.induced_by_mask(graph.cycle(5), 0b01011)
    assert sub.masks() == Graph.from_edges(5, [(0, 1)]).masks()
    with pytest.raises(ValueError):
        graph.induced_by_mask(graph.cycle(5), 1 << 5)
    with pytest.raises(ValueError):
        graph.induced_by_mask(graph.cycle(5), -1)


def test_blow_up():
    # the blow-up g[h] is g composed over g.n copies of h
    g = graph.path(2)  # single edge
    b = graph.compose(g, [graph.empty(3)] * 2)
    assert b.masks() == Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]).masks()
    b2 = graph.compose(graph.cycle(3), [graph.complete(2)] * 3)
    assert b2.masks() == graph.complete(6).masks()


def test_components_and_bipartite():
    g = graph.compose(graph.empty(2), [graph.cycle(4), graph.path(3)])
    assert sorted(component_sizes(g)) == [3, 4]
    assert is_bipartite(g)
    assert not is_bipartite(graph.cycle(5))


@given(st.integers(0, 130), st.integers(0, 10 ** 9), st.integers(0, 5))
@example(0, 0, 0)
@example(1, 0, 4)
@example(64, 1, 4)
@example(65, 2, 5)
@example(130, 3, 1)
@example(130, 4, 3)
def test_induced_by_mask_matches_edges(n, seed, which):
    # rows wider than a machine word, and the masks at the edges of the row
    # string: empty, every vertex, one vertex, the top vertex n-1
    rng = random.Random(seed)
    g = random_graph(n, rng.choice([0.1, 0.5, 0.9]), rng)
    one = 1 << rng.randrange(n) if n else 0
    top = 1 << (n - 1) if n else 0
    mask = (0, (1 << n) - 1, rng.getrandbits(n), one, top, one | top)[which]
    # g's order and numbering: the edges inside the mask, and no others
    inside = [(u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1]
    assert graph.induced_by_mask(g, mask).masks() == Graph.from_edges(n, inside).masks()


@given(st.integers(0, 12), st.integers(0, 10 ** 9))
def test_complement_involution(n, seed):
    rng = random.Random(seed)
    g = random_graph(n, 0.5, rng)
    c = graph.complement(g)
    assert graph.complement(c).masks() == g.masks()
    assert g.edge_count() + c.edge_count() == n * (n - 1) // 2


@given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 10 ** 9))
def test_blow_up_order_and_degrees(gn, hn, seed):
    rng = random.Random(seed)
    g = random_graph(gn, 0.5, rng)
    h = random_graph(hn, 0.5, rng)
    b = graph.compose(g, [h] * gn)
    assert b.n == gn * hn
    assert degrees(b) == [h_deg + hn * g_deg for g_deg in degrees(g) for h_deg in degrees(h)]


@given(st.integers(0, 10 ** 9), st.lists(st.integers(0, 40), max_size=6))
@example(0, [])
@example(1, [0, 64, 1])
@example(2, [40, 40])
@example(3, [i % 3 for i in range(66)])
def test_compose_matches_definition(seed, sizes):
    # orders up to 240, past one machine word; empty parts included; a
    # pattern row past one machine word, with runs of adjacent blocks
    rng = random.Random(seed)
    pattern = random_graph(len(sizes), 0.5, rng)
    parts = [random_graph(s, rng.choice([0.1, 0.5, 0.9]), rng) for s in sizes]
    block = [i for i, s in enumerate(sizes) for _ in range(s)]
    start = list(accumulate(sizes, initial=0))
    n = len(block)
    # u ~ v: inside one part as in that part, across parts as in the pattern
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if (parts[block[u]].has_edge(u - start[block[u]], v - start[block[u]])
            if block[u] == block[v] else pattern.has_edge(block[u], block[v]))
    ]
    c = graph.compose(pattern, parts)
    assert c.masks() == Graph.from_edges(n, edges).masks() == Graph(n, c.masks()).masks()


@given(st.integers(2, 12))
def test_complement_of_regular_is_regular(n):
    g = graph.cycle(n) if n >= 3 else graph.complete(n)
    d = degrees(g)[0]
    assert degrees(graph.complement(g)) == [n - 1 - d] * n

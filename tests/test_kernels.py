"""Search kernels at and beyond the 64-vertex word size, the witness order
of the pruned clique, path and cycle searches, and their refutation bounds."""

import random
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    greedy_independent_bound,
    random_graph,
    reference_find_clique,
    reference_find_cycle,
    reference_find_path,
    reference_reachable,
    relabelled,
    twin_representatives,
    with_planted_twins,
)
from ramseylb import _pykernels, graph, kernels
from ramseylb.matching import maximum_matching
from ramseylb.oracle import oracle_contains
from ramseylb.patterns import parse_pattern


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_large_order():
    g = graph.cycle(70)
    adj = list(g.masks())
    assert _pykernels.find_cycle(70, adj, 70) == list(range(70))
    path = _pykernels.find_path(70, adj, 70)
    assert sorted(path) == list(range(70))
    assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
    assert g.has_edge(*_pykernels.find_clique(70, adj, 2))
    assert _pykernels.find_clique(70, adj, 3) is None
    assert _pykernels.find_k4me(70, adj) is None


def test_boundary_order_64():
    g = graph.complete(64)
    adj = list(g.masks())
    assert sorted(_pykernels.find_clique(64, adj, 64)) == list(range(64))
    assert sorted(_pykernels.find_cycle(64, adj, 64)) == list(range(64))
    assert sorted(_pykernels.find_path(64, adj, 64)) == list(range(64))


def test_clique_of_order_1100():
    # one explicit frame per clique vertex, so no recursion limit applies
    found = _pykernels.find_clique(1100, list(graph.complete(1100).masks()), 1100)
    assert sorted(found) == list(range(1100))


def test_path_of_order_1100():
    # the first branch is the path itself, returned before any bound runs
    # (53.6 s on a 2-core VM when every node of the search ran the bound)
    start = time.perf_counter()
    found = _pykernels.find_path(1100, list(graph.path(1100).masks()), 1100)
    assert time.perf_counter() - start < 1
    assert found == list(range(1100))


def _twinned_graph(n, seed, density, kind, part):
    """A random graph on n vertices: as drawn ("plain"), with up to n planted
    true or false twins ("twins"), or composed over parts of 1..part
    vertices that are all empty, all complete, or either ("mixed")."""
    rng = random.Random(seed)
    g = random_graph(n, density, rng)
    if kind == "plain":
        return g
    if kind == "twins":
        return with_planted_twins(g, rng.randrange(n + 1), rng)
    parts = []
    for _ in range(n):
        size = rng.randint(1, part)
        full = kind == "complete" or (kind == "mixed" and rng.random() < 0.5)
        parts.append(graph.complete(size) if full else graph.empty(size))
    return graph.compose(g, parts)


_KINDS = st.sampled_from(["plain", "twins", "empty", "complete", "mixed"])


@given(st.integers(0, 12), st.integers(0, 10 ** 9), st.floats(0.0, 1.0), _KINDS)
@example(4, 2, 1.0, "complete")  # classes of true twins
@example(4, 2, 1.0, "empty")  # classes of false twins
@example(3, 0, 0.0, "plain")  # no class at all
def test_twin_classes(n, seed, density, kind):
    g = _twinned_graph(n, seed, density, kind, 3)
    adj = list(g.masks())
    classes = _pykernels.twin_classes(adj)
    active = [v for v in range(g.n) if adj[v]]
    # a partition of the vertices with a neighbour, by least vertex
    assert sorted(v for _, members, _ in classes for v in _pykernels.bits(members)) == active
    assert [v for v, _, _ in classes] == [v for v in twin_representatives(g) if adj[v]]
    owner = {}
    for i, (least, members, clique) in enumerate(classes):
        assert members & -members == 1 << least
        # every member shares the class's open rows, or its closed rows
        shared = {adj[v] | (1 << v if clique else 0) for v in _pykernels.bits(members)}
        assert len(shared) == 1
        assert not clique or members.bit_count() >= 2
        # no two classes share an open or a closed row
        for v in _pykernels.bits(members):
            assert owner.setdefault(("open", adj[v]), i) == i
            assert owner.setdefault(("closed", adj[v] | 1 << v), i) == i


@given(st.integers(0, 12), st.integers(0, 10 ** 9), st.floats(0.0, 1.0), _KINDS)
@example(5, 2, 0.5, "empty")  # a clique not on the least vertex of each class
@example(5, 2, 0.5, "complete")  # cliques through whole true-twin classes
def test_clique_matches_the_recursive_search(n, seed, density, kind):
    # the twin quotient only refutes: any clique returned is the full search's
    g = _twinned_graph(n, seed, density, kind, 3)
    adj = list(g.masks())
    for k in range(10):
        assert _pykernels.find_clique(g.n, adj, k) == reference_find_clique(g.n, adj, k)


@given(st.integers(0, 7), st.integers(0, 10 ** 9), st.floats(0.0, 1.0), _KINDS)
def test_clique_containment_matches_the_oracle(n, seed, density, kind):
    g = _twinned_graph(n, seed, density, kind, 2)
    assert g.n <= 14
    adj = list(g.masks())
    for k in range(1, 10):
        found = _pykernels.find_clique(g.n, adj, k)
        assert (found is not None) == oracle_contains(g, parse_pattern(f"clique:{k}"))
        if found is not None:
            assert len(set(found)) == k
            assert all(g.has_edge(u, v) for i, u in enumerate(found) for v in found[i + 1:])


def _first_path(n, adj, order):
    """The first path on `order` vertices in plain depth-first order (starts
    and neighbours ascending), without pruning."""
    if order > n:  # no path has more vertices than the graph
        return None

    def extend(path):
        if len(path) == order:
            return path
        for u in range(n):
            if adj[path[-1]] >> u & 1 and u not in path:
                found = extend(path + [u])
                if found:
                    return found
        return None

    for s in range(n):
        found = extend([s])
        if found:
            return found
    return None


def _first_cycle(n, adj, length):
    """The first cycle on `length` vertices in plain depth-first order: the
    least vertex as the start, neighbours ascending, without pruning."""
    if length < 3 or length > n:
        return None

    def extend(path):
        if len(path) == length:
            return path if adj[path[-1]] >> path[0] & 1 else None
        for u in range(path[0] + 1, n):
            if adj[path[-1]] >> u & 1 and u not in path:
                found = extend(path + [u])
                if found:
                    return found
        return None

    for s in range(n):
        found = extend([s])
        if found:
            return found
    return None


def _random_adj(n, seed, density, cut=False):
    """Adjacency rows of a random graph; with `cut`, vertex 0 is a planted
    cut vertex: every other edge stays inside one of two random groups."""
    rng = random.Random(seed)
    group = [rng.randrange(2) for _ in range(n)]
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density and not (cut and u and group[u] != group[v]):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


@given(st.integers(1, 9), st.integers(0, 10 ** 9), st.floats(0.2, 0.9), st.booleans())
def test_cycle_is_first_in_search_order(n, seed, density, cut):
    adj = _random_adj(n, seed, density, cut)
    for length in range(n + 2):
        assert _pykernels.find_cycle(n, adj, length) == _first_cycle(n, adj, length)


def test_scattered_refutes_through_a_cut_vertex():
    # three triangles sharing vertex 0: S = {0} leaves three edges, so no
    # cycle has 4 vertices and no path has 6, though each triangle is a
    # cycle and a path through 0 has 5
    adj = [0] * 7
    for a, b in ((1, 2), (3, 4), (5, 6)):
        for u, v in ((0, a), (0, b), (a, b)):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    full = (1 << 7) - 1
    assert _pykernels._scattered(adj, full, 4, True)
    assert not _pykernels._scattered(adj, full, 3, True)
    assert _pykernels._scattered(adj, full, 6, False)
    assert not _pykernels._scattered(adj, full, 5, False)


@given(st.integers(1, 9), st.integers(0, 10 ** 9), st.floats(0.1, 0.9), st.booleans())
@example(5, 0, 1.0, True)  # two cliques joined at vertex 0
def test_scattered_only_refutes_what_is_absent(n, seed, density, cut):
    adj = _random_adj(n, seed, density, cut)
    full = (1 << n) - 1
    for need in range(1, n + 2):
        if _pykernels._scattered(adj, full, need, True):
            assert _first_cycle(n, adj, need) is None
        if _pykernels._scattered(adj, full, need, False):
            assert _first_path(n, adj, need) is None


@given(st.integers(1, 12), st.integers(0, 10 ** 9), st.floats(0.0, 0.6),
       st.integers(0, 2 ** 12 - 1), st.integers(0, 2 ** 12 - 1), st.integers(0, 11))
@example(6, 1, 0.5, 0b000011, 0, 2)  # nothing allowed
@example(6, 1, 0.5, 0, 0b111110, 0)  # start outside allowed
@example(8, 3, 0.3, 0b10100000, 0b01011111, 7)  # start has a zero row
def test_reachable_matches_a_layered_bfs(n, seed, density, zero, allowed, start):
    # the vertices in `zero` lose every edge, so their rows are 0
    adj = _random_adj(n, seed, density)
    adj = [0 if zero >> v & 1 else row & ~zero for v, row in enumerate(adj)]
    allowed &= (1 << n) - 1
    start %= n
    assert _pykernels._reachable(adj, start, allowed) == reference_reachable(adj, start, allowed)


@given(st.integers(0, 10), st.integers(0, 10 ** 9), st.floats(0.0, 0.9),
       st.integers(0, 2 ** 10 - 1))
def test_independent_bound_decides_like_the_full_greedy(n, seed, density, avail):
    adj = _random_adj(n, seed, density)
    avail &= (1 << n) - 1
    bound = greedy_independent_bound(adj, avail)
    for need in range(n + 2):
        assert _pykernels._independent_bound(adj, avail, need) == (bound >= need)


@given(st.integers(1, 8), st.integers(0, 10 ** 9), st.floats(0.2, 0.9))
def test_path_is_first_in_search_order(n, seed, density):
    rng = random.Random(seed)
    g = graph.Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )
    adj = list(g.masks())
    for order in range(1, n + 2):
        assert _pykernels.find_path(n, adj, order) == _first_path(n, adj, order)


@settings(deadline=None)
@given(st.integers(0, 24), st.integers(0, 10 ** 9), st.floats(0.05, 0.9), st.booleans(),
       st.sampled_from([0.0, 0.25, 0.5]), st.sampled_from([None, "path", "cycle"]),
       st.booleans())
@example(24, 3, 0.3, True, 0.0, None, False)  # two random halves joined at vertex 0
@example(24, 5, 0.5, False, 0.5, None, False)  # about half the rows are padding
@example(12, 1, 0.2, False, 0.25, "path", False)  # the first branch is the planted path
@example(12, 1, 0.2, False, 0.25, "cycle", False)  # ... and the planted cycle
@example(14, 2, 0.15, False, 0.0, "cycle", True)  # the first branch stalls
def test_path_and_cycle_match_the_recursive_search(n, seed, density, cut, pad, plant, relabel):
    # with `cut`, vertex 0 is a planted cut vertex; each row is zeroed with
    # probability `pad`, as induced_by_mask pads a neighbourhood with rows of 0.
    # `plant` joins the vertices left in ascending order by a path or a cycle,
    # which the first branch of each search walks; `relabel` then renames the
    # vertices at random, so that the first branch mostly leaves the plant.
    rng = random.Random(seed)
    zero = sum(1 << v for v in range(n) if rng.random() < pad)
    adj = [0 if zero >> v & 1 else row & ~zero
           for v, row in enumerate(_random_adj(n, seed, density, cut))]
    if plant:
        kept = [v for v in range(n) if not zero >> v & 1]
        if plant == "cycle" and len(kept) >= 3:
            kept.append(kept[0])
        for u, v in zip(kept, kept[1:]):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    if relabel:
        adj = list(relabelled(graph.Graph(n, adj), rng).masks())
    for k in range(n + 2):
        assert _pykernels.find_path(n, adj, k) == reference_find_path(n, adj, k)
    # above 16 vertices, cycles near n vertices can take seconds to find or refute
    for k in range(n + 2 if n <= 16 else 13):
        assert _pykernels.find_cycle(n, adj, k) == reference_find_cycle(n, adj, k)


@given(st.integers(0, 10), st.integers(0, 10 ** 9), st.sampled_from([0.1, 0.3, 0.6]),
       st.booleans())
@example(10, 4, 0.3, True)  # vertex 0's component is bipartite, a later one is not
@example(10, 6, 0.3, True)  # the same, with two isolated vertices
def test_is_bipartite_matches_two_colourings(n, seed, density, split):
    # split keeps only edges inside two random vertex groups, so the graph is
    # disconnected; sparse draws leave isolated vertices
    rng = random.Random(seed)
    group = [rng.randrange(2) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < density and not (split and group[u] != group[v])]
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    two_colourable = any(all((c >> u ^ c >> v) & 1 for u, v in edges) for c in range(1 << n))
    assert _pykernels._is_bipartite(adj) == two_colourable


@given(st.integers(0, 9), st.integers(0, 10 ** 9), st.floats(0.1, 0.9), st.integers(0, 20),
       st.booleans())
@example(9, 1, 0.5, 11, False)  # N = 20, the largest
def test_kernels_ignore_vertices_without_neighbours(k, seed, density, spare, cut):
    # H on k vertices, placed by an increasing injection into range(N) with
    # N <= 20; every other row of the padded graph is 0. The kernels must
    # give H's answers mapped through the injection.
    rng = random.Random(seed)
    adj = _random_adj(k, seed, density, cut)
    big = k + min(spare, 20 - k)
    place = sorted(rng.sample(range(big), k))
    padded = [0] * big
    for v, row in enumerate(adj):
        padded[place[v]] = sum(1 << place[u] for u in _pykernels.bits(row))

    def mapped(found):
        return None if found is None else [place[v] for v in found]

    for length in range(k + 2):
        assert _pykernels.find_cycle(big, padded, length) == mapped(
            _pykernels.find_cycle(k, adj, length))
    for order in range(2, k + 2):
        assert _pykernels.find_path(big, padded, order) == mapped(
            _pykernels.find_path(k, adj, order))
    assert _pykernels._is_bipartite(padded) == _pykernels._is_bipartite(adj)
    match = maximum_matching(graph.Graph(k, adj))
    expected = [-1] * big
    for v, partner in enumerate(match):
        expected[place[v]] = -1 if partner == -1 else place[partner]
    assert maximum_matching(graph.Graph(big, padded)) == expected

"""Search kernels at and beyond the 64-vertex word size, and the witness
order of the pruned path search."""

import random

from hypothesis import example, given
from hypothesis import strategies as st

from ramseylb import _pykernels, graph, kernels


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


@given(st.integers(1, 8), st.integers(0, 10 ** 9), st.floats(0.2, 0.9))
def test_path_is_first_in_search_order(n, seed, density):
    rng = random.Random(seed)
    g = graph.Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
    )
    adj = list(g.masks())
    for order in range(1, n + 2):
        assert _pykernels.find_path(n, adj, order) == _first_path(n, adj, order)


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
    assert _pykernels._is_bipartite(n, adj) == two_colourable

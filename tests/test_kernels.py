"""Search kernels at and beyond the 64-vertex word size."""

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

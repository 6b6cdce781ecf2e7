"""Graph-level entry points to the search kernels.

Each function unpacks a Graph into the (n, adj) bitmask form that the
kernels in _pykernels take, and returns their witness vertex list or None.
"""

from __future__ import annotations

from . import _pykernels
from .graph import Graph

BACKEND = "python"


def find_clique(g: Graph, k: int):
    return _pykernels.find_clique(g.n, g.masks(), k)


def find_cycle(g: Graph, length: int):
    return _pykernels.find_cycle(g.n, g.masks(), length)


def find_path(g: Graph, order: int):
    return _pykernels.find_path(g.n, g.masks(), order)


def find_k4me(g: Graph):
    return _pykernels.find_k4me(g.n, g.masks())

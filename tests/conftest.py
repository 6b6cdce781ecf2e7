import random

from ramseylb._pykernels import _reachable
from ramseylb.graph import Graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def component_sizes(g: Graph) -> list[int]:
    """Vertex counts of the connected components, in order of lowest vertex."""
    adj = g.masks()
    unseen = (1 << g.n) - 1
    sizes = []
    while unseen:
        comp = _reachable(adj, (unseen & -unseen).bit_length() - 1, unseen)
        sizes.append(comp.bit_count())
        unseen &= ~comp
    return sizes

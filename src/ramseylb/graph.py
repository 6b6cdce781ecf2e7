"""Immutable simple graphs over dense vertex indices, with the families and
combinators the extremal constructions use: complement, circulants and
`compose`, the one builder that joins blocks. Disjoint unions, joins,
blow-ups and complete multipartite graphs are each a composition over a
small pattern graph.

Adjacency is stored as one integer bitmask per vertex, which is what the
search kernels consume directly.
"""

from __future__ import annotations

from itertools import accumulate
from collections.abc import Iterable, Sequence

from ._pykernels import bits


class Graph:
    """Finite simple undirected graph on vertices 0..n-1. Immutable."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise ValueError("negative order")
        if len(adj) != n:
            raise ValueError("adjacency length does not match order")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
            if row & ~full:
                raise ValueError(f"adjacency bit out of range at vertex {v}")
        for v in range(n):
            for u in bits(adj[v]):
                if not adj[u] & (1 << v):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _trusted(cls, n: int, adj: Sequence[int]) -> "Graph":
        """A graph from rows that are symmetric, loop-free and in range by
        construction; the checks in __init__ are skipped."""
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._trusted(n, adj)

    def masks(self) -> tuple[int, ...]:
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] & (1 << v))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            higher = self._adj[u] >> (u + 1)
            for d in bits(higher):
                out.append((u, u + 1 + d))
        return out


# ---------------------------------------------------------------------------
# basic families


def empty(n: int) -> Graph:
    return Graph._trusted(n, [0] * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._trusted(n, [full ^ (1 << v) for v in range(n)])


def path(n: int) -> Graph:
    # vertex i's row holds i - 1 and i + 1, where they exist
    return Graph._trusted(n, [(1 << i >> 1 | 2 << i) & ~(1 << n) for i in range(n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return circulant(n, {1})


def circulant(n: int, connections: Iterable[int]) -> Graph:
    row0 = 0  # the neighbours of vertex 0; vertex u's row is row0 rotated by u
    for s in connections:
        if not 1 <= s <= n // 2:
            raise ValueError(f"circulant offset {s} out of range 1..{n // 2}")
        row0 |= 1 << s | 1 << (n - s)
    full = (1 << n) - 1
    return Graph._trusted(n, [(row0 << u | row0 >> (n - u)) & full for u in range(n)])


def regular_graph(n: int, d: int) -> Graph:
    """Canonical d-regular graph on n vertices (circulant realization)."""
    if not 0 <= d < n:
        raise ValueError(f"degree {d} out of range for order {n}")
    if n * d % 2 != 0:
        raise ValueError(f"no {d}-regular graph on {n} vertices: n*d is odd")
    offsets = set(range(1, d // 2 + 1))
    if d % 2 == 1:
        offsets.add(n // 2)
    return circulant(n, offsets)


# ---------------------------------------------------------------------------
# combinators


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph._trusted(
        g.n, [full & ~(row | (1 << v)) for v, row in enumerate(g.masks())]
    )


def compose(pattern: Graph, parts: Sequence[Graph]) -> Graph:
    """The generalized composition pattern[parts[0], ..., parts[k-1]]
    (Schwenk 1974). parts[i] takes the i-th run of consecutive vertices,
    its block; a vertex's row is its part's row shifted to the block start,
    ORed with the span of every block adjacent to block i in `pattern`."""
    if len(parts) != pattern.n:
        raise ValueError(f"{len(parts)} parts for a pattern of order {pattern.n}")
    starts = list(accumulate((h.n for h in parts), initial=0))
    adj = []
    for h, start, row in zip(parts, starts, pattern.masks()):
        cross = 0
        for j in bits(row):
            cross |= (1 << starts[j + 1]) - (1 << starts[j])
        adj += [part_row << start | cross for part_row in h.masks()]
    return Graph._trusted(starts[-1], adj)


def induced_by_mask(g: Graph, mask: int) -> Graph:
    """Induced subgraph on the vertices of `mask`, in g's own vertex numbers:
    a vertex in `mask` keeps its row ANDed with `mask`, every other row is 0."""
    n = g.n
    if mask < 0 or mask >> n:
        raise ValueError(f"vertex mask {mask:#x} out of range for order {n}")
    return Graph._trusted(
        n, [row & mask if mask >> v & 1 else 0 for v, row in enumerate(g.masks())]
    )

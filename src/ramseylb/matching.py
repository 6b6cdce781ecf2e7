"""Maximum matching in general graphs via augmenting paths with blossom
contraction. Bipartite-only augmenting is not enough here: the detectors run
this inside neighborhoods of wheel-like graphs, which are full of odd cycles.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

from ._pykernels import bit_flags
from .graph import Graph


def maximum_matching(g: Graph) -> list[int]:
    """match[v] = partner of v, or -1 if unmatched."""
    n = g.n
    vertices = range(n)
    nbrs = [list(compress(vertices, bit_flags(row))) for row in g.masks()]
    # a vertex with no neighbour is never matched, nor in a blossom
    active = [v for v in range(n) if nbrs[v]]
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    blossom = [False] * n

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        a = base[a]
        while True:
            seen[a] = True
            if match[a] == -1:
                break
            a = base[p[match[a]]]
        b = base[b]
        while not seen[b]:
            b = base[p[match[b]]]
        return b

    def mark_path(v: int, b: int, child: int) -> None:
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting_path(root: int) -> bool:
        used[:] = [False] * n
        p[:] = [-1] * n
        base[:] = range(n)
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in nbrs[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom[:] = [False] * n
                    mark_path(v, curbase, to)
                    mark_path(to, curbase, v)
                    for i in active:
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    # A root with an unmatched neighbour is matched to the least one, with
    # no BFS: the BFS scans the root's neighbours in order and augments at
    # the first unmatched one, so the matching is the same.
    for v in active:
        if match[v] == -1:
            for to in nbrs[v]:
                if match[to] == -1:
                    match[v] = to
                    match[to] = v
                    break
            else:
                find_augmenting_path(v)
    return match


def matching_edges(g: Graph) -> list[tuple[int, int]]:
    match = maximum_matching(g)
    return [(v, match[v]) for v in range(g.n) if match[v] > v]

"""Maximum matching in general graphs via augmenting paths with blossom
contraction. Bipartite-only augmenting is not enough here: the detectors run
this inside neighborhoods of wheel-like graphs, which are full of odd cycles.

`matching_edges` first tries to refute a matching from g's twin classes
(`_pykernels.twin_classes`). By Tutte-Berge (Berge 1958),
nu(g) = min over U of (|V| + |U| - odd(g - U)) / 2, and the Gallai-Edmonds
set A(g) attains the minimum. Every automorphism fixes A(g), so A(g) is a
union of whole classes: the minimum over the 2^k unions of the k classes
is nu(g) exactly. Each union's odd components are counted on the k-node
quotient, which is O(k * 2^k) work; it runs only when 2^k is at most the
number of non-isolated vertices, so it costs no more than one blossom
set-up. The hubs searched in the paper's fan colorings have 2 or 4
classes. A matching that the quotient does not refute comes from blossom,
so every embedding found is blossom's.
"""

from __future__ import annotations

from collections import deque
from itertools import compress

from ._pykernels import bit_flags, twin_classes
from .graph import Graph


def maximum_matching(g: Graph, nu: int | None = None) -> list[int]:
    """match[v] = partner of v, or -1 if unmatched. Given nu(g), the root
    loop stops once the matching holds nu pairs: no later root augments a
    maximum matching (Berge), and a failed search writes nothing to `match`,
    so the result is the full loop's."""
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
    pairs = 0
    for v in active:
        if pairs == nu:
            break
        if match[v] == -1:
            for to in nbrs[v]:
                if match[to] == -1:
                    match[v] = to
                    match[to] = v
                    pairs += 1
                    break
            else:
                pairs += find_augmenting_path(v)
    return match


def _twin_matching_number(g: Graph) -> int | None:
    """nu(g) from the twin classes of its non-isolated vertices, or None when
    they fall in k >= 1 classes with 2^k above their number."""
    rows = g.masks()
    classes = twin_classes(rows)
    k = len(classes)
    sizes = [members.bit_count() for _, members, _ in classes]
    active = sum(sizes)
    if k and 1 << k > active:
        return None
    reps = [v for v, _, _ in classes]
    # classes are wholly adjacent or wholly apart
    near = [sum(1 << j for j, u in enumerate(reps) if rows[v] >> u & 1) for v in reps]
    # odd components a class makes with no class left beside it
    lone = [size & 1 if clique else size for size, (_, _, clique) in zip(sizes, classes)]
    total = [0] * (1 << k)  # vertices in each union of classes
    reach = [0] * (1 << k)  # classes adjacent to some class of the union
    for union in range(1, 1 << k):
        low = union & -union
        i = low.bit_length() - 1
        total[union] = total[union ^ low] + sizes[i]
        reach[union] = reach[union ^ low] | near[i]
    odd = [0] * (1 << k)  # odd components of g on each union of classes
    for left in range(1, 1 << k):
        comp, grown = 0, left & -left
        while grown != comp:  # the component of the lowest class in `left`
            comp = grown
            grown = (comp | reach[comp]) & left
        # two or more classes joined are one component of their summed size
        one = total[comp] & 1 if comp & (comp - 1) else lone[comp.bit_length() - 1]
        odd[left] = odd[left ^ comp] + one
    full = (1 << k) - 1
    return min(active + total[full ^ left] - odd[left] for left in range(1 << k)) // 2


def matching_edges(g: Graph, need: int) -> list[tuple[int, int]] | None:
    """The first `need` pairs of blossom's maximum matching, or None when
    nu(g) < need, with no blossom when the twin classes show it."""
    nu = _twin_matching_number(g)
    if nu is not None and nu < need:
        return None
    match = maximum_matching(g, nu)
    pairs = [(v, match[v]) for v in range(g.n) if match[v] > v]
    return pairs[:need] if len(pairs) >= need else None

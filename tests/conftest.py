import random
from collections import deque
from itertools import combinations

from ramseylb._pykernels import _is_bipartite, _reachable
from ramseylb.coloring import RbcFormatError, TwoColoring
from ramseylb.graph import Graph, bits
from ramseylb.matching import maximum_matching
from ramseylb.patterns import _find_plain


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


def reference_reachable(adj, start: int, allowed: int) -> int:
    """Reference for `_pykernels._reachable`: a plain BFS over vertex
    numbers, one layer at a time until a layer adds nothing. `start` is
    reached whether or not it is allowed."""
    seen = {start}
    layer = [start]
    while layer:
        nxt = []
        for v in layer:
            for u in range(len(adj)):
                if adj[v] >> u & 1 and allowed >> u & 1 and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = nxt
    return sum(1 << v for v in seen)


def reference_matching(g: Graph) -> list[int]:
    """Reference blossom for `matching.maximum_matching`: an augmenting-path
    BFS from every unmatched vertex, with no greedy start. The matching
    returned must be the same, not only as large."""
    n = g.n
    nbrs = [list(bits(row)) for row in g.masks()]
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
                    for i in range(n):
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

    # a vertex with no neighbour is never matched
    for v in range(n):
        if match[v] == -1 and nbrs[v]:
            find_augmenting_path(v)
    return match


def degrees(g: Graph) -> list[int]:
    return [g.degree(v) for v in range(g.n)]


def is_bipartite(g: Graph) -> bool:
    return _is_bipartite(g.masks())


def cone(g: Graph) -> Graph:
    """K1 + g: a new last vertex adjacent to every vertex of g."""
    hub = g.n
    return Graph.from_edges(g.n + 1, g.edges() + [(v, hub) for v in range(hub)])


def matching_graph(n: int) -> Graph:
    """nK2: n independent edges on 2n vertices."""
    return Graph.from_edges(2 * n, [(2 * i, 2 * i + 1) for i in range(n)])


def matching_number(g: Graph) -> int:
    return sum(1 for v in maximum_matching(g) if v != -1) // 2


def target_copies(adj, spec) -> int:
    """Copies of a clique:k or k4me target in the graph with adjacency rows
    `adj`, by brute force: a K4 holds 6 copies of K4-e, one per missing pair."""
    def all_edges(pairs):
        return all(adj[u] >> v & 1 for u, v in pairs)

    n = len(adj)
    if spec.kind == "clique":
        cliques = combinations(range(n), spec.size)
        return sum(all_edges(combinations(vs, 2)) for vs in cliques)
    return sum(
        all_edges(p for p in combinations(vs, 2) if p != gap)
        for vs in combinations(range(n), 4)
        for gap in combinations(vs, 2)
    )


def dense_induced(g: Graph, mask: int) -> tuple[Graph, list[int]]:
    """The subgraph induced on `mask`, renumbered 0..k-1 in vertex order,
    and the list that maps its vertices back to g's."""
    vs = [v for v in range(g.n) if mask >> v & 1]
    index = {v: i for i, v in enumerate(vs)}
    inside = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph.from_edges(len(vs), inside), vs


def find_pattern_all_hubs(g: Graph, spec):
    """find_pattern for a hub pattern with every vertex tried as the hub, in
    order, each neighbourhood renumbered densely: the search before hubs
    were taken one per twin class and searched in g's own numbers."""
    rim = spec.rim
    for v in range(g.n):
        mask = g.adj_mask(v)
        if mask.bit_count() < rim.vertex_count:
            continue
        sub, vs = dense_induced(g, mask)
        found = _find_plain(sub, rim)
        if found is not None:
            return [v] + [vs[i] for i in found]
    return None


def twin_representatives(g: Graph) -> list[int]:
    """The vertices with no lower-indexed twin: no u < v with the same open
    neighbourhood or the same closed neighbourhood."""
    row = g.adj_mask
    return [
        v for v in range(g.n)
        if not any(row(u) == row(v) or row(u) | 1 << u == row(v) | 1 << v
                   for u in range(v))
    ]


def greedy_independent_bound(adj, avail) -> int:
    """Upper bound on the order of any path inside `avail`: a greedy
    independent set I, min degree within the rest first, gives the bound
    2*(|avail| - |I|) + 1. The greedy runs to the end; the reference for
    `_pykernels._independent_bound`, which stops once it can decide."""
    total = avail.bit_count()
    if total == 0:
        return 0
    picked = 0
    rest = avail
    while rest:
        best = -1
        best_deg = -1
        scan = rest
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            deg = (adj[v] & rest).bit_count()
            if best < 0 or deg < best_deg:
                best, best_deg = v, deg
        picked += 1
        rest &= ~(adj[best] | (1 << best))
    return min(total, 2 * (total - picked) + 1)


def reference_rbc(text: str) -> TwoColoring:
    """Reference .rbc parser: lines split at LF, an edge list, then
    `Graph.from_edges`. `from_rbc` must give the same rows or raise the
    same message."""
    order = None
    edges = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if order is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "rbc":
                raise RbcFormatError(f"line {lineno}: expected 'rbc <N>' header")
            try:
                order = int(parts[1])
            except ValueError:
                raise RbcFormatError(f"line {lineno}: bad order {parts[1]!r}") from None
            if order < 0:
                raise RbcFormatError(f"line {lineno}: negative order")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise RbcFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise RbcFormatError(f"line {lineno}: bad edge {line!r}") from None
        if not (0 <= u < v < order):
            raise RbcFormatError(f"line {lineno}: edge ({u},{v}) out of range")
        edges.append((u, v))
    if order is None:
        raise RbcFormatError("missing 'rbc <N>' header")
    return TwoColoring(Graph.from_edges(order, edges))

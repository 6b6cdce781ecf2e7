import math
import random
from collections import deque
from functools import reduce
from itertools import combinations
from operator import or_

from ramseylb import witnesses
from ramseylb._pykernels import _independent_bound, _is_bipartite, _reachable, _scattered
from ramseylb.certify import counterexample
from ramseylb.coloring import RbcFormatError, TwoColoring
from ramseylb.graph import Graph, bits, complement
from ramseylb.graph6 import Graph6Error, _encode_order
from ramseylb.matching import maximum_matching
from ramseylb.patterns import _find_plain


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


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


def reference_find_clique(n, adj, k):
    """Reference for `_pykernels.find_clique`: the recursive branch and
    bound over all vertices, with no twin quotient. The clique returned
    must be the same, not only a clique."""
    if k <= 0:
        return []
    if k == 1:
        return [0] if n >= 1 else None
    if k > n:
        return None
    stack = []

    def expand(cand):
        depth = len(stack)
        if depth + cand.bit_count() < k:
            return False
        # greedy coloring of the candidates; color number bounds clique growth
        order = []
        colors = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                order.append(v)
                colors.append(color)
                avail &= ~(adj[v] | (1 << v))
                uncolored &= ~(1 << v)
        rest = cand
        for i in range(len(order) - 1, -1, -1):
            if depth + colors[i] < k:
                return False
            v = order[i]
            stack.append(v)
            if depth + 1 == k or expand(rest & adj[v]):
                return True
            stack.pop()
            rest &= ~(1 << v)
        return False

    if expand((1 << n) - 1):
        return list(stack)
    return None


def reference_find_cycle(n, adj, length):
    """Reference for `_pykernels.find_cycle`: the recursive search, one
    call per cycle vertex. The cycle returned must be the same, not only a
    cycle."""
    verts = reduce(or_, adj, 0)
    if length < 3 or length > verts.bit_count():
        return None
    if length % 2 == 1 and _is_bipartite(adj):
        return None
    if _scattered(adj, verts, length, True):
        return None
    path = []

    def dfs(s, v, used, depth):
        if depth == length:
            return bool(adj[v] & (1 << s))
        allowed = verts & ~used & (~0 << (s + 1))
        reach = _reachable(adj, v, allowed | (1 << s))
        if not reach & (1 << s):
            return False
        if (reach & allowed).bit_count() < length - depth:
            return False
        for u in bits(adj[v] & allowed):
            path.append(u)
            if dfs(s, u, used | (1 << u), depth + 1):
                return True
            path.pop()
        return False

    for s in bits(verts):
        path.append(s)
        if dfs(s, s, 1 << s, 1):
            return list(path)
        path.pop()
    return None


def reference_find_path(n, adj, order):
    """Reference for `_pykernels.find_path`: the recursive search, one call
    per path vertex, from every vertex with a neighbour once some component
    passes the independence bound. The path returned must be the same, not
    only a path."""
    if order < 1 or order > n:
        return None
    if order == 1:
        return [0]
    verts = reduce(or_, adj, 0)
    # root-level bound per connected component
    feasible = False
    unseen = verts
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        comp = _reachable(adj, start, unseen)
        unseen &= ~comp
        if _independent_bound(adj, comp, order):
            feasible = True
    if not feasible:
        return None
    path = []
    # A call's outcome depends only on (v, avail, rest) and fails for any larger
    # rest once it fails; skipping failed states keeps the first path found.
    failed = {}

    def dfs(v, used, depth):
        if depth == order:
            return True
        avail = _reachable(adj, v, verts & ~used) & ~used
        rest = order - depth
        if avail.bit_count() < rest or failed.get((v, avail), order) <= rest:
            return False
        if _independent_bound(adj, avail, rest):
            for u in bits(adj[v] & avail):
                path.append(u)
                if dfs(u, used | (1 << u), depth + 1):
                    return True
                path.pop()
        failed[(v, avail)] = rest
        return False

    for s in bits(verts):
        path.append(s)
        if dfs(s, 1 << s, 1):
            return list(path)
        path.pop()
    return None


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


def _reference_update_through(through, adj, spec, a: int, b: int) -> None:
    """Per-side through tables after ab was toggled: exact clique increments,
    and a `_flip_delta` rescore of every pair that can share a K4-e with ab."""
    ab = (1 << a) | (1 << b)
    if spec.kind == "k4me":
        common = adj[a] & adj[b]
        reach = 0
        for z in bits(common):
            reach |= adj[z]
        for x, other in ((a, b), (b, a)):
            for y in bits((adj[other] | reach) & ~ab):
                through[x][y] = through[y][x] = witnesses._flip_delta(adj, spec, x, y)
        zone = (adj[a] | adj[b]) & ~ab
        for x in bits(common):
            zone &= ~(1 << x)
            for y in bits(zone):
                through[x][y] = through[y][x] = witnesses._flip_delta(adj, spec, x, y)
        return
    k = spec.size
    sign = 1 if adj[a] >> b & 1 else -1
    common = adj[a] & adj[b]
    if k >= 3:
        for x, other in ((a, b), (b, a)):
            for y in bits(adj[other] & ~ab):
                inc = sign * witnesses._count_cliques_within(adj, common & adj[y], k - 3)
                through[x][y] += inc
                through[y][x] += inc
    if k >= 4:
        inside = list(bits(common))
        for i, x in enumerate(inside):
            for y in inside[i + 1:]:
                inc = sign * witnesses._count_cliques_within(
                    adj, common & adj[x] & adj[y], k - 4)
                through[x][y] += inc
                through[y][x] += inc


def reference_through_table(adj, spec) -> list[list[int]]:
    """through[u][v]: the target copies that use the pair uv as an edge, by
    `_flip_delta`. Symmetric, zero diagonal."""
    n = len(adj)
    through = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            through[u][v] = through[v][u] = witnesses._flip_delta(adj, spec, u, v)
    return through


def reference_tabu(order: int, avoid, avoid_complement, budget: int, seed: int):
    """Reference for `witnesses.tabu_search_witness` on valid arguments: a
    Python scan over every pair at each step, in `random.shuffle`'s order,
    on per-side n x n through tables and an n x n tenure table, from a
    brute-force start objective. The witness returned must be the same
    graph, not only a witness."""
    rng = random.Random(seed)
    n = order
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    cadj = list(complement(Graph(n, adj)).masks())

    def finish():
        g = Graph(n, adj)
        return None if counterexample(TwoColoring(g), avoid, avoid_complement) else g

    red = reference_through_table(adj, avoid)
    blue = reference_through_table(cadj, avoid_complement)
    current = target_copies(adj, avoid) + target_copies(cadj, avoid_complement)
    best_seen = current
    tabu_until = [[0] * n for _ in range(n)]
    for step in range(budget):
        if current == 0:
            found = finish()
            if found is not None:
                return found
        best_move = None
        best_obj = math.inf
        ranked = list(pairs)
        rng.shuffle(ranked)
        for u, v in ranked:
            if adj[u] >> v & 1:
                cand = current - red[u][v] + blue[u][v]
            else:
                cand = current + red[u][v] - blue[u][v]
            if cand < best_obj and (tabu_until[u][v] <= step or cand < best_seen):
                best_obj = cand
                best_move = (u, v)
        if best_move is None:
            continue
        u, v = best_move
        for rows in (adj, cadj):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        _reference_update_through(red, adj, avoid, u, v)
        _reference_update_through(blue, cadj, avoid_complement, u, v)
        current = best_obj
        best_seen = min(best_seen, current)
        tabu_until[u][v] = step + 7 + rng.randrange(8)
    if current == 0:
        return finish()
    return None


def degrees(g: Graph) -> list[int]:
    return [row.bit_count() for row in g.masks()]


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
    for v, mask in enumerate(g.masks()):
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
    row = g.masks()
    return [
        v for v in range(g.n)
        if not any(row[u] == row[v] or row[u] | 1 << u == row[v] | 1 << v
                   for u in range(v))
    ]


def reference_hub_independent(g: Graph) -> int:
    """Mask of the independent set that `find_pattern` prunes hubs with,
    grouped here from neighbourhood sets. Each vertex with a neighbour joins
    the group of the least earlier vertex with the same open or the same
    closed neighbourhood. An independent group offers all its vertices, a
    clique group its least; offers are taken most vertices first, then least
    degree, then least vertex, when no vertex taken is adjacent to them."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    groups = {}
    for v in range(g.n):
        if nbrs[v]:
            rep = next((u for u in groups
                        if nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}), v)
            groups.setdefault(rep, []).append(v)
    offers = [vs[:1] if len(vs) > 1 and g.has_edge(vs[0], vs[1]) else vs
              for vs in groups.values()]
    offers.sort(key=lambda vs: (-len(vs), len(nbrs[vs[0]]), vs[0]))
    taken = set()
    for vs in offers:
        if not nbrs[vs[0]] & taken:
            taken.update(vs)
    return sum(1 << v for v in taken)


def with_planted_twins(g: Graph, copies: int, rng: random.Random) -> Graph:
    """g plus `copies` new vertices, each a true or a false twin of a random
    earlier vertex at the time it is added."""
    nbrs = [{u for u in range(g.n) if g.has_edge(u, v)} for v in range(g.n)]
    for _ in range(copies):
        u, w = rng.randrange(len(nbrs)), len(nbrs)
        nbrs.append(nbrs[u] | ({u} if rng.random() < 0.5 else set()))
        for x in nbrs[w]:
            nbrs[x].add(w)
    edges = [(u, v) for v, row in enumerate(nbrs) for u in row if u < v]
    return Graph.from_edges(len(nbrs), edges)


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
                order = _reference_number(parts[1])
            except ValueError:
                raise RbcFormatError(f"line {lineno}: bad order {parts[1]!r}") from None
            continue
        parts = line.split()
        if len(parts) != 2:
            raise RbcFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = _reference_number(parts[0]), _reference_number(parts[1])
        except ValueError:
            raise RbcFormatError(f"line {lineno}: bad edge {line!r}") from None
        if not (0 <= u < v < order):
            raise RbcFormatError(f"line {lineno}: edge ({u},{v}) out of range")
        edges.append((u, v))
    if order is None:
        raise RbcFormatError("missing 'rbc <N>' header")
    return TwoColoring(Graph.from_edges(order, edges))


def _reference_number(token: str) -> int:
    """A vertex number or order: digits 0-9, after at most one leading +."""
    digits = token[1:] if token.startswith("+") else token
    if not digits or any(c not in "0123456789" for c in digits):
        raise ValueError(token)
    return int(digits)


def reference_to_graph6(g: Graph) -> str:
    """Reference graph6 writer: one `has_edge` per pair, column by column,
    six bits to a character. `to_graph6` must write the same text."""
    n = g.n
    out = bytearray(_encode_order(n))
    acc = 0
    nbits = 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (1 if g.has_edge(row, col) else 0)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc = 0
                nbits = 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return out.decode("ascii")


def reference_from_graph6(text: str) -> Graph:
    """Reference graph6 reader: a flat bit list, an edge list, then
    `Graph.from_edges`, with no order limit. `from_graph6` must give the
    same graph or raise the same message, below `coloring.ORDER_LIMIT`."""
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 string")
    data = [ord(c) - 63 for c in text]
    if any(b < 0 or b > 63 for b in data):
        raise Graph6Error("character out of graph6 range")
    if data[0] == 63:
        if len(data) >= 4 and data[1] == 63:
            raise Graph6Error("graph6 orders above 258047 not supported")
        if len(data) < 4:
            raise Graph6Error("truncated graph6 order")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise Graph6Error(
            f"graph6 body has {len(body)} groups, expected {(need + 5) // 6}"
        )
    bits_flat = []
    for b in body:
        for shift in range(5, -1, -1):
            bits_flat.append((b >> shift) & 1)
    if any(bits_flat[need:]):
        raise Graph6Error("nonzero padding bits")
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits_flat[idx]:
                edges.append((row, col))
            idx += 1
    return Graph.from_edges(n, edges)

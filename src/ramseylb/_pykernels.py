"""Search kernels over bitmask adjacency.

All functions take (n, adj) where adj is a list of per-vertex neighbor
bitmasks, and return a witness vertex list or None. kernels.py adapts
them to Graph arguments. find_cycle, find_path and _is_bipartite skip
every vertex with no neighbour, so rows of 0 never change their answers.
find_clique refutes on the quotient of twin_classes first. find_path and
find_cycle first walk their search's leftmost branch and return it when it
completes, before any refutation work; the path and cycle searches bound
every node by _independent_bound and skip a node whose state has failed
before. All three search kernels walk explicit stacks, so no recursion
limit bounds them.
"""

from __future__ import annotations

from functools import reduce
from operator import or_


def bits(mask):
    """Iterate set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# maps the ASCII binary digits of bin() to the 0/1 flags compress() takes
_FLAGS = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask):
    """One 0/1 flag per bit of a mask, lowest first, to select with
    itertools.compress: `compress(range(n), bit_flags(mask))` is the
    ascending set bits of a mask below 1 << n."""
    return bin(mask)[:1:-1].encode("ascii").translate(_FLAGS)


# ---------------------------------------------------------------------------
# twin classes, and cliques: branch and bound with a greedy-coloring bound
# (Tomita style), first on the twin-class quotient


def twin_classes(adj):
    """The twin classes of the vertices that have a neighbour, in order of
    their least vertex, each as [least vertex, member mask, clique flag].

    u and v are false twins when N(u) = N(v): never adjacent, since u is
    not in N(u), so their class is independent. They are true twins when
    N[u] = N[v], and their class is a clique (flag True; a lone vertex's
    is False). Swapping two twins is an automorphism, so twins hold any
    pattern alike, and a vertex set that every automorphism fixes is a
    union of classes. No vertex has twins of both kinds, and N[v] never
    equals N(u), so one dict keyed by open and closed rows serves both."""
    index, classes = {}, []
    for v, row in enumerate(adj):
        if not row:
            continue
        bit = 1 << v
        i = index.get(row)  # an earlier false twin
        if i is None:
            i = index.get(row | bit)  # an earlier true twin
            if i is None:
                index[row] = index[row | bit] = len(classes)
                classes.append([v, bit, False])
                continue
            classes[i][2] = True
        classes[i][1] |= bit
    return classes


def find_clique(n, adj, k):
    """A k-clique as a vertex list, or None. A clique holds at most one
    vertex of an independent class of `twin_classes`, and the class's least
    can take its place, so a miss on the quotient of those least vertices
    and every clique class's members refutes the call. Any clique returned
    is the search's over all vertices."""
    if k <= 0:
        return []
    if k == 1:
        return [0] if n >= 1 else None
    if k > n:
        return None
    quotient = verts = 0
    for v, members, clique in twin_classes(adj):
        verts |= members
        quotient |= members if clique else 1 << v
    if quotient != verts and _clique_in(adj, k, quotient) is None:
        return None
    return _clique_in(adj, k, (1 << n) - 1)


def _clique_in(adj, k, cand):
    """The first k-clique inside `cand` in the branch and bound's order, or
    None. Each node greedily colours its candidates, and the colour count
    bounds how far a clique through them can grow; the candidates are then
    tried from the last coloured down. The search keeps one frame per
    clique vertex chosen: its colour order, its colours, the index of the
    next candidate and the candidates not yet tried (`rest`). The colour
    test is the only bound: a vertex of colour c has an untried neighbour
    in each lower colour, so the node it opens holds c - 1 candidates or more."""
    chosen = []
    frames = []
    while True:
        # enter a node whose candidates are `cand`, at depth len(chosen)
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
        frames.append([order, colors, len(order) - 1, cand])
        # branch on the next candidate of the deepest frame left
        while frames:
            frame = frames[-1]
            order, colors, i, rest = frame
            depth = len(frames) - 1
            if i < 0 or depth + colors[i] < k:
                frames.pop()
                if chosen:
                    chosen.pop()
                continue
            v = order[i]
            chosen.append(v)
            if depth + 1 == k:
                return chosen
            frame[2] = i - 1
            frame[3] = rest & ~(1 << v)
            cand = rest & adj[v]
            break
        else:
            return None


# ---------------------------------------------------------------------------
# K4-e: an edge whose endpoints share two common neighbors


def find_k4me(n, adj):
    for u in range(n):
        row = adj[u] >> (u + 1)
        for d in bits(row):
            v = u + 1 + d
            common = adj[u] & adj[v]
            if common.bit_count() >= 2:
                w = (common & -common).bit_length() - 1
                common &= common - 1
                x = (common & -common).bit_length() - 1
                return [u, v, w, x]
    return None


# ---------------------------------------------------------------------------
# shared pruning helpers


def _reachable(adj, start, allowed):
    """Bitmask of vertices reachable from `start` through `allowed`. The
    BFS stops once no allowed vertex is left unseen, since a further layer
    could reach nothing new."""
    seen = 1 << start
    frontier = seen
    left = allowed & ~seen
    while frontier and left:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & left
        seen |= frontier
        left ^= frontier
    return seen


def _independent_bound(adj, avail, need):
    """False when no path inside `avail` has `need` vertices: a greedy
    independent set I, a min-degree vertex first each time, bounds any
    path's order by 2*(|avail| - |I|) + 1. Returns as soon as the picks so
    far decide the bound: when the vertices left could not take the picks
    past the cap, or when the next pick must."""
    total = avail.bit_count()
    if total < need:
        return False
    # the bound reaches `need` exactly while at most `cap` vertices are picked
    cap = (2 * total + 1 - need) // 2
    picked = 0
    rest = avail
    while picked + rest.bit_count() > cap:
        if picked >= cap:
            return False
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
    return True


def _scattered(adj, avail, need, closed):
    """True when a scattering set S shows that `avail` holds no cycle
    (`closed`) or path on `need` vertices. Removing S cuts a cycle into at
    most max(|S|, 1) pieces and a path into at most |S| + 1, each inside
    one component of G - S, so a cycle or path has at most |S| plus the
    sizes of that many largest components (Chvátal 1973). S grows by
    greedy max-degree peeling until 2|S| >= need."""
    size = 0
    rest = avail
    while 2 * size < need:
        comps = []
        unseen = rest
        while unseen:
            comp = _reachable(adj, (unseen & -unseen).bit_length() - 1, unseen)
            comps.append(comp.bit_count())
            unseen &= ~comp
        comps.sort(reverse=True)
        pieces = max(size, 1) if closed else size + 1
        if size + sum(comps[:pieces]) < need:
            return True
        best = -1
        best_deg = -1
        scan = rest
        while scan:
            v = (scan & -scan).bit_length() - 1
            scan &= scan - 1
            deg = (adj[v] & rest).bit_count()
            if deg > best_deg:
                best, best_deg = v, deg
        rest &= ~(1 << best)
        size += 1
    return False


def _is_bipartite(adj):
    """Two-colour each component one BFS layer at a time: `side` holds the
    frontier's colour class, `other` the opposite one. A BFS edge joins the
    same or adjacent layers, so an odd cycle shows as a frontier neighbour
    inside `side`."""
    unseen = reduce(or_, adj, 0)
    while unseen:
        frontier = side = unseen & -unseen
        other = 0
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            if nxt & side:
                return False
            frontier = nxt & ~other
            side, other = other | frontier, side
        unseen &= ~(side | other)
    return True


def _first_branch(adj, verts, size):
    """The path and cycle searches' leftmost branch: a walk from the least
    vertex of `verts` that takes the least unused neighbour of its last
    vertex at each step, until it holds `size` vertices or has no step left.
    Each prune of those searches only cuts a node below which nothing
    completes, so a walk that completes is the rim the search returns."""
    if not verts:
        return []
    low = verts & -verts
    v = low.bit_length() - 1
    walk = [v]
    unused = verts ^ low
    while len(walk) < size:
        nxt = adj[v] & unused
        if not nxt:
            break
        low = nxt & -nxt
        v = low.bit_length() - 1
        walk.append(v)
        unused ^= low
    return walk


# ---------------------------------------------------------------------------
# exact-length cycles: backtracking with least-vertex canonical start


def find_cycle(n, adj, length):
    """A cycle with exactly `length` vertices (vertex list in cycle order,
    least vertex first), or None. The first branch is tried before any
    refutation work. Above a mask of the starts, the stack holds one mask
    of untried next vertices per path vertex. The rest of a cycle is a path
    on the `length - len(path)` vertices left, through unused vertices above
    the start that the last vertex reaches, and it ends next to the start;
    a node is cut unless those vertices hold a neighbour of the start and
    pass `_independent_bound`. A node's outcome depends only on the start,
    its last vertex, its reach and the exact path length (a cycle's rest is
    not monotone in it), so skipping failed states keeps the first cycle."""
    verts = reduce(or_, adj, 0)
    if length < 3 or length > verts.bit_count():
        return None
    walk = _first_branch(adj, verts, length)
    if len(walk) == length and adj[walk[-1]] >> walk[0] & 1:
        return walk
    if length % 2 == 1 and _is_bipartite(adj):
        return None
    if _scattered(adj, verts, length, True):
        return None
    path = []
    untried = [verts]
    used = 0
    states = []
    failed = set()
    while True:
        cand = untried[-1]
        if not cand:  # every next vertex tried: backtrack
            untried.pop()
            if not path:
                return None
            failed.add(states.pop())
            used ^= 1 << path.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        untried[-1] = cand & (cand - 1)
        path.append(v)
        used |= 1 << v
        s = path[0]
        nxt, state = 0, None  # a full-length path is not keyed: its last edge decides it
        if len(path) == length:
            if adj[v] >> s & 1:
                return path
        else:
            allowed = verts & ~used & (~0 << (s + 1))
            reach = _reachable(adj, v, allowed) & allowed
            state = (s, v, reach, len(path))
            if (state not in failed and reach & adj[s]
                    and _independent_bound(adj, reach, length - len(path))):
                nxt = adj[v] & allowed
        states.append(state)
        untried.append(nxt)


# ---------------------------------------------------------------------------
# exact-order paths: backtracking with component and independence bounds


def find_path(n, adj, order):
    """A path on exactly `order` vertices (vertex list in path order), or
    None. The first branch is tried before any refutation work. A path
    lies in one component, so the roots are the components whose
    independence bound reaches `order`. Above a mask of the roots, the
    stack holds one mask of untried next vertices per path vertex."""
    if order < 1 or order > n:
        return None
    if order == 1:
        return [0]
    unseen = reduce(or_, adj, 0)
    walk = _first_branch(adj, unseen, order)
    if len(walk) == order:
        return walk
    roots = 0
    while unseen:
        comp = _reachable(adj, (unseen & -unseen).bit_length() - 1, unseen)
        unseen &= ~comp
        if _independent_bound(adj, comp, order):
            roots |= comp
    path = []
    untried = [roots]
    used = 0
    # A node's outcome depends only on its state (v, avail) and the `rest`
    # of the order, and fails for any larger rest once it fails; skipping
    # failed states keeps the first path found.
    states = []
    failed = {}
    while True:
        cand = untried[-1]
        if not cand:  # every next vertex tried: backtrack
            untried.pop()
            if not path:
                return None
            state = states.pop()
            failed[state] = min(order - len(path), failed.get(state, order))
            used ^= 1 << path.pop()
            continue
        v = (cand & -cand).bit_length() - 1
        untried[-1] = cand & (cand - 1)
        path.append(v)
        used |= 1 << v
        rest = order - len(path)
        if not rest:
            return path
        avail = _reachable(adj, v, roots & ~used) & ~used
        states.append((v, avail))
        live = failed.get((v, avail), order) > rest and _independent_bound(adj, avail, rest)
        untried.append(adj[v] & avail if live else 0)

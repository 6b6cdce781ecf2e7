"""Base graphs for the blow-up constructions: bundled known Ramsey witness
graphs and a budget-bounded tabu search for new witnesses. Nothing is
trusted: `bundled_witness` re-checks every bundled graph, and the search
every graph it returns, with `certify.counterexample`.
"""

from __future__ import annotations

import random
from importlib import resources

from . import patterns
from .certify import counterexample
from .coloring import TwoColoring
from .graph import Graph, bits, circulant, complement
from .graph6 import from_graph6
from .patterns import PatternSpec

SEARCH_ORDER_CAP = 64


class WitnessError(ValueError):
    pass


class WitnessNotFoundError(WitnessError):
    pass


# ---------------------------------------------------------------------------
# bundled registry
#
# Pairs are keyed "k3" (triangle vs clique) and "k4me" (diamond vs clique).
# The classic circulant(13, {1, 5}) is built in code; anything else ships as
# a graph6 data file under data/witnesses/<pair>/<n>.g6. Every one is
# re-verified each time it is loaded, never trusted.

_PAIR_AVOID = {"k3": patterns.clique(3), "k4me": patterns.k4me()}


def _bundled_builtin(pair: str, n: int) -> Graph | None:
    if pair == "k3" and n == 5:
        return circulant(13, {1, 5})
    return None


def _bundled_file(pair: str, n: int) -> Graph | None:
    try:
        ref = resources.files("ramseylb").joinpath(f"data/witnesses/{pair}/{n}.g6")
        text = ref.read_text()
    except (FileNotFoundError, ModuleNotFoundError):
        return None
    return from_graph6(text)


def bundled_witness(pair: str, n: int) -> Graph:
    """The bundled (pair, K_n) witness, once `certify.counterexample` finds
    neither `pair`'s pattern in it nor K_n in its complement."""
    if pair not in _PAIR_AVOID:
        raise WitnessNotFoundError(f"unknown pattern pair {pair!r} (k3 or k4me)")
    graph = _bundled_builtin(pair, n)
    if graph is None:
        graph = _bundled_file(pair, n)
    if graph is None:
        raise WitnessNotFoundError(
            f"no bundled witness for ({pair}, n={n}); supply file or run search"
        )
    bad = counterexample(TwoColoring(graph), _PAIR_AVOID[pair], patterns.clique(n))
    if bad is not None:
        raise WitnessError(
            f"bundled witness {pair}k{n} failed re-verification: "
            f"{bad['color']} embedding {bad['vertices']}"
        )
    return graph


def parse_witness_key(key: str) -> tuple[str, int]:
    """Keys look like k3k5 or k4mek4."""
    for pair in ("k4me", "k3"):
        if key.startswith(pair) and key[len(pair):].startswith("k"):
            try:
                return pair, int(key[len(pair) + 1:])
            except ValueError:
                break
    raise WitnessNotFoundError(f"bad witness key {key!r} (expected e.g. k3k5)")


# ---------------------------------------------------------------------------
# tabu search
#
# Objective: exact count of violating embeddings (k-cliques or diamonds) on
# both sides; neighborhood is single edge flips; tabu tenure on recently
# flipped pairs with aspiration on improving the incumbent. A flip changes a
# side's count by the copies that use the flipped pair as an edge. Each side
# keeps that number for every pair in a table, built once; after a flip of
# ab only the pairs that share a copy with ab are touched: exact clique
# increments for clique:k, a rescore of the pairs near ab for k4me. The
# tables are the only count: the start objective is read off them, and a
# zero-objective graph is re-checked by `certify.counterexample`.


def _count_cliques_within(adj, sub: int, k: int) -> int:
    if k == 0:
        return 1
    if k == 1:
        return sub.bit_count()
    total = 0
    scan = sub
    while scan.bit_count() >= k:
        v = (scan & -scan).bit_length() - 1
        scan &= scan - 1
        # cliques whose lowest vertex is v: (k-1)-cliques among its
        # neighbours above it; for k = 2 just those neighbours
        above = adj[v] & scan
        if k == 2:
            total += above.bit_count()
        elif above.bit_count() >= k - 1:
            total += _count_cliques_within(adj, above, k - 1)
    return total


def _flip_delta(adj, spec: PatternSpec, u: int, v: int) -> int:
    """The number of target copies that use the pair uv as an edge: adding
    uv raises this side's count by it, removing uv lowers it by it. The
    count never reads whether uv itself is an edge, so it is the same before
    and after the toggle."""
    common = adj[u] & adj[v]
    if spec.kind == "clique":
        through = _count_cliques_within(adj, common, spec.size - 2)
    else:
        # k4me: C(c,2) copies with uv as the spine; with uv on the rim, the
        # spine is uw or vw for a common neighbour w, and the far tip is any
        # other common neighbour of the spine
        c = common.bit_count()
        through = c * (c - 1) // 2
        not_u, not_v = ~(1 << u), ~(1 << v)
        for w in bits(common):
            through += (adj[u] & adj[w] & not_v).bit_count()
            through += (adj[v] & adj[w] & not_u).bit_count()
    return through


def _through_table(adj, spec: PatternSpec) -> list[list[int]]:
    """through[u][v]: the target copies on this side that use the pair uv as
    an edge, as `_flip_delta` counts them. Symmetric, zero diagonal."""
    n = len(adj)
    through = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            through[u][v] = through[v][u] = _flip_delta(adj, spec, u, v)
    return through


def _table_copies(through, adj, spec: PatternSpec) -> int:
    """The target copies on this side, read off the table: the sum below meets
    each copy twice through each of its C(k,2) (clique:k) or 5 (k4me) edges."""
    total = sum(through[u][v] for u in range(len(adj)) for v in bits(adj[u]))
    per_copy = 5 if spec.kind == "k4me" else spec.size * (spec.size - 1) // 2
    # total is 0 at order 0, the one order where clique:1 (no edges) gets here
    return total // (2 * per_copy) if total else 0


def _update_through(through, adj, spec: PatternSpec, a: int, b: int) -> None:
    """Bring `through` up to date after the pair ab was toggled in `adj`;
    ab is an edge now if it was added. Only pairs that share a target copy
    with ab change, and none of the counts below read whether ab is an edge."""
    ab = (1 << a) | (1 << b)
    if spec.kind == "k4me":
        # a copy on xy that also uses ab either meets ab, or spans
        # {x, y, a, b} with x and y each adjacent to a or b: rescore those
        for x in (a, b):
            for y in range(len(adj)):
                if y != x:
                    through[x][y] = through[y][x] = _flip_delta(adj, spec, x, y)
        zone = list(bits((adj[a] | adj[b]) & ~ab))
        for i, x in enumerate(zone):
            for y in zone[i + 1:]:
                through[x][y] = through[y][x] = _flip_delta(adj, spec, x, y)
        return
    k = spec.size
    sign = 1 if adj[a] >> b & 1 else -1
    common = adj[a] & adj[b]
    # k-cliques on (a, y) through b, for y adjacent to b: b plus a
    # (k-3)-clique in N(a)∩N(b)∩N(y); symmetrically for (b, y)
    if k >= 3:
        for x, other in ((a, b), (b, a)):
            for y in bits(adj[other] & ~ab):
                inc = sign * _count_cliques_within(adj, common & adj[y], k - 3)
                through[x][y] += inc
                through[y][x] += inc
    # k-cliques on (x, y) through both a and b: x, y in N(a)∩N(b) plus a
    # (k-4)-clique in the common neighbourhood of all four
    if k >= 4:
        inside = list(bits(common))
        for i, x in enumerate(inside):
            for y in inside[i + 1:]:
                inc = sign * _count_cliques_within(adj, common & adj[x] & adj[y], k - 4)
                through[x][y] += inc
                through[y][x] += inc


def tabu_search_witness(
    order: int,
    avoid: PatternSpec,
    avoid_complement: PatternSpec,
    budget: int,
    seed: int,
) -> Graph | None:
    """Search for a graph on `order` vertices avoiding `avoid` whose
    complement avoids `avoid_complement`. Deterministic for a given seed;
    returns None when the budget runs out."""
    if order > SEARCH_ORDER_CAP:
        raise WitnessError(f"search order capped at {SEARCH_ORDER_CAP}, got {order}")
    if order < 0:
        raise WitnessError(f"search order must be non-negative, got {order}")
    if budget < 0:
        raise WitnessError(f"search budget must be non-negative, got {budget}")
    if order >= 1 and patterns.clique(1) in (avoid, avoid_complement):
        raise WitnessError(
            f"every graph on {order} vertices contains clique:1, so no witness exists"
        )
    for spec in (avoid, avoid_complement):
        if spec.kind not in ("clique", "k4me"):
            raise WitnessError(
                f"tabu search objective supports clique:k and k4me targets, not {spec}"
            )
    rng = random.Random(seed)
    n = order
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for u, v in pairs:
        if rng.random() < 0.5:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    cadj = list(complement(Graph(n, adj)).masks())

    def finish() -> Graph | None:
        g = Graph(n, adj)
        return None if counterexample(TwoColoring(g), avoid, avoid_complement) else g

    red = _through_table(adj, avoid)
    blue = _through_table(cadj, avoid_complement)
    current = (_table_copies(red, adj, avoid)
               + _table_copies(blue, cadj, avoid_complement))
    best_seen = current
    tabu_until: dict[tuple[int, int], int] = {}
    for step in range(budget):
        if current == 0:
            found = finish()
            if found is not None:
                return found
        order_pairs = pairs[:]
        rng.shuffle(order_pairs)
        best_move = None
        best_obj = None
        for u, v in order_pairs:
            # toggling: the red side loses or gains uv, the complement the
            # other way
            if adj[u] >> v & 1:
                cand = current - red[u][v] + blue[u][v]
            else:
                cand = current + red[u][v] - blue[u][v]
            is_tabu = tabu_until.get((u, v), -1) > step
            if is_tabu and cand >= best_seen:
                continue
            if best_obj is None or cand < best_obj:
                best_obj = cand
                best_move = (u, v)
        if best_move is None:
            continue
        u, v = best_move
        for rows in (adj, cadj):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        _update_through(red, adj, avoid, u, v)
        _update_through(blue, cadj, avoid_complement, u, v)
        current = best_obj
        best_seen = min(best_seen, current)
        tabu_until[(u, v)] = step + 7 + rng.randrange(8)
    if current == 0:
        return finish()
    return None

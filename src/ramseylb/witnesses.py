"""Base graphs for the blow-up constructions: bundled known Ramsey witness
graphs, `resolve_witness` (the one reader of a graph reference: a graph6
path or a registry key) and a budget-bounded tabu search for new witnesses.
No bundled graph is trusted: `bundled_witness` re-checks each one with
`certify.counterexample`. The search returns a graph once its exact
objective is zero, and `ramseylb search` checks it once, into its
certificate.
"""

from __future__ import annotations

import math
import os
import random
from collections import deque
from importlib import resources
from operator import itemgetter

from . import patterns
from .certify import counterexample
from .coloring import InputError, TwoColoring, read_count
from .graph import Graph, bits, circulant, complement
from .graph6 import from_graph6
from .patterns import PatternSpec

SEARCH_ORDER_CAP = 64


class WitnessError(InputError):
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

PAIR_AVOID = {"k3": patterns.clique(3), "k4me": patterns.k4me()}


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


def _bundled_graph(pair: str, n: int) -> Graph:
    if pair not in PAIR_AVOID:
        names = " or ".join(PAIR_AVOID)
        raise WitnessNotFoundError(f"unknown pattern pair {pair!r} ({names})")
    graph = _bundled_builtin(pair, n)
    if graph is None:
        graph = _bundled_file(pair, n)
    if graph is None:
        raise WitnessNotFoundError(
            f"no bundled witness for ({pair}, n={n}); supply file or run search"
        )
    return graph


def bundled_witness(pair: str, n: int) -> Graph:
    """The bundled (pair, K_n) witness, once `certify.counterexample` finds
    neither `pair`'s pattern in it nor K_n in its complement."""
    graph = _bundled_graph(pair, n)
    bad = counterexample(TwoColoring(graph), PAIR_AVOID[pair], patterns.clique(n))
    if bad is not None:
        raise WitnessError(
            f"bundled witness {pair}k{n} failed re-verification: "
            f"{bad['color']} embedding {bad['vertices']}"
        )
    return graph


def parse_witness_key(key: str) -> tuple[str, int]:
    """Keys look like k3k5 or k4mek4; n follows the .rbc numeral rule."""
    for pair in PAIR_AVOID:
        if key.startswith(pair) and key[len(pair):].startswith("k"):
            try:
                return pair, read_count(key[len(pair) + 1:])
            except ValueError:
                break
    raise WitnessNotFoundError(f"bad witness key {key!r} (expected e.g. k3k5)")


def resolve_witness(ref: str, recheck: bool = True) -> Graph:
    """A witness reference is a graph6 file path, read as UTF-8, or a
    registry key like k3k5, whose graph `bundled_witness` re-verifies. A
    ref that exists, ends in .g6 or holds a path separator is a path, so a
    missing file fails as one (FileNotFoundError), not as a bad key. A
    caller that checks the graph itself passes recheck=False, so a registry
    graph is not checked twice."""
    if ref.endswith(".g6") or os.path.dirname(ref) or os.path.exists(ref):
        with open(ref, encoding="utf-8") as fh:
            return from_graph6(fh.read())
    pair, n = parse_witness_key(ref)
    return bundled_witness(pair, n) if recheck else _bundled_graph(pair, n)


# ---------------------------------------------------------------------------
# tabu search
#
# Objective: exact count of violating embeddings (k-cliques or diamonds) on
# both sides; neighborhood is single edge flips; tabu tenure on recently
# flipped pairs with aspiration on improving the incumbent. gain[p] is the
# objective change from flipping pair p. One `_flip_delta` pass over the
# pairs gives the first gain and the start objective: its pruned recount is
# faster there than `_update_through`'s walk, which after a flip of ab adds
# exact increments only to the pairs that share a copy with ab. The objective
# is exact, so a graph that reaches zero is returned as it stands. Ties go to
# the first minimum in random.shuffle's order, drawn inline by `_shuffled`;
# one operator.itemgetter reads the gains in that order, so no Python-level
# call is made per pair. Tenure is a per-pair expiry step, looked up only for
# the pairs of the last 14 flips.


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


def _update_through(gain, pid, adj, spec: PatternSpec, a: int, b: int) -> None:
    """Add this side's gain changes after the pair ab was toggled in `adj`
    (an edge now if it was added): each pair xy gains the copies that use
    both xy and ab, + if ab was added, negated where xy is an edge on this
    side. No count below reads whether ab is an edge. Set bits are walked
    inline, lowest first (m & -m), with no call per vertex."""
    sign = 1 if adj[a] >> b & 1 else -1
    ab = (1 << a) | (1 << b)
    common = adj[a] & adj[b]
    na, nb = adj[a] & ~ab, adj[b] & ~ab
    pa, pb = pid[a], pid[b]
    if spec.kind == "k4me":
        # a copy on ay that uses ab is {a, b, y, z} missing one of by, az, bz,
        # yz: z in A∩B∩Y, or, when y ~ b, z in A∩B, A∩Y or B∩Y (A, B, Y: the
        # neighbours of a, b, y other than a and b); by symmetry for by
        c = common.bit_count()
        m = na | nb
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            ny = adj[y]
            t = (common & ny).bit_count()
            full = (t + c - (common >> y & 1) + (na & ny).bit_count()
                    + (nb & ny).bit_count())
            ya, yb = ny >> a & 1, ny >> b & 1
            gain[pa[y]] += (-sign if ya else sign) * (full if yb else t)
            gain[pb[y]] += (-sign if yb else sign) * (full if ya else t)
        # a y adjacent to neither a nor b gains t on ay and by: only t > 0
        m = ((1 << len(adj)) - 1) & ~(na | nb | ab) if common else 0
        while m:
            y = (m & -m).bit_length() - 1
            m &= m - 1
            inc = sign * (common & adj[y]).bit_count()
            if inc:
                gain[pa[y]] += inc
                gain[pb[y]] += inc
        # a copy spanning {a, b, x, y} with x, y off ab misses at most one of
        # ax, ay, bx, by: 4 copies if both are in A∩B, else 1 if one is and
        # the other is in A∪B; each pair once
        zone, m = na | nb, common
        while m:
            x = (m & -m).bit_length() - 1
            m &= m - 1
            zone &= ~(1 << x)
            px, nx, z = pid[x], adj[x], zone
            while z:
                y = (z & -z).bit_length() - 1
                z &= z - 1
                inc = sign * 4 if common >> y & 1 else sign
                gain[px[y]] += -inc if nx >> y & 1 else inc
        return
    # a k-clique through ab and ay is a, b, y ~ b and a (k-3)-clique of
    # C = N(a)∩N(b) adjacent to y (by alike); one through ab and xy, x and y
    # off ab, is x, y in C and a (k-4)-clique of C adjacent to both. One walk
    # visits each (k-4)-clique of C once as (cand, ys): the members of C above
    # its top vertex, and the vertices off ab, adjacent to all of it. cnt[y]
    # counts the (k-3)-cliques adjacent to y, for each y in hit
    k = spec.size
    if k < 3:
        return
    if k == 3:
        cnt, hit = [1] * len(adj), na | nb
    else:
        cnt, hit = [0] * len(adj), 0
        level = [(common, na | nb)]
        for _ in range(k - 4):
            deeper = []
            for cand, ys in level:
                while cand:
                    nv = adj[(cand & -cand).bit_length() - 1]
                    cand &= cand - 1
                    deeper.append((cand & nv, ys & nv))
            level = deeper
        for cand, ys in level:
            # this (k-4)-clique: one copy for each pair x < y of C adjacent to it
            m = ys & common
            while m:
                x = (m & -m).bit_length() - 1
                m &= m - 1
                px, nx, z = pid[x], adj[x], m
                while z:
                    y = (z & -z).bit_length() - 1
                    z &= z - 1
                    gain[px[y]] += -sign if nx >> y & 1 else sign
            # its extensions by each v in cand: one for each y adjacent to both
            while cand:
                m = ys & adj[(cand & -cand).bit_length() - 1]
                cand &= cand - 1
                hit |= m
                while m:
                    cnt[(m & -m).bit_length() - 1] += 1
                    m &= m - 1
    while hit:
        y = (hit & -hit).bit_length() - 1
        hit &= hit - 1
        ny, inc = adj[y], sign * cnt[y]
        if ny >> b & 1:
            gain[pa[y]] += -inc if ny >> a & 1 else inc
        if ny >> a & 1:
            gain[pb[y]] += -inc if ny >> b & 1 else inc


def _shuffle_draws(length: int) -> list[tuple[int, int]]:
    """(i, k) for each swap random.shuffle makes on a list of `length`:
    position i, from N-1 down to 1, and the k = (i + 1).bit_length() random
    bits each try of its _randbelow(i + 1) draws."""
    return [(i, (i + 1).bit_length()) for i in range(length - 1, 0, -1)]


def _shuffled(items, draws, getrandbits) -> list:
    """A copy of `items` in random.shuffle's order, from the same random
    numbers: shuffle's Fisher-Yates swaps with its _randbelow inlined, so
    no Python-level call is made per item."""
    out = list(items)
    for i, k in draws:
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        out[i], out[j] = out[j], out[i]
    return out


def tabu_search_witness(
    order: int,
    avoid: PatternSpec,
    avoid_complement: PatternSpec,
    budget: int,
    seed: int,
) -> Graph | None:
    """Search for a graph on `order` vertices avoiding `avoid` whose
    complement avoids `avoid_complement`. Deterministic for a given seed;
    returns the first graph whose exact count of copies on both sides is
    zero, unchecked by the detectors, or None when the budget runs out."""
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
    cadj = list(complement(Graph._trusted(n, adj)).masks())
    red = [_flip_delta(adj, avoid, u, v) for u, v in pairs]
    blue = [_flip_delta(cadj, avoid_complement, u, v) for u, v in pairs]
    edge = [adj[u] >> v & 1 for u, v in pairs]
    # gain[p]: the objective change from toggling pairs[p], on both sides
    gain = [b - r if e else r - b for r, b, e in zip(red, blue, edge)]
    # a side's counts over its own edges meet each copy once per edge of it;
    # a zero sum is 0 copies (clique:1, no edges, gets here at order 0)
    current = 0
    for through, side, spec in ((red, 1, avoid), (blue, 0, avoid_complement)):
        met = sum(t for t, e in zip(through, edge) if e == side)
        if met:
            current += met // (5 if spec.kind == "k4me" else math.comb(spec.size, 2))
    pid = [[0] * n for _ in range(n)]
    for p, (u, v) in enumerate(pairs):
        pid[u][v] = pid[v][u] = p
    best_seen = current
    # until[p]: the first step at which pair p is no longer tabu, set anew on
    # each flip; a tenure is at most 7 + 7 = 14 steps, so every tabu pair is
    # among the last 14 flipped
    until = [0] * len(pairs)
    recent = deque(maxlen=14)
    draws = _shuffle_draws(len(pairs))
    getrandbits = rng.getrandbits
    for step in range(budget):
        if current == 0:
            return Graph._trusted(n, adj)
        ranked = _shuffled(range(len(pairs)), draws, getrandbits)
        # a tabu pair is taken only if it beats the best objective seen; a
        # pair flipped twice among the recent is held once, at its last expiry
        held = {p: gain[p] for p in recent
                if until[p] > step and current + gain[p] >= best_seen}
        for p in held:
            gain[p] = math.inf
        # one C-level gather in ranked order; itemgetter of one index gives a
        # scalar and of none fails, and at most one pair is already in order
        vals = itemgetter(*ranked)(gain) if len(ranked) > 1 else tuple(gain)
        for p, g in held.items():
            gain[p] = g
        best = min(vals, default=math.inf)
        if best == math.inf:
            continue
        p = ranked[vals.index(best)]
        u, v = pairs[p]
        for rows in (adj, cadj):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        gain[p] = -gain[p]
        _update_through(gain, pid, adj, avoid, u, v)
        _update_through(gain, pid, cadj, avoid_complement, u, v)
        current += best
        best_seen = min(best_seen, current)
        until[p] = step + 7 + rng.randrange(8)
        recent.append(p)
    return Graph._trusted(n, adj) if current == 0 else None

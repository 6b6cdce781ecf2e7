"""Brute-force reference implementations, used in tests and for spot audits.

Deliberately naive: every vertex subset of the pattern's order is tested
against the pattern's definition. A hub pattern is K1 + rim (the oracle
keeps its own kind -> rim map), so a subset holds one when some vertex of it
is adjacent to all the others and those others hold the rim. Paths and
cycles through a subset come from one subset DP over the vertices visited
(Bellman 1962; Held & Karp 1962), and pair partitions from a recursion on
the first vertex. Shares no search code with the fast detectors; only Graph
accessors are used.
"""

from __future__ import annotations

from itertools import combinations

from .graph import Graph
from .patterns import PatternSpec

CONTAINS_ORDER_CAP = 16
MATCHING_ORDER_CAP = 14

# fan:n = K1 + nK2, wheel:n = K1 + C(n-1), kipas:n = K1 + P(n-1)
_HUB_RIM = {"fan": "matching", "wheel": "cycle", "kipas": "path"}

# vertices in kind:n, where that is not n
_ORDER = {"fan": lambda n: 2 * n + 1, "matching": lambda n: 2 * n, "k4me": lambda n: 4}


class OracleGuardError(ValueError):
    pass


def _pairable(g: Graph, vs: tuple[int, ...]) -> bool:
    """Can vs be partitioned into adjacent pairs?"""
    if not vs:
        return True
    a = vs[0]
    for i in range(1, len(vs)):
        if g.has_edge(a, vs[i]):
            rest = vs[1:i] + vs[i + 1 :]
            if _pairable(g, rest):
                return True
    return False


def _path_ends(g: Graph, vs: tuple[int, ...], starts: int) -> int:
    """Bitmask of the positions j such that some path through every vertex of
    vs starts at a position in the bitmask `starts` and ends at vs[j].
    ends[seen] holds the positions where a path through exactly the
    positions in `seen` can end."""
    near = [sum(1 << j for j, w in enumerate(vs) if g.has_edge(v, w)) for v in vs]
    ends = [0] * (1 << len(vs))
    for i in range(len(vs)):
        ends[1 << i] = starts & (1 << i)
    for seen in range(1, len(ends)):
        for j in range(len(vs)):
            if ends[seen] >> j & 1:
                free = near[j] & ~seen
                while free:
                    step = free & -free
                    ends[seen | step] |= step
                    free ^= step
    return ends[-1]


def _covers(g: Graph, vs: tuple[int, ...], kind: str) -> bool:
    """Does the pattern of this kind on len(vs) vertices embed in g using
    exactly the vertices vs?"""
    if kind in _HUB_RIM:
        return any(
            all(g.has_edge(hub, v) for v in vs if v != hub)
            and _covers(g, tuple(v for v in vs if v != hub), _HUB_RIM[kind])
            for hub in vs
        )
    if kind == "clique":
        return all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    if kind == "k4me":
        return sum(1 for a, b in combinations(vs, 2) if g.has_edge(a, b)) >= 5
    if kind == "matching":
        return _pairable(g, vs)
    if kind == "path":
        return _path_ends(g, vs, (1 << len(vs)) - 1) != 0
    # cycle: a path from vs[0] through every vertex that ends next to vs[0]
    ends = _path_ends(g, vs, 1)
    return any(ends >> j & 1 and g.has_edge(vs[0], w) for j, w in enumerate(vs))


def oracle_contains(g: Graph, spec: PatternSpec) -> bool:
    if g.n > CONTAINS_ORDER_CAP:
        raise OracleGuardError(
            f"oracle_contains limited to order {CONTAINS_ORDER_CAP}, got {g.n}"
        )
    order = _ORDER.get(spec.kind, lambda n: n)(spec.size)
    subsets = combinations(range(g.n), order)
    return any(_covers(g, vs, spec.kind) for vs in subsets)


def oracle_matching_number(g: Graph) -> int:
    """The largest m such that some 2m vertices split into m adjacent pairs."""
    if g.n > MATCHING_ORDER_CAP:
        raise OracleGuardError(
            f"oracle_matching_number limited to order {MATCHING_ORDER_CAP}, got {g.n}"
        )
    for m in range(g.n // 2, 0, -1):
        if any(_pairable(g, vs) for vs in combinations(range(g.n), 2 * m)):
            return m
    return 0

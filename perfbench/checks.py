"""Verdict checks that share no code with ramseylb.

Everything here is written from the documented formats alone: the `.rbc`
text format, graph6, the certificate JSON keys and the witness layouts of
each pattern. Nothing is imported from the package, so a detector bug
cannot hide behind a checker that calls the same detector.
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(Exception):
    """An artefact or verdict of the program disagrees with the benchmark."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# formats


def parse_rbc(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Order and red edge set of an `.rbc` text."""
    order = None
    red: set[tuple[int, int]] = set()
    for raw in text.split("\n"):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        fields = line.split()
        if order is None:
            require(len(fields) == 2 and fields[0] == "rbc", f"bad rbc header {line!r}")
            order = int(fields[1])
            continue
        require(len(fields) == 2, f"bad rbc edge line {line!r}")
        u, v = int(fields[0]), int(fields[1])
        require(0 <= u < v < order, f"rbc edge {u} {v} out of range")
        red.add((u, v))
    require(order is not None, "rbc text has no header")
    return order, red


def canonical_rbc(order: int, red: set[tuple[int, int]]) -> str:
    """Canonical `.rbc` text: header, then red edges in ascending order."""
    return "".join([f"rbc {order}\n"] + [f"{u} {v}\n" for u, v in sorted(red)])


def rbc_sha(order: int, red: set[tuple[int, int]]) -> str:
    return hashlib.sha256(canonical_rbc(order, red).encode("ascii")).hexdigest()


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Order and edge set of a short-form graph6 string (order <= 62)."""
    data = text.strip().encode("ascii")
    require(len(data) >= 1 and 63 <= data[0] <= 125, "graph6 order byte out of range")
    order = data[0] - 63
    bits = []
    for byte in data[1:]:
        require(63 <= byte <= 126, "graph6 byte out of range")
        value = byte - 63
        bits += [(value >> shift) & 1 for shift in range(5, -1, -1)]
    pairs = [(row, col) for col in range(1, order) for row in range(col)]
    require(len(bits) >= len(pairs), "graph6 string too short")
    return order, {pair for pair, bit in zip(pairs, bits) if bit}


# ---------------------------------------------------------------------------
# graphs as adjacency sets


def side(order: int, red: set[tuple[int, int]], colour: str) -> list[set[int]]:
    """Adjacency sets of the red graph, or of blue (every other pair)."""
    adj = [set() for _ in range(order)]
    for u in range(order):
        for v in range(u + 1, order):
            if ((u, v) in red) == (colour == "red"):
                adj[u].add(v)
                adj[v].add(u)
    return adj


def pattern_order(pattern: str) -> int:
    kind, _, size = pattern.partition(":")
    if kind == "k4me":
        return 4
    n = int(size)
    return 2 * n + 1 if kind == "fan" else n


def embedding_holds(adj: list[set[int]], pattern: str, vs: list[int]) -> bool:
    """Whether `vs`, in the documented witness layout of `pattern`, is a
    copy of the pattern in the graph `adj`, checked edge by edge."""
    if len(set(vs)) != len(vs) or len(vs) != pattern_order(pattern):
        return False
    if any(not 0 <= v < len(adj) for v in vs):
        return False
    kind = pattern.partition(":")[0]

    def edge(a, b):
        return b in adj[a]

    def ring(seq):
        return all(edge(seq[i], seq[(i + 1) % len(seq)]) for i in range(len(seq)))

    def line(seq):
        return all(edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))

    def pairs(seq):
        return all(edge(seq[i], seq[i + 1]) for i in range(0, len(seq), 2))

    if kind == "clique":
        return all(edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:])
    if kind == "cycle":
        return ring(vs)
    if kind == "path":
        return line(vs)
    if kind == "k4me":
        u, v, w, x = vs
        return edge(u, v) and all(edge(a, b) for a in (u, v) for b in (w, x))
    hub, rim = vs[0], vs[1:]
    if not all(edge(hub, v) for v in rim):
        return False
    return {"fan": pairs, "wheel": ring, "kipas": line}[kind](rim)


def has_clique(adj: list[set[int]], k: int) -> bool:
    """Plain extension search over ascending vertex lists."""

    def grow(cand: list[int], need: int) -> bool:
        if need == 0:
            return True
        for i, v in enumerate(cand):
            if len(cand) - i < need:
                return False
            if grow([u for u in cand[i + 1:] if u in adj[v]], need - 1):
                return True
        return False

    return grow(list(range(len(adj))), k)


def has_k4me(adj: list[set[int]]) -> bool:
    """A K4 minus an edge is an edge whose ends share two neighbours."""
    return any(
        len(adj[u] & adj[v]) >= 2 for u in range(len(adj)) for v in adj[u] if u < v
    )


def avoids(adj: list[set[int]], pattern: str) -> bool:
    """Only the witness-search targets are needed: clique:k and k4me."""
    if pattern == "k4me":
        return not has_k4me(adj)
    kind, _, size = pattern.partition(":")
    require(kind == "clique", f"no independent avoidance check for {pattern}")
    return not has_clique(adj, int(size))


# ---------------------------------------------------------------------------
# certificates


def check_certificate(
    text: str,
    order: int,
    red: set[tuple[int, int]],
    red_target: str,
    blue_target: str,
    expect: str,
) -> None:
    """`expect` is "verified", "refuted:red" or "refuted:blue". A refutation's
    counterexample is re-checked edge by edge against the coloring."""
    cert = json.loads(text)
    require(cert["order"] == order, f"certificate order {cert['order']} != {order}")
    require(cert["red_target"] == red_target, "certificate red target differs")
    require(cert["blue_target"] == blue_target, "certificate blue target differs")
    require(cert["coloring_sha"] == rbc_sha(order, red), "coloring_sha differs")
    result, _, colour = expect.partition(":")
    require(cert["result"] == result, f"result {cert['result']}, expected {result}")
    ce = cert["counterexample"]
    if result == "verified":
        require(ce is None, "verified certificate carries a counterexample")
        return
    require(ce is not None and ce["color"] == colour, f"counterexample not {colour}")
    target = red_target if colour == "red" else blue_target
    require(
        embedding_holds(side(order, red, colour), target, list(ce["vertices"])),
        f"counterexample is not a {colour} {target}",
    )

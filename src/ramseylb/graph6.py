"""graph6 encoding and decoding (the standard ASCII interchange format).

Supports the short form (order <= 62) and the long form up to 258047
vertices. Bits of the upper triangle are packed column by column:
(0,1), (0,2), (1,2), (0,3), ...
"""

from __future__ import annotations

from .graph import Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    pass


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise Graph6Error(f"order {n} too large for this writer")


def to_graph6(g: Graph) -> str:
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


def from_graph6(text: str | bytes) -> Graph:
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = text.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
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

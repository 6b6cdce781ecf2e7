"""graph6 encoding and decoding (the standard ASCII interchange format).

Supports the short form (order <= 62) and the long form; an order above
`coloring.ORDER_LIMIT` is refused from the header alone. Bits of the upper
triangle are packed column by column: (0,1), (0,2), (1,2), (0,3), ... so
column c holds row c's bits below c, vertex 0 first, and read across the
columns, each vertex's bits above it.
"""

from __future__ import annotations

from .coloring import ORDER_LIMIT, InputError
from .graph import Graph

HEADER = ">>graph6<<"

# six bits to their graph6 character, and each character back to its six bits
_GROUP = {format(b, "06b"): chr(b + 63) for b in range(64)}
_SIX_BITS = str.maketrans({c: b for b, c in _GROUP.items()})


class Graph6Error(InputError):
    pass


def _encode_order(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise Graph6Error(f"order {n} too large for this writer")


def to_graph6(g: Graph) -> str:
    head = _encode_order(g.n).decode("ascii")
    rows = g.masks()
    flat = "".join(format(rows[c] & ((1 << c) - 1), f"0{c}b")[::-1]
                   for c in range(1, g.n))
    flat += "0" * (-len(flat) % 6)
    return head + "".join([_GROUP[flat[i:i + 6]] for i in range(0, len(flat), 6)])


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if text.startswith(HEADER):
        text = text[len(HEADER):]
    if not text:
        raise Graph6Error("empty graph6 string")
    if min(text) < "?" or max(text) > "~":
        raise Graph6Error("character out of graph6 range")
    # the order takes 1 character, or 3 after one "~", or 6 after "~~"
    head = 1 if text[0] != "~" else 4 if text[1:2] != "~" else 8
    if len(text) < head:
        raise Graph6Error("truncated graph6 order")
    n = int(text[head // 3:head].translate(_SIX_BITS), 2)
    body = text[head:]
    if n > ORDER_LIMIT:
        raise Graph6Error(f"order {n} is above the limit {ORDER_LIMIT}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise Graph6Error(
            f"graph6 body has {len(body)} groups, expected {(need + 5) // 6}"
        )
    flat = body.translate(_SIX_BITS)
    if "1" in flat[need:]:
        raise Graph6Error("nonzero padding bits")
    cols = [flat[c * (c - 1) // 2:c * (c + 1) // 2].ljust(n, "0") for c in range(n)]
    return Graph._trusted(n, [
        int(below[::-1], 2) | int("".join(above)[::-1], 2)
        for below, above in zip(cols, zip(*cols))
    ])

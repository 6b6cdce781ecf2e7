"""Red/blue edge 2-colorings of complete graphs, and the .rbc file format.

Only the red graph is stored; blue is its complement, so every pair is
exactly one color by construction and after any I/O round trip.

.rbc format: first non-comment line is `rbc <N>`, every following
non-comment line is `u v` with 0 <= u < v < N listing a RED edge.
`#` starts a comment. Lines end in LF; CRLF is accepted, since the CR is
whitespace. No other character ends a line.

The coloring's SHA-256 covers its canonical text, not the file bytes: the
`rbc <N>` header, then each red edge once as `u v`, ascending, LF line
endings and no comments, as `to_rbc` writes it without a comment.
"""

from __future__ import annotations

import hashlib
from itertools import compress

from .graph import Graph, complement

# maps the ASCII binary digits of bin() to the 0/1 flags compress() takes
_FLAGS = bytes.maketrans(b"01", b"\0\1")


class RbcFormatError(ValueError):
    pass


class TwoColoring:
    __slots__ = ("red", "_blue", "_sha")

    def __init__(self, red: Graph):
        self.red = red
        self._blue = None
        self._sha = None

    @property
    def order(self) -> int:
        return self.red.n

    @property
    def blue(self) -> Graph:
        if self._blue is None:
            self._blue = complement(self.red)
        return self._blue

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoColoring) and self.red == other.red

    def __repr__(self) -> str:
        return f"TwoColoring(order={self.order}, red_edges={self.red.edge_count()})"


def to_rbc(coloring: TwoColoring, comment: str | None = None) -> str:
    parts = [f"# {part}\n" for part in (comment or "").splitlines()]
    n = coloring.order
    parts.append(f"rbc {n}\n")
    names = [str(v) for v in range(n)]
    for u, row in enumerate(coloring.red.masks()):
        higher = row >> (u + 1)
        if higher:
            # bin() reversed, lowest bit first, flags the names above u
            flags = bin(higher)[:1:-1].encode("ascii").translate(_FLAGS)
            parts.append(f"{u} " + f"\n{u} ".join(compress(names[u + 1:], flags)) + "\n")
    return "".join(parts)


def from_rbc(text: str) -> TwoColoring:
    """Parse .rbc text. While the edge lines read exactly `u v`, ascending,
    they are the canonical text's lines, and its hash is stored for
    `coloring_sha`."""
    rows = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        line = raw.strip()
        if not line:
            continue
        if rows is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "rbc":
                raise RbcFormatError(f"line {lineno}: expected 'rbc <N>' header")
            try:
                order = int(parts[1])
            except ValueError:
                raise RbcFormatError(f"line {lineno}: bad order {parts[1]!r}") from None
            if order < 0:
                raise RbcFormatError(f"line {lineno}: negative order")
            rows = [0] * order
            names = {str(v): v for v in range(order)}
            kept = [f"rbc {order}"]
            last = -1
            continue
        a, _, b = line.partition(" ")
        try:
            u, v = names[a], names[b]
        except KeyError:
            # not two canonical names split by one space: `007`, `+1`,
            # a tab, out of range or malformed
            kept = None
            parts = line.split()
            if len(parts) != 2:
                raise RbcFormatError(f"line {lineno}: expected 'u v'") from None
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise RbcFormatError(f"line {lineno}: bad edge {line!r}") from None
        if not (0 <= u < v < order):
            raise RbcFormatError(f"line {lineno}: edge ({u},{v}) out of range")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        if kept is not None:
            key = u * order + v
            if key > last:
                kept.append(line)
                last = key
            else:
                kept = None
    if rows is None:
        raise RbcFormatError("missing 'rbc <N>' header")
    coloring = TwoColoring(Graph._trusted(order, rows))
    if kept is not None:
        coloring._sha = _sha256("\n".join(kept) + "\n")
    return coloring


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def coloring_sha(coloring: TwoColoring) -> str:
    """Content hash binding certificates to a specific coloring: the
    SHA-256 of its canonical text."""
    if coloring._sha is None:
        coloring._sha = _sha256(to_rbc(coloring))
    return coloring._sha

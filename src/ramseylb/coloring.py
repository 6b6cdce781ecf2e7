"""Red/blue edge 2-colorings of complete graphs, and the .rbc file format.

Only the red graph is stored; blue is its complement, so every pair is
exactly one color by construction and after any I/O round trip.

.rbc format: first non-comment line is `rbc <N>`, every following
non-comment line is `u v` with 0 <= u < v < N listing a RED edge.
`#` starts a comment. LF line endings.
"""

from __future__ import annotations

import hashlib

from .graph import Graph, complement


class RbcFormatError(ValueError):
    pass


class TwoColoring:
    __slots__ = ("red", "_blue")

    def __init__(self, red: Graph):
        self.red = red
        self._blue = None

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
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"rbc {coloring.order}")
    for u, v in coloring.red.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def from_rbc(text: str) -> TwoColoring:
    order = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def coloring_sha(coloring: TwoColoring) -> str:
    """Content hash binding certificates to a specific coloring."""
    canonical = to_rbc(coloring)
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()

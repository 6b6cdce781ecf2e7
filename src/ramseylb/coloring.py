"""Red/blue edge 2-colorings of complete graphs, and the .rbc file format.

Only the red graph is stored; blue is its complement, so every pair is
exactly one color by construction and after any I/O round trip.

.rbc format: first non-comment line is `rbc <N>`, every following
non-comment line is `u v` with 0 <= u < v < N listing a RED edge. N, u and
v are ASCII digits after an optional `+`; no other numeral is read, here
or in the counts of a spec (`read_count`).
`#` starts a comment. Lines end in LF; CRLF is accepted, since the CR is
whitespace. No other character ends a line.

The coloring's SHA-256 covers its canonical text, not the file bytes: the
`rbc <N>` header, then each red edge once as `u v`, ascending, LF line
endings and no comments, as `to_rbc` writes it without a comment.

`from_rbc` reads the body after the header line in one pass when it is
canonical in form: every line is two vertex names split by one space,
u < v, ended by LF. That is one `str.split` and one dict lookup per name.
Any other body is read line by line, with each error's line number:
comments or blank lines after the header, CR, tabs, `007`, `+1`, a last
line with no LF, and every error. If the one-pass body is also strictly
ascending, the canonical text is `rbc <N>` plus that body, and its hash
is stored as it is read; otherwise `coloring_sha` serializes.

A header above ORDER_LIMIT raises OrderLimitError before any row is built.
"""

from __future__ import annotations

import hashlib
import re
from itertools import compress
from operator import le, lt

from ._pykernels import bit_flags
from .graph import Graph, complement


# the largest order `from_rbc` reads: the rows of a coloring take memory and
# time that grow with the order squared
ORDER_LIMIT = 20000

# a vertex number or order: ASCII digits after an optional `+`; `int` alone
# would also take `1_0` and other scripts' digits
_DECIMAL = re.compile(r"\+?[0-9]+")


def read_count(text: str) -> int:
    """A count by the .rbc rule, or ValueError."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"bad count {text!r}")
    return int(text)


class InputError(ValueError):
    """Bad input from outside: the CLI reports it as an input error (exit 2)."""


class RbcFormatError(InputError):
    pass


class OrderLimitError(Exception):
    """An .rbc header declares an order above ORDER_LIMIT."""


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


def to_rbc(coloring: TwoColoring, comment: str | None = None) -> str:
    parts = [f"# {part}\n" for part in (comment or "").splitlines()]
    n = coloring.order
    parts.append(f"rbc {n}\n")
    names = [str(v) for v in range(n)]
    for u, row in enumerate(coloring.red.masks()):
        higher = row >> (u + 1)
        if higher:
            above = compress(names[u + 1:], bit_flags(higher))
            parts.append(f"{u} " + f"\n{u} ".join(above) + "\n")
    return "".join(parts)


def from_rbc(text: str) -> TwoColoring:
    """Parse .rbc text: the body in one pass or line by line (see the
    module docstring), then one loop builds the rows."""
    order, lineno, body = _header(text)
    names = {str(v): v for v in range(order)}
    ends = _canonical_ends(body, names)
    canonical = ends is not None
    if not canonical:
        ends = _line_ends(body, lineno, order)
    us = ends[0::2]
    # with u nondecreasing, a line is out of order (or a duplicate) exactly
    # when row u already holds a bit >= v
    ordered = canonical and all(map(le, us, us[1:]))
    rows = [0] * order
    for u, v in zip(us, ends[1::2]):
        row = rows[u]
        if row >> v:
            ordered = False
        rows[u] = row | 1 << v
        rows[v] |= 1 << u
    coloring = TwoColoring(Graph._trusted(order, rows))
    if ordered:
        coloring._sha = _sha256(f"rbc {order}\n" + body)
    return coloring


def _header(text: str) -> tuple[int, int, str]:
    """The order the first non-comment line declares, that line's number,
    and the text after it."""
    start = lineno = 0
    while start <= len(text):
        lineno += 1
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end].split("#", 1)[0].strip()
        if line:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "rbc":
                raise RbcFormatError(f"line {lineno}: expected 'rbc <N>' header")
            if not _DECIMAL.fullmatch(parts[1]):
                raise RbcFormatError(f"line {lineno}: bad order {parts[1]!r}")
            order = int(parts[1])
            if order > ORDER_LIMIT:
                raise OrderLimitError(f"order {order} is above the limit {ORDER_LIMIT}")
            return order, lineno, text[end + 1:]
        start = end + 1
    raise RbcFormatError("missing 'rbc <N>' header")


def _canonical_ends(body: str, names: dict[str, int]) -> list[int] | None:
    """u0, v0, u1, v1, ... when every line of the body is `u v`, two vertex
    names split by one space, with u < v and each line ended by LF; else
    None."""
    lines = body.count("\n")
    if not body.isascii():
        return None
    # with the digits deleted, " \n" once per line; with two tokens a line,
    # neither name is empty
    if body.encode("ascii").translate(None, b"0123456789") != b" \n" * lines:
        return None
    tokens = body.split()
    if len(tokens) != 2 * lines:
        return None
    try:
        ends = list(map(names.__getitem__, tokens))
    except KeyError:
        return None
    pairs = iter(ends)
    return ends if all(map(lt, pairs, pairs)) else None


def _line_ends(body: str, lineno: int, order: int) -> list[int]:
    """u0, v0, u1, v1, ... of the edge lines after the header on line
    `lineno`, read one line at a time; a bad line raises with its number."""
    ends = []
    for lineno, raw in enumerate(body.split("\n"), start=lineno + 1):
        line = raw.split("#", 1)[0].strip()
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise RbcFormatError(f"line {lineno}: expected 'u v'")
        if not all(map(_DECIMAL.fullmatch, parts)):
            raise RbcFormatError(f"line {lineno}: bad edge {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if not u < v < order:
            raise RbcFormatError(f"line {lineno}: edge ({u},{v}) out of range")
        ends += (u, v)
    return ends


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def coloring_sha(coloring: TwoColoring) -> str:
    """Content hash binding certificates to a specific coloring: the
    SHA-256 of its canonical text."""
    if coloring._sha is None:
        coloring._sha = _sha256(to_rbc(coloring))
    return coloring._sha

"""Target patterns and exact containment detectors.

A pattern is one of fan:n, wheel:n, kipas:n, clique:k, cycle:len,
path:order, matching:n, k4me. "Contains" always means as a (not
necessarily induced) subgraph. Detectors return witness embeddings;
the boolean API is a thin wrapper.

A hub pattern is K1 + `PatternSpec.rim`: fan:n = K1 + matching:n,
wheel:n = K1 + cycle:n-1, kipas:n = K1 + path:n-1. `find_pattern` searches
the least hub of each twin class (`_pykernels.twin_classes`) that one
independent set, built from the same classes, does not rule out.
"""

from __future__ import annotations

from itertools import combinations

from . import kernels
from ._pykernels import twin_classes
from .coloring import InputError, read_count
from .graph import Graph, induced_by_mask
from .matching import matching_edges

KINDS = ("fan", "wheel", "kipas", "clique", "cycle", "path", "matching", "k4me")

_MIN_SIZE = {
    "fan": 1,
    "wheel": 4,
    "kipas": 3,
    "clique": 1,
    "cycle": 3,
    "path": 1,
    "matching": 1,
}


# hub kind -> (rim kind, rim size minus the hub pattern's size)
_RIMS = {"fan": ("matching", 0), "wheel": ("cycle", -1), "kipas": ("path", -1)}


class PatternError(InputError):
    pass


class PatternSpec:
    """A checked (kind, size) pair, size None for k4me. Immutable; equal and
    hashed by (kind, size)."""

    __slots__ = ("kind", "size")

    def __init__(self, kind: str, size: int | None = None):
        if kind not in KINDS:
            raise PatternError(f"unknown pattern kind {kind!r}")
        if kind == "k4me":
            if size is not None:
                raise PatternError("k4me takes no size parameter")
        else:
            if size is None:
                raise PatternError(f"{kind} needs a size parameter")
            if size < _MIN_SIZE[kind]:
                raise PatternError(f"{kind} size must be >= {_MIN_SIZE[kind]}, got {size}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return PatternSpec, (self.kind, self.size)

    def __eq__(self, other):
        if other.__class__ is not PatternSpec:
            return NotImplemented
        return (self.kind, self.size) == (other.kind, other.size)

    def __hash__(self) -> int:
        return hash((self.kind, self.size))

    def __repr__(self) -> str:
        return f"PatternSpec(kind={self.kind!r}, size={self.size!r})"

    @property
    def rim(self) -> PatternSpec | None:
        """What a hub pattern's hub is joined to; None for the other kinds."""
        if self.kind not in _RIMS:
            return None
        kind, shift = _RIMS[self.kind]
        return PatternSpec(kind, self.size + shift)

    @property
    def vertex_count(self) -> int:
        rim = self.rim
        if rim is not None:
            return 1 + rim.vertex_count
        if self.kind == "matching":
            return 2 * self.size
        if self.kind == "k4me":
            return 4
        return self.size

    def __str__(self) -> str:
        if self.kind == "k4me":
            return "k4me"
        return f"{self.kind}:{self.size}"


def parse_pattern(text: str) -> PatternSpec:
    """`kind:size` or `kind`; PatternSpec checks the kind and the size."""
    kind, colon, raw = text.strip().partition(":")
    if not colon:
        return PatternSpec(kind)
    try:
        size = read_count(raw.strip())
    except ValueError:
        raise PatternError(f"bad pattern size in {text!r}") from None
    return PatternSpec(kind, size)


def fan(n: int) -> PatternSpec:
    return PatternSpec("fan", n)


def wheel(n: int) -> PatternSpec:
    return PatternSpec("wheel", n)


def kipas(n: int) -> PatternSpec:
    return PatternSpec("kipas", n)


def clique(k: int) -> PatternSpec:
    return PatternSpec("clique", k)


def k4me() -> PatternSpec:
    return PatternSpec("k4me")


# ---------------------------------------------------------------------------
# detectors


def _find_plain(g: Graph, spec: PatternSpec):
    kind = spec.kind
    if kind == "clique":
        return kernels.find_clique(g, spec.size)
    if kind == "cycle":
        return kernels.find_cycle(g, spec.size)
    if kind == "path":
        return kernels.find_path(g, spec.size)
    if kind == "k4me":
        return kernels.find_k4me(g)
    pairs = matching_edges(g, spec.size)
    return None if pairs is None else [v for pair in pairs for v in pair]


def find_pattern(g: Graph, spec: PatternSpec):
    """Witness embedding (vertex list) of the pattern in g, or None.

    Witness layouts: clique/cycle/path -> vertex list in order; matching ->
    [a1, b1, ..., an, bn]; k4me -> [u, v, w, x] with uv an edge and w, x
    common neighbors; hub patterns -> [hub] + the rim's layout.

    One pass of `_pykernels.twin_classes` drives the hub search. Hubs are the
    least vertex of each class with at least as many neighbours as the rim
    has vertices, in class order; twins hold a rim alike, so the embedding
    found is the one an every-hub search finds. The classes, heaviest first
    (an independent class weighs its size, a clique class 1), then least
    degree first, also build one independent set I: a whole independent
    class, or a clique class's least vertex, joins I when no vertex of I is
    adjacent to it. A hub is skipped when `need > 2 * |N(v) - I| + (1 for a
    path rim)`: any independent set holds at most floor(need/2) vertices of a
    matching or cycle on `need` vertices and ceil(need/2) of a path, so the
    prune never changes the embedding found.
    """
    rim = spec.rim
    if rim is None:
        return _find_plain(g, spec)
    need = rim.vertex_count
    slack = 1 if rim.kind == "path" else 0
    rows = g.masks()
    classes = twin_classes(rows)
    independent = None
    for v, _, _ in classes:
        mask = rows[v]
        if mask.bit_count() < need:
            continue
        if independent is None:
            independent = 0
            for u, members, clique in sorted(classes, key=lambda c: (
                    -(1 if c[2] else c[1].bit_count()), rows[c[0]].bit_count())):
                if not rows[u] & independent:
                    independent |= 1 << u if clique else members
        if need > 2 * (mask & ~independent).bit_count() + slack:
            continue
        found = _find_plain(induced_by_mask(g, mask), rim)
        if found is not None:
            return [v] + found
    return None


def contains_pattern(g: Graph, spec: PatternSpec) -> bool:
    return find_pattern(g, spec) is not None


# ---------------------------------------------------------------------------
# witness validation (used to re-check certificate counterexamples)


def _check_plain(g: Graph, spec: PatternSpec, vs: list[int]) -> bool:
    kind = spec.kind
    if kind == "clique":
        return all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    if kind == "cycle":
        return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    if kind == "path":
        return all(g.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    if kind == "k4me":
        return sum(1 for a, b in combinations(vs, 2) if g.has_edge(a, b)) >= 5
    return all(g.has_edge(vs[2 * i], vs[2 * i + 1]) for i in range(spec.size))


def check_embedding(g: Graph, spec: PatternSpec, vertices: list[int]) -> bool:
    """Is `vertices` a copy of the pattern in g, in find_pattern's layout?"""
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    if len(vs) != spec.vertex_count:
        return False
    rim = spec.rim
    if rim is None:
        return _check_plain(g, spec, vs)
    hub = vs[0]
    return all(g.has_edge(hub, v) for v in vs[1:]) and _check_plain(g, rim, vs[1:])

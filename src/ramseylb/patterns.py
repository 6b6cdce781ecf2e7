"""Target patterns and exact containment detectors.

A pattern is one of fan:n, wheel:n, kipas:n, clique:k, cycle:len,
path:order, matching:n, k4me. "Contains" always means as a (not
necessarily induced) subgraph. Detectors return witness embeddings;
the boolean API is a thin wrapper.

A hub pattern is K1 + `PatternSpec.rim`: fan:n = K1 + matching:n,
wheel:n = K1 + cycle:n-1, kipas:n = K1 + path:n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import kernels
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


class PatternError(ValueError):
    pass


@dataclass(frozen=True)
class PatternSpec:
    kind: str
    size: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise PatternError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "k4me":
            if self.size is not None:
                raise PatternError("k4me takes no size parameter")
        else:
            if self.size is None:
                raise PatternError(f"{self.kind} needs a size parameter")
            if self.size < _MIN_SIZE[self.kind]:
                raise PatternError(
                    f"{self.kind} size must be >= {_MIN_SIZE[self.kind]}, "
                    f"got {self.size}"
                )

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
    text = text.strip()
    if text == "k4me":
        return PatternSpec("k4me")
    if ":" not in text:
        raise PatternError(f"bad pattern {text!r}, expected kind:size or k4me")
    kind, _, raw = text.partition(":")
    try:
        size = int(raw)
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
    pairs = matching_edges(g)
    if len(pairs) < spec.size:
        return None
    return [v for pair in pairs[: spec.size] for v in pair]


def find_pattern(g: Graph, spec: PatternSpec):
    """Witness embedding (vertex list) of the pattern in g, or None.

    Witness layouts: clique/cycle/path -> vertex list in order; matching ->
    [a1, b1, ..., an, bn]; k4me -> [u, v, w, x] with uv an edge and w, x
    common neighbors; hub patterns -> [hub] + the rim's layout. Every vertex
    is tried as the hub, in order, and its neighbourhood is searched for the
    rim; a hub with fewer neighbours than the rim has vertices is skipped.
    """
    rim = spec.rim
    if rim is None:
        return _find_plain(g, spec)
    need = rim.vertex_count
    for v in range(g.n):
        mask = g.adj_mask(v)
        if mask.bit_count() < need:
            continue
        sub, vs = induced_by_mask(g, mask)
        found = _find_plain(sub, rim)
        if found is not None:
            return [v] + [vs[i] for i in found]
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

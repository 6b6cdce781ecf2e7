"""Target patterns and exact containment detectors.

A pattern is one of fan:n, wheel:n, kipas:n, clique:k, cycle:len,
path:order, matching:n, k4me. "Contains" always means as a (not
necessarily induced) subgraph. Detectors return witness embeddings;
the boolean API is a thin wrapper.
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
    def vertex_count(self) -> int:
        if self.kind == "fan":
            return 2 * self.size + 1
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


def _first_pairs(pairs: list[tuple[int, int]], n: int):
    """The first n matched pairs flattened to [a1, b1, ..., an, bn], or None
    when there are fewer than n."""
    if len(pairs) < n:
        return None
    return [v for pair in pairs[:n] for v in pair]


def _find_centered(g: Graph, spec: PatternSpec):
    """Hub patterns: try every vertex as the hub, in order, and search its
    neighbourhood for the rest of the pattern. A hub with fewer neighbours
    than the rest needs (2n for fan:n, n-1 for wheel:n and kipas:n) is
    skipped; the search would find nothing there."""
    n = spec.size
    need = 2 * n if spec.kind == "fan" else n - 1
    for v in range(g.n):
        mask = g.adj_mask(v)
        if mask.bit_count() < need:
            continue
        sub, vs = induced_by_mask(g, mask)
        if spec.kind == "fan":
            found = _first_pairs(matching_edges(sub), n)
        elif spec.kind == "wheel":
            found = kernels.find_cycle(sub, n - 1)
        else:
            found = kernels.find_path(sub, n - 1)
        if found is not None:
            return [v] + [vs[i] for i in found]
    return None


def find_pattern(g: Graph, spec: PatternSpec):
    """Witness embedding (vertex list) of the pattern in g, or None.

    Witness layouts: fan -> [hub, a1, b1, ..., an, bn]; wheel/kipas ->
    [hub, cycle/path in order]; clique/cycle/path -> vertex list in order;
    matching -> [a1, b1, ..., an, bn]; k4me -> [u, v, w, x] with uv an edge
    and w, x common neighbors.
    """
    kind = spec.kind
    if kind == "clique":
        return kernels.find_clique(g, spec.size)
    if kind == "cycle":
        return kernels.find_cycle(g, spec.size)
    if kind == "path":
        return kernels.find_path(g, spec.size)
    if kind == "k4me":
        return kernels.find_k4me(g)
    if kind == "matching":
        return _first_pairs(matching_edges(g), spec.size)
    if kind in ("fan", "wheel", "kipas"):
        return _find_centered(g, spec)
    raise PatternError(f"unknown pattern kind {kind!r}")


def contains_pattern(g: Graph, spec: PatternSpec) -> bool:
    return find_pattern(g, spec) is not None


# ---------------------------------------------------------------------------
# witness validation (used to re-check certificate counterexamples)


def check_embedding(g: Graph, spec: PatternSpec, vertices: list[int]) -> bool:
    vs = list(vertices)
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < g.n for v in vs):
        return False
    if len(vs) != spec.vertex_count:
        return False
    kind = spec.kind
    if kind == "clique":
        return all(g.has_edge(a, b) for a, b in combinations(vs, 2))
    if kind == "cycle":
        return all(g.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    if kind == "path":
        return all(g.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    if kind == "matching":
        return all(g.has_edge(vs[2 * i], vs[2 * i + 1]) for i in range(spec.size))
    if kind == "k4me":
        return sum(1 for a, b in combinations(vs, 2) if g.has_edge(a, b)) >= 5
    hub, rest = vs[0], vs[1:]
    if not all(g.has_edge(hub, v) for v in rest):
        return False
    if kind == "fan":
        return all(
            g.has_edge(rest[2 * i], rest[2 * i + 1]) for i in range(spec.size)
        )
    if kind == "wheel":
        return all(
            g.has_edge(rest[i], rest[(i + 1) % len(rest)]) for i in range(len(rest))
        )
    if kind == "kipas":
        return all(g.has_edge(rest[i], rest[i + 1]) for i in range(len(rest) - 1))
    raise PatternError(f"unknown pattern kind {kind!r}")

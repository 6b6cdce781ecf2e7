"""Verification core: check colorings against target patterns, emit
machine-checkable certificates, and hold the wheel-vs-clique bound tables.
`TABLE_ROWS` is the one statement of which witness pair each wheel row
needs; `derived_row` recomputes a row from that pair's clique table.
"""

from __future__ import annotations

import json
import time

from . import __version__, kernels, patterns
from .coloring import TwoColoring, coloring_sha
from .graph import Graph
from .patterns import PatternSpec

DETECTOR_VERSION = f"ramseylb-{__version__}/{kernels.BACKEND}"


class CertificateError(ValueError):
    pass


class Certificate:
    # the fields, in the order the JSON lists them; result is "verified" or
    # "refuted", counterexample None or {"color": ..., "vertices": [...]};
    # construction is None, since no command certifies a named construction
    FIELDS = ("construction", "order", "red_target", "blue_target", "result",
              "counterexample", "coloring_sha", "elapsed_ms", "detector_version")
    __slots__ = FIELDS

    def __init__(self, order: int, red_target: PatternSpec, blue_target: PatternSpec,
                 result: str, counterexample: dict | None, coloring_sha: str,
                 elapsed_ms: float):
        self.construction = None
        self.order = order
        self.red_target = red_target
        self.blue_target = blue_target
        self.result = result
        self.counterexample = counterexample
        self.coloring_sha = coloring_sha
        self.elapsed_ms = elapsed_ms
        self.detector_version = DETECTOR_VERSION

    @property
    def verified(self) -> bool:
        return self.result == "verified"

    def to_json(self) -> str:
        payload = {name: getattr(self, name) for name in self.FIELDS}
        payload["red_target"] = str(self.red_target)
        payload["blue_target"] = str(self.blue_target)
        return json.dumps(payload, indent=2) + "\n"


def counterexample(
    coloring: TwoColoring, red_target: PatternSpec, blue_target: PatternSpec
) -> dict | None:
    """A red red_target or a blue blue_target in the coloring, as
    {"color": ..., "vertices": [...]}, or None when it has neither. Red is
    checked first, so the blue graph (the complement) is only built when red
    is clear. Every embedding is re-checked edge by edge."""
    for color, target in (("red", red_target), ("blue", blue_target)):
        g = getattr(coloring, color)
        embedding = patterns.find_pattern(g, target)
        if embedding is None:
            continue
        if not patterns.check_embedding(g, target, embedding):
            raise CertificateError(
                f"detector returned an invalid {color} {target} embedding {embedding}"
            )
        return {"color": color, "vertices": embedding}
    return None


def verify(
    coloring: TwoColoring, red_target: PatternSpec, blue_target: PatternSpec
) -> Certificate:
    """Certify that the coloring avoids a red red_target and a blue
    blue_target. Red is checked first; the first refutation short-circuits."""
    start = time.perf_counter()
    found = counterexample(coloring, red_target, blue_target)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return Certificate(
        order=coloring.order,
        red_target=red_target,
        blue_target=blue_target,
        result="refuted" if found else "verified",
        counterexample=found,
        coloring_sha=coloring_sha(coloring),
        elapsed_ms=elapsed_ms,
    )


def verify_ramsey_witness(
    g: Graph, avoid: PatternSpec, avoid_complement: PatternSpec
) -> Certificate:
    """Certify a Ramsey witness graph: g avoids `avoid` and its complement
    avoids `avoid_complement`. Treats g as the red side of a coloring."""
    return verify(TwoColoring(g), avoid, avoid_complement)


# ---------------------------------------------------------------------------
# bound tables
#
# Stored rows are literal values from the published tables; derived rows are
# recomputed here from the clique tables, and `ramseylb table` diffs the two.

# lower-bound values of R(K3, Kn), n = 3..15 (exact through n = 9), and of
# R(K4-e, Kn), n = 3..10 (exact through n = 6), keyed by witness pair
CLIQUE_KN_LOWER = {
    "k3": {
        3: 6, 4: 9, 5: 14, 6: 18, 7: 23, 8: 28, 9: 36,
        10: 40, 11: 47, 12: 53, 13: 60, 14: 67, 15: 74,
    },
    "k4me": {3: 7, 4: 11, 5: 16, 6: 21, 7: 28, 8: 36, 9: 41, 10: 49},
}

# published lower bounds of R(W5, Kn) and R(W6, Kn), n = 5..15
W5W6_KN_TABLE = {
    5: 27, 6: 35, 7: 45, 8: 55, 9: 71, 10: 79,
    11: 93, 12: 105, 13: 119, 14: 133, 15: 147,
}

# published lower bounds of R(W7, Kn), n = 5..10
W7_KN_TABLE = {5: 31, 6: 41, 7: 55, 8: 71, 9: 81, 10: 97}


# Each wheel row comes from K2 blow-ups: a (pair, Kn) witness on R − 1
# vertices blows up to a coloring on 2R − 2 vertices with no red wheel of the
# row's kinds and no blue Kn. row name -> (witness pair, wheel kinds, stored row)
TABLE_ROWS = {
    "w5w6": ("k3", (5, 6), W5W6_KN_TABLE),
    "w7": ("k4me", (7,), W7_KN_TABLE),
}


def derived_row(name: str) -> dict[int, int]:
    """Row `name` derived from its pair's clique table: 2·R − 1 at each stored n."""
    pair, _, stored = TABLE_ROWS[name]
    return {n: 2 * CLIQUE_KN_LOWER[pair][n] - 1 for n in stored}

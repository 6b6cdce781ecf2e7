"""Parameterized builders for the extremal colorings behind each claimed
lower bound, plus the closed-form bound formulas.

Every builder returns a Construction: the coloring, the two target
patterns it is claimed to avoid, and block metadata for human auditing.
The claimed Ramsey lower bound is always order + 1.
"""

from __future__ import annotations

import math
import warnings

from .certify import TABLE_ROWS, counterexample
from .coloring import ORDER_LIMIT, InputError, TwoColoring, read_count
from .graph import Graph, complete, compose, cycle, empty, regular_graph
from .patterns import PatternSpec, clique, fan, kipas, wheel
from .witnesses import PAIR_AVOID, resolve_witness


class ConstructionError(InputError):
    def __init__(self, message: str, embedding: list[int] | None = None):
        super().__init__(message)
        self.embedding = embedding


def bound_order(what: str, order: int) -> None:
    """Refuse an order above `coloring.ORDER_LIMIT` before any graph is built:
    the rows of a coloring or blow-up grow with its order squared."""
    if order > ORDER_LIMIT:
        raise ConstructionError(f"{what} order {order} is above the limit {ORDER_LIMIT}")


class Construction:
    __slots__ = ("family", "params", "coloring", "red_target", "blue_target", "blocks")

    def __init__(self, family: str, params: dict, coloring: TwoColoring,
                 red_target: PatternSpec, blue_target: PatternSpec,
                 blocks: dict[str, list[int]]):
        self.family = family
        self.params = params
        self.coloring = coloring
        self.red_target = red_target
        self.blue_target = blue_target
        self.blocks = blocks

    @property
    def claimed_bound(self) -> int:
        """R(red_target, blue_target) >= order + 1, witnessed by the coloring."""
        return self.coloring.order + 1


# ---------------------------------------------------------------------------
# block layouts: each coloring's red graph is a composition of its blocks
# over one of these patterns, whose vertex i is the i-th block


# K, H1..H4 (the fans and the 3-mod-4 kipases): red between H1 u H4 and
# H2 u H3; K has no pattern edge
FOUR_BLOCKS = Graph.from_edges(5, [(1, 2), (1, 3), (4, 2), (4, 3)])
# K1 u K3: a clique beside a complete tripartite graph
CLIQUE_BESIDE_TRIPARTITE = Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])
# K_m u K_{m-1,m-1}, completely joined to 2m mutually independent vertices
KIPAS_1MOD4_B = Graph.from_edges(4, [(1, 2), (0, 3), (1, 3), (2, 3)])


def _bounded_parts(what: str, sizes: list[int], rest=complete) -> list[Graph]:
    """complete(sizes[0]), then `rest` at each later size, after bounding their sum."""
    bound_order(what, sum(sizes))
    return [complete(sizes[0])] + [rest(size) for size in sizes[1:]]


def _blocks(names: list[str], parts: list[Graph]) -> dict[str, list[int]]:
    """Block name -> vertices, in the order `compose` lays the parts out:
    parts[i] is named names[i], and parts that share a name form one block."""
    blocks: dict[str, list[int]] = {}
    start = 0
    for name, h in zip(names, parts):
        blocks.setdefault(name, []).extend(range(start, start + h.n))
        start += h.n
    return blocks


# ---------------------------------------------------------------------------
# fans


def _fan_block_sizes(n: int, m: int) -> list[int]:
    small_range = 4 * n <= 5 * m - 4  # n <= 5m/4 - 1
    if small_range:
        if m % 2 == 0:
            return [m - 1, 2 * n - 3 * m // 2 + 1, m // 2, m // 2 - 1]
        return [m - 1, 2 * n - 3 * (m - 1) // 2, (m - 1) // 2, (m - 1) // 2]
    if m % 2 == 0:
        return [m - 1, m - 1, m // 2, m // 2 - 1]
    return [m - 1, m - 1, (m - 1) // 2, (m - 1) // 2]


def fan_construction(n: int, m: int) -> Construction:
    if m < 4:
        raise ConstructionError(f"fan construction needs m >= 4, got m={m}")
    if not (m <= n and 2 * n <= 3 * m - 4):
        raise ConstructionError(
            f"fan construction needs m <= n <= 3m/2 - 2, got n={n}, m={m}"
        )
    parts = _bounded_parts(f"fan:{n},{m}", [2 * n, *_fan_block_sizes(n, m)])
    return Construction(
        family="fan",
        params={"n": n, "m": m},
        coloring=TwoColoring(compose(FOUR_BLOCKS, parts)),
        red_target=fan(n),
        blue_target=fan(m),
        blocks=_blocks(["K", "H1", "H2", "H3", "H4"], parts),
    )


# ---------------------------------------------------------------------------
# wheels of even order


def wheel_even_construction(n: int) -> Construction:
    if n % 2 != 0:
        raise ConstructionError(f"even-wheel construction needs even n, got {n}")
    if n < 6:
        raise ConstructionError(f"even-wheel construction needs n >= 6, got {n}")
    if n < 8:
        warnings.warn(
            f"even-wheel construction used below the claimed range (n={n} < 8)",
            stacklevel=2,
        )
    parts = _bounded_parts(f"wheel-even:{n}", [n - 1] * 3)
    return Construction(
        family="wheel-even",
        params={"n": n},
        coloring=TwoColoring(compose(empty(3), parts)),
        red_target=wheel(n),
        blue_target=wheel(n),
        blocks=_blocks(["K1", "K2", "K3"], parts),
    )


# ---------------------------------------------------------------------------
# kipases


def kipas_even_construction(m: int) -> Construction:
    if m < 2:
        raise ConstructionError(f"even-kipas construction needs m >= 2, got {m}")
    parts = _bounded_parts(f"kipas-even:{m}", [2 * m + 1, m, m, m], empty)
    return Construction(
        family="kipas-even",
        params={"m": m},
        coloring=TwoColoring(compose(CLIQUE_BESIDE_TRIPARTITE, parts)),
        red_target=kipas(2 * m + 2),
        blue_target=kipas(2 * m + 2),
        blocks=_blocks(["K"] + ["multipartite"] * 3, parts),
    )


def kipas_1mod4_construction(m: int, variant: str = "A") -> Construction:
    if m % 2 != 0 or m < 4:
        raise ConstructionError(
            f"1-mod-4 kipas construction needs even m >= 4, got {m}"
        )
    if variant not in ("A", "B"):
        raise ConstructionError(f"variant must be A or B, got {variant!r}")
    if variant == "A":
        pattern = CLIQUE_BESIDE_TRIPARTITE
        sizes = [2 * m, m, m - 1, m - 1]
        names = ["K"] + ["multipartite"] * 3
    else:
        pattern = KIPAS_1MOD4_B
        sizes = [m, m - 1, m - 1, 2 * m]
        names = ["core"] * 3 + ["independent"]
    parts = _bounded_parts(f"kipas-1mod4:{m},{variant}", sizes, empty)
    return Construction(
        family="kipas-1mod4" if variant == "A" else "kipas-1mod4-b",
        params={"m": m, "variant": variant},
        coloring=TwoColoring(compose(pattern, parts)),
        red_target=kipas(2 * m + 1),
        blue_target=kipas(2 * m + 1),
        blocks=_blocks(names, parts),
    )


def _kipas_3mod4_blocks(m: int) -> tuple[list[int], list[int]]:
    """Block sizes and red interior degrees for H1..H4, by m mod 8: for odd m,
    order 5m - 1, red (2m - 1)-regular and blue (m - 1)-regular off K."""
    k, r = divmod(m, 8)
    if r == 1:
        return [6 * k + 2, 6 * k, 6 * k, 6 * k], [4 * k + 1, 4 * k - 1, 4 * k - 1, 4 * k + 1]
    if r == 3:
        return [6 * k + 2] * 4, [4 * k + 1] * 4
    if r == 5:
        return [6 * k + 4, 6 * k + 4, 6 * k + 4, 6 * k + 2], [
            4 * k + 1,
            4 * k + 3,
            4 * k + 3,
            4 * k + 1,
        ]
    # r == 7, the last residue of an odd m
    return [6 * k + 6, 6 * k + 6, 6 * k + 4, 6 * k + 4], [4 * k + 3] * 4


def kipas_3mod4_construction(m: int) -> Construction:
    if m % 2 != 1 or m < 3:
        raise ConstructionError(
            f"3-mod-4 kipas construction needs odd m >= 3, got {m}"
        )
    sizes, degs = _kipas_3mod4_blocks(m)
    bound_order(f"kipas-3mod4:{m}", 2 * m + sum(sizes))
    parts = [complete(2 * m)] + [regular_graph(s, d) for s, d in zip(sizes, degs)]
    return Construction(
        family="kipas-3mod4",
        params={"m": m},
        coloring=TwoColoring(compose(FOUR_BLOCKS, parts)),
        red_target=kipas(2 * m + 1),
        blue_target=kipas(2 * m + 1),
        blocks=_blocks(["K", "H1", "H2", "H3", "H4"], parts),
    )


# ---------------------------------------------------------------------------
# blow-up constructions


W5W7_CHORDS = [(1, 4), (2, 5), (3, 6)]


def w5w7_base() -> Graph:
    """The 7-cycle with its three distance-3 chords (triangle-free)."""
    return Graph.from_edges(7, cycle(7).edges() + W5W7_CHORDS)


def w5w7_construction() -> Construction:
    return Construction(
        family="w5w7",
        params={},
        coloring=TwoColoring(compose(w5w7_base(), [complete(2)] * 7)),
        red_target=wheel(5),
        blue_target=wheel(7),
        blocks={"pairs": [2 * i for i in range(7)]},
    )


def wheel_clique_blowup(witness: Graph, wheel_kind: int, n: int) -> Construction:
    # the witness pair whose K2 blow-ups avoid this wheel, from its table row
    pairs = [pair for pair, kinds, _ in TABLE_ROWS.values() if wheel_kind in kinds]
    if not pairs:
        raise ConstructionError(f"wheel_kind must be 5, 6 or 7, got {wheel_kind}")
    avoid = PAIR_AVOID[pairs[0]]
    bound_order("wc-blowup", 2 * witness.n)
    bad = counterexample(TwoColoring(witness), avoid, clique(n))
    if bad is not None:
        raise ConstructionError(
            f"witness is not a ({avoid}, clique:{n}) witness: "
            f"{bad['color']} embedding {bad['vertices']}",
            embedding=bad["vertices"],
        )
    return Construction(
        family="wc-blowup",
        params={"witness_order": witness.n, "wheel_kind": wheel_kind, "n": n},
        coloring=TwoColoring(compose(witness, [complete(2)] * witness.n)),
        red_target=wheel(wheel_kind),
        blue_target=clique(n),
        blocks={},
    )


# ---------------------------------------------------------------------------
# closed-form bounds


def predicted_lower_bound(family: str, **params) -> int:
    """The closed-form lower bound each family claims (= coloring order + 1),
    for parameters its builder accepts."""
    if family == "fan":
        n, m = params["n"], params["m"]
        return 4 * n + math.ceil(m / 2) if 4 * n <= 5 * m - 4 else 2 * n + 3 * m - 2
    if family == "wheel-even":
        return 3 * params["n"] - 2
    if family == "kipas-even":
        return 5 * params["m"] + 2
    if family in ("kipas-1mod4", "kipas-1mod4-b"):
        return 5 * params["m"] - 1
    if family == "kipas-3mod4":
        return 5 * params["m"]
    if family == "w5w7":
        return 15
    if family == "wc-blowup":
        return 2 * params["witness_order"] + 1
    raise ConstructionError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# family grammar: name:arg,arg,... Each spec name maps to its builder, how
# many trailing parameters may be left out (the builder's defaults), and one
# reader per parameter; anything else is an input error. The builder checks
# the values and bounds the order.

FAMILIES = {
    "fan": (fan_construction, 0, (read_count, read_count)),
    "wheel-even": (wheel_even_construction, 0, (read_count,)),
    "kipas-even": (kipas_even_construction, 0, (read_count,)),
    "kipas-1mod4": (kipas_1mod4_construction, 1, (read_count, str.upper)),
    "kipas-3mod4": (kipas_3mod4_construction, 0, (read_count,)),
    "w5w7": (w5w7_construction, 0, ()),
    # wheel_clique_blowup runs the one check, against this row's pair and n
    "wc-blowup": (wheel_clique_blowup, 0, (
        lambda ref: resolve_witness(ref, recheck=False), read_count, read_count)),
}


def build_from_spec(text: str) -> Construction:
    text = text.strip()
    name, _, raw = text.partition(":")
    args = [arg.strip() for arg in raw.split(",")] if raw else []
    if name not in FAMILIES:
        raise ConstructionError(f"unknown construction family {name!r}")
    builder, optional, readers = FAMILIES[name]
    if not len(readers) - optional <= len(args) <= len(readers):
        raise ConstructionError(f"bad family spec {text!r}: wrong number of parameters")
    try:
        return builder(*(read(arg) for read, arg in zip(readers, args)))
    except ValueError as exc:
        if isinstance(exc, ConstructionError):
            raise
        raise ConstructionError(f"bad family spec {text!r}: {exc}") from None

import copy
import pickle
import random
import time
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import (
    cone,
    find_pattern_all_hubs,
    matching_graph,
    matching_number,
    random_graph,
    reference_hub_independent,
    relabelled,
    twin_representatives,
    with_planted_twins,
)
from ramseylb import graph, patterns
from ramseylb.certify import verify
from ramseylb.constructions import build_from_spec
from ramseylb.graph import Graph, complement
from ramseylb.graph6 import from_graph6
from ramseylb.patterns import (
    PatternError,
    PatternSpec,
    check_embedding,
    contains_pattern,
    find_pattern,
    parse_pattern,
)


def fan_graph(n):
    return cone(matching_graph(n))


def wheel_graph(n):
    return cone(graph.cycle(n - 1))


def kipas_graph(n):
    return cone(graph.path(n - 1))


def test_parse_and_str():
    assert parse_pattern("fan:3") == PatternSpec("fan", 3)
    assert parse_pattern("k4me") == PatternSpec("k4me")
    assert str(parse_pattern("wheel:6")) == "wheel:6"
    assert str(parse_pattern("k4me")) == "k4me"
    # a size follows the .rbc numeral rule: ASCII digits after an optional +
    assert parse_pattern("fan:+3") == parse_pattern(" fan: 3 ") == PatternSpec("fan", 3)
    for bad in ["fan", "fan:x", "blob:3", "wheel:3", "cycle:2", "k4me:2",
                "fan:1_0", "wheel: \u0661\u0660"]:
        with pytest.raises(PatternError):
            parse_pattern(bad)


def test_pattern_spec_is_an_immutable_value():
    spec = PatternSpec("fan", 3)
    assert spec == parse_pattern("fan:3") and hash(spec) == hash(parse_pattern("fan:3"))
    assert {spec: 1}[PatternSpec("fan", 3)] == 1
    assert len({spec, PatternSpec("fan", 3), PatternSpec("fan", 4), PatternSpec("k4me")}) == 3
    assert spec != PatternSpec("clique", 3)
    assert spec != ("fan", 3) and spec.__eq__(("fan", 3)) is NotImplemented
    with pytest.raises(AttributeError):
        spec.size = 4
    with pytest.raises(AttributeError):
        spec.colour = "red"
    with pytest.raises(AttributeError):
        del spec.kind
    assert (spec.kind, spec.size) == ("fan", 3)
    assert repr(spec) == "PatternSpec(kind='fan', size=3)"
    assert repr(PatternSpec("k4me")) == "PatternSpec(kind='k4me', size=None)"
    assert copy.copy(spec) == pickle.loads(pickle.dumps(spec)) == spec


def test_rim():
    assert parse_pattern("fan:3").rim == parse_pattern("matching:3")
    assert parse_pattern("wheel:6").rim == parse_pattern("cycle:5")
    assert parse_pattern("kipas:5").rim == parse_pattern("path:4")
    assert parse_pattern("clique:4").rim is None
    assert parse_pattern("k4me").rim is None


def test_vertex_count():
    assert parse_pattern("fan:3").vertex_count == 7
    assert parse_pattern("matching:4").vertex_count == 8
    assert parse_pattern("k4me").vertex_count == 4
    assert parse_pattern("wheel:6").vertex_count == 6
    assert parse_pattern("kipas:5").vertex_count == 5
    assert parse_pattern("clique:4").vertex_count == 4


@pytest.mark.parametrize(
    "spec_text,builder",
    [
        ("fan:3", lambda: fan_graph(3)),
        ("wheel:6", lambda: wheel_graph(6)),
        ("kipas:5", lambda: kipas_graph(5)),
        ("clique:4", lambda: graph.complete(4)),
        ("cycle:5", lambda: graph.cycle(5)),
        ("path:4", lambda: graph.path(4)),
        ("matching:3", lambda: matching_graph(3)),
    ],
)
def test_detects_itself(spec_text, builder):
    spec = parse_pattern(spec_text)
    g = builder()
    witness = find_pattern(g, spec)
    assert witness is not None
    assert check_embedding(g, spec, witness)


def test_k4me_detection():
    spec = parse_pattern("k4me")
    diamond = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    w = find_pattern(diamond, spec)
    assert w is not None and check_embedding(diamond, spec, w)
    assert not contains_pattern(graph.cycle(4), spec)
    assert contains_pattern(graph.complete(4), spec)


def test_exact_length_cycle():
    # C5 contains a 5-cycle but no 3- or 4-cycle
    g = graph.cycle(5)
    assert contains_pattern(g, parse_pattern("cycle:5"))
    assert not contains_pattern(g, parse_pattern("cycle:3"))
    assert not contains_pattern(g, parse_pattern("cycle:4"))


def test_exact_order_path():
    g = graph.path(4)
    assert contains_pattern(g, parse_pattern("path:4"))
    assert not contains_pattern(g, parse_pattern("path:5"))


def test_wheel_not_in_smaller_wheel():
    assert not contains_pattern(wheel_graph(6), parse_pattern("wheel:7"))
    # W7 contains K4? no; but the hub plus any cycle segment gives a kipas
    assert contains_pattern(wheel_graph(7), parse_pattern("kipas:6"))


def test_fan_needs_hub():
    # three independent edges without a hub: no fan:3
    assert not contains_pattern(matching_graph(3), parse_pattern("fan:3"))


def test_matching_number():
    assert matching_number(graph.path(5)) == 2
    assert matching_number(graph.complete(6)) == 3
    assert matching_number(graph.cycle(7)) == 3


def test_check_embedding_rejects():
    g = graph.complete(4)
    spec = parse_pattern("clique:3")
    assert check_embedding(g, spec, [0, 1, 2])
    assert not check_embedding(g, spec, [0, 1, 1])  # repeated
    assert not check_embedding(g, spec, [0, 1])  # wrong count
    assert not check_embedding(g, spec, [0, 1, 7])  # out of range
    g2 = graph.path(3)
    assert not check_embedding(g2, spec, [0, 1, 2])  # missing edge


@given(st.integers(1, 9), st.integers(0, 10 ** 9))
def test_supergraph_monotone(n, seed):
    # adding edges never destroys containment
    rng = random.Random(seed)
    g = random_graph(n, 0.4, rng)
    non_edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not g.has_edge(u, v)
    ]
    bigger = Graph.from_edges(
        n, g.edges() + non_edges[: max(1, len(non_edges) // 2)]
    )
    for text in ["clique:3", "path:4", "cycle:4", "matching:2", "k4me"]:
        spec = parse_pattern(text)
        if contains_pattern(g, spec):
            assert contains_pattern(bigger, spec)


def layout_edges(spec):
    """Position pairs of the pattern's edges in find_pattern's layout, hub at
    position 0, written out from each kind's definition."""
    kind, n = spec.kind, spec.size
    if kind == "k4me":
        return list(combinations(range(4), 2))
    if kind == "clique":
        return list(combinations(range(n), 2))
    if kind == "cycle":
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "matching":
        return [(2 * i, 2 * i + 1) for i in range(n)]
    if kind == "fan":
        return [(0, i) for i in range(1, 2 * n + 1)] + [
            (2 * i - 1, 2 * i) for i in range(1, n + 1)
        ]
    rim = range(1, n)
    if kind == "wheel":
        return [(0, i) for i in rim] + [(i, i % (n - 1) + 1) for i in rim]
    return [(0, i) for i in rim] + [(i, i + 1) for i in range(1, n - 1)]


LAYOUT_SPECS = ["clique:1", "clique:2", "clique:4", "cycle:3", "cycle:5",
                "path:1", "path:2", "path:5", "matching:1", "matching:3", "k4me",
                "fan:1", "fan:3", "wheel:4", "wheel:6", "kipas:3", "kipas:5"]


@pytest.mark.parametrize("text", LAYOUT_SPECS)
def test_check_embedding_is_layout_edges(text):
    spec = parse_pattern(text)
    pairs = layout_edges(spec)
    assert {v for pair in pairs for v in pair} <= set(range(spec.vertex_count))
    slack = 1 if spec.kind == "k4me" else 0
    rng = random.Random(text)
    for _ in range(150):
        n = rng.randrange(spec.vertex_count, 11)
        g = random_graph(n, rng.choice([0.3, 0.6, 0.9]), rng)
        lists = [rng.sample(range(n), spec.vertex_count) for _ in range(4)]
        found = find_pattern(g, spec)
        if found is not None:
            lists += [found, rng.sample(found, len(found))]
        for vs in lists:
            present = sum(g.has_edge(vs[a], vs[b]) for a, b in pairs)
            assert check_embedding(g, spec, vs) == (present >= len(pairs) - slack), vs
        if found is not None:
            assert check_embedding(g, spec, found)


HUB_SPECS = ["fan:1", "fan:2", "fan:3", "wheel:4", "wheel:5", "wheel:6",
             "kipas:3", "kipas:4", "kipas:6"]


@given(st.integers(1, 9), st.integers(0, 6), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(0, 10 ** 9))
def test_find_pattern_matches_all_hubs(n, copies, p, seed):
    rng = random.Random(seed)
    planted = with_planted_twins(random_graph(n, p, rng), copies, rng)
    moved = relabelled(planted, rng)
    for g in (planted, moved, complement(planted), complement(moved)):
        for text in HUB_SPECS:
            spec = parse_pattern(text)
            assert find_pattern(g, spec) == find_pattern_all_hubs(g, spec), text


def bound_skips(g: Graph, rim: PatternSpec, v: int) -> bool:
    """Does the shared independent set rule out a rim in N(v)?"""
    outside = (g.masks()[v] & ~reference_hub_independent(g)).bit_count()
    return rim.vertex_count > 2 * outside + (rim.kind == "path")


# The hubs searched over both sides: the twin representatives of degree
# >= need that the shared independent set does not rule out, 1 of
# fan:24,18's 5 blue classes and 1 of kipas-3mod4:13's 39.
HUBS_SEARCHED = {"fan:24,18": 1, "wheel-even:40": 3, "wc-blowup:k3k6,5,6": 17,
                 "kipas-3mod4:13": 1}


# The fan and wheel sides searched are false-twin classes; the wc-blowup's
# red side is true-twin classes (K2 blown up).
@pytest.mark.parametrize("family,classes", [("fan:24,18", 5), ("wheel-even:40", 3),
                                            ("wc-blowup:k3k6,5,6", 17),
                                            ("kipas-3mod4:13", 39)])
def test_one_hub_per_twin_class(monkeypatch, family, classes):
    construction = build_from_spec(family)
    searched = []
    original = patterns.induced_by_mask

    def counting(parent, mask):
        searched.append((parent, mask))
        return original(parent, mask)

    monkeypatch.setattr(patterns, "induced_by_mask", counting)
    assert verify(construction.coloring, construction.red_target,
                  construction.blue_target).verified
    assert len(searched) == HUBS_SEARCHED[family]
    for color in ("red", "blue"):
        g = getattr(construction.coloring, color)
        rim = getattr(construction, f"{color}_target").rim
        masks = [mask for parent, mask in searched if parent is g]
        reps = twin_representatives(g)
        assert len(reps) == classes
        if rim is None:
            assert masks == []
            continue
        candidates = [v for v in reps if g.masks()[v].bit_count() >= rim.vertex_count]
        # an ascending subsequence of the representatives: those the
        # independent set leaves open
        assert masks == [g.masks()[v] for v in candidates if not bound_skips(g, rim, v)]


# Each rim meets the shared independent set {0, 2} in as many vertices as
# the bound allows (ceil(need/2) for a path, need/2 for a cycle or matching),
# so its hub must still be searched.
@pytest.mark.parametrize("text,rim_edges,hub", [
    ("kipas:4", [(0, 1), (1, 2)], 3),
    ("wheel:5", [(0, 1), (1, 2), (2, 3), (3, 0)], 4),
    ("fan:2", [(0, 1), (2, 3)], 4),
])
def test_rims_at_the_independent_set_bound_are_found(text, rim_edges, hub):
    g = Graph.from_edges(hub + 1, rim_edges + [(v, hub) for v in range(hub)])
    spec = parse_pattern(text)
    assert reference_hub_independent(g) == 0b101
    found = find_pattern(g, spec)
    assert found is not None and check_embedding(g, spec, found)
    assert found == find_pattern_all_hubs(g, spec)


def hubs_searched(g: Graph, spec: PatternSpec) -> tuple[list[int], list[int] | None]:
    """The neighbourhood masks that find_pattern extracts, and what it finds."""
    with mock.patch.object(patterns, "induced_by_mask", wraps=graph.induced_by_mask) as spy:
        found = find_pattern(g, spec)
    return [call.args[1] for call in spy.call_args_list], found


@given(st.integers(1, 9), st.integers(0, 6), st.sampled_from([0.2, 0.5, 0.8]),
       st.integers(0, 10 ** 9))
# 14 vertices whose cycle searches end inside the deadline only because
# find_cycle skips failed states (0.6 s without)
@example(n=8, copies=6, p=0.2, seed=399)
def test_reference_independent_set_predicts_the_hubs(n, copies, p, seed):
    rng = random.Random(seed)
    planted = relabelled(with_planted_twins(random_graph(n, p, rng), copies, rng), rng)
    for g in (planted, complement(planted)):
        independent = reference_hub_independent(g)
        assert all(not g.masks()[v] & independent for v in graph.bits(independent))
        top = max(row.bit_count() for row in g.masks())
        specs = [PatternSpec("fan", k) for k in range(1, top // 2 + 1)]
        specs += [PatternSpec(kind, k) for kind, least in (("wheel", 4), ("kipas", 3))
                  for k in range(least, top + 2)]
        for spec in specs:
            masks, found = hubs_searched(g, spec)
            hubs = [v for v in twin_representatives(g)
                    if g.masks()[v].bit_count() >= spec.rim.vertex_count
                    and not bound_skips(g, spec.rim, v)]
            if found is not None:
                hubs = hubs[:hubs.index(found[0]) + 1]
            assert masks == [g.masks()[v] for v in hubs], spec


# (family, red target, blue target): the benchmark ladder at its own claims
LADDER = [
    ("fan:10,8", "fan:10", "fan:8"),
    ("fan:16,12", "fan:16", "fan:12"),
    ("fan:24,18", "fan:24", "fan:18"),
    ("kipas-3mod4:7", "kipas:15", "kipas:15"),
    ("kipas-3mod4:13", "kipas:27", "kipas:27"),
    ("kipas-3mod4:17", "kipas:35", "kipas:35"),
    ("wheel-even:12", "wheel:12", "wheel:12"),
    ("wheel-even:24", "wheel:24", "wheel:24"),
    ("wheel-even:40", "wheel:40", "wheel:40"),
    ("kipas-even:20", "kipas:42", "kipas:42"),
    ("kipas-1mod4:12,B", "kipas:25", "kipas:25"),
    ("w5w7", "wheel:5", "wheel:7"),
    ("wc-blowup:k3k6,5,6", "wheel:5", "clique:6"),
    ("wc-blowup:k3k7,5,7", "wheel:5", "clique:7"),
    ("wc-blowup:k4mek5,7,5", "wheel:7", "clique:5"),
]


# The shared independent set depends on the numbering only through ties, so
# each side searches as many hubs in every labelling; in w5w7's blue side
# the ties decide between 6 and 7.
@pytest.mark.parametrize("family,red,blue", LADDER)
def test_hubs_searched_do_not_depend_on_the_labelling(family, red, blue):
    coloring = build_from_spec(family).coloring
    for colour, target in (("red", red), ("blue", blue)):
        g, spec = getattr(coloring, colour), parse_pattern(target)
        counts = set()
        for seed in [None] + list(range(1, 9)):
            h = g if seed is None else relabelled(g, random.Random(seed))
            masks, found = hubs_searched(h, spec)
            assert found is None
            counts.add(len(masks))
        if (family, colour) == ("w5w7", "blue"):
            assert counts <= {6, 7}
        else:
            assert len(counts) == 1, (colour, counts)


# first fit in vertex order searched 303 blue hubs here for seeds 1, 2, 4, 5
def test_relabelled_kipas_3mod4_searches_one_blue_hub():
    g = build_from_spec("kipas-3mod4:101").coloring.blue
    for seed in range(1, 6):
        masks, found = hubs_searched(relabelled(g, random.Random(seed)),
                                     parse_pattern("kipas:203"))
        assert found is None and len(masks) == 1, seed


@st.composite
def compositions(draw):
    """A composition over a random pattern of parts that are mostly empty
    (their vertices fill the independent set) and otherwise complete,
    randomly relabelled."""
    k = draw(st.integers(1, 5))
    pattern = Graph.from_edges(
        k, [e for e in combinations(range(k), 2) if draw(st.booleans())])
    kinds = st.sampled_from([graph.empty] * 3 + [graph.complete])
    parts = [draw(kinds)(draw(st.integers(1, 4))) for _ in range(k)]
    return relabelled(graph.compose(pattern, parts), random.Random(draw(st.integers())))


def needs_at_the_bound(g: Graph, rim_kind: str) -> list[int]:
    """For each hub, the rim vertex counts from the largest that the
    independent set allows there up to the hub's degree: the prefilter skips
    the hub at all of them but the first."""
    slack = rim_kind == "path"
    independent = reference_hub_independent(g)
    return sorted({need for row in g.masks()
                   for need in range(2 * (row & ~independent).bit_count() + slack,
                                     row.bit_count() + 1)})


# Each spec is sized so that the prefilter fires on g, or only just holds off.
@given(compositions(), st.data())
def test_independent_set_prefilter_matches_all_hubs(g, data):
    specs = {
        "kipas": [PatternSpec("kipas", n + 1) for n in needs_at_the_bound(g, "path")
                  if n >= 2],
        "wheel": [PatternSpec("wheel", n + 1) for n in needs_at_the_bound(g, "cycle")
                  if n >= 3],
        "fan": [PatternSpec("fan", n // 2) for n in needs_at_the_bound(g, "matching")
                if n and n % 2 == 0],
    }
    assume(any(specs.values()))
    for sized in specs.values():
        if sized:
            spec = data.draw(st.sampled_from(sized))
            assert find_pattern(g, spec) == find_pattern_all_hubs(g, spec), spec


def test_wheel_rim_in_a_complete_tripartite_neighbourhood():
    # hub 6 sees the other 14 vertices, which induce K_{4,3,7}; the cycle
    # search bounds each node by an independent set, so the 14-vertex rim is
    # found in under 1 ms (4-7 s when only the reachable count bounded a node)
    g = from_graph6("N|^^zluu}vZ[uwj~z[G")
    spec = parse_pattern("wheel:15")
    start = time.perf_counter()
    found = find_pattern(g, spec)
    assert time.perf_counter() - start < 0.2
    assert found == find_pattern_all_hubs(g, spec) == [6, 0, 2, 1, 5, 3, 9, 4, 10, 7, 11, 8,
                                                         12, 13, 14]


# the own targets make the search try every hub class; one size smaller finds
# a rim on all sides but w5w7's blue one
@pytest.mark.parametrize("family", ["fan:7,6", "wheel-even:12", "kipas-3mod4:7", "w5w7"])
def test_hub_search_keeps_the_parent_numbering(monkeypatch, family):
    construction = build_from_spec(family)
    orders = []
    original = patterns._find_plain

    def recording(g, spec):
        orders.append(g.n)
        return original(g, spec)

    monkeypatch.setattr(patterns, "_find_plain", recording)
    for color in ("red", "blue"):
        g = getattr(construction.coloring, color)
        own = getattr(construction, f"{color}_target")
        smaller = PatternSpec(own.kind, own.size - 1)
        assert find_pattern(g, own) is None
        found = find_pattern(g, smaller)
        assert found is None or check_embedding(g, smaller, found)
        assert orders and set(orders) == {g.n}
        orders.clear()

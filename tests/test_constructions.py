import math

import pytest

from conftest import component_sizes, degrees
from ramseylb import certify, constructions, graph, patterns
from ramseylb.graph6 import to_graph6
from ramseylb.constructions import (
    Construction,
    ConstructionError,
    build_from_spec,
    fan_construction,
    kipas_1mod4_construction,
    kipas_3mod4_construction,
    kipas_even_construction,
    predicted_lower_bound,
    w5w7_base,
    w5w7_construction,
    wheel_clique_blowup,
    wheel_even_construction,
)


def all_fan_params(m_max=8):
    for m in range(4, m_max + 1):
        for n in range(m, 3 * m // 2 - 1):
            yield n, m


def test_fan_orders_match_formula():
    for n, m in all_fan_params():
        c = fan_construction(n, m)
        assert c.claimed_bound == predicted_lower_bound("fan", n=n, m=m)
        if 4 * n <= 5 * m - 4:
            assert c.coloring.order == 4 * n + math.ceil(m / 2) - 1
        else:
            assert c.coloring.order == 2 * n + 3 * m - 3


def test_fan_diagonal_bound():
    # on the diagonal n = m the bound is ceil(9n/2); 18 at n = 4
    c = fan_construction(4, 4)
    assert c.claimed_bound == 18 == math.ceil(9 * 4 / 2)


def test_fan_parameter_validation():
    for n, m in [(3, 3), (5, 4), (8, 6), (4, 5)]:
        with pytest.raises(ConstructionError):
            fan_construction(n, m)


def test_fan_blocks_partition():
    c = fan_construction(7, 6)
    vs = sorted(v for block in c.blocks.values() for v in block)
    assert vs == list(range(c.coloring.order))
    assert len(c.blocks["K"]) == 2 * 7
    assert len(c.blocks["H3"]) + len(c.blocks["H4"]) == 6 - 1


def test_wheel_even():
    c = wheel_even_construction(8)
    assert c.coloring.order == 3 * 8 - 3
    assert c.claimed_bound == predicted_lower_bound("wheel-even", n=8)
    # red graph is three disjoint K7's
    assert c.coloring.red.is_regular(6)
    assert len(component_sizes(c.coloring.red)) == 3
    with pytest.raises(ConstructionError):
        wheel_even_construction(9)
    with pytest.raises(ConstructionError):
        wheel_even_construction(4)
    with pytest.warns(UserWarning):
        wheel_even_construction(6)


def test_kipas_even():
    c = kipas_even_construction(4)
    assert c.coloring.order == 21
    assert c.claimed_bound == 5 * 4 + 2
    with pytest.raises(ConstructionError):
        kipas_even_construction(1)


def test_kipas_1mod4_variants():
    for variant in ("A", "B"):
        c = kipas_1mod4_construction(6, variant)
        assert c.coloring.order == 5 * 6 - 2
        assert c.claimed_bound == 5 * 6 - 1
    with pytest.raises(ConstructionError):
        kipas_1mod4_construction(5)
    with pytest.raises(ConstructionError):
        kipas_1mod4_construction(6, "C")


def test_kipas_3mod4_regularity():
    for m in (3, 5, 7, 9, 11):
        c = kipas_3mod4_construction(m)
        assert c.coloring.order == 5 * m - 1
        assert c.coloring.red.is_regular(2 * m - 1)
        clique_set = set(c.blocks["K"])
        blue = c.coloring.blue
        for v in range(c.coloring.order):
            if v in clique_set:
                continue
            deg = sum(1 for u in blue.neighbors(v) if u not in clique_set)
            assert deg == m - 1
    with pytest.raises(ConstructionError):
        kipas_3mod4_construction(4)


def test_w5w7():
    base = w5w7_base()
    assert base.n == 7 and base.edge_count() == 10
    assert sorted(degrees(base)) == [2, 3, 3, 3, 3, 3, 3]
    assert not patterns.contains_pattern(base, patterns.clique(3))
    c = w5w7_construction()
    assert c.coloring.order == 14 and c.claimed_bound == 15


def test_wheel_clique_blowup_accepts():
    witness = graph.circulant(13, {1, 5})
    c = wheel_clique_blowup(witness, 5, 5)
    assert c.coloring.order == 26 and c.claimed_bound == 27
    with pytest.raises(ConstructionError):
        wheel_clique_blowup(witness, 4, 5)  # bad wheel kind


@pytest.mark.parametrize(
    "witness,wheel_kind,n,in_complement,target",
    [
        # the 17-vertex quartic-residue-style circulant is NOT triangle-free
        (graph.circulant(17, {1, 2, 4, 8}), 6, 6, False, patterns.clique(3)),
        (graph.complete(4), 7, 5, False, patterns.k4me()),
        (graph.circulant(13, {1, 5}), 5, 4, True, patterns.clique(4)),
    ],
    ids=["triangle", "k4me", "complement-clique"],
)
def test_wheel_clique_blowup_rejects(witness, wheel_kind, n, in_complement, target):
    with pytest.raises(ConstructionError) as exc_info:
        wheel_clique_blowup(witness, wheel_kind, n)
    g = graph.complement(witness) if in_complement else witness
    assert patterns.check_embedding(g, target, exc_info.value.embedding)


def test_predicted_bounds():
    assert predicted_lower_bound("wheel-odd", n=5) == 9
    assert predicted_lower_bound("wheel-odd", n=7) == 15
    assert predicted_lower_bound("kipas", n=6) == 12
    assert predicted_lower_bound("kipas", n=7) == 15
    assert predicted_lower_bound("kipas", n=9) == 19
    assert predicted_lower_bound("w5w7") == 15
    assert predicted_lower_bound("wc-blowup", witness_order=13) == 27
    with pytest.raises(ConstructionError):
        predicted_lower_bound("nope")
    with pytest.raises(ConstructionError):
        predicted_lower_bound("wheel-odd", n=6)


def test_build_from_spec(tmp_path):
    c = build_from_spec("fan:7,6")
    assert isinstance(c, Construction) and c.family == "fan"
    assert build_from_spec("kipas-1mod4:6,b").family == "kipas-1mod4-b"
    assert build_from_spec("w5w7").family == "w5w7"
    # a witness reference is a registry key or a graph6 path
    w13 = tmp_path / "w13.g6"
    w13.write_text(to_graph6(graph.circulant(13, {1, 5})) + "\n")
    for ref in ("k3k5", str(w13)):
        c = build_from_spec(f"wc-blowup:{ref},5,5")
        assert c.claimed_bound == 27
        assert c.coloring.red == graph.blow_up(graph.circulant(13, {1, 5}), graph.complete(2))
    for bad in ["fan:7", "fan:a,b", "w5w7:1", "mystery:3", "wc-blowup:x,5,5",
                "fan:7,6,9", "wheel-even:12,5", "kipas-3mod4:7,x",
                "kipas-1mod4:12,B,zzz", "wc-blowup:k3k6,5,6,99"]:
        with pytest.raises(ConstructionError):
            build_from_spec(bad)


def test_every_family_verifies():
    cases = [
        fan_construction(4, 4),
        wheel_even_construction(8),
        kipas_even_construction(3),
        kipas_1mod4_construction(4, "A"),
        kipas_1mod4_construction(4, "B"),
        kipas_3mod4_construction(5),
        w5w7_construction(),
    ]
    for c in cases:
        cert = certify.verify_construction(c)
        assert cert.verified, f"{c.family} {c.params} refuted: {cert.counterexample}"


import math
import re

import pytest

from conftest import component_sizes, degrees
from ramseylb import certify, constructions, graph, patterns
from ramseylb.coloring import coloring_sha
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
    assert set(degrees(c.coloring.red)) == {6}
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
    # the builder does not check these identities of its block table; every
    # residue of m mod 8 is covered at k = m // 8 = 0 and at k >= 1
    for m in (3, 5, 7, 9, 11, 13, 15, 17, 25):
        c = kipas_3mod4_construction(m)
        assert c.coloring.order == 5 * m - 1
        assert set(degrees(c.coloring.red)) == {2 * m - 1}
        clique_set = set(c.blocks["K"])
        blue = c.coloring.blue
        for v in range(c.coloring.order):
            if v in clique_set:
                continue
            deg = sum(1 for u in graph.bits(blue.masks()[v]) if u not in clique_set)
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


def kipas_bound(n):
    """The paper's lower bound on R(K̂_n, K̂_n): (5n - 6 + sgn(n)) / 2, where
    sgn(n) is 0 for even n, 1 for n = 3 (mod 4) and -1 for n = 1 (mod 4)."""
    sgn = 0 if n % 2 == 0 else 1 if n % 4 == 3 else -1
    return (5 * n - 6 + sgn) // 2


def odd_wheel_bound(n):
    """The paper's lower bound on R(W_n, W_n) for odd n: the kipas formula."""
    assert n % 2 == 1, n
    return kipas_bound(n)


def test_predicted_bounds():
    assert odd_wheel_bound(5) == 9
    assert odd_wheel_bound(7) == 15
    assert kipas_bound(6) == 12
    assert kipas_bound(7) == 15
    assert kipas_bound(9) == 19
    assert predicted_lower_bound("w5w7") == 15
    assert predicted_lower_bound("wc-blowup", witness_order=13) == 27
    # only families that build have a formula in the package
    for family in ("nope", "wheel-odd", "kipas"):
        with pytest.raises(ConstructionError):
            predicted_lower_bound(family, n=7)


# W_n contains the kipas of order n (the hub and a path through the rim), so
# a coloring with no monochromatic kipas:n has none of wheel:n either
ODD_WHEEL_POINTS = [
    ("kipas-3mod4:3", 7),
    ("kipas-1mod4:4", 9),
    ("kipas-1mod4:4,B", 9),
    ("kipas-3mod4:5", 11),
]
KIPAS_POINTS = [("kipas-even:2", 6), ("kipas-3mod4:3", 7), ("kipas-1mod4:4", 9)]


@pytest.mark.parametrize("family, target, n", [
    *((spec, "wheel", n) for spec, n in ODD_WHEEL_POINTS),
    *((spec, "kipas", n) for spec, n in KIPAS_POINTS),
])
def test_formula_points_have_colorings(family, target, n):
    c = build_from_spec(family)
    bound = (odd_wheel_bound if target == "wheel" else kipas_bound)(n)
    assert c.claimed_bound == bound
    spec = patterns.parse_pattern(f"{target}:{n}")
    assert certify.counterexample(c.coloring, spec, spec) is None


def test_build_from_spec(tmp_path):
    c = build_from_spec("fan:7,6")
    assert isinstance(c, Construction) and c.family == "fan"
    assert build_from_spec(" fan:+7, 6 ").params == {"n": 7, "m": 6}
    assert build_from_spec("kipas-1mod4:6,b").family == "kipas-1mod4-b"
    assert build_from_spec("w5w7").family == "w5w7"
    # a witness reference is a registry key or a graph6 path
    w13 = tmp_path / "w13.g6"
    w13.write_text(to_graph6(graph.circulant(13, {1, 5})) + "\n")
    for ref in ("k3k5", str(w13)):
        c = build_from_spec(f"wc-blowup:{ref},5,5")
        assert c.claimed_bound == 27
        blown = graph.compose(graph.circulant(13, {1, 5}), [graph.complete(2)] * 13)
        assert c.coloring.red.masks() == blown.masks()
    for bad in ["fan:7", "fan:a,b", "w5w7:1", "mystery:3", "wc-blowup:x,5,5",
                "fan:7,6,9", "wheel-even:12,5", "kipas-3mod4:7,x",
                "kipas-1mod4:12,B,zzz", "wc-blowup:k3k6,5,6,99",
                "fan:1_0,8", "wheel-even:\u0661\u0662"]:
        with pytest.raises(ConstructionError):
            build_from_spec(bad)
    # a spec with values its builder refuses gets the builder's own message
    for spec, build in [("fan:3,2", lambda: fan_construction(3, 2)),
                        ("wheel-even:7", lambda: wheel_even_construction(7)),
                        ("kipas-1mod4:4,C", lambda: kipas_1mod4_construction(4, "C"))]:
        with pytest.raises(ConstructionError) as direct:
            build()
        with pytest.raises(ConstructionError, match=f"^{re.escape(str(direct.value))}$"):
            build_from_spec(spec)


def test_builders_bound_their_own_order(monkeypatch):
    # every builder bounds its order by coloring.ORDER_LIMIT before it builds
    # a graph or checks a witness, whether a spec or a library call runs it
    base = graph.empty(10001)

    def refuse(*args):
        raise AssertionError("built or checked above the limit")

    for name in ("compose", "complete", "empty", "regular_graph", "counterexample"):
        monkeypatch.setattr(constructions, name, refuse)
    for build, message in [
        (lambda: fan_construction(100000, 80000), "fan:100000,80000 order 439997"),
        (lambda: wheel_even_construction(6674), "wheel-even:6674 order 20019"),
        (lambda: kipas_even_construction(4000), "kipas-even:4000 order 20001"),
        (lambda: kipas_1mod4_construction(4002, "B"), "kipas-1mod4:4002,B order 20008"),
        (lambda: kipas_3mod4_construction(4001), "kipas-3mod4:4001 order 20004"),
        (lambda: wheel_clique_blowup(base, 5, 5), "wc-blowup order 20002"),
    ]:
        with pytest.raises(ConstructionError, match=f"^{message} is above the limit 20000$"):
            build()


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
        cert = certify.verify(c.coloring, c.red_target, c.blue_target)
        assert cert.verified, f"{c.family} {c.params} refuted: {cert.counterexample}"


# coloring_sha of each spec's output; every builder must keep these rows
PINNED_SHAS = {
    "fan:10,8": "7eeee5cd2b960ab1f40ec87a7c7919287d1740f4177e8450df60721fd39b9cbc",
    "fan:16,12": "f9187c9359a90001d78468b0ec08cd013cc80d7613d82d341c86d502b3af4cd8",
    "fan:24,18": "65fa6d6c1a0d54120e043bb0a6b742b79944aa6abd61000349d61b592b64199d",
    "kipas-3mod4:7": "d7c33dc9ca051208355e849291085fa7051333ac988008be30f47fa99f2c6c23",
    "kipas-3mod4:13": "aa3991194c64509976b8c158ad550de3d97850ee0a5ba886b3c8eca9461050c7",
    "kipas-3mod4:17": "5e87dbbbe9252af4d039a4a9be80d109887790e3d1c20fc5201d94694b35e81c",
    "wheel-even:12": "fbadd7e30bfbcf0b1730113b8892fa962df6fd491781dc82e1bd6d89a57e1d95",
    "wheel-even:24": "e1416f6aa616aa95db2f4113ac7183158409f868d0c555361ea4b8e58aac19e4",
    "wheel-even:40": "7d6ddfbb4c0f4ca505b54a284ce5025d8f88a8ee3e4e4ae3ca9290603cd1439b",
    "kipas-even:20": "6fec64bcb0ef99c3e849916173a07093e4d16c371a17e6342499bde428c97069",
    "kipas-1mod4:12,B": "36a87c4a148b378e1c3e705f0ba5c23a6004516d381a4d993e3961b7e12432d1",
    "w5w7": "4541949f0096fb8920b663854ac9f910c29b74e8d2a8d16a5c6a6c065ecea9de",
    "wc-blowup:k3k6,5,6": "7366edba2c5266d0eb164eb699b2f8540ce26feba30ae0f378b7a5b5e1cf7563",
    "wc-blowup:k3k7,5,7": "45c469963c9fe8575fcd5b10e38cd702318145c60ae570bab6edd19a726f9903",
    "wc-blowup:k4mek5,7,5": "8d0f3af4b515c0e31335eaaa16bf50d8d1d6f917c18fc29c49e5d61ddaefc730",
    "fan:4,4": "3066f5200884febe48ed4f3161709a70993ba46b551abf8798ef115c16be53b5",
    "fan:7,6": "94e6a3231598fc7ae63ae90fb639895e610e9ce6e4fac89827610146d25ed984",
    "kipas-3mod4:3": "6c5ff7c612bc6a290e3dc9eb5bc73533eee94b439cc64a8d6fbe9880bffd4dc0",
    "kipas-3mod4:5": "f7df8b8e7941ae1bf14d48f95453ddd273430d61a29445b7fe6064354170b8fe",
    "kipas-3mod4:9": "16e6b0c05749a661db5a67623fadc242de4a20fdc42a0ead4019adadc1004b14",
    "kipas-3mod4:11": "2795ccab763ff55f5f4388c97c51951334d9439f130cf605f3b0b938856995d0",
    "kipas-1mod4:12": "824e7c18b2d0be3cbd1287b770eb38f15a65bd2905a074bf9abbd8c461a8cfa4",
    "fan:5,5": "d2992a03ca7f0e1797983279ff1b58438b8f5e62a39976ca7a3e8d66484f3ec4",
    "fan:8,7": "93db950cb6cf8db176ee966584e1108fc931df1c738ed79cbd1ed38cedeb797a",
    "kipas-even:2": "fc5141f991c2a8ac8e5001ef36fc36590345ca4407b9ee0bc8f18633a22f1e4e",
    "kipas-1mod4:4": "3db7e35789a610e2a5fcfa684fbb937f2bebd0a5efe3a49f8e53ed7d7bebd7f1",
    "kipas-1mod4:4,B": "4b098173ab39ce9c2422b47fadd540c7e9f5978261775a2ed2ab9c8be5cc5cb3",
    "wheel-even:8": "0ac45ab7e5aa80c9ade5a2812748f23bae6953cc01def29293b7ee802335926a",
}


@pytest.mark.parametrize("family", list(PINNED_SHAS))
def test_construct_outputs_pinned(family):
    c = build_from_spec(family)
    assert coloring_sha(c.coloring) == PINNED_SHAS[family]
    assert c.claimed_bound == predicted_lower_bound(c.family, **c.params)

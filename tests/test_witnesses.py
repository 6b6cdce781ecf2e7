import math
import random
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import random_graph, reference_tabu, target_copies
from ramseylb import certify, cli, graph, patterns, witnesses
from ramseylb.graph6 import from_graph6, to_graph6
from ramseylb.witnesses import (
    SEARCH_ORDER_CAP,
    WitnessError,
    WitnessNotFoundError,
    bundled_witness,
    parse_witness_key,
    tabu_search_witness,
)


def test_parse_witness_key():
    assert parse_witness_key("k3k5") == ("k3", 5)
    assert parse_witness_key("k4mek4") == ("k4me", 4)
    assert parse_witness_key("k3k12") == ("k3", 12)
    assert parse_witness_key("k3k+5") == ("k3", 5)
    for bad in ["k3", "k5k3x", "clique3k5", "k3kx", "k3k\u0665", "k3k 5", "k3k1_0"]:
        with pytest.raises(WitnessNotFoundError):
            parse_witness_key(bad)


def test_builtin_circulant_witness():
    assert bundled_witness("k3", 5).masks() == graph.circulant(13, {1, 5}).masks()


def shipped_witnesses():
    """Every data/witnesses/<pair>/<n>.g6 file in the package, as
    (pair, n, graph), with an id that names the pair, n and the order."""
    root = resources.files("ramseylb").joinpath("data/witnesses")
    for pair_dir in sorted(root.iterdir(), key=lambda d: d.name):
        for f in sorted(pair_dir.iterdir(), key=lambda f: f.name):
            if f.name.endswith(".g6"):
                n, g = int(f.name[:-3]), from_graph6(f.read_text())
                yield pytest.param(pair_dir.name, n, g, id=f"{pair_dir.name}-{n}-{g.n}")


@pytest.mark.parametrize("pair,n,shipped", shipped_witnesses())
def test_bundled_file_witnesses(pair, n, shipped):
    # bundled_witness re-verifies the file; a witness on R - 1 vertices is
    # what the pair's clique table row, and so its wheel row, rests on
    assert bundled_witness(pair, n).masks() == shipped.masks()
    assert shipped.n + 1 == certify.CLIQUE_KN_LOWER[pair][n]


def test_missing_witness():
    with pytest.raises(WitnessNotFoundError):
        bundled_witness("k3", 50)
    with pytest.raises(WitnessNotFoundError):
        bundled_witness("k5", 5)


def test_bundled_witness_rejects_bad_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(witnesses, "_bundled_file", lambda pair, n: graph.complete(5))
    with pytest.raises(WitnessError):
        bundled_witness("k3", 6)
    code = cli.main(["blowup", "k3k6", "--factor", "complete:2",
                     "-o", str(tmp_path / "b.g6")])
    assert code == 2 and capsys.readouterr().err.startswith("error:")


def test_tabu_search_deterministic():
    a = tabu_search_witness(8, patterns.clique(3), patterns.clique(4),
                            budget=3000, seed=42)
    b = tabu_search_witness(8, patterns.clique(3), patterns.clique(4),
                            budget=3000, seed=42)
    assert a is not None and a.masks() == b.masks()


def test_tabu_search_result_verifies():
    g = tabu_search_witness(10, patterns.k4me(), patterns.clique(4),
                            budget=100000, seed=1)
    assert g is not None
    assert not patterns.contains_pattern(g, patterns.k4me())
    assert not patterns.contains_pattern(graph.complement(g), patterns.clique(4))


def test_tabu_search_impossible_target():
    # R(K3, K5) = 14: no witness on 14 vertices exists
    g = tabu_search_witness(14, patterns.clique(3), patterns.clique(5),
                            budget=1500, seed=0)
    assert g is None


def test_search_guards(monkeypatch):
    with pytest.raises(WitnessError):
        tabu_search_witness(SEARCH_ORDER_CAP + 1, patterns.clique(3),
                            patterns.clique(3), budget=10, seed=0)
    with pytest.raises(WitnessError):
        tabu_search_witness(-1, patterns.clique(3), patterns.clique(3),
                            budget=10, seed=0)
    with pytest.raises(WitnessError):
        tabu_search_witness(8, patterns.clique(3), patterns.clique(3),
                            budget=-5, seed=0)
    # the objective counts only cliques and K4-e, on either side; the check
    # comes before any flip count is made
    monkeypatch.setattr(witnesses, "_flip_delta", None)
    for avoid, avoid_c in [(patterns.fan(2), patterns.clique(3)),
                           (patterns.clique(3), patterns.fan(2))]:
        for order in (0, 8):
            with pytest.raises(WitnessError, match="clique:k and k4me"):
                tabu_search_witness(order, avoid, avoid_c, budget=10, seed=0)


@pytest.mark.parametrize("order", [1, 8, SEARCH_ORDER_CAP])
def test_search_clique1_has_no_witness(order):
    # every graph on at least one vertex contains K1, on either side
    for avoid, avoid_c in [(patterns.clique(1), patterns.clique(3)),
                           (patterns.k4me(), patterns.clique(1))]:
        with pytest.raises(WitnessError):
            tabu_search_witness(order, avoid, avoid_c, budget=10, seed=0)


def test_search_order_zero_clique1():
    g = tabu_search_witness(0, patterns.clique(1), patterns.clique(1),
                            budget=10, seed=0)
    assert g is not None and g.n == 0


@given(st.integers(2, 12), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10 ** 9))
def test_flip_delta_matches_recount(n, p, seed):
    rng = random.Random(seed)
    adj = list(random_graph(n, p, rng).masks())
    u, v = rng.sample(range(n), 2)
    adding = not adj[u] >> v & 1
    flipped = list(adj)
    flipped[u] ^= 1 << v
    flipped[v] ^= 1 << u
    for spec in [patterns.k4me()] + [patterns.clique(k) for k in range(2, 6)]:
        recount = target_copies(flipped, spec) - target_copies(adj, spec)
        through = witnesses._flip_delta(adj, spec, u, v)
        assert (through if adding else -through) == recount


@given(st.integers(0, 10), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10 ** 9))
def test_table_objective_matches_recount(n, p, seed):
    # the search's start objective: `_flip_delta` summed over a side's edges
    # meets each copy once per edge of it, 5 for K4-e and C(k,2) for K_k
    adj = list(random_graph(n, p, random.Random(seed)).masks())
    for spec, per_copy in [(patterns.k4me(), 5)] + [
            (patterns.clique(k), math.comb(k, 2)) for k in range(2, 7)]:
        met = sum(witnesses._flip_delta(adj, spec, u, v)
                  for u in range(n) for v in graph.bits(adj[u]) if u < v)
        assert met == target_copies(adj, spec) * per_copy


def side_gain(adj, spec) -> list[int]:
    """One side's part of the search's gain table, rebuilt with `_flip_delta`:
    minus the through-count on an edge of the side, plus it elsewhere."""
    n = len(adj)
    return [(-1 if adj[u] >> v & 1 else 1) * witnesses._flip_delta(adj, spec, u, v)
            for u in range(n) for v in range(u + 1, n)]


def pair_ids(n: int) -> list[list[int]]:
    """pid[u][v]: the index of the pair uv in (0, 1), (0, 2), ..., (n-2, n-1)."""
    pid = [[0] * n for _ in range(n)]
    for p, (u, v) in enumerate((u, v) for u in range(n) for v in range(u + 1, n)):
        pid[u][v] = pid[v][u] = p
    return pid


def assert_updates_match_rebuild(start, flips, update=None) -> None:
    """After each flip the incremental gain equals the one rebuilt from
    scratch, on every clique:k side up to k = 8 and k4me."""
    update = update or witnesses._update_through
    pid = pair_ids(len(start))
    for spec in [patterns.k4me()] + [patterns.clique(k) for k in range(2, 9)]:
        adj = list(start)
        gain = side_gain(adj, spec)
        for a, b in flips:
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            gain[pid[a][b]] = -gain[pid[a][b]]
            update(gain, pid, adj, spec, a, b)
            assert gain == side_gain(adj, spec), (spec, a, b)


@given(st.integers(2, 12), st.sampled_from([0.2, 0.5, 0.8, 0.95]),
       st.integers(0, 10 ** 9))
def test_through_table_updates_match_rebuild(n, p, seed):
    rng = random.Random(seed)
    start = list(random_graph(n, p, rng).masks())
    flips = [tuple(rng.sample(range(n), 2)) for _ in range(6)]
    assert_updates_match_rebuild(start, flips)


@pytest.mark.parametrize("n,edges", [
    (2, []),                                    # no y at all
    (5, [(2, 3), (2, 4), (3, 4)]),              # no y next to a or b
    (5, [(0, 2), (1, 2), (2, 3), (3, 4)]),      # y = 3 next to C = {2} only
    # N(a) = {2, 3, 4} and N(b) = {5, 6} on a K5: C empty, every y next to one
    (7, [(0, 2), (0, 3), (0, 4), (1, 5), (1, 6)]
        + [(x, y) for x in range(2, 7) for y in range(x + 1, 7)]),
    (9, [(x, y) for x in range(9) for y in range(x + 1, 9)]),  # K9: C is K7
])
def test_through_table_updates_edge_cases(n, edges):
    # ab toggled twice; clique:3 (only the empty clique of C) and clique:4
    # (the pair step on the empty clique) are among the sides
    start = list(graph.Graph.from_edges(n, edges).masks())
    assert_updates_match_rebuild(start, [(0, 1), (1, 0)])


def test_updates_walk_no_clique_recount(monkeypatch):
    # one flip's increments come from the walk alone: no clique recount and
    # no bits() generator inside _update_through
    def refuse(*args):
        raise AssertionError("called inside _update_through")

    def walk_only(*args):
        with monkeypatch.context() as patched:
            patched.setattr(witnesses, "_count_cliques_within", refuse)
            patched.setattr(witnesses, "bits", refuse)
            witnesses._update_through(*args)

    rng = random.Random(5)
    start = list(random_graph(11, 0.6, rng).masks())
    flips = [tuple(rng.sample(range(11), 2)) for _ in range(8)]
    assert_updates_match_rebuild(start, flips, walk_only)


@pytest.mark.parametrize("seed", [0, 1, 7, 2026])
def test_tie_break_order_is_random_shuffle(seed):
    # the inline draws give shuffle's permutation from the same random numbers
    for length in range(201):
        items = list(range(length))
        expected, drawn = random.Random(seed), random.Random(seed)
        shuffled = items[:]
        expected.shuffle(shuffled)
        got = witnesses._shuffled(items, witnesses._shuffle_draws(length),
                                  drawn.getrandbits)
        assert got == shuffled and items == list(range(length))
        assert drawn.getstate() == expected.getstate()


def test_search_tables_match_rebuild_along_a_search(monkeypatch):
    # the gain table after every step of two real searches (order 17 k4me and
    # order 19 clique:3/clique:7) equals the one rebuilt from scratch; the
    # hypothesis test stops at order 12
    update = witnesses._update_through
    sides = []

    def checked(gain, pid, adj, spec, a, b):
        update(gain, pid, adj, spec, a, b)
        sides.append((adj, spec))
        if len(sides) % 2 == 0:
            (red, avoid), (blue, avoid_c) = sides[-2:]
            rebuilt = map(int.__add__, side_gain(red, avoid), side_gain(blue, avoid_c))
            assert gain == list(rebuilt), (a, b)

    monkeypatch.setattr(witnesses, "_update_through", checked)
    for avoid, avoid_c, order, seed, expected in (PINNED_WITNESSES[0], PINNED_WITNESSES[12]):
        sides.clear()
        g = tabu_search_witness(order, patterns.parse_pattern(avoid),
                                patterns.parse_pattern(avoid_c), budget=100000, seed=seed)
        assert to_graph6(g) == expected
        assert len(sides) > 40


SPECS = [patterns.k4me()] + [patterns.clique(k) for k in range(2, 7)]


@given(st.integers(0, 12), st.sampled_from(SPECS), st.sampled_from(SPECS),
       st.integers(0, 400), st.integers(0, 10 ** 6))
@example(0, patterns.clique(2), patterns.clique(2), 5, 0)
@example(1, patterns.k4me(), patterns.clique(2), 5, 0)
@example(2, patterns.clique(2), patterns.clique(2), 20, 0)
@example(3, patterns.clique(2), patterns.clique(2), 100, 1)
@example(4, patterns.clique(2), patterns.clique(3), 40, 1)
@example(5, patterns.clique(3), patterns.clique(2), 100, 1)
@settings(deadline=None)
def test_tabu_search_matches_reference(order, avoid, avoid_c, budget, seed):
    # the gain-table search makes the same moves as a scan over every pair:
    # same witness, or None for both. The examples at orders 2-5 have no
    # witness and reach steps where every pair is tabu and none beats the
    # best objective seen (11 to 71 such steps each); orders 0 and 1 have no
    # pairs. No deadline: a search with no witness runs its whole budget
    # twice, about 0.1 s at order 12
    got = tabu_search_witness(order, avoid, avoid_c, budget=budget, seed=seed)
    want = reference_tabu(order, avoid, avoid_c, budget, seed)
    assert (got is None) == (want is None)
    assert got is None or to_graph6(got) == to_graph6(want)


@pytest.mark.parametrize("order,avoid,avoid_c,budget,seed", [
    # no witness: both return None after 200 flips. Aspiration re-flips a
    # pair that is still tabu and gives it an earlier expiry than it had; a
    # tenure that kept the later one takes another path here
    (8, "clique:4", "clique:2", 200, 4),
    (5, "clique:3", "clique:2", 100, 1),
    (10, "k4me", "clique:4", 400, 1),
    (12, "clique:3", "clique:5", 400, 3),
])
def test_tabu_search_flips_match_reference(monkeypatch, order, avoid, avoid_c,
                                           budget, seed):
    # the same pair is flipped at every step, not only the same graph returned
    def recording(module, name, flips):
        update = getattr(module, name)

        def record(*args):
            flips.append(args[-2:])
            update(*args)

        monkeypatch.setattr(module, name, record)

    got, want = [], []
    recording(witnesses, "_update_through", got)
    recording(conftest, "_reference_update_through", want)
    avoid, avoid_c = patterns.parse_pattern(avoid), patterns.parse_pattern(avoid_c)
    tabu_search_witness(order, avoid, avoid_c, budget=budget, seed=seed)
    reference_tabu(order, avoid, avoid_c, budget, seed)
    assert got and got == want


# graph6 of the first witness found at budget 100000; the flip scoring may get
# faster but must not change which moves the search makes. The first 24 are
# the benchmark's witness searches, seeds 1-12 of each.
PINNED_WITNESSES = [
    ("k4me", "clique:6", 17, 1, "Pha_pW@Tm?H?RG@_sSt`IEJO"),
    ("k4me", "clique:6", 17, 2, "P@tBJb??WO?VbO`Y[B?FTAcS"),
    ("k4me", "clique:6", 17, 3, "PEKTMGLgRCKaaBP_aWoPB?EK"),
    ("k4me", "clique:6", 17, 4, "PPv?XKSDC@GIaSIUQSi_]Oeg"),
    ("k4me", "clique:6", 17, 5, "PMKE]??Ogw`gSGlCS`?ZCG\\G"),
    ("k4me", "clique:6", 17, 6, "PLBLM?hsIObg?lDQx?Yu?GJS"),
    ("k4me", "clique:6", 17, 7, "Pp`cJSYoHCaWYI_@iCKwG@QW"),
    ("k4me", "clique:6", 17, 8, "PkOZ?mAILPPY@BcciCpGY?W["),
    ("k4me", "clique:6", 17, 9, "PI?HOj@CJIrOKoECXaQEB_BC"),
    ("k4me", "clique:6", 17, 10, "PY?HOQS?SkPELDW]RGUk_GgG"),
    ("k4me", "clique:6", 17, 11, "P?CFfONSIHHO~?lDDq@aWaeC"),
    ("k4me", "clique:6", 17, 12, "PhucD?FBAm`KA`SOq_l`cWc_"),
    ("clique:3", "clique:7", 19, 1, "Rp_k`?X@PSGBc@T??_ROcApWEcQ_p?"),
    ("clique:3", "clique:7", 19, 2, "RLp?SGhGodGH_``AW@?hdF?H?qGEBG"),
    ("clique:3", "clique:7", 19, 3, "RC@tF@Q?cGHP?YC@j?OBrbGPOWKGk?"),
    ("clique:3", "clique:7", 19, 4, "RBO[_?AOCbdPi[eOWkeAGHKSF?@K__"),
    ("clique:3", "clique:7", 19, 5, "R?L?Ee?A`ICmk_QGOBI`o[GIIGLGa?"),
    ("clique:3", "clique:7", 19, 6, "RGiOE`GgA?aCRdg`?M@IWU_Mq_?WXG"),
    ("clique:3", "clique:7", 19, 7, "R`d_Wh@QOA?agCch@dQCOgcGgk?`K?"),
    ("clique:3", "clique:7", 19, 8, "RHO_Ox??A?sMoS@bc\\CX_DkA[gCob?"),
    ("clique:3", "clique:7", 19, 9, "RCCq_YE[?P_K@`IGSHQGBY@AaKSAc_"),
    ("clique:3", "clique:7", 19, 10, "ROcg_G_KSFOQWoOXOOIgHQH?CIiL_?"),
    ("clique:3", "clique:7", 19, 11, "R?T?Q?UkoCP@`_iW?W`RC`ACpIA_V?"),
    ("clique:3", "clique:7", 19, 12, "RIqc@cWO?GgL@@IAOEYDCBSEODHOcG"),
    ("clique:4", "k4me", 10, 1, "Iiybhq^|O"),
    ("clique:4", "k4me", 10, 2, "Ieoz\\PrlO"),
    ("k4me", "clique:5", 14, 1, "MA}_SCUW[aEooDGi_"),
    ("k4me", "clique:5", 14, 2, "MMKS_McO}@GpxOID?"),
]


@pytest.mark.parametrize("avoid,avoid_c,order,seed,expected", PINNED_WITNESSES)
def test_tabu_witnesses_pinned(avoid, avoid_c, order, seed, expected):
    g = tabu_search_witness(order, patterns.parse_pattern(avoid),
                            patterns.parse_pattern(avoid_c), budget=100000, seed=seed)
    assert g is not None and to_graph6(g) == expected

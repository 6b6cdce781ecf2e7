"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines inline.
"""

import math
import random
from contextlib import contextmanager

import pytest

from conftest import degrees, matching_number, random_graph
from ramseylb import certify, cli, constructions, graph, patterns, witnesses
from ramseylb.graph import Graph
from ramseylb.oracle import oracle_contains, oracle_matching_number
from ramseylb.patterns import contains_pattern, parse_pattern


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    print(f"{label}: PASS")


def fan_grid():
    # every (n, m) with 4 <= m <= 8 and m <= n <= floor(3m/2) - 2
    return [
        (n, m) for m in range(4, 9) for n in range(m, 3 * m // 2 - 1)
    ]


def test_criterion_1_fan_bounds(tmp_path):
    with criterion("criterion 1 (fan bounds)"):
        pairs = fan_grid()
        assert pairs, "empty parameter grid"
        for n, m in pairs:
            out = tmp_path / f"fan-{n}-{m}.rbc"
            assert cli.main(["construct", f"fan:{n},{m}", "-o", str(out)]) == 0
            assert cli.main(
                ["verify", str(out), "--red", f"fan:{n}", "--blue", f"fan:{m}"]
            ) == 0
            c = constructions.fan_construction(n, m)
            assert c.coloring.order + 1 == constructions.predicted_lower_bound(
                "fan", n=n, m=m
            )
            if n == m:
                assert c.coloring.order + 1 == math.ceil(9 * n / 2)
        assert constructions.fan_construction(4, 4).coloring.order + 1 == 18


def test_criterion_2_even_wheels():
    with criterion("criterion 2 (even-wheel bounds)"):
        for n in (8, 10, 12):
            c = constructions.wheel_even_construction(n)
            assert c.coloring.order == 3 * n - 3
            cert = certify.verify(c.coloring, c.red_target, c.blue_target)
            assert cert.verified
            assert c.red_target == parse_pattern(f"wheel:{n}")
            assert c.blue_target == parse_pattern(f"wheel:{n}")


def test_criterion_3_kipas_bounds():
    with criterion("criterion 3 (kipas bounds)"):
        for m in (2, 3, 4, 5):
            c = constructions.kipas_even_construction(m)
            assert c.coloring.order == 5 * m + 1
            assert certify.verify(c.coloring, c.red_target, c.blue_target).verified
        for m in (4, 6):
            for variant in ("A", "B"):
                c = constructions.kipas_1mod4_construction(m, variant)
                assert c.coloring.order == 5 * m - 2
                assert certify.verify(c.coloring, c.red_target, c.blue_target).verified
        for m in (3, 5, 7, 9, 11):
            c = constructions.kipas_3mod4_construction(m)
            assert c.coloring.order == 5 * m - 1
            assert set(degrees(c.coloring.red)) == {2 * m - 1}
            clique_set = set(c.blocks["K"])
            blue = c.coloring.blue
            for v in range(c.coloring.order):
                if v in clique_set:
                    continue
                deg = sum(1 for u in graph.bits(blue.masks()[v]) if u not in clique_set)
                assert deg == m - 1
            assert certify.verify(c.coloring, c.red_target, c.blue_target).verified


def test_criterion_4_w5w7():
    with criterion("criterion 4 (R(W5,W7) >= 15)"):
        base = constructions.w5w7_base()
        assert not contains_pattern(base, parse_pattern("clique:3"))
        c = constructions.w5w7_construction()
        assert c.claimed_bound == 15
        cert = certify.verify(c.coloring, c.red_target, c.blue_target)
        assert cert.verified
        assert cert.red_target == parse_pattern("wheel:5")
        assert cert.blue_target == parse_pattern("wheel:7")


def _random_free_graph(n, forbidden, rng):
    """Random maximal-ish graph avoiding `forbidden`, by greedy edge adds."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edges = []
    for u, v in pairs:
        if rng.random() < 0.3:
            continue
        candidate = Graph.from_edges(n, edges + [(u, v)])
        if not contains_pattern(candidate, forbidden):
            edges.append((u, v))
    return Graph.from_edges(n, edges)


def test_criterion_5_blowup_properties():
    with criterion("criterion 5 (blow-up lemmas as properties)"):
        rng = random.Random(2024)
        k2 = graph.complete(2)
        triangle = parse_pattern("clique:3")
        for _ in range(200):
            g = _random_free_graph(rng.randrange(2, 13), triangle, rng)
            b = graph.compose(g, [k2] * g.n)
            assert not contains_pattern(b, parse_pattern("wheel:5"))
            assert not contains_pattern(b, parse_pattern("wheel:6"))
        diamond = parse_pattern("k4me")
        for _ in range(200):
            g = _random_free_graph(rng.randrange(2, 13), diamond, rng)
            b = graph.compose(g, [k2] * g.n)
            assert not contains_pattern(b, parse_pattern("wheel:7"))


def test_criterion_6_wheel_clique_witnesses():
    with criterion("criterion 6 (R(W5,K5) >= 27 and R(W6,K6) >= 35)"):
        w13 = graph.circulant(13, {1, 5})
        assert certify.verify_ramsey_witness(
            w13, parse_pattern("clique:3"), parse_pattern("clique:5")
        ).verified
        c = constructions.wheel_clique_blowup(w13, 5, 5)
        assert c.claimed_bound == 27
        assert certify.verify(c.coloring, c.red_target, c.blue_target).verified
        # 17-vertex (K3, K6) witness from the bundled registry
        w17 = witnesses.bundled_witness("k3", 6)
        assert w17.n == 17
        c = constructions.wheel_clique_blowup(w17, 6, 6)
        assert c.claimed_bound == 35
        assert certify.verify(c.coloring, c.red_target, c.blue_target).verified


@pytest.mark.xfail(
    strict=True,
    reason="circulant(17,{1,2,4,8}) contains triangles (e.g. 0-1-2), so it "
    "cannot witness R(W6,K6) >= 35; the bundled 17-vertex witness is used "
    "instead (see test_criterion_6_wheel_clique_witnesses)",
)
def test_criterion_6_literal_circulant17():
    with criterion("criterion 6 literal (circulant(17,{1,2,4,8}) witness)"):
        w17 = graph.circulant(17, {1, 2, 4, 8})
        assert certify.verify_ramsey_witness(
            w17, parse_pattern("clique:3"), parse_pattern("clique:6")
        ).verified


def test_criterion_7_table_reproduction(capsys):
    with criterion("criterion 7 (table reproduction)"):
        assert cli.main(["table", "all"]) == 0
        stdout = capsys.readouterr().out
        assert "MISMATCH" not in stdout
        rows = {name: certify.derived_row(name) for name in certify.TABLE_ROWS}
        assert len(rows["w5w6"]) + len(rows["w7"]) == 17
        for value in (27, 35, 71, 147):
            assert value in rows["w5w6"].values() and f"{value:5d}" in stdout
        for value in (31, 55, 97):
            assert value in rows["w7"].values() and f"{value:5d}" in stdout


def feasible_specs(n):
    out = [parse_pattern("k4me")]
    for k in range(1, n + 1):
        out.append(parse_pattern(f"clique:{k}"))
        out.append(parse_pattern(f"path:{k}"))
    for length in range(3, n + 1):
        out.append(parse_pattern(f"cycle:{length}"))
    for size in range(1, n // 2 + 1):
        out.append(parse_pattern(f"matching:{size}"))
        out.append(parse_pattern(f"fan:{size}"))
    for order in range(4, n + 1):
        out.append(parse_pattern(f"wheel:{order}"))
    for order in range(3, n + 1):
        out.append(parse_pattern(f"kipas:{order}"))
    return out


def test_criterion_8_oracle_equivalence():
    with criterion("criterion 8 (oracle equivalence)"):
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randrange(1, 10)
            g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
            for spec in feasible_specs(n):
                assert contains_pattern(g, spec) == oracle_contains(g, spec), (
                    g.edges(),
                    str(spec),
                )
        for _ in range(100):
            n = rng.randrange(0, 13)
            g = random_graph(n, rng.choice([0.3, 0.6]), rng)
            assert matching_number(g) == oracle_matching_number(g)


def test_criterion_9_witness_search(tmp_path):
    with criterion("criterion 9 (witness search)"):
        succeeded = False
        for seed in range(1, 6):
            g = witnesses.tabu_search_witness(
                10,
                parse_pattern("k4me"),
                parse_pattern("clique:4"),
                budget=10 ** 6,
                seed=seed,
            )
            if g is None:
                continue
            assert certify.verify_ramsey_witness(
                g, parse_pattern("k4me"), parse_pattern("clique:4")
            ).verified
            succeeded = True
            break
        assert succeeded, "no seed in 1..5 found an order-10 (K4-e, K4) witness"


def test_criterion_10_fan_invariants():
    with criterion("criterion 10 (fan structural invariants)"):
        for n, m in fan_grid():
            c = constructions.fan_construction(n, m)
            assert max(degrees(c.coloring.red)) <= 2 * n - 1
            assert len(c.blocks["H3"]) + len(c.blocks["H4"]) == m - 1

import random
from importlib import resources

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_graph, reference_from_graph6, reference_to_graph6
from ramseylb import graph
from ramseylb.graph6 import Graph6Error, _encode_order, from_graph6, to_graph6


def test_known_encodings():
    # classic examples: K3 is "Bw"; "DqK" is a (relabeled) 5-cycle
    assert to_graph6(graph.complete(3)) == "Bw"
    assert from_graph6("Bw").masks() == graph.complete(3).masks()
    g = from_graph6("DqK")
    assert g.n == 5 and all(row.bit_count() == 2 for row in g.masks())
    from ramseylb.kernels import find_cycle

    assert find_cycle(g, 5) is not None


def test_header_accepted():
    text = ">>graph6<<Bw"
    assert from_graph6(text).masks() == graph.complete(3).masks()


def test_empty_and_single():
    assert from_graph6(to_graph6(graph.empty(0))).n == 0
    assert from_graph6(to_graph6(graph.empty(1))).n == 1


def test_long_form_order():
    g = graph.cycle(100)
    assert from_graph6(to_graph6(g)).masks() == g.masks()
    # 258047 is the largest order the 4-byte long form holds
    assert _encode_order(258047) == b"~}~~"
    with pytest.raises(Graph6Error, match="^order 258048 too large for this writer$"):
        _encode_order(258048)


def test_bad_inputs():
    # each message is the reference reader's
    cases = [
        ("", "empty graph6 string"),
        (">>graph6<<", "empty graph6 string"),
        ("Bw\x01", "character out of graph6 range"),
        ("B\u00e9", "character out of graph6 range"),
        ("~", "truncated graph6 order"),
        ("~?", "truncated graph6 order"),
        ("B", "graph6 body has 0 groups, expected 1"),  # K3 needs one character
        ("Bww", "graph6 body has 2 groups, expected 1"),
        ("~??~", "graph6 body has 0 groups, expected 326"),
        ("Bx", "nonzero padding bits"),
    ]
    for text, message in cases:
        for read in (from_graph6, reference_from_graph6):
            with pytest.raises(Graph6Error) as exc:
                read(text)
            assert str(exc.value) == message


def test_order_limit():
    # an order above coloring.ORDER_LIMIT is refused from the header alone,
    # before the body is measured; the 8-character long form is one of them
    for text, n in (("~Cw`", 20001), ("~~???~??", 258048)):
        with pytest.raises(Graph6Error, match=f"^order {n} is above the limit 20000$"):
            from_graph6(text)
    with pytest.raises(Graph6Error, match="^graph6 body has 0 groups"):
        from_graph6("~Cw_")  # order 20000 is read on


def test_bundled_witness_files_reencode():
    root = resources.files("ramseylb").joinpath("data/witnesses")
    texts = [f.read_text().strip() for d in root.iterdir() for f in d.iterdir()
             if f.name.endswith(".g6")]
    assert texts
    for text in texts:
        assert to_graph6(from_graph6(text)) == text


@given(st.integers(0, 130), st.floats(0.0, 1.0), st.integers(0, 10 ** 9))
@example(62, 0.5, 0)  # the last short-form order
@example(63, 0.5, 0)  # the first long-form order
@example(130, 1.0, 0)
def test_round_trip(n, p, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    text = to_graph6(g)
    assert text == reference_to_graph6(g)
    assert from_graph6(text).masks() == g.masks() == reference_from_graph6(text).masks()

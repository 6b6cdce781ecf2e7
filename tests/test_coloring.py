import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_graph
from ramseylb import graph
from ramseylb.coloring import (
    RbcFormatError,
    TwoColoring,
    coloring_sha,
    from_rbc,
    to_rbc,
)


def test_blue_is_complement():
    c = TwoColoring(graph.cycle(5))
    assert c.blue == graph.complement(c.red)
    assert c.order == 5
    assert TwoColoring(c.blue).blue == c.red


def test_rbc_round_trip():
    c = TwoColoring(graph.cycle(6))
    text = to_rbc(c, comment="six cycle")
    assert text.startswith("# six cycle\nrbc 6\n")
    back = from_rbc(text)
    assert back == c


def test_rbc_comments_and_blanks():
    text = "# hi\n\nrbc 3\n0 1  # inline\n\n1 2\n"
    c = from_rbc(text)
    assert c.red.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "0 1\nrbc 3\n",  # edge before header
        "rbc\n",
        "rbc x\n",
        "rbc -1\n",
        "rbc 3\n0\n",
        "rbc 3\n1 0\n",  # u >= v
        "rbc 3\n0 3\n",  # out of range
        "rbc 3\n0 q\n",
    ],
)
def test_rbc_rejects(text):
    with pytest.raises(RbcFormatError):
        from_rbc(text)


def test_sha_is_canonical():
    c = TwoColoring(graph.path(4))
    assert coloring_sha(c) == coloring_sha(from_rbc(to_rbc(c, comment="x")))
    assert coloring_sha(c) != coloring_sha(TwoColoring(graph.cycle(4)))


@given(st.integers(0, 15), st.integers(0, 10 ** 9))
def test_round_trip_random(n, seed):
    rng = random.Random(seed)
    c = TwoColoring(random_graph(n, 0.5, rng))
    assert from_rbc(to_rbc(c)) == c

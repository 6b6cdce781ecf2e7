import hashlib
import random
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import random_graph, reference_rbc
from ramseylb import graph
from ramseylb.coloring import (
    ORDER_LIMIT,
    OrderLimitError,
    RbcFormatError,
    TwoColoring,
    coloring_sha,
    from_rbc,
    to_rbc,
)


def test_blue_is_complement():
    c = TwoColoring(graph.cycle(5))
    assert c.blue.masks() == graph.complement(c.red).masks()
    assert c.order == 5
    assert TwoColoring(c.blue).blue.masks() == c.red.masks()


def test_rbc_round_trip():
    c = TwoColoring(graph.cycle(6))
    text = to_rbc(c, comment="six cycle")
    assert text.startswith("# six cycle\nrbc 6\n")
    back = from_rbc(text)
    assert back.red.masks() == c.red.masks()


def test_rbc_comments_and_blanks():
    text = "# hi\n\nrbc 3\n0 1  # inline\n\n1 2\n"
    c = from_rbc(text)
    assert c.red.edges() == [(0, 1), (1, 2)]


# rejected texts and their error messages
REJECTS = {
    "": "missing 'rbc <N>' header",
    "0 1\nrbc 3\n": "line 1: expected 'rbc <N>' header",  # edge before header
    "rbc\n": "line 1: expected 'rbc <N>' header",
    "rbc x\n": "line 1: bad order 'x'",
    "rbc -1\n": "line 1: bad order '-1'",
    "rbc 1_1\n": "line 1: bad order '1_1'",  # int() alone reads 11
    "rbc \u0661\n": "line 1: bad order '\u0661'",  # nor an Arabic-Indic 1
    "rbc ++3\n": "line 1: bad order '++3'",
    "rbc 3\n0\n": "line 2: expected 'u v'",
    "rbc 3\n1 0\n": "line 2: edge (1,0) out of range",  # u >= v
    "rbc 3\n0 3\n": "line 2: edge (0,3) out of range",
    "rbc 3\n0 q\n": "line 2: bad edge '0 q'",
    "rbc 3\n0 1 # c\n0  q\n": "line 3: bad edge '0  q'",
    "rbc 11\n0 1_0\n": "line 2: bad edge '0 1_0'",  # int() alone reads (0, 10)
    "rbc 11\n0 \u0661\u0660\n": "line 2: bad edge '0 \u0661\u0660'",
    "rbc 3\n-0 1\n": "line 2: bad edge '-0 1'",
    "rbc 3\n0 +\n": "line 2: bad edge '0 +'",
    "rbc 3\n0 1\x0c1 2\n": "line 2: expected 'u v'",  # no break at a form feed
    "rbc 3\r0 1\r": "line 1: expected 'rbc <N>' header",  # nor at a lone CR
}


@pytest.mark.parametrize("text", list(REJECTS))
def test_rbc_rejects(text):
    with pytest.raises(RbcFormatError) as err:
        from_rbc(text)
    assert str(err.value) == REJECTS[text]


def test_sha_is_canonical():
    c = TwoColoring(graph.path(4))
    assert coloring_sha(c) == coloring_sha(from_rbc(to_rbc(c, comment="x")))
    assert coloring_sha(c) != coloring_sha(TwoColoring(graph.cycle(4)))


@given(st.integers(0, 15), st.integers(0, 10 ** 9))
def test_round_trip_random(n, seed):
    rng = random.Random(seed)
    c = TwoColoring(random_graph(n, 0.5, rng))
    text = to_rbc(c)
    assert text == "".join([f"rbc {n}\n"] + [f"{u} {v}\n" for u, v in c.red.edges()])
    back = from_rbc(text)
    assert back.red.masks() == c.red.masks()
    # canonical text is hashed as it is parsed, not serialized again
    assert back._sha == hashlib.sha256(text.encode("ascii")).hexdigest()


def _edit(lines, rng, n):
    """One edit of the lines of an .rbc text (header first)."""
    kind = rng.randrange(13)
    at = rng.randrange(1, len(lines) + 1)
    if kind == 0:
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = body
    elif kind == 1 and len(lines) > 1:
        i = rng.randrange(1, len(lines))
        lines.insert(i, lines[i])  # adjacent, so only a strict order check sees it
    elif kind == 2:
        lines.insert(at, rng.choice(["# note", "", "   ", "\t"]))
    elif kind == 3 and at < len(lines):
        lines[at] += rng.choice(["  # note", "#", " ", "\r"])
    elif kind == 4 and at < len(lines):
        lines[at] = lines[at].replace(" ", rng.choice(["\t", "  ", " \x0b "]), 1)
    elif kind == 5 and at < len(lines):
        lines[at] = " ".join(rng.choice([t, "00" + t, "+" + t, t + "_0", "-" + t, "\u0661" + t])
                             for t in lines[at].split(" "))
    elif kind == 6:
        u = rng.randrange(-1, n + 2)
        lines.insert(at, f"{u} {rng.randrange(-1, n + 2)}")  # maybe out of range
    elif kind == 7:
        lines.insert(at, rng.choice(["0", "0 1 2", "0 x", "x", "rbc 3", "1,2"]))
    elif kind == 8:
        lines[0] = rng.choice([f"rbc  {n}", f"rbc 00{n}", f"rbc {n} # h", f"rbc {n + 1}",
                               "rbc", "rbc -2", "# no header"])
    elif kind == 9:
        lines.insert(0, rng.choice(["# family x", "", "\r"]))
    elif kind == 10 and at < len(lines):
        lines[at] = lines[at].replace(" ", rng.choice(["\x0c", "\u2028", "\x85"]), 1)
    elif kind == 11 and len(lines) > 1:
        del lines[rng.randrange(len(lines))]
    elif kind == 12 and at < len(lines):
        lines[at] = " ".join(reversed(lines[at].split(" ", 1)))


@given(st.integers(0, 7), st.integers(0, 10 ** 9), st.integers(0, 4),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example(4, 3, 0, "\n", True)  # canonical text
def test_rbc_matches_reference_parser(n, seed, edits, newline, final):
    rng = random.Random(seed)
    red = random_graph(n, 0.5, rng)
    lines = [f"rbc {n}"] + [f"{u} {v}" for u, v in red.edges()]
    for _ in range(edits):
        _edit(lines, rng, n)
    _matches_reference(newline.join(lines) + (newline if final else ""))


def _matches_reference(text):
    """from_rbc(text) has reference_rbc's rows and SHA, or raises its
    message; returns what from_rbc returned, or None."""
    try:
        want = reference_rbc(text)
    except RbcFormatError as exc:
        with pytest.raises(RbcFormatError) as err:
            from_rbc(text)
        assert str(err.value) == str(exc)
        return None
    got = from_rbc(text)
    assert got.order == want.order and got.red.masks() == want.red.masks()
    want_sha = hashlib.sha256(to_rbc(want).encode("ascii")).hexdigest()
    assert coloring_sha(got) == want_sha
    return got


# the edges of the one-pass reader, and whether the SHA is stored as the
# text is parsed; None for a text that raises
READER_EDGES = {
    "rbc 0\n": True,
    "rbc 3\n0 1\n1 2": False,  # no final LF: read line by line
    "rbc 3 # h\n0 1\n": True,  # a header comment leaves the body canonical
    "rbc 4\n 1\n2 3\n": None,  # three tokens on two lines
    "rbc 3\n00 1\n": False,  # not a vertex name
    "rbc +3\n+0 002\n": False,  # a leading + or 0 is read line by line
    "rbc 3\n0 3\n": None,  # out of range
    "rbc 3\n0 1\n0 1\n": False,  # a duplicate line
    "rbc 3\n1 2\n0 1\n": False,  # out of order
    "rbc 3\n1 0\n": None,  # u > v
}


@pytest.mark.parametrize("text", list(READER_EDGES))
def test_reader_edges_match_reference_parser(text):
    got = _matches_reference(text)
    stored = READER_EDGES[text]
    assert (got is None) == (stored is None)
    if got is not None:
        assert (from_rbc(text)._sha is not None) == stored


def test_large_order_reads_in_small_memory():
    # memory grows with the order and the rows, not with order squared
    tracemalloc.start()
    try:
        from_rbc("rbc 20000\n0 19999\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_order_above_limit_raises_before_any_row():
    # the header alone decides: nothing of order squared is built
    tracemalloc.start()
    try:
        with pytest.raises(OrderLimitError, match=f"order {ORDER_LIMIT + 1} is above"):
            from_rbc(f"# big\nrbc {ORDER_LIMIT + 1}\n0 1\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ramseylb import certify, cli, coloring, constructions, graph, patterns, witnesses
from ramseylb.graph6 import from_graph6, to_graph6


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_and_verify(tmp_path, capsys):
    out = tmp_path / "fan.rbc"
    code, stdout, _ = run(capsys, "construct", "fan:7,6", "-o", str(out))
    assert code == 0
    assert stdout == "order 29 claimed-bound 30\n"
    cert = tmp_path / "fan.json"
    code, stdout, _ = run(
        capsys, "verify", str(out), "--red", "fan:7", "--blue", "fan:6",
        "--certificate", str(cert),
    )
    assert code == 0
    assert stdout.startswith("verified:")
    data = json.loads(cert.read_text())
    assert data["result"] == "verified" and data["order"] == 29


def test_output_overwrites_longer_file(tmp_path, capsys):
    rbc, cert = tmp_path / "fan.rbc", tmp_path / "fan.json"
    run(capsys, "construct", "fan:7,6", "-o", str(rbc))
    fresh = rbc.read_bytes()
    rbc.write_text("x" * 100000)
    cert.write_text("x" * 100000)
    run(capsys, "construct", "fan:7,6", "-o", str(rbc))
    assert rbc.read_bytes() == fresh
    code, _, _ = run(capsys, "verify", str(rbc), "--red", "fan:7", "--blue", "fan:6",
                     "--certificate", str(cert))
    assert code == 0 and json.loads(cert.read_text())["result"] == "verified"
    code, stdout, _ = run(capsys, "construct", "fan:7,6", "-o", os.devnull)
    assert code == 0 and stdout == "order 29 claimed-bound 30\n"


def test_calls_in_one_process_are_independent(tmp_path, capsys):
    # main runs many calls in one process, so no option or result may carry
    # over between calls: each gives the same answer again after the others
    k5, fan, cert = tmp_path / "k5.rbc", tmp_path / "fan.rbc", tmp_path / "k5.json"
    k5.write_text("rbc 5\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5)))
    calls = [
        (["verify", str(k5), "--red", "clique:3", "--blue", "clique:3",
          "--certificate", str(cert)], 1, "refuted: red clique:3 at 4 3 2\n", ""),
        (["verify", str(k5), "--red", "blob:2", "--blue", "fan:2"], 2, "", "error:"),
        (["construct", "fan:7,6", "-o", str(fan)], 0, "order 29 claimed-bound 30\n", ""),
        (["verify", str(fan), "--red", "fan:7", "--blue", "fan:6"], 0,
         "verified: no red fan:7, no blue fan:6 (order 29)\n", ""),
    ]
    first = []
    for argv, code, out, err in calls:
        cert.unlink(missing_ok=True)
        got = run(capsys, *argv)
        assert got[0] == code and got[1] == out and got[2].startswith(err)
        assert cert.exists() == ("--certificate" in argv)
        first.append(got)
    assert [run(capsys, *argv) for argv, *_ in calls] == first


def test_construct_byte_stable(tmp_path, capsys):
    a = tmp_path / "a.rbc"
    b = tmp_path / "b.rbc"
    run(capsys, "construct", "kipas-3mod4:7", "-o", str(a))
    run(capsys, "construct", "kipas-3mod4:7", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_refuted(tmp_path, capsys):
    path = tmp_path / "bad.rbc"
    lines = ["rbc 5"] + [f"{u} {v}" for u in range(5) for v in range(u + 1, 5)]
    path.write_text("\n".join(lines) + "\n")
    code, stdout, _ = run(
        capsys, "verify", str(path), "--red", "clique:3", "--blue", "clique:3"
    )
    assert code == 1
    assert stdout.startswith("refuted: red clique:3")


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    # a crash is exit 4, never 1 ("refuted"): one line on stderr, no verdict
    # and no certificate
    def crash(*args):
        raise RuntimeError("detector fault")

    rbc, cert = tmp_path / "fan.rbc", tmp_path / "fan.json"
    run(capsys, "construct", "fan:7,6", "-o", str(rbc))
    monkeypatch.setattr(patterns, "find_pattern", crash)
    code, stdout, err = run(capsys, "verify", str(rbc), "--red", "fan:7", "--blue", "fan:6",
                            "--certificate", str(cert))
    assert (code, stdout, err) == (4, "", "internal error: RuntimeError: detector fault\n")
    assert not cert.exists()


def test_input_errors(tmp_path, capsys):
    for family in ["fan:9,4", "wheel-even:12,5"]:
        code, _, err = run(capsys, "construct", family, "-o", str(tmp_path / "x"))
        assert code == 2 and err.startswith("error:")
        assert not (tmp_path / "x").exists()
    code, _, err = run(
        capsys, "verify", str(tmp_path / "missing.rbc"),
        "--red", "fan:2", "--blue", "fan:2",
    )
    assert code == 2
    bad = tmp_path / "bad.rbc"
    bad.write_text("not an rbc file\n")
    code, _, err = run(capsys, "verify", str(bad), "--red", "fan:2", "--blue", "fan:2")
    assert code == 2
    code, _, err = run(
        capsys, "verify", str(bad), "--red", "blob:2", "--blue", "fan:2"
    )
    assert code == 2
    # a pattern size follows the .rbc numeral rule: `1_0` and other scripts'
    # digits are input errors with no verdict, `+10` and spaces are read
    fan = tmp_path / "fan.rbc"
    run(capsys, "construct", "fan:10,8", "-o", str(fan))
    for red, blue in (("fan:1_0", "fan:8"), ("fan:10", "fan:\u0668")):
        code, stdout, err = run(capsys, "verify", str(fan), "--red", red, "--blue", blue)
        assert (code, stdout) == (2, "") and err.startswith("error:")
    code, stdout, _ = run(capsys, "verify", str(fan), "--red", "fan:+10", "--blue", " fan: 8 ")
    assert code == 0 and stdout == "verified: no red fan:10, no blue fan:8 (order 41)\n"


def test_verify_parses_patterns_before_the_coloring(tmp_path, capsys, monkeypatch):
    rbc = tmp_path / "k5.rbc"
    rbc.write_text(coloring.to_rbc(coloring.TwoColoring(graph.complete(5))))

    def unread(text):
        raise AssertionError("the coloring was parsed")

    monkeypatch.setattr(cli, "from_rbc", unread)
    for red, blue in (("blob:2", "fan:2"), ("fan:2", "wheel:3")):
        code, stdout, err = run(capsys, "verify", str(rbc), "--red", red, "--blue", blue)
        assert (code, stdout) == (2, "") and err.startswith("error:")


def test_verify_order_above_limit_is_unknown(tmp_path, capsys):
    big = tmp_path / "big.rbc"
    big.write_text("rbc 1000000\n")
    code, stdout, err = run(capsys, "verify", str(big), "--red", "clique:3",
                            "--blue", "clique:3", "--certificate", str(tmp_path / "c.json"))
    assert (code, stdout, err) == (
        3, f"unknown: order 1000000 is above the limit {coloring.ORDER_LIMIT}\n", "")
    assert not (tmp_path / "c.json").exists()


def test_verify_breaks_lines_at_lf_only(tmp_path, capsys):
    # a form feed is whitespace inside a line, so "0 1<FF>1 2" is one line
    # with four fields; a CR before the LF is whitespace too, and a file
    # with CRs alone is one line
    ff, crlf = tmp_path / "ff.rbc", tmp_path / "crlf.rbc"
    cr = tmp_path / "cr.rbc"
    ff.write_bytes(b"rbc 3\n0 1\x0c1 2\n")
    crlf.write_bytes(b"# path\r\nrbc 3\r\n1 2\r\n0 1\r\n")
    cr.write_bytes(b"rbc 3\r0 1\r1 2\r")
    code, stdout, err = run(capsys, "verify", str(ff), "--red", "clique:3",
                            "--blue", "clique:3")
    assert (code, stdout, err) == (2, "", "error: line 2: expected 'u v'\n")
    code, stdout, err = run(capsys, "verify", str(cr), "--red", "clique:3",
                            "--blue", "clique:3")
    assert (code, stdout, err) == (2, "", "error: line 1: expected 'rbc <N>' header\n")
    code, stdout, _ = run(capsys, "verify", str(crlf), "--red", "clique:3",
                          "--blue", "clique:3")
    assert code == 0
    assert stdout == "verified: no red clique:3, no blue clique:3 (order 3)\n"


def test_witness_errors_unquoted(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "wc-blowup:k3k99,5,6",
                       "-o", str(tmp_path / "x.rbc"))
    assert code == 2
    assert err == (
        "error: bad family spec 'wc-blowup:k3k99,5,6': no bundled witness "
        "for (k3, n=99); supply file or run search\n"
    )
    code, _, err = run(capsys, "blowup", "zz5", "--factor",
                       "complete:2", "-o", str(tmp_path / "x.g6"))
    assert code == 2
    assert err == "error: bad witness key 'zz5' (expected e.g. k3k5)\n"
    assert not (tmp_path / "x.rbc").exists() and not (tmp_path / "x.g6").exists()


def test_missing_witness_file(tmp_path, capsys, monkeypatch):
    # a ref that ends in .g6 or holds a path separator is a file, never a key
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "blowup", "missing.g6", "--factor", "complete:2",
                       "-o", "x.g6")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: 'missing.g6'\n"
    # a factor is resolved like the base
    code, _, err = run(capsys, "blowup", "k3k5", "--factor", "missing.g6",
                       "-o", "x.g6")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: 'missing.g6'\n"
    code, _, err = run(capsys, "construct", "wc-blowup:nodir/missing.g6,5,5",
                       "-o", "x.rbc")
    assert code == 2
    assert err == "error: [Errno 2] No such file or directory: 'nodir/missing.g6'\n"
    assert not (tmp_path / "x.g6").exists() and not (tmp_path / "x.rbc").exists()


def test_table_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(certify.CLIQUE_KN_LOWER["k3"], 5, 13)
    code, stdout, _ = run(capsys, "table", "all")
    assert code == 1 and "MISMATCH at n = [5]" in stdout
    code, stdout, _ = run(capsys, "table", "w7")
    assert code == 0 and "MISMATCH" not in stdout


def test_table(capsys):
    code, stdout, _ = run(capsys, "table", "all")
    assert code == 0
    assert "table w5w6" in stdout and "table w7" in stdout
    assert "147" in stdout and "97" in stdout
    assert "MISMATCH" not in stdout


def test_blowup_witness(tmp_path, capsys):
    # the positional base takes a bundled witness key, and the -o path names
    # the format: *.rbc gets a coloring with the blow-up as red, any other
    # path graph6
    base = witnesses.resolve_witness("k3k5")
    blown = graph.compose(base, [graph.complete(2)] * base.n)
    for name in ("b.g6", "b.txt"):
        out = tmp_path / name
        code, stdout, _ = run(
            capsys, "blowup", "k3k5", "--factor", "complete:2", "-o", str(out),
        )
        assert code == 0 and stdout == "graph6 26\n"
        assert from_graph6(out.read_text()).masks() == blown.masks()
    # a graph6 output reads back as a blowup base
    again = tmp_path / "again.g6"
    code, _, _ = run(capsys, "blowup", str(tmp_path / "b.g6"), "--factor", "complete:1",
                     "-o", str(again))
    assert code == 0 and again.read_text() == (tmp_path / "b.g6").read_text()
    rbc = tmp_path / "b.rbc"
    code, stdout, _ = run(
        capsys, "blowup", "k3k5", "--factor", "complete:2", "-o", str(rbc),
    )
    assert code == 0 and stdout == "rbc 26\n"
    assert coloring.from_rbc(rbc.read_text()).red.masks() == blown.masks()
    code, _, _ = run(
        capsys, "verify", str(rbc), "--red", "wheel:5", "--blue", "clique:5"
    )
    assert code == 0
    # --witness and --as-red are gone: an option the parser does not know
    # exits 2 and writes nothing
    for gone in ("--witness", "--as-red"):
        out = tmp_path / "gone.rbc"
        with pytest.raises(SystemExit) as exc:
            cli.main(["blowup", "k3k5", gone, "--factor", "complete:2", "-o", str(out)])
        assert exc.value.code == 2 and not out.exists()
    with pytest.raises(SystemExit) as exc:
        cli.main(["blowup", "--help"])
    help_text = capsys.readouterr().out
    assert exc.value.code == 0 and "--output" in help_text and "--as-red" not in help_text


def test_large_blowup_verifies(tmp_path, capsys):
    # order 440: the blue side is 22 independent classes of 20 false twins,
    # refuted on one vertex per class
    rbc = tmp_path / "b.rbc"
    code, _, _ = run(capsys, "blowup", "k3k7", "--factor", "complete:20",
                     "-o", str(rbc))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(rbc), "--red", "clique:41",
                          "--blue", "clique:7")
    assert code == 0 and stdout.startswith("verified:")


def test_written_colorings_are_hashed_as_parsed(tmp_path, capsys, monkeypatch):
    # construct writes a comment line before the header; blowup to an .rbc
    # path writes none. Both bodies are canonical, so verify hashes the file as
    # it reads it and never serializes the coloring again.
    fan, blown = tmp_path / "fan.rbc", tmp_path / "blown.rbc"
    assert run(capsys, "construct", "fan:7,6", "-o", str(fan))[0] == 0
    assert run(capsys, "blowup", "k3k5", "--factor", "complete:2",
               "-o", str(blown))[0] == 0
    assert fan.read_text().startswith("# ")

    def no_serializing(*args, **kwargs):
        raise AssertionError("to_rbc called")

    monkeypatch.setattr(coloring, "to_rbc", no_serializing)
    for rbc, red, blue in ((fan, "fan:7", "fan:6"), (blown, "wheel:5", "clique:5")):
        cert = rbc.with_suffix(".json")
        code, _, _ = run(capsys, "verify", str(rbc), "--red", red, "--blue", blue,
                         "--certificate", str(cert))
        assert code == 0
        canonical = "".join(line for line in rbc.read_text().splitlines(keepends=True)
                            if not line.startswith("#"))
        want = hashlib.sha256(canonical.encode("ascii")).hexdigest()
        assert json.loads(cert.read_text())["coloring_sha"] == want


def test_blowup_file_base(tmp_path, capsys):
    base = tmp_path / "c5.g6"
    base.write_text(to_graph6(graph.cycle(5)) + "\n")
    out = tmp_path / "out.g6"
    code, stdout, _ = run(
        capsys, "blowup", str(base), "--factor", "complete:3", "-o", str(out)
    )
    assert code == 0 and stdout == "graph6 15\n"
    blown = out.read_text()
    code, stdout, _ = run(
        capsys, "blowup", str(base), "--factor", "complete:+3", "-o", str(out)
    )
    assert code == 0 and out.read_text() == blown
    # any other factor is a graph6 path or a bundled key, read as the base is
    code, stdout, _ = run(capsys, "blowup", str(base), "--factor", "k3k5", "-o", str(out))
    assert code == 0 and stdout == "graph6 65\n"
    assert from_graph6(out.read_text()).masks() == graph.compose(
        graph.cycle(5), [witnesses.resolve_witness("k3k5")] * 5).masks()
    code, _, err = run(capsys, "blowup", str(base), "--factor", "k3", "-o", str(out))
    assert code == 2 and err == "error: bad witness key 'k3' (expected e.g. k3k5)\n"
    # the base is required: a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["blowup", "--factor", "complete:2", "-o", str(out)])
    assert exc.value.code == 2
    code, _, err = run(
        capsys, "blowup", str(base), "--factor", "complete:x", "-o", str(out)
    )
    assert code == 2


def test_blowup_order_limit(tmp_path, capsys):
    # a blow-up above coloring.ORDER_LIMIT is refused before its factor or
    # any row is built, and writes no file
    out = tmp_path / "big.g6"
    code, stdout, err = run(
        capsys, "blowup", "k3k5", "--factor", "complete:1600", "-o", str(out)
    )
    assert code == 2 and stdout == ""
    assert err == "error: blow-up order 20800 is above the limit 20000\n"
    # a graph6 factor is bounded once it is read
    base, factor = tmp_path / "base.g6", tmp_path / "factor.g6"
    base.write_text(to_graph6(graph.empty(200)) + "\n")
    factor.write_text(to_graph6(graph.empty(101)) + "\n")
    code, _, err = run(capsys, "blowup", str(base), "--factor", str(factor),
                       "-o", str(out))
    assert code == 2
    assert err == "error: blow-up order 20200 is above the limit 20000\n"
    assert not out.exists()
    for factor in ("complete:-1", "complete:1_0", "complete:\u0661"):
        code, _, err = run(capsys, "blowup", "k3k5", "--factor", factor,
                           "-o", str(out))
        assert code == 2 and err == f"error: bad factor {factor!r}\n"
    # a graph6 base above the limit is refused from its header alone
    base.write_text("~Cw`\n")
    code, _, err = run(capsys, "blowup", str(base), "--factor", "complete:1",
                       "-o", str(out))
    assert code == 2 and err == "error: order 20001 is above the limit 20000\n"
    assert not out.exists()


def test_construct_wc_blowup(tmp_path, capsys):
    w13 = tmp_path / "w13.g6"
    w13.write_text(to_graph6(graph.circulant(13, {1, 5})) + "\n")
    for ref in ("k3k5", str(w13)):
        out = tmp_path / "w.rbc"
        code, stdout, _ = run(capsys, "construct", f"wc-blowup:{ref},5,5", "-o", str(out))
        assert code == 0
        assert stdout == "order 26 claimed-bound 27\n"


def test_construct_order_limit(tmp_path, capsys, monkeypatch):
    # the order a family claims is bounded by coloring.ORDER_LIMIT before any
    # graph is built or witness checked; above it, an input error and no file
    def refuse(*args):
        raise AssertionError("built or checked above the limit")

    out = tmp_path / "huge.rbc"
    for name in ("compose", "counterexample"):
        monkeypatch.setattr(constructions, name, refuse)
    code, stdout, err = run(capsys, "construct", "fan:100000,80000", "-o", str(out))
    assert (code, stdout) == (2, "")
    assert err == "error: fan:100000,80000 order 439997 is above the limit 20000\n"
    monkeypatch.setattr(constructions, "ORDER_LIMIT", 25)
    code, _, err = run(capsys, "construct", "wc-blowup:k3k5,5,5", "-o", str(out))
    assert code == 2 and err == "error: wc-blowup order 26 is above the limit 25\n"
    assert not out.exists()
    monkeypatch.undo()
    # the limit itself is allowed
    monkeypatch.setattr(constructions, "ORDER_LIMIT", 29)
    assert run(capsys, "construct", "fan:7,6", "-o", str(out))[:2] == (
        0, "order 29 claimed-bound 30\n")
    monkeypatch.setattr(constructions, "ORDER_LIMIT", 28)
    assert run(capsys, "construct", "fan:7,6", "-o", str(out))[0] == 2


def test_construct_checks_a_bundled_witness_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return certify.counterexample(*args)

    for module in (witnesses, constructions):
        monkeypatch.setattr(module, "counterexample", counting)
    out = tmp_path / "w.rbc"
    code, stdout, _ = run(capsys, "construct", "wc-blowup:k3k6,5,6", "-o", str(out))
    assert (code, stdout, len(calls)) == (0, "order 34 claimed-bound 35\n", 1)
    # blowup of a witness key still re-verifies the bundled graph
    code, _, _ = run(capsys, "blowup", "k3k6", "--factor", "complete:2",
                     "-o", str(tmp_path / "b.g6"))
    assert (code, len(calls)) == (0, 2)
    # a .g6 witness is checked against the construction's n: circulant(13,
    # {1, 5}) has independent 4-sets, so it is no (K3, K4) witness
    w13 = tmp_path / "w13.g6"
    w13.write_text(to_graph6(graph.circulant(13, {1, 5})) + "\n")
    code, _, err = run(capsys, "construct", f"wc-blowup:{w13},5,4", "-o", str(out))
    assert (code, len(calls)) == (2, 3)
    assert err.startswith("error: witness is not a (clique:3, clique:4) witness")
    # a bad bundled witness still fails the one check
    monkeypatch.setattr(witnesses, "_bundled_file", lambda pair, n: graph.complete(17))
    out.unlink()
    code, _, err = run(capsys, "construct", "wc-blowup:k3k6,5,6", "-o", str(out))
    assert (code, len(calls)) == (2, 4)
    assert err.startswith("error: witness is not a (clique:3, clique:6) witness: red")
    assert not out.exists()


def test_search_success_and_exhaustion(tmp_path, capsys):
    out = tmp_path / "w.g6"
    cert = tmp_path / "w.json"
    code, stdout, _ = run(
        capsys, "search", "--order", "10", "--avoid", "k4me",
        "--avoid-c", "clique:4", "--seed", "1", "-o", str(out),
        "--certificate", str(cert),
    )
    assert code == 0 and "witness order 10" in stdout
    assert json.loads(cert.read_text())["result"] == "verified"
    # impossible target: R(K3,K3) = 6
    code, stdout, _ = run(
        capsys, "search", "--order", "6", "--avoid", "clique:3",
        "--avoid-c", "clique:3", "--seed", "1", "--budget", "500",
        "-o", str(out),
    )
    assert code == 3 and stdout.startswith("no witness")


def test_oracle_check(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(to_graph6(graph.cycle(8)) + "\n")
    code, stdout, _ = run(capsys, "oracle-check", str(path), "--pattern", "cycle:8")
    assert code == 0 and stdout == "detector True oracle True\n"
    code, stdout, _ = run(capsys, "oracle-check", str(path), "--pattern", "clique:3")
    assert code == 0 and stdout == "detector False oracle False\n"
    # the graph is resolved as a blow-up base is: a bundled key reads too
    code, stdout, _ = run(capsys, "oracle-check", "k3k5", "--pattern", "clique:3")
    assert code == 0 and stdout == "detector False oracle False\n"


def test_oracle_check_guard_before_detector(tmp_path, capsys, monkeypatch):
    # above the oracle's order cap the input error comes before any search
    def refuse(*args):
        raise AssertionError("detector ran before the oracle guard")

    monkeypatch.setattr(patterns, "find_pattern", refuse)
    path = tmp_path / "p17.g6"
    path.write_text(to_graph6(graph.path(17)) + "\n")
    code, stdout, err = run(capsys, "oracle-check", str(path), "--pattern", "path:17")
    assert code == 2 and stdout == ""
    assert err == "error: oracle_contains limited to order 16, got 17\n"


# modules that `verify` does without: each command imports the ramseylb
# modules only it uses, no module imports dataclasses, and the arguments are
# read from cli.COMMANDS, not by argparse (which imports gettext)
NOT_IMPORTED_BY_VERIFY = (
    "dataclasses", "inspect", "typing", "random", "importlib.resources", "argparse", "gettext",
    "ramseylb.oracle", "ramseylb.constructions", "ramseylb.witnesses", "ramseylb.graph6",
)


def test_verify_start_up_import_set(tmp_path):
    # a fresh interpreter without `site`, which may import random and typing
    # itself; C5 colors K5 with no monochromatic triangle
    rbc = tmp_path / "c5.rbc"
    rbc.write_text("rbc 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from ramseylb.cli import main\n"
        "code = main(['verify', sys.argv[2], '--red', 'clique:3', '--blue', 'clique:3',\n"
        "             '--certificate', sys.argv[3]])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    cert = tmp_path / "c5.json"
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(src), str(rbc), str(cert)],
        capture_output=True, text=True, check=True,
    )
    verdict, last = done.stdout.splitlines()
    code, modules = json.loads(last)
    assert code == 0 and verdict.startswith("verified: no red clique:3")
    assert json.loads(cert.read_text())["result"] == "verified"
    assert "ramseylb.certify" in modules
    assert [name for name in NOT_IMPORTED_BY_VERIFY if name in modules] == []


def test_module_entry_point(tmp_path):
    # `python -m ramseylb.cli` reads sys.argv and exits with main's code:
    # the red C5 holds a red clique:2, so the coloring is refuted (exit 1)
    rbc = tmp_path / "c5.rbc"
    rbc.write_text("rbc 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "ramseylb.cli", "verify", str(rbc),
         "--red", "clique:2", "--blue", "clique:3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert done.returncode == 1 and done.stderr == ""
    assert done.stdout.startswith("refuted: red clique:2 ")


def test_search_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["search", "--order", "6", "--avoid", "clique:3",
                  "--avoid-c", "clique:3", "-o", str(tmp_path / "x.g6")])
    capsys.readouterr()


def test_search_checks_its_witness_once(tmp_path, capsys, monkeypatch):
    calls, check = [], certify.counterexample

    def counting(*args):
        calls.append(args)
        return check(*args)

    for module in (certify, witnesses):
        monkeypatch.setattr(module, "counterexample", counting)
    # the search returns its zero-objective graph unchecked; the one detector
    # run is the certificate's
    out, cert = tmp_path / "w.g6", tmp_path / "w.json"
    code, _, _ = run(capsys, "search", "--order", "17", "--avoid", "k4me",
                     "--avoid-c", "clique:6", "--seed", "1", "-o", str(out),
                     "--certificate", str(cert))
    assert (code, len(calls)) == (0, 1)
    assert out.read_text() == "Pha_pW@Tm?H?RG@_sSt`IEJO\n"
    assert json.loads(cert.read_text())["result"] == "verified"
    found = witnesses.tabu_search_witness(17, patterns.k4me(), patterns.clique(6),
                                          budget=100000, seed=1)
    assert to_graph6(found) == "Pha_pW@Tm?H?RG@_sSt`IEJO" and len(calls) == 1


def test_search_result_failing_verification(tmp_path, capsys, monkeypatch):
    # a search result that contains the avoided pattern is reported, not kept
    monkeypatch.setattr(
        witnesses, "tabu_search_witness", lambda *a, **k: graph.complete(5)
    )
    out = tmp_path / "w.g6"
    code, stdout, _ = run(
        capsys, "search", "--order", "5", "--avoid", "clique:3",
        "--avoid-c", "clique:3", "--seed", "1", "-o", str(out),
    )
    assert code == 1 and stdout.startswith("search result failed verification")
    assert not out.exists()


@pytest.mark.parametrize("order,budget", [("-1", "100"), ("8", "-5")])
def test_search_negative_order_or_budget(tmp_path, capsys, order, budget):
    code, _, err = run(
        capsys, "search", "--order", order, "--budget", budget, "--avoid", "clique:3",
        "--avoid-c", "clique:3", "--seed", "1", "-o", str(tmp_path / "w.g6"),
    )
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("option,value", [
    ("--order", "1_0"), ("--budget", "1_000"), ("--order", "\u0661\u0660"), ("--budget", "+1e3"),
    ("--seed", "1_0"), ("--seed", "\u0663"), ("--seed", "-1"),
])
def test_search_counts_follow_the_rbc_numeral_rule(tmp_path, capsys, option, value):
    # --order, --budget and --seed are counts: ASCII digits after an optional
    # +, as in .rbc files; `int` would also take `1_0` and other scripts' digits
    counts = {"--order": "10", "--budget": "1000", "--seed": "1", option: value}
    out = tmp_path / "w.g6"
    code, stdout, err = run(
        capsys, "search", *(text for item in counts.items() for text in item),
        "--avoid", "clique:3", "--avoid-c", "clique:4", "-o", str(out),
    )
    assert (code, stdout, err) == (2, "", f"error: bad {option} {value!r}\n")
    assert not out.exists()


def test_search_seed_takes_a_plus_sign(tmp_path, capsys):
    # `+1` is seed 1 under the .rbc numeral rule, as `+10` is order 10
    argv = ["search", "--order", "10", "--avoid", "k4me", "--avoid-c", "clique:4"]
    found = []
    for name, seed in (("one", "1"), ("plus-one", "+1")):
        out = tmp_path / f"{name}.g6"
        code, _, _ = run(capsys, *argv, "--seed", seed, "-o", str(out))
        assert code == 0
        found.append(out.read_text())
    assert found[0] == found[1]


@pytest.mark.parametrize("avoid,avoid_c", [("clique:1", "clique:3"), ("clique:3", "clique:1")])
def test_search_clique1_is_input_error(tmp_path, capsys, avoid, avoid_c):
    # every graph on a vertex or more contains K1: no budget can find a witness
    code, _, err = run(
        capsys, "search", "--order", "64", "--budget", "10", "--avoid", avoid,
        "--avoid-c", avoid_c, "--seed", "1", "-o", str(tmp_path / "w.g6"),
    )
    assert code == 2 and err.startswith("error:")


def test_input_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe rbc 5\n")
    code, _, err = run(capsys, "verify", str(bad), "--red", "fan:2", "--blue", "fan:2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "oracle-check", str(bad), "--pattern", "clique:3")
    assert code == 2 and err.startswith("error:")
    spec = f"wc-blowup:{bad},5,5"
    code, _, err = run(capsys, "construct", spec, "-o", str(tmp_path / "w.rbc"))
    assert code == 2 and err.startswith(f"error: bad family spec {spec!r}")
    assert "'utf-8' codec can't decode" in err
    assert not (tmp_path / "w.rbc").exists()


# The argument grammar of every command, run through cli.main in a directory
# holding c5.rbc (C5 colors K5 with no one-color triangle) and c5.g6: each
# case is an argv, its exit code and the files it writes there.
GRAMMAR = [
    # every command line of the README
    ("construct fan:7,6 -o fan.rbc", 0, {"fan.rbc"}),
    ("verify c5.rbc --red clique:3 --blue clique:3 --certificate c5.json", 0, {"c5.json"}),
    ("blowup k3k5 --factor complete:2 -o w5k5.rbc", 0, {"w5k5.rbc"}),
    ("verify c5.rbc --red clique:3 --blue clique:3", 0, set()),
    ("table all", 0, set()),
    ("table w5w6", 0, set()),
    ("table w7", 0, set()),
    ("search --order 10 --avoid k4me --avoid-c clique:4 --seed 1 -o w.g6", 0, {"w.g6"}),
    ("oracle-check c5.g6 --pattern clique:4", 0, set()),
    # --name=value, long spellings of -o, and the default --budget overridden
    ("verify c5.rbc --red=clique:3 --blue=clique:3 --certificate=c5.json", 0, {"c5.json"}),
    ("construct fan:7,6 --output fan.rbc", 0, {"fan.rbc"}),
    ("construct fan:7,6 --output=fan.rbc", 0, {"fan.rbc"}),
    ("search --order 6 --avoid clique:3 --avoid-c clique:3 --seed 1 --budget 50 -o x.g6",
     3, set()),
    ("search --order 10 --avoid k4me --avoid-c clique:4 --seed 1 -o w.g6 --certificate w.json",
     0, {"w.g6", "w.json"}),
    # options before the positional
    ("verify --red clique:3 --blue clique:3 --certificate c5.json c5.rbc", 0, {"c5.json"}),
    ("construct -o fan.rbc fan:7,6", 0, {"fan.rbc"}),
    ("blowup --factor complete:2 -o b.g6 k3k5", 0, {"b.g6"}),
    ("oracle-check --pattern clique:4 c5.g6", 0, set()),
    # a repeated option: the last one wins (C5 holds a red clique:2)
    ("verify c5.rbc --red clique:2 --red clique:3 --blue clique:3", 0, set()),
    ("verify c5.rbc --red clique:3 --red clique:2 --blue clique:3", 1, set()),
]

# usage errors: each exits 2 with a usage line on stderr and writes nothing
USAGE_ERRORS = [
    "verify c5.rbc --red clique:3 --blue clique:3 --certificate c.json --bogus x",
    "construct fan:7,6 -o fan.rbc --certificate c.json",
    "verify c5.rbc --red clique:3 --blue clique:3 --certificate",
    "verify c5.rbc --blue clique:3 --red --certificate c.json",
    "construct fan:7,6 -o",
    "verify c5.rbc --red clique:3 --certificate c.json",
    "construct fan:7,6",
    "search --order 10 --avoid k4me --avoid-c clique:4 -o w.g6",
    "construct -o fan.rbc",
    "verify --red clique:3 --blue clique:3 --certificate c.json",
    "construct fan:7,6 fan:8,6 -o fan.rbc",
    "verify c5.rbc c5.rbc --red clique:3 --blue clique:3 --certificate c.json",
    "table w9",
    "table",
    "",
    "frobnicate -o fan.rbc",
    "--bogus construct fan:7,6 -o fan.rbc",
]

# -h and --help at the top level and after each command, with the option
# spellings (or, at the top level, the commands) that the help must list
HELP = {
    "": ["construct", "verify", "blowup", "table", "search", "oracle-check"],
    "construct": ["-o", "--output"],
    "verify": ["--red", "--blue", "--certificate"],
    "blowup": ["--factor", "-o", "--output"],
    "table": ["-h", "--help", "w5w6", "w7", "all"],
    "search": ["--order", "--avoid", "--avoid-c", "--budget", "--seed", "-o", "--output",
               "--certificate"],
    "oracle-check": ["--pattern"],
}


@pytest.fixture
def grammar_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c5.rbc").write_text("rbc 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
    (tmp_path / "c5.g6").write_text(to_graph6(graph.cycle(5)) + "\n")
    return tmp_path


def _new_files(directory, before):
    return {p.name for p in directory.iterdir()} - before


@pytest.mark.parametrize("line,code,written", GRAMMAR)
def test_cli_grammar(grammar_dir, capsys, line, code, written):
    before = {p.name for p in grammar_dir.iterdir()}
    assert run(capsys, *line.split())[0] == code
    assert _new_files(grammar_dir, before) == written


@pytest.mark.parametrize("line", USAGE_ERRORS)
def test_cli_usage_errors(grammar_dir, capsys, line):
    before = {p.name for p in grammar_dir.iterdir()}
    with pytest.raises(SystemExit) as exc:
        cli.main(line.split())
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and err.startswith("usage: ramseylb")
    assert "error:" in err
    assert _new_files(grammar_dir, before) == set()


@pytest.mark.parametrize("command,listed", HELP.items())
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_cli_help(grammar_dir, capsys, command, listed, flag):
    before = {p.name for p in grammar_dir.iterdir()}
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), flag])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0 and out.startswith("usage: ramseylb")
    words = set(re.split(r"[\s,{}\[\]]+", out))
    assert [name for name in listed if name not in words] == []
    assert _new_files(grammar_dir, before) == set()


@pytest.mark.parametrize("line,written", [
    ("construct fan:7,6 -o fan.rbc", "fan.rbc"),
    ("verify c5.rbc --red clique:3 --blue clique:3 --certificate c5.json", "c5.json"),
    ("blowup k3k5 --factor complete:2 -o b.g6", "b.g6"),
    ("search --order 10 --avoid k4me --avoid-c clique:4 --seed 1 -o w.g6", "w.g6"),
    ("search --order 10 --avoid k4me --avoid-c clique:4 --seed 1 -o x.g6 --certificate w.json",
     "w.json"),
])
def test_write_over_a_longer_file(grammar_dir, capsys, line, written):
    # a file written over a longer one holds exactly the new text: the
    # overwrite is cut to length. A certificate's elapsed_ms differs from run
    # to run, so it is read back as JSON, which refuses any byte left over.
    def text():
        got = (grammar_dir / written).read_text()
        if written.endswith(".json"):
            assert got.endswith("}\n")
            return {**json.loads(got), "elapsed_ms": None}
        return got

    assert run(capsys, *line.split())[0] == 0
    fresh = text()
    (grammar_dir / written).write_text("x" * 100000)
    assert run(capsys, *line.split())[0] == 0
    assert text() == fresh


@pytest.mark.parametrize("red,code", [("clique:3", 0), ("clique:2", 1)])
def test_certificate_to_a_device(grammar_dir, capsys, red, code):
    # a character device cannot be cut to length; the write is the verdict's
    got, out, err = run(capsys, "verify", "c5.rbc", "--red", red, "--blue", "clique:3",
                        "--certificate", os.devnull)
    assert (got, err) == (code, "")
    assert out.startswith("verified:" if code == 0 else "refuted:")


@pytest.mark.parametrize("line", [
    "verify c5.rbc --red clique:3 --blue clique:3 --cert c.json",
    "construct fan:7,6 --out fan.rbc",
    "construct fan:7,6 -ofan.rbc",
    "blowup k3k5 --factor complete:2 -ob.g6",
    "verify --red clique:3 --blue clique:3 --certificate c.json -- c5.rbc",
])
def test_cli_drops_prefixes_and_attached_values(grammar_dir, capsys, line):
    # a prefix of an option, a value attached to a short option and `--` are
    # outside the grammar (argparse read all three): each is a usage error
    before = {p.name for p in grammar_dir.iterdir()}
    with pytest.raises(SystemExit) as exc:
        cli.main(line.split())
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: ramseylb")
    assert _new_files(grammar_dir, before) == set()

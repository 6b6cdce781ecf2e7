import json
import os

import pytest

from ramseylb import certify, cli, graph, witnesses
from ramseylb.graph6 import to_graph6


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


def test_witness_errors_unquoted(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "wc-blowup:k3k99,5,6",
                       "-o", str(tmp_path / "x.rbc"))
    assert code == 2
    assert err == (
        "error: bad family spec 'wc-blowup:k3k99,5,6': no bundled witness "
        "for (k3, n=99); supply file or run search\n"
    )
    code, _, err = run(capsys, "blowup", "--witness", "zz5", "--factor",
                       "complete:2", "-o", str(tmp_path / "x.g6"))
    assert code == 2
    assert err == "error: bad witness key 'zz5' (expected e.g. k3k5)\n"
    assert not (tmp_path / "x.rbc").exists() and not (tmp_path / "x.g6").exists()


def test_table_mismatch(capsys, monkeypatch):
    monkeypatch.setitem(certify.K3_KN_LOWER, 5, 13)
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
    out = tmp_path / "b.g6"
    code, stdout, _ = run(
        capsys, "blowup", "--witness", "k3k5", "--factor", "complete:2",
        "-o", str(out),
    )
    assert code == 0 and stdout == "graph6 26\n"
    rbc = tmp_path / "b.rbc"
    code, stdout, _ = run(
        capsys, "blowup", "--witness", "k3k5", "--factor", "complete:2",
        "--as-red", "-o", str(rbc),
    )
    assert code == 0 and stdout == "rbc 26\n"
    code, _, _ = run(
        capsys, "verify", str(rbc), "--red", "wheel:5", "--blue", "clique:5"
    )
    assert code == 0


def test_blowup_file_base(tmp_path, capsys):
    base = tmp_path / "c5.g6"
    base.write_text(to_graph6(graph.cycle(5)) + "\n")
    out = tmp_path / "out.g6"
    code, stdout, _ = run(
        capsys, "blowup", str(base), "--factor", "complete:3", "-o", str(out)
    )
    assert code == 0 and stdout == "graph6 15\n"
    code, _, err = run(capsys, "blowup", "--factor", "complete:2", "-o", str(out))
    assert code == 2
    code, _, err = run(
        capsys, "blowup", str(base), "--factor", "complete:x", "-o", str(out)
    )
    assert code == 2


def test_construct_wc_blowup(tmp_path, capsys):
    out = tmp_path / "w.rbc"
    code, stdout, _ = run(capsys, "construct", "wc-blowup:k3k5,5,5", "-o", str(out))
    assert code == 0
    assert stdout == "order 26 claimed-bound 27\n"


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


def test_search_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["search", "--order", "6", "--avoid", "clique:3",
                  "--avoid-c", "clique:3", "-o", str(tmp_path / "x.g6")])
    capsys.readouterr()


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

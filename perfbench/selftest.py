"""Fast self-test of the benchmark harness: a tiny ladder, a tiny refute
mix and one short tabu search, untraced and traced. It asserts that every
metric named in BENCHMARK.json is emitted and that every check ran.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types

import checks
import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY_LADDER = [
    ("w5w7", 14, "wheel:5", "wheel:7"),
    ("fan:10,8", 41, "fan:10", "fan:8"),
    ("kipas-3mod4:7", 34, "kipas:15", "kipas:15"),
    ("wheel-even:12", 33, "wheel:12", "wheel:12"),
    ("wc-blowup:k3k6,5,6", 34, "wheel:5", "clique:6"),
]
SHAPES = {
    "certify-ladder": {"ladder": TINY_LADDER},
    "refute-mix": {"ladder": TINY_LADDER, "labellings": 2},
    "witness-search": {"searches": [("clique:3", "clique:5", 12, (1,))]},
}
CHECKS = {
    "certify-ladder": {"exit_code", "known_answer", "coloring_sha"},
    "refute-mix": {"exit_code", "known_answer", "coloring_sha", "counterexample"},
    "witness-search": {"exit_code", "known_answer", "coloring_sha", "witness"},
}


def run_tiny(name: str, trace: bool) -> dict:
    result = run.run_workload(name, seed=3, seconds=0, trace=trace, **SHAPES[name])
    assert result["correct"], result["meta"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    expected = CHECKS[name] | ({"kernel_witness"} if trace else set())
    assert expected <= set(result["meta"]["checks"]), result["meta"]["checks"]
    assert result["meta"]["notes"].get("missing", "none") == "none"
    return result


def test_workloads_untraced():
    for name in SHAPES:
        metrics = run_tiny(name, trace=False)["metrics"]
        assert metrics["verdict_ok_frac"][0] == 1.0
        assert all(value > 0 for value, _ in metrics.values()), metrics


def test_workloads_traced():
    layers = {
        "certify-ladder": ("graph.induced_calls", "matching.calls", "kernels.cycle.calls",
                           "kernels.path.calls", "constructions.build_ms"),
        "refute-mix": ("patterns.check_embedding_ms", "coloring.from_rbc_ms",
                       "graph.complement_ms"),
        "witness-search": ("witnesses.search_ms", "witnesses.flip_delta_calls",
                           "witnesses.certify_ms", "kernels.clique.calls"),
    }
    for name, names in layers.items():
        metrics = run_tiny(name, trace=True)["metrics"]
        assert all(metrics[n][0] > 0 for n in names), {n: metrics[n] for n in names}


def test_missing_attribute_reads_zero():
    tracer = Tracer()
    tracer.span_at(types.SimpleNamespace(__name__="gone"), "induced_by_mask", "graph.induced")
    assert tracer.missing == ["gone.induced_by_mask"]
    inclusive, _, calls = tracer.totals()
    assert inclusive.get("graph.induced", 0.0) == 0.0 and calls["graph.induced"] == 0


def test_checks_reject_bad_artefacts():
    red = {(0, 1), (0, 2), (1, 2)}
    good = {"order": 4, "red_target": "clique:3", "blue_target": "clique:3",
            "coloring_sha": checks.rbc_sha(4, red), "result": "refuted",
            "counterexample": {"color": "red", "vertices": [0, 1, 2]}}
    checks.check_certificate(json.dumps(good), 4, red, "clique:3", "clique:3", "refuted:red")
    for change in ({"coloring_sha": "0" * 64},
                   {"counterexample": {"color": "red", "vertices": [0, 1, 3]}},
                   {"result": "verified", "counterexample": None}):
        try:
            checks.check_certificate(json.dumps({**good, **change}), 4, red,
                                     "clique:3", "clique:3", "refuted:red")
        except checks.CheckFailed:
            continue
        raise AssertionError(f"accepted a certificate with {change}")


def test_command_line_output():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "certify-ladder", "--seed", "1",
                         "--seconds", "0", "--trace", "0"])
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
    assert set(last["metrics"]) == END_TO_END


if __name__ == "__main__":
    for test in (test_missing_attribute_reads_zero, test_checks_reject_bad_artefacts,
                 test_workloads_untraced, test_workloads_traced, test_command_line_output):
        test()
        print(f"ok {test.__name__}")

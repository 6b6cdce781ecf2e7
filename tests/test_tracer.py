"""The benchmark's traced run wraps ramseylb functions by name. A rename of
one of them makes the wrapper go missing and its per-layer metrics read
zero; this test catches that in the test suite."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# the modules perfbench/run.py imports and hands to Tracer.install
MODULES = ("cli", "certify", "coloring", "constructions", "graph", "kernels",
           "matching", "patterns", "witnesses")


def test_traced_entry_points_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    rl = {name: importlib.import_module(f"ramseylb.{name}") for name in MODULES}
    tracer = tracer_module.Tracer()
    tracer.install(rl)
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()

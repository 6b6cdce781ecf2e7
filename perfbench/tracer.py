"""In-memory span tracer for the traced benchmark run.

Wrappers are installed at the names the callers look up (a module global or
module attribute), so the program itself is not edited. A span records its
name, start, end and the span that was open when it began; spans stay in a
list until the run ends. Functions too hot for a span per call are only
counted. A wrapped attribute that no longer exists is recorded as missing
and its metrics read zero.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# hubs: the neighbourhood size a hub needs before the pattern can fit in it
_HUB_NEED = {"fan": lambda n: 2 * n, "wheel": lambda n: n - 1, "kipas": lambda n: n - 1}

KERNEL_KINDS = ("clique", "cycle", "path", "k4me")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._verifying: list[object] = []  # colorings under certify.verify
        self._finding: list[object] = []  # specs under patterns.find_pattern

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # -- wrappers ---------------------------------------------------------

    def _replace(self, module, attr: str, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, functools.wraps(original)(make(original)))
        self._installed.append((module, attr, original))

    def span_at(self, module, attr: str, name: str, note=None) -> None:
        """Every call of module.attr becomes a span called `name`;
        note(args, result) may add counts."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(index)
                if note is not None:
                    note(args, result)
                return result

            return wrapper

        self._replace(module, attr, make)

    def count_at(self, module, attr: str, name: str) -> None:
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._replace(module, attr, make)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- the ramseylb layers ----------------------------------------------

    def install(self, rl) -> None:
        """Wrap the public calls of every ramseylb layer. `rl` maps module
        names (cli, certify, coloring, ...) to the imported modules."""
        tracer = self
        counts = self.counts

        def rbc_in(args, result):
            counts["coloring.rbc_bytes"] += len(args[0])

        def rbc_out(args, result):
            counts["coloring.rbc_bytes"] += len(result)

        for module in (rl["cli"], rl["coloring"]):
            self.span_at(module, "to_rbc", "coloring.to_rbc", rbc_out)
        self.span_at(rl["cli"], "from_rbc", "coloring.from_rbc", rbc_in)
        self.span_at(rl["certify"], "coloring_sha", "coloring.sha")
        for module in (rl["coloring"], rl["witnesses"]):
            self.span_at(module, "complement", "graph.complement")
        self.span_at(rl["constructions"], "build_from_spec", "constructions.build")
        self.span_at(rl["patterns"], "check_embedding", "patterns.check_embedding")
        self.span_at(rl["patterns"], "matching_edges", "matching")
        self.span_at(rl["witnesses"], "tabu_search_witness", "witnesses.search")
        self.span_at(rl["certify"], "verify_ramsey_witness", "witnesses.certify")
        self.count_at(rl["witnesses"], "_flip_delta", "witnesses.flip_delta_calls")

        def over_64(args, result):
            if args[0].n > 64:
                counts["kernels.calls_over_64"] += 1

        for kind in KERNEL_KINDS:
            self.span_at(rl["kernels"], f"find_{kind}", f"kernels.{kind}", over_64)

        def hub(args, result):
            spec = tracer._finding[-1] if tracer._finding else None
            counts["patterns.hubs_tried"] += 1
            if spec is not None and spec.kind in _HUB_NEED:
                if args[1].bit_count() >= _HUB_NEED[spec.kind](spec.size):
                    counts["patterns.hubs_useful"] += 1

        self.span_at(rl["patterns"], "induced_by_mask", "graph.induced", hub)

        def verify(original):
            def wrapper(coloring, *args, **kwargs):
                tracer._verifying.append(coloring)
                try:
                    return tracer.call("certify.verify", original, coloring, *args, **kwargs)
                finally:
                    tracer._verifying.pop()

            return wrapper

        def find_pattern(original):
            def wrapper(g, spec, *args, **kwargs):
                if not tracer._verifying:
                    name = "patterns.find_other"
                elif g is tracer._verifying[-1].red:
                    name = "patterns.find_red"
                else:
                    name = "patterns.find_blue"
                tracer._finding.append(spec)
                try:
                    return tracer.call(name, original, g, spec, *args, **kwargs)
                finally:
                    tracer._finding.pop()

            return wrapper

        self._replace(rl["certify"], "verify", verify)
        self._replace(rl["patterns"], "find_pattern", find_pattern)

    # -- summaries --------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """Inclusive seconds, self seconds and call count per span name.
        Self time is the duration minus the time its child spans cover."""
        inclusive: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        calls: Counter = Counter()
        for name, start, end, parent in self.spans:
            inclusive[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            own[name] += end - start - covered
        return inclusive, own, calls

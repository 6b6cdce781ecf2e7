"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed during set-up, runs
its items through `ramseylb.cli.main` only, and checks every item with
`checks` after the timed pass. An item is one certificate or one witness;
every pass runs every item of the workload, in the order the seed sets.
"""

from __future__ import annotations

import random
from pathlib import Path

import checks
from checks import require

# (family, order, red target, blue target): the constructions' own claims,
# so every verdict is "verified". Orders 14..117 straddle the 64-vertex
# ceiling of the compiled kernels.
LADDER = [
    ("fan:10,8", 41, "fan:10", "fan:8"),
    ("fan:16,12", 65, "fan:16", "fan:12"),
    ("fan:24,18", 99, "fan:24", "fan:18"),
    ("kipas-3mod4:7", 34, "kipas:15", "kipas:15"),
    ("kipas-3mod4:13", 64, "kipas:27", "kipas:27"),
    ("kipas-3mod4:17", 84, "kipas:35", "kipas:35"),
    ("wheel-even:12", 33, "wheel:12", "wheel:12"),
    ("wheel-even:24", 69, "wheel:24", "wheel:24"),
    ("wheel-even:40", 117, "wheel:40", "wheel:40"),
    ("kipas-even:20", 101, "kipas:42", "kipas:42"),
    ("kipas-1mod4:12,B", 58, "kipas:25", "kipas:25"),
    ("w5w7", 14, "wheel:5", "wheel:7"),
    ("wc-blowup:k3k6,5,6", 34, "wheel:5", "clique:6"),
    ("wc-blowup:k3k7,5,7", 44, "wheel:5", "clique:7"),
    ("wc-blowup:k4mek5,7,5", 30, "wheel:7", "clique:5"),
]

# Targets that each ladder coloring contains: one size below its own claim
# on one colour. kipas-even:20 and w5w7 contain no blue pattern one size
# off, so their blue targets are two sizes off.
REFUTE_RED = {
    family: f"{red.partition(':')[0]}:{int(red.partition(':')[2]) - 1}"
    for family, _, red, _ in LADDER
}
REFUTE_BLUE = {
    family: f"{blue.partition(':')[0]}:{int(blue.partition(':')[2]) - 1}"
    for family, _, _, blue in LADDER
}
REFUTE_BLUE["kipas-even:20"] = "kipas:40"
REFUTE_BLUE["w5w7"] = "wheel:5"

# (avoid, avoid in complement, order, search seeds). Time to witness varies
# threefold or more between search seeds, so the searches are fixed and the
# benchmark seed sets only their order. The orders sit a few below the
# largest known witnesses (22 and 20): there a search takes 1-7 s, too long
# for the reference-speed scaling in run.py to bracket, and a run holds too
# few of them for a stable median; here each takes 30-400 ms.
SEARCHES = [
    ("clique:3", "clique:7", 19, tuple(range(1, 13))),
    ("k4me", "clique:6", 17, tuple(range(1, 13))),
]

# refute-mix relabels each coloring this many ways; one labelling alone
# moves first-hit times by tens of percent, so every pass runs them all
LABELLINGS = 8


class Item:
    """One certificate or witness: its program calls, the exit codes they
    must return, and the artefacts the checks read afterwards."""

    def __init__(self, label: str, calls: list[list[str]], codes: list[int], **facts):
        self.label = label
        self.calls = calls
        self.codes = codes
        self.facts = facts


class CertifyLadder:
    """construct + verify --certificate on every ladder family."""

    name = "certify-ladder"

    def __init__(self, cli, seed: int, work: Path, ladder=LADDER):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for i, (family, order, red, blue) in enumerate(ladder):
            rbc, cert = work / f"c{i}.rbc", work / f"c{i}.json"
            calls = [
                ["construct", family, "-o", str(rbc)],
                ["verify", str(rbc), "--red", red, "--blue", blue, "--certificate", str(cert)],
            ]
            self.items.append(
                Item(family, calls, [0, 0], order=order, red=red, blue=blue,
                     rbc=rbc, cert=cert)
            )
        rng.shuffle(self.items)

    def check(self, item: Item, outputs: list[str]) -> set[str]:
        f = item.facts
        order = f["order"]
        require(outputs[0].strip() == f"order {order} claimed-bound {order + 1}",
                f"construct printed {outputs[0].strip()!r}")
        rbc_order, red = checks.parse_rbc(f["rbc"].read_text())
        require(rbc_order == order, f"rbc order {rbc_order} != {order}")
        require(outputs[1].startswith("verified:"), f"verify printed {outputs[1]!r}")
        checks.check_certificate(f["cert"].read_text(), order, red, f["red"], f["blue"],
                                 "verified")
        return {"exit_code", "known_answer", "coloring_sha"}


class RefuteMix:
    """verify against targets the coloring contains: half the items refute
    on red at an early hub, half search red exhaustively and refute on
    blue. The colorings are the ladder's, relabelled by the seed."""

    name = "refute-mix"

    def __init__(self, cli, seed: int, work: Path, ladder=LADDER, labellings=LABELLINGS):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        bases = []
        for i, (family, order, red, blue) in enumerate(ladder):
            path = work / f"base{i}.rbc"
            code, _ = cli(["construct", family, "-o", str(path)])
            require(code == 0, f"construct {family} exited {code}")
            bases.append(checks.parse_rbc(path.read_text()))
        for lab in range(labellings):
            for i, (family, _, red, blue) in enumerate(ladder):
                order, edges = bases[i]
                perm = list(range(order))
                rng.shuffle(perm)
                moved = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
                rbc = work / f"r{i}-{lab}.rbc"
                rbc.write_text(checks.canonical_rbc(order, moved))
                for colour, targets in (
                    ("red", (REFUTE_RED[family], blue)),
                    ("blue", (red, REFUTE_BLUE[family])),
                ):
                    cert = work / f"r{i}-{lab}-{colour}.json"
                    call = ["verify", str(rbc), "--red", targets[0], "--blue", targets[1],
                            "--certificate", str(cert)]
                    self.items.append(Item(f"{family}/{colour}/{lab}", [call], [1],
                                           rbc=rbc, cert=cert, targets=targets,
                                           colour=colour))
        rng.shuffle(self.items)

    def check(self, item: Item, outputs: list[str]) -> set[str]:
        f = item.facts
        require(outputs[0].startswith(f"refuted: {f['colour']} "),
                f"verify printed {outputs[0]!r}")
        order, red = checks.parse_rbc(f["rbc"].read_text())
        checks.check_certificate(f["cert"].read_text(), order, red, *f["targets"],
                                 f"refuted:{f['colour']}")
        return {"exit_code", "known_answer", "coloring_sha", "counterexample"}


class WitnessSearch:
    """search --certificate for Ramsey witnesses at fixed search seeds."""

    name = "witness-search"

    def __init__(self, cli, seed: int, work: Path, searches=SEARCHES):
        rng = random.Random(f"{self.name}:{seed}")
        self.items = []
        for avoid, avoid_c, order, seeds in searches:
            for s in seeds:
                stem = f"w-{avoid}-{avoid_c}-{order}-{s}".replace(":", "")
                g6, cert = work / f"{stem}.g6", work / f"{stem}.json"
                call = ["search", "--order", str(order), "--avoid", avoid,
                        "--avoid-c", avoid_c, "--seed", str(s), "-o", str(g6),
                        "--certificate", str(cert)]
                self.items.append(Item(stem, [call], [0], order=order, avoid=avoid,
                                       avoid_c=avoid_c, g6=g6, cert=cert))
        rng.shuffle(self.items)

    def check(self, item: Item, outputs: list[str]) -> set[str]:
        f = item.facts
        require(outputs[0].startswith(f"witness order {f['order']} "),
                f"search printed {outputs[0]!r}")
        order, edges = checks.decode_graph6(f["g6"].read_text())
        require(order == f["order"], f"witness order {order} != {f['order']}")
        require(checks.avoids(checks.side(order, edges, "red"), f["avoid"]),
                f"witness contains {f['avoid']}")
        require(checks.avoids(checks.side(order, edges, "blue"), f["avoid_c"]),
                f"witness complement contains {f['avoid_c']}")
        checks.check_certificate(f["cert"].read_text(), order, edges, f["avoid"],
                                 f["avoid_c"], "verified")
        return {"exit_code", "known_answer", "coloring_sha", "witness"}


WORKLOADS = {w.name: w for w in (CertifyLadder, RefuteMix, WitnessSearch)}

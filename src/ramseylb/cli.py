"""Command-line front end: construct extremal colorings, verify them into
certificates, blow up witness graphs, reproduce the bound tables, and run
witness search.

Exit codes: 0 verified/success, 1 refuted/mismatch, 2 input error,
3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import certify, constructions, graph, patterns, witnesses
from .coloring import RbcFormatError, TwoColoring, from_rbc, to_rbc
from .constructions import ConstructionError
from .graph import Graph
from .graph6 import Graph6Error, from_graph6, to_graph6
from .oracle import OracleGuardError, oracle_contains
from .patterns import PatternError, parse_pattern
from .witnesses import WitnessError

USER_ERRORS = (
    RbcFormatError,
    Graph6Error,
    PatternError,
    ConstructionError,
    WitnessError,
    OracleGuardError,
    OSError,
    UnicodeDecodeError,
)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str, text: str) -> None:
    # Overwrite in place, then cut to length: truncating a file to zero first
    # makes ext4 flush the new data to disk on close, once per rewrite.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="\n") as fh:
        fh.write(text)
        if os.path.isfile(path):
            fh.truncate()


def _resolve_witness(ref: str) -> Graph:
    """A witness reference is a graph6 file path, read as given, or a
    registry key like k3k5, whose graph `bundled_witness` re-verifies."""
    if os.path.exists(ref):
        return from_graph6(_read_text(ref))
    return witnesses.bundled_witness(*witnesses.parse_witness_key(ref))


def cmd_construct(args) -> int:
    built = constructions.build_from_spec(args.family, witness_resolver=_resolve_witness)
    comment = f"family {args.family}"
    _write_text(args.output, to_rbc(built.coloring, comment=comment))
    print(f"order {built.coloring.order} claimed-bound {built.claimed_bound}")
    return 0


def cmd_verify(args) -> int:
    coloring = from_rbc(_read_text(args.coloring))
    red = parse_pattern(args.red)
    blue = parse_pattern(args.blue)
    cert = certify.verify(coloring, red, blue)
    if args.certificate:
        _write_text(args.certificate, cert.to_json())
    if cert.verified:
        print(f"verified: no red {red}, no blue {blue} (order {cert.order})")
        return 0
    ce = cert.counterexample
    vs = " ".join(str(v) for v in ce["vertices"])
    target = red if ce["color"] == "red" else blue
    print(f"refuted: {ce['color']} {target} at {vs}")
    return 1


def cmd_blowup(args) -> int:
    if args.witness:
        base = _resolve_witness(args.witness)
    elif args.base:
        base = from_graph6(_read_text(args.base))
    else:
        raise ConstructionError("blowup needs a base graph path or --witness key")
    kind, _, raw = args.factor.partition(":")
    if kind == "complete":
        try:
            factor = graph.complete(int(raw))
        except ValueError:
            raise ConstructionError(f"bad factor {args.factor!r}") from None
    elif os.path.exists(args.factor):
        factor = from_graph6(_read_text(args.factor))
    else:
        raise ConstructionError(f"bad factor {args.factor!r} (complete:k or a file)")
    blown = graph.blow_up(base, factor)
    if args.as_red:
        _write_text(args.output, to_rbc(TwoColoring(blown)))
        print(f"rbc {blown.n}")
    else:
        _write_text(args.output, to_graph6(blown) + "\n")
        print(f"graph6 {blown.n}")
    return 0


def _print_table(name: str, derived: dict[int, int], stored: dict[int, int]) -> bool:
    print(f"table {name}")
    print("n      " + " ".join(f"{n:5d}" for n in derived))
    print("derived" + " ".join(f"{v:5d}" for v in derived.values()))
    print("stored " + " ".join(f"{stored[n]:5d}" for n in derived))
    bad = [n for n, v in derived.items() if stored[n] != v]
    if bad:
        print(f"MISMATCH at n = {bad}")
    return not bad


def cmd_table(args) -> int:
    ok = True
    for name, (_, stored) in certify.TABLE_ROWS.items():
        if args.which in (name, "all"):
            ok &= _print_table(name, certify.derived_row(name), stored)
    return 0 if ok else 1


def cmd_search(args) -> int:
    avoid = parse_pattern(args.avoid)
    avoid_c = parse_pattern(args.avoid_c)
    found = witnesses.tabu_search_witness(
        args.order, avoid, avoid_c, budget=args.budget, seed=args.seed
    )
    if found is None:
        print(f"no witness within {args.budget} steps (seed {args.seed})")
        return 3
    cert = certify.verify_ramsey_witness(found, avoid, avoid_c)
    if not cert.verified:
        print(f"search result failed verification: {cert.counterexample}")
        return 1
    _write_text(args.output, to_graph6(found) + "\n")
    if args.certificate:
        _write_text(args.certificate, cert.to_json())
    print(f"witness order {found.n} edges {found.edge_count()} -> {args.output}")
    return 0


def cmd_oracle_check(args) -> int:
    g = from_graph6(_read_text(args.graph))
    spec = parse_pattern(args.pattern)
    fast = patterns.contains_pattern(g, spec)
    slow = oracle_contains(g, spec)
    print(f"detector {fast} oracle {slow}")
    return 0 if fast == slow else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramseylb",
        description="Construct and verify extremal colorings for Ramsey lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named extremal coloring")
    p.add_argument("family", help="fan:n,m wheel-even:n kipas-even:m "
                   "kipas-1mod4:m[,variant] kipas-3mod4:m w5w7 "
                   "wc-blowup:<witness>,<wheel_kind>,<n>")
    p.add_argument("-o", "--output", required=True, help=".rbc output path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a coloring against two targets")
    p.add_argument("coloring", help=".rbc input path")
    p.add_argument("--red", required=True, help="red target pattern")
    p.add_argument("--blue", required=True, help="blue target pattern")
    p.add_argument("--certificate", help="certificate JSON output path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("blowup", help="blow up a base graph")
    p.add_argument("base", nargs="?", help="base graph6 path")
    p.add_argument("--witness", help="bundled witness key (e.g. k3k5)")
    p.add_argument("--factor", required=True, help="complete:k or a graph6 path")
    p.add_argument("--as-red", action="store_true",
                   help="write an .rbc coloring with the blow-up as red")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("table", help="reproduce the wheel-vs-clique bound tables")
    p.add_argument("which", choices=["w5w6", "w7", "all"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="tabu search for a Ramsey witness graph")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--avoid", required=True, help="pattern the graph must avoid")
    p.add_argument("--avoid-c", required=True, dest="avoid_c",
                   help="pattern the complement must avoid")
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="graph6 output path")
    p.add_argument("--certificate", help="certificate JSON output path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle-check", help="spot-audit a detector against the oracle")
    p.add_argument("graph", help="graph6 input path")
    p.add_argument("--pattern", required=True)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

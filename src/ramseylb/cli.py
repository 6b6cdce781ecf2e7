"""Command-line front end: construct extremal colorings, verify them into
certificates, blow up witness graphs, reproduce the bound tables, and run
witness search.

Exit codes: 0 verified/success, 1 refuted/mismatch, 2 input error (a
construction or blow-up above `coloring.ORDER_LIMIT` vertices among them),
3 unknown: search budget exhausted, or a coloring above
`coloring.ORDER_LIMIT` vertices, 4 internal error: any other exception, so
that a crash never reads as a verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import certify, graph, patterns
from .coloring import InputError, OrderLimitError, TwoColoring, from_rbc, read_count, to_rbc
from .patterns import parse_pattern

# Every module's input errors derive from InputError, so main maps them to
# exit 2 without importing the modules only some commands use (constructions,
# witnesses, graph6, oracle): those commands import them, and `verify` never
# loads them.
USER_ERRORS = (InputError, OSError, UnicodeDecodeError)


def _write_text(path: str, text: str) -> None:
    # Overwrite in place, then cut to length: truncating a file to zero first
    # makes ext4 flush the new data to disk on close, once per rewrite.
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="\n") as fh:
        fh.write(text)
        if os.path.isfile(path):
            fh.truncate()


def cmd_construct(args) -> int:
    from . import constructions

    built = constructions.build_from_spec(args.family)
    comment = f"family {args.family}"
    _write_text(args.output, to_rbc(built.coloring, comment=comment))
    print(f"order {built.coloring.order} claimed-bound {built.claimed_bound}")
    return 0


def cmd_verify(args) -> int:
    # the patterns first: a bad one is an input error before a large file is read
    red = parse_pattern(args.red)
    blue = parse_pattern(args.blue)
    try:
        # newline="" hands lone CRs to the parser; .rbc lines end at LF only
        with open(args.coloring, encoding="utf-8", newline="") as fh:
            coloring = from_rbc(fh.read())
    except OrderLimitError as exc:
        print(f"unknown: {exc}")
        return 3
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
    from . import constructions, witnesses
    from .graph6 import to_graph6

    base = witnesses.resolve_witness(args.base)
    kind, _, raw = args.factor.partition(":")
    if kind == "complete":
        try:
            k = read_count(raw.strip())
        except ValueError:
            raise constructions.ConstructionError(f"bad factor {args.factor!r}") from None
        constructions.bound_order("blow-up", base.n * k)
        factor = graph.complete(k)
    else:
        factor = witnesses.resolve_witness(args.factor)
        constructions.bound_order("blow-up", base.n * factor.n)
    blown = graph.compose(base, [factor] * base.n)
    if args.output.endswith(".rbc"):
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
    for name, (_, _, stored) in certify.TABLE_ROWS.items():
        if args.which in (name, "all"):
            ok &= _print_table(name, certify.derived_row(name), stored)
    return 0 if ok else 1


def _option_count(option: str, text: str) -> int:
    """An option's count by the .rbc numeral rule (`read_count`), or an
    input error: argparse's own type error exits with a usage line instead."""
    try:
        return read_count(text)
    except ValueError:
        raise InputError(f"bad {option} {text!r}") from None


def cmd_search(args) -> int:
    from . import witnesses
    from .graph6 import to_graph6

    order = _option_count("--order", args.order)
    budget = _option_count("--budget", args.budget)
    seed = _option_count("--seed", args.seed)
    avoid = parse_pattern(args.avoid)
    avoid_c = parse_pattern(args.avoid_c)
    found = witnesses.tabu_search_witness(order, avoid, avoid_c, budget=budget, seed=seed)
    if found is None:
        print(f"no witness within {budget} steps (seed {seed})")
        return 3
    # the search returns its graph unchecked: this is its one detector run
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
    from . import witnesses
    from .oracle import oracle_contains

    g = witnesses.resolve_witness(args.graph)
    spec = parse_pattern(args.pattern)
    slow = oracle_contains(g, spec)  # its order guard runs before the detector
    fast = patterns.contains_pattern(g, spec)
    print(f"detector {fast} oracle {slow}")
    return 0 if fast == slow else 1


@functools.cache
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
    p.add_argument("base", help="base graph6 path or bundled witness key (e.g. k3k5)")
    p.add_argument("--factor", required=True,
                   help="complete:k, or a graph6 path or bundled key as for the base")
    p.add_argument("-o", "--output", required=True,
                   help="output path: *.rbc gets a coloring with the blow-up as "
                   "red, any other path graph6")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("table", help="reproduce the wheel-vs-clique bound tables")
    p.add_argument("which", choices=[*certify.TABLE_ROWS, "all"])
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("search", help="tabu search for a Ramsey witness graph")
    p.add_argument("--order", required=True)
    p.add_argument("--avoid", required=True, help="pattern the graph must avoid")
    p.add_argument("--avoid-c", required=True, dest="avoid_c",
                   help="pattern the complement must avoid")
    p.add_argument("--budget", default="100000")
    p.add_argument("--seed", required=True)
    p.add_argument("-o", "--output", required=True, help="graph6 output path")
    p.add_argument("--certificate", help="certificate JSON output path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("oracle-check", help="spot-audit a detector against the oracle")
    p.add_argument("graph", help="graph6 input path or bundled witness key")
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

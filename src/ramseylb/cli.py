"""Command-line front end: construct extremal colorings, verify them into
certificates, blow up witness graphs, reproduce the bound tables, and run
witness search.

Arguments (`COMMANDS`): a command, then its positionals and options in any
order, as `--name value`, `--name=value` or `-o value`; the last of a repeated
option wins. A prefix (`--cert`), an attached short value (`-oFILE`) and `--`
are usage errors (usage line on stderr, exit 2); `-h`/`--help` prints help.

Exit codes: 0 verified/success, 1 refuted/mismatch, 2 input error (a
construction or blow-up above `coloring.ORDER_LIMIT` vertices among them),
3 unknown: search budget exhausted, or a coloring above
`coloring.ORDER_LIMIT` vertices, 4 internal error: any other exception, so
that a crash never reads as a verdict.
"""

from __future__ import annotations

import os
import stat
import sys
from types import SimpleNamespace

from . import certify, graph, patterns
from .coloring import InputError, OrderLimitError, TwoColoring, from_rbc, read_count, to_rbc
from .patterns import parse_pattern

# Every module's input errors derive from InputError, so main maps them to
# exit 2 without importing the modules only some commands use (constructions,
# witnesses, graph6, oracle): those commands import them, and `verify` never
# loads them.
USER_ERRORS = (InputError, OSError, UnicodeDecodeError)


def _write_text(path: str, text: str) -> None:
    # Overwrite in place, then cut a regular file to length: truncating it to
    # zero first makes ext4 flush the new data to disk on close, once per rewrite.
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


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
    input error: exit 2 with one `error:` line, as for a bad pattern."""
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


# Each command is (function, one-line help, arguments). An argument is (a
# positional name or option spellings, help, a default or REQUIRED), and a
# positional may add its choices; its attribute is its last name, undashed.
REQUIRED = object()
COMMANDS = {
    "construct": (cmd_construct, "build a named extremal coloring", [
        ("family", "fan:n,m wheel-even:n kipas-even:m kipas-1mod4:m[,variant] kipas-3mod4:m "
         "w5w7 wc-blowup:<witness>,<wheel_kind>,<n>", REQUIRED),
        ("-o --output", ".rbc output path", REQUIRED)]),
    "verify": (cmd_verify, "verify a coloring against two targets", [
        ("coloring", ".rbc input path", REQUIRED), ("--red", "red target pattern", REQUIRED),
        ("--blue", "blue target pattern", REQUIRED),
        ("--certificate", "certificate JSON output path", None)]),
    "blowup": (cmd_blowup, "blow up a base graph", [
        ("base", "base graph6 path or bundled witness key (e.g. k3k5)", REQUIRED),
        ("--factor", "complete:k, or a graph6 path or bundled key as for the base", REQUIRED),
        ("-o --output", "*.rbc gets a coloring with the blow-up as red, any other path "
         "graph6", REQUIRED)]),
    "table": (cmd_table, "reproduce the wheel-vs-clique bound tables", [
        ("which", "a table, or all", REQUIRED, [*certify.TABLE_ROWS, "all"])]),
    "search": (cmd_search, "tabu search for a Ramsey witness graph", [
        ("--order", "graph order", REQUIRED),
        ("--avoid", "pattern the graph must avoid", REQUIRED),
        ("--avoid-c", "pattern the complement must avoid", REQUIRED),
        ("--budget", "step budget", "100000"), ("--seed", "search seed", REQUIRED),
        ("-o --output", "graph6 output path", REQUIRED),
        ("--certificate", "certificate JSON output path", None)]),
    "oracle-check": (cmd_oracle_check, "spot-audit a detector against the oracle", [
        ("graph", "graph6 input path or bundled witness key", REQUIRED),
        ("--pattern", "pattern to look for", REQUIRED)]),
}


def _usage(command: str, error: str = "") -> None:
    """Print the usage line, then the help and exit 0, or `error` to stderr
    and exit 2."""
    line = command or "<command> ..."
    rows = [("-h --help", "show this help and exit")]
    if not command:
        rows += [(name, what) for name, (_, what, _) in COMMANDS.items()]
    for names, what, default, *choices in COMMANDS[command][2] if command else ():
        metavar = f" {names.split()[-1][2:].upper()}" if names[0] == "-" else ""
        label = "{" + ",".join(*choices) + "}" if choices else names + metavar
        short = label.split()[0] + metavar
        line += f" {short}" if default is REQUIRED else f" [{short}]"
        rows.append((label, what))
    if error:
        print(f"usage: ramseylb {line}\nramseylb: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    print(f"usage: ramseylb {line}\n")
    print("\n".join(f"  {label:<26} {what}" for label, what in rows))
    raise SystemExit(0)


def _is_option(token: str) -> bool:
    # as argparse reads it: "-" alone and a negative number are values
    return token[:1] == "-" and token != "-" and not token[1:].isdecimal()


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command's function and arguments in `argv`, read by COMMANDS
    under the grammar that the module docstring states."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        asked = command in ("-h", "--help")
        _usage("", "" if asked else "choose a command: " + ", ".join(COMMANDS))
    func, _, arguments = COMMANDS[command]
    values = {names: default for names, _, default, *_ in arguments}
    positionals = [names for names in values if names[0] != "-"]
    spellings = {s: names for names in values if names[0] == "-" for s in names.split()}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _usage(command)
        elif not _is_option(token) and positionals:
            values[positionals.pop(0)] = token
        elif name not in spellings:
            _usage(command, f"unrecognized argument {token!r}")
        elif eq or not _is_option(value := next(tokens, "--")):  # "--": no token left
            values[spellings[name]] = value
        else:
            _usage(command, f"argument {name}: expected one argument")
    for names, _, _, *choices in arguments:
        if values[names] is REQUIRED:
            _usage(command, f"argument {names.replace(' ', '/')} is required")
        if choices and values[names] not in choices[0]:
            _usage(command, f"argument {names}: invalid choice: {values[names]!r}")
    return SimpleNamespace(func=func, **{names.split()[-1].lstrip("-").replace("-", "_"): value
                                         for names, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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

"""Command-line front end.

Subcommands: classify, canonical, aut, catalog, verify.  Exit codes:
0 success, 1 verification failure (including invalid spaces), 2 input
error.  Output is deterministic: byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from typing import Callable, Optional

from . import autgrp, catalog, matgrp, sms, verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
AUT_RANK_CAP = 600  # aut: the order formula and its decimal grow quadratically in the rank
AUT_LIST_CAP = 1 << 16  # aut --list: one line per automorphism


def _classify_space(space: sms.SymplecticMetricSpace, out) -> int:
    reason, _, _, _, inv = sms._analyze(space, strict=False)
    print(f"valid: {'no' if inv is None else 'yes'}", file=out)
    if inv is None:
        print(f"reason: {reason}", file=out)
        if space.rank == 3:
            ones = space.table.bit_count()
            print(
                f"note: rank-3 tables are valid exactly when the number of "
                f"mu=1 elements is even (this one has {ones})",
                file=out,
            )
        return EXIT_VERIFY
    print(f"rank: {space.rank}", file=out)
    print(f"kernel dimension: {inv.r + inv.eps}", file=out)
    print(
        f"invariants: (eps, delta, r, s) = ({inv.eps}, {inv.delta}, {inv.r}, {inv.s})",
        file=out,
    )
    print(f"canonical: {inv.label()}", file=out)
    print(f"defe: {sms.defect(space):+d}", file=out)
    return EXIT_OK


def _load(path: str, parse: Callable, what: str):
    """parse() of the file's text, or None after saying on stderr why not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return parse(text)
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(
            f"parse error in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
    except RecursionError:  # json nesting deeper than the interpreter's stack
        print(f"parse error in {path}: nesting too deep", file=sys.stderr)
    except ValueError as exc:
        print(f"invalid {what} document: {exc}", file=sys.stderr)
    return None


def _cmd_classify(args, out) -> int:
    if bool(args.mu_table) == bool(args.generators):
        print("classify needs exactly one of --mu-table or --generators", file=sys.stderr)
        return EXIT_INPUT
    if args.mu_table:
        space = _load(args.mu_table, sms.parse_mu_table, "mu-table")
        return EXIT_INPUT if space is None else _classify_space(space, out)
    group = _load(args.generators, matgrp.parse_generators, "generator")
    if group is None:
        return EXIT_INPUT
    print(f"group order: {group.order()}", file=out)
    try:
        space = matgrp.extract_sms(group)
    except ValueError as exc:
        print(f"extraction failed: {exc}", file=out)
        return EXIT_VERIFY
    gens = group.generators
    index_pairs = list(itertools.combinations(range(len(gens)), 2))
    if len(group.used) == len(gens):
        # the listed generators are the basis extract_sms checked against m
        minus = [space.m(1 << i, 1 << j) for i, j in index_pairs]
    else:
        minus = [matgrp.commutator_scalar(gens[i], gens[j]) == 4 for i, j in index_pairs]
    pairs = [f"m(g{i},g{j})={'-1' if neg else '+1'}" for (i, j), neg in zip(index_pairs, minus)]
    if pairs:
        print("pairings: " + ", ".join(pairs), file=out)
    print(f"mu-table: {space.mu_list()}", file=out)
    return _classify_space(space, out)


def _cmd_canonical(args, out) -> int:
    try:
        space = sms.canonical(sms.InvariantTuple(args.eps, args.delta, args.r, args.s))
    except ValueError as exc:
        print(f"invalid invariant tuple: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(sms.to_mu_table_json(space), file=out)
    return EXIT_OK


def _decimal(n: int) -> str:
    """str(n) for a nonnegative int of any size; str() stops at 4300 digits."""
    chunk = 10**1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    parts.append(str(n))
    return "".join(reversed(parts))


def _cmd_aut(args, out) -> int:
    try:
        t = sms.InvariantTuple(args.eps, args.delta, args.r, args.s)
        if t.ambient_rank > AUT_RANK_CAP:
            raise ValueError(f"ambient rank {t.ambient_rank} outside supported range 0..{AUT_RANK_CAP}")
    except ValueError as exc:
        print(f"invalid invariant tuple: {exc}", file=sys.stderr)
        return EXIT_INPUT
    order = autgrp.sp_full_order(t.eps, t.delta, t.r, t.s)
    if args.list and order > AUT_LIST_CAP:
        print(f"aut --list refused: the group has more than {AUT_LIST_CAP} elements", file=sys.stderr)
        return EXIT_INPUT
    print(f"space: {t.label()} (ambient rank {t.ambient_rank})", file=out)
    print(f"order (formula): {_decimal(order)}", file=out)
    # --list needs no bound of its own: above ENUMERATION_RANK_BOUND every
    # group has more than AUT_LIST_CAP elements, and the cap refused it
    if t.ambient_rank > autgrp.COUNT_RANK_BOUND:
        print("enumeration skipped: ambient rank exceeds the search bound", file=out)
        return EXIT_OK
    space = sms.canonical(t)
    if args.list:
        count = 0
        for mat in autgrp.enumerate_automorphisms(space):
            print(";".join(str(r) for r in mat.row_bits()), file=out)
            count += 1
    else:
        count = autgrp.count_automorphisms(space)
    print(f"order (enumerated): {count}", file=out)
    print(f"agreement: {'yes' if count == order else 'NO'}", file=out)
    return EXIT_OK if count == order else EXIT_VERIFY


def _cmd_catalog(args, out) -> int:
    if args.type == "all":
        entries = catalog.enumerate_all()
    else:
        entries = catalog.enumerate_type(args.type)
    if args.format == "csv":
        out.write(catalog.export_csv(entries))
    else:
        out.write(catalog.export_text(entries))
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"--- suite: {name} ---", file=out)
        ok = True
        for check in verify.SUITES[name]():
            print(check, file=out)
            ok &= check.passed
        print(f"--- suite {name}: {'PASS' if ok else 'FAIL'} ---", file=out)
        all_ok &= ok
    return EXIT_OK if all_ok else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympf2",
        description="Symplectic metric spaces over GF(2) and the exceptional-type catalog",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a mu-table or generator file")
    p.add_argument("--mu-table", metavar="PATH")
    p.add_argument("--generators", metavar="PATH")

    for name, helptext in (
        ("canonical", "emit the canonical mu-table for an invariant tuple"),
        ("aut", "automorphism group order, formula vs enumeration"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--r", type=int, default=0)
        p.add_argument("--s", type=int, default=0)
        p.add_argument("--eps", type=int, default=0)
        p.add_argument("--delta", type=int, default=0)
        if name == "aut":
            p.add_argument(
                "--list", action="store_true",
                help=f"print every matrix (groups of at most {AUT_LIST_CAP} elements)",
            )

    p = sub.add_parser("catalog", help="export the exceptional-type catalog")
    p.add_argument("--type", choices=("G2", "F4", "E6", "E7", "E8", "all"), default="all")
    p.add_argument("--format", choices=("csv", "text"), default="text")

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", choices=("all",) + tuple(verify.SUITES), default="all")

    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "canonical": _cmd_canonical,
    "aut": _cmd_aut,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use; parse_args keeps no state."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    return _COMMANDS[args.command](args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())

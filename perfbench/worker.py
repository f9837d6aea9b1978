"""Run one workload's items as a closed loop with one client.

    python3 perfbench/worker.py --root ROOT --items ITEMS.json --seconds S --trace 0|1 --out OUT.json

run.py starts this in a fresh single-threaded process.  Items run one after
another, each starting when the previous one returns; passes over the item
list repeat until the next pass would overrun --seconds.  Only the call into
sympf2 is timed: inputs are built before the first pass and every output is
checked after its call returns, against values the benchmark derived itself.
The calibration loop of calib.py is timed before each item and after the
last, so each item's time can be read against the host's speed at that
moment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

import calib
import gen
from tracing import Tracer, write_spans

_INVARIANTS = re.compile(r"^invariants: \(eps, delta, r, s\) = \((\d+), (\d+), (\d+), (\d+)\)$", re.M)


class Items:
    """Builds (call, check) pairs; calls go through module attributes so a
    tracer installed before them sees every call."""

    def __init__(self, sympf2_modules: dict) -> None:
        self.m = sympf2_modules
        self._entries = None

    def run_cli(self, argv: list[str]) -> tuple[object, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.m["cli"].main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def entry(self, key: str):
        if self._entries is None:
            self._entries = {gen.entry_key(e): e for e in self.m["catalog"].enumerate_all()}
        return self._entries[key]

    def build(self, item: dict):
        return getattr(self, "_" + item["kind"])(item)

    # --- orders -----------------------------------------------------------------

    def _aut_cli(self, item):
        eps, delta, r, s = item["tuple"]
        argv = ["aut", "--r", str(r), "--s", str(s), "--eps", str(eps), "--delta", str(delta)]

        def check(out):
            rc, text = out
            found = re.search(r"^order \(enumerated\): (\d+)$", text, re.M)
            if rc != 0 or not found or "agreement: yes" not in text:
                return f"exit {rc}, output {text!r}"
            if int(found.group(1)) != item["order"]:
                return f"enumerated {found.group(1)}, closed form {item['order']}"
            return None

        return (lambda: self.run_cli(argv)), check

    def _aut_count(self, item):
        spaces = [self.m["sms"].SymplecticMetricSpace(item["rank"], int(t, 16))
                  for t in item["tables"]]
        autgrp = self.m["autgrp"]
        return ((lambda: [autgrp.count_automorphisms(sp) for sp in spaces]),
                _equals([item["order"]] * len(spaces)))

    def _mu_aut(self, item):
        catalog = self.m["catalog"]
        model = catalog.build_label_model(self.entry(item["key"]))
        return (lambda: catalog.count_mu_automorphisms(model)), _equals(item["order"])

    def _pairing_aut(self, item):
        autgrp = self.m["autgrp"]
        space = autgrp.plain_symplectic_space(*item["st"])
        return (lambda: autgrp.count_pairing_automorphisms(space)), _equals(item["order"])

    # --- matrix -----------------------------------------------------------------

    def _roundtrip(self, item):
        matgrp = self.m["matgrp"]
        t = self.m["sms"].InvariantTuple(*item["tuple"])
        want = (item["rank"], int(item["table"], 16))

        def check(space):
            if (space.rank, space.table) != want:
                return f"extracted rank {space.rank} table {space.table:x}, expected {item['table']}"
            return None

        return (lambda: matgrp.extract_sms(matgrp.canonical_subgroup(item["target"], t))), check

    def _genfile(self, item):
        argv = ["classify", "--generators", item["path"]]

        def check(out):
            rc, text = out
            if rc != 0 or f"group order: {item['group_order']}\n" not in text:
                return f"exit {rc}, output {text[:200]!r}"
            return _check_invariants(text, item["tuple"])

        return (lambda: self.run_cli(argv)), check

    # --- classify ---------------------------------------------------------------

    def _mu_table(self, item):
        argv = ["classify", "--mu-table", item["path"]]
        eps, delta, r, s = item["tuple"]
        defe = (1 - eps) * (-1) ** delta * (1 << (r + s + delta))

        def check(out):
            rc, text = out
            if rc != 0 or f"defe: {defe:+d}\n" not in text:
                return f"exit {rc}, output {text!r}, expected defe {defe:+d}"
            return _check_invariants(text, item["tuple"])

        return (lambda: self.run_cli(argv)), check

    def _rejected(self, item):
        argv = ["classify", "--mu-table", item["path"]]

        def check(out):
            rc, text = out
            if rc != 1 or "valid: no" not in text or "not bilinear" not in text:
                return f"exit {rc}, output {text!r}"
            return None

        return (lambda: self.run_cli(argv)), check

    def _witness(self, item):
        sms = self.m["sms"]
        k = item["rank"]
        table = int(item["table"], 16)
        space = sms.SymplecticMetricSpace(k, table)
        want = gen.canonical_table(*item["tuple"])[1]

        def check(t):
            if (t.rows, t.cols) != (k, k):
                return f"witness has shape {t.rows}x{t.cols}"
            rows = [r.bits for r in t.row_data]
            cols = [sum(((rows[i] >> j) & 1) << i for i in range(k)) for j in range(k)]
            if not gen.is_invertible(cols):
                return "witness is singular"
            if gen.transport_table(k, table, cols) != want:
                return "witness does not carry the table to the canonical model"
            return None

        return (lambda: sms.isomorphism_to_canonical(space)), check

    def _catalog_cli(self, item):
        argv = ["catalog", "--type", item["type"], "--format", item["format"]]

        def check(out):
            rc, text = out
            digest = hashlib.sha256(text.encode()).hexdigest()
            if rc != 0 or digest != item["sha256"]:
                return f"exit {rc}, digest {digest}"
            return None

        return (lambda: self.run_cli(argv)), check

    def _cross_check(self, item):
        catalog = self.m["catalog"]

        def check(reports):
            got = {gen.entry_key(rep.entry): rep.has_model for rep in reports}
            bad = [gen.entry_key(rep.entry) for rep in reports if not rep.ok]
            if got != item["has_model"] or bad:
                return f"{len(got)} entries, failing {bad[:3]}"
            return None

        return (lambda: [catalog.cross_check(e) for e in catalog.enumerate_all()]), check


def _equals(expected):
    def check(got):
        return None if got == expected else f"got {got!r}, expected {expected!r}"

    return check


def _check_invariants(text: str, expected) -> str | None:
    found = _INVARIANTS.search(text)
    if not found or [int(x) for x in found.groups()] != list(expected):
        return f"invariants line {found.group(0) if found else None!r}, expected {tuple(expected)}"
    return None


def _problem(check, out) -> str | None:
    """What is wrong with an item's output, or None."""
    if isinstance(out, Exception):
        return "".join(traceback.format_exception_only(type(out), out)).strip()
    try:
        return check(out)
    except Exception as exc:  # an output of the wrong shape
        return f"output the check cannot read: {exc!r}"


def _failing(exc: BaseException):
    def call():
        raise exc

    return call


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--items", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans", help="write the last traced pass's spans here")
    args = p.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import sympf2
    from sympf2 import autgrp, catalog, cli, matgrp, sms

    if not os.path.abspath(sympf2.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"sympf2 imported from {sympf2.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    modules = {"autgrp": autgrp, "catalog": catalog, "cli": cli, "matgrp": matgrp, "sms": sms}

    with open(args.items, encoding="utf-8") as fh:
        items = json.load(fh)
    builder = Items(modules)
    work = []
    for item in items:
        try:
            work.append(builder.build(item))
        except Exception as exc:  # a broken input builder fails its item, every pass
            work.append((_failing(exc), None))
    if tracer:
        tracer.reset()

    latencies: list[list[float]] = [[] for _ in work]
    calibration: list[list[float]] = []  # per pass: before each item, and after the last
    failures: list[dict] = []
    summaries = []
    last_spans: list = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        refs = []
        for i, (call, check) in enumerate(work):
            refs.append(calib.sample())
            if tracer:
                tracer.item = i
            t0 = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # the item boundary: record and go on
                out = exc
            latencies[i].append(time.perf_counter() - t0)
            problem = _problem(check, out)
            if problem:
                failures.append({"pass": passes, "item": i, "kind": items[i]["kind"],
                                 "problem": problem[:500]})
        refs.append(calib.sample())
        calibration.append(refs)
        passes += 1
        if tracer:
            last_spans = tracer.spans
            summaries.append(tracer.summary())
            tracer.reset()
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    if tracer and args.spans:
        write_spans(args.spans, last_spans)
    result = {
        "passes": passes,
        "latencies": latencies,
        "calibration": calibration,
        "failures": failures,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "summaries": summaries,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

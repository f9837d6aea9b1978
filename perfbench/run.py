"""The sympf2 benchmark.

    python3 perfbench/run.py --workload {orders,matrix,classify} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  It builds the workload's inputs from
the seed, times the import of sympf2 in fresh interpreters, then runs the
items in a separate worker process (worker.py) for --seconds.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it spends half
the time untraced and half traced, and prints the per-layer metrics.
Every time is read against the calibration loop of calib.py, timed next to
it, and given in seconds at that loop's nominal speed (calib.REF_S).  The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import collections
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import calib
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("part_a_s", "s"),
    ("part_b_s", "s"),
    ("part_c_s", "s"),
    ("part_d_s", "s"),
]

# What part_a_s .. part_d_s time on each workload.
PARTS = {
    "orders": {"a": "canonical_s: sympf2 aut on canonical tuples",
               "b": "rebased_s: count_automorphisms on basis-changed tables",
               "c": "automizer_s: count_mu_automorphisms on catalog label models",
               "d": "pairing_s: count_pairing_automorphisms on plain spaces"},
    "matrix": {"a": "roundtrip_s: canonical_subgroup + extract_sms, orthogonal target",
               "b": "roundtrip_s: canonical_subgroup + extract_sms, symplectic target",
               "c": "genfile_s: sympf2 classify --generators, real mode",
               "d": "genfile_s: sympf2 classify --generators, quaternion mode"},
    "classify": {"a": "mu_table_s: sympf2 classify --mu-table on valid tables",
                 "b": "rejected_s: sympf2 classify --mu-table on one-bit-flipped tables",
                 "c": "witness_s: isomorphism_to_canonical",
                 "d": "catalog_s: sympf2 catalog exports and cross_check"},
}

WHY = {
    "orders": "automorphism-group order checks; the orbit-stabilizer counting acts here and "
              "the other two workloads bypass it",
    "matrix": "matrix-model realization; tensor-slot words should speed up the structured "
              "round trip and leave the generator-file path on MonomialMatrix",
    "classify": "the queries users run one at a time: sms validation, invariants and "
                "canonicalization, and the catalog queries; autgrp and matgrp do no work here",
}

SPAN_METRICS = [
    "autgrp.count_automorphisms", "autgrp.count_pairing_automorphisms",
    "catalog.count_mu_automorphisms",
    "matgrp.canonical_subgroup", "matgrp.extract_sms",
    "matgrp.GeneratedSubgroup.from_commuting_involutions",
    "matgrp.GeneratedSubgroup.generate", "matgrp.parse_generators",
    "sms.isomorphism_to_canonical", "sms.transport",
    "sms.validate", "sms.invariants", "sms.kernel", "sms.parse_mu_table",
    "f2core.nullspace", "f2core.Subspace.spanned_by", "f2core.F2Matrix.is_invertible",
    "catalog.cross_check", "catalog.export_csv", "catalog.export_text",
]
LAYERS = ("f2core", "sms", "autgrp", "matgrp", "catalog", "cli")
CALL_METRICS = ["matgrp.multiply", "matgrp.square_scalar", "matgrp.commutator_scalar", "cli.main"]

PER_LAYER = (
    [(f"{name}.s", "s") for name in SPAN_METRICS]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{name}.calls", "count") for name in CALL_METRICS]
    + [
        ("f2core.calls", "count"),
        ("autgrp.order_sum", "count"),
        ("autgrp.order_per_s", "1/s"),
        ("matgrp.elements", "count"),
        ("matgrp.products_per_element", "ratio"),
        ("sms.table_bits", "count"),
        ("trace.overhead_s", "s"),
    ]
)


# --- run record ------------------------------------------------------------------


def git_sha(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_stats(root: str) -> tuple[int, str]:
    """(line count, SHA-256 prefix) of the Python files under src/."""
    lines = 0
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)):
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, root).encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def rank_histogram(items: list[dict]) -> dict:
    """Ambient ranks of the generated inputs; a rebased item holds several."""
    hist = collections.Counter()
    for item in items:
        if "tuple" in item:
            rank = gen.ambient_rank(*item["tuple"])
        elif "st" in item:
            rank = 2 * item["st"][0] + item["st"][1]
        elif "rank" in item:
            rank = item["rank"]
        else:
            continue
        hist[rank] += len(item.get("tables", [None]))
    return dict(sorted(hist.items()))


# --- measurement ---------------------------------------------------------------------


def child_env(root: str) -> dict:
    """Environment for child interpreters: bytecode cached under .perfbench/."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".perfbench", "pycache")
    return env


def setup_samples(root: str, env: dict, samples: int) -> list[tuple[float, float]]:
    """Times to import sympf2 and sympf2.cli, each in a fresh interpreter,
    with the median calibration loop time of the same interpreter around it."""
    code = (
        f"import sys, time; sys.path.insert(0, {HERE!r}); import calib; "
        "refs = [calib.sample() for _ in range(9)]; "
        f"sys.path.insert(0, {os.path.join(root, 'src')!r}); "
        "t = time.perf_counter(); import sympf2, sympf2.cli; t = time.perf_counter() - t; "
        "refs += [calib.sample() for _ in range(9)]; "
        "refs = sorted(refs[3:]); print(t, refs[len(refs) // 2])"
    )
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                             capture_output=True, text=True, timeout=60)
        took, ref = out.stdout.split()
        times.append((float(took), float(ref)))
    return times


def setup_seconds(samples: list[tuple[float, float]]) -> float:
    """Median import time over the samples, each read against its own calibration."""
    return statistics.median(took / ref * calib.REF_S for took, ref in samples)


def run_worker(root: str, env: dict, items_path: str, seconds: float, trace: int,
               out_path: str, spans_path: str | None, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--items", items_path, "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_path]
    if spans_path:
        cmd += ["--spans", spans_path]
    subprocess.run(cmd, env=env, cwd=root, check=True, timeout=timeout)
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def item_latencies(result: dict) -> list[float]:
    """Each item's median latency over the passes, in seconds at calib.REF_S.

    Each pass's time of an item is divided by the mean of the calibration
    loop times taken just before and just after it, so the host's speed at
    that moment cancels.
    """
    out = []
    for i, lat in enumerate(result["latencies"]):
        ratios = [t / ((refs[i] + refs[i + 1]) / 2)
                  for t, refs in zip(lat, result["calibration"])]
        out.append(statistics.median(ratios) * calib.REF_S)
    return out


def raw_wall(result: dict) -> float:
    """One pass as the clock read it: the sum of each item's median latency."""
    return sum(statistics.median(lat) for lat in result["latencies"])


def host_speed(result: dict) -> float:
    """calib.REF_S over the run's median calibration time: 1 at nominal speed."""
    return calib.REF_S / statistics.median(r for refs in result["calibration"] for r in refs)


def end_to_end(items: list[dict], result: dict, setup_s: float) -> dict:
    """Item latencies summed (one pass) and ranked (median and 90th percentile)."""
    lat = item_latencies(result)
    deciles = statistics.quantiles(lat, n=10)
    metrics = {
        "setup_s": setup_s,
        "wall_s": sum(lat),
        "item_p50_ms": 1e3 * statistics.median(lat),
        "item_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    for part in "abcd":
        metrics[f"part_{part}_s"] = sum(x for x, it in zip(lat, items) if it["part"] == part)
    return metrics


def pass_layer_metrics(s: dict, scale: float) -> dict:
    """Per-layer metrics of one traced pass; scale turns its clock seconds
    into seconds at calib.REF_S."""
    inclusive, calls, sums = s["inclusive"], s["calls"], s["sums"]
    out = {f"{name}.s": scale * inclusive.get(name, 0.0) for name in SPAN_METRICS}
    out.update({f"{layer}.self_s": scale * s["self"].get(layer, 0.0) for layer in LAYERS})
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALL_METRICS})
    order_sum = sums.get("autgrp.order_sum", 0)
    busy = scale * s["busy"].get("autgrp", 0.0)
    elements = sums.get("matgrp.elements", 0)
    out.update({
        "f2core.calls": s["layer_calls"].get("f2core", 0),
        "autgrp.order_sum": order_sum,
        "autgrp.order_per_s": order_sum / busy if busy else 0.0,
        "matgrp.elements": elements,
        "matgrp.products_per_element": calls.get("matgrp.multiply", 0) / elements if elements else 0.0,
        "sms.table_bits": sums.get("sms.table_bits", 0),
    })
    return out


def per_layer(untraced: dict, traced: dict) -> tuple[dict, list[str]]:
    """Medians over traced passes; counts must repeat exactly in every pass."""
    passes = [pass_layer_metrics(s, calib.REF_S / statistics.median(refs))
              for s, refs in zip(traced["summaries"], traced["calibration"])]
    metrics, unsteady = {}, []
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = sum(item_latencies(traced)) - sum(item_latencies(untraced))
            continue
        values = [p[name] for p in passes]
        if unit == "count":
            if len(set(values)) != 1:
                unsteady.append(f"{name} varies across passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, unsteady


def self_time_shares(traced: dict) -> dict:
    total = collections.Counter()
    for s in traced["summaries"]:
        total.update(s["self"])
    whole = sum(total.values()) or 1.0
    return {layer: round(total[layer] / whole, 4) for layer in LAYERS}


# --- main ----------------------------------------------------------------------------


def plant_wrong_expectation(item: dict) -> None:
    """Corrupt one expected value, for the self-test."""
    if "order" in item:
        item["order"] += 1
    elif "table" in item:
        item["table"] = format(int(item["table"], 16) ^ 2, "x")
    else:
        item["tuple"] = [item["tuple"][0], item["tuple"][1], item["tuple"][2] + 1, item["tuple"][3]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true", help="self-test sizes")
    p.add_argument("--plant-failure", action="store_true",
                   help="corrupt one expected value; the run must report it as failed")
    args = p.parse_args(argv)
    begin = time.monotonic()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sympf2", "__init__.py")):
        print(f"no sympf2 sources under {os.path.join(root, 'src')}; "
              "run from the root of a sympf2 checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench")
    work = os.path.join(out_dir, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            expected = json.load(fh)
        size = gen.SMALL if args.small else gen.FULL
        items = gen.make_items(args.workload, args.seed, size, expected, work)
        if args.plant_failure:
            plant_wrong_expectation(items[0])
        items_path = os.path.join(work, "items.json")
        with open(items_path, "w", encoding="utf-8") as fh:
            json.dump(items, fh)

        env = child_env(root)
        results_dir = os.path.join(out_dir, "results")
        os.makedirs(results_dir, exist_ok=True)
        stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")

        def worker(seconds, trace, spans=None):
            timeout = DEADLINE_S - (time.monotonic() - begin)
            return run_worker(root, env, items_path, seconds, trace,
                              os.path.join(work, f"out{trace}.json"), spans, timeout)

        problems = []
        if args.trace:
            untraced = worker(args.seconds / 2, 0)
            traced = worker(args.seconds / 2, 1, stem + ".spans.tsv")
            metrics, problems = per_layer(untraced, traced)
            units = dict(PER_LAYER)
            runs = [untraced, traced]
        else:
            # The first import fills the bytecode cache, as an installed
            # package would have it.  Samples before and after the worker
            # straddle the run, so one busy moment cannot set the median.
            setup = setup_samples(root, env, 9)[1:]
            untraced = worker(args.seconds, 0)
            setup += setup_samples(root, env, 8)
            metrics = end_to_end(items, untraced, setup_seconds(setup))
            units = dict(END_TO_END)
            runs = [untraced]
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["passes"] * len(items) for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for f in failures[:20]:
        print(f"FAILED item {f['item']} ({f['kind']}, pass {f['pass']}): {f['problem']}")
    for problem in problems:
        print(f"UNSTEADY {problem}")
    lines, src_digest = source_stats(root)
    parts = collections.Counter(it["part"] for it in items)
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(root),
        "src_sha256": src_digest,
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "items": len(items),
        "items_per_part": {f"part_{k}": parts[k] for k in sorted(parts)},
        "parts": PARTS[args.workload],
        "rank_histogram": rank_histogram(items),
        "passes": [r["passes"] for r in runs],
        "failed_frac": len(failures) / attempted,
        "clock_wall_s": [round(raw_wall(r), 4) for r in runs],
        "host_speed": [round(host_speed(r), 4) for r in runs],
    }
    if args.trace:
        record["self_time_share"] = self_time_shares(traced)
    for name, value in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    print("record: " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result,
                   "latencies": [r["latencies"] for r in runs]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

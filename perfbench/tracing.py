"""Spans and counters around the public functions of each sympf2 layer.

The tracer rebinds every public function and method of the layer modules
where it is bound: in its defining module, in every sympf2 module that
imported it by name, and on its class.  No file under src/ changes.  Most
callables get a span (name, parent span, item, start, end); the hot small
ones in COUNTER_ONLY, and generator functions, only count their calls; the
per-entry accessors in UNWRAPPED are left alone.
Spans stay in memory until the end of a pass, when the worker summarises
them; the spans of the last pass are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("f2core", "sms", "autgrp", "matgrp", "catalog", "cli")

# Called thousands of times per item: a span each would cost more than the
# work it measures.  Their calls are counted instead.
COUNTER_ONLY = frozenset({
    "matgrp.multiply", "matgrp.inverse", "matgrp.identity",
    "matgrp.square_scalar", "matgrp.commutator_scalar",
    "matgrp.MonomialMatrix.inverse", "matgrp.MonomialMatrix.conj_entries",
    "matgrp.MonomialMatrix.scale", "matgrp.MonomialMatrix.is_scalar",
    "matgrp.MonomialMatrix.scalar_value", "matgrp.MonomialMatrix.identity",
    "sms.InvariantTuple.label",
    "f2core.F2Vector.from_coords", "f2core.F2Vector.coords", "f2core.F2Vector.is_zero",
    "f2core.F2Matrix.entry", "f2core.F2Matrix.row_bits", "f2core.F2Matrix.column_bits",
    "f2core.F2Matrix.from_row_bits", "f2core.Subspace.contains",
})

# Per-entry accessors of the innermost loops, called up to 10^5 times per
# item: even a counter would cost more than the access.  They stay
# unwrapped, and their time is their caller's self time.
UNWRAPPED = frozenset({
    "sms.SymplecticMetricSpace.mu", "sms.SymplecticMetricSpace.m",
    "catalog.LabelModel.mu_bit", "catalog.LabelModel.m_bit",
    "matgrp.unit_mul", "matgrp.unit_conj", "matgrp.unit_complex_conj",
})


class Tracer:
    """Records spans and call counts; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, item, start, end]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.sums: Counter = Counter()
        self.item = -1

    def reset(self) -> None:
        """Drop what the last pass recorded."""
        self.spans = []
        self.stack.clear()
        self.calls = Counter()
        self.sums = Counter()

    # --- wrappers ----------------------------------------------------------------

    def _span(self, fn, name: str, observe):
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            rec = [name, stack[-1] if stack else -1, self.item, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(self.sums, args, result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name: str):
        if name in COUNTER_ONLY or inspect.isgeneratorfunction(fn):
            return self._counter(fn, name)
        return self._span(fn, name, OBSERVERS.get(name))

    # --- installation --------------------------------------------------------------

    def install(self) -> None:
        """Rebind every public callable of every layer to its wrapper."""
        modules = {layer: importlib.import_module(f"sympf2.{layer}") for layer in LAYERS}
        package = importlib.import_module("sympf2")
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or f"{layer}.{attr}" in UNWRAPPED
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(value):
                    wrapper = self._wrap(value, f"{layer}.{attr}")
                    replaced[id(value)] = wrapper
                    setattr(mod, attr, wrapper)
                elif inspect.isclass(value):
                    self._wrap_class(value, f"{layer}.{attr}")
        for mod in list(modules.values()) + [package]:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(mod, attr, replaced[id(value)])

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in UNWRAPPED:
                continue
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self._wrap(raw, name))

    # --- per-pass summary ------------------------------------------------------------

    def summary(self) -> dict:
        """Inclusive time per name, self time per layer, and counts, for one pass.

        A name's inclusive time counts only its outermost calls.  A span's
        self time is its duration minus the durations of its child spans.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_time[rec[1]] += rec[4] - rec[3]
        inclusive: Counter = Counter()
        busy: Counter = Counter()
        self_time: Counter = Counter()
        span_calls: Counter = Counter()
        for i, (name, parent, _item, start, end) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            self_time[layer] += dur - child_time[i]
            span_calls[name] += 1
            outer_name = outer_layer = True
            p = parent
            while p >= 0:
                pname = spans[p][0]
                if pname == name:
                    outer_name = False
                if pname.split(".", 1)[0] == layer:
                    outer_layer = False
                p = spans[p][1]
            if outer_name:
                inclusive[name] += dur
            if outer_layer:
                busy[layer] += dur
        calls = Counter(self.calls)
        calls.update(span_calls)
        layer_calls: Counter = Counter()
        for name, n in calls.items():
            layer_calls[name.split(".", 1)[0]] += n
        return {
            "inclusive": dict(inclusive),
            "self": dict(self_time),
            "busy": dict(busy),
            "calls": dict(calls),
            "layer_calls": dict(layer_calls),
            "sums": dict(self.sums),
            "spans": len(spans),
        }

def write_spans(path: str, spans: list) -> None:
    """Write spans as tab-separated lines, times relative to the first span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tparent\titem\tname\tstart_s\tduration_s\n")
        t0 = spans[0][3] if spans else 0.0
        for i, (name, parent, item, start, end) in enumerate(spans):
            fh.write(f"{i}\t{parent}\t{item}\t{name}\t{start - t0:.9f}\t{end - start:.9f}\n")


def _add_order(sums, args, result) -> None:
    sums["autgrp.order_sum"] += result


def _add_elements(sums, args, result) -> None:
    sums["matgrp.elements"] += len(result.elements)


def _add_table_bits(sums, args, result) -> None:
    sums["sms.table_bits"] += 1 << args[0].rank


# Exact counts taken from the arguments or results of these calls.
OBSERVERS = {
    "autgrp.count_automorphisms": _add_order,
    "autgrp.count_pairing_automorphisms": _add_order,
    "matgrp.GeneratedSubgroup.generate": _add_elements,
    "matgrp.GeneratedSubgroup.from_commuting_involutions": _add_elements,
    "matgrp.GeneratedSubgroup.trivial": _add_elements,
    "sms.validate": _add_table_bits,
}

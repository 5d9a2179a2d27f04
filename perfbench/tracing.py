"""Spans and counters recorded around calls into adjhier's modules.

The benchmark patches each public function under every name a caller
looks it up by (``adjhier.cli.decimal_str`` as well as
``adjhier.numstr.decimal_str``), so the program itself carries no
tracing code.  A span is (name, start, end, parent index, replay id);
spans stay in memory until the benchmark writes them out at the end.
A layer's self time is its span time minus its child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
from collections import defaultdict
from time import perf_counter


def _digits_out(tr, args, result):
    tr.count("numstr.render_digits", len(result))


def _digits_in(tr, args, result):
    tr.count("numstr.parse_digits", len(args[0]))


def _max_bits(tr, args, result):
    # a(n_max) is the largest value the triangle holds
    bits = result.a[-1].bit_length()
    tr.counters["recurrence.max_bits"] = max(
        tr.counters["recurrence.max_bits"], bits)


def _rows(tr, args, result):
    tr.count("bounded.rows", result.n_max)


def _cells(tr, args, result):
    if hasattr(result, "cells"):
        tr.count("refinements.cells",
                 sum(len(v) for v in result.cells.values()))
    else:
        tr.count("refinements.cells", sum(len(r) for r in result.rows))


def _nodes(tr, args, result):
    tr.count("hfs.nodes_interned", result.engine.size)


# (module, function, span name, counter hook run after the call)
SPANS = (
    ("adjhier.numstr", "decimal_str", "numstr.render", _digits_out),
    ("adjhier.numstr", "parse_decimal", "numstr.parse", _digits_in),
    ("adjhier.recurrence", "compute_b_table", "recurrence.fill", _max_bits),
    ("adjhier.bounded", "compute_bounded_table", "bounded.fill", _rows),
    ("adjhier.bounded", "compute_minbounded", "bounded.fill", _rows),
    ("adjhier.refinements", "compute_r_table", "refinements.fill", _cells),
    ("adjhier.refinements", "compute_d_table", "refinements.fill", _cells),
    ("adjhier.refinements", "compute_atoms_table", "refinements.fill", _cells),
    ("adjhier.cache", "save_table", "cache.save", None),
    ("adjhier.cache", "load_table", "cache.load", None),
    ("adjhier.cache", "spot_check", "cache.spot_check", None),
    ("adjhier.asymptotics", "constant_C", "asymptotics.constant", None),
    ("adjhier.oracle", "build_levels", "oracle.build", _nodes),
    ("adjhier.oracle", "partition_counts", "oracle.partition", None),
    ("adjhier.oracle", "partition_split", "oracle.partition", None),
    ("adjhier.oracle", "profile_counts", "oracle.profile", None),
    ("adjhier.oracle", "verify_ark_lemma", "oracle.profile", None),
    ("adjhier.verify", "verify_plain", "verify", None),
    ("adjhier.verify", "verify_atoms", "verify", None),
    ("adjhier.verify", "verify_bounded", "verify", None),
    ("adjhier.verify", "verify_minbounded", "verify", None),
)

# (module, function or Class.method, counter): calls counted, no span
COUNTS = (
    ("adjhier.recurrence", "binomial_big", "recurrence.binomial_calls"),
    ("adjhier.asymptotics", "log_big", "asymptotics.log_big_calls"),
    ("adjhier.hfs", "SetEngine.adjoin_ids", "hfs.adjoin_calls"),
)

ROOT = "cli"
SPAN_NAMES = (ROOT,) + tuple(dict.fromkeys(s[2] for s in SPANS))
COUNTERS = {  # name: unit
    "numstr.render_digits": "digits", "numstr.parse_digits": "digits",
    "recurrence.max_bits": "bits", "recurrence.binomial_calls": "count",
    "bounded.rows": "rows", "refinements.cells": "cells",
    "asymptotics.log_big_calls": "count", "hfs.nodes_interned": "nodes",
    "hfs.adjoin_calls": "count",
}


def self_metric(span_name: str) -> str:
    """The per-layer metric that holds a span's self time."""
    return span_name + (".self_s" if span_name in (ROOT, "verify") else "_s")


class Tracer:
    """Span and counter store for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = defaultdict(int)
        self.replay = 0

    def count(self, name: str, k: int = 1):
        self.counters[name] += k

    def wrap_span(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # children recorded meanwhile get later indices
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.replay)
            if after is not None:
                after(self, args, result)
            return result
        return traced

    def wrap_count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self, replay: int) -> dict:
        """Self time per span name over one replay's spans."""
        child = defaultdict(float)
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == replay]
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in mine:
            totals[name] += end - start - child[i]
        return totals


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name, None)


class Patched:
    """Context manager installing a tracer's wrappers into adjhier.

    A function is replaced under every ``adjhier.*`` module attribute
    that holds it; names the program no longer defines are skipped, so
    the replay keeps working across refactors (their layers read 0).
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.undo = []

    def _install(self, module, attr, make):
        owner, name, original = _resolve(module, attr)
        if original is None:
            return
        wrapper = make(original)
        if owner is sys.modules[module]:
            targets = [m for key, m in list(sys.modules.items())
                       if key.startswith("adjhier") and m is not None]
        else:
            targets = [owner]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self.undo.append((target, key, value))
                    setattr(target, key, wrapper)

    def __enter__(self):
        tr = self.tracer
        for module, attr, span, after in SPANS:
            self._install(module, attr,
                          lambda f, s=span, a=after: tr.wrap_span(s, f, a))
        for module, attr, counter in COUNTS:
            self._install(module, attr,
                          lambda f, c=counter: tr.wrap_count(c, f))
        return self

    def __exit__(self, *exc):
        for target, key, value in reversed(self.undo):
            setattr(target, key, value)
        self.undo.clear()
        return False


def write_spans(path, tracer: Tracer, meta: dict):
    """Write every recorded span as gzip-compressed JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = dict(meta, fields=["name", "start", "end", "parent", "replay"],
               spans=tracer.spans)
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh, separators=(",", ":"))

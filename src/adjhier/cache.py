"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"format_version": N, "payload": {...}, "checksum":
sha256(canonical payload)}`` dumped with sorted keys and no whitespace
variance, so load-then-save is byte identical.  Every count is a decimal
string; nothing numeric ever passes through floating point.  Caches are
an optimization only: loads are spot-checked by recomputing row 1 and
one row seeded from the checksum against the cached cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import stat

from .errors import CacheError
from .numstr import decimal_str, parse_decimal
from .recurrence import CountTable, table_from_cells
from .refinements import RefinedTable, refined_table
from .variants import HierarchySpec

FORMAT_VERSION = 3


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _cells(table: CountTable) -> list:
    return sorted([n, m, decimal_str(v)]
                  for m, col in enumerate(table.cols) for n, v in col.items())


def _parse_cells(cells) -> list:
    return [(int(n), int(m), parse_decimal(v)) for n, m, v in cells]


def table_payload(table) -> dict:
    """A count table is its spec plus its nonzero cells [n, m, b(n, m)];
    a refined table keeps the nonzero cells of each of its layers."""
    if isinstance(table, CountTable):
        return {"kind": "count-table", "spec": table.spec.descriptor(),
                "n_max": str(table.n_max), "cells": _cells(table)}
    if isinstance(table, RefinedTable):
        return {"kind": f"{table.kind}-refined", "n_max": str(table.n_max),
                "layers": [_cells(layer) for layer in table.layers]}
    raise TypeError(f"no cache payload for {type(table).__name__}")


def table_from_payload(payload, expect=None):
    """The table a payload holds; None, without building it, when its
    (spec or refinement kind, n_max) is not ``expect``."""
    if not isinstance(payload, dict):
        raise CacheError("cache payload is not a JSON object")
    kind = payload.get("kind")
    try:
        n_max = int(payload["n_max"])
        if kind == "count-table":
            spec = HierarchySpec.from_descriptor(payload["spec"])
            if expect is not None and expect != (spec, n_max):
                return None
            return table_from_cells(spec, n_max,
                                    _parse_cells(payload["cells"]))
        if kind in ("rank-refined", "cardinality-refined"):
            refinement = kind.split("-")[0]
            if expect is not None and expect != (refinement, n_max):
                return None
            layers = payload["layers"]
            if len(layers) != n_max + 1:
                raise ValueError(f"{len(layers)} layers for depth {n_max}")
            return refined_table(refinement, n_max,
                                 [_parse_cells(cells) for cells in layers])
    except (KeyError, ValueError, IndexError, TypeError,
            AttributeError) as exc:
        raise CacheError(f"malformed {kind or 'cache'} payload: {exc}") from exc
    raise CacheError(f"unknown payload kind {kind!r}")


def spot_check(table, n: int):
    """Recompute row n of the cached table from its other cached cells."""
    if n < 1:
        return
    try:
        ok = table.check_row(n)
    except (ValueError, IndexError) as exc:
        raise CacheError(
            f"cached row {n} cannot be recomputed: {exc}") from exc
    if not ok:
        raise CacheError(f"cached row {n} fails recomputation")


# -- file interface ----------------------------------------------------------

def save_table(path, table) -> None:
    """Write the cache file atomically.

    The document goes to a temporary file beside ``path`` and replaces it
    only once written and synced, so an interrupted save leaves the
    previous file, or none, never a truncated one.  The file gets the mode
    a plain ``open(path, "w")`` would leave: an existing file's own, else
    0666 less the umask.
    """
    payload = table_payload(table)
    doc = {
        "format_version": FORMAT_VERSION,
        "payload": payload,
        "checksum": _checksum(payload),
    }
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(_canonical(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path, expect=None):
    """Load a cache file; with ``expect`` = (spec or refinement kind,
    n_max), a file holding another table loads as None."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CacheError(f"cache file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise CacheError("cache file lacks a format_version")
    if doc["format_version"] != FORMAT_VERSION:
        raise CacheError(
            f"cache format_version {doc['format_version']} != "
            f"{FORMAT_VERSION}; refusing to load")
    payload = doc.get("payload")
    if _checksum(payload) != doc.get("checksum"):
        raise CacheError("cache checksum mismatch")
    table = table_from_payload(payload, expect)
    if table is not None and table.n_max >= 1:
        # row 1 too: an all-zero table recomputes to zeros in every other row
        rng = random.Random(doc["checksum"])
        for n in sorted({1, rng.randint(1, table.n_max)}):
            spot_check(table, n)
    return table


def cache_roundtrip(path, table):
    """Save then load; the result equals the input cell for cell."""
    save_table(path, table)
    return load_table(path)

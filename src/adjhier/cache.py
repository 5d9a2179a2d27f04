"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"format_version": N, "payload": {...}, "checksum":
sha256(canonical payload)}`` dumped with sorted keys and no whitespace
variance, so load-then-save is byte identical.  Every count is a decimal
string; nothing numeric ever passes through floating point.  Caches are
an optimization only: loads are spot-checked by recomputing one row of
the recurrence (seeded from the checksum) against the cached cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import stat
from bisect import bisect_right

from .bounded import (BoundFunction, BoundedTable, GInverse, MinBoundedTable)
from .errors import CacheError
from .numstr import decimal_str, parse_decimal
from .recurrence import BTable, binomial_big
from .refinements import AtomsTable, RefinedTable
from .variants import HierarchySpec

FORMAT_VERSION = 1


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


# -- payload builders --------------------------------------------------------

def _btable_payload(t: BTable) -> dict:
    return {
        "kind": "plain-table",
        "variant": t.variant.descriptor(),
        "n_max": str(t.n_max),
        "rows": [[decimal_str(v) for v in row] for row in t.rows],
        "a": [decimal_str(v) for v in t.a],
    }


def _refined_payload(t: RefinedTable) -> dict:
    return {
        "kind": f"{t.kind}-refined",
        "n_max": str(t.n_max),
        "cells": [[[decimal_str(v) for v in t.cells[(n, m)]] for m in range(n)]
                  for n in range(1, t.n_max + 1)],
    }


def _atoms_payload(t: AtomsTable) -> dict:
    return {
        "kind": "atoms-table",
        "u": str(t.u),
        "n_max": str(t.n_max),
        "rows": [[decimal_str(v) for v in row] for row in t.rows],
        "sizes": [decimal_str(v) for v in t.sizes],
    }


def _sparse_cells(col_vals) -> list:
    cells = []
    for m, col in enumerate(col_vals):
        for n, v in sorted(col.items()):
            cells.append([n, m, decimal_str(v)])
    cells.sort()
    return cells


def _bounded_payload(t: BoundedTable) -> dict:
    return {
        "kind": "bounded-table",
        "f": t.f.descriptor(),
        "n_max": str(t.n_max),
        "a": [decimal_str(v) for v in t.a],
        "cells": _sparse_cells(t._col_vals),
    }


def _minbounded_payload(t: MinBoundedTable) -> dict:
    return {
        "kind": "minbounded-table",
        "n_max": str(t.n_max),
        "a": [decimal_str(v) for v in t.a],
        "cells": _sparse_cells(t._col_vals),
    }


def table_payload(table) -> dict:
    if isinstance(table, BTable):
        return _btable_payload(table)
    if isinstance(table, RefinedTable):
        return _refined_payload(table)
    if isinstance(table, AtomsTable):
        return _atoms_payload(table)
    if isinstance(table, BoundedTable):
        return _bounded_payload(table)
    if isinstance(table, MinBoundedTable):
        return _minbounded_payload(table)
    raise TypeError(f"no cache payload for {type(table).__name__}")


# -- payload readers ---------------------------------------------------------

def _restore_cols(cells, n_cols):
    col_vals = [{} for _ in range(n_cols)]
    for n, m, v in cells:
        col_vals[m][n] = parse_decimal(v)
    return col_vals


def table_from_payload(payload: dict):
    kind = payload.get("kind")
    try:
        if kind == "plain-table":
            return BTable(
                HierarchySpec.from_descriptor(payload["variant"]),
                int(payload["n_max"]),
                [[parse_decimal(v) for v in row] for row in payload["rows"]],
                [parse_decimal(v) for v in payload["a"]],
            )
        if kind in ("rank-refined", "cardinality-refined"):
            n_max = int(payload["n_max"])
            cells = {}
            for i, row in enumerate(payload["cells"]):
                for m, vec in enumerate(row):
                    cells[(i + 1, m)] = [parse_decimal(v) for v in vec]
            return RefinedTable(kind.split("-")[0], n_max, cells)
        if kind == "atoms-table":
            return AtomsTable(
                int(payload["u"]), int(payload["n_max"]),
                [[parse_decimal(v) for v in row] for row in payload["rows"]],
                [parse_decimal(v) for v in payload["sizes"]],
            )
        if kind == "bounded-table":
            f = BoundFunction.from_descriptor(payload["f"])
            n_max = int(payload["n_max"])
            a = [parse_decimal(v) for v in payload["a"]]
            caps, cap = [-1], -1
            for n in range(1, n_max + 1):
                cap = max(cap, f(n - 1))
                caps.append(cap)
            diag = [1] + [a[n] - a[n - 1] for n in range(1, n_max + 1)]
            return BoundedTable(f, n_max, a,
                                diag, _restore_cols(payload["cells"], cap + 1),
                                caps)
        if kind == "minbounded-table":
            n_max = int(payload["n_max"])
            a = [parse_decimal(v) for v in payload["a"]]
            caps = [-1] + [bisect_right(a, n - 1) for n in range(1, n_max + 1)]
            diag = [1] + [a[n] - a[n - 1] for n in range(1, n_max + 1)]
            return MinBoundedTable(n_max, a, diag,
                                   _restore_cols(payload["cells"],
                                                 (caps[-1] + 1) if n_max else 0),
                                   caps)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise CacheError(f"malformed {kind or 'cache'} payload: {exc}") from exc
    raise CacheError(f"unknown payload kind {kind!r}")


# -- row spot checks ---------------------------------------------------------

def _spot_check_btable(t: BTable, n: int):
    a_prefix = 0
    for m in range(-1, n):
        if m >= 0:
            a_prefix += t.c(m)
        if m == -1:
            expect = 1 if n == 0 else 0
        else:
            cm = t.c(m)
            expect = t.b(n, m - 1)
            for k in range(1, min(n - m - 1, cm) + 1):
                expect += t.b(n - k, m - 1) * binomial_big(cm, k)
            expect += binomial_big(cm, n - m) * a_prefix
        if t.b(n, m) != expect:
            raise CacheError(f"cached cell b({n}, {m}) fails recomputation")


def _spot_check_refined(t: RefinedTable, n: int, c_diag=None):
    for m in range(n):
        cap = m + 1 if t.kind == "rank" else n
        for tt in range(cap + 1):
            if t.kind == "rank":
                dv = t.diagonal(m, tt - 1)
                expect = t.value(n, m - 1, tt)
                for k in range(1, min(n - m - 1, dv) + 1):
                    expect += t.value(n - k, m - 1, tt) * binomial_big(dv, k)
                expect += binomial_big(dv, n - m) * sum(
                    t.diagonal(j, tt) for j in range(m + 1))
            else:
                cm = c_diag[m]
                expect = t.value(n, m - 1, tt)
                for k in range(1, min(n - m - 1, cm) + 1):
                    expect += t.value(n - k, m - 1, tt - k) * binomial_big(cm, k)
                expect += binomial_big(cm, n - m) * sum(
                    t.diagonal(j, tt - (n - m)) for j in range(m + 1))
            if t.value(n, m, tt) != expect:
                raise CacheError(
                    f"cached cell ({n}, {m}, t={tt}) fails recomputation")


def _spot_check_atoms(t: AtomsTable, n: int):
    if t.b(n, 0) != binomial_big(t.u + 1, n):
        raise CacheError(f"cached atoms base cell b({n}, 0) fails recomputation")
    for m in range(1, n):
        cm = t.rows[m][m]
        expect = t.b(n, m - 1)
        for k in range(1, min(n - m - 1, cm) + 1):
            expect += t.b(n - k, m - 1) * binomial_big(cm, k)
        head = 1 + sum(t.rows[k][k] for k in range(1, m + 1))
        expect += binomial_big(cm, n - m) * head
        if t.b(n, m) != expect:
            raise CacheError(f"cached atoms cell b({n}, {m}) fails recomputation")
    if t.sizes[n] != t.sizes[n - 1] + t.rows[n][n]:
        raise CacheError(f"cached atoms size at {n} fails recomputation")


def _spot_check_level_bounded(t, n: int, g_of):
    diag = t.increments
    prev = 0
    for m in range(t._m_caps[n] + 1):
        gm = g_of(m)
        q = n - gm
        expect = prev
        dm = diag[m]
        for k in range(1, min(q - 1, dm) + 1):
            expect += t.b(n - k, m - 1) * binomial_big(dm, k)
        if 1 <= q <= dm:
            expect += binomial_big(dm, q) * t.a[gm]
        if t.b(n, m) != expect:
            raise CacheError(f"cached cell b({n}, {m}) fails recomputation")
        prev = expect
    if t.a[n] != t.a[n - 1] + prev:
        raise CacheError(f"cached level size at {n} fails recomputation")


def spot_check(table, n: int):
    """Recompute row n of the cached table from its other cached cells."""
    if n < 1:
        return
    if isinstance(table, BTable):
        _spot_check_btable(table, n)
    elif isinstance(table, RefinedTable):
        if table.kind == "cardinality":
            # rebuild the plain diagonal this row needs
            from .recurrence import compute_b_table
            c_diag = [compute_b_table(table.n_max).c(m)
                      for m in range(table.n_max + 1)]
            _spot_check_refined(table, n, c_diag)
        else:
            _spot_check_refined(table, n)
    elif isinstance(table, AtomsTable):
        _spot_check_atoms(table, n)
    elif isinstance(table, BoundedTable):
        ginv = GInverse(table.f)
        _spot_check_level_bounded(table, n, ginv)
    elif isinstance(table, MinBoundedTable):
        _spot_check_level_bounded(table, n, table.gbar)


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


def load_table(path, *, verify_row: bool = True):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
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
    table = table_from_payload(payload)
    if verify_row:
        n_max = int(payload["n_max"])
        if n_max >= 1:
            rng = random.Random(doc["checksum"])
            spot_check(table, rng.randint(1, n_max))
    return table


def cache_roundtrip(path, table):
    """Save then load; the result equals the input cell for cell."""
    save_table(path, table)
    return load_table(path)

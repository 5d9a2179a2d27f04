"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"format_version": 4, "payload": {...}, "checksum":
sha256(canonical payload)}`` dumped with sorted keys and no whitespace
variance, so load-then-save is byte identical.  Every payload is
``{"table": name, "n_max": "<n>", "layers": [[[n, m, "<hex>"], ...],
...]}``: a count table is one layer named by its spec's descriptor, a
rank or cardinality table n_max + 1 layers named by its kind.  Cells
are lowercase hex, linear to convert both ways; decimal is only for
people.  Caches are an optimization only: loads are spot-checked by
recomputing row 1 and one row seeded from the checksum.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat

from .errors import CacheError
from .recurrence import CountTable, table_from_cells
from .variants import HierarchySpec

FORMAT_VERSION = 4


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _cells(table) -> list:
    return sorted([n, m, format(v, "x")]
                  for m, col in enumerate(table.cols) for n, v in col.items())


def _hex(s) -> int:
    """int(s, 16) for exactly the strings ``format(v, "x")`` writes."""
    v = int(s, 16)
    if v < 0 or format(v, "x") != s:
        raise ValueError(f"cell value {s[:40]!r} is not lowercase hex")
    return v


def _index(x) -> int:
    """A cell's n or m: a JSON int, as ``_cells`` writes it."""
    if type(x) is not int:
        raise ValueError(f"cell index {x!r:.40} is not an int")
    return x


def _parse_cells(cells) -> list:
    return [(_index(n), _index(m), _hex(v)) for n, m, v in cells]


def table_payload(table) -> dict:
    """The table's name and the nonzero cells [n, m, b(n, m)] of each of
    its layers; a count table is its own single layer."""
    if isinstance(table, CountTable):
        name, layers = table.spec.descriptor(), [table]
    else:
        name, layers = table.kind, table.layers
    return {"table": name, "n_max": str(table.n_max),
            "layers": [_cells(layer) for layer in layers]}


def table_from_payload(payload, expect=None):
    """The table a payload holds; None, without building it, when its
    (spec or refinement kind, n_max) is not ``expect``."""
    if not isinstance(payload, dict):
        raise CacheError("cache payload is not a JSON object")
    try:
        name, n_max = payload["table"], int(payload["n_max"])
        if str(n_max) != payload["n_max"]:
            raise ValueError(f"n_max {payload['n_max']!r:.40} is not a "
                             f"decimal string")
        refined = name in ("rank", "cardinality")
        key = name if refined else HierarchySpec.from_descriptor(name)
        if expect is not None and expect != (key, n_max):
            return None
        layers = payload["layers"]
        if len(layers) != (n_max + 1 if refined else 1):
            raise ValueError(f"{len(layers)} layers for depth {n_max}")
        cells = [_parse_cells(layer) for layer in layers]
        if refined:
            from .refinements import refined_table
            return refined_table(name, n_max, cells)
        return table_from_cells(key, n_max, cells[0])
    except (KeyError, ValueError, IndexError, TypeError,
            AttributeError) as exc:
        raise CacheError(f"malformed cache payload: {exc}") from exc


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
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the path asked for, not the random temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
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
        import random
        # row 1 too: an all-zero table recomputes to zeros in every other row
        rng = random.Random(doc["checksum"])
        for n in sorted({1, rng.randint(1, table.n_max)}):
            spot_check(table, n)
    return table

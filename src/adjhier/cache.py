"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"format_version": 4, "payload": {...}, "checksum":
sha256(canonical payload)}`` dumped with sorted keys and no whitespace
variance, so load-then-save is byte identical.  Every payload is
``{"table": descriptor, "n_max": "<n>", "layers": [[[n, m, "<hex>"],
...]]}``: one count table, named by its spec's descriptor, in exactly
one layer.  Rank and cardinality tables are not cached: their commands
recompute them.  Cells are lowercase hex, linear to convert both ways;
decimal is only for people.  A load fills the table as a run with no
cache would and compares every stored cell with it exactly
(:func:`spot_check`), so a file is checked by the code that computes
the answer.

The sha256 is CPython's builtin one (``_sha2`` from 3.12, ``_sha256``
before), so a cached run does not load :mod:`hashlib` and OpenSSL for
one digest.  A save writes the document cell by cell, holding neither
the payload's cells nor its text, and hashes the payload as it writes.
"""

from __future__ import annotations

import json
import os
import stat

from .errors import CacheError
from .recurrence import CountTable, compute_table
from .variants import HierarchySpec

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

FORMAT_VERSION = 4
_SLICE = 1 << 16  # characters of canonical text encoded at a time


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    text, digest = _canonical(payload), sha256()
    for i in range(0, len(text), _SLICE):
        digest.update(text[i:i + _SLICE].encode())
    return digest.hexdigest()


def _payload_text(table: CountTable):
    """The payload's canonical text in pieces of one cell each: the
    table's spec, its depth and its nonzero cells [n, m, "<hex>"] in
    (n, m) order, as the one layer."""
    cols = table.cols
    keys = sorted((n, m) for m, col in enumerate(cols) for n in col)
    yield '{"layers":[['
    for j, (n, m) in enumerate(keys):
        yield f'{"," if j else ""}[{n},{m},"{cols[m][n]:x}"]'
    yield (f']],"n_max":{_canonical(str(table.n_max))},'
           f'"table":{_canonical(table.spec.descriptor())}}}')


def _hex(s) -> int:
    """int(s, 16) for exactly the strings ``format(v, "x")`` writes: ASCII,
    lowercase and as long as v's hex digits, which leaves no room for a
    sign, prefix, separator, space or leading zero."""
    v = int(s, 16)
    if not (v >= 0 and s.isascii() and s.lower() == s
            and len(s) == ((v.bit_length() + 3) // 4 or 1)):
        raise ValueError(f"cell value {s[:40]!r} is not lowercase hex")
    return v


def _index(x) -> int:
    """A cell's n or m: a JSON int, as ``_payload_text`` writes it."""
    if type(x) is not int:
        raise ValueError(f"cell index {x!r:.40} is not an int")
    return x


def table_from_payload(payload, expect):
    """The count table a payload holds, filled and compared with its
    cells by :func:`spot_check`; None, without filling it, when its
    (spec, n_max) is not ``expect`` or when it holds a rank or
    cardinality table, which earlier releases cached and this one never
    loads.  The payload's layer is turned into the cells in place, so
    its hex strings are not held while the table fills."""
    if not isinstance(payload, dict):
        raise CacheError("cache payload is not a JSON object")
    try:
        if payload["table"] in ("rank", "cardinality"):
            return None
        spec, n_max = (HierarchySpec.from_descriptor(payload["table"]),
                       int(payload["n_max"]))
        if str(n_max) != payload["n_max"]:
            raise ValueError(f"n_max {payload['n_max']!r:.40} is not a "
                             f"decimal string")
        if expect is not None and expect != (spec, n_max):
            return None
        layers = payload["layers"]
        if len(layers) != 1:
            raise ValueError(f"{len(layers)} layers for depth {n_max}")
        cells = layers[0]
        for i, (n, m, v) in enumerate(cells):
            cells[i] = _index(n), _index(m), _hex(v)
        return spot_check(spec, n_max, cells)
    except (KeyError, ValueError, IndexError, TypeError,
            AttributeError) as exc:
        raise CacheError(f"malformed cache payload: {exc}") from exc


def spot_check(spec: HierarchySpec, n_max: int, cells: list) -> CountTable:
    """The count table of ``spec`` through n_max, filled by
    :func:`compute_table`, once ``cells``, the (n, m, b(n, m)) a cache
    stores and sorted here in place, are exactly its nonzero cells.

    Rows are checked in order, as the fill makes them.  A cell that is
    zero or outside the triangle refuses the file before the fill; in
    the first row that differs from the table, a cell past cap(n) or
    listed twice refuses it as malformed, and otherwise a raised, extra
    or missing cell raises :class:`CacheError` naming the row.
    """
    for n, m, v in cells:
        if not 0 <= m < n <= n_max:
            raise ValueError(f"cell ({n}, {m}) outside the filled triangle")
        if not v:  # only nonzero cells are stored
            raise ValueError(f"cell ({n}, {m}) is zero")
    cells.sort()
    table = compute_table(spec, n_max)
    cols, caps = table.cols, table.caps
    # r is the first row with a stored cell that the table lacks;
    # cells[:i] are the cells read before stopping
    r, err, last = n_max + 1, None, None
    for i, (n, m, v) in enumerate(cells):
        if n > r:
            break
        if (n, m) == last:
            err = ValueError(f"cell ({n}, {m}) listed twice")
        elif m >= len(cols) or cols[m].get(n) != v:
            if m > caps[n]:
                err = ValueError(f"cell ({n}, {m}) outside the filled "
                                 f"triangle")
            r = n
        if err:
            r = n
            break
        last = n, m
    else:
        i = len(cells)
    if r > n_max and len(cells) == sum(map(len, cols)):
        return table
    # rows below r hold only table cells: the first that misses one
    held = {(n, m) for n, m, _ in cells[:i]}
    d = min((n for m, col in enumerate(cols) for n in col
             if n < r and (n, m) not in held), default=r)
    if d == r and err:
        raise err
    raise CacheError(f"cached row {d} fails recomputation")


# -- file interface ----------------------------------------------------------

def save_table(path, table) -> None:
    """Write the cache file atomically.

    The document goes to a temporary file beside ``path`` and replaces it
    only once written and synced, so an interrupted save leaves the
    previous file, or none, never a truncated one.  The file gets the mode
    a plain ``open(path, "w")`` would leave: an existing file's own, else
    0666 less the umask.

    The document is the text ``_canonical`` gives ``{"checksum": ...,
    "format_version": ..., "payload": ...}``.  Its payload is hashed as
    it is written, and the checksum, which leads the document at a fixed
    offset, is written over a placeholder once the payload is complete.
    """
    head = '{"checksum":"'
    digest = sha256()
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # name the path asked for, not the random temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            try:
                os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
            except FileNotFoundError:
                pass
            fh.write(f'{head}{"0" * digest.digest_size * 2}",'
                     f'"format_version":{FORMAT_VERSION},"payload":'.encode())
            for piece in _payload_text(table):
                piece = piece.encode()
                digest.update(piece)
                fh.write(piece)
            fh.write(b"}")
            fh.seek(len(head))
            fh.write(digest.hexdigest().encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path, expect=None):
    """Load a cache file; with ``expect`` = (spec, n_max), a file holding
    another table loads as None, and so does a leftover rank or
    cardinality table."""
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
    return table_from_payload(payload, expect)

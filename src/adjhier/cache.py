"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"format_version": 4, "payload": {...}, "checksum":
sha256(canonical payload)}`` dumped with sorted keys and no whitespace
variance, so load-then-save is byte identical.  Every payload is
``{"table": name, "n_max": "<n>", "layers": [[[n, m, "<hex>"], ...],
...]}``: a count table is one layer named by its spec's descriptor, a
rank or cardinality table n_max + 1 layers named by its kind.  Cells
are lowercase hex, linear to convert both ways; decimal is only for
people.  Caches are an optimization only: a load checks every row against
the row step mod a prime that the checksum picks (:func:`spot_check`).

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
from .recurrence import CountTable, table_from_cells
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


def _payload_text(table):
    """The payload's canonical text in pieces of one cell each: the
    table's name, its depth and the nonzero cells [n, m, "<hex>"] of each
    of its layers in (n, m) order; a count table is its own single
    layer."""
    if isinstance(table, CountTable):
        name, layers = table.spec.descriptor(), [table]
    else:
        name, layers = table.kind, table.layers
    yield '{"layers":['
    for i, layer in enumerate(layers):
        cols = layer.cols
        keys = sorted((n, m) for m, col in enumerate(cols) for n in col)
        yield "[" if i == 0 else ",["
        for j, (n, m) in enumerate(keys):
            yield f'{"," if j else ""}[{n},{m},"{cols[m][n]:x}"]'
        yield "]"
    yield (f'],"n_max":{_canonical(str(table.n_max))},'
           f'"table":{_canonical(name)}}}')


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


def _parse_cells(cells) -> list:
    return [(_index(n), _index(m), _hex(v)) for n, m, v in cells]


def _prime(checksum: str) -> int:
    """The first prime at or above the number whose 61 bits are the first
    61 of the checksum, the top one set; Miller-Rabin with the bases 2 to
    37 is exact below 3.3e24."""
    p = int(checksum[:16], 16) >> 3 | 1 << 60 | 1
    while True:
        s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
        d = (p - 1) >> s
        if all(pow(b, d, p) == 1 or any(pow(b, d << r, p) == p - 1
                                        for r in range(s))
               for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)):
            return p
        p += 2


def table_from_payload(payload, expect, p: int):
    """The table a payload holds, rebuilt by :func:`spot_check` mod the
    prime p; None, without building it, when its (spec or refinement
    kind, n_max) is not ``expect``."""
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
        return spot_check(key, n_max,
                          [_parse_cells(layer) for layer in layers], p)
    except (KeyError, ValueError, IndexError, TypeError,
            AttributeError) as exc:
        raise CacheError(f"malformed cache payload: {exc}") from exc


def spot_check(key, n_max: int, cells: list, p: int):
    """Rebuild the table of ``key`` (a spec or refinement kind) from the
    cells of its layers, every row checked against the row step mod the
    prime p; the first row that fails raises :class:`CacheError`."""
    if isinstance(key, str):  # a refinement kind
        from .refinements import refined_table
        return refined_table(key, n_max, cells, p)
    return table_from_cells(key, n_max, cells[0], p)


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
    checksum = _checksum(payload)
    if checksum != doc.get("checksum"):
        raise CacheError("cache checksum mismatch")
    return table_from_payload(payload, expect, _prime(checksum))

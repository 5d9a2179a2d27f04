"""Versioned, checksummed JSON caches for computed tables.

A cache file is ``{"checksum": sha256(canonical payload),
"format_version": 4, "payload": {...}}`` dumped with sorted keys and no
whitespace, so each table has exactly one document.  Every payload is
``{"layers": [[[n, m, "<hex>"], ...]], "n_max": "<n>", "table":
descriptor}``: one count table, named by its spec's descriptor, in
exactly one layer of nonzero cells in (n, m) order.  Rank and
cardinality tables are not cached: their commands recompute them.  Cells
are lowercase hex; decimal is only for people.

A run with ``--cache`` fills its table as a run without one would, and a
load checks the file against that table (:func:`spot_check`): the file
is streamed in slices against the document a save would write for it,
hashing the payload as it goes.  Byte equality implies the version, the
checksum and every cell, so a hit parses no JSON and holds no cells,
only the table the run needs anyway.  Only a file that differs is
parsed, to tell another table from a refusal (:func:`load_table`); a
path that is not a regular file is refused unread.

The sha256 is CPython's builtin one (``_sha2`` from 3.12, ``_sha256``
before), so a cached run does not load :mod:`hashlib` and OpenSSL for
one digest.  A save writes the document slice by slice, holding neither
the payload's cells nor its text, and hashes the payload as it writes.
"""

from __future__ import annotations

import json
import os
import stat

from .errors import CacheError, check_regular_file
from .recurrence import CountTable
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
# the document before its payload, around the payload's checksum
_HEAD = b'{"checksum":"'
_VERSION = b'","format_version":%d,"payload":' % FORMAT_VERSION


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(payload) -> str:
    text, digest = _canonical(payload), sha256()
    for i in range(0, len(text), _SLICE):
        digest.update(text[i:i + _SLICE].encode())
    return digest.hexdigest()


def _payload_text(table: CountTable):
    """The payload's canonical text, in slices of at least ``_SLICE``
    characters but the last: the table's nonzero cells [n, m, "<hex>"]
    in (n, m) order as the one layer, its depth and its spec."""
    cols = table.cols
    keys = sorted((n, m) for m, col in enumerate(cols) for n in col)
    text, size = ['{"layers":[['], 0
    for j, (n, m) in enumerate(keys):
        text.append(f'{"," if j else ""}[{n},{m},"{cols[m][n]:x}"]')
        size += len(text[-1])
        if size >= _SLICE:
            yield "".join(text)
            text, size = [], 0
    text.append(f']],"n_max":{_canonical(str(table.n_max))},'
                f'"table":{_canonical(table.spec.descriptor())}}}')
    yield "".join(text)


def spot_check(path, table: CountTable) -> bool:
    """Whether the file at ``path`` is, byte for byte, the document
    :func:`save_table` writes for ``table``.

    The file is read a slice at a time against the payload text as it is
    made, and the payload is hashed as it goes; the checksum leads the
    document, so it is compared last.
    """
    digest = sha256()
    with open(path, "rb") as fh:
        head = fh.read(len(_HEAD) + 2 * digest.digest_size + len(_VERSION))
        if not (head.startswith(_HEAD) and head.endswith(_VERSION)):
            return False
        for piece in _payload_text(table):
            piece = piece.encode()
            digest.update(piece)
            if fh.read(len(piece)) != piece:
                return False
        return (fh.read(2) == b"}" and head[len(_HEAD):-len(_VERSION)]
                == digest.hexdigest().encode())


# -- file interface ----------------------------------------------------------

def save_table(path, table: CountTable) -> None:
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
            fh.write(_HEAD + b"0" * (2 * digest.digest_size) + _VERSION)
            for piece in _payload_text(table):
                piece = piece.encode()
                digest.update(piece)
                fh.write(piece)
            fh.write(b"}")
            fh.seek(len(_HEAD))
            fh.write(digest.hexdigest().encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path, table: CountTable) -> bool:
    """Whether the cache file at ``path`` holds ``table``, the count
    table the run has filled: True when it is the document a save writes
    for it (:func:`spot_check`).

    A path that is not a regular file, such as ``/dev/zero`` or a FIFO,
    raises :class:`CacheError` before any read: it may never end.  Any
    other file is parsed to tell why.  One that holds another spec or
    depth, or a rank or cardinality table that earlier releases cached,
    is False, to be rewritten.  One that is not a v4 document, fails its
    checksum, names no table, or names this one but differs from its
    document anywhere raises :class:`CacheError`.
    """
    check_regular_file(path, CacheError, "cache path")
    if spot_check(path, table):
        return True
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
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
    try:
        if payload["table"] in ("rank", "cardinality"):
            return False
        spec, n_max = (HierarchySpec.from_descriptor(payload["table"]),
                       int(payload["n_max"]))
        if str(n_max) != payload["n_max"]:
            raise ValueError(f"n_max {payload['n_max']!r:.40} is not a "
                             f"decimal string")
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CacheError(f"malformed cache payload: {exc}") from exc
    if (spec, n_max) != (table.spec, table.n_max):
        return False
    raise CacheError("cached table fails recomputation")

"""Shared exception types, and the one check that both file inputs,
``--f file:`` and ``--cache``, make before they read."""

import os
import stat


class ResourceCapError(Exception):
    """A computation was refused because it would exceed a configured cap.

    Carries enough context (offending level index, cap value) to report
    which limit was hit; callers map this to exit code 3.
    """

    def __init__(self, message, *, level=None, cap=None):
        super().__init__(message)
        self.level = level
        self.cap = cap


class BoundFunctionError(ValueError):
    """A bound function is invalid or cannot serve a requested query."""


class CacheError(Exception):
    """A cache file failed validation: its version, checksum or structure,
    or it names the table a run fills but is not that table's document."""


def check_regular_file(path, error, what: str):
    """Raise ``error`` naming ``path`` unless it is a regular file, before
    any read: ``/dev/zero`` never ends, and a FIFO may never end.
    ``O_NONBLOCK`` lets a FIFO with no writer open at once, to be
    refused, where a plain open would block."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
    finally:
        os.close(fd)
    if not stat.S_ISREG(mode):
        raise error(f"{what} {path} is not a regular file")

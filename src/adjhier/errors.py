"""Shared exception types."""


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

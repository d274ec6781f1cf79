"""Exception types shared across the package."""

from __future__ import annotations


class MalformedLine(ValueError):
    """One trace line could not be parsed; parsing continues past it.

    Carries the 1-based line number and a short machine-readable reason
    code (``column-count``, ``bad-int``, ``bad-real``, ``bad-timestamp``,
    ``bad-flag``, ``negative-value``) used to bucket counts in the
    parse report.
    """

    def __init__(self, line_no: int, reason: str, detail: str = ""):
        self.line_no = line_no
        self.reason = reason
        message = f"line {line_no}: {reason}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class IoFailure(RuntimeError):
    """A line source or sink failed mid-operation.

    Unlike MalformedLine this aborts the operation. Partial progress is
    attached: ``partial_report`` when reading, ``rows_written`` when
    writing.
    """

    def __init__(self, cause: BaseException, *, partial_report=None, rows_written=None):
        self.partial_report = partial_report
        self.rows_written = rows_written
        super().__init__(f"I/O failure: {cause}")


class InvalidSpec(ValueError):
    """A generator spec violates its invariants or cannot be read."""


class MalformedSidecar(ValueError):
    """A ground-truth sidecar does not follow the layout write_sidecar uses.

    Carries the 1-based number of the offending line; a sidecar too
    short to hold its two header lines names the first missing one.
    """

    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")

r"""Streaming parsers for line-oriented batch accounting logs.

A log is an ASCII file with one line per job. Two concrete layouts are
supported:

LANL16
    16 positionally-ordered columns: job id, submit/start/end timestamps,
    requested and used processors, requested and used CPU seconds,
    requested and used memory in Kbytes, queue, dedicated flag, user,
    project, executable, exit code. ``#`` starts a comment line. Columns
    are tab-separated and each cell is trimmed of spaces; cells may
    contain spaces (the civil timestamp form does). Lines without any tab
    fall back to whitespace-run splitting, in which case timestamps must
    use the epoch-seconds form. In every column but the first, an empty
    cell or ``-1`` means the value is missing; the job id is taken
    verbatim.

ARCHIVE18
    The public archive's 18-field layout: one line of whitespace-separated
    numeric fields per job, ``;`` starts a header comment, ``-1`` means
    missing, also when written as an integral float (``-1.0``). Fields
    are job number, submit time (epoch seconds), wait time, runtime,
    allocated processors, average used CPU seconds, used memory (Kbytes
    per processor), requested processors, requested time, requested
    memory (Kbytes per processor), status, user, group, executable,
    queue, partition, preceding job, think time. Start time is derived as
    submit + wait and end time as start + runtime; a missing addend makes
    the derived value missing too. Per-processor memory is multiplied by
    the allocated processor count to give a whole-job figure unless
    ``scale_per_proc_memory=False``. There is no ARCHIVE18 writer.

Each format is one column table of (field name, kind, reason code)
entries in column order, after the job id, which is taken verbatim. Each
kind's grammar is an ASCII token, written once for both formats: an
integer (count, flag, exit code, status, category) is ``-?\d+``, which
ARCHIVE18 may also write as an integral float (``4.0``, ``4.``); an
ARCHIVE18 label (user, group, executable, queue) is such an integer kept
as its text; seconds are ``-?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?``; a
timestamp follows :func:`~tracebw.timefmt.parse_timestamp`; a LANL16 text
cell is any text. A count (processors, memory) is at most ``2**63 - 1``
and seconds are finite. A cell that breaks these gives its column's
reason code (``bad-int``, ``bad-real``, ``bad-flag``, ``bad-timestamp``)
and the detail ``name='cell'``; a count or seconds value below zero is
``negative-value``, detail ``name=value``. The first refused cell, in
column order, names the line's reason. So ``1_0``, ``+5``, non-ASCII
digits and a LANL16 cell led by a no-break space are refused, and so are
``1e3``, ``1E3`` and ``.0`` in an ARCHIVE18 integer field; ``-1e0`` in an
ARCHIVE18 seconds field is ``negative-value``, not missing. An ARCHIVE18
time outside the timestamp span is ``bad-real``, blamed on the cell that
moved it there.

Each format converts its cells in one block. A line in the plain form,
as ``tracebw gen`` writes LANL16 and as aligned ARCHIVE18 columns are
written, goes there directly, checked by one compiled pattern built from
the column table. Any other line is checked cell by cell by one function
shared by both formats, which names the first refused cell or rewrites
the cells into plain form for the same block: LANL16 cells trimmed, an
empty one as ``-1``; ARCHIVE18 integers but labels as their integral
part, a missing value as ``-1``. A timestamp that ``parse_timestamp``
refuses on a plain line is named by the same check.

The block ends in the record's 16 field values as a plain tuple in
:class:`JobRecord` field order. :func:`parse_lanl_line` and
:func:`parse_archive_line` return a JobRecord over it; private twins that
share the block return the tuple itself, and neither calls the other.
:class:`TraceStream` runs one loop over the twins, which yields the
tuples: its iteration builds a JobRecord over each, while the CLI reads
the tuples and builds none. A tuple holds what the JobRecord would: its
one check, resource values finite and at least zero, cannot fail on a
parsed line, because the cell check refuses a negative or non-finite
cell first.

Malformed lines are counted and skipped, never fatal; only a failure of
the underlying stream aborts a session (:class:`IoFailure`, carrying the
partial report). A session's format is a :class:`TraceFormat` or its
value (``"lanl"``, ``"archive"``); anything else raises ValueError.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from functools import cache, partial
from itertools import starmap
from math import isfinite
from typing import IO, Callable, Iterable, Iterator

from .errors import IoFailure, MalformedLine
from .model import _MAX_COUNT, MS_PER_S, JobRecord, ParseReport, Timestamp
from .timefmt import format_timestamp, parse_timestamp


class TraceFormat(Enum):
    LANL16 = "lanl"
    ARCHIVE18 = "archive"


# Columns 1-15 in JobRecord field order, as (field name, kind, reason code).
# Column 0, the job id, is taken verbatim; a text cell is never refused.
_LANL_COLUMNS = (
    ("submit_time", "timestamp", "bad-timestamp"),
    ("start_time", "timestamp", "bad-timestamp"),
    ("end_time", "timestamp", "bad-timestamp"),
    ("req_procs", "count", "bad-int"),
    ("used_procs", "count", "bad-int"),
    ("req_cpu_s", "seconds", "bad-real"),
    ("used_cpu_s", "seconds", "bad-real"),
    ("req_mem_kb", "count", "bad-int"),
    ("used_mem_kb", "count", "bad-int"),
    ("queue", "text", ""),
    ("dedicated", "integer", "bad-flag"),
    ("user", "text", ""),
    ("project", "text", ""),
    ("executable", "text", ""),
    ("exit_code", "integer", "bad-int"),
)
LANL_FIELD_COUNT = 1 + len(_LANL_COLUMNS)

# Fields 1-17 as (field name, kind, reason code); field 0, the job number, is
# taken verbatim. Trailing category fields are checked even where unused.
_ARCHIVE_COLUMNS = (
    ("submit", "seconds", "bad-real"),
    ("wait", "seconds", "bad-real"),
    ("runtime", "seconds", "bad-real"),
    ("allocated_procs", "count", "bad-int"),
    ("avg_cpu", "seconds", "bad-real"),
    ("used_mem_kb_per_proc", "count", "bad-int"),
    ("requested_procs", "count", "bad-int"),
    ("requested_time", "seconds", "bad-real"),
    ("requested_mem_kb_per_proc", "count", "bad-int"),
    ("status", "integer", "bad-int"),
    ("user", "label", "bad-int"),
    ("group", "label", "bad-int"),
    ("executable", "label", "bad-int"),
    ("queue", "label", "bad-int"),
    ("partition", "integer", "bad-int"),
    ("preceding_job", "integer", "bad-int"),
    ("think_time", "integer", "bad-int"),
)
ARCHIVE_FIELD_COUNT = 1 + len(_ARCHIVE_COLUMNS)

# The cell grammars of the checked route, as ASCII tokens. Per format, its
# grammar for a missing value, then for an integer, which captures the
# integer's plain form.
_SECONDS = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_LANL_GRAMMAR = (r"-1|", r"(-?\d+)")
_ARCHIVE_GRAMMAR = (r"-0*1(?:\.0*)?", r"(-?\d+)(?:\.0*)?")

# The plain form of a cell, by kind: a count, flag, exit code or ARCHIVE18
# integer is -1 or 1-15 ASCII digits, and a seconds cell may add a decimal
# fraction. Such a token is far below _MAX_COUNT and its only negative is -1,
# so the conversion block needs no check. A text or timestamp cell, and a
# LANL16 job id, is any run without a tab that neither starts nor ends with a
# space: so it is not empty, and the LANL16 split strips nothing from it. Its
# last character is tested by a lookbehind once the run has reached the tab,
# so a cell that passes is scanned once, with no backing off.
_INT_TOKEN = r"(?:-1|\d{1,15})"
_REAL_TOKEN = r"(?:-1|\d{1,15}(?:\.\d*)?)"
_TEXT_TOKEN = r"(?:[^\t ][^\t]*(?<! ))"
_PLAIN_TOKEN = {"count": _INT_TOKEN, "integer": _INT_TOKEN, "label": _INT_TOKEN,
                "seconds": _REAL_TOKEN, "text": _TEXT_TOKEN, "timestamp": _TEXT_TOKEN}

# A plain LANL16 line: single tabs between the job id and the 15 cells, as
# format_lanl_line writes them.
_PLAIN_LANL_PATTERN = _TEXT_TOKEN + "".join("\t" + _PLAIN_TOKEN[kind]
                                            for _, kind, _ in _LANL_COLUMNS)

# A plain ARCHIVE18 line: runs of spaces or tabs separate the fields, as in
# aligned columns. The benchmark generator writes every valid line this way.
_PLAIN_ARCHIVE_PATTERN = (r"[ \t]*\S+"
                          + "".join(r"[ \t]+" + _PLAIN_TOKEN[kind]
                                    for _, kind, _ in _ARCHIVE_COLUMNS)
                          + r"[ \t]*")


def _plain_lanl_line(line: str) -> re.Match | None:
    # Compiling the pattern takes about a millisecond, so it waits for the first
    # LANL16 line. This name is then rebound to the compiled fullmatch, so the
    # check makes no Python call on later lines.
    global _plain_lanl_line
    _plain_lanl_line = re.compile(_PLAIN_LANL_PATTERN, re.ASCII).fullmatch
    return _plain_lanl_line(line)


def _plain_archive_line(line: str) -> re.Match | None:
    # As _plain_lanl_line, on the first ARCHIVE18 line.
    global _plain_archive_line
    _plain_archive_line = re.compile(_PLAIN_ARCHIVE_PATTERN, re.ASCII).fullmatch
    return _plain_archive_line(line)


@cache
def _matchers(missing: str, integer: str) -> dict[str, Callable[[str], re.Match | None]]:
    # A fullmatch per kind, whose group 1 is set on a missing value. Compiled on
    # the first line that needs them, not at import.
    tokens = {"count": integer, "integer": integer, "label": integer,
              "seconds": _SECONDS, "text": r"(?s:.*)", "timestamp": r"(?s:.*)"}
    return {kind: re.compile(f"({missing})|{token}", re.ASCII).fullmatch
            for kind, token in tokens.items()}


def _plain_cells(line_no: int, cells: list[str], columns: tuple,
                 grammar: tuple[str, str]) -> list[str]:
    """Check a line's cells against the kinds in ``columns``, in column order,
    and return them in plain form, or raise MalformedLine for the first one
    refused. ``grammar`` is the format's, for a missing value and an integer."""
    matchers = _matchers(*grammar)
    plain = [cells[0]]
    for (name, kind, reason), token in zip(columns, cells[1:]):
        match = matchers[kind](token)
        cell = token
        value = 0
        try:
            if not match:
                raise ValueError(token)
            if match[1] is not None:
                cell = "-1"
            elif kind == "timestamp":
                # Looked up per cell, as in the conversion block.
                parse_timestamp(token)
            elif kind == "seconds":
                if not isfinite(value := float(token)):
                    raise ValueError(token)
            elif kind != "text":
                # An integer too long for int() is refused here, not raised in the block.
                number = int(match[2])
                if kind == "count":
                    value = number
                    if value > _MAX_COUNT:
                        raise ValueError(token)
                if kind != "label":
                    cell = match[2]
        except ValueError:
            raise MalformedLine(line_no, reason, f"{name}={token!r}") from None
        if value < 0:
            raise MalformedLine(line_no, "negative-value", f"{name}={value}")
        plain.append(cell)
    return plain


def _lanl_parser(name: str, record: bool) -> Callable[[str, int], JobRecord | tuple]:
    # The one LANL16 conversion block, for both entry points below: with
    # ``record`` it ends in a JobRecord over the fields, else it returns them.
    # Each entry point is then one Python frame, so neither pays for the other.
    def parse_lanl_line(line: str, line_no: int = 0) -> JobRecord:
        """Parse one 16-column record line into a JobRecord.

        Raises MalformedLine when the column count is wrong or a cell fails
        to parse; the caller decides whether that ends the session (the
        streaming parser just counts it).
        """
        if _plain_lanl_line(line):
            cells = line.split("\t")
        else:
            # Tabs delimit when present (civil timestamps contain spaces); a line
            # with no tab at all splits on whitespace runs instead.
            cells = [c.strip(" ") for c in line.split("\t")] if "\t" in line else line.split()
            if len(cells) != LANL_FIELD_COUNT:
                raise MalformedLine(line_no, "column-count",
                                    f"expected {LANL_FIELD_COUNT} columns, got {len(cells)}")
            cells = _plain_cells(line_no, cells, _LANL_COLUMNS, _LANL_GRAMMAR)
        # Each cell inline: a Python call per cell would cost more than the rest
        # of the line.
        (job_id, submit, start, end, req_procs, used_procs, req_cpu_s, used_cpu_s,
         req_mem_kb, used_mem_kb, queue, dedicated, user, project, executable,
         exit_code) = cells
        try:
            # parse_timestamp is looked up per cell so that a wrapper installed
            # on this module's attribute (as a tracer does) sees every cell.
            submit = None if submit == "-1" else parse_timestamp(submit)
            start = None if start == "-1" else parse_timestamp(start)
            end = None if end == "-1" else parse_timestamp(end)
        except ValueError:
            # Only on a plain line: the check has parsed every other line's
            # timestamps. It names the refused one.
            _plain_cells(line_no, cells, _LANL_COLUMNS, _LANL_GRAMMAR)
            raise
        fields = (job_id, submit, start, end,
                  None if req_procs == "-1" else int(req_procs),
                  None if used_procs == "-1" else int(used_procs),
                  None if req_cpu_s == "-1" else float(req_cpu_s),
                  None if used_cpu_s == "-1" else float(used_cpu_s),
                  None if req_mem_kb == "-1" else int(req_mem_kb),
                  None if used_mem_kb == "-1" else int(used_mem_kb),
                  None if queue == "-1" else queue,
                  None if dedicated == "-1" else int(dedicated) != 0,
                  None if user == "-1" else user,
                  None if project == "-1" else project,
                  None if executable == "-1" else executable,
                  None if exit_code == "-1" else int(exit_code))
        return JobRecord(*fields) if record else fields

    parse_lanl_line.__name__ = parse_lanl_line.__qualname__ = name
    return parse_lanl_line


def _ms(value_s: float | None) -> Timestamp | None:
    return None if value_s is None else Timestamp(round(value_s * MS_PER_S))


def _whole_job(mem_per_proc: int | None, procs: int | None) -> int | None:
    # A per-processor figure needs the processor count to become a whole-job one.
    return None if mem_per_proc is None or procs is None else mem_per_proc * procs


def _archive_parser(name: str, record: bool) -> Callable[..., JobRecord | tuple]:
    # The one ARCHIVE18 conversion block, as _lanl_parser's for LANL16.
    def parse_archive_line(line: str, line_no: int = 0, *,
                           scale_per_proc_memory: bool = True) -> JobRecord:
        """Parse one 18-field archive record line into a JobRecord."""
        cells = line.split()
        if len(cells) != ARCHIVE_FIELD_COUNT:
            raise MalformedLine(line_no, "column-count",
                                f"expected {ARCHIVE_FIELD_COUNT} fields, got {len(cells)}")
        if not _plain_archive_line(line):
            cells = _plain_cells(line_no, cells, _ARCHIVE_COLUMNS, _ARCHIVE_GRAMMAR)
        # Each cell inline, as for LANL16.
        (_, submit_s, wait_s, runtime_s, alloc_procs, used_cpu_s, used_mem_pp, req_procs,
         req_time_s, req_mem_pp, exit_code, user, group, executable, queue, *_) = cells
        submit_s = None if submit_s == "-1" else float(submit_s)
        wait_s = None if wait_s == "-1" else float(wait_s)
        runtime_s = None if runtime_s == "-1" else float(runtime_s)
        alloc_procs = None if alloc_procs == "-1" else int(alloc_procs)
        used_cpu_s = None if used_cpu_s == "-1" else float(used_cpu_s)
        used_mem_pp = None if used_mem_pp == "-1" else int(used_mem_pp)
        req_procs = None if req_procs == "-1" else int(req_procs)
        req_time_s = None if req_time_s == "-1" else float(req_time_s)
        req_mem_pp = None if req_mem_pp == "-1" else int(req_mem_pp)
        exit_code = None if exit_code == "-1" else int(exit_code)
        user = None if user == "-1" else user
        group = None if group == "-1" else group
        executable = None if executable == "-1" else executable
        queue = None if queue == "-1" else queue

        start_s = None if submit_s is None or wait_s is None else submit_s + wait_s
        end_s = None if start_s is None or runtime_s is None else start_s + runtime_s
        submit = start = None
        try:
            submit = _ms(submit_s)
            start = _ms(start_s)
            end = _ms(end_s)
        except (ValueError, OverflowError) as exc:
            # The cell that moved the time out of the span: submit, wait or runtime.
            failed = (submit is not None) + (start is not None)
            raise MalformedLine(line_no, "bad-real",
                                f"{_ARCHIVE_COLUMNS[failed][0]}={cells[failed + 1]!r}") from exc
        req_mem_kb, used_mem_kb = req_mem_pp, used_mem_pp
        if scale_per_proc_memory:
            req_mem_kb = _whole_job(req_mem_pp, alloc_procs)
            used_mem_kb = _whole_job(used_mem_pp, alloc_procs)

        fields = (cells[0], submit, start, end,
                  req_procs, alloc_procs, req_time_s, used_cpu_s,
                  req_mem_kb, used_mem_kb, queue, None, user, group, executable,
                  exit_code)
        return JobRecord(*fields) if record else fields

    parse_archive_line.__name__ = parse_archive_line.__qualname__ = name
    return parse_archive_line


parse_lanl_line = _lanl_parser("parse_lanl_line", record=True)
parse_archive_line = _archive_parser("parse_archive_line", record=True)
# The private entry points: each returns the 16 field values of the record
# that its public twin returns, as a plain tuple in JobRecord field order.
_lanl_fields = _lanl_parser("_lanl_fields", record=False)
_archive_fields = _archive_parser("_archive_fields", record=False)


_COMMENT_PREFIX = {TraceFormat.LANL16: "#", TraceFormat.ARCHIVE18: ";"}


class TraceStream:
    """Single-pass iterator of JobRecords with a live ParseReport.

    Records come out in input order and are not retained, so peak memory
    is independent of file length. ``report`` is a frozen snapshot of the
    counters so far and is final once iteration ends. A session has one
    consumer; distinct sessions are fully independent.
    """

    def __init__(self, source: Iterable[str] | IO[str], format: TraceFormat | str, *,
                 scale_per_proc_memory: bool = True):
        self.format = format = TraceFormat(format)
        self._total = 0
        self._parsed = 0
        self._reasons: Counter[str] = Counter()
        # The line parser is picked once. A partial that binds a keyword builds
        # a dict on every call, so the default archive parser is called bare.
        if format is TraceFormat.LANL16:
            parse_line = _lanl_fields
        elif scale_per_proc_memory:
            parse_line = _archive_fields
        else:
            parse_line = partial(_archive_fields, scale_per_proc_memory=False)
        # The one loop yields each record's fields as a plain tuple, which the
        # CLI reads as they come. Iteration builds a JobRecord over each, with
        # the class this module's attribute names now, so that a wrapper
        # installed there (as a tracer does) sees every record.
        self._fields = self._run(iter(source), parse_line)
        self._records = starmap(JobRecord, self._fields)

    def __iter__(self) -> Iterator[JobRecord]:
        # The record iterator itself, so a for loop skips __next__.
        return self._records

    def __next__(self) -> JobRecord:
        return next(self._records)

    @property
    def report(self) -> ParseReport:
        return ParseReport(total_lines=self._total, parsed=self._parsed, reasons=self._reasons)

    def _run(self, lines: Iterator[str],
             parse_line: Callable[[str, int], tuple]) -> Iterator[tuple]:
        comment = _COMMENT_PREFIX[self.format]
        reasons = self._reasons
        try:
            # _total is the loop target: when reading line k fails it still holds k - 1.
            for self._total, raw in enumerate(lines, 1):
                line = raw.rstrip("\r\n")
                stripped = line.strip()
                if not stripped or stripped.startswith(comment):
                    continue
                try:
                    fields = parse_line(line, self._total)
                except MalformedLine as exc:
                    reasons[exc.reason] += 1
                    continue
                self._parsed += 1
                yield fields
        except OSError as exc:
            raise IoFailure(exc, partial_report=self.report) from exc


def parse_trace(source: Iterable[str] | IO[str], format: TraceFormat | str, *,
                scale_per_proc_memory: bool = True) -> TraceStream:
    """Stream a log into JobRecords, accumulating a ParseReport.

    ``format`` is a TraceFormat or its value (``"lanl"``, ``"archive"``);
    anything else raises ValueError.
    """
    return TraceStream(source, format, scale_per_proc_memory=scale_per_proc_memory)


def format_lanl_line(record: JobRecord | tuple) -> str:
    """Render a JobRecord as one canonical tab-separated LANL16 line.

    A JobRecord is the tuple of its fields in field order, so ``record``
    may also be a plain tuple of the same 16 values, as ``tracebw gen``
    passes them; both give the same line. Absent values render as ``-1``;
    timestamps render as epoch seconds when second-aligned and in the
    civil form otherwise, so ``parse_lanl_line(format_lanl_line(r))``
    reconstructs ``r``. The format has no escaping: a text field that
    collides with the reserved tokens (``-1``, embedded tabs or newlines,
    surrounding spaces) or an exit code of exactly -1 cannot survive the
    trip and comes back as a different (or absent) value.
    """
    # One unpacking reads every field, and each cell is inline, as
    # parse_lanl_line reads them: a Python call per cell would cost more than
    # the line. format_timestamp is looked up per cell so that a wrapper
    # installed on this module's attribute sees every one. A generated job's
    # used CPU seconds are the same float object as its requested ones, so
    # that cell is formatted once.
    (job_id, submit, start, end, req_procs, used_procs, req_cpu_s, used_cpu_s,
     req_mem_kb, used_mem_kb, queue, dedicated, user, project, executable, exit_code) = record
    req_cpu = "-1" if req_cpu_s is None else repr(float(req_cpu_s))
    return "\t".join((
        job_id,
        "-1" if submit is None else format_timestamp(submit),
        "-1" if start is None else format_timestamp(start),
        "-1" if end is None else format_timestamp(end),
        "-1" if req_procs is None else str(req_procs),
        "-1" if used_procs is None else str(used_procs),
        req_cpu,
        req_cpu if used_cpu_s is req_cpu_s
        else "-1" if used_cpu_s is None else repr(float(used_cpu_s)),
        "-1" if req_mem_kb is None else str(req_mem_kb),
        "-1" if used_mem_kb is None else str(used_mem_kb),
        "-1" if queue is None else queue,
        "-1" if dedicated is None else "1" if dedicated else "0",
        "-1" if user is None else user,
        "-1" if project is None else project,
        "-1" if executable is None else executable,
        "-1" if exit_code is None else str(exit_code),
    ))


def write_lanl_trace(records: Iterable[JobRecord], sink: IO[str]) -> int:
    """Write records as LANL16 lines; returns the number written."""
    written = 0
    for record in records:
        try:
            sink.write(format_lanl_line(record) + "\n")
        except OSError as exc:
            raise IoFailure(exc, rows_written=written) from exc
        written += 1
    return written

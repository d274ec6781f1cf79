"""Streaming parsers for line-oriented batch accounting logs.

A log is an ASCII file with one line per job. Two concrete layouts are
supported:

LANL16
    16 positionally-ordered columns: job id, submit/start/end timestamps,
    requested and used processors, requested and used CPU seconds,
    requested and used memory in Kbytes, queue, dedicated flag, user,
    project, executable, exit code. ``#`` starts a comment line. In every
    column but the first, an empty cell or the token ``-1`` means the
    value is missing (the job id is taken verbatim). Timestamps are
    integer epoch seconds or ``Mon DD YY[ HH:MM:SS[.mmm]]``. Columns are
    tab-separated; cells may contain spaces (the civil timestamp form
    does). Lines without any tab fall back to whitespace-run splitting,
    in which case timestamps must use the epoch-seconds form. A line in
    the plain form, as ``tracebw gen`` writes it, where single tabs
    separate a non-empty job id and 15 cells that neither start nor end
    with a space, and each count, seconds, flag and exit-code cell is
    ``-1`` or 1-15 ASCII digits (a decimal fraction allowed in the two
    seconds cells), is checked by one compiled pattern and converted
    directly. Its timestamp cells go to
    :func:`~tracebw.timefmt.parse_timestamp` as on any other line, and
    one that it refuses sends the line to the column table, which names
    the reason.

ARCHIVE18
    The public archive's 18-field layout: one line of whitespace-separated
    numeric fields per job, ``;`` starts a header comment, ``-1`` means
    missing. Fields are job number, submit time (epoch seconds), wait
    time, runtime, allocated processors, average used CPU seconds, used
    memory (Kbytes per processor), requested processors, requested time,
    requested memory (Kbytes per processor), status, user, group,
    executable, queue, partition, preceding job, think time. Start time
    is derived as submit + wait and end time as start + runtime; a
    missing addend makes the derived value missing too. Per-processor
    memory is multiplied by the allocated processor count to give a
    whole-job figure unless ``scale_per_proc_memory=False``. A line in
    the plain form, where each field is ``-1`` or 1-15 ASCII digits (a
    decimal fraction allowed in the five seconds fields) and runs of
    spaces or tabs separate them, is checked by one compiled pattern and
    converted directly; any other line takes the column table below, and
    both give the same record. There is no ARCHIVE18 writer.

Each format is one column table: a tuple of (field name, converter,
reason code) entries in column order, run by one loop per line not in the
plain form; the format's field count is the table's length plus the
verbatim job id. Both formats' plain-form patterns are built from their
tables and one token grammar per converter, so a token rule is written
once for both. A converter turns a cell into a value; when it raises
ValueError the line is malformed with the entry's reason code and the
detail ``name='cell'``, and when it finds a value below zero in a
non-negative column the reason is ``negative-value`` with the detail
``name=value``.
The first failing column, in column order, names the line's reason.
LANL16 cells that are empty or ``-1`` are absent and skip the converter;
ARCHIVE18 converters read ``-1`` as absent themselves, since ``-1.0`` is
absent too. Timestamp cells follow the grammar in :mod:`tracebw.timefmt`.
Processor and memory counts above ``2**63 - 1`` are ``bad-int``; an ARCHIVE18
time outside the timestamp span is ``bad-real``, blamed on the cell that
moved it there.

Malformed lines are counted and skipped, never fatal; only a failure of
the underlying stream aborts a session (:class:`IoFailure`, carrying the
partial report). A session's format is a :class:`TraceFormat` or its
value (``"lanl"``, ``"archive"``); anything else raises ValueError.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from functools import partial
from math import isfinite
from typing import IO, Callable, Iterable, Iterator

from .errors import IoFailure, MalformedLine
from .model import _MAX_COUNT, MS_PER_S, JobRecord, ParseReport, Timestamp
from .timefmt import format_timestamp, parse_timestamp


class TraceFormat(Enum):
    LANL16 = "lanl"
    ARCHIVE18 = "archive"


_MISSING_TOKENS = ("", "-1")


class _NegativeValue(Exception):
    """Raised by a converter for a value below zero in a non-negative column."""

    def __init__(self, value):
        super().__init__(value)
        self.value = value


def _malformed(line_no: int, column: tuple, cell: str, exc: Exception) -> MalformedLine:
    """The MalformedLine for a cell whose converter raised ``exc``."""
    name, _, reason = column
    if isinstance(exc, _NegativeValue):
        return MalformedLine(line_no, "negative-value", f"{name}={exc.value}")
    return MalformedLine(line_no, reason, f"{name}={cell!r}")


# Converters take one cell and return its value. They raise ValueError when
# the cell does not convert (reported under the column's reason code) and
# _NegativeValue when a non-negative column holds a value below zero.

def _timestamp(cell: str) -> Timestamp:
    # parse_timestamp is looked up per call so that a wrapper installed on
    # this module's attribute (as a tracer does) sees every cell.
    return parse_timestamp(cell)


def _count(cell: str) -> int:
    value = int(cell)
    if value < 0:
        raise _NegativeValue(value)
    if value > _MAX_COUNT:
        raise ValueError(cell)
    return value


def _seconds(cell: str) -> float:
    value = float(cell)
    if not isfinite(value):
        raise ValueError(cell)
    if value < 0:
        raise _NegativeValue(value)
    return value


def _flag(cell: str) -> bool:
    return int(cell) != 0


def _split_lanl(line: str) -> list[str]:
    # Tabs delimit when present (civil timestamps contain spaces); a line
    # with no tab at all splits on whitespace runs instead.
    if "\t" in line:
        cells = line.split("\t")
        # A cell has a space to strip only where one touches a tab or a line end.
        if " \t" in line or "\t " in line or line[:1] == " " or line[-1:] == " ":
            return [cell.strip(" ") for cell in cells]
        return cells
    return line.split()


# Columns 1-15 in JobRecord field order, as (field name, converter, reason
# code). Column 0, the job id, is taken verbatim; in every other column an
# empty cell or "-1" is absent and skips the converter.
_LANL_COLUMNS = (
    ("submit_time", _timestamp, "bad-timestamp"),
    ("start_time", _timestamp, "bad-timestamp"),
    ("end_time", _timestamp, "bad-timestamp"),
    ("req_procs", _count, "bad-int"),
    ("used_procs", _count, "bad-int"),
    ("req_cpu_s", _seconds, "bad-real"),
    ("used_cpu_s", _seconds, "bad-real"),
    ("req_mem_kb", _count, "bad-int"),
    ("used_mem_kb", _count, "bad-int"),
    ("queue", str, ""),
    ("dedicated", _flag, "bad-flag"),
    ("user", str, ""),
    ("project", str, ""),
    ("executable", str, ""),
    ("exit_code", int, "bad-int"),
)
LANL_FIELD_COUNT = 1 + len(_LANL_COLUMNS)


def _swf_int(cell: str) -> int | None:
    # Integral floats such as "4.0" are accepted; -1 is absent.
    try:
        value = int(cell)
    except ValueError:
        real = float(cell)
        if not real.is_integer():
            raise
        value = int(real)
    return None if value == -1 else value


def _swf_amount(cell: str) -> int | None:
    value = _swf_int(cell)
    if value is not None:
        if value < 0:
            raise _NegativeValue(value)
        if value > _MAX_COUNT:
            raise ValueError(cell)
    return value


def _swf_label(cell: str) -> str | None:
    # A category number, kept as its text.
    return None if _swf_int(cell) is None else cell


def _swf_seconds(cell: str) -> float | None:
    value = float(cell)
    if value == -1:
        return None
    if not isfinite(value):
        raise ValueError(cell)
    if value < 0:
        raise _NegativeValue(value)
    return value


# Fields 1-17 as (field name, converter, reason code); field 0, the job
# number, is taken verbatim. Trailing category fields are validated even
# where unused.
_ARCHIVE_COLUMNS = (
    ("submit", _swf_seconds, "bad-real"),
    ("wait", _swf_seconds, "bad-real"),
    ("runtime", _swf_seconds, "bad-real"),
    ("allocated_procs", _swf_amount, "bad-int"),
    ("avg_cpu", _swf_seconds, "bad-real"),
    ("used_mem_kb_per_proc", _swf_amount, "bad-int"),
    ("requested_procs", _swf_amount, "bad-int"),
    ("requested_time", _swf_seconds, "bad-real"),
    ("requested_mem_kb_per_proc", _swf_amount, "bad-int"),
    ("status", _swf_int, "bad-int"),
    ("user", _swf_label, "bad-int"),
    ("group", _swf_label, "bad-int"),
    ("executable", _swf_label, "bad-int"),
    ("queue", _swf_label, "bad-int"),
    ("partition", _swf_int, "bad-int"),
    ("preceding_job", _swf_int, "bad-int"),
    ("think_time", _swf_int, "bad-int"),
)
ARCHIVE_FIELD_COUNT = 1 + len(_ARCHIVE_COLUMNS)

# The plain form of a cell, by converter: a count, flag or exit code is -1 or
# 1-15 ASCII digits, and a seconds cell may add a decimal fraction. Such a
# token is far below _MAX_COUNT and its only negative is -1, so each converter
# returns what its first int or float call gives, with -1 absent. A text or
# timestamp cell, and a LANL16 job id, is any run without a tab that neither
# starts nor ends with a space: so it is not empty, and the LANL16 split strips
# nothing from it. parse_timestamp is a timestamp cell's grammar on both routes.
_INT_TOKEN = r"(?:-1|\d{1,15})"
_REAL_TOKEN = r"(?:-1|\d{1,15}(?:\.\d*)?)"
_TEXT_TOKEN = r"(?:[^\t ](?:[^\t]*[^\t ])?)"
_PLAIN_TOKEN = {
    _count: _INT_TOKEN,
    _flag: _INT_TOKEN,
    int: _INT_TOKEN,
    _swf_amount: _INT_TOKEN,
    _swf_int: _INT_TOKEN,
    _swf_label: _INT_TOKEN,
    _seconds: _REAL_TOKEN,
    _swf_seconds: _REAL_TOKEN,
    str: _TEXT_TOKEN,
    _timestamp: _TEXT_TOKEN,
}

# A plain LANL16 line: single tabs between the job id and the 15 cells, as
# format_lanl_line writes them.
_PLAIN_LANL_PATTERN = _TEXT_TOKEN + "".join("\t" + _PLAIN_TOKEN[convert]
                                            for _, convert, _ in _LANL_COLUMNS)

# A plain ARCHIVE18 line: runs of spaces or tabs separate the fields, as in
# aligned columns. The benchmark generator writes every valid line this way.
_PLAIN_ARCHIVE_PATTERN = (r"[ \t]*\S+"
                          + "".join(r"[ \t]+" + _PLAIN_TOKEN[convert]
                                    for _, convert, _ in _ARCHIVE_COLUMNS)
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


def parse_lanl_line(line: str, line_no: int = 0) -> JobRecord:
    """Parse one 16-column record line into a JobRecord.

    Raises MalformedLine when the column count is wrong or a cell fails
    to parse; the caller decides whether that ends the session (the
    streaming parser just counts it).
    """
    if _plain_lanl_line(line):
        # What the table's converters would return, computed inline, as for
        # ARCHIVE18. Only a timestamp cell can fail here, and then the table
        # below names the reason.
        (job_id, submit, start, end, req_procs, used_procs, req_cpu_s, used_cpu_s,
         req_mem_kb, used_mem_kb, queue, dedicated, user, project, executable,
         exit_code) = line.split("\t")
        try:
            # parse_timestamp is looked up per cell so that a wrapper installed
            # on this module's attribute (as a tracer does) sees every cell.
            submit = None if submit == "-1" else parse_timestamp(submit)
            start = None if start == "-1" else parse_timestamp(start)
            end = None if end == "-1" else parse_timestamp(end)
        except ValueError:
            pass
        else:
            return JobRecord(job_id, submit, start, end,
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
    cells = _split_lanl(line)
    if len(cells) != LANL_FIELD_COUNT:
        raise MalformedLine(line_no, "column-count",
                            f"expected {LANL_FIELD_COUNT} columns, got {len(cells)}")
    values = [cells[0]]
    append = values.append
    try:
        for (_, convert, _), cell in zip(_LANL_COLUMNS, cells[1:]):
            append(None if cell in _MISSING_TOKENS else convert(cell))
    except (ValueError, _NegativeValue) as exc:
        failed = len(values)
        raise _malformed(line_no, _LANL_COLUMNS[failed - 1], cells[failed], exc) from exc
    return JobRecord(*values)


def _ms(value_s: float | None) -> Timestamp | None:
    return None if value_s is None else Timestamp(round(value_s * MS_PER_S))


def _whole_job(mem_per_proc: int | None, procs: int | None) -> int | None:
    # A per-processor figure needs the processor count to become a whole-job one.
    return None if mem_per_proc is None or procs is None else mem_per_proc * procs


def parse_archive_line(line: str, line_no: int = 0, *,
                       scale_per_proc_memory: bool = True) -> JobRecord:
    """Parse one 18-field archive record line into a JobRecord."""
    cells = line.split()
    if len(cells) != ARCHIVE_FIELD_COUNT:
        raise MalformedLine(line_no, "column-count",
                            f"expected {ARCHIVE_FIELD_COUNT} fields, got {len(cells)}")
    if _plain_archive_line(line):
        # What the table's converters would return, computed inline: a Python
        # call per cell would cost more than the rest of the line.
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
    else:
        values = []
        append = values.append
        try:
            for (_, convert, _), cell in zip(_ARCHIVE_COLUMNS, cells[1:]):
                append(convert(cell))
        except (ValueError, _NegativeValue) as exc:
            failed = len(values)
            raise _malformed(line_no, _ARCHIVE_COLUMNS[failed], cells[failed + 1], exc) from exc
        (submit_s, wait_s, runtime_s, alloc_procs, used_cpu_s, used_mem_pp, req_procs,
         req_time_s, req_mem_pp, exit_code, user, group, executable, queue) = values[:14]

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
        raise _malformed(line_no, _ARCHIVE_COLUMNS[failed], cells[failed + 1], exc) from exc
    req_mem_kb, used_mem_kb = req_mem_pp, used_mem_pp
    if scale_per_proc_memory:
        req_mem_kb = _whole_job(req_mem_pp, alloc_procs)
        used_mem_kb = _whole_job(used_mem_pp, alloc_procs)

    # Positional, in JobRecord field order: keywords cost a visible share here.
    return JobRecord(cells[0], submit, start, end,
                     req_procs, alloc_procs, req_time_s, used_cpu_s,
                     req_mem_kb, used_mem_kb, queue, None, user, group, executable,
                     exit_code)


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
            parse_line = parse_lanl_line
        elif scale_per_proc_memory:
            parse_line = parse_archive_line
        else:
            parse_line = partial(parse_archive_line, scale_per_proc_memory=False)
        self._records = self._run(iter(source), parse_line)

    def __iter__(self) -> Iterator[JobRecord]:
        # The record generator itself, so a for loop skips __next__.
        return self._records

    def __next__(self) -> JobRecord:
        return next(self._records)

    @property
    def report(self) -> ParseReport:
        return ParseReport(total_lines=self._total, parsed=self._parsed, reasons=self._reasons)

    def _run(self, lines: Iterator[str],
             parse_line: Callable[[str, int], JobRecord]) -> Iterator[JobRecord]:
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
                    record = parse_line(line, self._total)
                except MalformedLine as exc:
                    reasons[exc.reason] += 1
                    continue
                self._parsed += 1
                yield record
        except OSError as exc:
            raise IoFailure(exc, partial_report=self.report) from exc


def parse_trace(source: Iterable[str] | IO[str], format: TraceFormat | str, *,
                scale_per_proc_memory: bool = True) -> TraceStream:
    """Stream a log into JobRecords, accumulating a ParseReport.

    ``format`` is a TraceFormat or its value (``"lanl"``, ``"archive"``);
    anything else raises ValueError.
    """
    return TraceStream(source, format, scale_per_proc_memory=scale_per_proc_memory)


# Cell writers for format_lanl_line: an absent value is written as "-1".

def _opt_ts(ts: Timestamp | None) -> str:
    # format_timestamp is looked up per call, as parse_timestamp is above.
    return "-1" if ts is None else format_timestamp(ts)


def _opt_int(value: int | None) -> str:
    return "-1" if value is None else str(value)


def _opt_real(value: float | None) -> str:
    return "-1" if value is None else repr(float(value))


def _opt_text(value: str | None) -> str:
    return "-1" if value is None else value


def _opt_flag(value: bool | None) -> str:
    return "-1" if value is None else ("1" if value else "0")


def format_lanl_line(record: JobRecord) -> str:
    """Render a JobRecord as one canonical tab-separated LANL16 line.

    Absent values render as ``-1``; timestamps render as epoch seconds
    when second-aligned and in the civil form otherwise, so
    ``parse_lanl_line(format_lanl_line(r))`` reconstructs ``r``. The
    format has no escaping: a text field that collides with the reserved
    tokens (``-1``, embedded tabs or newlines, surrounding spaces) or an
    exit code of exactly -1 cannot survive the trip and comes back as a
    different (or absent) value.
    """
    return "\t".join((
        record.job_id,
        _opt_ts(record.submit_time),
        _opt_ts(record.start_time),
        _opt_ts(record.end_time),
        _opt_int(record.req_procs),
        _opt_int(record.used_procs),
        _opt_real(record.req_cpu_s),
        _opt_real(record.used_cpu_s),
        _opt_int(record.req_mem_kb),
        _opt_int(record.used_mem_kb),
        _opt_text(record.queue),
        _opt_flag(record.dedicated),
        _opt_text(record.user),
        _opt_text(record.project),
        _opt_text(record.executable),
        _opt_int(record.exit_code),
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

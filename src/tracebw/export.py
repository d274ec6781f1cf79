"""Summaries and worksheet/CSV output for rate samples.

The worksheet mirrors the four-column layout such logs are usually eyed
in: day-granularity start and end dates, the estimated rate in
Mbytes/second, and the raw trace value the byte count came from. That
last column keeps the trace's own Kbyte denomination (the byte count is
Kbytes * 1024, so the cell is n_bytes / 1024). No worksheet cell can
hold a comma, a quote or a line break, so each row is written as one
string with no CSV quoting. The full CSV is the engineering artifact:
every field at full fidelity, floats in repr form so they re-parse
bit-exactly. Each of its rows is one string too; its one free-text cell,
the job id, is quoted in place by the RFC 4180 rule, so ``csv`` is never
loaded.

A RateSample is the tuple of its fields in field order, so the writers and
:func:`summarize` read each sample with one tuple unpacking or index: they
take RateSamples or plain tuples of the same 7 values, as the CLI passes
them.
"""

from __future__ import annotations

import math
from typing import IO, Iterable, Sequence

from .bandwidth import BYTES_PER_KB, MbBase
from .errors import IoFailure
from .model import RateFlag, RateSample, TraceSummary
from .timefmt import format_day

WORKSHEET_HEADER = "Start date,End date,Mbytes,Bytes"
CSV_HEADER = "job_id,start_ms,end_ms,duration_ms,n_bytes,rate_bytes_per_s,rate_out,flags"

_FLAG_ORDER = (RateFlag.NEGATIVE_DURATION, RateFlag.CARRIED_FORWARD_START)


# format_sig(value): the shortest decimal rendering within 7 significant
# digits. A bound str.format, so the worksheet pays no Python frame per cell.
format_sig = "{:.7g}".format


def summarize(samples: Iterable[RateSample | tuple], base: MbBase | int) -> TraceSummary:
    """Aggregate statistics over the defined rates, in the output unit.

    Median is the lower of the two middles for even counts; p95 is the
    nearest-rank percentile. Undefined (zero-duration) samples only bump
    ``n_undefined``. Order of the input never matters. ``base`` is an
    MbBase or its divisor; anything else raises ValueError.
    """
    return _finish((_tally(samples, base),))


def _tally(samples: Iterable[RateSample | tuple],
           base: MbBase | int) -> tuple[list[float], int, int]:
    """The defined rates in the output unit, and the counts of undefined and
    negative ones: all that :func:`_finish` needs of the samples."""
    divisor = MbBase(base).divisor
    defined: list[float] = []
    n_undefined = 0
    n_negative = 0
    for sample in samples:
        rate_bps = sample[5]  # rate_bytes_per_s
        if rate_bps is None:
            n_undefined += 1
            continue
        value = rate_bps / divisor
        defined.append(value)
        if value < 0:
            n_negative += 1
    return defined, n_undefined, n_negative


def _finish(tallies: Sequence[tuple[list[float], int, int]]) -> TraceSummary:
    """The summary of the samples of one or more tallies, taken together.

    The first tally's list gathers every defined rate and is sorted in
    place; the others are emptied.
    """
    defined, n_undefined, n_negative = tallies[0]
    for more, undefined, negative in tallies[1:]:
        defined += more
        more.clear()  # its rates live on in defined
        n_undefined += undefined
        n_negative += negative
    if not defined:
        return TraceSummary(n_rates=0, n_negative=0, n_undefined=n_undefined)
    defined.sort()
    n = len(defined)
    return TraceSummary(
        n_rates=n,
        n_negative=n_negative,
        n_undefined=n_undefined,
        min=defined[0],
        max=defined[-1],
        mean=math.fsum(defined) / n,
        median=defined[(n - 1) // 2],
        p95=defined[(95 * n + 99) // 100 - 1],
    )


def write_worksheet(samples: Iterable[RateSample | tuple], base: MbBase | int,
                    sink: IO[str]) -> int:
    """Write the worksheet; returns the number of data rows.

    One row per sample, in order. Undefined rates leave the Mbytes cell
    empty so a spreadsheet cannot silently aggregate them; negative rates
    are printed as-is. ``base`` is an MbBase or its divisor; anything else
    raises ValueError before the header is written.

    Each row is one ``sink.write`` of one string. No cell ever needs CSV
    quoting: the dates are ``Mon DD YY``, and the numbers are integers or
    :func:`format_sig` renderings (digits, ``-``, ``.``, ``e`` and ``+``),
    so none holds a comma, a quote or a line break.
    """
    divisor = MbBase(base).divisor
    write = sink.write
    rows = 0
    try:
        write(WORKSHEET_HEADER + "\n")
        for _, start, end, n_bytes, _, rate_bps, _ in samples:
            mbytes = "" if rate_bps is None else format_sig(rate_bps / divisor)
            kbytes = (n_bytes // BYTES_PER_KB if n_bytes % BYTES_PER_KB == 0
                      else format_sig(n_bytes / BYTES_PER_KB))
            write(f"{format_day(start)},{format_day(end)},{mbytes},{kbytes}\n")
            rows += 1
    except OSError as exc:
        raise IoFailure(exc, rows_written=rows) from exc
    return rows


def write_csv(samples: Iterable[RateSample | tuple], base: MbBase | int, sink: IO[str]) -> int:
    """Write the full-fidelity CSV; returns the number of data rows.

    Numeric fields use repr, so re-parsing recovers them bit-exactly.
    ``base`` is an MbBase or its divisor; anything else raises ValueError
    before the header is written.

    Each row is one ``sink.write`` of one string. The job id is the only
    free-text cell: the others are integers, float reprs, empty or
    ``|``-joined flag names, none of which needs quoting. A job id that is
    not a ``str`` is written as ``str(job_id)``, ``None`` as an empty cell.
    An id holding a comma, a quote, ``\n`` or ``\r`` is double-quoted with
    its quotes doubled (RFC 4180), so ``csv.reader`` reads each row back
    as one row.
    """
    divisor = MbBase(base).divisor
    write = sink.write
    flag_cells: dict[frozenset, str] = {}  # samples share a few flag sets
    rows = 0
    try:
        write(CSV_HEADER + "\n")
        for job_id, start, end, n_bytes, duration, rate_bps, flags in samples:
            flag_cell = flag_cells.get(flags)
            if flag_cell is None:
                flag_cell = flag_cells[flags] = "|".join(
                    flag.name for flag in _FLAG_ORDER if flag in flags)
            if rate_bps is None:
                rate_cell = out_cell = ""
            else:
                rate_cell = repr(rate_bps)
                out_cell = repr(rate_bps / divisor)
            if type(job_id) is not str:
                job_id = "" if job_id is None else str(job_id)
            if "," in job_id or '"' in job_id or "\n" in job_id or "\r" in job_id:
                job_id = '"' + job_id.replace('"', '""') + '"'
            write(f"{job_id},{start.epoch_ms},{end.epoch_ms},"
                  f"{duration},{n_bytes},{rate_cell},{out_cell},{flag_cell}\n")
            rows += 1
    except OSError as exc:
        raise IoFailure(exc, rows_written=rows) from exc
    return rows

"""Summaries and worksheet/CSV output for rate samples.

The worksheet mirrors the four-column layout such logs are usually eyed
in: day-granularity start and end dates, the estimated rate in
Mbytes/second, and the raw trace value the byte count came from. That
last column keeps the trace's own Kbyte denomination (the byte count is
Kbytes * 1024, so the cell is n_bytes / 1024). The full CSV is the
engineering artifact: every field at full fidelity, floats in repr form
so they re-parse bit-exactly.
"""

from __future__ import annotations

import csv
import math
from typing import IO, Iterable

from .bandwidth import BYTES_PER_KB, MbBase
from .errors import IoFailure
from .model import RateFlag, RateSample, TraceSummary
from .timefmt import format_day

WORKSHEET_HEADER = "Start date,End date,Mbytes,Bytes"
CSV_HEADER = "job_id,start_ms,end_ms,duration_ms,n_bytes,rate_bytes_per_s,rate_out,flags"

_FLAG_ORDER = (RateFlag.NEGATIVE_DURATION, RateFlag.CARRIED_FORWARD_START)


def format_sig(value: float) -> str:
    """Shortest decimal rendering within 7 significant digits."""
    return f"{value:.7g}"


def summarize(samples: Iterable[RateSample], base: MbBase | int) -> TraceSummary:
    """Aggregate statistics over the defined rates, in the output unit.

    Median is the lower of the two middles for even counts; p95 is the
    nearest-rank percentile. Undefined (zero-duration) samples only bump
    ``n_undefined``. Order of the input never matters. ``base`` is an
    MbBase or its divisor; anything else raises ValueError.
    """
    divisor = MbBase(base).divisor
    defined: list[float] = []
    n_undefined = 0
    n_negative = 0
    for sample in samples:
        if sample.rate_bytes_per_s is None:
            n_undefined += 1
            continue
        value = sample.rate_bytes_per_s / divisor
        defined.append(value)
        if value < 0:
            n_negative += 1
    if not defined:
        return TraceSummary(n_rates=0, n_negative=0, n_undefined=n_undefined)
    values = sorted(defined)
    n = len(values)
    return TraceSummary(
        n_rates=n,
        n_negative=n_negative,
        n_undefined=n_undefined,
        min=values[0],
        max=values[-1],
        mean=math.fsum(values) / n,
        median=values[(n - 1) // 2],
        p95=values[(95 * n + 99) // 100 - 1],
    )


def _kbytes_cell(n_bytes: int) -> str:
    whole, remainder = divmod(n_bytes, BYTES_PER_KB)
    return str(whole) if remainder == 0 else format_sig(n_bytes / BYTES_PER_KB)


def write_worksheet(samples: Iterable[RateSample], base: MbBase | int, sink: IO[str]) -> int:
    """Write the worksheet; returns the number of data rows.

    One row per sample, in order. Undefined rates leave the Mbytes cell
    empty so a spreadsheet cannot silently aggregate them; negative rates
    are printed as-is. ``base`` is an MbBase or its divisor; anything else
    raises ValueError before the header is written.
    """
    divisor = MbBase(base).divisor
    writer = csv.writer(sink, lineterminator="\n")
    rows = 0
    try:
        writer.writerow(WORKSHEET_HEADER.split(","))
        for sample in samples:
            if sample.rate_bytes_per_s is None:
                mbytes = ""
            else:
                mbytes = format_sig(sample.rate_bytes_per_s / divisor)
            writer.writerow([
                format_day(sample.start),
                format_day(sample.end),
                mbytes,
                _kbytes_cell(sample.n_bytes),
            ])
            rows += 1
    except OSError as exc:
        raise IoFailure(exc, rows_written=rows) from exc
    return rows


def write_csv(samples: Iterable[RateSample], base: MbBase | int, sink: IO[str]) -> int:
    """Write the full-fidelity CSV; returns the number of data rows.

    Fields containing a comma, quote, or newline are double-quoted with
    embedded quotes doubled (the usual CSV rule). Numeric fields use
    repr, so re-parsing recovers them bit-exactly. ``base`` is an MbBase
    or its divisor; anything else raises ValueError before the header is
    written.
    """
    divisor = MbBase(base).divisor
    writer = csv.writer(sink, lineterminator="\n")
    flag_cells: dict[frozenset, str] = {}  # samples share a few flag sets
    rows = 0
    try:
        writer.writerow(CSV_HEADER.split(","))
        for sample in samples:
            rate_bps = sample.rate_bytes_per_s
            flags = sample.flags
            flag_cell = flag_cells.get(flags)
            if flag_cell is None:
                flag_cell = flag_cells[flags] = "|".join(
                    flag.name for flag in _FLAG_ORDER if flag in flags)
            writer.writerow([
                sample.job_id,
                sample.start.epoch_ms,
                sample.end.epoch_ms,
                sample.duration_ms,
                sample.n_bytes,
                "" if rate_bps is None else repr(rate_bps),
                "" if rate_bps is None else repr(rate_bps / divisor),
                flag_cell,
            ])
            rows += 1
    except OSError as exc:
        raise IoFailure(exc, rows_written=rows) from exc
    return rows

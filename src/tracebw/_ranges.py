"""Reading one regular file in byte ranges, every range but the first in a
forked worker process (see :mod:`tracebw._fork`).

The CLI plans the ranges with :func:`line_starts` and runs them with
:func:`run_ranges`, handing over the command as a parser and a pipeline.
It loads this module only for a file of at least twice its range floor,
so a run on a smaller file, a pipe or standard input never compiles or
imports it.

A worker reads its range with ``os.pread`` on the descriptor the parent
opened, so the file offset that forked processes share is never used. The
rows it writes follow the parent's own in range order.
"""

from __future__ import annotations

import io
import os
from functools import partial
from itertools import chain, islice
from stat import S_ISREG
from typing import IO, Callable

from ._fork import forked, usable_cpus
from .model import JobRecord
from .parsing import TraceStream

# The functions below take the command as two functions that the CLI binds:
# parse(lines) -> a TraceStream, and run(records, sink) -> (valid, tally), its
# pipeline after parsing.

_NEWLINE_PROBE = 8192  # bytes read at a time when looking for a range boundary


def line_starts(fd: int, n: int | None, floor: int) -> list[int]:
    """The byte offsets where ``n`` ranges of about equal size start.

    By default ``n`` is the number of usable CPUs, but no more than one
    range per ``floor`` bytes. Only a regular file on a host that can fork
    is split; otherwise, and for ``n`` below 2, this returns ``[0]``. Range
    k starts just past the first ``\\n`` byte at or after byte
    ``k * size // n - 1``, so no line, ``\\r\\n`` pair or UTF-8 sequence is
    split. A range that would be empty is dropped.
    """
    status = os.fstat(fd)
    if not S_ISREG(status.st_mode) or not hasattr(os, "fork"):
        return [0]
    size = status.st_size
    if n is None:
        n = min(usable_cpus(), size // floor)
    starts = [0]
    for k in range(1, n):
        position = max(k * size // n - 1, starts[-1])
        while position < size:
            chunk = os.pread(fd, _NEWLINE_PROBE, position)
            newline = chunk.find(b"\n")
            if newline >= 0:
                position += newline + 1
                break
            position += len(chunk)
        if position < size:
            starts.append(position)
    return starts


class _ByteRange(io.RawIOBase):
    """Bytes ``start`` to ``end`` of a file descriptor, or to its end when
    ``end`` is None, read with ``os.pread``."""

    def __init__(self, fd: int, start: int, end: int | None):
        super().__init__()
        self._fd, self._position, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def read(self, size: int = -1) -> bytes:
        if size < 0:
            return self.readall()
        if self._end is not None:
            size = min(size, self._end - self._position)
        data = os.pread(self._fd, size, self._position)
        self._position += len(data)
        return data


def _range_text(fd: int, start: int, end: int | None) -> IO[str]:
    # Decoded as the CLI decodes a whole file.
    return io.TextIOWrapper(_ByteRange(fd, start, end), encoding="utf-8", errors="replace")


def _read_range(parse: Callable[..., TraceStream], run: Callable[..., tuple], fd: int,
                start: int, end: int | None, sink: IO[str] | None = None) -> tuple:
    """Parse bytes ``start`` to ``end`` of the file open on ``fd`` and run the
    command over its records.

    Returns plain data, ``(valid, tally, parsed, malformed)``: run's result,
    then the counts of the range's own lines. The lines after the range are
    read only up to the first record, whose sample this range yields,
    because only this range knows the end time that carry-forward would
    give it. In a range after the first, the first record, the range's own
    or else that one, serves only to seed that end time.
    """
    stream = parse(_range_text(fd, start, end))
    following = () if end is None else _range_text(fd, end, None)
    records = chain(stream, islice(parse(following), 1))
    if start:
        first = next(records, None)
        if first is not None:  # a start-less record: it yields no sample
            records = chain((JobRecord(first.job_id, end_time=first.end_time),), records)
    return (*run(records, sink), stream.report.parsed, stream.report.malformed)


def run_ranges(parse: Callable[..., TraceStream], run: Callable[..., tuple], fd: int,
               starts: list[int], out: IO[str] | None) -> list[tuple]:
    """Run the command over each range of the file open on ``fd``; return the
    results of :func:`_read_range` in range order.

    ``starts`` holds the byte offsets where the ranges start, the first at
    0, each later one just past a ``\\n`` byte. The first range runs here,
    each other one in a forked worker. ``out`` is given for commands that
    write rows: the first range writes its rows there, and each worker's
    rows, header line excepted, follow them in range order.
    """
    tasks = [(partial(_read_range, parse, run, fd, start, end),
              f"reading from byte {start} to {'the end' if end is None else f'byte {end}'}")
             for start, end in zip(starts[1:], [*starts[2:], None])]
    with forked(tasks, 0 if out is None else 1) as workers:
        results = [_read_range(parse, run, fd, 0, starts[1], out)]
        for worker in workers:
            results.append(worker.result())
            if out is not None:
                worker.append(0, out, header=True)
        return results

"""Reading one regular file in byte ranges, every range but the first in a
forked worker process.

The CLI plans the ranges with :func:`line_starts` and runs them with
:func:`run_ranges`, handing over the command as a parser and a pipeline.
It loads this module only for a file of at least twice its range floor,
so a run on a smaller file, a pipe or standard input never compiles or
imports it.

A worker reads its range with ``os.pread`` on the descriptor the parent
opened, so the file offset that forked processes share is never used.
It leaves only through ``os._exit``, and it never touches standard
output, standard error or the command's output file. Its result comes
back through a pipe as ``marshal`` data, and the rows it writes through
an unnamed temporary file as UTF-8, which the parent appends to the
output in range order, encoded as the output encodes its own rows. A
worker that fails makes the run fail with an
:class:`~tracebw.errors.IoFailure` that names the cause. However the
parent's run ends, every worker is killed if it still runs, and reaped.
"""

from __future__ import annotations

import io
import marshal
import os
import shutil
import tempfile
from contextlib import suppress
from itertools import chain, islice
from stat import S_ISREG
from typing import IO, Callable, Iterable

from .errors import IoFailure
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
    if n is None:
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        n = min(cpus, status.st_size // floor)
    size = status.st_size
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


def _run_range(parse: Callable[..., TraceStream], run: Callable[..., tuple],
               lines: Iterable[str], following: Iterable[str], seeded: bool,
               sink: IO[str] | None) -> tuple:
    """Parse one range's lines and run the command over its records.

    Returns plain data, ``(valid, tally, parsed, malformed)``: run's result,
    then the counts of the range's own lines. ``following`` holds the lines
    after the range: they are read only up to the first record, whose
    sample this range yields, because only this range knows the end time
    that carry-forward would give it. With ``seeded``, the first record,
    the range's own or else that one, serves only to seed that end time.
    """
    stream = parse(lines)
    records = chain(stream, islice(parse(following), 1))
    if seeded:
        first = next(records, None)
        if first is not None:  # a start-less record: it yields no sample
            records = chain((JobRecord(first.job_id, end_time=first.end_time),), records)
    return (*run(records, sink), stream.report.parsed, stream.report.malformed)


class _Worker:
    """A forked process that runs the pipeline over bytes ``start`` to ``end``
    of the input, seeded. With ``writes_rows``, the rows it writes, header
    included, go to ``rows`` as UTF-8."""

    def __init__(self, parse: Callable[..., TraceStream], run: Callable[..., tuple], fd: int,
                 start: int, end: int | None, writes_rows: bool):
        self.start, self.end = start, end
        self.rows = tempfile.TemporaryFile() if writes_rows else None
        self.pid = None
        self._pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(write_end)
            self.close()
            raise
        if self.pid == 0:
            self._work(parse, run, fd, write_end)
        os.close(write_end)

    def _work(self, parse: Callable[..., TraceStream], run: Callable[..., tuple], fd: int,
              write_end: int) -> None:
        # Leaves only through os._exit, so nothing that the parent set up to
        # run on unwinding or at exit runs here.
        code = 1
        try:
            try:
                os.close(self._pipe)  # so that a write the parent will not read fails
                sink = None if self.rows is None else io.TextIOWrapper(self.rows, "utf-8",
                                                                       newline="")
                following = () if self.end is None else _range_text(fd, self.end, None)
                result = _run_range(parse, run, _range_text(fd, self.start, self.end),
                                    following, True, sink)
                if sink is not None:
                    sink.flush()
                code = 0
            except BaseException as exc:
                result = f"{type(exc).__name__}: {exc}"
            with open(write_end, "wb") as pipe:
                marshal.dump(result, pipe)
        finally:
            os._exit(code)

    def result(self) -> tuple:
        """Wait for the worker and return its result; raise IoFailure if it failed."""
        with open(self._pipe, "rb") as pipe:
            self._pipe = None
            try:
                result = marshal.load(pipe)
            except (EOFError, ValueError, TypeError):
                result = None
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if type(result) is not tuple:
            if result is None:
                code = os.waitstatus_to_exitcode(status)
                result = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            end = "the end" if self.end is None else f"byte {self.end}"
            raise IoFailure(RuntimeError(
                f"the worker reading from byte {self.start} to {end} failed: {result}"))
        return result

    def append_rows(self, out: IO[str]) -> None:
        """Append the worker's rows to ``out``, less the header line its writer wrote."""
        self.rows.seek(0)
        with io.TextIOWrapper(self.rows, "utf-8", newline="") as rows:
            rows.readline()
            # In chunks of the buffers' own size: copyfileobj's 64 KiB default
            # holds about 300 KiB of copies at once, which raised the parent's
            # peak RSS by about 0.17 MB.
            shutil.copyfileobj(rows, out, io.DEFAULT_BUFFER_SIZE)

    def close(self) -> None:
        """Kill and reap the worker if it still runs; release its pipe and file."""
        if self.pid:
            from signal import SIGKILL  # only a failed or interrupted run gets here

            with suppress(ProcessLookupError):
                os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self.rows is not None:
            self.rows.close()


def run_ranges(parse: Callable[..., TraceStream], run: Callable[..., tuple], fd: int,
               starts: list[int], out: IO[str] | None) -> list[tuple]:
    """Run the command over each range of the file open on ``fd``; return the
    results of :func:`_run_range` in range order.

    ``starts`` holds the byte offsets where the ranges start, the first at
    0, each later one just past a ``\\n`` byte. The first range runs here,
    each other one in a forked worker. ``out`` is given for commands that
    write rows: the first range writes its rows there, and each worker's
    rows follow them in range order.
    """
    workers: list[_Worker] = []
    try:
        for start, end in zip(starts[1:], [*starts[2:], None]):
            workers.append(_Worker(parse, run, fd, start, end, out is not None))
        results = [_run_range(parse, run, _range_text(fd, 0, starts[1]),
                              _range_text(fd, starts[1], None), False, out)]
        for worker in workers:
            results.append(worker.result())
            if out is not None:
                worker.append_rows(out)
        return results
    finally:
        for worker in workers:
            worker.close()

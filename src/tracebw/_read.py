"""Running ``inspect``, ``rates`` and ``summary``: parse → rates → writer
or summarize, over each byte range of the input, each record and sample
passed on as the plain tuple of its fields, with no JobRecord or
RateSample built.

The CLI loads this module only for those three commands, so ``gen`` never
compiles or imports it. :func:`_read_range` is every range's pipeline and
:func:`_text` decodes every input. :func:`_plan_ranges` splits a regular
file of at least twice ``_RANGE_FLOOR`` bytes into one range per usable
CPU by :func:`tracebw._fork.plan`, each start moved past a newline by
:func:`line_starts`. The first range runs in this process and each other
one in a forked worker, by :func:`tracebw._fork.fan_out`; only such a file
loads that module. Each range after the first is read with ``os.pread``
on the descriptor the parent opened, so the file offset that forked
processes share is never used, and the rows it writes follow the rows
before it in range order.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from functools import partial
from itertools import chain, count, islice
from operator import itemgetter
from stat import S_ISREG
from typing import IO, Callable, Iterable, Iterator

from .bandwidth import MbBase, _rates
from .cli import _open_output
from .export import _finish, _tally, write_csv, write_worksheet
from .model import TraceSummary
from .parsing import TraceStream, parse_trace


def _text(raw: IO[bytes]) -> IO[str]:
    """The text of ``raw``, a path's, standard input's or a byte range's
    bytes: UTF-8, each bad byte read as U+FFFD."""
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


@contextmanager
def _open_input(path: str) -> Iterator[IO[str]]:
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text-only stream, as when stdin is replaced in process
            yield sys.stdin
            return
        # Decode the bytes as a file path's are: standard input's own
        # decoder keeps bad bytes as surrogates that no UTF-8 output can hold.
        wrapper = _text(buffer)
        try:
            yield wrapper
        finally:
            wrapper.detach()  # leave standard input open
    else:
        with _text(open(path, "rb")) as handle:
            yield handle


def _write_report(parsed: int, malformed: int, valid: int, out: IO[str]) -> None:
    out.write(f"total={parsed + malformed}\nparsed={parsed}\nvalid={valid}\n"
              f"omitted={parsed - valid}\nmalformed={malformed}\n")


def _write_summary(summary: TraceSummary, out: IO[str]) -> None:
    for field in fields(summary):
        value = getattr(summary, field.name)
        out.write(f"{field.name}={'' if value is None else repr(value)}\n")


_RANGE_FLOOR = 1 << 20  # bytes of input that a range holds at least
_NEWLINE_PROBE = 8192  # bytes read at a time when looking for a range boundary


def _plan_ranges(fd: int) -> list[int]:
    """The byte offsets where the ranges of the input open on ``fd`` start:
    ``[0]`` for one range.

    Only a regular file is split: into one range per usable CPU but at
    least ``_RANGE_FLOOR`` bytes each, as :func:`tracebw._fork.plan`
    splits, each start then moved past a newline by :func:`line_starts`. A
    file under twice the floor is one range, loading no :mod:`tracebw._fork`.
    """
    status = os.fstat(fd)
    if not S_ISREG(status.st_mode) or status.st_size < 2 * _RANGE_FLOOR:
        return [0]
    from ._fork import plan

    return line_starts(fd, plan(status.st_size, _RANGE_FLOOR))


def line_starts(fd: int, offsets: list[int]) -> list[int]:
    """The byte offsets where the ranges of the file open on ``fd`` start,
    given ``offsets``, the first 0, where ranges of about equal size would.

    Each later range starts just past the first ``\\n`` byte at or after
    both byte ``offset - 1`` and the start before it, so no line,
    ``\\r\\n`` pair or UTF-8 sequence is split. A range that would be empty
    is dropped.
    """
    starts = [0]
    for offset in offsets[1:]:
        position = max(offset - 1, starts[-1])
        while chunk := os.pread(fd, _NEWLINE_PROBE, position):
            newline = chunk.find(b"\n")
            if newline >= 0:
                position += newline + 1
                if os.pread(fd, 1, position):
                    starts.append(position)
                break
            position += len(chunk)
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


def _read_bytes(read: Callable[..., tuple], fd: int, start: int, end: int | None,
                sink: IO[str] | None = None) -> tuple:
    """Run ``read``, the per-range pipeline, over bytes ``start`` to ``end``
    of the file open on ``fd``, or to its end when ``end`` is None."""
    following = () if end is None else _text(_ByteRange(fd, end, None))
    return read(_text(_ByteRange(fd, start, end)), following, start > 0, sink)


def _read_range(parse: Callable[..., TraceStream], run: Callable[..., tuple],
                text: Iterable[str], following: Iterable[str], seed: bool,
                sink: IO[str] | None = None) -> tuple:
    """Parse ``text``, one range of the input, with ``parse(lines)`` and run
    ``run(records, sink)``, the command's pipeline after parsing, over it.

    Returns plain data, ``(valid, tally, parsed, malformed)``: run's result,
    then the counts of the range's own lines. ``following``, the lines after
    the range, is read only up to the first record, whose sample this range
    yields, because only this range knows the end time that carry-forward
    would give it. With ``seed``, as in a range after the first, the first
    record, the range's own or else that one, serves only to seed that end
    time. A read in one range passes ``following=()`` and ``seed=False``.
    """
    stream = parse(text)
    records = chain(stream._fields, islice(parse(following)._fields, 1))
    if seed:
        first = next(records, None)
        if first is not None:  # its job id and end time, and no start: it yields no sample
            records = chain(((first[0], None, None, first[3]) + (None,) * 12,), records)
    return (*run(records, sink), stream.report.parsed, stream.report.malformed)


def _run_pipeline(args: argparse.Namespace, records: Iterable[tuple],
                  sink: IO[str] | None) -> tuple:
    """Run the command over parsed records, each the plain tuple of a
    JobRecord's fields; return the number of samples and, for ``summary``
    only, summarize's tally. Rows of ``rates`` go to ``sink``."""
    # zip pulls a sample before a count, so once the samples are drained
    # the counter's next value is their number, with no Python call per sample.
    counter = count()
    samples = map(itemgetter(0), zip(
        _rates(records, args.memory, args.carry_forward), counter))
    tally = None
    if args.command == "inspect":
        for _ in samples:
            pass
    else:
        if args.drop_negative:
            # By index, with no Enum hash: a sample's NEGATIVE_DURATION flag
            # is set exactly when its duration_ms, item 4, is below zero.
            samples = (s for s in samples if s[4] >= 0)
        mb = MbBase[args.mb.upper()]
        if args.command == "summary":
            tally = _tally(samples, mb)
        elif args.full:
            write_csv(samples, mb, sink)
        else:
            write_worksheet(samples, mb, sink)
    return next(counter), tally


def _run_trace_command(args: argparse.Namespace) -> int:
    parse = partial(parse_trace, format=args.format,
                    scale_per_proc_memory=args.per_proc_memory == "scaled")
    read = partial(_read_range, parse, partial(_run_pipeline, args))
    with _open_input(args.trace) as source, \
            _open_output(args.out) if args.command == "rates" else nullcontext() as out:
        starts = [0] if args.trace == "-" else _plan_ranges(source.fileno())
        if len(starts) > 1:
            from ._fork import fan_out

            # Each worker's rows follow the rows before them, less its header line.
            fd = source.fileno()
            results = fan_out(
                [(partial(_read_bytes, read, fd, start, end),
                  f"reading from byte {start} to {'the end' if end is None else f'byte {end}'}")
                 for start, end in zip(starts, [*starts[1:], None])],
                [] if out is None else [out], header=True)
        else:
            results = [read(source, (), False, out)]
    # Each result is (valid, tally, parsed, malformed) of one range.
    valid, tallies, parsed, malformed = zip(*results)
    counts = map(sum, (parsed, malformed, valid))
    if args.command == "inspect":
        with _open_output(args.out) as out:
            _write_report(*counts, out)
        return 0
    if args.command == "summary":
        with _open_output(args.out) as out:
            _write_summary(_finish(tallies), out)
    _write_report(*counts, sys.stderr)
    return 0

"""Running ``inspect``, ``rates`` and ``summary``: parse → iter_rates →
writer or summarize, over each byte range of the input.

The CLI loads this module only for those three commands, so ``gen`` never
compiles or imports it. A regular file of at least twice ``_RANGE_FLOOR``
bytes is split into one range per usable CPU (see :mod:`tracebw._ranges`,
which only such a file loads); every other input is read in one range in
this process.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields
from functools import partial
from itertools import count
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .bandwidth import MbBase, iter_rates
from .cli import _open_output
from .export import _finish, _tally, write_csv, write_worksheet
from .model import JobRecord, RateFlag, TraceSummary
from .parsing import parse_trace


@contextmanager
def _open_input(path: str) -> Iterator[IO[str]]:
    if path == "-":
        buffer = getattr(sys.stdin, "buffer", None)
        if buffer is None:  # a text-only stream, as when stdin is replaced in process
            yield sys.stdin
            return
        # Decode the bytes as a file path's are: standard input's own
        # decoder keeps bad bytes as surrogates that no UTF-8 output can hold.
        wrapper = io.TextIOWrapper(buffer, encoding="utf-8", errors="replace")
        try:
            yield wrapper
        finally:
            wrapper.detach()  # leave standard input open
    else:
        with open(path, encoding="utf-8", errors="replace") as handle:
            yield handle


def _write_report(parsed: int, malformed: int, valid: int, out: IO[str]) -> None:
    out.write(f"total={parsed + malformed}\nparsed={parsed}\nvalid={valid}\n"
              f"omitted={parsed - valid}\nmalformed={malformed}\n")


def _write_summary(summary: TraceSummary, out: IO[str]) -> None:
    for field in fields(summary):
        value = getattr(summary, field.name)
        out.write(f"{field.name}={'' if value is None else repr(value)}\n")


_RANGE_FLOOR = 1 << 20  # bytes of input that a range holds at least


def _plan_ranges(fd: int, n: int | None = None) -> list[int]:
    """The byte offsets where the ranges of the input open on ``fd`` start:
    ``[0]`` for one range.

    ``n`` ranges are asked for, by default one per usable CPU but no more
    than one per ``_RANGE_FLOOR`` bytes (see
    :func:`tracebw._ranges.line_starts`). A file under twice that is read in
    one range without loading that module.
    """
    if n is None and os.fstat(fd).st_size < 2 * _RANGE_FLOOR:
        return [0]
    from ._ranges import line_starts

    return line_starts(fd, n, _RANGE_FLOOR)


def _run_pipeline(args: argparse.Namespace, records: Iterable[JobRecord],
                  sink: IO[str] | None) -> tuple:
    """Run the command over parsed records; return the number of samples and,
    for ``summary`` only, summarize's tally. Rows of ``rates`` go to ``sink``."""
    # zip pulls a sample before a count, so once the samples are drained
    # the counter's next value is their number, with no Python call per sample.
    counter = count()
    samples = map(itemgetter(0), zip(
        iter_rates(records, args.memory, args.carry_forward), counter))
    tally = None
    if args.command == "inspect":
        for _ in samples:
            pass
    else:
        if args.drop_negative:
            samples = (s for s in samples if RateFlag.NEGATIVE_DURATION not in s.flags)
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
    run = partial(_run_pipeline, args)
    with _open_input(args.trace) as source, \
            _open_output(args.out) if args.command == "rates" else nullcontext() as out:
        starts = [0] if args.trace == "-" else _plan_ranges(source.fileno())
        if len(starts) > 1:
            from ._ranges import run_ranges

            results = run_ranges(parse, run, source.fileno(), starts, out)
        else:
            stream = parse(source)
            results = [(*run(stream, out), stream.report.parsed, stream.report.malformed)]
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

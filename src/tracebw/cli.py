"""Command-line front door: parse, partition, estimate, export.

Four subcommands: ``inspect`` reports line/record accounting, ``rates``
writes the per-job worksheet (or the full CSV with ``--full``),
``summary`` prints aggregate statistics, and ``gen`` synthesizes a
fixture trace plus its ground-truth sidecar in constant memory. Data
goes to standard output or ``--out``; diagnostics always go to standard
error. An
``--out`` file is written under a temporary name beside it and moved
into place only when the command succeeds, so a failed run leaves an
existing file untouched and a trace can be rewritten in place. Exit
status is 0 on success, 1 on I/O failure, 2 on invalid flags or
generator specs, and 141 (128 + SIGPIPE, as a shell reports a filter
killed by SIGPIPE) when the reader of the output goes away early, as
with ``| head``; that last case writes no error message.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import sys
import tempfile
from contextlib import contextmanager, suppress
from itertools import count
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .bandwidth import MbBase, MemorySource, iter_rates
from .errors import InvalidSpec, IoFailure
from .export import summarize, write_csv, write_worksheet
from .model import JobRecord, ParseReport, RateFlag, RateSample, TraceSummary
from .parsing import TraceFormat, parse_trace, write_lanl_trace
from .synth import format_sidecar_header, format_sidecar_line, iter_jobs, load_genspec

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracebw",
        description="Per-job bandwidth estimation from batch accounting traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    reader = argparse.ArgumentParser(add_help=False)
    reader.add_argument("trace", help="input trace path, or - for standard input")
    reader.add_argument("--format", choices=[f.value for f in TraceFormat],
                        default="lanl", help="input line format (default: lanl)")
    reader.add_argument("--memory", choices=[m.value for m in MemorySource],
                        default="requested",
                        help="memory field supplying the byte count (default: requested)")
    reader.add_argument("--carry-forward", action="store_true",
                        help="fill a missing start time from the previous record's end "
                             "(lanl format only: an archive record with no start has no "
                             "end either, so the flag changes nothing there)")
    reader.add_argument("--per-proc-memory", choices=["scaled", "raw"], default="scaled",
                        help="archive format only: scale per-processor memory by "
                             "allocated processors, or take it raw (default: scaled)")
    reader.add_argument("--out", default=None, metavar="PATH",
                        help="output path (default: standard output)")

    rated = argparse.ArgumentParser(add_help=False)
    rated.add_argument("--mb", choices=[b.name.lower() for b in MbBase], default="binary",
                       help="Mbyte convention for output rates (default: binary)")
    rated.add_argument("--drop-negative", action="store_true",
                       help="exclude negative-duration samples")

    sub.add_parser("inspect", parents=[reader],
                   help="parse only; report total/parsed/valid/omitted/malformed counts")
    p_rates = sub.add_parser("rates", parents=[reader, rated],
                             help="write the per-job bandwidth worksheet")
    p_rates.add_argument("--full", action="store_true",
                         help="write the full-fidelity CSV instead of the worksheet")
    sub.add_parser("summary", parents=[reader, rated],
                   help="print aggregate statistics over the estimated rates")

    p_gen = sub.add_parser("gen", help="generate a synthetic trace plus ground-truth sidecar")
    p_gen.add_argument("genspec", help="key=value generator spec file")
    p_gen.add_argument("--out", required=True, metavar="PATH", help="trace output path")
    p_gen.add_argument("--truth", default=None, metavar="PATH",
                       help="sidecar output path (default: PATH.truth)")
    return parser


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


@contextmanager
def _open_output(path: str | None) -> Iterator[IO[str]]:
    if path is None or path == "-":
        yield sys.stdout
        # A closed pipe must surface here, not in the flush at interpreter exit.
        sys.stdout.flush()
    elif os.path.exists(path) and not os.path.isfile(path):
        # A device or FIFO cannot be replaced; write to it directly.
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle
    else:
        with _replaced_on_success(path) as handle:
            yield handle


@contextmanager
def _replaced_on_success(path: str) -> Iterator[IO[str]]:
    """Write a new file beside ``path`` and move it over ``path`` only on success."""
    target = os.path.realpath(path)  # through a symlink, replace what it points at
    directory, name = os.path.split(target)
    while True:
        temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            # Not mkstemp: its 0600 mode would become the output's mode.
            handle = open(temp, "x", encoding="utf-8", newline="")
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            yield handle
        os.replace(temp, target)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def _write_report(report: ParseReport, valid: int, out: IO[str]) -> None:
    out.write(f"total={report.record_lines}\n")
    out.write(f"parsed={report.parsed}\n")
    out.write(f"valid={valid}\n")
    out.write(f"omitted={report.parsed - valid}\n")
    out.write(f"malformed={report.malformed}\n")


def _write_summary(summary: TraceSummary, out: IO[str]) -> None:
    out.write(f"n_rates={summary.n_rates}\n")
    out.write(f"n_negative={summary.n_negative}\n")
    out.write(f"n_undefined={summary.n_undefined}\n")
    for name in ("min", "max", "mean", "median", "p95"):
        value = getattr(summary, name)
        out.write(f"{name}={'' if value is None else repr(value)}\n")


def _run_trace_command(args: argparse.Namespace) -> int:
    with _open_input(args.trace) as source:
        stream = parse_trace(source, TraceFormat(args.format),
                             scale_per_proc_memory=args.per_proc_memory == "scaled")
        # zip pulls a sample before a count, so once the samples are drained
        # the counter's next value is their number, with no Python call per sample.
        counter = count()
        samples = map(itemgetter(0), zip(
            iter_rates(stream, MemorySource(args.memory), args.carry_forward), counter))

        if args.command == "inspect":
            for _ in samples:
                pass
            with _open_output(args.out) as out:
                _write_report(stream.report, next(counter), out)
            return 0

        kept: Iterable[RateSample] = samples
        if args.drop_negative:
            kept = (s for s in samples if RateFlag.NEGATIVE_DURATION not in s.flags)

        mb = MbBase[args.mb.upper()]
        if args.command == "rates":
            with _open_output(args.out) as out:
                if args.full:
                    write_csv(kept, mb, out)
                else:
                    write_worksheet(kept, mb, out)
        else:
            summary = summarize(kept, mb)
            with _open_output(args.out) as out:
                _write_summary(summary, out)
        _write_report(stream.report, next(counter), sys.stderr)
    return 0


def _run_gen(args: argparse.Namespace) -> int:
    with open(args.genspec, encoding="utf-8") as handle:
        spec = load_genspec(handle)
    valid = 0

    def records(spool: IO[str]) -> Iterator[JobRecord]:
        # Each job goes to the trace as it is drawn; valid jobs' sidecar
        # lines wait in the spool until the header counts are known.
        nonlocal valid
        for record, rate in iter_jobs(spec):
            if rate is not None:
                spool.write(format_sidecar_line(record.job_id, rate))
                valid += 1
            yield record

    # Both files move into place only once both are written.
    with _open_output(args.out) as out, _open_output(args.truth) as side, \
            tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        write_lanl_trace(records(spool), out)
        side.write(format_sidecar_header(valid, spec.count - valid))
        spool.seek(0)
        shutil.copyfileobj(spool, side)
    sys.stderr.write(f"count={spec.count}\n")
    sys.stderr.write(f"expected_valid={valid}\n")
    sys.stderr.write(f"expected_omitted={spec.count - valid}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen":
        if args.out == "-":
            parser.error("gen writes two files; --out must be a real path")
        args.truth = args.truth or args.out + ".truth"
        if os.path.realpath(args.out) == os.path.realpath(args.truth):
            parser.error("gen writes two files; --out and --truth name the same file")
    try:
        if args.command == "gen":
            return _run_gen(args)
        return _run_trace_command(args)
    except InvalidSpec as exc:
        sys.stderr.write(f"tracebw: error: {exc}\n")
        return 2
    except (IoFailure, OSError) as exc:
        if isinstance(exc, BrokenPipeError) or isinstance(exc.__cause__, BrokenPipeError):
            _discard_stdout()
            return EXIT_BROKEN_PIPE
        sys.stderr.write(f"tracebw: error: {exc}\n")
        return 1


def _discard_stdout() -> None:
    """Send what is left in the stdout buffer to the null device.

    Python flushes standard output at exit; after the reader has gone,
    that flush would fail again and print a warning.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # not backed by a file descriptor, so nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())

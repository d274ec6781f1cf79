"""Command-line front door: parse, partition, estimate, export.

Four subcommands: ``inspect`` reports line/record accounting, ``rates``
writes the per-job worksheet (or the full CSV with ``--full``),
``summary`` prints aggregate statistics, and ``gen`` synthesizes a
fixture trace plus its ground-truth sidecar in constant memory. Data
goes to standard output or ``--out``; diagnostics always go to standard
error. An ``--out`` file is written under a temporary name beside it and
moved into place only when the command succeeds, so a failed run leaves
an existing file untouched and a trace can be rewritten in place. Exit
status is 0 on success, 1 on I/O failure (an output codec that cannot
encode a job id included), 2 on invalid flags or generator specs, and
141 (128 + SIGPIPE, as a shell reports a filter killed by SIGPIPE) when
the reader of the output goes away early, as with ``| head``; that last
case writes no error message.

``inspect``, ``rates`` and ``summary`` run one pipeline, parse →
``tracebw.bandwidth._rates`` → writer or summarize,
``tracebw._read._read_range``, over each byte range of the input. Only
these three commands load :mod:`tracebw._read`. A regular file of at least
twice ``tracebw._read._RANGE_FLOOR`` bytes is split into one range per
usable CPU by :func:`tracebw._fork.plan`, each range starting just past a
newline byte; the first range runs in this process and each other one in
a forked worker (see :func:`tracebw._fork.fan_out`, whose module only a
split run loads). The rows, counts and statistics are merged
in range order, so every output byte equals that of a read in one range.
Standard input, a FIFO and a smaller file are one range. ``gen`` writes
its jobs in job ranges split by the same rule, once there are at least
twice ``tracebw._gen._JOB_FLOOR`` of them (see :mod:`tracebw._gen`); this
module only opens its two files.

:func:`main` runs one command and may be called in process any number of
times; it never freezes or disables the cyclic garbage collector. The
process entry point, ``python -m tracebw`` or the ``tracebw`` script,
does that first (see :mod:`tracebw.__main__`). ``python -m tracebw.cli``
runs that entry point too. It still imports :mod:`tracebw.cli` a second
time: ``-m`` runs this file as the module ``__main__``, a module apart from
:mod:`tracebw.cli`, and the entry point and :mod:`tracebw._read` import
the package's own.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress
from typing import IO, Iterator

from .bandwidth import MbBase, MemorySource
from .errors import InvalidSpec, IoFailure
from .parsing import TraceFormat

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


def _run_gen(args: argparse.Namespace) -> int:
    # Only gen loads the generator and its writer, with the sidecar spool's
    # tempfile and shutil; neither loads fractions or decimal.
    from ._gen import write_gen
    from .synth import load_genspec

    with open(args.genspec, encoding="utf-8") as handle:
        spec = load_genspec(handle)
    # Both files move into place only once both are written.
    with _open_output(args.out) as out, _open_output(args.truth) as side:
        header = write_gen(spec, out, side)
    sys.stderr.write(f"count={spec.count}\n{header}")
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
        from ._read import _run_trace_command

        return _run_trace_command(args)
    except InvalidSpec as exc:
        sys.stderr.write(f"tracebw: error: {exc}\n")
        return 2
    except (IoFailure, OSError, UnicodeEncodeError) as exc:
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
    from .__main__ import entry

    sys.exit(entry())

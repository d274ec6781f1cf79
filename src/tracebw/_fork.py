"""Running the pieces of one command at once, every piece but the first in
a forked worker process.

:func:`plan` is the one rule that splits a run into pieces of about equal
size: ``gen``'s job ranges (see :mod:`tracebw._gen`) and, once each start
is moved past a newline, the byte ranges of ``inspect``, ``rates`` and
``summary`` (see :mod:`tracebw._read`). :func:`fan_out` is the one way
they run: the first piece in this process, each other one in a worker,
the results gathered in piece order. Only a run large enough to split
loads this module, so a smaller one never compiles or imports it; it
imports neither command's module.

A worker leaves only through ``os._exit``, and it never touches standard
output, standard error or the command's output files. Everything it
returns goes to unnamed temporary files, its spools: the text it writes as
UTF-8, and its result, once it has one, as ``marshal`` data. Once it has
exited, the parent reads its result and appends its text to its outputs
in piece order, encoded as each output encodes its own text. A worker that
fails makes the run fail with an :class:`~tracebw.errors.IoFailure` that
names the cause, or, for a spec the generator refused, with that
:class:`~tracebw.errors.InvalidSpec`. However the parent's run ends, every
worker is killed if it still runs, and reaped.
"""

from __future__ import annotations

import io
import marshal
import os
import shutil
import tempfile
from contextlib import suppress
from typing import IO, Callable

from .errors import InvalidSpec, IoFailure


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def plan(total: int, floor: int) -> list[int]:
    """Where the pieces of about equal size of ``total`` units start:
    ``[0]`` for one piece, and on a host that cannot fork.

    There are ``n`` pieces, one per usable CPU but no more than one per
    ``floor`` units. Piece k starts at ``k * total // n``; a piece that
    would be empty is dropped.
    """
    if not hasattr(os, "fork"):
        return [0]
    n = min(usable_cpus(), total // floor)
    return sorted({k * total // n for k in range(n)}) or [0]


class _Worker:
    """A forked process that runs ``task`` over its piece, as
    ``task(*spools)``: each spool an unnamed temporary file, written as
    UTF-8 text. One more spool holds its report, the task's result or
    failure. ``what`` says what the worker does, for its failure."""

    def __init__(self, task: Callable, spools: int, what: str):
        self.what, self.pid, self.spools = what, None, []
        try:
            for _ in range(spools + 1):
                self.spools.append(tempfile.TemporaryFile())
            self.pid = os.fork()
        except BaseException:
            self.close()
            raise
        if self.pid == 0:
            self._work(task)

    def _work(self, task: Callable) -> None:
        # Leaves only through os._exit, so nothing that the parent set up to
        # run on unwinding or at exit runs here. The report, in the last
        # spool, is (error, value): error is "" and value the task's result,
        # or they are the name and text of the exception that ended it.
        code = 1
        try:
            *spools, report_spool = self.spools
            try:
                sinks = [io.TextIOWrapper(spool, "utf-8", newline="") for spool in spools]
                value = task(*sinks)
                for sink in sinks:
                    sink.flush()
                report, code = ("", value), 0
            except BaseException as exc:
                report = (type(exc).__name__, str(exc))
            marshal.dump(report, report_spool)
            report_spool.flush()
        finally:
            os._exit(code)

    def collect(self, outs: list[IO[str]], header: bool):
        """Wait for the worker and return its task's result, once what it
        wrote to each spool is appended to the matching output in ``outs``;
        with ``header``, less the first line. Raise the task's InvalidSpec
        as itself, and any other failure as IoFailure."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        *spools, report_spool = self.spools
        report_spool.seek(0)
        try:
            error, value = marshal.load(report_spool)
        except (EOFError, ValueError, TypeError):
            error = None  # it reported nothing, or was cut off mid-report
        if error == InvalidSpec.__name__:
            raise InvalidSpec(value)
        if error != "":
            code = os.waitstatus_to_exitcode(status)
            cause = (f"{error}: {value}" if error is not None
                     else f"killed by signal {-code}" if code < 0 else f"exit status {code}")
            raise IoFailure(RuntimeError(f"the worker {self.what} failed: {cause}"))
        for spool, out in zip(spools, outs):
            spool.seek(0)
            with io.TextIOWrapper(spool, "utf-8", newline="") as text:
                if header:
                    text.readline()
                # In chunks of the buffers' own size: copyfileobj's 64 KiB
                # default holds about 300 KiB of copies at once, which raised
                # the parent's peak RSS by about 0.17 MB.
                shutil.copyfileobj(text, out, io.DEFAULT_BUFFER_SIZE)
        return value

    def close(self) -> None:
        """Kill and reap the worker if it still runs; release its files."""
        if self.pid:
            from signal import SIGKILL  # only a failed or interrupted run gets here

            with suppress(ProcessLookupError):
                os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for spool in self.spools:
            spool.close()


def fan_out(tasks: list[tuple[Callable, str]], outs: list[IO[str]],
            header: bool = False) -> list:
    """Run each ``(task, what)`` pair's task over its piece, as
    ``task(*sinks)``; return the results in piece order.

    The first task runs in this process, its sinks ``outs``. Each other one
    runs in a forked worker, its sinks one spool per output, and ``what``
    says what it does, for its failure. The workers are collected one at a
    time in piece order, so the lowest failing piece is the one raised:
    once a worker has exited, its result is read and what it wrote to each
    spool is appended to the matching output; with ``header``, less the
    first line. However the run ends, each worker still running is killed,
    and every one is reaped.
    """
    workers: list[_Worker] = []
    try:
        for task, what in tasks[1:]:
            workers.append(_Worker(task, len(outs), what))
        first = tasks[0][0](*outs)
        return [first, *(worker.collect(outs, header) for worker in workers)]
    finally:
        for worker in workers:
            worker.close()

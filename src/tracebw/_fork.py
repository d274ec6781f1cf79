"""Running the pieces of one command at once, every piece but the first in
a forked worker process.

A worker runs one callable over its piece: ``inspect``, ``rates`` and
``summary`` pass byte ranges of the input (see :mod:`tracebw._ranges`), and
``gen`` passes job ranges (see :mod:`tracebw._gen`). Only a run large
enough to split loads this module, so a smaller one never compiles or
imports it.

A worker leaves only through ``os._exit``, and it never touches standard
output, standard error or the command's output files. Its result comes
back through a pipe as ``marshal`` data, and the text it writes goes to
unnamed temporary files as UTF-8, which the parent appends to its outputs
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
from contextlib import contextmanager, suppress
from typing import IO, Callable, Iterator

from .errors import InvalidSpec, IoFailure


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


class _Worker:
    """A forked process that runs ``task`` over its piece, as
    ``task(*spools)``: each spool an unnamed temporary file, written as
    UTF-8 text. ``what`` says what the worker does, for its failure."""

    def __init__(self, task: Callable, spools: int, what: str):
        self.what = what
        self.spools = [tempfile.TemporaryFile() for _ in range(spools)]
        self.pid = None
        self._pipe, write_end = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(write_end)
            self.close()
            raise
        if self.pid == 0:
            self._work(task, write_end)
        os.close(write_end)

    def _work(self, task: Callable, write_end: int) -> None:
        # Leaves only through os._exit, so nothing that the parent set up to
        # run on unwinding or at exit runs here. The report is (error, value):
        # error is "" and value the task's result, or they are the name and
        # text of the exception that ended it.
        code = 1
        try:
            try:
                os.close(self._pipe)  # so that a write the parent will not read fails
                sinks = [io.TextIOWrapper(spool, "utf-8", newline="") for spool in self.spools]
                value = task(*sinks)
                for sink in sinks:
                    sink.flush()
                report, code = ("", value), 0
            except BaseException as exc:
                report = (type(exc).__name__, str(exc))
            with open(write_end, "wb") as pipe:
                marshal.dump(report, pipe)
        finally:
            os._exit(code)

    def result(self):
        """Wait for the worker and return its task's result. Raise the task's
        InvalidSpec as itself, and any other failure as IoFailure."""
        with open(self._pipe, "rb") as pipe:
            self._pipe = None
            try:
                error, value = marshal.load(pipe)
            except (EOFError, ValueError, TypeError):
                error = None  # it reported nothing
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if error == "":
            return value
        if error == InvalidSpec.__name__:
            raise InvalidSpec(value)
        if error is None:
            code = os.waitstatus_to_exitcode(status)
            cause = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        else:
            cause = f"{error}: {value}"
        raise IoFailure(RuntimeError(f"the worker {self.what} failed: {cause}"))

    def append(self, spool: int, out: IO[str], header: bool = False) -> None:
        """Append what the worker wrote to spool number ``spool`` to ``out``;
        with ``header``, less the first line."""
        self.spools[spool].seek(0)
        with io.TextIOWrapper(self.spools[spool], "utf-8", newline="") as text:
            if header:
                text.readline()
            # In chunks of the buffers' own size: copyfileobj's 64 KiB default
            # holds about 300 KiB of copies at once, which raised the parent's
            # peak RSS by about 0.17 MB.
            shutil.copyfileobj(text, out, io.DEFAULT_BUFFER_SIZE)

    def close(self) -> None:
        """Kill and reap the worker if it still runs; release its pipe and files."""
        if self.pid:
            from signal import SIGKILL  # only a failed or interrupted run gets here

            with suppress(ProcessLookupError):
                os.kill(self.pid, SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        for spool in self.spools:
            spool.close()


@contextmanager
def forked(tasks: list[tuple[Callable, str]], spools: int) -> Iterator[list[_Worker]]:
    """Fork one worker for each ``(task, what)`` pair, each with ``spools``
    spools, and yield them in order. However the block ends, each worker
    still running is killed, and every one is reaped."""
    workers: list[_Worker] = []
    try:
        for task, what in tasks:
            workers.append(_Worker(task, spools, what))
        yield workers
    finally:
        for worker in workers:
            worker.close()

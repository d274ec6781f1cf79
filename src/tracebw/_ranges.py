"""Reading one regular file in byte ranges, every range but the first in a
forked worker process (see :mod:`tracebw._fork`).

The CLI plans the ranges in :func:`tracebw._read._plan_ranges`, which
splits the file's size by :func:`tracebw._fork.plan` and moves each start
past a newline with :func:`line_starts`. :func:`run_ranges` then turns
each byte range into text and runs the command's per-range pipeline,
:func:`tracebw._read._read_range`, over it. The CLI loads this module only
for a file of at least twice its range floor, so a run on a smaller file,
a pipe or standard input never compiles or imports it.

A worker reads its range with ``os.pread`` on the descriptor the parent
opened, so the file offset that forked processes share is never used. The
rows it writes follow the parent's own in range order.
"""

from __future__ import annotations

import io
import os
from functools import partial
from typing import IO, Callable

from ._fork import forked
from ._read import _text

_NEWLINE_PROBE = 8192  # bytes read at a time when looking for a range boundary


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
    following = () if end is None else _text(_ByteRange(fd, end, None))
    return read(_text(_ByteRange(fd, start, end)), following, start > 0, sink)


def run_ranges(read: Callable[..., tuple], fd: int, starts: list[int],
               out: IO[str] | None) -> list[tuple]:
    """Run ``read``, the per-range pipeline, over each range of the file open
    on ``fd``; return its results in range order.

    ``starts`` holds the byte offsets where the ranges start, the first at
    0, each later one just past a ``\\n`` byte. The first range runs here,
    each other one in a forked worker. ``out`` is given for commands that
    write rows: the first range writes its rows there, and each worker's
    rows, header line excepted, follow them in range order.
    """
    tasks = [(partial(_read_bytes, read, fd, start, end),
              f"reading from byte {start} to {'the end' if end is None else f'byte {end}'}")
             for start, end in zip(starts[1:], [*starts[2:], None])]
    with forked(tasks, 0 if out is None else 1) as workers:
        results = [_read_bytes(read, fd, 0, starts[1], out)]
        for worker in workers:
            results.append(worker.result())
            if out is not None:
                worker.append(0, out, header=True)
        return results

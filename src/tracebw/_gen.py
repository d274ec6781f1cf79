"""Writing ``tracebw gen``'s trace and sidecar, in job ranges.

The CLI opens the two files and hands them to :func:`write_gen`. A count
of at least twice ``_JOB_FLOOR`` is split into one job range per usable
CPU (see :func:`plan_jobs`); the first range is written in this process
and each other one by a forked worker (see :mod:`tracebw._fork`, which
only such a run loads). Every output byte equals that of a run in one
range, because only the submit time carries from one job to the next, and
:func:`tracebw.synth._jobs` can start a range at any job.

Each range is one loop over :func:`tracebw.synth._jobs`, which gives a
valid job's exact rate as an unreduced integer pair: :func:`write_jobs`
reduces it with :func:`math.gcd`, so gen builds no ``Fraction`` and loads
neither :mod:`fractions` nor :mod:`decimal`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from contextlib import nullcontext
from functools import partial
from math import gcd
from typing import IO

from .errors import IoFailure
from .parsing import format_lanl_line
from .synth import GenSpec, _jobs, format_sidecar_header, format_sidecar_line

_JOB_FLOOR = 10_000  # jobs that a range holds at least


def plan_jobs(count: int, n: int | None = None) -> list[int]:
    """The numbers, from 0, of the first jobs of the ranges of ``count``
    jobs: ``[0]`` for one range.

    ``n`` ranges of about equal size are asked for, by default one per
    usable CPU but no more than one per ``_JOB_FLOOR`` jobs. Only a host
    that can fork splits. Range k starts at job ``k * count // n``; a range
    that would be empty is dropped. A count under twice the floor is written
    in one range without loading :mod:`tracebw._fork`.
    """
    if n is None:
        if count < 2 * _JOB_FLOOR:
            return [0]
        from ._fork import usable_cpus

        n = min(usable_cpus(), count // _JOB_FLOOR)
    if not hasattr(os, "fork"):
        return [0]
    starts = [0]
    for k in range(1, n):
        if k * count // n > starts[-1]:
            starts.append(k * count // n)
    return starts


def write_jobs(spec: GenSpec, first: int, stop: int, trace: IO[str], sidecar: IO[str]) -> int:
    """Write jobs ``first`` to ``stop - 1`` to ``trace`` as LANL16 lines, each
    as it is drawn, and each valid one's line to ``sidecar``; return the
    number of valid jobs.

    A failed trace write raises :class:`IoFailure` with the number of lines
    this call wrote, as :func:`tracebw.parsing.write_lanl_trace` does.
    """
    valid = 0
    for written, (record, numerator, denominator) in enumerate(_jobs(spec, first, stop)):
        try:
            trace.write(format_lanl_line(record) + "\n")
        except OSError as exc:
            raise IoFailure(exc, rows_written=written) from exc
        if numerator is not None:
            # runtime_ms >= 1, so this is the Fraction's numerator and denominator.
            common = gcd(numerator, denominator)
            sidecar.write(format_sidecar_line(record.job_id, numerator // common,
                                              denominator // common))
            valid += 1
    return valid


def write_gen(spec: GenSpec, out: IO[str], side: IO[str]) -> str:
    """Write the trace of ``spec`` to ``out`` and its sidecar to ``side``;
    return the sidecar's header.

    The first range writes its sidecar lines to an unnamed temporary file,
    and each worker writes its trace and sidecar lines to two of its own.
    Once the summed counts give the header, the sidecar lines follow it in
    range order. A failing job raises before any later range's result is
    read, so the lowest-numbered one is named.
    """
    starts = plan_jobs(spec.count)
    ends = [*starts[1:], spec.count]
    forking = nullcontext(())
    if len(starts) > 1:
        from ._fork import forked

        forking = forked([(partial(write_jobs, spec, start, end),
                           f"writing jobs {start + 1} to {end}")
                          for start, end in zip(starts[1:], ends[1:])], 2)
    with forking as workers, \
            tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        valid = write_jobs(spec, 0, ends[0], out, spool)
        for worker in workers:
            valid += worker.result()
            worker.append(0, out)
        header = format_sidecar_header(valid, spec.count - valid)
        side.write(header)
        spool.seek(0)
        shutil.copyfileobj(spool, side)
        for worker in workers:
            worker.append(1, side)
    return header

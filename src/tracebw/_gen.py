"""Writing ``tracebw gen``'s trace and sidecar, in job ranges.

The CLI opens the two files and hands them to :func:`write_gen`. A count
of at least twice ``_JOB_FLOOR`` is split into one job range per usable
CPU by :func:`tracebw._fork.plan`, the rule that splits a read too (see
:func:`plan_jobs`). The first range is written in this process and each
other one by a forked worker, by :func:`tracebw._fork.fan_out`, which
runs a split read too. Only such a run loads that module, and no run
loads :mod:`tracebw._read`. Every output byte equals that of a run in one
range, because only the submit time carries from one job to the next, and
:func:`tracebw.synth._jobs` can start a range at any job.

Each range is one loop over :func:`tracebw.synth._jobs`, which gives each
job's 16 field values as a plain tuple and a valid job's exact rate as an
unreduced integer pair. :func:`write_jobs` formats the tuple's LANL16 line
and reduces the pair with :func:`math.gcd`, so gen builds no ``JobRecord``
and no ``Fraction``, and loads neither :mod:`fractions` nor :mod:`decimal`.
"""

from __future__ import annotations

import shutil
import tempfile
from functools import partial
from math import gcd
from typing import IO

from .errors import IoFailure
from .parsing import format_lanl_line
from .synth import GenSpec, _jobs, format_sidecar_header, format_sidecar_line

_JOB_FLOOR = 10_000  # jobs that a range holds at least


def plan_jobs(count: int) -> list[int]:
    """The numbers, from 0, of the first jobs of the ranges of ``count``
    jobs: ``[0]`` for one range.

    There is one range per usable CPU but no more than one per
    ``_JOB_FLOOR`` jobs, as :func:`tracebw._fork.plan` splits. A count
    under twice the floor is written in one range without loading that
    module.
    """
    if count < 2 * _JOB_FLOOR:
        return [0]
    from ._fork import plan

    return plan(count, _JOB_FLOOR)


def write_jobs(spec: GenSpec, first: int, stop: int, trace: IO[str], sidecar: IO[str]) -> int:
    """Write jobs ``first`` to ``stop - 1`` to ``trace`` as LANL16 lines, each
    as it is drawn, and each valid one's line to ``sidecar``; return the
    number of valid jobs.

    A failed trace write raises :class:`IoFailure` with the number of lines
    this call wrote, as :func:`tracebw.parsing.write_lanl_trace` does.
    """
    valid = 0
    for written, (fields, numerator, denominator) in enumerate(_jobs(spec, first, stop)):
        try:
            trace.write(format_lanl_line(fields) + "\n")
        except OSError as exc:
            raise IoFailure(exc, rows_written=written) from exc
        if numerator is not None:
            # runtime_ms >= 1, so this is the Fraction's numerator and denominator.
            common = gcd(numerator, denominator)
            sidecar.write(format_sidecar_line(fields[0], numerator // common,
                                              denominator // common))
            valid += 1
    return valid


def write_gen(spec: GenSpec, out: IO[str], side: IO[str]) -> str:
    """Write the trace of ``spec`` to ``out`` and its sidecar to ``side``;
    return the sidecar's header.

    Every range's sidecar lines go, in range order, to an unnamed temporary
    file first: a worker's through a spool of its own. Once the summed
    counts give the header, they follow it. A failing job raises before any
    later range's result is read, so the lowest-numbered one is named.
    """
    starts = plan_jobs(spec.count)
    tasks = [(partial(write_jobs, spec, start, end), f"writing jobs {start + 1} to {end}")
             for start, end in zip(starts, [*starts[1:], spec.count])]
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
        if len(tasks) > 1:
            from ._fork import fan_out

            valid = sum(fan_out(tasks, [out, spool]))
        else:
            valid = write_jobs(spec, 0, spec.count, out, spool)
        header = format_sidecar_header(valid, spec.count - valid)
        side.write(header)
        spool.seek(0)
        shutil.copyfileobj(spool, side)
    return header

"""A deterministic guard on the per-line cost of the read path.

Wall time on a shared host swings too much to gate on, but the number of
Python-level function calls per input line does not: it is counted with
``sys.setprofile`` (``"call"`` events, which include generator resumptions)
over 1,000 generated lines per input shape, after one warm-up pass so that
the bounded day caches hold the trace's few days, as they do on any long
trace after its first lines. A change that adds a Python call to every line
or cell shows here at once; one that removes calls should lower the bounds.
"""

from __future__ import annotations

import io
import sys

import pytest

from tracebw import (GenSpec, MbBase, MemorySource, TraceFormat, generate,
                     iter_rates, parse_trace, summarize, write_csv, write_worksheet)
from tracebw.parsing import format_lanl_line

from .swf import format_swf_line

SPEC = GenSpec(seed=11, count=1000, missing_start_frac=0.05, missing_end_frac=0.02,
               missing_mem_frac=0.02)


def civil_lines() -> list[str]:
    """LANL16 as ``tracebw gen`` writes it: civil millisecond timestamps."""
    records, _ = generate(SPEC)
    return [format_lanl_line(r) + "\n" for r in records]


def epoch_lines() -> list[str]:
    """The same jobs with second-aligned, so epoch-second, timestamps."""
    records, _ = generate(SPEC)
    lines = []
    for r in records:
        cells = format_lanl_line(r).split("\t")
        cells[1:4] = ["-1" if ts is None else str(ts.epoch_ms // 1000)
                      for ts in (r.submit_time, r.start_time, r.end_time)]
        lines.append("\t".join(cells) + "\n")
    return lines


def archive_lines() -> list[str]:
    """The same jobs as ARCHIVE18, missing waits and runtimes kept missing,
    with every 50th line malformed."""
    records, _ = generate(SPEC)
    lines = []
    for i, r in enumerate(records, 1):
        submit = r.submit_time.epoch_ms // 1000
        start = None if r.start_time is None else r.start_time.epoch_ms // 1000
        end = None if r.end_time is None else r.end_time.epoch_ms // 1000
        procs = r.used_procs
        job = {
            "job": i, "submit": submit,
            "wait": None if start is None else start - submit,
            "runtime": None if start is None or end is None else end - start,
            "allocated_procs": procs, "avg_cpu": r.used_cpu_s,
            "used_mem_kb_per_proc": None if r.used_mem_kb is None else r.used_mem_kb // procs,
            "requested_procs": r.req_procs,
            "requested_mem_kb_per_proc": None if r.req_mem_kb is None else r.req_mem_kb // procs,
            "status": 1, "user": 3, "group": 2, "executable": 5, "queue": 1,
        }
        if i % 50 == 0:
            job["runtime"] = "1.5.0"
        lines.append(format_swf_line(job) + "\n")
    return lines


def civil_worksheet(lines):
    records = parse_trace(lines, TraceFormat.LANL16)
    write_worksheet(iter_rates(records, MemorySource.REQUESTED), MbBase.BINARY, io.StringIO())


def epoch_csv(lines):
    records = parse_trace(lines, TraceFormat.LANL16)
    samples = iter_rates(records, MemorySource.USED, carry_forward=True)
    write_csv(samples, MbBase.BINARY, io.StringIO())


def archive_summary(lines):
    records = parse_trace(lines, TraceFormat.ARCHIVE18)
    summarize(iter_rates(records, MemorySource.REQUESTED), MbBase.BINARY)


def calls_per_line(run, lines: list[str]) -> float:
    run(lines)  # warm-up: fills the day caches
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run(lines)
    finally:
        sys.setprofile(previous)
    return calls / len(lines)


# Bounds: the count measured with this test's inputs plus one. Measured
# per line, parent of the read-path rework -> after it (CPython 3.11):
# civil 49.28 -> 34.73, epoch 46.43 -> 31.48, archive 56.81 -> 46.39.
@pytest.mark.parametrize("make_lines,run,bound", [
    (civil_lines, civil_worksheet, 34.73 + 1),
    (epoch_lines, epoch_csv, 31.48 + 1),
    (archive_lines, archive_summary, 46.39 + 1),
], ids=["civil-worksheet", "epoch-csv", "archive-summary"])
def test_python_calls_per_line(make_lines, run, bound):
    lines = make_lines()
    assert len(lines) == 1000
    assert calls_per_line(run, lines) <= bound

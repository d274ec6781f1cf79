"""A deterministic guard on the per-line cost of the read path, and on the
per-job cost of the generator and the LANL16 writer.

Wall time on a shared host swings too much to gate on, but the number of
Python-level function calls per input line does not: it is counted with
``sys.setprofile`` (``"call"`` events, which include generator resumptions)
over 1,000 generated lines per input shape, after one warm-up pass so that
the bounded day caches hold the trace's few days, as they do on any long
trace after its first lines. A change that adds a Python call to every line
or cell shows here at once; one that removes calls should lower the bounds.

The in-process CLI is held to the library pipeline's marginal cost: what
2,000 lines cost beyond 1,000, per line, may exceed the library's by at
most 0.1 call, so the CLI adds no per-line or per-sample work of its own.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import sys
from operator import attrgetter

import pytest

from tracebw import (GenSpec, JobRecord, MbBase, MemorySource, RateFlag, RateSample, Timestamp,
                     TraceFormat, generate, iter_rates, parse_trace, parsing, summarize,
                     write_csv, write_worksheet)
from tracebw._gen import write_jobs
from tracebw._read import _RANGE_FLOOR
from tracebw.cli import main
from tracebw.parsing import format_lanl_line, parse_archive_line, parse_lanl_line, write_lanl_trace
from tracebw.synth import iter_jobs

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


def count_calls(run, *args) -> int:
    """Python-level calls, generator resumptions included, made by ``run(*args)``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # Earlier garbage is collected first: a finalizer that a collection runs
    # inside the count would show as calls of the code under test.
    gc.collect()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run(*args)
    finally:
        sys.setprofile(previous)
    return calls


def calls_per_line(run, lines: list[str]) -> float:
    run(lines)  # warm-up: fills the day caches
    return count_calls(run, lines) / len(lines)


# Bounds: the count measured with this test's inputs plus one. Measured
# per line, before the ARCHIVE18 plain-token check and the writers' inline
# Mbyte division -> after them (CPython 3.11): civil 29.91 -> 29.00,
# epoch 26.60 -> 25.65, archive 41.71 -> 16.32; then before the LANL16
# plain-line check -> after it: civil 29.00 -> 18.11, epoch 25.65 -> 14.75;
# then before the worksheet's one f-string per row -> after it: civil
# 18.11 -> 16.30; then before iter_rates wrote out its four helpers and the
# full CSV took one f-string per row -> after: civil 16.30 -> 12.49, epoch
# 14.75 -> 10.84, archive 16.32 -> 12.58.
@pytest.mark.parametrize("make_lines,run,bound", [
    (civil_lines, civil_worksheet, 12.49 + 1),
    (epoch_lines, epoch_csv, 10.84 + 1),
    (archive_lines, archive_summary, 12.58 + 1),
], ids=["civil-worksheet", "epoch-csv", "archive-summary"])
def test_python_calls_per_line(make_lines, run, bound):
    lines = make_lines()
    assert len(lines) == 1000
    assert calls_per_line(run, lines) <= bound


def test_worksheet_calls_per_row():
    # write_worksheet's own frame and set-up, then two format_day calls per
    # row and nothing per cell: format_sig is a C-level bound str.format, and
    # the row is one f-string. Rows cover undefined rates and Kbyte counts
    # that are not whole, so both format_sig cells and the empty one are met.
    records, _ = generate(SPEC)
    samples = list(iter_rates(records, MemorySource.REQUESTED))
    start = samples[0].start
    samples += [RateSample("odd", start, start, 1536, 0, None),
                RateSample("tiny", start, Timestamp(start.epoch_ms + 7), 1, 7, 1000 / 7)]
    write_worksheet(samples, MbBase.BINARY, io.StringIO())  # warm-up: fills the day caches
    fixed = count_calls(write_worksheet, [], MbBase.BINARY, io.StringIO())
    calls = count_calls(write_worksheet, samples, MbBase.BINARY, io.StringIO())
    assert calls <= fixed + 2 * len(samples)


def test_csv_calls_per_row():
    # write_csv's own frame and set-up, and nothing per row when no job id
    # needs quoting: the row is one f-string. A flag set's cell is joined at
    # its first row only, at the cost of a generator expression and Enum's
    # Python-level hash and name, so every later row costs no call at all.
    # Carry-forward over used memory meets every flag set but the negative one
    # alone, which a sample adds, and a zero duration leaves the rate cells empty.
    records, _ = generate(SPEC)
    samples = list(iter_rates(records, MemorySource.USED, carry_forward=True))
    start = samples[0].start
    samples += [RateSample("odd", start, start, 1536, 0, None),
                RateSample("neg", Timestamp(start.epoch_ms + 7), start, 1024, -7, -1024000 / 7,
                           frozenset({RateFlag.NEGATIVE_DURATION}))]
    firsts = list({sample.flags: sample for sample in reversed(samples)}.values())
    assert len(firsts) == 4
    fixed = count_calls(write_csv, [], MbBase.BINARY, io.StringIO())
    first_rows = count_calls(write_csv, firsts, MbBase.BINARY, io.StringIO())
    assert first_rows > fixed
    assert count_calls(write_csv, samples, MbBase.BINARY, io.StringIO()) == first_rows


def gen_trace(spec):
    """What ``tracebw gen`` does per job: draw it, write its LANL16 line and,
    for a valid job, its sidecar line."""
    write_jobs(spec, 0, spec.count, io.StringIO(), io.StringIO())


# Bound: the count measured with SPEC plus one. Measured per job, with the
# draws as _Draws method calls and a keyword JobRecord -> with the draws
# inline and a positional JobRecord (CPython 3.11): 32.75 -> 24.75; then with
# format_lanl_line's cells written inline: 24.75 -> 9.80. Those counts were
# of iter_jobs' records through write_lanl_trace, without the sidecar. From
# here it is gen's own loop, sidecar lines included: 13.53 with a Fraction per
# valid job read back through two properties -> 9.76 with the integer pair
# reduced by math.gcd and the labels built by list comprehensions.
def test_python_calls_per_job():
    gen_trace(SPEC)  # warm-up: fills the day caches
    assert count_calls(gen_trace, SPEC) / SPEC.count <= 9.76 + 1


def library_jobs(spec):
    """What the library's :func:`iter_jobs` costs per job: draw it and build
    each valid job's rate as a Fraction."""
    for _ in iter_jobs(spec):
        pass


# Bound: the count measured with SPEC plus one: the resumptions of _jobs and
# of iter_jobs' generator expression, three Timestamps, a JobRecord and a
# Fraction per valid job (CPython 3.11).
def test_iter_jobs_calls_per_job():
    assert count_calls(library_jobs, SPEC) / SPEC.count <= 6.84 + 1


@pytest.mark.parametrize("present", [3, 2, 0], ids=["full", "missing-end", "bare"])
def test_format_lanl_line_calls(present):
    # format_lanl_line itself and one format_timestamp per present timestamp:
    # no call per cell, and none inside format_timestamp once its tables exist.
    records, _ = generate(SPEC)
    record = records[0]
    if present < 3:
        record = JobRecord(record.job_id, *[record.submit_time, record.start_time][:present])
    format_lanl_line(record)  # warm-up: the first civil cell builds the clock tables
    assert count_calls(format_lanl_line, record) <= 1 + present


def test_each_value_type_is_built_in_one_python_call():
    # Timestamp (three per line), JobRecord and RateSample check and store in
    # their own __init__ or __new__; a __post_init__ or a helper would add a
    # call per object.
    start, end = Timestamp(0), Timestamp(32000)
    assert count_calls(Timestamp, 0) == 1
    assert count_calls(JobRecord, "j", start, start, end, 1, 2, 3.0, 4.0, 5, 6,
                       "q", True, "u", "p", "x", 0) == 1
    assert count_calls(RateSample, "j", start, end, 33554432, 32000, 1048576.0) == 1


def test_field_reads_make_no_python_call():
    # A slot or a tuple item's getter, both in C: format_lanl_line reads every
    # field of each record gen writes, and the writers most fields of a sample.
    start, end = Timestamp(0), Timestamp(32000)
    for obj in (start, JobRecord("j", start, start, end, 1, 2, 3.0, 4.0, 5, 6,
                                 "q", True, "u", "p", "x", 0),
                RateSample("j", start, end, 33554432, 32000, 1048576.0)):
        read_all = attrgetter(*(f.name for f in dataclasses.fields(obj)))
        assert count_calls(read_all, obj) == 0, type(obj).__name__


# A plain ARCHIVE18 line skips the cell check: parse_archive_line itself, _ms
# and Timestamp for each of the three times, _whole_job twice and JobRecord.
PLAIN_ARCHIVE_CALLS = 10


@pytest.mark.parametrize("line", [
    "3 768528030 56 3246 32 3246 1024 32 3246 1024 1 3 3 3 1 1 -1 -1",
    "1 768528008 -1 2750 128 2750 1600 128 2750 1600 1 1 1 1 1 1 -1 -1",
    "    17  820454400    120   3600     32  3599.50   2048     32   3600   2048"
    "   1   5   3   7   1   1  -1  -1",
], ids=["benchmark", "benchmark-missing-wait", "aligned"])
def test_plain_archive_line_skips_the_column_table(line):
    parse_archive_line(line)  # warm-up: the first ARCHIVE18 line compiles the pattern
    assert count_calls(parse_archive_line, line) <= PLAIN_ARCHIVE_CALLS


def checked_lines(monkeypatch) -> list[list[str]]:
    """The cells of each line that takes the checked route from now on."""
    checked = []
    check = parsing._plain_cells

    def counted(line_no, cells, *table):
        checked.append(cells)
        return check(line_no, cells, *table)

    monkeypatch.setattr(parsing, "_plain_cells", counted)
    return checked


def test_integral_float_in_an_integer_column_takes_the_column_table(monkeypatch):
    plain = "17 820454400 120 3600 32 3599.5 2048 32 3600 2048 1 5 3 7 1 1 -1 -1"
    line = plain.replace(" 32 ", " 32.0 ", 1)
    checked = checked_lines(monkeypatch)
    assert parse_archive_line(plain) == parse_archive_line(line)
    assert checked == [line.split()]  # the integral float's line, once


# A plain LANL16 line skips the cell check: parse_lanl_line itself, then
# parse_timestamp and Timestamp for each of the three times, and JobRecord.
PLAIN_LANL_CALLS = 8

PLAIN_CIVIL_LINE = ("j000001\tMay 10 94 00:00:36.130\tMay 10 94 00:01:09.716"
                    "\tMay 10 94 00:56:36.950\t256\t256\t851771.904\t851771.904"
                    "\t307200\t307200\tq256\t0\tu001\tp01\tapp1\t0")


@pytest.mark.parametrize("line", [
    PLAIN_CIVIL_LINE,
    PLAIN_CIVIL_LINE.replace("May 10 94 00:01:09.716", "-1"),
    PLAIN_CIVIL_LINE.replace("May 10 94 00:00:36.130", "768528036"),
], ids=["benchmark", "benchmark-missing-start", "epoch-submit"])
def test_plain_lanl_line_skips_the_column_table(line):
    parse_lanl_line(line)  # warm-up: the first LANL16 line compiles the pattern
    assert count_calls(parse_lanl_line, line) <= PLAIN_LANL_CALLS


def test_space_padded_cell_takes_the_column_table(monkeypatch):
    line = PLAIN_CIVIL_LINE.replace("\tq256", "\t q256", 1)
    checked = checked_lines(monkeypatch)
    assert parse_lanl_line(PLAIN_CIVIL_LINE) == parse_lanl_line(line)
    assert checked == [PLAIN_CIVIL_LINE.split("\t")]  # the padded line, trimmed, once


def test_every_timestamp_cell_reaches_the_module_attribute(monkeypatch):
    # A tracer counts timestamp cells and records by wrapping these two names
    # in tracebw.parsing, so neither route may bypass them.
    calls = {"parse_timestamp": 0, "JobRecord": 0}

    def counted(name):
        target = getattr(parsing, name)

        def wrapper(*args):
            calls[name] += 1
            return target(*args)
        return wrapper

    for lines in (civil_lines(), epoch_lines()):
        cells = sum(cell != "-1" for line in lines for cell in line.split("\t")[1:4])
        calls.update(parse_timestamp=0, JobRecord=0)
        with monkeypatch.context() as patch:
            for name in calls:
                patch.setattr(parsing, name, counted(name))
            records = list(parse_trace(lines, TraceFormat.LANL16))
        assert len(records) == len(lines)
        assert calls == {"parse_timestamp": cells, "JobRecord": len(records)}


def test_every_written_timestamp_reaches_the_module_attribute(monkeypatch):
    # The writer's side of the tracer's hook: one call to parsing.format_timestamp
    # per timestamp that is not None, on the same route that gen takes.
    records, _ = generate(SPEC)
    present = sum(ts is not None for r in records
                  for ts in (r.submit_time, r.start_time, r.end_time))
    assert present < 3 * len(records)  # the spec knocks some out
    calls = 0
    target = parsing.format_timestamp

    def counted(ts):
        nonlocal calls
        calls += 1
        return target(ts)

    sink = io.StringIO()
    monkeypatch.setattr(parsing, "format_timestamp", counted)
    assert write_lanl_trace(records, sink) == len(records)
    assert calls == present
    monkeypatch.undo()
    assert sink.getvalue() == "".join(format_lanl_line(r) + "\n" for r in records)


def marginal_calls_per_line(run, small, large, lines: int) -> float:
    """Calls per line that ``large`` costs beyond ``small``, ``lines`` lines more."""
    run(large)  # warm-up: fills the day caches for both inputs
    return (count_calls(run, large) - count_calls(run, small)) / lines


# The CLI's commands for the library runs above, on the same inputs.
@pytest.mark.parametrize("make_lines,run,command", [
    (civil_lines, civil_worksheet, ["rates"]),
    (epoch_lines, epoch_csv, ["rates", "--full", "--carry-forward", "--memory", "used"]),
    (archive_lines, archive_summary, ["summary", "--format", "archive"]),
], ids=["civil-worksheet", "epoch-csv", "archive-summary"])
def test_cli_adds_no_calls_per_line(make_lines, run, command, tmp_path):
    # Between the input and the output the CLI runs the library pipeline and
    # nothing else per line: its fixed costs (argument parsing, opening and
    # replacing files, the report) cancel out between 1,000 and 2,000 lines.
    # Both inputs stay under twice _RANGE_FLOOR, so the CLI reads each in
    # one range in this process, and the profile sees every line.
    lines = make_lines()
    paths = []
    for copies in (1, 2):
        path = tmp_path / f"trace-{copies}"
        path.write_text("".join(lines * copies), encoding="utf-8")
        assert path.stat().st_size < 2 * _RANGE_FLOOR
        paths.append(str(path))
    out = str(tmp_path / "out")

    def cli(path):
        assert main([command[0], path, *command[1:], "--out", out]) == 0

    library = marginal_calls_per_line(run, lines, lines * 2, len(lines))
    assert marginal_calls_per_line(cli, *paths, len(lines)) <= library + 0.1

"""Workload inputs and the exact outputs the tracebw CLI must produce for them.

Job parameters come from tracebw's own generator, as every workload is
built from the repository's synthetic traces. Everything else is the
benchmark's own code: the LANL16 and ARCHIVE18 writers, the malformed-line
injection, and every expected output, which is computed from the job table
with ``fractions.Fraction`` and never through a tracebw library call.

The four workloads:

- ``lanl-civil-rates``: LANL16 exactly as ``tracebw gen`` writes it (civil
  millisecond timestamps), run through ``tracebw rates``. The default path:
  civil timestamp parsing is about half of parse time, and the worksheet
  formats a day string twice per row.
- ``lanl-epoch-csv``: the same jobs with second-aligned timestamps, so every
  time cell is epoch seconds, run through ``rates --full --carry-forward
  --memory used``. Shows the parser's per-line cost with cheap timestamps,
  plus the CSV writer and the carry-forward and negative-duration paths.
- ``archive-swf-summary``: ARCHIVE18 lines with ``;`` headers, about 25% of
  jobs missing wait, runtime or memory and about 2% malformed lines, run
  through ``summary --format archive``. No timestamp parsing, malformed-line
  exceptions, a high omission rate, and ``summarize`` keeps every value.
- ``gen``: a genspec run through ``tracebw gen``. The only write-side
  workload (generator, LANL16 writer, timestamp formatting, sidecar).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from fractions import Fraction
from pathlib import Path

from tracebw.synth import GenSpec, generate

JOBS = 40_000
MB = 1048576
KB = 1024

MISSING = {"missing_start_frac": 0.05, "missing_end_frac": 0.02, "missing_mem_frac": 0.02}
# Archive knock-outs per job (wait, runtime, memory), then the malformed-line rate.
ARCHIVE_MISSING = (0.12, 0.08, 0.07)
ARCHIVE_MALFORMED = 0.02

_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
_EPOCH = datetime(1970, 1, 1)

# Each malformed-line reason and how the benchmark breaks a well-formed
# ARCHIVE18 field list to provoke it.
_MALFORM = {
    "column-count": lambda f: f[:-1],
    "bad-int": lambda f: f[:4] + [f[4] + "x"] + f[5:],
    "bad-real": lambda f: f[:3] + ["1.5.0"] + f[4:],
    "negative-value": lambda f: f[:4] + ["-" + f[4]] + f[5:],
}
REASONS = tuple(_MALFORM)

@dataclass(frozen=True)
class Sample:
    """One expected rate sample: ``start``/``end`` in epoch ms."""

    job_id: str
    start: int
    end: int
    n_bytes: int
    carried: bool

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Case:
    """One workload at one seed: its CLI commands, inputs and exact expectations."""

    name: str
    argv: list[str]                 # tracebw arguments of the timed command
    setup_argv: list[str]           # the same command on an input with no records
    expected: dict[str, str]        # output path -> exact text, timed command
    setup_expected: dict[str, str]  # output path -> exact text, set-up command
    inputs: list[str]
    units: int                      # input lines, or jobs written for gen
    # What the traced in-process run needs.
    spec: GenSpec
    read_path: str                  # the text the read stages parse
    format: str
    memory: str
    carry: bool
    on_path: tuple[str, ...]        # stages the timed command runs
    parsed: int
    reasons: Counter = field(default_factory=Counter)
    samples: list[Sample] = field(default_factory=list)
    stage_text: dict[str, str] = field(default_factory=dict)  # stage -> exact output


# --- text forms, written independently of tracebw.timefmt -------------------

def _datetime(ms: int) -> datetime:
    return _EPOCH + timedelta(milliseconds=ms)


def _civil(ms: int) -> str:
    dt = _datetime(ms)
    year = f"{dt.year % 100:02d}" if 1970 <= dt.year <= 2069 else str(dt.year)
    return (f"{_MONTHS[dt.month - 1]} {dt.day:02d} {year} "
            f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}.{dt.microsecond // 1000:03d}")


def _day(ms: int) -> str:
    dt = _datetime(ms)
    return f"{_MONTHS[dt.month - 1]} {dt.day:02d} {dt.year % 100:02d}"


def _cell(value) -> str:
    if value is None:
        return "-1"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _time_cell(ms: int | None) -> str:
    if ms is None:
        return "-1"
    if ms % 1000 == 0 and ms != -1000:
        return str(ms // 1000)
    return _civil(ms)


def lanl_line(row: tuple) -> str:
    """One LANL16 line, in the canonical form ``tracebw gen`` writes."""
    return "\t".join([row[0]] + [_time_cell(ms) for ms in row[1:4]]
                     + [_cell(v) for v in row[4:]])


def job_rows(spec: GenSpec) -> list[tuple]:
    """The generator's jobs as plain 16-column tuples, timestamps in epoch ms."""
    records, _ = generate(spec)

    def ms(ts):
        return None if ts is None else ts.epoch_ms

    return [(r.job_id, ms(r.submit_time), ms(r.start_time), ms(r.end_time),
             r.req_procs, r.used_procs, r.req_cpu_s, r.used_cpu_s,
             r.req_mem_kb, r.used_mem_kb, r.queue, r.dedicated,
             r.user, r.project, r.executable, r.exit_code) for r in records]


# --- expected outputs -----------------------------------------------------------

def expected_samples(rows, mem_col: int, carry: bool) -> list[Sample]:
    """The CLI's samples in file order, from (id, submit, start, end, ..., mem) rows."""
    samples = []
    prev_end = None
    for row in rows:
        start, end, kb = row[2], row[3], row[mem_col]
        carried = start is None and carry and prev_end is not None
        if carried:
            start = prev_end
        if start is not None and end is not None and kb is not None:
            samples.append(Sample(row[0], start, end, kb * KB, carried))
        prev_end = row[3]
    return samples


def _mbytes(sample: Sample) -> Fraction:
    return Fraction(1000 * sample.n_bytes, sample.duration * MB)


def worksheet_text(samples: list[Sample]) -> str:
    lines = ["Start date,End date,Mbytes,Bytes"]
    for s in samples:
        mbytes = "" if s.duration == 0 else f"{float(_mbytes(s)):.7g}"
        lines.append(f"{_day(s.start)},{_day(s.end)},{mbytes},{s.n_bytes // KB}")
    return "\n".join(lines) + "\n"


def csv_text(samples: list[Sample]) -> str:
    lines = ["job_id,start_ms,end_ms,duration_ms,n_bytes,rate_bytes_per_s,rate_out,flags"]
    for s in samples:
        if s.duration == 0:
            rate = rate_out = ""
        else:
            rate = repr(float(Fraction(1000 * s.n_bytes, s.duration)))
            rate_out = repr(float(_mbytes(s)))
        flags = [name for name, on in (("NEGATIVE_DURATION", s.duration < 0),
                                       ("CARRIED_FORWARD_START", s.carried)) if on]
        lines.append(f"{s.job_id},{s.start},{s.end},{s.duration},{s.n_bytes},"
                     f"{rate},{rate_out},{'|'.join(flags)}")
    return "\n".join(lines) + "\n"


def summary_text(n_rates: int, n_negative: int, n_undefined: int, stats) -> str:
    """The summary block; ``stats`` is (min, max, mean, median, p95) or None."""
    lines = [f"n_rates={n_rates}", f"n_negative={n_negative}", f"n_undefined={n_undefined}"]
    for name, value in zip(("min", "max", "mean", "median", "p95"), stats or (None,) * 5):
        lines.append(f"{name}={'' if value is None else repr(value)}")
    return "\n".join(lines) + "\n"


def expected_summary(samples: list[Sample]) -> str:
    exact = sorted(_mbytes(s) for s in samples if s.duration != 0)
    values = [float(v) for v in exact]
    n = len(values)
    stats = None
    if n:
        stats = (values[0], values[-1], math.fsum(values) / n,
                 values[(n - 1) // 2], values[(95 * n + 99) // 100 - 1])
    return summary_text(n, sum(v < 0 for v in exact), len(samples) - n, stats)


def report_text(record_lines: int, parsed: int, valid: int, malformed: int) -> str:
    return (f"total={record_lines}\nparsed={parsed}\nvalid={valid}\n"
            f"omitted={parsed - valid}\nmalformed={malformed}\n")


def sidecar_text(rows) -> str:
    rates = [(row[0], Fraction(1000 * row[8] * KB, row[3] - row[2])) for row in rows
             if row[2] is not None and row[3] is not None and row[8] is not None]
    lines = [f"expected_valid={len(rates)}", f"expected_omitted={len(rows) - len(rates)}"]
    lines += [f"{job_id} {r.numerator}/{r.denominator}" for job_id, r in rates]
    return "\n".join(lines) + "\n"


# --- ARCHIVE18 -------------------------------------------------------------------

def archive_lines(rows, seed: int):
    """ARCHIVE18 lines for complete jobs, with the benchmark's own knock-outs.

    Returns the lines, the rows the parser should produce from the
    well-formed ones (id, submit, start, end, ..., whole-job requested
    memory in column 8), and the malformed-line count per reason.
    """
    rng = random.Random(f"perfbench-archive-{seed}")
    lines = ["; Version: 2.2", "; Computer: perfbench synthetic",
             f"; MaxJobs: {len(rows)}", ";"]
    parsed = []
    reasons: Counter = Counter()
    for i, row in enumerate(rows):
        drop_wait, drop_run, drop_mem = (rng.random() < p for p in ARCHIVE_MISSING)
        malformed = rng.random() < ARCHIVE_MALFORMED
        reason = REASONS[int(rng.random() * len(REASONS))]
        procs = row[4]
        submit_s = row[1] // 1000
        start_s = row[2] // 1000
        run_s = row[3] // 1000 - start_s
        wait = -1 if drop_wait else start_s - submit_s
        runtime = -1 if drop_run else run_s
        mem_pp = -1 if drop_mem else row[8] // procs
        fields = [str(v) for v in (i + 1, submit_s, wait, runtime, procs, run_s, mem_pp,
                                   procs, run_s, mem_pp, 1, i % 23 + 1, i % 7 + 1,
                                   i % 11 + 1, 1, 1, -1, -1)]
        if malformed:
            lines.append(" ".join(_MALFORM[reason](fields)))
            reasons[reason] += 1
            continue
        lines.append(" ".join(fields))
        start = None if drop_wait else (submit_s + wait) * 1000
        end = None if start is None or drop_run else start + runtime * 1000
        mem = None if drop_mem else mem_pp * procs
        parsed.append((str(i + 1), submit_s * 1000, start, end, procs, procs,
                       None, None, mem))
    return lines, parsed, reasons


# --- cases -----------------------------------------------------------------------

def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def _lanl_spec(seed: int) -> GenSpec:
    return GenSpec(seed=seed, count=JOBS, **MISSING)


def build(name: str, seed: int, work: Path) -> Case:
    """Write the workload's inputs under ``work`` and return its expectations."""
    work.mkdir(parents=True, exist_ok=True)
    out = str(work / f"{name}.out")
    stdout, stderr = str(work / f"{name}.stdout"), str(work / f"{name}.stderr")
    empty = _write(work / f"{name}-empty.in", "")
    if name == "gen":
        return _build_gen(seed, work, out, stdout, stderr)

    if name == "archive-swf-summary":
        spec = GenSpec(seed=seed, count=JOBS)
        lines, rows, reasons = archive_lines(job_rows(spec), seed)
        fmt, memory, carry, mem_col = "archive", "requested", False, 8
        argv_tail = ["--format", "archive"]
        command, stage = "summary", "export.summarize"
    else:
        spec = _lanl_spec(seed)
        rows = job_rows(spec)
        reasons = Counter()
        if name == "lanl-epoch-csv":
            rows = [row[:1] + tuple(None if ms is None else ms // 1000 * 1000
                                    for ms in row[1:4]) + row[4:] for row in rows]
            fmt, memory, carry, mem_col = "lanl", "used", True, 9
            argv_tail = ["--full", "--carry-forward", "--memory", "used"]
            stage = "export.write_csv"
        else:
            fmt, memory, carry, mem_col = "lanl", "requested", False, 8
            argv_tail = []
            stage = "export.write_worksheet"
        lines = [lanl_line(row) for row in rows]
        command = "rates"

    trace = _write(work / f"{name}.in", "".join(line + "\n" for line in lines))
    samples = expected_samples(rows, mem_col, carry)
    malformed = sum(reasons.values())
    if command == "summary":
        text, empty_text = expected_summary(samples), summary_text(0, 0, 0, None)
    elif carry:
        text, empty_text = csv_text(samples), csv_text([])
    else:
        text, empty_text = worksheet_text(samples), worksheet_text([])
    return Case(
        name=name,
        argv=[command, trace, *argv_tail, "--out", out],
        setup_argv=[command, empty, *argv_tail, "--out", out],
        expected={out: text, stdout: "",
                  stderr: report_text(len(rows) + malformed, len(rows), len(samples),
                                      malformed)},
        setup_expected={out: empty_text, stdout: "", stderr: report_text(0, 0, 0, 0)},
        inputs=[trace, empty],
        units=len(lines),
        spec=spec, read_path=trace, format=fmt, memory=memory, carry=carry,
        on_path=("parsing.parse_trace", "bandwidth.iter_rates", stage),
        parsed=len(rows), reasons=reasons, samples=samples,
        stage_text={stage: text},
    )


def _build_gen(seed: int, work: Path, out: str, stdout: str, stderr: str) -> Case:
    spec = _lanl_spec(seed)
    rows = job_rows(spec)
    genspec = "".join(f"{key}={value}\n" for key, value in
                      [("seed", seed), ("count", JOBS), *MISSING.items()])
    spec_path = _write(work / "gen.genspec", genspec)
    empty_spec = _write(work / "gen-empty.genspec", f"seed={seed}\ncount=0\n")
    trace_text = "".join(lanl_line(row) + "\n" for row in rows)
    # The read stages of the traced run parse the text gen must write.
    expected_trace = _write(work / "gen-expected.trace", trace_text)
    truth_text = sidecar_text(rows)
    valid = truth_text.count("\n") - 2
    samples = expected_samples(rows, 8, False)
    return Case(
        name="gen",
        argv=["gen", spec_path, "--out", out],
        setup_argv=["gen", empty_spec, "--out", out],
        expected={out: trace_text, out + ".truth": truth_text, stdout: "",
                  stderr: f"count={JOBS}\nexpected_valid={valid}\n"
                          f"expected_omitted={JOBS - valid}\n"},
        setup_expected={out: "", out + ".truth": "expected_valid=0\nexpected_omitted=0\n",
                        stdout: "", stderr: "count=0\nexpected_valid=0\nexpected_omitted=0\n"},
        inputs=[spec_path, empty_spec],
        units=JOBS,
        spec=spec, read_path=expected_trace, format="lanl", memory="requested", carry=False,
        on_path=("synth.generate", "parsing.write_lanl_trace", "synth.write_sidecar"),
        parsed=JOBS, samples=samples,
        stage_text={"parsing.write_lanl_trace": trace_text,
                    "synth.write_sidecar": truth_text},
    )


WORKLOADS = ("lanl-civil-rates", "lanl-epoch-csv", "archive-swf-summary", "gen")

"""Deterministic rigid-job trace synthesis for fixtures and benchmarks.

A rigid job is fully described by its arrival time, processor count, and
runtime. This generator draws exponential inter-arrival gaps, a small
uniform queue wait, uniform runtimes, and uniform picks from the memory
and processor choice lists, then knocks out start/end/memory fields with
independent per-job coin flips. Alongside each record it emits ground
truth - whether the job is valid and, if so, its rate as an exact
rational - so pipeline tests never re-derive their expectations from the
code under test.

:func:`iter_jobs` yields the jobs one at a time as they are drawn, so a
consumer writes any number of them in constant memory. ``tracebw gen``
reads the private :func:`_jobs`, which gives each valid job's rate as an
integer numerator and denominator, so it never imports :mod:`fractions`
(nor :mod:`decimal`, which that imports): only :func:`iter_jobs` and
:func:`read_sidecar` do, when called. :func:`generate` collects the same
jobs into a list and a :class:`GroundTruth`, whose valid count is the
number of its rates. A spec file's keys are :class:`GenSpec`'s fields,
each read as the type of its default.

Determinism contract: the output is a pure function of the GenSpec. All
randomness comes from CPython's ``random.Random`` (MT19937) seeded with
``spec.seed``, and only its ``random()`` method draws - the one method
whose stream CPython guarantees stable across versions - so fixtures are
byte-identical across releases. A job range that starts past the first
job skips draws with ``getrandbits``, which a test holds to the words
``random()`` would consume. Per job the draw order is fixed: arrival
gap, wait, runtime, memory choice, processor choice, then the three
missing-field flips. This makes no claim of statistical fidelity to any
real machine; it is a test fixture generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields
from typing import IO, TYPE_CHECKING, Iterable, Iterator

from .bandwidth import BYTES_PER_KB
from .errors import InvalidSpec, MalformedSidecar
from .model import _FIRST_MS, _LAST_MS, _MAX_COUNT, MS_PER_S, JobRecord, Timestamp, _require_counts

if TYPE_CHECKING:
    from fractions import Fraction

# 1994-05-10 00:00:00 UTC; generated traces start on this day.
BASE_EPOCH_MS = 768_528_000_000

_MAX_WAIT_MS = 60_000

# No job outlasts the timestamp span; a longer runtime could only be refused
# later, as whatever its arithmetic overflows first.
_MAX_RUNTIME_MS = _LAST_MS - _FIRST_MS


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one deterministic synthesis run."""

    seed: int = 0
    count: int = 1000
    inter_arrival_mean_ms: float = 60_000.0
    runtime_min_ms: int = 1_000
    runtime_max_ms: int = 3_600_000
    mem_kb_choices: tuple[int, ...] = (
        32768, 122880, 204800, 307200, 409600, 512000, 755712, 16777216)
    procs_choices: tuple[int, ...] = (32, 64, 128, 256, 512, 1024)
    missing_start_frac: float = 0.0
    missing_end_frac: float = 0.0
    missing_mem_frac: float = 0.0

    def __post_init__(self):
        for name in ("seed", "count", "runtime_min_ms", "runtime_max_ms"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise InvalidSpec(f"{name} must be an integer, got {value!r}")
        if self.count < 0:
            raise InvalidSpec(f"count must be >= 0, got {self.count}")
        if not 0 < self.inter_arrival_mean_ms < math.inf:
            raise InvalidSpec("inter_arrival_mean_ms must be positive and finite")
        if not 0 < self.runtime_min_ms <= self.runtime_max_ms <= _MAX_RUNTIME_MS:
            raise InvalidSpec(
                f"need 0 < runtime_min_ms <= runtime_max_ms <= {_MAX_RUNTIME_MS} "
                f"(the timestamp span), got {self.runtime_min_ms}..{self.runtime_max_ms}")
        for name in ("mem_kb_choices", "procs_choices"):
            choices = tuple(getattr(self, name))
            if not choices or not all(isinstance(c, int) and 0 < c <= _MAX_COUNT
                                      for c in choices):
                raise InvalidSpec(
                    f"{name} must be a non-empty list of integers from 1 to 2**63 - 1")
            object.__setattr__(self, name, choices)
        for name in ("missing_start_frac", "missing_end_frac", "missing_mem_frac"):
            frac = getattr(self, name)
            if not 0.0 <= frac <= 1.0:
                raise InvalidSpec(f"{name} must be in [0, 1], got {frac}")


@dataclass(frozen=True)
class GroundTruth:
    """Expected pipeline results for a generated trace.

    ``rates`` pairs each valid job's id with its exact rate in bytes per
    second, in trace order. ``expected_valid`` is the number of rates, so
    it is not a constructor argument; ``expected_omitted`` must be an
    integer >= 0.
    """

    expected_valid: int = field(init=False)
    expected_omitted: int
    rates: tuple[tuple[str, Fraction], ...]

    def __post_init__(self):
        _require_counts([("expected_omitted", self.expected_omitted)])
        object.__setattr__(self, "expected_valid", len(self.rates))


def iter_jobs(spec: GenSpec) -> Iterator[tuple[JobRecord, Fraction | None]]:
    """Yield each synthesized job as it is drawn, with its exact rate.

    Jobs come out ordered by submit time, one ``(record, rate)`` pair
    each. A job is valid when none of its start, end, and memory fields
    were knocked out; its rate is then ``1000 * mem_kb * 1024 /
    runtime_ms`` in bytes per second as a Fraction, and None otherwise.
    Nothing is kept between jobs, so memory stays flat at any count. A
    job that cannot be built, such as one drawn outside the timestamp
    span, raises InvalidSpec naming it.

    The jobs are those of :func:`_jobs` from the first job to the last,
    each rate built from the numerator and denominator it gives. That
    costs one generator resumption per job on top of :func:`_jobs`' own;
    ``tracebw gen`` writes from :func:`_jobs` directly, so it builds no
    Fraction and never imports :mod:`fractions`.
    """
    from fractions import Fraction

    return ((record, None if numerator is None else Fraction(numerator, denominator))
            for record, numerator, denominator in _jobs(spec, 0, spec.count))


def _jobs(spec: GenSpec, first: int,
          stop: int) -> Iterator[tuple[JobRecord, int | None, int | None]]:
    """Yield jobs ``first`` to ``stop - 1``, numbered from 0, of
    :func:`iter_jobs`, each as ``(record, numerator, denominator)``.

    A valid job's pair is its exact rate unreduced, ``1000 * mem_kb * 1024``
    over ``runtime_ms``, which is at least 1; reduced by their ``math.gcd``
    the two are the numerator and denominator of :func:`iter_jobs`' Fraction.
    Any other job gives ``(record, None, None)``.

    All randomness comes from ``Random(spec.seed).random()`` alone, the
    one method whose stream CPython keeps stable across versions. Each
    job's eight draws are written out below in the module's fixed order;
    another method, order or float expression would change every fixture.

    A range that starts at a later job gets there alone, because only the
    submit time carries from one job to the next. For each earlier job it
    makes the gap draw, adds the rounded gap to the submit time, and skips
    the other seven draws with one ``getrandbits(448)``: each ``random()``
    consumes two 32-bit Mersenne Twister words, and ``getrandbits(448)``
    consumes the same 14 (pinned by a test).
    """
    rng = random.Random(spec.seed)
    draw = rng.random
    log = math.log
    mean_gap = spec.inter_arrival_mean_ms
    wait_span = _MAX_WAIT_MS + 1
    runtime_min = spec.runtime_min_ms
    runtime_span = spec.runtime_max_ms - runtime_min + 1
    mem_choices = spec.mem_kb_choices
    n_mem = len(mem_choices)
    procs_choices = spec.procs_choices
    n_procs = len(procs_choices)
    # The labels repeat with the job number, so each is formatted once here,
    # by a list comprehension: one call each, where a generator resumes per item.
    queues = ["q" + str(procs) for procs in procs_choices]
    users = [f"u{k:03d}" for k in range(1, 24)]
    projects = [f"p{k:02d}" for k in range(1, 8)]
    apps = [f"app{k}" for k in range(1, 12)]
    start_frac = spec.missing_start_frac
    end_frac = spec.missing_end_frac
    mem_frac = spec.missing_mem_frac
    submit_ms = BASE_EPOCH_MS
    skip = rng.getrandbits
    for _ in range(first):
        submit_ms += round(-mean_gap * log(1.0 - draw()))
        skip(448)
    for i in range(first, stop):
        try:
            submit_ms += round(-mean_gap * log(1.0 - draw()))
            wait_ms = int(draw() * wait_span)
            runtime_ms = runtime_min + int(draw() * runtime_span)
            mem_kb = mem_choices[int(draw() * n_mem)]
            pick = int(draw() * n_procs)
            procs = procs_choices[pick]
            drop_start = draw() < start_frac
            drop_end = draw() < end_frac
            drop_mem = draw() < mem_frac

            start_ms = submit_ms + wait_ms
            cpu_s = procs * (runtime_ms / MS_PER_S)
            mem = None if drop_mem else mem_kb
            record = JobRecord(
                "j" + str(i + 1).zfill(6), Timestamp(submit_ms),
                None if drop_start else Timestamp(start_ms),
                None if drop_end else Timestamp(start_ms + runtime_ms),
                procs, procs, cpu_s, cpu_s, mem, mem, queues[pick], False,
                users[i % 23], projects[i % 7], apps[i % 11], 0)
        except (ValueError, OverflowError) as exc:
            raise InvalidSpec(f"job {i + 1} leaves the timestamp span: {exc}") from exc
        if drop_start or drop_end or drop_mem:
            yield record, None, None
        else:
            yield record, MS_PER_S * mem_kb * BYTES_PER_KB, runtime_ms


def generate(spec: GenSpec) -> tuple[list[JobRecord], GroundTruth]:
    """Collect every job of :func:`iter_jobs` into a list plus its ground truth."""
    records: list[JobRecord] = []
    rates: list[tuple[str, Fraction]] = []
    for record, rate in iter_jobs(spec):
        records.append(record)
        if rate is not None:
            rates.append((record.job_id, rate))
    return records, GroundTruth(expected_omitted=spec.count - len(rates), rates=tuple(rates))


def format_sidecar_header(expected_valid: int, expected_omitted: int) -> str:
    """The sidecar's two header lines, newlines included."""
    return f"expected_valid={expected_valid}\nexpected_omitted={expected_omitted}\n"


def format_sidecar_line(job_id: str, numerator: int, denominator: int) -> str:
    """One valid job's sidecar line, ``job_id numerator/denominator`` and a
    newline; the caller passes the rate in lowest terms."""
    return f"{job_id} {numerator}/{denominator}\n"


def write_sidecar(truth: GroundTruth, sink: IO[str]) -> None:
    """Write ground truth as line-oriented text.

    Two key=value lines (expected_valid, expected_omitted) followed by
    one ``job_id numerator/denominator`` line per valid job.
    """
    sink.write(format_sidecar_header(truth.expected_valid, truth.expected_omitted))
    for job_id, value in truth.rates:
        sink.write(format_sidecar_line(job_id, value.numerator, value.denominator))


def _header_count(lines: list[str], line_no: int, key: str) -> int:
    line = lines[line_no - 1] if line_no <= len(lines) else ""
    name, sep, value = line.partition("=")
    if name == key and sep:
        try:
            return int(value)
        except ValueError:
            pass
    raise MalformedSidecar(line_no, f"expected {key}=<count>, got {line!r}")


def read_sidecar(source: Iterable[str]) -> GroundTruth:
    """Parse a ground-truth sidecar written by write_sidecar.

    Raises MalformedSidecar, with the line number, for a missing or
    malformed header line (each holds an integer >= 0), for a rate line
    that is not ``job_id numerator/denominator`` with integers and a
    nonzero denominator, and (naming line 1) for an ``expected_valid``
    that is not the number of rate lines. Blank rate lines are skipped.
    """
    from fractions import Fraction

    lines = [line.rstrip("\n") for line in source]
    expected_valid = _header_count(lines, 1, "expected_valid")
    expected_omitted = _header_count(lines, 2, "expected_omitted")
    rates = []
    for line_no, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        job_id, _, value = line.partition(" ")
        numerator, _, denominator = value.partition("/")
        try:
            rates.append((job_id, Fraction(int(numerator), int(denominator))))
        except (ValueError, ZeroDivisionError):
            raise MalformedSidecar(
                line_no, f"expected 'job_id numerator/denominator', got {line!r}") from None
    if expected_valid != len(rates):
        raise MalformedSidecar(
            1, f"expected_valid={expected_valid}, but the rate line count is {len(rates)}")
    try:
        return GroundTruth(expected_omitted, tuple(rates))
    except ValueError:
        raise MalformedSidecar(
            2, f"expected expected_omitted=<count>, got {lines[1]!r}") from None


def load_genspec(source: Iterable[str]) -> GenSpec:
    """Read a GenSpec from key=value lines.

    The keys are GenSpec's fields, each read as the type of its default:
    an integer, a real, or a list of comma-separated integers. Unset keys
    keep their defaults; ``#`` starts a comment. Anything unrecognized or
    unparseable raises InvalidSpec.
    """
    kinds = {f.name: type(f.default) for f in fields(GenSpec)}
    overrides: dict = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep:
            raise InvalidSpec(f"line {line_no}: expected key=value, got {raw!r}")
        kind = kinds.get(key)
        if kind is None:
            raise InvalidSpec(f"line {line_no}: unknown key {key!r}")
        try:
            if kind is tuple:
                overrides[key] = tuple(int(item) for item in value.split(","))
            else:
                overrides[key] = kind(value)
        except ValueError as exc:
            raise InvalidSpec(f"line {line_no}: bad value for {key}: {value!r}") from exc
    return GenSpec(**overrides)

"""Domain types for accounting-trace records and per-job bandwidth results.

Everything in this module is an immutable value type: construction
validates the type's invariants, and instances are safe to share between
threads. There is no I/O here. Missing data is a distinct absent state
(``None``), never a sentinel number; the ``-1`` sentinel exists only at
the file-format boundary (see :mod:`tracebw.parsing`).

Timestamps are integer milliseconds since the Unix epoch, interpreted as
UTC (source logs do not state a timezone; UTC is the documented
assumption). Source logs carry second- or day-granularity values; those
are widened to milliseconds on ingest so that duration arithmetic has a
single resolution throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping

MS_PER_S = 1000

#: Relative tolerance for the rate * duration == 1000 * n_bytes identity.
RECONSTRUCTION_RTOL = 1e-12


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A point in time: integer milliseconds since the Unix epoch, UTC."""

    epoch_ms: int

    def __post_init__(self):
        if not isinstance(self.epoch_ms, int):
            raise ValueError(f"epoch_ms must be an integer, got {type(self.epoch_ms).__name__}")

    @property
    def second_aligned(self) -> bool:
        return self.epoch_ms % MS_PER_S == 0


_RESOURCE_FIELDS = ("req_procs", "used_procs", "req_cpu_s", "used_cpu_s",
                    "req_mem_kb", "used_mem_kb")


def _raise_first_negative(values: tuple) -> None:
    """Raise the ValueError that names the first resource field below zero."""
    for name, value in zip(_RESOURCE_FIELDS, values):
        # None is "absent" and always fine; NaN fails the comparison and is rejected too.
        if value is not None and not value >= 0:
            raise ValueError(f"{name} must be >= 0 when present, got {value!r}")


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One job from an accounting log.

    Field order mirrors the 16-column log layout: identifier, the three
    timestamps, processor counts, CPU seconds, memory in Kbytes, then the
    opaque descriptive fields. ``start_time`` and ``end_time`` are
    independently optional and ``end < start`` is representable; negative
    durations are data at this layer, not errors.
    """

    job_id: str
    submit_time: Timestamp | None = None
    start_time: Timestamp | None = None
    end_time: Timestamp | None = None
    req_procs: int | None = None
    used_procs: int | None = None
    req_cpu_s: float | None = None
    used_cpu_s: float | None = None
    req_mem_kb: int | None = None
    used_mem_kb: int | None = None
    queue: str | None = None
    dedicated: bool | None = None
    user: str | None = None
    project: str | None = None
    executable: str | None = None
    exit_code: int | None = None

    def __post_init__(self):
        # The parsers refuse negative cells first, with the negative-value
        # reason and its column; this guards the public constructor in one
        # scan, and names a field only once a value fails.
        values = (self.req_procs, self.used_procs, self.req_cpu_s, self.used_cpu_s,
                  self.req_mem_kb, self.used_mem_kb)
        for value in values:
            if value is not None and not value >= 0:
                _raise_first_negative(values)


class RateFlag(Enum):
    """Provenance markers attached to a rate sample."""

    NEGATIVE_DURATION = "NEGATIVE_DURATION"
    CARRIED_FORWARD_START = "CARRIED_FORWARD_START"


@dataclass(frozen=True, slots=True)
class RateSample:
    """One job's bandwidth result.

    ``rate_bytes_per_s`` is present exactly when ``duration_ms`` is
    nonzero, and then satisfies ``rate * duration_ms == 1000 * n_bytes``
    to within :data:`RECONSTRUCTION_RTOL` relative error. Construction
    rejects anything else.
    """

    job_id: str
    start: Timestamp
    end: Timestamp
    n_bytes: int
    duration_ms: int
    rate_bytes_per_s: float | None
    flags: frozenset = frozenset()

    def __post_init__(self):
        if self.n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {self.n_bytes}")
        if self.duration_ms != self.end.epoch_ms - self.start.epoch_ms:
            raise ValueError("duration_ms must equal end - start in milliseconds")
        if (self.rate_bytes_per_s is None) != (self.duration_ms == 0):
            raise ValueError("rate must be present exactly when duration_ms != 0")
        flags = self.flags
        # Enum hashing runs in Python, so an empty set skips the lookup.
        if (RateFlag.NEGATIVE_DURATION in flags if flags else False) != (self.duration_ms < 0):
            raise ValueError("NEGATIVE_DURATION flag must match the sign of duration_ms")
        if self.rate_bytes_per_s is not None:
            lhs = self.rate_bytes_per_s * self.duration_ms
            rhs = MS_PER_S * self.n_bytes
            if abs(lhs - rhs) > RECONSTRUCTION_RTOL * max(abs(lhs), abs(rhs)):
                raise ValueError(
                    f"inconsistent sample: {self.rate_bytes_per_s} B/s * {self.duration_ms} ms "
                    f"!= 1000 * {self.n_bytes} B"
                )
        if type(flags) is not frozenset:
            object.__setattr__(self, "flags", frozenset(flags))


@dataclass(frozen=True)
class ParseReport:
    """Line accounting for one parse session.

    ``total_lines`` counts every physical line seen; ``parsed`` and
    ``malformed`` partition the record lines, and whatever remains is
    comment/blank lines (derived, never negative). ``reasons`` buckets
    malformed lines by reason code. A parsed record may still lack the
    data an estimate needs; that partition happens downstream in
    :mod:`tracebw.bandwidth`.
    """

    total_lines: int = 0
    parsed: int = 0
    malformed: int = 0
    reasons: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("total_lines", "parsed", "malformed"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.comment_blank_lines < 0:
            raise ValueError("counted record lines exceed total_lines")
        if any(count < 0 for count in self.reasons.values()):
            raise ValueError("reason counts must be non-negative")
        object.__setattr__(self, "reasons", MappingProxyType(dict(self.reasons)))

    @property
    def record_lines(self) -> int:
        """Lines that held (or should have held) a record."""
        return self.parsed + self.malformed

    @property
    def comment_blank_lines(self) -> int:
        return self.total_lines - self.record_lines


_STAT_FIELDS = ("min", "max", "mean", "median", "p95")


@dataclass(frozen=True)
class TraceSummary:
    """Aggregate statistics over a set of rate samples.

    ``n_rates`` counts samples with a defined rate; statistics are over
    those, expressed in the configured output unit, and are all absent
    when ``n_rates == 0``. Undefined (zero-duration) samples are counted
    separately in ``n_undefined``.
    """

    n_rates: int
    n_negative: int
    n_undefined: int
    min: float | None = None
    max: float | None = None
    mean: float | None = None
    median: float | None = None
    p95: float | None = None

    def __post_init__(self):
        for name in ("n_rates", "n_negative", "n_undefined"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.n_negative > self.n_rates:
            raise ValueError("n_negative cannot exceed n_rates")
        stats = [getattr(self, name) for name in _STAT_FIELDS]
        if self.n_rates == 0:
            if any(s is not None for s in stats):
                raise ValueError("statistics must be absent when there are no rates")
        else:
            if any(s is None for s in stats):
                raise ValueError("statistics must be present when n_rates >= 1")
            if not (self.min <= self.median <= self.max):
                raise ValueError("expected min <= median <= max")

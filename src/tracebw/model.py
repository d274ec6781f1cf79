"""Domain types for accounting-trace records and per-job bandwidth results.

Everything in this module is an immutable value type: construction
validates the type's invariants, and instances are safe to share between
threads. A count that follows from other fields (``ParseReport.malformed``)
is derived at construction, never passed in. There is no I/O here.
Missing data is a distinct absent state (``None``), never a sentinel
number; the ``-1`` sentinel exists only at the file-format boundary (see
:mod:`tracebw.parsing`).

``JobRecord`` and ``RateSample``, built once per job on the read path, are
frozen dataclasses over a ``tuple`` of their fields in field order: a
hand-written ``__new__`` checks its arguments and then makes the instance
in one ``tuple.__new__`` call, and each field reads through a C getter of
its item. Their base, ``_Fields``, keeps what a tuple would break: equality
only within one class, no order, pickling through the checks. ``Timestamp``
keeps one slot, set through its descriptor: one call is cheaper than
``tuple.__new__``; its ``__reduce__`` copies through ``__init__``. Every
instance, the parsers' included, passes the checks.

Timestamps are integer milliseconds since the Unix epoch, UTC (source
logs state no timezone; UTC is the documented assumption), widened on
ingest from the logs' seconds or days so that durations have a single
resolution. ``Timestamp`` alone checks its invariant, the span a civil
cell can name: 0001-01-01 00:00:00.000 .. 9999-12-31 23:59:59.999 UTC,
so every instance can be written (see :mod:`tracebw.timefmt`). The span's
bounds and the epoch's day ordinal are integer constants, equal to what
``datetime.date`` gives, so that importing this module does not import
``datetime``; only a run that reads or writes a civil date does.
"""

from __future__ import annotations

from collections import _tuplegetter  # C, or property(itemgetter) where C is missing
from dataclasses import dataclass, field, fields
from enum import Enum
from math import inf
from types import MappingProxyType
from typing import Iterable, Mapping

MS_PER_S = 1000
_MS_PER_DAY = 86_400_000
_EPOCH_ORDINAL = 719_163  # date(1970, 1, 1).toordinal()

# The span of a timestamp, in epoch milliseconds: the first and the last
# millisecond of the days a date can hold, ordinals 1 (date.min) to
# 3,652,059 (date.max).
_FIRST_MS = (1 - _EPOCH_ORDINAL) * _MS_PER_DAY
_LAST_MS = (3_652_059 + 1 - _EPOCH_ORDINAL) * _MS_PER_DAY - 1

# A signed 64-bit field, the widest an accounting system stores; it keeps
# every rate finite, even after per-processor memory scaling.
_MAX_COUNT = 2**63 - 1

#: Relative tolerance for the rate * duration == 1000 * n_bytes identity.
RECONSTRUCTION_RTOL = 1e-12

_new_tuple = tuple.__new__


class _Fields(tuple):
    """Base of the value types stored as a tuple of their fields, in field order."""

    __slots__ = ()

    def __eq__(self, other):  # a dataclass's: only within one class
        if type(other) is type(self):
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, where tuple's would compare items
    __hash__ = tuple.__hash__  # the dataclass's hash of the fields' tuple

    def __lt__(self, other):  # no order, not even a tuple's
        raise TypeError(f"{type(self).__name__} has no order")

    __le__ = __gt__ = __ge__ = __lt__

    def __getnewargs__(self):  # pickle and copy rebuild through the checked __new__
        return tuple(self)


def _tuple_dataclass(cls):
    """A frozen dataclass over ``_Fields``, each field read by a getter of its item."""
    cls = dataclass(frozen=True, init=False, eq=False)(cls)
    for index, f in enumerate(fields(cls)):  # each getter replaces the field's default
        setattr(cls, f.name, _tuplegetter(index, f"Field {index}: {f.name}"))
    return cls


@dataclass(frozen=True, order=True, init=False)
class Timestamp:
    """A point in time: integer milliseconds since the Unix epoch, UTC."""

    # By hand: slots=True remakes the class, and the frozen __setattr__ names the old one.
    __slots__ = ("epoch_ms",)
    epoch_ms: int

    def __init__(self, epoch_ms: int):
        if not isinstance(epoch_ms, int):
            raise ValueError(f"epoch_ms must be an integer, got {type(epoch_ms).__name__}")
        if not _FIRST_MS <= epoch_ms <= _LAST_MS:
            raise ValueError(f"epoch_ms {epoch_ms} is outside 0001-01-01 .. 9999-12-31 UTC")
        _set_timestamp_epoch_ms(self, epoch_ms)

    def __reduce__(self):  # pickle and copy rebuild through the checked __init__
        return type(self), (self.epoch_ms,)


_set_timestamp_epoch_ms = Timestamp.__dict__["epoch_ms"].__set__


_RESOURCE_FIELDS = ("req_procs", "used_procs", "req_cpu_s", "used_cpu_s",
                    "req_mem_kb", "used_mem_kb")


def _raise_first_negative(values: tuple) -> None:
    """Raise the ValueError that names the first resource field below zero or not finite."""
    for name, value in zip(_RESOURCE_FIELDS, values):
        # None is "absent" and always fine; NaN fails the comparison and is rejected too.
        if value is not None and not 0 <= value < inf:
            raise ValueError(f"{name} must be >= 0 when present, got {value!r}")


@_tuple_dataclass
class JobRecord(_Fields):
    """One job from an accounting log.

    Field order mirrors the 16-column log layout: identifier, the three
    timestamps, processor counts, CPU seconds, memory in Kbytes, then the
    opaque descriptive fields. ``start_time`` and ``end_time`` are
    independently optional and ``end < start`` is representable; negative
    durations are data at this layer, not errors. Processor, CPU-second
    and memory values must be finite and >= 0 when present.
    """

    __slots__ = ()
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

    def __new__(cls, job_id: str, submit_time: Timestamp | None = None,
                start_time: Timestamp | None = None, end_time: Timestamp | None = None,
                req_procs: int | None = None, used_procs: int | None = None,
                req_cpu_s: float | None = None, used_cpu_s: float | None = None,
                req_mem_kb: int | None = None, used_mem_kb: int | None = None,
                queue: str | None = None, dedicated: bool | None = None,
                user: str | None = None, project: str | None = None,
                executable: str | None = None, exit_code: int | None = None):
        # The parsers refuse negative and infinite cells first, with their
        # reason and column; this guards the public constructor in one scan,
        # and names a field only once a value fails.
        values = (req_procs, used_procs, req_cpu_s, used_cpu_s, req_mem_kb, used_mem_kb)
        for value in values:
            if value is not None and not 0 <= value < inf:
                _raise_first_negative(values)
        return _new_tuple(cls, (job_id, submit_time, start_time, end_time, req_procs,
                                used_procs, req_cpu_s, used_cpu_s, req_mem_kb, used_mem_kb,
                                queue, dedicated, user, project, executable, exit_code))


class RateFlag(Enum):
    """Provenance markers attached to a rate sample."""

    NEGATIVE_DURATION = "NEGATIVE_DURATION"
    CARRIED_FORWARD_START = "CARRIED_FORWARD_START"


@_tuple_dataclass
class RateSample(_Fields):
    """One job's bandwidth result.

    ``rate_bytes_per_s`` is present exactly when ``duration_ms`` is
    nonzero, and then satisfies ``rate * duration_ms == 1000 * n_bytes``
    to within :data:`RECONSTRUCTION_RTOL` relative error. Construction
    rejects anything else.
    """

    __slots__ = ()
    job_id: str
    start: Timestamp
    end: Timestamp
    n_bytes: int
    duration_ms: int
    rate_bytes_per_s: float | None
    flags: frozenset = frozenset()

    def __new__(cls, job_id: str, start: Timestamp, end: Timestamp, n_bytes: int,
                duration_ms: int, rate_bytes_per_s: float | None, flags: frozenset = frozenset()):
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if duration_ms != end.epoch_ms - start.epoch_ms:
            raise ValueError("duration_ms must equal end - start in milliseconds")
        if (rate_bytes_per_s is None) != (duration_ms == 0):
            raise ValueError("rate must be present exactly when duration_ms != 0")
        # Enum hashing runs in Python, so an empty set skips the lookup.
        if (RateFlag.NEGATIVE_DURATION in flags if flags else False) != (duration_ms < 0):
            raise ValueError("NEGATIVE_DURATION flag must match the sign of duration_ms")
        if rate_bytes_per_s is not None:
            lhs = rate_bytes_per_s * duration_ms
            rhs = MS_PER_S * n_bytes
            # Written so that a NaN or an infinite product fails it too.
            if not (abs(lhs - rhs) <= RECONSTRUCTION_RTOL * max(abs(lhs), abs(rhs)) < inf):
                raise ValueError(
                    f"inconsistent sample: {rate_bytes_per_s} B/s * {duration_ms} ms "
                    f"!= 1000 * {n_bytes} B"
                )
        if type(flags) is not frozenset:
            flags = frozenset(flags)
        return _new_tuple(cls, (job_id, start, end, n_bytes, duration_ms,
                                rate_bytes_per_s, flags))


def _require_counts(counts: Iterable[tuple[str, object]]) -> None:
    """Raise the ValueError that names the first count not an integer >= 0."""
    for name, value in counts:
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ParseReport:
    """Line accounting for one parse session.

    ``total_lines`` counts every physical line seen; ``parsed`` and
    ``malformed`` partition the record lines, and whatever remains is
    comment/blank lines (derived, never negative). ``reasons`` buckets
    malformed lines by reason code, and ``malformed`` is their sum, so it
    is not a constructor argument. A parsed record may still lack the
    data an estimate needs; that partition happens downstream in
    :mod:`tracebw.bandwidth`.
    """

    total_lines: int = 0
    parsed: int = 0
    malformed: int = field(init=False)
    reasons: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        reasons = dict(self.reasons)
        _require_counts([("total_lines", self.total_lines), ("parsed", self.parsed),
                         *((f"reasons[{code!r}]", n) for code, n in reasons.items())])
        object.__setattr__(self, "malformed", sum(reasons.values()))
        object.__setattr__(self, "reasons", MappingProxyType(reasons))
        if self.comment_blank_lines < 0:
            raise ValueError("counted record lines exceed total_lines")

    @property
    def record_lines(self) -> int:
        """Lines that held (or should have held) a record."""
        return self.parsed + self.malformed

    @property
    def comment_blank_lines(self) -> int:
        return self.total_lines - self.record_lines


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
        _require_counts([("n_rates", self.n_rates), ("n_negative", self.n_negative),
                         ("n_undefined", self.n_undefined)])
        if self.n_negative > self.n_rates:
            raise ValueError("n_negative cannot exceed n_rates")
        stats = (self.min, self.max, self.mean, self.median, self.p95)
        if self.n_rates == 0:
            if any(s is not None for s in stats):
                raise ValueError("statistics must be absent when there are no rates")
        else:
            if any(s is None for s in stats):
                raise ValueError("statistics must be present when n_rates >= 1")
            if not (self.min <= self.median <= self.max):
                raise ValueError("expected min <= median <= max")

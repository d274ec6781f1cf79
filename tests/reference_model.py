"""Slotted-dataclass references for ``JobRecord`` and ``RateSample``, for
differential tests.

Deliberately plain: each is a frozen dataclass with slots and the
generated ``__init__``, equality, hashing and ``repr``, and a
``__post_init__`` that makes the same checks, with the same messages, as
:mod:`tracebw.model`. ``tracebw.model`` stores its instances as tuples
instead; everything a caller can see besides must be the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from tracebw import RateFlag, Timestamp
from tracebw.model import MS_PER_S, RECONSTRUCTION_RTOL

_RESOURCE_FIELDS = ("req_procs", "used_procs", "req_cpu_s", "used_cpu_s",
                    "req_mem_kb", "used_mem_kb")


@dataclass(frozen=True, slots=True)
class JobRecord:
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
        for name in _RESOURCE_FIELDS:
            value = getattr(self, name)
            if value is not None and not 0 <= value < inf:
                raise ValueError(f"{name} must be >= 0 when present, got {value!r}")


@dataclass(frozen=True, slots=True)
class RateSample:
    job_id: str
    start: Timestamp
    end: Timestamp
    n_bytes: int
    duration_ms: int
    rate_bytes_per_s: float | None
    flags: frozenset = frozenset()

    def __post_init__(self):
        n_bytes, duration_ms, rate = self.n_bytes, self.duration_ms, self.rate_bytes_per_s
        if n_bytes < 0:
            raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
        if duration_ms != self.end.epoch_ms - self.start.epoch_ms:
            raise ValueError("duration_ms must equal end - start in milliseconds")
        if (rate is None) != (duration_ms == 0):
            raise ValueError("rate must be present exactly when duration_ms != 0")
        if (RateFlag.NEGATIVE_DURATION in self.flags) != (duration_ms < 0):
            raise ValueError("NEGATIVE_DURATION flag must match the sign of duration_ms")
        if rate is not None:
            lhs = rate * duration_ms
            rhs = MS_PER_S * n_bytes
            if not (abs(lhs - rhs) <= RECONSTRUCTION_RTOL * max(abs(lhs), abs(rhs)) < inf):
                raise ValueError(f"inconsistent sample: {rate} B/s * {duration_ms} ms "
                                 f"!= 1000 * {n_bytes} B")
        object.__setattr__(self, "flags", frozenset(self.flags))

"""Per-job bandwidth estimation over parsed trace records.

A job's bandwidth is its memory footprint divided by its wall-clock
duration: ``1000 * n_bytes / duration_ms`` bytes per second. The byte
count comes from the requested-memory field by default (used memory is
the documented alternative), converted from Kbytes. Jobs missing a start
time, end time, or the selected memory field are partitioned out rather
than estimated.

Negative durations occur in real logs (end before start) and are kept,
flagged, and produce negative rates; zero durations make the estimate
undefined rather than infinite. An optional carry-forward rule fills a
missing start time from the immediately preceding record's end time
before the readiness test; it is off by default, matching the batch
policy of simply omitting incomplete jobs.

The readiness test and carry-forward live in one private per-record
pass that both :func:`iter_rates` and :func:`partition_jobs` run. All
operations are pure functions over immutable inputs. Without
carry-forward the per-record computation is an order-preserving map;
with it the pass is sequential by contract.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator

from .model import MS_PER_S, JobRecord, RateFlag, RateSample, Timestamp

BYTES_PER_KB = 1024


class MemorySource(Enum):
    """Which memory field supplies the byte count."""

    REQUESTED = "requested"
    USED = "used"


class MbBase(Enum):
    """Divisor that turns bytes/second into Mbytes/second."""

    BINARY = 1048576
    DECIMAL = 1000000

    def __init__(self, divisor: int):
        # A plain attribute: it is read once per output row.
        self.divisor = divisor


# The flag set of a sample, indexed [carried][negative duration]: every sample
# shares one of these four instead of building its own.
_FLAGS = (
    (frozenset(), frozenset({RateFlag.NEGATIVE_DURATION})),
    (frozenset({RateFlag.CARRIED_FORWARD_START}),
     frozenset({RateFlag.CARRIED_FORWARD_START, RateFlag.NEGATIVE_DURATION})),
)


def select_bytes(record: JobRecord, source: MemorySource) -> int | None:
    """Byte count for a record, or None when the selected field is absent."""
    kb = record.req_mem_kb if source is MemorySource.REQUESTED else record.used_mem_kb
    return None if kb is None else kb * BYTES_PER_KB


def duration_ms(start: Timestamp, end: Timestamp) -> int:
    """Elapsed milliseconds from start to end; negative when end precedes start."""
    return end.epoch_ms - start.epoch_ms


def rate(n_bytes: int, duration: int) -> float | None:
    """Bandwidth in bytes/second: 1000 * n_bytes / duration.

    ``duration`` is in milliseconds and may be negative, giving a
    negative rate. A zero duration has no defined rate and returns None.
    """
    if n_bytes < 0:
        raise ValueError(f"n_bytes must be >= 0, got {n_bytes}")
    if duration == 0:
        return None
    if n_bytes == 0:
        return 0.0
    return MS_PER_S * n_bytes / duration


def to_output_unit(rate_bps: float, base: MbBase) -> float:
    """Convert bytes/second to Mbytes/second under the chosen Mbyte."""
    return rate_bps / base.divisor


def _resolved(records: Iterable[JobRecord], source: MemorySource, carry_forward: bool
              ) -> Iterator[tuple[JobRecord, bool, Timestamp | None, int | None, bool]]:
    """The per-record pass: ``(record, ready, start, n_bytes, carried)`` in input order.

    With ``carry_forward`` a missing start borrows the immediately
    preceding record's end time, whether or not that record was ready;
    ``carried`` says it did. A record is bandwidth-ready when its
    (resolved) start, its end and the selected memory field are present.
    """
    prev_end: Timestamp | None = None
    for record in records:
        start = record.start_time
        carried = False
        if start is None and carry_forward and prev_end is not None:
            start = prev_end
            carried = True
        end = record.end_time
        n_bytes = select_bytes(record, source)
        ready = start is not None and end is not None and n_bytes is not None
        yield record, ready, start, n_bytes, carried
        prev_end = end


def partition_jobs(records: Iterable[JobRecord],
                   source: MemorySource) -> tuple[list[JobRecord], list[JobRecord]]:
    """Split records into bandwidth-ready and omitted, preserving order.

    A record is valid when its start time, end time, and the selected
    memory field are all present; no start is carried forward here.
    """
    valid: list[JobRecord] = []
    omitted: list[JobRecord] = []
    for record, ready, *_ in _resolved(records, source, carry_forward=False):
        (valid if ready else omitted).append(record)
    return valid, omitted


def iter_rates(records: Iterable[JobRecord], source: MemorySource,
               carry_forward: bool = False) -> Iterator[RateSample]:
    """Streaming form of compute_rates: one sample per bandwidth-ready record.

    With ``carry_forward`` the missing-start substitution happens before
    the readiness test, so records must arrive in file order.
    """
    for record, ready, start, n_bytes, carried in _resolved(records, source, carry_forward):
        if not ready:
            continue
        end = record.end_time
        duration = duration_ms(start, end)
        yield RateSample(record.job_id, start, end, n_bytes, duration,
                         rate(n_bytes, duration), _FLAGS[carried][duration < 0])


def compute_rates(records: Iterable[JobRecord], source: MemorySource,
                  carry_forward: bool = False) -> list[RateSample]:
    """Run the full per-job pipeline; omitted records produce no sample."""
    return list(iter_rates(records, source, carry_forward))

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

The readiness test is one private predicate, which :func:`partition_jobs`
calls. Carry-forward lives only in the private loop behind
:func:`iter_rates`, which per record resolves the start, tests readiness
and yields the sample's 7 field values as a plain tuple;
:func:`partition_jobs` never carries forward. That loop writes out
:func:`select_bytes`, the readiness test, :func:`duration_ms` and
:func:`rate`, so it makes no Python call per record, and a test holds it
to the four. It reads each record by index, so it takes a JobRecord or
the plain tuple of its 16 fields. :func:`iter_rates` builds a RateSample
over each tuple; the CLI reads the tuples and builds none. All operations
are pure functions over immutable inputs. Without carry-forward the
per-record computation is an order-preserving map; with it the loop is
sequential by contract.
"""

from __future__ import annotations

from enum import Enum
from itertools import starmap
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
        # The value under the name callers read; a plain attribute, so reading it calls nothing.
        self.divisor = divisor


# The flag set of a sample, indexed [carried][negative duration]: every sample
# shares one of these four instead of building its own.
_FLAGS = (
    (frozenset(), frozenset({RateFlag.NEGATIVE_DURATION})),
    (frozenset({RateFlag.CARRIED_FORWARD_START}),
     frozenset({RateFlag.CARRIED_FORWARD_START, RateFlag.NEGATIVE_DURATION})),
)


def select_bytes(record: JobRecord, source: MemorySource) -> int | None:
    """Byte count for a record, or None when the selected field is absent.

    ``source`` must be a MemorySource member; its value (``"requested"``)
    or anything else raises ValueError. It runs once per record, so it
    converts nothing: the callers that take a value convert it once.
    """
    if source is MemorySource.REQUESTED:
        kb = record.req_mem_kb
    elif source is MemorySource.USED:
        kb = record.used_mem_kb
    else:
        raise ValueError(f"source must be a MemorySource member, got {source!r}")
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


def to_output_unit(rate_bps: float, base: MbBase | int) -> float:
    """Convert bytes/second to Mbytes/second; ``base`` is an MbBase or its divisor."""
    return rate_bps / MbBase(base).divisor


def _ready(start: Timestamp | None, end: Timestamp | None, n_bytes: int | None) -> bool:
    """The readiness rule: a start, an end and a byte count are all present.

    :func:`iter_rates` writes the same test out in its loop.
    """
    return start is not None and end is not None and n_bytes is not None


def partition_jobs(records: Iterable[JobRecord],
                   source: MemorySource | str) -> tuple[list[JobRecord], list[JobRecord]]:
    """Split records into bandwidth-ready and omitted, preserving order.

    A record is valid when its start time, end time, and the selected
    memory field are all present; no start is carried forward here.
    ``source`` is a MemorySource or its value; anything else raises
    ValueError.
    """
    source = MemorySource(source)
    valid: list[JobRecord] = []
    omitted: list[JobRecord] = []
    for record in records:
        ready = _ready(record.start_time, record.end_time, select_bytes(record, source))
        (valid if ready else omitted).append(record)
    return valid, omitted


def iter_rates(records: Iterable[JobRecord], source: MemorySource | str,
               carry_forward: bool = False) -> Iterator[RateSample]:
    """Streaming form of compute_rates: one sample per bandwidth-ready record.

    With ``carry_forward`` a missing start borrows the immediately
    preceding record's end time, whether or not that record was ready,
    before the readiness test; records must then arrive in file order.
    ``source`` is a MemorySource or its value; anything else raises
    ValueError when iteration starts.
    """
    return starmap(RateSample, _rates(records, source, carry_forward))


def _rates(records: Iterable[tuple], source: MemorySource | str,
           carry_forward: bool = False) -> Iterator[tuple]:
    """The samples of :func:`iter_rates`, each as the plain tuple of its 7
    field values in RateSample field order.

    ``records`` are JobRecords or plain tuples of their 16 field values in
    the same order; each is read by index.
    """
    source = MemorySource(source)
    memory = 8 if source is MemorySource.REQUESTED else 9  # req_mem_kb, used_mem_kb
    carry_forward = bool(carry_forward)  # so that ``carried`` can index _FLAGS
    prev_end: Timestamp | None = None
    # select_bytes, _ready, duration_ms and rate, written out: this loop makes
    # no Python call per record.
    for record in records:
        start = record[2]  # start_time
        end = record[3]  # end_time
        carried = start is None and prev_end is not None and carry_forward
        if carried:
            start = prev_end
        prev_end = end
        kb = record[memory]
        if start is None or end is None or kb is None:  # _ready's rule
            continue
        n_bytes = kb * BYTES_PER_KB
        duration = end.epoch_ms - start.epoch_ms
        if duration:
            # 0.0, never -0.0, for zero bytes over a negative duration.
            rate_bps = MS_PER_S * n_bytes / duration if n_bytes else 0.0
        else:
            rate_bps = None
        yield (record[0], start, end, n_bytes, duration, rate_bps,
               _FLAGS[carried][duration < 0])


def compute_rates(records: Iterable[JobRecord], source: MemorySource | str,
                  carry_forward: bool = False) -> list[RateSample]:
    """Run the full per-job pipeline; omitted records produce no sample."""
    return list(iter_rates(records, source, carry_forward))

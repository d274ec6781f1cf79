"""Estimator operations: selection, partitioning, the rate formula, carry-forward."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tracebw import (
    JobRecord,
    MbBase,
    MemorySource,
    RateFlag,
    Timestamp,
    TraceFormat,
    compute_rates,
    duration_ms,
    iter_rates,
    parse_trace,
    partition_jobs,
    rate,
    select_bytes,
    to_output_unit,
)

from .conftest import assert_rate_close, job_records, rational_rate
from .swf import format_swf_line
from .test_parsing import swf_jobs


def record(job_id="j", start=None, end=None, req_mem_kb=None, used_mem_kb=None, **kw):
    return JobRecord(
        job_id=job_id,
        start_time=None if start is None else Timestamp(start),
        end_time=None if end is None else Timestamp(end),
        req_mem_kb=req_mem_kb,
        used_mem_kb=used_mem_kb,
        **kw,
    )


class TestSelectBytes:
    def test_requested_kbytes_to_bytes(self):
        rec = record(req_mem_kb=32768)
        assert select_bytes(rec, MemorySource.REQUESTED) == 33554432

    def test_absent_field_is_absent(self):
        assert select_bytes(record(), MemorySource.REQUESTED) is None
        assert select_bytes(record(req_mem_kb=1), MemorySource.USED) is None

    def test_used_kbytes_to_bytes(self):
        assert select_bytes(record(used_mem_kb=1), MemorySource.USED) == 1024


class TestDuration:
    def test_subtraction(self):
        assert duration_ms(Timestamp(1000), Timestamp(3500)) == 2500

    def test_zero(self):
        assert duration_ms(Timestamp(42), Timestamp(42)) == 0

    def test_negative_is_representable(self):
        assert duration_ms(Timestamp(5000), Timestamp(4000)) == -1000


class TestRate:
    def test_one_second_unit_case(self):
        assert rate(1000, 1000) == 1000.0

    def test_matches_rational_oracle(self):
        # 1000 * 16777216 / 2000 is exactly 8388608
        expected = rational_rate(16777216, 2000)
        assert expected == Fraction(8388608)
        assert rate(16777216, 2000) == 8388608.0

    def test_zero_duration_is_undefined(self):
        assert rate(32768, 0) is None

    def test_negative_duration_gives_negative_rate(self):
        expected = rational_rate(32768, -4000)
        assert expected == Fraction(-8192)
        assert rate(32768, -4000) == -8192.0

    def test_zero_bytes_never_minus_zero(self):
        value = rate(0, -4000)
        assert value == 0.0
        assert str(value) == "0.0"

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            rate(-1, 1000)


class TestOutputUnit:
    def test_binary_definition(self):
        assert to_output_unit(1048576.0, MbBase.BINARY) == 1.0

    def test_decimal_definition(self):
        assert to_output_unit(1000000.0, MbBase.DECIMAL) == 1.0

    def test_hand_division(self):
        assert to_output_unit(8388608.0, MbBase.BINARY) == 8.0

    def test_members_by_value_and_divisor(self):
        assert MbBase(1048576) is MbBase.BINARY
        assert MbBase(1000000) is MbBase.DECIMAL
        assert MbBase.BINARY.divisor == 1048576
        assert MbBase.DECIMAL.divisor == 1000000


def resolve_start(records, idx):
    """Oracle for carry-forward on a list: records[idx]'s start, else its predecessor's end."""
    start = records[idx].start_time
    if start is None and idx >= 1:
        return records[idx - 1].end_time
    return start


# Records as an ARCHIVE18 trace gives them: ends derived from submit, wait
# and runtime, memory scaled by the processor count.
archive_records = st.lists(swf_jobs, max_size=30).map(
    lambda jobs: list(parse_trace([format_swf_line(job) for job in jobs], TraceFormat.ARCHIVE18)))


def carried(records):
    return compute_rates(records, MemorySource.REQUESTED, carry_forward=True)


class TestResolveStart:
    """How carry-forward resolves a start time, seen through compute_rates."""

    def test_present_start_wins(self):
        records = [record("a", start=0, end=100), record("b", start=50, end=300, req_mem_kb=1)]
        (sample,) = carried(records)
        assert sample.start == Timestamp(50)
        assert RateFlag.CARRIED_FORWARD_START not in sample.flags

    def test_borrows_predecessor_end(self):
        records = [record("a", start=0, end=100), record("b", end=300, req_mem_kb=1)]
        (sample,) = carried(records)
        assert sample.start == Timestamp(100)
        assert RateFlag.CARRIED_FORWARD_START in sample.flags

    def test_first_record_cannot_borrow(self):
        assert carried([record(end=300, req_mem_kb=1)]) == []

    def test_predecessor_without_end_gives_nothing(self):
        assert carried([record(req_mem_kb=1), record(end=300, req_mem_kb=1)]) == []

    def test_only_immediate_predecessor_consulted(self):
        records = [record(end=100, req_mem_kb=1), record(req_mem_kb=1),
                   record(end=300, req_mem_kb=1)]
        assert carried(records) == []


class TestPartition:
    def test_empty(self):
        assert partition_jobs([], MemorySource.REQUESTED) == ([], [])

    def test_deleted_starts_partition_out(self, thousand_jobs):
        # Oracle: delete start_time from a known index subset of 10 records.
        records, _ = thousand_jobs
        base = [dataclasses.replace(r, start_time=Timestamp(0), end_time=Timestamp(1),
                                    req_mem_kb=1, used_mem_kb=1)
                for r in records[:10]]
        deleted = {1, 4, 7}
        damaged = [dataclasses.replace(r, start_time=None) if i in deleted else r
                   for i, r in enumerate(base)]
        valid, omitted = partition_jobs(damaged, MemorySource.REQUESTED)
        assert len(valid) == 7
        assert len(omitted) == 3
        assert [r.job_id for r in omitted] == [base[i].job_id for i in sorted(deleted)]

    def test_never_carries_forward(self):
        records = [record(start=0, end=100, req_mem_kb=1), record(end=300, req_mem_kb=1)]
        assert partition_jobs(records, MemorySource.REQUESTED) == (records[:1], records[1:])

    @given(st.lists(job_records, max_size=30) | archive_records, st.sampled_from(MemorySource))
    def test_valid_records_are_the_ones_with_samples(self, records, source):
        valid, _ = partition_jobs(records, source)
        assert [r.job_id for r in valid] == [s.job_id for s in compute_rates(records, source)]

    def test_selected_memory_field_matters(self):
        rec = record(start=0, end=1, req_mem_kb=None, used_mem_kb=5)
        assert partition_jobs([rec], MemorySource.REQUESTED) == ([], [rec])
        assert partition_jobs([rec], MemorySource.USED) == ([rec], [])

    @given(st.lists(job_records, max_size=30))
    def test_conservation_and_order(self, records):
        valid, omitted = partition_jobs(records, MemorySource.REQUESTED)
        assert len(valid) + len(omitted) == len(records)
        position = {id(r): i for i, r in enumerate(records)}
        merged = sorted(valid + omitted, key=lambda r: position[id(r)])
        assert merged == records


class TestMemorySourceArgument:
    RECORDS = [record(start=0, end=1000, req_mem_kb=1, used_mem_kb=2)]

    @pytest.mark.parametrize("source", [MemorySource.REQUESTED, "requested"])
    def test_member_or_value_selects_the_field(self, source):
        (sample,) = compute_rates(self.RECORDS, source)
        assert sample.n_bytes == 1024
        assert partition_jobs([record(start=0, end=1, used_mem_kb=2)], source)[0] == []

    @pytest.mark.parametrize("source", ["REQUESTED", "req", None])
    def test_unknown_source_is_refused(self, source):
        with pytest.raises(ValueError):
            list(iter_rates(self.RECORDS, source))
        with pytest.raises(ValueError):
            partition_jobs(self.RECORDS, source)


class TestComputeRates:
    def test_single_record_pipeline(self):
        # 1000 * 33554432 / 32000 is exactly 1048576
        rec = record(start=0, end=32000, req_mem_kb=32768)
        (sample,) = compute_rates([rec], MemorySource.REQUESTED)
        assert sample.n_bytes == 33554432
        assert sample.duration_ms == 32000
        assert sample.rate_bytes_per_s == 1048576.0
        assert sample.flags == frozenset()

    def test_reversed_timestamps_flagged_negative(self):
        rec = record(start=32000, end=0, req_mem_kb=32768)
        (sample,) = compute_rates([rec], MemorySource.REQUESTED)
        assert RateFlag.NEGATIVE_DURATION in sample.flags
        assert sample.rate_bytes_per_s == -1048576.0

    def test_zero_duration_sample_has_no_rate(self):
        rec = record(start=500, end=500, req_mem_kb=1)
        (sample,) = compute_rates([rec], MemorySource.REQUESTED)
        assert sample.rate_bytes_per_s is None
        assert sample.duration_ms == 0

    def test_incomplete_records_produce_no_sample(self):
        records = [record(start=0, req_mem_kb=1), record(end=1, req_mem_kb=1),
                   record(start=0, end=1)]
        assert compute_rates(records, MemorySource.REQUESTED) == []

    def test_carry_forward_fills_missing_start(self):
        records = [record("a", start=0, end=100, req_mem_kb=1),
                   record("b", end=300, req_mem_kb=1)]
        samples = compute_rates(records, MemorySource.REQUESTED, carry_forward=True)
        assert [s.job_id for s in samples] == ["a", "b"]
        carried = samples[1]
        assert carried.start == Timestamp(100)
        assert carried.duration_ms == 200
        assert RateFlag.CARRIED_FORWARD_START in carried.flags

    def test_carry_forward_off_by_default(self):
        records = [record("a", start=0, end=100, req_mem_kb=1),
                   record("b", end=300, req_mem_kb=1)]
        samples = compute_rates(records, MemorySource.REQUESTED)
        assert [s.job_id for s in samples] == ["a"]

    def test_carry_borrows_even_from_omitted_predecessor(self):
        # Predecessor lacks memory (omitted) but its end time still carries.
        records = [record("a", start=0, end=100),
                   record("b", end=300, req_mem_kb=1)]
        samples = compute_rates(records, MemorySource.REQUESTED, carry_forward=True)
        assert [s.job_id for s in samples] == ["b"]
        assert samples[0].start == Timestamp(100)

    def test_carry_consults_immediate_predecessor_only(self):
        records = [record("a", start=0, end=100, req_mem_kb=1),
                   record("b", req_mem_kb=1),
                   record("c", end=900, req_mem_kb=1)]
        samples = compute_rates(records, MemorySource.REQUESTED, carry_forward=True)
        assert [s.job_id for s in samples] == ["a"]

    def test_used_memory_source(self):
        rec = record(start=0, end=1000, used_mem_kb=1)
        (sample,) = compute_rates([rec], MemorySource.USED)
        assert sample.n_bytes == 1024
        assert sample.rate_bytes_per_s == 1024.0

    def test_iter_rates_is_lazy(self):
        pulled = 0

        def records():
            nonlocal pulled
            for i in range(100):
                pulled += 1
                yield record(f"j{i}", start=0, end=1000, req_mem_kb=1)

        stream = iter_rates(records(), MemorySource.REQUESTED)
        next(stream)
        next(stream)
        assert pulled == 2

    @given(st.lists(job_records, max_size=20))
    def test_matches_resolve_start_on_lists(self, records):
        samples = compute_rates(records, MemorySource.REQUESTED, carry_forward=True)
        expected = []
        for idx, rec in enumerate(records):
            start = resolve_start(records, idx)
            if start is not None and rec.end_time is not None and rec.req_mem_kb is not None:
                expected.append((rec.job_id, start))
        assert [(s.job_id, s.start) for s in samples] == expected


# --- formula and pipeline properties ---------------------------------------

n_bytes_values = st.integers(min_value=0, max_value=2**40)
durations = st.integers(min_value=-10**9, max_value=10**9).filter(lambda d: d != 0)


@given(n_bytes_values, durations)
def test_rate_reconstruction_against_oracle(n, d):
    assert_rate_close(rate(n, d), rational_rate(n, d))


@given(n_bytes_values, durations, st.integers(min_value=0, max_value=1000))
def test_rate_linear_in_byte_count(n, d, k):
    scaled = rate(k * n, d)
    reference = k * rate(n, d)
    assert scaled == pytest.approx(reference, rel=1e-12)


@given(n_bytes_values, durations)
def test_rate_antisymmetric_in_duration(n, d):
    assert rate(n, -d) == -rate(n, d)


@given(n_bytes_values, durations)
def test_rate_sign_law(n, d):
    value = rate(n, d)
    assert (value > 0) == (n > 0 and d > 0)
    assert (value == 0) == (n == 0)


@given(st.lists(job_records, max_size=15))
def test_carry_forward_never_touches_present_starts(records):
    # Carry-forward only adds samples; the ones it does not flag are untouched.
    with_carry = compute_rates(records, MemorySource.REQUESTED, carry_forward=True)
    without = compute_rates(records, MemorySource.REQUESTED, carry_forward=False)
    non_carried = [s for s in with_carry if RateFlag.CARRIED_FORWARD_START not in s.flags]
    assert non_carried == without


@given(st.lists(job_records, max_size=15))
def test_carry_forward_is_read_as_a_bool(records):
    for flag, same in ((1, True), (0, False), ("yes", True), ("", False), (None, False)):
        assert (compute_rates(records, MemorySource.REQUESTED, carry_forward=flag)
                == compute_rates(records, MemorySource.REQUESTED, carry_forward=same))


@given(st.lists(job_records, max_size=15))
def test_without_carry_output_is_adjacency_independent(records):
    whole = compute_rates(records, MemorySource.REQUESTED)
    singletons = [s for rec in records
                  for s in compute_rates([rec], MemorySource.REQUESTED)]
    assert whole == singletons


def _argsort(values):
    return sorted(range(len(values)), key=values.__getitem__)


@given(st.lists(st.tuples(n_bytes_values, durations), min_size=1, max_size=30))
def test_rate_order_invariant_under_mb_base(pairs):
    rates_bps = [rate(n, d) for n, d in pairs]
    binary = [to_output_unit(r, MbBase.BINARY) for r in rates_bps]
    decimal = [to_output_unit(r, MbBase.DECIMAL) for r in rates_bps]
    # Rounding to decimal Mbytes can collapse sub-ulp near-ties; keep the
    # ordering question strict by requiring distinct converted values.
    assume(len(set(decimal)) == len(decimal))
    assert _argsort(binary) == _argsort(rates_bps)
    assert _argsort(decimal) == _argsort(rates_bps)

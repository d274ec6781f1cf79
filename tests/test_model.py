"""Construction-time invariants of the domain types."""

import copy
import dataclasses
import inspect
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracebw import (JobRecord, ParseReport, RateFlag, RateSample, Timestamp, TraceSummary,
                     rate)
from tracebw.model import _FIRST_MS, _LAST_MS

from .conftest import job_record_args, job_records, timestamps, tokens


@st.composite
def rate_sample_args(draw):
    """Keyword arguments of a valid RateSample, zero and negative durations included."""
    start = draw(timestamps)
    end = draw(st.just(start) | timestamps)
    n_bytes = draw(st.integers(0, 2**42))
    duration = end.epoch_ms - start.epoch_ms
    flags = {RateFlag.CARRIED_FORWARD_START} if draw(st.booleans()) else set()
    if duration < 0:
        flags.add(RateFlag.NEGATIVE_DURATION)
    return {"job_id": draw(tokens()), "start": start, "end": end, "n_bytes": n_bytes,
            "duration_ms": duration, "rate_bytes_per_s": rate(n_bytes, duration),
            "flags": frozenset(flags)}


VALUE_TYPES = [
    (Timestamp, st.fixed_dictionaries(
        {"epoch_ms": st.integers(min_value=_FIRST_MS, max_value=_LAST_MS)})),
    (JobRecord, job_record_args),
    (RateSample, rate_sample_args()),
]


class TestValueTypeConstruction:
    """Each value type's hand-written ``__init__`` against its dataclass fields."""

    @pytest.mark.parametrize("cls", [cls for cls, _ in VALUE_TYPES],
                             ids=[cls.__name__ for cls, _ in VALUE_TYPES])
    def test_signature_lists_the_fields_in_order(self, cls):
        params = list(inspect.signature(cls).parameters.values())
        assert [p.kind for p in params] == [inspect.Parameter.POSITIONAL_OR_KEYWORD] * len(params)
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("cls,args", VALUE_TYPES, ids=[cls.__name__ for cls, _ in VALUE_TYPES])
    @given(data=st.data())
    def test_each_field_reads_back_the_object_passed(self, cls, args, data):
        # Building the expected value with the same constructor would hide two
        # swapped slot setters, so each field is held to the very object passed.
        args = data.draw(args)
        names = [f.name for f in dataclasses.fields(cls)]
        for obj in (cls(*(args[name] for name in names)), cls(**args)):
            for name in names:
                assert getattr(obj, name) is args[name], name
            for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj),
                         dataclasses.replace(obj)):
                assert twin == obj and hash(twin) == hash(obj)


class TestTimestamp:
    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            Timestamp(1.5)

    def test_accepts_bool_and_int_subclasses(self):
        class Millis(int):
            pass

        assert Timestamp(True).epoch_ms == 1
        assert Timestamp(Millis(5)).epoch_ms == 5

    def test_ordering(self):
        assert Timestamp(1000) < Timestamp(1001)

    def test_wide_range_representable(self):
        # At least 1990..2100 must fit; the span goes well past that.
        Timestamp(631_152_000_000)
        Timestamp(4_102_444_800_000)

    def test_span_is_0001_to_9999(self):
        assert Timestamp(_FIRST_MS).epoch_ms == -62_135_596_800_000  # 0001-01-01 00:00:00.000
        assert Timestamp(_LAST_MS).epoch_ms == 253_402_300_799_999  # 9999-12-31 23:59:59.999

    @pytest.mark.parametrize("epoch_ms", [_FIRST_MS - 1, _LAST_MS + 1, 10**20, -10**20])
    def test_rejects_values_outside_the_span(self, epoch_ms):
        with pytest.raises(ValueError, match=f"^epoch_ms {epoch_ms} is outside "
                                             "0001-01-01 .. 9999-12-31 UTC$"):
            Timestamp(epoch_ms)

    def test_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Timestamp(0).epoch_ms = 1


class TestJobRecord:
    @pytest.mark.parametrize("field", ["req_procs", "used_procs", "req_cpu_s",
                                       "used_cpu_s", "req_mem_kb", "used_mem_kb"])
    def test_rejects_negative_resources(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 0 when present, got -3$"):
            JobRecord(job_id="j", **{field: -3})

    def test_names_the_first_negative_field_in_field_order(self):
        with pytest.raises(ValueError, match="^used_procs must be >= 0 when present, got -2$"):
            JobRecord(job_id="j", req_procs=1, used_procs=-2, used_mem_kb=-1)

    def test_rejects_nan_cpu_seconds(self):
        for field in ("req_cpu_s", "used_cpu_s"):
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ValueError,
                                   match=f"^{field} must be >= 0 when present, got {value}$"):
                    JobRecord(job_id="j", **{field: float(value)})

    def test_negative_duration_is_representable(self):
        # end < start is data at this layer, never an error
        rec = JobRecord(job_id="j", start_time=Timestamp(5000), end_time=Timestamp(4000))
        assert rec.end_time < rec.start_time

    def test_all_optional_fields_default_absent(self):
        rec = JobRecord(job_id="only")
        assert all(getattr(rec, f.name) is None
                   for f in dataclasses.fields(rec) if f.name != "job_id")

    @given(job_records)
    def test_in_memory_round_trip_is_lossless(self, rec):
        fields = {f.name: getattr(rec, f.name) for f in dataclasses.fields(rec)}
        assert JobRecord(**fields) == rec
        assert dataclasses.replace(rec) == rec


class TestRateSample:
    def _sample(self, **overrides):
        base = dict(job_id="j", start=Timestamp(0), end=Timestamp(32000),
                    n_bytes=33554432, duration_ms=32000,
                    rate_bytes_per_s=1048576.0, flags=frozenset())
        base.update(overrides)
        return RateSample(**base)

    def test_consistent_sample_accepted(self):
        sample = self._sample()
        assert sample.rate_bytes_per_s == 1048576.0

    def test_zero_duration_with_rate_impossible(self):
        with pytest.raises(ValueError):
            self._sample(end=Timestamp(0), duration_ms=0, rate_bytes_per_s=1.0)

    def test_zero_duration_without_rate_ok(self):
        sample = self._sample(end=Timestamp(0), duration_ms=0, rate_bytes_per_s=None)
        assert sample.rate_bytes_per_s is None

    def test_nonzero_duration_requires_rate(self):
        with pytest.raises(ValueError):
            self._sample(rate_bytes_per_s=None)

    def test_rate_must_reconstruct_byte_count(self):
        with pytest.raises(ValueError):
            self._sample(rate_bytes_per_s=1048576.5)

    @pytest.mark.parametrize("rate_bps", [float("nan"), float("inf"), float("-inf"), 1e305])
    def test_rate_must_be_finite_and_so_must_its_product(self, rate_bps):
        # NaN fails no comparison, and an infinite product makes the
        # tolerance infinite: the check must refuse both all the same.
        with pytest.raises(ValueError, match="^inconsistent sample"):
            self._sample(rate_bytes_per_s=rate_bps)
        with pytest.raises(ValueError, match="^inconsistent sample"):
            RateSample("j", Timestamp(0), Timestamp(1000), 5, 1000, rate_bps)

    def test_duration_must_match_endpoints(self):
        with pytest.raises(ValueError):
            self._sample(duration_ms=31999, rate_bytes_per_s=1048608.768)

    def test_negative_duration_needs_flag(self):
        with pytest.raises(ValueError):
            self._sample(end=Timestamp(-32000), duration_ms=-32000,
                         rate_bytes_per_s=-1048576.0)
        sample = self._sample(end=Timestamp(-32000), duration_ms=-32000,
                              rate_bytes_per_s=-1048576.0,
                              flags={RateFlag.NEGATIVE_DURATION})
        assert RateFlag.NEGATIVE_DURATION in sample.flags

    def test_flag_forbidden_on_positive_duration(self):
        for flags in ({RateFlag.NEGATIVE_DURATION},
                      {RateFlag.CARRIED_FORWARD_START, RateFlag.NEGATIVE_DURATION}):
            with pytest.raises(ValueError, match="NEGATIVE_DURATION flag"):
                self._sample(flags=flags)

    def test_rejects_negative_byte_count(self):
        with pytest.raises(ValueError):
            self._sample(n_bytes=-1)

    def test_flags_frozen(self):
        flags = self._sample(flags={RateFlag.CARRIED_FORWARD_START}).flags
        assert type(flags) is frozenset
        assert flags == frozenset({RateFlag.CARRIED_FORWARD_START})


class TestParseReport:
    def test_conservation_is_derived(self):
        report = ParseReport(total_lines=10, parsed=6,
                             reasons={"column-count": 2, "bad-int": 1})
        assert report.malformed == 3
        assert report.record_lines == 9
        assert report.comment_blank_lines == 1
        assert report.parsed + report.malformed \
            + report.comment_blank_lines == report.total_lines

    def test_rejects_overcounted_records(self):
        with pytest.raises(ValueError):
            ParseReport(total_lines=2, parsed=3)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ParseReport(total_lines=-1)
        with pytest.raises(ValueError):
            ParseReport(total_lines=1, reasons={"x": -1})
        with pytest.raises(ValueError, match=r"^reasons\['x'\] must be a non-negative integer"):
            ParseReport(total_lines=5, reasons={"x": 1.5})

    def test_malformed_is_never_an_argument(self):
        with pytest.raises(TypeError):
            ParseReport(total_lines=5, malformed=2, reasons={"bad-int": 1})
        report = ParseReport(total_lines=5, reasons={"bad-int": 1})
        with pytest.raises(ValueError):
            dataclasses.replace(report, malformed=2)
        assert report.malformed == 1

    def test_reasons_mapping_is_read_only(self):
        report = ParseReport(total_lines=1, reasons={"bad-int": 1})
        with pytest.raises(TypeError):
            report.reasons["bad-int"] = 2


class TestTraceSummary:
    def test_empty_has_no_statistics(self):
        summary = TraceSummary(n_rates=0, n_negative=0, n_undefined=3)
        assert summary.min is None and summary.p95 is None

    def test_empty_rejects_statistics(self):
        with pytest.raises(ValueError):
            TraceSummary(n_rates=0, n_negative=0, n_undefined=0, min=1.0,
                         max=1.0, mean=1.0, median=1.0, p95=1.0)

    def test_nonempty_requires_statistics(self):
        with pytest.raises(ValueError):
            TraceSummary(n_rates=1, n_negative=0, n_undefined=0)

    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            TraceSummary(n_rates=2, n_negative=0, n_undefined=0,
                         min=3.0, max=1.0, mean=2.0, median=2.0, p95=1.0)

    def test_negative_count_bounded(self):
        with pytest.raises(ValueError):
            TraceSummary(n_rates=1, n_negative=2, n_undefined=0,
                         min=1.0, max=1.0, mean=1.0, median=1.0, p95=1.0)
